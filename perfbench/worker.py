"""One workload in a fresh process: import kscheck, set up, run passes of ops.

    python3 perfbench/worker.py SPEC --setup-only
    python3 perfbench/worker.py SPEC --seconds S --trace 0|1 --out RESULT [--spans FILE]

SPEC is the JSON written by run.py. With ``--setup-only`` the process
times the import and the set-up, prints ``{"s": ..., "wall_s": ...}``
and exits.
Otherwise it runs whole passes over the workload's ops, one op at a
time, starting a pass while time is left or fewer than ``MIN_OPS`` ops
have run; with ``--trace 1`` it alternates untraced and traced passes.
Every time is also given scaled to reference speed (``reference_ms``).
Verdicts are serialised outside the timed region and written to RESULT
for run.py to check.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter, perf_counter_ns

from spans import NullTracer, Tracer
from workloads import edge_digest

ROOT = Path(__file__).resolve().parent.parent
# Pool at least this many verdicts, so verdict_ms.p90 has 10 beyond it.
MIN_OPS = 100
# What reference_ms() takes at the machine speed all times are scaled to.
REF_MS = 2.5


def reference_ms() -> float:
    """Time a fixed loop of Fraction arithmetic and small dicts and tuples.

    Shared machines switch between speeds every few seconds, and kscheck's
    Fraction-heavy code slows by up to 1.6x in the slow phases. This loop
    does the same kind of work, so its time tracks the machine's speed for
    that work; it uses no kscheck code, so no change to kscheck moves it.
    """
    start = perf_counter_ns()
    acc = {}
    for i in range(1, 400):
        f = Fraction(i, i + 7) * Fraction(i + 3, 2 * i + 1) + Fraction(1, i)
        acc[(i % 17, f.denominator % 5)] = (f, tuple(range(i % 5)))
    return (perf_counter_ns() - start) / 1e6


def scaled(ms: float, ref_before: float, ref_after: float) -> float:
    """A time measured between two reference loops, at reference speed."""
    return ms * 2 * REF_MS / (ref_before + ref_after)


class Failure:
    """An op stage that raised, or a CLI run that crashed or exited 2."""

    def __init__(self, kind: str):
        self.kind = kind
        self.refused = kind == "ScenarioTooLargeError"

    def to_json(self):
        return {"error": self.kind}


def stage(t, name: str, fn):
    with t.span(name):
        try:
            return fn()
        except Exception as exc:  # counted as a failed op, never hidden
            failure = Failure(type(exc).__name__)
    t.count(name + ".fail")
    return failure


def status_of(raw) -> str:
    failures = [v for v in (raw.values() if isinstance(raw, dict) else [raw]) if isinstance(v, Failure)]
    if not failures:
        return "ok"
    return "refused" if all(f.refused for f in failures) else "error"


def _json(value):
    return value.to_json() if isinstance(value, Failure) else value


def _ones(valuation):
    return None if valuation is None else list(valuation.ones())


def _cert(cert):
    if cert is None:
        return None
    return {"context_count": cert.context_count, "mult": dict(cert.ray_multiplicities)}


def _graph(edges):
    return [len(edges), edge_digest(edges)]


def _probe_qlogic(ks, t, rays, contexts) -> None:
    """Traced runs only: time Ray and validate_context on the input itself."""
    made = {}
    for rid, coords in rays:
        with t.span("qlogic.Ray"):
            made[rid] = ks.Ray(rid, coords)
    dim = len(rays[0][1])
    for c in contexts:
        with t.span("qlogic.validate_context"):
            ks.validate_context([made[r] for r in c], dim)


def _search_stages(ks, t, s) -> dict:
    return {
        "find": stage(t, "ksengine.find_valuation", lambda: ks.find_valuation(s)),
        "parity": stage(t, "ksengine.parity_certificate", lambda: ks.parity_certificate(s)),
        "count": stage(t, "ksengine.count_valuations", lambda: ks.count_valuations(s)),
    }


def _search_verdict(raw) -> dict:
    out = {}
    for key, fn in (("find", _ones), ("parity", _cert), ("count", lambda n: n), ("graph", _graph)):
        if key in raw:
            out[key] = _json(raw[key]) if isinstance(raw[key], Failure) else fn(raw[key])
    return out


# --- workloads: each returns [(key, run(tracer) -> raw, verdict(raw) -> json)] ----


def ks_sets(ks, spec):
    def op(item):
        def run(t):
            with t.span("dsl.parse_scenario"):
                s = ks.parse_scenario(item["text"], merge=item["merge"])
            t.count("dsl.parse_scenario.rays", len(item["rays"]))
            if t.on:
                _probe_qlogic(ks, t, item["rays"], item["contexts"])
            raw = _search_stages(ks, t, s)
            raw["graph"] = stage(t, "ksengine.orthogonality_graph", lambda: ks.orthogonality_graph(s))
            return raw

        return item["key"], run, _search_verdict

    return [op(item) for item in spec["ops"]]


def scale_sweep(ks, spec):
    def op(item):
        def run(t):
            with t.span("ksengine.build_scenario"):
                s = ks.build_scenario(item["rays"], item["contexts"])
            if t.on:
                _probe_qlogic(ks, t, item["rays"], item["contexts"])
            return _search_stages(ks, t, s)

        return item["key"], run, _search_verdict

    return [op(item) for item in spec["ops"]]


def born_model(ks, spec):
    scenarios = {name: ks.parse_scenario(text) for name, text in spec["scenarios"].items()}
    states = {
        item["state"]: ks.parse_state(spec["states"][item["state"]], scenarios[item["scenario"]].dim)
        for item in spec["ops"]
        if item["kind"] != "dist"
    }

    def dist(s, state_text):
        def run(t):
            with t.span("dsl.parse_state"):
                rho = ks.parse_state(state_text, s.dim)
            spaces = []
            for c in s.contexts:
                with t.span("probability.context_distribution"):
                    spaces.append(ks.context_distribution(rho, c))
                if t.on:
                    for r in c.rays:
                        with t.span("qlogic.projector_of"):
                            ks.projector_of(r)
            return spaces

        def verdict(spaces):
            return {"contexts": [[[rid, str(sp.weights[rid])] for rid in sp.outcomes] for sp in spaces]}

        return run, verdict

    def axioms(s, rho):
        def run(t):
            with t.span("probability.check_state_axioms"):
                state = ks.check_state_axioms(rho, s)
            with t.span("probability.finite_pvm_check"):
                pvm = ks.finite_pvm_check(s.contexts)
            return state, pvm

        return run, lambda raw: {"state_ok": raw[0].ok, "pvm_ok": raw[1].ok}

    def model(s, rho):
        def run(t):
            with t.span("ksengine.noncontextual_model"):
                m = ks.noncontextual_model(s, rho)
            from_parts = _model_from_parts(ks, t, s, rho) if t.on else None
            if from_parts is not None:
                t.count("ksengine.noncontextual_model.support", len(m.weights) if m else 0)
            return m, from_parts

        def verdict(raw):
            m, from_parts = raw
            out = {
                "feasible": m is not None,
                "weights": [] if m is None else [[str(m.weights[k]), list(m.valuations[k].ones())] for k in sorted(m.weights)],
            }
            if from_parts is not None:
                out["from_parts"] = from_parts
            return out

        return run, verdict

    ops = []
    for item in spec["ops"]:
        s, name = scenarios[item["scenario"]], item["state"]
        if item["kind"] == "dist":
            run, verdict = dist(s, spec["states"][name])
        elif item["kind"] == "axioms":
            run, verdict = axioms(s, states[name])
        else:
            run, verdict = model(s, states[name])
        ops.append((item["key"], run, verdict))
    return ops


def _model_from_parts(ks, t, s, rho) -> bool:
    """The model verdict rebuilt from public parts, so exactlin has a span."""
    with t.span("model.from_parts"):
        with t.span("ksengine.enumerate_valuations"):
            valuations = list(ks.enumerate_valuations(s))
        t.count("ksengine.enumerate_valuations.yielded", len(valuations))
        targets = []
        for r in s.rays:
            with t.span("qlogic.projector_of"):
                p = ks.projector_of(r)
            with t.span("probability.born"):
                targets.append(ks.born(rho, p))
        if not valuations:
            return False
        rows = [tuple(v[r.id] for v in valuations) for r in s.rays] + [(1,) * len(valuations)]
        a, b = ks.RMatrix(rows), ks.RVector(tuple(targets) + (1,))
        t.count("exactlin.nonneg_solve.cols", len(valuations))
        with t.span("exactlin.nonneg_solve"):
            return ks.nonneg_solve(a, b) is not None


def cli(ks, spec):
    workdir = Path(spec["workdir"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))

    def op(item):
        argv = [sys.executable, "-m", "kscheck", *item["argv"]]

        def run(t):
            with t.span("cli." + item["sub"]):
                try:
                    proc = subprocess.run(argv, cwd=workdir, env=env, capture_output=True, text=True, timeout=120)
                except subprocess.TimeoutExpired:
                    return Failure("timeout")
            if t.on and item is spec["ops"][0]:
                # Once per traced pass: bare interpreter start plus import.
                for _ in range(3):
                    with t.span("cli.startup"):
                        subprocess.run([sys.executable, "-c", "import kscheck"], cwd=workdir, env=env, check=True)
            # An uncaught exception, or exit 2 where no input is malformed, is a failure.
            if "Traceback (most recent call last)" in proc.stderr or proc.returncode == 2:
                last = proc.stderr.strip().splitlines()[-1:] or [""]
                return Failure(f"exit {proc.returncode}: {last[0][:80]}")
            return proc

        def verdict(proc):
            if isinstance(proc, Failure):
                return proc.to_json()
            out = {"rc": proc.returncode, "out": proc.stdout}
            if item["sub"] == "graph":
                out["dot"] = (workdir / item["argv"][3]).read_text(encoding="utf-8")
            return out

        return item["key"], run, verdict

    return [op(item) for item in spec["ops"]]


RUNNERS = {"ks_sets": ks_sets, "scale_sweep": scale_sweep, "born_model": born_model, "cli": cli}


def run_passes(ops, seconds: float, trace: bool):
    """Whole passes while time is left; with tracing, alternate untraced and traced."""
    tracer, null = Tracer(), NullTracer()
    first: dict[str, dict] = {}
    from_parts: dict[str, set] = {}  # model verdicts rebuilt in traced passes
    record = {"passes": [], "ops": [], "inconsistent": 0}
    start = perf_counter()
    ref = reference_ms()
    while True:
        traced = trace and len(record["passes"]) % 2 == 1
        t = tracer if traced else null
        pass_wall = pass_scaled = 0.0
        for key, run, to_verdict in ops:
            t.op = f"{len(record['passes'])}:{key}"
            t0 = perf_counter_ns()
            with t.span("op"):
                try:
                    raw = run(t)
                except Exception as exc:
                    raw = Failure(type(exc).__name__)
            wall_ms = (perf_counter_ns() - t0) / 1e6
            ref_after = reference_ms()
            elapsed_ms = scaled(wall_ms, ref, ref_after)
            ref = ref_after
            pass_wall += wall_ms / 1000
            pass_scaled += elapsed_ms / 1000
            verdict = _json(raw) if isinstance(raw, Failure) else to_verdict(raw)
            if isinstance(verdict, dict) and "from_parts" in verdict:
                from_parts.setdefault(key, set()).add(verdict.pop("from_parts"))
            if key not in first:
                first[key] = verdict
            elif first[key] != verdict:
                record["inconsistent"] += 1
            record["ops"].append(
                {"key": key, "ms": elapsed_ms, "wall_ms": wall_ms, "status": status_of(raw), "traced": traced}
            )
        record["passes"].append({"s": pass_scaled, "wall_s": pass_wall, "traced": traced})
        kinds = {p["traced"] for p in record["passes"]}
        enough = len(record["ops"]) >= MIN_OPS and (not trace or kinds == {False, True})
        if perf_counter() - start >= seconds and enough:
            break
    for key, seen in from_parts.items():
        if len(seen) > 1:
            record["inconsistent"] += 1
        first[key] = dict(first[key], from_parts=seen.pop())
    record["verdicts"] = first
    return record, tracer


def peak_rss_mib() -> float:
    kib = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib / 1024


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("spec")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    parser.add_argument("--spans")
    args = parser.parse_args()
    spec = json.loads(Path(args.spec).read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))
    # One CPU for this process and the CLI runs it starts, so the reference
    # loop and the work it scales see the same phase of the same CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    ref_before = reference_ms()
    t0 = perf_counter()
    import kscheck

    ops = RUNNERS[spec["workload"]](kscheck, spec)
    wall_s = perf_counter() - t0
    setup = {"s": scaled(wall_s, ref_before, reference_ms()), "wall_s": wall_s}
    if args.setup_only:
        print(json.dumps(setup))
        return

    record, tracer = run_passes(ops, args.seconds, bool(args.trace))
    record["setup"] = setup
    record["peak_rss_mib"] = peak_rss_mib()
    if args.trace:
        record["trace"] = {"summary": tracer.summary(), "counts": dict(tracer.counts)}
        if args.spans:
            tracer.write(Path(args.spans))
    Path(args.out).write_text(json.dumps(record), encoding="utf-8")


if __name__ == "__main__":
    main()
