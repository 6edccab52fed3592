"""kscheck benchmark: time from scenario text to a checked verdict.

    python3 perfbench/run.py --workload ks_sets --seed 1 --seconds 20 --trace 0

Run from the root of a kscheck checkout (it imports ``src/kscheck``).
Inputs are generated from ``--seed``; the program receives only text,
coordinates and states. Each workload runs in a fresh worker process
(perfbench/worker.py): one client, one op at a time (a closed loop), in
whole passes over the workload's ops for about ``--seconds``. Every
verdict is checked by perfbench/oracle.py, which shares no code with
kscheck.

Times are scaled to a reference machine speed: the worker times a fixed
loop of Fraction arithmetic (``worker.reference_ms``) before and after
every op and every set-up, and scales what it measured by ``REF_MS`` over
their mean. Wall-clock figures are printed too.

With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run, whose spans
are also written to ``.perfbench_out/``. The lines before it print every
metric by name and unit, plus ``fail_share`` and ``wrong_verdicts``.
Exit code 2 means the checkout has no ``src/kscheck``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 6  # fresh processes timing import + set-up, besides the worker itself
RUN_LIMIT_S = 170

END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("verdict_ms.p50", "ms"),
    ("verdict_ms.p90", "ms"),
    ("peak_rss_mib", "MiB"),
)
SPANS = (
    "dsl.parse_scenario", "dsl.parse_state", "qlogic.Ray", "qlogic.validate_context",
    "qlogic.projector_of", "ksengine.build_scenario", "ksengine.find_valuation",
    "ksengine.count_valuations", "ksengine.parity_certificate", "ksengine.orthogonality_graph",
    "ksengine.noncontextual_model", "ksengine.enumerate_valuations", "probability.context_distribution",
    "probability.check_state_axioms", "probability.finite_pvm_check", "probability.born",
    "exactlin.nonneg_solve", "cli.startup", "cli.check", "cli.color", "cli.parity", "cli.graph",
    "cli.model", "cli.prob", "cli.symm",
)
FAIL_COUNTED = ("ksengine.find_valuation", "ksengine.count_valuations", "ksengine.parity_certificate")
PER_LAYER = (
    [(f"{s}.{k}", unit) for s in SPANS for k, unit in (("ms", "ms"), ("calls", "count"))]
    + [(f"{s}.fail", "count") for s in FAIL_COUNTED]
    + [
        ("dsl.parse_scenario.rays_per_s", "1/s"),
        ("ksengine.noncontextual_model.support_share", "ratio"),
        ("ksengine.enumerate_valuations.yielded", "count"),
        ("exactlin.nonneg_solve.cols", "count"),
        ("op.self_ms", "ms"),
        ("trace.pass_s", "s"),
        ("trace.untraced_pass_s", "s"),
        ("trace.overhead_s", "s"),
    ]
)


def grade(result, check) -> dict:
    """Count attempted, failed and wrong ops; a key's verdict is checked once."""
    problems = {}
    for key, verdict in result["verdicts"].items():
        problems[key] = None if "error" in verdict else check(key, verdict)
    ops = result["ops"]
    return {
        "attempted": len(ops),
        "failed": sum(op["status"] != "ok" for op in ops),
        "wrong": sum(problems[op["key"]] is not None for op in ops) + result["inconsistent"],
        "problems": {k: p for k, p in problems.items() if p},
        "failures": sorted(
            {(op["key"], json.dumps(result["verdicts"][op["key"]])[:120]) for op in ops if op["status"] != "ok"}
        ),
    }


def end_to_end(result, setups, wall: bool = False) -> dict:
    """The end-to-end metrics at reference speed, or in wall-clock time."""
    ms, s = ("wall_ms", "wall_s") if wall else ("ms", "s")
    latencies = [op[ms] for op in result["ops"] if not op["traced"]]
    return {
        "setup_s": statistics.median(setup[s] for setup in setups),
        "pass_s": statistics.median(p[s] for p in result["passes"] if not p["traced"]),
        "verdict_ms.p50": statistics.median(latencies),
        "verdict_ms.p90": statistics.quantiles(latencies, n=10)[8],
        "peak_rss_mib": result["peak_rss_mib"],
    }


def per_layer(result) -> dict:
    traced = [p["s"] for p in result["passes"] if p["traced"]]
    untraced = [p["s"] for p in result["passes"] if not p["traced"]]
    n = len(traced)
    summary, counts = result["trace"]["summary"], result["trace"]["counts"]
    out = {}
    for s in SPANS:
        row = summary.get(s, {"ms": 0.0, "calls": 0})
        out[f"{s}.ms"] = row["ms"] / n
        out[f"{s}.calls"] = row["calls"] / n
    for s in FAIL_COUNTED:
        out[f"{s}.fail"] = counts.get(f"{s}.fail", 0) / n
    parse_s = summary.get("dsl.parse_scenario", {"ms": 0.0})["ms"] / 1000
    out["dsl.parse_scenario.rays_per_s"] = counts.get("dsl.parse_scenario.rays", 0) / parse_s if parse_s else 0.0
    cols = counts.get("exactlin.nonneg_solve.cols", 0)
    out["ksengine.noncontextual_model.support_share"] = counts.get("ksengine.noncontextual_model.support", 0) / cols if cols else 0.0
    out["ksengine.enumerate_valuations.yielded"] = counts.get("ksengine.enumerate_valuations.yielded", 0) / n
    out["exactlin.nonneg_solve.cols"] = cols / n
    out["op.self_ms"] = summary["op"]["self_ms"] / n
    out["trace.pass_s"] = statistics.median(traced)
    out["trace.untraced_pass_s"] = statistics.median(untraced)
    out["trace.overhead_s"] = out["trace.pass_s"] - out["trace.untraced_pass_s"]
    return out


def run_worker(args: list[str], deadline: float) -> subprocess.CompletedProcess:
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: worker exited with code {proc.returncode}")
    return proc


def main() -> int:
    deadline = time.monotonic() + RUN_LIMIT_S
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "kscheck" / "__init__.py").is_file():
        print(f"error: no src/kscheck under {ROOT}; run from a kscheck checkout", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        spec, check = workloads.build(args.workload, args.seed, work)
        spec.update(workload=args.workload, workdir=str(work))
        spec_path = work / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        setups = [
            json.loads(run_worker([str(spec_path), "--setup-only"], deadline).stdout)
            for _ in range(SETUP_PROBES)
        ]
        result_path = work / "result.json"
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        run_worker(
            [str(spec_path), "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--out", str(result_path), "--spans", str(spans_path)],
            deadline,
        )
        result = json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    setups.append(result["setup"])
    g = grade(result, check)
    if args.trace:
        metrics = per_layer(result)
        units = dict(PER_LAYER)
        print(f"# spans written to {spans_path.relative_to(ROOT)}")
    else:
        metrics = end_to_end(result, setups)
        units = dict(END_TO_END)
    samples = sum(not op["traced"] for op in result["ops"])
    print(f"# {args.workload} seed {args.seed}: {len(result['passes'])} passes, {g['attempted']} ops, "
          f"{samples} untraced verdict samples")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    if not args.trace:
        wall = end_to_end(result, setups, wall=True)
        print("# the same in wall-clock time: " + ", ".join(
            f"{name} {wall[name]:.6g} {units[name]}" for name in wall if name != "peak_rss_mib"))
    print(f"fail_share {g['failed'] / g['attempted']:.6g} ratio")
    print(f"wrong_verdicts {g['wrong']} count")
    for key, reason in g["problems"].items():
        print(f"# WRONG {key}: {reason}")
    for key, what in g["failures"]:
        print(f"# failed {key}: {what}")
    print(json.dumps({
        "correct": g["wrong"] == 0,
        "attempted": g["attempted"],
        "failed": g["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
