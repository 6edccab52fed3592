"""The four workloads: seeded inputs for the program, and the checker for its verdicts.

``build(workload, seed, workdir)`` returns a JSON-ready spec, which the
worker turns into kscheck calls, and a ``check(key, verdict)`` function
returning ``None`` for a right verdict or a one-line reason for a wrong
one. The spec holds only generated text, coordinates and states; the
checker uses ``oracle`` and never kscheck.

Why each workload (details in README.md):

* ``ks_sets``: the verdict pipeline from scenario text; most time is in
  ``dsl`` parsing and ``qlogic`` validation, and in the graph on big sets.
* ``scale_sweep``: library-built inputs, no ``dsl``: thousands of search
  levels on a chain, one huge context on a basis.
* ``born_model``: state questions on pre-parsed scenarios; time is in
  ``probability``, ``qlogic.projector_of`` and the ``exactlin`` simplex.
* ``cli``: ``python -m kscheck`` as a subprocess; interpreter start,
  import and argument handling.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import gen
import oracle

WORKLOADS = ("ks_sets", "scale_sweep", "born_model", "cli")

# ks_sets: seeded context subsets per base set, with fixed sizes so every
# seed does about the same work. A third of the subsets of the two sets
# that contain Cabello's contexts keep all nine, so they are uncolourable.
KS_SUBSETS = {"peres24": 25, "grid01_4": 25, "grid01_5": 25, "grid012_4": 25}
KS_SIZES = {
    "peres24": (4, 6, 8, 10, 12),
    "grid01_4": (3, 5, 7, 9, 11),
    "grid01_5": (2, 3, 4, 5, 6),
    "grid012_4": (3, 5, 7, 9, 11),
}
# scale_sweep: (kind, size, copies). The seeded chains of 100 are most of
# the ops, so verdict_ms.p50 and p90 fall inside one cluster of similar
# ops, not on the edge between two; the large inputs weigh on pass_s.
SWEEP = (("chain", 100, 35), ("chain", 1000, 1), ("basis", 8, 1), ("basis", 16, 1), ("basis", 31, 1))
# born_model: {0,+-1}^4 context subsets of these sizes, with this many valuations.
BORN_SUBSETS, BORN_VALUATIONS = (3, 3, 4, 4, 5, 5), (26, 120)


def edge_digest(edge_list) -> str:
    text = "\n".join(f"{a} {b}" for a, b in edge_list)
    return hashlib.sha256(text.encode()).hexdigest()


def _expected_count(inp, ids, ctx) -> tuple[int, str]:
    if "closed_count" in inp:
        return inp["closed_count"], "closed form"
    if len(ids) <= oracle.BRUTE_RAYS:
        return oracle.brute_count(ids, ctx), "brute force"
    if oracle.parity_subset(ids, ctx) is not None:
        return 0, "a parity subset"
    return oracle.search_count(ids, ctx), "search"


class Expect:
    """The checker's answers for one scenario, computed once."""

    def __init__(self, inp):
        self.ids, self.coords, self.ctx = oracle.effective(inp["rays"], inp["contexts"], inp.get("merge", True))
        self.dim = len(inp["rays"][0][1])
        self.count, self.count_source = _expected_count(inp, self.ids, self.ctx)
        self.mult = Counter(r for c in self.ctx for r in c)
        self.whole_parity = len(self.ctx) % 2 == 1 and all(m % 2 == 0 for m in self.mult.values())
        self._edges = None

    @property
    def edges(self):
        if self._edges is None:
            self._edges = oracle.edges(self.ids, self.coords)
        return self._edges

    def find(self, ones) -> str | None:
        if ones is None:
            return None if self.count == 0 else f"NO VALUATION, but there are {self.count}"
        if not set(ones) <= set(self.ids) or not oracle.valuation_ok(self.ctx, ones):
            return "valuation breaks a context"
        return None

    def parity(self, cert) -> str | None:
        """None must mean the whole set lacks the parity property; a
        certificate must be the whole-set one, or, once certificates name
        a subset, at least consistent and for an uncolourable input."""
        if cert is None:
            return "missed the whole-set parity certificate" if self.whole_parity else None
        mult, count = cert["mult"], cert["context_count"]
        if self.whole_parity and count == len(self.ctx) and mult == dict(self.mult):
            return None
        consistent = count % 2 == 1 and all(
            m > 0 and m % 2 == 0 and m <= self.mult.get(r, 0) for r, m in mult.items()
        )
        return None if consistent and self.count == 0 else "invalid parity certificate"

    def count_verdict(self, n) -> str | None:
        return None if n == self.count else f"count {n}, {self.count_source} gives {self.count}"


def _stage_problems(expect: Expect, verdict, stages) -> str | None:
    problems = []
    for stage in stages:
        value = verdict[stage]
        if isinstance(value, dict) and "error" in value:
            continue  # a failure, counted as such, not a wrong verdict
        if stage == "find":
            p = expect.find(value)
        elif stage == "parity":
            p = expect.parity(value)
        elif stage == "count":
            p = expect.count_verdict(value)
        else:
            p = None if value == [len(expect.edges), edge_digest(expect.edges)] else "wrong graph"
        if p:
            problems.append(f"{stage}: {p}")
    return "; ".join(problems) or None


# --- ks_sets ---------------------------------------------------------------


def _ks_inputs(seed: int) -> dict[str, dict]:
    rng = random.Random(seed)
    sets = gen.named_sets()
    cab = sets["cabello18"]
    cab_all = range(len(cab.contexts))

    def entry(rs: gen.RaySet, **extra):
        return {"rays": rs.rays, "contexts": rs.contexts, "text": rs.text(), **extra}

    inputs = {"cabello18": entry(cab, closed_count=0)}
    for k in cab_all:
        inputs[f"cabello18-del{k}"] = entry(cab.subset(f"cabello18 without context {k}", [i for i in cab_all if i != k]), closed_count=26)
    inputs["cabello18-nomerge"] = entry(cab, merge=False, closed_count=4 ** 9)
    for name in ("peres24", "grid01_4", "grid01_5", "grid012_4"):
        inputs[name] = entry(sets[name])
    for name, n in KS_SUBSETS.items():
        base = sets[name]
        core = gen.embedded_contexts(base, cab) if name in ("grid01_4", "grid012_4") else []
        for i in range(n):
            size = KS_SIZES[name][i % len(KS_SIZES[name])]
            planted = core if core and i % 3 == 0 else []
            rest = [k for k in range(len(base.contexts)) if k not in planted]
            chosen = sorted(planted + rng.sample(rest, size))
            inputs[f"{name}-sub{i}"] = entry(base.subset(f"{name} subset {i}", chosen))
    return inputs


def _ks_sets(seed: int, workdir: Path):
    inputs = _ks_inputs(seed)
    spec = {
        "ops": [
            {"key": key, "text": inp["text"], "merge": inp.get("merge", True), "rays": inp["rays"], "contexts": inp["contexts"]}
            for key, inp in inputs.items()
        ]
    }
    expects = {key: Expect(inp) for key, inp in inputs.items()}

    def check(key, verdict):
        return _stage_problems(expects[key], verdict, ("find", "parity", "count", "graph"))

    return spec, check


# --- scale_sweep -----------------------------------------------------------


def _scale_sweep(seed: int, workdir: Path):
    rng = random.Random(seed)
    ops, expects = [], {}
    for kind, size, copies in SWEEP:
        for i in range(copies):
            rays, contexts = gen.chain(size, rng) if kind == "chain" else gen.basis(size, rng)
            key = f"{kind}{size}-{i}"
            closed = 2 ** size if kind == "chain" else size
            ops.append({"key": key, "rays": rays, "contexts": contexts})
            expects[key] = Expect({"rays": rays, "contexts": contexts, "closed_count": closed})

    def check(key, verdict):
        return _stage_problems(expects[key], verdict, ("find", "parity", "count"))

    return {"ops": ops}, check


# --- born_model ------------------------------------------------------------


def _born_scenarios(rng: random.Random) -> dict[str, gen.RaySet]:
    sets = gen.named_sets()
    cab, grid = sets["cabello18"], sets["grid01_4"]
    out = {"cabello18": cab}
    for k in range(len(cab.contexts)):
        out[f"cabello18-del{k}"] = cab.subset(f"cabello18 without context {k}", [i for i in range(9) if i != k])
    lo, hi = BORN_VALUATIONS
    while len(out) < 10 + len(BORN_SUBSETS):
        size = BORN_SUBSETS[len(out) - 10]
        chosen = sorted(rng.sample(range(len(grid.contexts)), size))
        sub = grid.subset("grid01_4 subset", chosen)
        ids, _, ctx = oracle.effective(sub.rays, sub.contexts)
        if lo <= oracle.search_count(ids, ctx) <= hi:
            out[f"grid01_4-sub{len(out) - 10}"] = sub
    return out


def _born_model(seed: int, workdir: Path):
    rng = random.Random(seed)
    scenarios = _born_scenarios(rng)
    # Three states per scenario: a pure one and mixtures of 2 and 3 rays.
    # Each gets a distribution op, so those quick ops are half of a pass
    # and verdict_ms.p50 falls among them; the axiom and model ops use one
    # state per scenario, pure or mixed in turn.
    states, ops = {}, []
    for i, name in enumerate(scenarios):
        for j in range(3):
            sid = f"{name}/{j}"
            states[sid] = (name, gen.rational_state(4, rng, j + 1))
            ops.append({"key": f"dist:{sid}", "kind": "dist", "scenario": name, "state": sid})
        sid = f"{name}/{i % 3}"
        for kind in ("axioms", "model"):
            ops.append({"key": f"{kind}:{sid}", "kind": kind, "scenario": name, "state": sid})
    spec = {
        "scenarios": {name: rs.text() for name, rs in scenarios.items()},
        "states": {sid: gen.state_text(parts) for sid, (_, parts) in states.items()},
        "ops": ops,
    }
    expects = {name: Expect({"rays": rs.rays, "contexts": rs.contexts}) for name, rs in scenarios.items()}
    probs = {
        sid: {rid: oracle.born(parts, v) for rid, v in expects[name].coords.items()}
        for sid, (name, parts) in states.items()
    }

    def check(key, verdict):
        kind, sid = key.split(":", 1)
        name = states[sid][0]
        if kind == "dist":
            return _check_distributions(expects[name], probs[sid], verdict["contexts"])
        if kind == "axioms":
            return None if verdict == {"state_ok": True, "pvm_ok": True} else "a valid state or context was rejected"
        problem = _check_model(expects[name], probs[sid], verdict["feasible"], verdict["weights"])
        if problem is None and "from_parts" in verdict and verdict["from_parts"] != verdict["feasible"]:
            problem = "verdict from the public parts differs from noncontextual_model"
        return problem

    return spec, check


def _check_distributions(expect: Expect, probs, contexts) -> str | None:
    want = [[[rid, str(probs[rid])] for rid in c] for c in expect.ctx]
    return None if contexts == want else "a Born weight differs from v.rho.v / v.v"


def _check_model(expect: Expect, probs, feasible: bool, weights) -> str | None:
    """FEASIBLE: substitute the weights. INFEASIBLE: the checker's own LP."""
    if feasible:
        total = sum(Fraction(w) for w, _ in weights)
        if total != 1 or any(Fraction(w) < 0 for w, _ in weights):
            return "model weights are not a distribution"
        if not all(oracle.valuation_ok(expect.ctx, ones) for _, ones in weights):
            return "model uses an invalid valuation"
        for rid in expect.ids:
            if sum(Fraction(w) for w, ones in weights if rid in ones) != probs[rid]:
                return f"model misses the Born probability of {rid}"
        return None
    if expect.count == 0:
        return None
    vals = oracle.all_valuations(expect.ids, expect.ctx)
    rows = [[int(rid in v) for v in vals] for rid in expect.ids] + [[1] * len(vals)]
    rhs = [probs[rid] for rid in expect.ids] + [1]
    return "INFEASIBLE, but the checker's LP finds a model" if oracle.lp_feasible(rows, rhs) else None


# --- cli -------------------------------------------------------------------


def _cli(seed: int, workdir: Path):
    rng = random.Random(seed)
    sets = gen.named_sets()
    cab, grid = sets["cabello18"], sets["grid01_4"]
    deleted = rng.randrange(9)
    chain_rays, chain_contexts = gen.chain(1000, rng)
    scen = {
        "cab": cab,
        "del": cab.subset("cabello18 without one context", [i for i in range(9) if i != deleted]),
        "peres": sets["peres24"],
        "chain": gen.RaySet("chain of 1000 dim-2 contexts", 2, chain_rays, chain_contexts),
    }
    for i in range(4):
        scen[f"sub{i}"] = grid.subset(f"grid01_4 subset {i}", sorted(rng.sample(range(32), 4 + 2 * i)))
    states = {f"st{i}": gen.rational_state(4, rng, i + 1) for i in range(4)}
    for name, rs in scen.items():
        (workdir / f"{name}.ks").write_text(rs.text(), encoding="utf-8")
    for name, parts in states.items():
        (workdir / f"{name}.state").write_text(gen.state_text(parts), encoding="utf-8")

    ops = []

    def op(*argv, **expect):
        ops.append({"key": " ".join(argv), "argv": list(argv), "sub": argv[0], **expect})

    for s in ("cab", "peres", "sub3"):
        op("check", f"{s}.ks", scen=s)
    for s in ("cab", "del", "chain", "sub0", "sub1", "sub2", "sub3"):
        op("color", f"{s}.ks", scen=s)
    for s in ("cab", "del", "sub0", "sub1", "sub2", "sub3"):
        op("color", f"{s}.ks", "--count", scen=s)
    op("color", "cab.ks", "--count", "--no-merge", scen="cab", merge=False)
    for s in ("cab", "del", "peres", "sub2"):
        op("parity", f"{s}.ks", scen=s)
    for s in ("cab", "peres"):
        op("graph", f"{s}.ks", "--dot", f"{s}.dot", scen=s)
    for st in ("st0", "st1", "st2", "st3"):
        op("model", "del.ks", "--state", f"{st}.state", scen="del", state=st)
        op("prob", "del.ks", "--state", f"{st}.state", scen="del", state=st)
    op("model", "cab.ks", "--state", "st1.state", scen="cab", state="st1")
    for k in (1, 5, 9):
        op("prob", "cab.ks", "--state", f"st{k % 4}.state", "--context", str(k), scen="cab", state=f"st{k % 4}", context=k)
    for sign in ("+", "-", "+", "-"):
        a = [rng.randint(-4, 4) for _ in range(3)]
        b = [rng.randint(-4, 4) for _ in range(3)]
        while not any(a) or not any(b) or sign == "-" and oracle.dot(a, a) * oracle.dot(b, b) == oracle.dot(a, b) ** 2:
            a, b = [rng.randint(-4, 4) for _ in range(3)], [rng.randint(-4, 4) for _ in range(3)]
        op("symm", "--a=" + ",".join(map(str, a)), "--b=" + ",".join(map(str, b)), "--sign", sign, a=a, b=b, sign=sign)

    closed = {("cab", True): 0, ("del", True): 26, ("cab", False): 4 ** 9, ("chain", True): 2 ** 1000}
    expects = {}
    for o in ops:
        which = (o.get("scen"), o.get("merge", True))
        if "scen" in o and which not in expects:
            rs = scen[o["scen"]]
            inp = {"rays": rs.rays, "contexts": rs.contexts, "merge": which[1]}
            if which in closed:
                inp["closed_count"] = closed[which]
            expects[which] = Expect(inp)
    by_key = {o["key"]: o for o in ops}

    def check(key, verdict):
        o = by_key[key]
        exp = expects.get((o.get("scen"), o.get("merge", True)))
        probs = None
        if "state" in o:
            probs = {rid: oracle.born(states[o["state"]], v) for rid, v in exp.coords.items()}
        return _check_cli(o, exp, probs, verdict)

    spec = {"ops": [{"key": o["key"], "argv": o["argv"], "sub": o["sub"]} for o in ops]}
    return spec, check


def _check_cli(o, exp: Expect | None, probs, verdict) -> str | None:
    rc, lines = verdict["rc"], verdict["out"].splitlines()
    sub = o["sub"]
    if sub == "check":
        want = f"OK dim={exp.dim} rays={len(exp.ids)} contexts={len(exp.ctx)}"
        return None if (rc, lines) == (0, [want]) else "check output"
    if sub == "color" and "--count" in o["argv"]:
        ok = lines == [str(exp.count)] and rc == (0 if exp.count else 1)
        return None if ok else f"count output {lines[:1]}, expected {exp.count}"
    if sub == "color":
        if lines == ["NO VALUATION"]:
            return exp.find(None) if rc == 1 else "exit code"
        values = dict(line.split() for line in lines)
        if rc != 0 or set(values) != set(exp.ids):
            return "valuation output"
        return exp.find([rid for rid, v in values.items() if v == "1"])
    if sub == "parity":
        if lines == ["NO PARITY CERTIFICATE"]:
            return exp.parity(None) if rc == 1 else "exit code"
        if rc != 0 or lines[:1] != ["PARITY CERTIFICATE"]:
            return "parity output"
        count = int(lines[1].split()[1])
        mult = {rid: int(m) for rid, m in (line.split() for line in lines[2:])}
        return exp.parity({"context_count": count, "mult": mult})
    if sub == "graph":
        want_line = f"wrote {o['argv'][3]} ({len(exp.ids)} vertices, {len(exp.edges)} edges)"
        want_dot = {f'  "{a}" -- "{b}";' for a, b in exp.edges}
        got_dot = {line for line in verdict.get("dot", "").splitlines() if " -- " in line}
        return None if (rc, lines, got_dot) == (0, [want_line], want_dot) else "graph output"
    if sub == "model":
        if lines == ["INFEASIBLE"] and rc == 1:
            return _check_model(exp, probs, False, [])
        if rc != 0 or lines[:1] != ["FEASIBLE"]:
            return "model output"
        weights = []
        for line in lines[1:]:
            _, w, _, *ones = line.split()
            weights.append((w, ones))
        return _check_model(exp, probs, True, weights)
    if sub == "prob":
        if "context" in o:
            want = [f"{rid} {probs[rid]}" for rid in exp.ctx[o["context"] - 1]]
        else:
            want = []
            for k, c in enumerate(exp.ctx, start=1):
                want += ([""] if k > 1 else []) + [f"context {k}"] + [f"{rid} {probs[rid]}" for rid in c]
        return None if (rc, lines) == (0, want) else "Born distribution output"
    if sub == "symm":
        a, b, s = o["a"], o["b"], 1 if o["sign"] == "+" else -1
        amp = [[a[i] * b[j] + s * b[i] * a[j] for j in range(3)] for i in range(3)]
        want = [f"amplitude {i} {j} {amp[i][j]}" for i in range(3) for j in range(3) if amp[i][j]]
        want += [f"norm_squared {sum(x * x for row in amp for x in row)}", f"parity {'+1' if s == 1 else '-1'}"]
        return None if (rc, lines) == (0, want) else "symmetrization output"
    raise ValueError(f"unknown subcommand {sub}")


BUILDERS = {"ks_sets": _ks_sets, "scale_sweep": _scale_sweep, "born_model": _born_model, "cli": _cli}


def build(workload: str, seed: int, workdir: Path):
    """(spec for the worker, check(key, verdict) -> reason or None)."""
    return BUILDERS[workload](seed, workdir)
