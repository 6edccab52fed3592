"""Acceptance suite: one test per criterion, every check exact.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion. There are no tolerances to pin because every quantity in
the package is an exact rational; "equal" below always means identical.
"""

import random
import time
from fractions import Fraction

import pytest

from kscheck import (
    DensityOperator,
    FiniteProbabilitySpace,
    born,
    cabello18,
    cabello18_text,
    check_classical_axioms,
    context_distribution,
    count_valuations,
    event_probability,
    exchange_parity,
    find_valuation,
    join,
    meet,
    noncontextual_model,
    ortho,
    pair_probability,
    parity_certificate,
    parse_scenario,
    projector_of,
    serialize_scenario,
    swap,
    symmetrize,
    verify_func,
    without_context,
)
from kscheck.cli import run
from kscheck.lattice import Subspace
from kscheck.qlogic import Ray
from kscheck.symmetry import product_state

from helpers import (
    rand_mixed_state,
    rand_nonzero_vector,
    rand_subspace,
    rand_subspace_of,
    single_context_scenario,
)

# Pinned by the standalone brute-force oracle (raw 2^18 enumeration):
# deleting any single context from the 18-ray set leaves 26 valuations.
DELETION_COUNTS = {k: 26 for k in range(9)}


@pytest.fixture(scope="module")
def cabello():
    return cabello18()


def ok(n: int, message: str) -> None:
    print(f"criterion {n:2d} PASS: {message}")


def test_criterion_01_ks_contradiction(cabello):
    start = time.perf_counter()
    count = count_valuations(cabello)
    valuation = find_valuation(cabello)
    elapsed = time.perf_counter() - start
    assert count == 0
    assert valuation is None
    assert elapsed < 1.0, f"exhaustive search took {elapsed:.3f}s, budget is 1s"
    ok(1, f"count=0 and no valuation on the 18-ray set in {elapsed * 1000:.1f} ms")


def test_criterion_02_parity_certificate(cabello):
    cert = parity_certificate(cabello)
    assert cert is not None
    assert cert.context_count == 9
    assert len(cert.ray_multiplicities) == 18
    assert all(m == 2 for m in cert.ray_multiplicities.values())
    # soundness cross-check against criterion 1
    assert count_valuations(cabello) == 0
    ok(2, "certificate: 18 ray multiplicities all 2, context count 9, count=0 confirmed")


def test_criterion_03_identity_dial():
    unmerged = cabello18(merge=False)
    assert len(unmerged.rays) == 36
    valuation = find_valuation(unmerged)
    assert valuation is not None
    assert verify_func(valuation, unmerged).ok
    assert count_valuations(unmerged) == 4**9 == 262144
    ok(3, "without cross-context identification: valuation exists, count = 4^9 = 262144")


def test_criterion_04_criticality_probe(cabello):
    for k in range(9):
        reduced = without_context(cabello, k)
        n = count_valuations(reduced)
        assert n >= 1
        assert n == DELETION_COUNTS[k]
        assert find_valuation(reduced) is not None
    ok(4, "every single-context deletion is colorable, all counts equal the pinned 26")


def test_criterion_05_born_rule_suite(cabello):
    mixed = DensityOperator.maximally_mixed(4)
    quarter = Fraction(1, 4)
    for c in cabello.contexts:
        space = context_distribution(mixed, c)
        assert all(space.weights[o] == quarter for o in space.outcomes)

    rng = random.Random(20240)
    for _ in range(1000):
        rho = rand_mixed_state(rng, 4)
        for c in cabello.contexts:
            assert context_distribution(rho, c).total() == 1

    orthogonal_pairs = [
        (a, b)
        for i, a in enumerate(cabello.rays)
        for b in cabello.rays[i + 1 :]
        if a.is_orthogonal_to(b)
    ]
    assert len(orthogonal_pairs) == 63
    states = [mixed] + [rand_mixed_state(rng, 4) for _ in range(20)]
    for rho in states:
        for a, b in orthogonal_pairs:
            pa, pb = projector_of(a), projector_of(b)
            assert born(rho, pa + pb) == born(rho, pa) + born(rho, pb)
    ok(5, "uniform 1/4 everywhere, 1000 random states sum to 1, additivity on all 63 pairs")


def test_criterion_06_model_feasibility(cabello):
    rng = random.Random(606)
    states = [
        DensityOperator.maximally_mixed(4),
        DensityOperator.pure((1, 1, 0, 0)),
        DensityOperator.pure((0, 0, 0, 1)),
    ] + [rand_mixed_state(rng, 4) for _ in range(5)]
    for rho in states:
        assert noncontextual_model(cabello, rho) is None

    single = single_context_scenario()
    point = noncontextual_model(single, DensityOperator.pure((0, 0, 1, 0)))
    assert point is not None
    assert list(point.weights.values()) == [Fraction(1)]
    (index,) = point.weights
    assert point.valuations[index].ones() == ("c",)

    uniform = noncontextual_model(single, DensityOperator.maximally_mixed(4))
    assert uniform is not None
    assert sorted(uniform.weights.values()) == [Fraction(1, 4)] * 4
    for r in single.rays:
        assert uniform.ray_probability(r.id) == Fraction(1, 4)
    ok(6, "18-ray set infeasible for 8 states; single context recovers exact weights")


def test_criterion_07_lattice_laws():
    rng = random.Random(707)
    subspace_budget = 0
    for dim in (2, 3, 4):
        for _ in range(360):
            s = rand_subspace(rng, dim)
            t = rand_subspace(rng, dim)
            subspace_budget += 2
            assert ortho(ortho(s)) == s
            assert ortho(join(s, t)) == meet(ortho(s), ortho(t))
            big = rand_subspace(rng, dim)
            small = rand_subspace_of(rng, big)
            subspace_budget += 2
            assert join(small, meet(big, ortho(small))) == big
            u = rand_subspace(rng, dim)
            inner = rand_subspace_of(rng, u)
            subspace_budget += 2
            assert join(inner, meet(t, u)) == meet(join(inner, t), u)
    assert subspace_budget >= 1000

    witness_s = Subspace.span([(1, 1)])
    witness_t = Subspace.span([(1, 0)])
    witness_u = Subspace.span([(0, 1)])
    lhs = meet(witness_s, join(witness_t, witness_u))
    rhs = join(meet(witness_s, witness_t), meet(witness_s, witness_u))
    assert lhs == witness_s and rhs.is_zero() and lhs != rhs
    ok(7, f"{subspace_budget} random subspaces obey all four laws; distributivity witness found")


def test_criterion_08_classical_axioms():
    dice = FiniteProbabilitySpace.uniform(range(1, 7))
    assert event_probability(dice, {2, 4, 6}) == Fraction(1, 2)
    assert event_probability(dice, {4, 5, 6}) == Fraction(1, 2)
    assert check_classical_axioms(dice).ok
    ok(8, "uniform dice: mu(even) = mu(greater than 3) = 1/2 exactly")


def test_criterion_09_symmetrization():
    rng = random.Random(909)
    fermion_rejections = 0
    for _ in range(300):
        d = rng.randint(2, 4)
        a = rand_nonzero_vector(rng, d)
        b = rand_nonzero_vector(rng, d)
        assert exchange_parity(symmetrize(a, b, +1)) == +1
        try:
            fermion = symmetrize(a, b, -1)
        except ValueError:
            fermion_rejections += 1
            continue
        assert exchange_parity(fermion) == -1

    with pytest.raises(ValueError, match="zero state"):
        symmetrize((1, 2, 0), (2, 4, 0), -1)

    for _ in range(200):
        d = rng.randint(2, 4)
        state = product_state(rand_nonzero_vector(rng, d), rand_nonzero_vector(rng, d))
        p = projector_of(Ray("probe", rand_nonzero_vector(rng, d)))
        assert pair_probability(swap(state), p) == pair_probability(state, p)
    ok(9, "parity +1/-1 on 300 random pairs, exclusion error raised, swap-invariant probabilities")


def test_criterion_10_cli_contract(tmp_path, capsys):
    scenario_path = tmp_path / "cabello18.ks"
    scenario_path.write_text(cabello18_text(), encoding="utf-8")

    # parse -> serialize -> parse identity on the bundled fixture
    first = parse_scenario(cabello18_text())
    again = parse_scenario(serialize_scenario(first))
    assert first == again

    assert run(["color", str(scenario_path)]) == 1
    assert capsys.readouterr().out == "NO VALUATION\n"

    state_path = tmp_path / "mixed.state"
    state_path.write_text(
        "matrix\n1/4 0 0 0\n0 1/4 0 0\n0 0 1/4 0\n0 0 0 1/4\n", encoding="utf-8"
    )
    expectations = [
        (["check", str(scenario_path)], 0),
        (["color", str(scenario_path)], 1),
        (["color", str(scenario_path), "--no-merge"], 0),
        (["parity", str(scenario_path)], 0),
        (["graph", str(scenario_path), "--dot", str(tmp_path / "g.dot")], 0),
        (["model", str(scenario_path), "--state", str(state_path)], 1),
        (["prob", str(scenario_path), "--state", str(state_path)], 0),
        (["symm", "--a", "1,0", "--b", "0,1", "--sign", "-"], 0),
        (["check", str(tmp_path / "missing.ks")], 2),
        (["color", str(scenario_path), "--bogus-flag"], 2),
    ]
    for argv, expected in expectations:
        assert run(argv) == expected, argv
        capsys.readouterr()
    ok(10, "round-trip identity holds and all exit codes are 0/1/2 as specified")
