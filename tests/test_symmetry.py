import random
from fractions import Fraction

import pytest

from kscheck.exactlin import RMatrix, RVector
from kscheck.lattice import projector_of
from kscheck.qlogic import Ray
from kscheck.symmetry import (
    TwoParticleState,
    exchange_parity,
    pair_probability,
    product_state,
    swap,
    symmetrize,
)

from helpers import rand_nonzero_vector


def vec(*xs):
    return RVector(tuple(xs))


class TestSymmetrize:
    def test_boson_pair(self):
        s = symmetrize(vec(1, 0), vec(0, 1), +1)
        assert s.amplitudes == RMatrix(((0, 1), (1, 0)))
        assert s.norm_squared == 2

    def test_fermion_pair(self):
        s = symmetrize(vec(1, 0), vec(0, 1), -1)
        assert s.amplitudes == RMatrix(((0, 1), (-1, 0)))
        assert s.norm_squared == 2

    def test_fermion_on_proportional_vectors_is_rejected(self):
        with pytest.raises(ValueError, match="zero state"):
            symmetrize(vec(1, 0), vec(1, 0), -1)
        with pytest.raises(ValueError, match="zero state"):
            symmetrize(vec(2, -4), vec(-1, 2), -1)

    def test_bad_sign(self):
        with pytest.raises(ValueError):
            symmetrize(vec(1, 0), vec(0, 1), 0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            symmetrize(vec(1, 0), vec(0, 1, 0), +1)

    def test_argument_order_only_flips_fermions(self):
        a, b = vec(1, 2, 0), vec(0, 1, -1)
        assert symmetrize(a, b, +1) == symmetrize(b, a, +1)
        assert symmetrize(a, b, -1).amplitudes == -symmetrize(b, a, -1).amplitudes


class TestSwap:
    def test_boson_is_invariant(self):
        s = symmetrize(vec(1, 2), vec(3, -1), +1)
        assert swap(s) == s

    def test_fermion_flips_sign(self):
        s = symmetrize(vec(1, 2), vec(3, -1), -1)
        assert swap(s).amplitudes == -s.amplitudes

    def test_involution(self):
        s = product_state(vec(1, 2, 3), vec(-1, 0, 2))
        assert swap(swap(s)) == s

    def test_preserves_norm(self):
        rng = random.Random(13)
        for _ in range(100):
            d = rng.randint(2, 4)
            s = product_state(rand_nonzero_vector(rng, d), rand_nonzero_vector(rng, d))
            assert swap(s).norm_squared == s.norm_squared


class TestExchangeParity:
    def test_randomized_bosons_and_fermions(self):
        rng = random.Random(29)
        for _ in range(150):
            d = rng.randint(2, 4)
            a = rand_nonzero_vector(rng, d)
            b = rand_nonzero_vector(rng, d)
            assert exchange_parity(symmetrize(a, b, +1)) == +1
            try:
                f = symmetrize(a, b, -1)
            except ValueError:
                continue  # proportional draw
            assert exchange_parity(f) == -1

    def test_plain_product_has_no_parity(self):
        assert exchange_parity(product_state(vec(1, 0), vec(0, 1))) is None


class TestPairProbability:
    def test_swap_invariance(self):
        rng = random.Random(37)
        for _ in range(100):
            d = rng.randint(2, 4)
            s = product_state(rand_nonzero_vector(rng, d), rand_nonzero_vector(rng, d))
            p = projector_of(Ray("p", rand_nonzero_vector(rng, d)))
            assert pair_probability(swap(s), p) == pair_probability(s, p)

    def test_known_value(self):
        # both particles on the same ray always pass that ray's test
        s = product_state(vec(1, 0), vec(1, 0))
        p = projector_of(Ray("x", (1, 0)))
        assert pair_probability(s, p) == 1
        q = projector_of(Ray("y", (0, 1)))
        assert pair_probability(s, q) == 0

    def test_boson_pair_through_symmetric_projector(self):
        s = symmetrize(vec(1, 0), vec(0, 1), +1)
        p = projector_of(Ray("d", (1, 1)))
        assert pair_probability(s, p) == Fraction(1, 2)

    def test_dimension_mismatch(self):
        s = product_state(vec(1, 0), vec(0, 1))
        with pytest.raises(ValueError):
            pair_probability(s, projector_of(Ray("p", (1, 0, 0))))


class TestStateType:
    def test_zero_state_rejected(self):
        with pytest.raises(ValueError):
            TwoParticleState(RMatrix.zeros(2, 2))

    def test_must_be_square(self):
        with pytest.raises(ValueError):
            TwoParticleState(RMatrix.zeros(2, 3))

    def test_norm_squared(self):
        s = TwoParticleState(RMatrix(((1, 2), (0, Fraction(1, 2)))))
        assert s.norm_squared == 1 + 4 + Fraction(1, 4)

    def test_negation_negates_every_amplitude(self):
        s = TwoParticleState(RMatrix(((1, 2), (0, Fraction(1, 2)))))
        assert (-s).amplitudes == RMatrix(((-1, -2), (0, Fraction(-1, 2))))
        assert (-s).norm_squared == s.norm_squared
