"""Scalar backend: exact rationals, float tolerances, exact square roots."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ninepoint.numeric import (
    DEFAULT_TOLERANCE,
    ToleranceProfile,
    coerce_scalar,
    is_exact,
    sqrt_exact,
)


class TestSqrtExact:
    def test_perfect_square_rational(self):
        assert sqrt_exact(Fraction(9, 4)) == Fraction(3, 2)

    def test_perfect_square_integer(self):
        assert sqrt_exact(49) == Fraction(7)

    def test_zero(self):
        assert sqrt_exact(Fraction(0)) == Fraction(0)

    def test_non_square_is_none(self):
        assert sqrt_exact(Fraction(2)) is None
        assert sqrt_exact(Fraction(1, 3)) is None

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sqrt_exact(Fraction(-4))

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            sqrt_exact(2.0)  # type: ignore[arg-type]

    @given(st.fractions(max_denominator=10**4))
    def test_square_then_root_roundtrips(self, q: Fraction):
        root = sqrt_exact(q * q)
        assert root == abs(q)

    @given(st.fractions(min_value=0, max_denominator=10**4))
    def test_root_squares_back(self, q: Fraction):
        root = sqrt_exact(q)
        if root is not None:
            assert root * root == q
            assert root >= 0


class TestToleranceProfile:
    def test_defaults(self):
        assert DEFAULT_TOLERANCE.rel_eps == 1e-9
        assert DEFAULT_TOLERANCE.abs_eps == 1e-12

    def test_bound_combines_terms(self):
        tol = ToleranceProfile(rel_eps=1e-6, abs_eps=1e-9)
        assert tol.bound(1000.0) == pytest.approx(1e-9 + 1e-3)

    def test_bound_uses_magnitude(self):
        tol = ToleranceProfile(rel_eps=1e-6, abs_eps=1e-30)
        assert tol.bound(-2.0) == tol.bound(2.0)

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            ToleranceProfile(rel_eps=-1e-9, abs_eps=0.0)


class TestScalarPredicates:
    def test_is_exact(self):
        assert is_exact(Fraction(1, 2))
        assert is_exact(3)
        assert not is_exact(3.0)
        assert not is_exact(True)  # bools are not scalars here

    def test_coerce_promotes_int(self):
        value = coerce_scalar(7)
        assert isinstance(value, Fraction)
        assert value == 7

    def test_coerce_keeps_float(self):
        assert coerce_scalar(2.5) == 2.5
        assert isinstance(coerce_scalar(2.5), float)
