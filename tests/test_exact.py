"""Exact arithmetic: Bernoulli numbers, polynomials, rational functions."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittenzeta.exact import (LaurentPoly2, Polynomial, RationalFunction,
                              bernoulli, fraction_str, rising,
                              zeta_neg_int)

F = Fraction


class TestBernoulli:
    def test_small_values(self):
        assert bernoulli(0) == 1
        assert bernoulli(1) == F(-1, 2)
        assert bernoulli(2) == F(1, 6)
        assert bernoulli(4) == F(-1, 30)
        assert bernoulli(12) == F(-691, 2730)

    def test_defining_recurrence(self):
        # sum_{j <= k} C(k+1, j) B_j = 0, independent of the tangent numbers
        ref = [F(1)]
        for k in range(1, 61):
            ref.append(-sum(comb(k + 1, j) * ref[j] for j in range(k))
                       / (k + 1))
        assert [bernoulli(k) for k in range(61)] == ref

    def test_odd_vanish(self):
        assert all(bernoulli(k) == 0 for k in (3, 5, 7, 9, 11))

    def test_zeta_neg_int(self):
        assert zeta_neg_int(0) == F(-1, 2)
        assert zeta_neg_int(1) == F(-1, 12)
        assert zeta_neg_int(3) == F(1, 120)
        assert zeta_neg_int(7) == F(1, 240)
        assert all(zeta_neg_int(k) == 0 for k in (2, 4, 6, 8))


class TestCombinatorial:
    def test_rising(self):
        assert rising(F(3), 0) == 1
        assert rising(F(3), 4) == 3 * 4 * 5 * 6
        assert rising(F(-2), 3) == 0  # passes through zero
        assert rising(F(1, 2), 2) == F(3, 4)


class TestPolynomial:
    def test_construction_trims(self):
        p = Polynomial([1, 2, 0, 0])
        assert p.degree == 1
        assert p == Polynomial([1, 2])

    def test_arithmetic(self):
        x = Polynomial.variable()
        p = (x + 1) * (x - 1)
        assert p == x ** 2 - 1
        assert p(F(3)) == 8

    def test_divmod(self):
        x = Polynomial.variable()
        q, r = (x ** 3 + 1).divmod(x + 1)
        assert q == x ** 2 - x + 1
        assert r.is_zero()

    def test_gcd(self):
        x = Polynomial.variable()
        g = ((x - 1) * (x + 2)).gcd((x - 1) * (x + 3))
        assert g == x - 1  # monic

    def test_compose(self):
        x = Polynomial.variable()
        assert (x ** 2 + 1).compose(x + 1) == x ** 2 + 2 * x + 2

    def test_variable_mismatch(self):
        x = Polynomial.variable("x")
        p = Polynomial.variable("p")
        with pytest.raises(Exception):
            _ = x + p


class TestRationalFunction:
    def test_reduction(self):
        x = Polynomial.variable()
        rf = RationalFunction(x ** 2 - 1, x - 1)
        assert rf == RationalFunction(x + 1)
        assert rf.den == Polynomial([1])

    def test_monic_denominator(self):
        x = Polynomial.variable()
        rf = RationalFunction(x, 2 * x + 2)
        assert rf.den.leading() == 1
        assert rf(F(1)) == F(1, 4)

    def test_negative_power(self):
        r = RationalFunction.variable()
        assert r ** -2 == 1 / (r * r)

    def test_pole_raises(self):
        r = RationalFunction.variable()
        with pytest.raises(ZeroDivisionError):
            (1 / (r - 1))(F(1))

    def test_as_fraction(self):
        rf = RationalFunction(Polynomial([F(2, 3)]))
        assert rf.is_constant() and rf.as_fraction() == F(2, 3)


_coeffs = st.lists(st.integers(min_value=-5, max_value=5),
                   min_size=0, max_size=4)


def _rf(num, den):
    d = Polynomial(den)
    if d.is_zero():
        d = Polynomial([1])
    return RationalFunction(Polynomial(num), d)


@settings(max_examples=60, deadline=None)
@given(_coeffs, _coeffs, _coeffs, _coeffs, _coeffs, _coeffs)
def test_rational_function_ring_laws(na, da, nb, db, nc, dc):
    a, b, c = _rf(na, da), _rf(nb, db), _rf(nc, dc)
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == RationalFunction(0)


@settings(max_examples=60, deadline=None)
@given(_coeffs, _coeffs)
def test_rational_function_division_inverts(na, nb):
    a = _rf(na, [1])
    b = _rf(nb, [1])
    if not b.is_zero():
        assert (a / b) * b == a


class TestLaurentPoly2:
    def test_ring_ops(self):
        m = LaurentPoly2.monomial
        a = m(1, 0) + m(-2, 3, F(1, 2))
        b = m(0, 1)
        assert a * b == m(1, 1) + m(-2, 4, F(1, 2))
        assert (a - a).is_zero()
        assert LaurentPoly2.one() * a == a


def test_fraction_str():
    assert fraction_str(F(3)) == "3"
    assert fraction_str(F(-2, 5)) == "-2/5"
