"""Exact arithmetic: Bernoulli numbers, polynomials, rational functions."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittenzeta.exact import (Polynomial, RationalFunction, bernoulli,
                              gamma_ratio_at_neg, zeta_neg_int)

F = Fraction


def _euclid_gcd(a, b):
    """Monic gcd by Euclid over the rationals, the reference for gcd."""
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
    return a if a.is_zero() else a * (1 / a.leading())


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

    def test_power(self, monkeypatch):
        # square and multiply with no square after the last bit: the k-th
        # power takes bit_length(k) - 1 squarings and popcount(k) products
        x = Polynomial.variable()
        base, want = (x * x - 1) * F(1, 2), Polynomial([1])
        calls = [0]
        mul = Polynomial.__mul__

        def counted(a, b):
            calls[0] += 1
            return mul(a, b)
        for k in range(10):
            calls[0] = 0
            monkeypatch.setattr(Polynomial, "__mul__", counted)
            got = base ** k
            monkeypatch.setattr(Polynomial, "__mul__", mul)
            assert got == want
            assert calls[0] == max(k.bit_length() - 1, 0) + bin(k).count("1")
            want = want * base

    def test_divmod(self):
        x = Polynomial.variable()
        q, r = (x ** 3 + 1).divmod(x + 1)
        assert q == x ** 2 - x + 1
        assert r.is_zero()

    def test_gcd(self):
        x = Polynomial.variable()
        g = ((x - 1) * (x + 2)).gcd((x - 1) * (x + 3))
        assert g == x - 1  # monic

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


class TestValueSemantics:
    """Hashes agree with ==, the types are immutable, and an unsupported
    operand raises TypeError through the NotImplemented returns."""

    def test_constant_polynomial_hashes_as_its_coefficient(self):
        for value in (3, F(-1, 2), 0):
            poly = Polynomial.constant(value)
            assert poly == value and hash(poly) == hash(value)
            assert value in {poly} and {poly: "v"}[value] == "v"
        assert Polynomial([]) == 0 and hash(Polynomial([])) == 0

    def test_rational_function_over_one_hashes_as_its_numerator(self):
        x = Polynomial.variable()
        for num in (x, x * x - 3, Polynomial.constant(3), Polynomial([])):
            rf = RationalFunction(num, 1)
            assert rf == num and hash(rf) == hash(num)
            assert num in {rf} and {rf: "v"}[num] == "v"
        assert 3 in {RationalFunction(3)} and 0 in {RationalFunction(0)}
        assert RationalFunction(x, 2 * x + 2) in {RationalFunction(
            x * x - x, 2 * x * x - 2)}

    @pytest.mark.parametrize("value,attr", [
        (Polynomial([1, 2]), "coeffs"), (RationalFunction(1, 2), "num")],
        ids=["Polynomial", "RationalFunction"])
    def test_immutable(self, value, attr):
        with pytest.raises(AttributeError, match="is immutable"):
            setattr(value, attr, None)

    @pytest.mark.parametrize("op", [
        lambda: Polynomial([1]) + "a",
        lambda: Polynomial([1]) * 1.5,
        lambda: RationalFunction(1) + "a",
        lambda: RationalFunction(1) - "a",
        lambda: "a" - RationalFunction(1),
        lambda: RationalFunction(1) * 1.5,
        lambda: RationalFunction(1) / "a",
        lambda: "a" / RationalFunction(1),
    ], ids=["poly+str", "poly*float", "rf+str", "rf-str", "str-rf",
            "rf*float", "rf/str", "str/rf"])
    def test_unsupported_operand_is_type_error(self, op):
        with pytest.raises(TypeError):
            op()

    def test_unsupported_equality_is_false(self):
        assert Polynomial([1]) != "a" and RationalFunction(1) != "a"
        assert Polynomial([1]) != 1.5

    def test_constant_minus_polynomial(self):
        assert 3 - Polynomial([1, 1]) == Polynomial([2, -1])


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
@given(_coeffs, _coeffs, _coeffs, st.integers(-3, 3))
def test_constant_and_polynomial_operands_stay_reduced(na, da, nq, c):
    # these skip the gcd: the result equals the constructor's reduced form
    a, q = _rf(na, da), _rf(nq, [1])
    assert a + q == q + a == RationalFunction(a.num + q.num * a.den, a.den)
    assert a - q == RationalFunction(a.num - q.num * a.den, a.den)
    assert q - a == RationalFunction(q.num * a.den - a.num, a.den)
    assert -a == RationalFunction(-a.num, a.den)
    assert a * c == c * a == RationalFunction(a.num * c, a.den)
    if c:
        assert a / c == RationalFunction(a.num, a.den * c)
    if not a.is_zero():
        assert c / a == RationalFunction(a.den * c, a.num)


_rational_coeffs = st.lists(st.builds(F, st.integers(-9, 9),
                                      st.integers(1, 6)), max_size=4)


@settings(max_examples=150, deadline=None)
@given(_rational_coeffs, _rational_coeffs, _rational_coeffs)
def test_gcd_matches_euclid(na, nb, nc):
    # a common factor c, so that the gcd is not 1 in most cases
    a, b, c = Polynomial(na), Polynomial(nb), Polynomial(nc)
    a, b = a * c, b * c
    assert a.gcd(b) == _euclid_gcd(a, b) == b.gcd(a)


@settings(max_examples=60, deadline=None)
@given(_coeffs, _coeffs)
def test_rational_function_division_inverts(na, nb):
    a = _rf(na, [1])
    b = _rf(nb, [1])
    if not b.is_zero():
        assert (a / b) * b == a


@pytest.mark.parametrize("call,error,match", [
    (lambda: bernoulli(-1), ValueError, "k must be non-negative"),
    (lambda: zeta_neg_int(-1), ValueError, "k must be non-negative"),
    (lambda: gamma_ratio_at_neg(-1), ValueError, "n must be >= 0"),
    (lambda: Polynomial([]).leading(), ValueError, "no leading coefficient"),
    (lambda: Polynomial([1, 1]).divmod(Polynomial([])), ZeroDivisionError,
     "by zero polynomial"),
    (lambda: Polynomial([1, 1]) ** -1, ValueError, "negative power"),
    (lambda: RationalFunction(1, 0), ZeroDivisionError, "zero denominator"),
    (lambda: RationalFunction(1) / RationalFunction(0), ZeroDivisionError,
     "division by zero"),
    (lambda: RationalFunction(0) ** -1, ZeroDivisionError,
     "negative power of zero"),
], ids=["bernoulli", "zeta_neg_int", "gamma_ratio_at_neg", "leading",
        "divmod", "poly_pow", "zero_den", "rf_div", "rf_pow"])
def test_argument_checks(call, error, match):
    with pytest.raises(error, match=match):
        call()
