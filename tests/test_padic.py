"""p-adic group families: exact symbolic values, zeros, factorization
identities, and absolute (p -> 1) limits."""

import json
import math
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wittenzeta.errors import (ConstraintError, DegenerateLimitError,
                               DomainError, PoleError)
from wittenzeta.exact import Polynomial, RationalFunction
from wittenzeta.padic import (FAMILIES, MAX_DEGREE, MAX_DIGITS, SYMBOLIC,
                              U_POLY, LaurentForm, absolute_limit,
                              eval_at_int_s, factorization_check, q_integer,
                              sl2zp_z0, su3_cong_minus1,
                              su3_cong_minus1_limit, verify_zero)

F = Fraction
P = RationalFunction.variable("p")
S = RationalFunction.variable("s")


class TestCatalog:
    def test_families_present(self):
        assert set(FAMILIES) == {"sl2zp", "sl2cong", "sl3cong", "su3cong"}

    def test_excluded_primes(self):
        with pytest.raises(ConstraintError):
            eval_at_int_s("sl2zp", 1, 0, 2)
        with pytest.raises(ConstraintError):
            eval_at_int_s("su3cong", 1, 0, 3)
        with pytest.raises(ConstraintError):
            eval_at_int_s("sl3cong", 1, 0, 1)  # numeric p must exceed 1

    def test_unknown_family(self):
        with pytest.raises(DomainError):
            eval_at_int_s("so5", 1, 0)

    def test_level_required(self):
        with pytest.raises(DomainError):
            eval_at_int_s("sl2cong", 0, 0)


class TestValues:
    def test_integer_s_of_any_number_type(self):
        want = eval_at_int_s("sl2cong", 1, -1)
        assert eval_at_int_s("sl2cong", 1, -1.0) == want
        assert eval_at_int_s("sl2cong", 1, complex(-1)) == want
        with pytest.raises(DomainError):
            eval_at_int_s("sl2cong", 1, complex(-1, 1))

    def test_sl2zp_at_zero(self):
        assert eval_at_int_s("sl2zp", 0, 0) == -4 / (P - 1)

    def test_sl2zp_parts(self):
        assert sl2zp_z0(0) == P + 4
        assert sl2zp_z0(-1) == P * (P + 1)
        assert sl2zp_z0(-2) == P * (P * P - 1)
        # the full value is Z_0 plus the infinite part, summed here straight
        # from its (multiplicity, dimension) list
        p = F(5)
        infinite = ((4 * p, (p * p - 1) / 2), ((p * p - 1) / 2, p * p - p),
                    ((p - 1) ** 2 / 2, p * p + p))
        for s in (0, -1, -2, 2):
            z_inf = sum(m * d ** -s for m, d in infinite) / (1 - p ** (1 - s))
            assert eval_at_int_s("sl2zp", 0, s, 5) == sl2zp_z0(s, 5) + z_inf

    @pytest.mark.parametrize("s", [-4, 0, 3])
    def test_symbolic_values_take_no_gcd(self, s, monkeypatch):
        # each value is reduced by exact division by the known factors of
        # its denominator, not by a gcd
        def refused(a, b):
            raise AssertionError("Polynomial.gcd called")
        monkeypatch.setattr(Polynomial, "gcd", refused)
        for family in FAMILIES:
            value = eval_at_int_s(family, 1, s)
            assert verify_zero(family, 1, s) == (value.is_zero(), value)
            assert value.den.leading() == 1
            for q in (3, 5, F(7, 2)):
                if q not in FAMILIES[family].excluded_p:
                    assert value(F(q)) == eval_at_int_s(family, 1, s, q)

    def test_shared_p_minus_and_plus_one_divide_out(self):
        # (p^2 - 1) d^{-s} for d = p^2 - 1: at s = 3 both parts share p - 1
        # and p + 1, which no cataloged value does beyond its factors' Phi_d
        form = LaurentForm(a=0, b=0, factors=(),
                           num={(2, 0, 1, 1, 0): 1, (0, 0, 1, 1, 0): -1})
        assert form.eval(0, 3, SYMBOLIC) == 1 / (P * P - 1) ** 2

    @pytest.mark.parametrize("s", [math.inf, -math.inf, math.nan,
                                   complex(math.inf, 0), complex(1, math.nan)])
    def test_non_finite_s_is_domain_error(self, s):
        with pytest.raises(DomainError, match="integer s"):
            eval_at_int_s("sl2cong", 1, s)
        with pytest.raises(DomainError, match="integer s"):
            verify_zero("sl3cong", 1, s)

    def test_sl2zp_pole_at_one(self):
        # the geometric factor 1/(1 - p^{1-s}) of the infinite part
        with pytest.raises(PoleError):
            eval_at_int_s("sl2zp", 0, 1, 5)

    @pytest.mark.parametrize("p", [SYMBOLIC, 5])
    def test_sl2cong_pole_at_one(self, p):
        # the denominator 1 - p^{1-s} is identically zero at s = 1
        with pytest.raises(PoleError):
            eval_at_int_s("sl2cong", 1, 1, p)

    def test_sl2cong_at_minus_one(self):
        assert eval_at_int_s("sl2cong", 1, -1) == -P ** 4 / (P + 1)
        assert eval_at_int_s("sl2cong", 2, -1) == -P ** 7 / (P + 1)
        assert eval_at_int_s("sl2cong", 1, -1, 3) == F(-81, 4)

    def test_su3cong_at_minus_one(self):
        want = -2 * P ** 6 / (1 + P + P ** 2 + P ** 3 + P ** 4)
        assert eval_at_int_s("su3cong", 1, -1) == want
        assert eval_at_int_s("su3cong", 1, -1, 2) == F(-128, 31)
        assert su3_cong_minus1(2, 1) == F(-128, 31)
        assert su3_cong_minus1() == want

    def test_su3cong_value_is_negative_for_real_primes(self):
        for p in (2, 5, 7, 11):
            assert su3_cong_minus1(p, 1) < 0

    @pytest.mark.parametrize("p,m,match", [(SYMBOLIC, 0, "m >= 1"),
                                           (1, 1, "p != 1")])
    def test_su3cong_at_minus_one_domain(self, p, m, match):
        with pytest.raises(DomainError, match=match):
            su3_cong_minus1(p, m)


class TestZeros:
    @pytest.mark.parametrize("family,m,s,want", [
        ("sl2zp", 1, -1, True), ("sl2zp", 1, -2, True),
        ("sl2cong", 1, -2, True), ("sl2cong", 2, -1, False),
        ("sl3cong", 1, -1, True), ("sl3cong", 2, -2, True),
        ("su3cong", 1, -2, True), ("su3cong", 1, 0, True),
        ("su3cong", 1, -1, False),
    ])
    def test_catalog(self, family, m, s, want):
        is_zero, witness = verify_zero(family, m, s)
        assert is_zero == want
        if want:
            assert witness.is_zero()

    def test_nonzero_witness(self):
        _, witness = verify_zero("su3cong", 1, -1)
        assert witness == -2 * P ** 6 / (1 + P + P ** 2 + P ** 3 + P ** 4)


class TestFactorization:
    @pytest.mark.parametrize("family", ["sl3cong", "su3cong"])
    def test_identity_holds(self, family):
        ok, diff = factorization_check(family)
        assert ok and not diff

    def test_mutated_u_polynomial_fails(self, monkeypatch):
        bad = dict(U_POLY["su3cong"])
        bad[3] = -bad[3]
        monkeypatch.setitem(U_POLY, "su3cong", bad)
        ok, diff = factorization_check("su3cong")
        assert not ok and diff

    def test_no_u_form_for_dimension_lists(self):
        with pytest.raises(DomainError):
            factorization_check("sl2zp")


class TestAbsoluteLimits:
    def test_closed_forms(self):
        assert absolute_limit("sl2cong") == (S + 2) / (S - 1)
        assert absolute_limit("sl3cong") == \
            (S + 1) * (S + 2) / ((S - F(1, 2)) * (S - F(2, 3)))
        assert absolute_limit("su3cong") == \
            S * (S + 2) / ((S - F(1, 2)) * (S - F(2, 3)))

    def test_dimension_list_unsupported(self):
        with pytest.raises(DomainError):
            absolute_limit("sl2zp")

    def test_level_zero_is_domain_error(self):
        # m drops out of the limit, but m = 0 is no level
        with pytest.raises(DomainError, match="m >= 1"):
            absolute_limit("sl2cong", 0)

    def test_numeric_extrapolation(self):
        for family in ("sl2cong", "sl3cong", "su3cong"):
            rf = absolute_limit(family)
            for s in (-1, -2):
                v1 = float(eval_at_int_s(family, 1, s, F(10001, 10000)))
                v2 = float(eval_at_int_s(family, 1, s, F(100001, 100000)))
                extrap = (10.0 * v2 - v1) / 9.0
                assert abs(extrap - float(rf(F(s)))) <= 1e-6

    def test_unequal_orders_are_degenerate(self):
        # N = 1 does not vanish at p = 1, D = 1 - p^{1-s} to first order
        form = LaurentForm(a=0, b=0, num={(0, 0, 0, 0, 0): 1},
                           factors=((1, 1),))
        with pytest.raises(DegenerateLimitError):
            form.absolute_limit()

    def test_su3_minus1_limit(self):
        assert su3_cong_minus1_limit() == F(-2, 5)


# Polynomial.gcd, the reference, takes under 0.1 s on the reduced parts at
# these s; on sl2zp it takes 0.3 s at s = -60 and 52 s at s = 60
_GCD_RANGE = {"sl2zp": (-30, 16), "sl2cong": (-60, 60), "sl3cong": (-60, 60),
              "su3cong": (-60, 60)}


def _check_independently(family, m, s, gcd=True):
    """The symbolic value is reduced, by Polynomial.gcd, and equals the
    numeric-p path, which reduces no polynomial, at four p."""
    value = eval_at_int_s(family, m, s)
    if gcd:
        assert value.num.gcd(value.den) == Polynomial([1], "p")
    for q in (5, 7, 11, F(7, 2)):
        assert value(F(q)) == eval_at_int_s(family, m, s, q)


class TestIndependence:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(_GCD_RANGE)).flatmap(lambda family: st.tuples(
        st.just(family), st.integers(1, 3), st.integers(*_GCD_RANGE[family]))))
    def test_reduced_and_equal_to_numeric_p(self, case):
        family, m, s = case
        assume(not (s == 1 and family in ("sl2zp", "sl2cong")))
        _check_independently(family, m, s)

    @pytest.mark.parametrize("family,m,s", [
        ("sl2zp", 0, 300), ("sl2zp", 0, -599), ("sl2cong", 1, 1196),
        ("sl2cong", 399, 2), ("sl3cong", 1, -239), ("su3cong", 1, 239),
        ("su3cong", 149, 2),
    ])
    def test_edges(self, family, m, s):
        # at the edges of sl2zp the reference gcd would take hours
        _check_independently(family, m, s, gcd=family != "sl2zp")


class TestBounds:
    # each bound at the largest admissible (m, s) and one step past it;
    # MAX_DEGREE is the bound of every family
    @pytest.mark.parametrize("family,at,past", [
        ("sl2zp", (0, 300), (0, 301)), ("sl2zp", (0, -599), (0, -600)),
        ("sl2cong", (1, 1196), (1, 1197)), ("sl2cong", (399, 2), (400, 2)),
        ("sl3cong", (1, -239), (1, -240)), ("su3cong", (149, 2), (150, 2)),
    ])
    def test_symbolic_degree(self, family, at, past):
        assert eval_at_int_s(family, *at) is not None
        with pytest.raises(DomainError, match=f"limit is {MAX_DEGREE}$"):
            eval_at_int_s(family, *past)

    @pytest.mark.parametrize("family,p,at,past", [
        ("sl2zp", 3, (0, 1661), (0, 1662)),
        ("sl2zp", 7, (0, -2214), (0, -2215)),
        ("sl2cong", 7, (1475, 2), (1476, 2)),
        ("sl3cong", 5, (1, 1027), (1, 1028)),
        ("sl3cong", 5, (641, 2), (642, 2)),
        ("su3cong", 7, (1, -885), (1, -886)),
    ])
    def test_numeric_digits(self, family, p, at, past):
        value = eval_at_int_s(family, *at, p)
        assert len(str(max(abs(value.numerator), value.denominator))) \
            <= MAX_DIGITS
        with pytest.raises(DomainError, match=f"limit is {MAX_DIGITS}$"):
            eval_at_int_s(family, *past, p)

    def test_su3cong_minus1(self):
        assert su3_cong_minus1(SYMBOLIC, 150) is not None
        with pytest.raises(DomainError, match="limit"):
            su3_cong_minus1(SYMBOLIC, 151)
        with pytest.raises(DomainError, match="limit"):
            su3_cong_minus1(5, 10 ** 9)


class TestQInteger:
    def test_symbolic(self):
        assert q_integer(5) == Polynomial([1, 1, 1, 1, 1], "p")

    def test_numeric(self):
        assert q_integer(5, 2) == 31
        assert q_integer(3, 1) == 3

    def test_domain(self):
        with pytest.raises(DomainError):
            q_integer(0)
        assert q_integer(MAX_DEGREE + 1).degree == MAX_DEGREE
        with pytest.raises(DomainError, match="limit"):
            q_integer(MAX_DEGREE + 2)
        with pytest.raises(DomainError, match="limit"):
            q_integer(10 ** 12, 3)


# ---------------------------------------------------------------------------
# Every padic row of the benchmark's oracle, computed there with sympy from
# the dimension lists and u-form numerators, without importing wittenzeta
# ---------------------------------------------------------------------------

_ORACLE = Path(__file__).resolve().parents[1] / "bench" / "oracle" / "cli.json"


def _oracle_rows():
    pools = json.loads(_ORACLE.read_text())["pools"]
    return [(argv, refs) for rows in pools.values() for argv, refs in rows
            if argv[0] == "padic"]


def _ref_value(ref):
    if ref["type"] == "rf":
        # the oracle's denominator is not monic; compare reduced forms
        var = ref["var"]
        return RationalFunction(
            Polynomial([Fraction(c) for c in ref["num"]], var),
            Polynomial([Fraction(c) for c in ref["den"]], var), var)
    if ref["type"] == "fraction":
        return Fraction(ref["value"])
    return ref["value"]


def _library_values(argv):
    opts = dict(zip(argv[2::2], argv[3::2]))
    family, m = opts["--family"], int(opts.get("--m", 1))
    action = argv[1]
    if action == "eval":
        p = SYMBOLIC if opts["--p"] == "sym" else int(opts["--p"])
        return [eval_at_int_s(family, m, int(opts["--s"]), p)]
    if action == "zero":
        return list(verify_zero(family, m, int(opts["--s"])))
    if action == "limit":
        return [absolute_limit(family, m)]
    return [factorization_check(family)[0]]


def test_oracle_rows():
    rows = _oracle_rows()
    assert len(rows) > 500
    for argv, refs in rows:
        got = _library_values(argv)
        assert got == [_ref_value(r) for r in refs], " ".join(argv)


def test_arithmetic_with_a_constant_skips_the_gcd():
    # the reduced parts of symbolic sl2zp at s = 60 have degree 239 and
    # binomial-sized coefficients, where Polynomial.gcd takes close to a
    # minute; a constant or polynomial operand keeps the parts coprime
    v = eval_at_int_s("sl2zp", 0, 60)
    start = time.perf_counter()
    got = [v + 0, v - 1, v * 1, 3 * v, v / 3, 1 - v, -v, 2 / v, v + P]
    assert time.perf_counter() - start < 1.0
    x, vx = F(7), v(F(7))
    assert [g(x) for g in got] == [vx, vx - 1, vx, 3 * vx, vx / 3, 1 - vx,
                                   -vx, 2 / vx, vx + x]
    assert got[0] == got[2] == v
