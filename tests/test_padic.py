"""p-adic group families: exact symbolic values, zeros, factorization
identities, and absolute (p -> 1) limits."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from wittenzeta.errors import (ConstraintError, DegenerateLimitError,
                               DomainError, PoleError)
from wittenzeta.exact import LaurentPoly2, Polynomial, RationalFunction
from wittenzeta.padic import (FAMILIES, SYMBOLIC, U_POLY, GroupFamily,
                              LaurentForm, absolute_limit, eval_at_int_s,
                              factorization_check, q_integer, sl2zp_z0,
                              sl2zp_zinf, su3_cong_minus1,
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
        # numeric consistency of the full value at a concrete prime
        for s in (0, -1, -2, 2):
            total = sl2zp_z0(s, 5) + sl2zp_zinf(s, 5)
            assert eval_at_int_s("sl2zp", 0, s, 5) == total

    @pytest.mark.parametrize("s", [-4, 0, 3])
    def test_sl2zp_reduced_once(self, s, monkeypatch):
        # the terms are summed over one denominator, (p^3 - p)^s times the
        # geometric factor's, and reduced once; summed term by term as
        # RationalFunctions they took 47 gcds at s = 3
        calls = [0]
        gcd = Polynomial.gcd

        def counted(a, b):
            calls[0] += 1
            return gcd(a, b)
        monkeypatch.setattr(Polynomial, "gcd", counted)
        value = eval_at_int_s("sl2zp", 0, s)
        assert calls[0] == 1
        assert value.den.leading() == 1
        for q in (3, 5, F(7, 2)):
            assert value(F(q)) == eval_at_int_s("sl2zp", 0, s, q)

    def test_sl2zp_pole_at_one(self):
        with pytest.raises(PoleError):
            sl2zp_zinf(1, 5)

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
        assert ok and diff.is_zero()

    def test_mutated_u_polynomial_fails(self):
        bad = dict(U_POLY["su3cong"])
        bad[3] = -bad[3]
        ok, diff = factorization_check("su3cong", u=bad)
        assert not ok and not diff.is_zero()

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
        # N = 1 - p^{1-s} vanishes at p = 1 to first order, D = 1 + p not
        form = LaurentForm(a=0, b=0,
                           num=LaurentPoly2({(0, 0): 1, (1, 1): -1}),
                           den=LaurentPoly2({(0, 0): 1, (1, 0): 1}))
        fam = GroupFamily("test", "TEST", frozenset(), False, form)
        with pytest.raises(DegenerateLimitError):
            absolute_limit(fam)

    def test_su3_minus1_limit(self):
        assert su3_cong_minus1_limit() == F(-2, 5)


class TestQInteger:
    def test_symbolic(self):
        assert q_integer(5) == Polynomial([1, 1, 1, 1, 1], "p")

    def test_numeric(self):
        assert q_integer(5, 2) == 31
        assert q_integer(3, 1) == 3

    def test_domain(self):
        with pytest.raises(DomainError):
            q_integer(0)


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
