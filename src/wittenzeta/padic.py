"""Exact symbolic Witten zeta functions for p-adic group families.

Four families are cataloged:

* ``sl2zp``   -- SL_2(Z_p), p odd, as a dimension list (finite part Z_0 plus
                 a geometric infinite part Z_inf with prefactor 1/(1-p^{1-s}));
* ``sl2cong`` -- the level-p^m congruence subgroup of SL_2(Z_p), p odd:
                 p^{3m+2} (1 - p^{-2-s}) / (1 - p^{1-s});
* ``sl3cong`` -- congruence subgroups of SL_3(Z_p), p != 3;
* ``su3cong`` -- congruence subgroups of SU_3 over Z_p, p != 3;

the last two p^{8m} times products of (1 -+ p^E) and short brackets, over
(1 - p^{1-2s})(1 - p^{2-3s}). The three congruence families are each one
LaurentForm p^{a+bm} N / D, with N and D Laurent polynomials in
(P, U) = (p, p^{-s}) multiplied out once from those factors.

Everything here is exact: integer s with numeric p gives a Fraction, with
symbolic p a reduced RationalFunction in p (one gcd per value, after the
substitution U = p^{-s}). The "absolute limit" p -> 1 is the ratio of the
leading coefficients of N and D in u = log p, a RationalFunction in s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConstraintError, DegenerateLimitError, DomainError, PoleError
from .exact import LaurentPoly2, Polynomial, RationalFunction

SYMBOLIC = "sym"


def _p_var() -> RationalFunction:
    return RationalFunction.variable("p")


def _is_symbolic(p) -> bool:
    return p is None or p == SYMBOLIC


def _p_power(e: int, p):
    """p^e as a RationalFunction (symbolic) or Fraction (numeric)."""
    if _is_symbolic(p):
        return _p_var() ** e
    return Fraction(p) ** e


def _at_s(poly: LaurentPoly2, s: int) -> dict:
    """Substitute U = p^{-s}: term (i, j) becomes p^{i - j s}; returns the
    non-zero coefficients by exponent of p."""
    out = {}
    for (i, j), c in poly.terms.items():
        e = i - j * s
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _p_poly(coeffs: dict, shift: int) -> Polynomial:
    """sum c p^{e - shift} over the exponent -> coefficient map."""
    top = max(coeffs, default=shift) - shift
    return Polynomial([coeffs.get(k + shift, 0) for k in range(top + 1)], "p")


def _leading_moment(poly: LaurentPoly2):
    """(k, C_k) for the lowest k with C_k(s) = sum c_ij (i - j s)^k != 0.

    With p = e^u, p^{i - j s} = sum_k u^k (i - j s)^k / k!, so C_k / k! is
    the leading coefficient of the expansion at p = 1. k is below the number
    of terms unless the polynomial is zero (Vandermonde)."""
    for k in range(len(poly.terms)):
        # (i - j s)^k = sum_t C(k, t) i^{k-t} (-j)^t s^t
        moment = Polynomial([math.comb(k, t) * sum(
            c * (i ** (k - t) * (-j) ** t) for (i, j), c in poly.terms.items())
            for t in range(k + 1)], "s")
        if not moment.is_zero():
            return k, moment
    raise DegenerateLimitError("the form has a zero numerator or denominator")


@dataclass(frozen=True)
class LaurentForm:
    """p^{a + b m} N / D, with N and D Laurent polynomials in
    (P, U) = (p, p^{-s}) multiplied out from the cataloged factors."""

    a: int
    b: int
    num: LaurentPoly2
    den: LaurentPoly2

    def eval(self, m: int, s: int, p):
        num, den = _at_s(self.num, s), _at_s(self.den, s)
        if not den:
            raise PoleError(f"the denominator vanishes at s={s}", location=s)
        pre = self.a + self.b * m
        if not _is_symbolic(p):
            q = Fraction(p)
            return q ** pre * sum(c * q ** e for e, c in num.items()) \
                / sum(c * q ** e for e, c in den.items())
        num = {pre + e: c for e, c in num.items()}
        shift = min([*num, *den])
        return RationalFunction(_p_poly(num, shift), _p_poly(den, shift), "p")

    def absolute_limit(self) -> RationalFunction:
        """Formal limit p -> 1: the ratio of the leading coefficients of N
        and D in u = log p (the prefactor tends to 1). N and D must vanish
        to the same order."""
        kn, cn = _leading_moment(self.num)
        kd, cd = _leading_moment(self.den)
        if kn != kd:
            raise DegenerateLimitError(
                f"absolute limit is 0 or infinite: the numerator vanishes to "
                f"order {kn} at p = 1, the denominator to order {kd}")
        return RationalFunction(cn, cd, "s")


@dataclass(frozen=True)
class DimensionListForm:
    """Finite list of (multiplicity, dimension) pairs, each a Polynomial in
    p, plus a geometric infinite part prefixed by 1/(1 - p^{1-s}). A value
    is summed over the denominator common^s and reduced once."""

    finite_terms: tuple  # of (Polynomial, Polynomial) in p
    infinite_terms: tuple
    common: Polynomial  # a common multiple of the dimensions

    def _sum(self, terms, s: int, p):
        """(num, den), unreduced, with sum mult dim^{-s} = num / den and den
        = common^s (1 for s <= 0): Fractions for numeric p, Polynomials in
        p for symbolic p."""
        pairs = [(mult, dim if s <= 0 else self.common.div_exact(dim))
                 for mult, dim in terms]
        den = self.common if s > 0 else Polynomial([1], "p")
        if not _is_symbolic(p):
            q = Fraction(p)
            pairs, den = [(m(q), b(q)) for m, b in pairs], den(q)
        return sum(m * b ** abs(s) for m, b in pairs), den ** abs(s)

    @staticmethod
    def _geometric(s: int, p):
        """(num, den) of 1/(1 - p^{1-s})."""
        if s == 1:
            raise PoleError("geometric factor 1/(1 - p^{1-s}) at s = 1",
                            location=1)
        q = Polynomial([0, 1], "p") if _is_symbolic(p) else Fraction(p)
        if s <= 0:
            return 1, 1 - q ** (1 - s)
        return q ** (s - 1), q ** (s - 1) - 1

    @staticmethod
    def _value(num, den, p):
        if _is_symbolic(p):
            return RationalFunction(num, den, "p")
        return num / den

    def eval_finite(self, s: int, p):
        return self._value(*self._sum(self.finite_terms, s, p), p)

    def eval_infinite(self, s: int, p):
        (num, den), (gn, gd) = self._sum(self.infinite_terms, s, p), \
            self._geometric(s, p)
        return self._value(num * gn, den * gd, p)

    def eval(self, m: int, s: int, p):
        (fin, den), (inf, _) = self._sum(self.finite_terms, s, p), \
            self._sum(self.infinite_terms, s, p)
        gn, gd = self._geometric(s, p)
        return self._value(fin * gd + inf * gn, den * gd, p)


@dataclass(frozen=True)
class GroupFamily:
    key: str
    identifier: str
    excluded_p: frozenset
    uses_m: bool
    form: object  # LaurentForm or DimensionListForm


def _build_sl2zp() -> DimensionListForm:
    one, p = Polynomial([1], "p"), Polynomial([0, 1], "p")
    half = Fraction(1, 2)
    finite = (
        (one, one),
        (2 * one, (p - 1) * half),
        (2 * one, (p + 1) * half),
        ((p - 1) * half, p - 1),
        (one, p),
        ((p - 3) * half, p + 1),
    )
    infinite = (
        (4 * p, (p * p - 1) * half),
        ((p * p - 1) * half, p * p - p),
        ((p - 1) * (p - 1) * half, p * p + p),
    )
    return DimensionListForm(finite_terms=finite, infinite_terms=infinite,
                             common=p * p * p - p)


def _laurent(*terms) -> LaurentPoly2:
    """sum c P^i U^j over the (c, i, j) triples: c p^{i - j s}."""
    return sum((LaurentPoly2.monomial(i, j, c) for c, i, j in terms),
               LaurentPoly2())


def _one_minus(i: int, j: int) -> LaurentPoly2:
    """The factor 1 - p^{i - j s}."""
    return _laurent((1, 0, 0), (-1, i, j))


# p^{3m+2} (1 - p^{-2-s}) / (1 - p^{1-s})
_SL2_CONG = LaurentForm(a=2, b=3, num=_one_minus(-2, 1),
                        den=_one_minus(1, 1))

# (1 - p^{1-2s}) (1 - p^{2-3s})
_COMMON_DEN = _one_minus(1, 2) * _one_minus(2, 3)

# p^{8m} (1 - p^{-2-s}) (1 - p^{-1-s})
#   [1 + p^{-1-s} + p^{-2-s} + p^{-2s} + p^{-1-2s} + p^{-2-3s}] / common den
_SL3_CONG = LaurentForm(a=0, b=8, den=_COMMON_DEN, num=math.prod((
    _one_minus(-2, 1), _one_minus(-1, 1),
    _laurent((1, 0, 0), (1, -1, 1), (1, -2, 1), (1, 0, 2), (1, -1, 2),
             (1, -2, 3))), start=LaurentPoly2.one()))

# p^{8m} (1 - p^{-2-s}) (1 - p^{-s}) (1 + p^{-1-s})
#   [1 + p^{-s} - p^{-1-s} + p^{-2-s} + p^{-2-2s}] / common den
_SU3_CONG = LaurentForm(a=0, b=8, den=_COMMON_DEN, num=math.prod((
    _one_minus(-2, 1), _one_minus(0, 1), _laurent((1, 0, 0), (1, -1, 1)),
    _laurent((1, 0, 0), (1, 0, 1), (-1, -1, 1), (1, -2, 1), (1, -2, 2))),
    start=LaurentPoly2.one()))

# u-form numerators 1 + u(p) p^{-3-2s} + u(1/p) p^{-2-3s} + p^{-5-5s},
# with u given by exponent -> coefficient maps.
U_POLY = {
    "sl3cong": {3: 1, 2: 1, 1: -1, 0: -1, -1: -1},
    "su3cong": {3: -1, 2: 1, 1: -1, 0: 1, -1: -1},
}

FAMILIES = {
    "sl2zp": GroupFamily("sl2zp", "SL2_ZP", frozenset({2}), False,
                         _build_sl2zp()),
    "sl2cong": GroupFamily("sl2cong", "SL2_CONG", frozenset({2}), True,
                           _SL2_CONG),
    "sl3cong": GroupFamily("sl3cong", "SL3_CONG", frozenset({3}), True,
                           _SL3_CONG),
    "su3cong": GroupFamily("su3cong", "SU3_CONG", frozenset({3}), True,
                           _SU3_CONG),
}


def _family(family) -> GroupFamily:
    if isinstance(family, GroupFamily):
        return family
    key = str(family).lower()
    if key not in FAMILIES:
        raise DomainError(
            f"unknown family {family!r}; choose from {sorted(FAMILIES)}")
    return FAMILIES[key]


def _check_m(fam: GroupFamily, m: int):
    if fam.uses_m and m < 1:
        raise DomainError(f"family {fam.identifier} requires level m >= 1")


def _check_p(fam: GroupFamily, p):
    if _is_symbolic(p):
        return
    q = Fraction(p)
    if q.denominator == 1 and int(q) in fam.excluded_p:
        raise ConstraintError(
            f"p = {int(q)} is excluded for family {fam.identifier}")
    if q <= 1:
        raise ConstraintError(f"numeric p must exceed 1, got {p}")


def eval_at_int_s(family, m: int, s: int, p=SYMBOLIC):
    """Exact value of the family's Witten zeta at integer s (an int, or a
    float or complex equal to one): a Fraction for numeric p, a reduced
    RationalFunction in p for symbolic p."""
    fam = _family(family)
    _check_m(fam, m)
    if s != int(s.real):
        raise DomainError("eval_at_int_s requires integer s")
    _check_p(fam, p)
    return fam.form.eval(int(m) if fam.uses_m else 0, int(s.real), p)


def verify_zero(family, m: int, s: int):
    """(is_zero, witness): whether the symbolic value vanishes identically,
    with the reduced rational function in p as witness."""
    w = eval_at_int_s(family, m, s, SYMBOLIC)
    return w.is_zero(), w


def absolute_limit(family, m: int = 1) -> RationalFunction:
    """The formal p -> 1 limit as a rational function of s (level m drops
    out, but must still be a level, m >= 1). Only LaurentForm families
    support it."""
    fam = _family(family)
    _check_m(fam, m)
    if not isinstance(fam.form, LaurentForm):
        raise DomainError(
            f"absolute limit needs a factored representation; "
            f"{fam.identifier} is stored as a dimension list")
    return fam.form.absolute_limit()


def factorization_check(family, u=None):
    """Exact identity between the u-form numerator and the cataloged
    numerator N, as Laurent polynomials in (p, p^{-s}).

    Returns (equal, difference); ``u`` overrides the exponent->coefficient
    map of the u polynomial (mutation testing)."""
    fam = _family(family)
    if fam.key not in U_POLY:
        raise DomainError(f"no u-form numerator cataloged for {fam.identifier}")
    umap = U_POLY[fam.key] if u is None else u
    uform = LaurentPoly2.one() + LaurentPoly2.monomial(-5, 5)
    for e, c in umap.items():
        uform = uform + LaurentPoly2.monomial(e - 3, 2, c)   # u(p) p^{-3-2s}
        uform = uform + LaurentPoly2.monomial(-e - 2, 3, c)  # u(1/p) p^{-2-3s}
    diff = uform - fam.form.num
    return diff.is_zero(), diff


def q_integer(n: int, p=SYMBOLIC):
    """[n]_p = (p^n - 1)/(p - 1) = 1 + p + ... + p^{n-1}."""
    if n < 1:
        raise DomainError("q_integer requires n >= 1")
    if _is_symbolic(p):
        return Polynomial([1] * n, "p")
    q = Fraction(p)
    if q == 1:
        return Fraction(n)
    return (q ** n - 1) / (q - 1)


def su3_cong_minus1(p=SYMBOLIC, m: int = 1):
    """The su3cong value at s = -1: -2 p^{8m-2} / [5]_p.

    The sign is forced by the cataloged formula (both its u-form and its
    factorization), matching the negativity of the sl2cong analogue
    -p^{3m+1}/(p+1)."""
    if m < 1:
        raise DomainError("su3_cong_minus1 requires m >= 1")
    if not _is_symbolic(p) and Fraction(p) == 1:
        raise DomainError("su3_cong_minus1 requires p != 1; use the limit")
    return -2 * _p_power(8 * m - 2, p) / q_integer(5, p)


def su3_cong_minus1_limit() -> Fraction:
    """p -> 1 limit of su3_cong_minus1 via the q-integer polynomial: -2/5."""
    return Fraction(-2) / q_integer(5, SYMBOLIC)(Fraction(1))


def sl2zp_z0(s: int, p=SYMBOLIC):
    """Finite part Z_0 of the sl2zp dimension list at integer s."""
    return FAMILIES["sl2zp"].form.eval_finite(int(s), p)


def sl2zp_zinf(s: int, p=SYMBOLIC):
    """Infinite part Z_inf of the sl2zp dimension list at integer s."""
    return FAMILIES["sl2zp"].form.eval_infinite(int(s), p)
