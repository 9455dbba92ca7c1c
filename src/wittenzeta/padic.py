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
(P, U) = (p, p^{-s}), kept as {(i, j): c} term maps with int coefficients
and multiplied out once, at import, from those factors.

Everything here is exact: integer s with numeric p gives a Fraction, with
symbolic p a reduced RationalFunction in p (one gcd per value, after the
substitution U = p^{-s}). A value is refused with DomainError before it is
built when it is too large: a symbolic value past the degree in p that its
form admits (``max_degree``, set by the cost of its gcd), a numeric one
past MAX_DIGITS digits. The "absolute limit" p -> 1 is the
ratio of the leading coefficients of N and D in u = log p, a
RationalFunction in s.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ConstraintError, DegenerateLimitError, DomainError, PoleError
from .exact import Polynomial, RationalFunction

SYMBOLIC = "sym"
# symbolic p: sl2zp at s = 27, degree 107, takes 0.45-0.6 s on one Xeon
# core, in the gcd of its coprime parts; the bound of DimensionListForm and
# of the q-integer values
MAX_DEGREE = 110
MAX_DIGITS = 4000  # numeric p: str() of an int stops at 4300 digits


def _is_symbolic(p) -> bool:
    return p is None or p == SYMBOLIC


def _check_size(degree: int, p, max_degree: int = MAX_DEGREE):
    """DomainError before a value of this degree in p is built: past
    max_degree for symbolic p; for numeric p, past MAX_DIGITS digits, where
    each factor p^e is below (numerator + denominator of p)^e."""
    if _is_symbolic(p):
        size, limit, what = degree, max_degree, f"degree {degree} in p"
    else:
        q = Fraction(p)
        size = degree * math.log10(abs(q.numerator) + q.denominator)
        limit, what = MAX_DIGITS, f"about {size:.0f} digits"
    if size > limit:
        raise DomainError(f"the value at p = {p} is too large, {what}; "
                          f"the limit is {limit}")


def _collect(pairs) -> dict:
    """{key: sum of its c} over the (key, c) pairs, the non-zero sums only."""
    out = {}
    for key, c in pairs:
        out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def _at_s(poly: dict, s: int) -> dict:
    """Substitute U = p^{-s}: term (i, j) becomes p^{i - j s}; returns the
    non-zero coefficients by exponent of p."""
    return _collect((i - j * s, c) for (i, j), c in poly.items())


def _p_poly(coeffs: dict, shift: int) -> Polynomial:
    """sum c p^{e - shift} over the exponent -> coefficient map."""
    top = max(coeffs, default=shift) - shift
    return Polynomial([coeffs.get(k + shift, 0) for k in range(top + 1)], "p")


def _leading_moment(poly: dict):
    """(k, C_k) for the lowest k with C_k(s) = sum c_ij (i - j s)^k != 0.

    With p = e^u, p^{i - j s} = sum_k u^k (i - j s)^k / k!, so C_k / k! is
    the leading coefficient of the expansion at p = 1. k is below the number
    of terms unless the polynomial is zero (Vandermonde)."""
    for k in range(len(poly)):
        # (i - j s)^k = sum_t C(k, t) i^{k-t} (-j)^t s^t
        moment = Polynomial([math.comb(k, t) * sum(
            c * (i ** (k - t) * (-j) ** t) for (i, j), c in poly.items())
            for t in range(k + 1)], "s")
        if not moment.is_zero():
            return k, moment
    raise DegenerateLimitError("the form has a zero numerator or denominator")


class LaurentForm:
    """p^{a + b m} N / D, with N and D Laurent polynomials in
    (P, U) = (p, p^{-s}) multiplied out from the cataloged factors."""

    __slots__ = ("a", "b", "num", "den")

    # symbolic p: the largest values, sl3cong and su3cong at |s| = 239,
    # take 0.28-0.39 s (the gcd of two dense polynomials), below sl2zp at
    # MAX_DEGREE
    max_degree = 1200

    def __init__(self, a: int, b: int, num: dict, den: dict):
        self.a, self.b = a, b
        self.num, self.den = num, den  # {(i, j): c}, the term c P^i U^j

    def eval(self, m: int, s: int, p):
        num, den = _at_s(self.num, s), _at_s(self.den, s)
        if not den:
            raise PoleError(f"the denominator vanishes at s={s}", location=s)
        pre = self.a + self.b * m
        exponents = [*(pre + e for e in num), *den]
        shift = min(exponents)
        _check_size(max(exponents) - shift, p, self.max_degree)
        if _is_symbolic(p):
            num = _p_poly({pre + e: c for e, c in num.items()}, shift)
            return RationalFunction(num, _p_poly(den, shift), "p")
        q = Fraction(p)
        return q ** pre * sum(c * q ** e for e, c in num.items()) \
            / sum(c * q ** e for e, c in den.items())

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


class DimensionListForm:
    """Finite list of (multiplicity, dimension) pairs, each a Polynomial in
    p, plus a geometric infinite part prefixed by 1/(1 - p^{1-s}). A value
    is summed over the denominator common^s and reduced once."""

    __slots__ = ("finite_terms", "infinite_terms", "common")

    max_degree = MAX_DEGREE

    def __init__(self, finite_terms: tuple, infinite_terms: tuple,
                 common: Polynomial):
        # (multiplicity, dimension) Polynomials in p, and a common multiple
        # of the dimensions
        self.finite_terms, self.infinite_terms = finite_terms, infinite_terms
        self.common = common

    def _sum(self, terms, s: int, p):
        """(num, den), unreduced, with sum mult dim^{-s} = num / den and den
        = common^s (1 for s <= 0): Fractions for numeric p, Polynomials in
        p for symbolic p."""
        # common^|s| times the geometric factor, and the multiplicities
        _check_size(self.common.degree * abs(s) + abs(s - 1) + 2, p,
                    self.max_degree)
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

    def eval(self, m: int, s: int, p):
        (fin, den), (inf, _) = self._sum(self.finite_terms, s, p), \
            self._sum(self.infinite_terms, s, p)
        gn, gd = self._geometric(s, p)
        return self._value(fin * gd + inf * gn, den * gd, p)


class GroupFamily:
    __slots__ = ("key", "identifier", "excluded_p", "uses_m", "form")

    def __init__(self, key: str, identifier: str, excluded_p: frozenset,
                 uses_m: bool, form):
        self.key, self.identifier = key, identifier
        self.excluded_p, self.uses_m = excluded_p, uses_m
        self.form = form  # LaurentForm or DimensionListForm


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


def _laurent(*terms) -> dict:
    """sum c P^i U^j over the (c, i, j) triples, that is c p^{i - j s}, as
    the {(i, j): c} map of its non-zero coefficients."""
    return _collect(((i, j), c) for c, i, j in terms)


def _product(*factors) -> dict:
    """The product of the term maps."""
    out = {(0, 0): 1}
    for f in factors:
        out = _collect(((i + k, j + l), c * d) for (i, j), c in out.items()
                       for (k, l), d in f.items())
    return out


def _one_minus(i: int, j: int) -> dict:
    """The factor 1 - p^{i - j s}."""
    return _laurent((1, 0, 0), (-1, i, j))


# p^{3m+2} (1 - p^{-2-s}) / (1 - p^{1-s})
_SL2_CONG = LaurentForm(a=2, b=3, num=_one_minus(-2, 1),
                        den=_one_minus(1, 1))

# (1 - p^{1-2s}) (1 - p^{2-3s})
_COMMON_DEN = _product(_one_minus(1, 2), _one_minus(2, 3))

# p^{8m} (1 - p^{-2-s}) (1 - p^{-1-s})
#   [1 + p^{-1-s} + p^{-2-s} + p^{-2s} + p^{-1-2s} + p^{-2-3s}] / common den
_SL3_CONG = LaurentForm(a=0, b=8, den=_COMMON_DEN, num=_product(
    _one_minus(-2, 1), _one_minus(-1, 1),
    _laurent((1, 0, 0), (1, -1, 1), (1, -2, 1), (1, 0, 2), (1, -1, 2),
             (1, -2, 3))))

# p^{8m} (1 - p^{-2-s}) (1 - p^{-s}) (1 + p^{-1-s})
#   [1 + p^{-s} - p^{-1-s} + p^{-2-s} + p^{-2-2s}] / common den
_SU3_CONG = LaurentForm(a=0, b=8, den=_COMMON_DEN, num=_product(
    _one_minus(-2, 1), _one_minus(0, 1), _laurent((1, 0, 0), (1, -1, 1)),
    _laurent((1, 0, 0), (1, 0, 1), (-1, -1, 1), (1, -2, 1), (1, -2, 2))))

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


def factorization_check(family):
    """Exact identity between the u-form numerator and the cataloged
    numerator N, as term maps in (p, p^{-s}): (equal, u-form minus N)."""
    fam = _family(family)
    if fam.key not in U_POLY:
        raise DomainError(f"no u-form numerator cataloged for {fam.identifier}")
    umap = U_POLY[fam.key]
    # 1 + p^{-5-5s}, u(p) p^{-3-2s}, u(1/p) p^{-2-3s}, minus N
    diff = _laurent((1, 0, 0), (1, -5, 5),
                    *((c, e - 3, 2) for e, c in umap.items()),
                    *((c, -e - 2, 3) for e, c in umap.items()),
                    *((-c, i, j) for (i, j), c in fam.form.num.items()))
    return not diff, diff


def q_integer(n: int, p=SYMBOLIC):
    """[n]_p = (p^n - 1)/(p - 1) = 1 + p + ... + p^{n-1}."""
    if n < 1:
        raise DomainError("q_integer requires n >= 1")
    _check_size(n - 1, p)
    poly = Polynomial([1] * n, "p")
    return poly if _is_symbolic(p) else poly(Fraction(p))


def su3_cong_minus1(p=SYMBOLIC, m: int = 1):
    """The su3cong value at s = -1: -2 p^{8m-2} / [5]_p.

    The sign is forced by the cataloged formula (both its u-form and its
    factorization), matching the negativity of the sl2cong analogue
    -p^{3m+1}/(p+1)."""
    if m < 1:
        raise DomainError("su3_cong_minus1 requires m >= 1")
    if not _is_symbolic(p) and Fraction(p) == 1:
        raise DomainError("su3_cong_minus1 requires p != 1; use the limit")
    _check_size(8 * m - 2, p)
    q = RationalFunction.variable("p") if _is_symbolic(p) else Fraction(p)
    return -2 * q ** (8 * m - 2) / q_integer(5, p)


def su3_cong_minus1_limit() -> Fraction:
    """p -> 1 limit of su3_cong_minus1 via the q-integer polynomial: -2/5."""
    return Fraction(-2) / q_integer(5, SYMBOLIC)(Fraction(1))


def sl2zp_z0(s: int, p=SYMBOLIC):
    """Finite part Z_0 of the sl2zp dimension list at integer s."""
    return FAMILIES["sl2zp"].form.eval_finite(int(s), p)
