"""Exact symbolic Witten zeta functions for p-adic group families:

* ``sl2zp``   -- SL_2(Z_p), p odd, from its dimension list: a finite part
                 plus a geometric part with prefactor 1/(1-p^{1-s});
* ``sl2cong`` -- the level-p^m congruence subgroup of SL_2(Z_p), p odd;
* ``sl3cong`` -- congruence subgroups of SL_3(Z_p), p != 3;
* ``su3cong`` -- congruence subgroups of SU_3 over Z_p, p != 3.

Each is one LaurentForm p^{a+bm} N / D. N is a term map, the sum of
c p^i d^{-s} over dimensions d = 2^{-h} p^j (p-1)^k (p+1)^l (only sl2zp
has dimensions other than powers of p), multiplied out at import from the
cataloged factors. D is kept as its factors 1 - p^{i-js}.

Everything here is exact: integer s with numeric p gives a Fraction, with
symbolic p a reduced RationalFunction in p. N and D are expanded over the
integers and reduced without a gcd: at integer s the only irreducible
factors of D are p, p -+ 1 and the cyclotomic Phi_d for d dividing some
|i - js|, and exact division by each finds what N and D share. A value past
MAX_DEGREE in p (symbolic p) or MAX_DIGITS digits (numeric p) is refused
with DomainError before it is built. The "absolute limit" p -> 1, a
RationalFunction in s, is the ratio of the leading coefficients of N and D
in u = log p.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .errors import ConstraintError, DegenerateLimitError, DomainError, PoleError
from .exact import Polynomial, RationalFunction

SYMBOLIC = "sym"
# symbolic p, every family: the costliest values, sl2zp at s = -599 and
# sl3cong and su3cong at |s| = 239, take 50-100 ms on one Xeon core, most of
# it in the trial divisions of _reduced
MAX_DEGREE = 1200
MAX_DIGITS = 4000  # numeric p: str() of an int stops at 4300 digits


def _is_symbolic(p) -> bool:
    return p is None or p == SYMBOLIC


def _check_size(degree: int, p):
    """DomainError before a value of this degree in p is built: past
    MAX_DEGREE for symbolic p; for numeric p, past MAX_DIGITS digits, where
    each factor p^e is below (numerator + denominator of p)^e."""
    if _is_symbolic(p):
        size, limit, what = degree, MAX_DEGREE, f"degree {degree} in p"
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


def _at_s(terms: dict, s: int, shift: int = 0) -> dict:
    """Substitute s: term (i, j, k, l, h) becomes its coefficient times
    p^{shift + i - js} (p-1)^{-ks} (p+1)^{-ls} 2^{hs}, keyed by those four
    exponents."""
    return _collect(((shift + i - j * s, -k * s, -l * s, h * s), c)
                    for (i, j, k, l, h), c in terms.items())


def _row(b: int, c: int) -> list:
    """(p - 1)^b (p + 1)^c = (p^2 - 1)^n (p -+ 1)^r, ascending integers."""
    n, r, sign = min(b, c), abs(b - c), -1 if b > c else 1
    out = [0] * (2 * n + r + 1)
    for t in range(r + 1):
        x = math.comb(r, t) * sign ** (r - t)
        for u in range(n + 1):
            out[t + 2 * u] += x * math.comb(n, u) * (-1) ** (n - u)
    return out


def _expand(terms: list, degree: int) -> list:
    """The terms (v, a, b, c), each v p^a (p-1)^b (p+1)^c, as an integer
    list in p, ascending."""
    out, rows = [0] * (degree + 1), {}
    for v, a, b, c in terms:
        if (b, c) not in rows:
            rows[b, c] = _row(b, c)
        for t, x in enumerate(rows[b, c], a):
            out[t] += v * x
    return out


def _divisors(n: int) -> list:
    return [d for d in range(1, n + 1) if n % d == 0]


def _div_monic(a: list, b: tuple):
    """a / b for integer lists, ascending, b monic: the quotient, or None
    when b does not divide a."""
    n = len(b) - 1
    terms = [(t, c) for t, c in enumerate(b[:n]) if c]
    r, quot = list(a), [0] * max(len(a) - n, 0)
    for k in reversed(range(len(quot))):
        c = quot[k] = r[k + n]
        if c:
            for t, x in terms:
                r[k + t] -= c * x
    return None if any(r[:n]) else quot


@functools.lru_cache(maxsize=None)  # d <= MAX_DEGREE
def _cyclotomic(d: int) -> tuple:
    """Phi_d = (p^d - 1) / prod of Phi_k over k | d, k < d, ascending."""
    out = [-1, *[0] * (d - 1), 1]
    for k in _divisors(d)[:-1]:
        out = _div_monic(out, _cyclotomic(k))
    return tuple(out)


def _reduced(num: list, den: list, exponents) -> RationalFunction:
    """num / den, integer lists in p, ascending, for den p^x (p-1)^y (p+1)^z
    times the p^|e| - 1, e in exponents: each factor they share divided out."""
    if not any(num):
        return RationalFunction(0, 1, "p", coprime=True)
    low = min(next(t for t, c in enumerate(x) if c) for x in (num, den))
    num, den = num[low:], den[low:]
    orders = {1, 2}.union(*(_divisors(abs(e)) for e in exponents))
    for phi in map(_cyclotomic, sorted(orders)):
        while (q := _div_monic(num, phi)) is not None \
                and (r := _div_monic(den, phi)) is not None:
            num, den = q, r
    return RationalFunction(Polynomial(num, "p"), Polynomial(den, "p"),
                            coprime=True)


def _leading_moment(poly: dict):
    """(k, C_k) for the lowest k with C_k(s) = sum c_ij (i - j s)^k != 0.

    With p = e^u, p^{i - j s} = sum_k u^k (i - j s)^k / k!, so C_k / k! is
    the leading coefficient of the expansion at p = 1. k is below the number
    of terms unless the polynomial is zero (Vandermonde)."""
    for k in range(len(poly)):
        # (i - j s)^k = sum_t C(k, t) i^{k-t} (-j)^t s^t
        moment = Polynomial([math.comb(k, t) * sum(
            c * (i ** (k - t) * (-j) ** t) for (i, j, *_), c in poly.items())
            for t in range(k + 1)], "s")
        if not moment.is_zero():
            return k, moment
    raise DegenerateLimitError("the form has a zero numerator or denominator")


class LaurentForm:
    """p^{a + b m} N / D: N the sum of the terms c p^i d^{-s}, with
    d = 2^{-h} p^j (p-1)^k (p+1)^l, kept as {(i, j, k, l, h): c}; D the
    product of the factors 1 - p^{i - j s}, kept as their (i, j)."""

    __slots__ = ("a", "b", "num", "factors", "den")

    def __init__(self, a: int, b: int, num: dict, factors: tuple):
        self.a, self.b, self.num, self.factors = a, b, num, factors
        self.den = _product(*(_one_minus(i, j) for i, j in factors))

    def eval(self, m: int, s: int, p):
        num = _at_s(self.num, s, self.a + self.b * m)
        den = _at_s(self.den, s)
        if not den:
            raise PoleError(f"the denominator vanishes at s={s}", location=s)
        keys = (*num, *den)
        low = [min(key[t] for key in keys) for t in range(4)]
        degree = max(a + b + c for a, b, c, _ in keys) - sum(low[:3])
        _check_size(degree, p)
        # integer terms: the parts over p^x (p-1)^y (p+1)^z 2^w / scale
        scale = math.lcm(*(c.denominator for c in self.num.values()))
        num, den = ([(int(coef * scale) << (g - low[3]), a - low[0],
                      b - low[1], c - low[2])
                     for (a, b, c, g), coef in x.items()] for x in (num, den))
        if _is_symbolic(p):
            return _reduced(_expand(num, degree), _expand(den, degree),
                            [i - j * s for i, j in self.factors])
        n, d = Fraction(p).as_integer_ratio()
        # each part at p = n / d, times d^degree
        num, den = (sum(v * n ** a * (n - d) ** b * (n + d) ** c
                        * d ** (degree - a - b - c) for v, a, b, c in x)
                    for x in (num, den))
        return Fraction(num, den)

    def absolute_limit(self) -> RationalFunction:
        """Formal limit p -> 1: the ratio of the leading coefficients of N
        and D in u = log p (the prefactor tends to 1). Every dimension must
        be a power of p, and N and D must vanish to the same order."""
        if any(key[2:] != (0, 0, 0) for key in self.num):
            raise DomainError("absolute limit needs every dimension a "
                              "power of p, not p -+ 1 or 1/2 times one")
        kn, cn = _leading_moment(self.num)
        kd, cd = _leading_moment(self.den)
        if kn != kd:
            raise DegenerateLimitError(
                f"absolute limit is 0 or infinite: the numerator vanishes to "
                f"order {kn} at p = 1, the denominator to order {kd}")
        return RationalFunction(cn, cd, "s")


class GroupFamily:
    __slots__ = ("key", "identifier", "excluded_p", "uses_m", "form")

    def __init__(self, key: str, identifier: str, excluded_p: frozenset,
                 uses_m: bool, form: LaurentForm):
        self.key, self.identifier = key, identifier
        self.excluded_p, self.uses_m = excluded_p, uses_m
        self.form = form


def _laurent(*terms) -> dict:
    """sum c p^i d^{-s} over the terms (c, i, j, k, l, h), with
    d = 2^{-h} p^j (p-1)^k (p+1)^l and k, l, h 0 where left out, as the
    {(i, j, k, l, h): c} map of its non-zero coefficients."""
    return _collect(((*key, 0, 0, 0)[:5], c) for c, *key in terms)


def _product(*factors) -> dict:
    """The product of the term maps."""
    out = {(0, 0, 0, 0, 0): 1}
    for f in factors:
        out = _collect((tuple(u + v for u, v in zip(x, y)), c * d)
                       for x, c in out.items() for y, d in f.items())
    return out


def _one_minus(i: int, j: int) -> dict:
    """The factor 1 - p^{i - j s}."""
    return _laurent((1, 0, 0), (-1, i, j))


# sl2zp: multiplicity x dimension over its finite list, then its infinite
_HALF = Fraction(1, 2)
_SL2ZP_FINITE = _laurent(
    (1, 0, 0),                                          # 1 x 1
    (2, 0, 0, 1, 0, 1), (2, 0, 0, 0, 1, 1),             # 2 x (p -+ 1)/2
    (_HALF, 1, 0, 1), (-_HALF, 0, 0, 1),                # (p-1)/2 x (p-1)
    (1, 0, 1),                                          # 1 x p
    (_HALF, 1, 0, 0, 1), (-3 * _HALF, 0, 0, 0, 1))      # (p-3)/2 x (p+1)
_SL2ZP_INFINITE = _laurent(
    (4, 1, 0, 1, 1, 1),                                 # 4p x (p^2-1)/2
    (_HALF, 2, 1, 1), (-_HALF, 0, 1, 1),                # (p^2-1)/2 x (p^2-p)
    (_HALF, 2, 1, 0, 1), (-1, 1, 1, 0, 1),              # (p-1)^2/2 x (p^2+p)
    (_HALF, 0, 1, 0, 1))
_SL2ZP_Z0 = LaurentForm(a=0, b=0, num=_SL2ZP_FINITE, factors=())

# F + I / (1 - p^{1-s}), over the finite and infinite lists F and I
_SL2ZP = LaurentForm(a=0, b=0, factors=((1, 1),), num=_collect((
    *_product(_SL2ZP_FINITE, _one_minus(1, 1)).items(),
    *_SL2ZP_INFINITE.items())))

# p^{3m+2} (1 - p^{-2-s}) / (1 - p^{1-s})
_SL2_CONG = LaurentForm(a=2, b=3, num=_one_minus(-2, 1), factors=((1, 1),))

# over (1 - p^{1-2s}) (1 - p^{2-3s})
_COMMON_FACTORS = ((1, 2), (2, 3))

# p^{8m} (1 - p^{-2-s}) (1 - p^{-1-s})
#   [1 + p^{-1-s} + p^{-2-s} + p^{-2s} + p^{-1-2s} + p^{-2-3s}] / common den
_SL3_CONG = LaurentForm(a=0, b=8, factors=_COMMON_FACTORS, num=_product(
    _one_minus(-2, 1), _one_minus(-1, 1),
    _laurent((1, 0, 0), (1, -1, 1), (1, -2, 1), (1, 0, 2), (1, -1, 2),
             (1, -2, 3))))

# p^{8m} (1 - p^{-2-s}) (1 - p^{-s}) (1 + p^{-1-s})
#   [1 + p^{-s} - p^{-1-s} + p^{-2-s} + p^{-2-2s}] / common den
_SU3_CONG = LaurentForm(a=0, b=8, factors=_COMMON_FACTORS, num=_product(
    _one_minus(-2, 1), _one_minus(0, 1), _laurent((1, 0, 0), (1, -1, 1)),
    _laurent((1, 0, 0), (1, 0, 1), (-1, -1, 1), (1, -2, 1), (1, -2, 2))))

# u-form numerators 1 + u(p) p^{-3-2s} + u(1/p) p^{-2-3s} + p^{-5-5s},
# with u given by exponent -> coefficient maps.
U_POLY = {
    "sl3cong": {3: 1, 2: 1, 1: -1, 0: -1, -1: -1},
    "su3cong": {3: -1, 2: 1, 1: -1, 0: 1, -1: -1},
}

FAMILIES = {
    "sl2zp": GroupFamily("sl2zp", "SL2_ZP", frozenset({2}), False, _SL2ZP),
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
    real = s.real
    if real != real or abs(real) == math.inf or s != int(real):
        raise DomainError("eval_at_int_s requires integer s")
    _check_p(fam, p)
    return fam.form.eval(int(m) if fam.uses_m else 0, int(real), p)


def verify_zero(family, m: int, s: int):
    """(is_zero, witness): whether the symbolic value vanishes identically,
    with the reduced rational function in p as witness."""
    w = eval_at_int_s(family, m, s, SYMBOLIC)
    return w.is_zero(), w


def absolute_limit(family, m: int = 1) -> RationalFunction:
    """The formal p -> 1 limit as a rational function of s (level m drops
    out, but must still be a level, m >= 1). sl2zp, with dimensions p -+ 1,
    has none."""
    fam = _family(family)
    _check_m(fam, m)
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
                    *((-c, *key) for key, c in fam.form.num.items()))
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
    return _SL2ZP_Z0.eval(0, int(s), p)
