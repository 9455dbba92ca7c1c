"""Floating-point special-function kernel: complex Riemann zeta, Hurwitz
zeta, and log-gamma, with an explicit precision budget. ``hurwitz_pair`` is
the one Hurwitz pass of the polylog routes: zeta(w, t) and zeta(w, 1 - t)
from a shared split, returned as zeta(w, 1 - t), their difference and sum.
``zeta_ladder`` gives zeta(rho), zeta(rho + 2), ... from one split, for the
polylog's zeta(s - k) table.

Every Euler-Maclaurin call takes one split N, with no retry: |s| + 8
(``_first_split``; at least 16 in ``_hurwitz_em``), or max(16, ceil|rho| +
8) in the ladder, from where the Bernoulli corrections fall from their
first term on. ``_em_corrections`` raises ConvergenceError if one grows
instead. Not one grew in a sweep of about 770 000 calls: the benchmark's
oracle rows at targets 1e-6 to 1e-13 (156 000), the test suite (495 000),
and 20 000 random (s, a, target) with Re s in [-40, 40], |Im s| <= 50 and
targets down to 1e-17 plus 2000 ladders of 30 entries (120 000).

All three are implemented from scratch (Euler-Maclaurin summation and a
shifted Stirling series) rather than wrapping a library, so the test suite
can check them against independent oracles. The tested domain is
|Im s| <= 50, -40 <= Re s <= 40 for the zetas and |z| <= 100 off the
negative-real branch cut for log-gamma.

log-gamma shifts z (Re z >= 1/2) by pairs of unit steps until |w| >= 8
and sums ten Stirling terms by Horner's rule in 1/w^2. The first term left
out is B_22/(22 21) w^-21, 13.4/|w|^21 <= 1.5e-18 (1.8e-18 measured on
|w| = 8, Re w >= 1/2, against about 2e-15 of rounding). Each pair costs one
principal log of w(w+1): Re w >= 1/2 keeps arg w + arg(w+1) in (-pi, pi),
so it is the sum of the two logs. The functional equation of zeta takes
chi(s) = (2 pi)^s / pi sin(pi s/2) Gamma(1-s) as the sine times one exp of
s log 2 pi - log pi + log Gamma(1-s). Both reflections reduce their sine by
exact quarter turns (``sin_half_pi``), so next to the poles of Gamma and
the trivial zeros of zeta the kernels keep their accuracy relative to the
value, and log-gamma raises PoleError only at the poles themselves.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from math import factorial

from .errors import ConvergenceError, DomainError, PoleError
from .exact import bernoulli

_TWO_PI = 2.0 * math.pi


MAX_TERMS = 10_000  # cap on the terms, splits and nodes of every loop


class PrecisionBudget:
    """Target relative error; the work spent reaching it is capped by
    MAX_TERMS."""

    __slots__ = ("target",)

    def __init__(self, target: float = 1e-10):
        if not target > 0:
            raise ValueError("precision target must be positive")
        self.target = target


DEFAULT_BUDGET = PrecisionBudget()


def read_s(s) -> complex:
    """s as a complex, the one reading of s at the public float entry
    points; DomainError for a non-finite s or one past a double."""
    try:
        z = complex(s)
    except OverflowError:  # an int past a double
        z = complex(math.inf)
    if not cmath.isfinite(z):
        raise DomainError(f"s must be finite, got {z}")
    return z


# B_2 .. B_100 as floats (Stirling), and B_{2j}/(2j)! (Euler-Maclaurin)
_BFLOAT = {k: float(bernoulli(k)) for k in range(2, 102, 2)}
_EM_COEF = [_BFLOAT[2 * j] / factorial(2 * j) for j in range(1, 51)]


# ---------------------------------------------------------------------------
# log-gamma
# ---------------------------------------------------------------------------

_STIRLING_SHIFT = 8.0
# B_{2j} / (2j (2j-1)) for j = 10 down to 1, for Horner's rule in 1/w^2
_STIRLING_COEF = tuple(_BFLOAT[2 * j] / (2 * j * (2 * j - 1))
                       for j in range(10, 0, -1))
_LOG_PI, _LOG_TWO_PI = math.log(math.pi), math.log(_TWO_PI)
_HALF_LOG_TWO_PI = 0.5 * _LOG_TWO_PI


def _stirling_log_gamma(w: complex) -> complex:
    winv2 = 1.0 / (w * w)
    acc = 0.0
    for coef in _STIRLING_COEF:
        acc = acc * winv2 + coef
    return (w - 0.5) * cmath.log(w) - w + _HALF_LOG_TWO_PI + acc / w


def log_gamma(z: complex) -> complex:
    """A log Gamma via a shifted Stirling series: exp of it is Gamma(z).

    For Re z >= 1/2 it is the principal branch. Left of that it uses the
    reflection formula, whose principal log of the sine can leave the value
    a multiple of 2 pi i off the principal branch (2 pi i at -2.5 + 10i, 6 pi
    i at -5.5 + 3i); every caller exponentiates it. The poles, the
    non-positive integers themselves, raise PoleError. Real z >= 0.5 take
    math.lgamma: there the shifted sum cancels to about 5e-15.
    """
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0 and z.real == round(z.real):
        raise PoleError(f"log_gamma pole at z = {z}", location=z)
    if z.imag == 0.0 and z.real >= 0.5:
        return complex(math.lgamma(z.real))
    if z.real < 0.5:
        # log Gamma(z) = log pi - log sin(pi z) - log Gamma(1 - z)
        return _LOG_PI - cmath.log(sin_half_pi(2.0 * z)) \
            - log_gamma(1.0 - z)
    w, shift = z, 0.0
    while abs(w) < _STIRLING_SHIFT:
        # Re w >= 1/2, so arg w + arg(w + 1) lies in (-pi, pi): one
        # principal log per pair of steps keeps the branch
        shift += cmath.log(w * (w + 1.0))
        w += 2.0
    return _stirling_log_gamma(w) - shift


def gamma_two_pi(w: complex) -> complex:
    """Gamma(w) (2 pi)^{-w}, the prefactor of the Hurwitz formula."""
    if w.real > 170.0:
        raise DomainError(f"Gamma({w}) overflows double precision")
    if w.imag == 0.0:
        return math.gamma(w.real) * _TWO_PI ** -w.real
    return cmath.exp(log_gamma(w) - w * math.log(_TWO_PI))


def _check_trig(w: complex) -> None:
    """DomainError where sin(w) and cos(w) overflow (past |Im w| = 710.5)."""
    if abs(w.imag) > 700.0:
        raise DomainError(f"sin({w}) overflows double precision")


def _quarter_turns(w: complex) -> tuple[int, complex]:
    """(n mod 4, pi (w - n)/2), n the integer nearest Re w; w - n is exact."""
    n = round(w.real)
    f = complex(w.real - n, w.imag) * (0.5 * math.pi)
    _check_trig(f)
    return n % 4, f


def sin_half_pi(w: complex) -> complex:
    """sin(pi w/2) from n exact quarter turns and one sine or cosine at
    w - n, n the integer nearest Re w: exactly +-0 at the even integers
    and accurate relative to the value next to them."""
    q, f = _quarter_turns(w)
    v = cmath.cos(f) if q & 1 else cmath.sin(f)
    return -v if q & 2 else v


def half_pi_trig(w: complex) -> tuple[complex, complex, complex]:
    """cos(pi w/2), sin(pi w/2) and e^{i pi w/2}, each n exact quarter turns
    from its value at w - n, n the integer nearest Re w: cos and sin vanish
    exactly at the integers and keep their accuracy next to them."""
    q, f = _quarter_turns(w)
    c, s, e = cmath.cos(f), cmath.sin(f), cmath.exp(1j * f)
    for _ in range(q):
        c, s, e = -s, c, 1j * e
    return c, s, e


def gamma_ratio_at_neg(n: int) -> Fraction:
    """Exact limit of Gamma(2s-1)/Gamma(s) at s = -n for n >= 0."""
    if n < 0:
        raise ValueError("gamma_ratio_at_neg: n must be >= 0")
    return Fraction((-1) ** (n + 1) * factorial(n), 2 * factorial(2 * n + 1))


# ---------------------------------------------------------------------------
# Hurwitz and Riemann zeta by Euler-Maclaurin
# ---------------------------------------------------------------------------

def _em_corrections(s: complex, base: float, scale: float,
                    budget: PrecisionBudget) -> complex:
    """Bernoulli corrections sum_j B_{2j}/(2j)! (s)_{2j-1} base^{1-s-2j},
    base = N + a, summed until a term falls below the target times scale.
    The caller's split makes them fall from the first term on; a term that
    grows, or 50 coefficients that run out first, raise ConvergenceError
    naming s and N + a."""
    risefac = s  # (s)_1
    power = base ** (-s - 1.0)
    inv_base2 = 1.0 / (base * base)
    stop = budget.target * scale * 0.01
    corr = 0.0
    prev_mag = math.inf
    for j, coef in enumerate(_EM_COEF, 1):
        term = coef * risefac * power
        mag = abs(term)
        if mag > prev_mag:
            break
        corr += term
        if mag <= stop:
            return corr
        prev_mag = mag
        risefac *= (s + 2 * j - 1) * (s + 2 * j)
        power *= inv_base2
    raise ConvergenceError(f"Euler-Maclaurin corrections at s = {s} do not "
                           f"fall below the target from N + a = {base:g}")


_FLAT_RE = 16.0  # from this Re s on the split need not outgrow |Re s|


def _first_split(s: complex) -> int:
    """The one Euler-Maclaurin split N of a zeta(s, a): |s| + 8, from where
    the Bernoulli corrections fall from the first term on: the ratio of
    consecutive terms, about (|s + 2j| / 2 pi N)^2, is below 1 while |s +
    2j| < 2 pi N. For Re s >= 16 it is |Im s| + 8 and at least 16, where
    the first correction, |s|/12 N^{-Re s-1} <= 1e-20 of the value, already
    ends them. DomainError where N passes MAX_TERMS."""
    n_split = max(16, math.ceil(abs(s.imag)) + 8) if s.real >= _FLAT_RE \
        else math.ceil(abs(s)) + 8
    if n_split > MAX_TERMS:
        raise DomainError(f"zeta({s}, a) supports |s| <= {MAX_TERMS - 8}, "
                          f"or |Im s| <= {MAX_TERMS - 8} from Re s = "
                          f"{_FLAT_RE:g} on")
    return n_split


def _hurwitz_em(s: complex, a: float, budget: PrecisionBudget) -> complex:
    """Euler-Maclaurin evaluation of zeta(s, a), valid for Re s >= -40:
    N = max(16, ``_first_split``) explicit terms, the integral term, the
    half term and the Bernoulli corrections, from that one split."""
    n_split, minus_s = max(16, _first_split(s)), -s
    head = 0.0 + 0.0j
    try:
        for n in range(n_split):
            head += (n + a) ** minus_s
    except (OverflowError, ZeroDivisionError):  # a^{-s}, or 0^{-s}
        raise DomainError(
            f"zeta({s}, {a}) overflows double precision") from None
    base = n_split + a
    tail = base ** (1.0 - s) / (s - 1.0) + 0.5 * base ** minus_s
    return head + tail + _em_corrections(s, base, abs(head + tail) + 1.0,
                                         budget)


def zeta_ladder(rho: complex, budget: PrecisionBudget):
    """zeta(rho), zeta(rho + 2), zeta(rho + 4), ... for Re rho >= 3/2, each
    to the target absolutely, from one Euler-Maclaurin split N = max(16,
    ceil|rho| + 8): the powers k^{-rho}, k < N, are taken once, and each
    later entry multiplies them by k^{-2}, then adds the integral and half
    terms and the Bernoulli corrections at its own order. The corrections
    fall from the first term on while |rho + 2j| < 2 pi N, far past the
    orders a zeta(s - k) table asks for; ConvergenceError if they turn."""
    n_split = max(16, math.ceil(abs(rho)) + 8)
    powers = [k ** -rho for k in range(1, n_split)]
    inv_squares = [1.0 / (k * k) for k in range(1, n_split)]
    while True:
        value = sum(powers) + n_split ** (1.0 - rho) / (rho - 1.0) \
            + 0.5 * n_split ** -rho
        yield value + _em_corrections(rho, n_split, 1.0, budget)
        rho += 2.0
        powers = [p * q for p, q in zip(powers, inv_squares)]


NEAR_ZERO = 0.25  # |w| below which hurwitz_pair sums 1 + expm1(-w log(n+x))


def _expm1(z):
    """e^z - 1 for real or complex z, accurate next to 0."""
    if isinstance(z, complex):
        if z.real < -40.0:  # nothing cancels; sinh(z/2) may overflow
            return cmath.exp(z) - 1.0
        return 2.0 * cmath.exp(0.5 * z) * cmath.sinh(0.5 * z)
    return math.expm1(z)


def hurwitz_pair(w: complex, t: float, budget: PrecisionBudget
                 ) -> tuple[complex, complex, complex]:
    """zeta(w, b), D = zeta(w, a) - zeta(w, b) and S = zeta(w, a) + zeta(w,
    b), a = t, b = 1 - t, Re w >= -40, from one Euler-Maclaurin pass at
    the shared split N = ``_first_split``. D stays accurate through the
    pole at w = 1: its integral term ((N+a)^{1-w} - (N+b)^{1-w})/(w-1) is
    -(N+b)^{1-w} L e^{u/2} sinh(u/2)/(u/2), L = log((N+a)/(N+b)), u =
    (1-w) L. For |w| < NEAR_ZERO each power (n+x)^{-w} enters as 1 +
    expm1(-w log(n+x)), and the ones, with those of the integral and half
    terms, sum exactly to (2N+1) w/(w-1): S, which vanishes at w = 0, keeps
    its accuracy relative to |w|."""
    a, b = t, 1.0 - t
    near = abs(w) < NEAR_ZERO
    n_split, minus_w = _first_split(w), -w
    head_a = head_b = 0.0
    try:
        if near:
            for n in range(n_split):
                head_a += _expm1(minus_w * math.log(n + a))
                head_b += _expm1(minus_w * math.log(n + b))
        else:
            for n in range(n_split):
                head_a += (n + a) ** minus_w
                head_b += (n + b) ** minus_w
    except (OverflowError, ZeroDivisionError, ValueError):  # 0^-w, log 0
        raise DomainError(
            f"zeta({w}, {a}) overflows double precision") from None
    base_a, base_b = n_split + a, n_split + b
    pow_b = base_b ** (1.0 - w)
    if near:
        end_a = _expm1(minus_w * math.log(base_a))
        end_b = _expm1(minus_w * math.log(base_b))
        total = head_a + head_b + (2 * n_split + 1) * w / (w - 1.0) \
            + end_a * (0.5 + base_a / (w - 1.0)) \
            + end_b * (0.5 + base_b / (w - 1.0))
        # S is O(w); Gamma(w) ~ 1/w later scales it back to O(1)
        scale_a = scale_b = abs(total) + abs(w)
    else:
        end_a, end_b = base_a ** minus_w, base_b ** minus_w
        pole_a, pole_b = (base_a ** (1.0 - w) / (w - 1.0),
                          pow_b / (w - 1.0)) if w != 1.0 \
            else (math.inf, math.inf)
        # a zeta's size is head + integral term, which cancel for
        # Re w < 1; next to w = 1 the head alone is the size D needs
        scale_a = min(abs(head_a), abs(head_a + pole_a)) + 1.0
        scale_b = min(abs(head_b), abs(head_b + pole_b)) + 1.0
    corr_a = _em_corrections(w, base_a, scale_a, budget)
    corr_b = _em_corrections(w, base_b, scale_b, budget)
    log_ratio = math.log1p((base_a - base_b) / base_b)
    half = 0.5 * (1.0 - w) * log_ratio
    sinhc = cmath.sinh(half) / half if half else 1.0
    diff = head_a - head_b - pow_b * log_ratio * cmath.exp(half) * sinhc \
        + 0.5 * (end_a - end_b) + corr_a - corr_b
    if near:
        total += corr_a + corr_b
        return 0.5 * (total - diff), diff, total
    value_b = head_b + pole_b + 0.5 * end_b + corr_b
    return value_b, diff, diff + 2.0 * value_b


def hurwitz_zeta(s: complex, a: float,
                 budget: PrecisionBudget = DEFAULT_BUDGET) -> complex:
    """Hurwitz zeta(s, a) for 0 < a <= 1, Re s >= -40, s != 1."""
    s = read_s(s)
    if not 0.0 < a <= 1.0:
        raise DomainError("hurwitz_zeta requires 0 < a <= 1")
    if abs(s - 1.0) < 1e-13:
        raise PoleError("hurwitz zeta pole at s = 1", location=1.0)
    return _hurwitz_em(s, a, budget)


_RZ_CROSSOVER = 0.5  # switch to the functional equation left of this line


def riemann_zeta(s: complex,
                 budget: PrecisionBudget = DEFAULT_BUDGET) -> complex:
    """Riemann zeta(s) for s != 1.

    Euler-Maclaurin for Re s > 0.5 or |s| < 0.1 (where the functional
    equation loses eps/|s|), else the functional equation: it raises
    DomainError left of Re s = -169, where Gamma(1 - s) passes a double,
    and where the sine overflows (|Im s| > 445). At s = 0 the
    Euler-Maclaurin sum is exactly N - (N + 1) + 1/2 = -1/2, each
    correction a multiple of s, and s = -2, -4, ... give exactly 0.
    """
    s = read_s(s)
    if abs(s - 1.0) < 1e-13:
        raise PoleError("riemann zeta pole at s = 1", location=1.0)
    if s.real > _RZ_CROSSOVER or abs(s) < 0.1:
        return _hurwitz_em(s, 1.0, budget)
    if s.real < -169.0:
        if s.imag == 0.0 and s.real % 2.0 == 0.0:
            return 0j  # a trivial zero; right of here the sine gives it
        raise DomainError(f"Gamma({1.0 - s}) overflows double precision")
    # zeta(s) = chi(s) zeta(1-s), chi(s) = (2 pi)^s / pi sin(pi s/2)
    # Gamma(1-s), with the powers and the gamma in one exp
    chi = sin_half_pi(s) * cmath.exp(
        s * _LOG_TWO_PI - _LOG_PI + log_gamma(1.0 - s))
    return chi * _hurwitz_em(1.0 - s, 1.0, budget)
