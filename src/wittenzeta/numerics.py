"""Floating-point special-function kernel: complex Riemann zeta, Hurwitz
zeta, and log-gamma, with an explicit precision budget.

All three are implemented from scratch (Euler-Maclaurin summation and a
shifted Stirling series) rather than wrapping a library, so the test suite
can check them against independent oracles. The tested domain is
|Im s| <= 50, -40 <= Re s <= 40 for the zetas and |z| <= 100 off the
negative-real branch cut for log-gamma.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from math import factorial

from .errors import ConvergenceError, DomainError, PoleError
from .exact import bernoulli

_TWO_PI = 2.0 * math.pi
_EM_ORDER = 8  # below this order a growing correction is not yet divergence


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

# B_2 .. B_100 as floats (Stirling), and B_{2j}/(2j)! (Euler-Maclaurin)
_BFLOAT = {k: float(bernoulli(k)) for k in range(2, 102, 2)}
_EM_COEF = [_BFLOAT[2 * j] / factorial(2 * j) for j in range(1, 51)]


# ---------------------------------------------------------------------------
# log-gamma
# ---------------------------------------------------------------------------

_STIRLING_SHIFT = 12.0
_STIRLING_TERMS = 10


def _stirling_log_gamma(w: complex) -> complex:
    acc = (w - 0.5) * cmath.log(w) - w + 0.5 * math.log(_TWO_PI)
    winv2 = 1.0 / (w * w)
    pw = 1.0 / w
    for j in range(1, _STIRLING_TERMS + 1):
        acc += _BFLOAT[2 * j] / (2 * j * (2 * j - 1)) * pw
        pw *= winv2
    return acc


def log_gamma(z: complex) -> complex:
    """Principal-branch log Gamma via a shifted Stirling series.

    Uses the reflection formula for Re z < 0.5; poles at non-positive
    integers raise PoleError. Real z >= 0.5 take math.lgamma: there the
    shifted sum cancels to about 5e-15.
    """
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0 and abs(z.real - round(z.real)) < 1e-12:
        raise PoleError(f"log_gamma pole at z = {z}", location=z)
    if z.imag == 0.0 and z.real >= 0.5:
        return complex(math.lgamma(z.real))
    if z.real < 0.5:
        # log Gamma(z) = log pi - log sin(pi z) - log Gamma(1 - z)
        _check_trig(math.pi * z)
        return math.log(math.pi) - cmath.log(cmath.sin(math.pi * z)) \
            - log_gamma(1.0 - z)
    w = z
    shift = 0.0 + 0.0j
    while abs(w) < _STIRLING_SHIFT:
        shift += cmath.log(w)
        w += 1.0
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


def half_pi_trig(w: complex) -> tuple[complex, complex, complex]:
    """cos(pi w/2), sin(pi w/2) and e^{i pi w/2}, each n exact quarter turns
    from its value at w - n, n the integer nearest Re w: cos and sin vanish
    exactly at the integers and keep their accuracy next to them."""
    n = round(w.real)
    f = complex(w.real - n, w.imag) * (0.5 * math.pi)
    _check_trig(f)
    c, s, e = cmath.cos(f), cmath.sin(f), cmath.exp(1j * f)
    for _ in range(n % 4):
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
                    budget: PrecisionBudget):
    """Bernoulli corrections sum_j B_{2j}/(2j)! (s)_{2j-1} base^{1-s-2j},
    summed until a term falls below the target times scale; None when the
    asymptotic series turns first, so that N must grow."""
    risefac = s  # (s)_1
    power = base ** (-s - 1.0)
    corr = 0.0
    prev_mag = math.inf
    for j, coef in enumerate(_EM_COEF, 1):
        term = coef * risefac * power
        mag = abs(term)
        if mag > prev_mag and j * 2 > _EM_ORDER:
            return None  # asymptotic series started diverging
        corr += term
        if mag <= budget.target * scale * 0.01:
            return corr
        prev_mag = mag
        risefac *= (s + 2 * j - 1) * (s + 2 * j)
        power /= base * base
    return None


def _check_order(s: complex) -> None:
    """DomainError past |s| = MAX_TERMS - 8, where the first Euler-Maclaurin
    split, |s| + 8 terms, would pass MAX_TERMS."""
    if abs(s) > MAX_TERMS - 8:
        raise DomainError(f"zeta({s}, a) supports |s| <= {MAX_TERMS - 8}")


def _hurwitz_em(s: complex, a: float, budget: PrecisionBudget) -> complex:
    """Euler-Maclaurin evaluation of zeta(s, a), valid for Re s >= -40.

    N explicit terms, the integral term, the half term, and adaptive
    Bernoulli corrections; N is doubled if the corrections fail to decay.
    N starts at |s| + 8, so |s| > MAX_TERMS - 8 raises DomainError.
    """
    _check_order(s)
    n_split = max(16, math.ceil(abs(s)) + 8)
    while True:
        head = 0.0 + 0.0j
        try:
            for n in range(n_split):
                head += (n + a) ** (-s)
        except (OverflowError, ZeroDivisionError):  # a^{-s}, or 0^{-s}
            raise DomainError(
                f"zeta({s}, {a}) overflows double precision") from None
        base = n_split + a
        tail = base ** (1.0 - s) / (s - 1.0) + 0.5 * base ** (-s)
        corr = _em_corrections(s, base, abs(head + tail) + 1.0, budget)
        if corr is not None:
            return head + tail + corr
        if 2 * n_split > MAX_TERMS:
            raise ConvergenceError(
                f"hurwitz zeta did not converge for s={s}, a={a}",
                achieved=head + tail)
        n_split *= 2


def hurwitz_pair(w: complex, t: float,
                 budget: PrecisionBudget) -> tuple[complex, complex]:
    """zeta(w, b) and zeta(w, a) - zeta(w, b), a = t, b = 1 - t, Re w >= -40,
    from one Euler-Maclaurin pass with a shared split N. The difference
    stays accurate through the pole at w = 1 (where zeta(w, b) is infinite):
    its integral term ((N+a)^{1-w} - (N+b)^{1-w}) / (w-1) is taken as
    -(N+b)^{1-w} L e^{u/2} sinh(u/2)/(u/2), L = log((N+a)/(N+b)), u = (1-w) L.
    N starts at |w| + 8, so |w| > MAX_TERMS - 8 raises DomainError.
    """
    a, b = t, 1.0 - t
    _check_order(w)
    n_split, minus_w = math.ceil(abs(w)) + 8, -w
    while n_split <= MAX_TERMS:
        head_a = head_b = 0.0
        try:
            for n in range(n_split):
                head_a += (n + a) ** minus_w
                head_b += (n + b) ** minus_w
        except (OverflowError, ZeroDivisionError):  # a^{-w}, or 0^{-w}
            raise DomainError(
                f"zeta({w}, {a}) overflows double precision") from None
        base_a, base_b = n_split + a, n_split + b
        pow_a, pow_b = base_a ** (1.0 - w), base_b ** (1.0 - w)
        pole_a, pole_b = (pow_a / (w - 1.0), pow_b / (w - 1.0)) if w != 1.0 \
            else (math.inf, math.inf)
        # a zeta's size is head + integral term, which cancel for Re w < 1;
        # next to w = 1 the head alone is the size the difference needs
        corr_a = _em_corrections(
            w, base_a, min(abs(head_a), abs(head_a + pole_a)) + 1.0, budget)
        corr_b = _em_corrections(
            w, base_b, min(abs(head_b), abs(head_b + pole_b)) + 1.0, budget)
        if corr_a is not None and corr_b is not None:
            break
        n_split *= 2
    else:
        raise ConvergenceError(f"hurwitz pair did not converge for s={w}")
    log_ratio = math.log1p((base_a - base_b) / base_b)
    half = 0.5 * (1.0 - w) * log_ratio
    sinhc = cmath.sinh(half) / half if half else 1.0
    diff = head_a - head_b - pow_b * log_ratio * cmath.exp(half) * sinhc \
        + 0.5 * (base_a ** -w - base_b ** -w) + corr_a - corr_b
    value_b = head_b + pole_b + 0.5 * base_b ** -w + corr_b
    return value_b, diff


def _expm1(z):
    """e^z - 1 for real or complex z, accurate next to 0."""
    if isinstance(z, complex):
        return 2.0 * cmath.exp(0.5 * z) * cmath.sinh(0.5 * z)
    return math.expm1(z)


def hurwitz_even(w: complex, a: float, budget: PrecisionBudget) -> complex:
    """zeta(w, a) + zeta(w, 1 - a) for 0 < |w| < 1, accurate relative to |w|
    at its zero w = 0: each power (n+x)^{-w} enters as 1 + expm1(-w log(n+x))
    and the ones, with the integral and half terms, sum exactly to
    (2N+1) w / (w-1)."""
    b = 1.0 - a
    n_split = 8
    while n_split <= MAX_TERMS:
        head = 0.0
        for n in range(n_split):
            head += _expm1(-w * math.log(n + a)) + _expm1(-w * math.log(n + b))
        base_a, base_b = n_split + a, n_split + b
        value = head + (2 * n_split + 1) * w / (w - 1.0) \
            + _expm1(-w * math.log(base_a)) * (0.5 + base_a / (w - 1.0)) \
            + _expm1(-w * math.log(base_b)) * (0.5 + base_b / (w - 1.0))
        # the value is O(w); Gamma(w) ~ 1/w later scales it back to O(1)
        scale = abs(value) + abs(w)
        corr_a = _em_corrections(w, base_a, scale, budget)
        corr_b = _em_corrections(w, base_b, scale, budget)
        if corr_a is not None and corr_b is not None:
            return value + corr_a + corr_b
        n_split *= 2
    raise ConvergenceError(f"hurwitz sum did not converge for s={w}")


def hurwitz_zeta(s: complex, a: float,
                 budget: PrecisionBudget = DEFAULT_BUDGET) -> complex:
    """Hurwitz zeta(s, a) for 0 < a <= 1, Re s >= -40, s != 1."""
    s = complex(s)
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
    DomainError where Gamma(1 - s) or the sine overflows (Re s < -169,
    |Im s| > 445). s = 0 gives the exact -1/2, s = -2, -4, ... exactly 0.
    """
    s = complex(s)
    if abs(s - 1.0) < 1e-13:
        raise PoleError("riemann zeta pole at s = 1", location=1.0)
    if s == 0:
        return complex(-0.5)
    if s.imag == 0.0 and s.real < 0.0 and s.real % 2.0 == 0.0:
        return 0j  # the trivial zeros, where sin(pi s/2) rounds to ~1e-16
    if s.real > _RZ_CROSSOVER or abs(s) < 0.1:
        return _hurwitz_em(s, 1.0, budget)
    if s.real < -169.0:
        raise DomainError(f"Gamma({1.0 - s}) overflows double precision")
    _check_trig(math.pi * s / 2.0)
    # zeta(s) = 2^s pi^(s-1) sin(pi s / 2) Gamma(1-s) zeta(1-s)
    chi = 2.0 ** s * math.pi ** (s - 1.0) * cmath.sin(math.pi * s / 2.0) \
        * cmath.exp(log_gamma(1.0 - s))
    return chi * _hurwitz_em(1.0 - s, 1.0, budget)
