"""SU(3) Witten zeta function.

The irreducible degrees are mn(m+n)/2, so

    zeta^W_{SU(3)}(s) = 2^s sum_{m,n >= 1} (m^s n^s (m+n)^s)^{-1},

a diagonal Mordell-Tornheim double series convergent for Re s > 1. Its
analytic continuation is computed from the Mellin-Barnes identity

    zeta^W(s) = 2^s Gamma(2s-1) Gamma(1-s)/Gamma(s) zeta(3s-1)
              + 2^s sum_{k=0}^{M-1} (-1)^k (s)_k / k! zeta(2s+k) zeta(s-k)
              + 2^s/(2 pi i) int_{Re z = c}
                    Gamma(s+z) Gamma(-z)/Gamma(s) zeta(2s+z) zeta(s-z) dz,

valid for Re s > -n - 1/4 with M = 2n+2, or floor(Re s) + 1 if larger, so
that the pole of zeta(s-z) at z = s-1 lies left of the line. The line Re
z = c halves the pole-free gap (max(M-1, 1-2 Re s), M), at least 1/2 wide.
The integrand is analytic in a strip about it and decays like e^{-pi |t|},
so the trapezoid rule converges geometrically as its step is halved
(Trefethen and Weideman, SIAM Rev. 56, 2014). For real s the integrand
obeys f(-t) = conj f(t): the rule is folded onto t >= 0, half the nodes,
and the value returned is real. The direct series (``mt_series``) stays an
independent check for Re s > 1: finite square sums, each one numpy
correlation, extrapolated in N. At negative integers the limit collapses
to an exact rational combination of zeta values (``special_value_su3``),
zero for every n >= 1; the even-n case rests on a Bernoulli convolution
identity exposed as ``bernoulli_convolution_check``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import ConvergenceError, DomainError, PoleError
from .exact import rising, zeta_neg_int
from .numerics import (DEFAULT_BUDGET, PrecisionBudget, gamma_ratio_at_neg,
                       log_gamma, riemann_zeta)

_POLE_TOL = 1e-6
_MAX_HALVINGS = 8  # trapezoid steps 1/2 .. 1/256
_MT_BASE = 1500  # N of mt_series' square sums at N, 2N, 4N


# ---------------------------------------------------------------------------
# Direct double series
# ---------------------------------------------------------------------------

def _square_sum(s: complex, n_max: int) -> complex:
    """sum over 1 <= m, n <= n_max of (m n (m+n))^{-s}.

    One correlation gives every row sum r_m = sum_n n^{-s} (m+n)^{-s} at
    once (numpy conjugates its second argument, so it gets conj n^{-s}); the
    total is sum_m m^{-s} r_m. It is the plain finite double sum, sharing
    nothing with the Mellin-Barnes route.
    """
    import numpy as np  # lazily: the rest of the package does not need it
    n = np.arange(1, 2 * n_max + 1, dtype=np.float64)
    if s.imag == 0.0:
        pw = n ** (-s.real)
    else:
        pw = np.exp(-s * np.log(n))
    npow = pw[:n_max]
    rows = np.correlate(pw[1:], npow.conj(), "valid")
    return complex(np.dot(npow, rows))


def mt_series(s: complex,
              budget: PrecisionBudget = DEFAULT_BUDGET) -> complex:
    """2^s times the diagonal Mordell-Tornheim sum, for Re s > 1.

    Truncated square sums at N, 2N, 4N (``_square_sum``, plain finite sums
    that share nothing with the continuation) are Richardson-extrapolated
    against the known tail order N^{1-2 Re s}; the two extrapolants must
    agree.
    """
    s = complex(s)
    if s.real <= 1.0:
        raise DomainError("mt_series requires Re s > 1")
    sigma = s.real
    pref = 2.0 ** s if s.imag == 0.0 else cmath.exp(s * cmath.log(2.0))
    s1, s2, s4 = (_square_sum(s, k * _MT_BASE) for k in (1, 2, 4))
    ratio = 2.0 ** (2.0 * sigma - 1.0) - 1.0
    r1 = s2 + (s2 - s1) / ratio
    r2 = s4 + (s4 - s2) / ratio
    # second Richardson level removes the next tail order N^{-2 sigma}
    r12 = r2 + (r2 - r1) / (2.0 ** (2.0 * sigma) - 1.0)
    tol = max(budget.target, 1e-9)
    if abs(r12 - r2) > tol * (1.0 + abs(r12)):
        raise ConvergenceError(
            f"mt_series extrapolation not converged at s={s}",
            achieved=pref * r12)
    return pref * r12


# ---------------------------------------------------------------------------
# Mellin-Barnes continuation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MBParams:
    """Strip selector n: the continuation takes M = 2n+2 residues of
    Gamma(-z) and holds for Re s > -n - 1/4 (see the module docstring)."""

    n: int = 1

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("MBParams.n must be >= 1")

    @property
    def M(self) -> int:
        return 2 * self.n + 2


def _mb_direct(s: complex, params: MBParams,
               budget: PrecisionBudget) -> complex:
    # M residues of Gamma(-z), more when Re s >= M: the pole of zeta(s - z)
    # at z = s - 1, whose residue is term 1, must lie left of the contour
    m = max(params.M, math.floor(s.real) + 1)
    pref = cmath.exp(s * cmath.log(2.0))
    # term 1: gamma ratio times zeta(3s - 1)
    log_ratio = log_gamma(2.0 * s - 1.0) + log_gamma(1.0 - s) - log_gamma(s)
    term1 = cmath.exp(log_ratio) * riemann_zeta(3.0 * s - 1.0, budget)
    # term 2: finite sum of zeta products
    term2 = 0.0 + 0.0j
    poch = 1.0 + 0.0j  # (s)_k
    for k in range(m):
        term2 += (-1.0) ** k * poch / factorial(k) \
            * riemann_zeta(2.0 * s + k, budget) \
            * riemann_zeta(s - k, budget)
        poch *= s + k
    # term 3: the line Re z = c midway across the pole-free gap between
    # z = m - 1 or the pole of zeta(2s + z) at 1 - 2s, and z = m
    c = 0.5 * (max(m - 1.0, 1.0 - 2.0 * s.real) + m)
    lg_s = log_gamma(s)

    def integrand(t: float) -> complex:
        z = complex(c, t)
        return cmath.exp(log_gamma(s + z) + log_gamma(-z) - lg_s) \
            * riemann_zeta(2.0 * s + z, budget) * riemann_zeta(s - z, budget)

    # for real s, f(-t) = conj f(t): half the nodes suffice, and every term
    # is real, so the round-off in Im is dropped
    real = s.imag == 0.0
    integral = _trapezoid(integrand, budget.target, mirrored=real)
    value = pref * (term1 + term2 + integral / (2.0 * math.pi))
    return complex(value.real) if real else value


def _trapezoid(f, target: float, mirrored: bool = False) -> complex:
    """Integral of f over the real line by the trapezoid rule.

    The nodes run out from t = 0 in steps of 1 until two in a row fall below
    target/1000; the step is then halved, each level adding only the odd
    nodes, until two levels agree to max(target, 1e-9). For f analytic in a
    strip about the line and decaying exponentially the error falls
    geometrically with the step. With ``mirrored`` f(-t) = conj f(t) is
    taken as given: only the nodes t >= 0 are evaluated, each t > 0
    standing for itself and -t by 2 Re f(t), and the result is real. The
    folded rule is the full-line rule on the same symmetric nodes, so it
    converges in the same way.
    """
    tol = max(target, 1e-9)
    if mirrored:
        part, sides, total = (lambda v: 2.0 * v.real), (1,), f(0.0).real
    else:
        part, sides, total = (lambda v: v), (1, -1), f(0.0)
    ends = [0, 0]  # hi, lo; lo stays 0 when mirrored
    for i, step in enumerate(sides):
        t = quiet = 0
        while quiet < 2:
            t += step
            v = f(float(t))
            total += part(v)
            quiet = quiet + 1 if abs(v) < 1e-3 * target else 0
        ends[i] = t
    hi, lo = ends
    h = 1.0
    for _ in range(_MAX_HALVINGS):
        odd = sum(part(f(lo + (j + 0.5) * h))
                  for j in range(round((hi - lo) / h)))
        refined = 0.5 * (total + h * odd)
        if abs(refined - total) <= tol * (1.0 + abs(refined)):
            return refined
        total = refined
        h *= 0.5
    raise ConvergenceError("contour quadrature did not converge",
                           achieved=total)


_panel_quad = _trapezoid  # the name bench/tracing.py wraps


def witten_su3_continued(s: complex, params: MBParams = MBParams(),
                         budget: PrecisionBudget = DEFAULT_BUDGET) -> complex:
    """Analytic continuation of zeta^W_{SU(3)} by the Mellin-Barnes formula.

    Genuine poles (s = 2/3 and s = 1/2 - j) raise PoleError; removable
    singular points of the formula (integer s) are filled in by symmetric
    Richardson extrapolation of nearby direct evaluations.
    """
    s = complex(s)
    if s.real <= -params.n - 0.25:
        raise DomainError(
            f"s={s} outside the validity strip for n={params.n} "
            f"(requires Re s > {-params.n - 0.25})")
    for pole in (2.0 / 3.0, 0.5 - max(0, round(0.5 - s.real))):
        if abs(s - pole) < _POLE_TOL:
            raise PoleError(f"zeta^W_SU(3) pole near s = {pole}",
                            location=pole)
    k = round(s.real)
    if abs(s - k) < _POLE_TOL:
        delta = 0.02
        def sym(d: float) -> complex:
            return 0.5 * (_mb_direct(k + d, params, budget)
                          + _mb_direct(k - d, params, budget))
        g1 = sym(delta / 2.0)
        g2 = sym(delta)
        return (4.0 * g1 - g2) / 3.0
    return _mb_direct(s, params, budget)


# ---------------------------------------------------------------------------
# Exact special values at negative integers
# ---------------------------------------------------------------------------

MAX_SPECIAL_N = 200
"""Largest n that ``special_value_su3`` and ``bernoulli_convolution_check``
accept: both need Bernoulli numbers up to B_{3n+2}, from an O(n^2)
recurrence of growing Fractions (``su3 special`` costs about 6x more at
n = 400 than at n = 200); larger n raise DomainError."""


def _check_special_n(n: int) -> None:
    if n > MAX_SPECIAL_N:
        raise DomainError(
            f"the exact SU(3) path supports n <= {MAX_SPECIAL_N}, got n = {n}")


def special_value_terms(n: int) -> tuple[Fraction, Fraction, Fraction]:
    """The three exact pieces of the continuation's limit at s = -n:
    the gamma-ratio term, the finite zeta-product sum (the Pochhammer
    (-n)_k kills k > n), and the k = 2n+1 term where the vanishing
    Pochhammer meets the zeta pole, leaving half the residue."""
    if n < 1:
        raise DomainError("special_value_terms requires n >= 1")
    _check_special_n(n)
    half_pow = Fraction(1, 2 ** n)
    t1 = half_pow * gamma_ratio_at_neg(n) * factorial(n) \
        * zeta_neg_int(3 * n + 1)
    t2 = Fraction(0)
    for k in range(0, 2 * n + 1):
        poch = rising(Fraction(-n), k)
        if poch == 0:
            continue
        t2 += Fraction((-1) ** k) * poch / factorial(k) \
            * zeta_neg_int(2 * n - k) * zeta_neg_int(n + k)
    t2 *= half_pow
    # k = 2n+1: lim (s)_{2n+1} zeta(2s+2n+1) = (1/2) prod_{j != 0}(-n+j+n)
    prod_skip_zero = Fraction((-1) ** n * factorial(n) * factorial(n))
    t3 = half_pow * Fraction(-1) * prod_skip_zero / factorial(2 * n + 1) \
        * Fraction(1, 2) * zeta_neg_int(3 * n + 1)
    return t1, t2, t3


def special_value_su3(n: int) -> Fraction:
    """Exact value of zeta^W_{SU(3)}(-n) for n >= 1; expected 0."""
    return sum(special_value_terms(n), Fraction(0))


def bernoulli_convolution_check(n: int) -> tuple[Fraction, Fraction]:
    """For even n: sum_{k+l=n} zeta(-n-k) zeta(-n-l)/(k! l!) versus
    n!/(2n+1)! * zeta(-3n-1); returns (lhs, rhs), equal when the identity
    holds."""
    if n < 2 or n % 2:
        raise DomainError("bernoulli_convolution_check requires even n >= 2")
    _check_special_n(n)
    lhs = Fraction(0)
    for k in range(0, n + 1):
        l = n - k
        lhs += zeta_neg_int(n + k) * zeta_neg_int(n + l) \
            / (factorial(k) * factorial(l))
    rhs = Fraction(factorial(n), factorial(2 * n + 1)) \
        * zeta_neg_int(3 * n + 1)
    return lhs, rhs
