"""SU(3) Witten zeta function.

The irreducible degrees are mn(m+n)/2, so

    zeta^W_{SU(3)}(s) = 2^s sum_{m,n >= 1} (m^s n^s (m+n)^s)^{-1},

a diagonal Mordell-Tornheim double series convergent for Re s > 1. Its
continuation is the Mellin-Barnes identity

    zeta^W(s) = 2^s Gamma(2s-1) Gamma(1-s)/Gamma(s) zeta(3s-1)
              + 2^s sum_{k=0}^{m-1} (-1)^k (s)_k / k! zeta(2s+k) zeta(s-k)
              + 2^s/(2 pi i) int_{Re z = c}
                    Gamma(s+z) Gamma(-z)/Gamma(s) zeta(2s+z) zeta(s-z) dz,

whose first two lines are the residues at z = s-1 and z = 0 .. m-1 right
of the line. The integrand decays like e^{-pi |Im z|}: the trapezoid rule
converges geometrically as its step is halved (Trefethen and Weideman,
SIAM Rev. 56, 2014). For real s it runs in tau, Im z = sinh tau, where the
decay is double exponential (Takahasi and Mori, Publ. RIMS 9, 1974), from
step 1/2 down to the target itself; complex s keep steps of 1 in Im z and
a 1e-9 floor on the stop. For Re s >= 5/6 the line is z = -s/2 + iu with no
residues: z <-> -s-z swaps the gammas and the zetas, so the integrand is
even in u for every s, no terms cancel, and the poles are at least
min(Re s/2, 3 Re s/2 - 1) >= 1/4 away; for real s it is 2^s/Gamma(s)
|Gamma(s/2+iu) zeta(3s/2+iu)|^2, one gamma and one zeta per node. Below
5/6, m = 2n+2 and c halves the pole-free gap (max(m-1, 1-2 Re s), m), at
least 1/2 wide for Re s > -n - 1/4. At s = 0, -1, -2, ... the value is the
exact limit ``special_value_su3``: 1/3 at 0, zero below (for even n by
``bernoulli_convolution_check``). Next to 0 the rounding of 1 + 2s in
zeta(2s+1) costs about 1e-17/|s|, 1e-9 at |s| = 1e-9. The direct series
``mt_series`` (square sums, each one FFT self-convolution, extrapolated in
N) stays an independent check for Re s > 1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import ConvergenceError, DomainError, PoleError
from .exact import zeta_neg_int
from .numerics import (DEFAULT_BUDGET, PrecisionBudget, gamma_ratio_at_neg,
                       log_gamma, riemann_zeta)

_POLE_TOL = 1e-6  # the genuine poles s = 2/3 and s = 1/2 - j
_EVEN_LINE = 5.0 / 6.0  # the even line's strip is >= 1/4 wide from here on
_MAX_RE_S, _MAX_IM_S = 1000.0, 250.0  # each call then takes under 0.7 s
_MAX_HALVINGS = 8  # trapezoid steps 1/2 .. 1/256 in t, 1/4 .. 1/512 in tau
_MT_BASE = 1500  # N of mt_series' square sums at N, 2N, 4N
_MT_MAX_RE = 512.0  # from here on 2.0 ** (2 Re s) overflows


# ---------------------------------------------------------------------------
# Direct double series
# ---------------------------------------------------------------------------

def _square_sum(s: complex, n_max: int) -> complex:
    """sum over 1 <= m, n <= n_max of (m n (m+n))^{-s}.

    That is sum_k k^{-s} c_k, c_k = sum_{m+n=k} m^{-s} n^{-s}, and one FFT
    self-convolution of the N powers, padded to 2N, gives every c_k. It is
    the plain finite double sum, sharing nothing with the Mellin-Barnes route.
    """
    import numpy as np  # lazily: the rest of the package does not need it
    n = np.arange(1, 2 * n_max + 1, dtype=np.float64)
    if s.imag == 0.0:
        pw, fft, ifft = n ** (-s.real), np.fft.rfft, np.fft.irfft
    else:
        pw, fft, ifft = np.exp(-s * np.log(n)), np.fft.fft, np.fft.ifft
    c = ifft(fft(pw[:n_max], 2 * n_max) ** 2, 2 * n_max)  # c[k-2] = c_k
    return complex(np.dot(pw[1:], c[:-1]))


def mt_series(s: complex,
              budget: PrecisionBudget = DEFAULT_BUDGET) -> complex:
    """2^s times the diagonal Mordell-Tornheim sum, for 1 < Re s < 512
    (from 512 on the Richardson ratio 2^{2 Re s} overflows).

    Truncated square sums at N, 2N, 4N (``_square_sum``, plain finite sums
    that share nothing with the continuation) are Richardson-extrapolated
    against the known tail order N^{1-2s}; the two extrapolants must agree.
    """
    s = complex(s)
    if not 1.0 < s.real < _MT_MAX_RE:
        raise DomainError(f"mt_series requires 1 < Re s < {_MT_MAX_RE:g}")
    pref = 2.0 ** s if s.imag == 0.0 else cmath.exp(s * cmath.log(2.0))
    s1, s2, s4 = (_square_sum(s, k * _MT_BASE) for k in (1, 2, 4))
    q = 4.0 ** s  # each doubling of N divides the tail by 2^{2s-1} = q/2
    r1 = s2 + (s2 - s1) / (q / 2.0 - 1.0)
    r2 = s4 + (s4 - s2) / (q / 2.0 - 1.0)
    # second Richardson level removes the next tail order N^{-2s}
    r12 = r2 + (r2 - r1) / (q - 1.0)
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
    """Strip selector n: the residue line takes M = 2n+2 residues of
    Gamma(-z) and holds for Re s > -n - 1/4 (see the module docstring)."""

    n: int = 1

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("MBParams.n must be >= 1")

    @property
    def M(self) -> int:
        return 2 * self.n + 2


def _mb_direct(s: complex, m: int, budget: PrecisionBudget) -> complex:
    """The Mellin-Barnes formula with m residues of Gamma(-z): m = 0 is the
    even line, m >= 1 the residue line (Re s < m)."""
    real, lg_s = s.imag == 0.0, log_gamma(s)
    if m == 0:  # z = -s/2 + iu
        centre, terms = -0.5 * s, 0.0
    else:  # Re z = c, right of the residues at z = s - 1 and z = 0 .. m-1
        centre = complex(0.5 * (max(m - 1.0, 1.0 - 2.0 * s.real) + m))
        terms = riemann_zeta(3.0 * s - 1.0, budget) * cmath.exp(
            log_gamma(2.0 * s - 1.0) + log_gamma(1.0 - s) - lg_s)
        poch = 1.0 + 0.0j  # (s)_k
        for k in range(m):
            terms += (-1.0) ** k * poch / factorial(k) \
                * riemann_zeta(2.0 * s + k, budget) \
                * riemann_zeta(s - k, budget)
            poch *= s + k
    # 2^s/Gamma(s) inside exp: O(1) at large Re s, as _trapezoid's stop needs
    log_pref = s * math.log(2.0) - lg_s

    def integrand(t: float) -> complex:
        z = centre + complex(0.0, t)
        lg, zt = log_gamma(s + z), riemann_zeta(2.0 * s + z, budget)
        if real and m == 0:  # s + z = conj(-z), 2s + z = conj(s - z)
            return math.exp((log_pref + 2.0 * lg.real).real) * abs(zt) ** 2
        v = cmath.exp(log_pref + lg + log_gamma(-z)) * zt \
            * riemann_zeta(s - z, budget)
        return v.real if real else v  # for real s, f(-t) = conj f(t)

    # even in t: the even line for every s, Re f on the other for real s;
    # the sinh map for real s only: at 1+100i, whose integrand peaks near
    # |t| = 50, far out on the map, it did not converge
    integral = _trapezoid(integrand, budget.target, folded=real or m == 0,
                          mapped=real)
    value = cmath.exp(s * math.log(2.0)) * terms + integral / (2.0 * math.pi)
    return complex(value.real) if real else value


def _trapezoid(f, target: float, folded: bool = False,
               mapped: bool = False) -> complex:
    """Integral of f over the real line by the trapezoid rule.

    The nodes run out from t = 0 in steps of 1 until two in a row fall below
    target/1000; the step is then halved, each level adding only the odd
    nodes, until two levels agree to max(target, 1e-9). For f analytic in a
    strip about the line and decaying exponentially the error falls
    geometrically with the step. With ``folded`` f is even about t = 0 (an
    even f about another point would repeat its nodes at step 1/2 and stop
    the halving early): each node t > 0 counts twice, and -t is not run.
    With ``mapped`` the rule integrates g(tau) = f(sinh tau) cosh tau, whose
    decay the map makes double exponential (Takahasi and Mori, Publ. RIMS
    9, 1974): its nodes run out from tau = 0 in steps of 1/2, and the levels
    must agree to the target itself.
    """
    g = (lambda u: f(math.sinh(u)) * math.cosh(u)) if mapped else f
    h, tol = (0.5, target) if mapped else (1.0, max(target, 1e-9))
    weight, sides = (2.0, (1,)) if folded else (1.0, (1, -1))
    total, ends = g(0.0), [0, 0]  # ends: hi, lo; lo stays 0 when folded
    for i, step in enumerate(sides):
        k = quiet = 0
        while quiet < 2:
            k += step
            v = g(k * h)
            total += weight * v
            quiet = quiet + 1 if abs(v) < 1e-3 * target else 0
        ends[i] = k * h
    (hi, lo), total = ends, total * h
    for _ in range(_MAX_HALVINGS):
        odd = weight * sum(g(lo + (j + 0.5) * h)
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
    """zeta^W_{SU(3)}(s) on the even line for Re s >= 5/6, on the residue
    line of strip ``params.n`` below it, exactly at s = 0, -1, -2, ...

    The poles s = 2/3 and 1/2 - j raise PoleError. Outside -n - 1/4 < Re s
    <= 1000, |Im s| <= 250 (the even line takes 0.06 s at s = 1000, 0.7 s
    at 1 + 250i, on one Xeon core) and where a sine overflows (left of
    Re s = 3/4 from |Im s| = 111 on) DomainError is raised. Above Re s = 30
    the gamma logs, of size s log s, round to 1e-13 (1e-12 at 1000).
    """
    s, lo = complex(s), -params.n - 0.25
    if not (lo < s.real <= _MAX_RE_S and abs(s.imag) <= _MAX_IM_S):
        raise DomainError(f"s={s} outside {lo} < Re s <= {_MAX_RE_S:g}, "
                          f"|Im s| <= {_MAX_IM_S:g} (strip n={params.n})")
    if s.imag == 0.0 and s.real <= 0.0 and s.real == round(s.real):
        return complex(special_value_su3(-round(s.real)))
    for pole in (2.0 / 3.0, 0.5 - max(0, round(0.5 - s.real))):
        if abs(s - pole) < _POLE_TOL:
            raise PoleError(f"zeta^W_SU(3) pole near s = {pole}",
                            location=pole)
    return _mb_direct(s, 0 if s.real >= _EVEN_LINE else params.M, budget)


# ---------------------------------------------------------------------------
# Exact special values at negative integers
# ---------------------------------------------------------------------------

MAX_SPECIAL_N = 200
"""Largest n that ``special_value_su3`` and ``bernoulli_convolution_check``
accept; larger n raise DomainError. Each is a sum of n + 1 products of exact
zeta(-k). At n = 200 ``special_value_su3`` takes 24 ms in a fresh process,
21 ms of it the table of Bernoulli numbers up to B_{3n+2}, and 3 ms once
that is built; ``bernoulli_convolution_check(200)`` takes 7 ms (one Xeon
core, Python 3.11)."""


def _check_special_n(n: int) -> None:
    if n > MAX_SPECIAL_N:
        raise DomainError(
            f"the exact SU(3) path supports n <= {MAX_SPECIAL_N}, got n = {n}")


def special_value_terms(n: int) -> tuple[Fraction, Fraction, Fraction]:
    """The three exact pieces of the continuation's limit at s = -n, n >= 0:
    the gamma-ratio term, the finite zeta-product sum (the Pochhammer
    (-n)_k kills k > n), and the k = 2n+1 term where the vanishing
    Pochhammer meets the zeta pole, leaving half the residue. The integral
    term vanishes with 1/Gamma(s)."""
    if n < 0:
        raise DomainError("special_value_terms requires n >= 0")
    _check_special_n(n)
    half_pow = Fraction(1, 2 ** n)
    t1 = half_pow * gamma_ratio_at_neg(n) * factorial(n) \
        * zeta_neg_int(3 * n + 1)
    t2, binom = Fraction(0), 1  # (-1)^k (-n)_k / k! = C(n, k), 0 past n
    for k in range(n + 1):
        t2 += binom * zeta_neg_int(2 * n - k) * zeta_neg_int(n + k)
        binom = binom * (n - k) // (k + 1)
    t2 *= half_pow
    # k = 2n+1: lim (s)_{2n+1} zeta(2s+2n+1) = (1/2) prod_{j != 0}(-n+j+n)
    prod_skip_zero = Fraction((-1) ** n * factorial(n) * factorial(n))
    t3 = half_pow * Fraction(-1) * prod_skip_zero / factorial(2 * n + 1) \
        * Fraction(1, 2) * zeta_neg_int(3 * n + 1)
    return t1, t2, t3


def special_value_su3(n: int) -> Fraction:
    """Exact value of zeta^W_{SU(3)}(-n) for n >= 0: 1/3 at n = 0, and
    expected 0 for n >= 1."""
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
