"""SU(3) Witten zeta function.

The irreducible degrees are mn(m+n)/2, so

    zeta^W_{SU(3)}(s) = 2^s sum_{m,n >= 1} (m^s n^s (m+n)^s)^{-1},

a diagonal Mordell-Tornheim double series convergent for Re s > 1. Its
analytic continuation is computed from the Mellin-Barnes identity

    zeta^W(s) = 2^s Gamma(2s-1) Gamma(1-s)/Gamma(s) zeta(3s-1)
              + 2^s sum_{k=0}^{M-1} (-1)^k (s)_k / k! zeta(2s+k) zeta(s-k)
              + 2^s/(2 pi i) int_{Re z = M - eps}
                    Gamma(s+z) Gamma(-z)/Gamma(s) zeta(2s+z) zeta(s-z) dz,

valid for Re s > -n - 1/2 + eps/2 with M = 2n+2. At negative integers the
limit collapses to an exact rational combination of zeta values
(``special_value_su3``), zero for every n >= 1; the even-n case rests on a
Bernoulli convolution identity exposed as ``bernoulli_convolution_check``.
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


# ---------------------------------------------------------------------------
# Direct double series
# ---------------------------------------------------------------------------

def _square_sum(s: complex, n_max: int) -> complex:
    """sum over 1 <= m, n <= n_max of (m n (m+n))^{-s}, vectorized over n."""
    import numpy as np  # lazily: the rest of the package does not need it
    n = np.arange(1, 2 * n_max + 1, dtype=np.float64)
    if s.imag == 0.0:
        pw = n ** (-s.real)
    else:
        pw = np.exp(-s * np.log(n))
    npow = pw[:n_max]
    total = 0.0 + 0.0j
    for m in range(1, n_max + 1):
        total += npow[m - 1] * np.sum(npow * pw[m:m + n_max])
    return complex(total)


def mt_series(s: complex, budget: PrecisionBudget = DEFAULT_BUDGET,
              n_base: int = 1500) -> complex:
    """2^s times the diagonal Mordell-Tornheim sum, for Re s > 1.

    Truncated square sums at N, 2N, 4N are Richardson-extrapolated against
    the known tail order N^{1-2 Re s}; the two extrapolants must agree.
    """
    s = complex(s)
    if s.real <= 1.0:
        raise DomainError("mt_series requires Re s > 1")
    sigma = s.real
    pref = 2.0 ** s if s.imag == 0.0 else cmath.exp(s * cmath.log(2.0))
    s1 = _square_sum(s, n_base)
    s2 = _square_sum(s, 2 * n_base)
    s4 = _square_sum(s, 4 * n_base)
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
    """Contour configuration: strip selector n, offset eps, truncation T,
    Gauss-Legendre points per unit-length panel grouping."""

    n: int = 1
    epsilon: float = 0.5
    contour_T: float = 0.0  # 0 -> auto: 40 + 10 |Im s|
    quad_order: int = 32  # per panel of width 5

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("MBParams.n must be >= 1")
        if not 0.0 < self.epsilon < 1.0:
            raise DomainError("MBParams.epsilon must lie in (0, 1)")

    @property
    def M(self) -> int:
        return 2 * self.n + 2


def _genuine_pole_near(s: complex) -> complex | None:
    """Actual poles of the continued function: 2/3 and 1/2 - j, j >= 0."""
    if abs(s - 2.0 / 3.0) < _POLE_TOL:
        return 2.0 / 3.0
    if s.imag == 0.0 or abs(s.imag) < _POLE_TOL:
        j = round(0.5 - s.real)
        cand = 0.5 - j
        if j >= 0 and abs(s - cand) < _POLE_TOL:
            return cand
    return None


def _removable_point_near(s: complex, m_upper: int) -> float | None:
    """Integer points where individual formula pieces blow up but the
    function itself is regular: s in {..., -1, 0} union {1, ..., M}."""
    if abs(s.imag) >= _POLE_TOL:
        return None
    k = round(s.real)
    if k <= m_upper and abs(s - k) < _POLE_TOL:
        return float(k)
    return None


def _mb_direct(s: complex, params: MBParams,
               budget: PrecisionBudget) -> complex:
    import numpy as np
    pref = cmath.exp(s * cmath.log(2.0))
    # term 1: gamma ratio times zeta(3s - 1)
    log_ratio = log_gamma(2.0 * s - 1.0) + log_gamma(1.0 - s) - log_gamma(s)
    term1 = cmath.exp(log_ratio) * riemann_zeta(3.0 * s - 1.0, budget)
    # term 2: finite sum of zeta products
    term2 = 0.0 + 0.0j
    poch = 1.0 + 0.0j  # (s)_k
    for k in range(params.M):
        term2 += (-1.0) ** k * poch / factorial(k) \
            * riemann_zeta(2.0 * s + k, budget) \
            * riemann_zeta(s - k, budget)
        poch *= s + k
    # term 3: vertical contour at Re z = M - eps
    c = params.M - params.epsilon
    t_max = params.contour_T if params.contour_T > 0.0 \
        else 40.0 + 10.0 * abs(s.imag)
    lg_s = log_gamma(s)

    def integrand(t: np.ndarray) -> np.ndarray:
        out = np.empty(len(t), dtype=np.complex128)
        for i, ti in enumerate(t):
            z = complex(c, ti)
            lg = log_gamma(s + z) + log_gamma(-z) - lg_s
            out[i] = cmath.exp(lg) * riemann_zeta(2.0 * s + z, budget) \
                * riemann_zeta(s - z, budget)
        return out

    integral = _panel_quad(integrand, t_max, params.quad_order, budget)
    term3 = integral / (2.0 * math.pi)
    return pref * (term1 + term2 + term3)


def _panel_quad(f, t_max: float, order: int,
                budget: PrecisionBudget) -> complex:
    """Composite Gauss-Legendre on [-t_max, t_max], panel width 5, doubling
    the per-panel order until two refinements agree."""
    import numpy as np
    tol = max(budget.target, 1e-9)
    edges = np.linspace(-t_max, t_max, max(2, int(math.ceil(2 * t_max / 5.0)) + 1))
    prev = None
    while order <= 512:
        nodes, weights = np.polynomial.legendre.leggauss(order)
        total = 0.0 + 0.0j
        for a, b in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            total += half * complex(np.dot(weights, f(mid + half * nodes)))
        if prev is not None and abs(total - prev) <= tol * (1.0 + abs(total)):
            return total
        prev = total
        order *= 2
    raise ConvergenceError("contour quadrature did not converge",
                           achieved=prev)


def witten_su3_continued(s: complex, params: MBParams = MBParams(),
                         budget: PrecisionBudget = DEFAULT_BUDGET) -> complex:
    """Analytic continuation of zeta^W_{SU(3)} by the Mellin-Barnes formula.

    Genuine poles (s = 2/3 and s = 1/2 - j) raise PoleError; removable
    singular points of the formula (integer s within the strip) are filled
    in by symmetric Richardson extrapolation of nearby direct evaluations.
    """
    s = complex(s)
    if s.real <= -params.n - 0.5 + params.epsilon / 2.0:
        raise DomainError(
            f"s={s} outside the validity strip for n={params.n} "
            f"(requires Re s > {-params.n - 0.5 + params.epsilon / 2.0})")
    pole = _genuine_pole_near(s)
    if pole is not None:
        raise PoleError(f"zeta^W_SU(3) pole near s = {pole}", location=pole)
    removable = _removable_point_near(s, params.M)
    if removable is not None:
        delta = 0.02
        def sym(d: float) -> complex:
            return 0.5 * (_mb_direct(removable + d, params, budget)
                          + _mb_direct(removable - d, params, budget))
        g1 = sym(delta / 2.0)
        g2 = sym(delta)
        return (4.0 * g1 - g2) / 3.0
    return _mb_direct(s, params, budget)


# ---------------------------------------------------------------------------
# Exact special values at negative integers
# ---------------------------------------------------------------------------

def special_value_terms(n: int) -> tuple[Fraction, Fraction, Fraction]:
    """The three exact pieces of the continuation's limit at s = -n:
    the gamma-ratio term, the finite zeta-product sum (the Pochhammer
    (-n)_k kills k > n), and the k = 2n+1 term where the vanishing
    Pochhammer meets the zeta pole, leaving half the residue."""
    if n < 1:
        raise DomainError("special_value_terms requires n >= 1")
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
    lhs = Fraction(0)
    for k in range(0, n + 1):
        l = n - k
        lhs += zeta_neg_int(n + k) * zeta_neg_int(n + l) \
            / (factorial(k) * factorial(l))
    rhs = Fraction(factorial(n), factorial(2 * n + 1)) \
        * zeta_neg_int(3 * n + 1)
    return lhs, rhs
