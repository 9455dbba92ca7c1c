"""SU(2) Witten L-function: special values, the derivative at s = -2,
multi-character variants (r = 2, 3), and the Haar average.

A conjugacy class is the angle theta in [0, pi] of diag(e^{i theta},
e^{-i theta}); characters of the (n-dimensional) irreducibles give

    zeta^W(s, g) = sum_{n >= 1} sin(n theta) / (n sin theta) * n^{-s},

which is zeta(s) at theta = 0, the eta-twisted (1 - 2^{1-s}) zeta(s) at
theta = pi, and a difference of unit-circle polylogarithms in between.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConvergenceError, DomainError
from .numerics import (DEFAULT_BUDGET, PrecisionBudget, gamma_two_pi,
                       half_pi_trig, hurwitz_pair, hurwitz_zeta, riemann_zeta)
from .polylog import UnitCirclePoint, polylog_continued, polylog_series

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ConjugacyClassSU2:
    """Class of diag(e^{i theta}, e^{-i theta}); regular iff 0 < theta < pi."""

    theta: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi:
            raise DomainError(f"theta must lie in [0, pi], got {self.theta}")

    @property
    def is_identity(self) -> bool:
        return self.theta == 0.0

    @property
    def is_minus_identity(self) -> bool:
        return self.theta == math.pi

    @property
    def is_regular(self) -> bool:
        return 0.0 < self.theta < math.pi


def _as_class(g) -> ConjugacyClassSU2:
    if isinstance(g, ConjugacyClassSU2):
        return g
    return ConjugacyClassSU2(float(g))


def char_ratio(n: int, g) -> float:
    """chi_n(g)/n = sin(n theta)/(n sin theta); 1 at theta=0, (-1)^{n-1} at pi."""
    if n < 1:
        raise DomainError("char_ratio requires n >= 1")
    g = _as_class(g)
    if g.is_identity:
        return 1.0
    if g.is_minus_identity:
        return float((-1) ** (n - 1))
    return math.sin(n * g.theta) / (n * math.sin(g.theta))


_SINE_EDGE = 0.2  # the sine form left of this line, the series right of it


def witten_L_su2(s: complex, g,
                 budget: PrecisionBudget = DEFAULT_BUDGET) -> complex:
    """zeta^W_{SU(2)}(s, g); real for real s.

    At regular theta, (Z(s+1, x) - Z(s+1, 1/x)) / (2i sin theta): right of
    Re s = 0.2 from the series (once for real s, as 2i Im Z(s+1, x)), left
    of it from the Hurwitz formula as the sine form, with t = theta / 2 pi,
    Gamma(-s) (2 pi)^s sin(-pi s/2) (zeta(-s,t) - zeta(-s,1-t)) / sin theta,
    which is exactly 0 at s = -2, -4, ...; its limit at s = 0 is
    (pi - theta) / (2 sin theta).
    """
    s = complex(s)
    g = _as_class(g)
    if g.is_identity:
        return riemann_zeta(s, budget)
    if g.is_minus_identity:
        return (1.0 - 2.0 ** (1.0 - s)) * riemann_zeta(s, budget)
    sin_theta = math.sin(g.theta)
    if s.real > _SINE_EDGE:
        pt = UnitCirclePoint(g.theta)
        zp = polylog_series(s + 1.0, pt, budget)
        if s.imag == 0.0:
            return complex(zp.imag / sin_theta)
        zm = polylog_series(s + 1.0, pt.inverse(), budget)
        return (zp - zm) / (2j * sin_theta)
    if s == 0.0:
        return complex((math.pi - g.theta) / (2.0 * sin_theta))
    w = -s.real if s.imag == 0.0 else -s
    t = g.theta / _TWO_PI
    _, diff = hurwitz_pair(w, t, 1.0 - t, budget)
    return complex(gamma_two_pi(w) * half_pi_trig(w)[1] * diff / sin_theta)


def special_value_neg_even(m: int, g) -> Fraction:
    """Exact zero zeta^W(-m, g) = 0 for even m >= 2 and every g."""
    if m < 2 or m % 2:
        raise DomainError("special_value_neg_even requires even m >= 2")
    _as_class(g)  # validate; the value is 0 on every branch:
    # theta in {0, pi}: zeta(-m) = 0; regular: Z(-m+1, x) is odd under
    # x -> 1/x for even m, so the polylog difference cancels.
    return Fraction(0)


def derivative_at_minus2(g, budget: PrecisionBudget = DEFAULT_BUDGET) -> float:
    """d/ds zeta^W_{SU(2)}(s, g) at s = -2; strictly positive for theta > 0."""
    g = _as_class(g)
    pi2 = math.pi * math.pi
    if g.is_identity:
        return -riemann_zeta(3.0, budget).real / (4.0 * pi2)
    if g.is_minus_identity:
        return 7.0 * riemann_zeta(3.0, budget).real / (4.0 * pi2)
    t = g.theta / _TWO_PI
    hz = hurwitz_zeta(2.0, t, budget).real
    half = math.sin(g.theta / 2.0)
    return (hz - pi2 / (2.0 * half * half)) \
        / (4.0 * math.pi * math.sin(g.theta))


# ---------------------------------------------------------------------------
# Multi-character L-functions (r = 2, 3)
# ---------------------------------------------------------------------------

def _circle_term(order: complex, theta: float,
                 budget: PrecisionBudget) -> complex:
    """Z(order, e^{i theta}) with the theta = 0 (mod 2 pi) case mapped to
    riemann_zeta, per the continuation of the degenerate product."""
    pt = UnitCirclePoint(theta)
    if pt.is_one:
        return riemann_zeta(order, budget)
    return polylog_continued(order, pt, budget)


# rounding of a signed sum of up to four angles in [0, pi]
_ANGLE_ROUNDING = 8.0 * math.ulp(_TWO_PI)


def multi_L(s: complex, gs,
            budget: PrecisionBudget = DEFAULT_BUDGET) -> complex:
    """zeta^W(s; g_1, ..., g_r) = sum_n prod_i chi_n(g_i)/n * n^{-s}, r <= 3.

    Identity arguments drop out; each theta = pi argument contributes the
    alternating sign (-1)^{n-1}, folded into a half-turn shift of the
    polylog argument; the remaining regular characters are expanded into
    2^r signed polylog terms. A combined angle within rounding of a
    multiple of 2 pi counts as that multiple.
    """
    s = complex(s)
    gs = [_as_class(g) for g in gs]
    if not 1 <= len(gs) <= 3:
        raise DomainError("multi_L supports between 1 and 3 arguments")
    regular = [g.theta for g in gs if g.is_regular]
    n_pi = sum(1 for g in gs if g.is_minus_identity)
    r_eff = len(regular)
    order = s + r_eff
    shift = math.pi if n_pi % 2 else 0.0
    sign = -1.0 if n_pi % 2 else 1.0
    if r_eff == 0:
        return sign * _circle_term(order, shift, budget)
    denom = 1.0 + 0.0j
    for th in regular:
        denom *= 2j * math.sin(th)
    acc = 0.0 + 0.0j
    for eps in itertools.product((1.0, -1.0), repeat=r_eff):
        big_theta = shift + sum(e * th for e, th in zip(eps, regular))
        if abs(math.remainder(big_theta, _TWO_PI)) <= _ANGLE_ROUNDING:
            big_theta = 0.0  # e.g. pi/2 - pi/3 - pi/6, which rounds to 1e-16
        acc += math.prod(eps) * _circle_term(order, big_theta, budget)
    return sign * acc / denom


# ---------------------------------------------------------------------------
# Haar average
# ---------------------------------------------------------------------------

_QUAD_START = 64
_QUAD_CAP = 1024


def haar_average_su2(s: float,
                     budget: PrecisionBudget = DEFAULT_BUDGET) -> float:
    """Integral over SU(2) of zeta^W(s, g) dg with normalized Haar measure,
    i.e. (2/pi) * integral of zeta^W(s, theta) sin^2 theta on [0, pi].

    Tested domain: s in {-2, -1} or real s > 1 (where the average is 1 by
    character orthogonality).
    """
    s = float(s)
    if s == -2.0:
        # integrand vanishes identically on the open interval
        return 0.0
    if s == -1.0:
        # zeta^W(-1, theta) sin^2 theta = cos^2(theta/2) * ... closed form
        def f(th):
            return (2.0 / math.pi) * math.cos(th / 2.0) ** 2
        return _gauss_doubling(f, budget)
    if s <= 1.0:
        raise DomainError(
            "haar_average_su2 tested only for s in {-2, -1} or s > 1")

    def f(th):
        return witten_L_su2(s, ConjugacyClassSU2(th), budget).real \
            * (2.0 / math.pi) * math.sin(th) ** 2
    return _gauss_doubling(f, budget)


@functools.lru_cache(maxsize=None)
def _leggauss(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Gauss-Legendre nodes and weights on [-1, 1] for n >= 2: Newton's
    method on the three-term recurrence for P_n, one root per symmetric
    pair."""
    nodes, weights = [0.0] * n, [0.0] * n
    for i in range((n + 1) // 2):
        x = math.cos(math.pi * (i + 0.75) / (n + 0.5))
        for _ in range(100):
            p_prev, p = 1.0, x
            for k in range(2, n + 1):
                p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
            dp = n * (x * p - p_prev) / (x * x - 1.0)
            step = p / dp
            x -= step
            if abs(step) <= 1e-16:
                break
        weight = 2.0 / ((1.0 - x * x) * dp * dp)
        nodes[i], nodes[n - 1 - i] = -x, x
        weights[i] = weights[n - 1 - i] = weight
    return tuple(nodes), tuple(weights)


def _gauss_doubling(f, budget: PrecisionBudget) -> float:
    tol = max(budget.target, 1e-9)
    prev = None
    order = _QUAD_START
    while order <= _QUAD_CAP:
        nodes, weights = _leggauss(order)
        val = 0.5 * math.pi * math.fsum(
            wt * f(0.5 * math.pi * (x + 1.0)) for x, wt in zip(nodes, weights))
        if prev is not None and abs(val - prev) <= tol * (1.0 + abs(val)):
            return val
        prev = val
        order *= 2
    raise ConvergenceError("haar average quadrature did not converge",
                           achieved=prev)
