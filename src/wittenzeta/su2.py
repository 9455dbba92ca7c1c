"""SU(2) Witten L-function: special values, the derivative at s = -2,
multi-character variants (r = 2, 3), and the Haar average.

A conjugacy class is the angle theta in [0, pi] of diag(e^{i theta},
e^{-i theta}); characters of the (n-dimensional) irreducibles give

    zeta^W(s, g) = sum_{n >= 1} sin(n theta) / (n sin theta) * n^{-s},

which is zeta(s) at theta = 0, the eta-twisted (1 - 2^{1-s}) zeta(s) at
theta = pi, and a difference of unit-circle polylogarithms in between:
P_1(s+1, theta) / sin theta, with P_1 the odd part of Z(s+1, e^{i theta}),
exactly 0 at s = -2, -4, .... The eval, multi and Haar paths take the even
and odd parts from one dispatch, ``polylog._part``: the zeta(s - k)
expansion right of Re(s + 1) = 1.2, the Hurwitz formula for the part left
of it. multi_L pairs its 2^r signed polylog terms into 2^{r-1} values of
one part on both sides of that line. The Haar average (s in {-2, -1} or
s > 1) integrates P_1(s+1, theta) sin theta by a nested trapezoid rule.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConvergenceError, DomainError
from .numerics import (DEFAULT_BUDGET, PrecisionBudget, hurwitz_zeta,
                       riemann_zeta)
from .polylog import _part

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


def witten_L_su2(s: complex, g,
                 budget: PrecisionBudget = DEFAULT_BUDGET) -> complex:
    """zeta^W_{SU(2)}(s, g); real for real s.

    At regular theta, (Z(s+1, x) - Z(s+1, 1/x)) / (2i sin theta): the odd
    part P_1(s+1, theta) of ``polylog._part`` over sin(min(theta, pi -
    theta)). Past pi/2 the float pi - theta is exact, and it is the angle
    the expansion about x = -1 uses past 2 pi/3 (math.pi is 1.2e-16 short
    of pi).
    """
    s = complex(s)
    g = _as_class(g)
    if g.is_identity:
        return riemann_zeta(s, budget)
    if g.is_minus_identity:
        return (1.0 - 2.0 ** (1.0 - s)) * riemann_zeta(s, budget)
    odd = _part(s + 1.0, 1, budget)(g.theta)
    return complex(odd / math.sin(min(g.theta, math.pi - g.theta)))


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

# rounding of a signed sum of up to four angles in [0, pi]
_ANGLE_ROUNDING = 8.0 * math.ulp(_TWO_PI)


def multi_L(s: complex, gs,
            budget: PrecisionBudget = DEFAULT_BUDGET) -> complex:
    """zeta^W(s; g_1, ..., g_r) = sum_n prod_i chi_n(g_i)/n * n^{-s}, r <= 3.

    Identity arguments drop out; each theta = pi argument contributes the
    alternating sign (-1)^{n-1}, folded into a half-turn shift of the
    polylog argument; the remaining r regular characters expand into 2^r
    signed polylog terms of order s + r. The terms of eps and -eps pair
    into one value of the even (r even) or odd (r odd) part of
    ``polylog._part``, one closure for all 2^{r-1} pairs, over the sines of
    ``witten_L_su2``; with no regular class it is the even part at the
    shift. A combined angle within rounding of a multiple of 2 pi counts as
    that multiple."""
    s = complex(s)
    gs = [_as_class(g) for g in gs]
    if not 1 <= len(gs) <= 3:
        raise DomainError("multi_L supports between 1 and 3 arguments")
    regular = [g.theta for g in gs if g.is_regular]
    n_pi = sum(1 for g in gs if g.is_minus_identity)
    r_eff = len(regular)
    shift, sign = (math.pi, -1.0) if n_pi % 2 else (0.0, 1.0)
    part = _part(s + r_eff, r_eff % 2, budget)
    if r_eff == 0:
        return complex(sign * part(shift))
    # eps and -eps give opposite angles (mod 2 pi) and signs (-1)^r apart,
    # so each pair is 2 P_0(|t|) (r even) or 2i sgn(t) P_1(|t|) (r odd)
    acc = 0.0 + 0.0j
    for eps in itertools.product((1.0, -1.0), repeat=r_eff - 1):
        t = math.remainder(shift + regular[0] + sum(
            e * th for e, th in zip(eps, regular[1:])), _TWO_PI)
        if abs(t) <= _ANGLE_ROUNDING:
            t = 0.0  # e.g. pi/2 - pi/3 - pi/6, which rounds to 1e-16
        pair = 2.0 * part(abs(t))
        if r_eff % 2:
            pair *= 1j if t > 0.0 else -1j
        acc += math.prod(eps) * pair
    denom = math.prod(2j * math.sin(min(th, math.pi - th)) for th in regular)
    return sign * acc / denom


# ---------------------------------------------------------------------------
# Haar average
# ---------------------------------------------------------------------------

def _periodic_trapezoid(f, order: float, budget: PrecisionBudget) -> float:
    """Integral on [0, pi] of f, even and 2 pi-periodic and smooth but for a
    |theta|^{order-1} term at 0, so that the trapezoid error is a series in
    h^order, h^{order+2}, ...: nested halving, each level adding only the
    odd nodes, with Richardson steps in those orders, until two
    extrapolated levels agree to the target."""
    n, h = 4, math.pi / 4
    total = 0.5 * (f(0.0) + f(math.pi)) + math.fsum(f(k * h) for k in (1, 2, 3))
    rows = [h * total]
    while 2 * n <= budget.max_terms:
        n, h = 2 * n, 0.5 * h
        total += math.fsum(f(k * h) for k in range(1, n, 2))
        new = [h * total]
        for i, prev in enumerate(rows):
            q = 2.0 ** min(order + 2 * i, 64.0)  # past 2^64 a step is void
            new.append((q * new[i] - prev) / (q - 1.0))
        if abs(new[-1] - rows[-1]) <= budget.target * abs(new[-1]):
            return new[-1]
        rows = new
    raise ConvergenceError("haar average quadrature did not converge",
                           achieved=rows[-1])


def haar_average_su2(s: float,
                     budget: PrecisionBudget = DEFAULT_BUDGET) -> float:
    """Integral over SU(2) of zeta^W(s, g) dg with normalized Haar measure,
    i.e. (2/pi) * integral of zeta^W(s, theta) sin^2 theta on [0, pi].

    Domain: s in {-2, -1} or real s > 1, at any target. For s > 1 (where
    the average is 1 by character orthogonality) the integrand is
    (2/pi) sin theta Im Z(s+1, e^{i theta}), the odd part of
    ``polylog._part`` (one zeta(s - 2j) table for all nodes), under
    the nested trapezoid rule with Richardson steps in the orders s+2,
    s+4, ... of its |theta|^{s+1} term; s = -1, where it is
    (2/pi) cos^2(theta/2), takes the same rule; at s = -2 it vanishes.
    The node values carry the rounding of zeta at negative arguments, so
    below a target of about 1e-14 the average stays about 1e-14 off.
    """
    s = float(s)
    if s == -2.0:
        return 0.0
    if s == -1.0:
        def f(th):
            return (2.0 / math.pi) * math.cos(th / 2.0) ** 2
    elif s > 1.0:
        odd = _part(s + 1.0, 1, budget)

        def f(th):
            return (2.0 / math.pi) * math.sin(th) * odd(th)
    else:
        raise DomainError(
            "haar_average_su2 is defined for s in {-2, -1} or s > 1")
    return _periodic_trapezoid(f, s + 2.0, budget)
