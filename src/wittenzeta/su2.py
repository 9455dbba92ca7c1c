"""SU(2) Witten L-function: special values, the derivative at s = -2,
multi-character variants (r = 2, 3), and the Haar average.

A class is its angle theta in [0, pi], a float in radians, for
diag(e^{i theta}, e^{-i theta}); characters of the irreducibles give

    zeta^W(s, g) = sum_{n >= 1} sin(n theta) / (n sin theta) * n^{-s},

which is zeta(s) at theta = 0, eta(s) = (1 - 2^{1-s}) zeta(s) at theta = pi,
and a difference of unit-circle polylogarithms in between: P_1(s+1, theta) /
sin theta, with P_1 the odd part of Z(s+1, e^{i theta}), exactly 0 at s =
-2, -4, .... The regular classes take the parts from one dispatch,
``polylog._part``: the Euler-Boole sum or the zeta(s - k) expansion right of
Re(s + 1) = 1.2, the Hurwitz formula left of it. multi_L pairs its 2^r signed
polylog terms into 2^{r-1} values of one part, and takes classes 0 and pi
alone from witten_L_su2. The Haar average (s in {-2, -1} or s > 1)
integrates P_1(s+1, theta) sin theta by a nested trapezoid rule.
"""

from __future__ import annotations

import itertools
import math

from . import exact  # the package's lazy module, for the annotation only
from .errors import ConvergenceError, DomainError
from .numerics import (_PI_LO, _TWO_PI, _TWO_PI_LO, DEFAULT_BUDGET, MAX_TERMS,
                       PrecisionBudget, _expm1, hurwitz_pair, read_s,
                       riemann_zeta)
from .polylog import _part


def _class_angle(g) -> float:
    """The angle of the class g as a float in [0, pi], else DomainError."""
    theta = float(g)
    if not 0.0 <= theta <= math.pi:
        raise DomainError(f"theta must lie in [0, pi], got {theta}")
    return theta


def witten_L_su2(s: complex, g,
                 budget: PrecisionBudget = DEFAULT_BUDGET) -> complex:
    """zeta^W_{SU(2)}(s, g); real for real s.

    At theta = pi, eta(s) = -expm1((1 - s) log 2) zeta(s), which does not
    cancel next to s = 1, and log 2 + (s - 1) eta'(1) within 1e-13 of it,
    where riemann_zeta raises. At regular theta, the odd part P_1(s+1, theta)
    of ``polylog._part``, sized to theta, over sin(min(theta, pi - theta)):
    past pi/2 the float pi - theta is exact, and the Euler-Boole sum takes
    its terms in it (math.pi is 1.2e-16 short of pi).
    """
    s = read_s(s)
    theta = _class_angle(g)
    if theta == 0.0:
        return riemann_zeta(s, budget)
    if theta == math.pi:
        if abs(s - 1.0) < 1e-13:  # eta'(1) = gamma log 2 - (log 2)^2 / 2
            return math.log(2.0) + (s - 1.0) * 0.15986890374243097
        zeta = riemann_zeta(s, budget)  # 0 at s = -2k: 2^{1-s} may overflow
        return -_expm1((1.0 - s) * math.log(2.0)) * zeta if zeta else zeta
    sine = math.sin(min(theta, math.pi - theta))
    try:
        odd = _part(s + 1.0, 1, budget, (theta,))(theta)
    except ConvergenceError as exc:  # achieved: the L-value, not P_1
        if exc.achieved is not None:
            exc.achieved = complex(exc.achieved / sine)
        raise
    return complex(odd / sine)


def special_value_neg_even(m: int, g) -> exact.Fraction:
    """Exact zero zeta^W(-m, g) = 0 for even m >= 2 and every g."""
    if m < 2 or m % 2:
        raise DomainError("special_value_neg_even requires even m >= 2")
    _class_angle(g)  # validate; the value is 0 on every branch:
    # theta in {0, pi}: zeta(-m) = 0; regular: Z(-m+1, x) is odd under
    # x -> 1/x for even m, so the polylog difference cancels.
    from fractions import Fraction
    return Fraction(0)


def derivative_at_minus2(g, budget: PrecisionBudget = DEFAULT_BUDGET) -> float:
    """d/ds zeta^W_{SU(2)}(s, g) at s = -2; strictly positive for theta > 0.
    At regular theta, D/(8 pi sin theta) from one ``hurwitz_pair`` at w = 2:
    of P_1 = Gamma(w) (2pi)^{-w} sin(pi w/2) D only the sine's slope stays."""
    theta = _class_angle(g)
    pi2 = math.pi * math.pi
    if theta == 0.0:
        return -riemann_zeta(3.0, budget).real / (4.0 * pi2)
    if theta == math.pi:
        return 7.0 * riemann_zeta(3.0, budget).real / (4.0 * pi2)
    _, diff, _ = hurwitz_pair(2.0, theta / _TWO_PI, budget)
    return diff.real / (8.0 * math.pi * math.sin(theta))


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
    ``polylog._part``, one closure sized to the 2^{r-1} pairs' angles, over
    the sines of ``witten_L_su2``; with no regular class it is
    ``witten_L_su2`` at the shift. A combined angle is summed exactly, less
    k turns of 2 pi held as two doubles, and rounded once; for r >= 2 one
    within rounding of a multiple of 2 pi counts as that multiple."""
    s = read_s(s)
    thetas = [_class_angle(g) for g in gs]
    if not 1 <= len(thetas) <= 3:
        raise DomainError("multi_L supports between 1 and 3 arguments")
    regular = [th for th in thetas if 0.0 < th < math.pi]
    n_pi = thetas.count(math.pi)
    r_eff = len(regular)
    shift, shift_lo, sign = (math.pi, _PI_LO, -1.0) if n_pi % 2 \
        else (0.0, 0.0, 1.0)
    if r_eff == 0:
        return witten_L_su2(s, shift, budget)
    # eps and -eps give opposite angles (mod 2 pi) and signs (-1)^r apart,
    # so each pair is 2 P_0(|t|) (r even) or 2i sgn(t) P_1(|t|) (r odd)
    pairs = []  # (the product of eps, the combined angle t)
    for eps in itertools.product((1.0, -1.0), repeat=r_eff - 1):
        # the exact sum of the terms, all doubles, less k turns, rounded once
        terms = [shift, shift_lo, regular[0]] \
            + [e * th for e, th in zip(eps, regular[1:])]
        k = round(sum(terms) / _TWO_PI)
        t = math.fsum(terms + [-k * _TWO_PI, -k * _TWO_PI_LO])
        if r_eff >= 2 and abs(t) <= _ANGLE_ROUNDING:
            t = 0.0  # e.g. pi/2 - pi/3 - pi/6, which rounds to 1e-16
        pairs.append((math.prod(eps), t))
    part = _part(s + r_eff, r_eff % 2, budget, [abs(t) for _, t in pairs])
    acc, raised = 0.0 + 0.0j, None
    for sgn, t in pairs:
        try:
            pair = 2.0 * part(abs(t))
        except ConvergenceError as err:  # sum its achieved with the rest
            if err.achieved is None:
                raise
            raised, pair = err, 2.0 * err.achieved
        if r_eff % 2:
            pair *= 1j if t > 0.0 else -1j
        acc += sgn * pair
    denom = math.prod(2j * math.sin(min(th, math.pi - th)) for th in regular)
    if raised is not None:  # achieved: the L-value, not one pair's part
        raised.achieved = sign * acc / denom
        raise raised
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
    while 2 * n <= MAX_TERMS:
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

    Domain: s in {-2, -1} or s > 1, real or of zero imaginary part, at any
    target. For s > 1 (where the average is 1 by character orthogonality)
    the integrand is (2/pi) sin theta Im Z(s+1, e^{i theta}), the odd part
    of ``polylog._part`` (one zeta(s - 2j) table for all nodes), under the
    nested trapezoid rule with Richardson steps in the orders s+2, s+4, ...
    of its |theta|^{s+1} term; s = -1, where it is (2/pi) cos^2(theta/2),
    takes the same rule; at s = -2 it vanishes.
    The node values carry the rounding of zeta at negative arguments, so
    below a target of about 1e-14 the average stays about 1e-14 off.
    """
    s = read_s(s)
    if s.imag or not (s.real > 1.0 or s.real in (-2.0, -1.0)):
        raise DomainError("haar_average_su2 requires real s in {-2, -1} or "
                          f"s > 1, got {s}")
    s = s.real
    if s == -2.0:
        return 0.0
    if s == -1.0:
        def f(th):
            return (2.0 / math.pi) * math.cos(th / 2.0) ** 2
    else:
        odd = _part(s + 1.0, 1, budget)

        def f(th):
            return (2.0 / math.pi) * math.sin(th) * odd(th)
    return _periodic_trapezoid(f, s + 2.0, budget)
