"""Polylogarithm Z(s, x) = sum x^n / n^s on the unit circle x = e^{i theta}.

Three evaluation routes are exposed and cross-checked by the tests:

* ``polylog_series``     -- the defining series, accelerated by repeated
                            summation by parts for 0 < Re s <= 1 (x != 1);
* ``polylog_continued``  -- Z(s, x) for x != 1 and every s: the series right
                            of Re s = 1.2, the Hurwitz (Jonquiere) formula,
                            DLMF 25.13.2, left of it;
* ``polylog_via_jonquiere`` -- for real s, the functional equation relating
                            Z(s, e^{i theta}) and Z(s, e^{-i theta}) to the
                            Hurwitz zeta, solved as a 2x2 real system.

At non-positive integers Z(-m, x) = x A_m(x) / (1 - x)^{m+1}, with A_m the
Eulerian polynomial (DLMF 26.14): ``polylog_closed_form`` returns it as an
exact rational function of x, and ``polylog_eval_neg`` evaluates it on the
circle from the integer row of Eulerian numbers. Both accept m <= MAX_CLOSED_M.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import ConditioningError, ConvergenceError, DomainError
from .exact import Polynomial, RationalFunction
from .numerics import (DEFAULT_BUDGET, PrecisionBudget, _hurwitz_em,
                       gamma_two_pi, half_pi_trig, hurwitz_even, hurwitz_pair,
                       hurwitz_zeta, rgamma_real)

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class UnitCirclePoint:
    """Point x = e^{i theta} on the unit circle; theta stored in [0, 2 pi)."""

    theta: float

    def __post_init__(self):
        t = math.fmod(self.theta, _TWO_PI)
        if t < 0.0:
            t += _TWO_PI
        if t == _TWO_PI:  # a tiny negative angle plus 2 pi rounds to 2 pi
            t = 0.0
        object.__setattr__(self, "theta", t)

    @property
    def x(self) -> complex:
        return cmath.exp(1j * self.theta)

    @property
    def is_one(self) -> bool:
        return self.theta == 0.0

    def inverse(self) -> "UnitCirclePoint":
        return UnitCirclePoint(-self.theta)


def _as_point(x) -> UnitCirclePoint:
    if isinstance(x, UnitCirclePoint):
        return x
    return UnitCirclePoint(float(x))


# ---------------------------------------------------------------------------
# Series evaluation
# ---------------------------------------------------------------------------

def _series_x1(s: complex, budget: PrecisionBudget) -> complex:
    if s.real <= 1.0:
        raise DomainError("series for x = 1 requires Re s > 1")
    return _hurwitz_em(s, 1.0, budget)


def _parts_depth(s: complex, e_mag: float) -> int:
    """Number of summation-by-parts passes; fewer when |x/(1-x)| is large,
    where the alternating differences would amplify rounding."""
    q = max(0, min(8, math.ceil(4.5 - s.real)))
    while q > 0 and (e_mag ** (q + 1)) * (4.0 ** q) * 1e-15 > 0.05:
        q -= 1
    return q


def polylog_series(s: complex, x, budget: PrecisionBudget = DEFAULT_BUDGET) -> complex:
    """Z(s, x) by direct summation.

    Requires Re s > 1 for x = 1 and Re s > 0 otherwise; the conditionally
    convergent region is handled by q-fold summation by parts, which turns
    the terms into q-th forward differences of n^{-s} (decay n^{-Re s - q}).
    """
    s = complex(s)
    pt = _as_point(x)
    if pt.is_one:
        return _series_x1(s, budget)
    if s.real <= 0.0:
        raise DomainError("polylog series requires Re s > 0 for x != 1")
    z = pt.x
    e = z / (1.0 - z)  # E in T(f) = E f(1) - E T(delta f)
    q = _parts_depth(s, abs(e))

    def f(n: float) -> complex:
        return n ** (-s)

    # boundary terms: sum_{j=0}^{q-1} (-1)^j E^{j+1} (delta^j f)(1)
    acc = 0.0 + 0.0j
    epow = e
    for j in range(q):
        dj = 0.0 + 0.0j
        for i in range(j + 1):
            dj += (-1.0) ** i * math.comb(j, i) * f(1.0 + i)
        acc += (-1.0) ** j * epow * dj
        epow *= e
    # remaining sum: (-1)^q E^q T(delta^q f)
    coefs = [(-1.0) ** i * math.comb(q, i) for i in range(q + 1)]
    sign_epow = (-e) ** q  # prefactor of the residual sum
    tail_tol = budget.target * 0.01
    partial = 0.0 + 0.0j
    phase = cmath.exp(1j * pt.theta)
    zn = 1.0 + 0.0j
    small_run = 0
    n = 1
    while n <= budget.max_terms:
        zn *= phase
        dq = 0.0 + 0.0j
        for i, c in enumerate(coefs):
            dq += c * f(float(n + i))
        term = zn * dq
        partial += term
        if abs(term) <= tail_tol * (1.0 + abs(acc + sign_epow * partial)):
            small_run += 1
            if small_run >= 3 and n >= 32:
                return acc + sign_epow * partial
        else:
            small_run = 0
        n += 1
    raise ConvergenceError(f"polylog series did not converge for s={s}",
                           achieved=acc + sign_epow * partial)


# ---------------------------------------------------------------------------
# Analytic continuation by the Hurwitz formula
# ---------------------------------------------------------------------------

_SERIES_EDGE = 1.2  # use the plain series right of this line
_NEAR_ONE = 0.25  # |s - 1| below which the bracket is split at its zero


def polylog_continued(s: complex, x,
                      budget: PrecisionBudget = DEFAULT_BUDGET) -> complex:
    """Z(s, x) for x = e^{2 pi i t} != 1 and every s: the series right of
    Re s = 1.2, left of it the Hurwitz formula, DLMF 25.13.2, with w = 1 - s,

        Gamma(w) (2 pi)^{-w} [e^{i pi w/2} zeta(w,t) + e^{-i pi w/2} zeta(w,1-t)],

    as e^{i pi w/2} (zeta(w,t) - zeta(w,1-t)) + 2 cos(pi w/2) zeta(w,1-t), so
    that no two large terms cancel; Im s > 0 goes through conj Z(conj s, 1/x)
    to keep |e^{i pi w/2}| <= 1. s = 0 and 1 use x/(1-x) and -log(1-x).
    """
    s = complex(s)
    pt = _as_point(x)
    if pt.is_one:
        raise DomainError("polylog continuation requires x != 1 (theta != 0)")
    if s.real > _SERIES_EDGE:
        return polylog_series(s, pt, budget)
    if s.imag > 0.0:
        return polylog_continued(s.conjugate(), pt.inverse(),
                                 budget).conjugate()
    z = pt.x
    if s == 0.0:
        return z / (1.0 - z)
    if s == 1.0:
        return -cmath.log(1.0 - z)
    w = 1.0 - s
    t = pt.theta / _TWO_PI
    cos, sin, phase = half_pi_trig(w)
    zeta_b, diff = hurwitz_pair(w, t, 1.0 - t, budget)
    if abs(w) < _NEAR_ONE:
        # Gamma(w) has a pole at w = 0, where the bracket vanishes: keep
        # its relative accuracy through cos (zeta(w,t) + zeta(w,1-t))
        return gamma_two_pi(w) * (cos * hurwitz_even(w, t, budget)
                                  + 1j * sin * diff)
    return gamma_two_pi(w) * (phase * diff + 2.0 * cos * zeta_b)


# ---------------------------------------------------------------------------
# Jonquiere functional-equation route (real s)
# ---------------------------------------------------------------------------

def polylog_via_jonquiere(s: float, x,
                          budget: PrecisionBudget = DEFAULT_BUDGET) -> complex:
    """Z(s, x) for real s from the functional equation

        e^{-pi i s/2} Z(s, e^{i t}) + e^{pi i s/2} Z(s, e^{-i t})
            = (2 pi)^s / Gamma(s) * zeta(1 - s, t / 2 pi)

    applied at t and 2 pi - t, solved with Z(s, e^{-i t}) = conj Z(s, e^{i t}).
    At non-positive integer s, where the solve degenerates, the value is
    polylog_continued's; positive integer s is rejected, near-integer s
    raises ConditioningError.
    """
    s = float(s)
    pt = _as_point(x)
    if pt.is_one:
        raise DomainError("jonquiere route requires theta != 0")
    t = pt.theta / _TWO_PI  # in (0, 1)
    if s == int(s):
        if s > 0:
            raise DomainError("jonquiere solve degenerates at positive integer s")
        return polylog_continued(s, pt, budget)
    if abs(math.sin(math.pi * s)) / 2.0 < 1e-4:
        raise ConditioningError(
            f"jonquiere system ill-conditioned near integer s = {s}")
    rg = rgamma_real(s)
    pref = _TWO_PI ** s * rg
    r_plus = pref * hurwitz_zeta(1.0 - s, t, budget).real
    r_minus = pref * hurwitz_zeta(1.0 - s, 1.0 - t, budget).real
    phi = math.pi * s / 2.0
    u = (r_plus + r_minus) / (4.0 * math.cos(phi))
    v = (r_plus - r_minus) / (4.0 * math.sin(phi))
    return complex(u, v)


# ---------------------------------------------------------------------------
# Exact closed forms at non-positive integers
# ---------------------------------------------------------------------------

MAX_CLOSED_M = 30
"""Largest m that ``polylog_closed_form`` and ``polylog_eval_neg`` accept.

The value was set by the cost of a polynomial gcd that the closed form no
longer takes; above m = 170 the Eulerian numbers overflow a float. Larger m
raise DomainError."""


def _check_m(m: int) -> None:
    if m < 0:
        raise ValueError("Z(-m, x) closed form: m must be non-negative")
    if m > MAX_CLOSED_M:
        raise DomainError(
            f"Z(-m, x) closed form supports m <= {MAX_CLOSED_M}, got m = {m}")


def _eulerian_row(m: int) -> list:
    """Eulerian numbers A(m, 0), ..., A(m, m-1) (just [1] for m = 0), from
    A(n, k) = (k+1) A(n-1, k) + (n-k) A(n-1, k-1); palindromic, sum m!."""
    row = [1]
    for n in range(2, m + 1):
        row = [(k + 1) * (row[k] if k < n - 1 else 0)
               + (n - k) * (row[k - 1] if k else 0) for k in range(n)]
    return row


def polylog_closed_form(m: int) -> RationalFunction:
    """Exact rational function R_m(x) = Z(-m, x) = x A_m(x) / (1 - x)^{m+1},
    the numerator from the Eulerian row, the denominator from binomials.
    The parts are coprime, as A_m(1) = m! != 0, so no gcd is taken."""
    _check_m(m)
    num = Polynomial([0] + _eulerian_row(m), "x")
    den = Polynomial([(-1) ** k * math.comb(m + 1, k) for k in range(m + 2)],
                     "x")
    return RationalFunction.coprime(num, den)


def polylog_eval_neg(m: int, x) -> complex:
    """Float evaluation of the exact closed form Z(-m, x) at x = e^{i theta}.

    Uses the factorization Z(-m, x) = x A(x) / (1 - x)^{m+1} with A the
    palindromic Eulerian polynomial: on the circle this collapses to a real
    cosine sum over (-2i sin(theta/2))^{m+1}, so the value is exactly real
    for odd m and exactly imaginary for even m >= 2, as the parity identity
    Z(-m, x) + (-1)^m Z(-m, 1/x) = 0 demands.
    """
    _check_m(m)
    if isinstance(x, UnitCirclePoint):
        th = x.theta
    else:
        th = math.fmod(float(x), _TWO_PI)  # fmod is exact
    if th == 0.0:
        raise DomainError("Z(-m, x) closed form requires x != 1")
    if th < 0.0:
        # Z(-m, conj x) = conj Z(-m, x); negation is exact, so reciprocal
        # angle pairs produce bit-exact conjugates and the parity identity
        # holds to the last ulp
        return polylog_eval_neg(m, -th).conjugate()
    if th > math.pi:
        return polylog_eval_neg(m, th - _TWO_PI)
    if m == 0:
        # x/(1-x) = -1/2 + (i/2) cot(theta/2)
        return complex(-0.5, 0.5 * math.cos(th / 2.0) / math.sin(th / 2.0))
    if m == 1:
        half = math.sin(th / 2.0)
        return complex(-0.25 / (half * half), 0.0)
    center = (m - 1) / 2.0
    cosine = sum(c * math.cos((j - center) * th)
                 for j, c in enumerate(_eulerian_row(m)))
    denom = (-2j * math.sin(th / 2.0)) ** (m + 1)
    return cosine / denom
