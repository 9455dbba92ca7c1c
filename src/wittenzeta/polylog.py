"""Polylogarithm Z(s, x) = sum x^n / n^s on the unit circle x = e^{i theta}.

Three evaluation routes are exposed and cross-checked by the tests:

* ``polylog_series``     -- the defining series, accelerated by repeated
                            summation by parts, stopped on a bound of its
                            tail; the independent oracle of the others;
* ``polylog_continued``  -- Z(s, x) for x != 1 and every s: right of
                            Re s = 1.2 the even and odd parts of
                            ``_circle_part``, left of it the Hurwitz
                            (Jonquiere) formula, DLMF 25.13.2, for Z itself;
* ``polylog_via_jonquiere`` -- for real s, the functional equation relating
                            Z(s, e^{i theta}) and Z(s, e^{-i theta}) to the
                            Hurwitz zeta, solved as a 2x2 real system.

The SU(2) L-functions take the even or odd part of Z from ``_part``: right
of Re s = 1.2 ``_circle_part`` (zeta(s - k) about x = 1, DLMF 25.12.12, or
eta(s - k) about x = -1, one table per part), left of it DLMF 25.13.2.

At non-positive integers Z(-m, x) = x A_m(x) / (1 - x)^{m+1}, with A_m the
Eulerian polynomial (DLMF 26.14): ``polylog_closed_form`` returns it as an
exact rational function of x, and ``polylog_eval_neg`` evaluates it on the
circle from the integer row of Eulerian numbers. Both accept m <= MAX_CLOSED_M.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

from .errors import ConditioningError, ConvergenceError, DomainError
from .exact import Polynomial, RationalFunction
from .numerics import (DEFAULT_BUDGET, PrecisionBudget, _em_corrections,
                       _expm1, _hurwitz_em, gamma_two_pi, half_pi_trig,
                       hurwitz_even, hurwitz_pair, hurwitz_zeta, log_gamma,
                       rgamma_real, riemann_zeta)

_TWO_PI = 2.0 * math.pi


def _finite(theta: float) -> float:
    if not math.isfinite(theta):
        raise DomainError(f"theta must be finite, got {theta}")
    return theta


@dataclass(frozen=True)
class UnitCirclePoint:
    """Point x = e^{i theta} on the unit circle; theta stored in [0, 2 pi)."""

    theta: float

    def __post_init__(self):
        t = math.fmod(_finite(self.theta), _TWO_PI)
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


def _parts_depth(s: complex, e_mag: float, target: float) -> int:
    """Number of summation-by-parts passes; fewer when |E| = |x/(1-x)| is
    large, where the q-th differences, each rounded to about 2^q ulps of
    n^{-s} and scaled by |E|^q, would round past the target."""
    q = max(0, min(8, math.ceil(4.5 - s.real)))
    try:
        while q > 0 and (2.0 * e_mag) ** q * 2.0 ** -52 > 0.25 * target:
            q -= 1
    except OverflowError:  # theta next to 0
        raise DomainError(
            f"|x/(1-x)|^{q} = ({e_mag:g})^{q} overflows double precision"
        ) from None
    return q


def polylog_series(s: complex, x, budget: PrecisionBudget = DEFAULT_BUDGET) -> complex:
    """Z(s, x) by direct summation, the independent oracle of the
    continuation (the ``polylog series`` action and verify's overlap check).

    Requires Re s > 1 for x = 1 and Re s > 0 otherwise; the conditionally
    convergent region is handled by q-fold summation by parts, which turns
    the terms into q-th differences a_n of n^{-s} (decay n^{-Re s - q}).
    The sum stops when its tail meets the target: by Abel summation, with
    partial sums of x^n bounded by 1/sin(theta/2), the tail past n is at
    most |E|^q/sin(theta/2) times the variation of a past n, which is
    |(s)_q| n^{-Re s-q} for real s (a is monotone) and at most
    |(s)_{q+1}| n^{-Re s-q}/(Re s + q) for complex s. Past
    budget.max_terms it raises ConvergenceError.
    """
    s = complex(s)
    pt = _as_point(x)
    if pt.is_one:
        return _series_x1(s, budget)
    if s.real <= 0.0:
        raise DomainError("polylog series requires Re s > 0 for x != 1")
    z = pt.x
    e = z / (1.0 - z)  # E in T(f) = E f(1) - E T(delta f)
    q = _parts_depth(s, abs(e), budget.target)

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
    # remaining sum: (-1)^q E^q T(delta^q f), its tail past n at most
    # tail * n^{-order}
    coefs = [(-1.0) ** i * math.comb(q, i) for i in range(q + 1)]
    sign_epow = (-e) ** q  # prefactor of the residual sum
    order = s.real + q
    real = s.imag == 0.0
    rising = math.prod(abs(s + i) for i in range(q if real else q + 1))
    tail = abs(e) ** q / math.sin(pt.theta / 2.0) \
        * (rising if real else rising / order)
    tail_tol = budget.target * 0.01
    partial = 0.0 + 0.0j
    phase = cmath.exp(1j * pt.theta)
    zn = 1.0 + 0.0j
    for n in range(1, budget.max_terms + 1):
        zn *= phase
        dq = 0.0 + 0.0j
        for i, c in enumerate(coefs):
            dq += c * f(float(n + i))
        partial += zn * dq
        value = acc + sign_epow * partial
        if tail * n ** -order <= tail_tol * max(1.0, abs(value)):
            return value
    raise ConvergenceError(f"polylog series did not converge for s={s}",
                           achieved=acc + sign_epow * partial)


# ---------------------------------------------------------------------------
# Even and odd parts right of Re s = 1.2: the zeta(s - k) expansion
# ---------------------------------------------------------------------------

_EXPANSION_EDGE = 1.2  # the zeta(s - k) expansion right of this line
_ETA_EDGE = 2.0 * math.pi / 3.0  # expand about x = -1 past this angle
_POLE_ZONE = 0.2  # |s - 1 - m| below which the pole pair is one form
_DIRECT_TERMS = 32  # up to this many terms the Dirichlet series is summed
_EM_HEAD = 64  # longest head of the Euler-Maclaurin sum for zeta(1 - s + k)
_EULER_GAMMA = 0.5772156649015329
_LOG_TWO, _LOG_TWO_PI = math.log(2.0), math.log(_TWO_PI)


def _rounding(im: float) -> float:
    """Rounding of an expansion at Im sigma = im, relative to the sum of the
    magnitudes of its terms: a few ulps, and the kernels' phases, of size
    |im| log |im|, each rounded in its last place. Against mpmath (1960
    points, |Im sigma| = 10..50, theta in [0.5, 2.9]) it was at least twice
    every error above half a 1e-13 claim."""
    t = abs(im)
    return 2.0 ** -53 * (6.0 + 1.5 * t * math.log(2.0 + t))


@functools.lru_cache(maxsize=None)
def _zeta_int(p: int) -> float:
    """zeta(p) at an integer p >= 2, to rounding."""
    return riemann_zeta(float(p), PrecisionBudget(1e-17)).real


def _zeta_right(rho: complex, tol: float, budget: PrecisionBudget) -> complex:
    """zeta(rho) for Re rho >= 3/2 to absolute tol: a head of n <= _EM_HEAD
    terms plus the integral and half terms, where the first dropped
    Euler-Maclaurin term |rho| n^{-Re rho-1}/12 meets tol and n >= |rho+2|/2
    (so the later terms fall by 15 or more each); else riemann_zeta."""
    a = rho.real
    n = max(2, math.ceil(abs(rho + 2.0) / 2.0),
            math.ceil((abs(rho) / (12.0 * tol)) ** (1.0 / (a + 1.0))))
    if n > _EM_HEAD:
        return riemann_zeta(rho, budget)
    head = sum(k ** -rho for k in range(1, n))
    return head + n ** (1.0 - rho) / (rho - 1.0) + 0.5 * n ** -rho


def _circle_part(sigma: complex, parity: int, budget: PrecisionBudget):
    """theta -> P(theta) on [0, pi] for Re sigma > 1.2, where P is the odd
    part (Z(sigma, x) - Z(sigma, 1/x)) / 2i of Z at x = e^{i theta} for
    parity 1 and the even part (Z(sigma, x) + Z(sigma, 1/x)) / 2 for parity
    0; real for real sigma. One zeta(sigma - k) table, k = parity, parity +
    2, ..., serves every theta. With s = sigma - 1 and c_k = (-1)^j
    zeta(sigma - k) / k!, k = parity + 2j, DLMF 25.12.12 gives

        theta <= 2 pi/3:  sum_k c_k theta^k + pi theta^s / (2 cs(pi s/2)
                          Gamma(sigma)),  cs = cos (parity 1), -sin (0);
        theta > 2 pi/3:   +-sum_k c_k (1 - 2^{1-sigma+k}) phi^k, phi = pi -
                          theta, the eta(sigma - k) expansion about x = -1,
                          + for parity 1, - for parity 0,

    whose terms fall like 3^{-k}. Entries with Re(sigma - k) <= -1/2 come
    from the functional equation, c_k = 2 (2 pi)^s sin(pi (sigma - parity)
    /2) R_k zeta(1 - sigma + k), R_k = Gamma(1 - sigma + k) / (k! (2 pi)^k)
    by the recurrence R_k = R_{k-2} (k-1-sigma)(k-sigma) / ((k-1) k (2 pi)^2)
    from one log_gamma; the table ends where Re sigma < k, |Im sigma| < 3k
    and |c_k| (2 pi/3)^k meets the target.

    Within _POLE_ZONE of an integer m of the part's parity (eps = s - m),
    the last term and c_m, whose zeta(sigma - m) = zeta(1 + eps) has its
    pole, are one form, analytic across m: with L = log theta,

        (-1)^{m//2} theta^m/m! (g - expm1(eps lam)/eps),
        g = zeta(1+eps) - 1/eps,
        lam = L + (log((pi eps/2)/sin(pi eps/2)) - log(Gamma(1+s)/m!))/eps,

    g by Euler-Maclaurin and lam - L by its power series in eps; at s = m
    this is (-1)^{m//2} theta^m/m! (H_m - L). About x = -1 the pole cancels:
    eta(1+eps) = -expm1(-eps log 2) (1/eps + g). For large Re sigma, where
    the tail bound N^{-s}/s of the Dirichlet series meets the target with
    N <= _DIRECT_TERMS, that sum is taken instead, about x = -1 as well.

    A value whose rounding estimate, ``_rounding`` times the sum of the
    magnitudes of its terms (which grow before they fall as |Im sigma|
    rises), misses the target relative to max(|P|, phi or theta) for
    parity 1 or max(|P|, 1) for parity 0 raises ConvergenceError.
    """
    sigma = complex(sigma)
    real = sigma.imag == 0.0
    if real:
        sigma = sigma.real
    exp = math.exp if real else cmath.exp

    def num(z: complex):  # a kernel's value, real for real sigma
        return z.real if real else z

    tol = budget.target * 1e-3
    s = sigma - 1.0
    terms = math.ceil((tol * s.real) ** (-1.0 / s.real))
    if terms <= _DIRECT_TERMS:
        trig = math.sin if parity else math.cos
        weights = [n ** -sigma for n in range(1, terms + 1)]
        # sin(n theta) = (-1)^{n+1} sin(n phi),
        # cos(n theta) = (-1)^n cos(n phi)
        flipped = [(-1) ** (n + parity) * w for n, w in enumerate(weights, 1)]
        add = math.fsum if real else sum

        def direct(theta: float):
            x, ws = (math.pi - theta, flipped) if theta > _ETA_EDGE \
                else (theta, weights)
            return add(w * trig(n * x) for n, w in enumerate(ws, 1))
        return direct

    zb = PrecisionBudget(tol, budget.max_terms)
    rounding = _rounding(sigma.imag)
    m = 2 * round((s.real - parity) / 2.0) + parity
    eps = s - m
    pole = abs(eps) < _POLE_ZONE
    coeffs, etas = [], []  # c_k and the eta-expansion coefficients
    eta_sign = 1.0 if parity else -1.0
    ratio = None  # R_k once the functional equation takes over
    for k in range(parity, budget.max_terms, 2):
        u = sigma - k
        if pole and k == m:
            coeffs.append(0.0)
            etas.append(None)  # filled in with g below
            continue
        if u.real > -0.5:
            c = (-1) ** (k // 2) * num(riemann_zeta(u, zb)) \
                / math.factorial(k)
        else:
            if ratio is None:
                pref = 2.0 * exp(s * _LOG_TWO_PI) \
                    * num(half_pi_trig(complex(sigma - parity))[1])
                ratio = exp(num(log_gamma(1.0 - u)) - math.lgamma(k + 1.0)
                            - k * _LOG_TWO_PI)
            else:
                ratio *= (k - 1.0 - sigma) * (k - sigma) \
                    / ((k - 1.0) * k * _TWO_PI * _TWO_PI)
            c = pref * ratio * num(_zeta_right(1.0 - u, tol, zb))
        coeffs.append(c)
        etas.append(-eta_sign * c * _expm1((1.0 - u) * _LOG_TWO))
        if sigma.real < k and abs(sigma.imag) < 3.0 * k \
                and abs(c) * _ETA_EDGE ** k <= tol:
            break
    else:
        raise ConvergenceError(f"zeta(s - k) table did not end for s={sigma}")

    if pole:
        n = 17  # the Euler-Maclaurin base for g
        g = sum(k ** (-1.0 - eps) for k in range(1, n)) \
            + (_expm1(-eps * math.log(n)) / eps if eps else -math.log(n)) \
            + 0.5 * n ** (-1.0 - eps) + _em_corrections(1.0 + eps, n, 1.0, zb)
        lam0 = _EULER_GAMMA - math.fsum(1.0 / k for k in range(1, m + 1))
        p = 2
        while abs(eps) ** (p - 1) > tol:  # each coefficient is at most 1
            harmonic = math.fsum(k ** -p for k in range(1, m + 1))
            zeta_p = _zeta_int(p)
            coef = zeta_p - harmonic if p % 2 \
                else harmonic + (2.0 ** (1 - p) - 1.0) * zeta_p
            lam0 += coef * eps ** (p - 1) / p
            p += 1
        sign = (-1) ** (m // 2) / math.factorial(m)
        # eta(1 + eps) = -expm1(-eps log 2) (1/eps + g)
        eta1 = (-_expm1(-eps * _LOG_TWO) / eps * (1.0 + eps * g)
                if eps else _LOG_TWO)
        etas[(m - parity) // 2] = eta_sign * sign * eta1
    else:
        cos, sin, _ = half_pi_trig(complex(s))
        lead = num(math.pi / (2.0 * cos) if parity else -math.pi / (2.0 * sin))
        log_gamma_s = num(log_gamma(sigma))
    coeffs.reverse()
    etas.reverse()

    def part(theta: float):
        if theta > _ETA_EDGE:
            x, table = math.pi - theta, etas
        else:
            x, table = theta, coeffs
        x2, acc, size = x * x, 0.0, 0.0
        for c in table:
            acc = acc * x2 + c
            size = size * x2 + abs(c)
        if parity:
            acc, size = acc * x, size * x
        if table is coeffs and x:
            if pole:
                lam = math.log(x) + lam0
                last = sign * x ** m * (
                    g - (_expm1(eps * lam) / eps if eps else lam))
            else:
                last = lead * exp(s * math.log(x) - log_gamma_s)
            acc += last
            size += abs(last)
        if rounding * size > budget.target * max(abs(acc),
                                                  x if parity else 1.0):
            raise ConvergenceError(
                f"zeta(s - k) expansion loses its digits at s={sigma}",
                achieved=acc)
        return acc
    return part


_NEAR_ONE = 0.25  # |s - 1| below which the bracket is split at its zero


def _finite_value(value, theta: float, what: str, *args):
    """value, or DomainError naming what.format(*args) if it overflowed."""
    if cmath.isfinite(value):
        return value
    raise DomainError(f"{what.format(*args)} at theta = {theta:g} "
                      "overflows double precision")


def _part(sigma: complex, parity: int, budget: PrecisionBudget):
    """theta -> P(theta) on [0, pi] for every sigma, the odd (parity 1) or
    even (parity 0) part of Z(sigma, e^{i theta}): ``_circle_part`` right of
    Re sigma = 1.2; left of it DLMF 25.13.2 for the part, w = 1 - sigma,
    t = theta/2pi: Gamma(w) (2pi)^{-w} sin(pi w/2) (zeta(w,t) - zeta(w,1-t))
    from one ``hurwitz_pair``, or cos(pi w/2) and the sum, by ``hurwitz_even``
    where |w| < 1/4. The trig factor comes first, so P_1 is exactly 0 at
    sigma = -1, -3, ... and P_0 at -2, -4, .... Limits: at sigma = 1, P_1 =
    (pi - theta)/2, P_0 = -log(2 sin(theta/2)); at sigma = 0, P_0 = -1/2; at
    theta = 0, P_1 = 0, P_0 = zeta(sigma). An overflow raises DomainError."""
    sigma = complex(sigma)
    if sigma.real > _EXPANSION_EDGE:
        return _circle_part(sigma, parity, budget)
    real = sigma.imag == 0.0
    w = 1.0 - (sigma.real if real else sigma)
    limit = w == 0.0 or (w == 1.0 and not parity)
    if not limit:
        cos, sin, _ = half_pi_trig(w)
        # complex even for real w: the value is then +0, not -0, at a zero
        pref = gamma_two_pi(w) * (sin if parity else cos)

    def part(theta: float):
        t = theta / _TWO_PI
        if theta == 0.0:
            value = 0.0 if parity else riemann_zeta(sigma, budget)
        elif limit:
            value = -0.5 if w else (0.5 * (math.pi - theta) if parity
                                    else -math.log(2.0 * math.sin(0.5 * theta)))
        elif not parity and abs(w) < _NEAR_ONE:
            value = pref * hurwitz_even(w, t, budget)
        else:
            zeta_b, diff = hurwitz_pair(w, t, 1.0 - t, budget)
            value = pref * (diff if parity else diff + 2.0 * zeta_b)
        if not cmath.isfinite(value):
            _finite_value(value, theta, "P_{}({:g}, x)", parity, sigma)
        return value.real if real else value
    return part


# ---------------------------------------------------------------------------
# Analytic continuation
# ---------------------------------------------------------------------------


def polylog_continued(s: complex, x,
                      budget: PrecisionBudget = DEFAULT_BUDGET) -> complex:
    """Z(s, x) for x = e^{i theta} != 1 and every s.

    Right of Re s = 1.2, with t = theta reduced to [-pi, pi], it is
    P_0(|t|) + i sgn(t) P_1(|t|) from the even and odd parts of
    ``_circle_part``. Left of it, with x = e^{2 pi i t}, it is the Hurwitz
    formula, DLMF 25.13.2, with w = 1 - s,

        Gamma(w) (2 pi)^{-w} [e^{i pi w/2} zeta(w,t) + e^{-i pi w/2} zeta(w,1-t)],

    as e^{i pi w/2} (zeta(w,t) - zeta(w,1-t)) + 2 cos(pi w/2) zeta(w,1-t), so
    that no two large terms cancel; Im s > 0 goes through conj Z(conj s, 1/x)
    to keep |e^{i pi w/2}| <= 1. s = 0 and 1 use x/(1-x) and -log(1-x).
    """
    s = complex(s)
    pt = _as_point(x)
    if pt.is_one:
        raise DomainError("polylog continuation requires x != 1 (theta != 0)")
    if s.real > _EXPANSION_EDGE:
        t = math.remainder(pt.theta, _TWO_PI)
        even = _circle_part(s, 0, budget)(abs(t))
        odd = _circle_part(s, 1, budget)(abs(t))
        return complex(even + (1j if t > 0.0 else -1j) * odd)
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
        value = gamma_two_pi(w) * (cos * hurwitz_even(w, t, budget)
                                   + 1j * sin * diff)
    else:
        value = gamma_two_pi(w) * (phase * diff + 2.0 * cos * zeta_b)
    return _finite_value(value, pt.theta, "Z({:g}, x)", s)


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
    return _finite_value(complex((r_plus + r_minus) / (4.0 * math.cos(phi)),
                                 (r_plus - r_minus) / (4.0 * math.sin(phi))),
                         pt.theta, "Z({:g}, x)", s)


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
        raise DomainError("Z(-m, x) closed form: m must be non-negative")
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
        th = math.fmod(_finite(float(x)), _TWO_PI)  # fmod is exact
    if th == 0.0:
        raise DomainError("Z(-m, x) closed form requires x != 1")
    if th < 0.0:
        # Z(-m, conj x) = conj Z(-m, x); negation is exact, so reciprocal
        # angle pairs produce bit-exact conjugates and the parity identity
        # holds to the last ulp
        return polylog_eval_neg(m, -th).conjugate()
    if th > math.pi:
        return polylog_eval_neg(m, th - _TWO_PI)
    try:
        if m == 0:
            # x/(1-x) = -1/2 + (i/2) cot(theta/2)
            value = complex(-0.5,
                            0.5 * math.cos(th / 2.0) / math.sin(th / 2.0))
        elif m == 1:
            half = math.sin(th / 2.0)
            value = complex(-0.25 / (half * half), 0.0)
        else:
            center = (m - 1) / 2.0
            cosine = sum(c * math.cos((j - center) * th)
                         for j, c in enumerate(_eulerian_row(m)))
            value = cosine / (-2j * math.sin(th / 2.0)) ** (m + 1)
    except ZeroDivisionError:  # sin(theta/2)^(m+1) underflows to 0
        value = math.inf
    return _finite_value(value, th, "Z(-{}, x)", m)
