"""Polylogarithm Z(s, x) = sum x^n / n^s on the unit circle x = e^{i theta}.

Two evaluation routes are exposed and cross-checked by the tests:

* ``polylog_series``     -- the defining series, accelerated by repeated
                            summation by parts, stopped on a bound of its
                            tail; the independent oracle of the other;
* ``polylog_continued``  -- Z(s, x) for every x and s: zeta(s) at x = 1,
                            right of Re s = 1.2 the even and odd parts of
                            ``_part``, left of it the Hurwitz (Jonquiere)
                            formula, DLMF 25.13.2, for Z itself.

The float entry points take x by its angle theta, a float in radians,
and read it into [-pi, pi] less the low part of 2 pi per turn (``_angle``).

``polylog_via_jonquiere`` is the continuation at real s, kept by name for
the ``polylog jonquiere`` action.

The SU(2) L-functions take the even or odd part of Z from ``_part``. Right
of Re s = 1.2 angles all from 1/2 on take ``_euler_boole``, Boole's sum on
the cot(theta/2) polynomials of ``polylog_eval_neg``, other calls one
zeta(s - k) table (``_circle_part``, DLMF 25.12.12) for the angles they
name, its zeta(1 - s + k) entries from one ``numerics.zeta_ladder``. Left
of the line every value takes one ``numerics.hurwitz_pair`` pass.

At non-positive integers Z(-m, x) = x A_m(x) / (1 - x)^{m+1}, with A_m the
Eulerian polynomial (DLMF 26.14): ``polylog_closed_form`` returns it as an
exact rational function of x. ``polylog_eval_neg`` takes its value on the
circle from the derivative polynomials of cot(theta/2) (Hoffman, Amer. Math.
Monthly 102, 1995). They accept m <= MAX_CLOSED_M and m <= MAX_EVAL_M.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator

from .errors import ConvergenceError, DomainError
from .exact import Polynomial, RationalFunction
from .numerics import (DEFAULT_BUDGET, MAX_TERMS, NEAR_ZERO, PrecisionBudget,
                       _em_corrections, _expm1, _hurwitz_em, gamma_two_pi,
                       half_pi_trig, hurwitz_pair, log_gamma, read_s,
                       riemann_zeta, sin_half_pi, zeta_ladder)

_TWO_PI = 2.0 * math.pi
# pi and 2 pi as two doubles each: math.pi + _PI_LO is pi to about 1e-32
_PI_LO = 1.2246467991473532e-16
_TWO_PI_LO = 2.0 * _PI_LO


def _angle(theta) -> float:
    """The angle theta of x = e^{i theta}, a float in radians, reduced to
    [-pi, pi]: math.remainder by 2 * math.pi, which is exact, less the k
    turns' low part k * _TWO_PI_LO, so that an angle next to 2 pi k keeps
    its digits; one within rounding of 2 pi k, such as 2 * math.pi, reads
    as 0. An angle in [-pi, pi] is returned as it is. A non-finite angle
    raises DomainError."""
    theta = float(theta)
    if not math.isfinite(theta):
        raise DomainError(f"theta must be finite, got {theta}")
    rem = math.remainder(theta, _TWO_PI)
    turns = round((theta - rem) / _TWO_PI)
    if not turns:
        return rem
    if abs(rem) <= 0.5 * math.ulp(theta):
        return 0.0
    return rem - turns * _TWO_PI_LO


# ---------------------------------------------------------------------------
# Series evaluation
# ---------------------------------------------------------------------------

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
    """Z(s, x) by direct summation at x = e^{i theta}, given as theta in
    radians; the independent oracle of the continuation (the ``polylog
    series`` action and verify's overlap check).

    Requires Re s > 1 for x = 1 and Re s > 0 otherwise; the conditionally
    convergent region is handled by q-fold summation by parts, which turns
    the terms into q-th differences a_n of n^{-s} (decay n^{-Re s - q}).
    The sum stops when its tail meets the target: by Abel summation, with
    partial sums of x^n bounded by 1/sin(theta/2), the tail past n is at
    most |E|^q/sin(theta/2) times the variation of a past n, which is
    |(s)_q| n^{-Re s-q} for real s (a is monotone) and at most
    |(s)_{q+1}| n^{-Re s-q}/(Re s + q) for complex s. Past
    MAX_TERMS terms it raises ConvergenceError.
    """
    s = read_s(s)
    th = _angle(x)
    if th == 0.0:
        if s.real <= 1.0:
            raise DomainError("series for x = 1 requires Re s > 1")
        return _hurwitz_em(s, 1.0, budget)
    if s.real <= 0.0:
        raise DomainError("polylog series requires Re s > 0 for x != 1")
    z = cmath.exp(1j * th)
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
    tail = abs(e) ** q / math.sin(abs(th) / 2.0) \
        * (rising if real else rising / order)
    tail_tol = budget.target * 0.01
    partial = 0.0 + 0.0j
    zn = 1.0 + 0.0j
    for n in range(1, MAX_TERMS + 1):
        zn *= z
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
# Even and odd parts right of Re s = 1.2: the zeta(s - k) table and the
# Euler-Boole sum
# ---------------------------------------------------------------------------

_EXPANSION_EDGE = 1.2  # the table and the Euler-Boole sum right of this line
_BOOLE_EDGE = 0.5  # angles all from here on take the Euler-Boole sum
_POLE_ZONE = 0.2  # |s - 1 - m| below which the pole pair is one form
_DIRECT_TERMS = 32  # up to this many terms the Dirichlet series is summed
_EULER_GAMMA = 0.5772156649015329
_LOG_TWO_PI = math.log(_TWO_PI)


@functools.lru_cache(maxsize=None)
def _zeta_int(p: int) -> float:
    """zeta(p) at an integer p >= 2, to rounding."""
    return riemann_zeta(float(p), PrecisionBudget(1e-17)).real


def _circle_part(sigma: complex, parity: int, budget: PrecisionBudget,
                 thetas=None):
    """theta -> P(theta) on [0, pi] for Re sigma > 1.2, where P is the odd
    part (Z(sigma, x) - Z(sigma, 1/x)) / 2i of Z at x = e^{i theta} for
    parity 1 and the even part (Z(sigma, x) + Z(sigma, 1/x)) / 2 for parity
    0; real for real sigma. With s = sigma - 1 and c_k = (-1)^j zeta(sigma
    - k) / k!, k = parity + 2j, DLMF 25.12.12 gives

        sum_k c_k theta^k + pi theta^s / (2 cs(pi s/2) Gamma(sigma)),
        cs = cos (parity 1), -sin (parity 0).

    One table of c_k serves every theta in thetas (all of [0, pi] if None):
    it ends where Re sigma < k, |Im sigma| < 3k and |c_k| r^k meets the
    target, r the largest of thetas (terms fall like (r / 2 pi)^k); an angle
    past r raises RuntimeError, an internal error. Entries with Re(sigma -
    k) <= -1/2 come from the functional equation, c_k = 2 (2 pi)^s sin(pi
    (sigma - parity)/2) R_k zeta(1 - sigma + k), R_k = Gamma(1 - sigma + k)
    / (k! (2 pi)^k) by R_k = R_{k-2} (k-1-sigma)(k-sigma) / ((k-1) k (2
    pi)^2) from one log_gamma, the zetas from one ``numerics.zeta_ladder``.

    Within _POLE_ZONE of an integer m of the part's parity (eps = s - m),
    the last term and c_m, whose zeta(sigma - m) = zeta(1 + eps) has its
    pole, are one form, analytic across m: with L = log theta,

        (-1)^{m//2} theta^m/m! (g - expm1(eps lam)/eps),
        g = zeta(1+eps) - 1/eps,
        lam = L + (log((pi eps/2)/sin(pi eps/2)) - log(Gamma(1+s)/m!))/eps,

    g by Euler-Maclaurin and lam - L by its power series in eps; at s = m
    this is (-1)^{m//2} theta^m/m! (H_m - L). The rounding, 2^{-53} (6 + 1.5
    t log(2 + t)), t = |Im sigma| (ulps and the kernels' phases; at 1960
    mpmath points, t = 10..50, at least twice every error above half a
    1e-13 claim), times the sum of the magnitudes of the terms, raises
    ConvergenceError where it misses the target relative to max(|P|,
    theta) for parity 1 or max(|P|, 1) for parity 0.
    """
    sigma = complex(sigma)
    real = sigma.imag == 0.0
    if real:
        sigma = sigma.real
    exp = math.exp if real else cmath.exp

    def num(z: complex):  # a kernel's value, real for real sigma
        return z.real if real else z

    tol = budget.target * 1e-3
    zb = PrecisionBudget(tol)
    t = abs(sigma.imag)
    rounding = 2.0 ** -53 * (6.0 + 1.5 * t * math.log(2.0 + t))
    s = sigma - 1.0
    m = 2 * round((s.real - parity) / 2.0) + parity
    eps = s - m
    pole = abs(eps) < _POLE_ZONE
    coeffs = []  # c_k
    reach = math.pi if thetas is None else max(thetas, default=0.0)
    ladder = None  # zeta(1 - sigma + k) once the functional equation holds
    for k in range(parity, MAX_TERMS, 2):
        u = sigma - k
        if pole and k == m:
            coeffs.append(0.0)
            continue
        if u.real > -0.5:
            c = (-1) ** (k // 2) * num(riemann_zeta(u, zb)) \
                / math.factorial(k)
        else:
            if ladder is None:
                pref = 2.0 * exp(s * _LOG_TWO_PI) \
                    * num(sin_half_pi(complex(sigma - parity)))
                ratio = exp(num(log_gamma(1.0 - u)) - math.lgamma(k + 1.0)
                            - k * _LOG_TWO_PI)
                ladder = zeta_ladder(1.0 - u, zb)
            else:
                ratio *= (k - 1.0 - sigma) * (k - sigma) \
                    / ((k - 1.0) * k * _TWO_PI * _TWO_PI)
            c = pref * ratio * num(next(ladder))
        coeffs.append(c)
        if sigma.real < k and abs(sigma.imag) < 3.0 * k \
                and abs(c) * reach ** k <= tol:
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
    else:
        cos, sin, _ = half_pi_trig(complex(s))
        lead = num(math.pi / (2.0 * cos) if parity else -math.pi / (2.0 * sin))
        log_gamma_s = num(log_gamma(sigma))
    coeffs.reverse()

    def part(theta: float):
        if theta > reach:
            raise RuntimeError(f"theta = {theta} is past the reach {reach} "
                               f"of the zeta(s - k) table at s = {sigma}")
        x2, acc, size = theta * theta, 0.0, 0.0
        for c in coeffs:
            acc = acc * x2 + c
            size = size * x2 + abs(c)
        if parity:
            acc, size = acc * theta, size * theta
        if theta:
            if pole:
                lam = math.log(theta) + lam0
                last = sign * theta ** m * (
                    g - (_expm1(eps * lam) / eps if eps else lam))
            else:
                last = lead * exp(s * math.log(theta) - log_gamma_s)
            acc += last
            size += abs(last)
        if rounding * size > budget.target * max(abs(acc),
                                                  theta if parity else 1.0):
            raise ConvergenceError(
                f"zeta(s - k) expansion loses its digits at s={sigma}",
                achieved=acc)
        return acc
    return part


def _direct_terms(sigma: complex, tol: float) -> int:
    """N <= _DIRECT_TERMS with N^{1-Re sigma}/(Re sigma-1) <= tol, or 0."""
    s = sigma.real - 1.0
    n = math.ceil(math.exp(min(-(math.log(tol) + math.log(s)) / s, 9.0)))
    return n if n <= _DIRECT_TERMS else 0


def _euler_boole(sigma: complex, parity: int, budget: PrecisionBudget):
    """theta -> P(theta) on (0, pi], the part of ``_circle_part``, by Boole's
    summation (Borwein, Calkin and Manna, Amer. Math. Monthly 116, 2009).
    The Taylor series of (N + j)^{-sigma} and Z(-k, x) = (i/2)^{k+1} Q_k(c),
    c = cot(theta/2), give P = sum_{n<N} trig(n theta) n^{-sigma} + N^{-sigma}
    (b/2 + sum_k C(-sigma, k) N^{-k} u_k w_k), trig = sin (parity 1) or cos,
    u_k = ``_cot_value(k, c)``, w_k = a for even k and b for odd k, (a, b) =
    (cos N theta, sin N theta) for parity 1, (-sin N theta, cos N theta) for
    0. As the tail's terms fall like |sigma + k| / (N theta), N theta = 2
    |sigma| + 10 - log tol, tol = target * 1e-3, and the tail stops at two
    terms below tol times the scale, phi for parity 1 past pi/2, else 1.
    Past pi/2 the trig factors and c = tan(phi/2) come from the exact phi =
    pi - theta, as e^{i n theta} = (-1)^n e^{-i n phi}: nothing cancels. A
    Dirichlet series that ends within _DIRECT_TERMS is the head, with no
    tail. A term t rounds its phase by 2^{-53} |t| (6 + 1.5 |Im sigma| log
    n), n = N in the tail: a sum of these past the target relative to
    max(|P|, scale), or a tail above tol at k = MAX_EVAL_M, raises
    ConvergenceError; N past MAX_TERMS DomainError."""
    sigma, add = complex(sigma), sum
    if sigma.imag == 0.0:
        sigma, add = sigma.real, math.fsum
    tol = budget.target * 1e-3
    direct = _direct_terms(sigma, tol)
    reach = 2.0 * abs(sigma) + 10.0 - math.log(tol)  # N theta
    trig = math.sin if parity else math.cos
    powers, flipped, roundings = [], [], []  # at n = 1, 2, ..., shared

    def part(theta: float):
        flip = theta > 0.5 * math.pi
        y = theta - math.pi if flip else theta  # -phi past pi/2, exactly
        scale = -y if parity and flip else 1.0
        if not direct and reach > MAX_TERMS * theta:
            raise DomainError(f"the Euler-Boole sum at s = {sigma}, theta = "
                              f"{theta:g} needs more than {MAX_TERMS} terms")
        n = direct + 1 if direct else math.ceil(reach / theta)  # N
        for k in range(len(powers) + 1, n + 1):
            powers.append(k ** -sigma)
            flipped.append(-powers[-1] if k % 2 else powers[-1])
            roundings.append(2.0 ** -53 * abs(powers[-1]) * (
                6.0 + 1.5 * abs(sigma.imag) * math.log(k)))
        trigs = [trig(k * y) for k in range(1, n)]
        acc = add(map(operator.mul, trigs, flipped if flip else powers))
        size = sum(map(operator.mul, map(abs, trigs), roundings))
        if not direct:
            sign = (-1) ** n if flip else 1
            cos_n, sin_n = sign * math.cos(n * y), sign * math.sin(n * y)
            a, b = (cos_n, sin_n) if parity else (-sin_n, cos_n)
            c = -math.tan(0.5 * y) if flip else 1.0 / math.tan(0.5 * y)
            small = tol * scale / abs(powers[n - 1])  # a term's bound
            coef, tail, tail_size, run = 1.0, 0.5 * b, 0.5 * abs(b), 0
            for k in range(MAX_EVAL_M + 1):
                term = coef * _cot_value(k, c) * (b if k % 2 else a)
                tail, tail_size = tail + term, tail_size + abs(term)
                run = run + 1 if abs(term) <= small else 0
                if run == 2:
                    break
                coef *= (-sigma - k) / ((k + 1.0) * n)
            else:  # the terms never got below tol
                tail_size = math.inf
            acc += powers[n - 1] * tail
            size += roundings[n - 1] * tail_size
        if size > budget.target * max(abs(acc), scale):
            raise ConvergenceError(f"Euler-Boole sum misses its target at s = "
                                   f"{sigma}, theta = {theta:g}", achieved=acc)
        return acc
    return part


def _finite_value(value, theta: float, what: str, *args):
    """value, or DomainError naming what.format(*args) if it overflowed."""
    if cmath.isfinite(value):
        return value
    raise DomainError(f"{what.format(*args)} at theta = {theta:g} "
                      "overflows double precision")


def _part(sigma: complex, parity: int, budget: PrecisionBudget,
          thetas=None):
    """theta -> P(theta) on [0, pi] for every sigma, the odd (parity 1) or
    even (parity 0) part of Z(sigma, e^{i theta}). Right of Re sigma = 1.2
    ``_euler_boole`` for angles all from _BOOLE_EDGE on or a Dirichlet series
    within _DIRECT_TERMS, else ``_circle_part`` sized to the angles thetas
    (all of [0, pi] if None); left of it DLMF 25.13.2 for the
    part, w = 1 - sigma, t = theta/2pi: Gamma(w) (2pi)^{-w} times sin(pi
    w/2) D or cos(pi w/2) S, D and S the difference and sum of zeta(w, t)
    and zeta(w, 1 - t) from one ``hurwitz_pair``, at any angle. The trig
    factor comes first, so P_1 is exactly 0 at sigma = -1, -3, ... and P_0
    at -2, -4, .... Limits: at sigma = 1, P_1 = (pi - theta)/2, P_0 =
    -log(2 sin(theta/2)); at sigma = 0, P_0 = -1/2; at theta = 0, P_1 = 0,
    P_0 = zeta(sigma). An overflow raises DomainError."""
    sigma = complex(sigma)
    if sigma.real > _EXPANSION_EDGE:
        if thetas and min(thetas) >= _BOOLE_EDGE \
                or _direct_terms(sigma, budget.target * 1e-3):
            return _euler_boole(sigma, parity, budget)
        return _circle_part(sigma, parity, budget, thetas)
    real = sigma.imag == 0.0
    w = 1.0 - (sigma.real if real else sigma)
    limit = w == 0.0 or (w == 1.0 and not parity)
    if not limit:
        cos, sin, _ = half_pi_trig(w)
        # complex even for real w: the value is then +0, not -0, at a zero
        pref = gamma_two_pi(w) * (sin if parity else cos)

    def part(theta: float):
        if theta == 0.0:
            value = 0.0 if parity else riemann_zeta(sigma, budget)
        elif limit:
            value = -0.5 if w else (0.5 * (math.pi - theta) if parity
                                    else -math.log(2.0 * math.sin(0.5 * theta)))
        else:
            _, diff, total = hurwitz_pair(w, theta / _TWO_PI, budget)
            value = pref * (diff if parity else total)
        if not cmath.isfinite(value):
            _finite_value(value, theta, "P_{}({:g}, x)", parity, sigma)
        return value.real if real else value
    return part


# ---------------------------------------------------------------------------
# Analytic continuation
# ---------------------------------------------------------------------------


def polylog_continued(s: complex, x,
                      budget: PrecisionBudget = DEFAULT_BUDGET) -> complex:
    """Z(s, x) for x = e^{i theta}, given as theta in radians, and every s.

    theta is reduced exactly to [-pi, pi] (``_angle``); x = 1, theta = 0
    or within rounding of 2 pi k, is zeta(s) (``riemann_zeta``: PoleError
    at s = 1). Right of Re s = 1.2, and at s = 0 and 1, where both parts
    are real and cannot cancel, it is P_0(|theta|) + i sgn(theta)
    P_1(|theta|) from ``_part``. Left of it, with t = |theta|/2pi and w =
    1 - s, it is DLMF 25.13.2 (for theta > 0)

        Gamma(w) (2 pi)^{-w} [e^{i pi w/2} zeta(w,t) + e^{-i pi w/2} zeta(w,1-t)]

    as e^{i pi w/2} D + 2 cos(pi w/2) zeta(w,1-t), D = zeta(w,t) -
    zeta(w,1-t), so that no two large terms cancel; theta < 0 swaps t and 1 -
    t, which takes 2 cos(pi w/2) (zeta(w,1-t) + D) - e^{i pi w/2} D. For
    |w| < NEAR_ZERO the bracket is cos(pi w/2) S +- i sin(pi w/2) D, S the
    sum, which keeps its accuracy at the pole of Gamma(w). All four come
    from one ``hurwitz_pair``. Im s > 0 goes through conj Z(conj s, 1/x) to
    keep |e^{i pi w/2}| <= 1.
    """
    s = read_s(s)
    th = _angle(x)
    if th == 0.0:
        return riemann_zeta(s, budget)
    i_sign = 1j if th > 0.0 else -1j
    if s.real > _EXPANSION_EDGE or s == 0.0 or s == 1.0:
        angle = abs(th)
        even = _part(s, 0, budget, (angle,))(angle)
        odd = _part(s, 1, budget, (angle,))(angle)
        return complex(even + i_sign * odd)
    if s.imag > 0.0:
        return polylog_continued(s.conjugate(), -th, budget).conjugate()
    w = 1.0 - s
    cos, sin, phase = half_pi_trig(w)
    zeta_b, diff, total = hurwitz_pair(w, abs(th) / _TWO_PI, budget)
    if abs(w) < NEAR_ZERO:
        # Gamma(w) has a pole at w = 0, where the bracket vanishes: keep
        # its relative accuracy through cos S
        bracket = cos * total + i_sign * sin * diff
    elif th > 0.0:
        bracket = phase * diff + 2.0 * cos * zeta_b
    else:  # x = e^{2 pi i (1 - t)}: the same form with zeta(w,t) and -D
        bracket = 2.0 * cos * (zeta_b + diff) - phase * diff
    return _finite_value(gamma_two_pi(w) * bracket, th, "Z({:g}, x)", s)


def polylog_via_jonquiere(s: float, x,
                          budget: PrecisionBudget = DEFAULT_BUDGET) -> complex:
    """Z(s, x) for real s and x = e^{i theta}, given as theta in radians:
    ``polylog_continued``, which takes Jonquiere's formula (DLMF 25.13.2)
    left of Re s = 1.2, and zeta(s) at x = 1. s may be a complex with zero
    imaginary part; any other raises DomainError."""
    s = read_s(s)
    if s.imag:
        raise DomainError(f"polylog_via_jonquiere requires real s, got {s}")
    return polylog_continued(s.real, x, budget)


# ---------------------------------------------------------------------------
# Exact closed forms at non-positive integers
# ---------------------------------------------------------------------------

MAX_CLOSED_M = 30
"""Largest m that ``polylog_closed_form`` accepts; larger m raise
DomainError. It is the range the tests cover: the integer rows of Q_m equal
the Eulerian form exactly."""

MAX_EVAL_M = 163
"""Largest m that ``polylog_eval_neg`` accepts; larger m raise DomainError.
It is the last m whose cot(theta/2) rows fit in a double (their largest
entry is 3.1e307 at m = 163). Up to it the values are within
1e-13 of mpmath, next to theta = pi too: the terms are all positive, so the
error grows only like m ulps."""


def _check_m(m: int, bound: int) -> None:
    if m < 0:
        raise DomainError("Z(-m, x) closed form: m must be non-negative")
    if m > bound:
        raise DomainError(
            f"Z(-m, x) closed form supports m <= {bound}, got m = {m}")


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
    _check_m(m, MAX_CLOSED_M)
    num = Polynomial([0] + _eulerian_row(m), "x")
    den = Polynomial([(-1) ** k * math.comb(m + 1, k) for k in range(m + 2)],
                     "x")
    return RationalFunction(num, den, coprime=True)


@functools.lru_cache(maxsize=None)
def _cot_poly(m: int) -> tuple:
    """Integer coefficients of Q_m, ascending: Q_0 = c, Q_{m+1} = (1 + c^2)
    Q_m', so c^k in Q_{m+1} has (k+1) a_{k+1} + (k-1) a_{k-1} from the a_j
    of Q_m. Q_m has the parity of m + 1 and nonnegative coefficients, and
    Q_{2k-1}(0) are the tangent numbers 1, 2, 16, 272, ...."""
    if m == 0:
        return (0, 1)
    a = (0,) + _cot_poly(m - 1) + (0, 0)  # a[k] is a_{k-1}
    return tuple((k + 1) * a[k + 2] + (k - 1) * a[k] for k in range(m + 2))


@functools.lru_cache(maxsize=None)
def _cot_row(m: int) -> tuple:
    """The nonzero coefficients of Q_m / 2^{m+1}, ascending, exactly."""
    return tuple(math.ldexp(a, -m - 1) for a in _cot_poly(m)[(m + 1) % 2::2])


def _cot_value(m: int, c: float) -> float:
    """(-1)^{ceil(m/2)} Q_m(c) / 2^{m+1}, the nonzero part of (i/2)^{m+1}
    Q_m(c), by Horner's rule in c^2: for c >= 0 nothing cancels; scaled
    first, the sum overflows only with its value."""
    row = _cot_row(m)
    c2, q = c * c, row[-1]  # from the top: no 0 * inf
    for a in row[-2::-1]:
        q = q * c2 + a
    # times c for even m, and (i/2)^{m+1} 2^{m+1} = +-1 or +-i
    return (q if m % 2 else q * c) * (-1) ** ((m + 1) // 2)


def polylog_eval_neg(m: int, x) -> complex:
    """Float evaluation of Z(-m, x) at x = e^{i theta}, given as theta in
    radians, with c = cot(theta/2):

        Z(-m, x) = -[m = 0]/2 + (i/2)^{m+1} Q_m(c),

    as x/(1 - x) = -1/2 + (i/2) c and x d/dx = (i/2)(1 + c^2) d/dc (Hoffman,
    Amer. Math. Monthly 102, 1995), from ``_cot_value`` on the angle reduced
    to (0, pi], where c >= 0. The value is exactly real for odd m and
    exactly imaginary for even m >= 2, as the parity identity Z(-m, x) +
    (-1)^m Z(-m, 1/x) = 0 demands. An overflow raises DomainError.
    """
    _check_m(m, MAX_EVAL_M)
    th = _angle(x)
    if th == 0.0:
        raise DomainError("Z(-m, x) closed form requires x != 1")
    if th < 0.0:
        # Z(-m, conj x) = conj Z(-m, x); negation is exact, so the parity
        # identity holds to the last ulp
        return polylog_eval_neg(m, -th).conjugate()
    half = th / 2.0  # 0 only for the least subnormal theta
    q = _cot_value(m, 1.0 / math.tan(half) if half else math.inf)
    value = complex(q, 0.0) if m % 2 else complex(-0.5 if m == 0 else 0.0, q)
    return _finite_value(value, th, "Z(-{}, x)", m)
