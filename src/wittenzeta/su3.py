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
converges like e^{-2 pi d/h} in its step h, d the distance of the nearest
pole, each halving about squaring the error (Trefethen and Weideman, SIAM
Rev. 56, 2014). It stops when two levels agree to the target, or, once
three levels exist and their two differences D2 > D1 shrink, when the
quadratic estimate D1^2/D2 of the last level's own error is within a tenth
of the target; the last halving, about half of the nodes, is then not
needed to confirm the level before it. One rule serves every s: steps
from 1 in Im z, and a 1e-9 floor on the agreement of two levels, but not
on the estimate. Each level first subtracts the error of the simple poles
beside the line, those of Gamma(-z), Gamma(s+z), zeta(s-z) and zeta(2s+z),
whose residues are the terms up to sign: the error of a simple pole has a
closed form (Poisson summation), and the rule then converges as if the
nearest pole were that far away. A rule folded about t = 0 (real s, and the
even line) subtracts the poles within 4 of the line; the two-sided residue
line of complex s those within 2, where its terms can cancel an integral
many times the value (at -1.2+40i, with 4, the value was 1.21 times its
1e-10 claim off mpmath, with 2 0.70 times). log Gamma(-z) on the residue
line does not depend on s and is kept for the last 4096 nodes. For Re s
>= 5/6 the line is z = -s/2 + iu with no residue terms: z <-> -s-z swaps
the gammas and the zetas, so the integrand is even in u for every s, no
terms cancel, and the poles are at least min(Re s/2, 3 Re s/2 - 1) >= 1/4
away; for real s it is 2^s/Gamma(s) |Gamma(s/2+iu) zeta(3s/2+iu)|^2, one
gamma and one zeta per node. From Re s = 8 on no pole is in reach and the
integrand is about a Gaussian of width sqrt(Re s/2), whose nodes at steps
1 and 1/2 set the cost: 243 integrand calls at s = 1000. Next to s = 1 + k
the even line's poles at k and s - 1, and at -s - k and 1 - 2s, merge into
double poles, and their residues, of size 1/(s - 1 - k), carry a rounding
that grows with them (4e-11 at 1 + 1e-7i): within _MERGE_GAP = 1e-3 of
1 + k the two pairs are left to the rule, which there converges as before,
and s = 1, 2, 3 are ordinary points. Below 5/6 s takes m = max(1,
ceil(3/2 - 2 Re s)) residues, the fewest whose pole-free gap (max(m-1,
1-2 Re s), m) is at least 1/2 wide; c halves the gap. At s = 0, -1, -2,
... the value is the exact limit ``special_value_su3``: 1/3 at 0,
zero below (for even n by ``bernoulli_convolution_check``).

Two roundings are bounded, and ConvergenceError is raised, the value as
``achieved``, where the bound exceeds the target. Next to 0 the rounding of
1 + 2s and 2s - 1 in zeta(2s+1) and Gamma(2s-1) costs up to 4e-18/|s| (at
most 2.3e-18/|s| against mpmath at s = +-10^-k, k = 2 .. 13, and at 40
random s between 1e-13 and 1e-5 in size): below |s| = 4e-5 at 1e-13, 4e-8
at 1e-10 and 4e-12 at 1e-6. Below |s| = 5.1e-14 (_ZERO_BAND) 1 + 2s rounds
into riemann_zeta's pole window, and below about 5.6e-17 2s - 1 rounds to
the pole of Gamma at -1: there the contour is not run, and the exact limit
1/3, within 2.1 |s| of the value (zeta^W(s) = 1/3 + 2.07 s + ...), stands
in for it, so that ConvergenceError carries 1/3 at every target below
8e-5. On the even line the exponent s log 2 -
log Gamma(s) + 2 Re log Gamma(s/2+iu) adds terms of size s log s, and its
rounding is bounded by _EXP_ROUNDING times the sum of |s log 2|,
|log Gamma(s)| and 2 |log Gamma(s/2)| (against 1 + 2 3^-s + 2 6^-s + 8^-s
on real s from 35 to 1000 in steps of 0.37 the error is at most 0.92 eps
times that sum, and 1.8e-12 at 961): right of Re s of about 42 at 1e-13
and 252 at 1e-12, never at 1e-11 or above. The direct series
``mt_series``, an independent check for Re s > 1, extrapolates the square
sums S(N), N = 8, 16, ..., 4096, each one FFT self-convolution of the
powers n^{-s}, against the tail orders N^{1-2s-j} and N^{2-3s-k} in turn.
"""

from __future__ import annotations

import cmath
import functools
import math
from math import factorial

from . import exact  # the package's lazy module: runs at an exact value
from .errors import ConvergenceError, DomainError, PoleError
from .numerics import (DEFAULT_BUDGET, PrecisionBudget, log_gamma, read_s,
                       riemann_zeta)

_POLE_TOL = 1e-6  # the genuine poles s = 2/3 and s = 1/2 - j
_EVEN_LINE = 5.0 / 6.0  # the even line's strip is >= 1/4 wide from here on
_MAX_RE_S, _MAX_IM_S = 1000.0, 250.0  # each call then takes under 0.7 s:
# at 1e-13, 0.10-0.16 s at 1+250i (even line), 0.1-0.2 s at 0.8+100i and
# 0.45 s at 0.8+205i (residue line)
_MAX_HALVINGS = 8  # trapezoid steps 1/2 .. 1/256
_ZERO_ROUNDING = 4e-18  # next to s = 0 the error is up to this over |s|
_ZERO_BAND = 5.1e-14  # below, 1 + 2s rounds into riemann_zeta's pole window
_EXP_ROUNDING = 4.4e-16  # the even line's, per unit of its exponent's size
_ESTIMATE_SHARE = 0.1  # of the target, for the trapezoid's error estimate
_POLE_REACH = 2.0  # the two-sided rule subtracts the poles this near
_EVEN_REACH = 4.0  # and a folded one, on either line
_MERGE_GAP = 1e-3  # the even line leaves out pairs of poles this near 1+k
_MT_FIRST_N = 8  # mt_series' first square sum, S(8)
_MT_MIN_ORDERS = 3  # the orders removed before its first stop test
_MT_MAX_N = 4096  # its last: the whole ladder takes about 1 ms (Xeon core)
_MT_SHARE = 0.01  # of the target, for its error estimate
_MT_MAX_RE = 512.0  # far from 1022, where 2^-s, the sum's first term,
# turns subnormal; the value rounds to 1 from Re s of about 35 on


# ---------------------------------------------------------------------------
# Direct double series
# ---------------------------------------------------------------------------

def _powers(s: complex, count: int):
    """n^{-s} for n = 1 .. count, as a numpy array: real for real s."""
    import numpy as np  # lazily: the rest of the package does not need it
    n = np.arange(1, count + 1, dtype=np.float64)
    return n ** (-s.real) if s.imag == 0.0 else np.exp(-s * np.log(n))


def _square_sum(pw, n_max: int) -> complex:
    """sum over 1 <= m, n <= n_max of (m n (m+n))^{-s}, from the powers
    pw = ``_powers(s, count)``, count >= 2 n_max.

    That is sum_k k^{-s} c_k, c_k = sum_{m+n=k} m^{-s} n^{-s}, and one FFT
    self-convolution of the N powers, padded to 2N, gives every c_k. It is
    the plain finite double sum, sharing nothing with the Mellin-Barnes route.
    """
    import numpy as np
    fft, ifft = (np.fft.fft, np.fft.ifft) if np.iscomplexobj(pw) \
        else (np.fft.rfft, np.fft.irfft)
    c = ifft(fft(pw[:n_max], 2 * n_max) ** 2, 2 * n_max)  # c[k-2] = c_k
    return complex(np.dot(pw[1:2 * n_max], c[:-1]))


def mt_series(s: complex,
              budget: PrecisionBudget = DEFAULT_BUDGET) -> complex:
    """2^s times the diagonal Mordell-Tornheim sum, for 1 < Re s < 512.

    The square sums S(N), N = 8, 16, ... (``_square_sum``: plain finite
    sums, sharing nothing with the continuation) are Richardson-
    extrapolated against the tail's orders, one more with each sum, until,
    from the fourth sum on, the distance from the extrapolant of one order
    fewer is within _MT_SHARE of the target, relative to 1 + |value|. Past
    S(_MT_MAX_N) (next to Re s = 1 at 1e-13, or at |Im s| >> N)
    ConvergenceError is raised, the extrapolant as ``achieved``.
    """
    s = read_s(s)
    if not 1.0 < s.real < _MT_MAX_RE:
        raise DomainError(f"mt_series requires 1 < Re s < {_MT_MAX_RE:g}")
    pref = 2.0 ** s if s.imag == 0.0 else cmath.exp(s * cmath.log(2.0))
    # S(inf) - S(N) ~ sum c_e N^e, e = 1 - 2s - j (one of m, n past N) and
    # 2 - 3s - k (both), by falling real part; at integer s two coincide,
    # with a log N term that the repeat removes. Only 2^e, Re e < 0, is
    # formed; S(8) .. S(4096) take 9 orders at most
    orders = sorted([1.0 - 2.0 * s - j for j in range(9)]
                    + [2.0 - 3.0 * s - k for k in range(9)],
                    key=lambda e: -e.real)
    weights = [q / (1.0 - q) for q in
               (cmath.exp(e * math.log(2.0)) for e in orders)]
    diag, n = [], _MT_FIRST_N  # diag[l]: the newest extrapolant of l orders
    pw = _powers(s, 2 * n << _MT_MIN_ORDERS)  # the first sums share it
    while True:
        if len(pw) < 2 * n:
            pw = _powers(s, 2 * n)
        new = [_square_sum(pw, n)]
        for old, w in zip(diag, weights):
            new.append(new[-1] + (new[-1] - old) * w)
        diag, value = new, pref * new[-1]
        if len(diag) > _MT_MIN_ORDERS and abs(pref * (diag[-1] - diag[-2])) \
                <= _MT_SHARE * budget.target * (1.0 + abs(value)):
            return value
        if n == _MT_MAX_N:
            raise ConvergenceError(
                f"mt_series extrapolation not converged at s={s}",
                achieved=value)
        n *= 2


# ---------------------------------------------------------------------------
# Mellin-Barnes continuation
# ---------------------------------------------------------------------------

class MBParams:
    """Strip selector n: the domain's left edge, Re s > -n - 1/4. M = 2n+2
    is the largest m(s) = max(1, ceil(3/2 - 2 Re s)) in the strip, the
    residues of Gamma(-z) of a second contour for checks."""

    __slots__ = ("n",)

    def __init__(self, n: int = 1):
        if n < 1:
            raise DomainError("MBParams.n must be >= 1")
        self.n = n

    @property
    def M(self) -> int:
        return 2 * self.n + 2


@functools.lru_cache(maxsize=4096)
def _log_gamma_neg(c: float, t: float) -> complex:
    """log Gamma(-z) at z = c + it on the residue line. It does not depend
    on s, and the nodes t repeat from call to call: the rule's are dyadic
    steps."""
    return log_gamma(complex(-c, -t))


def _mb_direct(s: complex, m: int, budget: PrecisionBudget) -> complex:
    """The Mellin-Barnes formula with m residues of Gamma(-z): m = 0 is the
    even line, m >= 1 the residue line (Re s < m). The rule is handed the
    integrand's simple poles within _EVEN_REACH of the line where it is
    folded (real s, and the even line), or _POLE_REACH of the two-sided
    residue line of complex s, each residue one of the terms up to
    sign: Gamma(-z)'s at k (minus the k-th term), Gamma(s+z)'s at -s-k (the
    k-th term), zeta(s-z)'s at s-1 (minus the gamma-ratio term) and
    zeta(2s+z)'s at 1-2s (that term). A residue is formed only for a pole in
    reach, or for a term the residue line adds. Within _MERGE_GAP of s = 1+k
    the poles at k and s-1, and at -s-k and 1-2s, merge into double poles
    with residues of about +-1/(s-1-k): the four are left out. The rule's
    ConvergenceError is passed on with its last level's value."""
    real, lg_s = s.imag == 0.0, log_gamma(s)
    pow2 = cmath.exp(s * math.log(2.0))
    folded = real or m == 0
    reach = _EVEN_REACH if folded else _POLE_REACH
    if m == 0:  # z = -s/2 + iu
        centre = -0.5 * s
    else:  # Re z = c, right of the residues at z = s - 1 and z = 0 .. m-1
        centre = complex(0.5 * (max(m - 1.0, 1.0 - 2.0 * s.real) + m))
    c, n = centre.real, round(s.real)
    merged = n - 1 if n >= 1 and abs(s - n) < _MERGE_GAP else -1
    terms, near = 0.0, []
    if m or (abs(s.real - 1.0 - c) < reach and merged < 0):
        # Gamma(1 - s) from Re(1 - s + j) >= 1/2 on the even line: the
        # reflection's sine overflows from |Im s| of about 222
        j = 0 if m else math.ceil(s.real - 0.5)
        ratio = riemann_zeta(3.0 * s - 1.0, budget) * cmath.exp(
            log_gamma(2.0 * s - 1.0) + log_gamma(1.0 - s + j) - lg_s)
        if j:
            ratio /= math.prod(1.0 - s + i for i in range(j))
        if m:
            terms = ratio
        near = [(s - 1.0, -ratio), (1.0 - 2.0 * s, ratio)]
    poch = 1.0 + 0.0j  # (s)_k
    # k < c + reach: k = m, m + 1, ... on the residue line lie right of it
    for k in range(math.ceil(c + reach)):
        if k != merged:
            term = (-1.0) ** k * poch / factorial(k) \
                * riemann_zeta(2.0 * s + k, budget) \
                * riemann_zeta(s - k, budget)
            if k < m:
                terms += term
            near += [(complex(k), -term), (-s - k, term)]
        poch *= s + k
    # z = centre + it: the pole z_j is t_j = -i(z_j - centre), with residue
    # -i R_j
    poles = [(-1j * (z - centre), -1j * pow2 * r) for z, r in near
             if abs(z.real - c) < reach]
    # 2^s/Gamma(s) inside exp: O(1) at large Re s, as _trapezoid's stop needs
    log_pref = s * math.log(2.0) - lg_s

    def integrand(t: float) -> complex:
        z = centre + complex(0.0, t)
        lg, zt = log_gamma(s + z), riemann_zeta(2.0 * s + z, budget)
        if real and m == 0:  # s + z = conj(-z), 2s + z = conj(s - z)
            return math.exp((log_pref + 2.0 * lg.real).real) * abs(zt) ** 2
        lg_neg = _log_gamma_neg(centre.real, t) if m else log_gamma(-z)
        v = cmath.exp(log_pref + lg + lg_neg) * zt \
            * riemann_zeta(s - z, budget)
        return v.real if real else v  # for real s, f(-t) = conj f(t)

    def value(integral: complex) -> complex:
        v = pow2 * terms + integral / (2.0 * math.pi)
        return complex(v.real) if real else v

    # even in t: the even line for every s, Re f on the other for real s.
    # The stop tests are relative to 2 pi times the value, which the terms
    # can make far smaller than the integral (2.8e8 against 3.3e5 at
    # -1.2+40i, where the integral's own scale left 1.2e-10 at 1e-10)
    try:
        return value(_trapezoid(integrand, budget.target, folded, poles,
                                shift=2.0 * math.pi * pow2 * terms))
    except ConvergenceError as err:  # it carries the integral
        err.achieved = value(err.achieved)
        raise


def _trapezoid(f, target: float, folded: bool = False, poles=(),
               shift=0.0) -> complex:
    """Integral of f over the real line by the trapezoid rule.

    The nodes run out from t = 0 in steps of 1 until two in a row fall below
    target/1000; the step is then halved, each level adding only the odd
    nodes. For f analytic in a strip about the line and decaying
    exponentially the error falls geometrically with the step, and each
    halving about squares it. ``poles`` lists simple poles (t_j, r_j) of f
    beside the line, with their residues: each level T_h first subtracts
    their share of its error (``_pole_error``), so the strip the rule sees
    reaches the nearest pole not listed. Level T_L is returned when it
    agrees with T_{L-1} to max(target, 1e-9), or, from the second halving
    on, when the differences shrink, D1 = |T_L - T_{L-1}| < D2 = |T_{L-1} -
    T_{L-2}|, and the quadratic estimate of T_L's own error, D1^2/D2, is at
    most _ESTIMATE_SHARE of the target itself (no 1e-9 floor there), both
    relative to 1 + |shift + T_L|, ``shift`` being what the caller adds to
    the integral. With ``folded`` f is even about t = 0 (an even f about
    another point would repeat its nodes at step 1/2 and stop the halving
    early): each node t > 0 counts twice, and -t is not run. A real-valued
    f with poles is Re F, the poles are F's, and the real part of their
    error is subtracted; a complex f, folded or not, has the whole error
    subtracted.
    """
    h, tol = 1.0, max(target, 1e-9)
    weight, sides = (2.0, (1,)) if folded else (1.0, (1, -1))
    total, ends = f(0.0), [0, 0]  # ends: hi, lo; lo stays 0 when folded
    real = isinstance(total, float)  # f = Re F: Re of the poles' error
    for i, step in enumerate(sides):
        k = quiet = 0
        while quiet < 2:
            k += step
            v = f(float(k))
            total += weight * v
            quiet = quiet + 1 if abs(v) < 1e-3 * target else 0
        ends[i] = k
    hi, lo = ends  # total: the raw sum at step h = 1
    level = total - _pole_error(poles, h, real)
    last = 0.0  # D2; 0 until two levels exist, so the estimate waits
    for _ in range(_MAX_HALVINGS):
        odd = weight * sum(f(lo + (j + 0.5) * h)
                           for j in range(round((hi - lo) / h)))
        total, h = 0.5 * (total + h * odd), 0.5 * h
        refined = total - _pole_error(poles, h, real)
        diff = abs(refined - level)
        if _settled(diff, last, tol, target, 1.0 + abs(shift + refined)):
            return refined
        level, last = refined, diff
    raise ConvergenceError("contour quadrature did not converge",
                           achieved=level)


def _pole_error(poles, h: float, real: bool = False) -> complex:
    """The error h sum_k f(kh) - int f that simple poles (t_j, r_j) of f
    off the real line give (Poisson summation; the sum of r/(kh - t) is a
    cotangent): 2 pi i r q/(1 - q) with q = e^{2 pi i t/h} above the line,
    minus that with q = e^{-2 pi i t/h} below it. With ``real`` its real
    part, for a rule that sums Re f."""
    err = 0.0
    for t, r in poles:
        side = 1.0 if t.imag > 0.0 else -1.0
        q = cmath.exp(side * 2j * math.pi * t / h)
        err += side * 2j * math.pi * r * q / (1.0 - q)
    return err.real if real else err


def _settled(d1: float, d2: float, tol: float, target: float,
             scale: float) -> bool:
    """Whether the trapezoid rule stops at level T_L, where D1 = |T_L -
    T_{L-1}| and D2 = |T_{L-1} - T_{L-2}| (0 at the first halving, where no
    estimate is made): the two levels agree to tol, or the differences
    shrink and the quadratic estimate D1^2/D2 of T_L's own error is within
    _ESTIMATE_SHARE of the target. Both relative to scale, which
    ``_trapezoid`` takes as 1 + |shift + T_L|."""
    return d1 <= tol * scale or (
        d1 < d2 and d1 * d1 <= _ESTIMATE_SHARE * target * scale * d2)


_panel_quad = _trapezoid  # the name bench/tracing.py wraps


def witten_su3_continued(s: complex, params: MBParams = MBParams(),
                         budget: PrecisionBudget = DEFAULT_BUDGET) -> complex:
    """zeta^W_{SU(3)}(s) on the even line for Re s >= 5/6, on the residue
    line right of m(s) residues below it, exactly at s = 0, -1, -2, ...

    The poles s = 2/3 and 1/2 - j raise PoleError. Outside -n - 1/4 < Re s
    <= 1000, |Im s| <= 250 (at s = 1000 the even line takes 243 integrand
    calls, 4.4-6.3 ms, at 1e-10, at 1 + 250i 0.10-0.16 s, and the residue
    line 0.1-0.2 s at 0.8 + 100i at 1e-13, on one core of a shared Xeon)
    and where a sine overflows (left of Re s = 3/4 from |Im s| = 111 on,
    left of Re s = 1 from about 210, the edge moving with the target)
    DomainError is raised. ConvergenceError, the value as ``achieved``, is
    raised where a rounding bound exceeds the target: next to s = 0 (within
    5.1e-14 of it, with the exact limit 1/3 as ``achieved``) and right of
    Re s of about 42 at 1e-13, 252 at 1e-12 (see the module docstring); and
    where the rule does not settle. A params that is not an MBParams
    raises TypeError: the budget is the third argument, or budget=.
    """
    if not isinstance(params, MBParams):
        raise TypeError("params must be MBParams, got "
                        f"{type(params).__name__}; pass the precision "
                        "budget as budget=")
    s, lo = read_s(s), -params.n - 0.25
    if not (lo < s.real <= _MAX_RE_S and abs(s.imag) <= _MAX_IM_S):
        raise DomainError(f"s={s} outside {lo} < Re s <= {_MAX_RE_S:g}, "
                          f"|Im s| <= {_MAX_IM_S:g} (strip n={params.n})")
    if s.imag == 0.0 and s.real <= 0.0 and s.real == round(s.real):
        return complex(special_value_su3(-round(s.real)))
    for pole in (2.0 / 3.0, 0.5 - max(0, round(0.5 - s.real))):
        if abs(s - pole) < _POLE_TOL:
            raise PoleError(f"zeta^W_SU(3) pole near s = {pole}",
                            location=pole)
    # the fewest residues whose pole-free gap is 1/2 wide; <= params.M
    m = 0 if s.real >= _EVEN_LINE else max(1, math.ceil(1.5 - 2.0 * s.real))
    if abs(s) < _ZERO_BAND:  # within 2.1 |s| of the exact limit
        value = complex(special_value_su3(0))
    else:
        value = _mb_direct(s, m, budget)
    if m:  # next to s = 0, of 1 + 2s
        rounding = _ZERO_ROUNDING / abs(s)
    else:  # of s log 2 - log Gamma(s) + 2 Re log Gamma(s/2 + iu)
        x = s.real
        rounding = _EXP_ROUNDING * (x * math.log(2.0) + abs(math.lgamma(x))
                                    + 2.0 * abs(math.lgamma(0.5 * x)))
    if rounding > budget.target:
        raise ConvergenceError(
            f"at s={s} the rounding costs up to {rounding:.1e}, above the "
            f"target {budget.target:g}", achieved=value)
    return value


# ---------------------------------------------------------------------------
# Exact special values at negative integers
# ---------------------------------------------------------------------------

MAX_SPECIAL_N = 200
"""Largest n that ``special_value_su3`` and ``bernoulli_convolution_check``
accept; larger n raise DomainError. Each is a sum of n + 1 products of exact
zeta(-k), and each asks for B_{3n+2} first, so the table of Bernoulli
numbers is built once. At n = 200 in a fresh process that has run su3,
``special_value_su3`` takes 29 ms, most of it that table and the first run
of ``exact``, which no floating route runs, and 3 ms once both are done;
``bernoulli_convolution_check(200)`` takes 31 ms, and 6.5 ms once both are
done (medians of 15 processes on one core of a shared Xeon, Python 3.11,
no cached bytecode)."""


def _check_special_n(n: int) -> None:
    if n > MAX_SPECIAL_N:
        raise DomainError(
            f"the exact SU(3) path supports n <= {MAX_SPECIAL_N}, got n = {n}")


def special_value_terms(n: int) -> tuple[exact.Fraction, exact.Fraction,
                                         exact.Fraction]:
    """The three exact pieces of the continuation's limit at s = -n, n >= 0:
    the gamma-ratio term, the finite zeta-product sum (the Pochhammer
    (-n)_k kills k > n), and the k = 2n+1 term where the vanishing
    Pochhammer meets the zeta pole, leaving half the residue. The integral
    term vanishes with 1/Gamma(s)."""
    if n < 0:
        raise DomainError("special_value_terms requires n >= 0")
    _check_special_n(n)
    from fractions import Fraction
    zeta_neg_int = exact.zeta_neg_int
    half_pow = Fraction(1, 2 ** n)
    t1 = half_pow * exact.gamma_ratio_at_neg(n) * factorial(n) \
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


def special_value_su3(n: int) -> exact.Fraction:
    """Exact value of zeta^W_{SU(3)}(-n) for n >= 0: 1/3 at n = 0, and
    expected 0 for n >= 1."""
    return sum(special_value_terms(n))


def bernoulli_convolution_check(n: int) -> tuple[exact.Fraction,
                                                 exact.Fraction]:
    """For even n: sum_{k+l=n} zeta(-n-k) zeta(-n-l)/(k! l!) versus
    n!/(2n+1)! * zeta(-3n-1); returns (lhs, rhs), equal when the identity
    holds."""
    if n < 2 or n % 2:
        raise DomainError("bernoulli_convolution_check requires even n >= 2")
    _check_special_n(n)
    from fractions import Fraction
    zeta_neg_int = exact.zeta_neg_int
    # the largest Bernoulli index, B_{3n+2}, first: one table build
    rhs = Fraction(factorial(n), factorial(2 * n + 1)) \
        * zeta_neg_int(3 * n + 1)
    lhs = Fraction(0)
    for k in range(0, n + 1):
        l = n - k
        lhs += zeta_neg_int(n + k) * zeta_neg_int(n + l) \
            / (factorial(k) * factorial(l))
    return lhs, rhs
