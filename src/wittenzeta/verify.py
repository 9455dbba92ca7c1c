"""Verification suites: every special value, zero, derivative, identity,
and absolute limit in the catalog, run as named checks with explicit
tolerances. The CLI ``verify`` command prints these; the pytest acceptance
tests assert the same facts independently.

One check is expected to fail and is reported honestly: the continuation of
the SU(3) zeta has a genuine simple pole at s = 1/2 (the residues of the
gamma-ratio term and the k = 0 finite-sum term add up to sqrt(2) zeta(1/2)
!= 0), so the strip-independence comparison listed at s = 0.5 cannot be
evaluated there; the residue there is compared on two contours instead.
"""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction

from . import padic, polylog, su2, su3, witten_core
from .errors import PoleError
from .exact import Polynomial, RationalFunction
from .numerics import DEFAULT_BUDGET, hurwitz_zeta, riemann_zeta

_PI = math.pi


class CheckResult:
    """One named check: its verdict, and what was observed and expected
    within which tolerance, as text."""

    __slots__ = ("name", "passed", "observed", "expected", "tol", "note")

    def __init__(self, name: str, passed: bool, observed: str, expected: str,
                 tol: str, note: str = ""):
        self.name, self.passed, self.observed = name, passed, observed
        self.expected, self.tol, self.note = expected, tol, note

    def as_dict(self) -> dict:
        """The fields by name, in declaration order."""
        return {key: getattr(self, key) for key in self.__slots__}


def _check(results, name, passed, observed, expected, tol, note=""):
    results.append(CheckResult(name, bool(passed), str(observed),
                               str(expected), str(tol), note))


def _close(a, b, tol) -> bool:
    return abs(a - b) <= tol


# ---------------------------------------------------------------------------
# polylog suite
# ---------------------------------------------------------------------------

_CLOSED_FORMS = {
    0: ([0, 1], [1, -1]),                      # x / (1-x)
    1: ([0, 1], [1, -2, 1]),                   # x / (1-x)^2
    2: ([0, 1, 1], [1, -3, 3, -1]),            # x(1+x) / (1-x)^3
    3: ([0, 1, 4, 1], [1, -4, 6, -4, 1]),
    4: ([0, 1, 11, 11, 1], [1, -5, 10, -10, 5, -1]),
    5: ([0, 1, 26, 66, 26, 1], [1, -6, 15, -20, 15, -6, 1]),
}


def suite_polylog() -> list:
    out = []
    for m, (num, den) in _CLOSED_FORMS.items():
        got = polylog.polylog_closed_form(m)
        want = RationalFunction(Polynomial(num, "x"), Polynomial(den, "x"))
        _check(out, f"closed form Z(-{m}, x)", got == want, got, want, "exact")
    # Jonquiere residual on the 9-point grid
    worst = 0.0
    for s in (-0.5, 0.5, 2.5):
        for th in (_PI / 3, _PI / 2, _PI):
            zp = polylog.polylog_continued(s, th)
            zm = polylog.polylog_continued(s, -th)
            lhs = cmath.exp(-1j * _PI * s / 2) * zp \
                + cmath.exp(1j * _PI * s / 2) * zm
            rhs = (2 * _PI) ** s / math.gamma(s) \
                * hurwitz_zeta(1.0 - s, th / (2 * _PI)).real
            worst = max(worst, abs(lhs - rhs))
    _check(out, "Jonquiere residual, 9-point grid", worst <= 1e-10,
           f"max {worst:.2e}", "0", "1e-10")
    # parity identities
    thetas = [k * _PI / 6 for k in range(1, 12)]
    w0 = max(abs(polylog.polylog_eval_neg(0, th)
                 + polylog.polylog_eval_neg(0, -th) + 1.0) for th in thetas)
    _check(out, "Z(0,x) + Z(0,1/x) = -1", w0 <= 1e-12,
           f"max {w0:.2e}", "0", "1e-12")
    wm = 0.0
    for m in range(1, 7):
        for th in thetas:
            wm = max(wm, abs(polylog.polylog_eval_neg(m, th)
                             + (-1.0) ** m * polylog.polylog_eval_neg(m, -th)))
    _check(out, "Z(-m,x) + (-1)^m Z(-m,1/x) = 0, m <= 6", wm <= 1e-10,
           f"max {wm:.2e}", "0", "1e-10")
    # overlap consistency: the continuation is the zeta(s - k) expansion
    # right of Re s = 1.2 and the Hurwitz formula left of it, so every
    # point compares the series with an independent route
    wo = 0.0
    for s in (1.5, 2.0, 3.0, 0.4, 0.8, 1.1, 0.6 + 2j):
        for th in (_PI / 3, _PI, 3 * _PI / 2):
            wo = max(wo, abs(polylog.polylog_series(s, th)
                             - polylog.polylog_continued(s, th)))
    _check(out, "series vs continuation overlap", wo <= 1e-10,
           f"max {wo:.2e}", "0", "1e-10")
    return out


# ---------------------------------------------------------------------------
# su2 suite
# ---------------------------------------------------------------------------

def suite_su2() -> list:
    out = []
    cases = [(0.0, -1.0 / 12.0), (_PI / 3, 1.0), (_PI / 2, 0.5),
             (2 * _PI / 3, 1.0 / 3.0), (_PI, 0.25)]
    worst = max(abs(su2.witten_L_su2(-1.0, th).real - want)
                for th, want in cases)
    _check(out, "zeta^W(-1, g) special values", worst <= 1e-10,
           f"max {worst:.2e}", "{-1/12, 1, 1/2, 1/3, 1/4}", "1e-10")
    for m in (2, 4):
        exact = su2.special_value_neg_even(m, 2 * _PI / 5)
        fl = max(abs(su2.witten_L_su2(-float(m), th))
                 for th in (0.0, 2 * _PI / 5, _PI))
        _check(out, f"zeta^W(-{m}, g) = 0", exact == 0 and fl <= 1e-10,
               f"exact {exact}, float max {fl:.2e}", "0", "exact / 1e-10")
    z3 = riemann_zeta(3.0).real
    d_cases = [(0.0, -z3 / (4 * _PI ** 2)), (_PI, 7 * z3 / (4 * _PI ** 2)),
               (_PI / 2, 2 * 0.9159655941772190151 / _PI)]
    worst = max(abs(su2.derivative_at_minus2(th) - want) for th, want in d_cases)
    _check(out, "derivative at s=-2 (three points)", worst <= 1e-10,
           f"max {worst:.2e}", "-z(3)/4pi^2, 7z(3)/4pi^2, 2G/pi", "1e-10")
    grid = [k * _PI / 51 for k in range(1, 51)]
    pos = all(su2.derivative_at_minus2(th) > 0 for th in grid)
    _check(out, "derivative positivity on 50-point grid", pos,
           "all > 0" if pos else "sign change", "> 0", "strict")
    target = 7 * z3 / (4 * _PI ** 2)
    diffs = [abs(su2.derivative_at_minus2(_PI - eps) - target)
             for eps in (1e-2, 1e-3, 1e-4)]
    linear = diffs[0] <= 1e-2 and diffs[1] <= 2e-3 and diffs[2] <= 2e-4
    _check(out, "continuity at theta -> pi (linear)", linear,
           f"diffs {diffs[0]:.1e}, {diffs[1]:.1e}, {diffs[2]:.1e}",
           "linear decay", "1e-2 at eps=1e-2")
    # eta(s) = -Z(s, -1) next to s = 1, against one Hurwitz pass at t = 1/2
    # (-log 2 at s = 1) that takes neither riemann_zeta nor 1 - 2^{1-s}
    worst = max(abs(su2.witten_L_su2(s, _PI)
                    + polylog.polylog_continued(s, _PI))
                for s in (1.0, 1.0 + 1e-9, 1.0 - 1e-9, 1.0 + 1e-6, 1.0 - 1e-6))
    _check(out, "eta(s) next to s = 1 against -Z(s, -1)", worst <= 1e-12,
           f"max {worst:.2e}", "0", "1e-12")
    h = 1e-5

    def eta_zeta(s):
        return (1.0 - 2.0 ** (1.0 - s)) * riemann_zeta(s).real
    fd = (eta_zeta(-2.0 + h) - eta_zeta(-2.0 - h)) / (2 * h)
    _check(out, "finite-difference oracle at theta=pi",
           _close(su2.derivative_at_minus2(_PI), fd, 1e-6),
           f"{su2.derivative_at_minus2(_PI):.10f} vs {fd:.10f}", "equal", "1e-6")
    rng = random.Random(20260824)
    pairs = [(rng.uniform(0.05, _PI - 0.05), rng.uniform(0.05, _PI - 0.05))
             for _ in range(9)]
    pairs.append((1.1, 1.1))  # degenerate equal angles
    worst = max(abs(su2.multi_L(-2.0, list(pair))) for pair in pairs)
    _check(out, "zeta^W(-2; g1, g2) = 0, 10 pairs", worst <= 1e-10,
           f"max {worst:.2e}", "0", "1e-10")
    v3 = su2.multi_L(-2.0, [_PI / 2] * 3)
    _check(out, "zeta^W(-2; g,g,g) = pi/4 at theta=pi/2",
           _close(v3.real, _PI / 4, 1e-10) and abs(v3.imag) <= 1e-10,
           v3, "pi/4", "1e-10")
    # an identity class drops out: L(-1, theta) = 1/(4 sin^2(theta/2)),
    # the closed form rather than witten_L_su2, which shares the route
    red = abs(su2.multi_L(-1.0, [_PI / 3, 0.0])
              - 1.0 / (4.0 * math.sin(_PI / 6) ** 2))
    _check(out, "multi_L reduction at identity", red <= 1e-10,
           f"{red:.2e}", "1/(4 sin^2(pi/6)) = 1", "1e-10")
    h1 = su2.haar_average_su2(-1.0)
    h2 = su2.haar_average_su2(-2.0)
    h3 = su2.haar_average_su2(3.0)
    _check(out, "Haar average: 1, 0, 1 at s=-1, -2, 3",
           _close(h1, 1, 1e-8) and abs(h2) <= 1e-12 and _close(h3, 1, 1e-8),
           f"{h1:.12f}, {h2:.1e}, {h3:.12f}", "1, 0, 1", "1e-8 / 1e-12 / 1e-8")
    return out


# ---------------------------------------------------------------------------
# su3 suite
# ---------------------------------------------------------------------------

def suite_su3() -> list:
    out = []
    all_zero = all(su3.special_value_su3(n) == 0 for n in range(1, 9))
    _check(out, "exact special values at s=-1..-8", all_zero, "all 0", "0",
           "exact")
    termwise = all(t == 0 for n in (1, 3, 5, 7)
                   for t in su3.special_value_terms(n))
    _check(out, "odd n: term-by-term vanishing", termwise, "all terms 0",
           "0", "exact")
    sides = [su3.bernoulli_convolution_check(n) for n in (2, 4, 6, 8, 10, 12)]
    n2_val = sides[0][0]
    _check(out, "Bernoulli convolution identity, even n <= 12",
           all(lhs == rhs for lhs, rhs in sides)
           and n2_val == Fraction(1, 14400),
           f"n=2 value {n2_val}", "1/14400 and equality", "exact")
    worst = 0.0  # each is within target max(1, |v|) of the value
    for s in (2.0, 3.0, 1.5):
        v = su3.witten_su3_continued(s)
        worst = max(worst, abs(v - su3.mt_series(s)) / max(1.0, abs(v)))
    tol = 2.0 * DEFAULT_BUDGET.target
    _check(out, "continuation vs double series at s=2, 3, 1.5",
           worst <= tol, f"max relative {worst:.2e}", "0", f"{tol:g}")
    zeta3 = 1.2020569031595942854  # Tornheim 1950; Mordell 1958
    worst = max(abs(su3.witten_su3_continued(s).real / v - 1.0) for s, v in
                ((1.0, 4.0 * zeta3), (2.0, 4.0 * _PI ** 6 / 2835.0)))
    _check(out, "zeta^W_SU(3)(1) = 4 zeta(3), zeta^W_SU(3)(2) = 4 pi^6/2835",
           worst <= 1e-10, f"max relative {worst:.2e}", "0", "1e-10")
    worst = 0.0  # strip n = 2's residue line, a contour n = 1 does not use
    for s in (1.5, -0.4):
        b = su3._mb_direct(complex(s), su3.MBParams(n=2).M, DEFAULT_BUDGET)
        worst = max(worst, abs(su3.witten_su3_continued(s) - b))
    _check(out, "strip independence at s=1.5, -0.4", worst <= 1e-10,
           f"max {worst:.2e}", "0", "1e-10")
    # the listed s=0.5 comparison point sits on a genuine pole: report it
    # as the failure it is, then verify the pole via residue agreement.
    try:
        su3.witten_su3_continued(0.5, su3.MBParams(n=1))
        _check(out, "strip independence at s=0.5", False,
               "finite value returned", "comparison at s=0.5", "1e-6",
               note="a finite value here would contradict the pole")
    except PoleError:
        _check(out, "strip independence at s=0.5", False,
               "genuine simple pole at s=1/2", "comparison at s=0.5", "1e-6",
               note="residue sqrt(2) zeta(1/2) != 0; the point is not in the "
                    "domain, so this listed check cannot pass")
    res = su3_residue_at_half()
    want = math.sqrt(2.0) * riemann_zeta(0.5).real
    _check(out, "residue at s=1/2 equals sqrt(2) zeta(1/2), two contours",
           _close(res[0], want, 1e-6) and _close(res[1], want, 1e-6),
           f"{res[0]:.8f}, {res[1]:.8f}", f"{want:.8f}", "1e-6")
    return out


def su3_residue_at_half() -> tuple:
    """Residue of the continued SU(3) zeta at s = 1/2, measured numerically
    as (s - 1/2) f(s) extrapolated from two contours: the residue line of
    ``witten_su3_continued``, right of m(s) = 1 residue, and the one right
    of strip n = 2's M = 6 residues."""
    m = su3.MBParams(n=2).M
    out = []
    for f in (su3.witten_su3_continued,
              lambda s: su3._mb_direct(s, m, DEFAULT_BUDGET)):
        ests = []
        for d in (1e-3, 5e-4):
            f1, f2 = f(complex(0.5 + d)), f(complex(0.5 - d))
            ests.append(0.5 * d * (f1 - f2).real)  # symmetric residue probe
        # Richardson in d^2 leading correction
        out.append((4.0 * ests[1] - ests[0]) / 3.0)
    return tuple(out)


# ---------------------------------------------------------------------------
# padic suite
# ---------------------------------------------------------------------------

def suite_padic() -> list:
    out = []
    p = RationalFunction.variable("p")
    # sl2cong is zero at -2 but provably not at -1 (its value there is
    # -p^{3m+1}/(p+1)); the nonzero values are asserted separately below.
    zero_cases = [("sl2zp", 1, -1, True), ("sl2zp", 1, -2, True),
                  ("sl2cong", 2, -1, False), ("sl2cong", 1, -2, True),
                  ("sl3cong", 1, -1, True), ("sl3cong", 2, -2, True),
                  ("su3cong", 1, -2, True), ("su3cong", 1, 0, True),
                  ("su3cong", 1, -1, False)]
    found = {(fam, m, s): padic.verify_zero(fam, m, s)
             for fam, m, s, _ in zero_cases}
    ok = all(found[case[:3]][0] == case[3] for case in zero_cases)
    witness = found["su3cong", 1, -1][1]
    want_w = -2 * p ** 6 / (1 + p + p ** 2 + p ** 3 + p ** 4)
    _check(out, "symbolic zeros across the catalog", ok, "as expected",
           "zeros except su3cong at s=-1", "exact")
    _check(out, "su3cong witness at s=-1, m=1", witness == want_w,
           witness, want_w, "exact",
           note="negative sign follows from the cataloged formula; compare "
                "the sl2cong analogue -p^{3m+1}/(p+1)")
    vals = [
        ("sl2zp value at 0", padic.eval_at_int_s("sl2zp", 0, 0),
         -4 / (p - 1)),
        ("Z_0(0)", padic.sl2zp_z0(0), p + 4),
        ("Z_0(-1)", padic.sl2zp_z0(-1), p * (p + 1)),
        ("Z_0(-2)", padic.sl2zp_z0(-2), p * (p * p - 1)),
        ("sl2cong value at -1, m=1",
         padic.eval_at_int_s("sl2cong", 1, -1), -p ** 4 / (p + 1)),
    ]
    for name, got, want in vals:
        _check(out, name, got == want, got, want, "exact")
    for fam in ("sl3cong", "su3cong"):
        okf, diff = padic.factorization_check(fam)
        _check(out, f"factorization identity {fam}", okf,
               "identical" if okf else f"difference {diff}", "0", "exact")
    s = RationalFunction.variable("s")
    limits = [
        ("sl2cong", (s + 2) / (s - 1)),
        ("sl3cong", (s + 1) * (s + 2)
         / ((s - Fraction(1, 2)) * (s - Fraction(2, 3)))),
        ("su3cong", s * (s + 2)
         / ((s - Fraction(1, 2)) * (s - Fraction(2, 3)))),
    ]
    for fam, want in limits:
        got = padic.absolute_limit(fam)
        _check(out, f"absolute limit {fam}", got == want, got, want, "exact")
    lim = padic.su3_cong_minus1_limit()
    _check(out, "su3_cong_minus1 limit p->1", lim == Fraction(-2, 5),
           lim, "-2/5", "exact",
           note="sign as for the witness above")
    worst = 0.0
    for fam in ("sl2cong", "sl3cong", "su3cong"):
        rf = padic.absolute_limit(fam)
        for sv in (-1, -2):
            v1 = float(padic.eval_at_int_s(fam, 1, sv,
                                           Fraction(10001, 10000)))
            v2 = float(padic.eval_at_int_s(fam, 1, sv,
                                           Fraction(100001, 100000)))
            extrap = (10.0 * v2 - v1) / 9.0
            worst = max(worst, abs(extrap - float(rf(Fraction(sv)))))
    _check(out, "numeric p->1 extrapolation matches limits", worst <= 1e-6,
           f"max {worst:.2e}", "0", "1e-6")
    return out


# ---------------------------------------------------------------------------
# core suite
# ---------------------------------------------------------------------------

def suite_core() -> list:
    out = []
    for table in (witten_core.S3, witten_core.Q8):
        vals = [witten_core.finite_witten_L_exact(table, -2, c)
                for c in range(table.n_classes)]
        ok = vals[0].re == table.order and vals[0].im == 0 \
            and all(v.is_zero for v in vals[1:])
        _check(out, f"{table.name}: zeta^W(-2, c) = |G| [c=1]", ok,
               [str(v) for v in vals], f"[{table.order}, 0, ...]", "exact")
    rng = random.Random(20260824)
    worst = 0.0
    for _ in range(10):
        s = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        for table in (witten_core.S3, witten_core.Q8):
            worst = max(worst,
                        abs(witten_core.haar_average_finite(table, s) - 1.0))
    _check(out, "finite Haar average = 1 at 10 random s", worst <= 1e-12,
           f"max {worst:.2e}", "1", "1e-12")
    return out


SUITES = {
    "polylog": suite_polylog,
    "su2": suite_su2,
    "su3": suite_su3,
    "padic": suite_padic,
    "core": suite_core,
}


def run(suite: str = "all") -> list:
    if suite == "all":
        results = []
        for fn in SUITES.values():
            results.extend(fn())
        return results
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from "
                         f"{['all', *SUITES]}")
    return SUITES[suite]()
