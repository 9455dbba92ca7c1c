"""Regenerate the benchmark's input pools and their reference values.

    python3 bench/make_oracle.py

writes bench/oracle/su2.json, su3.json and cli.json. The su3 section is
the slow one: about twelve minutes on two cores. Nothing here imports wittenzeta, so no reference is produced by the
code under test:

* su2: mpmath at 60 digits through the Hurwitz (Jonquiere) form of the
  unit-circle polylogarithm, DLMF 25.13.2, with symmetric limits at integer
  orders; mpmath's zeta and eta at theta = 0 and pi; the Haar average is 1
  (or 0 at s = -2) by character orthogonality.
* su3: mpmath at 30 digits through the Mellin-Barnes formula on the n = 2
  strip (M = 6, contour Re z = 5.5, a trapezoid rule on the line), which is
  a different contour from the library's; symmetric limits at the removable
  integers, and the closed forms zeta_SU(3)(-1) = 0, (0) = 1/3,
  (1) = 4 zeta(3) and (2) = 4 zeta(6)/3 there.
* cli: sympy and Fraction arithmetic from the defining formulas (the u-form
  numerators of the p-adic families, Eulerian numbers for Z(-m, x),
  Bernoulli numbers from sympy, the character tables of S3 and Q8), and
  mpmath for the few floating commands.

The pools are drawn from a fixed seed; the benchmark's --seed only chooses
among them.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import random
from fractions import Fraction

import mpmath as mp
import sympy

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "oracle")
POOL_SEED = 2013

# Conjugacy classes of SU(2) used by su2-grid: rational multiples of pi
# (given as p/q), two plain angles, and the central elements 0 and pi.
THETA_PI = ("1/2", "1/3", "2/3", "1/4", "3/4", "1/5", "2/5", "1/6", "5/6")
THETA_PLAIN = (0.2, 1.0)


def theta_classes():
    """(cli flag, value) for every class; the float matches what the CLI
    computes from the flag."""
    out = [(("--theta-pi", t), float(Fraction(t)) * math.pi) for t in THETA_PI]
    out += [(("--theta", repr(t)), t) for t in THETA_PLAIN]
    out += [(("--theta", "0"), 0.0), (("--theta-pi", "1"), math.pi)]
    return out


def cplx(z):
    z = complex(z)
    return [z.real, z.imag]


# ---------------------------------------------------------------------------
# SU(2): Hurwitz form of the polylogarithm
# ---------------------------------------------------------------------------

def _li_hurwitz(order, x):
    """Li_order(e^{2 pi i x}), 0 < x < 1, by DLMF 25.13.2."""
    a = 1 - order
    phase = mp.expjpi(a / 2)
    return mp.gamma(a) / (2 * mp.pi) ** a \
        * (phase * mp.zeta(a, x) + mp.zeta(a, 1 - x) / phase)


def li_unit(order, x):
    """As _li_hurwitz, with the limit taken at the integer orders >= 0 where
    Gamma(1 - order) or zeta(1, x) is singular."""
    order = mp.mpc(order)
    if order.imag == 0 and order.real == int(order.real) and order.real >= 0:
        d = mp.mpf(10) ** (-(mp.mp.dps // 3))
        return (_li_hurwitz(order + d, x) + _li_hurwitz(order - d, x)) / 2
    return _li_hurwitz(order, x)


def circle_term(order, angle):
    """sum_n e^{i n angle} n^{-order}: Li on the circle, zeta at angle 0."""
    x = mp.mpf(angle) / (2 * mp.pi)
    x -= mp.floor(x)
    if x == 0:
        return mp.zeta(order)
    return li_unit(order, x)


def su2_ref(s, theta):
    """zeta^W_SU(2)(s, theta) = sum_n sin(n theta)/(n sin theta) n^{-s}."""
    with mp.workdps(60):
        s = mp.mpc(s)
        if theta == 0.0:
            return complex(mp.zeta(s))
        if theta == math.pi:
            return complex(mp.altzeta(s))
        th = mp.mpf(theta)
        return complex((circle_term(s + 1, th) - circle_term(s + 1, -th))
                       / (2j * mp.sin(th)))


def multi_ref(s, thetas):
    """sum_n prod_i chi_n(g_i)/n * n^{-s}, expanding each character into
    exponentials: theta = 0 gives 1, theta = pi gives -e^{i n pi}, a regular
    theta gives (e^{i n theta} - e^{-i n theta}) / (2 i n sin theta)."""
    with mp.workdps(60):
        terms = [(mp.mpc(1), mp.mpf(0))]
        order = mp.mpc(s)
        for th in thetas:
            if th == 0.0:
                continue
            if th == math.pi:
                terms = [(-c, a + mp.pi) for c, a in terms]
                continue
            w = 1 / (2j * mp.sin(mp.mpf(th)))
            order += 1
            terms = [(c * w * sign, a + sign * mp.mpf(th))
                     for c, a in terms for sign in (1, -1)]
        return complex(sum(c * circle_term(order, a) for c, a in terms))


def build_su2(rng):
    classes = [v for _, v in theta_classes()]
    regular = [v for v in classes if 0.0 < v < math.pi]
    pool = {"real_pos": [], "real_neg": [], "complex": [], "integer": [],
            "defect": [], "multi": [], "haar": []}

    def add(key, s, th):
        pool[key].append([*cplx(s), th, *cplx(su2_ref(s, th))])

    for _ in range(1500):
        add("real_pos", rng.uniform(-2.0, 3.0), rng.choice(classes))
    for _ in range(1500):
        add("real_neg", rng.uniform(-20.0, -2.0), rng.choice(classes))
    for _ in range(2000):
        s = complex(rng.uniform(-20.0, 3.0),
                    rng.choice((-1, 1)) * rng.uniform(0.05, 10.0))
        add("complex", s, rng.choice(classes))
    # integer s: the polylog orders hit the limits above; s = 1 is the
    # zeta pole at theta in {0, pi}; even s <= -10 are in the defect pool
    for k in range(-19, 4):
        if k <= -10 and k % 2 == 0:
            continue
        for th in classes:
            if k == 1 and th in (0.0, math.pi):
                continue
            add("integer", float(k), th)
    # documented defects: the trivial zeros at even s <= -10 and the point
    # s = -10 + 1e-6 next to one
    for s in (-10.0, -12.0, -14.0, -16.0, -18.0, -20.0, -10.0 + 1e-6):
        for th in regular:
            add("defect", s, th)
    for _ in range(400):
        r = rng.choice((2, 3))
        ths = [rng.choice(classes) for _ in range(r)]
        if rng.random() < 0.7:
            s = complex(rng.uniform(-10.0, 3.0))
        else:
            s = complex(rng.uniform(-10.0, 3.0), rng.uniform(-5.0, 5.0))
        pool["multi"].append([*cplx(s), ths, *cplx(multi_ref(s, ths))])
    # Haar average: 1 for s > 1 and s = -1, 0 at s = -2. Below s = 1.5 the
    # library's quadrature needs up to 1024 nodes (seconds per item) or
    # raises ConvergenceError, so those s are left out of the timed pool.
    pool["haar"] = [[-2.0, 0.0], [-1.0, 1.0]]
    pool["haar"] += [[rng.uniform(1.5, 3.5), 1.0] for _ in range(58)]
    return pool


# ---------------------------------------------------------------------------
# SU(3): Mellin-Barnes on the n = 2 strip
# ---------------------------------------------------------------------------

_MB_M = 6
_MB_C = mp.mpf(_MB_M) - mp.mpf("0.5")
_MB_H = mp.mpf(1) / 14  # trapezoid step: error ~ exp(-pi / h) ~ 1e-19


def _mb(s):
    """2^s [Gamma(2s-1) Gamma(1-s)/Gamma(s) zeta(3s-1)
    + sum_{k<M} (-1)^k (s)_k/k! zeta(2s+k) zeta(s-k)
    + (1/2pi) int Gamma(s+z) Gamma(-z)/Gamma(s) zeta(2s+z) zeta(s-z) dt],
    z = c + i t."""
    gs = mp.gamma(s)
    t1 = mp.gamma(2 * s - 1) * mp.gamma(1 - s) / gs * mp.zeta(3 * s - 1)
    t2 = mp.mpf(0)
    poch = mp.mpf(1)
    for k in range(_MB_M):
        t2 += (-1) ** k * poch / mp.factorial(k) \
            * mp.zeta(2 * s + k) * mp.zeta(s - k)
        poch *= s + k

    def f(t):
        z = mp.mpc(_MB_C, t)
        return mp.gamma(s + z) * mp.gamma(-z) / gs \
            * mp.zeta(2 * s + z) * mp.zeta(s - z)

    real_s = mp.im(s) == 0
    total = f(0)
    peak = abs(total)
    tiny = mp.mpf(10) ** (-mp.mp.dps + 2)
    for sign in ((1,) if real_s else (1, -1)):
        k, quiet = 1, 0
        while quiet < 28:  # two units of t below the noise floor
            v = f(sign * k * _MB_H)
            total += 2 * mp.re(v) if real_s else v
            peak = max(peak, abs(v))
            quiet = quiet + 1 if abs(v) < tiny * peak else 0
            k += 1
    t3 = total * _MB_H / (2 * mp.pi)
    return mp.power(2, s) * (t1 + t2 + t3)


_SU3_CLOSED = {-1: lambda: mp.mpf(0), 0: lambda: mp.mpf(1) / 3,
               1: lambda: 4 * mp.zeta(3), 2: lambda: 4 * mp.zeta(6) / 3}


def su3_ref(s):
    """zeta^W_SU(3)(s); closed forms where known, otherwise Mellin-Barnes
    (a symmetric limit at the removable integers)."""
    s = complex(s)
    if s.imag == 0 and s.real == int(s.real):
        k = int(s.real)
        with mp.workdps(50):
            d = mp.mpf(10) ** -15
            limit = (_mb(mp.mpf(k) + d) + _mb(mp.mpf(k) - d)) / 2
            if k in _SU3_CLOSED:
                exact = _SU3_CLOSED[k]()
                if abs(limit - exact) > mp.mpf(10) ** -18:
                    raise AssertionError(
                        f"oracle disagrees with the closed form at s = {k}")
                return complex(exact)
            return complex(limit)
    with mp.workdps(30):
        return complex(_mb(mp.mpc(s)))


def _su3_row(s):
    return [*cplx(s), *cplx(su3_ref(s))]


def _near(x, points, gap):
    return any(abs(x - p) < gap for p in points)


def build_su3(rng, processes=2):
    lo, hi = -1.24, 3.5  # n = 1 strip: Re s > -1.25
    poles = (2.0 / 3.0, 0.5, -0.5)
    jobs = {"real": [], "removable": [complex(k) for k in (-1, 0, 1, 2, 3)],
            "mt": []}
    while len(jobs["real"]) < 240:
        x = rng.uniform(lo, hi)
        if not _near(x, poles, 1e-3):
            jobs["real"].append(complex(x))
    for b in range(5):  # |Im s| in (2b, 2b + 2]: cost grows with |Im s|
        jobs[f"complex{b}"] = [
            complex(rng.uniform(lo, hi),
                    rng.choice((-1, 1)) * rng.uniform(2 * b + 0.01, 2 * b + 2))
            for _ in range(32)]
    for _ in range(100):
        if rng.random() < 0.6:
            jobs["mt"].append(complex(rng.uniform(1.8, 3.5)))
        else:
            jobs["mt"].append(complex(rng.uniform(1.8, 3.5),
                                      rng.uniform(-4.0, 4.0)))
    flat = [(key, s) for key, pts in jobs.items() for s in pts]
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(processes) as pool:
        rows = pool.map(_su3_row, [s for _, s in flat], chunksize=4)
    out = {key: [] for key in jobs}
    for (key, _), row in zip(flat, rows):
        out[key].append(row)
    return out


# ---------------------------------------------------------------------------
# CLI commands with exact references
# ---------------------------------------------------------------------------

def frac_str(q) -> str:
    q = Fraction(int(sympy.numer(q)), int(sympy.denom(q))) \
        if not isinstance(q, (int, Fraction)) else Fraction(q)
    return str(q.numerator) if q.denominator == 1 \
        else f"{q.numerator}/{q.denominator}"


def ref_fraction(q):
    return {"type": "fraction", "value": frac_str(q)}


def ref_rf(expr, var):
    """A rational function in `var` as ascending coefficient lists."""
    num, den = sympy.fraction(sympy.cancel(sympy.together(expr)))
    coeffs = [[frac_str(c) for c in reversed(sympy.Poly(part, var).all_coeffs())]
              for part in (num, den)]
    return {"type": "rf", "var": str(var), "num": coeffs[0], "den": coeffs[1]}


def ref_float(z):
    return {"type": "float", "re": complex(z).real, "im": complex(z).imag}


P, S = sympy.symbols("p s")

# u(p) of the u-form numerators 1 + u(p) p^{-3-2s} + u(1/p) p^{-2-3s}
# + p^{-5-5s} of the SL3 and SU3 congruence families.
U_FORM = {"sl3cong": {3: 1, 2: 1, 1: -1, 0: -1, -1: -1},
          "su3cong": {3: -1, 2: 1, 1: -1, 0: 1, -1: -1}}
EXCLUDED_P = {"sl2zp": 2, "sl2cong": 2, "sl3cong": 3, "su3cong": 3}


def _expsum(terms):
    """sum c p^{a + b s} as {(a, b): c}."""
    out = {}
    for c, a, b in terms:
        out[(a, b)] = out.get((a, b), 0) + c
    return {k: v for k, v in out.items() if v}


def _expsum_mul(x, y):
    return _expsum([(cx * cy, ax + ay, bx + by)
                    for (ax, bx), cx in x.items() for (ay, by), cy in y.items()])


def _u_numerator(family):
    u = U_FORM[family]
    return _expsum([(1, 0, 0), (1, -5, -5)]
                   + [(c, e - 3, -2) for e, c in u.items()]
                   + [(c, -e - 2, -3) for e, c in u.items()])


def _family_parts(family, m):
    """(prefactor exponent, numerator, denominator) as exponent sums."""
    if family == "sl2cong":
        return 3 * m + 2, _expsum([(1, 0, 0), (-1, -2, -1)]), \
            _expsum([(1, 0, 0), (-1, 1, -1)])
    den = _expsum_mul(_expsum([(1, 0, 0), (-1, 1, -2)]),
                      _expsum([(1, 0, 0), (-1, 2, -3)]))
    return 8 * m, _u_numerator(family), den


def _expsum_value(x, s, p):
    return sum(c * p ** (a + b * s) for (a, b), c in x.items())


def _sl2zp_value(s, p):
    """Dimension list of SL2(Z_p): (multiplicity, dimension) pairs plus a
    geometric part with prefix 1/(1 - p^{1-s})."""
    half, one = sympy.Rational(1, 2), sympy.Integer(1)
    finite = ((one, one), (2, (p - 1) * half), (2, (p + 1) * half),
              ((p - 1) * half, p - 1), (1, p), ((p - 3) * half, p + 1))
    infinite = ((4 * p, (p * p - 1) * half), ((p * p - 1) * half, p * p - p),
                ((p - 1) ** 2 * half, p * p + p))
    z0 = sum(mult * dim ** (-s) for mult, dim in finite)
    zinf = sum(mult * dim ** (-s) for mult, dim in infinite)
    return z0 + zinf / (1 - p ** (1 - s))


def padic_value(family, m, s, p):
    p = P if p is None else sympy.Integer(p)
    if family == "sl2zp":
        return sympy.cancel(sympy.together(_sl2zp_value(s, p)))
    pre, num, den = _family_parts(family, m)
    return sympy.cancel(sympy.together(
        p ** pre * _expsum_value(num, s, p) / _expsum_value(den, s, p)))


def _leading_in_u(x):
    """Lowest order k and coefficient of u^k in sum c e^{u (a + b s)}, as a
    polynomial in s: the p -> 1 behaviour with p = e^u."""
    for k in range(8):
        coeff = sympy.expand(sum(c * (a + b * S) ** k
                                 for (a, b), c in x.items()))
        if coeff != 0:
            return k, coeff / math.factorial(k)
    raise AssertionError("no non-vanishing order below 8")


def padic_limit(family):
    """Formal p -> 1 limit as a rational function of s (m drops out)."""
    _, num, den = _family_parts(family, 1)
    kn, cn = _leading_in_u(num)
    kd, cd = _leading_in_u(den)
    assert kn == kd, family
    return cn / cd


def eulerian_numerator(m):
    """A_m(x) = sum_k A(m, k) x^k, with Z(-m, x) = x A_m(x) / (1-x)^{m+1}."""
    row = [1]
    for n in range(2, m + 1):
        row = [(k + 1) * (row[k] if k < len(row) else 0)
               + (n - k) * (row[k - 1] if k >= 1 else 0) for k in range(n)]
    return row


def polylog_neg_expr(m):
    x = sympy.Symbol("x")
    if m == 0:
        return x / (1 - x), x
    num = sum(c * x ** (k + 1) for k, c in enumerate(eulerian_numerator(m)))
    return num / (1 - x) ** (m + 1), x


def polylog_neg_value(m, theta):
    with mp.workdps(40):
        z = mp.expj(mp.mpf(theta))
        if m == 0:
            return complex(z / (1 - z))
        num = sum(c * z ** (k + 1) for k, c in enumerate(eulerian_numerator(m)))
        return complex(num / (1 - z) ** (m + 1))


# Character tables as (class sizes, irreducible characters), classes in
# the order of the builtin tables: S3 = {1, transpositions, 3-cycles},
# Q8 = {1, -1, +-i, +-j, +-k}.
TABLES = {
    "s3": ((1, 3, 2), ((1, 1, 1), (1, -1, 1), (2, 0, -1))),
    "q8": ((1, 1, 2, 2, 2), ((1, 1, 1, 1, 1), (1, 1, 1, -1, -1),
                             (1, 1, -1, 1, -1), (1, 1, -1, -1, 1),
                             (2, -2, 0, 0, 0))),
}


def finite_exact(table, s, cls):
    """sum over irreps chi(g) deg^{-s-1}; every character here is real."""
    _, irreps = TABLES[table]
    total = sum(Fraction(chi[cls]) * Fraction(chi[0]) ** (-s - 1)
                for chi in irreps)
    return {"type": "gauss", "re": frac_str(total), "im": "0"}


def su2_deriv2_ref(theta):
    """d/ds zeta^W_SU(2)(s, theta) at s = -2."""
    with mp.workdps(40):
        if theta == 0.0:
            return complex(mp.zeta(-2, derivative=1))
        if theta == math.pi:
            return complex(mp.diff(mp.altzeta, -2))
        return complex(mp.diff(lambda s: mp.re(
            (circle_term(s + 1, theta) - circle_term(s + 1, -theta))
            / (2j * mp.sin(mp.mpf(theta)))), -2))


def build_cli(rng):
    classes = theta_classes()
    cmds = {}

    def add(kind, argv, refs):
        cmds.setdefault(kind, []).append([argv, refs])

    # p-adic families
    ps = {"sl2zp": [None, 3, 5, 7, 11], "sl2cong": [None, 3, 5, 7, 11],
          "sl3cong": [None, 2, 5, 7, 11], "su3cong": [None, 2, 5, 7, 11]}
    for fam, plist in ps.items():
        levels = [1] if fam == "sl2zp" else [1, 2, 3]
        for m in levels:
            for s in range(-4, 5):
                if s == 1 and fam in ("sl2zp", "sl2cong"):
                    continue  # geometric factor 1/(1 - p^{1-s}) has a pole
                base = ["padic", "eval", "--family", fam, "--s", str(s)]
                if fam != "sl2zp":
                    base += ["--m", str(m)]
                for p in plist:
                    val = padic_value(fam, m, s, p)
                    if p is None:
                        add("padic_eval_sym", base + ["--p", "sym"],
                            [ref_rf(val, P)])
                    else:
                        add("padic_eval_num", base + ["--p", str(p)],
                            [ref_fraction(val)])
                sym = padic_value(fam, m, s, None)
                zero = ["padic", "zero", "--family", fam, "--s", str(s)]
                if fam != "sl2zp":
                    zero += ["--m", str(m)]
                add("padic_zero", zero, [{"type": "bool", "value": sym == 0},
                                         ref_rf(sym, P)])
    for fam in ("sl2cong", "sl3cong", "su3cong"):
        lim = ref_rf(padic_limit(fam), S)
        for m in (1, 2, 3):
            add("padic_other", ["padic", "limit", "--family", fam,
                                "--m", str(m)], [lim])
    for fam in ("sl3cong", "su3cong"):
        add("padic_other", ["padic", "factor-check", "--family", fam],
            [{"type": "bool", "value": True}])
    # SU(3) exact values: zero at every negative integer; the lemma's two
    # sides both equal n!/(2n+1)! zeta(-3n-1)
    for n in range(1, 151):
        add("su3_special" if n <= 40 else "su3_special_large",
            ["su3", "special", "--n", str(n)], [ref_fraction(0)])
    for n in range(2, 61, 2):
        b = sympy.bernoulli(3 * n + 2)
        rhs = sympy.Rational(math.factorial(n), math.factorial(2 * n + 1)) \
            * (-b / (3 * n + 2))
        add("su3_lemma", ["su3", "lemma", "--n", str(n)],
            [ref_fraction(rhs), ref_fraction(rhs)])
    # polylogarithm closed forms
    for m in range(0, 15):
        expr, x = polylog_neg_expr(m)
        add("polylog_closed" if m <= 8 else "polylog_closed_large",
            ["polylog", "closed", "--m", str(m)], [ref_rf(expr, x)])
        for flag, th in classes:
            if th == 0.0:
                continue
            add("polylog_neg" if m <= 8 else "polylog_neg_large",
                ["polylog", "neg", "--m", str(m), *flag],
                [ref_float(polylog_neg_value(m, th))])
    # finite groups: zeta^W(-2, g) = |G| [g = 1]; the Haar average is 1
    for table, (sizes, _) in TABLES.items():
        for cls in range(len(sizes)):
            for s in range(-4, 5):
                add("finite_eval", ["finite", "eval", "--family", table,
                                    "--s", str(s), "--class", str(cls)],
                    [finite_exact(table, s, cls)])
        for s in ("-2", "-1", "0.5", "2", "3.25", "1.5,2", "-0.5,-1"):
            # --s=VALUE: argparse takes a bare "-0.5,-1" for an option
            add("finite_average", ["finite", "average", "--family", table,
                                   f"--s={s}"], [ref_float(1.0)])
    # SU(2)
    for m in range(2, 41, 2):
        for flag, _ in classes:
            add("su2_special", ["su2", "special", "--m", str(m), *flag],
                [ref_fraction(0)])
    for flag, th in classes:
        # zeta^W(-1, theta) = 1 / (4 sin^2(theta/2)); zeta(-1) = -1/12
        with mp.workdps(40):
            v = mp.mpf(-1) / 12 if th == 0.0 \
                else 1 / (4 * mp.sin(mp.mpf(th) / 2) ** 2)
        add("su2_eval", ["su2", "eval", "--s", "-1", *flag], [ref_float(v)])
    for flag, th in classes:
        add("su2_deriv2", ["su2", "deriv2", *flag],
            [ref_float(su2_deriv2_ref(th))])
    for _ in range(40):
        th = rng.uniform(0.05, math.pi - 0.05)
        add("su2_deriv2", ["su2", "deriv2", "--theta", repr(th)],
            [ref_float(su2_deriv2_ref(th))])
    # the costly commands share one `heavy` stratum, a third each of su3
    # special with n > 40, polylog closed with m > 8 and polylog neg with m > 8
    cmds["heavy"] = cmds.pop("su3_special_large")[::3] \
        + cmds.pop("polylog_closed_large") * 6 \
        + cmds.pop("polylog_neg_large")[::2]
    return cmds


def _check_cli_against_readme(cmds):
    """The p-adic oracle must reproduce the values quoted in the README."""
    def find(kind, argv):
        for a, refs in cmds[kind]:
            if a == argv:
                return refs[0]
        raise AssertionError(f"missing {argv}")

    su3 = find("padic_eval_sym", ["padic", "eval", "--family", "su3cong",
                                  "--s", "-1", "--m", "1", "--p", "sym"])
    assert su3["num"] == ["0", "0", "0", "0", "0", "0", "-2"] \
        and su3["den"] == ["1", "1", "1", "1", "1"], su3
    lim2 = find("padic_other", ["padic", "limit", "--family", "sl2cong",
                                "--m", "1"])
    assert sympy.simplify(_rf_expr(lim2) - (S + 2) / (S - 1)) == 0, lim2
    lim3 = find("padic_other", ["padic", "limit", "--family", "sl3cong",
                                "--m", "1"])
    want = (S + 1) * (S + 2) / ((S - sympy.Rational(1, 2))
                                * (S - sympy.Rational(2, 3)))
    assert sympy.simplify(_rf_expr(lim3) - want) == 0, lim3


def _rf_expr(ref):
    def poly(cs):
        return sum(sympy.Rational(c) * S ** i for i, c in enumerate(cs))
    return poly(ref["num"]) / poly(ref["den"])


def write(section, data):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{section}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"pool_seed": POOL_SEED, "pools": data}, fh,
                  separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {path}: " + ", ".join(
        f"{k} {len(v)}" for k, v in data.items()))


def main():
    write("su2", build_su2(random.Random(f"{POOL_SEED}-su2")))
    write("su3", build_su3(random.Random(f"{POOL_SEED}-su3")))
    cmds = build_cli(random.Random(f"{POOL_SEED}-cli"))
    _check_cli_against_readme(cmds)
    write("cli", cmds)


if __name__ == "__main__":
    main()
