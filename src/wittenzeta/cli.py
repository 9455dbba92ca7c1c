"""Command-line front end.

Grammar: ``zeta <module> <action> [flags]`` with modules polylog, su2, su3,
padic, finite, and verify. Results print as ResultRecords in text, JSON, or
CSV; exact values carry the error estimate "exact", floating values the
precision target. Exit codes: 0 success, 2 usage error, 3 domain/pole
error, 4 convergence failure.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import json
import math
import os
import sys
import time
from fractions import Fraction

from . import padic as padic_mod
from . import polylog as polylog_mod
from . import su2 as su2_mod
from . import su3 as su3_mod
from . import verify as verify_mod
from . import witten_core
from .errors import ConvergenceError, DomainError
from .exact import Polynomial, RationalFunction, fraction_str
from .numerics import PrecisionBudget, riemann_zeta
from .witten_core import GaussianRational

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_CONVERGENCE = 4

_PRECISION_ENV = "WITTENZETA_PRECISION"


# ---------------------------------------------------------------------------
# Argument parsing helpers
# ---------------------------------------------------------------------------

def _parse_s(text: str) -> complex:
    parts = text.split(",")
    if len(parts) > 2:
        raise argparse.ArgumentTypeError("--s expects re or re,im")
    s = complex(*map(float, parts))
    if not cmath.isfinite(s):
        # argparse lets this through (it catches only ValueError and
        # TypeError), so main reports it as a domain error
        raise DomainError(f"--s must be finite, got {text!r}")
    return s


def _parse_theta_list(args) -> list:
    """Angles from --theta (radians) or --theta-pi (rational multiples of
    pi, 'p/q'); comma-separated lists allowed."""
    if args.theta is not None and args.theta_pi is not None:
        raise argparse.ArgumentTypeError(
            "--theta and --theta-pi are mutually exclusive")
    if args.theta_pi is not None:
        out = []
        for tok in args.theta_pi.split(","):
            out.append(float(Fraction(tok)) * math.pi)
        return out
    if args.theta is not None:
        return [float(tok) for tok in args.theta.split(",")]
    raise argparse.ArgumentTypeError("an angle is required: --theta or --theta-pi")


def _single_theta(args) -> float:
    thetas = _parse_theta_list(args)
    if len(thetas) != 1:
        raise argparse.ArgumentTypeError("exactly one angle expected here")
    return thetas[0]


def _fmt_s(s: complex) -> str:
    if s.imag == 0.0:
        return f"{s.real:g}"
    return f"{s.real:g}{s.imag:+g}i"


def _parse_p(text: str):
    if text == "sym":
        return padic_mod.SYMBOLIC
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("--p expects an integer or 'sym'")


# ---------------------------------------------------------------------------
# Result records and output formats
# ---------------------------------------------------------------------------

def _poly_coeffs(poly: Polynomial) -> list:
    return [fraction_str(c) for c in poly.coeffs]


def _encode_value(value):
    """(json-encodable value, is_exact)."""
    if isinstance(value, (bool, str)):
        return value, True
    if isinstance(value, Fraction):
        return fraction_str(value), True
    if isinstance(value, GaussianRational):
        return str(value), True
    if isinstance(value, RationalFunction):
        return {"num": _poly_coeffs(value.num), "den": _poly_coeffs(value.den),
                "var": value.var}, True
    if isinstance(value, Polynomial):
        return {"num": _poly_coeffs(value), "den": ["1"],
                "var": value.var}, True
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}, False
    if isinstance(value, (int, float)):
        return float(value), False
    raise TypeError(f"cannot encode {type(value).__name__}")


def _record(query: str, value, ms: float, target: float) -> dict:
    encoded, is_exact = _encode_value(value)
    return {"query": query, "value": encoded,
            "error": "exact" if is_exact else target, "ms": round(ms, 3)}


def _csv_numbers(value):
    if isinstance(value, complex):
        return value.real, value.imag
    if isinstance(value, (int, float)):
        return float(value), 0.0
    if isinstance(value, Fraction):
        return float(value), 0.0
    if isinstance(value, GaussianRational):
        c = complex(value)
        return c.real, c.imag
    return float("nan"), float("nan")


def _print_records(records, raw_values, fmt: str, precision: int):
    if fmt == "json":
        print(json.dumps(records if len(records) > 1 else records[0],
                         indent=2, sort_keys=True))
        return
    if fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(("query", "value_re", "value_im", "error", "ms"))
        for rec, raw in zip(records, raw_values):
            re_v, im_v = _csv_numbers(raw)
            writer.writerow((rec["query"], repr(re_v), repr(im_v),
                             rec["error"], rec["ms"]))
        return
    for rec, raw in zip(records, raw_values):
        if rec["error"] == "exact":
            print(f"{rec['query']} = {raw}  [exact, {rec['ms']} ms]")
        elif isinstance(raw, complex):
            if abs(raw.imag) < 10.0 ** (-precision):
                shown = f"{raw.real:.{precision}g}"
            else:
                shown = f"{raw.real:.{precision}g} + {raw.imag:.{precision}g}i"
            print(f"{rec['query']} = {shown}  [~{rec['error']:g}, {rec['ms']} ms]")
        else:
            print(f"{rec['query']} = {float(raw):.{precision}g}  "
                  f"[~{rec['error']:g}, {rec['ms']} ms]")


# ---------------------------------------------------------------------------
# Command handlers: each returns a list of (query, value)
# ---------------------------------------------------------------------------

def _handle_polylog(args, budget):
    if args.action == "closed":
        if args.m is None or args.m < 0:
            raise DomainError("polylog closed requires --m >= 0")
        return [(f"polylog closed m={args.m}",
                 polylog_mod.polylog_closed_form(args.m))]
    if args.action == "neg":
        if args.m is None or args.m < 0:
            raise DomainError("polylog neg requires --m >= 0")
        th = _single_theta(args)
        return [(f"polylog neg m={args.m} theta={th:g}",
                 polylog_mod.polylog_eval_neg(args.m, th))]
    if args.s is None:
        raise DomainError(f"polylog {args.action} requires --s")
    th = _single_theta(args)
    s = args.s
    if args.action == "series":
        return [(f"polylog series s={_fmt_s(s)} theta={th:g}",
                 polylog_mod.polylog_series(s, th, budget))]
    if args.action == "jonquiere":
        if s.imag:
            raise DomainError("the jonquiere route requires real s")
        return [(f"polylog jonquiere s={s.real:g} theta={th:g}",
                 polylog_mod.polylog_via_jonquiere(s.real, th, budget))]
    # eval: continuation, with theta = 0 mapped to the Riemann zeta
    if th == 0.0:
        return [(f"polylog eval s={_fmt_s(s)} theta=0", riemann_zeta(s, budget))]
    return [(f"polylog eval s={_fmt_s(s)} theta={th:g}",
             polylog_mod.polylog_continued(s, th, budget))]


def _handle_su2(args, budget):
    if args.action == "eval":
        if args.s is None:
            raise DomainError("su2 eval requires --s")
        th = _single_theta(args)
        return [(f"su2 eval s={_fmt_s(args.s)} theta={th:g}",
                 su2_mod.witten_L_su2(args.s, th, budget))]
    if args.action == "special":
        if args.m is None:
            raise DomainError("su2 special requires --m (even, >= 2)")
        th = _single_theta(args)
        return [(f"su2 special m={args.m} theta={th:g}",
                 su2_mod.special_value_neg_even(args.m, th))]
    if args.action == "deriv2":
        th = _single_theta(args)
        return [(f"su2 deriv2 theta={th:g}",
                 su2_mod.derivative_at_minus2(th, budget))]
    if args.action == "multi":
        if args.s is None:
            raise DomainError("su2 multi requires --s")
        thetas = _parse_theta_list(args)
        if not 2 <= len(thetas) <= 3:
            raise DomainError("su2 multi expects 2 or 3 angles")
        label = ",".join(f"{t:g}" for t in thetas)
        return [(f"su2 multi s={_fmt_s(args.s)} thetas={label}",
                 su2_mod.multi_L(args.s, thetas, budget))]
    # average
    if args.s is None:
        raise DomainError("su2 average requires --s")
    if args.s.imag:
        raise DomainError("su2 average requires real s")
    return [(f"su2 average s={args.s.real:g}",
             su2_mod.haar_average_su2(args.s.real, budget))]


def _handle_su3(args, budget):
    if args.action == "eval":
        if args.s is None:
            raise DomainError("su3 eval requires --s")
        params = su3_mod.MBParams(n=1 if args.n is None else args.n)
        return [(f"su3 eval s={_fmt_s(args.s)}",
                 su3_mod.witten_su3_continued(args.s, params, budget))]
    if args.action == "special":
        if args.n is None or args.n < 0:
            raise DomainError("su3 special requires --n >= 0")
        return [(f"su3 special n={args.n}",
                 su3_mod.special_value_su3(args.n))]
    # lemma
    if args.n is None or args.n < 2 or args.n % 2:
        raise DomainError("su3 lemma requires even --n >= 2")
    lhs, rhs = su3_mod.bernoulli_convolution_check(args.n)
    return [(f"su3 lemma n={args.n} lhs", lhs),
            (f"su3 lemma n={args.n} rhs", rhs)]


def _int_s(args) -> int:
    if args.s is None:
        raise DomainError("an integer --s is required")
    if args.s.imag or args.s.real != int(args.s.real):
        raise DomainError("padic operations require integer s")
    return int(args.s.real)


def _handle_padic(args, budget):
    if args.action == "list":
        return [(f"padic family {key}", fam.identifier)
                for key, fam in padic_mod.FAMILIES.items()]
    if args.action == "factor-check":
        if args.family is None:
            raise DomainError("padic factor-check requires --family")
        ok, _ = padic_mod.factorization_check(args.family)
        return [(f"padic factor-check {args.family}", ok)]
    if args.action == "limit":
        if args.family is None:
            raise DomainError("padic limit requires --family")
        return [(f"padic limit {args.family} m={args.m or 1}",
                 padic_mod.absolute_limit(args.family, args.m or 1))]
    if args.family is None:
        raise DomainError(f"padic {args.action} requires --family")
    m = args.m or 1
    s = _int_s(args)
    if args.action == "zero":
        is_zero, witness = padic_mod.verify_zero(args.family, m, s)
        return [(f"padic zero {args.family} m={m} s={_fmt_s(s)}", is_zero),
                (f"padic zero {args.family} m={m} s={_fmt_s(s)} witness", witness)]
    # eval
    p = args.p if args.p is not None else padic_mod.SYMBOLIC
    val = padic_mod.eval_at_int_s(args.family, m, s, p)
    label = "sym" if p == padic_mod.SYMBOLIC else p
    return [(f"padic eval {args.family} m={m} s={_fmt_s(s)} p={label}", val)]


def _handle_finite(args, budget):
    if args.table:
        table = witten_core.load_table(args.table)
    elif args.family:
        key = args.family.upper()
        if key not in witten_core.BUILTIN_TABLES:
            raise DomainError(
                f"unknown builtin table {args.family!r}; have "
                f"{sorted(witten_core.BUILTIN_TABLES)}")
        table = witten_core.BUILTIN_TABLES[key]
    else:
        raise DomainError("finite commands require --table FILE or --family")
    if args.s is None:
        raise DomainError("finite commands require --s")
    if args.action == "average":
        return [(f"finite average {table.name} s={_fmt_s(args.s)}",
                 witten_core.haar_average_finite(table, args.s))]
    # eval
    c = args.class_index or 0
    s = args.s
    if s.imag == 0.0 and s.real == int(s.real):
        value = witten_core.finite_witten_L_exact(table, int(s.real), c)
    else:
        value = witten_core.finite_witten_L(table, s, c)
    return [(f"finite eval {table.name} s={_fmt_s(s)} class={c}", value)]


def _run_verify(args) -> int:
    results = verify_mod.run(args.suite)
    if args.format == "json":
        print(json.dumps([vars(r) for r in results], indent=2))
    else:
        width = max(len(r.name) for r in results)
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            line = f"{status}  {r.name:<{width}}  observed {r.observed}" \
                   f"  expected {r.expected}  tol {r.tol}"
            if r.note:
                line += f"  ({r.note})"
            print(line)
        npass = sum(r.passed for r in results)
        print(f"{npass}/{len(results)} checks passed")
    return EXIT_OK if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zeta",
        description="Witten zeta and L-functions: SU(2), SU(3), and "
                    "p-adic group families")
    sub = parser.add_subparsers(dest="module", required=True)

    def common(p):
        p.add_argument("--s", type=_parse_s, help="s as re or re,im")
        p.add_argument("--theta", help="angle(s) in radians, comma-separated")
        p.add_argument("--theta-pi", dest="theta_pi",
                       help="angle(s) as rational multiples of pi, e.g. 1/2")
        p.add_argument("--m", type=int, help="integer parameter m")
        p.add_argument("--n", type=int, help="integer parameter n")
        p.add_argument("--p", type=_parse_p, help="prime p or 'sym'")
        p.add_argument("--family", help="group family or builtin table name")
        p.add_argument("--table", help="character-table file")
        p.add_argument("--class", dest="class_index", type=int,
                       help="conjugacy class index (finite eval)")
        p.add_argument("--format", choices=("text", "json", "csv"),
                       default="text")
        p.add_argument("--precision", type=int, default=None,
                       help="digits in [6, 15]; default 10")

    for module, actions in (
            ("polylog", ("eval", "series", "jonquiere", "closed", "neg")),
            ("su2", ("eval", "special", "deriv2", "multi", "average")),
            ("su3", ("eval", "special", "lemma")),
            ("padic", ("list", "eval", "zero", "limit", "factor-check")),
            ("finite", ("eval", "average"))):
        p = sub.add_parser(module)
        p.add_argument("action", choices=actions)
        common(p)

    pv = sub.add_parser("verify")
    pv.add_argument("--suite", default="all",
                    choices=("all", "polylog", "su2", "su3", "padic", "core"))
    pv.add_argument("--format", choices=("text", "json"), default="text")
    return parser


_HANDLERS = {
    "polylog": _handle_polylog,
    "su2": _handle_su2,
    "su3": _handle_su3,
    "padic": _handle_padic,
    "finite": _handle_finite,
}


def _resolve_precision(args) -> int:
    digits = args.precision
    if digits is None:
        env = os.environ.get(_PRECISION_ENV)
        digits = int(env) if env else 10
    if not 6 <= digits <= 15:
        raise _UsageError("precision must lie in [6, 15]")
    return digits


class _UsageError(Exception):
    pass


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.module == "verify":
            return _run_verify(args)
        digits = _resolve_precision(args)
        budget = PrecisionBudget(target=10.0 ** (-digits))
        t0 = time.perf_counter()
        pairs = _HANDLERS[args.module](args, budget)
        ms = (time.perf_counter() - t0) * 1000.0 / max(1, len(pairs))
        records = [_record(q, v, ms, budget.target) for q, v in pairs]
        _print_records(records, [v for _, v in pairs], args.format, digits)
        return EXIT_OK
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except argparse.ArgumentTypeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
