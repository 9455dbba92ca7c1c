"""Command-line front end.

Grammar: ``zeta <module> <action> [flags]`` with modules polylog, su2, su3,
padic, finite, and verify. Results print as ResultRecords in text, JSON, or
CSV; exact values carry the error estimate "exact", floating values the
precision target. Exit codes: 0 success, 2 usage error, 3 domain/pole
error, 4 convergence failure. The parser, the missing-flag check, the
dispatch and each module's --help come from one table, ``_COMMANDS``.
The library modules are the package's lazy modules, read at dispatch:
``import wittenzeta.cli`` runs only errors and loads no fractions, and a
command runs only the modules its row names, before its timer starts.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

from . import exact, numerics, padic, polylog, su2, su3, witten_core
from .errors import ConvergenceError, DomainError

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
    return complex(*map(float, parts))


def _parse_radians(text: str) -> list:
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected radians, comma-separated, got {text!r}") from None


def _parse_pi_multiples(text: str) -> list:
    # argparse does not catch ZeroDivisionError ('1/0') or OverflowError
    from fractions import Fraction
    try:
        return [float(Fraction(tok)) * math.pi for tok in text.split(",")]
    except (ValueError, ZeroDivisionError, OverflowError):
        raise argparse.ArgumentTypeError(
            f"expected rationals p/q, comma-separated, got {text!r}") from None


def _fmt_float(x: float, sign: str = "") -> str:
    """The shortest decimal that reads back as x, less a trailing .0."""
    return f"{x:{sign}}".removesuffix(".0")


def _fmt_s(s: complex) -> str:
    if s.imag == 0.0:
        return _fmt_float(s.real)
    return f"{_fmt_float(s.real)}{_fmt_float(s.imag, '+')}i"


def _parse_p(text: str):
    if text == "sym":
        return padic.SYMBOLIC
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("--p expects an integer or 'sym'")


# ---------------------------------------------------------------------------
# Result records and output formats
# ---------------------------------------------------------------------------

def _poly_coeffs(poly: exact.Polynomial) -> list:
    return [str(c) for c in poly.coeffs]


def _double(q) -> float:
    """q rounded to a double, +-inf past the largest one."""
    try:
        return float(q)
    except OverflowError:
        return math.inf if q > 0 else -math.inf


def _encode_value(value):
    """(json-encodable value, is_exact, the value as a complex): one type
    switch for every format; CSV writes the complex, NaN for a value that
    is no number (a string, a rational function). It runs no module that
    the value's own route did not run."""
    nan = complex(math.nan, math.nan)
    if isinstance(value, bool):
        return value, True, complex(value)
    if isinstance(value, str):
        return value, True, nan
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}, False, value
    if isinstance(value, (int, float)):
        return float(value), False, complex(value)
    from fractions import Fraction  # loaded by each route of an exact value
    if isinstance(value, Fraction):
        return str(value), True, complex(_double(value))
    # the package's types are read from the module that made the value: it
    # has run, and `is` reads no attribute, so no other module runs
    home = sys.modules.get(type(value).__module__)
    if home is exact and isinstance(value, exact.RationalFunction):
        return {"num": _poly_coeffs(value.num), "den": _poly_coeffs(value.den),
                "var": value.var}, True, nan
    if home is witten_core and isinstance(value,
                                          witten_core.GaussianRational):
        return str(value), True, complex(_double(value.re),
                                         _double(value.im))
    raise TypeError(f"cannot encode {type(value).__name__}")


def _record(query: str, value, ms: float, target: float) -> dict:
    encoded, is_exact, _ = _encode_value(value)
    return {"query": query, "value": encoded,
            "error": "exact" if is_exact else target, "ms": round(ms, 3)}


def _print_records(records, raw_values, fmt: str, precision: int):
    # json and csv load only for the formats that use them
    if fmt == "json":
        import json
        print(json.dumps(records if len(records) > 1 else records[0],
                         indent=2, sort_keys=True))
        return
    if fmt == "csv":
        import csv
        writer = csv.writer(sys.stdout)
        writer.writerow(("query", "value_re", "value_im", "error", "ms"))
        for rec, raw in zip(records, raw_values):
            number = _encode_value(raw)[2]
            writer.writerow((rec["query"], repr(number.real),
                             repr(number.imag), rec["error"], rec["ms"]))
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
# The command table
# ---------------------------------------------------------------------------

def _finite_is_exact(args) -> bool:
    """finite eval takes the exact route at an integer |s| <= MAX_EXACT_S."""
    s = args.s
    return s is not None and s.imag == 0.0 and s.real.is_integer() \
        and abs(s.real) <= witten_core.MAX_EXACT_S


def _finite_eval(args, target):
    s, c = args.s, args.class_index
    if _finite_is_exact(args):
        return witten_core.finite_witten_L_exact(args.table, int(s.real), c)
    return witten_core.finite_witten_L(args.table, s, c)


def _budget(target: float):
    """A floating row's budget: its module has run numerics."""
    return numerics.PrecisionBudget(target=target)


def _finite_table(args):
    """The character table from --table FILE, else the builtin --family."""
    if args.table is not None:
        try:
            return witten_core.load_table(args.table)
        except OSError as exc:
            raise argparse.ArgumentTypeError(
                f"cannot read --table {args.table!r}: {exc.strerror}"
            ) from None
    key = args.family.upper()
    if key not in witten_core.BUILTIN_TABLES:
        raise DomainError(
            f"unknown builtin table {args.family!r}; have "
            f"{sorted(witten_core.BUILTIN_TABLES)}")
    return witten_core.BUILTIN_TABLES[key]


# what an action may need: the flags' dests (any one will do) and how a
# message names them; "theta" is exactly one angle, "thetas" a list
_NEEDS = {
    "s": (("s",), "--s"),
    "theta": (("theta",), "--theta or --theta-pi (one angle)"),
    "thetas": (("theta",), "--theta or --theta-pi (1 to 3 angles)"),
    "m": (("m",), "--m"),
    "n": (("n",), "--n"),
    "family": (("family",), "--family"),
    "table": (("table", "family"), "--table FILE or --family"),
}

# the value of an absent optional flag, once the needs are met; --p's,
# padic.SYMBOLIC, is set by padic commands only, so that no other runs padic
_DEFAULTS = {"m": 1, "n": 1, "class_index": 0}

# module -> action -> (the flags it needs, its query label, its library
# call on (args, target), the lazy modules the call runs, which main runs
# before the timer). A tuple of labels labels a tuple of values; a callable
# gives the labels at dispatch, or the modules from args. A module also
# runs those it imports (polylog, su2 and su3 run numerics, padic exact),
# so a row names exact only for the exact values of polylog and su3, and
# numerics only for the floating routes of witten_core.
_COMMANDS = {
    "polylog": {
        "eval": (("s", "theta"), "polylog eval s={s} theta={theta}",
                 lambda a, t: polylog.polylog_continued(a.s, a.theta[0],
                                                        _budget(t)),
                 (polylog,)),
        "series": (("s", "theta"), "polylog series s={s} theta={theta}",
                   lambda a, t: polylog.polylog_series(a.s, a.theta[0],
                                                       _budget(t)),
                   (polylog,)),
        "jonquiere": (("s", "theta"), "polylog jonquiere s={s} theta={theta}",
                      lambda a, t: polylog.polylog_via_jonquiere(
                          a.s, a.theta[0], _budget(t)),
                      (polylog,)),
        "closed": (("m",), "polylog closed m={m}",
                   lambda a, t: polylog.polylog_closed_form(a.m),
                   (polylog, exact)),
        "neg": (("m", "theta"), "polylog neg m={m} theta={theta}",
                lambda a, t: polylog.polylog_eval_neg(a.m, a.theta[0]),
                (polylog,)),
    },
    "su2": {
        "eval": (("s", "theta"), "su2 eval s={s} theta={theta}",
                 lambda a, t: su2.witten_L_su2(a.s, a.theta[0], _budget(t)),
                 (su2,)),
        "special": (("m", "theta"), "su2 special m={m} theta={theta}",
                    lambda a, t: su2.special_value_neg_even(a.m, a.theta[0]),
                    (su2,)),
        "deriv2": (("theta",), "su2 deriv2 theta={theta}",
                   lambda a, t: su2.derivative_at_minus2(a.theta[0],
                                                         _budget(t)),
                   (su2,)),
        "multi": (("s", "thetas"), "su2 multi s={s} thetas={theta}",
                  lambda a, t: su2.multi_L(a.s, a.theta, _budget(t)),
                  (su2,)),
        "average": (("s",), "su2 average s={s}",
                    lambda a, t: su2.haar_average_su2(a.s, _budget(t)),
                    (su2,)),
    },
    "su3": {
        "eval": (("s",), "su3 eval s={s}",
                 lambda a, t: su3.witten_su3_continued(
                     a.s, su3.MBParams(n=a.n), _budget(t)),
                 (su3,)),
        "special": (("n",), "su3 special n={n}",
                    lambda a, t: su3.special_value_su3(a.n),
                    (su3, exact)),
        "lemma": (("n",), ("su3 lemma n={n} lhs", "su3 lemma n={n} rhs"),
                  lambda a, t: su3.bernoulli_convolution_check(a.n),
                  (su3, exact)),
    },
    "padic": {
        "list": ((), lambda: tuple(f"padic family {key}"
                                   for key in padic.FAMILIES),
                 lambda a, t: tuple(f.identifier
                                    for f in padic.FAMILIES.values()),
                 (padic,)),
        "eval": (("family", "s"), "padic eval {family} m={m} s={s} p={p}",
                 lambda a, t: padic.eval_at_int_s(a.family, a.m, a.s, a.p),
                 (padic,)),
        "zero": (("family", "s"), ("padic zero {family} m={m} s={s}",
                                   "padic zero {family} m={m} s={s} witness"),
                 lambda a, t: padic.verify_zero(a.family, a.m, a.s),
                 (padic,)),
        "limit": (("family",), "padic limit {family} m={m}",
                  lambda a, t: padic.absolute_limit(a.family, a.m),
                  (padic,)),
        "factor-check": (("family",), "padic factor-check {family}",
                         lambda a, t: padic.factorization_check(a.family)[0],
                         (padic,)),
    },
    "finite": {
        "eval": (("table", "s"),
                 "finite eval {table.name} s={s} class={class_index}",
                 _finite_eval,
                 lambda a: (witten_core,) if _finite_is_exact(a)
                 else (witten_core, numerics)),
        "average": (("table", "s"), "finite average {table.name} s={s}",
                    lambda a, t: witten_core.haar_average_finite(a.table,
                                                                 a.s),
                    (witten_core, numerics)),
    },
}


def _complete(args, needs) -> None:
    """Usage error for a flag the action needs and lacks; then the
    defaults of the absent optional flags and the finite table."""
    command = f"{args.module} {args.action}"
    for need in needs:
        dests, names = _NEEDS[need]
        if all(getattr(args, dest) is None for dest in dests):
            raise argparse.ArgumentTypeError(f"{command} requires {names}")
    if "theta" in needs and len(args.theta) != 1:
        raise argparse.ArgumentTypeError(
            f"{command} takes one angle, got {len(args.theta)}")
    for dest, default in _DEFAULTS.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)
    if args.module == "padic" and args.p is None:
        args.p = padic.SYMBOLIC
    if "table" in needs:
        args.table = _finite_table(args)


def _dispatch(args, target) -> list:
    """The (query, value) pairs of the action's row of _COMMANDS."""
    needs, labels, call, _ = _COMMANDS[args.module][args.action]
    _complete(args, needs)
    values = call(args, target)
    if callable(labels):
        labels = labels()
    if isinstance(labels, str):
        labels, values = (labels,), (values,)
    fields = dict(vars(args), s=None if args.s is None else _fmt_s(args.s),
                  theta=",".join(map(_fmt_float, args.theta or ())))
    return [(label.format_map(fields), value)
            for label, value in zip(labels, values)]


def _run_verify(args) -> int:
    from . import verify  # the suites load only for this command
    results = verify.run(args.suite)
    if args.format == "json":
        import json
        print(json.dumps([r.as_dict() for r in results], indent=2))
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

def _actions_help(actions) -> str:
    """The actions of one module, each with the flags it needs."""
    width = max(map(len, actions))
    lines = [f"  {action:<{width}}  "
             + (", ".join(_NEEDS[need][1] for need in needs) or "(none)")
             for action, (needs, *_) in actions.items()]
    return "actions and the flags each needs:\n" + "\n".join(lines) \
        + "\nA missing or malformed flag exits 2."


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A usage error is one line on stderr, as main prints its own."""
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="zeta",
        description="Witten zeta and L-functions: SU(2), SU(3), and "
                    "p-adic group families")
    sub = parser.add_subparsers(dest="module", required=True)

    for module, actions in _COMMANDS.items():
        p = sub.add_parser(
            module, epilog=_actions_help(actions),
            formatter_class=argparse.RawDescriptionHelpFormatter)
        p.add_argument("action", choices=tuple(actions))
        p.add_argument("--s", type=_parse_s, help="s as re or re,im")
        angle = p.add_mutually_exclusive_group()
        angle.add_argument("--theta", type=_parse_radians,
                           help="angle(s) in radians, comma-separated")
        angle.add_argument(
            "--theta-pi", dest="theta", metavar="THETA_PI",
            type=_parse_pi_multiples,
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

    pv = sub.add_parser("verify")
    pv.add_argument("--suite", default="all",
                    choices=("all", "polylog", "su2", "su3", "padic", "core"))
    pv.add_argument("--format", choices=("text", "json"), default="text")
    return parser


_HANDLERS = {module: _dispatch for module in _COMMANDS}


def _resolve_precision(args) -> int:
    digits = args.precision
    if digits is None:
        env = os.environ.get(_PRECISION_ENV) or "10"
        try:
            digits = int(env)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{_PRECISION_ENV} must be an integer, got {env!r}") from None
    if not 6 <= digits <= 15:
        raise argparse.ArgumentTypeError("precision must lie in [6, 15]")
    return digits


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.module == "verify":
            return _run_verify(args)
        digits = _resolve_precision(args)
        target = 10.0 ** (-digits)
        # the first read of a lazy module runs it: off the clock, so that
        # ms times the library call alone
        runs = _COMMANDS[args.module][args.action][3]
        for module in runs(args) if callable(runs) else runs:
            module.__name__  # noqa: B018
        t0 = time.perf_counter()
        pairs = _HANDLERS[args.module](args, target)
        ms = (time.perf_counter() - t0) * 1000.0 / max(1, len(pairs))
        records = [_record(q, v, ms, target) for q, v in pairs]
        _print_records(records, [v for _, v in pairs], args.format, digits)
        return EXIT_OK
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
