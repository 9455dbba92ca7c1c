"""The benchmark's checker: compares what the program returned with the
reference table. An item fails if it raised, exited non-zero, returned a
wrong exact value, or returned a floating value outside its claim
|v - ref| > target * max(1, |ref|).
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from fractions import Fraction


def claim_ratio(value: complex, ref: complex, target: float) -> float:
    """|v - ref| / (target * max(1, |ref|)); <= 1 when the claim holds."""
    err = abs(value - ref)
    if math.isnan(err):
        return math.inf
    return err / (target * max(1.0, abs(ref)))


# ---------------------------------------------------------------------------
# Parsing `zeta` output
# ---------------------------------------------------------------------------

def _poly(text: str, var: str) -> list:
    """Ascending Fractions from the CLI's polynomial text, e.g.
    '-1 + p - 16*p^2' or '2*s + s^2'."""
    coeffs = {}
    for term in text.replace(" - ", " + -").split(" + "):
        term = term.strip()
        m = re.fullmatch(rf"(-?[0-9/]+)?\*?({var}(?:\^(\d+))?)?", term)
        if not term or m is None:
            raise ValueError(f"cannot parse polynomial term {term!r}")
        c = Fraction(m.group(1)) if m.group(1) else Fraction(1)
        deg = 0 if not m.group(2) else int(m.group(3) or 1)
        coeffs[deg] = coeffs.get(deg, 0) + c
    return [coeffs.get(k, Fraction(0)) for k in range(max(coeffs) + 1)]


def _rf_text(text: str, var: str):
    if text.startswith("(") and ") / (" in text and text.endswith(")"):
        num, den = text[1:-1].split(") / (")
        return _poly(num, var), _poly(den, var)
    return _poly(text, var), [Fraction(1)]


def _gauss(text: str) -> tuple:
    """'a', 'bi', 'a+bi', 'a-bi' with rational a, b."""
    if not text.endswith("i"):
        return Fraction(text), Fraction(0)
    body = text[:-1]
    for k in range(len(body) - 1, 0, -1):
        if body[k] in "+-":
            return Fraction(body[:k]), Fraction(body[k:])
    return Fraction(0), Fraction(body)


def parse_records(stdout: str, fmt: str) -> list:
    """[(value, error)] in output order; `value` is the raw text or JSON
    value, `error` the record's "exact" or claimed target."""
    if fmt == "json":
        data = json.loads(stdout)
        recs = data if isinstance(data, list) else [data]
        return [(r["value"], r["error"]) for r in recs]
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(stdout)))
        if rows[0] != ["query", "value_re", "value_im", "error", "ms"]:
            raise ValueError("unexpected csv header")
        return [((float(r[1]), float(r[2])),
                 r[3] if r[3] == "exact" else float(r[3])) for r in rows[1:]]
    out = []
    for line in stdout.splitlines():
        m = re.fullmatch(r".* = (.*)  \[(exact|~[^,]+), [^\]]+ ms\]", line)
        if m is None:
            raise ValueError(f"cannot parse output line {line!r}")
        err = m.group(2)
        out.append((m.group(1), err if err == "exact" else float(err[1:])))
    return out


# ---------------------------------------------------------------------------
# Comparing one record with its reference
# ---------------------------------------------------------------------------

def _rf_equal(num, den, ref) -> bool:
    """num/den == ref num/den, by cross-multiplication."""
    rn = [Fraction(c) for c in ref["num"]]
    rd = [Fraction(c) for c in ref["den"]]
    if not any(den):
        return False

    def mul(a, b):
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    def trim(a):
        a = list(a)
        while a and a[-1] == 0:
            a.pop()
        return a
    return trim(mul(num, rd)) == trim(mul(rn, den))


def _float_value(value, fmt):
    """(complex, display allowance): text shows `precision` significant
    digits, so it may differ from the computed value by half a unit in the
    last digit shown, and hides an imaginary part below 10^-precision."""
    if fmt == "json":
        if isinstance(value, dict):
            return complex(value["re"], value["im"]), None
        return complex(float(value)), None
    if fmt == "csv":
        return complex(*value), None
    parts = value.split(" + ")
    re_s = parts[0]
    im_s = parts[1][:-1] if len(parts) == 2 else None
    return complex(float(re_s), float(im_s) if im_s else 0.0), (re_s, im_s)


def _display_allowance(shown, precision: int) -> float:
    re_s, im_s = shown
    total = 0.0
    for text in (re_s, im_s):
        if text is None:
            total += 10.0 ** (-precision)
            continue
        x = abs(float(text))
        if x:
            total += 0.5 * 10.0 ** (math.floor(math.log10(x)) - precision + 1)
    return total


def check_record(value, error, ref, fmt, target, precision):
    """(ok, claim ratio or None, reason)."""
    kind = ref["type"]
    if kind == "float":
        if error == "exact" or not math.isclose(float(error), target):
            return False, None, f"claims {error!r}, expected {target:g}"
        v, shown = _float_value(value, fmt)
        r = complex(ref["re"], ref["im"])
        allowance = 0.0 if shown is None else _display_allowance(shown, precision)
        err = abs(v - r)
        ratio = math.inf if math.isnan(err) \
            else max(0.0, err - allowance) / (target * max(1.0, abs(r)))
        return ratio <= 1.0, ratio, "" if ratio <= 1.0 else "outside claim"
    if error != "exact":
        return False, None, f"exact value reported with error {error!r}"
    if kind == "fraction":
        want = Fraction(ref["value"])
        if fmt == "csv":
            ok = value == (float(want), 0.0)
        else:
            ok = Fraction(value) == want
    elif kind == "bool":
        if fmt == "json":
            ok = value is ref["value"]
        elif fmt == "csv":
            ok = value == (float(ref["value"]), 0.0)
        else:
            ok = value == str(ref["value"])
    elif kind == "gauss":
        want = (Fraction(ref["re"]), Fraction(ref["im"]))
        if fmt == "csv":
            ok = value == (float(want[0]), float(want[1]))
        else:
            ok = _gauss(value) == want
    elif kind == "rf":
        if fmt == "json":
            num = [Fraction(c) for c in value["num"]]
            den = [Fraction(c) for c in value["den"]]
        else:
            num, den = _rf_text(value, ref["var"])
        ok = _rf_equal(num, den, ref)
    else:
        raise ValueError(f"unknown reference type {kind!r}")
    return ok, None, "" if ok else "wrong exact value"


def check_command(rc, stdout, refs, fmt, target, precision):
    """(ok, max claim ratio or None, reason) for one `zeta` run."""
    if rc != 0:
        return False, None, f"exit code {rc}"
    try:
        records = parse_records(stdout, fmt)
    except (ValueError, KeyError, IndexError, json.JSONDecodeError) as exc:
        return False, None, f"unparseable output: {exc}"
    if len(records) != len(refs):
        return False, None, f"{len(records)} records, expected {len(refs)}"
    worst = None
    for (value, error), ref in zip(records, refs):
        try:
            ok, ratio, why = check_record(value, error, ref, fmt, target,
                                          precision)
        except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
            ok, ratio, why = False, None, f"unparseable value: {exc}"
        if ratio is not None:
            worst = ratio if worst is None else max(worst, ratio)
        if not ok:
            return False, worst, why
    return True, worst, ""
