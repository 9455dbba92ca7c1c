"""Self-test of the benchmark's checker, at small size:

    python3 bench/selftest.py

It feeds the checker results that are known to be good and results that
are known to be bad (a perturbed value, an exception, a non-zero exit code,
a wrong exact value, unparseable output) and fails unless exactly the bad
ones are counted as failures. The program itself is only run to obtain
real, correct CLI output to start from.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import run  # noqa: E402


def _expect(label, verdicts, bad):
    failed = {i for i, (ok, _, _) in enumerate(verdicts) if not ok}
    if failed != set(bad):
        raise SystemExit(f"selftest FAILED ({label}): failures at "
                         f"{sorted(failed)}, expected {sorted(bad)}")
    print(f"ok  {label}: {len(verdicts)} checked, {len(bad)} counted as "
          "failures, as expected")


def library():
    for workload in ("su2-grid", "su3-line"):
        items = run.generate(workload, 0, run.load_pools(workload))[:12]
        rows = [[1.0, it.ref.real, it.ref.imag, None] for it in items]
        it = items[3]  # a value just outside its claim
        off = 1.5 * it.target * max(1.0, abs(it.ref))
        rows[3] = [1.0, it.ref.real + off, it.ref.imag, None]
        it = items[4]  # a value just inside it
        off = 0.5 * it.target * max(1.0, abs(it.ref))
        rows[4] = [1.0, it.ref.real, it.ref.imag + off, None]
        rows[7] = [1.0, math.nan, math.nan, "ConvergenceError"]
        rows[9] = [1.0, math.nan, 0.0, None]
        verdicts = run.check_library(items, rows)
        _expect(workload, verdicts, [3, 7, 9])
        summary = run.summarize(workload, items, verdicts)
        assert summary["failed"] == 3 and summary["attempted"] == 12, summary
        # item 4 is inside its claim at half of it, so the prefix maximum
        # is at least that
        assert summary["max_err_over_claim"] >= 0.5 - 1e-9, summary


def _cli_output(argv):
    import wittenzeta.cli as cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def cli():
    items = run.generate("exact-cli", 0, run.load_pools("exact-cli"))
    picked = {}
    for it in items:  # one command of each output format and value type
        kinds = tuple(sorted({r["type"] for r in it.refs}))
        picked.setdefault((it.fmt, kinds), it)
    picked = list(picked.values())
    rows = [_cli_output(it.argv) for it in picked]
    verdicts = [run.check.check_command(rc, out, it.refs, it.fmt, it.target,
                                        it.precision)
                for it, (rc, out) in zip(picked, rows)]
    _expect("exact-cli, real output", verdicts, [])
    cases = []
    for it, (rc, out) in zip(picked, rows):
        cases.append((it, 3, out))  # non-zero exit code, same output
        cases.append((it, 0, ""))  # no output
        if it.fmt == "json":
            data = json.loads(out)
            rec = data[0] if isinstance(data, list) else data
            if isinstance(rec["value"], dict) and "re" in rec["value"]:
                rec["value"]["re"] += 10 * it.target * max(1, abs(rec["value"]["re"]))
            elif isinstance(rec["value"], bool):
                rec["value"] = not rec["value"]
            elif isinstance(rec["value"], dict):
                rec["value"]["num"] = rec["value"]["num"] + ["1"]
            else:
                rec["value"] = str(rec["value"]) + "1"
            cases.append((it, 0, json.dumps(data)))
    verdicts = [run.check.check_command(rc, out, it.refs, it.fmt, it.target,
                                        it.precision)
                for it, rc, out in cases]
    _expect("exact-cli, perturbed output", verdicts, range(len(cases)))


def main():
    library()
    cli()
    print("selftest passed")


if __name__ == "__main__":
    main()
