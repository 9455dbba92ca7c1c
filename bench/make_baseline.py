"""Record what the benchmark takes from the code as it is when the
benchmark is added, into bench/oracle/baseline.json:

* `known_failures`: per workload, every pool item (at every target, format
  and precision) that fails against the reference table. bench/run.py
  draws no timed item from this list, so a correct run has no failures,
  and runs a fixed sample of it as the defect probe.
* `su3_work`: the number of log_gamma calls witten_su3_continued makes at
  each complex pool point (target 1e-10). The contour quadrature stops at
  one of two orders, so the cost of a point is bimodal; su3-line draws
  equally from the cheaper and the costlier half of each |Im s| band, so
  every seed has the same mix.

    python3 bench/make_baseline.py

Run it from the root of a checkout after make_oracle.py; it evaluates each
item in-process (the CLI through wittenzeta.cli.main) on two processes, in
about ten minutes, and writes baseline.json from scratch.
"""

from __future__ import annotations

import contextlib
import io
import json
import multiprocessing
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import check  # noqa: E402
import run  # noqa: E402

CHUNK = 40


def _library(items):
    """(failing keys, {point: log_gamma calls} for complex su3 points)."""
    import wittenzeta as wz
    import worker
    fns = worker._functions(wz)
    calls = [0]
    log_gamma = wz.su3.log_gamma

    def counted(z):
        calls[0] += 1
        return log_gamma(z)
    wz.su3.log_gamma = counted
    bad, work = [], {}
    for it in items:
        kind, s_re, s_im, arg, target = it.call
        calls[0] = 0
        try:
            v = complex(fns[kind](complex(s_re, s_im), arg, target))
        except Exception:  # any raise is a failure
            bad.append(it.key)
            continue
        if kind == "su3" and s_im and target == 1e-10:
            work[json.dumps([s_re, s_im])] = calls[0]
        if not check.claim_ratio(v, it.ref, target) <= 1.0:
            bad.append(it.key)
    return bad, work


def _cli(items):
    import wittenzeta.cli as cli
    bad = []
    for it in items:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = cli.main(it.argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
        ok, _, _ = check.check_command(rc, out.getvalue(), it.refs, it.fmt,
                                       it.target, it.precision)
        if not ok:
            bad.append(it.key)
    return bad, {}


def _task(args):
    workload, items = args
    return (workload,) + (_cli(items) if workload == "exact-cli"
                          else _library(items))


def main():
    tasks = []
    counts = {}
    for workload in run.WORKLOADS:
        items = list(run.all_items(workload, run.load_pools(workload)))
        counts[workload] = len(items)
        tasks += [(workload, items[i:i + CHUNK])
                  for i in range(0, len(items), CHUNK)]
    known = {w: [] for w in run.WORKLOADS}
    work = {}
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(2) as pool:
        for workload, bad, w in pool.imap_unordered(_task, tasks):
            known[workload] += bad
            work.update(w)
    base = {"known_failures": {w: sorted(v) for w, v in known.items()},
            "su3_work": dict(sorted(work.items()))}
    with open(run.BASELINE, "w", encoding="utf-8") as fh:
        json.dump(base, fh, indent=0)
        fh.write("\n")
    for w in run.WORKLOADS:
        print(f"{w}: {len(known[w])} of {counts[w]} items fail "
              f"({len(known[w]) / max(1, counts[w]):.3f})")


if __name__ == "__main__":
    main()
