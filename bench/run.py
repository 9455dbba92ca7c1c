"""wittenzeta benchmark: three seeded, closed-loop, single-caller workloads.

    python3 bench/run.py --workload su2-grid|su3-line|exact-cli \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from src/. The
seed chooses the inputs from the pools in bench/oracle/ (see
make_oracle.py), after a first block that is the same for every seed, and
the program receives only those inputs; no timed item is one that failed
when the benchmark was added, and a fixed list of those (the defect
probe) runs untimed after the loop. Every result is checked against the
reference table. Times are scaled to a reference machine speed (see
calibrate.py). The run prints its input properties, every metric
by name and unit, and as its last line one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1.

Workloads (one caller; at most one child process at a time):
  su2-grid   witten_L_su2 over real and complex s, Re s in [-20, 3],
             |Im s| <= 10, theta from 13 fixed classes; small shares of
             multi_L (r = 2, 3) and haar_average_su2.
  su3-line   witten_su3_continued in the n = 1 strip, real or complex s
             (|Im s| <= 10), the removable integers -1..3, and mt_series
             at Re s > 1.
  exact-cli  a fresh `python -m wittenzeta.cli` process per command, mostly
             exact commands (padic, su3 special/lemma, polylog closed/neg,
             finite, su2 special) plus su2 eval at s = -1 and su2 deriv2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import threading
import time

import calibrate
import check
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("su2-grid", "su3-line", "exact-cli")
TARGETS = (1e-6, 1e-10, 1e-13)
MIN_ITEMS = 100  # so that p90 has at least ten samples beyond it
# set-up is timed in this many fresh processes, half before and half after
# the timed loop, so that one burst of load on the machine moves few of them
SETUP_SAMPLES = 12
STREAM_BLOCKS = 200  # a run that gets through them all ends early

# Each workload is a stream of blocks. A block holds a fixed number of items
# of each stratum (drawn without replacement from that stratum's pool and
# shuffled within the block), so the mix and the cost per item are the
# same for every seed.
SU2_BLOCK = (("real_pos", 40), ("real_neg", 44), ("complex", 48),
             ("integer", 12), ("multi", 14),
             ("haar_1e-06", 1), ("haar_1e-10", 1))
# "defect" holds the documented SU(2) defect points; they run in the
# defect probe only (see defect_probe)
SU2_STRATA = {k for k, _ in SU2_BLOCK} | {"defect"}
# Haar items keep their own target, one each per block: at 1e-13 an item
# takes about 1.5 s (192 integrand evaluations at that target), so one
# more or fewer would move a run's throughput by several percent, while
# the quadrature's tolerance stops at 1e-9 in any case.
FIXED_TARGETS = {"haar_1e-06": 1e-6, "haar_1e-10": 1e-10}
# su3-line: complex points in two |Im s| bands, (0, 6] and (6, 10], each
# split into its cheaper and costlier half by baseline work.
SU3_BANDS = {"low": ("complex0", "complex1", "complex2"),
             "high": ("complex3", "complex4")}
SU3_BLOCK = (("real", 25), ("mt", 8), ("removable", 3),
             ("low_cheap", 1), ("low_costly", 1),
             ("high_cheap", 1), ("high_costly", 1))
CLI_BLOCK = (("padic_eval_sym", 1), ("padic_eval_num", 2), ("padic_zero", 1),
             ("padic_other", 1), ("su3_special", 2), ("su3_lemma", 1),
             ("polylog_closed", 1), ("polylog_neg", 1), ("finite_eval", 2),
             ("finite_average", 1), ("su2_special", 2), ("su2_eval", 2),
             ("su2_deriv2", 2), ("heavy", 1))
CLI_PRECISIONS = (None, 6, 10, 13)  # None: the default of 10 digits

# max_err_over_claim reports claim ratios below this as this: they are
# float round-off (at the tightest target, 1e-13, a ratio of 0.05 is about
# 20 ulps), not truncation, and would move with any reordering of a sum.
CLAIM_FLOOR = 0.05

# What make_baseline.py recorded from the code when the benchmark was
# added: the items that already failed and the work of each complex su3
# point. The timed workloads draw no item that already failed, so no
# operation of a correct run fails; the failing items are shown by the
# defect probe instead.
BASELINE = os.path.join(HERE, "oracle", "baseline.json")
# A drawn row that is a known failure at its target is replaced by another
# row of its stratum at the same target, at most this many times.
REDRAWS = 200
# The defect probe: a fixed list of known failures, the same for every
# seed, run untimed after the timed loop. ROADMAP's documented defects
# (SU(2) trivial zeros at even s <= -10 and s = -10 + 1e-6, the SU(3)
# removable integers) plus a sample of the other recorded failures.
PROBE_OTHERS = 8


class Item:
    __slots__ = ("stratum", "target", "call", "ref", "argv", "fmt",
                 "precision", "refs")

    def __init__(self, stratum, target, call=None, ref=None, argv=None,
                 fmt=None, precision=None, refs=None):
        self.stratum, self.target = stratum, target
        self.call, self.ref = call, ref  # library: worker input, reference
        self.argv, self.fmt = argv, fmt  # cli: zeta argv, --format
        self.precision, self.refs = precision, refs

    @property
    def key(self):
        """What the program receives, as a string."""
        return json.dumps(self.call) if self.argv is None \
            else " ".join(self.argv)


def library_item(stratum, row, target):
    """An item of su2-grid or su3-line from one pool row."""
    if stratum.startswith("haar"):
        s, r_re = row
        s_im, r_im = 0.0, 0.0
        call = ["haar", s, 0.0, None, target]
    elif stratum == "multi":
        s_re, s_im, ths, r_re, r_im = row
        call = ["multi", s_re, s_im, ths, target]
    elif stratum in SU2_STRATA:
        s_re, s_im, th, r_re, r_im = row
        call = ["L", s_re, s_im, th, target]
    else:
        s_re, s_im, r_re, r_im = row[:4]
        call = ["mt" if stratum == "mt" else "su3", s_re, s_im, None, target]
    return Item(stratum, target, call, complex(r_re, r_im))


def cli_formats(refs):
    """csv prints rational functions as nan, so they use text or json."""
    return ("text", "json") if any(r["type"] == "rf" for r in refs) \
        else ("text", "json", "csv")


def is_float(refs):
    """Floating commands get a --precision (or the default)."""
    return any(r["type"] == "float" for r in refs)


def cli_item(stratum, row, fmt, precision):
    argv, refs = row
    digits = 10 if precision is None else precision
    full = list(argv) + ["--format", fmt]
    if precision is not None:
        full += ["--precision", str(precision)]
    return Item(stratum, 10.0 ** -digits, argv=full, fmt=fmt,
                precision=digits, refs=refs)


# ---------------------------------------------------------------------------
# Seeded input generation
# ---------------------------------------------------------------------------

class Draws:
    """Seeded draws without replacement from each stratum's pool; a pool
    that runs out is reshuffled, so inputs repeat only after all of it."""

    def __init__(self, rng, pools):
        self.rng, self.pools, self.left, self.count = rng, pools, {}, {}

    def draw(self, key):
        left = self.left.get(key)
        if not left:
            left = list(range(len(self.pools[key])))
            self.rng.shuffle(left)
            self.left[key] = left
        return self.pools[key][left.pop()]

    def target(self, key):
        """Targets rotate within a stratum, so every stratum has the same
        target mix."""
        n = self.count.get(key)
        if n is None:
            n = self.rng.randrange(len(TARGETS))
        self.count[key] = n + 1
        return TARGETS[n % len(TARGETS)]

    def reseed(self, rng):
        """Continue with another rng: what is left of each pool is
        reshuffled, so no row repeats early."""
        self.rng = rng
        for left in self.left.values():
            rng.shuffle(left)


BLOCKS = {"su2-grid": SU2_BLOCK, "su3-line": SU3_BLOCK, "exact-cli": CLI_BLOCK}


def block_keys(rng, workload):
    keys = [k for k, n in BLOCKS[workload] for _ in range(n)]
    rng.shuffle(keys)
    return keys


def block_len(workload):
    """Items per block. A timed run stops only at the end of a block, so
    every run has the same mix. The first block of every run is the same
    for every seed; it is the fixed prefix over which max_err_over_claim is
    taken."""
    return sum(n for _, n in BLOCKS[workload])


def known_failures(workload):
    with open(BASELINE, encoding="utf-8") as fh:
        return set(json.load(fh)["known_failures"][workload])


def generate(workload, seed, pools):
    if workload == "su3-line":
        pools = su3_strata(pools)
    elif workload == "su2-grid":
        pools = dict(pools, **{k: pools["haar"] for k in FIXED_TARGETS})
    known = known_failures(workload)
    rng = random.Random(f"{workload}:prefix")
    draws = Draws(rng, pools)
    items = []
    for b in range(STREAM_BLOCKS):
        if b == 1:
            rng = random.Random(f"{workload}:{seed}")
            draws.reseed(rng)
        for key in block_keys(rng, workload):
            items.append(draw_item(workload, key, rng, draws, known))
    return items


def draw_item(workload, key, rng, draws, known):
    """The next item of stratum `key` that is not a known failure."""
    if workload == "exact-cli":
        row = draws.draw(key)
        fmt = rng.choice(cli_formats(row[1]))
        precision = rng.choice(CLI_PRECISIONS) if is_float(row[1]) else None
        return cli_item(key, row, fmt, precision)  # none of them fails
    # a removable-integer entry carries its own target
    t = None if key == "removable" else \
        FIXED_TARGETS.get(key) or draws.target(key)
    for _ in range(REDRAWS):
        row = draws.draw(key)
        it = library_item(key, row, row[4] if key == "removable" else t)
        if it.key not in known:
            return it
    raise RuntimeError(f"{workload}: no item of {key} at {t} passes")


def defect_probe(workload, pools):
    """The fixed list of known failures run after the timed loop."""
    known = known_failures(workload)
    rng = random.Random("probe")
    if workload == "su2-grid":  # one failing point at each s of the pool
        by_s = {}
        for it in all_items(workload, {"defect": pools["defect"]}):
            if it.key in known:
                by_s.setdefault(it.call[1], []).append(it)
        documented = [rng.choice(by_s[s]) for s in sorted(by_s)]
    elif workload == "su3-line":
        documented = [library_item("removable", row, 1e-10)
                      for row in pools["removable"]]
    else:
        return []
    others = sorted((it for it in all_items(workload, pools) if it.key in known
                     and it.stratum not in ("defect", "removable")),
                    key=lambda it: it.key)
    return documented + rng.sample(others, PROBE_OTHERS)


def su3_strata(pools):
    """The su3-line strata from the pool file: the complex bands split by
    baseline work, and each (s, target) pair of the few removable integers
    as its own entry, drawn once before any repeats."""
    with open(BASELINE, encoding="utf-8") as fh:
        work = json.load(fh)["su3_work"]
    out = {"real": pools["real"], "mt": pools["mt"],
           "removable": [row + [t] for row in pools["removable"]
                         for t in TARGETS]}
    for band, keys in SU3_BANDS.items():
        rows = sorted((r for k in keys for r in pools[k]),
                      key=lambda r: (work[json.dumps(r[:2])], r[:2]))
        half = len(rows) // 2
        out[f"{band}_cheap"], out[f"{band}_costly"] = rows[:half], rows[half:]
    return out


def all_items(workload, pools):
    """Every item a seed can produce: each pool row at every target, or
    with every format and precision."""
    for key, rows in pools.items():
        for row in rows:
            if workload != "exact-cli":
                for t in TARGETS:
                    yield library_item(key, row, t)
                continue
            for fmt in cli_formats(row[1]):
                for p in (CLI_PRECISIONS if is_float(row[1]) else (None,)):
                    yield cli_item(key, row, fmt, p)


def input_properties(workload, items):
    """Measured properties of the inputs a run attempted."""
    n = len(items)
    props = {}
    kinds = {}
    for it in items:
        kinds[it.stratum] = kinds.get(it.stratum, 0) + 1
    props["mix"] = {k: round(v / n, 3) for k, v in sorted(kinds.items())}
    if workload == "su2-grid":
        seen, repeats = set(), 0
        for it in items:
            ths = it.call[3] if it.call[0] == "multi" else [it.call[3]]
            if it.call[0] != "haar":
                key = tuple(ths)
                repeats += key in seen
                seen.add(key)
        props["theta_repeat_share"] = round(repeats / n, 4)
    if workload == "su3-line":
        special = sum(1 for it in items if it.stratum == "removable"
                      or it.call[2] != 0.0)
        props["removable_or_complex_share"] = round(special / n, 4)
    if workload == "exact-cli":
        mods = {}
        for it in items:
            mods[it.argv[0]] = mods.get(it.argv[0], 0) + 1
        props["module_mix"] = {k: round(v / n, 3) for k, v in sorted(mods.items())}
        fmts = {}
        for it in items:
            fmts[it.fmt] = fmts.get(it.fmt, 0) + 1
        props["format_mix"] = {k: round(v / n, 3) for k, v in sorted(fmts.items())}
    targets = {}
    for it in items:
        if workload != "exact-cli" or is_float(it.refs):
            targets[f"{it.target:g}"] = targets.get(f"{it.target:g}", 0) + 1
    total = sum(targets.values()) or 1
    props["target_mix"] = {k: round(v / total, 3) for k, v in targets.items()}
    return props


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, stdin=None, timeout=120.0):
    """Run argv to completion. Returns (exit code, stdout, wall seconds,
    peak RSS in MB); stderr goes to bench/out/stderr.log."""
    with open(os.path.join(OUT, "stderr.log"), "ab") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=stdin or subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=err,
                                env=_env(), cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode(), wall, usage.ru_maxrss / 1024.0


def worker(*args, stdin=None, timeout=120.0):
    return run_child([sys.executable, WORKER, *map(str, args)], stdin, timeout)


def setup_samples(workload, n):
    """[(set-up seconds, calibration scale)] from n fresh processes."""
    out = []
    for _ in range(n):
        rc, text, _, _ = worker("setup", workload)
        if rc != 0:
            raise RuntimeError(f"set-up of {workload} failed (exit {rc})")
        out.append(tuple(json.loads(text)))
    return out


def run_library(workload, items, seconds, trace, min_items=MIN_ITEMS,
                block=1, timeout=None):
    """Evaluate items in one worker process, stopping only after a multiple
    of `block` items; the worker is killed after `timeout` seconds
    (default: the time asked for plus two minutes)."""
    path = os.path.join(OUT, f"items-{workload}.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(it.call) + "\n" for it in items)
    spans = os.path.join(OUT, f"spans-{workload}.npz")
    with open(path, "rb") as fh:
        rc, text, _, rss = worker("run", workload, seconds, min_items, block,
                                  int(trace), spans, stdin=fh,
                                  timeout=timeout or seconds + 120.0)
    if rc != 0:
        raise RuntimeError(f"{workload} worker failed (exit {rc})")
    res = json.loads(text)
    res["peak_rss_mb"] = rss
    return res


def run_cli(items, seconds, min_items=MIN_ITEMS, block=1, worker_trace=None):
    """Closed loop over `zeta` commands: one fresh process per item, either
    `python -m wittenzeta.cli` or, with worker_trace 0 or 1, `worker.py cli`
    without or with the tracer."""
    rows = []
    cal = calibrate.Samples()  # taken in this process between commands
    start = time.perf_counter()
    for i, it in enumerate(items):
        if i >= min_items and i % block == 0 \
                and time.perf_counter() - start >= seconds:
            break
        cal.due()
        t = time.perf_counter() - start
        if worker_trace is None:
            rc, out, wall, rss = run_child(
                [sys.executable, "-m", "wittenzeta.cli", *it.argv])
            rows.append({"rc": rc, "stdout": out, "ms": wall * 1000.0,
                         "rss": rss, "t": t})
            continue
        rc, out, wall, rss = worker("cli", worker_trace, *it.argv)
        if rc != 0:
            raise RuntimeError(f"worker.py cli failed (exit {rc})")
        row = json.loads(out)
        row.update(ms=wall * 1000.0, rss=rss, t=t)
        rows.append(row)
    wall = time.perf_counter() - start
    return {"wall_s": wall, "rows": rows,
            "cal": [[t - start, c] for t, c in cal.rows],
            "cal_s": cal.seconds()}


# ---------------------------------------------------------------------------
# Checking and metrics
# ---------------------------------------------------------------------------

def check_library(items, rows):
    """[(ok, claim ratio, reason)] per attempted item."""
    out = []
    for it, row in zip(items, rows):
        _, v_re, v_im, err = row[:4]
        if err is not None:
            out.append((False, None, f"raised {err}"))
            continue
        ratio = check.claim_ratio(complex(v_re, v_im), it.ref, it.target)
        out.append((ratio <= 1.0, ratio, "" if ratio <= 1.0 else "outside claim"))
    return out


def check_cli(items, rows):
    return [check.check_command(r["rc"], r["stdout"], it.refs, it.fmt,
                                it.target, it.precision)
            for it, r in zip(items, rows)]


def item_ms(workload, res):
    """(unscaled, scaled) milliseconds of each item of a timed loop."""
    rows = res["rows"]
    if workload == "exact-cli":
        ms, times = [r["ms"] for r in rows], [r["t"] for r in rows]
        nearest = calibrate.NEAREST_CLI
    else:
        ms, times = [r[0] for r in rows], [r[4] for r in rows]
        nearest = calibrate.NEAREST
    scales = calibrate.scale(res["cal"], times, nearest)
    return ms, [m * k for m, k in zip(ms, scales)]


def percentile(values, q):
    """Nearest-rank percentile."""
    xs = sorted(values)
    return xs[max(0, math.ceil(q * len(xs)) - 1)]


def summarize(workload, items, verdicts):
    """Failures, and max_err_over_claim: the largest claim ratio over the
    floating items of the fixed prefix, so that it is the same for every
    seed and at most 1 on a correct run."""
    by_class = {}
    for it, (ok, _, why) in zip(items, verdicts):
        if not ok:
            by_class[(it.stratum, why)] = by_class.get((it.stratum, why), 0) + 1
    prefix = zip(items[:block_len(workload)], verdicts)
    ratios = [r for _, (_, r, _) in prefix if r is not None]
    return {"attempted": len(verdicts), "failed": sum(by_class.values()),
            "by_class": by_class,
            "max_err_over_claim": max([CLAIM_FLOOR] + ratios)}


def run_probe(workload, pools):
    """Run the defect probe untimed; print how many of its known failures
    still fail. It does not count in `attempted` or `failed`."""
    probe = defect_probe(workload, pools)
    if not probe:
        return
    res = run_library(workload, probe, 0.0, False, len(probe))
    verdicts = check_library(probe, res["rows"])
    fixed = [it.key for it, (ok, _, _) in zip(probe, verdicts) if ok]
    print(f"defect probe: {len(probe) - len(fixed)} of {len(probe)} known "
          "failures still fail")
    for key in fixed:
        print(f"defect probe: now passes {key}")


def end_to_end(workload, seed, seconds, pools):
    items = generate(workload, seed, pools)
    block = block_len(workload)
    min_items = max(MIN_ITEMS, block)
    worker("setup", workload)  # compiles .pyc files and warms the file cache
    setups = setup_samples(workload, SETUP_SAMPLES // 2)
    if workload == "exact-cli":
        res = run_cli(items, seconds, min_items, block)
        rows = res["rows"]
        items = items[:len(rows)]
        verdicts = check_cli(items, rows)
        rss = max(r["rss"] for r in rows)
    else:
        res = run_library(workload, items, seconds, False, min_items, block)
        rows = res["rows"]
        items = items[:len(rows)]
        verdicts = check_library(items, rows)
        rss = res["peak_rss_mb"]
    setups += setup_samples(workload, SETUP_SAMPLES - len(setups))
    summary = summarize(workload, items, verdicts)
    ms, scaled = item_ms(workload, res)
    n = len(ms)
    metrics = {
        "setup_s": (statistics.median(t * k for t, k in setups), "s"),
        "items_per_s": (1000.0 * n / sum(scaled), "1/s"),
        "item_ms_p50": (percentile(scaled, 0.5), "ms"),
        "item_ms_p90": (percentile(scaled, 0.9), "ms"),
        "peak_rss_mb": (rss, "MB"),
        "max_err_over_claim": (summary["max_err_over_claim"], "ratio"),
    }
    unscaled = {
        "setup_s": statistics.median(t for t, _ in setups),
        "items_per_s": n / (res["wall_s"] - res["cal_s"]),
        "item_ms_p50": percentile(ms, 0.5),
        "item_ms_p90": percentile(ms, 0.9),
    }
    report(workload, seed, items, summary, metrics, unscaled, notes={
        "setup_s": f"median of {len(setups)}",
        "max_err_over_claim": f"first {block_len(workload)} items, "
                              f"floor {CLAIM_FLOOR}",
        "item_ms_p50": f"n={n}",
        "item_ms_p90": f"n={n}, {n - math.ceil(0.9 * n)} beyond"})
    print(f"calibration: {len(res['cal'])} samples in the loop, median scale "
          f"{statistics.median(scaled[i] / ms[i] for i in range(n)):.4f}")
    run_probe(workload, pools)
    return summary, metrics


def report(workload, seed, items, summary, metrics, unscaled, notes):
    print(f"workload {workload}  seed {seed}  items {len(items)}")
    for key, val in input_properties(workload, items).items():
        print(f"input {key} {json.dumps(val)}")
    shown = dict(metrics)
    att, fail = summary["attempted"], summary["failed"]
    shown["failed_frac"] = (fail / att, "1")
    notes = dict(notes, failed_frac=f"{fail}/{att}")
    for name, (value, unit) in shown.items():
        extra = f"  ({notes[name]})" if name in notes else ""
        if name in unscaled:
            extra += f"  unscaled {unscaled[name]:.6g}"
        print(f"metric {name} {value:.6g} {unit}{extra}")
    print_failures(summary)


def print_failures(summary):
    for (stratum, why), count in sorted(summary["by_class"].items()):
        print(f"failures {count} {stratum}: {why}")


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

def src_lines():
    total = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def startup_ms(n=5):
    """Median wall of `python -c pass` and of importing wittenzeta.cli."""
    interp = [run_child([sys.executable, "-c", "pass"])[2] for _ in range(n)]
    imp = [run_child([sys.executable, "-c", "import wittenzeta.cli"])[2]
           for _ in range(n)]
    i_ms = statistics.median(interp) * 1000.0
    return i_ms, statistics.median(imp) * 1000.0 - i_ms


def traced(workload, seed, seconds, pools):
    """Untraced for half the time, then the same items traced: per-layer
    metrics come from the traced pass, overhead from the pair."""
    items = generate(workload, seed, pools)
    block = block_len(workload)
    worker("setup", workload)
    if workload == "exact-cli":
        plain = run_cli(items, seconds / 2, min_items=0, block=block,
                        worker_trace=0)
        n = len(plain["rows"])
        tr = run_cli(items[:n], math.inf, min_items=n, worker_trace=1)
        verdicts = check_cli(items[:n], plain["rows"])
        verdicts += check_cli(items[:n], tr["rows"])
        totals = _merge_cli_traces(tr["rows"])
        _save_cli_spans(tr["rows"])
    else:
        plain = run_library(workload, items, seconds / 2, False, min_items=0,
                            block=block)
        n = len(plain["rows"])
        tr = run_library(workload, items[:n], math.inf, True, min_items=n,
                         timeout=4.0 * plain["wall_s"] + 120.0)
        verdicts = check_library(items[:n], plain["rows"])
        verdicts += check_library(items[:n], tr["rows"])
        totals = tr["trace"]
    summary = summarize(workload, items[:n] * 2, verdicts)
    interp_ms, import_ms = startup_ms()
    metrics = {}
    for name in tracing.ALL_NAMES:
        metrics[f"{name}.calls"] = (totals["calls"][name] / n, "count")
        metrics[f"{name}.self_ms"] = (totals["self_s"][name] * 1000.0 / n, "ms")
    for name in tracing.CACHED:
        hits, misses = totals["cache"].get(name, (0, 0))
        metrics[f"{name}.hit_ratio"] = (hits / (hits + misses)
                                        if hits + misses else 0.0, "ratio")
    calls = totals["calls"]
    nested = totals["nested"]
    haar = calls["su2.haar_average_su2"]
    metrics["su2.haar_average_su2.integrand_evals"] = (
        nested["su2.haar_average_su2>su2.witten_L_su2"] / haar if haar else 0.0,
        "count")
    evals, mb = calls["su3.witten_su3_continued"], calls["su3._mb_direct"]
    metrics["su3.mb_direct_per_eval"] = (mb / evals if evals else 0.0, "ratio")
    metrics["su3.log_gamma_per_mb"] = (
        nested["su3._mb_direct>numerics.log_gamma"] / mb if mb else 0.0,
        "ratio")
    layer_self = {layer: 0.0 for layer in tracing.LAYERS}
    for name, secs in totals["self_s"].items():
        layer_self[name.split(".")[0]] += secs
    traced_total = sum(layer_self.values()) or 1.0
    for layer, secs in layer_self.items():
        metrics[f"{layer}.self_share"] = (secs / traced_total, "frac")
    metrics["cli.interpreter_ms"] = (interp_ms, "ms")
    metrics["cli.import_ms"] = (import_ms, "ms")
    metrics["code.src_lines"] = (float(src_lines()), "lines")
    metrics["trace.overhead_frac"] = (
        sum(item_ms(workload, tr)[1]) / sum(item_ms(workload, plain)[1]) - 1.0,
        "frac")
    print(f"workload {workload}  seed {seed}  traced items {n}  "
          f"spans {totals['spans']}")
    for name, (value, unit) in metrics.items():
        print(f"layer {name} {value:.6g} {unit}")
    top = max(layer_self, key=layer_self.get)
    print(f"largest self-time share: {top} "
          f"{layer_self[top] / traced_total:.3f}")
    if workload == "exact-cli":
        p50 = percentile(item_ms(workload, plain)[0], 0.5)
        print(f"interpreter + import share of untraced item_ms_p50: "
              f"{(interp_ms + import_ms) / p50:.3f} of {p50:.1f} ms")
    print_failures(summary)
    return summary, metrics


def _merge_cli_traces(rows):
    totals = {"calls": {}, "self_s": {}, "cache": {}, "nested": {},
              "spans": 0}
    for r in rows:
        t = r["trace"]
        for part in ("calls", "self_s"):
            for k, v in t[part].items():
                totals[part][k] = totals[part].get(k, 0) + v
        for k, (h, m) in t["cache"].items():
            h0, m0 = totals["cache"].get(k, (0, 0))
            totals["cache"][k] = (h0 + h, m0 + m)
        for k, v in t["nested"].items():
            totals["nested"][k] = totals["nested"].get(k, 0) + v
        totals["spans"] += t["spans"]
    return totals


def _save_cli_spans(rows):
    """All commands' spans in one file; item ids are command indices."""
    import numpy as np
    cols = {k: [] for k in ("name_id", "parent", "item", "start", "end")}
    for i, r in enumerate(rows):
        sp = r["spans"]
        base = len(cols["start"])
        cols["name_id"] += sp["name_id"]
        cols["parent"] += [p + base if p >= 0 else -1 for p in sp["parent"]]
        cols["item"] += [i] * len(sp["item"])
        cols["start"] += sp["start"]
        cols["end"] += sp["end"]
    np.savez(os.path.join(OUT, "spans-exact-cli.npz"),
             names=np.array(tracing.ALL_NAMES),
             **{k: np.array(v) for k, v in cols.items()})


# ---------------------------------------------------------------------------

def load_pools(workload):
    section = {"su2-grid": "su2", "su3-line": "su3", "exact-cli": "cli"}[workload]
    with open(os.path.join(HERE, "oracle", f"{section}.json"),
              encoding="utf-8") as fh:
        return json.load(fh)["pools"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "wittenzeta", "__init__.py")):
        print(f"error: {SRC}/wittenzeta not found; run from a checkout",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    pools = load_pools(args.workload)
    run = traced if args.trace else end_to_end
    summary, metrics = run(args.workload, args.seed, args.seconds, pools)
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
