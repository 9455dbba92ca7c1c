"""Child process of bench/run.py; run with PYTHONPATH=src.

    worker.py setup <workload>
        import wittenzeta (and warm up); print the set-up seconds and the
        calibration scale measured right after (see calibrate.py).
    worker.py run <workload> <seconds> <min_items> <block> <trace> <spans_path>
        read items from stdin, one JSON list per line, evaluate them in a
        closed loop until `seconds` have passed, at least `min_items` are
        done and the count done is a multiple of `block`, and print one JSON object with per-item results, the
        calibration samples taken between items (and the trace summary).
    worker.py cli <trace> <argv...>
        run wittenzeta.cli.main(argv) in this process, with the tracer
        installed if trace is 1; print exit code, captured output (and the
        trace) as JSON. With trace 0 it takes the same path without the
        tracer, so the pair measures the tracer's overhead.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import time
import traceback

import calibrate  # bench/ is sys.path[0]


def _warm_up(workload):
    """Import wittenzeta and make one call off the timed path."""
    import wittenzeta as wz
    if workload == "su2-grid":
        wz.witten_L_su2(-0.5, 1.0)
    elif workload == "su3-line":
        wz.witten_su3_continued(1.5)
    else:
        import wittenzeta.cli  # noqa: F401
    return wz


def setup_seconds(workload):
    t0 = time.perf_counter()
    _warm_up(workload)
    seconds = time.perf_counter() - t0
    return [seconds, calibrate.setup_scale()]


def _functions(wz):
    """Item kind -> callable(s, arg, target). Functions are looked up on
    their module at call time, so a traced run sees its wrappers."""
    budget = wz.PrecisionBudget
    su2, su3 = wz.su2, wz.su3
    return {
        "L": lambda s, th, t: su2.witten_L_su2(s, th, budget(target=t)),
        "multi": lambda s, ths, t: su2.multi_L(s, ths, budget(target=t)),
        "haar": lambda s, _, t: su2.haar_average_su2(s.real, budget(target=t)),
        "su3": lambda s, _, t: su3.witten_su3_continued(
            s, su3.MBParams(), budget(target=t)),
        "mt": lambda s, _, t: su3.mt_series(s, budget(target=t)),
    }


def run(workload, seconds, min_items, block, trace, spans_path):
    t0 = time.perf_counter()
    wz = _warm_up(workload)
    setup = time.perf_counter() - t0
    tracer = None
    if trace:
        from tracing import Tracer  # bench/ is sys.path[0]
        tracer = Tracer()
        tracer.install()
    fns = _functions(wz)
    rows = []
    cal = calibrate.Samples()
    start = time.perf_counter()
    deadline = start + seconds
    for i, line in enumerate(sys.stdin):  # one item per line, read lazily
        if i >= min_items and i % block == 0 \
                and time.perf_counter() >= deadline:
            break
        cal.due()
        kind, s_re, s_im, arg, target = json.loads(line)
        if tracer is not None:
            tracer.item = i
        fn = fns[kind]
        err = None
        t = time.perf_counter()
        try:
            v = complex(fn(complex(s_re, s_im), arg, target))
        except Exception as exc:  # an item that raises counts as failed
            v, err = complex(math.nan, math.nan), type(exc).__name__
        ms = (time.perf_counter() - t) * 1000.0
        rows.append([ms, v.real, v.imag, err, t - start])
    wall = time.perf_counter() - start
    out = {"setup_s": setup, "wall_s": wall, "rows": rows,
           "cal": [[t - start, c] for t, c in cal.rows],
           "cal_s": cal.seconds()}
    if tracer is not None:
        out["trace"] = tracer.summary()
        _save_spans(spans_path, tracer)
    json.dump(out, sys.stdout)


def _save_spans(path, tracer):
    import numpy as np
    arrays = {k: np.frombuffer(v, dtype=v.typecode)
              for k, v in tracer.span_arrays().items()}
    np.savez(path, names=np.array(tracer.names), **arrays)


def cli(trace, argv):
    import wittenzeta.cli as cli
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(cli=True)
        tracer.item = 0
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback: exit code 1, as from `zeta`
            traceback.print_exc()
            rc = 1
    out = {"rc": rc, "stdout": buf.getvalue()}
    if tracer is not None:
        out["trace"] = tracer.summary()
        out["spans"] = {k: list(v) for k, v in tracer.span_arrays().items()}
    json.dump(out, sys.stdout)


def main(argv):
    mode = argv[0]
    if mode == "setup":
        print(json.dumps(setup_seconds(argv[1])))
    elif mode == "run":
        run(argv[1], float(argv[2]), int(argv[3]), int(argv[4]),
            argv[5] == "1", argv[6])
    elif mode == "cli":
        cli(argv[1] == "1", argv[2:])
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
