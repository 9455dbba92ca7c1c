"""Span tracer for the benchmark's traced runs.

`Tracer.install` replaces each named function of wittenzeta with a wrapper
that records a span (name, parent span, item id, start, end), and rebinds
every module attribute that refers to the original, so calls through
`from .x import y` bindings and recursive calls are seen too. Spans are
kept in memory in flat arrays; self time (span duration minus the time its
child spans cover) and call counts are summed per function as spans close.
Nothing is installed in an untraced run.
"""

from __future__ import annotations

import sys
import time
from array import array

# (module, attribute): the functions whose calls and self time the traced
# run reports, grouped by layer; metrics are named <module>.<attribute>.
LIBRARY_TARGETS = (
    ("numerics", "_hurwitz_em"), ("numerics", "riemann_zeta"),
    ("numerics", "hurwitz_zeta"), ("numerics", "log_gamma"),
    ("polylog", "polylog_series"), ("polylog", "polylog_continued"),
    ("polylog", "polylog_via_jonquiere"), ("polylog", "polylog_closed_form"),
    ("polylog", "polylog_eval_neg"),
    ("su2", "witten_L_su2"), ("su2", "multi_L"), ("su2", "haar_average_su2"),
    ("su2", "derivative_at_minus2"),
    ("su3", "witten_su3_continued"), ("su3", "_mb_direct"),
    ("su3", "_panel_quad"), ("su3", "mt_series"), ("su3", "special_value_su3"),
    ("exact", "bernoulli"), ("exact", "Polynomial.gcd"),
    ("padic", "eval_at_int_s"), ("padic", "verify_zero"),
    ("padic", "absolute_limit"), ("padic", "factorization_check"),
    ("witten_core", "finite_witten_L_exact"),
    ("witten_core", "finite_witten_L"), ("witten_core", "haar_average_finite"),
)
CLI_TARGETS = ("build_parser", "parse_args", "dispatch", "_print_records")
LAYERS = ("numerics", "polylog", "su2", "su3", "exact", "padic",
          "witten_core", "cli")
ALL_NAMES = tuple(f"{m}.{a}" for m, a in LIBRARY_TARGETS) \
    + tuple(f"cli.{a}" for a in CLI_TARGETS)
CACHED = ("polylog.polylog_closed_form", "exact.bernoulli")


class Tracer:
    def __init__(self):
        self.names = list(ALL_NAMES)
        self._index = {n: i for i, n in enumerate(self.names)}
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.name_id = array("H")
        self.parent = array("i")
        self.item_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.item = -1
        self._stack = []  # [span index, seconds covered by child spans]
        self._cached = {}  # name -> (lru_cache object, cache_info at install)

    def wrap(self, name, fn):
        k = self._index[name]
        stack, clock = self._stack, time.perf_counter
        name_id, parent, item_id = self.name_id, self.parent, self.item_id
        start, end, calls, self_s = self.start, self.end, self.calls, self.self_s

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(k)
            parent.append(stack[-1][0] if stack else -1)
            item_id.append(self.item)
            start.append(0.0)
            end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
                calls[k] += 1
                self_s[k] += (t1 - t0) - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, cli=False):
        """Wrap the library targets (and the CLI stages when `cli`)."""
        import wittenzeta  # noqa: F401  (loads every module)
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "wittenzeta" or n.startswith("wittenzeta.")]
        for mod_name, attr in LIBRARY_TARGETS:
            mod = sys.modules[f"wittenzeta.{mod_name}"]
            name = f"{mod_name}.{attr}"
            if "." in attr:  # a method: patch the class
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth)))
                continue
            orig = getattr(mod, attr)
            if hasattr(orig, "cache_info"):
                self._cached[name] = (orig, orig.cache_info())
            wrapped = self.wrap(name, orig)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)
        if cli:
            self._install_cli(sys.modules["wittenzeta.cli"])

    def _install_cli(self, cli):
        import argparse
        cli.build_parser = self.wrap("cli.build_parser", cli.build_parser)
        argparse.ArgumentParser.parse_args = self.wrap(
            "cli.parse_args", argparse.ArgumentParser.parse_args)
        for key, handler in list(cli._HANDLERS.items()):
            cli._HANDLERS[key] = self.wrap("cli.dispatch", handler)
        cli._print_records = self.wrap("cli._print_records",
                                       cli._print_records)

    def cache_counts(self):
        """name -> (hits, misses) since install."""
        out = {}
        for name, (obj, before) in self._cached.items():
            now = obj.cache_info()
            out[name] = (now.hits - before.hits, now.misses - before.misses)
        return out

    def nested_counts(self):
        """Calls of witten_L_su2 made inside haar_average_su2, and of
        log_gamma made inside _mb_direct."""
        pairs = {("su2.haar_average_su2", "su2.witten_L_su2"): 0,
                 ("su3._mb_direct", "numerics.log_gamma"): 0}
        for outer, inner in list(pairs):
            o, i = self._index[outer], self._index[inner]
            inside = bytearray(len(self.start))  # span has `outer` above it
            for idx in range(len(self.start)):
                p = self.parent[idx]
                if p >= 0 and (inside[p] or self.name_id[p] == o):
                    inside[idx] = 1
                    if self.name_id[idx] == i:
                        pairs[(outer, inner)] += 1
        return {f"{o}>{i}": n for (o, i), n in pairs.items()}

    def summary(self):
        """JSON-ready totals: calls, self seconds, cache and nesting counts."""
        return {"calls": dict(zip(self.names, self.calls)),
                "self_s": dict(zip(self.names, self.self_s)),
                "cache": self.cache_counts(),
                "nested": self.nested_counts(),
                "spans": len(self.start)}

    def span_arrays(self):
        return {"name_id": self.name_id, "parent": self.parent,
                "item": self.item_id, "start": self.start, "end": self.end}
