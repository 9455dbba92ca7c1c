"""Command-line interface: grammar, output formats, exit codes."""

import ast
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

import wittenzeta
from wittenzeta import cli, verify
from wittenzeta.errors import ConvergenceError

S3_TEXT = """group S3 6
classes 1 3 2
irrep 1 1 1 1
irrep 1 1 -1 1
irrep 2 2 0 -1
"""

# S4: classes e, (12), (12)(34), (123), (1234); 3^701 passes a double
S4_TEXT = """group S4 24
classes 1 6 3 8 6
irrep 1 1 1 1 1 1
irrep 1 1 -1 1 1 -1
irrep 2 2 0 2 -1 0
irrep 3 3 1 -1 0 -1
irrep 3 3 -1 -1 0 1
"""


SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(code, timeout=60):
    """Run `code` in a fresh interpreter that imports wittenzeta from src."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=timeout)


class TestBasics:
    def test_polylog_closed(self, capsys):
        code, out, _ = run(capsys, "polylog", "closed", "--m", "3")
        assert code == 0
        assert "exact" in out and "4*x^2" in out

    def test_su2_eval_text(self, capsys):
        code, out, _ = run(capsys, "su2", "eval", "--s", "2",
                           "--theta-pi", "1/3")
        assert code == 0
        assert "su2 eval s=2" in out

    def test_polylog_theta_zero_is_zeta(self, capsys):
        code, out, _ = run(capsys, "polylog", "eval", "--s", "2",
                           "--theta", "0", "--format", "json")
        assert code == 0
        rec = json.loads(out)
        assert rec["value"]["re"] == pytest.approx(math.pi ** 2 / 6, abs=1e-9)


class TestFormats:
    def test_json_record_shape(self, capsys):
        code, out, _ = run(capsys, "su2", "eval", "--s", "-1",
                           "--theta-pi", "1/2", "--format", "json")
        assert code == 0
        rec = json.loads(out)
        assert set(rec) == {"query", "value", "error", "ms"}
        assert rec["value"]["re"] == pytest.approx(0.5, abs=1e-9)
        assert rec["error"] == 1e-10

    def test_json_exact_value(self, capsys):
        code, out, _ = run(capsys, "su3", "special", "--n", "2",
                           "--format", "json")
        rec = json.loads(out)
        assert code == 0
        assert rec["value"] == "0" and rec["error"] == "exact"
        code, out, _ = run(capsys, "su3", "special", "--n", "0",
                           "--format", "json")
        assert code == 0 and json.loads(out)["value"] == "1/3"

    def test_json_rational_function(self, capsys):
        code, out, _ = run(capsys, "padic", "limit", "--family", "sl2cong",
                           "--format", "json")
        rec = json.loads(out)
        assert code == 0
        assert rec["value"] == {"num": ["2", "1"], "den": ["-1", "1"],
                                "var": "s"}

    def test_csv_header_and_quoting(self, capsys):
        code, out, _ = run(capsys, "su2", "multi", "--s", "-2",
                           "--theta-pi", "1/2,1/2,1/2", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["query", "value_re", "value_im", "error", "ms"]
        assert len(rows) == 2
        assert float(rows[1][1]) == pytest.approx(math.pi / 4, abs=1e-9)

    @pytest.mark.parametrize("argv,numbers", [
        (("su3", "special", "--n", "0"), ["0.3333333333333333", "0.0"]),
        # an exact value past the largest double is written as its sign
        (("su3", "lemma", "--n", "200"), ["-inf", "0.0"]),
        # a rational function has no number to write
        (("padic", "eval", "--family", "sl2cong", "--s", "-1"),
         ["nan", "nan"]),
    ])
    def test_csv_exact_values(self, capsys, argv, numbers):
        code, out, _ = run(capsys, *argv, "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert code == 0 and rows[1][1:4] == numbers + ["exact"]

    def test_csv_gaussian_rational(self, capsys, tmp_path):
        # a table that passes every check although no group has it: a
        # group's conjugate characters share a degree, so its values are
        # real; here class 1 gives i - i/4
        path = tmp_path / "twisted.tbl"
        path.write_text("group X 5\nclasses 1 4\nirrep 1 1 i\n"
                        "irrep 2 2 -1/2i\n")
        argv = ("finite", "eval", "--table", str(path), "--s", "0",
                "--class", "1")
        code, out, _ = run(capsys, *argv, "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert code == 0 and rows[1][1:4] == ["0.0", "0.75", "exact"]
        code, out, _ = run(capsys, *argv)
        assert code == 0 and " = 0+3/4i  [exact" in out


class TestPrecision:
    def test_flag_changes_budget(self, capsys):
        code, out, _ = run(capsys, "su2", "eval", "--s", "2",
                           "--theta-pi", "1/3", "--format", "json",
                           "--precision", "12")
        rec = json.loads(out)
        assert code == 0 and rec["error"] == 1e-12

    def test_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("WITTENZETA_PRECISION", "8")
        code, out, _ = run(capsys, "su2", "eval", "--s", "2",
                           "--theta-pi", "1/3", "--format", "json")
        rec = json.loads(out)
        assert code == 0 and rec["error"] == 1e-8

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("WITTENZETA_PRECISION", "8")
        code, out, _ = run(capsys, "su2", "eval", "--s", "2",
                           "--theta-pi", "1/3", "--format", "json",
                           "--precision", "11")
        rec = json.loads(out)
        assert code == 0 and rec["error"] == 1e-11

    def test_su2_average_meets_tight_claim(self, capsys):
        # the Haar average is 1 by orthogonality, whatever the route
        code, out, _ = run(capsys, "su2", "average", "--s", "1.2",
                           "--precision", "13", "--format", "json")
        rec = json.loads(out)
        assert code == 0 and rec["error"] == 1e-13
        assert abs(rec["value"] - 1.0) <= 1e-13

    def test_out_of_range_is_usage_error(self, capsys):
        code, _, err = run(capsys, "su2", "eval", "--s", "2",
                           "--theta-pi", "1/3", "--precision", "20")
        assert code == 2 and "precision" in err


class TestExitCodes:
    def test_usage_error_from_argparse(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["nonsense", "eval"])
        assert exc.value.code == 2

    def test_unknown_action_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["su2", "bogus"])
        assert exc.value.code == 2

    def test_missing_angle_is_usage_error(self, capsys):
        code, _, err = run(capsys, "su2", "eval", "--s", "2")
        assert code == 2 and "angle" in err

    def test_domain_error(self, capsys):
        code, _, err = run(capsys, "su3", "eval", "--s", "0.5")
        assert code == 3 and "pole" in err

    @pytest.mark.parametrize("text", ["nan", "inf", "1,nan", "0,inf"])
    def test_non_finite_s_is_domain_error(self, capsys, text):
        code, _, err = run(capsys, "su2", "eval", "--s", text, "--theta", "1")
        assert code == 3 and "finite" in err

    @pytest.mark.parametrize("argv", [
        ("su2", "eval", "--s", "-201", "--theta", "0"),
        ("polylog", "eval", "--s", "-201.5", "--theta", "0"),
    ])
    def test_zeta_gamma_overflow_is_domain_error(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 3 and "overflows" in err

    @pytest.mark.parametrize("argv", [
        ("su2", "eval", "--s=-3,1000", "--theta", "1"),
        ("su2", "eval", "--s=-3,1000", "--theta", "0"),
        ("polylog", "eval", "--s=-3,1000", "--theta", "1"),
        ("su3", "eval", "--s", "0.3,200"),
        ("su3", "eval", "--s", "0.9,1000"),
        ("su3", "eval", "--s", "1100"),
    ])
    def test_sine_overflow_is_domain_error(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 3 and err.startswith("domain error")

    def test_su3_at_large_imaginary_part(self, capsys):
        from wittenzeta.su3 import mt_series
        code, out, _ = run(capsys, "su3", "eval", "--s", "3,230",
                           "--format", "json")
        assert code == 0
        rec = json.loads(out)
        got = complex(rec["value"]["re"], rec["value"]["im"])
        want = mt_series(3.0 + 230.0j)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    def test_su3_strip_zero_is_domain_error(self, capsys):
        # an explicit --n 0 is an error, not the default strip
        code, _, err = run(capsys, "su3", "eval", "--s", "1.5", "--n", "0")
        assert code == 3 and "n must be >= 1" in err

    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, "padic", "eval", "--family", "so5",
                           "--s", "0")
        assert code == 3 and "so5" in err

    def test_su3_next_to_zero(self, capsys):
        # the rounding of 1 + 2s costs up to 4e-18/|s|: within 1e-13 at
        # s = 0.0035, the smallest of the benchmark pool; 4e-9 at 1e-9.
        # Below 5.1e-14, where 1 + 2s rounds into zeta's pole window and
        # 2s - 1 to Gamma's pole at -1, it is the same error, not a pole
        code, out, _ = run(capsys, "su3", "eval", "--s", "0.0035",
                           "--precision", "13")
        assert code == 0 and "0.34066182110" in out
        for s in ("1e-9", "1e-17", "-1e-17", "1e-320", "4e-14", "0,4e-14",
                  "4.9e-14", "5.1e-14"):
            code, _, err = run(capsys, "su3", "eval", f"--s={s}",
                               "--precision", "10")
            assert code == 4 and "rounding" in err
            assert len(err.splitlines()) == 1

    def test_convergence_error(self, capsys, monkeypatch):
        def boom(args, budget):
            raise ConvergenceError("did not converge", achieved=None)
        monkeypatch.setitem(cli._HANDLERS, "su2", boom)
        code, _, err = run(capsys, "su2", "eval", "--s", "2",
                           "--theta", "1")
        assert code == 4 and "converge" in err


class TestExactMaxima:
    @pytest.mark.parametrize("argv", [
        ("polylog", "closed", "--m", "30"),
        ("polylog", "neg", "--m", "163", "--theta", "1"),
        ("su3", "special", "--n", "200"),
        ("su3", "lemma", "--n", "200"),
    ])
    def test_at_maximum(self, capsys, argv):
        code, _, _ = run(capsys, *argv)
        assert code == 0

    @pytest.mark.parametrize("argv", [
        ("polylog", "closed", "--m", "31"),
        ("polylog", "neg", "--m", "164", "--theta", "1"),
        ("su3", "special", "--n", "201"),
        ("su3", "lemma", "--n", "202"),
    ])
    def test_above_maximum_is_domain_error(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 3 and "supports" in err


class TestFinite:
    def test_builtin_table(self, capsys):
        code, out, _ = run(capsys, "finite", "eval", "--family", "q8",
                           "--s", "-2", "--class", "0")
        assert code == 0 and "= 8" in out

    def test_table_file(self, capsys, tmp_path):
        path = tmp_path / "s3.tbl"
        path.write_text(S3_TEXT)
        code, out, _ = run(capsys, "finite", "eval", "--table", str(path),
                           "--s", "-2", "--class", "1")
        assert code == 0 and "= 0" in out

    def test_malformed_table(self, capsys, tmp_path):
        path = tmp_path / "bad.tbl"
        path.write_text("group G 6\nclasses 1 2 3\nirrep 1 1 1 1\n")
        code, _, err = run(capsys, "finite", "eval", "--table", str(path),
                           "--s", "0", "--class", "0")
        assert code == 3

    def test_huge_s_is_domain_error(self):
        # deg ** (-s - 1) as an exact Fraction used to run without end; a
        # hang here fails by the timeout instead of stalling the suite. Past
        # the exact path's |s| <= 1000 the float route runs: at 1e308 every
        # deg > 1 underflows, and at -1e308 it overflows, a domain error
        out = run_python("import wittenzeta.cli as cli\n"
                         "for s in ('--s=1e308', '--s=-1e308'):\n"
                         "    print(cli.main(['finite', 'eval', '--family',"
                         " 's3', s]))\n", timeout=30)
        lines = out.stdout.splitlines()
        assert lines[0].startswith("finite eval S3 s=1e+308 class=0 = 2  [~")
        assert lines[1:] == ["0", "3"]
        assert out.stderr.splitlines() == [
            "domain error: deg^(-s-1) overflows a float at s=(-1e+308+0j)"]

    @pytest.mark.parametrize("s,exact,want", [
        ("1000", True, 2 + Fraction(1, 2 ** 1000)), ("-2", True, 6),
        ("1001", False, 2.0), ("-1001", False, 2.0 ** 1001)])
    def test_exact_path_within_its_bound(self, capsys, s, exact, want):
        # S3 at the identity is 2 + 2^-s: integer |s| <= MAX_EXACT_S = 1000
        # takes the exact path, every other s the float route, as finite
        # average does
        code, out, _ = run(capsys, "finite", "eval", "--family", "s3",
                           f"--s={s}", "--format", "json")
        rec = json.loads(out)
        assert code == 0
        if exact:
            assert rec["error"] == "exact" and rec["value"] == str(want)
        else:
            assert rec["error"] == 1e-10
            assert rec["value"]["re"] == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("command,family", [("eval", "s3"),
                                                ("average", "q8")])
    def test_float_overflow_is_domain_error(self, capsys, command, family):
        code, _, err = run(capsys, "finite", command, "--family", family,
                           "--s=-1100.5")
        assert code == 3 and "overflows" in err

    def test_average(self, capsys):
        code, out, _ = run(capsys, "finite", "average", "--family", "s3",
                           "--s", "1.7", "--format", "json")
        rec = json.loads(out)
        assert code == 0
        assert rec["value"]["re"] == pytest.approx(1.0, abs=1e-12)


class TestVerifyCommand:
    def test_passing_suite_exits_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "core")
        assert code == 0
        assert "3/3 checks passed" in out

    def test_su3_suite_reports_documented_pole_failure(self, capsys):
        # the s = 1/2 point is a genuine pole, so the listed strip check
        # there fails by design and the suite honestly reports it
        code, out, _ = run(capsys, "verify", "--suite", "su3")
        assert code == 1
        assert "FAIL" in out and "s=0.5" in out

    def test_every_suite_runs(self):
        # the library side of `zeta verify`: every suite, and "all", whose
        # one failure is the documented s = 1/2 pole
        failed = {}
        for suite in ("polylog", "su2", "su3", "padic", "core", "all"):
            results = verify.run(suite)
            failed[suite] = [r.name for r in results if not r.passed]
        pole = ["strip independence at s=0.5"]
        assert failed == {"polylog": [], "su2": [], "su3": pole, "padic": [],
                          "core": [], "all": pole}
        assert len(results) == 47  # of "all", the last suite run

    def test_precision_is_usage_error(self):
        # verify runs fixed checks; a --precision there would be ignored
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--suite", "core", "--precision", "12"])
        assert exc.value.code == 2

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "padic",
                           "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert all(item["passed"] for item in data)

    def test_json_record_keys(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "core",
                           "--format", "json")
        assert code == 0
        assert {tuple(item) for item in json.loads(out)} == {
            ("name", "passed", "observed", "expected", "tol", "note")}


class TestPadicCli:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "padic", "list")
        assert code == 0
        for key in ("sl2zp", "sl2cong", "sl3cong", "su3cong"):
            assert key in out

    def test_zero_with_witness(self, capsys):
        code, out, _ = run(capsys, "padic", "zero", "--family", "su3cong",
                           "--s", "-1", "--format", "json")
        assert code == 0
        records = json.loads(out)
        assert records[0]["value"] is False
        assert records[1]["value"]["var"] == "p"

    @pytest.mark.parametrize("p", ["sym", "5"])
    def test_sl2cong_pole_is_domain_error(self, capsys, p):
        code, _, err = run(capsys, "padic", "eval", "--family", "sl2cong",
                           "--s", "1", "--p", p)
        assert code == 3 and "vanishes" in err

    def test_factor_check(self, capsys):
        code, out, _ = run(capsys, "padic", "factor-check",
                           "--family", "sl3cong", "--format", "json")
        rec = json.loads(out)
        assert code == 0 and rec["value"] is True

    @pytest.mark.parametrize("argv", [
        # numeric p: these printed a traceback, past str()'s 4300 digits
        ("eval", "--family", "sl3cong", "--m", "1000", "--s", "2", "--p", "5"),
        ("eval", "--family", "sl2cong", "--m", "2000", "--s", "2", "--p", "7"),
        ("eval", "--family", "sl2zp", "--s", "20000", "--p", "3"),
        # symbolic p: these ran for seconds to minutes
        ("eval", "--family", "sl2zp", "--s", "301"),
        ("eval", "--family", "sl2zp", "--s=-600"),
        ("eval", "--family", "sl3cong", "--s", "500"),
        ("eval", "--family", "sl3cong", "--m", "20000", "--s", "2"),
        ("zero", "--family", "su3cong", "--s", "500"),
    ])
    def test_too_large_is_domain_error(self, capsys, argv):
        code, _, err = run(capsys, "padic", *argv)
        assert code == 3 and "the limit is" in err and _one_line(err)

    def test_symbolic_sl2zp_at_twenty(self, capsys):
        # 57 s with Euclid over the rationals
        code, out, _ = run(capsys, "padic", "eval", "--family", "sl2zp",
                           "--s", "20", "--format", "json")
        assert code == 0 and json.loads(out)["value"]["var"] == "p"


# the library modules `import wittenzeta` registers, and one command of each
# with the modules it runs besides those of `import wittenzeta.cli`
_LIBRARY_MODULES = ["errors", "exact", "numerics", "padic", "polylog", "su2",
                    "su3", "witten_core"]
_RUNS = [
    ("padic eval --family sl2zp --s 3", {"padic"}),
    ("su3 special --n 20", {"su3"}),
    ("polylog closed --m 5", {"polylog"}),
    ("finite eval --family s3 --s 2", {"witten_core"}),
    ("su2 eval --s -1 --theta 1", {"polylog", "su2"}),
]
# ran() prints (the library modules that ran, those in sys.modules); a
# lazy one is of a subclass of ModuleType until it runs
_RAN = ("import sys, types\n"
        "def ran():\n"
        "    mods = {n.split('.')[1]: type(m) is types.ModuleType\n"
        "            for n, m in sys.modules.items()\n"
        "            if n.startswith('wittenzeta.') and n != 'wittenzeta.cli'}\n"
        "    print((sorted(n for n, r in mods.items() if r), sorted(mods)))\n")


class TestImport:
    def test_numpy_not_loaded(self):
        # numpy is only for the SU(3) double series
        out = run_python("import sys, wittenzeta, wittenzeta.cli as cli\n"
                         "rc = cli.main(['padic', 'eval', '--family', 'sl2zp',"
                         " '--s', '-1', '--p', '3'])\n"
                         "print(rc, 'numpy' in sys.modules)\n")
        assert out.stdout.splitlines()[-1] == "0 False"

    def test_su3_contour_loads_no_numpy(self):
        out = run_python("import sys, wittenzeta as wz\n"
                         "wz.witten_su3_continued(1.5)\n"
                         "print('numpy' in sys.modules)\n")
        assert out.stdout.splitlines()[-1] == "False"

    def test_package_loads_every_traced_module(self):
        # the benchmark's tracer reads sys.modules["wittenzeta.<module>"]
        # right after `import wittenzeta`
        tree = ast.parse((SRC.parent / "bench" / "tracing.py").read_text(
            encoding="utf-8"))
        targets = next(ast.literal_eval(node.value) for node in tree.body
                       if isinstance(node, ast.Assign)
                       and node.targets[0].id == "LIBRARY_TARGETS")
        modules = sorted({f"wittenzeta.{module}" for module, _ in targets})
        out = run_python("import sys, wittenzeta\n"
                         f"print([m for m in {modules!r}"
                         " if m not in sys.modules])\n")
        assert out.stdout.splitlines()[-1] == "[]"

    def test_cli_import_is_lean(self):
        # what only some commands need loads when they run
        out = run_python(
            "import sys\n"
            "before = set(sys.modules)\n"
            "import wittenzeta.cli\n"
            "lazy = ('dataclasses', 'inspect', 'json', 'csv',"
            " 'wittenzeta.verify')\n"
            "print([m for m in lazy if m in sys.modules and m not in before])\n")
        assert out.stdout.splitlines()[-1] == "[]"

    def test_cli_import_runs_three_modules(self):
        out = run_python(_RAN + "import wittenzeta.cli\nran()\n")
        assert ast.literal_eval(out.stdout.splitlines()[-1]) == (
            ["errors", "exact", "numerics"], _LIBRARY_MODULES)

    @pytest.mark.parametrize("argv,runs", _RUNS,
                             ids=[argv for argv, _ in _RUNS])
    def test_command_runs_only_its_modules(self, argv, runs):
        # the rest stay in sys.modules, registered and not run
        out = run_python(_RAN + "import wittenzeta.cli as cli\n"
                         f"assert cli.main({argv.split()!r}) == 0\nran()\n")
        assert ast.literal_eval(out.stdout.splitlines()[-1]) == (
            sorted({"errors", "exact", "numerics", *runs}), _LIBRARY_MODULES)

    @pytest.mark.parametrize("argv", [argv for argv, _ in _RUNS])
    def test_record_timer_starts_after_the_modules_run(self, argv):
        # the handler is what ms times: a module it runs first is not in it
        module = argv.split()[0]
        out = run_python(
            _RAN + "import wittenzeta.cli as cli\n"
            f"handler = cli._HANDLERS[{module!r}]\n"
            "def timed(args, budget):\n"
            "    ran()\n"
            "    return handler(args, budget)\n"
            f"cli._HANDLERS[{module!r}] = timed\n"
            f"assert cli.main({argv.split()!r}) == 0\nran()\n")
        first, last = (ast.literal_eval(line) for line in
                       out.stdout.splitlines() if line.startswith("(["))
        assert first == last

    def test_exports_are_the_modules_objects(self):
        for name in wittenzeta.__all__:
            module = sys.modules[f"wittenzeta.{wittenzeta._EXPORTS[name]}"]
            assert getattr(wittenzeta, name) is getattr(module, name), name

    def test_star_import_binds_all(self):
        namespace = {}
        exec("from wittenzeta import *", namespace)
        assert set(wittenzeta.__all__) <= set(namespace)
        assert set(wittenzeta.__all__) <= set(dir(wittenzeta))

    def test_unknown_name_is_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            wittenzeta.no_such_name  # noqa: B018

    def test_version_matches_pyproject(self):
        text = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
        declared = re.search(r'^version = "([^"]+)"', text, re.M).group(1)
        assert declared == wittenzeta.__version__


def exit_code(capsys, *argv):
    """(exit code, stderr) whether main returns or argparse exits."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


def _one_line(err):
    return len(err.splitlines()) == 1 and "Traceback" not in err


# a value for each flag an action may need, and the flag a message names
_GIVEN = {"s": ("--s", "-1"), "theta": ("--theta", "1"),
          "thetas": ("--theta", "1,2"), "m": ("--m", "2"), "n": ("--n", "2"),
          "family": ("--family", "sl3cong"), "table": ("--family", "s3")}
_NAMED = {"s": "--s", "theta": "--theta", "thetas": "--theta", "m": "--m",
          "n": "--n", "family": "--family", "table": "--table"}
_ROWS = [(module, action, needs)
         for module, actions in cli._COMMANDS.items()
         for action, (needs, _, _) in actions.items()]

# one command per action, and the query label of its first record
_LABELS = [
    ("polylog eval --s 2.5 --theta 1", "polylog eval s=2.5 theta=1"),
    ("polylog series --s 1.5 --theta-pi 1/3",
     "polylog series s=1.5 theta=1.0471975511965976"),
    ("polylog jonquiere --s -1.5 --theta 2",
     "polylog jonquiere s=-1.5 theta=2"),
    ("polylog closed --m 3", "polylog closed m=3"),
    ("polylog neg --m 2 --theta-pi 1/2",
     "polylog neg m=2 theta=1.5707963267948966"),
    ("su2 eval --s -1 --theta-pi 1/3",
     "su2 eval s=-1 theta=1.0471975511965976"),
    ("su2 special --m 2 --theta-pi 1/2",
     "su2 special m=2 theta=1.5707963267948966"),
    ("su2 deriv2 --theta-pi 1/2", "su2 deriv2 theta=1.5707963267948966"),
    ("su2 multi --s=-0.5,2 --theta-pi 1/2,1/3",
     "su2 multi s=-0.5+2i thetas=1.5707963267948966,1.0471975511965976"),
    ("su2 average --s 2", "su2 average s=2"),
    ("su3 eval --s 2.5", "su3 eval s=2.5"),
    ("su3 special --n 2", "su3 special n=2"),
    ("su3 lemma --n 2", "su3 lemma n=2 lhs"),
    ("padic list", "padic family sl2zp"),
    ("padic eval --family sl2cong --s -1 --p 5",
     "padic eval sl2cong m=1 s=-1 p=5"),
    ("padic zero --family su3cong --s -1", "padic zero su3cong m=1 s=-1"),
    ("padic limit --family sl2cong --m 2", "padic limit sl2cong m=2"),
    ("padic factor-check --family sl3cong",
     "padic factor-check sl3cong"),
    ("finite eval --family q8 --s -2 --class 1",
     "finite eval Q8 s=-2 class=1"),
    ("finite average --family s3 --s 1.7", "finite average S3 s=1.7"),
]


class TestCommandTable:
    @pytest.mark.parametrize("module,action,needs", _ROWS,
                             ids=[f"{m}-{a}" for m, a, _ in _ROWS])
    def test_needed_flags_suffice(self, capsys, module, action, needs):
        # no usage error; s = -1 is outside the domain of polylog series
        argv = [tok for need in needs for tok in _GIVEN[need]]
        code, err = exit_code(capsys, module, action, *argv)
        assert code == (3 if (module, action) == ("polylog", "series")
                        else 0), err

    @pytest.mark.parametrize("module,action,missing", [
        (module, action, need) for module, action, needs in _ROWS
        for need in needs])
    def test_missing_flag_is_usage_error(self, capsys, module, action,
                                         missing):
        needs = cli._COMMANDS[module][action][0]
        argv = [tok for need in needs if need != missing
                for tok in _GIVEN[need]]
        code, err = exit_code(capsys, module, action, *argv)
        assert code == 2 and _NAMED[missing] in err and _one_line(err)

    def test_help_lists_each_action_with_its_flags(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["su2", "--help"])
        out = capsys.readouterr().out
        assert re.search(r"^  multi +--s, --theta or --theta-pi", out, re.M)
        for action in cli._COMMANDS["su2"]:
            assert re.search(rf"^  {action} ", out, re.M)

    @pytest.mark.parametrize("argv,query", _LABELS)
    def test_query_label(self, capsys, argv, query):
        code, out, _ = run(capsys, *argv.split(), "--format", "json")
        records = json.loads(out)
        first = records[0] if isinstance(records, list) else records
        assert code == 0 and first["query"] == query

    def test_every_action_has_a_pinned_label(self):
        assert {tuple(argv.split()[:2]) for argv, _ in _LABELS} \
            == {(module, action) for module, action, _ in _ROWS}

    # a float in a label is the shortest decimal that reads back as it
    @pytest.mark.parametrize("text", ["1", "1.000000001", "-0.1",
                                      "2.5e-300", "0.5,-1.000000001",
                                      "-2,1e-07"])
    def test_label_reads_back_as_s(self, capsys, text):
        code, out, _ = run(capsys, "su2", "eval", f"--s={text}",
                           "--theta-pi", "1/3", "--format", "json")
        assert code == 0
        query = json.loads(out)["query"]
        s_text, theta_text = re.fullmatch(r"su2 eval s=(\S+) theta=(\S+)",
                                          query).groups()
        # a+bi as Python's a+bj
        assert complex(re.sub(r"i$", "j", s_text)) == cli._parse_s(text)
        assert float(theta_text) == math.pi / 3

    def test_labels_next_to_one_differ(self, capsys):
        records = [json.loads(run(capsys, "su2", "eval", "--s", text,
                                  "--theta-pi", "1", "--format", "json")[1])
                   for text in ("1", "1.000000001")]
        assert records[0] != records[1]
        assert records[0]["query"] != records[1]["query"]


class TestLibraryRules:
    """Each row of the command table calls its library function: the
    rules on x = 1, the su2 multi class count and real s are the
    library's."""

    @pytest.mark.parametrize("action", ["eval", "jonquiere"])
    @pytest.mark.parametrize("s", ["2", "0.5"])
    def test_every_spelling_of_x_one(self, capsys, action, s):
        # theta 0 and full turns: x = 1, zeta(s), in text and JSON
        shown, values = [], []
        for angle in ("--theta=0", "--theta-pi=2",
                      "--theta=6.283185307179586",
                      "--theta=-6.283185307179586"):
            code, out, err = run(capsys, "polylog", action, "--s", s, angle)
            assert code == 0, err
            shown.append(out.split(" = ")[1].split()[0])
            code, out, err = run(capsys, "polylog", action, "--s", s, angle,
                                 "--format", "json")
            values.append(json.loads(out)["value"])
        assert shown[1:] == shown[:-1] and values[1:] == values[:-1]
        with mpmath.workdps(30):
            want = float(mpmath.zeta(float(s)))
        assert abs(values[0]["re"] - want) <= 1e-10 * abs(want)
        assert values[0]["im"] == 0.0
        if s == "2":
            assert shown[0] == "1.644934067"

    @pytest.mark.parametrize("angle", ["--theta=0", "--theta-pi=2"])
    def test_pole_at_x_one(self, capsys, angle):
        code, err = exit_code(capsys, "polylog", "eval", "--s", "1", angle)
        assert code == 3 and "pole" in err and _one_line(err)

    @pytest.mark.parametrize("s", ["2", "-1.5,3", "0.5"])
    @pytest.mark.parametrize("angle", ["--theta=1", "--theta-pi=1",
                                       "--theta=0", "--theta=2.9"])
    def test_multi_with_one_class_is_eval(self, capsys, s, angle):
        values = []
        for action in ("multi", "eval"):
            code, out, err = run(capsys, "su2", action, f"--s={s}", angle,
                                 "--format", "json")
            assert code == 0, err
            values.append(json.loads(out)["value"])
        assert values[0] == values[1]


class TestMalformedInput:
    @pytest.mark.parametrize("argv", [
        ("su2", "eval", "--s", "1", "--theta", "abc"),
        ("su2", "eval", "--s", "1", "--theta-pi", "1/0"),
        ("su2", "eval", "--s", "1", "--theta-pi", "x"),
        ("su2", "eval", "--s", "1", "--theta", "1", "--theta-pi", "1/2"),
        ("su2", "eval", "--s", "1", "--theta", "1,2"),
    ])
    def test_angle_is_usage_error(self, capsys, argv):
        code, err = exit_code(capsys, *argv)
        assert code == 2 and _one_line(err)

    @pytest.mark.parametrize("argv,want,words", [
        (("su2", "eval", "--s", "1,2,3", "--theta", "1"), 2, "re or re,im"),
        (("padic", "eval", "--family", "sl2cong", "--s", "-1", "--p", "x"),
         2, "--p expects"),
        (("su2", "average", "--s", "2,1"), 3, "requires real s"),
        (("su2", "multi", "--s", "2", "--theta", "1,2,0.5,0.3"), 3,
         "between 1 and 3"),
        (("polylog", "jonquiere", "--s", "2,1", "--theta", "1"), 3,
         "requires real s"),
        (("finite", "eval", "--family", "nope", "--s", "2"), 3, "'nope'"),
        # the Euler-Boole sum's head past numerics.MAX_TERMS
        (("su2", "eval", "--s", "0.5,3000", "--theta", "0.5"), 3,
         "needs more than 10000 terms"),
    ])
    def test_documented_rejection(self, capsys, argv, want, words):
        code, err = exit_code(capsys, *argv)
        assert code == want and words in err and _one_line(err)

    @pytest.mark.parametrize("module,action,needs",
                             [row for row in _ROWS if "s" in row[2]],
                             ids=[f"{m}-{a}" for m, a, n in _ROWS if "s" in n])
    @pytest.mark.parametrize("text", ["nan", "inf", "1,nan"])
    def test_non_finite_s_is_domain_error(self, capsys, module, action,
                                          needs, text):
        # the library reads s once; the parser takes any two floats
        argv = [tok for need in needs if need != "s" for tok in _GIVEN[need]]
        code, err = exit_code(capsys, module, action, *argv, "--s", text)
        assert code == 3 and _one_line(err)

    def test_s4_past_a_double_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "S4.txt"
        path.write_text(S4_TEXT)
        code, err = exit_code(capsys, "finite", "average", "--table",
                              str(path), "--s=-700")
        assert code == 3 and "overflows" in err and _one_line(err)

    def test_precision_env_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("WITTENZETA_PRECISION", "abc")
        code, err = exit_code(capsys, "su2", "eval", "--s", "1",
                              "--theta", "1")
        assert code == 2 and _one_line(err) and "WITTENZETA_PRECISION" in err

    def test_unreadable_table_is_usage_error(self, capsys, tmp_path):
        code, err = exit_code(capsys, "finite", "eval", "--s", "1",
                              "--table", str(tmp_path / "absent.tbl"))
        assert code == 2 and _one_line(err)

    @pytest.mark.parametrize("argv", [
        ("padic", "eval", "--family", "sl2cong", "--m", "0", "--s", "-1"),
        ("padic", "zero", "--family", "sl2cong", "--m", "0", "--s", "-1"),
        ("padic", "limit", "--family", "sl2cong", "--m", "0"),
    ])
    def test_level_zero_is_domain_error(self, capsys, argv):
        # --m 0 is not read as the default level 1
        code, err = exit_code(capsys, *argv)
        assert code == 3 and "m >= 1" in err and _one_line(err)

    @pytest.mark.parametrize("argv", [
        ("su2", "eval", "--s=-100.5", "--theta", "0.001"),
        ("polylog", "eval", "--s=-100.5", "--theta", "0.001"),
        ("polylog", "jonquiere", "--s=-100.5", "--theta", "0.001"),
        ("su2", "multi", "--s=-100.5", "--theta", "0.001,0.002"),
        ("su2", "deriv2", "--theta", "1e-200"),
        ("polylog", "series", "--s", "1.5", "--theta", "1e-300"),
        ("polylog", "neg", "--m", "30", "--theta", "1e-300"),
        # values that overflowed after the last kernel call, and printed
        # inf or nan
        ("su2", "eval", "--s=-100.5", "--theta", "0.01"),
        ("su2", "multi", "--s=-100.5", "--theta", "0.01,0.02"),
        ("polylog", "eval", "--s=-100.5", "--theta", "0.01"),
        ("polylog", "jonquiere", "--s=-100.5", "--theta", "0.01"),
        ("polylog", "neg", "--m", "30", "--theta", "1e-9"),
    ])
    def test_float_overflow_is_domain_error(self, capsys, argv):
        code, err = exit_code(capsys, *argv)
        assert code == 3 and "overflows double precision" in err
        assert _one_line(err)

    @pytest.mark.parametrize("argv", [
        ("polylog", "eval", "--s", "2", "--theta", "inf"),
        ("polylog", "series", "--s", "2", "--theta", "inf"),
        ("polylog", "neg", "--m", "2", "--theta", "inf"),
        ("polylog", "jonquiere", "--s", "0.5", "--theta", "inf"),
        ("polylog", "neg", "--m", "2", "--theta", "nan"),
        ("polylog", "series", "--s", "2", "--theta", "nan"),
        ("polylog", "eval", "--s", "0.5", "--theta", "nan"),
    ])
    def test_non_finite_angle_is_domain_error(self, capsys, argv):
        code, err = exit_code(capsys, *argv)
        assert code == 3 and "finite" in err and _one_line(err)

    @pytest.mark.parametrize("argv", [
        ("polylog", "closed", "--m", "-1"),
        ("polylog", "neg", "--m", "-1", "--theta", "1"),
        ("su3", "special", "--n", "-1"),
        ("su3", "lemma", "--n", "3"),
    ])
    def test_library_range_check_reaches_the_user(self, capsys, argv):
        code, err = exit_code(capsys, *argv)
        assert code == 3 and err.startswith("domain error")


class TestJonquiereCli:
    def test_gamma_overflow_is_one_line(self, capsys):
        code, err = exit_code(capsys, "polylog", "jonquiere", "--s=-180.5",
                              "--theta", "1")
        assert code == 3 and _one_line(err)

    def test_large_order(self, capsys):
        # Z(s, e^i) -> e^i as s grows
        code, out, _ = run(capsys, "polylog", "jonquiere", "--s", "30.5",
                           "--theta", "1")
        assert code == 0 and "0.5403023056 + 0.8414709854i" in out


class TestTermCap:
    @pytest.mark.parametrize("argv", [
        "su2 eval --s 2,1e300 --theta 0",
        "polylog eval --s 2,1e300 --theta 1",
        "polylog series --s 2,1e300 --theta 0",
        "su2 multi --s 1,1e300 --theta 1,2",
        "polylog eval --s=-20000 --theta 1",
        "su2 eval --s=-20000 --theta 1",
    ])
    def test_order_past_the_cap_is_domain_error(self, argv):
        # a fresh process with a timeout, so that an unbounded run fails
        # the test instead of holding the suite
        proc = run_python("import sys\nfrom wittenzeta import cli\n"
                          f"sys.exit(cli.main({argv.split()!r}))", timeout=20)
        assert proc.returncode == 3 and _one_line(proc.stderr)

    @pytest.mark.parametrize("argv", [
        "polylog eval --s 20000 --theta 0",
        "su2 eval --s 20000 --theta 0",
    ])
    def test_large_real_order_is_one(self, argv):
        # from Re s = 16 on the first Euler-Maclaurin split follows |Im s|,
        # not |s|, so a large real order stays under the cap
        proc = run_python("import sys\nfrom wittenzeta import cli\n"
                          f"sys.exit(cli.main({argv.split()!r}))", timeout=20)
        assert proc.returncode == 0 and "= 1  [" in proc.stdout
