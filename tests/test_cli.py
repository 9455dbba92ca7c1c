"""Command-line interface: grammar, output formats, exit codes."""

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import wittenzeta
from wittenzeta import cli
from wittenzeta.errors import ConvergenceError

S3_TEXT = """group S3 6
classes 1 3 2
irrep 1 1 1 1
irrep 1 1 -1 1
irrep 2 2 0 -1
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
        ("polylog", "neg", "--m", "30", "--theta", "1"),
        ("su3", "special", "--n", "200"),
        ("su3", "lemma", "--n", "200"),
    ])
    def test_at_maximum(self, capsys, argv):
        code, _, _ = run(capsys, *argv)
        assert code == 0

    @pytest.mark.parametrize("argv", [
        ("polylog", "closed", "--m", "31"),
        ("polylog", "neg", "--m", "31", "--theta", "1"),
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
        # hang here fails by the timeout instead of stalling the suite
        out = run_python("import wittenzeta.cli as cli\n"
                         "print(cli.main(['finite', 'eval', '--family', 's3',"
                         " '--s', '1e308']))\n", timeout=30)
        assert out.stdout.splitlines()[-1] == "3"
        assert "|s| <= 1000" in out.stderr

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
     "polylog series s=1.5 theta=1.0472"),
    ("polylog jonquiere --s -1.5 --theta 2",
     "polylog jonquiere s=-1.5 theta=2"),
    ("polylog closed --m 3", "polylog closed m=3"),
    ("polylog neg --m 2 --theta-pi 1/2", "polylog neg m=2 theta=1.5708"),
    ("su2 eval --s -1 --theta-pi 1/3", "su2 eval s=-1 theta=1.0472"),
    ("su2 special --m 2 --theta-pi 1/2", "su2 special m=2 theta=1.5708"),
    ("su2 deriv2 --theta-pi 1/2", "su2 deriv2 theta=1.5708"),
    ("su2 multi --s=-0.5,2 --theta-pi 1/2,1/3",
     "su2 multi s=-0.5+2i thetas=1.5708,1.0472"),
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
