"""CLI harness: formats, envelopes, seeds, error paths."""

import json
import os
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from replica_lab.channel import MAX_NODE_COUNT
from replica_lab.cli import _fmt, main, parse_lambda_spec
from replica_lab.cli import UsageError


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestLambdaSpec:
    def test_range_inclusive_endpoint(self):
        assert parse_lambda_spec("0:6:0.25") == pytest.approx(
            [0.25 * k for k in range(25)]
        )
        assert parse_lambda_spec("0:1:0.4") == pytest.approx([0.0, 0.4, 0.8])

    def test_single_and_list(self):
        assert parse_lambda_spec("2") == [2.0]
        assert parse_lambda_spec("0.5,1,2") == [0.5, 1.0, 2.0]

    def test_bad_specs(self):
        for bad in ("1:0:0.5", "0:1:-1", "a:b:c", "0:1", "x"):
            with pytest.raises(UsageError):
                parse_lambda_spec(bad)

    def test_range_values_up_to_the_step_cap(self):
        # a range's values are a + k s, up to 10**6 steps
        assert parse_lambda_spec("0.5:2:0.25") == [0.5 + k * 0.25 for k in range(7)]
        assert parse_lambda_spec("0:1:1e-6") == [k * 1e-6 for k in range(10**6 + 1)]

    @pytest.mark.parametrize(
        "spec, counts",
        [
            # a step that advances the start but lies below the resolution of
            # the range's later values
            ("1:1.000000000000001:1.2e-16", "11 values, 6 distinct"),
            ("1e6:1000000.0000001:1e-10", "1001 values, 860 distinct"),
            ("1,2,1", "3 values, 2 distinct"),
            ("0,-0", "2 values, 1 distinct"),
        ],
    )
    def test_repeated_values_refused(self, spec, counts):
        with pytest.raises(UsageError) as info:
            parse_lambda_spec(spec)
        assert str(info.value) == f"bad lambda spec {spec!r}: it repeats a lambda ({counts})"


def test_fmt_of_special_floats():
    # Python's own 12-digit format for nan and the infinities, and a signed
    # zero written as 0
    values = (float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1e-300, -2.5, True, 3)
    assert [_fmt(x) for x in values] == ["nan", "inf", "-inf", "0", "0", "1e-300", "-2.5", "true", "3"]


class TestCommands:
    def test_rs_curve_single_zero_lambda(self, capsys):
        code, out, _ = run_cli(["rs-curve", "--lambda", "0"], capsys)
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0] == "lambda,q_star,phi_rs,saddle,mi,mmse"
        row = lines[1].split(",")
        # q*, phi_RS, saddle, MI all vanish at lambda = 0; MMSE is E[X^2]^2
        assert row[:5] == ["0", "0", "0", "0", "0"]
        assert float(row[5]) == 1.0

    def test_rs_curve_below_threshold_overlap_vanishes(self, capsys):
        code, out, _ = run_cli(["rs-curve", "--lambda", "0:1:0.25"], capsys)
        assert code == 0
        rows = [l.split(",") for l in out.splitlines() if not l.startswith(("#", "lambda"))]
        assert len(rows) == 5
        assert all(abs(float(r[1])) <= 1e-5 for r in rows)  # q* = 0 up to lambda = 1

    def test_verify_csv_format(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--n", "8", "--disorder", "20", "--format", "csv"], capsys
        )
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0] == "check,slack,stderr,allowance,pass"

    def test_rs_curve_json_envelope(self, capsys, tmp_path):
        out_path = tmp_path / "curve.json"
        code, _, _ = run_cli(
            ["rs-curve", "--lambda", "0,1", "--format", "json", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        env = json.loads(out_path.read_text())
        assert set(env) == {"config", "version", "results"}
        assert env["version"].startswith("replica-lab-v")
        assert env["config"]["command"] == "rs-curve"
        assert len(env["results"]) == 2

    def test_se_trace_rows(self, capsys):
        code, out, _ = run_cli(["se", "--lambda", "2", "--q", "0.9"], capsys)
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0] == "lambda,iteration,q"
        assert lines[1].split(",")[2] == "0.9"

    def test_finite_n_schema(self, capsys):
        code, out, _ = run_cli(
            ["finite-n", "--n", "4,6", "--lambda", "1", "--disorder", "5"], capsys
        )
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0] == "n,lambda,quantity,mean,stderr,n_samples,seed"
        assert len(lines) == 3

    def test_fp_profile_rows(self, capsys):
        code, out, _ = run_cli(
            ["fp", "--n", "6", "--lambda", "1", "--eps", "0.5", "--disorder", "5"], capsys
        )
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert any("fp[m=" in l for l in lines[1:])

    def test_fp_single_window(self, capsys):
        code, out, _ = run_cli(
            ["fp", "--n", "6", "--lambda", "1", "--eps", "0.5", "--m", "0.0",
             "--disorder", "5"], capsys
        )
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith(("#", "n,"))]
        assert len(lines) == 1 and "fp[m=0;eps=0.5]" in lines[0]

    def test_fp_single_window_labelled_with_its_start(self, capsys):
        # the label is --m itself: m / eps overflows at 1e308 and read m=inf
        code, out, _ = run_cli(["fp", "--n", "4", "--disorder", "3", "--m", "1e308"], capsys)
        assert code == 0
        rows = [l.split(",") for l in out.splitlines() if not l.startswith(("#", "n,"))]
        assert len(rows) == 1 and rows[0][2:5] == ["fp[m=1e+308;eps=0.25]", "-inf", "0"]

    def test_fp_empty_window_writes_minus_inf(self, capsys):
        # no configuration reaches R >= 5: the -inf sentinel, as text in JSON
        args = ["fp", "--n", "4", "--disorder", "3", "--m", "5"]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        rows = [l.split(",") for l in out.splitlines() if not l.startswith(("#", "n,"))]
        assert len(rows) == 1 and rows[0][2:5] == ["fp[m=5;eps=0.25]", "-inf", "0"]
        code, out, _ = run_cli(args + ["--format", "json"], capsys)
        assert code == 0
        (row,) = json.loads(out)["results"]
        assert row["mean"] == "-inf" and row["stderr"] == 0.0

    def test_verify_tiny_suite_passes(self, capsys, tmp_path):
        out_path = tmp_path / "verify.json"
        code, _, _ = run_cli(
            ["verify", "--n", "8", "--disorder", "40", "--seed", "7", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        env = json.loads(out_path.read_text())
        assert all(r["pass"] for r in env["results"])
        checks = {r["check"] for r in env["results"]}
        assert {"tilt_asymmetry", "saddle_equivalence", "kl_identity",
                "nishimori", "guerra_slope", "fp_upper", "se_fixed_point"} <= checks

    def test_verify_exit_nonzero_on_failure(self, capsys, tmp_path):
        # over-budget enumeration surfaces as a failing report, not a crash
        out_path = tmp_path / "verify.json"
        code, _, _ = run_cli(
            ["verify", "--n", "30", "--disorder", "5", "--out", str(out_path)], capsys
        )
        assert code == 1
        env = json.loads(out_path.read_text())
        failed = [r for r in env["results"] if not r["pass"]]
        assert any(r["check"] == "enumeration_budget" for r in failed)

    def test_saddle_row_independent_of_earlier_lambdas(self):
        # each command in a fresh process, as a user runs them
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

        def rows(lams):
            out = subprocess.run(
                [sys.executable, "-m", "replica_lab.cli", "saddle", "--prior", "rademacher",
                 "--lambda", lams],
                env=env, capture_output=True, text=True, check=True,
            ).stdout
            return [l for l in out.splitlines() if not l.startswith("#")]

        alone, after = rows("2.6"), rows("40,2.6")
        assert alone[1].startswith("2.6,")
        assert after[2] == alone[1]

    def test_runs_without_scipy(self):
        # the package needs only numpy: with scipy blocked, a fresh process
        # prints the same bytes, and an unblocked one never imports scipy
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        script = (
            "import sys\n"
            "if sys.argv[1] == 'block':\n"
            "    sys.modules['scipy'] = None\n"
            "import replica_lab\n"
            "from replica_lab import cli\n"
            "replica_lab.channel.make_evaluator(61)\n"
            "code = cli.main(['rs-curve', '--prior', 'sparse:0.25', '--lambda', '0:3:0.5'])\n"
            "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy' and sys.modules[m]]\n"
            "sys.exit(code)\n"
        )

        def stdout(mode):
            return subprocess.run(
                [sys.executable, "-c", script, mode], env=env, capture_output=True, check=True
            ).stdout

        blocked, free = stdout("block"), stdout("free")
        assert blocked == free
        assert blocked.count(b"\n") == 10  # 2 comment lines, the CSV header, 7 rows

    @pytest.mark.parametrize("args", [
        ["--lambda", "0:1:0.5"],
        ["--lambda", "1"],  # one point: an empty x range
        ["--prior", "point:0", "--lambda", "0:1:0.5"],  # every value 0: an empty y range
    ])
    def test_plot_writes_svg(self, capsys, tmp_path, args):
        out_path = tmp_path / "c.csv"
        code, _, err = run_cli(["rs-curve", *args, "--out", str(out_path), "--plot"], capsys)
        assert code == 0, err
        svg = (tmp_path / "c.svg").read_text()
        assert svg.startswith("<svg")
        assert len(ET.fromstring(svg).findall("{*}polyline")) == 4

    @pytest.mark.parametrize("m", ["-1e-1", "-.5e-2"])
    def test_negative_value_in_exponent_form(self, capsys, m):
        # "--m -1e-1" gives --m its value, as "--m=-1e-1" does
        args = ["fp", "--n", "4", "--disorder", "3"]
        spaced = run_cli(args + ["--m", m], capsys)
        joined = run_cli(args + [f"--m={m}"], capsys)
        assert spaced == joined and spaced[0] == 0 and spaced[1]


class TestDeclaredFlags:
    # each command takes only the flags it reads (see the cli module docstring)

    @pytest.mark.parametrize(
        "args, flag",
        [
            (["rs-curve", "--lambda", "1"], ["--budget", "5"]),
            (["saddle", "--lambda", "1"], ["--budget", "5"]),
            (["se", "--lambda", "1"], ["--budget", "5"]),
            (["finite-n", "--n", "4", "--disorder", "3"], ["--nodes", "41"]),
            (["fp", "--n", "6", "--disorder", "3"], ["--nodes", "41"]),
            (["verify", "--n", "8", "--disorder", "3"], ["--plot"]),
            (["verify", "--n", "8", "--disorder", "3"], ["--nodes", "61"]),
        ],
    )
    def test_flag_the_command_does_not_read(self, capsys, args, flag):
        code, out, err = run_cli(args + flag, capsys)
        assert code == 2
        assert f"error: unrecognized arguments: {' '.join(flag)}" in err
        assert f"usage: replica-lab {args[0]} " in err
        assert out == ""

    @pytest.mark.parametrize("spec", ["1,2", "0:2:1"])
    @pytest.mark.parametrize(
        "args",
        [
            ["finite-n", "--n", "4", "--disorder", "3", "--lambda"],
            ["fp", "--n", "6", "--disorder", "3", "--lambda"],
            ["fp", "--lambda", "1", "--disorder", "3", "--n"],
            ["verify", "--disorder", "3", "--n"],
        ],
    )
    def test_single_value_flag_refuses_list_and_range(self, capsys, tmp_path, args, spec):
        out_path = tmp_path / "artifact"
        code, out, err = run_cli(args + [spec, "--out", str(out_path)], capsys)
        assert code == 2
        assert "error:" in err and repr(spec) in err
        assert out == ""
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "args, keys",
        [
            (["finite-n", "--n", "4", "--disorder", "3"],
             {"command", "prior", "seed", "format", "lambda", "n", "budget", "disorder", "plot"}),
            (["verify", "--n", "4", "--disorder", "3"],
             {"command", "prior", "seed", "format", "n", "budget", "disorder"}),
        ],
    )
    def test_header_holds_the_declared_flags(self, capsys, args, keys):
        code, out, _ = run_cli(args + ["--format", "json"], capsys)
        assert code in (0, 1)
        assert set(json.loads(out)["config"]) == keys


class TestSeedResolution:
    def test_env_var_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("REPLICA_LAB_SEED", "4242")
        code, out, _ = run_cli(["finite-n", "--n", "4", "--disorder", "3"], capsys)
        assert code == 0
        assert '"seed":4242' in out

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("REPLICA_LAB_SEED", "4242")
        code, out, _ = run_cli(
            ["finite-n", "--n", "4", "--disorder", "3", "--seed", "5"], capsys
        )
        assert code == 0
        assert '"seed":5' in out

    def test_bad_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("REPLICA_LAB_SEED", "not-an-int")
        code, _, err = run_cli(["finite-n", "--n", "4", "--disorder", "3"], capsys)
        assert code == 2
        assert "REPLICA_LAB_SEED" in err


class TestErrorPaths:
    def test_unknown_prior(self, capsys):
        code, _, err = run_cli(["rs-curve", "--prior", "nosuch", "--lambda", "1"], capsys)
        assert code == 2
        assert "error:" in err

    def test_bad_lambda_range(self, capsys):
        code, _, err = run_cli(["rs-curve", "--lambda", "2:1:0.5"], capsys)
        assert code == 2

    def test_lambda_range_that_would_not_end(self):
        # A step that does not advance its start, or 10**9 steps, once
        # appended values until memory ran out.  The commands run in a fresh
        # process under a 1 GiB address-space cap (on one BLAS thread, whose
        # buffers count against it) and a time limit, so that a regression
        # fails here instead of exhausting the machine.
        import resource

        cases = [
            (["rs-curve", "--lambda", "1:2:1e-300"], "bad lambda spec '1:2:1e-300': step 1e-300 does not advance start 1.0"),
            (["rs-curve", "--lambda", "1e20:1e20:1"], "bad lambda spec '1e20:1e20:1': step 1.0 does not advance start 1e+20"),
            (["rs-curve", "--lambda", "0:1e6:1e-3"], "bad lambda spec '0:1e6:1e-3': a range takes at most 1000000 steps"),
            (["finite-n", "--n", "4", "--lambda", "1:2:1e-300"], "--lambda takes one value here, got '1:2:1e-300'"),
            (["fp", "--n", "4", "--lambda", "0:1e6:1e-3"], "--lambda takes one value here, got '0:1e6:1e-3'"),
        ]
        script = (
            "import contextlib, io, json, sys\n"
            "from replica_lab.cli import main\n"
            "for args in json.loads(sys.argv[1]):\n"
            "    err = io.StringIO()\n"
            "    with contextlib.redirect_stderr(err):\n"
            "        code = main(args)\n"
            "    print(json.dumps([code, err.getvalue()]))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"), OPENBLAS_NUM_THREADS="1")
        out = subprocess.run(
            [sys.executable, "-c", script, json.dumps([args for args, _ in cases])],
            env=env, capture_output=True, text=True, timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)),
        )
        assert out.returncode == 0, out.stderr
        results = [json.loads(line) for line in out.stdout.splitlines()]
        assert len(results) == len(cases)
        for (args, message), (code, err) in zip(cases, results):
            assert code == 2, args
            assert err == f"error: {message}\n", args

    @pytest.mark.parametrize("spec", ["1:1.000000000000001:1.2e-16", "1e6:1000000.0000001:1e-10", "0.5,1,0.5"])
    def test_repeated_lambdas(self, capsys, spec):
        # like finite-n --n 4,4: no duplicate rows are written or priced
        code, out, err = run_cli(["rs-curve", "--lambda", spec], capsys)
        assert code == 2
        assert err.startswith(f"error: bad lambda spec {spec!r}: it repeats a lambda")
        assert out == ""

    def test_verify_refuses_one_disorder_draw(self, capsys):
        # at one draw every standard error is 0, so the Monte Carlo checks'
        # 3-sigma allowances vanish and they fail on noise
        code, out, err = run_cli(["verify", "--n", "4", "--disorder", "1"], capsys)
        assert code == 2
        assert "error: n_disorder must be >= 2, got 1" in err
        assert out == ""

    @pytest.mark.parametrize(
        "args",
        [
            ["rs-curve", "--lambda", "nan:1:0.5"],
            ["saddle", "--lambda", "nan:1:0.5"],  # finite-n refuses a range before parsing it
            ["se", "--lambda", "0:1:nan"],
            ["rs-curve", "--lambda", "0:inf:1"],
            ["rs-curve", "--lambda=-inf:0:1"],
            ["rs-curve", "--lambda", "0:1:inf"],
        ],
    )
    def test_non_finite_lambda_range(self, capsys, args):
        code, out, err = run_cli(args, capsys)
        assert code == 2
        assert "error: bad lambda spec" in err
        assert "start, stop and step must be finite" in err
        assert out == ""

    @pytest.mark.parametrize("command", ["finite-n", "fp"])
    @pytest.mark.parametrize("spec", ["nan:1:0.5", "0:1:0.5", "1,2"])
    def test_one_value_refuses_a_list_or_range_unparsed(self, capsys, command, spec):
        code, out, err = run_cli([command, "--n", "6", "--lambda", spec, "--disorder", "3"], capsys)
        assert code == 2
        assert err == f"error: --lambda takes one value here, got {spec!r}\n"
        assert out == ""

    def test_unwritable_output(self, capsys):
        code, _, err = run_cli(
            ["rs-curve", "--lambda", "0", "--out", "/nonexistent-dir/x.csv"], capsys
        )
        assert code == 2

    @pytest.mark.parametrize(
        "args",
        [
            ["rs-curve", "--lambda", "1,2"],
            ["saddle", "--lambda", "1"],
            ["se", "--lambda", "1"],
            ["finite-n", "--n", "4", "--disorder", "3"],
            ["fp", "--n", "4", "--disorder", "3"],
        ],
    )
    def test_plot_without_out(self, capsys, args):
        # refused before any work: nothing reaches stdout
        code, out, err = run_cli(args + ["--plot"], capsys)
        assert code == 2
        assert err == "error: --plot needs --out to derive the SVG path\n"
        assert out == ""

    @pytest.mark.parametrize("command", ["finite-n", "fp", "verify"])
    @pytest.mark.parametrize("disorder", ["0", "-1"])
    def test_disorder_below_one(self, capsys, command, disorder):
        # verify's suite asks for two draws, the estimators for one
        code, out, err = run_cli([command, "--n", "8", "--disorder", disorder], capsys)
        assert code == 2
        assert f"error: n_disorder must be >= {2 if command == 'verify' else 1}, got {disorder}" in err
        assert out == ""

    @pytest.mark.parametrize(
        "args, message",
        [
            (["rs-curve", "--lambda", "nan"], "lambda must be finite"),
            (["rs-curve", "--lambda", "inf"], "lambda must be finite"),
            (["finite-n", "--n", "6", "--lambda", "nan", "--disorder", "3"], "lambda must be finite"),
            (["fp", "--n", "6", "--lambda", "inf"], "lambda must be finite"),
            (["fp", "--n", "6", "--eps", "nan"], "eps must be finite"),
            (["fp", "--n", "6", "--m", "nan"], "m must be finite"),
            (["fp", "--n", "1"], "n must be >= 2"),
            (["fp", "--n", "0", "--disorder", "2"], "n must be >= 2, got 0"),
            (["fp", "--n", "1", "--disorder", "2"], "n must be >= 2, got 1"),
            (["finite-n", "--n", "0", "--disorder", "2"], "n must be >= 2, got 0"),
            (["finite-n", "--n", "-2", "--disorder", "2"], "n must be >= 2, got -2"),
            (["verify", "--n", "0", "--disorder", "2"], "n must be >= 2, got 0"),
            (["verify", "--n", "1", "--disorder", "3"], "n must be >= 2, got 1"),
            (["se", "--lambda", "2", "--tol", "nan"], "tol must be finite and > 0"),
            (["se", "--lambda", "2", "--tol", "inf"], "tol must be finite and > 0"),
            (["se", "--lambda", "2", "--tol", "0"], "tol must be finite and > 0"),
            (["se", "--lambda", "2", "--max-iter", "0"], "max_iter must be >= 1"),
            (["se", "--lambda", "2", "--max-iter", "-3"], "max_iter must be >= 1"),
            (["fp", "--n", "6", "--eps", "1e-20"], "eps must be >= K^2 / 2**53"),
            (["finite-n", "--n", "8,x"], "bad integer list '8,x'"),
            (["rs-curve", "--prior", "uniform:1"], "bad prior spec 'uniform:1': need at least 2 atoms"),
        ],
    )
    def test_non_finite_and_small_n_rejected(self, capsys, args, message):
        code, out, err = run_cli(args, capsys)
        assert code == 2
        assert f"error: {message}" in err
        assert out == ""

    @pytest.mark.parametrize(
        "args, message",
        [
            (["se", "--lambda", "1", "--q", "-1e-3"], "q0 must lie in [0, 1.0], got -0.001"),
            (["rs-curve", "--lambda", "-1e-3"], "lambda must be finite and >= 0, got -0.001"),
            (["rs-curve", "--lambda", "-2.5E+3"], "lambda must be finite and >= 0, got -2500.0"),
        ],
    )
    def test_negative_value_in_exponent_form_refused_by_the_package(self, capsys, args, message):
        # read as a value, not as an undeclared flag, so the package's own rule refuses it
        assert run_cli(args, capsys) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "args, message",
        [
            (["rs-curve", "--lambda", "1e308"], "the channel exponents reach"),
            (["se", "--lambda", "1e308"], "the channel exponents reach"),
            (["saddle", "--lambda", "1e308"], "the channel exponents reach"),
            (["rs-curve", "--prior", "point:1e100", "--lambda", "1"], "the channel exponents reach"),
            (["finite-n", "--n", "4", "--lambda", "1e308", "--disorder", "3"], "the energies reach"),
            (["fp", "--n", "4", "--lambda", "1e308", "--disorder", "3"], "the energies reach"),
            (["finite-n", "--n", "4", "--prior", "point:1e100", "--disorder", "3"], "the energies reach"),
            (["verify", "--n", "4", "--prior", "point:1e100", "--disorder", "3"], "the channel exponents reach"),
            (["verify", "--n", "4", "--prior", "sparse:1e-300", "--disorder", "3"], "the energies reach"),
        ],
    )
    def test_overflowing_inputs_rejected(self, capsys, args, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(args, capsys)
        assert code == 2
        assert f"error: {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "args",
        [
            ["rs-curve", "--lambda", "1e200"],
            ["se", "--lambda", "1e200"],
            ["rs-curve", "--prior", "sparse:1e-300", "--lambda", "6"],
            ["saddle", "--prior", "sparse:1e-300", "--lambda", "6"],
            ["finite-n", "--n", "4", "--lambda", "1e200", "--disorder", "3"],
            ["finite-n", "--n", "4", "--lambda", "1e200", "--disorder", "3", "--prior", "sparse:0.25"],
            ["fp", "--n", "4", "--lambda", "1e200", "--disorder", "3"],
            ["se", "--prior", "point:1e3", "--lambda", "1"],
        ],
    )
    def test_large_but_representable_inputs_run(self, capsys, args):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(args, capsys)
        assert code == 0, err
        assert "nan" not in out and "inf" not in out

    @pytest.mark.parametrize("sizes", ["4,4", "6,4,6"])
    def test_finite_n_repeated_size(self, capsys, tmp_path, sizes):
        out_path = tmp_path / "artifact.csv"
        code, out, err = run_cli(
            ["finite-n", "--n", sizes, "--disorder", "3", "--out", str(out_path)], capsys
        )
        assert code == 2
        assert f"error: --n repeats a size: {sizes!r}" in err
        assert out == ""
        assert not out_path.exists()

    @pytest.mark.parametrize("command", ["rs-curve", "saddle", "se"])
    def test_node_count_below_the_default(self, capsys, command):
        # a coarser rule than the default would drop digits without a word
        code, out, err = run_cli([command, "--lambda", "1", "--nodes", "60"], capsys)
        assert code == 2
        assert err == f"error: --nodes takes 61 to {MAX_NODE_COUNT}, got 60\n"
        assert out == ""
        code, out, err = run_cli([command, "--lambda", "1", "--nodes", "61"], capsys)
        assert code == 0 and out

    @pytest.mark.parametrize("command", ["rs-curve", "saddle", "se"])
    def test_node_count_above_limit(self, capsys, command):
        # the CLI's own range check, in the same words as below the default
        code, out, err = run_cli([command, "--lambda", "1", "--nodes", str(MAX_NODE_COUNT + 1)], capsys)
        assert code == 2
        assert err == f"error: --nodes takes 61 to {MAX_NODE_COUNT}, got {MAX_NODE_COUNT + 1}\n"
        assert out == ""

    def test_budget_exceeded(self, capsys):
        code, _, err = run_cli(
            ["finite-n", "--n", "30", "--lambda", "1", "--disorder", "2"], capsys
        )
        assert code == 2
