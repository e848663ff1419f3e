"""CLI behavior: parsing, exit codes, deterministic exports."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bernspec import cli, exact, matrixlab
from bernspec.cli import main, parse_frequency
from bernspec.exact import BernoulliParams, QuarterInt
from bernspec.matrixlab import TruncatedMatrix
from bernspec.report import CheckReport
from bernspec.spectrum import enumerate_spectrum, word_value
from digit_words import bits, stratum

# 401 digits: past the float range, so float(t) would overflow
HUGE_INTEGER = str(10**400 + 7)


class TestParseFrequency:
    def test_exact_forms(self):
        assert parse_frequency("24") == QuarterInt.from_int(24)
        assert parse_frequency("3/2") == QuarterInt(6)
        assert parse_frequency("-5/4") == QuarterInt(-5)

    def test_decimal_is_float(self):
        value = parse_frequency("0.3")
        assert isinstance(value, float)
        assert value == 0.3

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_frequency("abc")

    @pytest.mark.parametrize("t", ["1" * 5000, "1" * 5000 + "/4",
                                   "-3/" + "1" * 5000],
                             ids=["integer", "numerator", "denominator"])
    def test_integer_past_the_conversion_limit_rejected(self, t, capsys):
        # int() refuses it; float() would read it as inf
        if not hasattr(sys, "get_int_max_str_digits"):
            pytest.skip("this interpreter converts integers of any length")
        assert main(["muhat", f"--t={t}"]) == 2
        err = capsys.readouterr().err
        assert "an integer of 5000 digits" in err
        assert "inf" not in err and len(err) < 200


class TestMuhat:
    def test_exact_zero(self, capsys):
        assert main(["muhat", "--n", "2", "--t", "1"]) == 0
        out = capsys.readouterr().out
        assert "exact_zero=True" in out
        assert "sign=0" in out

    def test_known_value(self, capsys):
        assert main(["muhat", "--n", "2", "--t", "24"]) == 0
        out = capsys.readouterr().out
        assert "magnitude=0.58115392142938" in out

    def test_decimal_path(self, capsys):
        assert main(["muhat", "--n", "2", "--t", "0.3", "--terms", "40"]) == 0
        assert "exact_zero=False" in capsys.readouterr().out

    def test_json_output(self, capsys):
        assert main(["muhat", "--n", "2", "--t", "2", "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["exact_zero"] is False
        assert obj["value"] == pytest.approx(-0.6926289126994459, abs=1e-12)

    def test_parse_failure_exit_code(self, capsys):
        assert main(["muhat", "--n", "2", "--t", "x1"]) == 2
        assert "cannot parse" in capsys.readouterr().err

    def test_bad_params_exit_code(self, capsys):
        assert main(["muhat", "--n", "0", "--t", "1"]) == 2

    def test_huge_decimal_sizes_its_product(self, capsys):
        assert main(["muhat", "--n", "2", "--t", "3.3e38", "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["magnitude"] > 1e3 * obj["error_bound"]

    def test_largest_decimals_do_not_overflow(self, capsys):
        assert main(["muhat", "--n", "2", "--t", "1e308"]) == 0
        assert main(["muhat", "--n", "3", "--t=-1.7e308"]) == 0
        assert "exact_zero=" in capsys.readouterr().out

    def test_zero_terms_rejected(self, capsys):
        assert main(["muhat", "--n", "2", "--t", "0.3", "--terms", "0"]) == 2
        assert "terms must be >= 1" in capsys.readouterr().err

    def test_integer_past_the_float_range(self, capsys):
        assert main(["muhat", "--n", "3", f"--t={HUGE_INTEGER}", "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["exact_zero"] is False
        assert obj["error_bound"] <= 1e-12

    @pytest.mark.parametrize("command", [
        ["muhat", "--t", "1"],
        ["spectrum", "--max-digits", "2"],
        ["chaos", "--t", "1", "--samples", "10"],
    ])
    def test_scale_factor_not_taken(self, command, capsys):
        # only matrix, parseval and verify use p
        with pytest.raises(SystemExit) as exc:
            main([*command, "--p", "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --p 5" in capsys.readouterr().err

    def test_oversized_terms_rejected(self, monkeypatch, capsys):
        # rejected before the walk, which would run for days at this length;
        # with numpy None in sys.modules any numpy import raises
        monkeypatch.setitem(sys.modules, "numpy", None)
        monkeypatch.setattr(exact, "_product", None)
        assert main(["muhat", "--t", "0.3", "--terms", "10000000000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("terms 10000000000 is over the size budget of 4194304"
                in captured.err)


class TestSpectrum:
    def test_stdout_listing(self, capsys):
        assert main(["spectrum", "--n", "2", "--max-digits", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "word,value,stratum"
        assert lines[1] == ",0,"
        assert lines[2] == "1,1,0"
        assert len(lines) == 9

    def test_csv_via_env_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
        assert main(["spectrum", "--n", "2", "--max-digits", "4",
                     "--csv", "sub/words.csv"]) == 0
        target = tmp_path / "sub" / "words.csv"
        first = target.read_bytes()
        assert first.startswith(b"word,value,stratum\n")
        assert capsys.readouterr().out == ""
        assert main(["spectrum", "--n", "2", "--max-digits", "4",
                     "--csv", "sub/words.csv"]) == 0
        assert target.read_bytes() == first

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("order", ["value", "strata"])
    def test_listing_equals_tuple_reference(self, n, order, capsys):
        params = BernoulliParams(n)
        for d in range(7):
            assert main(["spectrum", "--n", str(n), "--max-digits", str(d),
                         "--order", order]) == 0
            expected = ["word,value,stratum"] + [
                f"{bits(w)},{word_value(w, params)},"
                f"{'' if stratum(w) is None else stratum(w)}"
                for w in enumerate_spectrum(params, d, order)]
            assert capsys.readouterr().out.splitlines() == expected

    def test_half_integer_values_for_odd_n(self, capsys):
        assert main(["spectrum", "--n", "3", "--max-digits", "2"]) == 0
        out = capsys.readouterr().out
        assert "1,3/2,0" in out.splitlines()


class TestMatrix:
    def test_writes_all_formats(self, tmp_path, capsys):
        paths = {fmt: tmp_path / f"m.{fmt}" for fmt in
                 ("csv", "json", "pgm", "svg")}
        assert main([
            "matrix", "--n", "2", "--p", "5", "--max-digits", "3",
            "--csv", str(paths["csv"]), "--json-file", str(paths["json"]),
            "--pgm", str(paths["pgm"]), "--svg", str(paths["svg"]),
        ]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["size"] == 8
        expected = TruncatedMatrix.build(BernoulliParams(2, 5), 3)
        assert paths["csv"].read_text() == expected.to_csv_text()
        assert paths["pgm"].read_bytes().startswith(b"P5\n8 8\n255\n")
        assert paths["svg"].read_text() == expected.to_svg_text()
        assert json.loads(paths["json"].read_text()) == expected.to_json_obj()

    @pytest.mark.parametrize("argv,count", [
        (["spectrum", "--max-digits", "64"], "18446744073709551616 words"),
        (["matrix", "--p", "5", "--max-digits", "12"],
         "16777216 matrix entries"),
        # past 64 digits the count is named as a power, which is never built
        (["spectrum", "--max-digits", "1000000000"], "2^1000000000 words"),
        (["matrix", "--p", "5", "--max-digits", "1000000000"],
         "4^1000000000 matrix entries"),
        (["parseval", "--t", "1/2", "--max-digits", "1000000000"],
         "2^1000000000 words"),
    ])
    def test_oversized_request_rejected(self, argv, count, monkeypatch, capsys):
        # rejected on the projected count, before the matrix lists its words
        # or their numerators
        monkeypatch.setattr(matrixlab, "point_numerators", None)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"needs {count}, over the size budget of 4194304" in captured.err

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--max-digits", "2", "--csv"],
        *[["matrix", "--p", "5", "--max-digits", "2", flag]
          for flag in ("--csv", "--json-file", "--pgm", "--svg")],
    ])
    def test_unwritable_output_path_rejected(self, argv, tmp_path, capsys):
        # the parent of the output path is a regular file
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main([*argv, str(blocker / "x.out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert str(blocker) in captured.err
        # the message names the flag and the output path it was given
        assert argv[-1] in captured.err
        assert str(blocker / "x.out") in captured.err


class TestVerify:
    @pytest.mark.parametrize("suite,digits,count", [
        *[pytest.param(suite, 12, "16777216 word pairs", id=suite) for suite in (
            "block-diagonal", "block-equality", "commute-even", "commute-odd",
            "multiplication", "w0-sparsity")],
        # on its 2^d words, not on the level below them that it also reads
        pytest.param("cuntz", 23, "8388608 words", id="cuntz"),
        # past 64 digits the count is named as a power, which is never built
        pytest.param("cuntz", 10**9, "2^1000000000 words", id="cuntz-huge"),
        *[pytest.param(suite, 10**9, "4^1000000000 word pairs", id=f"{suite}-huge")
          for suite in ("block-diagonal", "block-equality", "commute-even",
                        "commute-odd", "multiplication", "w0-sparsity")],
    ])
    def test_oversized_request_rejected(self, suite, digits, count, monkeypatch,
                                        capsys):
        # rejected on the projected count, before any word or numerator is
        # listed
        monkeypatch.setattr(matrixlab, "point_numerators", None)
        assert main(["verify", suite, "--max-digits", str(digits)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"max_digits {digits} needs {count}, over the size "
                "budget of 4194304") in captured.err

    @pytest.mark.parametrize("argv", [
        ["verify", "cuntz", "--n", "2", "--max-digits", "6"],
        ["verify", "cuntz", "--n", "3", "--max-digits", "5"],
        ["verify", "block-diagonal", "--n", "2", "--p", "5",
         "--max-digits", "5"],
        ["verify", "block-diagonal", "--n", "4", "--max-digits", "4"],
        ["verify", "block-equality", "--max-digits", "5", "--k-max", "2"],
        ["verify", "commute-even", "--max-digits", "4"],
        ["verify", "commute-odd"],
        ["verify", "commute-odd", "--p", "5", "--max-digits", "3"],
        ["verify", "multiplication", "--max-digits", "4"],
        ["verify", "w0-sparsity", "--max-digits", "6"],
        ["verify", "w0-sparsity", "--max-digits", "7", "--tilde-max", "4",
         "--require-witnesses"],
    ])
    def test_suites_pass(self, argv, capsys):
        assert main(argv) == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["verify", "multiplication", "--n", "3"],
        ["verify", "all", "--max-digits", "2"],
        ["verify", "cuntz", "--k-max", "9"],
    ])
    def test_flag_the_suite_does_not_take_rejected(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--{argv[2][2:]}" in captured.err
        assert "does not take" in captured.err

    def test_bad_class_limit_rejected(self, capsys):
        assert main(["verify", "w0-sparsity", "--tilde-max", "-3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tilde_max must be >= 0" in captured.err

    def test_tol_flag_rejected(self, capsys):
        # the multiplication identity is decided in integers alone
        with pytest.raises(SystemExit) as exit_info:
            main(["verify", "multiplication", "--tol", "1e-6"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --tol 1e-6" in captured.err

    @pytest.mark.parametrize("argv", [
        ["verify", "block-diagonal", "--max-digits", "0"],
        ["verify", "block-equality", "--max-digits", "1"],
    ])
    def test_run_with_no_checks_rejected(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"verify {argv[1]} made 0 checks: --max-digits {argv[3]} "
                "is too small") in captured.err

    @pytest.mark.parametrize("suite", cli.VERIFY_SUITES)
    def test_negative_depth_rejected(self, suite, capsys):
        assert main(["verify", suite, "--max-digits", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        least = 1 if suite == "multiplication" else 0
        assert captured.err == f"error: max_digits must be >= {least}\n"

    def test_all_runs_the_pinned_battery(self, capsys):
        # each whole line, so a changed check count fails too
        assert main(["verify", "all"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "cuntz(n=2, digits<=8): PASS (1792 checks)",
            "cuntz(n=3, digits<=8): PASS (1792 checks)",
            "cuntz(n=4, digits<=8): PASS (1792 checks)",
            "block-diagonal(n=2, p=5, digits<=6): PASS (2730 checks)",
            "block-diagonal(n=4, p=3, digits<=6): PASS (2730 checks)",
            "block-equality(n=2, p=5, digits<=6, k<=3): PASS (336 checks)",
            "commute-even(n=2, p=5, digits<=5): PASS (512 checks)",
            "commute-even(n=4, p=3, digits<=5): PASS (512 checks)",
            "commute-odd(n=3, p=3, digits<=4): PASS (512 checks)",
            "commute-odd(n=3, p=5, digits<=4): PASS (512 checks)",
            "multiplication(n=2, p=5, digits<=6): PASS (1024 checks)",
            "w0-sparsity(digits<=7, classes<=4): PASS (3979 checks)",
        ]

    def test_shifts_past_the_depth_make_no_checks(self, capsys):
        # a shift k >= max_digits leaves no stratum-0 word in the
        # truncation, so --k-max 10^12 makes the checks of --k-max 6
        for k_max in (6, 10**12):
            assert main(["verify", "block-equality", "--k-max", str(k_max)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "block-equality(n=2, p=5, digits<=6, k<=6): PASS (341 checks)",
            "block-equality(n=2, p=5, digits<=6, k<=1000000000000): "
            "PASS (341 checks)",
        ]

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "nonsense"])

    def test_domain_error_exit_code(self, capsys):
        assert main(["verify", "commute-even", "--n", "3"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_failure_prints_machine_readable_list(self, monkeypatch, capsys):
        def broken(params, max_digits):
            report = CheckReport("block-diagonal(stub)")
            report.checked = 1
            report.add("entry (0, 1) expected zero")
            return report

        monkeypatch.setattr(cli, "verify_block_diagonal", broken)
        assert main(["verify", "block-diagonal"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        payload = json.loads(out[out.index("{"):])
        assert payload["failures"][0]["violations"] == [
            "entry (0, 1) expected zero"]


@pytest.mark.parametrize("n", [10**160, 10**400], ids=["1e160", "1e400"])
class TestHugeN:
    # 2n past the float range: after the first factor every cosine is 1
    # within 1e-300, and no command converts 2n to a float
    def test_muhat(self, n, capsys):
        for extra in ([], ["--terms", "3"]):
            assert main(["muhat", "--n", str(n), "--t", "3/4", "--json",
                         *extra]) == 0
            obj = json.loads(capsys.readouterr().out)
            assert (obj["exact_zero"], obj["value"]) == (False, 1.0)
            assert 0.0 < obj["error_bound"] <= 1e-12

    def test_muhat_at_a_zero(self, capsys, n):
        # t = n / 2 = (2n)^1 * 1 / 4 is in the zero set
        assert main(["muhat", "--n", str(n), f"--t={2 * n}/4", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["exact_zero"] is True

    def test_parseval(self, n, capsys):
        # at every point gamma != 0 one factor of mu_hat(t - gamma) is a
        # cosine within 3 pi / (4n) of one of its zeros, so only gamma = 0
        # adds more than 1e-300
        assert main(["parseval", "--n", str(n), "--t", "3/4",
                     "--max-digits", "2", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [row["digits"] for row in rows] == [0, 1, 2]
        for row in rows:
            assert abs(row["partial_sum"] - 1.0) <= row["error_bound"] <= 1e-12

    def test_matrix(self, n, capsys):
        assert main(["matrix", "--n", str(n), "--p", "3",
                     "--max-digits", "2"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert (summary["n"], summary["size"]) == (n, 4)

    def test_chaos(self, n, capsys):
        assert main(["chaos", "--n", str(n), "--t", "3/4",
                     "--samples", "10"]) == 0
        fields = capsys.readouterr().out.splitlines()[1].split()
        assert [float(x) for x in fields[1:4]] == [1.0, 0.0, 1.0]


class TestTolerance:
    @pytest.mark.parametrize("tol", ["inf", "nan"])
    @pytest.mark.parametrize("command", [
        ["muhat", "--t", "0.3"],
        ["matrix", "--p", "5", "--max-digits", "2"],
        ["parseval", "--t", "0.3", "--max-digits", "2"],
        ["chaos", "--t", "0.3", "--samples", "10"],
    ], ids=["muhat", "matrix", "parseval", "chaos"])
    def test_non_finite_tol_rejected(self, command, tol, capsys):
        assert main([*command, "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"tol must be finite and positive, got {tol}" in captured.err

    @pytest.mark.parametrize("command", [
        ["muhat", "--t", "1/4"],
        ["matrix", "--p", "5", "--max-digits", "2"],
        ["parseval", "--t", "1/4", "--max-digits", "2"],
        ["chaos", "--t", "1/4", "--samples", "10"],
    ], ids=["muhat", "matrix", "parseval", "chaos"])
    def test_tol_whose_half_underflows_rejected(self, command, capsys):
        # the smallest subnormal halves to 0.0, which tol's checks reject
        assert main([*command, "--tol", "5e-324"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tol / 2 underflows to 0, got tol = 5e-324" in captured.err


class TestParseval:
    def test_monotone_table(self, capsys):
        assert main(["parseval", "--n", "2", "--t", "0.3",
                     "--base", "gamma", "--max-digits", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "digits partial_sum error_bound"
        sums = [float(line.split()[1]) for line in lines[1:]]
        errs = [float(line.split()[2]) for line in lines[1:]]
        assert sums == sorted(sums)
        assert all(s <= 1.0 + e for s, e in zip(sums, errs))

    def test_scaled_needs_p(self, capsys):
        assert main(["parseval", "--n", "2", "--t", "0.3",
                     "--base", "scaled", "--max-digits", "3"]) == 2
        assert "--p" in capsys.readouterr().err

    def test_decimal_and_integer_spelling_agree(self, capsys):
        # 1.2345e20 is the integer 123450000000000000000 as a float, so both
        # spellings name one exact point and print one table
        outputs = []
        for t in ("1.2345e20", "123450000000000000000"):
            assert main(["parseval", "--n", "3", "--t", t,
                         "--max-digits", "3"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        bounds = [float(line.split()[2]) for line in outputs[0].splitlines()[1:]]
        assert len(bounds) == 4 and max(bounds) <= 1e-12

    def test_scaled_json(self, capsys):
        assert main(["parseval", "--n", "2", "--t", "1/2", "--base", "scaled",
                     "--p", "5", "--max-digits", "3", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [row["digits"] for row in rows] == [0, 1, 2, 3]


class TestChaos:
    def test_estimate_close_to_reference(self, capsys):
        assert main(["chaos", "--n", "2", "--t", "2", "--samples", "20000",
                     "--seed", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("samples estimate")
        fields = lines[1].split()
        assert fields[0] == "20000"
        assert float(fields[3]) == pytest.approx(-0.6926289126994459,
                                                 abs=1e-12)
        assert float(fields[4]) < 4.0

    def test_multiple_sample_sizes(self, capsys):
        assert main(["chaos", "--n", "3", "--t", "0.4",
                     "--samples", "5000", "20000", "--seed", "7"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3

    def test_zero_samples_rejected_before_any_output(self, capsys):
        assert main(["chaos", "--t", "0.3", "--samples", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "samples must be >= 1" in captured.err

    @pytest.mark.parametrize("t", ["1e308", HUGE_INTEGER],
                             ids=["1e308", "401-digit"])
    def test_frequency_past_the_float_range_rejected(self, t, capsys):
        # 2 pi t is not a finite float, so no sample phase is meaningful
        assert main(["chaos", f"--t={t}", "--samples", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "2 pi t must be a finite float" in captured.err

    def test_negative_seed_rejected(self, capsys):
        assert main(["chaos", "--t", "0.3", "--samples", "10",
                     "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "seed must be >= 0, got -1" in captured.err

    def test_oversized_sample_count_rejected(self, monkeypatch, capsys):
        # rejected before numpy allocates the two 80 GB sample arrays; with
        # numpy None in sys.modules any numpy import raises
        monkeypatch.setitem(sys.modules, "numpy", None)
        assert main(["chaos", "--t", "0.3", "--samples", "10000000000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("samples 10000000000 is over the size budget of 4194304"
                in captured.err)


class TestNumpyImport:
    # a fresh interpreter runs one command and reports whether numpy loaded
    SCRIPT = ("import contextlib, io, sys\n"
              "from bernspec.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    rc = main(sys.argv[1:])\n"
              "print(rc, 'numpy' in sys.modules)\n")

    @pytest.mark.parametrize("argv,loads_numpy", [
        (["verify", "all"], False),
        (["muhat", "--t", "24"], False),
        (["parseval", "--t", "0.3", "--max-digits", "4"], False),
        (["spectrum", "--max-digits", "3"], False),
        (["matrix", "--p", "5", "--max-digits", "2"], True),
        (["chaos", "--t", "0.3", "--samples", "10"], True),
    ])
    def test_numpy_loads_only_for_arrays(self, argv, loads_numpy):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        result = subprocess.run([sys.executable, "-c", self.SCRIPT, *argv],
                                capture_output=True, text=True, env=env,
                                check=True)
        assert result.stdout.split() == ["0", str(loads_numpy)]
