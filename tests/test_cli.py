"""End-to-end tests of the command-line interface (in-process)."""

import csv
import json

import pytest

from triqss.cli import EXIT_ASSERTION, EXIT_CONFIG, EXIT_NO_TEST_DATA, EXIT_OK, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRunCommand:
    def test_honest_run_summary(self, capsys):
        code, out, err = run_cli(
            capsys, "run", "--preset", "honest", "--rounds", "1500", "--seed", "1",
            "--eta", "1.0", "--eta-prime", "1.0",
        )
        assert code == EXIT_OK
        assert err == ""
        assert "scenario: honest" in out
        assert "verdict: secure" in out
        assert "attacked fraction: 0.000" in out

    def test_expect_mismatch_exits_one(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "run", "--preset", "honest", "--rounds", "1000",
            "--eta", "1.0", "--eta-prime", "1.0", "--expect", "compromised",
        )
        assert code == EXIT_ASSERTION
        assert "expected verdict" in out

    def test_expect_match_exits_zero(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "run", "--preset", "opaque-no-cheat", "--rounds", "3000",
            "--expect", "compromised",
        )
        assert code == EXIT_OK

    def test_bad_channel_pair_is_config_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            "run", "--preset", "opaque-vulnerable",
            "--eta", "0.6", "--eta-prime", "0.3", "--rounds", "500",
        )
        assert code == EXIT_CONFIG
        assert "error:" in err

    def test_too_few_rounds_is_no_test_data(self, capsys):
        code, _, err = run_cli(capsys, "run", "--rounds", "3")
        assert code == EXIT_NO_TEST_DATA
        assert "no usable test rounds" in err
        code, _, err = run_cli(capsys, "run", "--rounds", "0")
        assert code == EXIT_CONFIG
        assert "rounds" in err

    def test_invalid_choice_is_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--preset", "nonsense"])
        assert exc.value.code == 2

    def test_missing_subcommand_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_report_csv_output(self, tmp_path, capsys):
        out_path = tmp_path / "row.csv"
        code, out, _ = run_cli(
            capsys,
            "run", "--preset", "honest", "--rounds", "800",
            "--eta", "1.0", "--eta-prime", "1.0", "--out", str(out_path),
        )
        assert code == EXIT_OK
        assert f"report written to {out_path}" in out
        with open(out_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert rows[0]["scenario"] == "honest"
        assert rows[0]["verdict"] == "secure"

    def test_report_json_output(self, tmp_path, capsys):
        out_path = tmp_path / "row.json"
        code, _, _ = run_cli(
            capsys,
            "run", "--preset", "honest", "--rounds", "800",
            "--eta", "1.0", "--eta-prime", "1.0",
            "--out", str(out_path), "--format", "json",
        )
        assert code == EXIT_OK
        rows = json.loads(out_path.read_text())
        assert rows[0]["scenario"] == "honest"

    def test_transcript_export(self, tmp_path, capsys):
        path = tmp_path / "session.jsonl"
        code, out, _ = run_cli(
            capsys,
            "run", "--preset", "honest", "--rounds", "60",
            "--eta", "1.0", "--seed", "0", "--transcript", str(path),
        )
        assert code == EXIT_OK
        assert f"transcript written to {path}" in out
        lines = path.read_text().splitlines()
        assert len(lines) == 61
        assert json.loads(lines[0])["record"] == "session"

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({
            "preset": "opaque-vulnerable",
            "eta": 0.25,
            "eta_prime": 0.5,
            "rounds": 5000,
            "seed": 3,
        }))
        code, out, _ = run_cli(
            capsys, "run", "--config", str(config_path), "--rounds", "1200"
        )
        assert code == EXIT_OK
        assert "scenario: opaque-vulnerable" in out
        # The explicit flag wins over the file value.
        assert "rounds: 1200" in out
        assert "eta=0.25 eta_prime=0.5" in out

    def test_missing_config_file_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "run", "--config", "/no/such/file.json")
        assert code == EXIT_CONFIG
        assert "error:" in err

    @pytest.mark.parametrize("values,key", [
        ({"rounds": True}, "rounds"),
        ({"rounds": 2500.9}, "rounds"),
        ({"seed": 1.7}, "seed"),
        ({"seed": False}, "seed"),
        ({"repetitions": True}, "repetitions"),
        ({"repetitions": 2.0}, "repetitions"),
        ({"eta": True}, "eta"),
        ({"eta_prime": "0.6"}, "eta_prime"),
        ({"test_fraction": False}, "test_fraction"),
        ({"test_fraction": "0.25"}, "test_fraction"),
        ({"ordering": "bogus"}, "ordering"),
        ({"mode": "bogus"}, "mode"),
        ({"etta": 0.9}, "etta"),
        ({"format": "xml"}, "format"),
        ({"expect": "maybe"}, "expect"),
        ({"transcript": 1}, "transcript"),
        ({"out": 2}, "out"),
        ({"ordering": 5}, "ordering"),
        ({"mode": 5}, "mode"),
    ])
    def test_config_file_values_are_not_coerced(self, tmp_path, capsys, values, key):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"rounds": 200, **values}))
        code, out, err = run_cli(capsys, "run", "--config", str(config_path))
        assert code == EXIT_CONFIG
        assert out == ""
        assert err.startswith(f"error: {key}")


class TestSweepCommand:
    def test_sweep_prints_grid_and_writes_csv(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code, out, _ = run_cli(
            capsys,
            "sweep", "--eta", "0.25", "--eta-prime-list", "0.25,0.4",
            "--rounds", "2000", "--out", str(out_path),
        )
        assert code == EXIT_OK
        assert "eta_prime" in out
        assert f"sweep written to {out_path}" in out
        with open(out_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["eta_prime"] for r in rows] == ["0.25", "0.4"]
        assert float(rows[1]["formula_fraction"]) == pytest.approx(0.75)

    def test_legacy_flag_spelling_still_works(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "--eta", "0.25", "--eta-primes", "0.3",
            "--rounds", "1500",
        )
        assert code == EXIT_OK
        assert "0.300" in out

    def test_point_without_test_data_is_reported_and_sweep_goes_on(
        self, tmp_path, capsys
    ):
        # At 10 rounds, seed 0, only the first point keeps a test round.
        out_path = tmp_path / "sweep.json"
        code, out, err = run_cli(
            capsys,
            "sweep", "--eta", "0.25", "--eta-prime-list", "0.25,0.3,0.35",
            "--rounds", "10", "--out", str(out_path), "--format", "json",
        )
        assert code == EXIT_NO_TEST_DATA
        assert "    0.300 no usable test data" in out
        assert "    0.350 no usable test data" in out
        assert f"sweep written to {out_path}" in out
        assert "no usable test data at eta_prime 0.300, 0.350" in err
        rows = json.loads(out_path.read_text())
        assert [r["note"] for r in rows] == [
            "", "no usable test data", "no usable test data"
        ]
        assert rows[0]["verdict"] is not None

    @pytest.mark.parametrize("values,key", [
        ({"rounds": True}, "rounds"),
        ({"rounds": 300.5}, "rounds"),
        ({"seed": True}, "seed"),
        ({"repetitions": 1.0}, "repetitions"),
        ({"eta": "0.25"}, "eta"),
        ({"eta": False}, "eta"),
        ({"eta_primes": [0.3, True]}, "eta_prime"),
        ({"eta_primes": ["0.3"]}, "eta_prime"),
        ({"eta_primes": 0.3}, "eta_primes"),
        ({"eta_prime": 0.9}, "eta_prime"),
        ({"format": "xml"}, "format"),
        ({"out": 2}, "out"),
    ])
    def test_config_file_values_are_not_coerced(self, tmp_path, capsys, values, key):
        config_path = tmp_path / "sweep.json"
        config_path.write_text(
            json.dumps({"rounds": 200, "eta_primes": "0.3", **values})
        )
        code, out, err = run_cli(capsys, "sweep", "--config", str(config_path))
        assert code == EXIT_CONFIG
        assert out == ""
        assert err.startswith(f"error: {key}")

    @pytest.mark.parametrize("flag", ["--eta-prime", "--rep"])
    def test_abbreviated_flags_are_refused(self, capsys, flag):
        # sweep takes no abbreviations: --eta-prime is not read as
        # --eta-prime-list, nor --rep as --repetitions.
        with pytest.raises(SystemExit) as exc:
            main(["sweep", flag, "3"])
        assert exc.value.code == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert f"unrecognized arguments: {flag} 3" in err

    def test_empty_grid_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--eta-prime-list", ",")
        assert code == EXIT_CONFIG
        assert "at least one" in err

    def test_non_number_in_grid_is_config_error(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--eta-prime-list", "0.3, abc")
        assert code == EXIT_CONFIG
        assert out == ""
        assert err == "error: eta_primes: not a number: 'abc'\n"


class TestVerifyTableCommand:
    def test_passes_and_prints_cells(self, capsys):
        code, out, _ = run_cli(capsys, "verify-table1")
        assert code == EXIT_OK
        assert "verify-table1: pass (16 swap cells, 32 collapse cells)" in out
        assert out.count("psi+") >= 8

    def test_quiet_mode_prints_only_the_summary(self, capsys):
        code, out, _ = run_cli(capsys, "verify-table1", "--quiet")
        assert code == EXIT_OK
        assert out.strip() == (
            "verify-table1: pass (16 swap cells, 32 collapse cells)"
        )


class TestSelftestCommand:
    def test_selftest_passes(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--rounds", "1500")
        assert code == EXIT_OK
        assert "selftest: pass" in out
        assert out.count("[ok]") >= 4

    def test_no_test_data_names_the_session(self, capsys):
        code, _, err = run_cli(capsys, "selftest", "--rounds", "5")
        assert code == EXIT_NO_TEST_DATA
        assert "selftest session 'honest': no usable test rounds" in err
