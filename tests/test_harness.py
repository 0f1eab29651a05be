"""Tests for the experiment harness: presets, reports, sweeps, self-checks."""

import csv
import json
import os
import subprocess
import sys

import pytest

import triqss

from triqss.adversary import AttackKind
from triqss.channel import ChannelConfig
from triqss.harness import (
    PRESET_NAMES,
    REPORT_COLUMNS,
    SWEEP_COLUMNS,
    preset_experiment,
    report_row,
    run_experiment,
    selftest,
    sweep_pe,
    verify_table1,
    write_report_csv,
    write_report_json,
    write_sweep_csv,
    write_sweep_json,
)
from triqss.protocol import (
    Mode,
    OrderingPolicy,
    Scheme,
    SessionConfig,
    run_session,
    tally_transcript,
)
from triqss.stats import wilson_interval


class TestPresets:
    def test_preset_roster(self):
        assert PRESET_NAMES == (
            "honest",
            "opaque-vulnerable",
            "opaque-refined",
            "opaque-no-cheat",
            "opaque-sifting-classical",
            "opaque-sifting-state-sharing",
            "early-bell",
            "hardened",
            "hbb",
        )

    def test_unknown_preset_is_rejected(self):
        with pytest.raises(ValueError, match="unknown preset"):
            preset_experiment("mitm")

    @pytest.mark.parametrize("repetitions", [0, True, 1.0])
    def test_rejects_bad_repetitions(self, repetitions):
        with pytest.raises(ValueError, match="repetitions"):
            preset_experiment("honest", repetitions=repetitions)

    def test_preset_wiring(self):
        honest = preset_experiment("honest")
        assert honest.strategy is None
        vulnerable = preset_experiment("opaque-vulnerable")
        assert vulnerable.strategy.kind is AttackKind.OPAQUE_DEFERRED
        assert vulnerable.strategy.cheating_enabled
        assert vulnerable.session.ordering is OrderingPolicy.VULNERABLE
        no_cheat = preset_experiment("opaque-no-cheat")
        assert not no_cheat.strategy.cheating_enabled
        sifting = preset_experiment("opaque-sifting-classical")
        assert sifting.session.ordering is OrderingPolicy.SIFTING_FIRST
        sharing = preset_experiment("opaque-sifting-state-sharing")
        assert sharing.session.mode is Mode.STATE_SHARING
        early = preset_experiment("early-bell")
        assert early.strategy.kind is AttackKind.EARLY_BELL
        hardened = preset_experiment("hardened")
        assert hardened.session.scheme is Scheme.HARDENED_KKI
        hbb = preset_experiment("hbb")
        assert hbb.session.scheme is Scheme.HBB
        assert hbb.strategy is None

    def test_overrides_apply(self):
        config = preset_experiment(
            "opaque-vulnerable",
            eta=0.25,
            eta_prime=0.4,
            rounds=123,
            seed=9,
            repetitions=3,
            test_fraction=0.5,
            ordering=OrderingPolicy.REFINED,
        )
        assert config.session.channel == ChannelConfig(eta=0.25, eta_prime=0.4)
        assert config.session.rounds == 123
        assert config.session.seed == 9
        assert config.repetitions == 3
        assert config.session.test_fraction == 0.5
        assert config.session.ordering is OrderingPolicy.REFINED


class TestRunExperiment:
    def test_deterministic_rows(self):
        config = preset_experiment("opaque-vulnerable", rounds=2000, seed=4)
        row1 = report_row(run_experiment(config))
        row2 = report_row(run_experiment(config))
        assert row1 == row2

    def test_repetitions_pool_counters(self):
        base = preset_experiment("honest", rounds=1500, seed=2)
        pooled = preset_experiment("honest", rounds=1500, seed=2, repetitions=3)
        report = run_experiment(pooled)
        assert report.tally.rounds == 4500
        single = run_experiment(base)
        assert single.tally.rounds == 1500

    def test_honest_preset_reads_secure(self):
        report = run_experiment(preset_experiment("honest", rounds=4000, seed=1))
        assert report.check.verdict == "secure"
        assert report.check.test_errors == 0
        assert report.attacked_fraction_observed == 0.0
        assert report.planned_attack_fraction is None
        assert report.key_mismatches == 0

    def test_attacked_preset_stays_invisible_but_leaks_keys(self):
        report = run_experiment(
            preset_experiment("opaque-vulnerable", rounds=6000, seed=3)
        )
        assert report.check.verdict == "secure"
        assert report.check.test_errors == 0
        assert report.ka_accuracy == 1.0
        assert report.kc_accuracy == 1.0
        assert report.tally.dealer_bit_recoveries > 250

    def test_no_cheat_preset_is_caught(self):
        report = run_experiment(
            preset_experiment("opaque-no-cheat", rounds=6000, seed=5)
        )
        assert report.check.verdict == "compromised"
        assert report.check.test_error_rate > 0.15

    def test_transcripts_kept_on_request(self):
        config = preset_experiment("honest", rounds=200, seed=0, repetitions=2)
        without = run_experiment(config)
        with_them = run_experiment(config, keep_transcripts=True)
        assert without.transcripts is None
        assert len(with_them.transcripts) == 2


class TestReportWriters:
    def test_report_row_matches_column_contract(self):
        report = run_experiment(preset_experiment("honest", rounds=500, seed=0))
        row = report_row(report)
        assert tuple(row) == REPORT_COLUMNS

    def test_csv_and_json_are_byte_stable(self, tmp_path):
        config = preset_experiment("opaque-vulnerable", rounds=1500, seed=8)
        blobs = []
        for attempt in ("a", "b"):
            report = run_experiment(config)
            csv_path = tmp_path / f"{attempt}.csv"
            json_path = tmp_path / f"{attempt}.json"
            write_report_csv([report], str(csv_path))
            write_report_json([report], str(json_path))
            blobs.append((csv_path.read_bytes(), json_path.read_bytes()))
        assert blobs[0] == blobs[1]

    def test_empty_report_list_writes_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_report_csv([], str(path))
        assert path.read_text() == ",".join(REPORT_COLUMNS) + "\n"

    def test_csv_row_values(self, tmp_path):
        report = run_experiment(preset_experiment("honest", rounds=800, seed=1))
        path = tmp_path / "report.csv"
        write_report_csv([report], str(path))
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        row = rows[0]
        assert row["scenario"] == "honest"
        assert row["verdict"] == "secure"
        # Honest runs have no recovery accuracy: None becomes empty cell.
        assert row["ka_acc"] == ""
        assert float(row["eta"]) == 0.3

    def test_json_rows_round_trip(self, tmp_path):
        report = run_experiment(preset_experiment("honest", rounds=800, seed=1))
        path = tmp_path / "report.json"
        write_report_json([report], str(path))
        rows = json.loads(path.read_text())
        assert isinstance(rows, list) and len(rows) == 1
        assert rows[0]["scenario"] == "honest"
        assert rows[0]["ka_acc"] is None


class TestSweep:
    def test_grid_and_columns(self, tmp_path):
        rows = sweep_pe(
            eta=0.25, eta_prime_values=(0.2, 0.25, 0.4), rounds=2000, seed=1
        )
        assert [r["eta_prime"] for r in rows] == [0.2, 0.25, 0.4]
        for row in rows:
            assert tuple(row) == SWEEP_COLUMNS
        # A replacement channel worse than the honest one is skipped.
        assert rows[0]["note"].startswith("skipped")
        assert rows[0]["measured_fraction"] is None
        # eta_prime == eta leaves no loss budget at all.
        assert rows[1]["formula_fraction"] == 0.0
        csv_path = tmp_path / "sweep.csv"
        json_path = tmp_path / "sweep.json"
        write_sweep_csv(rows, str(csv_path))
        write_sweep_json(rows, str(json_path))
        with open(csv_path, newline="") as fh:
            parsed = list(csv.DictReader(fh))
        assert len(parsed) == 3
        assert json.loads(json_path.read_text())[2]["verdict"] == "secure"

    def test_measured_fraction_tracks_formula(self):
        rows = sweep_pe(
            eta=0.25, eta_prime_values=(0.4,), rounds=8000, seed=2
        )
        row = rows[0]
        assert row["formula_fraction"] == pytest.approx(0.75, abs=1e-9)
        assert row["measured_fraction"] == pytest.approx(0.75, abs=0.03)
        assert row["eff_charlie"] == pytest.approx(0.25, abs=0.02)


class TestIntervalCalibration:
    def test_sift_rate_interval_covers_half(self):
        # The Wilson interval on the honest sift rate should cover the true
        # value 1/2 in at least 90 of 100 seeded replications.
        covered = 0
        for seed in range(100):
            config = SessionConfig(
                channel=ChannelConfig(eta=1.0), rounds=1000, seed=seed
            )
            tally = tally_transcript(run_session(config))
            lo, hi = wilson_interval(tally.sifted_rounds, tally.basis_rounds)
            if lo <= 0.5 <= hi:
                covered += 1
        assert covered >= 90


class TestSelfChecks:
    def test_verify_table1_passes(self):
        report = verify_table1()
        assert report.passed
        assert not report.failures
        assert len(report.cells) == 16
        assert len(report.collapse_cells) == 32
        probs = {cell.probability for cell in report.cells}
        assert all(abs(p - 0.25) < 1e-9 for p in probs)
        repaired = {c.repaired_by for c in report.cells if c.repaired_by}
        assert repaired == {"identity", "i_sigma_y"}
        bad = [c for c in report.cells if c.repaired_by is None]
        assert len(bad) == 8
        for cell in bad:
            assert cell.mean_correlated_error == pytest.approx(0.5, abs=1e-9)
        for cell in report.collapse_cells:
            assert cell.probability == pytest.approx(0.5, abs=1e-9)
            assert cell.overlap >= 1.0 - 1e-9

    def test_selftest_reports_ok(self):
        ok, lines = selftest(rounds=1500, seed=0)
        assert ok
        assert len(lines) >= 4
        assert all(line.startswith("[ok]") for line in lines)


def test_import_leaves_numpy_random_unloaded():
    # numpy.random is loaded on a session's first use, not at import, so it
    # adds nothing to a fresh interpreter's start-up.
    src = os.path.dirname(os.path.dirname(triqss.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, triqss.harness; print('numpy.random' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"
