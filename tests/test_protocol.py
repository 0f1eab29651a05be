"""Integration tests for session execution, announcements, and transcripts."""

import copy
import dataclasses
import hashlib
import json

import numpy as np
import pytest

import triqss.protocol as protocol
from triqss.channel import ChannelConfig
from triqss.protocol import (
    AnnouncementOrderError,
    ConfigError,
    Mode,
    OrderingPolicy,
    RoundKind,
    Scheme,
    SessionConfig,
    _RoundStream,
    _uniform_table,
    distill_keys,
    export_transcript_jsonl,
    extract_bits,
    run_session,
    validate_announcement_order,
    validate_session,
)
from triqss.adversary import AttackKind, AttackStrategy
from triqss.conventions import correlated_bases
from triqss.harness import (
    PRESET_NAMES,
    ExperimentConfig,
    preset_experiment,
    run_experiment,
)
from triqss.qcore import ATOL, Basis, overlap
from triqss.registry import PhotonRegistry
from test_golden import GOLDEN_DIGESTS, GOLDEN_ROUNDS, GOLDEN_SEED, GRID_PRESETS

from helpers import TOP_UNIFORM, FixedUniform, factor_of


def honest_config(**overrides):
    params = dict(
        channel=ChannelConfig(eta=1.0),
        rounds=400,
        test_fraction=0.25,
        seed=7,
    )
    params.update(overrides)
    return SessionConfig(**params)


class TestConfigValidation:
    def test_rejects_bad_rounds(self):
        with pytest.raises(ConfigError, match="rounds") as err:
            honest_config(rounds=0)
        assert err.value.field == "rounds"
        with pytest.raises(ConfigError, match="rounds") as err:
            honest_config(rounds=True)
        assert err.value.field == "rounds"

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.5])
    def test_rejects_bad_test_fraction(self, fraction):
        with pytest.raises(ConfigError, match="test_fraction"):
            honest_config(test_fraction=fraction)

    def test_rejects_bad_seed_and_channel(self):
        with pytest.raises(ConfigError, match="seed"):
            honest_config(seed=-1)
        with pytest.raises(ConfigError, match="seed") as err:
            honest_config(seed=False)
        assert err.value.field == "seed"
        with pytest.raises(ConfigError, match="channel"):
            SessionConfig(channel="not a channel")

    @pytest.mark.parametrize(
        "field,value",
        [
            ("ordering", "sifting"),
            ("mode", "state-sharing"),
            ("scheme", "kki"),
            ("ordering", ""),
            ("mode", 0),
        ],
    )
    def test_rejects_values_that_are_not_members(self, field, value):
        with pytest.raises(ConfigError, match=field) as err:
            honest_config(**{field: value})
        assert err.value.field == field
        if field != "scheme":
            with pytest.raises(ConfigError, match=field):
                preset_experiment("opaque-vulnerable", **{field: value})

    def test_active_adversary_needs_zx_scheme(self):
        config = honest_config(scheme=Scheme.HBB)
        strategy = AttackStrategy(kind=AttackKind.OPAQUE_DEFERRED)
        with pytest.raises(ConfigError, match="strategy"):
            validate_session(config, strategy)

    def test_honest_session_is_fine_for_every_scheme(self):
        validate_session(honest_config(scheme=Scheme.HBB), None)

    def test_active_adversary_needs_better_channel(self):
        config = honest_config(channel=ChannelConfig(eta=0.5, eta_prime=0.4))
        strategy = AttackStrategy(kind=AttackKind.OPAQUE_DEFERRED)
        with pytest.raises(ConfigError, match="eta_prime") as err:
            run_session(config, strategy)
        assert err.value.field == "channel.eta_prime"


# Each maker, and the values it must refuse with a ConfigError naming the
# field.  A row names its maker when that is not the field's own.
MAKERS = {
    "kind": lambda value: AttackStrategy(kind=value),
    "cheating_enabled": lambda value: AttackStrategy(cheating_enabled=value),
    "attack_fraction": lambda value: AttackStrategy(attack_fraction=value),
    "eta": lambda value: ChannelConfig(eta=value),
    "strategy": lambda value: run_session(honest_config(), value),
    "channel.eta_prime": lambda pair: run_session(
        honest_config(channel=ChannelConfig(*pair)), AttackStrategy()
    ),
    "repetitions": lambda value: preset_experiment("honest", repetitions=value),
    "preset": preset_experiment,
    "scenario": lambda value: ExperimentConfig(value, honest_config()),
    "session": lambda value: ExperimentConfig("x", value),
    "experiment": lambda value: ExperimentConfig("x", honest_config(), value),
    "hbb experiment": lambda value: ExperimentConfig(
        "x", honest_config(scheme=Scheme.HBB), value
    ),
}
BAD_INPUTS = [
    ("kind", "early-bell"),
    ("cheating_enabled", "no"),
    ("cheating_enabled", 0),
    ("cheating_enabled", None),
    ("attack_fraction", True),
    ("attack_fraction", "0.5"),
    ("attack_fraction", 1.5),
    ("attack_fraction", float("nan")),
    ("eta", True),
    ("eta", "0.3"),
    ("eta", float("nan")),
    ("eta", 1.1),
    ("eta", np.float32(0.3)),  # a number, but not one JSON can encode
    ("strategy", "opaque-deferred"),
    ("channel.eta_prime", (0.0, 0.0)),  # a dead replacement channel
    ("channel.eta_prime", (0.5, 0.4)),  # a replacement channel worse than eta
    ("repetitions", 0),
    ("repetitions", True),
    ("preset", "nope"),
    ("preset", ["x"]),  # unhashable
    ("scenario", 5),
    ("scenario", None),
    ("session", "not a session"),
    ("strategy", "opaque", "experiment"),
    ("strategy", AttackStrategy(), "hbb experiment"),
]


def _bad_input_id(row) -> str:
    field, value, *maker = row
    return ":".join([*maker, f"{field}={value!r}"])


@pytest.mark.parametrize(
    "field,value,maker",
    [(row + row[:1])[:3] for row in BAD_INPUTS],  # the field's own maker by default
    ids=[_bad_input_id(row) for row in BAD_INPUTS],
)
def test_bad_input_is_a_config_error_naming_its_field(field, value, maker):
    with pytest.raises(ConfigError) as err:
        MAKERS[maker](value)
    assert err.value.field == field


class TestHonestSession:
    def test_perfect_channel_delivers_and_declares_everything(self):
        transcript = run_session(honest_config())
        for rec in transcript.rounds:
            assert rec.delivered_bob and rec.delivered_charlie
            assert rec.declared_bob and rec.declared_charlie
            assert not rec.attacked
            assert rec.bob_outcome in (+1, -1)
            assert rec.charlie_outcome in (+1, -1)

    def test_test_fraction_drives_round_kinds(self):
        transcript = run_session(honest_config(rounds=4000, test_fraction=0.25))
        tests = sum(r.kind is RoundKind.TEST for r in transcript.rounds)
        assert tests / 4000 == pytest.approx(0.25, abs=0.03)
        assert all(
            r.kind in (RoundKind.TEST, RoundKind.KEY) for r in transcript.rounds
        )

    def test_correlated_test_rounds_never_disagree(self):
        transcript = run_session(honest_config(rounds=2000))
        checked = 0
        for rec in transcript.rounds:
            if rec.kind is not RoundKind.TEST:
                continue
            prep = rec.preparation
            if not correlated_bases(prep.basis_class, rec.bob_basis, rec.charlie_basis):
                continue
            k_b, k_c = extract_bits(rec, prep.basis_class)
            assert k_b ^ k_c == prep.bit
            checked += 1
        assert checked > 150

    def test_lossy_channel_discards_undelivered_photons(self):
        transcript = run_session(
            honest_config(channel=ChannelConfig(eta=0.3), rounds=3000, seed=11)
        )
        delivered_b = sum(r.delivered_bob for r in transcript.rounds)
        assert delivered_b / 3000 == pytest.approx(0.3, abs=0.03)
        for rec in transcript.rounds:
            assert rec.declared_bob == rec.delivered_bob
            assert rec.declared_charlie == rec.delivered_charlie
            if not rec.delivered_bob:
                assert rec.bob_outcome is None

    def test_determinism_yields_identical_transcripts(self, tmp_path):
        config = honest_config(channel=ChannelConfig(eta=0.6), rounds=300, seed=3)
        paths = []
        for name in ("one.jsonl", "two.jsonl"):
            transcript = run_session(config)
            path = tmp_path / name
            export_transcript_jsonl(transcript, str(path))
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        t1 = run_session(honest_config(seed=1))
        t2 = run_session(honest_config(seed=2))
        outcomes1 = [r.bob_outcome for r in t1.rounds]
        outcomes2 = [r.bob_outcome for r in t2.rounds]
        assert outcomes1 != outcomes2


class TestAnnouncementOrdering:
    @pytest.mark.parametrize("ordering", list(OrderingPolicy))
    @pytest.mark.parametrize("mode", list(Mode))
    def test_every_schedule_validates(self, ordering, mode):
        config = honest_config(ordering=ordering, mode=mode, rounds=200)
        transcript = run_session(config)
        validate_announcement_order(transcript)

    def test_scrambled_log_is_rejected(self):
        transcript = run_session(honest_config(rounds=200))
        corrupted = copy.copy(transcript)
        corrupted.announcements = list(reversed(transcript.announcements))
        with pytest.raises(AnnouncementOrderError):
            validate_announcement_order(corrupted)

    def test_outcome_without_detection_is_rejected(self):
        transcript = run_session(honest_config(rounds=200))
        corrupted = copy.copy(transcript)
        corrupted.announcements = [
            a for a in transcript.announcements
            if not (a.kind == "detection" and a.party == "bob")
        ]
        with pytest.raises(AnnouncementOrderError, match="without a declared"):
            validate_announcement_order(corrupted)

    def test_log_is_built_at_first_read_only(self):
        transcript = run_session(honest_config(rounds=200))
        assert "announcements" not in vars(transcript)
        log = transcript.announcements
        assert log == protocol._public_log(transcript.config, transcript.rounds)
        assert transcript.announcements is log

    def test_experiment_without_transcripts_never_builds_the_log(self, monkeypatch):
        experiment = preset_experiment(
            "opaque-vulnerable", rounds=GOLDEN_ROUNDS, seed=GOLDEN_SEED
        )
        before = run_experiment(experiment)

        def unread(config, rounds):
            raise AssertionError("the public log was built")

        monkeypatch.setattr(protocol, "_public_log", unread)
        after = run_experiment(experiment, keep_transcripts=False)
        assert after.tally == before.tally
        tally_json = json.dumps(dataclasses.asdict(after.tally), sort_keys=True)
        assert hashlib.sha256(tally_json.encode("utf-8")).hexdigest() == (
            GOLDEN_DIGESTS["opaque-vulnerable"][1]
        )
        assert (after.key_bits, after.key_mismatches) == (
            before.key_bits, before.key_mismatches
        )

    def test_sifting_first_puts_detections_before_designation(self):
        transcript = run_session(
            honest_config(ordering=OrderingPolicy.SIFTING_FIRST, rounds=200)
        )
        kinds = [a.kind for a in transcript.announcements]
        assert kinds.index("detection") < kinds.index("designation")

    def test_designation_first_leads_with_designation(self):
        transcript = run_session(honest_config(rounds=200))
        assert transcript.announcements[0].kind == "designation"

    def test_refined_interleave_order_within_test_rounds(self):
        transcript = run_session(
            honest_config(ordering=OrderingPolicy.REFINED, rounds=300)
        )
        validate_announcement_order(transcript)
        test_ids = set(transcript.announcements[0].payload)
        by_round = {}
        for a in transcript.announcements:
            if a.round_id in test_ids and a.kind in ("outcome", "basis"):
                by_round.setdefault(a.round_id, []).append((a.party, a.kind))
        full_blocks = [e for e in by_round.values() if len(e) == 4]
        assert full_blocks
        for events in full_blocks:
            # First declarer of an outcome announces their basis last.
            assert events[0][1] == "outcome" and events[3][1] == "basis"
            assert events[0][0] == events[3][0]

    @pytest.mark.parametrize("mode", [m.value for m in Mode])
    @pytest.mark.parametrize("ordering", [o.value for o in OrderingPolicy])
    @pytest.mark.parametrize("preset", GRID_PRESETS)
    def test_public_log_agrees_with_the_records(self, preset, ordering, mode):
        # What was announced is what the tally counts: no record changes
        # after its announcement has been made.
        experiment = preset_experiment(
            preset, rounds=500, seed=GOLDEN_SEED,
            ordering=OrderingPolicy(ordering), mode=Mode(mode),
        )
        transcript = run_experiment(experiment, keep_transcripts=True).transcripts[0]
        mismatches = []
        for a in transcript.announcements:
            if a.kind not in ("detection", "outcome", "basis"):
                continue
            rec = transcript.rounds[a.round_id]
            if a.kind == "detection":
                said = getattr(rec, f"declared_{a.party}")
            elif a.kind == "outcome":
                said = getattr(rec, f"{a.party}_outcome")
            else:
                said = getattr(rec, f"{a.party}_basis").value
            if a.payload != said:
                mismatches.append((a.round_id, a.party, a.kind, a.payload, said))
        assert mismatches == []


class TestKeyDistillation:
    def test_key_xor_property_and_length(self):
        config = honest_config(rounds=4000, test_fraction=0.1, seed=5)
        transcript = run_session(config)
        k_a, k_b, k_c = distill_keys(transcript)
        assert len(k_a) == len(k_b) == len(k_c)
        # 90% key rounds, half surviving the basis sift.
        assert len(k_a) / 4000 == pytest.approx(0.45, abs=0.02)
        np.testing.assert_array_equal(k_a, k_b ^ k_c)

    def test_state_sharing_distills_no_key(self):
        config = honest_config(mode=Mode.STATE_SHARING, rounds=100)
        transcript = run_session(config)
        with pytest.raises(ValueError, match="state-sharing"):
            distill_keys(transcript)

    def test_extract_bits_requires_outcomes(self):
        transcript = run_session(
            honest_config(channel=ChannelConfig(eta=0.2), rounds=200, seed=9)
        )
        missing = next(r for r in transcript.rounds if r.bob_outcome is None)
        with pytest.raises(ValueError, match="incomplete"):
            extract_bits(missing, 1)


class TestStateSharingMode:
    def test_message_photons_stay_unmeasured(self):
        config = honest_config(mode=Mode.STATE_SHARING, rounds=300)
        transcript = run_session(config)
        messages = [r for r in transcript.rounds if r.kind is RoundKind.MESSAGE]
        assert messages
        for rec in messages:
            assert rec.bob_outcome is None
            assert rec.charlie_outcome is None
            assert rec.declared_bob is None
            held = rec.registry.joint_state(("B", "C"))
            assert held is not None
            expected = rec.preparation.state
            assert overlap(held, expected) == pytest.approx(1.0, abs=ATOL)

    def test_test_rounds_still_measured_and_announced(self):
        config = honest_config(mode=Mode.STATE_SHARING, rounds=300)
        transcript = run_session(config)
        tests = [r for r in transcript.rounds if r.kind is RoundKind.TEST]
        assert tests
        for rec in tests:
            assert rec.bob_outcome in (+1, -1)
            assert rec.charlie_outcome in (+1, -1)


class TestHbbScheme:
    def test_session_runs_and_checks_clean(self):
        config = honest_config(scheme=Scheme.HBB, rounds=2000, seed=13)
        transcript = run_session(config)
        for rec in transcript.rounds:
            assert rec.preparation.dealer_basis.value in ("X", "Y")
        k_a, k_b, k_c = distill_keys(transcript)
        assert len(k_a) > 500
        np.testing.assert_array_equal(k_a, k_b ^ k_c)

    @pytest.mark.parametrize("u", [0.25, 0.75])  # X then +1; Y then -1
    def test_a_round_registers_its_preparation_state(self, u):
        registry = PhotonRegistry()
        prep = protocol._prepare_round(
            honest_config(scheme=Scheme.HBB), False, registry, FixedUniform(u)
        )
        assert (prep.dealer_basis, prep.dealer_outcome) == (
            (Basis.X, +1) if u < 0.5 else (Basis.Y, -1)
        )
        assert factor_of(registry, "B") is prep.state


class TestTranscriptExport:
    def test_jsonl_schema(self, tmp_path):
        config = honest_config(rounds=50)
        transcript = run_session(config)
        path = tmp_path / "session.jsonl"
        export_transcript_jsonl(transcript, str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 51
        header = json.loads(lines[0])
        assert header["record"] == "session"
        assert header["schema"] == 1
        assert header["config"]["rounds"] == 50
        assert header["config"]["eta"] == 1.0
        assert header["strategy"] is None
        assert any(a["kind"] == "designation" for a in header["announcements"])
        seen_ids = []
        for line in lines[1:]:
            row = json.loads(line)
            assert row["record"] == "round"
            assert row["kind"] in ("test", "key")
            assert set(row["delivered"]) == {"bob", "charlie"}
            seen_ids.append(row["round_id"])
        assert seen_ids == list(range(50))

    @pytest.mark.parametrize("attacked", [False, True], ids=["honest", "attacked"])
    def test_numpy_channel_values_export(self, tmp_path, attacked):
        channel = ChannelConfig(eta=np.float64(0.9), eta_prime=np.float64(1.0))
        strategy = AttackStrategy() if attacked else None
        transcript = run_session(honest_config(channel=channel, rounds=200), strategy)
        for rec in transcript.rounds:
            flags = (rec.delivered_bob, rec.delivered_charlie, rec.attacked)
            assert all(type(flag) is bool for flag in flags)
        path = tmp_path / "session.jsonl"
        export_transcript_jsonl(transcript, str(path))
        assert len(path.read_text().splitlines()) == 201

    def test_round_announcements_are_sequence_ordered(self, tmp_path):
        transcript = run_session(honest_config(rounds=80))
        path = tmp_path / "session.jsonl"
        export_transcript_jsonl(transcript, str(path))
        for line in path.read_text().splitlines()[1:]:
            row = json.loads(line)
            seqs = [a["seq"] for a in row["announcements"]]
            assert seqs == sorted(seqs)


class TestRoundStreams:
    """Round i reads row i of one Philox table, whatever the session length."""

    @pytest.mark.parametrize("n", [10, 1000])
    def test_rows_are_philox_uniforms(self, n):
        seed, width = 11, protocol._TABLE_WIDTH
        raw = np.random.Philox(seed).random_raw((10, width))
        table = _uniform_table(seed, n)
        for i in range(10):
            expected = ((raw[i] >> 11) * 2.0**-53).tolist()
            stream = _RoundStream(table, i, width)
            assert [stream.random() for _ in range(width)] == expected, i

    def test_coin_pick_and_born_read_the_next_uniform(self):
        table = _uniform_table(3, 1)
        reference = _RoundStream(table, 0, protocol._TABLE_WIDTH)
        u = [reference.random() for _ in range(5)]
        rng = _RoundStream(table, 0, protocol._TABLE_WIDTH)
        assert rng.pick(4) == int(u[0] * 4)
        assert rng.coin(u[1]) is False
        assert rng.coin(np.nextafter(u[2], 1.0)) is True
        assert rng.born((u[3], 1.0)) == 1
        assert rng.random() == u[4]

    @pytest.mark.parametrize("ordering", ["refined", "sifting"])
    def test_hardened_rounds_read_at_most_14_uniforms(self, monkeypatch, ordering):
        # Sifting answers its already-declared photon with no second
        # thinning, so its widest round reads one uniform less.
        widest = {"refined": 14, "sifting": 13}[ordering]
        experiment = preset_experiment(
            "hardened", rounds=2000, seed=GOLDEN_SEED,
            ordering=OrderingPolicy(ordering),
        )
        monkeypatch.setattr(protocol, "_TABLE_WIDTH", widest)
        run_experiment(experiment)
        monkeypatch.setattr(protocol, "_TABLE_WIDTH", widest - 1)
        with pytest.raises(RuntimeError, match=r"round \d+ read past its table row"):
            run_experiment(experiment)


def test_top_uniform_at_every_born_draw_picks_a_possible_branch(monkeypatch):
    widths = []

    def born_at_top(self, cumulative):
        self.random()  # the round's cursor still advances
        k = FixedUniform(TOP_UNIFORM).born(cumulative)
        widths.append(cumulative[k] - (cumulative[k - 1] if k else 0.0))
        return k

    monkeypatch.setattr(protocol._RoundStream, "born", born_at_top)
    for preset in PRESET_NAMES:
        run_experiment(preset_experiment(preset, rounds=2000, seed=GOLDEN_SEED))
    assert widths and min(widths) > 0.0


def test_round_records_and_announcements_are_slotted():
    transcript = run_session(honest_config(rounds=20))
    assert transcript.announcements
    for item in [*transcript.rounds, *transcript.announcements]:
        assert not hasattr(item, "__dict__"), type(item).__name__
