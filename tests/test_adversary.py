"""Tests for the interception attack, its loss budget, and key recovery."""

import numpy as np
import pytest

from triqss.adversary import (
    FAKE_BOB,
    ActiveAdversary,
    AttackKind,
    AttackStrategy,
    plan_attack_fraction,
)
from triqss.channel import ChannelConfig, ConfigError
from triqss.conventions import Scheme, convention_bit, correlated_bases
from triqss.harness import PRESET_NAMES, preset_experiment
from triqss.protocol import (
    Mode,
    OrderingPolicy,
    RoundKind,
    RoundRecord,
    SessionConfig,
    run_session,
    tally_transcript,
)
from triqss.preparation import PreparedState
from triqss.qcore import SIGNAL_ORDER, BellOutcome, signal_state
from triqss.registry import PhotonRegistry

from helpers import TOP_UNIFORM, FixedUniform


class TestPlannedFraction:
    @pytest.mark.parametrize(
        "eta,eta_prime,expected",
        [
            (0.25, 0.30, 1.0 / 3.0),
            (0.25, 0.40, 0.75),
            (0.25, 0.50, 1.0),
            (0.30, 0.60, 1.0),
            (0.10, 0.50, 1.0),  # formula exceeds 1 and is capped
            (0.25, 0.25, 0.0),
            (0.50, 0.40, 0.0),
        ],
    )
    def test_loss_budget_formula(self, eta, eta_prime, expected):
        got = plan_attack_fraction(ChannelConfig(eta=eta, eta_prime=eta_prime))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_blend_reproduces_honest_rate(self):
        # f*eta'/2 + (1-f)*eta' == eta whenever the formula is not capped.
        for eta, eta_prime in [(0.25, 0.3), (0.25, 0.4), (0.2, 0.35)]:
            f = plan_attack_fraction(ChannelConfig(eta=eta, eta_prime=eta_prime))
            blended = f * eta_prime / 2 + (1 - f) * eta_prime
            assert blended == pytest.approx(eta, abs=1e-12)


class TestStrategy:
    def test_fraction_validation(self):
        with pytest.raises(ValueError, match="attack_fraction"):
            AttackStrategy(attack_fraction=1.5)
        with pytest.raises(ValueError, match="attack_fraction"):
            AttackStrategy(attack_fraction=-0.1)

    @pytest.mark.parametrize("value", [True, False, "0.5"])
    def test_fraction_must_be_a_number(self, value):
        pattern = "attack_fraction: must be a number"
        with pytest.raises(ConfigError, match=pattern) as err:
            AttackStrategy(attack_fraction=value)
        assert err.value.field == "attack_fraction"

    def test_driver_rejects_worse_channel(self):
        with pytest.raises(ConfigError, match="eta_prime >= eta") as err:
            ActiveAdversary(
                AttackStrategy(), ChannelConfig(eta=0.6, eta_prime=0.3)
            )
        assert err.value.field == "channel.eta_prime"

    def test_driver_rejects_a_dead_replacement_channel(self):
        with pytest.raises(ValueError, match="eta_prime > 0"):
            ActiveAdversary(AttackStrategy(), ChannelConfig(eta=0.0, eta_prime=0.0))


def attacked_session(**overrides):
    """Full-interception session on a lossless channel."""
    strategy_fields = dict(
        kind=AttackKind.OPAQUE_DEFERRED, attack_fraction=1.0, cheating_enabled=True
    )
    strategy_fields.update(
        {k: overrides.pop(k) for k in list(overrides) if k in (
            "kind", "attack_fraction", "cheating_enabled"
        )}
    )
    params = dict(
        channel=ChannelConfig(eta=1.0, eta_prime=1.0),
        rounds=2000,
        test_fraction=0.25,
        seed=17,
    )
    params.update(overrides)
    return run_session(SessionConfig(**params), AttackStrategy(**strategy_fields))


PAULI_OF_BELL = {
    BellOutcome.PSI_PLUS: np.array([[0, 1], [1, 0]], complex),
    BellOutcome.PHI_MINUS: np.array([[1, 0], [0, -1]], complex),
}


def bad_branch_error_probability(rec):
    """Exact error probability of one uncorrected swapped round.

    Builds the post-swap pair (signal twisted by the Bell-outcome Pauli on
    the forwarded photon) from raw matrices and applies the Born rule with
    the published bit conventions.
    """
    prep = rec.preparation
    twist = np.kron(np.eye(2), PAULI_OF_BELL[rec.bell_outcome])
    state = twist @ signal_state(prep.tag).amplitudes
    p_err = 0.0
    for ob, ket_b in zip((+1, -1), rec.bob_basis.eigenvectors):
        for oc, ket_c in zip((+1, -1), rec.charlie_basis.eigenvectors):
            p = abs(np.vdot(np.kron(ket_b, ket_c), state)) ** 2
            if p < 1e-12:
                continue
            k_b = convention_bit(
                Scheme.KKI, prep.basis_class, rec.bob_basis, rec.charlie_basis, "bob", ob
            )
            k_c = convention_bit(
                Scheme.KKI, prep.basis_class, rec.bob_basis, rec.charlie_basis,
                "charlie", oc,
            )
            if k_b ^ k_c != prep.bit:
                p_err += p
    return p_err


class TestNoCheatBranches:
    def test_uncorrected_rounds_match_brute_force_oracle(self):
        transcript = attacked_session(cheating_enabled=False, rounds=3000)
        oracle_values = []
        for rec in transcript.rounds:
            if rec.kind is not RoundKind.TEST or not rec.attack_mounted:
                continue
            if rec.branch != "bad":
                continue
            prep = rec.preparation
            if not correlated_bases(
                prep.basis_class, rec.bob_basis, rec.charlie_basis
            ):
                continue
            k_b, k_c = (
                convention_bit(
                    Scheme.KKI, prep.basis_class, rec.bob_basis, rec.charlie_basis,
                    "bob", rec.bob_outcome,
                ),
                convention_bit(
                    Scheme.KKI, prep.basis_class, rec.bob_basis, rec.charlie_basis,
                    "charlie", rec.charlie_outcome,
                ),
            )
            observed_error = (k_b ^ k_c) != prep.bit
            p_err = bad_branch_error_probability(rec)
            # Every bad cell is deterministic: the twisted state stays
            # perfectly (anti)correlated, only the decoding flips.
            assert min(abs(p_err - 0.0), abs(p_err - 1.0)) < 1e-9
            assert observed_error == (p_err > 0.5)
            oracle_values.append(p_err)
        assert len(oracle_values) > 150
        assert np.mean(oracle_values) == pytest.approx(0.5, abs=0.1)

    def test_good_branches_never_err(self):
        transcript = attacked_session(cheating_enabled=False, rounds=2000)
        checked = 0
        for rec in transcript.rounds:
            if rec.kind is not RoundKind.TEST or rec.branch != "good":
                continue
            prep = rec.preparation
            if not correlated_bases(
                prep.basis_class, rec.bob_basis, rec.charlie_basis
            ):
                continue
            k_b, k_c = (
                convention_bit(
                    Scheme.KKI, prep.basis_class, rec.bob_basis, rec.charlie_basis,
                    "bob", rec.bob_outcome,
                ),
                convention_bit(
                    Scheme.KKI, prep.basis_class, rec.bob_basis, rec.charlie_basis,
                    "charlie", rec.charlie_outcome,
                ),
            )
            assert (k_b ^ k_c) == prep.bit
            checked += 1
        assert checked > 100

    def test_branch_split_is_even(self):
        transcript = attacked_session(cheating_enabled=False, rounds=4000)
        branches = [
            rec.branch
            for rec in transcript.rounds
            if rec.kind is RoundKind.TEST and rec.attack_mounted
        ]
        assert set(branches) <= {"good", "bad"}
        good = branches.count("good")
        assert good / len(branches) == pytest.approx(0.5, abs=0.04)


class TestLossCheating:
    def test_bad_branches_become_declared_losses(self):
        # A loss cheat is a "bad" branch declared undetected; the tally counts
        # exactly those rounds.
        transcript = attacked_session(rounds=3000)
        mounted = declared_lost = 0
        for rec in transcript.rounds:
            if rec.kind is not RoundKind.TEST or not rec.attack_mounted:
                continue
            mounted += 1
            if rec.branch == "bad":
                declared_lost += 1
                assert rec.declared_bob is False
        assert mounted > 400
        assert declared_lost / mounted == pytest.approx(0.5, abs=0.04)
        tally = tally_transcript(transcript)
        assert tally.attacked_test_mounted == mounted
        assert tally.attacked_test_loss_declared == declared_lost

    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    @pytest.mark.parametrize("ordering", list(OrderingPolicy), ids=lambda o: o.value)
    def test_early_bell_ignores_the_cheating_flag(self, ordering, mode):
        # The early swap leaves a wrong outcome nothing to announce, so it is
        # always declared lost: the flag changes no counter.  Under
        # sifting-classical those rounds were never declared, so none is a
        # test round.
        config = SessionConfig(
            channel=ChannelConfig(eta=0.3, eta_prime=0.6),
            rounds=3000,
            ordering=ordering,
            mode=mode,
            seed=3,
        )
        on, off = (
            tally_transcript(
                run_session(
                    config,
                    AttackStrategy(AttackKind.EARLY_BELL, cheating_enabled=flag),
                )
            )
            for flag in (True, False)
        )
        assert on == off
        if ordering is OrderingPolicy.SIFTING_FIRST and mode is Mode.CLASSICAL_KEY:
            assert on.attacked_test_loss_declared == 0
        else:
            assert on.attacked_test_loss_declared > 200

    def test_surviving_test_rounds_are_error_free(self):
        transcript = attacked_session(rounds=3000)
        checked = 0
        for rec in transcript.rounds:
            if rec.kind is not RoundKind.TEST or not rec.attack_mounted:
                continue
            if not (rec.declared_bob and rec.declared_charlie):
                continue
            prep = rec.preparation
            if not correlated_bases(
                prep.basis_class, rec.bob_basis, rec.charlie_basis
            ):
                continue
            k_b, k_c = (
                convention_bit(
                    Scheme.KKI, prep.basis_class, rec.bob_basis, rec.charlie_basis,
                    "bob", rec.bob_outcome,
                ),
                convention_bit(
                    Scheme.KKI, prep.basis_class, rec.bob_basis, rec.charlie_basis,
                    "charlie", rec.charlie_outcome,
                ),
            )
            assert (k_b ^ k_c) == prep.bit
            checked += 1
        assert checked > 100


class TestKeyRecovery:
    def test_recovers_dealer_bit_and_charlie_outcome_exactly(self):
        transcript = attacked_session(rounds=2000)
        recovered = 0
        for rec in transcript.rounds:
            if rec.kind is not RoundKind.KEY or not rec.attack_mounted:
                continue
            if not (rec.declared_bob and rec.declared_charlie):
                continue
            assert rec.recovered_dealer_bit == rec.preparation.bit
            assert rec.recovered_charlie_outcome == rec.charlie_outcome
            recovered += 1
        assert recovered > 500

    def test_top_uniform_still_recovers_every_dealer_bit(self):
        # Each parked pair's running sums end a few ulps short of 1.0, so
        # the largest uniform lands past the total.
        adversary = ActiveAdversary(
            AttackStrategy(), ChannelConfig(eta=1.0, eta_prime=1.0)
        )
        for tag in SIGNAL_ORDER:
            prep = PreparedState.from_tag(tag)
            rec = RoundRecord(
                round_id=0, kind=RoundKind.KEY, preparation=prep,
                registry=PhotonRegistry(),
            )
            rec.registry.add(signal_state(tag, ("B", "C")))
            bit = adversary.recover_dealer_bit(
                rec, prep.basis_class, FixedUniform(TOP_UNIFORM)
            )
            assert bit == prep.bit

    def test_recovery_without_its_photon_raises(self):
        # After the session's own recovery the parked pair and the kept fake
        # half are measured and gone; the registry lookup names the photon.
        transcript = attacked_session(rounds=200)
        adversary = ActiveAdversary(
            AttackStrategy(), ChannelConfig(eta=1.0, eta_prime=1.0)
        )
        rec = next(
            r for r in transcript.rounds
            if r.recovered_dealer_bit is not None
            and r.recovered_charlie_outcome is not None
        )
        rng = FixedUniform(0.5)
        with pytest.raises(KeyError) as exc:
            adversary.recover_dealer_bit(rec, rec.preparation.basis_class, rng)
        assert exc.value.args[0] == "no photon labeled 'B'"
        with pytest.raises(KeyError) as exc:
            adversary.recover_charlie_outcome(rec, rec.charlie_basis, rng)
        assert exc.value.args[0] == f"no photon labeled {FAKE_BOB!r}"

    def test_early_bell_recovers_nothing(self):
        transcript = attacked_session(kind=AttackKind.EARLY_BELL, rounds=1000)
        for rec in transcript.rounds:
            assert rec.recovered_dealer_bit is None
            assert rec.recovered_charlie_outcome is None

    def test_partial_fraction_limits_attacked_rounds(self):
        transcript = attacked_session(attack_fraction=0.3, rounds=4000)
        attacked = sum(r.attacked for r in transcript.rounds)
        assert attacked / 4000 == pytest.approx(0.3, abs=0.03)
        assert transcript.attack_fraction == 0.3


class TestLostPhotons:
    # Every decision the adversary makes about Bob's photon; key_declaration
    # is its own class attribute, so it is wrapped on its own.
    DECISIONS = (
        "bob_measures_immediately",
        "sifting_declaration",
        "key_declaration",
        "untouched_test_declaration",
        "respond_test",
    )

    def test_no_decision_is_asked_about_a_lost_photon(self, monkeypatch):
        # The round engine declares a lost photon lost on its own.  Every
        # attack preset runs under every ordering and mode, at the preset
        # channel (all rounds attacked) and at (0.45, 0.6), where half are not.
        calls = dict.fromkeys(self.DECISIONS, 0)
        for name in self.DECISIONS:
            method = getattr(ActiveAdversary, name)

            def spy(adversary, rec, *args, _name=name, _method=method, **kwargs):
                assert rec.delivered_bob, _name
                calls[_name] += 1
                return _method(adversary, rec, *args, **kwargs)

            monkeypatch.setattr(ActiveAdversary, name, spy)
        for preset in PRESET_NAMES:
            for eta in (0.3, 0.45):
                for ordering in OrderingPolicy:
                    for mode in Mode:
                        config = preset_experiment(
                            preset, eta=eta, eta_prime=0.6, rounds=300, seed=23,
                            ordering=ordering, mode=mode,
                        )
                        if config.strategy is not None:
                            run_session(config.session, config.strategy)
        assert all(calls.values()), calls
