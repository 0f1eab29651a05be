"""A sampled robustness grid: every scheme, mode, ordering and strategy at
five channel pairs, one short session each.

A cell either raises ``ConfigError`` (an active adversary against the GHZ
scheme, or a replacement channel worse than the honest one) or its session
passes every check below: the announcement order, the exporter against the
reference encoder, the tally's counting bounds and the per-record
invariants.  The pairs include a capped planned fraction (``(0.3, 0.6)``), a
lossless replacement channel with eta below eta'/2 (``(0.25, 1.0)``), a
fraction of one half, so that untouched rounds are thinned on the far leg
(``(0.45, 0.6)``), a lossless honest channel and a worse replacement channel.
"""

import pytest

from triqss.adversary import AttackKind, AttackStrategy
from triqss.channel import ChannelConfig
from triqss.conventions import Scheme
from triqss.protocol import (
    ConfigError,
    Mode,
    OrderingPolicy,
    RoundKind,
    SessionConfig,
    export_transcript_jsonl,
    run_session,
    tally_transcript,
    validate_announcement_order,
)
from triqss.qcore import BellOutcome

from helpers import reference_jsonl

GRID_ROUNDS = 150
GRID_SEED = 5
STRATEGIES = (
    None,
    AttackStrategy(AttackKind.OPAQUE_DEFERRED, cheating_enabled=True),
    AttackStrategy(AttackKind.OPAQUE_DEFERRED, cheating_enabled=False),
    AttackStrategy(AttackKind.EARLY_BELL, cheating_enabled=True),
    AttackStrategy(AttackKind.EARLY_BELL, cheating_enabled=False),
)
CHANNEL_PAIRS = ((0.3, 0.6), (0.25, 1.0), (0.45, 0.6), (1.0, 1.0), (0.6, 0.3))
WRONG_BELL_OUTCOMES = (BellOutcome.PHI_MINUS, BellOutcome.PSI_PLUS)


def _check_records(transcript, strategy) -> None:
    for rec in transcript.rounds:
        assert rec.attack_mounted == (rec.attacked and rec.delivered_bob)
        if rec.declared_bob and rec.declared_charlie:
            assert rec.bob_basis is not None and rec.charlie_basis is not None
        if rec.kind is RoundKind.TEST and rec.declared_bob:
            # Bob alone declared counts too: a declared test photon is measured.
            assert rec.bob_basis is not None and rec.bob_outcome is not None
        if rec.branch == "bad" and rec.declared_bob is False:  # a loss cheat
            assert rec.bell_outcome in WRONG_BELL_OUTCOMES
            assert (
                strategy.kind is AttackKind.EARLY_BELL or strategy.cheating_enabled
            )


def _check_tally(tally, honest: bool) -> None:
    assert tally.bob_declared <= tally.bob_obligation
    assert tally.charlie_declared <= tally.charlie_obligation
    assert tally.sifted_rounds <= tally.basis_rounds
    assert tally.attacked_mounted <= tally.attacked_rounds <= tally.rounds
    assert (
        tally.attacked_test_loss_declared + tally.attacked_test_declared
        <= tally.attacked_test_total
    )
    if honest:
        assert tally.test_errors == 0
        assert tally.bob_leg_errors == tally.charlie_leg_errors == 0


@pytest.mark.parametrize("ordering", list(OrderingPolicy), ids=lambda o: o.value)
@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_every_cell_is_rejected_or_consistent(scheme, mode, ordering, tmp_path):
    path = tmp_path / "t.jsonl"
    for strategy in STRATEGIES:
        active = strategy is not None
        for eta, eta_prime in CHANNEL_PAIRS:
            config = SessionConfig(
                channel=ChannelConfig(eta=eta, eta_prime=eta_prime),
                rounds=GRID_ROUNDS,
                ordering=ordering,
                mode=mode,
                scheme=scheme,
                seed=GRID_SEED,
            )
            if active and (scheme is Scheme.HBB or eta_prime < eta):
                with pytest.raises(ConfigError):
                    run_session(config, strategy)
                continue
            transcript = run_session(config, strategy)
            validate_announcement_order(transcript)
            export_transcript_jsonl(transcript, str(path))
            assert path.read_text(encoding="utf-8") == reference_jsonl(transcript)
            _check_tally(tally_transcript(transcript), honest=not active)
            _check_records(transcript, strategy)
            if active and (eta, eta_prime) == (0.45, 0.6):
                # Untouched rounds are thinned to eta on the far leg.
                assert any(
                    not rec.attacked and rec.delivered_bob and not rec.delivered_charlie
                    for rec in transcript.rounds
                )
