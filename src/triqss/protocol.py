"""Three-party secret-sharing sessions over lossy channels.

One session runs a dealer (Alice) and two agents (Bob, then Charlie) through
``rounds`` rounds: preparation, transmission, designation of a test subset,
public announcements in a configurable order, error/efficiency checking, and
key distillation.  An optional adversary (a dishonest Bob) can intercept
rounds through a better replacement channel; see :mod:`triqss.adversary`.

Modes
-----
* ``CLASSICAL_KEY``: every delivered photon is measured on arrival and the
  surviving correlated key rounds are distilled into a shared classical key.
* ``STATE_SHARING``: non-test rounds stay unmeasured as stored qubits
  (message rounds); only designated test rounds are ever announced, so no
  detection record exists before designation.

Announcement orderings
----------------------
* ``VULNERABLE``: designation, detections, test outcomes, bases, dealer
  reveals.  Detections follow designation, which is what the loss-cheating
  attack exploits.
* ``REFINED``: like ``VULNERABLE`` but each test round interleaves outcome
  and basis declarations so that whoever spoke first declares their basis
  last.  This shuffles bases, not detections, so loss cheating survives it.
* ``SIFTING_FIRST``: all detections are declared before any designation.
  In classical mode this removes the loss-declaration branch on test rounds.

In state-sharing mode every ordering, ``REFINED`` included, runs the plain
designation-first schedule: there is nothing to declare before designation
(message photons are unmeasured) and no interleave on test rounds.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass, field
from enum import Enum
from typing import Union

import numpy as np

from .adversary import FAKE_BOB, ActiveAdversary, AttackKind, AttackStrategy
from .channel import ChannelConfig, transmit
from .conventions import Scheme, convention_bit, correlated_bases, hbb_reduced_state
from .preparation import (
    HardenedPrep,
    HbbPrep,
    PreparedState,
    hbb_reduce,
    prepare_hardened_test_round,
)
from .qcore import (
    ATOL,
    Basis,
    BellOutcome,
    RandomSource,
    SIGNAL_ORDER,
    StateVector,
    ghz_state,
    overlap,
    signal_state,
)
from .registry import PhotonRegistry
from .stats import ratio, wilson_interval

__all__ = [
    "Mode",
    "Scheme",
    "OrderingPolicy",
    "RoundKind",
    "ConfigError",
    "NoTestDataError",
    "SessionConfig",
    "Announcement",
    "RoundRecord",
    "SessionTranscript",
    "CheckReport",
    "run_session",
    "check_eavesdropping",
    "distill_keys",
    "extract_bits",
    "validate_announcement_order",
    "export_transcript_jsonl",
]


class Mode(Enum):
    CLASSICAL_KEY = "classical"
    STATE_SHARING = "state-sharing"


class OrderingPolicy(Enum):
    VULNERABLE = "vulnerable"
    REFINED = "refined"
    SIFTING_FIRST = "sifting"


class RoundKind(Enum):
    TEST = "test"
    KEY = "key"
    MESSAGE = "message"


class ConfigError(ValueError):
    """Invalid configuration, carrying the offending field name."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field = field_name
        self.message = message


class NoTestDataError(ValueError):
    """A finished session left no usable test data to run the check on."""


def _is_int(value) -> bool:
    """An int that is not a bool (``True`` would otherwise pass as 1)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """An int or float that is not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class SessionConfig:
    """Everything a session needs apart from the adversary's strategy."""

    channel: ChannelConfig
    rounds: int = 10_000
    test_fraction: float = 0.25
    ordering: OrderingPolicy = OrderingPolicy.VULNERABLE
    mode: Mode = Mode.CLASSICAL_KEY
    scheme: Scheme = Scheme.KKI
    error_threshold: float = 0.02
    efficiency_tolerance: float = 0.03
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.channel, ChannelConfig):
            raise ConfigError("channel", "expected a ChannelConfig")
        for name, kind in (
            ("ordering", OrderingPolicy), ("mode", Mode), ("scheme", Scheme)
        ):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise ConfigError(
                    name, f"expected a member of {kind.__name__}, got {value!r}"
                )
        if not _is_int(self.rounds) or self.rounds < 1:
            raise ConfigError("rounds", f"need a positive integer, got {self.rounds!r}")
        for name in ("test_fraction", "error_threshold", "efficiency_tolerance"):
            value = getattr(self, name)
            if not (_is_real(value) and 0.0 < value < 1.0):
                raise ConfigError(
                    name, f"must be a number strictly in (0, 1), got {value!r}"
                )
        if not _is_int(self.seed) or self.seed < 0:
            raise ConfigError("seed", f"need a non-negative integer, got {self.seed!r}")


Preparation = Union[PreparedState, HbbPrep, HardenedPrep]


@dataclass(frozen=True, slots=True)
class Announcement:
    """One classical broadcast, in global sequence order."""

    seq: int
    party: str
    kind: str  # designation | detection | outcome | basis | class | state | prep
    round_id: int | None
    payload: object


@dataclass(slots=True)
class RoundRecord:
    """Everything one round produced, classical and quantum.

    ``delivered_*`` is physical arrival; ``declared_*`` is what the party
    announced (``None`` when the round carries no declaration obligation,
    e.g. message rounds).  Announced outcomes exist only for rounds whose
    photon was delivered, declared, and measured.
    """

    round_id: int
    kind: RoundKind
    test_coin: bool
    preparation: Preparation
    registry: PhotonRegistry
    delivered_bob: bool = False
    delivered_charlie: bool = False
    charlie_label: str = "C"
    declared_bob: bool | None = None
    declared_charlie: bool | None = None
    bob_basis: Basis | None = None
    charlie_basis: Basis | None = None
    bob_outcome: int | None = None
    charlie_outcome: int | None = None
    attacked: bool = False
    attack_mounted: bool = False
    bell_outcome: BellOutcome | None = None
    branch: str | None = None
    declared_loss_cheat: bool = False
    recovered_dealer_bit: int | None = None
    recovered_charlie_outcome: int | None = None
    _rng: _RoundStream | None = field(default=None, repr=False, compare=False)


@dataclass
class SessionTranscript:
    """A finished session: configuration, per-round records, announcements."""

    config: SessionConfig
    strategy: AttackStrategy | None
    rounds: list[RoundRecord]
    announcements: list[Announcement]
    attack_fraction: float | None  # resolved fraction the adversary used


@dataclass(frozen=True)
class CheckReport:
    """Outcome of the public eavesdropping check."""

    rounds: int
    test_rounds_checked: int
    test_errors: int
    test_error_rate: float
    error_ci: tuple[float, float]
    observed_efficiency_bob: float
    observed_efficiency_charlie: float
    expected_efficiency: float
    sift_rate: float
    bob_leg_error_rate: float | None
    charlie_leg_error_rate: float | None
    efficiency_ok: bool
    errors_ok: bool
    verdict: str  # "secure" | "compromised"


def _entangled(prep: Preparation) -> bool:
    return not isinstance(prep, HardenedPrep)


def _prep_state(prep: Preparation, labels: tuple[str, str] = ("B", "C")) -> StateVector:
    if isinstance(prep, PreparedState):
        return prep.state(labels)
    if isinstance(prep, HbbPrep):
        state = hbb_reduced_state(prep.dealer_basis, prep.dealer_outcome)
        return state.reordered(labels) if state.labels != labels else state
    raise ValueError("hardened test rounds have no joint pair state")


def validate_session(config: SessionConfig, strategy: AttackStrategy | None) -> None:
    """Reject configurations the machinery cannot honor."""
    active = strategy is not None and strategy.kind is not AttackKind.PASSIVE
    if not active:
        return
    if config.scheme is Scheme.HBB:
        raise ConfigError(
            "strategy",
            "the interception repair only preserves the Z/X signal set; "
            "the GHZ scheme's Y-basis pairs are not invariant, so an active "
            "adversary is not supported for scheme 'hbb'",
        )
    ch = config.channel
    if ch.eta_prime < ch.eta:
        raise ConfigError(
            "channel.eta_prime",
            f"an active adversary needs eta_prime >= eta, got "
            f"eta={ch.eta} eta_prime={ch.eta_prime}",
        )
    if ch.eta_prime <= 0.0:
        raise ConfigError(
            "channel.eta_prime", "an active adversary needs a usable channel"
        )


def _round_streams(seed: int, n: int) -> list[_RoundStream]:
    # Counter-based (Salmon et al., "Parallel Random Numbers: As Easy as
    # 1, 2, 3", SC'11): round i reads row i of one Philox table, so its
    # draws depend only on (seed, round index), never on how many draws
    # other rounds made.  Only the bit generator's raw stream is used, which
    # numpy keeps stable.  Imported here: loading numpy.random with triqss
    # would add to every interpreter's start-up.
    from numpy.random import Philox

    width = _TABLE_WIDTH
    raw = Philox(seed).random_raw((n, width))
    table = array("d", ((raw >> 11) * _DOUBLE_UNIT).tobytes())
    return [_RoundStream(table, i, width) for i in range(n)]


# Uniforms per round in the session table.  The most any round reads is 14:
# an attacked hardened test round under the refined or sifting ordering
# (test coin 1, product preparation 4, interception 3, Charlie's measurement
# 2, the agent's answer 3, and the interleave coin or the early declaration
# 1).  At 13 exactly those rounds overrun.
_TABLE_WIDTH = 16
_DOUBLE_UNIT = 2.0**-53  # the top 53 bits of a raw output, scaled to [0, 1)


class _RoundStream(RandomSource):
    """One round's row of the session's uniform table, read in order.

    ``random()`` returns the next cell, so each ``coin``, ``pick`` and
    ``born`` draw of the round reads one cell.  A round that reads past its
    row raises ``RuntimeError``.
    """

    __slots__ = ("_table", "_pos", "_end", "_index")

    def __init__(self, table: array, index: int, width: int):
        self._table = table
        self._pos = index * width
        self._end = self._pos + width
        self._index = index

    def random(self) -> float:
        pos = self._pos
        if pos == self._end:
            raise RuntimeError(f"round {self._index} read past its table row")
        self._pos = pos + 1
        return self._table[pos]


def _prepare_round(
    config: SessionConfig, test_coin: bool, registry: PhotonRegistry, rng
) -> Preparation:
    if config.scheme is Scheme.HBB:
        dealer_basis = Basis.X if rng.coin(0.5) else Basis.Y
        outcome, pair = hbb_reduce(ghz_state(("A", "B", "C")), dealer_basis, rng)
        registry.add(pair)
        return HbbPrep.from_measurement(dealer_basis, outcome)
    if config.scheme is Scheme.HARDENED_KKI and test_coin:
        prep, photon_b, photon_c = prepare_hardened_test_round(rng)
        registry.add(photon_b)
        registry.add(photon_c)
        return prep
    tag = SIGNAL_ORDER[rng.pick(4)]
    prep = PreparedState.from_tag(tag)
    registry.add(signal_state(tag, ("B", "C")))
    return prep


def _initial_kind(config: SessionConfig, test_coin: bool) -> RoundKind:
    if config.mode is Mode.STATE_SHARING:
        return RoundKind.TEST if test_coin else RoundKind.MESSAGE
    return RoundKind.TEST if test_coin else RoundKind.KEY


def _physical_round(
    index: int,
    config: SessionConfig,
    adversary: ActiveAdversary | None,
    rng: _RoundStream,
) -> RoundRecord:
    registry = PhotonRegistry()
    test_coin = rng.coin(config.test_fraction)
    prep = _prepare_round(config, test_coin, registry, rng)
    rec = RoundRecord(
        round_id=index,
        kind=_initial_kind(config, test_coin),
        test_coin=test_coin,
        preparation=prep,
        registry=registry,
        _rng=rng,
    )
    if adversary is None:
        rec.delivered_bob = transmit(config.channel.eta, rng)
        rec.delivered_charlie = transmit(config.channel.eta, rng)
        if not rec.delivered_bob:
            registry.discard("B", rng)
        if not rec.delivered_charlie:
            registry.discard("C", rng)
    else:
        adversary.substitute(rec, rng)
    if config.mode is Mode.CLASSICAL_KEY:
        bases = config.scheme.agent_bases
        if rec.delivered_charlie:
            rec.charlie_basis, rec.charlie_outcome = registry.measure_random_basis(
                rec.charlie_label, bases, rng
            )
        bob_now = (
            rec.delivered_bob
            if adversary is None
            else adversary.bob_measures_immediately(rec)
        )
        if bob_now:
            rec.bob_basis, rec.bob_outcome = registry.measure_random_basis(
                "B", bases, rng
            )
    return rec


def _declarations(rec: RoundRecord) -> tuple[tuple, tuple]:
    """(party, declared, outcome, basis) for each agent, Bob first."""
    return (
        ("bob", rec.declared_bob, rec.bob_outcome, rec.bob_basis),
        ("charlie", rec.declared_charlie, rec.charlie_outcome, rec.charlie_basis),
    )


def _dealer_reveal_payload(prep: Preparation) -> tuple[str, object]:
    if isinstance(prep, PreparedState):
        return "state", prep.tag.value
    if isinstance(prep, HbbPrep):
        return "state", {
            "dealer_basis": prep.dealer_basis.value,
            "dealer_outcome": prep.dealer_outcome,
        }
    return "prep", {
        "bob_basis": prep.bob_basis.value,
        "bob_sign": prep.bob_sign,
        "charlie_basis": prep.charlie_basis.value,
        "charlie_sign": prep.charlie_sign,
    }


def _announce(
    config: SessionConfig,
    rounds: list[RoundRecord],
    adversary: ActiveAdversary | None,
) -> list[Announcement]:
    """Run the public discussion over finished rounds; return it in order.

    The schedules differ in three places only: whether detections are
    declared before the designation (``SIFTING_FIRST``), whether a test
    round's outcomes and bases interleave (``REFINED``), and whether a test
    photon is measured only after designation (state-sharing mode, where
    every ordering runs the designation-first schedule).  Message rounds
    carry no declaration, so every step below skips them.

    Each round draws only from its own stream and registry, so a round's
    later steps may run as soon as its own earlier ones have.
    """
    log: list[Announcement] = []

    def emit(party: str, kind: str, round_id: int | None, payload) -> None:
        log.append(Announcement(len(log), party, kind, round_id, payload))

    def designate() -> None:
        test_ids = tuple(r.round_id for r in rounds if r.kind is RoundKind.TEST)
        emit("alice", "designation", None, test_ids)

    state_sharing = config.mode is Mode.STATE_SHARING
    sifting = not state_sharing and config.ordering is OrderingPolicy.SIFTING_FIRST
    refined = not state_sharing and config.ordering is OrderingPolicy.REFINED
    bases = config.scheme.agent_bases

    if not sifting:
        designate()
    for rec in rounds:
        if rec.kind is RoundKind.MESSAGE:
            continue
        rng = rec._rng
        if state_sharing and rec.delivered_charlie:
            # Simulation order within the round: Charlie's measurement first
            # so factor merges stay small; the operations act on disjoint
            # photons, so announcement order is unaffected.
            rec.charlie_basis, rec.charlie_outcome = rec.registry.measure_random_basis(
                rec.charlie_label, bases, rng
            )
        if adversary is None:
            rec.declared_bob = rec.delivered_bob
        elif sifting:
            rec.declared_bob = adversary.sifting_declaration(rec, rng)
        elif rec.kind is RoundKind.KEY:
            rec.declared_bob = adversary.key_declaration(rec, rng)
        elif rec.attacked:
            adversary.respond_test(
                rec, rng, loss_branch_available=True, agent_bases=bases
            )
        else:
            rec.declared_bob = adversary.untouched_test_declaration(rec, rng)
        if state_sharing and rec.declared_bob and rec.bob_outcome is None:
            rec.bob_basis, rec.bob_outcome = rec.registry.measure_random_basis(
                "B", bases, rng
            )
        rec.declared_charlie = rec.delivered_charlie
    for rec in rounds:
        for party, declared, _, _ in _declarations(rec):
            if declared is not None:
                emit(party, "detection", rec.round_id, bool(declared))
    if sifting:
        # Hardened test rounds are fixed at preparation time; an undetected
        # one simply yields no check data.  Otherwise designation happens
        # among the rounds both agents declared detected.
        if config.scheme is not Scheme.HARDENED_KKI:
            for rec in rounds:
                if rec.test_coin and not (rec.declared_bob and rec.declared_charlie):
                    rec.kind = RoundKind.KEY
        designate()

    for rec in rounds:
        if rec.kind is not RoundKind.TEST:
            continue
        if sifting and adversary is not None and rec.attacked and rec.declared_bob:
            # The detection is already public; a wrong Bell outcome can no
            # longer be converted into a loss.
            adversary.respond_test(
                rec, rec._rng, loss_branch_available=False, agent_bases=bases
            )
        said = [d for d in _declarations(rec) if d[1]]
        if refined and len(said) == 2 and rec._rng.coin(0.5):
            said.reverse()
        for party, _, outcome, _ in said:
            emit(party, "outcome", rec.round_id, int(outcome))
        if refined:  # whoever spoke first declares their basis last
            for party, _, _, basis in reversed(said):
                emit(party, "basis", rec.round_id, basis.value)

    for rec in rounds:
        if rec.kind is RoundKind.MESSAGE or (refined and rec.kind is RoundKind.TEST):
            continue
        if rec.kind is RoundKind.KEY and rec.declared_bob and rec.bob_basis is None:
            # Only an attacked, deferred round can reach this point
            # unmeasured: Bob never measured B and announces a random basis
            # plus (later, privately) a fabricated key bit.
            rec.bob_basis = adversary.fake_key_basis(rec._rng, bases)
            rec.bob_outcome = +1 if rec._rng.coin(0.5) else -1
        for party, declared, _, basis in _declarations(rec):
            if declared and basis is not None:
                emit(party, "basis", rec.round_id, basis.value)

    for rec in rounds:
        if rec.kind is RoundKind.MESSAGE:
            continue
        both = bool(rec.declared_bob and rec.declared_charlie)
        if both and _entangled(rec.preparation):
            emit("alice", "class", rec.round_id, rec.preparation.basis_class)
        if rec.kind is RoundKind.TEST and (rec.declared_bob or rec.declared_charlie):
            kind, payload = _dealer_reveal_payload(rec.preparation)
            emit("alice", kind, rec.round_id, payload)
        if adversary is None or rec.kind is not RoundKind.KEY or not rec.attack_mounted:
            continue
        # With the round's class public, the adversary reads off key bits
        # from what it still holds: B and C parked, B' kept.
        registry = rec.registry
        if both and registry.has("B") and registry.has("C"):
            rec.recovered_dealer_bit = adversary.recover_dealer_bit(
                rec, rec.preparation.basis_class, rec._rng
            )
        if rec.declared_charlie and registry.has(FAKE_BOB):
            rec.recovered_charlie_outcome = adversary.recover_charlie_outcome(
                rec, rec.charlie_basis, rec._rng
            )
    return log


def run_session(
    config: SessionConfig, strategy: AttackStrategy | None = None
) -> SessionTranscript:
    """Simulate one full session and return its transcript.

    Randomness is derived per round from ``config.seed``; the same
    configuration and strategy always reproduce the same transcript.
    """
    validate_session(config, strategy)
    active = strategy is not None and strategy.kind is not AttackKind.PASSIVE
    adversary = ActiveAdversary(strategy, config.channel) if active else None
    streams = _round_streams(config.seed, config.rounds)
    rounds = [
        _physical_round(i, config, adversary, streams[i])
        for i in range(config.rounds)
    ]
    return SessionTranscript(
        config=config,
        strategy=strategy,
        rounds=rounds,
        announcements=_announce(config, rounds, adversary),
        attack_fraction=adversary.fraction if adversary is not None else None,
    )


# ---------------------------------------------------------------------------
# Evaluation


def extract_bits(record: RoundRecord, announced_class: int) -> tuple[int, int]:
    """Key bits both agents extract from one announced round.

    Requires both outcomes and a correlated basis pairing; raises
    ``ValueError`` otherwise.
    """
    if record.bob_outcome is None or record.charlie_outcome is None:
        raise ValueError(f"round {record.round_id}: outcomes are incomplete")
    scheme = Scheme.HBB if isinstance(record.preparation, HbbPrep) else Scheme.KKI
    k_b = convention_bit(
        scheme, announced_class, record.bob_basis, record.charlie_basis,
        "bob", record.bob_outcome,
    )
    k_c = convention_bit(
        scheme, announced_class, record.bob_basis, record.charlie_basis,
        "charlie", record.charlie_outcome,
    )
    return k_b, k_c


@dataclass
class SessionTally:
    """Raw counters extracted from one or more transcripts (mergeable)."""

    rounds: int = 0
    bob_obligation: int = 0
    bob_declared: int = 0
    charlie_obligation: int = 0
    charlie_declared: int = 0
    basis_rounds: int = 0
    sifted_rounds: int = 0
    test_checked: int = 0
    test_errors: int = 0
    bob_leg_checked: int = 0
    bob_leg_errors: int = 0
    charlie_leg_checked: int = 0
    charlie_leg_errors: int = 0
    attacked_rounds: int = 0
    attacked_mounted: int = 0
    attacked_test_total: int = 0
    attacked_test_declared: int = 0
    attacked_test_mounted: int = 0
    attacked_test_loss_declared: int = 0
    bad_bell: int = 0
    bad_bell_checked: int = 0
    bad_bell_errors: int = 0
    key_sifted: int = 0
    key_sifted_attacked: int = 0
    dealer_bit_recoveries: int = 0
    dealer_bit_correct: int = 0
    charlie_bit_recoveries: int = 0
    charlie_bit_correct: int = 0
    message_rounds: int = 0
    attacked_message_mounted: int = 0
    adversary_pairs_intact: int = 0
    adversary_min_overlap: float = float("inf")
    shared_pairs_intact: int = 0

    def merge(self, other: "SessionTally") -> None:
        for name in self.__dataclass_fields__:
            if name == "adversary_min_overlap":
                self.adversary_min_overlap = min(
                    self.adversary_min_overlap, other.adversary_min_overlap
                )
            else:
                setattr(self, name, getattr(self, name) + getattr(other, name))


def _tally_message_round(rec: RoundRecord, tally: SessionTally) -> None:
    tally.message_rounds += 1
    mounted = rec.attacked and rec.attack_mounted
    if mounted:
        tally.attacked_message_mounted += 1
    elif not (rec.delivered_bob and rec.delivered_charlie and not rec.attacked):
        return
    joint = rec.registry.joint_state(("B", "C"))
    if joint is None or not _entangled(rec.preparation):
        return
    ov = overlap(joint, _prep_state(rec.preparation))
    intact = int(ov >= 1.0 - ATOL)
    if mounted:
        tally.adversary_min_overlap = min(tally.adversary_min_overlap, ov)
        tally.adversary_pairs_intact += intact
    else:
        tally.shared_pairs_intact += intact


def tally_transcript(transcript: SessionTranscript) -> SessionTally:
    """Count everything the checks and reports need from one transcript."""
    config = transcript.config
    tally = SessionTally()
    for rec in transcript.rounds:
        tally.rounds += 1
        if rec.attacked:
            tally.attacked_rounds += 1
            if rec.attack_mounted:
                tally.attacked_mounted += 1
        if rec.kind is RoundKind.MESSAGE:
            _tally_message_round(rec, tally)
            continue
        if rec.declared_bob is not None:
            tally.bob_obligation += 1
            tally.bob_declared += int(rec.declared_bob)
        if rec.declared_charlie is not None:
            tally.charlie_obligation += 1
            tally.charlie_declared += int(rec.declared_charlie)
        both = bool(rec.declared_bob and rec.declared_charlie)
        prep = rec.preparation
        if isinstance(prep, HardenedPrep):
            if rec.declared_bob:
                tally.bob_leg_checked += 1
                if rec.bob_basis is prep.bob_basis and rec.bob_outcome != prep.bob_sign:
                    tally.bob_leg_errors += 1
            if rec.declared_charlie:
                tally.charlie_leg_checked += 1
                if (
                    rec.charlie_basis is prep.charlie_basis
                    and rec.charlie_outcome != prep.charlie_sign
                ):
                    tally.charlie_leg_errors += 1
        else:
            correlated = False
            if both and rec.bob_basis is not None and rec.charlie_basis is not None:
                tally.basis_rounds += 1
                correlated = correlated_bases(
                    prep.basis_class, rec.bob_basis, rec.charlie_basis, config.scheme
                )
                if correlated:
                    tally.sifted_rounds += 1
            if rec.kind is RoundKind.TEST and correlated:
                k_b, k_c = extract_bits(rec, prep.basis_class)
                error = (k_b ^ k_c) != prep.bit
                tally.test_checked += 1
                tally.test_errors += int(error)
                if rec.branch in ("bad", "forced"):
                    tally.bad_bell_checked += 1
                    tally.bad_bell_errors += int(error)
            if rec.kind is RoundKind.KEY and correlated:
                tally.key_sifted += 1
                if rec.attacked and rec.attack_mounted:
                    tally.key_sifted_attacked += 1
                    if rec.recovered_dealer_bit is not None:
                        tally.dealer_bit_recoveries += 1
                        tally.dealer_bit_correct += int(
                            rec.recovered_dealer_bit == prep.bit
                        )
                    if rec.recovered_charlie_outcome is not None:
                        tally.charlie_bit_recoveries += 1
                        tally.charlie_bit_correct += int(
                            rec.recovered_charlie_outcome == rec.charlie_outcome
                        )
        if rec.kind is RoundKind.TEST and rec.attacked:
            tally.attacked_test_total += 1
            tally.attacked_test_declared += int(bool(rec.declared_bob))
            if rec.attack_mounted:
                tally.attacked_test_mounted += 1
                tally.attacked_test_loss_declared += int(rec.declared_loss_cheat)
                if rec.branch in ("bad", "forced"):
                    tally.bad_bell += 1
    return tally


def evaluate_tally(tally: SessionTally, config: SessionConfig) -> CheckReport:
    """Turn raw counters into the public check verdict."""
    hardened = config.scheme is Scheme.HARDENED_KKI
    if hardened:
        legs_checked = tally.bob_leg_checked + tally.charlie_leg_checked
        if legs_checked == 0:
            raise NoTestDataError("no usable test announcements; cannot run the check")
        bob_rate = ratio(tally.bob_leg_errors, tally.bob_leg_checked)
        charlie_rate = ratio(tally.charlie_leg_errors, tally.charlie_leg_checked)
        if charlie_rate >= bob_rate:
            worst_errors, worst_checked = (
                tally.charlie_leg_errors,
                tally.charlie_leg_checked,
            )
        else:
            worst_errors, worst_checked = tally.bob_leg_errors, tally.bob_leg_checked
        test_checked = legs_checked
        test_errors = tally.bob_leg_errors + tally.charlie_leg_errors
        error_rate = max(bob_rate, charlie_rate)
        ci = wilson_interval(worst_errors, worst_checked)
        errors_ok = error_rate <= config.error_threshold
        leg_rates = (bob_rate, charlie_rate)
    else:
        if tally.test_checked == 0:
            raise NoTestDataError("no usable test rounds; cannot run the check")
        test_checked = tally.test_checked
        test_errors = tally.test_errors
        error_rate = ratio(test_errors, test_checked)
        ci = wilson_interval(test_errors, test_checked)
        errors_ok = error_rate <= config.error_threshold
        leg_rates = (None, None)
    eff_bob = ratio(tally.bob_declared, tally.bob_obligation)
    eff_charlie = ratio(tally.charlie_declared, tally.charlie_obligation)
    eta = config.channel.eta
    tol = config.efficiency_tolerance
    efficiency_ok = abs(eff_bob - eta) <= tol and abs(eff_charlie - eta) <= tol
    return CheckReport(
        rounds=tally.rounds,
        test_rounds_checked=test_checked,
        test_errors=test_errors,
        test_error_rate=error_rate,
        error_ci=ci,
        observed_efficiency_bob=eff_bob,
        observed_efficiency_charlie=eff_charlie,
        expected_efficiency=eta,
        sift_rate=ratio(tally.sifted_rounds, tally.basis_rounds),
        bob_leg_error_rate=leg_rates[0],
        charlie_leg_error_rate=leg_rates[1],
        efficiency_ok=efficiency_ok,
        errors_ok=errors_ok,
        verdict="secure" if (errors_ok and efficiency_ok) else "compromised",
    )


def check_eavesdropping(
    transcript: SessionTranscript, config: SessionConfig | None = None
) -> CheckReport:
    """Run the public error/efficiency check on a finished session.

    Raises ``NoTestDataError`` (a ``ValueError``) when the transcript
    contains no usable test data.
    """
    return evaluate_tally(tally_transcript(transcript), config or transcript.config)


def distill_keys(
    transcript: SessionTranscript,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dealer / agent-1 / agent-2 key bits over the sifted key rounds.

    The dealer's key XORs out of the two agents' keys round by round.  Not
    defined for state-sharing sessions, which never announce key bases.
    """
    if transcript.config.mode is Mode.STATE_SHARING:
        raise ValueError("state-sharing sessions distill no classical key")
    k_a: list[int] = []
    k_b: list[int] = []
    k_c: list[int] = []
    for rec in transcript.rounds:
        if rec.kind is not RoundKind.KEY:
            continue
        if not (rec.declared_bob and rec.declared_charlie):
            continue
        prep = rec.preparation
        if not correlated_bases(
            prep.basis_class, rec.bob_basis, rec.charlie_basis, transcript.config.scheme
        ):
            continue
        bits = extract_bits(rec, prep.basis_class)
        k_a.append(prep.bit)
        k_b.append(bits[0])
        k_c.append(bits[1])
    return (
        np.array(k_a, dtype=np.uint8),
        np.array(k_b, dtype=np.uint8),
        np.array(k_c, dtype=np.uint8),
    )


# ---------------------------------------------------------------------------
# Announcement-order validation and export

_PHASE_RANKS = {
    "designation": 0,
    "detection": 1,
    "outcome": 2,
    "basis": 3,
    "class": 4,
    "state": 4,
    "prep": 4,
}


class AnnouncementOrderError(AssertionError):
    pass


def validate_announcement_order(transcript: SessionTranscript) -> None:
    """Assert the transcript's announcements follow the configured schedule.

    Raises ``AnnouncementOrderError`` on any violation; also checks that
    outcomes were only announced for declared detections and that the
    refined interleave (first outcome declarer announces their basis last)
    holds for every test round.
    """
    config = transcript.config
    sifting = (
        config.mode is Mode.CLASSICAL_KEY
        and config.ordering is OrderingPolicy.SIFTING_FIRST
    )
    refined = (
        config.mode is Mode.CLASSICAL_KEY
        and config.ordering is OrderingPolicy.REFINED
    )
    ranks = _PHASE_RANKS
    if sifting:  # detections are declared before the designation
        ranks = {**_PHASE_RANKS, "detection": 0, "designation": 1}
    declared: dict[tuple[str, int], bool] = {}
    test_ids: set[int] = set()
    last_rank = -1
    refined_state: dict[int, list[tuple[str, str]]] = {}
    for a in transcript.announcements:
        if a.kind == "designation":
            test_ids = set(a.payload)
        rank = ranks.get(a.kind)
        if rank is None:
            raise AnnouncementOrderError(f"unknown announcement kind {a.kind!r}")
        if refined and a.kind in ("outcome", "basis") and a.round_id in test_ids:
            rank = 2  # test blocks interleave outcomes and bases
        if rank < last_rank:
            raise AnnouncementOrderError(
                f"announcement #{a.seq} ({a.party} {a.kind}) arrived after a "
                f"later phase had begun"
            )
        last_rank = max(last_rank, rank)
        if a.kind == "detection":
            declared[(a.party, a.round_id)] = bool(a.payload)
        if a.kind == "outcome":
            if not declared.get((a.party, a.round_id), False):
                raise AnnouncementOrderError(
                    f"round {a.round_id}: {a.party} announced an outcome "
                    f"without a declared detection"
                )
            if a.round_id not in test_ids:
                raise AnnouncementOrderError(
                    f"round {a.round_id}: outcome announced for a non-test round"
                )
        if refined and a.round_id in test_ids and a.kind in ("outcome", "basis"):
            refined_state.setdefault(a.round_id, []).append((a.party, a.kind))
    if refined:
        for rid, events in refined_state.items():
            outcomes = [p for p, k in events if k == "outcome"]
            bases = [p for p, k in events if k == "basis"]
            if sorted(outcomes) != sorted(bases):
                raise AnnouncementOrderError(
                    f"round {rid}: outcome/basis declarers differ: "
                    f"{outcomes} vs {bases}"
                )
            if len(outcomes) == 2 and (
                events != [
                    (outcomes[0], "outcome"),
                    (outcomes[1], "outcome"),
                    (outcomes[1], "basis"),
                    (outcomes[0], "basis"),
                ]
            ):
                raise AnnouncementOrderError(
                    f"round {rid}: refined interleave violated: {events}"
                )


def _prep_json(prep: Preparation) -> dict:
    if isinstance(prep, PreparedState):
        return {"kind": "pair", "tag": prep.tag.value,
                "class": prep.basis_class, "bit": prep.bit}
    if isinstance(prep, HbbPrep):
        return {"kind": "ghz", "dealer_basis": prep.dealer_basis.value,
                "dealer_outcome": prep.dealer_outcome,
                "class": prep.basis_class, "bit": prep.bit}
    return {"kind": "hardened", "bob_basis": prep.bob_basis.value,
            "bob_sign": prep.bob_sign, "charlie_basis": prep.charlie_basis.value,
            "charlie_sign": prep.charlie_sign}


def _announcement_json(a: Announcement) -> dict:
    payload = list(a.payload) if isinstance(a.payload, tuple) else a.payload
    return {"seq": a.seq, "party": a.party, "kind": a.kind, "payload": payload}


def export_transcript_jsonl(transcript: SessionTranscript, path: str) -> None:
    """Write a session transcript as line-delimited JSON.

    The first line is a session header (schema version, configuration,
    strategy, session-level announcements such as the test designation);
    every following line is one round with its scoped announcements.  See
    ``docs/transcript_schema.md`` for the field-by-field description.
    """
    config = transcript.config
    by_round: dict[int, list[Announcement]] = {}
    session_level: list[Announcement] = []
    for a in transcript.announcements:
        if a.round_id is None:
            session_level.append(a)
        else:
            by_round.setdefault(a.round_id, []).append(a)
    header = {
        "record": "session",
        "schema": 1,
        "config": {
            "eta": config.channel.eta,
            "eta_prime": config.channel.eta_prime,
            "rounds": config.rounds,
            "test_fraction": config.test_fraction,
            "ordering": config.ordering.value,
            "mode": config.mode.value,
            "scheme": config.scheme.value,
            "error_threshold": config.error_threshold,
            "efficiency_tolerance": config.efficiency_tolerance,
            "seed": config.seed,
        },
        "strategy": None
        if transcript.strategy is None
        else {
            "kind": transcript.strategy.kind.value,
            "attack_fraction": transcript.attack_fraction,
            "cheating_enabled": transcript.strategy.cheating_enabled,
        },
        "announcements": [_announcement_json(a) for a in session_level],
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for rec in transcript.rounds:
            row = {
                "record": "round",
                "round_id": rec.round_id,
                "kind": rec.kind.value,
                "preparation": _prep_json(rec.preparation),
                "attacked": rec.attacked,
                "attack_mounted": rec.attack_mounted,
                "delivered": {"bob": rec.delivered_bob, "charlie": rec.delivered_charlie},
                "declared": {"bob": rec.declared_bob, "charlie": rec.declared_charlie},
                "bases": {
                    "bob": rec.bob_basis.value if rec.bob_basis else None,
                    "charlie": rec.charlie_basis.value if rec.charlie_basis else None,
                },
                "outcomes": {"bob": rec.bob_outcome, "charlie": rec.charlie_outcome},
                "bell_outcome": rec.bell_outcome.value if rec.bell_outcome else None,
                "branch": rec.branch,
                "announcements": [
                    _announcement_json(a) for a in by_round.get(rec.round_id, [])
                ],
            }
            fh.write(json.dumps(row, sort_keys=True) + "\n")
