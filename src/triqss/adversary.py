"""Dishonest-agent attack strategies.

The dishonest agent (Bob, the first recipient) can replace his stretch of
channel with a better one (survival ``eta_prime`` instead of the honest
``eta``) and intercept *both* photons of a round.  He forwards one half of a
fresh maximally entangled pair to the other agent, keeps everything else,
and uses the loss budget ``eta_prime - eta`` to hide the rounds where his
later Bell measurement comes out wrong.

Strategies
----------
* ``PASSIVE``: no interference; the honest channel runs as configured.
* ``OPAQUE_DEFERRED``: intercept, store, and delay the Bell measurement on
  (kept fake half, intercepted second photon) until the round is designated
  a test round.  Wrong Bell outcomes are declared as losses when the
  announcement ordering still allows it.
* ``EARLY_BELL``: perform that Bell measurement immediately on interception
  and declare losses for wrong outcomes.  This keeps every published
  statistic honest but consumes the stored photons, so the agent ends up
  with no more information than an honest player.

The planned attack fraction ``min(1, 2 (eta' - eta) / eta')`` is the largest
fraction of rounds that can be intercepted while the blended detection rate
the others observe stays exactly at the honest ``eta``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .channel import ChannelConfig, _check_probability, loss_filter
from .preparation import HardenedPrep
from .qcore import (
    Basis,
    BellOutcome,
    BELL_ORDER,
    PairBasis,
    PauliCorrection,
    RandomSource,
    bell_state,
)
from .registry import pick_basis


class AttackKind(Enum):
    PASSIVE = "passive"
    OPAQUE_DEFERRED = "opaque-deferred"
    EARLY_BELL = "early-bell"


@dataclass(frozen=True)
class AttackStrategy:
    """What the dishonest agent does and how often.

    ``attack_fraction`` of ``None`` means "use the planned fraction", the
    largest value the loss budget of the configured channel pair can hide.
    ``cheating_enabled`` controls whether wrong Bell outcomes are converted
    into loss declarations (the distinctive move of the attack); with it off
    the agent announces the error-prone measurement instead.
    """

    kind: AttackKind = AttackKind.OPAQUE_DEFERRED
    attack_fraction: float | None = None
    cheating_enabled: bool = True

    def __post_init__(self) -> None:
        value = self.attack_fraction
        if value is None:
            return
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"attack_fraction must be a number, got {value!r}")
        _check_probability("attack_fraction", value)


PASSIVE = AttackStrategy(kind=AttackKind.PASSIVE)


def plan_attack_fraction(channel: ChannelConfig) -> float:
    """Largest attack fraction the channel's loss budget can conceal.

    Attacked test rounds surface at rate ``eta_prime / 2`` (half the Bell
    outcomes are declared lost) and untouched rounds at ``eta_prime``; the
    blend equals the honest ``eta`` at ``2 (eta' - eta) / eta'``, capped at 1.
    Returns 0 when the replacement channel is no better than the honest one.
    """
    if channel.eta_prime <= channel.eta or channel.eta_prime <= 0.0:
        return 0.0
    return min(1.0, 2.0 * (channel.eta_prime - channel.eta) / channel.eta_prime)


# Registry labels: the intercepted photons keep their honest labels B and C;
# the substituted pair is (B', C') with C' forwarded to the second agent.
# The round's registry is the only record of what Bob still holds: the parked
# signal pair while B and C are both unmeasured, his fake half while B' is.
FAKE_BOB = "B'"
FAKE_CHARLIE = "C'"

_GOOD_OUTCOMES = {
    BellOutcome.PHI_PLUS: PauliCorrection.IDENTITY,
    BellOutcome.PSI_MINUS: PauliCorrection.I_SIGMA_Y,
}


class ActiveAdversary:
    """Runtime driver for an intercepting strategy within one session."""

    def __init__(self, strategy: AttackStrategy, channel: ChannelConfig):
        if strategy.kind is AttackKind.PASSIVE:
            raise ValueError("a passive strategy needs no adversary driver")
        if channel.eta_prime < channel.eta:
            raise ValueError(
                "an intercepting adversary needs eta_prime >= eta; "
                f"got eta={channel.eta}, eta_prime={channel.eta_prime}"
            )
        self.strategy = strategy
        self.channel = channel
        self.fraction = (
            strategy.attack_fraction
            if strategy.attack_fraction is not None
            else plan_attack_fraction(channel)
        )

    # -- interception -----------------------------------------------------

    def substitute(self, rec, rng: RandomSource) -> None:
        """Route one round through the replacement channel.

        Both photons of the round arrive (or are lost) together with
        probability ``eta_prime``.  On an attacked round the true pair is
        parked, a fresh maximally entangled pair is created, and its second
        half is forwarded; the forwarded leg is thinned to the honest rate
        ``eta`` so the second agent's detection statistics stay untouched.
        Untouched rounds pass through with the same thinning on the far leg.
        """
        ch = self.channel
        rec.attacked = rng.coin(self.fraction)
        pair_arrived = rng.coin(ch.eta_prime)
        if not pair_arrived:
            for label in ("B", "C"):
                if rec.registry.has(label):
                    rec.registry.discard(label, rng)
            rec.delivered_bob = False
            rec.delivered_charlie = False
            if rec.attacked:
                rec.branch = "unattackable"
            return
        rec.delivered_bob = True
        keep = ch.eta / ch.eta_prime
        if rec.attacked:
            rec.attack_mounted = True
            rec.registry.add(bell_state(BellOutcome.PHI_PLUS, (FAKE_BOB, FAKE_CHARLIE)))
            rec.charlie_label = FAKE_CHARLIE
            rec.delivered_charlie = loss_filter(keep, rng)
            if not rec.delivered_charlie:
                rec.registry.discard(FAKE_CHARLIE, rng)
            if self.strategy.kind is AttackKind.EARLY_BELL:
                self._early_bell(rec, rng)
        else:
            rec.charlie_label = "C"
            rec.delivered_charlie = loss_filter(keep, rng)
            if not rec.delivered_charlie:
                rec.registry.discard("C", rng)

    def _early_bell(self, rec, rng: RandomSource) -> None:
        """Swap-or-drop right now, before any designation is known."""
        result = rec.registry.measure_pair((FAKE_BOB, "C"), PairBasis.BELL, rng)
        outcome = BELL_ORDER[result.index]
        rec.bell_outcome = outcome
        correction = _GOOD_OUTCOMES.get(outcome)
        if correction is None:
            rec.branch = "bad"
            rec.declared_loss_cheat = True
        else:
            rec.branch = "good"
            rec.registry.apply("B", correction)  # only the honest-like B is left

    # -- announcements ----------------------------------------------------

    def bob_measures_immediately(self, rec) -> bool:
        """Whether Bob behaves like an honest receiver at arrival time."""
        if not rec.delivered_bob:
            return False
        if not rec.attacked:
            return True
        if self.strategy.kind is AttackKind.EARLY_BELL:
            return rec.branch == "good"
        return False  # deferred: keep everything unmeasured

    def sifting_declaration(self, rec, rng: RandomSource) -> bool:
        """Detection declared before any designation exists (SiftingFirst)."""
        if not rec.delivered_bob:
            return False
        if self.strategy.kind is AttackKind.EARLY_BELL:
            return not rec.attacked or rec.branch == "good"
        # Deferred strategy: nothing distinguishes rounds yet, so declare at
        # the honest-looking rate on every round, attacked or not.
        return loss_filter(self.channel.eta / self.channel.eta_prime, rng)

    def untouched_test_declaration(self, rec, rng: RandomSource) -> bool:
        """Detection declaration for a non-attacked round designated as test.

        Entangled rounds are declared whenever they arrived: attacked test
        rounds surface at half the replacement rate, so untouched ones must
        surface at the full replacement rate for the blend to sit at the
        honest rate.  Product (hardened) test rounds are thinned to the
        honest rate directly because attacked ones are answered at that rate
        too.
        """
        if not rec.delivered_bob:
            return False
        if self.strategy.kind is AttackKind.EARLY_BELL:
            return True
        if isinstance(rec.preparation, HardenedPrep):
            return loss_filter(self.channel.eta / self.channel.eta_prime, rng)
        return True

    def respond_test(
        self,
        rec,
        rng: RandomSource,
        loss_branch_available: bool,
        agent_bases: tuple[Basis, ...],
    ) -> None:
        """Resolve an attacked round that was designated a test round.

        Performs the deferred Bell measurement on (kept fake half,
        intercepted second photon).  A good outcome is repaired on the kept
        first photon and answered honestly; a wrong outcome is declared lost
        when ``loss_branch_available`` and cheating is enabled, otherwise the
        error-prone measurement of the kept photon is announced.  Hardened
        product test rounds skip the pointless swap and are answered
        honestly at the advertised rate.
        """
        if not rec.attack_mounted:
            rec.branch = "unattackable"
            if rec.declared_bob is None:
                rec.declared_bob = False
            return
        if self.strategy.kind is AttackKind.EARLY_BELL:
            self._early_test_answer(rec, rng, agent_bases)
            return
        if isinstance(rec.preparation, HardenedPrep):
            self._hardened_test_answer(rec, rng, agent_bases)
            return
        result = rec.registry.measure_pair((FAKE_BOB, "C"), PairBasis.BELL, rng)
        outcome = BELL_ORDER[result.index]
        rec.bell_outcome = outcome
        correction = _GOOD_OUTCOMES.get(outcome)
        if correction is not None:
            rec.branch = "good"
            rec.registry.apply("B", correction)
            rec.declared_bob = True
            rec.bob_basis, rec.bob_outcome = rec.registry.measure_random_basis(
                "B", agent_bases, rng
            )
        elif self.strategy.cheating_enabled and loss_branch_available:
            rec.branch = "bad"
            rec.declared_loss_cheat = True
            rec.declared_bob = False
        else:
            rec.branch = "forced" if not loss_branch_available else "bad"
            rec.declared_bob = True
            rec.bob_basis, rec.bob_outcome = rec.registry.measure_random_basis(
                "B", agent_bases, rng
            )

    def _early_test_answer(self, rec, rng, agent_bases) -> None:
        if rec.branch == "good":
            rec.declared_bob = True
            if rec.bob_outcome is None:  # state-sharing rounds are still unmeasured
                rec.bob_basis, rec.bob_outcome = rec.registry.measure_random_basis(
                    "B", agent_bases, rng
                )
        else:
            rec.declared_bob = False

    def _hardened_test_answer(self, rec, rng, agent_bases) -> None:
        # The kept first photon is the genuine prepared one, so honest
        # answers keep this leg clean; the substituted far leg is what the
        # hardened check will catch.  Declare at the advertised rate.
        rec.branch = "skipped"
        if loss_filter(self.channel.eta / self.channel.eta_prime, rng):
            rec.declared_bob = True
            rec.bob_basis, rec.bob_outcome = rec.registry.measure_random_basis(
                "B", agent_bases, rng
            )
        else:
            rec.declared_bob = False

    def key_declaration(self, rec, rng: RandomSource) -> bool:
        """Detection declaration for a round designated a key round."""
        if not rec.delivered_bob:
            return False
        if self.strategy.kind is AttackKind.EARLY_BELL:
            return not rec.attacked or rec.branch == "good"
        return loss_filter(self.channel.eta / self.channel.eta_prime, rng)

    def fake_key_basis(self, rng: RandomSource, agent_bases) -> Basis:
        """Basis announced for an attacked key round (nothing was measured)."""
        return pick_basis(agent_bases, rng)

    # -- key recovery ------------------------------------------------------

    def recover_dealer_bit(self, rec, basis_class: int, rng: RandomSource) -> int:
        """Read the dealer's key bit off the parked signal pair.

        Once the basis class is public the two candidate states are two
        members of one orthonormal four-state basis (the plain Bell basis
        for class 1, its rotated twin for class 2), so one joint measurement
        distinguishes them with certainty.  Raises ``KeyError`` when the
        pair is no longer held.
        """
        basis = PairBasis.BELL if basis_class == 1 else PairBasis.ROTATED_BELL
        result = rec.registry.measure_pair(("B", "C"), basis, rng)
        outcome = BELL_ORDER[result.index]
        if outcome is BellOutcome.PSI_PLUS:
            return 0
        if outcome is BellOutcome.PHI_MINUS:
            return 1
        raise AssertionError(
            f"impossible recovery outcome {outcome} for class {basis_class}"
        )

    def recover_charlie_outcome(self, rec, charlie_basis: Basis, rng) -> int:
        """Reproduce the other agent's outcome from the kept fake half.

        The substituted pair is correlated identically in both agent bases,
        so measuring the kept half in the announced basis yields the other
        agent's outcome with certainty.  Raises ``KeyError`` when the fake
        half is no longer held.
        """
        return rec.registry.measure(FAKE_BOB, charlie_basis, rng).outcome
