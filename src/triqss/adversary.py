"""Dishonest-agent attack strategies.

The dishonest agent (Bob, the first recipient) can replace his stretch of
channel with a better one (survival ``eta_prime`` instead of the honest
``eta``) and intercept *both* photons of a round.  He forwards one half of a
fresh maximally entangled pair to the other agent, keeps everything else,
and uses the loss budget ``eta_prime - eta`` to hide the rounds where his
later Bell measurement comes out wrong.

Strategies
----------
An honest session has none: its strategy is ``None``.

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

from .channel import ChannelConfig, ConfigError, _check_probability
from .channel import transmit as loss_filter  # the name the benchmark traces
from .preparation import HardenedPrep
from .qcore import (
    Basis,
    BellOutcome,
    PairBasis,
    PauliCorrection,
    RandomSource,
    bell_state,
)
from .registry import pick_basis


class AttackKind(Enum):
    OPAQUE_DEFERRED = "opaque-deferred"
    EARLY_BELL = "early-bell"


@dataclass(frozen=True)
class AttackStrategy:
    """What the dishonest agent does and how often.

    ``attack_fraction`` of ``None`` means "use the planned fraction", the
    largest value the loss budget of the configured channel pair can hide.
    ``cheating_enabled`` controls whether wrong Bell outcomes are converted
    into loss declarations (the distinctive move of the attack); with it off
    the agent announces the error-prone measurement instead.  ``EARLY_BELL``
    ignores it: its swap happens on interception, before any declaration, so
    a wrong outcome is always declared lost and the session is the same with
    the flag on or off (transcripts still record the flag as given).
    """

    kind: AttackKind = AttackKind.OPAQUE_DEFERRED
    attack_fraction: float | None = None
    cheating_enabled: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.kind, AttackKind):
            raise ConfigError("kind", f"expected an AttackKind, got {self.kind!r}")
        if self.attack_fraction is not None:
            _check_probability("attack_fraction", self.attack_fraction)
        if not isinstance(self.cheating_enabled, bool):
            raise ConfigError(
                "cheating_enabled", f"need a bool, got {self.cheating_enabled!r}"
            )


def plan_attack_fraction(channel: ChannelConfig) -> float:
    """Largest attack fraction the channel's loss budget can conceal.

    Attacked test rounds surface at rate ``eta_prime / 2`` (half the Bell
    outcomes are declared lost) and untouched rounds at ``eta_prime``; the
    blend equals the honest ``eta`` at ``2 (eta' - eta) / eta'``, capped at 1.
    Returns 0 when the replacement channel is no better than the honest one.
    """
    if channel.eta_prime <= channel.eta:
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
        if channel.eta_prime < channel.eta or channel.eta_prime <= 0.0:
            raise ConfigError(
                "channel.eta_prime",
                "an intercepting adversary needs eta_prime >= eta and eta_prime > 0, "
                f"got eta={channel.eta} eta_prime={channel.eta_prime}",
            )
        self.strategy = strategy
        self.channel = channel
        # Share of arrived photons declared, so declarations surface at eta.
        self.keep = channel.eta / channel.eta_prime
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
        rec.attacked = rng.coin(self.fraction)
        if not rng.coin(self.channel.eta_prime):
            for label in ("B", "C"):
                rec.registry.discard(label, rng)
            if rec.attacked:
                rec.branch = "unattackable"
            return
        rec.delivered_bob = True
        rec.attack_mounted = rec.attacked
        if rec.attacked:
            rec.registry.add(bell_state(BellOutcome.PHI_PLUS, (FAKE_BOB, FAKE_CHARLIE)))
        rec.delivered_charlie = loss_filter(self.keep, rng)
        if not rec.delivered_charlie:
            rec.registry.discard(FAKE_CHARLIE if rec.attacked else "C", rng)
        if rec.attacked and self.strategy.kind is AttackKind.EARLY_BELL:
            self._bell_swap(rec, rng)

    def _bell_swap(self, rec, rng: RandomSource) -> None:
        """Bell-measure (kept fake half, intercepted second photon).

        A good outcome is repaired on the kept first photon ``B``; a wrong
        one leaves it error-prone.  Early-bell runs this on interception, the
        deferred strategy once the round is a test round.
        """
        swapped = (FAKE_BOB, "C")
        outcome = rec.registry.measure_pair(swapped, PairBasis.BELL, rng).outcome
        rec.bell_outcome = outcome
        correction = _GOOD_OUTCOMES.get(outcome)
        if correction is None:
            rec.branch = "bad"
        else:
            rec.branch = "good"
            rec.registry.apply("B", correction)  # only the honest-like B is left

    # -- announcements ----------------------------------------------------
    # The round engine declares every lost photon lost; each method below is
    # asked only about a photon that reached Bob.

    def bob_measures_immediately(self, rec) -> bool:
        """Whether Bob measures on arrival: an intercepted photon only once its
        swap came out good, which the deferred strategy has not tried yet."""
        return not rec.attacked or rec.branch == "good"

    def sifting_declaration(self, rec, rng: RandomSource) -> bool:
        """Detection declared before the designation (sifting) or for a key round."""
        if self.strategy.kind is AttackKind.EARLY_BELL:
            return not rec.attacked or rec.branch == "good"
        # Deferred strategy: declare at the honest-looking rate on every
        # round, attacked or not.
        return loss_filter(self.keep, rng)

    key_declaration = sifting_declaration

    def untouched_test_declaration(self, rec, rng: RandomSource) -> bool:
        """Detection declaration for a non-attacked round designated as test.

        Entangled rounds are always declared: attacked test rounds surface at
        half the replacement rate, so untouched ones must surface at the full
        replacement rate for the blend to sit at the honest rate.  Product
        (hardened) test rounds are thinned to the honest rate directly because
        attacked ones are answered at that rate too.
        """
        if self.strategy.kind is AttackKind.EARLY_BELL:
            return True
        if isinstance(rec.preparation, HardenedPrep):
            return loss_filter(self.keep, rng)
        return True

    def respond_test(
        self, rec, rng: RandomSource, loss_branch_available: bool
    ) -> None:
        """Decide whether Bob declares an attacked round designated a test round.

        Sets only ``branch``, ``bell_outcome`` and ``declared_bob``; the round
        engine measures a declared photon.  The deferred strategy swaps now: a
        good outcome is declared, a wrong one is declared lost when
        ``loss_branch_available`` and cheating is enabled, and is otherwise
        declared with its error-prone photon (``"forced"`` when the ordering
        removed the loss branch).  Early-bell swapped on interception and
        declares exactly its good outcomes.  Hardened product test rounds skip
        the pointless swap: the kept photon is the genuine one, so it is
        declared at the advertised rate, unless the detection is already
        public (sifting), which was thinned then.
        """
        if self.strategy.kind is AttackKind.EARLY_BELL:
            rec.declared_bob = rec.branch == "good"
            return
        if isinstance(rec.preparation, HardenedPrep):
            rec.branch = "skipped"
            rec.declared_bob = not loss_branch_available or loss_filter(self.keep, rng)
            return
        self._bell_swap(rec, rng)
        if rec.branch == "bad" and not loss_branch_available:
            rec.branch = "forced"
        rec.declared_bob = rec.branch != "bad" or not self.strategy.cheating_enabled

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
        outcome = rec.registry.measure_pair(("B", "C"), basis, rng).outcome
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
