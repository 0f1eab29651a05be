"""Dealer-side round preparations for the three schemes.

Three kinds of round leave the dealer's lab:

* entangled-pair rounds: one of the four signal states (``kki``), used for
  every round of the plain scheme and the key rounds of the hardened one;
* GHZ rounds (``hbb``): the dealer keeps one photon and measures it in X or
  Y, which steers the agents' pair into one of four states;
* hardened test rounds: two independent single-photon states, one per leg,
  drawn like check states in prepare-and-measure key distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

from .conventions import HBB_CLASS_OF_BASIS, hbb_dealer_bit
from .qcore import (
    Basis,
    Measurement,
    RandomSource,
    SignalTag,
    StateVector,
    basis_ket,
    measure_qubit,
    signal_state,
)

# tag -> (basis class, dealer bit)
_TAG_CLASS_BIT: dict[SignalTag, tuple[int, int]] = {
    SignalTag.PSI_PLUS: (1, 0),
    SignalTag.PHI_MINUS: (1, 1),
    SignalTag.PSI_PLUS_ROT: (2, 0),
    SignalTag.PHI_MINUS_ROT: (2, 1),
}


@dataclass(frozen=True)
class PreparedState:
    """An entangled-pair round: which signal state was sent and what it encodes."""

    tag: SignalTag
    basis_class: int
    bit: int

    def __post_init__(self) -> None:
        expected = _TAG_CLASS_BIT[self.tag]
        if (self.basis_class, self.bit) != expected:
            raise ValueError(
                f"tag {self.tag.value} encodes class/bit {expected}, "
                f"got {(self.basis_class, self.bit)}"
            )

    @classmethod
    def from_tag(cls, tag: SignalTag) -> "PreparedState":
        return _PREPARED_BY_TAG[tag]

    def state(self, labels: tuple[str, str] = ("B", "C")) -> StateVector:
        return signal_state(self.tag, labels)


# The four possible preparations, built (and checked) once.
_PREPARED_BY_TAG = {
    tag: PreparedState(tag, *class_bit) for tag, class_bit in _TAG_CLASS_BIT.items()
}


@dataclass(frozen=True)
class HbbPrep:
    """A GHZ round after the dealer measured her own photon."""

    dealer_basis: Basis
    dealer_outcome: int
    basis_class: int
    bit: int

    @classmethod
    def from_measurement(cls, dealer_basis: Basis, outcome: int) -> "HbbPrep":
        return cls(
            dealer_basis=dealer_basis,
            dealer_outcome=outcome,
            basis_class=HBB_CLASS_OF_BASIS[dealer_basis],
            bit=hbb_dealer_bit(outcome),
        )


@dataclass(frozen=True)
class HardenedPrep:
    """A hardened test round: independent single-photon states per leg."""

    bob_basis: Basis
    bob_sign: int
    charlie_basis: Basis
    charlie_sign: int


def hbb_reduce(
    state: StateVector,
    alice_basis: Basis,
    rng: RandomSource,
    label: str = "A",
) -> tuple[int, StateVector]:
    """Measure the dealer's GHZ photon, collapsing the agents' pair.

    Returns ``(outcome, two-qubit post state)``.  The dealer only ever uses
    X or Y here; Z is rejected because it would collapse the agents into a
    product state and leak nothing shareable.
    """
    if alice_basis not in (Basis.X, Basis.Y):
        raise ValueError(f"dealer basis must be X or Y, got {alice_basis}")
    result: Measurement = measure_qubit(state, label, alice_basis, rng)
    if result.post_state is None:
        raise ValueError("state has no photons left after the dealer's measurement")
    return result.outcome, result.post_state


def prepare_hardened_test_round(
    rng: RandomSource,
    labels: tuple[str, str] = ("B", "C"),
) -> tuple[HardenedPrep, StateVector, StateVector]:
    """Draw a hardened test round: random basis and eigenstate per leg."""
    bases = (Basis.Z, Basis.X)
    bob_basis = bases[int(rng.integers(2))]
    bob_sign = +1 if rng.random() < 0.5 else -1
    charlie_basis = bases[int(rng.integers(2))]
    charlie_sign = +1 if rng.random() < 0.5 else -1
    prep = HardenedPrep(bob_basis, bob_sign, charlie_basis, charlie_sign)
    return (
        prep,
        basis_ket(bob_basis, bob_sign, labels[0]),
        basis_ket(charlie_basis, charlie_sign, labels[1]),
    )
