"""Dealer-side round preparations for the three schemes.

Three kinds of round leave the dealer's lab:

* entangled-pair rounds: one of the four signal states (``kki``), used for
  every round of the plain scheme and the key rounds of the hardened one;
* GHZ rounds (``hbb``): the dealer keeps one photon and measures it in X or
  Y, which steers the agents' pair into one of four states;
* hardened test rounds: two independent single-photon states, one per leg,
  drawn like check states in prepare-and-measure key distribution.

Each pair preparation carries its class, its bit and the pair ``state`` it
sends; ``conventions`` derives its decoding table from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .qcore import (
    Basis,
    RandomSource,
    SignalTag,
    StateVector,
    _qubit_kernel,
    basis_ket,
    ghz_state,
    measure_qubit,
    signal_state,
)

# What a preparation encodes: (basis class, dealer bit) by signal tag; for the
# GHZ scheme the dealer's basis gives the class and her outcome the bit.
CLASS_BIT_OF_TAG = {
    SignalTag.PSI_PLUS: (1, 0),
    SignalTag.PHI_MINUS: (1, 1),
    SignalTag.PSI_PLUS_ROT: (2, 0),
    SignalTag.PHI_MINUS_ROT: (2, 1),
}
HBB_CLASS_OF_BASIS = {Basis.X: 1, Basis.Y: 2}


def hbb_dealer_bit(outcome: int) -> int:
    """GHZ dealer's key bit for her own measurement outcome (+1 -> 0)."""
    if outcome not in (+1, -1):
        raise ValueError(f"outcome must be +1 or -1, got {outcome}")
    return 0 if outcome == +1 else 1


@dataclass(frozen=True)
class PreparedState:
    """An entangled-pair round: which signal state was sent and what it encodes."""

    tag: SignalTag
    basis_class: int = field(init=False)
    bit: int = field(init=False)
    state: StateVector = field(init=False, compare=False, repr=False)  # over (B, C)

    def __post_init__(self) -> None:
        basis_class, bit = CLASS_BIT_OF_TAG[self.tag]
        object.__setattr__(self, "basis_class", basis_class)
        object.__setattr__(self, "bit", bit)
        object.__setattr__(self, "state", signal_state(self.tag, ("B", "C")))

    @classmethod
    def from_tag(cls, tag: SignalTag) -> "PreparedState":
        return _PREPARED_BY_TAG[tag]


@dataclass(frozen=True)
class HbbPrep:
    """A GHZ round after the dealer measured her own photon."""

    dealer_basis: Basis
    dealer_outcome: int
    basis_class: int = field(init=False)
    bit: int = field(init=False)
    state: StateVector = field(init=False, compare=False, repr=False)  # over (B, C)

    def __post_init__(self) -> None:
        basis = self.dealer_basis
        object.__setattr__(self, "basis_class", HBB_CLASS_OF_BASIS[basis])
        object.__setattr__(self, "bit", hbb_dealer_bit(self.dealer_outcome))
        # The memo entry hbb_reduce samples; branch 0 is outcome +1, bit 0.
        branches, _ = _qubit_kernel(ghz_state(("A", "B", "C")), "A", basis)
        object.__setattr__(self, "state", branches[self.bit].post_state)

    @classmethod
    def from_measurement(cls, dealer_basis: Basis, outcome: int) -> "HbbPrep":
        return _HBB_BY_MEASUREMENT[(dealer_basis, outcome)]


@dataclass(frozen=True)
class HardenedPrep:
    """A hardened test round: independent single-photon states per leg."""

    bob_basis: Basis
    bob_sign: int
    charlie_basis: Basis
    charlie_sign: int


# Every possible preparation, built once and shared by the rounds that draw it.
_PREPARED_BY_TAG = {tag: PreparedState(tag) for tag in CLASS_BIT_OF_TAG}
_HBB_BY_MEASUREMENT = {
    key: HbbPrep(*key) for key in product(HBB_CLASS_OF_BASIS, (+1, -1))
}
_HARDENED_BASES = (Basis.Z, Basis.X)
_HARDENED_BY_DRAW = {
    key: HardenedPrep(*key) for key in product(_HARDENED_BASES, (+1, -1), repeat=2)
}


def hbb_reduce(
    state: StateVector, alice_basis: Basis, rng: RandomSource
) -> tuple[int, StateVector]:
    """Measure the dealer's GHZ photon ``A``, collapsing the agents' pair.

    Returns ``(outcome, two-qubit post state)``: on the GHZ state, the memo
    branch ``HbbPrep`` carries as its ``state``.  The dealer only ever uses
    X or Y here; Z is rejected because it would collapse the agents into a
    product state and leak nothing shareable.
    """
    if alice_basis not in (Basis.X, Basis.Y):
        raise ValueError(f"dealer basis must be X or Y, got {alice_basis}")
    result = measure_qubit(state, "A", alice_basis, rng)
    if result.post_state is None:
        raise ValueError("state has no photons left after the dealer's measurement")
    return result.outcome, result.post_state


def prepare_hardened_test_round(
    rng: RandomSource,
) -> tuple[HardenedPrep, StateVector, StateVector]:
    """Draw a hardened test round: a random basis and eigenstate for B and C."""
    bob_basis = _HARDENED_BASES[rng.pick(2)]
    bob_sign = +1 if rng.coin(0.5) else -1
    charlie_basis = _HARDENED_BASES[rng.pick(2)]
    charlie_sign = +1 if rng.coin(0.5) else -1
    prep = _HARDENED_BY_DRAW[(bob_basis, bob_sign, charlie_basis, charlie_sign)]
    return (
        prep,
        basis_ket(bob_basis, bob_sign, "B"),
        basis_ket(charlie_basis, charlie_sign, "C"),
    )
