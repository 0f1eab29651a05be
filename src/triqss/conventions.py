"""Bit-extraction conventions for the two entangled-pair schemes.

For each signal class and each correlated basis pairing, the two agents'
outcomes are perfectly (anti)correlated and the convention table maps each
party's outcome to a key bit so that ``k_bob XOR k_charlie`` equals the
dealer's bit.  The table is generated by brute force from the states the
interned preparations of :mod:`triqss.preparation` carry, measured through
the same single-qubit kernel the sessions use, and shipped as a JSON
artifact; a test regenerates it and asserts equality, so the checked-in file
can never drift from what the dealer sends.

The schemes are the members of :class:`Scheme`.  ``Scheme.KKI`` is the
four-state entangled-pair scheme whose agents measure in Z/X;
``Scheme.HARDENED_KKI`` decodes its entangled rounds by the same rules;
``Scheme.HBB`` is the GHZ scheme whose agents measure in X/Y and whose dealer
measures her own photon instead of choosing a state.  The artifact keys each
scheme's block by its ``value``.
"""

from __future__ import annotations

import json
from enum import Enum
from functools import lru_cache
from importlib import resources

from .preparation import _HBB_BY_MEASUREMENT, _PREPARED_BY_TAG
from .qcore import Basis, StateVector, _qubit_kernel


class Scheme(Enum):
    KKI = "kki"
    HBB = "hbb"
    HARDENED_KKI = "hardened-kki"

    @property
    def agent_bases(self) -> tuple[Basis, Basis]:
        if self is Scheme.HBB:
            return (Basis.X, Basis.Y)
        return (Basis.Z, Basis.X)


_DATA_FILE = "bit_conventions.json"
_PROB_ATOL = 1e-9


def _class_states(scheme: Scheme) -> dict[int, dict[int, StateVector]]:
    """Map basis class -> dealer bit -> two-qubit state over (B, C), read off
    the scheme's interned preparations."""
    if scheme is Scheme.KKI:
        preps = _PREPARED_BY_TAG.values()
    elif scheme is Scheme.HBB:
        preps = _HBB_BY_MEASUREMENT.values()
    else:
        raise ValueError(f"unknown scheme: {scheme!r}")
    states: dict[int, dict[int, StateVector]] = {}
    for prep in preps:
        states.setdefault(prep.basis_class, {})[prep.bit] = prep.state
    return states


def _pair_distribution(
    state: StateVector, bob_basis: Basis, charlie_basis: Basis
) -> dict[tuple[int, int], float]:
    """Joint outcome distribution when B and C are measured locally; an
    outcome pair whose Bob branch cannot occur is left out."""
    return {
        (bob.outcome, charlie.outcome): bob.probability * charlie.probability
        for bob in _qubit_kernel(state, "B", bob_basis)[0]
        if bob.post_state is not None
        for charlie in _qubit_kernel(bob.post_state, "C", charlie_basis)[0]
    }


def _support(dist: dict[tuple[int, int], float]) -> set[tuple[int, int]]:
    return {k for k, p in dist.items() if p > _PROB_ATOL}


def _sign_key(outcome: int) -> str:
    return "+" if outcome == +1 else "-"


def generate_convention_table() -> dict:
    """Brute-force the full convention table for both schemes.

    A basis pairing is *correlated* for a class when both class states are
    supported on exactly two outcome pairs of probability 1/2 each and the
    two supports are disjoint.  Bob's map is fixed (+1 -> 0); Charlie's map
    is read off the bit-0 state and verified against the bit-1 state.
    """
    table: dict = {"schema": 1, "schemes": {}}
    for scheme in (Scheme.KKI, Scheme.HBB):  # HARDENED_KKI shares the KKI block
        bases = scheme.agent_bases
        classes: dict = {}
        for basis_class, by_bit in _class_states(scheme).items():
            pairs: dict = {}
            for bob_basis in bases:
                for charlie_basis in bases:
                    d0 = _pair_distribution(by_bit[0], bob_basis, charlie_basis)
                    d1 = _pair_distribution(by_bit[1], bob_basis, charlie_basis)
                    s0, s1 = _support(d0), _support(d1)
                    halves0 = all(abs(d0[k] - 0.5) < _PROB_ATOL for k in s0)
                    halves1 = all(abs(d1[k] - 0.5) < _PROB_ATOL for k in s1)
                    if not (
                        len(s0) == 2
                        and len(s1) == 2
                        and not (s0 & s1)
                        and halves0
                        and halves1
                    ):
                        continue  # uncorrelated pairing, announced rounds discarded
                    bob_map = {+1: 0, -1: 1}
                    charlie_map: dict[int, int] = {}
                    for ob, oc in s0:
                        charlie_map[oc] = bob_map[ob]  # XOR must give bit 0
                    if len(charlie_map) != 2:
                        raise AssertionError(
                            f"degenerate support for {scheme.value} class {basis_class}"
                        )
                    for ob, oc in s1:
                        if bob_map[ob] ^ charlie_map[oc] != 1:
                            raise AssertionError(
                                f"inconsistent convention for {scheme.value} class "
                                f"{basis_class} {bob_basis.value}|{charlie_basis.value}"
                            )
                    pairs[f"{bob_basis.value}|{charlie_basis.value}"] = {
                        "bob": {_sign_key(o): b for o, b in bob_map.items()},
                        "charlie": {_sign_key(o): b for o, b in charlie_map.items()},
                    }
            if len(pairs) != 2:
                raise AssertionError(
                    f"{scheme.value} class {basis_class}: expected 2 correlated "
                    f"pairings, found {sorted(pairs)}"
                )
            classes[str(basis_class)] = pairs
        table["schemes"][scheme.value] = {
            "allowed_bases": [b.value for b in bases],
            "classes": classes,
        }
    return table


@lru_cache(maxsize=1)
def load_convention_table() -> dict:
    """The checked-in convention table artifact."""
    text = resources.files(__package__).joinpath("data", _DATA_FILE).read_text("utf-8")
    return json.loads(text)


def _build_rules() -> dict[tuple[Scheme, int, Basis, Basis], dict | None]:
    """Key the artifact by (scheme, class, Bob's basis, Charlie's basis).

    Every pairing of a scheme's agent bases has an entry: the rule
    (party -> outcome -> bit) of a correlated pairing, ``None`` otherwise.
    """
    schemes = load_convention_table()["schemes"]
    rules = {}
    for scheme in Scheme:
        block = schemes[(Scheme.KKI if scheme is Scheme.HARDENED_KKI else scheme).value]
        for basis_class, pairs in block["classes"].items():
            for bob_basis in scheme.agent_bases:
                for charlie_basis in scheme.agent_bases:
                    rule = pairs.get(f"{bob_basis.value}|{charlie_basis.value}")
                    rules[(scheme, int(basis_class), bob_basis, charlie_basis)] = (
                        None
                        if rule is None
                        else {
                            party: {+1: by_sign["+"], -1: by_sign["-"]}
                            for party, by_sign in rule.items()
                        }
                    )
    return rules


_RULES = _build_rules()


def correlated_bases(
    basis_class: int,
    bob_basis: Basis,
    charlie_basis: Basis,
    scheme: Scheme = Scheme.KKI,
) -> bool:
    """Whether this basis pairing yields correlated outcomes for the class.

    Raises ``ValueError`` for an unknown scheme, bases the scheme never uses
    (e.g. Y in the entangled-pair scheme) or an unknown class.
    """
    try:
        return _RULES[(scheme, basis_class, bob_basis, charlie_basis)] is not None
    except KeyError:
        pass
    if not isinstance(scheme, Scheme):
        raise ValueError(f"unknown scheme: {scheme!r}")
    allowed = scheme.agent_bases
    for who, basis in (("bob", bob_basis), ("charlie", charlie_basis)):
        if basis not in allowed:
            raise ValueError(
                f"{who} basis {basis.value} is not used by scheme {scheme.value!r} "
                f"(allowed: {'/'.join(b.value for b in allowed)})"
            )
    raise ValueError(f"unknown basis class {basis_class} for scheme {scheme.value!r}")


def convention_bit(
    scheme: Scheme,
    basis_class: int,
    bob_basis: Basis,
    charlie_basis: Basis,
    party: str,
    outcome: int,
) -> int:
    """Key bit a party extracts from an outcome under a correlated pairing."""
    if party not in ("bob", "charlie"):
        raise ValueError(f"party must be 'bob' or 'charlie', got {party!r}")
    if outcome not in (+1, -1):
        raise ValueError(f"outcome must be +1 or -1, got {outcome}")
    rule = _RULES.get((scheme, basis_class, bob_basis, charlie_basis))
    if rule is None:
        correlated_bases(basis_class, bob_basis, charlie_basis, scheme)  # bad input raises
        raise ValueError(
            f"bases {bob_basis.value}|{charlie_basis.value} are not correlated "
            f"for class {basis_class} in scheme {scheme.value!r}"
        )
    return rule[party][outcome]

