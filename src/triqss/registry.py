"""Photon bookkeeping for one protocol round.

A round's quantum state is a product of independent pure-state factors (the
signal pair, a substituted fake pair, collapsed leftovers).  The registry
tracks those factors by qubit label, merges them only through joint
measurements, and never materializes more than three qubits in one factor:
a joint measurement whose targets live in two different factors is contracted
directly, which is exactly the Born rule on the (implicit) product state.
Joint measurements take a ``qcore.PairBasis`` member, the Bell basis or its
rotated twin.

Lost photons are erased by secretly measuring them in Z and discarding the
outcome.  For every statistic visible to the remaining parties this is
equivalent to tracing the photon out, and it keeps all factors pure.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .qcore import (
    _MEMO_SIZE,
    Basis,
    Measurement,
    PairBasis,
    PairMeasurement,
    PauliCorrection,
    RandomSource,
    StateVector,
    _Branches,
    _branches_from_residuals,
    _state_from_bytes,
    apply_correction,
    measure_qubit,
    measure_two_qubit_basis,
)


def pick_basis(bases: tuple[Basis, ...], rng: RandomSource) -> Basis:
    """An agent's basis choice: one of ``bases``, drawn uniformly."""
    return bases[rng.pick(len(bases))]


class PhotonRegistry:
    """Mutable set of disjoint pure-state factors keyed by qubit label."""

    __slots__ = ("_factors",)

    def __init__(self) -> None:
        self._factors: list[StateVector] = []

    def add(self, state: StateVector) -> None:
        existing = self.labels()
        clash = existing & set(state.labels)
        if clash:
            raise ValueError(f"labels already registered: {sorted(clash)!r}")
        self._factors.append(state)

    def labels(self) -> set[str]:
        out: set[str] = set()
        for f in self._factors:
            out.update(f.labels)
        return out

    def has(self, label: str) -> bool:
        for f in self._factors:
            if label in f.labels:
                return True
        return False

    def joint_state(self, labels: tuple[str, ...]) -> StateVector | None:
        """The factor covering exactly ``labels``, axis-aligned, else None.

        Returns None when the labels are spread over several factors or the
        factor holding them also entangles other photons.
        """
        want = set(labels)
        for f in self._factors:
            if want == set(f.labels):
                return f.reordered(tuple(labels))
            if want & set(f.labels):
                return None
        return None

    def apply(self, label: str, correction: PauliCorrection) -> None:
        idx = self._index_of(label)
        self._factors[idx] = apply_correction(self._factors[idx], label, correction)

    def measure(self, label: str, basis: Basis, rng: RandomSource) -> Measurement:
        """Measure one photon; it is removed from the registry."""
        idx = self._index_of(label)
        result = measure_qubit(self._factors[idx], label, basis, rng)
        if result.post_state is None:
            del self._factors[idx]
        else:
            self._factors[idx] = result.post_state
        return result

    def measure_random_basis(
        self, label: str, bases: tuple[Basis, ...], rng: RandomSource
    ) -> tuple[Basis, int]:
        """An agent's measurement: ``pick_basis``, then ``measure`` in it.

        Returns ``(basis, outcome)``.
        """
        basis = pick_basis(bases, rng)
        return basis, self.measure(label, basis, rng).outcome

    def measure_pair(
        self,
        pair: tuple[str, str],
        basis: PairBasis,
        rng: RandomSource,
    ) -> PairMeasurement:
        """Joint two-photon measurement in ``basis``; both photons are removed.

        The photons may live in one factor or in two distinct factors; in the
        latter case the factors are contracted against each candidate vector
        without building their tensor product.  An array in place of the
        basis raises ``TypeError`` before anything changes.
        """
        i1 = self._index_of(pair[0])
        i2 = self._index_of(pair[1])
        if i1 == i2:
            result = measure_two_qubit_basis(self._factors[i1], pair, basis, rng)
            if result.post_state is None:
                del self._factors[i1]
            else:
                self._factors[i1] = result.post_state
            return result
        result = self._measure_pair_across(i1, i2, pair, basis, rng)
        for idx in sorted((i1, i2), reverse=True):
            del self._factors[idx]
        if result.post_state is not None:
            self._factors.append(result.post_state)
        return result

    def discard(self, label: str, rng: RandomSource) -> None:
        """Erase a lost photon (hidden Z measurement, outcome dropped)."""
        self.measure(label, Basis.Z, rng)

    def _index_of(self, label: str) -> int:
        for i, f in enumerate(self._factors):
            if label in f.labels:
                return i
        raise KeyError(f"no photon labeled {label!r}")

    def _measure_pair_across(
        self,
        i1: int,
        i2: int,
        pair: tuple[str, str],
        basis: PairBasis,
        rng: RandomSource,
    ) -> PairMeasurement:
        f1 = self._factors[i1]
        f2 = self._factors[i2]
        results, cumulative = _across_branches(
            f1.labels, f1.amplitudes.tobytes(),
            f2.labels, f2.amplitudes.tobytes(),
            pair, basis,
        )
        return results[rng.born(cumulative)]


@lru_cache(maxsize=_MEMO_SIZE)
def _across_branches(
    labels1: tuple[str, ...],
    amplitudes1: bytes,
    labels2: tuple[str, ...],
    amplitudes2: bytes,
    pair: tuple[str, str],
    basis: PairBasis,
) -> _Branches:
    return _across_kernel(
        _state_from_bytes(labels1, amplitudes1),
        _state_from_bytes(labels2, amplitudes2),
        pair,
        basis,
    )


def _across_kernel(
    f1: StateVector, f2: StateVector, pair: tuple[str, str], basis: PairBasis
) -> _Branches:
    """Branches of a joint measurement across two factors.

    ``pair[0]`` lives in ``f1`` and ``pair[1]`` in ``f2``; the factors are
    contracted against each candidate vector without forming their product.
    """
    # Slicing the moved axis picks the pair[0] (resp. pair[1]) bit; the
    # remaining axes of factor 1 precede those of factor 2.
    t1 = np.moveaxis(f1.tensor_view(), f1.axis(pair[0]), 0)
    t2 = np.moveaxis(f2.tensor_view(), f2.axis(pair[1]), 0)
    rest = tuple(l for l in f1.labels if l != pair[0]) + tuple(
        l for l in f2.labels if l != pair[1]
    )

    def residual(v: np.ndarray) -> np.ndarray:
        out = np.multiply.outer(t1[0], v[0] * t2[0] + v[1] * t2[1])
        out += np.multiply.outer(t1[1], v[2] * t2[0] + v[3] * t2[1])
        return out

    return _branches_from_residuals((residual(vec.conj()) for vec in basis.vectors), rest)
