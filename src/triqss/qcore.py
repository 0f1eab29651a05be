"""Exact statevector mathematics for one to three labeled qubits.

Everything in this module is small, dense linear algebra over explicit
amplitude vectors.  States are immutable; nothing here mutates its input.
All stochastic operations take an explicit ``RandomSource``, a session's
per-round stream, and make every random decision through its ``coin``,
``pick`` or ``born`` draw, so a fixed seed reproduces the same trajectory.

Joint two-qubit measurements take a ``PairBasis`` member: the Bell basis or
its rotated twin, the only two bases the protocol measures pairs in.  A
single-qubit projection has one path: the kernel behind ``measure_qubit``.

A session revisits the same few states thousands of times, so the kernels
behind ``measure_qubit`` and ``measure_two_qubit_basis``, and
``apply_correction`` itself, are memoized (the registry's cross-factor kernel
is the fourth memo), each on its own arguments, the ``StateVector`` object
among them.  A state is immutable and hashes by identity, so an entry can
never go stale, and the memo holds the state alive, so its identity is never
reused.  Equal states are in practice the same object: every state a round
measures starts as a cached constructor's result (``signal_state``,
``bell_state``, ``ghz_state``, ``basis_ket``) and moves on only through
memoized results, whose post-states are shared in turn.  A state built some
other way is merely a miss.  Every outcome's Born probability and post-state
is computed from the amplitudes once per distinct input; results are then
shared between calls and are immutable (frozen dataclasses over read-only
arrays).  Sampling still draws the same uniforms in the same order, so a
seed's trajectory does not depend on what the memo already holds.

The enums that key those memos and the lookup tables (``Basis``,
``PairBasis``, ``SignalTag``, ``BellOutcome``, ``PauliCorrection``) hash by
identity, in C, instead of through ``Enum.__hash__``, a Python-level
``hash(name)`` that an attacked round would otherwise run several times.  No
output depends on hash values: ``Enum``'s own hash already varies with
``PYTHONHASHSEED``, and the golden digests are checked under several seeds.

Conventions
-----------
* Amplitudes are stored in the Z product basis with the *first* label as the
  most significant bit, so a two-qubit state over labels ``(B, C)`` orders its
  amplitudes as ``|00>, |01>, |10>, |11>`` with B first.
* A single-qubit measurement's outcome is ``+1`` (the first eigenvector of
  the basis) or ``-1`` (the second); a joint measurement's is the
  ``BellOutcome`` of its row, ``BELL_ORDER[k]``.
* Born probabilities below ``ZERO_PROB`` are clamped to exactly zero, so
  branches that vanish analytically can never be sampled.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

# Tolerance for exact-algebra checks: norms, orthonormality, unit overlaps.
ATOL = 1e-9
# Born probabilities below this are treated as exactly zero.
ZERO_PROB = 1e-12

_SQ2 = 1.0 / np.sqrt(2.0)


class RandomSource:
    """The three draws every random decision makes, each from one uniform.

    Subclasses supply ``random()``, the next uniform in ``[0, 1)``.
    """

    __slots__ = ()

    def random(self) -> float:
        raise NotImplementedError

    def coin(self, p: float) -> bool:
        """True with probability ``p``: a built-in bool, even for a numpy ``p``."""
        return True if self.random() < p else False

    def pick(self, k: int) -> int:
        """One of ``range(k)``, uniform when ``k`` is a power of two."""
        return int(self.random() * k)

    def born(self, cumulative: tuple[float, ...]) -> int:
        """The branch whose interval of the running sums holds the uniform.

        Past the first branch, a total more than 1e-6 from 1 raises
        ``AssertionError``; past the total, the last branch with positive width.
        """
        k = bisect_right(cumulative, self.random())  # first sum above it
        total = cumulative[-1]
        if k and not abs(total - 1.0) <= 1e-6:
            raise AssertionError(f"probabilities sum to {total}, state not normalized")
        return k if k < len(cumulative) else cumulative.index(total)


class Basis(Enum):
    """Single-qubit measurement basis with an orthonormal eigenvector pair."""

    __hash__ = object.__hash__  # see the module docstring

    Z = "Z"
    X = "X"
    Y = "Y"

    @property
    def eigenvectors(self) -> tuple[np.ndarray, np.ndarray]:
        """Return the (+1, -1) eigenvectors as length-2 complex arrays."""
        return _BASIS_VECTORS[self]


_BASIS_VECTORS: dict[Basis, tuple[np.ndarray, np.ndarray]] = {
    Basis.Z: (
        np.array([1.0, 0.0], dtype=complex),
        np.array([0.0, 1.0], dtype=complex),
    ),
    Basis.X: (
        np.array([_SQ2, _SQ2], dtype=complex),
        np.array([_SQ2, -_SQ2], dtype=complex),
    ),
    Basis.Y: (
        np.array([_SQ2, _SQ2 * 1j], dtype=complex),
        np.array([_SQ2, -_SQ2 * 1j], dtype=complex),
    ),
}
for _b, (_p, _m) in _BASIS_VECTORS.items():
    _p.setflags(write=False)
    _m.setflags(write=False)


class PauliCorrection(Enum):
    """The dishonest agent's repairs of his kept photon after a Bell swap."""

    __hash__ = object.__hash__  # see the module docstring

    # After phi+: nothing to repair.
    IDENTITY = "identity"
    # After the singlet: i*sigma_y = |0><1| - |1><0|, a real rotation.
    I_SIGMA_Y = "i_sigma_y"

    @property
    def matrix(self) -> np.ndarray:
        return _PAULI_MATRICES[self]


_PAULI_MATRICES: dict[PauliCorrection, np.ndarray] = {
    PauliCorrection.IDENTITY: np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex),
    PauliCorrection.I_SIGMA_Y: np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex),
}
for _mat in _PAULI_MATRICES.values():
    _mat.setflags(write=False)


class BellOutcome(Enum):
    """The four maximally entangled two-qubit states / Bell outcomes."""

    __hash__ = object.__hash__  # see the module docstring

    PHI_PLUS = "phi+"
    PHI_MINUS = "phi-"
    PSI_PLUS = "psi+"
    PSI_MINUS = "psi-"

    @property
    def vector(self) -> np.ndarray:
        return _BELL_VECTORS_BY_OUTCOME[self]


# Row order used everywhere a four-outcome joint measurement is sampled.
BELL_ORDER: tuple[BellOutcome, ...] = (
    BellOutcome.PHI_PLUS,
    BellOutcome.PHI_MINUS,
    BellOutcome.PSI_PLUS,
    BellOutcome.PSI_MINUS,
)

_BELL_VECTORS_BY_OUTCOME: dict[BellOutcome, np.ndarray] = {
    BellOutcome.PHI_PLUS: np.array([_SQ2, 0.0, 0.0, _SQ2], dtype=complex),
    BellOutcome.PHI_MINUS: np.array([_SQ2, 0.0, 0.0, -_SQ2], dtype=complex),
    BellOutcome.PSI_PLUS: np.array([0.0, _SQ2, _SQ2, 0.0], dtype=complex),
    BellOutcome.PSI_MINUS: np.array([0.0, _SQ2, -_SQ2, 0.0], dtype=complex),
}
for _vec in _BELL_VECTORS_BY_OUTCOME.values():
    _vec.setflags(write=False)


class SignalTag(Enum):
    """The four two-photon signal states of the entangled-pair scheme.

    The plain tags are Bell pairs whose Z outcomes are anticorrelated
    (``psi+``) or correlated (``phi-``).  The ``*_ROT`` tags are the same two
    states with the second photon rotated from the Z into the X encoding
    (``|0> -> |-x>``, ``|1> -> |+x>``), which swaps which basis pairings are
    correlated.
    """

    __hash__ = object.__hash__  # see the module docstring

    PSI_PLUS = "psi+"
    PHI_MINUS = "phi-"
    PSI_PLUS_ROT = "psi+r"
    PHI_MINUS_ROT = "phi-r"


SIGNAL_ORDER: tuple[SignalTag, ...] = (
    SignalTag.PSI_PLUS,
    SignalTag.PHI_MINUS,
    SignalTag.PSI_PLUS_ROT,
    SignalTag.PHI_MINUS_ROT,
)

_SIGNAL_AMPLITUDES: dict[SignalTag, np.ndarray] = {
    SignalTag.PSI_PLUS: np.array([0.0, _SQ2, _SQ2, 0.0], dtype=complex),
    SignalTag.PHI_MINUS: np.array([_SQ2, 0.0, 0.0, -_SQ2], dtype=complex),
    SignalTag.PSI_PLUS_ROT: np.array([0.5, 0.5, 0.5, -0.5], dtype=complex),
    SignalTag.PHI_MINUS_ROT: np.array([0.5, -0.5, -0.5, -0.5], dtype=complex),
}
for _vec in _SIGNAL_AMPLITUDES.values():
    _vec.setflags(write=False)

# Rotation taking the second photon of a plain signal pair to its rotated
# twin: |0> -> |-x>, |1> -> |+x|.  Columns are the images of |0> and |1>.
ROTATION_SECOND_PHOTON = np.array([[_SQ2, _SQ2], [-_SQ2, _SQ2]], dtype=complex)
ROTATION_SECOND_PHOTON.setflags(write=False)


class PairBasis(Enum):
    """Orthonormal basis of a joint two-qubit measurement.

    Row ``k`` of ``vectors`` is Bell outcome ``BELL_ORDER[k]``, conjugated by
    the second-photon rotation for ``ROTATED_BELL``: there row 2 is the
    bit-0 rotated signal state (rotated ``psi+``) and row 1 the bit-1 one.
    """

    __hash__ = object.__hash__  # see the module docstring

    BELL = "bell"
    ROTATED_BELL = "rotated-bell"

    @property
    def vectors(self) -> np.ndarray:
        """Read-only (4, 4) array of the outcome vectors, one per row."""
        return _PAIR_BASIS_VECTORS[self]


_PAIR_BASIS_VECTORS: dict[PairBasis, np.ndarray] = {
    PairBasis.BELL: np.stack([outcome.vector for outcome in BELL_ORDER]),
    PairBasis.ROTATED_BELL: np.stack(
        [
            (outcome.vector.reshape(2, 2) @ ROTATION_SECOND_PHOTON.T).reshape(-1)
            for outcome in BELL_ORDER
        ]
    ),
}
for _vecs in _PAIR_BASIS_VECTORS.values():
    _vecs.setflags(write=False)


@dataclass(frozen=True, eq=False)
class StateVector:
    """Immutable pure state over 1 to 3 labeled qubits.

    Parameters
    ----------
    labels:
        Distinct qubit labels; the first label is the most significant bit of
        the amplitude index.
    amplitudes:
        Complex amplitudes of length ``2 ** len(labels)`` with unit norm.
    """

    labels: tuple[str, ...]
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        n = len(labels)
        if not 1 <= n <= 3:
            raise ValueError(f"StateVector supports 1..3 qubits, got {n}")
        if len(set(labels)) != n:
            raise ValueError(f"duplicate qubit labels: {labels!r}")
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.shape != (2**n,):
            raise ValueError(
                f"amplitude vector must have shape ({2 ** n},) for labels "
                f"{labels!r}, got {amps.shape}"
            )
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > ATOL:
            raise ValueError(f"state vector norm {norm} differs from 1")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def _trusted(cls, labels: tuple[str, ...], amplitudes: np.ndarray) -> "StateVector":
        """Internal fast path for states already known to be valid.

        ``amplitudes`` must be a fresh, normalized, flat complex array.
        """
        amplitudes.setflags(write=False)
        obj = object.__new__(cls)
        object.__setattr__(obj, "labels", labels)
        object.__setattr__(obj, "amplitudes", amplitudes)
        return obj

    @property
    def num_qubits(self) -> int:
        return len(self.labels)

    def axis(self, label: str) -> int:
        """Tensor axis of ``label`` (0 is most significant)."""
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"no qubit labeled {label!r} in {self.labels!r}") from None

    def tensor_view(self) -> np.ndarray:
        """Amplitudes reshaped to one length-2 axis per qubit."""
        return self.amplitudes.reshape((2,) * self.num_qubits)

    def reordered(self, new_labels: tuple[str, ...]) -> "StateVector":
        """Same state with its qubit axes permuted to ``new_labels``."""
        if set(new_labels) != set(self.labels) or len(new_labels) != len(self.labels):
            raise ValueError(f"cannot reorder {self.labels!r} as {new_labels!r}")
        if new_labels == self.labels:
            return self
        perm = [self.axis(lbl) for lbl in new_labels]
        amps = np.transpose(self.tensor_view(), perm).reshape(-1)
        return StateVector(tuple(new_labels), amps)


@dataclass(frozen=True)
class Measurement:
    """One branch of a projective measurement.

    ``outcome`` is ``+1`` or ``-1`` for a single qubit and the row's
    ``BellOutcome`` for a joint measurement.  ``post_state`` no longer
    contains the measured qubits and is ``None`` when nothing is left or the
    branch cannot occur.
    """

    outcome: int | BellOutcome
    probability: float
    post_state: StateVector | None


def basis_ket(basis: Basis, outcome: int, label: str = "Q") -> StateVector:
    """Eigenstate of ``basis`` with eigenvalue ``outcome`` (+1 or -1)."""
    if outcome not in (+1, -1):
        raise ValueError(f"outcome must be +1 or -1, got {outcome}")
    return _cached_basis_ket(basis, outcome, label)


@lru_cache(maxsize=None)
def _cached_basis_ket(basis: Basis, outcome: int, label: str) -> StateVector:
    vec = basis.eigenvectors[0 if outcome == +1 else 1]
    return StateVector((label,), vec)


def bell_state(kind: BellOutcome, labels: tuple[str, str]) -> StateVector:
    """One of the four Bell pairs over the two given labels."""
    return _cached_bell_state(kind, tuple(labels))


@lru_cache(maxsize=None)
def _cached_bell_state(kind: BellOutcome, labels: tuple[str, str]) -> StateVector:
    return StateVector(labels, kind.vector)


def signal_state(tag: SignalTag, labels: tuple[str, str] = ("B", "C")) -> StateVector:
    """One of the four signal pairs; the second label is the rotated photon."""
    return _cached_signal_state(tag, tuple(labels))


@lru_cache(maxsize=None)
def _cached_signal_state(tag: SignalTag, labels: tuple[str, str]) -> StateVector:
    return StateVector(labels, _SIGNAL_AMPLITUDES[tag])


def ghz_state(labels: tuple[str, str, str] = ("A", "B", "C")) -> StateVector:
    """Three-qubit GHZ state ``(|000> + |111>)/sqrt(2)``."""
    return _cached_ghz_state(tuple(labels))


@lru_cache(maxsize=None)
def _cached_ghz_state(labels: tuple[str, str, str]) -> StateVector:
    amps = np.zeros(8, dtype=complex)
    amps[0] = _SQ2
    amps[7] = _SQ2
    return StateVector(labels, amps)


def overlap(a: StateVector, b: StateVector) -> float:
    """Squared inner product ``|<a|b>|**2``; label sets must match.

    Axis order is aligned automatically, so states over the same qubits in a
    different storage order compare equal.
    """
    if set(a.labels) != set(b.labels):
        raise ValueError(f"label mismatch: {a.labels!r} vs {b.labels!r}")
    b_aligned = b.reordered(a.labels)
    return float(abs(np.vdot(a.amplitudes, b_aligned.amplitudes)) ** 2)


# Bound on each kernel memo.  All 54 preset x ordering x mode combinations,
# 20k rounds each, together put 392 entries in the qubit memo (2 of them, the
# GHZ measurements the preparations read, made at import), 40 in the
# correction memo (half of them identity repairs) and at most 20 in any other
# (seeds 11 and 12 alike); the bound only caps what custom states can add.
_MEMO_SIZE = 1024


@lru_cache(maxsize=_MEMO_SIZE)
def apply_correction(
    state: StateVector, label: str, correction: PauliCorrection
) -> StateVector:
    """Apply one of the repair unitaries to the given qubit."""
    ax = state.axis(label)
    if correction is PauliCorrection.IDENTITY:
        return state
    out = np.tensordot(correction.matrix, state.tensor_view(), axes=([1], [ax]))
    return StateVector(state.labels, np.moveaxis(out, 0, ax).reshape(-1))


def _clamp_probability(p: float) -> float:
    if p < ZERO_PROB:
        return 0.0
    return min(p, 1.0)


def _qubit_residual(state: StateVector, label: str, ket: np.ndarray) -> np.ndarray:
    """Unnormalized remainder after projecting one qubit onto ``ket``."""
    ax = state.axis(label)
    view = state.tensor_view()
    k = np.conjugate(ket)
    return k[0] * view.take(0, ax) + k[1] * view.take(1, ax)


def _pair_residual(
    state: StateVector, pair: tuple[str, str], vec4: np.ndarray
) -> np.ndarray:
    """Unnormalized remainder after projecting two qubits onto ``vec4``."""
    axes = (state.axis(pair[0]), state.axis(pair[1]))
    t = np.moveaxis(state.tensor_view(), axes, (0, 1))
    v = np.conjugate(vec4)
    return v[0] * t[0, 0] + v[1] * t[0, 1] + v[2] * t[1, 0] + v[3] * t[1, 1]


# A measurement's branches and the running sums of their probabilities.
_Branches = tuple[tuple[Measurement, ...], tuple[float, ...]]


def measure_qubit(
    state: StateVector, label: str, basis: Basis, rng: RandomSource
) -> Measurement:
    """Projective measurement of one qubit, sampled with ``rng``.

    The measured qubit is removed from the returned post-state.
    """
    results, cumulative = _qubit_kernel(state, label, basis)
    return results[rng.born(cumulative)]


@lru_cache(maxsize=_MEMO_SIZE)
def _qubit_kernel(state: StateVector, label: str, basis: Basis) -> _Branches:
    """The +1 and -1 branches of a single-qubit measurement."""
    rest = tuple(l for l in state.labels if l != label)
    residuals = (_qubit_residual(state, label, ket) for ket in basis.eigenvectors)
    return _branches_from_residuals(residuals, (+1, -1), rest)


def measure_two_qubit_basis(
    state: StateVector,
    pair: tuple[str, str],
    basis: PairBasis,
    rng: RandomSource,
) -> Measurement:
    """Joint measurement of two qubits in a ``PairBasis``.

    Row ``k`` of ``basis.vectors``, ordered with ``pair[0]`` as the most
    significant bit, is outcome ``BELL_ORDER[k]``.  The basis is part of the
    memo key, so an array in its place raises ``TypeError`` (unhashable).
    """
    results, cumulative = _pair_kernel(state, pair, basis)
    return results[rng.born(cumulative)]


@lru_cache(maxsize=_MEMO_SIZE)
def _pair_kernel(
    state: StateVector, pair: tuple[str, str], basis: PairBasis
) -> _Branches:
    """All four branches of a joint two-qubit measurement on one state."""
    rest = tuple(l for l in state.labels if l not in pair)
    residuals = (_pair_residual(state, pair, vec) for vec in basis.vectors)
    return _branches_from_residuals(residuals, BELL_ORDER, rest)


def _branches_from_residuals(residuals, outcomes, rest: tuple[str, ...]) -> _Branches:
    """Branches from the unnormalized remainders, one per outcome, in order.

    The post-state over ``rest`` is the normalized remainder, ``None`` when
    nothing is left or the branch cannot occur.
    """
    results = []
    cumulative = []
    acc = 0.0
    for outcome, residual in zip(outcomes, residuals):
        prob = _clamp_probability(float(np.vdot(residual, residual).real))
        acc += prob
        post = (
            StateVector._trusted(rest, (residual / np.sqrt(prob)).reshape(-1))
            if rest and prob > 0.0
            else None
        )
        results.append(Measurement(outcome, prob, post))
        cumulative.append(acc)
    return tuple(results), tuple(cumulative)
