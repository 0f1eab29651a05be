"""Exact statevector mathematics for one to three labeled qubits.

Everything in this module is small, dense linear algebra over explicit
amplitude vectors.  States are immutable; nothing here mutates its input.
All stochastic operations take an explicit ``RandomSource``, a session's
per-round stream, and make every random decision through its ``coin``,
``pick`` or ``born`` draw, so a fixed seed reproduces the same trajectory.

Joint two-qubit measurements take a ``PairBasis`` member: the Bell basis or
its rotated twin, the only two bases the protocol measures pairs in.

A session revisits the same few states thousands of times, so the sampled
kernels (``measure_qubit``, ``measure_two_qubit_basis`` and
``apply_correction``) are memoized on the state's labels and amplitude bytes.
Every outcome's Born probability and post-state is computed from the
amplitudes once per distinct input; results are then shared between calls
and are immutable (frozen dataclasses over read-only arrays).  Sampling still
draws the same uniforms in the same order, so a seed's trajectory does not
depend on what the memo already holds.

Conventions
-----------
* Amplitudes are stored in the Z product basis with the *first* label as the
  most significant bit, so a two-qubit state over labels ``(B, C)`` orders its
  amplitudes as ``|00>, |01>, |10>, |11>`` with B first.
* Measurement outcomes are ``+1`` (the first eigenvector of the basis) and
  ``-1`` (the second).
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
    """Local unitaries used to repair teleported / swapped states."""

    IDENTITY = "identity"
    SIGMA_X = "sigma_x"
    SIGMA_Z = "sigma_z"
    # i*sigma_y = |0><1| - |1><0|, a real rotation.  Applied by the dishonest
    # agent to his kept photon when his Bell measurement returns the singlet.
    I_SIGMA_Y = "i_sigma_y"

    @property
    def matrix(self) -> np.ndarray:
        return _PAULI_MATRICES[self]


_PAULI_MATRICES: dict[PauliCorrection, np.ndarray] = {
    PauliCorrection.IDENTITY: np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex),
    PauliCorrection.SIGMA_X: np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    PauliCorrection.SIGMA_Z: np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
    PauliCorrection.I_SIGMA_Y: np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex),
}
for _mat in _PAULI_MATRICES.values():
    _mat.setflags(write=False)


class BellOutcome(Enum):
    """The four maximally entangled two-qubit states / Bell outcomes."""

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
    """Result of a projective single-qubit measurement.

    ``post_state`` no longer contains the measured qubit and is ``None`` when
    it was the only one.
    """

    outcome: int
    probability: float
    post_state: StateVector | None


@dataclass(frozen=True)
class PairMeasurement:
    """Result of a joint measurement in an orthonormal two-qubit basis."""

    index: int
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


def apply_unitary(state: StateVector, label: str, matrix: np.ndarray) -> StateVector:
    """Apply a 2x2 unitary to one qubit, returning the new state."""
    mat = np.asarray(matrix, dtype=complex)
    if mat.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {mat.shape}")
    if not np.allclose(mat @ mat.conj().T, np.eye(2), atol=ATOL):
        raise ValueError("matrix is not unitary")
    ax = state.axis(label)
    out = np.tensordot(mat, state.tensor_view(), axes=([1], [ax]))
    out = np.moveaxis(out, 0, ax)
    return StateVector(state.labels, out.reshape(-1))


def apply_correction(
    state: StateVector, label: str, correction: PauliCorrection
) -> StateVector:
    """Apply one of the repair unitaries to the given qubit."""
    if correction is PauliCorrection.IDENTITY:
        state.axis(label)  # still validate the label
        return state
    return _corrected(state.labels, state.amplitudes.tobytes(), label, correction)


# Bound on each kernel memo.  All nine presets together put at most 122
# entries in any one memo; the bound only caps what custom states can add.
_MEMO_SIZE = 1024


def _state_from_bytes(labels: tuple[str, ...], amplitudes: bytes) -> StateVector:
    return StateVector._trusted(labels, np.frombuffer(amplitudes, dtype=complex))


@lru_cache(maxsize=_MEMO_SIZE)
def _corrected(
    labels: tuple[str, ...], amplitudes: bytes, label: str, correction: PauliCorrection
) -> StateVector:
    return apply_unitary(_state_from_bytes(labels, amplitudes), label, correction.matrix)


def _clamp_probability(p: float) -> float:
    if p < ZERO_PROB:
        return 0.0
    return min(p, 1.0)


def _qubit_residual(state: StateVector, label: str, ket: np.ndarray) -> np.ndarray:
    """Unnormalized remainder after projecting one qubit onto ``ket``."""
    ax = state.axis(label)
    view = state.tensor_view()
    if ax == 0:
        v0, v1 = view[0], view[1]
    elif ax == 1:
        v0, v1 = view[:, 0], view[:, 1]
    else:
        v0, v1 = view[:, :, 0], view[:, :, 1]
    return np.conjugate(ket[0]) * v0 + np.conjugate(ket[1]) * v1


def project_qubit(
    state: StateVector, label: str, ket: np.ndarray
) -> tuple[float, StateVector | None]:
    """Project one qubit onto ``ket``.

    Returns ``(probability, normalized remainder)``; the remainder is ``None``
    when the probability clamps to zero or no qubits are left.
    """
    ket = np.asarray(ket, dtype=complex).reshape(2)
    residual = _qubit_residual(state, label, ket)
    prob = _clamp_probability(float(np.vdot(residual, residual).real))
    if prob == 0.0:
        return 0.0, None
    rest = tuple(l for l in state.labels if l != label)
    if not rest:
        return prob, None
    return prob, StateVector._trusted(rest, (residual / np.sqrt(prob)).reshape(-1))


def _pair_residual(
    state: StateVector, pair: tuple[str, str], vec4: np.ndarray
) -> np.ndarray:
    """Unnormalized remainder after projecting two qubits onto ``vec4``."""
    view = state.tensor_view()
    ax1 = state.axis(pair[0])
    ax2 = state.axis(pair[1])
    v = np.conjugate(vec4)
    idx = [slice(None)] * state.num_qubits
    out = None
    for k, (i, j) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
        idx[ax1] = i
        idx[ax2] = j
        term = v[k] * view[tuple(idx)]
        out = term if out is None else out + term
    return out


# A measurement's outcomes and the running sums of their probabilities.
_Branches = tuple[tuple, tuple[float, ...]]


def measure_qubit(
    state: StateVector, label: str, basis: Basis, rng: RandomSource
) -> Measurement:
    """Projective measurement of one qubit, sampled with ``rng``.

    The measured qubit is removed from the returned post-state.
    """
    results, cumulative = _qubit_branches(
        state.labels, state.amplitudes.tobytes(), label, basis
    )
    return results[rng.born(cumulative)]


@lru_cache(maxsize=_MEMO_SIZE)
def _qubit_branches(
    labels: tuple[str, ...], amplitudes: bytes, label: str, basis: Basis
) -> _Branches:
    return _qubit_kernel(_state_from_bytes(labels, amplitudes), label, basis)


def _qubit_kernel(state: StateVector, label: str, basis: Basis) -> _Branches:
    """The +1 and -1 branches of a single-qubit measurement."""
    plus_ket, minus_ket = basis.eigenvectors
    plus = Measurement(+1, *project_qubit(state, label, plus_ket))
    minus = Measurement(-1, *project_qubit(state, label, minus_ket))
    return (plus, minus), (plus.probability, plus.probability + minus.probability)


def measure_two_qubit_basis(
    state: StateVector,
    pair: tuple[str, str],
    basis: PairBasis,
    rng: RandomSource,
) -> PairMeasurement:
    """Joint measurement of two qubits in a ``PairBasis``.

    Outcome ``k`` is row ``k`` of ``basis.vectors``, ordered with ``pair[0]``
    as the most significant bit.  The basis is part of the memo key, so an
    array in its place raises ``TypeError`` (unhashable).
    """
    results, cumulative = _pair_branches(
        state.labels, state.amplitudes.tobytes(), pair, basis
    )
    return results[rng.born(cumulative)]


@lru_cache(maxsize=_MEMO_SIZE)
def _pair_branches(
    labels: tuple[str, ...], amplitudes: bytes, pair: tuple[str, str], basis: PairBasis
) -> _Branches:
    return _pair_kernel(_state_from_bytes(labels, amplitudes), pair, basis)


def _pair_kernel(
    state: StateVector, pair: tuple[str, str], basis: PairBasis
) -> _Branches:
    """All four branches of a joint two-qubit measurement on one state."""
    rest = tuple(l for l in state.labels if l not in pair)
    return _branches_from_residuals(
        (_pair_residual(state, pair, vec) for vec in basis.vectors), rest
    )


def _branches_from_residuals(residuals, rest: tuple[str, ...]) -> _Branches:
    """Branches from the four unnormalized remainders, in row order.

    The post-state over ``rest`` is the normalized remainder, ``None`` when
    nothing is left or the branch cannot occur.
    """
    results = []
    cumulative = []
    acc = 0.0
    for k, residual in enumerate(residuals):
        prob = _clamp_probability(float(np.vdot(residual, residual).real))
        acc += prob
        post = (
            StateVector._trusted(rest, (residual / np.sqrt(prob)).reshape(-1))
            if rest and prob > 0.0
            else None
        )
        results.append(PairMeasurement(k, prob, post))
        cumulative.append(acc)
    return tuple(results), tuple(cumulative)
