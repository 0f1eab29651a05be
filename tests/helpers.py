"""State constructors and oracles that only the tests need.

The library builds its states from named constructors, measures pairs in a
``PairBasis`` and applies only its two repairs; tests also need arbitrary
amplitudes, products, arbitrary unitaries, projections onto arbitrary
single-qubit kets and pair vectors, and a look inside the registry.
``project_qubit`` and ``project_pair`` are computed independently of the
library kernels they check: the measured axes are moved to the front and
contracted with the ket or vector in one product.

The library draws from a ``RandomSource``; ``GeneratorSource`` puts a numpy
``Generator`` behind one, and ``FixedUniform`` feeds one uniform to every draw.
``TOP_UNIFORM`` is the largest uniform a session draws.

``fresh_memos`` gives a test that pushes many states through the measurement
kernels memos of its own, so the shared ones keep their import-time entries.

``unchecked_state`` builds a state the library's constructor refuses, such as
one whose norm is not 1, to probe the checks further down the draw path.

``reference_jsonl`` is the transcript encoder the exporter started as: one
sorted-key dict per line, encoded in full, with no template shared between
rounds.  The exporter must write the same bytes.
"""

import json
import sys
from functools import lru_cache

import numpy as np

from triqss import qcore, registry
from triqss.preparation import HbbPrep, PreparedState
from triqss.protocol import EFFICIENCY_TOLERANCE, ERROR_THRESHOLD
from triqss.qcore import ATOL, ZERO_PROB, RandomSource, StateVector


# The largest uniform a session's table holds: the top 53 bits all set.
TOP_UNIFORM = 1.0 - 2.0**-53


class GeneratorSource(RandomSource):
    """Every draw reads the next ``random()`` of a numpy ``Generator``."""

    def __init__(self, generator: np.random.Generator):
        self.generator = generator

    def random(self) -> float:
        return self.generator.random()


class FixedUniform(RandomSource):
    """Every draw reads the uniform ``u``."""

    def __init__(self, u: float):
        self.u = u

    def random(self) -> float:
        return self.u


def fresh_memos(monkeypatch, *namespaces: dict) -> None:
    """Give every kernel memo a new, empty one until the test ends.

    The bounded memos are shared by every test.  A test that pushes many
    states through them would evict the entries made at import, such as the
    GHZ collapse each ``HbbPrep.state`` is.  Each name a caller looks a memo
    up by is patched: every ``triqss`` module's, and each of ``namespaces``,
    such as a test module's ``globals()``.  Nothing shared is cleared.
    """
    memos = (
        qcore._qubit_kernel,
        qcore._pair_kernel,
        registry._across_kernel,
        qcore.apply_correction,
    )
    fresh = {
        id(memo): lru_cache(maxsize=qcore._MEMO_SIZE)(memo.__wrapped__)
        for memo in memos
    }
    package = [
        vars(module)
        for name, module in list(sys.modules.items())
        if name.partition(".")[0] == "triqss"
    ]
    for namespace in (*package, *namespaces):
        for name, value in list(namespace.items()):
            if id(value) in fresh:
                monkeypatch.setitem(namespace, name, fresh[id(value)])


def qubit_state(alpha: complex, beta: complex, label: str = "Q") -> StateVector:
    """Single-qubit state ``alpha|0> + beta|1>`` (must be normalized)."""
    return StateVector((label,), np.array([alpha, beta], dtype=complex))


def unchecked_state(labels: tuple[str, ...], amplitudes) -> StateVector:
    """A ``StateVector`` over ``amplitudes`` as given, past every check.

    The amplitudes are copied into a read-only complex array; neither their
    shape nor their norm is checked.
    """
    amps = np.array(amplitudes, dtype=complex)
    amps.setflags(write=False)
    state = object.__new__(StateVector)
    object.__setattr__(state, "labels", tuple(labels))
    object.__setattr__(state, "amplitudes", amps)
    return state


def custom_state(labels: tuple[str, ...], amplitudes) -> StateVector:
    """Normalize an explicit amplitude vector into a StateVector.

    Raises ``ValueError`` when the vector cannot be normalized (norm below
    ``1e-12``) or the length does not match the label count.
    """
    amps = np.asarray(amplitudes, dtype=complex)
    norm = float(np.linalg.norm(amps))
    if norm < 1e-12:
        raise ValueError("amplitude vector has (near-)zero norm, cannot normalize")
    return StateVector(tuple(labels), amps / norm)


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product; label sets must be disjoint, total size at most 3."""
    if set(a.labels) & set(b.labels):
        raise ValueError(f"overlapping labels: {a.labels!r} and {b.labels!r}")
    return StateVector(a.labels + b.labels, np.kron(a.amplitudes, b.amplitudes))


def apply_unitary(state: StateVector, label: str, matrix) -> StateVector:
    """Apply a 2x2 unitary to one qubit, returning the new state.

    Raises ``ValueError`` for a matrix that is not 2x2 or not unitary.
    """
    mat = np.asarray(matrix, dtype=complex)
    if mat.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {mat.shape}")
    if not np.allclose(mat @ mat.conj().T, np.eye(2), atol=ATOL):
        raise ValueError("matrix is not unitary")
    ax = state.axis(label)
    out = np.tensordot(mat, state.tensor_view(), axes=([1], [ax]))
    out = np.moveaxis(out, 0, ax)
    return StateVector(state.labels, out.reshape(-1))


def project_qubit(
    state: StateVector, label: str, ket
) -> tuple[float, StateVector | None]:
    """Project one qubit onto a 2-amplitude ket.

    Returns ``(probability, normalized remainder)``; the remainder is ``None``
    when the probability is below ``ZERO_PROB`` or no qubits are left.
    """
    moved = np.moveaxis(state.tensor_view(), state.axis(label), 0).reshape(2, -1)
    residual = np.conjugate(np.asarray(ket, dtype=complex).reshape(2)) @ moved
    prob = float(np.vdot(residual, residual).real)
    if prob < ZERO_PROB:
        return 0.0, None
    rest = tuple(l for l in state.labels if l != label)
    if not rest:
        return prob, None
    return prob, StateVector(rest, residual / np.sqrt(prob))


def project_pair(
    state: StateVector, pair: tuple[str, str], vec4
) -> tuple[float, StateVector | None]:
    """Project two qubits jointly onto a 4-amplitude vector.

    ``vec4`` is ordered with ``pair[0]`` as the most significant bit.
    Returns ``(probability, normalized remainder)``; the remainder is ``None``
    when the probability is below ``ZERO_PROB`` or no qubits are left.
    """
    axes = (state.axis(pair[0]), state.axis(pair[1]))
    moved = np.moveaxis(state.tensor_view(), axes, (0, 1)).reshape(4, -1)
    residual = np.conjugate(np.asarray(vec4, dtype=complex).reshape(4)) @ moved
    prob = float(np.vdot(residual, residual).real)
    if prob < ZERO_PROB:
        return 0.0, None
    rest = tuple(l for l in state.labels if l not in pair)
    if not rest:
        return prob, None
    return prob, StateVector(rest, residual / np.sqrt(prob))


def factor_of(registry, label: str) -> StateVector:
    """The factor of a ``PhotonRegistry`` that holds ``label``.

    Raises ``KeyError`` when no factor does.
    """
    return registry._factors[registry._index_of(label)]


def labels_of(registry) -> set[str]:
    """Every photon label a ``PhotonRegistry`` holds, over all its factors."""
    return {label for f in registry._factors for label in f.labels}


def _prep_json(prep) -> dict:
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


def _announcement_json(a) -> dict:
    payload = list(a.payload) if isinstance(a.payload, tuple) else a.payload
    return {"seq": a.seq, "party": a.party, "kind": a.kind, "payload": payload}


def reference_jsonl(transcript) -> str:
    """The JSONL text of a transcript, one freshly encoded dict per line."""
    config = transcript.config
    by_round: dict[int, list] = {}
    session_level = []
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
            "error_threshold": ERROR_THRESHOLD,
            "efficiency_tolerance": EFFICIENCY_TOLERANCE,
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
    lines = [json.dumps(header, sort_keys=True)]
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
        lines.append(json.dumps(row, sort_keys=True))
    return "".join(line + "\n" for line in lines)
