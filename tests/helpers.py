"""State constructors and oracles that only the tests need.

The library builds its states from named constructors and measures pairs in
a ``PairBasis``; tests also need arbitrary amplitudes, products, projections
onto arbitrary pair vectors and a look inside the registry.  ``project_pair``
is computed independently of the library kernels it checks: the pair's axes
are moved to the front and contracted with the vector in one product.

The library draws from a ``RandomSource``; ``GeneratorSource`` puts a numpy
``Generator`` behind one, and ``FixedUniform`` feeds one uniform to every draw.
``TOP_UNIFORM`` is the largest uniform a session draws.
"""

import numpy as np

from triqss.qcore import ZERO_PROB, RandomSource, StateVector


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


def qubit_state(alpha: complex, beta: complex, label: str = "Q") -> StateVector:
    """Single-qubit state ``alpha|0> + beta|1>`` (must be normalized)."""
    return StateVector((label,), np.array([alpha, beta], dtype=complex))


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
