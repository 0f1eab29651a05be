"""Randomized invariant checks over the state-vector core."""

import numpy as np
import pytest

from triqss.qcore import (
    Basis,
    PairBasis,
    measure_qubit,
    measure_two_qubit_basis,
    project_qubit,
)

from helpers import GeneratorSource, custom_state, project_pair

LABEL_SETS = (("Q",), ("B", "C"), ("A", "B", "C"))


def random_state(rng, labels):
    n = 2 ** len(labels)
    return custom_state(labels, rng.normal(size=n) + 1j * rng.normal(size=n))


def random_unitary(rng):
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


class TestRandomizedInvariants:
    def test_unitaries_preserve_norm(self):
        from triqss.qcore import apply_unitary

        rng = np.random.default_rng(101)
        for _ in range(300):
            labels = LABEL_SETS[int(rng.integers(len(LABEL_SETS)))]
            state = random_state(rng, labels)
            label = labels[int(rng.integers(len(labels)))]
            moved = apply_unitary(state, label, random_unitary(rng))
            assert np.linalg.norm(moved.amplitudes) == pytest.approx(1.0, abs=1e-9)

    def test_projection_probabilities_sum_to_one(self):
        rng = np.random.default_rng(103)
        for _ in range(300):
            labels = LABEL_SETS[int(rng.integers(len(LABEL_SETS)))]
            state = random_state(rng, labels)
            label = labels[int(rng.integers(len(labels)))]
            basis = list(Basis)[int(rng.integers(3))]
            total = sum(
                project_qubit(state, label, ket)[0] for ket in basis.eigenvectors
            )
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_measurement_post_state_invariants(self):
        rng = np.random.default_rng(107)
        for _ in range(300):
            labels = LABEL_SETS[int(rng.integers(len(LABEL_SETS)))]
            state = random_state(rng, labels)
            label = labels[int(rng.integers(len(labels)))]
            basis = list(Basis)[int(rng.integers(3))]
            result = measure_qubit(state, label, basis, GeneratorSource(rng))
            assert result.outcome in (+1, -1)
            assert 0.0 <= result.probability <= 1.0
            if len(labels) == 1:
                assert result.post_state is None
            else:
                assert result.post_state.labels == tuple(
                    l for l in labels if l != label
                )
                assert np.linalg.norm(result.post_state.amplitudes) == (
                    pytest.approx(1.0, abs=1e-9)
                )

    def test_sampled_probability_matches_projector(self):
        rng = np.random.default_rng(109)
        for _ in range(300):
            labels = LABEL_SETS[int(rng.integers(len(LABEL_SETS)))]
            state = random_state(rng, labels)
            label = labels[int(rng.integers(len(labels)))]
            basis = list(Basis)[int(rng.integers(3))]
            result = measure_qubit(state, label, basis, GeneratorSource(rng))
            ket = basis.eigenvectors[0 if result.outcome == +1 else 1]
            prob, post = project_qubit(state, label, ket)
            assert result.probability == pytest.approx(prob, abs=1e-9)
            if post is not None:
                fidelity = abs(
                    np.vdot(post.amplitudes, result.post_state.amplitudes)
                ) ** 2
                assert fidelity == pytest.approx(1.0, abs=1e-9)

    def test_pair_measurement_matches_pair_projector(self):
        rng = np.random.default_rng(113)
        bases = tuple(PairBasis)
        for _ in range(300):
            labels = LABEL_SETS[1 + int(rng.integers(2))]
            state = random_state(rng, labels)
            pair = tuple(
                np.array(labels)[rng.permutation(len(labels))][:2]
            )
            basis = bases[int(rng.integers(2))]
            total = sum(project_pair(state, pair, v)[0] for v in basis.vectors)
            assert total == pytest.approx(1.0, abs=1e-9)
            result = measure_two_qubit_basis(state, pair, basis, GeneratorSource(rng))
            prob, _ = project_pair(state, pair, basis.vectors[result.index])
            assert result.probability == pytest.approx(prob, abs=1e-9)

    def test_axis_order_does_not_change_statistics(self):
        rng = np.random.default_rng(127)
        for _ in range(100):
            state = random_state(rng, ("A", "B", "C"))
            flipped = state.reordered(("C", "B", "A"))
            for basis in Basis:
                for ket in basis.eigenvectors:
                    p1, _ = project_qubit(state, "B", ket)
                    p2, _ = project_qubit(flipped, "B", ket)
                    assert p1 == pytest.approx(p2, abs=1e-9)
