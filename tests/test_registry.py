"""Unit tests for the per-round photon registry.

The cross-factor joint measurement is the registry's only nontrivial
operation, so it is checked against a brute-force oracle that builds the
full product state with ``np.kron`` and applies the Born rule directly.
"""

import numpy as np
import pytest

from triqss.qcore import (
    ATOL,
    BELL_ORDER,
    Basis,
    BellOutcome,
    PauliCorrection,
    SignalTag,
    PairBasis,
    StateVector,
    basis_ket,
    bell_state,
    ghz_state,
    overlap,
    signal_state,
)
from triqss.registry import PhotonRegistry

from helpers import (
    FixedUniform,
    GeneratorSource,
    custom_state,
    factor_of,
    labels_of,
)


def kron_all(*vectors):
    out = vectors[0]
    for v in vectors[1:]:
        out = np.kron(out, v)
    return out


class TestBookkeeping:
    def test_add_and_lookup(self):
        reg = PhotonRegistry()
        pair = signal_state(SignalTag.PSI_PLUS, ("B", "C"))
        reg.add(pair)
        assert labels_of(reg) == {"B", "C"}
        assert reg.has("B") and not reg.has("A")
        assert factor_of(reg, "C") is pair
        with pytest.raises(KeyError, match="no photon"):
            factor_of(reg, "A")

    def test_add_rejects_duplicate_labels(self):
        reg = PhotonRegistry()
        reg.add(basis_ket(Basis.Z, +1, "B"))
        with pytest.raises(ValueError, match="already registered"):
            reg.add(bell_state(BellOutcome.PHI_PLUS, ("B", "C")))

    def test_joint_state_requires_exact_factor(self):
        reg = PhotonRegistry()
        reg.add(signal_state(SignalTag.PHI_MINUS, ("B", "C")))
        reg.add(basis_ket(Basis.X, -1, "B'"))
        got = reg.joint_state(("C", "B"))
        assert got.labels == ("C", "B")
        assert overlap(got, signal_state(SignalTag.PHI_MINUS, ("B", "C"))) == (
            pytest.approx(1.0, abs=ATOL)
        )
        # Spanning two factors, or a strict subset of one, gives None.
        assert reg.joint_state(("B", "B'")) is None
        assert reg.joint_state(("B",)) is None
        assert reg.joint_state(("X", "Y")) is None

    def test_apply_correction_in_place(self):
        reg = PhotonRegistry()
        reg.add(bell_state(BellOutcome.PSI_MINUS, ("B", "C")))
        reg.apply("B", PauliCorrection.I_SIGMA_Y)
        got = reg.joint_state(("B", "C"))
        target = bell_state(BellOutcome.PHI_PLUS, ("B", "C"))
        assert overlap(got, target) == pytest.approx(1.0, abs=ATOL)

    def test_measure_removes_photon(self):
        reg = PhotonRegistry()
        reg.add(ghz_state(("A", "B", "C")))
        rng = GeneratorSource(np.random.default_rng(3))
        result = reg.measure("A", Basis.X, rng)
        assert result.outcome in (+1, -1)
        assert labels_of(reg) == {"B", "C"}
        lone = reg.measure("B", Basis.Z, rng)
        assert labels_of(reg) == {"C"}
        assert lone.post_state.labels == ("C",)
        reg.measure("C", Basis.Z, rng)
        assert labels_of(reg) == set()

    def test_discard_removes_photon_and_keeps_marginals(self):
        # Dropping one photon of psi+ leaves the other maximally mixed:
        # X statistics on the survivor must stay 50/50.
        rng = GeneratorSource(np.random.default_rng(5))
        plus = 0
        n = 2000
        for _ in range(n):
            reg = PhotonRegistry()
            reg.add(signal_state(SignalTag.PSI_PLUS, ("B", "C")))
            reg.discard("C", rng)
            assert labels_of(reg) == {"B"}
            if reg.measure("B", Basis.X, rng).outcome == +1:
                plus += 1
        assert plus / n == pytest.approx(0.5, abs=0.03)


class TestSameFactorPairMeasurement:
    def test_identifies_bell_states_and_removes_photons(self):
        rng = GeneratorSource(np.random.default_rng(7))
        for kind in BELL_ORDER:
            reg = PhotonRegistry()
            reg.add(bell_state(kind, ("B'", "C")))
            result = reg.measure_pair(("B'", "C"), PairBasis.BELL, rng)
            assert result.outcome is kind
            assert result.probability == pytest.approx(1.0, abs=ATOL)
            assert labels_of(reg) == set()

    def test_keeps_remainder_inside_factor(self):
        rng = GeneratorSource(np.random.default_rng(9))
        reg = PhotonRegistry()
        reg.add(ghz_state(("A", "B", "C")))
        result = reg.measure_pair(("B", "C"), PairBasis.BELL, rng)
        assert result.outcome in (BellOutcome.PHI_PLUS, BellOutcome.PHI_MINUS)
        assert labels_of(reg) == {"A"}
        assert factor_of(reg, "A").num_qubits == 1


class TestCrossFactorPairMeasurement:
    def oracle(self, f1, f2, pair, vecs, u):
        """Brute-force Born rule on the explicit kron product state."""
        labels = f1.labels + f2.labels
        full = kron_all(f1.amplitudes, f2.amplitudes)
        n = len(labels)
        view = full.reshape((2,) * n)
        ax1, ax2 = labels.index(pair[0]), labels.index(pair[1])
        moved = np.moveaxis(view, (ax1, ax2), (0, 1)).reshape(4, -1)
        acc = 0.0
        for k in range(4):
            residual = np.conjugate(vecs[k]) @ moved
            prob = float(np.vdot(residual, residual).real)
            acc += prob
            if u < acc or k == 3:
                rest = tuple(l for l in labels if l not in pair)
                if not rest or prob <= 0.0:
                    return k, prob, None
                post = residual / np.sqrt(prob)
                return k, prob, StateVector(rest, post)
        raise AssertionError("unreachable")

    @pytest.mark.parametrize("u", [0.05, 0.3, 0.55, 0.8, 0.99])
    def test_swap_measurement_matches_kron_oracle(self, u):
        # The interception layout: fake pair (B', C') in one factor, signal
        # pair (B, C) in another; Bell measurement across (B', C).
        for tag in SignalTag:
            reg = PhotonRegistry()
            fake = bell_state(BellOutcome.PHI_PLUS, ("B'", "C'"))
            sig = signal_state(tag, ("B", "C"))
            reg.add(fake)
            reg.add(sig)
            result = reg.measure_pair(("B'", "C"), PairBasis.BELL, FixedUniform(u))
            want_idx, want_prob, want_post = self.oracle(
                fake, sig, ("B'", "C"), PairBasis.BELL.vectors, u
            )
            assert result.outcome is BELL_ORDER[want_idx]
            assert result.probability == pytest.approx(want_prob, abs=ATOL)
            got_post = reg.joint_state(("B", "C'"))
            assert got_post is not None
            assert overlap(got_post, want_post) == pytest.approx(1.0, abs=ATOL)

    def test_collapse_is_pauli_twisted_signal(self):
        # After swapping, (B, C') carries the signal state twisted by the
        # Pauli matching the Bell outcome on the second photon.
        paulis = {
            0: np.eye(2),
            1: np.array([[1, 0], [0, -1]], complex),
            2: np.array([[0, 1], [1, 0]], complex),
            3: np.array([[0, 1], [-1, 0]], complex),
        }
        for tag in SignalTag:
            for idx, u in enumerate((0.1, 0.35, 0.6, 0.85)):
                reg = PhotonRegistry()
                reg.add(bell_state(BellOutcome.PHI_PLUS, ("B'", "C'")))
                reg.add(signal_state(tag, ("B", "C")))
                result = reg.measure_pair(("B'", "C"), PairBasis.BELL, FixedUniform(u))
                assert result.outcome is BELL_ORDER[idx]
                got = reg.joint_state(("B", "C'"))
                sig = signal_state(tag, ("B", "C")).amplitudes.reshape(2, 2)
                expected = (sig @ paulis[idx].T).reshape(-1)
                fidelity = abs(np.vdot(expected, got.amplitudes)) ** 2 / (
                    np.vdot(expected, expected).real
                )
                assert fidelity == pytest.approx(1.0, abs=ATOL)
                # Every Bell outcome of the swap is equally likely.
                assert result.probability == pytest.approx(0.25, abs=ATOL)

    def test_two_plus_one_factor_contraction(self):
        # Pair measurement across a two-qubit factor and a lone qubit.
        for u in (0.2, 0.7):
            reg = PhotonRegistry()
            pair = bell_state(BellOutcome.PHI_PLUS, ("B'", "C'"))
            lone = custom_state(("C",), [0.6, 0.8])
            reg.add(pair)
            reg.add(lone)
            result = reg.measure_pair(("B'", "C"), PairBasis.BELL, FixedUniform(u))
            want_idx, want_prob, want_post = self.oracle(
                pair, lone, ("B'", "C"), PairBasis.BELL.vectors, u
            )
            assert result.outcome is BELL_ORDER[want_idx]
            assert result.probability == pytest.approx(want_prob, abs=ATOL)
            got = factor_of(reg, "C'")
            assert got.labels == ("C'",)
            assert overlap(got, want_post) == pytest.approx(1.0, abs=ATOL)

    def test_two_lone_qubits_leave_no_remainder(self):
        reg = PhotonRegistry()
        reg.add(custom_state(("B'",), [0.8, 0.6]))
        reg.add(custom_state(("C",), [0.6, -0.8]))
        result = reg.measure_pair(("B'", "C"), PairBasis.BELL, FixedUniform(0.5))
        assert result.post_state is None
        assert labels_of(reg) == set()

    def test_probabilities_total_one_across_outcomes(self):
        for tag in SignalTag:
            total = 0.0
            for u in (0.05, 0.3, 0.55, 0.8):
                reg = PhotonRegistry()
                reg.add(bell_state(BellOutcome.PHI_PLUS, ("B'", "C'")))
                reg.add(signal_state(tag, ("B", "C")))
                result = reg.measure_pair(("B'", "C"), PairBasis.BELL, FixedUniform(u))
                total += result.probability
            assert total == pytest.approx(1.0, abs=ATOL)

