"""Unit tests for the labeled state-vector core."""

import numpy as np
import pytest

from triqss.qcore import (
    ATOL,
    BELL_ORDER,
    ROTATION_SECOND_PHOTON,
    SIGNAL_ORDER,
    Basis,
    BellOutcome,
    PairBasis,
    PauliCorrection,
    SignalTag,
    StateVector,
    apply_correction,
    basis_ket,
    bell_state,
    ghz_state,
    measure_qubit,
    measure_two_qubit_basis,
    overlap,
    signal_state,
)
from triqss.registry import PhotonRegistry

from helpers import (
    TOP_UNIFORM,
    FixedUniform,
    GeneratorSource,
    apply_unitary,
    custom_state,
    project_pair,
    project_qubit,
    qubit_state,
    tensor,
)

SQ2 = 1.0 / np.sqrt(2.0)


def random_state(rng, labels):
    """Haar-ish random pure state from complex normal amplitudes."""
    n = 2 ** len(labels)
    amps = rng.normal(size=n) + 1j * rng.normal(size=n)
    return custom_state(labels, amps)


def random_unitary(rng):
    """Haar-random 2x2 unitary via QR with phase fixing."""
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


class TestStateVector:
    def test_rejects_unnormalized_amplitudes(self):
        with pytest.raises(ValueError, match="norm"):
            StateVector(("Q",), np.array([1.0, 1.0]))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError, match="duplicate"):
            StateVector(("B", "B"), np.array([SQ2, 0.0, 0.0, SQ2]))

    def test_rejects_more_than_three_qubits(self):
        amps = np.zeros(16)
        amps[0] = 1.0
        with pytest.raises(ValueError, match="1..3"):
            StateVector(("A", "B", "C", "D"), amps)

    def test_rejects_wrong_amplitude_length(self):
        with pytest.raises(ValueError, match="shape"):
            StateVector(("B", "C"), np.array([1.0, 0.0]))

    def test_amplitudes_are_read_only(self):
        state = qubit_state(1.0, 0.0)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0

    def test_constructor_copies_input_array(self):
        amps = np.array([1.0, 0.0], dtype=complex)
        state = StateVector(("Q",), amps)
        amps[0] = 0.5
        assert state.amplitudes[0] == 1.0

    def test_axis_lookup_and_error(self):
        state = ghz_state(("A", "B", "C"))
        assert [state.axis(l) for l in ("A", "B", "C")] == [0, 1, 2]
        with pytest.raises(ValueError, match="no qubit labeled"):
            state.axis("D")

    def test_reordered_permutes_axes(self):
        # |01> over (B, C) becomes |10> over (C, B).
        state = StateVector(("B", "C"), np.array([0.0, 1.0, 0.0, 0.0]))
        flipped = state.reordered(("C", "B"))
        assert flipped.labels == ("C", "B")
        np.testing.assert_allclose(flipped.amplitudes, [0.0, 0.0, 1.0, 0.0])

    def test_reordered_rejects_label_mismatch(self):
        state = bell_state(BellOutcome.PHI_PLUS, ("B", "C"))
        with pytest.raises(ValueError, match="reorder"):
            state.reordered(("B", "X"))

    def test_reordered_roundtrip_preserves_overlap(self):
        rng = np.random.default_rng(7)
        state = random_state(rng, ("A", "B", "C"))
        back = state.reordered(("C", "A", "B")).reordered(("A", "B", "C"))
        np.testing.assert_allclose(back.amplitudes, state.amplitudes, atol=ATOL)


class TestCanonicalStates:
    def test_bell_amplitudes(self):
        expected = {
            BellOutcome.PHI_PLUS: [SQ2, 0, 0, SQ2],
            BellOutcome.PHI_MINUS: [SQ2, 0, 0, -SQ2],
            BellOutcome.PSI_PLUS: [0, SQ2, SQ2, 0],
            BellOutcome.PSI_MINUS: [0, SQ2, -SQ2, 0],
        }
        for kind, amps in expected.items():
            state = bell_state(kind, ("B", "C"))
            np.testing.assert_allclose(state.amplitudes, amps, atol=ATOL)

    def test_signal_amplitudes(self):
        expected = {
            SignalTag.PSI_PLUS: [0, SQ2, SQ2, 0],
            SignalTag.PHI_MINUS: [SQ2, 0, 0, -SQ2],
            SignalTag.PSI_PLUS_ROT: [0.5, 0.5, 0.5, -0.5],
            SignalTag.PHI_MINUS_ROT: [0.5, -0.5, -0.5, -0.5],
        }
        for tag, amps in expected.items():
            state = signal_state(tag)
            assert state.labels == ("B", "C")
            np.testing.assert_allclose(state.amplitudes, amps, atol=ATOL)

    def test_rotated_signals_come_from_second_photon_rotation(self):
        pairs = {
            SignalTag.PSI_PLUS: SignalTag.PSI_PLUS_ROT,
            SignalTag.PHI_MINUS: SignalTag.PHI_MINUS_ROT,
        }
        for plain, rotated in pairs.items():
            turned = apply_unitary(
                signal_state(plain), "C", ROTATION_SECOND_PHOTON
            )
            assert overlap(turned, signal_state(rotated)) >= 1.0 - ATOL

    def test_ghz_amplitudes(self):
        state = ghz_state()
        expected = np.zeros(8)
        expected[0] = SQ2
        expected[7] = SQ2
        np.testing.assert_allclose(state.amplitudes, expected, atol=ATOL)

    def test_basis_eigenvectors_orthonormal(self):
        for basis in Basis:
            plus, minus = basis.eigenvectors
            assert abs(np.vdot(plus, plus) - 1.0) < ATOL
            assert abs(np.vdot(minus, minus) - 1.0) < ATOL
            assert abs(np.vdot(plus, minus)) < ATOL

    def test_basis_ket_matches_eigenvectors(self):
        ket = basis_ket(Basis.Y, -1, "C")
        np.testing.assert_allclose(ket.amplitudes, [SQ2, -SQ2 * 1j], atol=ATOL)
        with pytest.raises(ValueError, match="outcome"):
            basis_ket(Basis.Z, 0)

    def test_cached_constructors_share_but_cannot_mutate(self):
        a = bell_state(BellOutcome.PHI_PLUS, ("B", "C"))
        b = bell_state(BellOutcome.PHI_PLUS, ("B", "C"))
        assert a is b
        with pytest.raises(ValueError):
            a.amplitudes[0] = 9.0

    def test_custom_state_normalizes(self):
        state = custom_state(("Q",), [3.0, 4.0])
        np.testing.assert_allclose(state.amplitudes, [0.6, 0.8], atol=ATOL)
        with pytest.raises(ValueError, match="zero norm"):
            custom_state(("Q",), [0.0, 0.0])

    def test_named_state_constructors(self):
        assert signal_state(SignalTag.PSI_PLUS).labels == ("B", "C")
        assert bell_state(BellOutcome.PHI_PLUS, ("B'", "C'")).labels == ("B'", "C'")
        assert ghz_state().num_qubits == 3
        ket = basis_ket(Basis.X, -1, "B")
        assert ket.labels == ("B",)
        np.testing.assert_allclose(ket.amplitudes, [SQ2, -SQ2], atol=ATOL)


class TestOperators:
    def test_tensor_orders_labels(self):
        left = qubit_state(0.0, 1.0, "B")
        right = qubit_state(1.0, 0.0, "C")
        prod = tensor(left, right)
        assert prod.labels == ("B", "C")
        np.testing.assert_allclose(prod.amplitudes, [0, 0, 1, 0], atol=ATOL)

    def test_tensor_rejects_shared_labels(self):
        with pytest.raises(ValueError, match="overlapping"):
            tensor(qubit_state(1, 0, "B"), qubit_state(1, 0, "B"))

    def test_overlap_is_order_insensitive(self):
        rng = np.random.default_rng(3)
        state = random_state(rng, ("B", "C"))
        assert overlap(state, state.reordered(("C", "B"))) == pytest.approx(1.0)

    def test_overlap_rejects_label_mismatch(self):
        with pytest.raises(ValueError, match="label mismatch"):
            overlap(qubit_state(1, 0, "B"), qubit_state(1, 0, "C"))

    @pytest.mark.parametrize("labels", [("B",), ("B", "C"), ("A", "B", "C")])
    def test_apply_correction_matches_kron_oracle(self, labels):
        rng = np.random.default_rng(11)
        for _ in range(5):
            state = random_state(rng, labels)
            for target, label in enumerate(labels):
                for correction in PauliCorrection:
                    got = apply_correction(state, label, correction)
                    ops = [np.eye(2)] * len(labels)
                    ops[target] = correction.matrix
                    full = ops[0]
                    for op in ops[1:]:
                        full = np.kron(full, op)
                    assert got.labels == labels
                    np.testing.assert_allclose(
                        got.amplitudes, full @ state.amplitudes, atol=1e-12
                    )

    def test_apply_unitary_rejects_non_unitary(self):
        # The tests' general rotation checks its matrix; the library's two
        # repairs are pinned unitary below.
        with pytest.raises(ValueError, match="not unitary"):
            apply_unitary(qubit_state(1, 0), "Q", np.array([[1, 1], [0, 1]]))
        with pytest.raises(ValueError, match="2x2"):
            apply_unitary(qubit_state(1, 0), "Q", np.eye(3))

    @pytest.mark.parametrize("correction", list(PauliCorrection))
    def test_correction_matrices_are_unitary(self, correction):
        mat = correction.matrix
        assert mat.shape == (2, 2)
        np.testing.assert_allclose(mat @ mat.conj().T, np.eye(2), atol=1e-15)
        with pytest.raises(ValueError):
            mat[0, 0] = 2.0

    def test_apply_correction_matrices(self):
        state = qubit_state(0.6, 0.8)
        i = apply_correction(state, "Q", PauliCorrection.IDENTITY)
        np.testing.assert_allclose(i.amplitudes, [0.6, 0.8], atol=ATOL)
        y = apply_correction(state, "Q", PauliCorrection.I_SIGMA_Y)
        np.testing.assert_allclose(y.amplitudes, [0.8, -0.6], atol=ATOL)

    def test_apply_correction_identity_validates_label(self):
        state = qubit_state(1, 0, "B")
        assert apply_correction(state, "B", PauliCorrection.IDENTITY) is state
        with pytest.raises(ValueError, match="no qubit labeled"):
            apply_correction(state, "C", PauliCorrection.IDENTITY)

    def test_singlet_repair_fixes_swapped_state(self):
        # i*sigma_y on either photon of the singlet yields phi+ up to sign.
        singlet = bell_state(BellOutcome.PSI_MINUS, ("B", "C"))
        repaired = apply_correction(singlet, "C", PauliCorrection.I_SIGMA_Y)
        target = bell_state(BellOutcome.PHI_PLUS, ("B", "C"))
        assert overlap(repaired, target) == pytest.approx(1.0, abs=ATOL)


class TestProjections:
    def test_project_qubit_probabilities_sum_to_one(self):
        rng = np.random.default_rng(5)
        state = random_state(rng, ("A", "B", "C"))
        for basis in Basis:
            plus, minus = basis.eigenvectors
            p_plus, _ = project_qubit(state, "B", plus)
            p_minus, _ = project_qubit(state, "B", minus)
            assert p_plus + p_minus == pytest.approx(1.0, abs=1e-12)

    def test_project_qubit_collapse_matches_manual_arithmetic(self):
        # Project C of psi+ onto |1>: remainder must be |0> on B with p=1/2.
        state = signal_state(SignalTag.PSI_PLUS)
        prob, post = project_qubit(state, "C", np.array([0.0, 1.0]))
        assert prob == pytest.approx(0.5, abs=ATOL)
        assert post.labels == ("B",)
        np.testing.assert_allclose(post.amplitudes, [1.0, 0.0], atol=ATOL)

    def test_project_qubit_zero_branch_returns_none(self):
        state = qubit_state(1.0, 0.0, "B")
        prob, post = project_qubit(state, "B", np.array([0.0, 1.0]))
        assert prob == 0.0
        assert post is None

    def test_project_qubit_single_qubit_leaves_no_remainder(self):
        prob, post = project_qubit(qubit_state(0.6, 0.8), "Q", np.array([1.0, 0.0]))
        assert prob == pytest.approx(0.36, abs=1e-12)
        assert post is None

    def test_project_pair_identifies_bell_states(self):
        for kind in BellOutcome:
            state = bell_state(kind, ("B", "C"))
            for other in BellOutcome:
                prob, _ = project_pair(state, ("B", "C"), other.vector)
                assert prob == pytest.approx(
                    1.0 if other is kind else 0.0, abs=ATOL
                )

    def test_project_pair_respects_label_order(self):
        # psi- is antisymmetric, so swapping the pair flips its sign but
        # keeps probability 1; phi+ projected in either order matches too.
        state = bell_state(BellOutcome.PSI_MINUS, ("B", "C"))
        p_fwd, _ = project_pair(state, ("B", "C"), BellOutcome.PSI_MINUS.vector)
        p_rev, _ = project_pair(state, ("C", "B"), BellOutcome.PSI_MINUS.vector)
        assert p_fwd == pytest.approx(1.0, abs=ATOL)
        assert p_rev == pytest.approx(1.0, abs=ATOL)

    def test_project_pair_on_three_qubits_keeps_remainder(self):
        state = ghz_state(("A", "B", "C"))
        vec = BellOutcome.PHI_PLUS.vector
        prob, post = project_pair(state, ("B", "C"), vec)
        assert prob == pytest.approx(0.5, abs=ATOL)
        assert post.labels == ("A",)
        np.testing.assert_allclose(post.amplitudes, [SQ2, SQ2], atol=ATOL)


class TestSampledMeasurements:
    def test_measure_qubit_statistics(self):
        rng = GeneratorSource(np.random.default_rng(17))
        state = qubit_state(0.6, 0.8)
        n = 4000
        plus = sum(
            measure_qubit(state, "Q", Basis.Z, rng).outcome == +1 for _ in range(n)
        )
        assert plus / n == pytest.approx(0.36, abs=0.02)

    def test_measure_qubit_removes_label_and_normalizes(self):
        rng = GeneratorSource(np.random.default_rng(2))
        state = ghz_state(("A", "B", "C"))
        result = measure_qubit(state, "B", Basis.X, rng)
        assert result.outcome in (+1, -1)
        assert result.probability == pytest.approx(0.5, abs=ATOL)
        assert result.post_state.labels == ("A", "C")
        assert np.linalg.norm(result.post_state.amplitudes) == pytest.approx(1.0)

    def test_measure_qubit_deterministic_branch(self):
        rng = GeneratorSource(np.random.default_rng(0))
        result = measure_qubit(qubit_state(1.0, 0.0), "Q", Basis.Z, rng)
        assert result.outcome == +1
        assert result.probability == pytest.approx(1.0)
        assert result.post_state is None

    def test_measure_pair_is_deterministic_on_basis_states(self):
        rng = GeneratorSource(np.random.default_rng(23))
        for kind in BELL_ORDER:
            state = bell_state(kind, ("B", "C"))
            result = measure_two_qubit_basis(state, ("B", "C"), PairBasis.BELL, rng)
            assert result.outcome is kind
            assert result.probability == pytest.approx(1.0, abs=ATOL)
            assert result.post_state is None

    def test_measure_pair_uniform_on_ghz(self):
        rng = GeneratorSource(np.random.default_rng(29))
        counts = dict.fromkeys(BELL_ORDER, 0)
        for _ in range(2000):
            result = measure_two_qubit_basis(
                ghz_state(("A", "B", "C")), ("B", "C"), PairBasis.BELL, rng
            )
            counts[result.outcome] += 1
            assert result.post_state.labels == ("A",)
        # GHZ Bell-measured on (B, C) lands on phi+ or phi- only.
        assert counts[BellOutcome.PHI_PLUS] / 2000 == pytest.approx(0.5, abs=0.04)
        assert counts[BellOutcome.PHI_MINUS] / 2000 == pytest.approx(0.5, abs=0.04)
        assert counts[BellOutcome.PSI_PLUS] == 0
        assert counts[BellOutcome.PSI_MINUS] == 0

    def test_measure_pair_rejects_bad_basis(self):
        # Only a PairBasis member names a joint measurement: a raw array,
        # well formed or not, is refused, and the registry keeps both photons.
        rng = np.random.default_rng(1)
        state = bell_state(BellOutcome.PHI_PLUS, ("B", "C"))
        bad = np.eye(4)
        bad[0, 1] = 1.0
        for array in (bad, np.eye(3), np.array(PairBasis.BELL.vectors)):
            with pytest.raises(TypeError, match="unhashable"):
                measure_two_qubit_basis(state, ("B", "C"), array, rng)
        reg = PhotonRegistry()
        reg.add(state)
        with pytest.raises(TypeError, match="unhashable"):
            reg.measure_pair(("B", "C"), bad, rng)
        assert reg.has("B") and reg.has("C")


class TestBornDraw:
    """One uniform walked through running sums that may fall short of 1.0."""

    # The parked psi+ pair's Bell-basis running sums, four ulps short.
    SHORT = (0.0, 0.0, 0.9999999999999996, 0.9999999999999996)

    def test_zero_width_branches_are_never_returned(self):
        edge = self.SHORT[2]
        for u in (0.0, 0.5, np.nextafter(edge, 0.0), edge, TOP_UNIFORM, 1.0):
            assert FixedUniform(u).born(self.SHORT) == 2
        assert FixedUniform(0.25).born((0.25, 0.25, 0.5, 1.0)) == 2
        assert FixedUniform(0.0).born((0.0, 1.0)) == 1

    def test_no_forbidden_outcome_at_the_top_uniform(self):
        top = FixedUniform(TOP_UNIFORM)
        plus_x = basis_ket(Basis.X, +1)
        assert measure_qubit(plus_x, "Q", Basis.X, top).outcome == +1
        for kind in BELL_ORDER:
            state = bell_state(kind, ("B", "C"))
            result = measure_two_qubit_basis(state, ("B", "C"), PairBasis.BELL, top)
            assert result.outcome is kind

    def test_unnormalized_total_raises_past_the_first_branch(self):
        assert FixedUniform(0.2).born((0.25, 0.5)) == 0
        for u in (0.25, 0.4, 0.5):
            with pytest.raises(AssertionError, match="sum to 0.5, state not normalized"):
                FixedUniform(u).born((0.25, 0.5))
        assert FixedUniform(0.2).born((0.25, 1.5)) == 0
        with pytest.raises(AssertionError, match="sum to 1.5, state not normalized"):
            FixedUniform(0.4).born((0.25, 1.5))
        with pytest.raises(AssertionError, match="not normalized"):
            FixedUniform(TOP_UNIFORM).born((0.0, 0.0))
        assert FixedUniform(TOP_UNIFORM).born((0.5, 1.0 - 1e-7, 1.0 - 1e-7)) == 1

    def test_overnormalized_state_raises_on_the_second_outcome(self):
        # p(+1) = p(-1) = 0.64: every uniform lies below the total of 1.28.
        heavy = StateVector._trusted(("Q",), np.array([0.8, 0.8], dtype=complex))
        assert measure_qubit(heavy, "Q", Basis.Z, FixedUniform(0.5)).outcome == +1
        with pytest.raises(AssertionError, match="not normalized"):
            measure_qubit(heavy, "Q", Basis.Z, FixedUniform(0.7))


class TestMeasurementBases:
    def test_bell_basis_rows_follow_bell_order(self):
        for row, outcome in zip(PairBasis.BELL.vectors, BELL_ORDER):
            np.testing.assert_allclose(row, outcome.vector, atol=ATOL)

    def test_rotated_basis_is_conjugated_bell_basis(self):
        # Row k equals (I x U) applied to Bell vector k.
        u = ROTATION_SECOND_PHOTON
        full = np.kron(np.eye(2), u)
        got = PairBasis.ROTATED_BELL.vectors
        for row, outcome in zip(got, BELL_ORDER):
            np.testing.assert_allclose(row, full @ outcome.vector, atol=ATOL)

    def test_rotated_basis_contains_rotated_signals(self):
        got = PairBasis.ROTATED_BELL.vectors
        np.testing.assert_allclose(
            got[2], signal_state(SignalTag.PSI_PLUS_ROT).amplitudes, atol=ATOL
        )
        np.testing.assert_allclose(
            got[1], signal_state(SignalTag.PHI_MINUS_ROT).amplitudes, atol=ATOL
        )

    def test_both_bases_are_read_only_and_orthonormal(self):
        for vecs in (basis.vectors for basis in PairBasis):
            with pytest.raises(ValueError):
                vecs[0, 0] = 5.0
            np.testing.assert_allclose(
                vecs @ vecs.conj().T, np.eye(4), atol=ATOL
            )

    def test_signal_order_matches_tag_listing(self):
        assert [t.value for t in SIGNAL_ORDER] == ["psi+", "phi-", "psi+r", "phi-r"]
        assert [b.value for b in BELL_ORDER] == ["phi+", "phi-", "psi+", "psi-"]
