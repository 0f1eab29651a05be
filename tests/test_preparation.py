"""Unit tests for dealer-side round preparation."""

import numpy as np
import pytest

from triqss.preparation import (
    HardenedPrep,
    HbbPrep,
    PreparedState,
    hbb_reduce,
    prepare_hardened_test_round,
)
from triqss.qcore import (
    Basis,
    SignalTag,
    basis_ket,
    overlap,
    signal_state,
)

from helpers import FixedUniform, GeneratorSource

SQ2 = 1.0 / np.sqrt(2.0)

REDUCED_BY_DEALER = {
    (Basis.X, +1): np.array([SQ2, 0, 0, SQ2], complex),
    (Basis.X, -1): np.array([SQ2, 0, 0, -SQ2], complex),
    (Basis.Y, +1): np.array([SQ2, 0, 0, -SQ2 * 1j], complex),
    (Basis.Y, -1): np.array([SQ2, 0, 0, SQ2 * 1j], complex),
}


class TestPreparedState:
    @pytest.mark.parametrize(
        "tag,basis_class,bit",
        [
            (SignalTag.PSI_PLUS, 1, 0),
            (SignalTag.PHI_MINUS, 1, 1),
            (SignalTag.PSI_PLUS_ROT, 2, 0),
            (SignalTag.PHI_MINUS_ROT, 2, 1),
        ],
    )
    def test_from_tag_encodes_class_and_bit(self, tag, basis_class, bit):
        prep = PreparedState.from_tag(tag)
        assert prep.basis_class == basis_class
        assert prep.bit == bit
        assert PreparedState(tag) == prep
        # The round registers this very object, so the memos see one state.
        assert prep.state is signal_state(tag, ("B", "C"))
        assert "state" not in repr(prep)


class TestHbbPrep:
    @pytest.mark.parametrize(
        "basis,outcome,basis_class,bit",
        [
            (Basis.X, +1, 1, 0),
            (Basis.X, -1, 1, 1),
            (Basis.Y, +1, 2, 0),
            (Basis.Y, -1, 2, 1),
        ],
    )
    def test_from_measurement(self, basis, outcome, basis_class, bit):
        prep = HbbPrep.from_measurement(basis, outcome)
        assert prep.dealer_basis is basis
        assert prep.dealer_outcome == outcome
        assert prep.basis_class == basis_class
        assert prep.bit == bit
        assert HbbPrep(basis, outcome) == prep
        assert HbbPrep.from_measurement(basis, outcome) is prep
        assert prep.state.labels == ("B", "C")
        expected = REDUCED_BY_DEALER[(basis, outcome)]
        assert abs(np.vdot(expected, prep.state.amplitudes)) ** 2 == pytest.approx(
            1.0, abs=1e-9
        )


class TestHbbReduce:
    @pytest.mark.parametrize("basis", [Basis.X, Basis.Y])
    def test_collapse_matches_projector_oracle(self, basis):
        rng = GeneratorSource(np.random.default_rng(13))
        for _ in range(40):
            prep = hbb_reduce(basis, rng)
            assert prep.dealer_basis is basis
            assert prep.dealer_outcome in (+1, -1)
            assert prep.state.labels == ("B", "C")
            expected = REDUCED_BY_DEALER[(basis, prep.dealer_outcome)]
            assert abs(np.vdot(expected, prep.state.amplitudes)) ** 2 == pytest.approx(
                1.0, abs=1e-9
            )

    @pytest.mark.parametrize("basis", [Basis.X, Basis.Y])
    @pytest.mark.parametrize("outcome", [+1, -1])
    def test_post_state_is_the_preparation_state(self, basis, outcome):
        # hbb_reduce returns the interned preparation of the sampled branch.
        # One memo entry is the GHZ collapse's only home: a preparation built
        # now reads it, the interned one read it at import.  Tests that push
        # many states through the bounded memo use memos of their own, so the
        # entry is never evicted.
        rng = FixedUniform(0.25 if outcome == +1 else 0.75)
        prep = hbb_reduce(basis, rng)
        assert prep is HbbPrep.from_measurement(basis, outcome)
        assert prep.state is HbbPrep(basis, outcome).state

    def test_outcomes_are_balanced(self):
        rng = GeneratorSource(np.random.default_rng(19))
        n = 2000
        plus = sum(hbb_reduce(Basis.X, rng).dealer_outcome == +1 for _ in range(n))
        assert plus / n == pytest.approx(0.5, abs=0.03)

    def test_rejects_z_basis(self):
        rng = GeneratorSource(np.random.default_rng(0))
        with pytest.raises(ValueError, match="X or Y"):
            hbb_reduce(Basis.Z, rng)


class TestHardenedPreparation:
    def test_photons_match_recorded_prep(self):
        rng = GeneratorSource(np.random.default_rng(31))
        for _ in range(50):
            prep, photon_b, photon_c = prepare_hardened_test_round(rng)
            assert isinstance(prep, HardenedPrep)
            assert photon_b.labels == ("B",)
            assert photon_c.labels == ("C",)
            expected_b = basis_ket(prep.bob_basis, prep.bob_sign, "B")
            expected_c = basis_ket(prep.charlie_basis, prep.charlie_sign, "C")
            assert overlap(photon_b, expected_b) == pytest.approx(1.0, abs=1e-9)
            assert overlap(photon_c, expected_c) == pytest.approx(1.0, abs=1e-9)

    def test_draws_only_z_and_x(self):
        rng = GeneratorSource(np.random.default_rng(37))
        seen = set()
        for _ in range(200):
            prep, _, _ = prepare_hardened_test_round(rng)
            seen.add((prep.bob_basis, prep.bob_sign))
            seen.add((prep.charlie_basis, prep.charlie_sign))
        assert seen == {
            (basis, sign) for basis in (Basis.Z, Basis.X) for sign in (+1, -1)
        }

    def test_draws_one_of_sixteen_shared_values(self):
        rng = GeneratorSource(np.random.default_rng(41))
        preps = [prepare_hardened_test_round(rng)[0] for _ in range(200)]
        assert len({id(prep) for prep in preps}) == len(set(preps)) == 16
