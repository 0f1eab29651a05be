"""Tests for bit-extraction conventions, checked against a raw-numpy oracle.

The oracle below rebuilds the joint outcome distributions from hard-coded
amplitude arrays and plain ``np.kron`` projectors, without touching the
package's state machinery, so agreement is evidence rather than tautology.
"""

import numpy as np
import pytest

from triqss.conventions import (
    Scheme,
    convention_bit,
    correlated_bases,
    generate_convention_table,
    load_convention_table,
)
from triqss.preparation import HbbPrep, hbb_dealer_bit
from triqss.qcore import Basis

SQ2 = 1.0 / np.sqrt(2.0)

# (+1, -1) eigenvectors per basis, written out from scratch.
EIGEN = {
    "Z": (np.array([1, 0], complex), np.array([0, 1], complex)),
    "X": (np.array([SQ2, SQ2], complex), np.array([SQ2, -SQ2], complex)),
    "Y": (np.array([SQ2, SQ2 * 1j], complex), np.array([SQ2, -SQ2 * 1j], complex)),
}

# Two-qubit states over (B, C), B most significant, per scheme / class / bit.
KKI_STATES = {
    (1, 0): np.array([0, SQ2, SQ2, 0], complex),
    (1, 1): np.array([SQ2, 0, 0, -SQ2], complex),
    (2, 0): np.array([0.5, 0.5, 0.5, -0.5], complex),
    (2, 1): np.array([0.5, -0.5, -0.5, -0.5], complex),
}


def ghz_reduced(dealer_basis, dealer_outcome):
    """Agents' pair state after projecting the GHZ dealer photon by hand."""
    ghz = np.zeros(8, complex)
    ghz[0] = SQ2
    ghz[7] = SQ2
    ket = EIGEN[dealer_basis][0 if dealer_outcome == +1 else 1]
    # Dealer qubit is most significant: amplitudes split as [a-block, b-block].
    residual = np.conjugate(ket[0]) * ghz[:4] + np.conjugate(ket[1]) * ghz[4:]
    return residual / np.linalg.norm(residual)


HBB_STATES = {
    (1, 0): ghz_reduced("X", +1),
    (1, 1): ghz_reduced("X", -1),
    (2, 0): ghz_reduced("Y", +1),
    (2, 1): ghz_reduced("Y", -1),
}


def joint_distribution(state4, bob_basis, charlie_basis):
    """Joint outcome probabilities from plain kron projectors."""
    dist = {}
    for ob, ket_b in zip((+1, -1), EIGEN[bob_basis]):
        for oc, ket_c in zip((+1, -1), EIGEN[charlie_basis]):
            amp = np.vdot(np.kron(ket_b, ket_c), state4)
            dist[(ob, oc)] = float(abs(amp) ** 2)
    return dist


SCHEME_STATES = {Scheme.KKI: KKI_STATES, Scheme.HBB: HBB_STATES}


class TestConventionAgainstOracle:
    @pytest.mark.parametrize("scheme", [Scheme.KKI, Scheme.HBB], ids=lambda s: s.value)
    def test_every_pairing_is_deterministic_or_uniform(self, scheme):
        bases = [b.value for b in scheme.agent_bases]
        for basis_class in (1, 2):
            for bb in bases:
                for cb in bases:
                    correlated = correlated_bases(
                        basis_class, Basis(bb), Basis(cb), scheme
                    )
                    for bit in (0, 1):
                        state = SCHEME_STATES[scheme][(basis_class, bit)]
                        dist = joint_distribution(state, bb, cb)
                        if correlated:
                            # Every outcome with support must decode to the bit.
                            for (ob, oc), p in dist.items():
                                if p < 1e-12:
                                    continue
                                kb = convention_bit(
                                    scheme, basis_class, Basis(bb), Basis(cb),
                                    "bob", ob,
                                )
                                kc = convention_bit(
                                    scheme, basis_class, Basis(bb), Basis(cb),
                                    "charlie", oc,
                                )
                                assert kb ^ kc == bit
                                assert p == pytest.approx(0.5, abs=1e-9)
                        else:
                            # Uncorrelated pairings carry no information.
                            for p in dist.values():
                                assert p == pytest.approx(0.25, abs=1e-9)

    def test_correlated_pairing_truth_table(self):
        expect = {
            (Scheme.KKI, 1): {("Z", "Z"), ("X", "X")},
            (Scheme.KKI, 2): {("Z", "X"), ("X", "Z")},
            (Scheme.HBB, 1): {("X", "X"), ("Y", "Y")},
            (Scheme.HBB, 2): {("X", "Y"), ("Y", "X")},
        }
        for (scheme, basis_class), pairs in expect.items():
            bases = [b.value for b in scheme.agent_bases]
            got = {
                (bb, cb)
                for bb in bases
                for cb in bases
                if correlated_bases(basis_class, Basis(bb), Basis(cb), scheme)
            }
            assert got == pairs

    def test_hardened_scheme_decodes_by_the_kki_rules(self):
        assert Scheme.HARDENED_KKI.agent_bases == Scheme.KKI.agent_bases
        bases = Scheme.KKI.agent_bases
        for basis_class in (1, 2):
            for bb in bases:
                for cb in bases:
                    correlated = correlated_bases(basis_class, bb, cb, Scheme.KKI)
                    assert correlated == correlated_bases(
                        basis_class, bb, cb, Scheme.HARDENED_KKI
                    )
                    if not correlated:
                        continue
                    for party in ("bob", "charlie"):
                        for outcome in (+1, -1):
                            assert convention_bit(
                                Scheme.HARDENED_KKI, basis_class, bb, cb, party, outcome
                            ) == convention_bit(
                                Scheme.KKI, basis_class, bb, cb, party, outcome
                            )


class TestTableArtifact:
    def test_regenerated_table_matches_shipped_artifact(self):
        assert generate_convention_table() == load_convention_table()

    def test_table_shape(self):
        table = load_convention_table()
        assert table["schema"] == 1
        assert set(table["schemes"]) == {Scheme.KKI.value, Scheme.HBB.value}
        for scheme, block in table["schemes"].items():
            assert set(block["classes"]) == {"1", "2"}
            for pairs in block["classes"].values():
                assert len(pairs) == 2
                for rule in pairs.values():
                    assert set(rule) == {"bob", "charlie"}
                    for mapping in rule.values():
                        assert set(mapping) == {"+", "-"}
                        assert set(mapping.values()) == {0, 1}


class TestValidation:
    def test_rejects_basis_outside_scheme(self):
        with pytest.raises(ValueError, match="not used by scheme"):
            correlated_bases(1, Basis.Y, Basis.Z, Scheme.KKI)
        with pytest.raises(ValueError, match="not used by scheme"):
            correlated_bases(1, Basis.X, Basis.Z, Scheme.HBB)

    def test_rejects_unknown_scheme_or_class(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            correlated_bases(1, Basis.Z, Basis.Z, "e91")
        with pytest.raises(ValueError, match="unknown scheme"):
            correlated_bases(1, Basis.Z, Basis.Z, "kki")  # a scheme is a Scheme
        with pytest.raises(ValueError, match="unknown basis class"):
            correlated_bases(3, Basis.Z, Basis.Z, Scheme.KKI)

    def test_convention_bit_rejects_uncorrelated_pairing(self):
        with pytest.raises(ValueError, match="not correlated"):
            convention_bit(Scheme.KKI, 1, Basis.Z, Basis.X, "bob", +1)

    def test_convention_bit_rejects_bad_party_or_outcome(self):
        with pytest.raises(ValueError, match="party"):
            convention_bit(Scheme.KKI, 1, Basis.Z, Basis.Z, "alice", +1)
        with pytest.raises(ValueError, match="outcome"):
            convention_bit(Scheme.KKI, 1, Basis.Z, Basis.Z, "bob", 0)


class TestHbbHelpers:
    def test_dealer_bit_mapping(self):
        assert hbb_dealer_bit(+1) == 0
        assert hbb_dealer_bit(-1) == 1
        with pytest.raises(ValueError, match="outcome"):
            hbb_dealer_bit(2)

    @pytest.mark.parametrize(
        "basis,outcome,expected",
        [
            (Basis.X, +1, [SQ2, 0, 0, SQ2]),
            (Basis.X, -1, [SQ2, 0, 0, -SQ2]),
            (Basis.Y, +1, [SQ2, 0, 0, -SQ2 * 1j]),
            (Basis.Y, -1, [SQ2, 0, 0, SQ2 * 1j]),
        ],
    )
    def test_reduced_states_match_projector_arithmetic(
        self, basis, outcome, expected
    ):
        got = HbbPrep.from_measurement(basis, outcome).state
        assert got.labels == ("B", "C")
        np.testing.assert_allclose(got.amplitudes, expected, atol=1e-9)
