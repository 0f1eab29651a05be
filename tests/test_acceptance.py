"""Acceptance suite: ten end-to-end criteria with their stated tolerances.

Each criterion is one test, so a verbose pytest run yields one pass/fail
line per criterion.  Expensive sessions are shared through module-scoped
fixtures; all seeds are pinned and were chosen to leave a comfortable
statistical margin, not to sit at a tolerance edge.  They were chosen on the
old per-round ``PCG64`` streams and kept unchanged, with every round count
and tolerance, when the streams moved to one ``Philox`` table per session.
"""

from dataclasses import replace

import numpy as np
import pytest

from triqss.adversary import AttackStrategy
from triqss.conventions import (
    Scheme,
    convention_bit,
    correlated_bases,
    generate_convention_table,
    load_convention_table,
)
from triqss.harness import (
    preset_experiment,
    run_experiment,
    sweep_pe,
    verify_table1,
)
from triqss.preparation import hbb_reduce
from triqss.protocol import OrderingPolicy, RoundKind
from triqss.qcore import Basis, ghz_state, measure_qubit, signal_state
from triqss.stats import ratio

from helpers import GeneratorSource, custom_state, fresh_memos, project_qubit

SQ2 = 1.0 / np.sqrt(2.0)


@pytest.fixture(scope="module")
def honest_run():
    """Honest session on a lossless channel, 100k rounds."""
    return run_experiment(
        preset_experiment("honest", eta=1.0, eta_prime=1.0, rounds=100_000, seed=0)
    )


@pytest.fixture(scope="module")
def vulnerable_run():
    """Deferred interception with loss cheating, eta 0.3 vs 0.6, 100k rounds."""
    return run_experiment(
        preset_experiment(
            "opaque-vulnerable", eta=0.3, eta_prime=0.6, rounds=100_000, seed=0
        )
    )


def test_criterion_01_interception_table():
    """All 16 swap cells and both repair branches, overlap >= 1 - 1e-9."""
    report = verify_table1()
    assert report.passed, report.failures
    assert len(report.cells) == 16
    for cell in report.cells:
        assert cell.matches_pauli_form
        assert cell.probability == pytest.approx(0.25, abs=1e-9)
    repairs = {
        (c.signal, c.outcome): c.repaired_by for c in report.cells if c.repaired_by
    }
    for signal in ("psi+", "phi-", "psi+r", "phi-r"):
        assert repairs[(signal, "phi+")] == "identity"
        assert repairs[(signal, "psi-")] == "i_sigma_y"
    # Collapse view: 4 signals x 4 second-photon projections x 2 branches.
    assert len(report.collapse_cells) == 32
    assert {c.branch for c in report.collapse_cells} == {"phi+", "psi- repaired"}
    for cc in report.collapse_cells:
        assert cc.overlap >= 1.0 - 1e-9
        assert cc.probability == pytest.approx(0.5, abs=1e-9)


def test_criterion_02_honest_protocol(honest_run):
    """100k lossless rounds: sift 0.50 +/- 0.01, zero errors, keys XOR."""
    check = honest_run.check
    assert check.sift_rate == pytest.approx(0.5, abs=0.01)
    assert check.test_errors == 0
    assert check.test_error_rate == 0.0
    assert honest_run.key_bits > 30_000
    assert honest_run.key_mismatches == 0


def test_criterion_03_attack_invisibility(vulnerable_run):
    """Loss-cheating attack: zero errors, half the attacked tests declared
    lost (+/- 0.01), observed leg efficiency 0.30 +/- 0.01, verdict secure."""
    check = vulnerable_run.check
    tally = vulnerable_run.tally
    assert check.test_error_rate == 0.0
    assert check.test_errors == 0
    assert tally.attacked_test_mounted > 10_000
    loss_fraction = ratio(tally.attacked_test_loss_declared, tally.attacked_test_mounted)
    assert loss_fraction == pytest.approx(0.5, abs=0.01)
    assert check.observed_efficiency_charlie == pytest.approx(0.30, abs=0.01)
    assert check.verdict == "secure"


def test_criterion_04_attack_yield(vulnerable_run):
    """Same run: the dealer's bit and the other agent's outcome are both
    recovered with accuracy exactly 1.0 on every attacked key round."""
    tally = vulnerable_run.tally
    assert tally.dealer_bit_recoveries > 5000
    assert tally.charlie_bit_recoveries > 5000
    assert vulnerable_run.ka_accuracy == 1.0
    assert vulnerable_run.kc_accuracy == 1.0
    assert tally.dealer_bit_correct == tally.dealer_bit_recoveries
    assert tally.charlie_bit_correct == tally.charlie_bit_recoveries


def test_criterion_05_attack_fraction_curve():
    """eta 0.25 sweep: measured attacked fraction within +/- 0.02 of
    min(1, 2(eta'-eta)/eta'), leg efficiencies pinned at eta +/- 0.01."""
    eta = 0.25
    grid = (0.25, 0.3, 0.35, 0.4, 0.45, 0.5)
    rows = sweep_pe(eta=eta, eta_prime_values=grid, rounds=50_000, seed=1)
    assert [row["eta_prime"] for row in rows] == list(grid)
    for row in rows:
        eta_prime = row["eta_prime"]
        expected = min(1.0, 2.0 * (eta_prime - eta) / eta_prime)
        # Report rows carry values rounded to six decimals.
        assert row["formula_fraction"] == pytest.approx(expected, abs=1e-6)
        assert row["measured_fraction"] == pytest.approx(expected, abs=0.02)
        assert row["eff_bob"] == pytest.approx(eta, abs=0.01)
        assert row["eff_charlie"] == pytest.approx(eta, abs=0.01)


PAULI_OF_BELL = {
    "psi+": np.array([[0, 1], [1, 0]], complex),
    "phi-": np.array([[1, 0], [0, -1]], complex),
}


def swapped_round_error_probability(rec):
    """Brute-force error probability of one uncorrected swapped test round."""
    prep = rec.preparation
    twist = np.kron(np.eye(2), PAULI_OF_BELL[rec.bell_outcome.value])
    state = twist @ signal_state(prep.tag).amplitudes
    p_err = 0.0
    for ob, ket_b in zip((+1, -1), rec.bob_basis.eigenvectors):
        for oc, ket_c in zip((+1, -1), rec.charlie_basis.eigenvectors):
            p = abs(np.vdot(np.kron(ket_b, ket_c), state)) ** 2
            if p < 1e-12:
                continue
            k_b = convention_bit(
                Scheme.KKI, prep.basis_class, rec.bob_basis, rec.charlie_basis,
                "bob", ob,
            )
            k_c = convention_bit(
                Scheme.KKI, prep.basis_class, rec.bob_basis, rec.charlie_basis,
                "charlie", oc,
            )
            if k_b ^ k_c != prep.bit:
                p_err += p
    return p_err


def test_criterion_06_no_cheat_detectability():
    """Interception without loss cheating: attacked-test error 0.25 +/- 0.01,
    wrong Bell outcomes at 0.50 +/- 0.01 each worth ~50% error against the
    brute-force swapped-state oracle, verdict compromised."""
    base = preset_experiment(
        "opaque-no-cheat", eta=1.0, eta_prime=1.0,
        rounds=80_000, seed=1, test_fraction=0.5,
    )
    config = replace(
        base, strategy=AttackStrategy(cheating_enabled=False, attack_fraction=1.0)
    )
    report = run_experiment(config, keep_transcripts=True)
    check = report.check
    tally = report.tally
    assert check.test_error_rate == pytest.approx(0.25, abs=0.01)
    bad_bell_rate = ratio(tally.bad_bell, tally.attacked_test_mounted)
    assert bad_bell_rate == pytest.approx(0.5, abs=0.01)
    assert check.verdict == "compromised"
    # Round-by-round oracle over every uncorrectable swap outcome.
    oracle_values = []
    for rec in report.transcripts[0].rounds:
        if rec.kind is not RoundKind.TEST or rec.branch != "bad":
            continue
        prep = rec.preparation
        if not correlated_bases(prep.basis_class, rec.bob_basis, rec.charlie_basis):
            continue
        k_b = convention_bit(
            Scheme.KKI, prep.basis_class, rec.bob_basis, rec.charlie_basis,
            "bob", rec.bob_outcome,
        )
        k_c = convention_bit(
            Scheme.KKI, prep.basis_class, rec.bob_basis, rec.charlie_basis,
            "charlie", rec.charlie_outcome,
        )
        p_err = swapped_round_error_probability(rec)
        assert min(abs(p_err), abs(p_err - 1.0)) < 1e-9
        assert ((k_b ^ k_c) != prep.bit) == (p_err > 0.5)
        oracle_values.append(p_err)
    assert len(oracle_values) > 8000
    assert np.mean(oracle_values) == pytest.approx(0.5, abs=0.02)


def test_criterion_07_ordering_sensitivity():
    """Announcing detections before test designation stops the classical-key
    attack (compromised for every fraction >= 0.2) but not state sharing:
    there the adversary ends up holding every attacked message pair intact in
    either ordering while the session still reads secure."""
    for fraction in (0.2, 0.6, 1.0):
        base = preset_experiment("opaque-sifting-classical", rounds=30_000, seed=2)
        config = replace(base, strategy=AttackStrategy(attack_fraction=fraction))
        report = run_experiment(config)
        assert report.check.verdict == "compromised", f"fraction {fraction}"
        assert report.check.test_error_rate > 0.02
    for ordering in (OrderingPolicy.SIFTING_FIRST, OrderingPolicy.VULNERABLE):
        config = preset_experiment(
            "opaque-sifting-state-sharing", rounds=30_000, seed=2, ordering=ordering
        )
        report = run_experiment(config)
        tally = report.tally
        assert tally.attacked_message_mounted > 10_000
        assert tally.adversary_pairs_intact == tally.attacked_message_mounted
        assert tally.adversary_min_overlap >= 1.0 - 1e-9
        assert report.check.verdict == "secure"


def test_criterion_08_hardened_countermeasure():
    """Product-state test rounds: the attack now hits the forwarded leg with
    error 0.25 +/- 0.01 (compromised); the honest hardened run stays clean."""
    base = preset_experiment(
        "hardened", eta=1.0, eta_prime=1.0, rounds=100_000, seed=1
    )
    attacked = run_experiment(
        replace(base, strategy=AttackStrategy(attack_fraction=1.0))
    )
    assert attacked.check.charlie_leg_error_rate == pytest.approx(0.25, abs=0.01)
    assert attacked.check.verdict == "compromised"
    honest = run_experiment(
        replace(
            preset_experiment(
                "hardened", eta=1.0, eta_prime=1.0, rounds=20_000, seed=0
            ),
            strategy=None,
        )
    )
    assert honest.check.test_errors == 0
    assert honest.check.verdict == "secure"


GHZ_REDUCED = {
    (Basis.X, +1): np.array([SQ2, 0, 0, SQ2], complex),
    (Basis.X, -1): np.array([SQ2, 0, 0, -SQ2], complex),
    (Basis.Y, +1): np.array([SQ2, 0, 0, -SQ2 * 1j], complex),
    (Basis.Y, -1): np.array([SQ2, 0, 0, SQ2 * 1j], complex),
}


def test_criterion_09_hbb_equivalence(honest_run):
    """GHZ reduction hits all four branch states with overlap >= 1 - 1e-9;
    full GHZ sessions match the pair-scheme statistics within +/- 0.01."""
    rng = GeneratorSource(np.random.default_rng(41))
    seen = set()
    for basis in (Basis.X, Basis.Y):
        for _ in range(40):
            outcome, post = hbb_reduce(ghz_state(("A", "B", "C")), basis, rng)
            expected = GHZ_REDUCED[(basis, outcome)]
            fidelity = abs(np.vdot(expected, post.amplitudes)) ** 2
            assert fidelity >= 1.0 - 1e-9
            seen.add((basis, outcome))
    assert len(seen) == 4
    hbb = run_experiment(
        preset_experiment("hbb", eta=1.0, eta_prime=1.0, rounds=100_000, seed=0)
    )
    assert hbb.check.sift_rate == pytest.approx(honest_run.check.sift_rate, abs=0.01)
    assert hbb.check.test_error_rate == pytest.approx(
        honest_run.check.test_error_rate, abs=0.01
    )
    assert hbb.check.test_errors == 0
    assert hbb.key_mismatches == 0


def test_criterion_10_property_suites(monkeypatch):
    """10^4 randomized states keep norm/probability/collapse invariants, and
    the bundled bit-convention table equals its brute-force regeneration."""
    fresh_memos(monkeypatch)
    rng = np.random.default_rng(97)
    label_sets = (("Q",), ("B", "C"), ("A", "B", "C"))
    bases = list(Basis)
    for i in range(10_000):
        labels = label_sets[i % 3]
        n = 2 ** len(labels)
        state = custom_state(labels, rng.normal(size=n) + 1j * rng.normal(size=n))
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-9)
        label = labels[int(rng.integers(len(labels)))]
        basis = bases[int(rng.integers(3))]
        p_plus, _ = project_qubit(state, label, basis.eigenvectors[0])
        p_minus, _ = project_qubit(state, label, basis.eigenvectors[1])
        assert p_plus + p_minus == pytest.approx(1.0, abs=1e-9)
        result = measure_qubit(state, label, basis, GeneratorSource(rng))
        assert result.outcome in (+1, -1)
        expected = p_plus if result.outcome == +1 else p_minus
        assert result.probability == pytest.approx(expected, abs=1e-9)
        if result.post_state is not None:
            assert np.linalg.norm(result.post_state.amplitudes) == pytest.approx(
                1.0, abs=1e-9
            )
    assert generate_convention_table() == load_convention_table()
