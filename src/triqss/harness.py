"""Experiment harness: presets, repetition pooling, sweeps, and reports.

This layer packages the session machinery of :mod:`triqss.protocol` into
named, reproducible experiments.  A preset fixes the scheme, ordering, mode
and adversary strategy; channel parameters, round counts and seeds stay
adjustable.  Reports pool the raw counters of all repetitions before rates
and intervals are computed, and can be written as CSV or JSON.

``verify_table1`` is an independent closed-form check of the interception
physics: it rebuilds the full four-photon swap with raw linear algebra and
verifies every (signal state, Bell outcome) cell, the universal repair
operators, and the resulting correlation error rates.  It exists so the
sampled simulation has a non-sampled reference to be compared against.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace

import numpy as np

from .adversary import AttackKind, AttackStrategy
from .channel import ChannelConfig
from .conventions import (
    convention_bit,
    correlated_bases,
    generate_convention_table,
    load_convention_table,
)
from .protocol import (
    CheckReport,
    ConfigError,
    Mode,
    NoTestDataError,
    OrderingPolicy,
    Scheme,
    SessionConfig,
    SessionTally,
    SessionTranscript,
    _is_int,
    distill_keys,
    evaluate_tally,
    run_session,
    tally_transcript,
    validate_announcement_order,
)
from .qcore import Basis
from .stats import ratio

__all__ = [
    "ExperimentConfig",
    "SessionReport",
    "PRESET_NAMES",
    "preset_experiment",
    "run_experiment",
    "sweep_pe",
    "NO_TEST_DATA_NOTE",
    "Table1Cell",
    "CollapseCell",
    "Table1Report",
    "verify_table1",
    "selftest",
    "REPORT_COLUMNS",
    "SWEEP_COLUMNS",
    "report_row",
    "write_report_csv",
    "write_report_json",
    "write_sweep_csv",
    "write_sweep_json",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """A named, repeatable experiment: session settings plus a strategy."""

    scenario: str
    session: SessionConfig
    strategy: AttackStrategy | None = None
    repetitions: int = 1

    def __post_init__(self) -> None:
        if not _is_int(self.repetitions) or self.repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {self.repetitions!r}")


@dataclass
class SessionReport:
    """Pooled outcome of an experiment (all repetitions merged)."""

    scenario: str
    session: SessionConfig
    strategy: AttackStrategy | None
    repetitions: int
    tally: SessionTally
    check: CheckReport
    attacked_fraction_observed: float
    planned_attack_fraction: float | None
    ka_accuracy: float | None
    kc_accuracy: float | None
    key_bits: int
    key_mismatches: int
    transcripts: list[SessionTranscript] | None = None


def run_experiment(
    config: ExperimentConfig, keep_transcripts: bool = False
) -> SessionReport:
    """Run ``repetitions`` sessions (seeds ``seed .. seed+reps-1``) and pool.

    Counters are merged before any rate is formed, so the pooled report is
    the same as one long session split across repetitions.
    """
    tally = SessionTally()
    key_bits = 0
    key_mismatches = 0
    transcripts: list[SessionTranscript] | None = [] if keep_transcripts else None
    for i in range(config.repetitions):
        session = replace(config.session, seed=config.session.seed + i)
        transcript = run_session(session, config.strategy)
        tally.merge(tally_transcript(transcript))
        if session.mode is Mode.CLASSICAL_KEY:
            k_a, k_b, k_c = distill_keys(transcript)
            key_bits += len(k_a)
            key_mismatches += int(np.sum((k_b ^ k_c) != k_a))
        if transcripts is not None:
            transcripts.append(transcript)
    check = evaluate_tally(tally, config.session)
    return SessionReport(
        scenario=config.scenario,
        session=config.session,
        strategy=config.strategy,
        repetitions=config.repetitions,
        tally=tally,
        check=check,
        attacked_fraction_observed=ratio(tally.attacked_rounds, tally.rounds),
        # The resolved fraction depends on the strategy and channel only, so
        # every repetition's transcript carries the same value.
        planned_attack_fraction=transcript.attack_fraction,
        ka_accuracy=(
            None
            if tally.dealer_bit_recoveries == 0
            else ratio(tally.dealer_bit_correct, tally.dealer_bit_recoveries)
        ),
        kc_accuracy=(
            None
            if tally.charlie_bit_recoveries == 0
            else ratio(tally.charlie_bit_correct, tally.charlie_bit_recoveries)
        ),
        key_bits=key_bits,
        key_mismatches=key_mismatches,
        transcripts=transcripts,
    )


# ---------------------------------------------------------------------------
# Presets

_PRESET_TABLE: dict[str, dict] = {
    "honest": dict(),
    "opaque-vulnerable": dict(strategy=AttackStrategy()),
    "opaque-refined": dict(strategy=AttackStrategy(), ordering=OrderingPolicy.REFINED),
    "opaque-no-cheat": dict(strategy=AttackStrategy(cheating_enabled=False)),
    "opaque-sifting-classical": dict(
        strategy=AttackStrategy(), ordering=OrderingPolicy.SIFTING_FIRST
    ),
    "opaque-sifting-state-sharing": dict(
        strategy=AttackStrategy(),
        ordering=OrderingPolicy.SIFTING_FIRST,
        mode=Mode.STATE_SHARING,
    ),
    "early-bell": dict(strategy=AttackStrategy(kind=AttackKind.EARLY_BELL)),
    "hardened": dict(strategy=AttackStrategy(), scheme=Scheme.HARDENED_KKI),
    "hbb": dict(scheme=Scheme.HBB),
}

PRESET_NAMES = tuple(_PRESET_TABLE)


def preset_experiment(
    name: str,
    eta: float = 0.3,
    eta_prime: float = 0.6,
    rounds: int = 20_000,
    seed: int = 0,
    repetitions: int = 1,
    test_fraction: float = 0.25,
    ordering: OrderingPolicy | None = None,
    mode: Mode | None = None,
) -> ExperimentConfig:
    """Build the named experiment; ``ordering``/``mode`` override the preset."""
    try:
        entry = _PRESET_TABLE[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; choose one of {', '.join(PRESET_NAMES)}"
        ) from None
    if ordering is None:
        ordering = entry.get("ordering", OrderingPolicy.VULNERABLE)
    if mode is None:
        mode = entry.get("mode", Mode.CLASSICAL_KEY)
    session = SessionConfig(
        channel=ChannelConfig(eta=eta, eta_prime=eta_prime),
        rounds=rounds,
        test_fraction=test_fraction,
        ordering=ordering,
        mode=mode,
        scheme=entry.get("scheme", Scheme.KKI),
        seed=seed,
    )
    return ExperimentConfig(
        scenario=name,
        session=session,
        strategy=entry.get("strategy"),
        repetitions=repetitions,
    )


# ---------------------------------------------------------------------------
# Reports

REPORT_COLUMNS = (
    "scenario",
    "eta",
    "eta_prime",
    "rounds",
    "error_rate",
    "error_ci_lo",
    "error_ci_hi",
    "eff_bob",
    "eff_charlie",
    "sift_rate",
    "attacked_fraction",
    "ka_acc",
    "kc_acc",
    "verdict",
)

SWEEP_COLUMNS = (
    "eta",
    "eta_prime",
    "formula_fraction",
    "measured_fraction",
    "eff_bob",
    "eff_charlie",
    "predicted_loss_rate",
    "observed_loss_rate",
    "error_rate",
    "verdict",
    "note",
)


def _round6(value):
    if value is None:
        return None
    return round(float(value), 6)


def report_row(report: SessionReport) -> dict:
    """One flat, JSON- and CSV-ready summary row for a pooled report."""
    check = report.check
    return {
        "scenario": report.scenario,
        "eta": _round6(report.session.channel.eta),
        "eta_prime": _round6(report.session.channel.eta_prime),
        "rounds": report.tally.rounds,
        "error_rate": _round6(check.test_error_rate),
        "error_ci_lo": _round6(check.error_ci[0]),
        "error_ci_hi": _round6(check.error_ci[1]),
        "eff_bob": _round6(check.observed_efficiency_bob),
        "eff_charlie": _round6(check.observed_efficiency_charlie),
        "sift_rate": _round6(check.sift_rate),
        "attacked_fraction": _round6(report.attacked_fraction_observed),
        "ka_acc": _round6(report.ka_accuracy),
        "kc_acc": _round6(report.kc_accuracy),
        "verdict": check.verdict,
    }


def _write_csv(path: str, columns: tuple[str, ...], rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(columns), lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(
                {k: ("" if row.get(k) is None else row.get(k)) for k in columns}
            )


def _write_json(path: str, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(rows, indent=2, sort_keys=True) + "\n")


def write_report_csv(reports: list[SessionReport], path: str) -> None:
    _write_csv(path, REPORT_COLUMNS, [report_row(r) for r in reports])


def write_report_json(reports: list[SessionReport], path: str) -> None:
    _write_json(path, [report_row(r) for r in reports])


def write_sweep_csv(rows: list[dict], path: str) -> None:
    _write_csv(path, SWEEP_COLUMNS, rows)


def write_sweep_json(rows: list[dict], path: str) -> None:
    _write_json(path, rows)


# ---------------------------------------------------------------------------
# Replacement-rate sweep

NO_TEST_DATA_NOTE = "no usable test data"


def _note_row(eta: float, eta_prime: float, note: str) -> dict:
    """A sweep row that carries only its point and why it has no results."""
    row = dict.fromkeys(SWEEP_COLUMNS)
    row.update(eta=_round6(eta), eta_prime=_round6(eta_prime), note=note)
    return row


def sweep_pe(
    eta: float = 0.25,
    eta_prime_values: tuple[float, ...] = (0.25, 0.3, 0.35, 0.4, 0.45, 0.5),
    rounds: int = 20_000,
    seed: int = 0,
    repetitions: int = 1,
) -> list[dict]:
    """Attacked fraction across replacement efficiencies, against the formula.

    For each replacement efficiency ``eta_prime`` the deferred attack plans
    to intercept ``min(1, 2 (eta_prime - eta) / eta_prime)`` of all rounds,
    the largest fraction whose extra loss declarations stay hidden inside the
    honest loss budget.  Each row reports that formula value next to the
    fraction of rounds actually attacked, plus the observed per-leg
    efficiencies (which the cheating keeps pinned at the honest ``eta``) and
    the dealer's verdict.  As a side statistic, the loss-cheat rate among
    mounted test-round interceptions is compared with its prediction of 1/2,
    the chance that the swap lands on an unrepairable Bell outcome.
    Replacement efficiencies below ``eta`` cannot hide any interception, so
    those points are skipped with a note.  A point whose session leaves no
    usable test data gets the note ``NO_TEST_DATA_NOTE`` and the sweep goes
    on with the next point.
    """
    if not _is_int(seed):  # ``seed + 1000 * i`` would turn True into 1
        raise ConfigError("seed", f"need a non-negative integer, got {seed!r}")
    out: list[dict] = []
    for i, eta_prime in enumerate(eta_prime_values):
        ChannelConfig(eta=eta, eta_prime=eta_prime)  # checks both before comparing
        if eta_prime < eta:
            out.append(
                _note_row(
                    eta, eta_prime, "skipped: replacement channel worse than honest one"
                )
            )
            continue
        config = preset_experiment(
            "opaque-vulnerable",
            eta=eta,
            eta_prime=eta_prime,
            rounds=rounds,
            seed=seed + 1000 * i,
            repetitions=repetitions,
        )
        try:
            report = run_experiment(config)
        except NoTestDataError:
            out.append(_note_row(eta, eta_prime, NO_TEST_DATA_NOTE))
            continue
        mounted = report.tally.attacked_test_mounted
        lost = report.tally.attacked_test_loss_declared
        out.append(
            {
                "eta": _round6(eta),
                "eta_prime": _round6(eta_prime),
                "formula_fraction": _round6(report.planned_attack_fraction),
                "measured_fraction": _round6(report.attacked_fraction_observed),
                "eff_bob": _round6(report.check.observed_efficiency_bob),
                "eff_charlie": _round6(report.check.observed_efficiency_charlie),
                "predicted_loss_rate": _round6(0.5) if mounted else None,
                "observed_loss_rate": _round6(ratio(lost, mounted)) if mounted else None,
                "error_rate": _round6(report.check.test_error_rate),
                "verdict": report.check.verdict,
                "note": "",
            }
        )
    return out


# ---------------------------------------------------------------------------
# Closed-form verification of the interception table

_ID2 = np.eye(2, dtype=complex)
_SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
_SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_I_SIGMA_Y = np.array([[0, 1], [-1, 0]], dtype=complex)

_PAULI_OF_OUTCOME = {
    "phi+": ("identity", _ID2),
    "psi+": ("sigma_x", _SIGMA_X),
    "phi-": ("sigma_z", _SIGMA_Z),
    "psi-": ("i_sigma_y", _I_SIGMA_Y),
}
_UNIVERSAL_REPAIRS = {"phi+": ("identity", _ID2), "psi-": ("i_sigma_y", _I_SIGMA_Y)}
_ALL_CORRECTIONS = {
    "identity": _ID2,
    "sigma_x": _SIGMA_X,
    "sigma_z": _SIGMA_Z,
    "i_sigma_y": _I_SIGMA_Y,
}


@dataclass(frozen=True)
class Table1Cell:
    """One (signal state, Bell outcome) entry of the interception table."""

    signal: str
    outcome: str
    probability: float
    matches_pauli_form: bool
    repaired_by: str | None
    mean_correlated_error: float


@dataclass(frozen=True)
class CollapseCell:
    """Bob's post-state for one (signal, branch, second-photon outcome) cell.

    ``branch`` is ``phi+`` (no correction needed) or ``psi- repaired`` (after
    the universal i sigma_y correction); the two must give identical cells.
    """

    signal: str
    branch: str
    charlie_basis: str
    charlie_outcome: int
    bob_basis: str
    bob_outcome: int
    probability: float
    overlap: float


@dataclass(frozen=True)
class Table1Report:
    passed: bool
    cells: tuple[Table1Cell, ...]
    failures: tuple[str, ...]
    collapse_cells: tuple[CollapseCell, ...] = ()


def _phase_free_match(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> bool:
    return bool(abs(abs(np.vdot(a, b)) - 1.0) < tol)


_SQRT_HALF = 1.0 / np.sqrt(2.0)

# Single-qubit eigenstates, written out so this oracle stays self-contained.
_EIGENKET = {
    ("Z", +1): np.array([1, 0], dtype=complex),
    ("Z", -1): np.array([0, 1], dtype=complex),
    ("X", +1): np.array([_SQRT_HALF, _SQRT_HALF], dtype=complex),
    ("X", -1): np.array([_SQRT_HALF, -_SQRT_HALF], dtype=complex),
}

# Expected Bob eigenstate after the second photon of the surviving pair is
# found in the keyed eigenstate, for each signal state (phi+ branch).
_COLLAPSE_TABLE: dict[str, dict[tuple[str, int], tuple[str, int]]] = {
    "psi+": {
        ("Z", +1): ("Z", -1),
        ("Z", -1): ("Z", +1),
        ("X", +1): ("X", +1),
        ("X", -1): ("X", -1),
    },
    "phi-": {
        ("Z", +1): ("Z", +1),
        ("Z", -1): ("Z", -1),
        ("X", +1): ("X", -1),
        ("X", -1): ("X", +1),
    },
    "psi+r": {
        ("Z", +1): ("X", +1),
        ("Z", -1): ("X", -1),
        ("X", +1): ("Z", +1),
        ("X", -1): ("Z", -1),
    },
    "phi-r": {
        ("Z", +1): ("X", -1),
        ("Z", -1): ("X", +1),
        ("X", +1): ("Z", -1),
        ("X", -1): ("Z", +1),
    },
}

# Bob's (unnormalized) post-state when the second photon is found in
# a|0> + b|1> with real a, b; one closed form per signal state.
_GENERAL_COLLAPSE = {
    "psi+": lambda a, b: np.array([b, a], dtype=complex),
    "phi-": lambda a, b: np.array([a, -b], dtype=complex),
    "psi+r": lambda a, b: np.array([a + b, a - b], dtype=complex),
    "phi-r": lambda a, b: np.array([a - b, -(a + b)], dtype=complex),
}

_GENERAL_COLLAPSE_PROBES = ((0.6, 0.8), (0.28, -0.96), (1.0, 0.0), (_SQRT_HALF, _SQRT_HALF))


def _project_second(pair_state: np.ndarray, ket: np.ndarray) -> tuple[float, np.ndarray]:
    """Project the second qubit of a two-qubit state onto ``ket``.

    Returns the outcome probability and Bob's normalized post-state.
    """
    bob = pair_state.reshape(2, 2) @ np.conjugate(ket)
    prob = float(np.vdot(bob, bob).real)
    return prob, bob / np.sqrt(prob)


def _collapse_checks(
    signal_name: str, branch: str, pair_state: np.ndarray, tol: float
) -> tuple[list[CollapseCell], list[str]]:
    """Check all four second-photon outcomes plus the closed-form collapse."""
    cells: list[CollapseCell] = []
    failures: list[str] = []
    where = f"{signal_name}/{branch}"
    for (c_basis, c_out), (b_basis, b_out) in _COLLAPSE_TABLE[signal_name].items():
        prob, bob = _project_second(pair_state, _EIGENKET[(c_basis, c_out)])
        overlap = float(abs(np.vdot(_EIGENKET[(b_basis, b_out)], bob)))
        cells.append(
            CollapseCell(
                signal=signal_name,
                branch=branch,
                charlie_basis=c_basis,
                charlie_outcome=c_out,
                bob_basis=b_basis,
                bob_outcome=b_out,
                probability=prob,
                overlap=overlap,
            )
        )
        if abs(prob - 0.5) > tol:
            failures.append(
                f"{where}: ({c_basis},{c_out:+d}) occurs with "
                f"probability {prob:.6f} != 1/2"
            )
        if overlap < 1.0 - tol:
            failures.append(
                f"{where}: ({c_basis},{c_out:+d}) leaves overlap {overlap:.9f} "
                f"with ({b_basis},{b_out:+d})"
            )
    for a, b in _GENERAL_COLLAPSE_PROBES:
        ket = np.array([a, b], dtype=complex)
        prob, bob = _project_second(pair_state, ket)
        expected = _GENERAL_COLLAPSE[signal_name](a, b)
        expected = expected / np.linalg.norm(expected)
        if abs(prob - 0.5) > tol or not _phase_free_match(expected, bob, tol):
            failures.append(
                f"{where}: closed-form collapse fails for "
                f"second-photon state ({a:+.2f}, {b:+.2f})"
            )
    return cells, failures


def _second_qubit(op: np.ndarray, vec4: np.ndarray) -> np.ndarray:
    return (vec4.reshape(2, 2) @ op.T).reshape(4)


def _first_qubit(op: np.ndarray, vec4: np.ndarray) -> np.ndarray:
    return (op @ vec4.reshape(2, 2)).reshape(4)


def _correlated_error(vec4: np.ndarray, basis_class: int, bit: int) -> float:
    """Exact key-bit error rate of honest measurements on a two-photon state.

    Averages over the correlated basis pairings of the class, which occur
    with equal probability once the sifting condition is applied.
    """
    pairs = [
        (bb, cb)
        for bb in (Basis.Z, Basis.X)
        for cb in (Basis.Z, Basis.X)
        if correlated_bases(basis_class, bb, cb)
    ]
    errors = []
    for bb, cb in pairs:
        err = 0.0
        for i_b, o_b in ((0, +1), (1, -1)):
            for i_c, o_c in ((0, +1), (1, -1)):
                ket = np.kron(bb.eigenvectors[i_b], cb.eigenvectors[i_c])
                prob = abs(np.vdot(ket, vec4)) ** 2
                k_b = convention_bit(Scheme.KKI, basis_class, bb, cb, "bob", o_b)
                k_c = convention_bit(Scheme.KKI, basis_class, bb, cb, "charlie", o_c)
                if (k_b ^ k_c) != bit:
                    err += prob
        errors.append(err)
    return float(np.mean(errors))


def verify_table1(tol: float = 1e-9) -> Table1Report:
    """Re-derive the full interception table from first principles.

    Builds signal ⊗ substituted-pair four-photon states with raw linear
    algebra, Bell-projects the (kept substituted half, intercepted second
    photon) pair, and checks every cell:

    * each Bell outcome occurs with probability exactly 1/4;
    * the surviving pair equals the signal state with one Pauli applied to
      its second photon (identity, sigma_x, sigma_z, i sigma_y for the four
      outcomes respectively);
    * a single state-independent correction on the first photon repairs the
      ``phi+`` (identity) and ``psi-`` (i sigma_y) outcomes for all four
      signal states, and no such correction exists for the other two;
    * honest measurements after the repair show zero key-bit error, while
      the unrepaired outcomes average exactly 1/2 across the correlated
      basis pairings;
    * projecting the second photon of the surviving pair onto each Z/X
      eigenstate leaves the first photon in the tabulated eigenstate with
      unit overlap, and onto a general real superposition (a, b) leaves it
      in the closed-form state for that signal; both hold on the ``phi+``
      branch directly and on the ``psi-`` branch after its repair.
    """
    sqrt2 = np.sqrt(2.0)
    rotation = np.array([[1, 1], [-1, 1]], dtype=complex) / sqrt2
    psi_plus = np.array([0, 1, 1, 0], dtype=complex) / sqrt2
    phi_minus = np.array([1, 0, 0, -1], dtype=complex) / sqrt2
    signals = {
        "psi+": (1, 0, psi_plus),
        "phi-": (1, 1, phi_minus),
        "psi+r": (2, 0, _second_qubit(rotation, psi_plus)),
        "phi-r": (2, 1, _second_qubit(rotation, phi_minus)),
    }
    bell = {
        "phi+": np.array([1, 0, 0, 1], dtype=complex) / sqrt2,
        "phi-": np.array([1, 0, 0, -1], dtype=complex) / sqrt2,
        "psi+": np.array([0, 1, 1, 0], dtype=complex) / sqrt2,
        "psi-": np.array([0, 1, -1, 0], dtype=complex) / sqrt2,
    }
    failures: list[str] = []
    cells: list[Table1Cell] = []
    collapse_cells: list[CollapseCell] = []
    universal_ok = {
        outcome: {name: True for name in _ALL_CORRECTIONS}
        for outcome in bell
    }
    for signal_name, (basis_class, bit, signal) in signals.items():
        # Qubit order (B, C, B', C'): signal pair then substituted pair.
        full = np.kron(signal, bell["phi+"]).reshape(2, 2, 2, 2)
        total_prob = 0.0
        branch_states: dict[str, np.ndarray] = {}
        for outcome_name, outcome_vec in bell.items():
            e_mat = outcome_vec.reshape(2, 2)  # axes (B', C)
            amp = np.einsum("bcpq,pc->bq", full, np.conj(e_mat)).reshape(4)
            prob = float(np.vdot(amp, amp).real)
            total_prob += prob
            if abs(prob - 0.25) > tol:
                failures.append(
                    f"{signal_name}/{outcome_name}: probability {prob:.6f} != 1/4"
                )
            collapsed = amp / np.sqrt(prob)
            pauli_name, pauli = _PAULI_OF_OUTCOME[outcome_name]
            matches = _phase_free_match(_second_qubit(pauli, signal), collapsed, tol)
            if not matches:
                failures.append(
                    f"{signal_name}/{outcome_name}: collapse is not "
                    f"(I x {pauli_name}) applied to the signal"
                )
            for name, op in _ALL_CORRECTIONS.items():
                if not _phase_free_match(_first_qubit(op, collapsed), signal, tol):
                    universal_ok[outcome_name][name] = False
            if outcome_name in _UNIVERSAL_REPAIRS:
                repair_name, repair = _UNIVERSAL_REPAIRS[outcome_name]
                checked = _first_qubit(repair, collapsed)
                branch = "phi+" if outcome_name == "phi+" else "psi- repaired"
                branch_states[branch] = checked
                error = _correlated_error(checked, basis_class, bit)
                repaired_by = repair_name
                if error > tol:
                    failures.append(
                        f"{signal_name}/{outcome_name}: repaired state still "
                        f"shows error {error:.6f}"
                    )
            else:
                error = _correlated_error(collapsed, basis_class, bit)
                repaired_by = None
                if abs(error - 0.5) > tol:
                    failures.append(
                        f"{signal_name}/{outcome_name}: unrepaired error "
                        f"{error:.6f} != 1/2"
                    )
            cells.append(
                Table1Cell(
                    signal=signal_name,
                    outcome=outcome_name,
                    probability=prob,
                    matches_pauli_form=matches,
                    repaired_by=repaired_by,
                    mean_correlated_error=error,
                )
            )
        if abs(total_prob - 1.0) > tol:
            failures.append(f"{signal_name}: outcome probabilities sum to {total_prob}")
        for branch, pair_state in branch_states.items():
            branch_cells, branch_failures = _collapse_checks(
                signal_name, branch, pair_state, tol
            )
            collapse_cells.extend(branch_cells)
            failures.extend(branch_failures)
    for outcome_name, (repair_name, _) in _UNIVERSAL_REPAIRS.items():
        if not universal_ok[outcome_name][repair_name]:
            failures.append(
                f"{outcome_name}: {repair_name} fails to repair some signal state"
            )
    for outcome_name in ("psi+", "phi-"):
        for name, works in universal_ok[outcome_name].items():
            if works:
                failures.append(
                    f"{outcome_name}: correction {name} repairs every signal "
                    f"state, but no state-independent repair should exist"
                )
    return Table1Report(
        passed=not failures,
        cells=tuple(cells),
        failures=tuple(failures),
        collapse_cells=tuple(collapse_cells),
    )


# ---------------------------------------------------------------------------
# Self test

def selftest(rounds: int = 3000, seed: int = 0) -> tuple[bool, list[str]]:
    """Fast end-to-end sanity run; returns (ok, human-readable lines)."""
    lines: list[str] = []
    ok = True

    def note(passed: bool, text: str) -> None:
        nonlocal ok
        ok = ok and passed
        lines.append(f"[{'ok' if passed else 'FAIL'}] {text}")

    table = verify_table1()
    note(
        table.passed,
        f"interception table: {len(table.cells)} swap cells and "
        f"{len(table.collapse_cells)} collapse cells verified",
    )
    note(
        generate_convention_table() == load_convention_table(),
        "bit conventions: bundled table matches regeneration",
    )

    def session(preset: str, **params) -> SessionReport:
        config = preset_experiment(preset, eta=0.3, rounds=rounds, seed=seed, **params)
        try:
            return run_experiment(config, keep_transcripts=True)
        except NoTestDataError as exc:
            raise NoTestDataError(f"selftest session {preset!r}: {exc}") from exc

    honest = session("honest")
    validate_announcement_order(honest.transcripts[0])
    note(
        honest.check.verdict == "secure"
        and honest.check.test_error_rate == 0.0
        and honest.key_mismatches == 0,
        f"honest session: secure, zero errors, {honest.key_bits} key bits",
    )
    attacked = session("opaque-vulnerable", eta_prime=0.6)
    validate_announcement_order(attacked.transcripts[0])
    note(
        attacked.check.verdict == "secure"
        and attacked.ka_accuracy == 1.0
        and attacked.kc_accuracy == 1.0,
        "deferred attack, vulnerable ordering: undetected with perfect recovery",
    )
    sifting = session("opaque-sifting-classical", eta_prime=0.6)
    note(
        sifting.check.verdict == "compromised",
        f"deferred attack, sifting-first: detected "
        f"(error rate {sifting.check.test_error_rate:.3f})",
    )
    return ok, lines
