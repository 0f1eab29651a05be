"""The benchmark's session workloads and the output check of each.

Every workload is one preset of ``triqss.harness`` at a fixed session size.
A session is one ``run_experiment`` call (session, tally, check and key
distillation), plus transcript validation and export where the workload
audits.  Each session's output is checked; a session that fails its check
counts as a failed operation.
"""

from __future__ import annotations

from dataclasses import dataclass

ETA = 0.3
ETA_PRIME = 0.6
ROUNDS_PER_SESSION = 20_000


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    why: str
    audit: bool = False  # keep the transcript, validate it and export it


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "honest",
            "honest",
            "bare KKI round engine with the adversary idle: the no-change side "
            "for any adversary-path change",
        ),
        Workload(
            "attack",
            "opaque-vulnerable",
            "planned attack fraction 1.0: every round parks a pair, loads the "
            "adversary, the cross-factor Bell measurement and key recovery",
        ),
        Workload(
            "state-sharing-audit",
            "opaque-sifting-state-sharing",
            "75% unmeasured message rounds read back through joint_state and "
            "overlap, plus transcript validation and JSONL export",
            audit=True,
        ),
        Workload(
            "ghz",
            "hbb",
            "GHZ reduction (3-qubit measure_qubit every round) and the HBB "
            "X/Y convention tables, which no other workload reaches",
        ),
    )
}


def build_config(workload: Workload, seed: int):
    """The workload's experiment config for one session seed."""
    from triqss.harness import preset_experiment

    return preset_experiment(
        workload.preset,
        eta=ETA,
        eta_prime=ETA_PRIME,
        rounds=ROUNDS_PER_SESSION,
        seed=seed,
    )


def check_session(workload: Workload, report, audit: dict | None) -> list[str]:
    """Everything wrong with one session's output; empty when it passed.

    ``audit`` holds what the audit steps produced: whether validation raised
    and the exported file's line count.
    """
    failures = []
    check = report.check
    if check.verdict != "secure":
        failures.append(f"verdict {check.verdict}, expected secure")
    if workload.name in ("honest", "ghz"):
        if check.test_errors != 0:
            failures.append(f"{check.test_errors} test errors, expected 0")
        if report.key_mismatches != 0:
            failures.append(f"{report.key_mismatches} key mismatches, expected 0")
        if report.key_bits == 0:
            failures.append("no key bits distilled")
    elif workload.name == "attack":
        if not (report.ka_accuracy == report.kc_accuracy == 1.0):
            failures.append(
                f"recovery accuracy ka={report.ka_accuracy} "
                f"kc={report.kc_accuracy}, expected 1.0"
            )
        if abs(report.attacked_fraction_observed - 1.0) > 0.01:
            failures.append(
                f"attacked fraction {report.attacked_fraction_observed}, "
                f"expected 1.0"
            )
    elif workload.name == "state-sharing-audit":
        if audit["validation_error"] is not None:
            failures.append(f"validation raised: {audit['validation_error']}")
        if audit["lines"] != report.tally.rounds + 1:
            failures.append(
                f"transcript has {audit['lines']} lines, "
                f"expected {report.tally.rounds + 1}"
            )
        tally = report.tally
        if tally.adversary_pairs_intact != tally.attacked_message_mounted:
            failures.append(
                f"{tally.adversary_pairs_intact} parked pairs intact of "
                f"{tally.attacked_message_mounted} mounted message rounds"
            )
    return failures
