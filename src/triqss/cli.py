"""Command-line front end.

Subcommands
-----------
* ``run``: one experiment (a preset, optionally adjusted by flags), printing
  a summary and optionally writing a report row and a JSONL transcript.
* ``sweep``: attacked fraction vs replacement efficiency, against the
  loss-budget formula.
* ``verify-table1``: the closed-form interception-table verification.
* ``selftest``: fast end-to-end sanity checks.

Exit codes: 0 on success, 1 when a verification or an ``--expect`` assertion
fails, 2 on configuration errors, 3 when a run leaves no usable test data to
check (for example too few rounds for any test round to survive).  ``sweep``
reports such a point as a row, finishes the other points, then exits 3.
"""

from __future__ import annotations

import argparse
import json
import sys

from .harness import (
    NO_TEST_DATA_NOTE,
    PRESET_NAMES,
    preset_experiment,
    run_experiment,
    selftest,
    sweep_pe,
    verify_table1,
    write_report_csv,
    write_report_json,
    write_sweep_csv,
    write_sweep_json,
)
from .protocol import (
    EFFICIENCY_TOLERANCE,
    ConfigError,
    Mode,
    NoTestDataError,
    OrderingPolicy,
    export_transcript_jsonl,
)

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_CONFIG = 2
EXIT_NO_TEST_DATA = 3


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE",
                        help="JSON file with defaults; explicit flags override it")
    parser.add_argument("--eta", type=float, default=None,
                        help="honest per-leg channel efficiency (default 0.3)")
    parser.add_argument("--rounds", type=int, default=None,
                        help="rounds per session (default 20000)")
    parser.add_argument("--seed", type=int, default=None,
                        help="base random seed (default 0)")
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="write the report table to this path")
    parser.add_argument("--format", choices=("csv", "json"), default=None,
                        help="report file format (default csv)")


def _given(args: argparse.Namespace, *keys: str) -> dict:
    """The values of ``keys`` set by a flag or by ``--config``; flags win.

    Keys set by neither are left out, so the library's own defaults apply.
    """
    given = {key: args._config_data[key] for key in keys if key in args._config_data}
    for key in keys:
        if getattr(args, key, None) is not None:
            given[key] = getattr(args, key)
    return given


def _merge(args: argparse.Namespace, key: str, fallback):
    return _given(args, key).get(key, fallback)


def _load_config_file(args: argparse.Namespace) -> None:
    args._config_data = {}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ConfigError("config", f"{args.config} must hold a JSON object")
        args._config_data = data
        _check_config_keys(args)


def _check_config_keys(args: argparse.Namespace) -> None:
    """Reject a ``--config`` key that is not an option of the subcommand's
    own parser, a value outside that option's argparse choices, or a file
    path that is not a string, before any value is used."""
    actions = {action.dest: action for action in args._parser._actions}
    for key, value in args._config_data.items():
        action = actions.get(key)
        if action is None or key in ("help", "config"):
            raise ConfigError(key, f"not an option of '{args.command}'")
        if action.choices is not None and value not in action.choices:
            raise ConfigError(
                key, f"must be one of {', '.join(action.choices)}, got {value!r}"
            )
        if action.metavar == "FILE" and not isinstance(value, str):
            raise ConfigError(key, f"need a file path string, got {value!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triqss",
        description="Simulator for entanglement-based three-party secret "
        "sharing under a dishonest agent's interception attack.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment preset")
    p_run.add_argument("--preset", choices=PRESET_NAMES, default=None,
                       help="experiment preset (default honest)")
    p_run.add_argument("--ordering", choices=sorted(p.value for p in OrderingPolicy),
                       default=None, help="announcement ordering override")
    p_run.add_argument("--mode", choices=sorted(m.value for m in Mode), default=None,
                       help="round usage mode override")
    p_run.add_argument("--repetitions", type=int, default=None,
                       help="sessions to pool (default 1)")
    p_run.add_argument("--test-fraction", type=float, default=None,
                       help="fraction of rounds designated as test (default 0.25)")
    p_run.add_argument("--transcript", metavar="FILE", default=None,
                       help="write the first session transcript as JSONL")
    p_run.add_argument("--expect", choices=("secure", "compromised"), default=None,
                       help="exit with status 1 unless the verdict matches")
    p_run.add_argument("--eta-prime", type=float, default=None,
                       help="adversary replacement-channel efficiency (default 0.6)")
    _add_common(p_run)
    p_run.set_defaults(_parser=p_run)

    # No abbreviations: "--eta-prime" would be read as "--eta-prime-list".
    p_sweep = sub.add_parser(
        "sweep", help="attacked fraction vs eta_prime", allow_abbrev=False
    )
    p_sweep.add_argument("--eta-prime-list", "--eta-primes", dest="eta_primes",
                         default=None,
                         help="comma-separated replacement efficiencies "
                         "(default 0.25,0.3,0.35,0.4,0.45,0.5)")
    p_sweep.add_argument("--repetitions", type=int, default=None,
                         help="sessions to pool per grid point (default 1)")
    _add_common(p_sweep)
    p_sweep.set_defaults(_parser=p_sweep)

    p_table = sub.add_parser(
        "verify-table1", help="closed-form check of the interception table"
    )
    p_table.add_argument("--quiet", action="store_true",
                         help="print failures only")

    p_self = sub.add_parser("selftest", help="fast end-to-end sanity checks")
    p_self.add_argument("--rounds", type=int, default=3000,
                        help="rounds per selftest session (default 3000)")
    p_self.add_argument("--seed", type=int, default=0,
                        help="selftest seed (default 0)")

    return parser


def _fmt(value, digits: int = 4) -> str:
    return "n/a" if value is None else f"{value:.{digits}f}"


def _print_run_summary(report) -> None:
    check = report.check
    session = report.session
    print(f"scenario: {report.scenario}")
    print(
        f"rounds: {report.tally.rounds} "
        f"({report.repetitions} repetition{'s' if report.repetitions != 1 else ''})"
    )
    print(
        f"channel: eta={session.channel.eta} eta_prime={session.channel.eta_prime} "
        f"scheme={session.scheme.value} ordering={session.ordering.value} "
        f"mode={session.mode.value}"
    )
    print(f"verdict: {check.verdict}")
    print(
        f"test error rate: {_fmt(check.test_error_rate)} "
        f"(CI {_fmt(check.error_ci[0])}..{_fmt(check.error_ci[1])}, "
        f"{check.test_rounds_checked} checks)"
    )
    if check.bob_leg_error_rate is not None:
        print(
            f"per-leg error rates: bob {_fmt(check.bob_leg_error_rate)}, "
            f"charlie {_fmt(check.charlie_leg_error_rate)}"
        )
    print(
        f"efficiency: bob {_fmt(check.observed_efficiency_bob, 3)}, "
        f"charlie {_fmt(check.observed_efficiency_charlie, 3)} "
        f"(expected {check.expected_efficiency} "
        f"+/- {EFFICIENCY_TOLERANCE})"
    )
    print(f"sift rate: {_fmt(check.sift_rate, 3)}")
    print(
        f"attacked fraction: {_fmt(report.attacked_fraction_observed, 3)} "
        f"(planned {_fmt(report.planned_attack_fraction, 3)})"
    )
    print(
        f"recovered keys: dealer-bit accuracy {_fmt(report.ka_accuracy)} "
        f"(n={report.tally.dealer_bit_recoveries}), "
        f"agent-outcome accuracy {_fmt(report.kc_accuracy)} "
        f"(n={report.tally.charlie_bit_recoveries})"
    )
    print(f"distilled key: {report.key_bits} bits, {report.key_mismatches} mismatches")


def _cmd_run(args: argparse.Namespace) -> int:
    _load_config_file(args)
    ordering = _merge(args, "ordering", None)
    mode = _merge(args, "mode", None)
    config = preset_experiment(
        _merge(args, "preset", "honest"),
        **_given(args, "eta", "eta_prime", "rounds", "seed", "repetitions",
                 "test_fraction"),
        ordering=OrderingPolicy(ordering) if ordering else None,
        mode=Mode(mode) if mode else None,
    )
    transcript_path = _merge(args, "transcript", None)
    report = run_experiment(config, keep_transcripts=transcript_path is not None)
    _print_run_summary(report)
    out = _merge(args, "out", None)
    if out:
        fmt = _merge(args, "format", "csv")
        writer = write_report_csv if fmt == "csv" else write_report_json
        writer([report], out)
        print(f"report written to {out}")
    if transcript_path:
        export_transcript_jsonl(report.transcripts[0], transcript_path)
        print(f"transcript written to {transcript_path}")
    expect = _merge(args, "expect", None)
    if expect and report.check.verdict != expect:
        print(f"expected verdict {expect!r}, got {report.check.verdict!r}")
        return EXIT_ASSERTION
    return EXIT_OK


def _efficiency(entry: str) -> float:
    """One entry of ``--eta-prime-list``, as a float."""
    try:
        return float(entry)
    except ValueError:
        raise ConfigError("eta_primes", f"not a number: {entry.strip()!r}") from None


def _cmd_sweep(args: argparse.Namespace) -> int:
    _load_config_file(args)
    given = _given(args, "eta", "rounds", "seed", "repetitions", "eta_primes")
    if "eta_primes" in given:
        raw = given.pop("eta_primes")
        if isinstance(raw, str):
            raw = [_efficiency(v) for v in raw.split(",") if v.strip()]
        if not isinstance(raw, list) or not raw:
            raise ConfigError("eta_primes", "need a list of at least one efficiency")
        given["eta_prime_values"] = tuple(raw)
    rows = sweep_pe(**given)
    header = (
        f"{'eta_prime':>9} {'formula_f':>9} {'measured_f':>10} "
        f"{'eff_bob':>8} {'eff_charlie':>11} {'verdict':>11}"
    )
    print(header)
    for row in rows:
        if row["note"]:
            print(f"{row['eta_prime']:>9.3f} {row['note']}")
            continue
        print(
            f"{row['eta_prime']:>9.3f} {row['formula_fraction']:>9.3f} "
            f"{row['measured_fraction']:>10.4f} {row['eff_bob']:>8.4f} "
            f"{row['eff_charlie']:>11.4f} {row['verdict']:>11}"
        )
    out = _merge(args, "out", None)
    if out:
        fmt = _merge(args, "format", "csv")
        writer = write_sweep_csv if fmt == "csv" else write_sweep_json
        writer(rows, out)
        print(f"sweep written to {out}")
    missing = [row["eta_prime"] for row in rows if row["note"] == NO_TEST_DATA_NOTE]
    if missing:
        points = ", ".join(f"{eta_prime:.3f}" for eta_prime in missing)
        print(f"error: no usable test data at eta_prime {points}", file=sys.stderr)
        return EXIT_NO_TEST_DATA
    return EXIT_OK


def _cmd_verify_table1(args: argparse.Namespace) -> int:
    report = verify_table1()
    if not args.quiet:
        print(f"{'signal':>7} {'outcome':>8} {'prob':>7} {'pauli form':>10} "
              f"{'repaired by':>12} {'key error':>10}")
        for cell in report.cells:
            print(
                f"{cell.signal:>7} {cell.outcome:>8} {cell.probability:>7.4f} "
                f"{str(cell.matches_pauli_form):>10} "
                f"{cell.repaired_by or '-':>12} {cell.mean_correlated_error:>10.4f}"
            )
        print()
        print(f"{'signal':>7} {'branch':>14} {'second photon':>14} "
              f"{'first photon':>13} {'overlap':>9}")
        for cc in report.collapse_cells:
            seen = f"({cc.charlie_basis},{cc.charlie_outcome:+d})"
            left = f"({cc.bob_basis},{cc.bob_outcome:+d})"
            print(
                f"{cc.signal:>7} {cc.branch:>14} {seen:>14} {left:>13} "
                f"{cc.overlap:>9.6f}"
            )
    for failure in report.failures:
        print(f"FAIL: {failure}")
    print(f"verify-table1: {'pass' if report.passed else 'fail'} "
          f"({len(report.cells)} swap cells, "
          f"{len(report.collapse_cells)} collapse cells)")
    return EXIT_OK if report.passed else EXIT_ASSERTION


def _cmd_selftest(args: argparse.Namespace) -> int:
    ok, lines = selftest(rounds=args.rounds, seed=args.seed)
    for line in lines:
        print(line)
    print(f"selftest: {'pass' if ok else 'fail'}")
    return EXIT_OK if ok else EXIT_ASSERTION


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "verify-table1": _cmd_verify_table1,
        "selftest": _cmd_selftest,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_TEST_DATA if isinstance(exc, NoTestDataError) else EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
