"""Measure one workload in this interpreter and print the raw results.

``run.py`` starts this script in a fresh interpreter per workload, so peak
memory and set-up time belong to that workload alone.  It prints one JSON
object as its last line of standard output.

    python perfbench/worker.py --workload honest --seed 1 --seconds 20 --trace 0
    python perfbench/worker.py --workload honest --setup-only

A run is: one warm-up session (seed s0, untimed but checked), timed sessions
on further seeds until the time is up, and a re-run of seed s0 whose
``SessionTally`` must equal the warm-up's.  With ``--trace 1`` the time is
split between an untraced and a traced phase; the traced phase starts again
at seed s0, whose per-layer counts must repeat exactly on the re-run.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

OUT_DIR = Path(__file__).resolve().parent / "out"
MIN_TIMED_SESSIONS = 5
UNTRACED_SHARE = 0.4  # of --seconds, in a traced run


@dataclass
class Session:
    seed: int
    phase: str
    wall_s: float
    rounds: int
    failures: list[str]
    tally: object = field(repr=False)
    transcript_bytes: int = 0
    spans: object = field(default=None, repr=False)
    timings: dict | None = field(default=None, repr=False)

    @property
    def rounds_per_s(self) -> float:
        return self.rounds / self.wall_s

    def summary(self) -> dict:
        return {
            "seed": self.seed,
            "phase": self.phase,
            "rounds_per_s": self.rounds_per_s,
            "failures": self.failures,
        }


def fast_quintile(values) -> float:
    """80th percentile of per-session rounds/s.

    On a shared 2-core host the CPU speed a process gets swings by up to 40%
    over periods of seconds to minutes.  The median of a 20 s run lands on
    whichever speed held for most of it; the fastest fifth of its sessions
    tracks full speed as long as a fifth of the run had it (run-to-run
    spread 5-15% against 20-33% for the median on that host).
    """
    return statistics.quantiles(values, n=5)[-1]


def count_lines(path: str) -> int:
    # In chunks, so that the check adds nothing to the measured peak memory.
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 16), b""))


def session_seeds(seed: int):
    """Session seeds drawn from the run's seed; the first one is s0."""
    rng = random.Random(seed)
    while True:
        yield rng.getrandbits(32)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # Set-up time: importing triqss and building the workload's config.
    start = time.perf_counter()
    import triqss.harness as harness
    import triqss.protocol as protocol
    from workloads import WORKLOADS, build_config, check_session

    workload = WORKLOADS[args.workload]
    build_config(workload, 0)
    setup_s = time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import numpy

    OUT_DIR.mkdir(exist_ok=True)

    def session(seed: int, phase: str) -> Session:
        config = build_config(workload, seed)
        audit = None
        transcript_bytes = 0
        path = None
        if workload.audit:
            fd, path = tempfile.mkstemp(suffix=".jsonl", dir=OUT_DIR)
            os.close(fd)
        try:
            begin = time.perf_counter()
            report = harness.run_experiment(config, keep_transcripts=workload.audit)
            if workload.audit:
                transcript = report.transcripts[0]
                validation_error = None
                try:
                    protocol.validate_announcement_order(transcript)
                except protocol.AnnouncementOrderError as exc:
                    validation_error = str(exc)
                protocol.export_transcript_jsonl(transcript, path)
            wall = time.perf_counter() - begin
            if workload.audit:
                transcript_bytes = os.path.getsize(path)
                audit = {"validation_error": validation_error,
                         "lines": count_lines(path)}
        finally:
            if path is not None:
                os.remove(path)
        return Session(seed, phase, wall, report.tally.rounds,
                       check_session(workload, report, audit), report.tally,
                       transcript_bytes)

    def timed_phase(seeds, phase: str, budget_s: float, each) -> list[Session]:
        """Sessions until ``budget_s`` is spent; time in ``each`` is not counted."""
        out: list[Session] = []
        deadline = time.perf_counter() + budget_s
        while len(out) < MIN_TIMED_SESSIONS or time.perf_counter() < deadline:
            s = session(next(seeds), phase)
            paused = time.perf_counter()
            each(s)
            deadline += time.perf_counter() - paused
            out.append(s)
        return out

    setups = [setup_s]

    def sample_setup(s: Session) -> None:
        # One fresh interpreter per session, so set-up samples span the run.
        if not args.trace:
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", workload.name, "--setup-only"],
                stdout=subprocess.PIPE, check=True, text=True, timeout=60,
            )
            setups.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])

    seeds = session_seeds(args.seed)
    s0 = next(seeds)
    warmup = session(s0, "warmup")
    untraced_budget = args.seconds * (UNTRACED_SHARE if args.trace else 1.0)
    untraced = timed_phase(seeds, "untraced", untraced_budget, sample_setup)
    untraced_rps = fast_quintile([s.rounds_per_s for s in untraced])
    result: dict = {
        "setup_s": statistics.median(setups),
        "setup_samples_s": setups,
        "numpy": numpy.__version__,
        "rounds_per_s": untraced_rps,
        "median_rounds_per_s": statistics.median(s.rounds_per_s for s in untraced),
    }

    if args.trace:
        from layers import Tracer, count_metrics, timing_metrics

        tracer = Tracer()

        def take_spans(s: Session) -> None:
            s.spans = tracer.take()
            s.timings = timing_metrics(s.spans, s.rounds, s.wall_s)
            if s.phase != "traced" or s.seed != s0:
                s.spans.raw = None  # only the seed-s0 session's spans are written

        tracer.install()
        try:
            traced = timed_phase(session_seeds(args.seed), "traced",
                                 args.seconds - untraced_budget, each=take_spans)
            rerun = session(s0, "rerun")
            take_spans(rerun)
        finally:
            tracer.uninstall()
        first = traced[0]  # seed s0, like the warm-up and the re-run
        if first.tally != warmup.tally:
            first.failures.append("tracing changed the SessionTally of seed s0")
        counts = count_metrics(first.spans, first.rounds, first.tally,
                               first.transcript_bytes)
        counts_repeat = counts == count_metrics(rerun.spans, rerun.rounds, rerun.tally,
                                                rerun.transcript_bytes)
        if not counts_repeat:
            rerun.failures.append("per-layer counts differ on the re-run of seed s0")
        traced_rps = fast_quintile([s.rounds_per_s for s in traced])
        timings = {
            name: statistics.median(s.timings[name] for s in traced)
            for name in traced[0].timings
        }
        timings["tracing.overhead_frac"] = 1.0 - traced_rps / untraced_rps
        result.update(timings=timings, counts=counts, counts_repeat=counts_repeat,
                      traced_rounds_per_s=traced_rps)
        spans_file = OUT_DIR / f"{workload.name}.spans.npz"
        numpy.savez_compressed(spans_file, names=numpy.array(first.spans.names),
                               session_seed=s0, **first.spans.raw)
        result["spans_file"] = str(spans_file.relative_to(Path.cwd()))
    else:
        traced = []
        rerun = session(s0, "rerun")

    if rerun.tally != warmup.tally:
        rerun.failures.append("SessionTally differs on the re-run of seed s0")
    sessions = [warmup, *untraced, *traced, rerun]
    result["sessions"] = [s.summary() for s in sessions]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
