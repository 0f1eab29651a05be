"""The triqss benchmark: session throughput, memory, set-up time and layer costs.

Run from the repository root:

    python3 perfbench/run.py --workload honest --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Each workload runs single-threaded in a fresh interpreter (BLAS and OpenMP
pinned to one thread).  Untraced, the run reports ``rounds_per_s`` (the
fastest fifth of the run's sessions, see ``worker.fast_quintile``; the median
is printed next to it), ``peak_rss_mb`` and ``setup_s`` (median over one
fresh interpreter per session); every session's output is checked and a
failed check counts against ``failed``.  Traced (``--trace 1``), it reports the
per-layer timings and counts of ``perfbench/layers.py`` instead.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full results, with the interpreter, numpy,
CPU count, commit and source digest, go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from workloads import ROUNDS_PER_SESSION, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIME_LIMIT_S = 170.0  # per workload
PINNED_THREADS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    for name in PINNED_THREADS:
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args: list[str]) -> dict:
    """Run ``worker.py`` to completion and return its JSON result line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        timeout=TIME_LIMIT_S,
        check=True,
        text=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "triqss").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One workload's metrics, failure counts and raw results."""
    raw = run_worker(
        ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)]
    )
    sessions = raw["sessions"]
    failed = sum(1 for s in sessions if s["failures"])
    if trace:
        metrics = {**raw["timings"], **raw["counts"]}
    else:
        metrics = {name: raw[name] for name in ("rounds_per_s", "peak_rss_mb", "setup_s")}
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "attempted": len(sessions),
        "failed": failed,
        "failed_frac": failed / len(sessions),
        "timed_sessions": sum(1 for s in sessions
                              if s["phase"] in ("untraced", "traced")),
        "metrics": metrics,
        "raw": raw,
    }


UNITS = {
    "rounds_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    from layers import COUNTS, TIMINGS

    return {n: u for n, u, _, _ in (*TIMINGS, *COUNTS)}[name]


def report(result: dict, env: dict) -> None:
    """Human-readable lines for one workload."""
    w = result["workload"]
    print(f"== {w}: seed {result['seed']}, trace {result['trace']}, "
          f"{result['timed_sessions']} timed sessions of {ROUNDS_PER_SESSION} rounds")
    for s in result["raw"]["sessions"]:
        for failure in s["failures"]:
            print(f"   FAILED {s['phase']} session seed {s['seed']}: {failure}")
    print(f"   failed_frac {result['failed_frac']:.4f} fraction "
          f"({result['failed']} of {result['attempted']} sessions)")
    metrics = result["metrics"]
    if result["trace"]:
        counts = result["raw"]["counts"]
        print(f"   timings (median over traced sessions; rounds_per_s untraced "
              f"{result['raw']['rounds_per_s']:.1f} 1/s, traced "
              f"{result['raw']['traced_rounds_per_s']:.1f} 1/s):")
        for name, value in metrics.items():
            if name not in counts:
                print(f"     {name} {value:.6g} {unit_of(name)}")
        print("   counts (session seed s0; repeated exactly on its re-run: "
              f"{'yes' if result['raw']['counts_repeat'] else 'NO'}):")
        for name in counts:
            print(f"     {name} {metrics[name]:.6g} {unit_of(name)}")
        print(f"   spans of session seed s0: {result['raw']['spans_file']}")
    else:
        for name, value in metrics.items():
            print(f"   {name} {value:.6g} {unit_of(name)}")
        raw = result["raw"]
        print(f"   (rounds_per_s is the fastest-fifth value of "
              f"{result['timed_sessions']} sessions; their median is "
              f"{raw['median_rounds_per_s']:.6g} 1/s; setup_s is the median of "
              f"{len(raw['setup_samples_s'])} fresh interpreters)")
    print(f"   python {env['python']}, numpy {result['raw']['numpy']}, "
          f"nproc {env['nproc']}, commit {env['commit']}, "
          f"source {env['source_sha256'][:16]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "triqss" / "__init__.py").is_file():
        print(f"perfbench: no triqss source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": commit(),
        "source_sha256": source_digest(),
        "rounds_per_session": ROUNDS_PER_SESSION,
        "pinned_threads": {name: "1" for name in PINNED_THREADS},
    }
    try:
        results = [measure(w, args.seed, args.seconds, args.trace) for w in names]
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: worker failed: {exc}", file=sys.stderr)
        return 1
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    for result in results:
        report(result, env)
        out = out_dir / f"{result['workload']}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps({"env": env, **result}, indent=2) + "\n")
    metrics = {}
    for r in results:
        prefix = f"{r['workload']}." if len(results) > 1 else ""
        for name, value in r["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": unit_of(name)}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
