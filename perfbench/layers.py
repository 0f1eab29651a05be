"""Per-layer tracing from outside the program, and the per-layer metrics.

The tracer replaces each traced layer function with a wrapper at the name
its caller looks it up by (a module global or a class attribute), so no file
under ``src/`` changes.  Each call records a span: name, start, end and the
span that was open when it began.  Garbage-collector pauses are spans of the
``python`` layer.  Spans stay in memory (flat arrays, so they add no objects
for the collector to scan) and are reduced once per session.

A layer's self time is the duration of its spans minus the time their
direct child spans cover.
"""

from __future__ import annotations

import gc
import importlib
import time
from array import array
from dataclasses import dataclass

# (module, class or None, attribute, span name).  A function imported into
# several modules is wrapped at each name a traced caller uses.
INSTRUMENTED = (
    ("triqss.harness", None, "run_experiment", "harness.run_experiment"),
    ("triqss.harness", None, "run_session", "protocol.run_session"),
    ("triqss.harness", None, "tally_transcript", "protocol.tally_transcript"),
    ("triqss.harness", None, "distill_keys", "protocol.distill_keys"),
    ("triqss.harness", None, "evaluate_tally", "protocol.evaluate_tally"),
    ("triqss.protocol", None, "validate_announcement_order",
     "protocol.validate_announcement_order"),
    ("triqss.protocol", None, "export_transcript_jsonl",
     "protocol.export_transcript_jsonl"),
    ("triqss.adversary", "ActiveAdversary", "substitute", "adversary.substitute"),
    ("triqss.adversary", "ActiveAdversary", "bob_measures_immediately",
     "adversary.bob_measures_immediately"),
    ("triqss.adversary", "ActiveAdversary", "sifting_declaration",
     "adversary.sifting_declaration"),
    ("triqss.adversary", "ActiveAdversary", "untouched_test_declaration",
     "adversary.untouched_test_declaration"),
    ("triqss.adversary", "ActiveAdversary", "respond_test", "adversary.respond_test"),
    ("triqss.adversary", "ActiveAdversary", "key_declaration",
     "adversary.key_declaration"),
    ("triqss.adversary", "ActiveAdversary", "fake_key_basis",
     "adversary.fake_key_basis"),
    ("triqss.adversary", "ActiveAdversary", "recover_dealer_bit",
     "adversary.recover_dealer_bit"),
    ("triqss.adversary", "ActiveAdversary", "recover_charlie_outcome",
     "adversary.recover_charlie_outcome"),
    ("triqss.registry", "PhotonRegistry", "add", "registry.add"),
    ("triqss.registry", "PhotonRegistry", "apply", "registry.apply"),
    ("triqss.registry", "PhotonRegistry", "measure", "registry.measure"),
    ("triqss.registry", "PhotonRegistry", "measure_pair", "registry.measure_pair"),
    ("triqss.registry", "PhotonRegistry", "discard", "registry.discard"),
    ("triqss.registry", "PhotonRegistry", "joint_state", "registry.joint_state"),
    ("triqss.registry", None, "measure_qubit", "qcore.measure_qubit"),
    ("triqss.registry", None, "measure_two_qubit_basis",
     "qcore.measure_two_qubit_basis"),
    ("triqss.registry", None, "apply_correction", "qcore.apply_correction"),
    ("triqss.preparation", None, "measure_qubit", "qcore.measure_qubit"),
    ("triqss.protocol", None, "overlap", "qcore.overlap"),
    ("triqss.protocol", None, "transmit", "channel.transmit"),
    ("triqss.adversary", None, "loss_filter", "channel.loss_filter"),
    ("triqss.preparation", "PreparedState", "from_tag", "preparation.from_tag"),
    ("triqss.preparation", "HbbPrep", "from_measurement",
     "preparation.from_measurement"),
    ("triqss.protocol", None, "hbb_reduce", "preparation.hbb_reduce"),
    ("triqss.protocol", None, "prepare_hardened_test_round",
     "preparation.prepare_hardened_test_round"),
    ("triqss.protocol", None, "correlated_bases", "conventions.correlated_bases"),
    ("triqss.conventions", None, "correlated_bases", "conventions.correlated_bases"),
    ("triqss.protocol", None, "convention_bit", "conventions.convention_bit"),
)

GC_SPAN = "python.gc"

# Per-layer metrics: name, unit, better, and the end-to-end metric and
# workloads each should move.  Timings are medians over a run's traced
# sessions; counts come from the run's first session seed and repeat exactly.
TIMINGS = (
    ("harness.run_experiment.self_us_per_round", "us/round", "lower",
     "rounds_per_s, all workloads"),
    ("protocol.run_session.us_per_round", "us/round", "lower",
     "rounds_per_s, all workloads"),
    ("protocol.run_session.self_us_per_round", "us/round", "lower",
     "rounds_per_s, all workloads; largest on honest (per-round PCG64 "
     "construction and Python orchestration)"),
    ("protocol.tally_transcript.us_per_round", "us/round", "lower",
     "rounds_per_s, mostly state-sharing-audit"),
    ("protocol.distill_keys.us_per_round", "us/round", "lower",
     "rounds_per_s on honest, attack, ghz; zero on state-sharing-audit"),
    ("protocol.validate_announcement_order.us_per_round", "us/round", "lower",
     "rounds_per_s and peak_rss_mb on state-sharing-audit only"),
    ("protocol.export_transcript_jsonl.us_per_round", "us/round", "lower",
     "rounds_per_s and peak_rss_mb on state-sharing-audit only"),
    ("adversary.self_us_per_round", "us/round", "lower",
     "rounds_per_s on attack and state-sharing-audit; zero on honest, ghz"),
    ("registry.self_us_per_round", "us/round", "lower",
     "rounds_per_s, all workloads"),
    ("registry.measure.us_per_call", "us/call", "lower",
     "rounds_per_s, all workloads"),
    ("registry.measure_pair.us_per_call", "us/call", "lower",
     "rounds_per_s, mostly attack"),
    ("qcore.self_us_per_round", "us/round", "lower",
     "rounds_per_s, all workloads"),
    ("qcore.measure_qubit.us_per_call", "us/call", "lower",
     "rounds_per_s, all workloads; ghz has the 3-qubit case"),
    ("channel.self_us_per_round", "us/round", "lower",
     "rounds_per_s, all workloads"),
    ("preparation.self_us_per_round", "us/round", "lower",
     "rounds_per_s, all workloads; GHZ reduction on ghz"),
    ("preparation.hbb_reduce.us_per_call", "us/call", "lower",
     "rounds_per_s on ghz only"),
    ("conventions.self_us_per_round", "us/round", "lower",
     "rounds_per_s, all workloads"),
    ("python.gc.pause_frac", "fraction", "lower",
     "rounds_per_s and peak_rss_mb, mostly attack and state-sharing-audit"),
    ("python.gc.collections", "count", "lower",
     "rounds_per_s and peak_rss_mb, mostly attack and state-sharing-audit; "
     "collections per session"),
    ("tracing.overhead_frac", "fraction", "lower",
     "none: 1 - traced/untraced rounds_per_s of the same run"),
)

COUNTS = (
    ("protocol.announcements_per_round", "count", "lower",
     "rounds_per_s, all workloads"),
    ("protocol.transcript_bytes_per_round", "B/round", "lower",
     "rounds_per_s and peak_rss_mb on state-sharing-audit; zero elsewhere"),
    ("adversary.recover_dealer_bit.calls_per_round", "count", "lower",
     "rounds_per_s on attack; zero elsewhere"),
    ("adversary.recovery_yield", "ratio", "higher",
     "rounds_per_s on attack: dealer_bit_recoveries / attacked_mounted"),
    ("adversary.loss_cheat_ratio", "ratio", "lower",
     "rounds_per_s on attack and state-sharing-audit: "
     "attacked_test_loss_declared / attacked_test_mounted"),
    ("registry.measure.calls_per_round", "count", "lower",
     "rounds_per_s, all workloads (includes the measure inside each discard)"),
    ("registry.measure_pair.calls_per_round", "count", "lower",
     "rounds_per_s on attack"),
    ("registry.discard.calls_per_round", "count", "lower",
     "rounds_per_s, all workloads"),
    ("registry.joint_state.calls_per_round", "count", "lower",
     "rounds_per_s on state-sharing-audit"),
    ("qcore.measure_qubit.calls_per_round", "count", "lower",
     "rounds_per_s, all workloads"),
    ("qcore.measure_two_qubit_basis.calls_per_round", "count", "lower",
     "rounds_per_s, all workloads"),
    ("qcore.overlap.calls_per_round", "count", "lower",
     "rounds_per_s on state-sharing-audit"),
    ("channel.transmit.calls_per_round", "count", "lower",
     "rounds_per_s on honest and ghz"),
    ("channel.loss_filter.calls_per_round", "count", "lower",
     "rounds_per_s on attack and state-sharing-audit"),
    ("conventions.correlated_bases.calls_per_round", "count", "lower",
     "rounds_per_s, all workloads"),
    ("conventions.convention_bit.calls_per_round", "count", "lower",
     "rounds_per_s, all workloads"),
)


@dataclass
class SessionSpans:
    """One session's spans, reduced per span name (times in ns)."""

    names: list[str]
    calls: np.ndarray
    total_ns: np.ndarray
    self_ns: np.ndarray
    announcements: int
    raw: dict[str, np.ndarray] | None

    def _at(self, values: np.ndarray, name: str) -> float:
        return float(values[self.names.index(name)]) if name in self.names else 0.0

    def calls_of(self, name: str) -> int:
        return int(self._at(self.calls, name))

    def total_us(self, name: str) -> float:
        return self._at(self.total_ns, name) / 1e3

    def self_us(self, name: str) -> float:
        return self._at(self.self_ns, name) / 1e3

    def layer_self_us(self, layer: str) -> float:
        return sum(
            float(t)
            for n, t in zip(self.names, self.self_ns)
            if n.split(".", 1)[0] == layer
        ) / 1e3

    def us_per_call(self, name: str) -> float:
        calls = self.calls_of(name)
        return self.total_us(name) / calls if calls else 0.0


class Tracer:
    """Span recorder patched into the ``triqss`` layers while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids = array("q")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.announcements = 0
        self._gc_id = self._span_id(GC_SPAN)

    def _span_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, name_id: int) -> int:
        idx = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn, on_result=None):
        name_id = self._span_id(name)
        open_span, close_span = self._open, self._close

        def traced(*args, **kwargs):
            idx = open_span(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(idx)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _count_announcements(self, transcript) -> None:
        self.announcements += len(transcript.announcements)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._open(self._gc_id)
        else:
            self._close(self._stack[-1])

    def install(self) -> None:
        for module_name, class_name, attr, span in INSTRUMENTED:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = getattr(owner, attr) if class_name is None else owner.__dict__[attr]
            on_result = (
                self._count_announcements if span == "protocol.run_session" else None
            )
            if isinstance(original, classmethod):
                wrapped = classmethod(self.wrap(span, original.__func__))
            else:
                wrapped = self.wrap(span, original, on_result)
            setattr(owner, attr, wrapped)
            self._patches.append((owner, attr, original))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take(self) -> SessionSpans:
        """Reduce and clear the spans recorded since the last call."""
        import numpy as np

        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open")
        ids = np.frombuffer(self.name_ids, dtype=np.int64).copy()
        parents = np.frombuffer(self.parents, dtype=np.int64).copy()
        starts = np.frombuffer(self.starts, dtype=np.int64).copy()
        ends = np.frombuffer(self.ends, dtype=np.int64).copy()
        for buf in (self.name_ids, self.parents, self.starts, self.ends):
            del buf[:]
        announcements, self.announcements = self.announcements, 0
        dur = (ends - starts).astype(np.float64)
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=dur[nested], minlength=len(dur))
        k = len(self.names)
        return SessionSpans(
            names=list(self.names),
            calls=np.bincount(ids, minlength=k),
            total_ns=np.bincount(ids, weights=dur, minlength=k),
            self_ns=np.bincount(ids, weights=dur - child, minlength=k),
            announcements=announcements,
            raw={"name_id": ids, "parent": parents, "start_ns": starts, "end_ns": ends},
        )


def timing_metrics(spans: SessionSpans, rounds: int, wall_s: float) -> dict[str, float]:
    """The timing per-layer metrics of one traced session."""
    per_round = 1.0 / rounds
    out = {
        "harness.run_experiment.self_us_per_round":
            spans.self_us("harness.run_experiment") * per_round,
        "protocol.run_session.self_us_per_round":
            spans.self_us("protocol.run_session") * per_round,
    }
    for name in (
        "protocol.run_session",
        "protocol.tally_transcript",
        "protocol.distill_keys",
        "protocol.validate_announcement_order",
        "protocol.export_transcript_jsonl",
    ):
        out[f"{name}.us_per_round"] = spans.total_us(name) * per_round
    for layer in ("adversary", "registry", "qcore", "channel", "preparation",
                  "conventions"):
        out[f"{layer}.self_us_per_round"] = spans.layer_self_us(layer) * per_round
    for name in ("registry.measure", "registry.measure_pair", "qcore.measure_qubit",
                 "preparation.hbb_reduce"):
        out[f"{name}.us_per_call"] = spans.us_per_call(name)
    out["python.gc.pause_frac"] = spans.total_us(GC_SPAN) / 1e6 / wall_s
    out["python.gc.collections"] = float(spans.calls_of(GC_SPAN))
    return out


def count_metrics(
    spans: SessionSpans, rounds: int, tally, transcript_bytes: int
) -> dict[str, float]:
    """The count per-layer metrics of one session; they repeat for a seed."""

    def share(num: int, den: int) -> float:
        return num / den if den else 0.0

    out = {
        "protocol.announcements_per_round": spans.announcements / rounds,
        "protocol.transcript_bytes_per_round": transcript_bytes / rounds,
        "adversary.recovery_yield": share(
            tally.dealer_bit_recoveries, tally.attacked_mounted
        ),
        "adversary.loss_cheat_ratio": share(
            tally.attacked_test_loss_declared, tally.attacked_test_mounted
        ),
    }
    for name, _, _, _ in COUNTS:
        if name.endswith(".calls_per_round"):
            span = name[: -len(".calls_per_round")]
            out[name] = spans.calls_of(span) / rounds
    return out
