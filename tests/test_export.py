"""The JSONL exporter against the reference encoder in ``helpers``.

The exporter encodes each distinct row once per session and formats only the
round id and the seq numbers into it.  Every test here compares its file with
``reference_jsonl``, which encodes every line in full:

* every preset under every ordering and mode, and the attack at two channel
  pairs no preset uses;
* logs edited after the session: a row must carry the payload the log holds,
  even when an earlier row with the same record wrote another one;
* the memory an export of a 20k-round session allocates, which stays bounded
  only while lines are written as they are formatted.
"""

import copy
import dataclasses
import json
import tracemalloc

import pytest

from triqss.harness import PRESET_NAMES, preset_experiment, run_experiment
from triqss.protocol import Mode, OrderingPolicy, export_transcript_jsonl

from helpers import reference_jsonl

ORACLE_ROUNDS = 500
ORACLE_SEED = 5


def _transcript(name, rounds=ORACLE_ROUNDS, **overrides):
    experiment = preset_experiment(name, rounds=rounds, seed=ORACLE_SEED, **overrides)
    return run_experiment(experiment, keep_transcripts=True).transcripts[0]


def _exported(transcript, tmp_path) -> str:
    path = tmp_path / "t.jsonl"
    export_transcript_jsonl(transcript, str(path))
    return path.read_bytes().decode("utf-8")


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("ordering", list(OrderingPolicy), ids=lambda o: o.value)
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_every_cell_matches_the_reference(name, ordering, mode, tmp_path):
    transcript = _transcript(name, ordering=ordering, mode=mode)
    assert _exported(transcript, tmp_path) == reference_jsonl(transcript)


@pytest.mark.parametrize("eta", [0.25, 0.45])
def test_lossless_replacement_channel_matches_the_reference(eta, tmp_path):
    transcript = _transcript("opaque-vulnerable", eta=eta, eta_prime=1.0)
    assert _exported(transcript, tmp_path) == reference_jsonl(transcript)


def _unnumbered(row: dict) -> str:
    """A row without its round id and seq numbers, as a comparable string."""
    said = [{k: v for k, v in a.items() if k != "seq"} for a in row["announcements"]]
    rest = {k: v for k, v in row.items() if k not in ("round_id", "announcements")}
    return json.dumps([rest, said], sort_keys=True)


def _twin_round(transcript, kind: str) -> int:
    """The last round with a ``kind`` announcement whose row repeats an earlier one."""
    rows = [json.loads(line) for line in reference_jsonl(transcript).splitlines()[1:]]
    seen = {_unnumbered(row): row["round_id"] for row in reversed(rows)}
    for row in reversed(rows):
        if seen[_unnumbered(row)] < row["round_id"] and any(
            a["kind"] == kind for a in row["announcements"]
        ):
            return row["round_id"]
    raise AssertionError(f"no repeated row with a {kind!r} announcement")


TAMPERED = {
    "flipped-detection": ("opaque-vulnerable", "detection", lambda p: not p),
    "detection-as-int": ("opaque-vulnerable", "detection", int),
    "changed-outcome": ("opaque-vulnerable", "outcome", lambda p: -p),
    "edited-hbb-state": (
        "hbb", "state", lambda p: {**p, "dealer_outcome": -p["dealer_outcome"]},
    ),
    "edited-hardened-prep": (
        "hardened", "prep", lambda p: {**p, "bob_sign": -p["bob_sign"]},
    ),
}


@pytest.mark.parametrize("case", list(TAMPERED))
def test_tampered_log_is_exported_as_assigned(case, tmp_path):
    name, kind, edit = TAMPERED[case]
    transcript = _transcript(name)
    before = _exported(transcript, tmp_path)
    target = _twin_round(transcript, kind)
    tampered = copy.copy(transcript)
    tampered.announcements = [
        dataclasses.replace(a, payload=edit(a.payload))
        if a.round_id == target and a.kind == kind
        else a
        for a in transcript.announcements
    ]
    after = _exported(tampered, tmp_path)
    assert after == reference_jsonl(tampered)
    changed = [
        (old, new)
        for old, new in zip(before.splitlines(), after.splitlines())
        if old != new
    ]
    assert [json.loads(new)["round_id"] for _, new in changed] == [target]


def test_export_memory_stays_bounded(tmp_path):
    """A 20k-round export allocates about 1 MB; one joined file would be 30."""
    transcript = _transcript("opaque-sifting-state-sharing", rounds=20_000)
    transcript.announcements  # the log is the session's, not the export's
    tracemalloc.start()
    try:
        export_transcript_jsonl(transcript, str(tmp_path / "t.jsonl"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
