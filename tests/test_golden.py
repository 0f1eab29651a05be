"""Golden-transcript lock: byte-identical output for every preset.

For a fixed configuration and seed the simulator's output must not move.
This pins, for each preset at 2000 rounds and seed 11, the sha256 of the
exported JSONL transcript and of the pooled ``SessionTally`` serialised with
sorted keys.  The digests were recorded at commit ``21b5c96`` and do not
depend on ``PYTHONHASHSEED``.

A change that alters the random streams on purpose updates these digests in
the same commit and records the new values, and why they moved, in
CHANGES.md.  Any other change must leave them untouched.
"""

import dataclasses
import hashlib
import json

import pytest

from triqss.harness import PRESET_NAMES, preset_experiment, run_experiment
from triqss.protocol import export_transcript_jsonl

GOLDEN_ROUNDS = 2000
GOLDEN_SEED = 11

# preset -> (sha256 of the transcript JSONL, sha256 of the tally JSON)
GOLDEN_DIGESTS = {
    "honest": (
        "3f82f959aeb97fb88c75153575b2acabb698a03201e4a44a9b180e6e938beaba",
        "3ec12d6b7f148f7af3ce28abc73656d908b565564a3888129dfeafb79e2a09f5",
    ),
    "opaque-vulnerable": (
        "597a579565be257f24e88c232e53f0ae097f89524634bb44bc91384b1fc2475f",
        "1967f382840cb89e223559ed4e85fa600e2e4005c0adbf7a3c861129073b8710",
    ),
    "opaque-refined": (
        "2f025c0e89b6d0d8bb0a4052e84eb7b0d6f0ce61535dc93c236aff4b0380fd16",
        "1967f382840cb89e223559ed4e85fa600e2e4005c0adbf7a3c861129073b8710",
    ),
    "opaque-no-cheat": (
        "c2e18a88d46e85e5dbdda6f67784fee2f44d976982f9d7d14ecdd93f8516160a",
        "184a403a76e28a6d04453934f3a152c581198943b07e350834d3cdf7c22db677",
    ),
    "opaque-sifting-classical": (
        "36c87295adf03e2640a95357b17688161fb6550968c5e39465a5d1d3d0b8be9b",
        "e20c99d41745762ddf8e53adf883bc0a65f410cd83e43be37a3fb0de121208f6",
    ),
    "opaque-sifting-state-sharing": (
        "d4505dea00fbdf9052f66dda32f56411f6a6f4607199f2ab1fd5b1a3ebb6e1ff",
        "2a6710fc53c61cc26791f2c25bc40a9388998f28ecfdd5ea77b7254875efb926",
    ),
    "early-bell": (
        "0d7e4589fa497bd7a2a95440c939ff355b91bb5f97e661d042a2c631bd5b5c08",
        "8fcc6b1d4ecb1f277ea531222a38c4e1adaa73eef50b8833d3e29e6520f9423a",
    ),
    "hardened": (
        "882fc9b6b5670f12155651ff2e875a78b3750987419e8e21b7b737e12bc5e869",
        "c91c39a37dbfebc311a5bd5f8afeed22a245845994d0681bac14dcd2a6c853cb",
    ),
    "hbb": (
        "3623fc47efd69535a5a184a3ad3934f6ea178fd6f7d05c77152ec57b5b5a15b9",
        "84402472d78eaaabbbcbbbaf2fb776dc09f91c95d82b123460fd8c5cc24717ee",
    ),
}


def test_every_preset_is_pinned():
    assert set(GOLDEN_DIGESTS) == set(PRESET_NAMES)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_output_is_byte_identical(name, tmp_path):
    report = run_experiment(
        preset_experiment(name, rounds=GOLDEN_ROUNDS, seed=GOLDEN_SEED),
        keep_transcripts=True,
    )
    path = tmp_path / f"{name}.jsonl"
    export_transcript_jsonl(report.transcripts[0], str(path))
    transcript_digest = hashlib.sha256(path.read_bytes()).hexdigest()
    tally_json = json.dumps(dataclasses.asdict(report.tally), sort_keys=True)
    tally_digest = hashlib.sha256(tally_json.encode("utf-8")).hexdigest()
    assert (transcript_digest, tally_digest) == GOLDEN_DIGESTS[name]
