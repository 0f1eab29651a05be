"""Golden-transcript lock: byte-identical output for every preset.

For a fixed configuration and seed the simulator's output must not move.
This pins, for each preset at 2000 rounds and seed 11, the sha256 of the
exported JSONL transcript and of the pooled ``SessionTally`` serialised with
sorted keys.  The digests were recorded at commit ``21b5c96`` and do not
depend on ``PYTHONHASHSEED``.  The same digests are pinned for every
(strategy, scheme) under every ordering and mode, since the announcement
schedule branches on both.

A change that alters the random streams on purpose updates these digests in
the same commit and records the new values, and why they moved, in
CHANGES.md.  Any other change must leave them untouched.
"""

import dataclasses
import hashlib
import json

import pytest

from triqss.harness import PRESET_NAMES, preset_experiment, run_experiment
from triqss.protocol import Mode, OrderingPolicy, export_transcript_jsonl

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


# The six presets with distinct (strategy, scheme); the other presets only
# fix a different ordering or mode for ``opaque-vulnerable``.
GRID_PRESETS = (
    "honest",
    "opaque-vulnerable",
    "opaque-no-cheat",
    "early-bell",
    "hardened",
    "hbb",
)

# (preset, ordering, mode) -> digests as above, for every cell of
# GRID_PRESETS x orderings x modes that no preset runs by default.  Recorded
# at commit ``70c93ce``.
GRID_DIGESTS = {
    ("honest", "vulnerable", "state-sharing"): (
        "84d76634baa745afd7e67f5b0c9d5a8dc35b5a6a34a2b409ff42aeb6f326074e",
        "f7200c070f080c6a81e7d428fa3667e321400753aa2db3878c139bd717e821e0",
    ),
    ("honest", "refined", "classical"): (
        "9d4abc44f4c9bad8269a5d3dc9f081060f4e625f1091e3d6f43bc1a8cc1c5f40",
        "3ec12d6b7f148f7af3ce28abc73656d908b565564a3888129dfeafb79e2a09f5",
    ),
    ("honest", "refined", "state-sharing"): (
        "e41b5130548c9088dd63416a11620730d418584b0cb86e4eb06fbad9ace66197",
        "f7200c070f080c6a81e7d428fa3667e321400753aa2db3878c139bd717e821e0",
    ),
    ("honest", "sifting", "classical"): (
        "49cf2b2a8c38a4f0c04d78c9984ec5c88ae8712119fe6ddcf3c9d8a5c091829e",
        "3ec12d6b7f148f7af3ce28abc73656d908b565564a3888129dfeafb79e2a09f5",
    ),
    ("honest", "sifting", "state-sharing"): (
        "5badfe7160c71190bcdd6f74ec1e57c4590252aa680b5dd9190c4a9f21e9a730",
        "f7200c070f080c6a81e7d428fa3667e321400753aa2db3878c139bd717e821e0",
    ),
    ("opaque-vulnerable", "vulnerable", "state-sharing"): (
        "2bf9dcb4709b06d55f7e34ac9c6b40a8cc0e92919fa9c7ed70b3bec270809c66",
        "2a6710fc53c61cc26791f2c25bc40a9388998f28ecfdd5ea77b7254875efb926",
    ),
    ("opaque-vulnerable", "refined", "state-sharing"): (
        "40f10dc38e28f71455093de4ebec3b5f017184448c2d2a12ffb22b01eadb03c2",
        "2a6710fc53c61cc26791f2c25bc40a9388998f28ecfdd5ea77b7254875efb926",
    ),
    ("opaque-no-cheat", "vulnerable", "state-sharing"): (
        "db38d1a7fb1654a0cd0818636bf8e5806fe72f8ad3be8ec121f4e821cc0ed9fd",
        "5f86256670ae035f576f384750f91aa63426d96316b5ba547dbc14f6d5663bbb",
    ),
    ("opaque-no-cheat", "refined", "classical"): (
        "b692d34e51186ad4cf0df6420b8bea30e189e25526e60945d7acffdef22228ed",
        "184a403a76e28a6d04453934f3a152c581198943b07e350834d3cdf7c22db677",
    ),
    ("opaque-no-cheat", "refined", "state-sharing"): (
        "05f705c486a4591eff2b86fe9fffdf1de890b2c8d08101a9368500723fcc65a1",
        "5f86256670ae035f576f384750f91aa63426d96316b5ba547dbc14f6d5663bbb",
    ),
    ("opaque-no-cheat", "sifting", "classical"): (
        "3d34cb8220d3d3b115566515a1c041df772745497dc595fd4c0ea5bf9c6963a2",
        "e20c99d41745762ddf8e53adf883bc0a65f410cd83e43be37a3fb0de121208f6",
    ),
    ("opaque-no-cheat", "sifting", "state-sharing"): (
        "c7aba9f552cd5cd39d2d6ca17caf4aba52640003dbc0ddae6ab67d4eb0e94e15",
        "5f86256670ae035f576f384750f91aa63426d96316b5ba547dbc14f6d5663bbb",
    ),
    ("early-bell", "vulnerable", "state-sharing"): (
        "505e2b5f612911c9c20ef7aabf896d0fb38e2780a5b0d09eb4306e7d53e1ea1b",
        "d321cd7351c672a7a05a0f0d33ebcdfae3e5ac2ed0b1e553cba902dfed52b945",
    ),
    ("early-bell", "refined", "classical"): (
        "271080a2a9f439f736af073b03625de15d5a152de1a08ac0344018c8c67a18c6",
        "8fcc6b1d4ecb1f277ea531222a38c4e1adaa73eef50b8833d3e29e6520f9423a",
    ),
    ("early-bell", "refined", "state-sharing"): (
        "48d5b7465825180df7965fd3e7f24c880546cba3d91803aaae582fad38b04846",
        "d321cd7351c672a7a05a0f0d33ebcdfae3e5ac2ed0b1e553cba902dfed52b945",
    ),
    ("early-bell", "sifting", "classical"): (
        "d8a707f0afb9f158c11797d1c4b22b717533aa17511f1091ad2f7086266119d6",
        "ffc87d0e90a28311015722b8e58c8269963e30522aefe0f8364ce62684427f9b",
    ),
    ("early-bell", "sifting", "state-sharing"): (
        "a87cc6b938083e9ee1b1b4bd2b2e28202f951b3c3f6daf336b6ddb5b0f60f092",
        "d321cd7351c672a7a05a0f0d33ebcdfae3e5ac2ed0b1e553cba902dfed52b945",
    ),
    ("hardened", "vulnerable", "state-sharing"): (
        "25ede1eebc006572bb341484cf1dba857156a2e537f87cd8071fdfe69cda58d0",
        "73c5c8a68155a6a72526255b58dda9ae7eef430f35c046c630f3d03a75fe576e",
    ),
    ("hardened", "refined", "classical"): (
        "211565d38984b60f91538d0aa378ab2efe0305abfe2110a0148d16756012c60c",
        "c91c39a37dbfebc311a5bd5f8afeed22a245845994d0681bac14dcd2a6c853cb",
    ),
    ("hardened", "refined", "state-sharing"): (
        "5e0e710e52df39898f87aadecf4f7456a4547053a7d319b2427d395bfe4e66d0",
        "73c5c8a68155a6a72526255b58dda9ae7eef430f35c046c630f3d03a75fe576e",
    ),
    ("hardened", "sifting", "classical"): (
        "8d43c207816d72c32d87c799972d7c6e19cb6c0c2fd35cde57691ed44400e07f",
        "50ad9dcd456a85010f696884492fe9d039b940d3b0f6d4a252b27406d5230d30",
    ),
    ("hardened", "sifting", "state-sharing"): (
        "58233f665a139e6b9b1cd3c9359b697483343873ec649733d8d7f1d57957b90b",
        "73c5c8a68155a6a72526255b58dda9ae7eef430f35c046c630f3d03a75fe576e",
    ),
    ("hbb", "vulnerable", "state-sharing"): (
        "843c5dedf51908ec66db6034e0d572a60bb14000f08aa23052733143786cddc6",
        "2936e1627e74f1a8b2a7fca1a62fa34f3f4a865ee092ae40dd028fbc47238691",
    ),
    ("hbb", "refined", "classical"): (
        "5266b6da8189a00272c38333ec8fba0ad59c7cd442a532e036b0436379266654",
        "84402472d78eaaabbbcbbbaf2fb776dc09f91c95d82b123460fd8c5cc24717ee",
    ),
    ("hbb", "refined", "state-sharing"): (
        "19671ed070e2c67094e1a37e2fba4667a045f203f8f072d27d249192dc9cd4f5",
        "2936e1627e74f1a8b2a7fca1a62fa34f3f4a865ee092ae40dd028fbc47238691",
    ),
    ("hbb", "sifting", "classical"): (
        "1dac3f01e81f3c2c9cdea152a3aa3d76d4bc003fee155eff1d22b36adbe883ff",
        "84402472d78eaaabbbcbbbaf2fb776dc09f91c95d82b123460fd8c5cc24717ee",
    ),
    ("hbb", "sifting", "state-sharing"): (
        "b6028513103c3bd44a7bbc021c5d6bee7293e8a63d857943da8e5c4fd088a762",
        "2936e1627e74f1a8b2a7fca1a62fa34f3f4a865ee092ae40dd028fbc47238691",
    ),
}


def _digests(experiment, path) -> tuple[str, str]:
    report = run_experiment(experiment, keep_transcripts=True)
    export_transcript_jsonl(report.transcripts[0], str(path))
    transcript_digest = hashlib.sha256(path.read_bytes()).hexdigest()
    tally_json = json.dumps(dataclasses.asdict(report.tally), sort_keys=True)
    tally_digest = hashlib.sha256(tally_json.encode("utf-8")).hexdigest()
    return transcript_digest, tally_digest


def _cell(experiment) -> tuple:
    session = experiment.session
    return (experiment.strategy, session.scheme, session.ordering, session.mode)


def test_every_preset_is_pinned():
    assert set(GOLDEN_DIGESTS) == set(PRESET_NAMES)


def test_every_ordering_and_mode_is_pinned():
    strategies_and_schemes = {_cell(preset_experiment(n))[:2] for n in PRESET_NAMES}
    assert {_cell(preset_experiment(n))[:2] for n in GRID_PRESETS} == (
        strategies_and_schemes
    )
    preset_cells = {_cell(preset_experiment(n)) for n in PRESET_NAMES}
    for name in GRID_PRESETS:
        for ordering in OrderingPolicy:
            for mode in Mode:
                cell = _cell(preset_experiment(name, ordering=ordering, mode=mode))
                in_grid = (name, ordering.value, mode.value) in GRID_DIGESTS
                assert in_grid != (cell in preset_cells), (name, ordering, mode)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_output_is_byte_identical(name, tmp_path):
    experiment = preset_experiment(name, rounds=GOLDEN_ROUNDS, seed=GOLDEN_SEED)
    assert _digests(experiment, tmp_path / "t.jsonl") == GOLDEN_DIGESTS[name]


@pytest.mark.parametrize("name,ordering,mode", list(GRID_DIGESTS))
def test_ordering_mode_output_is_byte_identical(name, ordering, mode, tmp_path):
    experiment = preset_experiment(
        name,
        rounds=GOLDEN_ROUNDS,
        seed=GOLDEN_SEED,
        ordering=OrderingPolicy(ordering),
        mode=Mode(mode),
    )
    expected = GRID_DIGESTS[(name, ordering, mode)]
    assert _digests(experiment, tmp_path / "t.jsonl") == expected
