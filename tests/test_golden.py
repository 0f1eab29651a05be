"""Golden-transcript lock: byte-identical output for every preset.

For a fixed configuration and seed the simulator's output must not move.
This pins, for each preset at 2000 rounds and seed 11, the sha256 of the
exported JSONL transcript and of the pooled ``SessionTally`` serialised with
sorted keys.  The same digests are pinned for every (strategy, scheme) under
every ordering and mode, since the announcement schedule branches on both.

All digests were re-recorded, in one commit, when each round's randomness
moved from its own numpy ``PCG64`` stream to its row of one ``Philox``
uniform table per session.  That is the one planned stream change: it moves
every sampled value, so every digest moved with it.  Before re-recording,
all 36 cells were run at 100k rounds on both streams and every tally counter
agreed under a Bonferroni-corrected two-proportion z-test (table in
CHANGES.md).  The digests do not depend on ``PYTHONHASHSEED``:
``test_digests_do_not_depend_on_hash_seed`` recomputes three cells under
seeds 1 and 99.  Between them they reach every enum that hashes by identity:
``Basis``, ``PairBasis``, ``SignalTag``, ``BellOutcome`` and
``PauliCorrection`` in ``qcore``, and ``RoundKind``, ``Mode`` and
``OrderingPolicy`` in ``protocol``.  ``RoundKind`` keys the exporter's line
templates.

One pair moved later, alone, with a bug fix: ``hardened/sifting/classical``
went from ``f375090d…``/``632cd0b9…`` to ``5b4641de…``/``f896696f…``.  An
attacked hardened test round used to thin Bob's detection a second time after
its ``True`` was already public, so the record and the public log disagreed.
Bob now answers an already-declared photon honestly, with no second draw.
The new tally digest is the one ``hardened/vulnerable`` and
``hardened/refined`` already shared; no other digest moved.

A change that alters the random streams on purpose updates these digests in
the same commit and records the new values, and why they moved, in
CHANGES.md.  Any other change must leave them untouched.
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import triqss
from triqss.harness import PRESET_NAMES, preset_experiment, run_experiment
from triqss.protocol import Mode, OrderingPolicy, export_transcript_jsonl

GOLDEN_ROUNDS = 2000
GOLDEN_SEED = 11

# preset -> (sha256 of the transcript JSONL, sha256 of the tally JSON)
GOLDEN_DIGESTS = {
    "honest": (
        "d3537637c25b43631f1765463d1e800a1a7f389b44fbf0220d4677800f3b30be",
        "7403eb00a75824da6370fe77ee06709d1060e876aca0bd57e620dce5bb3a8b6e",
    ),
    "opaque-vulnerable": (
        "bdc2e83d52388ce3b05717f923b57b3072912b2ab9b91193fb1a9df7edc6a806",
        "111fa7acf429f76e15f9a814cb05e93079a018729fc8a3b12285229b4f869da8",
    ),
    "opaque-refined": (
        "3447f2507afb20c398846b5f86a234c9718c163bc78e56d1eba2ee85927d97b4",
        "111fa7acf429f76e15f9a814cb05e93079a018729fc8a3b12285229b4f869da8",
    ),
    "opaque-no-cheat": (
        "118a547d6d26270540be62bef11616d5bf867b17e4196d1bd5b7d83ade15c00c",
        "bfd33be06bc55412e6f2761ad090aeb71c7f1ccf469ac0dd4425c7bb9d82f0f4",
    ),
    "opaque-sifting-classical": (
        "0c5f9524e042961e5717681d2687ad9c159b5a17e9d05fdaeec826569a590fef",
        "bfe898eaddafb5ceeaa787fce956a95feaaaf925f39f8eae24bc6fa37b4af9e3",
    ),
    "opaque-sifting-state-sharing": (
        "5f64bc73f0dfd67809b97448ab829dfff8df1ca04f43d5ae62d2fe0cf9d6bd93",
        "fe83f96c0ee71336eed8b03f369d2ad79ccafe62e85c0e1339b7d28d217a3bb4",
    ),
    "early-bell": (
        "e4add6a073540746b396db2502ce2d9399e4ce3725c13ca9215b245c387e6cd6",
        "9b175a4dc6a3d47ba3ad317c699ca6b59e9111ef3e5fa44283666a4348163323",
    ),
    "hardened": (
        "a8f55e50d8967d264f78824647709960812b8add7d74c7324a5af1ce7e136700",
        "f896696f1738d4fbbe06358eb65ae86cfa86b84f83bd20c1c9b52ad4dc008e63",
    ),
    "hbb": (
        "c30d659020347c60a0e26230aece4af5d51df063590d915fdcb40f09c779757c",
        "1c7c341a840707a5ba4a093d0c79d0279078220d528b9ee84a6a46064ab440c3",
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
# GRID_PRESETS x orderings x modes that no preset runs by default.
GRID_DIGESTS = {
    ("honest", "vulnerable", "state-sharing"): (
        "544b4662abc446ded3258e0cc77953438a89914c39d3fcc416104df5865d998b",
        "37b66e03a73864c4a5976f1a4ccd0b24515c631e40a037179c229a005aa66558",
    ),
    ("honest", "refined", "classical"): (
        "cc96d1a0b084792c8b0330b310d256d09ec271d266a8e5b85471706e54f62273",
        "7403eb00a75824da6370fe77ee06709d1060e876aca0bd57e620dce5bb3a8b6e",
    ),
    ("honest", "refined", "state-sharing"): (
        "706d717fba3cc27a311e39ae1949e885dcfad94dc40b5e69f0327ff587909edb",
        "37b66e03a73864c4a5976f1a4ccd0b24515c631e40a037179c229a005aa66558",
    ),
    ("honest", "sifting", "classical"): (
        "96f14513806946d98de79fba102c2d4e73ac561662cc49cd0a56da617425d184",
        "7403eb00a75824da6370fe77ee06709d1060e876aca0bd57e620dce5bb3a8b6e",
    ),
    ("honest", "sifting", "state-sharing"): (
        "66865a3dff681efa2987018fb7b1e70fe264df3ebc16df08dcd6cb9c7effe52c",
        "37b66e03a73864c4a5976f1a4ccd0b24515c631e40a037179c229a005aa66558",
    ),
    ("opaque-vulnerable", "vulnerable", "state-sharing"): (
        "bf19f7db19f58a54dce85cc00b8e3af0c6db2f190940dee17cf19fd1e105ce2d",
        "fe83f96c0ee71336eed8b03f369d2ad79ccafe62e85c0e1339b7d28d217a3bb4",
    ),
    ("opaque-vulnerable", "refined", "state-sharing"): (
        "e4ee8d6409ed12517eb403dda9d492b3ef879c31fae4a716afb5cc5463842290",
        "fe83f96c0ee71336eed8b03f369d2ad79ccafe62e85c0e1339b7d28d217a3bb4",
    ),
    ("opaque-no-cheat", "vulnerable", "state-sharing"): (
        "db92dc8f83fbe11d28f8b308b6c155428936fc4a3696472ffa15ad3dbcd2d92b",
        "6d8f8e5e441557b78be0de537036f87a005b7fcffe61fda7a98564051ba31aaa",
    ),
    ("opaque-no-cheat", "refined", "classical"): (
        "c354a3f9bfac9764773c532c804292df63108cd5fe1dbdcd14eaa727cd144968",
        "bfd33be06bc55412e6f2761ad090aeb71c7f1ccf469ac0dd4425c7bb9d82f0f4",
    ),
    ("opaque-no-cheat", "refined", "state-sharing"): (
        "eaab704ae300ec74009d01d62450c726ef2a37387e0598ae624653aa39bc3867",
        "6d8f8e5e441557b78be0de537036f87a005b7fcffe61fda7a98564051ba31aaa",
    ),
    ("opaque-no-cheat", "sifting", "classical"): (
        "d51695761f0f703056577a3f9e2c35930a2dbbbdc47e88fb1c0567a1f920c653",
        "bfe898eaddafb5ceeaa787fce956a95feaaaf925f39f8eae24bc6fa37b4af9e3",
    ),
    ("opaque-no-cheat", "sifting", "state-sharing"): (
        "c2821025245041cf9756a6e7a7a4e37011f872766d1ef54282e02fda17db03ed",
        "6d8f8e5e441557b78be0de537036f87a005b7fcffe61fda7a98564051ba31aaa",
    ),
    ("early-bell", "vulnerable", "state-sharing"): (
        "ca2fae78dc57f714ae9f77c66686eb63c5dbdef69344fceedeabac7e01a9b6d2",
        "82b6842b931837aec42580e62807d54c95fdc42e2fcb6b6c0b87108ad4e3bd3a",
    ),
    ("early-bell", "refined", "classical"): (
        "1280b7143537341703abefab61de61e1fb42778510b1df479765d803a592442a",
        "9b175a4dc6a3d47ba3ad317c699ca6b59e9111ef3e5fa44283666a4348163323",
    ),
    ("early-bell", "refined", "state-sharing"): (
        "a2aae97fb63c6afe48a049f6362deb6f37c21c7f97455cfd9ea29efa1ad7e82d",
        "82b6842b931837aec42580e62807d54c95fdc42e2fcb6b6c0b87108ad4e3bd3a",
    ),
    ("early-bell", "sifting", "classical"): (
        "0b452fe1985e21d112aaf74540dee32fd04f1edcd45c1e46356c409494770220",
        "280fd8e9ec0af6dd2d95b5da9a62012ff351c2aa0e9271aae22a045325c44e2b",
    ),
    ("early-bell", "sifting", "state-sharing"): (
        "1e309ccfb0bfb0178d207decd73dd46ae3c0110d801b7fec9f7c6de12c3b34b2",
        "82b6842b931837aec42580e62807d54c95fdc42e2fcb6b6c0b87108ad4e3bd3a",
    ),
    ("hardened", "vulnerable", "state-sharing"): (
        "f0be91fdbacf09f762bed48883df2defc2f502cc35648f3bd55ed983a0c93c2e",
        "f4fedab8c719c5915c6c7962945dde104c4bf483a02b8d5b2764539cde62e17c",
    ),
    ("hardened", "refined", "classical"): (
        "874c07e622a8b2909352a8cc3dadd20ad2792f72e504d55f9e06d51420e9ef8c",
        "f896696f1738d4fbbe06358eb65ae86cfa86b84f83bd20c1c9b52ad4dc008e63",
    ),
    ("hardened", "refined", "state-sharing"): (
        "4441733bc23d354f7f0d2d9c3344ca2eb120d79da31fbd75c977a35941156040",
        "f4fedab8c719c5915c6c7962945dde104c4bf483a02b8d5b2764539cde62e17c",
    ),
    ("hardened", "sifting", "classical"): (
        "5b4641de0141142084d0109bf2fc2cb425879a4233e2bffb39c3166b4c1f267d",
        "f896696f1738d4fbbe06358eb65ae86cfa86b84f83bd20c1c9b52ad4dc008e63",
    ),
    ("hardened", "sifting", "state-sharing"): (
        "aa13117db31a438a4989ab66655569c2a0069fde8e3b0b32cab6e83f194b7d8a",
        "f4fedab8c719c5915c6c7962945dde104c4bf483a02b8d5b2764539cde62e17c",
    ),
    ("hbb", "vulnerable", "state-sharing"): (
        "74ea66b379c2e23bc07913d41ec94725327135002711429e2ea6d8b57afb0784",
        "507599e2a79ad6d4be27850a0c2ce3f05665bd8da1e5cb4192cb71861da6cf60",
    ),
    ("hbb", "refined", "classical"): (
        "3a118ca34e62b0b3efc86ad584b2863a9e49f3e87bb25625cc5c8e8eb825fecf",
        "1c7c341a840707a5ba4a093d0c79d0279078220d528b9ee84a6a46064ab440c3",
    ),
    ("hbb", "refined", "state-sharing"): (
        "0d6b356f33e8f1a2002e8add047ab4a6ad19aa52c25c579ffeb9e1e7b5471012",
        "507599e2a79ad6d4be27850a0c2ce3f05665bd8da1e5cb4192cb71861da6cf60",
    ),
    ("hbb", "sifting", "classical"): (
        "e07687c546bff764f136287d4953cd992c45478dbca68ac23bbee99225252517",
        "1c7c341a840707a5ba4a093d0c79d0279078220d528b9ee84a6a46064ab440c3",
    ),
    ("hbb", "sifting", "state-sharing"): (
        "e16abd92001e06ea583245d821f981738a413ec88761398b1ddcd90d025aeba4",
        "507599e2a79ad6d4be27850a0c2ce3f05665bd8da1e5cb4192cb71861da6cf60",
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


# Cells that between them reach every enum that hashes by identity (see the
# module docstring).
HASH_SEED_PRESETS = ("honest", "opaque-vulnerable", "hbb")

_DIGESTS_SCRIPT = """
import json, pathlib, sys
from test_golden import GOLDEN_ROUNDS, GOLDEN_SEED, _digests
from triqss.harness import preset_experiment
path = pathlib.Path(sys.argv[1])
print(json.dumps({
    name: _digests(preset_experiment(name, rounds=GOLDEN_ROUNDS, seed=GOLDEN_SEED), path)
    for name in sys.argv[2:]
}))
"""


@pytest.mark.parametrize("hash_seed", ["1", "99"])
def test_digests_do_not_depend_on_hash_seed(hash_seed, tmp_path):
    paths = [
        str(Path(triqss.__file__).resolve().parents[1]),
        str(Path(__file__).resolve().parent),
        os.environ.get("PYTHONPATH", ""),
    ]
    env = {
        **os.environ,
        "PYTHONHASHSEED": hash_seed,
        "PYTHONPATH": os.pathsep.join(p for p in paths if p),
    }
    proc = subprocess.run(
        [sys.executable, "-c", _DIGESTS_SCRIPT, str(tmp_path / "t.jsonl"),
         *HASH_SEED_PRESETS],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        name: list(GOLDEN_DIGESTS[name]) for name in HASH_SEED_PRESETS
    }
