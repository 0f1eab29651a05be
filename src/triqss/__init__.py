"""Three-party entanglement-based secret sharing under interception attacks.

A simulation toolkit for the two-photon signal-pair scheme (and its GHZ
relative) in which a dealer splits a key between two agents over lossy
channels.  The package models a dishonest first agent who intercepts both
photons through a better replacement channel, forwards half of a substituted
entangled pair, hides wrong deferred Bell outcomes behind loss declarations,
and reconstructs both the dealer's key bit and the other agent's outcome
once the public announcements are out.  Countermeasures (announcement
reordering, detection-first sifting, product-state test rounds) and their
limits are part of the model.

Layering: :mod:`triqss.qcore` (states and measurements), :mod:`triqss.registry`
(per-round photon bookkeeping), :mod:`triqss.channel`, :mod:`triqss.conventions`
(bit extraction tables), :mod:`triqss.preparation`, :mod:`triqss.adversary`,
:mod:`triqss.protocol` (sessions, announcements, checks, keys),
:mod:`triqss.harness` (experiments, presets, sweeps, reports),
:mod:`triqss.cli`.
"""

from .adversary import (
    ActiveAdversary,
    AttackKind,
    AttackStrategy,
    plan_attack_fraction,
)
from .channel import ChannelConfig
from .harness import (
    CollapseCell,
    ExperimentConfig,
    PRESET_NAMES,
    SessionReport,
    Table1Report,
    preset_experiment,
    run_experiment,
    selftest,
    sweep_pe,
    verify_table1,
    write_report_csv,
    write_report_json,
)
from .preparation import HardenedPrep, HbbPrep, PreparedState
from .protocol import (
    Announcement,
    CheckReport,
    ConfigError,
    Mode,
    NoTestDataError,
    OrderingPolicy,
    RoundKind,
    RoundRecord,
    Scheme,
    SessionConfig,
    SessionTranscript,
    distill_keys,
    export_transcript_jsonl,
    extract_bits,
    run_session,
    validate_announcement_order,
)
from .qcore import Basis, BellOutcome, SignalTag, StateVector

__version__ = "0.1.0"

__all__ = [
    "ActiveAdversary",
    "Announcement",
    "AttackKind",
    "AttackStrategy",
    "Basis",
    "BellOutcome",
    "ChannelConfig",
    "CheckReport",
    "CollapseCell",
    "ConfigError",
    "ExperimentConfig",
    "HardenedPrep",
    "HbbPrep",
    "Mode",
    "NoTestDataError",
    "OrderingPolicy",
    "PRESET_NAMES",
    "PreparedState",
    "RoundKind",
    "RoundRecord",
    "Scheme",
    "SessionConfig",
    "SessionReport",
    "SessionTranscript",
    "SignalTag",
    "StateVector",
    "Table1Report",
    "distill_keys",
    "export_transcript_jsonl",
    "extract_bits",
    "plan_attack_fraction",
    "preset_experiment",
    "run_experiment",
    "run_session",
    "selftest",
    "sweep_pe",
    "validate_announcement_order",
    "verify_table1",
    "write_report_csv",
    "write_report_json",
    "__version__",
]
