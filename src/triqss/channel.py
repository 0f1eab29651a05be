"""Lossy transmission legs.

A photon survives its leg with a single multiplicative probability (source,
fiber, and detector efficiency folded together).  ``eta`` is the honest leg
efficiency; ``eta_prime`` is the better efficiency of the replacement channel
a dishonest agent can install between the source and himself.
"""

from __future__ import annotations

from dataclasses import dataclass

from .qcore import RandomSource


def _check_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")


@dataclass(frozen=True)
class ChannelConfig:
    """Leg efficiencies for a session.

    Parameters
    ----------
    eta:
        Honest per-leg survival probability.
    eta_prime:
        Survival probability of the replacement channel available to a
        dishonest agent; only meaningful when at least ``eta``.
    """

    eta: float
    eta_prime: float = 1.0

    def __post_init__(self) -> None:
        for name in ("eta", "eta_prime"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{name} must be a number, got {value!r}")
            _check_probability(name, value)


def transmit(efficiency: float, rng: RandomSource) -> bool:
    """One Bernoulli trial of a lossy leg; True means the photon arrived."""
    _check_probability("efficiency", efficiency)
    return rng.coin(efficiency)


def loss_filter(keep_probability: float, rng: RandomSource) -> bool:
    """Deliberate thinning of already-received photons; True means kept.

    Used to degrade a good channel down to an advertised efficiency, e.g.
    keeping a fraction ``eta / eta_prime`` of photons that survived the
    replacement channel so the far end observes rate ``eta``.
    """
    _check_probability("keep_probability", keep_probability)
    return rng.coin(keep_probability)
