"""Lossy transmission legs.

A photon survives its leg with a single multiplicative probability (source,
fiber, and detector efficiency folded together).  ``eta`` is the honest leg
efficiency; ``eta_prime`` is the better efficiency of the replacement channel
a dishonest agent can install between the source and himself.
"""

from __future__ import annotations

from dataclasses import dataclass

from .qcore import RandomSource


class ConfigError(ValueError):
    """Invalid configuration, carrying the offending field name."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field = field_name
        self.message = message


def _check_probability(name: str, value) -> None:
    """Reject anything but a JSON-encodable int or float (not a bool) in [0, 1]."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(
            name,
            "must be a number: a Python int or float or a subclass, such as "
            f"numpy.float64, but not a bool; got {value!r}",
        )
    if not 0.0 <= value <= 1.0:  # also false for nan
        raise ConfigError(name, f"must lie in [0, 1], got {value!r}")


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
        _check_probability("eta", self.eta)
        _check_probability("eta_prime", self.eta_prime)


def transmit(efficiency: float, rng: RandomSource) -> bool:
    """One Bernoulli trial of a lossy leg; True means the photon arrived.

    Also the deliberate thinning of photons already received: keeping a
    share ``eta / eta_prime`` of those that survived the replacement channel
    makes the far end observe rate ``eta``.  ``efficiency`` is not checked
    here; each caller passes a value checked where it was made
    (``ChannelConfig.eta``, or an adversary's ``eta / eta_prime``).
    """
    return rng.coin(efficiency)
