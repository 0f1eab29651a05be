"""Unit tests for the lossy-leg model."""

import numpy as np
import pytest

from triqss.channel import ChannelConfig, ConfigError, transmit

from helpers import GeneratorSource


class TestChannelConfig:
    def test_defaults(self):
        cfg = ChannelConfig(eta=0.3)
        assert cfg.eta == 0.3
        assert cfg.eta_prime == 1.0

    @pytest.mark.parametrize("eta", [-0.1, 1.1])
    def test_rejects_eta_outside_unit_interval(self, eta):
        with pytest.raises(ConfigError, match="eta") as err:
            ChannelConfig(eta=eta)
        assert err.value.field == "eta"

    @pytest.mark.parametrize("eta_prime", [-0.5, 2.0])
    def test_rejects_eta_prime_outside_unit_interval(self, eta_prime):
        with pytest.raises(ConfigError, match="eta_prime") as err:
            ChannelConfig(eta=0.5, eta_prime=eta_prime)
        assert err.value.field == "eta_prime"

    def test_type_error_names_what_is_accepted(self):
        # numpy.float32 is a number, but not a float subclass JSON can encode.
        accepted = "must be a number: a Python int or float or a subclass"
        with pytest.raises(ConfigError, match=accepted):
            ChannelConfig(eta=np.float32(0.3))

    def test_is_frozen(self):
        cfg = ChannelConfig(eta=0.5)
        with pytest.raises(AttributeError):
            cfg.eta = 0.9


class TestTransmit:
    def test_perfect_leg_always_arrives(self):
        rng = GeneratorSource(np.random.default_rng(0))
        assert all(transmit(1.0, rng) for _ in range(100))

    def test_dead_leg_never_arrives(self):
        rng = GeneratorSource(np.random.default_rng(0))
        assert not any(transmit(0.0, rng) for _ in range(100))

    def test_arrival_rate_matches_efficiency(self):
        rng = GeneratorSource(np.random.default_rng(42))
        n = 20000
        hits = sum(transmit(0.3, rng) for _ in range(n))
        assert hits / n == pytest.approx(0.3, abs=0.01)

    def test_keep_rate_matches_probability(self):
        rng = GeneratorSource(np.random.default_rng(7))
        n = 20000
        kept = sum(transmit(0.6, rng) for _ in range(n))
        assert kept / n == pytest.approx(0.6, abs=0.01)

    def test_composition_thins_to_product_rate(self):
        # Receiving at eta_prime then keeping eta/eta_prime shows rate eta.
        rng = GeneratorSource(np.random.default_rng(11))
        eta, eta_prime = 0.3, 0.6
        n = 20000
        observed = sum(
            transmit(eta_prime, rng) and transmit(eta / eta_prime, rng)
            for _ in range(n)
        )
        assert observed / n == pytest.approx(eta, abs=0.01)
