"""Unit tests for the lossy-leg model."""

import numpy as np
import pytest

from triqss.channel import ChannelConfig, loss_filter, transmit

from helpers import GeneratorSource


class TestChannelConfig:
    def test_defaults(self):
        cfg = ChannelConfig(eta=0.3)
        assert cfg.eta == 0.3
        assert cfg.eta_prime == 1.0

    @pytest.mark.parametrize("eta", [-0.1, 1.1])
    def test_rejects_eta_outside_unit_interval(self, eta):
        with pytest.raises(ValueError, match="eta"):
            ChannelConfig(eta=eta)

    @pytest.mark.parametrize("eta_prime", [-0.5, 2.0])
    def test_rejects_eta_prime_outside_unit_interval(self, eta_prime):
        with pytest.raises(ValueError, match="eta_prime"):
            ChannelConfig(eta=0.5, eta_prime=eta_prime)

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

    def test_rejects_bad_efficiency(self):
        rng = GeneratorSource(np.random.default_rng(0))
        with pytest.raises(ValueError, match="efficiency"):
            transmit(1.5, rng)


class TestLossFilter:
    def test_keep_rate_matches_probability(self):
        rng = GeneratorSource(np.random.default_rng(7))
        n = 20000
        kept = sum(loss_filter(0.6, rng) for _ in range(n))
        assert kept / n == pytest.approx(0.6, abs=0.01)

    def test_composition_thins_to_product_rate(self):
        # Receiving at eta_prime then keeping eta/eta_prime shows rate eta.
        rng = GeneratorSource(np.random.default_rng(11))
        eta, eta_prime = 0.3, 0.6
        n = 20000
        observed = sum(
            transmit(eta_prime, rng) and loss_filter(eta / eta_prime, rng)
            for _ in range(n)
        )
        assert observed / n == pytest.approx(eta, abs=0.01)

    def test_rejects_bad_probability(self):
        rng = GeneratorSource(np.random.default_rng(0))
        with pytest.raises(ValueError, match="keep_probability"):
            loss_filter(-0.2, rng)
