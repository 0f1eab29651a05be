"""The GHZ formulation reduces to the two-photon scheme.

Instead of choosing one of four two-photon signal states, the dealer can
keep one qubit of a three-photon GHZ state and measure it in X or Y.  The
measurement collapses the agents' pair onto one of four states that are,
up to relabeling, the same signal set: X outcomes give the first correlated
family, Y outcomes the second.  Whole sessions run either way produce the
same sifting and error statistics.

Run:
    python demos/ghz_variant.py [--rounds N] [--seed N]
"""

import argparse

import numpy as np

from triqss.harness import preset_experiment, run_experiment
from triqss.preparation import hbb_reduce
from triqss.qcore import Basis, RandomSource, ghz_state


class GeneratorSource(RandomSource):
    """Every draw reads the next ``random()`` of a numpy ``Generator``."""

    def __init__(self, generator: np.random.Generator):
        self.generator = generator

    def random(self) -> float:
        return self.generator.random()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    rng = GeneratorSource(np.random.default_rng(args.seed))
    print("Collapses of the agents' pair after the dealer's measurement:")
    for basis in (Basis.X, Basis.Y):
        seen = {}
        while len(seen) < 2:
            outcome, post = hbb_reduce(ghz_state(), basis, rng)
            seen[outcome] = post
        for outcome in (+1, -1):
            amps = ", ".join(
                f"{a.real:+.4f}{a.imag:+.4f}j" for a in seen[outcome].amplitudes
            )
            print(f"  dealer {basis.value}={outcome:+d} -> [{amps}]")

    common = dict(eta=1.0, eta_prime=1.0, rounds=args.rounds, seed=args.seed)
    pair = run_experiment(preset_experiment("honest", **common))
    ghz = run_experiment(preset_experiment("hbb", **common))
    print(f"\n{'':14}{'sift rate':<12}{'error rate':<12}key bits")
    print(f"{'pair scheme':<14}{pair.check.sift_rate:<12.4f}"
          f"{pair.check.test_error_rate:<12.4f}{pair.key_bits}")
    print(f"{'GHZ scheme':<14}{ghz.check.sift_rate:<12.4f}"
          f"{ghz.check.test_error_rate:<12.4f}{ghz.key_bits}")
    print(f"\nsift-rate difference: "
          f"{abs(pair.check.sift_rate - ghz.check.sift_rate):.4f}")
    print("Both runs sift half the correlated rounds with zero errors; the")
    print("GHZ variant inherits every property of the two-photon scheme,")
    print("including its vulnerabilities.")


if __name__ == "__main__":
    main()
