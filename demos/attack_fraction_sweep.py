"""How much of the traffic can the interception touch and stay hidden?

The loss budget sets the ceiling.  With honest efficiency eta and a
replacement channel of efficiency eta_prime, half of the attacked test
rounds become declared losses, so the adversary can attack at most

    f = min(1, 2 (eta_prime - eta) / eta_prime)

of the rounds before the loss statistics drift away from the advertised
rate.  This demo sweeps eta_prime and compares the measured attacked
fraction (and the efficiencies the agents actually observe) against that
formula.

Run:
    python demos/attack_fraction_sweep.py [--eta R] [--rounds N] [--seed N]
"""

import argparse

from triqss.harness import sweep_pe


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--eta", type=float, default=0.25)
    parser.add_argument("--rounds", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    grid = (args.eta, 0.3, 0.35, 0.4, 0.45, 0.5)
    rows = sweep_pe(
        eta=args.eta, eta_prime_values=grid, rounds=args.rounds, seed=args.seed
    )

    print(f"honest efficiency eta = {args.eta}, {args.rounds} rounds per point\n")
    print(f"{'eta_prime':<11}{'formula':<10}{'measured':<10}{'|diff|':<9}"
          f"{'eff_bob':<9}{'eff_charlie':<12}verdict")
    for row in rows:
        if row["note"]:
            print(f"{row['eta_prime']:<11}{row['note']}")
            continue
        diff = abs(row["measured_fraction"] - row["formula_fraction"])
        print(f"{row['eta_prime']:<11}{row['formula_fraction']:<10.4f}"
              f"{row['measured_fraction']:<10.4f}{diff:<9.4f}"
              f"{row['eff_bob']:<9.4f}{row['eff_charlie']:<12.4f}{row['verdict']}")

    print("\nAt eta_prime = 2 * eta the whole session can be attacked; below")
    print("that the adversary throttles the attack to keep the agents' loss")
    print("statistics exactly at the advertised efficiency.")


if __name__ == "__main__":
    main()
