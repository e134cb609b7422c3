"""Probability thresholds for random multidimensional permutations.

A random k x ... x k permutation (d-1 independent uniform permutations)
should contain the side-ell all-ones interval minor once k passes
(d+1) (2 ell)^d ln(ell).  This script evaluates the closed-form pieces of
that bound, checks the strict ordering between them, and estimates the
avoidance probability by seeded Monte Carlo.
"""

from patternforge import (
    avoid_probability,
    ell_from_k,
    probability_chain,
    ratio_lower_bound,
    side_threshold,
)


def main():
    print("smallest k with k >= (d+1)(2 ell)^d ln(ell):")
    for ell in (2, 3):
        for d in (2, 3):
            print(f"  ell={ell} d={d}: k >= {side_threshold(ell, d)}")

    print("\nlargest usable ell for a given k (snapped to 20j + 1):")
    for k in (10 ** 3, 10 ** 6, 10 ** 9):
        rep = ell_from_k(k, 2)
        print(f"  k={k}: ell={rep.ell} degenerate={rep.degenerate} "
              f"threshold_ok={rep.threshold_ok}")

    k = side_threshold(2, 2)
    rep = probability_chain(k, 2, 2)
    print(f"\nbound chain at k={k}, ell=2, d=2:")
    for name, v in zip(("base", "halved", "exponential", "final"), rep.values):
        print(f"  {name:12s} {v:.6g}")
    print(f"  each strictly below the next: {rep.strict}")
    print(f"  closing value as an exact rational: {rep.final_bound_exact}")

    print("\nMonte Carlo avoidance estimates, ell=2, d=2, 500 trials, seed 42:")
    for k in (2, 4, 8, 16, 34):
        est = avoid_probability(k, 2, 2, trials=500, seed=42)
        print(f"  k={k:3d}: estimate={est.estimate:.3f} "
              f"+/- {est.conf99:.3f} (99%), undecided={est.undecided}")

    # a single exact value pushes a lower bound onto every larger size:
    # value/m^{d-1} scaled by 1/(2^{d-1} (d-1)!)
    print("\nexact rational lower bounds from one measured point:")
    for value, m, d in ((3, 2, 2), (1, 1, 3)):
        print(f"  value={value} at m={m}, d={d}: "
              f"ratio >= {ratio_lower_bound(value, m, d)}")


if __name__ == "__main__":
    main()
