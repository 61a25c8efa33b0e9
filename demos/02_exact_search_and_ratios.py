#!/usr/bin/env python3
"""Exhaustive subset search and the cost of equal pay.

Brute force scans all 2^n incentive sets, so small instances give exact
optima under every payment regime. The ratio between the unconstrained
optimum and the equal-pay optimum measures what the fairness requirement
costs the principal.
"""

from fairpay import ModeSpec, brute_force, gen_geometric_family, mask_to_indices, pond_ratio


def main():
    # three agents in two tiers: one strong (weight 1/2), two weak (1/4 each);
    # costs decay faster than weights, so weak agents are cheap per unit
    inst = gen_geometric_family(m=2, T=2)
    print("weights:", inst.reward.weights.tolist())
    print("costs:  ", inst.costs.tolist())

    print("\n=== exact optima over all 8 subsets ===")
    for label, spec in [
        ("unconstrained", ModeSpec.unconstrained()),
        ("equal pay    ", ModeSpec.nd()),
        ("ratio <= 4   ", ModeSpec.beta_nd(4.0)),
    ]:
        rep = brute_force(inst, spec)
        print(f"  {label} utility {rep.best.utility:.4f} "
              f"set {mask_to_indices(rep.best.members)}")

    print("\n=== the price of equal pay on this instance ===")
    rec = pond_ratio(inst, ModeSpec.nd(), ("brute", "brute"))
    print(f"  opt {rec.opt:.4f} / equal-pay opt {rec.opt_nd:.4f} = {rec.ratio:.4f}")

    print("\n=== an enormous allowed pay ratio makes the constraint vacuous ===")
    rec = pond_ratio(inst, ModeSpec.beta_nd(1e9), ("brute", "brute"))
    print(f"  ratio at beta=1e9: {rec.ratio:.9f}")

    print("\n=== one exact pass over every subset ===")
    rep = brute_force(inst, ModeSpec.nd())
    print(f"  {rep.candidates_examined} subsets scanned in one pass; equal-pay winner "
          f"set {mask_to_indices(rep.best.members)} with utility {rep.best.utility:.6f}")


if __name__ == "__main__":
    main()
