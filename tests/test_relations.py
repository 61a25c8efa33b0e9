"""Relations across instances that any exact optimum satisfies, checked on
brute_force at n = 2..20, on both sides of SPLIT_N.  Each instance's
regimes are solved in a random order on a shared slot, so that later
solves take the kept-sets path (rewards.table_rows) where it applies.

OPT is compared within RELATION_TOL: a sum of k equal payments can round
above k top, and a report prices its winner apart from the kernel."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fairpay import rewards
from fairpay.contracts import Instance, ModeSpec
from fairpay.families import gen_random
from fairpay.rewards import Additive, CappedAdditive, Coverage
from fairpay.solvers import SPLIT_N, brute_force

RELATION_TOL = 1e-12
# loosest last: nd <= beta_nd(1.5) <= beta_nd(4) <= unconstrained
CHAIN = [ModeSpec.nd(), ModeSpec.beta_nd(1.5), ModeSpec.beta_nd(4.0), ModeSpec.unconstrained()]


def _solve(inst, order):
    """The reports of inst under CHAIN's regimes, solved in the given
    order of their indices, returned in CHAIN's order."""
    reports = {i: brute_force(inst, CHAIN[i]) for i in order}
    return [reports[i] for i in range(len(CHAIN))]


def _with_dummy(inst, cost):
    """inst with an agent n appended that adds nothing to any set: weight
    0, or an empty cover."""
    f = inst.reward
    if isinstance(f, Coverage):
        reward = Coverage(f.element_weights, [*f.covers, []])
    elif isinstance(f, CappedAdditive):
        reward = CappedAdditive([*f.weights, 0.0], f.cap)
    else:
        reward = Additive([*f.weights, 0.0])
    return Instance(inst.n + 1, np.append(inst.costs, cost), reward)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["additive", "capped_additive", "coverage"]),
    n=st.one_of(st.integers(2, 20), st.integers(SPLIT_N - 2, 20)),
    seed=st.integers(0, 10_000),
    order=st.permutations(range(len(CHAIN))),
    agent=st.integers(0, 19),
    raise_by=st.sampled_from([1.0 + 2.0**-52, 1.5, 4.0, 1e6]),
    dummy_cost=st.sampled_from([1e-9, 0.01, 0.5]),
)
def test_brute_force_relations_across_instances(
    kind, n, seed, order, agent, raise_by, dummy_cost
):
    inst = gen_random(kind, n, seed=seed)
    rewards.dense_table(Additive([0.5]))  # the first solve starts from an emptied slot
    base = _solve(inst, order)
    opt = [rep.best.utility for rep in base]
    # the regime chain
    for tight, loose in zip(opt, opt[1:]):
        assert tight <= loose + RELATION_TOL, opt
    # a higher cost for one agent never raises OPT; the reward is shared,
    # so these solves find the slot warm at other costs
    costs = inst.costs.copy()
    costs[agent % n] *= raise_by
    dearer = _solve(Instance(n, costs, inst.reward), order)
    for before, after in zip(base, dearer):
        assert after.best.utility <= before.best.utility + RELATION_TOL
    # an agent that adds nothing never joins the winner, and changes
    # neither the winner nor any utility, also where n + 1 reaches SPLIT_N
    for before, after in zip(base, _solve(_with_dummy(inst, dummy_cost), order)):
        assert after.best.members == before.best.members
        assert after.best.utility == before.best.utility
        assert after.opt_reference == before.opt_reference
