"""Relations across instances that any exact optimum satisfies, checked on
brute_force at n = 2..20, on both sides of SPLIT_N, and on the
structured solvers, symmetric_solve and geometric_solve; nd as the
pay ratio 1, the same regime as beta_nd(1.0), on every exact solver;
brute_force and the partition guarantees on relabelled instances.  Each instance's
regimes are solved in a random order on a shared slot, so that later
solves take the kept-sets path (rewards.table_rows) where it applies.

OPT is compared within RELATION_TOL: a report prices its winner apart
from the kernel, marginals and np.sum against table differences and a
sum in agent order, and the structured solvers price a class as a count
times a rate."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fairpay import rewards
from fairpay.contracts import BOUND_SLACK, Instance, ModeSpec, optimal_contract_for_set
from fairpay.errors import SizeLimitError, StructureError
from fairpay.experiments import random_two_agent_instance, solve_with
from fairpay.families import gen_geometric_family, gen_random, gen_two_class
from fairpay.rewards import Additive, CappedAdditive, Coverage, ExplicitTable, as_mask
from fairpay.solvers import (
    SPLIT_N,
    brute_force,
    delta_partition,
    geometric_solve,
    log_partition,
    symmetric_solve,
)
from test_solvers import _cold, _equal_rate_instances, _report_bytes

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
    0, an empty cover, or a table that ignores it."""
    f = inst.reward
    if isinstance(f, Coverage):
        reward = Coverage(f.element_weights, [*f.covers, []])
    elif isinstance(f, ExplicitTable):
        reward = ExplicitTable(inst.n + 1, np.tile(f.table, 2))
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
    rewards.table_rows(Additive([0.5]), 1)  # the first solve starts from an emptied slot
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


def _with_dear_cover(inst, elements):
    """inst with an agent n appended that covers the given elements at a
    cost twice its singleton value, a rate of 2 or more in every set."""
    f = inst.reward
    reward = Coverage(f.element_weights, [*f.covers, elements])
    cost = 2 * reward.value(1 << inst.n) or 0.5  # a dummy of weight 0 at any cost
    return Instance(inst.n + 1, np.append(inst.costs, cost), reward)


@settings(max_examples=50, deadline=None)
@given(
    kind=st.sampled_from(["additive", "capped_additive", "coverage", "explicit"]),
    n=st.integers(1, 11),
    seed=st.integers(0, 10_000),
    dummy_cost=st.sampled_from([1e-9, 0.01, 0.5]),
    data=st.data(),
)
def test_a_dummy_agent_leaves_every_brute_force_report(kind, n, seed, dummy_cost, data):
    """On every reward kind, explicit tables too, an appended agent that
    adds nothing, or a coverage agent that costs twice its singleton
    value, leaves the members, utility and opt_reference of every regime
    as they were, byte for byte."""
    inst = gen_random("coverage" if kind == "explicit" else kind, n, seed=seed)
    if kind == "explicit":
        inst = Instance(n, inst.costs, ExplicitTable(n, inst.reward.value_table()))
    dummies = [_with_dummy(inst, dummy_cost)]
    if kind == "coverage":
        size = inst.reward.element_weights.size
        dummies.append(_with_dear_cover(inst, data.draw(st.sets(st.integers(0, size - 1),
                                                                 min_size=1))))
    for spec in CHAIN:
        before = brute_force(inst, spec)
        for dummy in dummies:
            after = brute_force(dummy, spec)
            assert after.best.members == before.best.members
            assert after.best.utility == before.best.utility
            assert after.opt_reference == before.opt_reference


def _relabelled(inst, perm):
    """inst with agent perm[i] as its agent i."""
    f = inst.reward
    if isinstance(f, Coverage):
        reward = Coverage(f.element_weights, [f.covers[p] for p in perm])
    elif isinstance(f, CappedAdditive):
        reward = CappedAdditive(f.weights[perm], f.cap)
    else:
        reward = Additive(f.weights[perm])
    return Instance(inst.n, inst.costs[perm], reward)


@settings(max_examples=50, deadline=None)
@given(
    kind=st.sampled_from(["additive", "capped_additive", "coverage"]),
    n=st.integers(1, 12),
    seed=st.integers(0, 10_000),
    data=st.data(),
)
def test_partition_guarantees_hold_under_relabelling(kind, n, seed, data):
    """The lemma2 and lemma6 guarantees, as verify_bounds checks them,
    on a random relabelling of the agents."""
    inst = _relabelled(gen_random(kind, n, seed=seed), data.draw(st.permutations(range(n))))
    base = brute_force(inst, ModeSpec.unconstrained()).best
    assume(base.members)
    part = log_partition(inst, base.members)
    assert part.best().utility >= base.utility / part.guarantee_denominator - 1e-9
    for delta in (0.5, 1.0):
        part = delta_partition(inst, base.members, delta)
        bound = (base.utility - n**-delta) / part.guarantee_denominator - 1e-9
        assert part.best().utility >= bound


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["additive", "capped_additive", "coverage"]),
    n=st.one_of(st.integers(2, 20), st.integers(SPLIT_N, 20)),
    seed=st.integers(0, 10_000),
    order=st.permutations(range(len(CHAIN))),
    data=st.data(),
)
def test_brute_force_relabelling(kind, n, seed, order, data):
    """A random relabelling of the agents keeps every regime's utility and
    opt_reference within RELATION_TOL.  The winner is the image of the
    original winner, unless that image, priced on the relabelled
    instance, lies within BOUND_SLACK of the winner: a near-tie, which
    either pricing may break its own way."""
    inst = gen_random(kind, n, seed=seed)
    perm = data.draw(st.permutations(range(n)))
    moved = _relabelled(inst, perm)
    for before, after, spec in zip(_solve(inst, order), _solve(moved, order), CHAIN):
        assert abs(after.best.utility - before.best.utility) <= RELATION_TOL
        assert abs(after.opt_reference - before.opt_reference) <= RELATION_TOL
        image = as_mask([i for i in range(n) if before.best.members >> perm[i] & 1], n)
        if after.best.members != image:
            priced = optimal_contract_for_set(moved, image, spec).utility
            assert abs(priced - after.best.utility) <= BOUND_SLACK, (image, after.best.members)


def _scaled(inst, s):
    """inst with its reward and every cost scaled by s."""
    f = inst.reward
    if isinstance(f, Coverage):
        reward = Coverage(f.element_weights * s, f.covers)
    elif isinstance(f, CappedAdditive):
        reward = CappedAdditive(f.weights * s, f.cap * s)
    else:
        reward = Additive(f.weights * s)
    return Instance(inst.n, inst.costs * s, reward)


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["additive", "capped_additive", "coverage"]),
    n=st.integers(2, 12),
    seed=st.integers(0, 10_000),
    s=st.floats(0.01, 1.0),
)
def test_brute_force_scales_with_the_reward_and_costs(kind, n, seed, s):
    """Scaling f and every cost by s leaves each payment rate as it was,
    so OPT scales by s in every regime, within rounding."""
    inst = gen_random(kind, n, seed=seed)
    for spec in CHAIN:
        opt = brute_force(inst, spec).best.utility
        assert abs(brute_force(_scaled(inst, s), spec).best.utility - s * opt) <= RELATION_TOL


def _structured_chain(solve, inst, betas):
    """Check nd <= beta <= beta' <= the reports' opt_reference on solve's
    reports; return their utilities, in that order."""
    reports = [solve(inst, spec) for spec in (ModeSpec.nd(), *map(ModeSpec.beta_nd, betas))]
    opt = [rep.best.utility for rep in reports]
    for tight, loose in zip(opt, opt[1:]):
        assert tight <= loose + RELATION_TOL, opt
    for rep in reports:
        assert rep.best.utility <= rep.opt_reference + RELATION_TOL
    return opt


# lemma8 instances need M > 3 + 1/epsilon and n > M^(1/(1 - delta))
TWO_CLASS = st.one_of(
    st.builds(lambda n: gen_two_class("lemma8", n, epsilon=0.1, M=14.0, delta=0.5),
              st.integers(197, 2000)),
    st.builds(lambda n: gen_two_class("lemma8", n, epsilon=0.5, M=6.0, delta=0.3),
              st.integers(13, 2000)),
    st.builds(lambda n, eps: gen_two_class("lemma9", 2 * n, epsilon=eps),
              st.integers(500, 1000), st.floats(1e-8, 1e-2)),
)
BETAS = st.lists(st.floats(1.0, 1e6), min_size=2, max_size=2).map(sorted)


@settings(max_examples=40, deadline=None)
@given(inst=TWO_CLASS, betas=BETAS, raise_by=st.sampled_from([1.0 + 2.0**-52, 1.5, 4.0, 1e6]))
def test_symmetric_solve_relations(inst, betas, raise_by):
    """The regime chain on the two-class families, and a dearer special
    agent never raises OPT in any regime."""
    base = _structured_chain(symmetric_solve, inst, betas)
    costs = inst.costs.copy()
    costs[0] *= raise_by
    dearer = _structured_chain(symmetric_solve, Instance(inst.n, costs, inst.reward), betas)
    for before, after in zip(base, dearer):
        assert after <= before + RELATION_TOL


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(2, 8),
    T=st.floats(2.0, 50.0),
    rescale=st.one_of(st.just(1.0), st.floats(1e-3, 1e3)),
    betas=BETAS,
)
def test_geometric_solve_regime_chain(m, T, rescale, betas):
    """The regime chain on the geometric family, its costs rescaled,
    which geometric_solve's gate accepts."""
    inst = gen_geometric_family(m, T)
    _structured_chain(geometric_solve, Instance(inst.n, inst.costs * rescale, inst.reward), betas)


@settings(max_examples=20, deadline=None)
@given(m=st.integers(2, 8), data=st.data())
def test_geometric_solve_refuses_what_its_gate_cannot_read(m, data):
    """Expected refusals, not relations: geometric_solve reads the groups
    from runs, so a relabelling that moves agent 0 breaks them, and
    scaling the reward breaks the weights 1 / (m 2^k)."""
    inst = gen_geometric_family(m, 3.0)
    perm = data.draw(st.permutations(range(inst.n)).filter(lambda p: p[0] != 0))
    relabelled = Instance(inst.n, inst.costs[perm], Additive(inst.reward.weights[perm]))
    s = data.draw(st.floats(0.01, 0.99))
    for refused in (relabelled, _scaled(inst, s)):
        for spec in CHAIN:
            with pytest.raises(StructureError):
                geometric_solve(refused, spec)


def _rescaled_geometric(m, T, scale):
    inst = gen_geometric_family(m, T)
    return Instance(inst.n, inst.costs * scale, inst.reward)


EXACT = [
    brute_force,
    geometric_solve,
    symmetric_solve,
    lambda inst, spec: solve_with(inst, spec, "two_agent"),
]


@settings(max_examples=80, deadline=None)
@given(
    inst=st.one_of(
        st.builds(
            gen_random,
            st.sampled_from(["additive", "capped_additive", "coverage"]),
            st.one_of(st.integers(1, 20), st.integers(SPLIT_N - 2, 20)),
            seed=st.integers(0, 10_000),
        ),
        st.builds(_rescaled_geometric, st.integers(2, 4), st.floats(2.0, 50.0),
                  st.one_of(st.just(1.0), st.floats(1e-3, 1e3))),
        _equal_rate_instances(),
        TWO_CLASS,
        st.builds(random_two_agent_instance, st.integers(0, 2**32 - 1).map(np.random.default_rng)),
    )
)
# two sets of the geometric family whose nd utilities lie an ulp apart
@example(inst=gen_geometric_family(4, 4.766237031887716))
def test_nd_is_beta_nd_one_on_every_exact_solver(inst):
    """Every exact solver whose gate accepts inst reports the same set,
    payments, utility and opt_reference byte for byte under nd and under
    beta_nd(1.0), cold or after a solve of the other; a solver refuses
    both or neither."""
    nd, one = ModeSpec.nd(), ModeSpec.beta_nd(1.0)
    accepted = 0
    for solve in EXACT:
        try:
            expected = _cold(solve, inst, nd)
        except (SizeLimitError, StructureError) as refusal:
            with pytest.raises(type(refusal)):
                solve(inst, one)
            continue
        accepted += 1
        assert _report_bytes(solve(inst, one)) == expected
        assert _cold(solve, inst, one) == expected
        assert _report_bytes(solve(inst, nd)) == expected
    assert accepted
