"""Solver tests: brute force, partitions, and the fast exact paths."""

import math
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fairpay.contracts import (
    COMPARE_TOL,
    MARGINAL_TOL,
    RATE_TOL,
    Instance,
    ModeSpec,
    is_equilibrium,
    optimal_contract_for_set,
)
from fairpay import rewards, solvers
from fairpay.errors import EmptySetError, ParameterError, SizeLimitError, StructureError
from fairpay.experiments import random_two_agent_instance, solve_with
from fairpay.families import (
    gen_geometric_family,
    gen_random,
    gen_two_agent_tight,
    gen_two_class,
)
from fairpay.rewards import (
    STRUCT_TOL,
    Additive,
    CappedAdditive,
    Coverage,
    ExplicitTable,
    SymmetricTwoClass,
    as_mask,
    check_structure,
    halves,
    mask_to_indices,
)
from fairpay.solvers import (
    PRICE_ALL_N,
    SPLIT_N,
    SolveReport,
    _argbest,
    _row_bounds,
    _row_slack,
    brute_force,
    delta_partition,
    log_partition,
    symmetric_solve,
    two_agent_bound,
    two_agent_solve,
)
from test_structured_scans import _specs, _two_class_instances

R2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# brute force

def test_brute_force_geometric_unconstrained():
    inst = gen_geometric_family(2, 2)
    rep = brute_force(inst, ModeSpec.unconstrained())
    assert rep.best.utility == pytest.approx(0.5, abs=1e-12)  # 1 - 1/T
    assert rep.best.members == 0b111
    assert rep.candidates_examined == 8


def test_brute_force_geometric_nd():
    rep = brute_force(gen_geometric_family(2, 2), ModeSpec.nd())
    assert rep.best.utility == pytest.approx(0.375, abs=1e-12)
    # three sets tie at 0.375; smallest cardinality then smallest mask wins
    assert rep.best.members == 0b001


def test_brute_force_huge_beta_matches_unconstrained():
    inst = gen_random("additive", 8, seed=2)
    unc = brute_force(inst, ModeSpec.unconstrained()).best.utility
    relaxed = brute_force(inst, ModeSpec.beta_nd(1e9)).best.utility
    assert relaxed == pytest.approx(unc, abs=1e-6)


def test_brute_force_size_limit():
    n = solvers.BRUTE_FORCE_LIMIT + 1
    inst = Instance(n, np.full(n, 1e-3), Additive(np.full(n, 1.0 / n)))
    with mock.patch.object(solvers, "table_rows", side_effect=AssertionError("table built")):
        with pytest.raises(SizeLimitError, match="symmetric or partition"):
            brute_force(inst, ModeSpec.nd())


def test_brute_force_worker_independence():
    # workers is accepted and ignored: the scan is one single-threaded
    # pass, so every worker count must give the same report.  The last
    # three instances have winners that contain agent 11 or both 10 and 11
    instances = [gen_random("coverage", 12, seed=seed) for seed in (1, 6, 7)]
    instances.append(gen_random("additive", 12, seed=3))
    for inst in instances:
        for spec in (ModeSpec.unconstrained(), ModeSpec.nd(), ModeSpec.beta_nd(3.0)):
            reports = [brute_force(inst, spec, workers=w) for w in (1, 2, 3, 4, 7)]
            assert len({r.best.members for r in reports}) == 1
            assert len({r.best.utility for r in reports}) == 1
            assert len({r.best.payments.payments.tobytes() for r in reports}) == 1
            assert len({r.opt_reference for r in reports}) == 1


def _report_bytes(rep):
    best = rep.best
    return (
        best.members,
        np.float64(best.utility).tobytes(),
        best.payments.payments.tobytes(),
        np.float64(rep.opt_reference).tobytes(),
        rep.candidates_examined,
    )


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["additive", "coverage", "capped_additive"]),
    n=st.integers(1, 11),
    seed=st.integers(0, 10_000),
    spec=st.sampled_from([ModeSpec.unconstrained(), ModeSpec.nd(), ModeSpec.beta_nd(2.5)]),
)
def test_brute_force_reports_are_byte_identical_for_any_workers(kind, n, seed, spec):
    inst = gen_random(kind, n, seed=seed)
    reports = {_report_bytes(brute_force(inst, spec, workers=w)) for w in (1, 2, 3, 7)}
    assert len(reports) == 1


_MODES = [ModeSpec.unconstrained(), ModeSpec.nd(), ModeSpec.beta_nd(2.5)]


def _two_agent(inst, spec):
    return solve_with(inst, spec, "two_agent")


def _cold(solve, inst, spec):
    """solve(inst, spec) with a table built afresh: the shared slot holds
    another reward's table first."""
    rewards.dense_table(Additive([0.5]))
    return _report_bytes(solve(inst, spec))


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["additive", "coverage", "capped_additive", "explicit"]),
    n=st.integers(1, 12),
    seed=st.integers(0, 10_000),
)
def test_reports_do_not_depend_on_which_solve_built_the_table(kind, n, seed):
    inst = _random_instance(kind, n, seed)
    solvers = [brute_force] + ([_two_agent] if n == 2 else [])
    for solve in solvers:
        cold = [_cold(solve, inst, spec) for spec in _MODES]
        for first in _MODES:
            solve(inst, first)
            assert [_report_bytes(solve(inst, spec)) for spec in _MODES] == cold


def _count_builds(reward_type):
    build = reward_type.value_table
    return mock.patch.object(reward_type, "value_table", autospec=True, side_effect=build)


def test_consecutive_solves_of_one_reward_build_its_table_once():
    specs = _MODES + [ModeSpec.beta_nd(4.0)]
    for inst in (_random_instance("coverage", 10, 5), _random_instance("additive", 10, 5)):
        rewards.dense_table(Additive([0.5]))
        with _count_builds(type(inst.reward)) as calls:
            for spec in specs:
                brute_force(inst, spec)
        assert calls.call_count == 1
    # an explicit table's Instance check shares it with the solves
    cov = gen_random("coverage", 10, seed=5)
    with _count_builds(ExplicitTable) as calls:
        inst = Instance(10, cov.costs, ExplicitTable(10, cov.reward.value_table()))
        for spec in specs:
            brute_force(inst, spec)
        pair = random_two_agent_instance(np.random.default_rng(5))
        for spec in specs:
            _two_agent(pair, spec)
    assert calls.call_count == 2


def test_brute_force_matches_per_set_engine_scan():
    # independent oracle: evaluate every subset through the contract engine
    # directly and compare against the vectorized scan
    rng = np.random.default_rng(59)
    kinds = ("additive", "coverage", "capped_additive")
    instances = [
        gen_random(kinds[k % 3], int(rng.integers(2, 9)), seed=int(rng.integers(0, 10_000)))
        for k in range(9)
    ]
    instances += [gen_random(kind, 1, seed=k) for k, kind in enumerate(kinds)]
    cov = gen_random("coverage", 6, seed=61)
    instances.append(Instance(6, cov.costs, ExplicitTable(6, cov.reward.value_table())))
    for inst in instances:
        slow = {}
        for spec in (ModeSpec.unconstrained(), ModeSpec.nd(), ModeSpec.beta_nd(3.0)):
            outs = [
                optimal_contract_for_set(inst, mask, spec)
                for mask in range(1 << inst.n)
            ]
            slow[spec.mode] = max(
                (o for o in outs if o.feasible),
                key=lambda o: (o.utility, -o.members.bit_count(), -o.members),
            )
            report = brute_force(inst, spec)
            fast = report.best
            assert fast.members == slow[spec.mode].members
            assert fast.utility == pytest.approx(slow[spec.mode].utility, abs=1e-12)
            assert np.array_equal(fast.payments.payments, slow[spec.mode].payments.payments)
            assert report.opt_reference == pytest.approx(
                slow["unconstrained"].utility, abs=1e-12
            )


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(
        ["additive", "coverage", "capped_additive", "explicit", "symmetric_two_class"]
    ),
    n=st.integers(2, 10),
    seed=st.integers(0, 10_000),
    beta=st.floats(1.0, 1e4),
)
def test_brute_force_winners_are_equilibria(kind, n, seed, beta):
    if kind == "symmetric_two_class":
        rng = np.random.default_rng(seed)
        f_b = rng.uniform(0.0, 1.0 / n)
        reward = SymmetricTwoClass(rng.uniform(0.0, 1.0 - (n - 1) * f_b), f_b, n - 1)
        costs = np.concatenate([rng.uniform(0.01, 0.2, 1), np.full(n - 1, rng.uniform(1e-4, 0.02))])
        inst = Instance(n, costs, reward)
    else:
        inst = _random_instance(kind, n, seed)
    for spec in (ModeSpec.unconstrained(), ModeSpec.nd(), ModeSpec.beta_nd(beta)):
        best = brute_force(inst, spec).best
        assert is_equilibrium(inst, best.payments, best.members)


def test_brute_force_beta_monotone():
    inst = gen_random("capped_additive", 8, seed=19)
    utils = [
        brute_force(inst, ModeSpec.beta_nd(b)).best.utility
        for b in (1.0, 1.3, 2.0, 5.0, 30.0, 1e6)
    ]
    for lo, hi in zip(utils, utils[1:]):
        assert lo <= hi + 1e-12
    assert utils[0] == pytest.approx(
        brute_force(inst, ModeSpec.nd()).best.utility, abs=1e-15
    )


def test_brute_force_reports_unconstrained_reference():
    inst = gen_random("additive", 7, seed=9)
    rep = brute_force(inst, ModeSpec.nd())
    unc = brute_force(inst, ModeSpec.unconstrained())
    assert rep.opt_reference == pytest.approx(unc.best.utility, abs=1e-12)


def test_brute_force_empty_when_nothing_profitable():
    # costs above singleton values: every nonempty set is infeasible
    inst = Instance(2, np.array([0.9, 0.9]), Additive([0.4, 0.4]))
    rep = brute_force(inst, ModeSpec.unconstrained())
    assert rep.best.members == 0 and rep.best.utility == 0.0


def _full_pass_reference(table, costs, ratio):
    """(mode best, unconstrained best) masks of a dense table from full
    passes over all 2^n sets, as brute_force made them before it bounded
    each set by its agents' singleton rates; the arithmetic is those
    passes', kept as the reference for the bound-pruned scan.  ratio is
    ModeSpec.pay_ratio: each member is paid max(alpha_i, top / ratio),
    summed in agent order, so nd is ratio 1.0."""
    size = table.size
    max_a = np.zeros(size)
    sum_a = np.zeros(size)
    popc = np.zeros(1, dtype=np.uint8)
    while popc.size < size:
        popc = np.concatenate([popc, popc + 1])

    def alphas(i):
        without, with_i = halves(table, 1 << i)
        a = with_i - without
        bad = a <= MARGINAL_TOL
        np.copyto(a, 0.0, where=bad)
        with np.errstate(divide="ignore"):
            return np.divide(costs[i], a, out=a)

    for i in range(costs.size):
        a = alphas(i)
        top, total = halves(max_a, 1 << i)[1], halves(sum_a, 1 << i)[1]
        np.maximum(top, a, out=top)
        total += a
    infeasible = max_a > 1 + COMPARE_TOL

    def select(pay):
        np.subtract(1.0, pay, out=pay)
        with np.errstate(invalid="ignore"):
            np.multiply(pay, table, out=pay)
        np.copyto(pay, -np.inf, where=infeasible)
        return _argbest(pay, popc)

    ref = select(sum_a)
    if ratio == math.inf:
        return ref, ref
    floor = np.divide(max_a, ratio, out=max_a)
    pay = np.zeros(size)
    for i in range(costs.size):
        a = alphas(i)
        np.maximum(a, halves(floor, 1 << i)[1], out=a)
        total = halves(pay, 1 << i)[1]
        total += a
    return select(pay), ref


def _bound_passes():
    """_table_best takes its bound passes at every n, as above PRICE_ALL_N,
    so that small instances exercise them."""
    return mock.patch("fairpay.solvers.PRICE_ALL_N", 0)


def _reference_report(inst, spec):
    table = inst.reward.value_table()
    best, ref = _full_pass_reference(table, inst.costs, spec.pay_ratio)
    ref_utility = optimal_contract_for_set(inst, ref, ModeSpec.unconstrained()).utility
    out = optimal_contract_for_set(inst, best, spec)
    return SolveReport(spec, out, "brute_force", 1 << inst.n, ref_utility)


def _random_instance(kind, n, seed):
    """gen_random's kinds, and "explicit": a coverage table as ExplicitTable."""
    if kind != "explicit":
        return gen_random(kind, n, seed=seed)
    cov = gen_random("coverage", n, seed=seed)
    return Instance(n, cov.costs, ExplicitTable(n, cov.reward.value_table()))


@st.composite
def _nudged_explicit(draw):
    """Coverage tables as ExplicitTable with a few entries, singletons
    among them, moved by about STRUCT_TOL, as test_rewards draws them; a
    lowered singleton raises the agent's later marginals above its first
    one, which RATE_TOL must cover.  Tables that fail the structure check
    cannot become an Instance and are not drawn."""
    n = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cov = gen_random("coverage", n, seed=int(rng.integers(1 << 30)))
    table = cov.reward.value_table()
    at = np.concatenate([1 << rng.integers(0, n, size=2), rng.integers(1, 1 << n, size=2)])
    table[at] += rng.choice([4e-13, -4e-13, 1e-12, -1e-12, 3e-12, -3e-12], size=at.size)
    table = np.clip(table, 0.0, 1.0)
    table[0] = 0.0
    reward = ExplicitTable(n, table)
    report = check_structure(reward)
    assume(report.monotone and report.submodular)
    return Instance(n, cov.costs, reward)


def _equal_rate(n, k, w, explicit=False):
    """n agents of equal weight w at rate 1 / (2k + 1), where k and k + 1
    agents tie exactly in every mode: (1 - k r) k w = (1 - (k + 1) r)(k + 1) w.
    Which one wins is decided by the rounding of the sum of the rates."""
    reward = Additive(np.full(n, w))
    if explicit:
        reward = ExplicitTable(n, reward.value_table())
    return Instance(n, np.full(n, w / (2 * k + 1)), reward)


@st.composite
def _equal_rate_instances(draw):
    """_equal_rate's instances, as Additive or ExplicitTable rewards."""
    n = draw(st.integers(2, 12))
    k = draw(st.integers(1, n - 1))
    w = draw(st.sampled_from([1 / 16, 0.05, 0.1, 1 / n, 1 / (n + 1), 0.7 / n]))
    assume(n * w <= 1.0)
    return _equal_rate(n, k, w, draw(st.booleans()))


@st.composite
def _spread_rate_instances(draw):
    """Additive agents whose rates spread over three decades, so that the
    price of non-discrimination is high and the nd and beta_nd bounds of
    brute_force's scan take over from the unconstrained one."""
    n = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.dirichlet(np.ones(n)) * rng.uniform(0.5, 1.0)
    rates = np.exp(rng.uniform(math.log(1e-3), math.log(0.9), n))
    return Instance(n, w * rates, Additive(w))


_BETAS = st.sampled_from(["1", "1+", "2.5", "sqrt", "1e6"])


def _spec(mode, beta, n):
    if mode != "beta_nd":
        return ModeSpec(mode)
    return ModeSpec.beta_nd({"1": 1.0, "1+": 1.0 + 1e-12, "2.5": 2.5,
                             "sqrt": math.sqrt(n) + 1.0, "1e6": 1e6}[beta])


@settings(max_examples=200, deadline=None)
@given(
    inst=st.one_of(
        st.builds(
            _random_instance,
            st.sampled_from(["additive", "coverage", "capped_additive", "explicit"]),
            st.integers(1, 12),
            st.integers(0, 10_000),
        ),
        _nudged_explicit(),
        _equal_rate_instances(),
        _spread_rate_instances(),
    ),
    mode=st.sampled_from(["unconstrained", "nd", "beta_nd"]),
    beta=_BETAS,
)
# equal-rate near-ties where the sum of k payments and k top round apart
@example(inst=_equal_rate(6, 5, 1 / 16), mode="nd", beta="1")
@example(inst=_equal_rate(7, 5, 1 / 16), mode="nd", beta="1")
@example(inst=_equal_rate(7, 5, 1 / 8), mode="nd", beta="1")
def test_bound_scan_matches_full_pass(inst, mode, beta):
    spec = _spec(mode, beta, inst.n)
    expected = _report_bytes(_reference_report(inst, spec))
    assert _report_bytes(brute_force(inst, spec)) == expected
    with _bound_passes():
        assert _report_bytes(brute_force(inst, spec)) == expected


@pytest.mark.parametrize("n", [PRICE_ALL_N, PRICE_ALL_N + 1])
def test_pricing_every_set_agrees_with_the_bound_passes_at_the_cut(n):
    # n = PRICE_ALL_N prices every set by default, n = PRICE_ALL_N + 1
    # takes the bound passes; each is run both ways
    instances = [
        _random_instance(kind, n, seed)
        for kind in ("additive", "coverage", "capped_additive", "explicit")
        for seed in range(4)
    ]
    # k and k + 1 agents tie exactly, so rounding and the tie-break decide
    instances += [Instance(n, np.full(n, 0.1 / (2 * k + 1)), Additive(np.full(n, 0.1)))
                  for k in (1, n // 2)]
    # {2} ties {0, 1} under nd, as in the tie test below, and wins by size
    # over the smaller mask; agents 3.. are worth nothing
    geo, pad = _relabel(gen_geometric_family(2, 2), [1, 2, 0]), n - 3
    instances.append(Instance(n, np.concatenate([geo.costs, np.full(pad, 0.1)]),
                              Additive(np.concatenate([geo.reward.weights, np.zeros(pad)]))))
    assert brute_force(instances[-1], ModeSpec.nd()).best.members == 0b100
    for inst in instances:
        for spec in _MODES + [ModeSpec.beta_nd(1.0)]:
            reports = [_report_bytes(brute_force(inst, spec))]
            for cut in (0, n):
                with mock.patch("fairpay.solvers.PRICE_ALL_N", cut):
                    reports.append(_report_bytes(brute_force(inst, spec)))
            assert reports[0] == reports[1] == reports[2]


def _split():
    """_table_best splits every table into rows, with its bound passes
    at every n, so that small instances exercise the split."""
    return mock.patch.multiple("fairpay.solvers", SPLIT_N=0, PRICE_ALL_N=0)


@st.composite
def _split_instances(draw):
    """Instances whose rows bound each other loosely or tightly: coverage
    with more than 64 elements, geometric families with their costs
    rescaled, additive weights rounded to a few values, which tie, and
    two-class rewards."""
    kind = draw(st.sampled_from(["wide-coverage", "geometric", "rounded", "two-class"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "geometric":
        inst = gen_geometric_family(draw(st.integers(1, 3)), draw(st.floats(2.0, 50.0)))
        return Instance(inst.n, inst.costs * draw(st.floats(1e-3, 1e3)), inst.reward)
    n = draw(st.integers(1, 14))
    if kind == "two-class":
        n = max(n, 2)
        f_b = rng.uniform(0.0, 1.0) / n
        reward = SymmetricTwoClass(rng.uniform(0.0, 1.0 - (n - 1) * f_b), f_b, n - 1)
    elif kind == "wide-coverage":
        w = rng.uniform(0.0, 1.0, draw(st.integers(65, 90)))
        covers = [np.flatnonzero(rng.random(w.size) < rng.uniform(0, 0.3)) for _ in range(n)]
        reward = Coverage(w / w.sum(), covers)
    else:
        w = rng.integers(1, 4, n) / (4.0 * n)
        reward = Additive(w) if draw(st.booleans()) else CappedAdditive(w, 0.5)
    singles = np.array([reward.value(1 << i) for i in range(n)]) + 0.01
    costs = singles * rng.choice([0.05, 0.1, 0.25, 0.5], n)
    return Instance(n, costs, reward)


@settings(max_examples=150, deadline=None)
@given(
    inst=st.one_of(
        st.builds(
            _random_instance,
            st.sampled_from(["additive", "coverage", "capped_additive", "explicit"]),
            st.integers(1, 14),
            st.integers(0, 10_000),
        ),
        _nudged_explicit(),
        _equal_rate_instances(),
        _spread_rate_instances(),
        _split_instances(),
    ),
    mode=st.sampled_from(["unconstrained", "nd", "beta_nd"]),
    beta=_BETAS,
)
def test_split_rows_match_the_one_row_kernel(inst, mode, beta):
    """The rows, their bounds and the batches pick the one-row kernel's
    sets, so the reports are byte-identical."""
    spec = _spec(mode, beta, inst.n)
    with mock.patch("fairpay.solvers.PRICE_ALL_N", 0):
        expected = _report_bytes(brute_force(inst, spec))
    with _split():
        assert _report_bytes(brute_force(inst, spec)) == expected


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, 12),
    seed=st.integers(0, 2**32 - 1),
    bump=st.sampled_from([0.0, 0.5, 0.9]),
    kind=st.sampled_from(["additive", "coverage"]),
)
def test_row_bound_and_slack_cover_every_set(n, seed, bump, kind):
    """Every set's bound B = (1 - R) t, as the kernel forms it, is at most
    its row's bound plus _row_slack(n).  A table supermodular by
    bump * STRUCT_TOL per pair, which the structure check accepts, has
    t(h | l) = t(h) + t(l) + |h| |l| bump STRUCT_TOL."""
    rng = np.random.default_rng(seed)
    inst = gen_random(kind, n, seed=int(rng.integers(1 << 30)))
    size = np.array([m.bit_count() for m in range(1 << n)])
    table = np.clip(inst.reward.value_table() + bump * STRUCT_TOL * size * (size - 1) / 2, 0, 1)
    assert check_structure(ExplicitTable(n, table)).submodular
    costs = inst.costs * rng.uniform(0.01, 2.0, n)
    rates = np.minimum(costs / (table[1 << np.arange(n)] - table[0] + RATE_TOL), 2.0)
    k = (n + 1) // 2
    low, high = rewards.fold_subsets(np.add, rates[:k]), rewards.fold_subsets(np.add, rates[k:])
    t = table.reshape(-1, 1 << k)
    bound = (1.0 - (low + high[:, None])) * t
    rows = _row_bounds(1.0 - high, t[:, 0], low, t[0])
    assert np.all(bound <= rows[:, None] + _row_slack(n))


def _count_calls(target, name):
    original = getattr(target, name)
    return mock.patch.object(target, name, autospec=True, side_effect=original)


def _requested_rows(reward):
    """A patch of reward's _oracle, and start(), which opens the list
    that the row requests of the oracle's rows closure go to from then."""
    oracle = type(reward)._oracle
    requested = []

    def counted(self, k):
        values, rows = oracle(self, k)
        return values, lambda hs: requested[-1].extend(hs.tolist()) or rows(hs)

    def start():
        requested.append([])
        return requested[-1]

    return mock.patch.object(type(reward), "_oracle", counted), start


def test_brute_force_above_the_split_builds_no_table():
    """From SPLIT_N agents on, brute_force values rows through the
    reward's oracle: it never calls value_table or dense_table.  Of nd,
    beta_nd and unconstrained solves of one reward, in that order, the
    first asks for each row at most once, but row 0, the low sets, which
    it reads first and may read again in its batch, and the later ones
    price the sets it kept and ask for no row."""
    specs = [ModeSpec.nd(), ModeSpec.beta_nd(2.5), ModeSpec.unconstrained()]
    for kind in ("coverage", "additive"):
        inst = gen_random(kind, SPLIT_N, seed=4)
        rewards.dense_table(Additive([0.5]))
        patched, start = _requested_rows(inst.reward)
        with _count_calls(type(inst.reward), "value_table") as tables, \
                _count_calls(rewards, "dense_table") as dense, patched:
            solves = [(start(), brute_force(inst, spec)) for spec in specs]
        assert tables.call_count == 0 and dense.call_count == 0
        (first, _), *later = solves
        k = (SPLIT_N + 1) // 2
        assert first.count(0) <= 2 and 0 < len(set(first)) < 1 << (SPLIT_N - k)
        assert len(first) - first.count(0) == len(set(first) - {0})
        assert all(requested == [] for requested, _ in later)
        with mock.patch("fairpay.solvers.SPLIT_N", SPLIT_N + 1):
            assert [_report_bytes(r) for _, r in solves] == [
                _report_bytes(brute_force(inst, spec)) for spec in specs
            ]


@pytest.mark.parametrize("n", range(SPLIT_N, 21))
def test_rows_valued_stay_within_a_quarter(n):
    """brute_force's docstring: the nd and beta_nd solves of a random
    instance ask for at most a quarter of the rows between them."""
    for kind in ("additive", "coverage", "capped_additive"):
        for seed in range(3):
            inst = gen_random(kind, n, seed=seed)
            patched, start = _requested_rows(inst.reward)
            with patched:
                requested = start()
                brute_force(inst, ModeSpec.nd())
                brute_force(inst, ModeSpec.beta_nd(2.0))
            k = (n + 1) // 2
            assert 0 < len(set(requested)) <= (1 << (n - k)) / 4, (kind, seed)


@settings(max_examples=150, deadline=None)
@given(
    inst=st.one_of(
        st.builds(
            _random_instance,
            st.sampled_from(["additive", "coverage", "capped_additive", "explicit"]),
            st.integers(1, 14),
            st.integers(0, 10_000),
        ),
        _nudged_explicit(),
        _equal_rate_instances(),
        _spread_rate_instances(),
        _split_instances(),
    ),
    steps=st.lists(
        st.tuples(st.sampled_from(["unconstrained", "nd", "beta_nd"]), _BETAS, st.booleans()),
        min_size=3,
        max_size=6,
    ),
    split=st.booleans(),
    scale=st.sampled_from([0.5, 1.0 + 2.0**-52, 3.0]),
)
def test_later_solves_reuse_the_sets_kept_by_the_first(inst, steps, split, scale):
    """Consecutive solves of one reward, in any order of regimes, some
    with the costs rescaled, report byte for byte what a solve from an
    emptied slot reports, whether the kept sets decide them or the full
    kernel runs.  split patches SPLIT_N to 0, so that the rows are split."""
    other = Instance(inst.n, inst.costs * scale, inst.reward)
    solves = [(other if rescaled else inst, _spec(mode, beta, inst.n))
              for mode, beta, rescaled in steps]
    patched = {"PRICE_ALL_N": 0, "SPLIT_N": 0 if split else SPLIT_N}
    with mock.patch.multiple("fairpay.solvers", **patched):
        cold = [_cold(brute_force, case, spec) for case, spec in solves]
        rewards.dense_table(Additive([0.5]))
        assert [_report_bytes(brute_force(case, spec)) for case, spec in solves] == cold


@pytest.mark.parametrize("n", [12, SPLIT_N, 20])
def test_a_solve_after_nd_prices_only_the_kept_sets(n):
    """After an nd solve, a beta_nd or unconstrained solve of the same
    instance prices the sets the nd solve kept, and no others: it asks
    for no row and so takes no bound pass."""
    for kind in ("coverage", "additive", "capped_additive"):
        for seed in range(3):
            inst = gen_random(kind, n, seed=seed)
            for spec in (ModeSpec.beta_nd(2.0), ModeSpec.beta_nd(1e6), ModeSpec.unconstrained()):
                expected = _cold(brute_force, inst, spec)
                brute_force(inst, ModeSpec.nd())
                k = n if n < SPLIT_N else (n + 1) // 2
                rows = rewards.table_rows(inst.reward, k)
                kept = rows.survivors[2]
                assert 0 < kept.size <= 300
                priced, price = [], solvers._price

                def counted(values, costs, masks, ratio):
                    priced.append(masks.size)
                    return price(values, costs, masks, ratio)

                with mock.patch.object(solvers, "_price", counted), \
                        mock.patch.object(rows, "rows", side_effect=rows.rows) as asked:
                    assert _report_bytes(brute_force(inst, spec)) == expected
                assert sum(priced) == kept.size and asked.call_count == 0


# tightest first by pay ratio; nd and beta_nd(1) are the one ratio 1
_LOOSENING = [ModeSpec.nd(), ModeSpec.beta_nd(1.0), ModeSpec.beta_nd(1.5),
              ModeSpec.beta_nd(4.0), ModeSpec.beta_nd(1e6), ModeSpec.unconstrained()]


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(["coverage", "additive", "capped_additive"]),
    n=st.integers(9, 20),
    seed=st.integers(0, 10_000),
    pair=st.lists(st.integers(0, len(_LOOSENING) - 1), min_size=2, max_size=2).map(sorted),
)
def test_a_looser_regime_values_no_row(kind, n, seed, pair):
    """After a solve in any regime, a solve at the same costs in a regime
    at least as loose prices the kept sets only: it asks for no row, and
    reports byte for byte what a solve from an emptied slot reports
    (_table_best, "Reuse")."""
    first, second = (_LOOSENING[i] for i in pair)
    inst = gen_random(kind, n, seed=seed)
    expected = _cold(brute_force, inst, second)
    brute_force(inst, first)
    rows = rewards.table_rows(inst.reward, n if n < SPLIT_N else (n + 1) // 2)
    with mock.patch.object(rows, "rows", side_effect=rows.rows) as asked:
        assert _report_bytes(brute_force(inst, second)) == expected
    assert asked.call_count == 0


def test_bound_scan_breaks_ties_like_full_pass():
    # every agent's rate is 1/16, so U(k agents) = (1 - k/16) k/16 and all
    # 12,870 sets of 8 agents tie at 0.25 (in every mode, as all payments
    # are equal); the smallest mask wins
    inst = Instance(16, np.full(16, 1 / 256), Additive(np.full(16, 1 / 16)))
    for spec in (ModeSpec.unconstrained(), ModeSpec.nd(), ModeSpec.beta_nd(2.0)):
        rep = brute_force(inst, spec)
        assert rep.best.members == 0b11111111 and rep.best.utility == 0.25
        assert _report_bytes(rep) == _report_bytes(_reference_report(inst, spec))
    # {2}, {0, 1}, {0, 2} and {1, 2} tie at 0.375 under beta = 1 and nd;
    # the singleton wins although {0, 1} has the smaller mask
    inst = _relabel(gen_geometric_family(2, 2), [1, 2, 0])
    for spec in (ModeSpec.nd(), ModeSpec.beta_nd(1.0)):
        with _bound_passes():
            bound = brute_force(inst, spec)
        for rep in (brute_force(inst, spec), bound):
            assert rep.best.members == 0b100 and rep.best.utility == 0.375
            assert _report_bytes(rep) == _report_bytes(_reference_report(inst, spec))


def test_bound_scan_when_rates_or_values_vanish():
    # an infinite rate (a huge cost over a zero singleton value) meets
    # t[S] = 0, and a table of zeros leaves every set at a bound of 0:
    # neither may leave a NaN in the bound or lose the empty set
    cases = [
        Instance(3, np.array([1e300, 0.1, 0.1]), Additive([0.0, 0.3, 0.3])),
        Instance(3, np.array([0.1, 1e300, 0.2]), Coverage([0.5, 0.5], [[0], [], [1]])),
        Instance(12, np.full(12, 0.01), Additive(np.zeros(12))),
    ]
    for inst in cases:
        for spec in (ModeSpec.unconstrained(), ModeSpec.nd(), ModeSpec.beta_nd(2.0)):
            with _bound_passes():
                rep = brute_force(inst, spec)
            assert _report_bytes(rep) == _report_bytes(_reference_report(inst, spec))
    assert brute_force(cases[2], ModeSpec.nd()).best.members == 0


def test_bound_scan_at_a_high_price_of_non_discrimination():
    # one costly agent is worth hiring at its own rate but not at a pay
    # shared with 15 cheap ones, so the unconstrained bound stays above the
    # nd and beta_nd bars on most sets and the mode's own bound prunes them
    w = np.concatenate([[0.5], np.full(15, 0.5 / 15)])
    inst = Instance(16, w * np.concatenate([[0.3], np.full(15, 0.001)]), Additive(w))
    for spec in (ModeSpec.nd(), ModeSpec.beta_nd(2.0), ModeSpec.beta_nd(1e6)):
        rep = brute_force(inst, spec)
        assert _report_bytes(rep) == _report_bytes(_reference_report(inst, spec))
    assert brute_force(inst, ModeSpec.nd()).best.members == (1 << 16) - 2
    # agents 0 and 3 win under beta = 1.5, each paid 0.025 (agent 0 at the
    # floor 0.03 / 1.5): the beta_nd bound must divide by beta
    w = np.array([0.3, 0.2, 0.3, 0.2])
    inst = Instance(4, w * np.array([0.004, 0.7, 0.25, 0.03]), Additive(w))
    with _bound_passes():
        rep = brute_force(inst, ModeSpec.beta_nd(1.5))
    assert rep.best.members == 0b1001 and rep.best.utility == pytest.approx(0.475, abs=1e-15)
    assert _report_bytes(rep) == _report_bytes(_reference_report(inst, ModeSpec.beta_nd(1.5)))


def test_rate_tol_covers_tables_submodular_up_to_struct_tol():
    # f(S) = 0.9 |S| / n + eps C(|S|, 2) is supermodular by eps <= STRUCT_TOL
    # per pair, so it passes the structure check, and a marginal in a set of
    # 12 exceeds the singleton one by 11 eps; a smaller RATE_TOL would bound
    # the winner below its own utility and prune it
    n, eps = 12, 0.9 * STRUCT_TOL
    size = np.array([m.bit_count() for m in range(1 << n)])
    table = Additive(np.full(n, 0.9 / n)).value_table() + eps * size * (size - 1) / 2
    for rate in (0.05, 0.2):
        inst = Instance(n, np.full(n, 0.9 / n * rate), ExplicitTable(n, table))
        for spec in (ModeSpec.unconstrained(), ModeSpec.nd(), ModeSpec.beta_nd(2.0)):
            rep = brute_force(inst, spec)
            assert _report_bytes(rep) == _report_bytes(_reference_report(inst, spec))


def test_explicit_table_above_fourteen_agents():
    # the exhaustive structure check reaches brute_force's limit, so an
    # explicit table of 15 agents builds an Instance
    cov = gen_random("coverage", 15, seed=4)
    inst = Instance(15, cov.costs, ExplicitTable(15, cov.reward.value_table()))
    for spec in (ModeSpec.unconstrained(), ModeSpec.nd(), ModeSpec.beta_nd(2.0)):
        rep, ref = brute_force(inst, spec), brute_force(cov, spec)
        assert rep.best.members == ref.best.members
        assert rep.best.utility == pytest.approx(ref.best.utility, abs=1e-12)
        assert rep.opt_reference == pytest.approx(ref.opt_reference, abs=1e-12)


def _relabel(inst, perm):
    """The instance whose agent k is inst's agent perm[k]."""
    r = inst.reward
    if r.kind == "additive":
        reward = Additive(r.weights[perm])
    elif r.kind == "capped_additive":
        reward = CappedAdditive(r.weights[perm], r.cap)
    else:
        reward = Coverage(r.element_weights, [r.covers[k] for k in perm])
    return Instance(inst.n, inst.costs[perm], reward)


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["additive", "coverage", "capped_additive"]),
    seed=st.integers(0, 10_000),
    data=st.data(),
)
def test_relabelling_agents_permutes_the_optimum(kind, seed, data):
    n = data.draw(st.integers(1, 10))
    perm = data.draw(st.permutations(range(n)))
    inst = gen_random(kind, n, seed=seed)
    moved = _relabel(inst, perm)
    for spec in (ModeSpec.unconstrained(), ModeSpec.nd(), ModeSpec.beta_nd(1.5),
                 ModeSpec.beta_nd(4.0)):
        best, other = brute_force(inst, spec).best, brute_force(moved, spec).best
        assert other.utility == pytest.approx(best.utility, abs=1e-12)
        if other.members != as_mask([k for k in range(n) if best.members >> perm[k] & 1], n):
            # the optimum is not unique: the relabelled winner is another
            # optimal set of the original instance
            back = as_mask([perm[k] for k in mask_to_indices(other.members)], n)
            assert back != best.members
            tie = optimal_contract_for_set(inst, back, spec).utility
            assert tie == pytest.approx(best.utility, abs=1e-12)


# ---------------------------------------------------------------------------
# log partition

def test_log_partition_group_sizes_seven():
    inst = gen_random("additive", 7, seed=4)
    part = log_partition(inst, (1 << 7) - 1)
    assert [g.bit_count() for g in part.groups] == [1, 2, 4]


def test_log_partition_group_sizes_five():
    inst = gen_random("additive", 5, seed=4)
    part = log_partition(inst, (1 << 5) - 1)
    assert [g.bit_count() for g in part.groups] == [1, 2, 2]


def test_log_partition_orders_by_descending_payment():
    inst = gen_random("additive", 7, seed=8)
    base = (1 << 7) - 1
    part = log_partition(inst, base)
    from fairpay.contracts import indifference_payment

    group_alpha = [
        max(indifference_payment(inst, i, base) for i in mask_to_indices(g))
        for g in part.groups
    ]
    assert all(a >= b - 1e-12 for a, b in zip(group_alpha, group_alpha[1:]))


def test_log_partition_geometric_guarantee():
    inst = gen_geometric_family(3, 3)
    base = brute_force(inst, ModeSpec.unconstrained()).best
    part = log_partition(inst, base.members)
    assert part.best().utility >= base.utility / 3 - 1e-9


# the random kinds verify_bounds draws its lemma2 and lemma6 pools from
_pool_instances = st.builds(
    gen_random,
    st.sampled_from(["additive", "coverage", "capped_additive"]),
    st.integers(2, 12),
    st.integers(0, 2**31 - 1),
)


@settings(max_examples=100, deadline=None)
@given(inst=_pool_instances)
def test_log_partition_guarantee_random_pool(inst):
    """The best uniform-pay group reaches base / guarantee_denominator,
    within verify_bounds' slack of 1e-9, and is an equilibrium."""
    base = brute_force(inst, ModeSpec.unconstrained()).best
    part = log_partition(inst, base.members)
    best = part.best()
    assert best.utility >= base.utility / part.guarantee_denominator - 1e-9
    assert is_equilibrium(inst, best.payments, best.members)


def test_log_partition_partitions_base():
    inst = gen_random("capped_additive", 9, seed=6)
    base = brute_force(inst, ModeSpec.unconstrained()).best.members
    part = log_partition(inst, base)
    combined = 0
    for g in part.groups:
        assert combined & g == 0
        combined |= g
    assert combined == base


def test_log_partition_rejects_bad_base():
    inst = gen_random("additive", 5, seed=4)
    with pytest.raises(EmptySetError):
        log_partition(inst, 0)
    infeasible = Instance(2, np.array([0.9, 0.9]), Additive([0.4, 0.4]))
    with pytest.raises(ParameterError, match=r"^base set is not feasible under "
                       r"unconstrained payments \(payment-above-one\)$"):
        log_partition(infeasible, 0b11)
    idle = Instance(2, np.array([0.1, 0.1]), Additive([0.4, 0.0]))
    with pytest.raises(ParameterError, match=r"^base set is not feasible under "
                       r"unconstrained payments \(zero-marginal\)$"):
        delta_partition(idle, 0b11, 0.5)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [3, 10])
def test_a_payment_that_overflows_is_infeasible_without_a_warning(n):
    """Agent 0's cost 1e308 over a marginal below 1 overflows to an inf
    payment: every set holding it is infeasible, and numpy stays quiet."""
    weights = np.full(n, 0.8 / n) if n > 3 else np.array([0.2, 0.3, 0.3])
    costs = np.full(n, 0.3 / n)  # 0.1 at n = 3
    costs[0] = 1e308
    inst = Instance(n, costs, Additive(weights))
    for spec in (ModeSpec.unconstrained(), ModeSpec.nd(), ModeSpec.beta_nd(2.0)):
        rep = brute_force(inst, spec)
        assert rep.best.members and not rep.best.members & 1
        out = optimal_contract_for_set(inst, 0b11, spec)
        assert not out.feasible and out.infeasibility_reason == "payment-above-one"
    with pytest.raises(ParameterError, match=r"\(payment-above-one\)$"):
        log_partition(inst, 0b11)


# ---------------------------------------------------------------------------
# delta partition

def _instance_with_alphas(alphas):
    # equal weights, costs tuned so that in-base payments equal the targets
    n = len(alphas)
    w = 1.0 / n
    return Instance(n, np.array([a * w for a in alphas]), Additive([w] * n))


def test_delta_partition_thresholds_n16():
    # delta = 0.5, n = 16 -> t = 2; bands [0,1/16), [1/16,1/4), [1/4,1)
    alphas = [0.01, 0.05, 0.0624, 0.0626, 0.2, 0.2499, 0.2501, 0.5] + [0.03] * 8
    inst = _instance_with_alphas(alphas)
    part = delta_partition(inst, (1 << 16) - 1, 0.5)
    assert part.guarantee_denominator == 3
    assert len(part.groups) == 3
    by_agent = {}
    for g_index, g in enumerate(part.groups):
        for i in mask_to_indices(g):
            by_agent[i] = g_index
    assert by_agent[0] == by_agent[1] == by_agent[2] == 0  # below 1/16
    assert by_agent[3] == by_agent[4] == by_agent[5] == 1  # up to 1/4
    assert by_agent[6] == by_agent[7] == 2
    assert all(by_agent[i] == 0 for i in range(8, 16))


def test_delta_partition_delta_one_two_groups():
    inst = gen_random("additive", 8, seed=10)
    base = brute_force(inst, ModeSpec.unconstrained()).best.members
    part = delta_partition(inst, base, 1.0)
    assert part.guarantee_denominator == 2
    assert len(part.groups) <= 2


def test_delta_partition_rejects_bad_delta():
    inst = gen_random("additive", 5, seed=4)
    base = brute_force(inst, ModeSpec.unconstrained()).best.members
    for bad in (0.0, -0.5, 1.5, math.nan, 5e-324):  # 1/5e-324 overflows
        with pytest.raises(ParameterError, match="delta must lie in"):
            delta_partition(inst, base, bad)


def _scan_bands(alphas, n, delta):
    """delta_partition's groups as a scan over all t + 1 band edges found
    them, in O(t) memory and O(|base| t) time, kept as the reference."""
    t = math.ceil(1.0 / delta)
    uppers = [1.0 / n] + [n ** (-(t + 1 - j) * delta) for j in range(2, t + 2)]
    buckets = [[] for _ in range(t + 1)]
    for i in sorted(alphas):
        for g, upper in enumerate(uppers):
            if alphas[i] < upper:
                buckets[g].append(i)
                break
        else:
            buckets[-1].append(i)
    return [as_mask(b, n) for b in buckets if b]


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 64),
    delta=st.one_of(st.sampled_from([1.0, 0.5, 1 / 3, 0.3, 0.1]), st.floats(1e-3, 1.0)),
    data=st.data(),
)
def test_delta_partition_bands_match_a_scan_over_every_edge(n, delta, data):
    """In-base payments drawn at every band edge, one ulp either side of
    it, at 1/n, at and above 1, and in between land in the scan's groups."""
    t = math.ceil(1.0 / delta)
    edges = [1.0 / n] + [n ** (-(t - g) * delta) for g in range(1, t + 1)]
    near = [0.0, 1.0 + COMPARE_TOL] + [x for e in edges for x in
                                       (e, math.nextafter(e, 0.0), math.nextafter(e, 2.0))]
    payment = st.one_of(st.sampled_from(near), st.floats(0.0, 1.0))
    alphas = {i: data.draw(payment) for i in range(n)}
    inst = gen_random("additive", n, seed=n)
    with mock.patch("fairpay.solvers._base_alphas", return_value=((1 << n) - 1, alphas)):
        part = delta_partition(inst, (1 << n) - 1, delta)
    assert part.groups == _scan_bands(alphas, n, delta)
    assert part.guarantee_denominator == t + 1


def test_delta_partition_tiny_delta_is_fast():
    """t = 10^12 bands above 1/n: each member's band costs O(log t)
    powers and only the nonempty buckets are held."""
    inst = gen_random("additive", 64, seed=3)
    start = time.perf_counter()
    part = delta_partition(inst, (1 << 64) - 1, 1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"delta_partition took {elapsed:.2f} s at delta = 1e-12"
    assert part.guarantee_denominator == 10**12 + 1
    assert sum(part.groups) == (1 << 64) - 1 and len(part.groups) <= 64


@settings(max_examples=100, deadline=None)
@given(inst=_pool_instances)
def test_delta_partition_guarantee_random_pool(inst):
    """The best threshold group reaches (base - n^-delta) / (t + 1) for
    delta in {0.5, 1}, within verify_bounds' slack of 1e-9, and is an
    equilibrium."""
    base = brute_force(inst, ModeSpec.unconstrained()).best
    for delta in (0.5, 1.0):
        part = delta_partition(inst, base.members, delta)
        best = part.best()
        assert part.guarantee_denominator == math.ceil(1 / delta) + 1
        assert best.utility >= (base.utility - inst.n**-delta) / part.guarantee_denominator - 1e-9
        assert is_equilibrium(inst, best.payments, best.members)


# ---------------------------------------------------------------------------
# symmetric fast path

def test_symmetric_solve_lemma8_values():
    inst = gen_two_class("lemma8", 200, epsilon=0.1, M=14.0, delta=0.5)
    rep = symmetric_solve(inst, ModeSpec.beta_nd(200**0.5))
    # best is the special agent alone, paid 1/M, leaving (1 - 1/14) * 1/2
    assert rep.best.member_list() == [0]
    assert rep.best.utility == pytest.approx((1 - 1 / 14) / 2, abs=1e-12)
    assert rep.opt_reference == pytest.approx(1 - 1 / 14 - 0.1, abs=1e-9)


def test_symmetric_solve_lemma9_values():
    n = 10_000
    inst = gen_two_class("lemma9", n, epsilon=1e-6)
    rep = symmetric_solve(inst, ModeSpec.beta_nd(float(n)))
    members = rep.best.member_list()
    assert members[0] == 0 and len(members) - 1 in (n // 2, n // 2 + 1)
    expected = (10 - R2) / 32 + (3 * R2 - 2) / (32 * (n - 1))
    assert rep.best.utility == pytest.approx(expected, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(inst=_two_class_instances(max_count=13), beta=st.floats(1.0, 1e4))
def test_symmetric_solve_matches_brute_force(inst, beta):
    """Exact on two-class instances with forced ties, in every mode, and
    the winner is an equilibrium."""
    for spec in _specs(inst.n, beta):
        fast = symmetric_solve(inst, spec)
        slow = brute_force(inst, spec)
        assert fast.best.utility == pytest.approx(slow.best.utility, abs=1e-12)
        assert is_equilibrium(inst, fast.best.payments, fast.best.members)


def test_symmetric_solve_breaks_equal_size_ties_toward_the_earlier_run():
    # the special agent is like the others: every pair pays 0.25 each and
    # leaves exactly 0.125, so {0, 1} (the special agent's block) ties
    # {1, 2} (the identical agents' block), and the smaller mask wins
    inst = Instance(8, np.full(8, 0.03125), SymmetricTwoClass(0.125, 0.125, 7))
    for spec in _MODES:
        fast, slow = symmetric_solve(inst, spec), brute_force(inst, spec)
        assert fast.best.members == slow.best.members == 0b11
        assert fast.best.utility == slow.best.utility == 0.125


def test_symmetric_solve_structure_errors():
    plain = gen_random("additive", 4, seed=1)
    with pytest.raises(StructureError):
        symmetric_solve(plain, ModeSpec.nd())
    uneven = Instance(
        3, np.array([0.1, 0.02, 0.03]), SymmetricTwoClass(0.5, 0.1, 2)
    )
    with pytest.raises(StructureError):
        symmetric_solve(uneven, ModeSpec.nd())


@settings(max_examples=40, deadline=None)
@given(inst=_two_class_instances(), beta=st.floats(1.0, 1e4))
@example(inst=gen_two_class("lemma9", 1000, epsilon=1e-6), beta=2.0)
def test_symmetric_solve_reads_an_additive_reward_by_its_numbers(inst, beta):
    """An Additive with a two-class reward's weights is solved as the
    SymmetricTwoClass is: the same members and candidates examined, and
    the utility within 1e-12, in every regime."""
    plain = Instance(inst.n, inst.costs, Additive(inst.reward.weights))
    for spec in _specs(inst.n, beta):
        got, want = symmetric_solve(plain, spec), symmetric_solve(inst, spec)
        assert got.best.members == want.best.members
        assert got.candidates_examined == want.candidates_examined
        assert abs(got.best.utility - want.best.utility) <= 1e-12


# ---------------------------------------------------------------------------
# two agents

def test_two_agent_bound_values():
    assert two_agent_bound(3.0) == pytest.approx(1.5)
    assert two_agent_bound(1.0) == pytest.approx(1 + 1 / R2)
    assert two_agent_bound(1e12) == pytest.approx(1.0, abs=1e-5)
    for bad in (0.5, math.nan, math.inf):  # nan fails beta >= 1 as it fails beta < 1
        with pytest.raises(ParameterError, match="beta >= 1"):
            two_agent_bound(bad)


def test_two_agent_solve_tight_instances():
    for beta in (1.0, 2.0, 3.0, 8.0, 15.0):
        inst = gen_two_agent_tight(beta, epsilon=1e-6)
        rep = two_agent_solve(inst, beta)
        ratio = rep.opt_reference / rep.best.utility
        assert ratio == pytest.approx(two_agent_bound(beta), abs=1e-3)


def test_two_agent_solve_tight_beta3_exact():
    inst = gen_two_agent_tight(3.0, epsilon=1e-6)
    rep = two_agent_solve(inst, 3.0)
    assert rep.best.utility == pytest.approx(0.25, abs=1e-7)
    assert rep.opt_reference == pytest.approx(3 / 8 - 1e-6 * 3 / 4, abs=1e-9)


def test_two_agent_solve_inactive_constraint():
    # equal agents: unconstrained payments already satisfy any ratio
    inst = Instance(2, np.array([0.1, 0.1]), Additive([0.4, 0.4]))
    rep = two_agent_solve(inst, 1.0)
    assert rep.opt_reference / rep.best.utility == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    beta=st.one_of(st.sampled_from([1.0, 2.0, 4.0]), st.floats(1.0, 1e4)),
)
def test_two_agent_solve_matches_brute_force(seed, beta):
    """The same sets, utilities and references, bit for bit, in every mode."""
    inst = random_two_agent_instance(np.random.default_rng(seed))
    for spec in (ModeSpec.unconstrained(), ModeSpec.nd(), ModeSpec.beta_nd(beta)):
        fast = _two_agent(inst, spec)
        assert _report_bytes(fast) == _report_bytes(brute_force(inst, spec))
        assert (fast.method, fast.spec) == ("two_agent", spec)
    assert two_agent_solve(inst, beta).method == "two_agent"


def test_two_agent_solve_breaks_the_tight_tie_as_brute_force_does():
    """At beta = 2, {0} and {0, 1} tie in exact arithmetic, and agent 0's
    table marginal in {0, 1} is one bit below its weight."""
    inst = gen_two_agent_tight(2.0)
    for rep in (two_agent_solve(inst, 2.0), brute_force(inst, ModeSpec.beta_nd(2.0))):
        assert rep.best.members == 0b01
        assert rep.best.utility == 0.2886751345948129


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    beta=st.one_of(st.sampled_from([1.0, 2.0, 4.0]), st.floats(1.0, 1e4)),
    epsilon=st.one_of(st.just(1e-6), st.floats(1e-12, 0.5)),
)
def test_two_agent_winners_are_equilibria(seed, beta, epsilon):
    """On random two-agent instances and on the tight family at its beta."""
    random_inst = random_two_agent_instance(np.random.default_rng(seed))
    for inst in (random_inst, gen_two_agent_tight(beta, epsilon)):
        best = two_agent_solve(inst, beta).best
        assert is_equilibrium(inst, best.payments, best.members)


def test_two_agent_tie_goes_to_the_smaller_mask():
    # the singletons tie and the pair is unaffordable: agent 0 alone wins,
    # as it does in brute force
    inst = Instance(2, [0.1, 0.1], ExplicitTable(2, [0.0, 0.5, 0.5, 0.6]))
    for spec in (ModeSpec.unconstrained(), ModeSpec.nd(), ModeSpec.beta_nd(2.0)):
        rep = solve_with(inst, spec, "two_agent")
        assert rep.best.members == brute_force(inst, spec).best.members == 0b01
        assert rep.spec == spec
    assert two_agent_solve(inst, 2.0).best.members == 0b01


def test_two_agent_solve_requires_two_agents():
    with pytest.raises(SizeLimitError):
        two_agent_solve(gen_random("additive", 3, seed=1), 2.0)
