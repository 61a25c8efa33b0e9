"""symmetric_solve and geometric_solve, which share one class evaluator,
against the per-candidate loops and the array scorer it replaced,
geometric_solve's shape check, and the large-n scaling gates.

The two loop versions below are kept as references: each builds every
candidate's bitmask as a Python int and folds it in with _better, the
pairwise comparison the solvers used before their one sort key.  The
geometric loop takes its groups from metadata["m"], as geometric_solve
once did.  _array_class_solve is the class evaluator as it was before it
picked each block's count in closed form: it scores every count of every
block as a numpy array.  The evaluator must pick the same winners as all
three, so every report matches exactly: members, utility, payment bytes,
opt_reference and candidates_examined.  _best_count's bar, which lets
the scan skip a block, is checked against the unpruned count, and the
blocks a geometric solve scores are counted.  The shape check reads no
metadata: it passes the family with any cost scale, metadata or none,
and rejects doubling runs off the family that claim it.
"""

import itertools
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
    Instance,
    ModeSpec,
    is_equilibrium,
    optimal_contract_for_set,
)
from fairpay.families import gen_geometric_family, gen_two_class
from fairpay.errors import StructureError
from fairpay.rewards import Additive, SymmetricTwoClass
from fairpay import solvers
from fairpay.solvers import (
    ULP8,
    SolveReport,
    _argbest,
    _best_count,
    _class_solve,
    _rank,
    geometric_solve,
    symmetric_solve,
)

R2 = math.sqrt(2.0)


def _better(key_a, key_b) -> bool:
    """Lexicographic tie-break: higher utility, fewer members, smaller mask."""
    ua, pa, ma = key_a
    ub, pb, mb = key_b
    if ua != ub:
        return ua > ub
    if pa != pb:
        return pa < pb
    return ma < mb


def _two_class_scan_loop(f_a, f_b, count_b, c_a, c_b, mode, beta):
    alpha_a = c_a / f_a if f_a > MARGINAL_TOL else 2.0
    alpha_b = c_b / f_b if f_b > MARGINAL_TOL else 2.0
    t = np.arange(count_b + 1, dtype=float)
    best = (0.0, 0, 0)
    for a_in in (0, 1):
        if a_in:
            top = np.where(t > 0, max(alpha_a, alpha_b), alpha_a)
        else:
            top = np.where(t > 0, alpha_b, 0.0)
        if mode == "unconstrained":
            pay = a_in * alpha_a + t * alpha_b
        elif mode == "nd":
            pay = (a_in + t) * top
        else:
            pay = a_in * np.maximum(alpha_a, top / beta) + t * np.maximum(
                alpha_b, top / beta
            )
        value = a_in * f_a + t * f_b
        util = np.where(top <= 1 + COMPARE_TOL, (1.0 - pay) * value, -np.inf)
        if not a_in:
            util[0] = 0.0
        for tt in range(count_b + 1):
            if not np.isfinite(util[tt]):
                continue
            mask = a_in | (((1 << tt) - 1) << 1)
            key = (float(util[tt]), a_in + tt, mask)
            if _better(key, best):
                best = key
    return best


def _geometric_solve_loop(inst, spec):
    m = int(inst.metadata["m"])
    sizes = [1 << k for k in range(m)]
    starts = [(1 << k) - 1 for k in range(m)]
    weights = inst.reward.weights
    group_w = [float(weights[starts[g]]) for g in range(m)]
    group_alpha = [float(inst.costs[starts[g]] / weights[starts[g]]) for g in range(m)]
    best = (0.0, 0, 0)
    ref = (0.0, 0, 0)
    examined = 1
    for L in range(m):
        alpha_top = group_alpha[L]
        feasible = alpha_top <= 1 + 1e-9
        if spec.mode == "beta_nd":
            floor = alpha_top / spec.beta
        run_mask = 0
        run_count = 0
        run_value = 0.0
        run_pay_unc = 0.0
        run_pay_cons = 0.0
        for j in range(L, m):
            pay_j_unc = group_alpha[j]
            if spec.mode == "unconstrained":
                pay_j = pay_j_unc
            elif spec.mode == "nd":
                pay_j = alpha_top
            else:
                pay_j = max(pay_j_unc, floor)
            for p in range(1, sizes[j] + 1):
                examined += 1
                if not feasible:
                    continue
                count = run_count + p
                value = run_value + p * group_w[j]
                pay_unc = run_pay_unc + p * pay_j_unc
                pay = pay_unc if spec.mode == "unconstrained" else run_pay_cons + p * pay_j
                mask = run_mask | (((1 << p) - 1) << starts[j])
                key_ref = ((1.0 - pay_unc) * value, count, mask)
                if _better(key_ref, ref):
                    ref = key_ref
                key = ((1.0 - pay) * value, count, mask)
                if _better(key, best):
                    best = key
            run_mask |= ((1 << sizes[j]) - 1) << starts[j]
            run_count += sizes[j]
            run_value += sizes[j] * group_w[j]
            run_pay_unc += sizes[j] * pay_j_unc
            run_pay_cons += sizes[j] * pay_j
    out = optimal_contract_for_set(inst, best[2], spec)
    ref_out = optimal_contract_for_set(inst, ref[2], ModeSpec.unconstrained())
    return SolveReport(spec, out, "geometric", examined, ref_out.utility)


def _array_class_solve(inst, spec, method, sizes, weights, costs) -> SolveReport:
    starts = [0, *itertools.accumulate(sizes)]
    rates = [c / w if w > MARGINAL_TOL else math.inf for w, c in zip(weights, costs)]
    beta = {"unconstrained": math.inf, "nd": 1.0}.get(spec.mode, spec.beta)

    def block_winner(util, L, j):
        k = _argbest(util)
        return _rank(float(util[k]), (1 << (starts[j] + k + 1)) - (1 << starts[L]))

    best = ref = _rank(0.0, 0)
    for L in range(len(sizes)):
        top = value = pay_unc = 0.0
        for j in range(L, len(sizes)):
            top = max(top, rates[j])
            if top > 1 + COMPARE_TOL:
                break
            floor = top / beta
            pay = 0.0
            for g in range(L, j):
                pay += sizes[g] * max(rates[g], floor)
            p = np.arange(1, sizes[j] + 1, dtype=float)
            val = value + p * weights[j]
            ref = min(ref, block_winner((1.0 - (pay_unc + p * rates[j])) * val, L, j))
            best = min(best, block_winner((1.0 - (pay + p * max(rates[j], floor))) * val, L, j))
            value += sizes[j] * weights[j]
            pay_unc += sizes[j] * rates[j]
    examined = 1 + sum((j + 1) * size for j, size in enumerate(sizes))
    out = optimal_contract_for_set(inst, best[2], spec)
    ref_out = optimal_contract_for_set(inst, ref[2], ModeSpec.unconstrained())
    return SolveReport(spec, out, method, examined, ref_out.utility)


def _assert_same_report(got, want):
    assert got.best.members == want.best.members
    assert got.best.utility == want.best.utility
    assert got.best.payments.payments.tobytes() == want.best.payments.payments.tobytes()
    assert got.opt_reference == want.opt_reference
    assert got.candidates_examined == want.candidates_examined
    assert got.method == want.method


def _specs(n, beta):
    return (ModeSpec.unconstrained(), ModeSpec.nd(), ModeSpec.beta_nd(1.0),
            ModeSpec.beta_nd(beta), ModeSpec.beta_nd(float(n)))


@st.composite
def _two_class_instances(draw, max_count=500):
    """Two-class instances with forced ties: a zero-marginal crowd
    (f_b = 0) or special agent (f_a = 0), equal indifference rates, and
    rates of exactly 1, where a set's utility ties the empty set's 0.
    The crowd has at most max_count agents."""
    count_b = draw(st.one_of(st.integers(1, 12), st.integers(13, max_count)))
    tie = draw(st.sampled_from(["none", "f_b=0", "f_a=0", "equal-alphas", "rate-one"]))
    f_b = 0.0 if tie == "f_b=0" else draw(st.floats(1e-6, 1.0)) / count_b
    f_a = 0.0 if tie == "f_a=0" else draw(st.floats(0.0, 1.0)) * (1.0 - count_b * f_b)
    rate_b = draw(st.floats(0.001, 1.5))
    rate_a = draw(st.floats(0.001, 1.5))
    if tie == "equal-alphas":
        rate_a = rate_b
    elif tie == "rate-one":
        rate_a = rate_b = 1.0
    costs = np.full(count_b + 1, max(rate_b * f_b, 1e-9))
    costs[0] = max(rate_a * f_a, 1e-9)
    return Instance(count_b + 1, costs, SymmetricTwoClass(f_a, f_b, count_b))


def _symmetric_solve_loop(inst, spec):
    r = inst.reward
    args = (r.f_a, r.f_b, r.count_b, float(inst.costs[0]), float(inst.costs[1]))
    best_key = _two_class_scan_loop(*args, spec.mode, spec.beta)
    ref_key = _two_class_scan_loop(*args, "unconstrained", None)
    best = optimal_contract_for_set(inst, best_key[2], spec)
    ref = optimal_contract_for_set(inst, ref_key[2], ModeSpec.unconstrained())
    return SolveReport(spec, best, "symmetric", 2 * (r.count_b + 1), ref.utility)


@settings(max_examples=100, deadline=None)
@given(inst=_two_class_instances(), beta=st.floats(1.0, 1e4))
def test_two_class_scan_matches_loop(inst, beta):
    for spec in _specs(inst.n, beta):
        _assert_same_report(symmetric_solve(inst, spec), _symmetric_solve_loop(inst, spec))


def test_symmetric_solve_matches_loop_on_the_lemma_families():
    for n in (1000, 4000):
        insts = [
            gen_two_class("lemma9", n, epsilon=1e-6),
            gen_two_class("lemma8", n, epsilon=0.05, M=25.0, delta=0.2),
        ]
        for inst in insts:
            for spec in _specs(n, n**0.5):
                _assert_same_report(symmetric_solve(inst, spec), _symmetric_solve_loop(inst, spec))


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 9),
    T=st.floats(2.0, 50.0),
    cost_scale=st.sampled_from([1.0, 1.0, 7.0, 300.0, "rate-one"]),
    beta=st.floats(1.0, 1e4),
)
def test_geometric_solve_matches_loop(m, T, cost_scale, beta):
    """Scaled costs make the leading groups unaffordable (the scan skips
    them).  Costs equal to weights, which put every rate at exactly 1,
    leave the family for m > 1 (c_k 4^k = 2^k / m is not c_0), so the
    gate rejects them; the ties with the empty set that they made are
    drawn by _class_lists' "one" classes."""
    inst = gen_geometric_family(m, T)
    if cost_scale == "rate-one":
        costs = np.array(inst.reward.weights)
    else:
        costs = inst.costs * cost_scale
    inst = Instance(inst.n, costs, inst.reward, inst.metadata)
    if cost_scale == "rate-one" and m > 1:
        with pytest.raises(StructureError, match="geometric family's runs"):
            geometric_solve(inst, ModeSpec.nd())
        return
    for spec in _specs(inst.n, beta):
        _assert_same_report(geometric_solve(inst, spec), _geometric_solve_loop(inst, spec))


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(1, 20),
    T=st.floats(2.0, 1e6),
    cost_scale=st.floats(1e-3, 1e3),
    metadata=st.booleans(),
)
def test_geometric_gate_accepts_the_family(m, T, cost_scale, metadata):
    """gen_geometric_family(m, T), with any cost scale and with or without
    its metadata, passes the shape check: the runs reach the class scan,
    stubbed here so that only the gate runs at every m."""
    inst = gen_geometric_family(m, T)
    inst = Instance(inst.n, inst.costs * cost_scale, inst.reward,
                    inst.metadata if metadata else None)
    with mock.patch.object(solvers, "_class_solve", return_value="scanned") as scan:
        assert geometric_solve(inst, ModeSpec.nd()) == "scanned"
    *_, sizes, weights, costs = scan.call_args.args
    assert sizes == [1 << k for k in range(m)]
    assert weights == [1.0 / (m * s) for s in sizes]
    assert costs == (inst.costs[np.array(sizes) - 1]).tolist()


@st.composite
def _doubling_runs_off_the_family(draw):
    """Additive instances of m = 2..4 runs of sizes 1, 2, 4, ... that
    claim the geometric family in their metadata but lie outside it:
    the family's weights or random ones, with the family's costs c_0 /
    4^k or random rates, but not both from the family."""
    m = draw(st.integers(2, 4))
    sizes = [1 << k for k in range(m)]
    weights = family_weights = [1.0 / (m * s) for s in sizes]
    if draw(st.booleans()):
        shares = draw(st.lists(st.floats(0.1, 1.0), min_size=m, max_size=m))
        weights = [share / sum(shares) / s for share, s in zip(shares, sizes)]
    if draw(st.booleans()):
        costs = [draw(st.floats(0.01, 1.2)) * w for w in weights]
    else:
        costs = [draw(st.floats(0.001, 0.1)) / s**2 for s in sizes]
    # only a coincidence lands a draw in the family, or gives two adjacent
    # runs one (weight, cost), which merges them into one run of another size
    assume(weights != family_weights or any(c * s**2 != costs[0] for c, s in zip(costs, sizes)))
    runs = list(zip(weights, costs))
    assume(all(run != later for run, later in zip(runs, runs[1:])))
    metadata = gen_geometric_family(m, 3.0).metadata
    return Instance((1 << m) - 1, np.repeat(costs, sizes), Additive(np.repeat(weights, sizes)),
                    metadata)


@settings(max_examples=100, deadline=None)
@given(inst=_doubling_runs_off_the_family())
def test_geometric_gate_rejects_doubling_runs_off_the_family(inst):
    with pytest.raises(StructureError, match="geometric family's runs"):
        geometric_solve(inst, ModeSpec.nd())


@st.composite
def _class_lists(draw):
    """k = 1..8 classes (sizes, per-agent weights, costs) of an additive
    reward whose weights total under 1.

    Each class's rate c / w is random, exactly 1, shared by every "shared"
    class, above 1 + COMPARE_TOL, or set by a cost as small as Instance
    allows (subnormal included), and its weight may sit at or below
    MARGINAL_TOL.  A "flat" class j > 0 has a weight just above
    MARGINAL_TOL after a class j - 1 that holds most of the value at an
    affordable rate, and its rate puts the vertex of unconstrained block
    (j - 1, j) at a drawn count.  There the utility is flat within
    rounding over several counts.
    """
    k = draw(st.integers(1, 8))
    sizes = draw(st.lists(st.one_of(st.integers(1, 12), st.integers(13, 3000)),
                          min_size=k, max_size=k))
    kinds = draw(st.lists(st.sampled_from(["random", "one", "shared", "above", "tiny", "flat"]),
                          min_size=k, max_size=k))
    flat = [j for j in range(1, k) if kinds[j] == "flat"]
    shares = draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k))
    for j in flat:
        shares[j - 1] = 100.0
    total = draw(st.floats(0.5, 0.99))
    shared = draw(st.floats(0.001, 1.0))
    weights = [total * share / sum(shares) / size for share, size in zip(shares, sizes)]
    for j in range(k):
        if j in flat:
            weights[j] = MARGINAL_TOL * draw(st.floats(1.01, 2.0))
        elif j + 1 not in flat:
            weights[j] = draw(st.sampled_from([weights[j]] * 4 + [MARGINAL_TOL, MARGINAL_TOL / 3, 0.0]))
    costs = []
    for j, (size, kind, w) in enumerate(zip(sizes, kinds, weights)):
        if j + 1 in flat:
            cost = draw(st.floats(0.001, 0.9)) / size * w
        elif kind in ("random", "flat") and j not in flat:
            cost = draw(st.floats(0.001, 1.5)) / size * w  # the whole class is paid 0.001 to 1.5
        elif kind == "one":
            cost = w
        elif kind == "shared":
            cost = shared * w
        elif kind == "above":
            cost = draw(st.floats(1 + 2 * COMPARE_TOL, 2.0)) * w
        elif kind == "tiny":
            cost = draw(st.one_of(st.just(5e-324), st.floats(5e-324, 1e-290),
                                  st.floats(1e-20, 1e-12).map(lambda r: r * w)))
        else:
            pay = sizes[j - 1] * (costs[j - 1] / weights[j - 1])
            value = sizes[j - 1] * weights[j - 1]
            cost = max(1.0 - pay, 0.0) / (value / w + 2 * draw(st.integers(1, size))) * w
        costs.append(max(cost, 5e-324))
    return sizes, weights, costs


@settings(max_examples=150, deadline=None)
@given(classes=_class_lists(), beta=st.floats(1.0, 1e4))
@example(  # flat block (3, 4): its first float maximum is 2 counts off the vertex
    classes=([1, 1, 1, 1, 3], [0.004807692307692308] * 3 + [0.4807692307692308, 2e-09],
             [0.004807692307692308] * 3 + [0.2403846153846154, 4.159999896166403e-18]),
    beta=1.0,
)
@example(  # an exact tie across blocks: block (0, 1) reaches 0.25 with 5 members, (1, 1) with 4
    classes=([2, 6], [0.0625, 0.125], [0.00390625, 0.015625]),
    beta=1.0,
)
def test_class_solve_matches_the_array_scorer(classes, beta):
    sizes, weights, costs = classes
    inst = Instance(sum(sizes), np.repeat(costs, sizes), Additive(np.repeat(weights, sizes)))
    for spec in (ModeSpec.unconstrained(), ModeSpec.nd(), ModeSpec.beta_nd(beta)):
        args = (inst, spec, "classes", sizes, weights, costs)
        _assert_same_report(_class_solve(*args), _array_class_solve(*args))


@st.composite
def _blocks(draw):
    """_best_count's block parameters (base, rate, value, weight, size).

    The rate may be 0 (q = 0), subnormal or up to 1.5.  A "flat" block
    has a weight just above MARGINAL_TOL beside a value that holds most
    of the reward, and a rate that puts the vertex at a drawn count, 0
    and size + 1 included: its utility is flat within rounding over
    several counts, so the float maximum may sit off the vertex and the
    vertex may round to the wrong side of an end.
    """
    size = draw(st.one_of(st.integers(1, 12), st.integers(13, 3000)))
    base = draw(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 3.0)))
    if draw(st.booleans()):  # flat
        weight = MARGINAL_TOL * draw(st.floats(1.01, 2.0))
        value = draw(st.floats(0.3, 1.0))
        base = min(base, draw(st.floats(0.0, 0.9)))
        vertex = draw(st.integers(0, size + 1))
        return base, weight * (1.0 - base) / (value + 2 * weight * vertex), value, weight, size
    weight = draw(st.floats(MARGINAL_TOL * 1.01, 1.0)) / size
    value = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
    rate = draw(st.one_of(st.just(0.0), st.floats(5e-324, 2.2e-308), st.floats(0.0, 1.5)))
    return base, rate, value, weight, size


@settings(max_examples=300, deadline=None)
@given(block=_blocks(), shift=st.sampled_from([0, 1, -1, 2, -2, 8, -8]))
# block (1, 1) of the classes in test_class_solve_matches_the_array_scorer's
# tie example: the bar 0.25 is block (0, 1)'s best, 5 members, and this
# block ties it exactly with 4, so it must be scored to win
@example(block=(0.0, 0.125, 0.0, 0.125, 6), shift=0)
def test_best_count_skips_only_blocks_below_the_bar(block, shift):
    """The bar is the unpruned utility, 1 ulp either side of it (shift
    +-1), or eps (shift +-2) or 4 eps (shift +-8) either side, eps being
    _best_count's rounding bound and 4 eps its slack at an end."""
    base, rate, value, weight, size = block
    full = _best_count(base, rate, value, weight, size, -math.inf)
    util = full[1]
    eps = ULP8 * (value + size * weight) * (1.0 + base + size * rate)
    if abs(shift) == 1:
        bar = math.nextafter(util, shift * math.inf)
    else:
        bar = util + shift / 2 * eps
    got = _best_count(base, rate, value, weight, size, bar)
    assert got == full or (got is None and util < bar)


@pytest.mark.parametrize("T", [2.0, 3.0, 10.0])
def test_class_scan_scores_about_two_blocks_per_group(T, monkeypatch):
    """On the geometric family only the blocks of the first row can win,
    and the bar skips the rest: a solve scores at most 3m of its m(m + 1)
    blocks (2m or 2m + 1 for m = 4..20), counted as two _reach calls per
    scored block."""
    calls = 0
    reach = solvers._reach

    def counted(*args):
        nonlocal calls
        calls += 1
        return reach(*args)

    monkeypatch.setattr(solvers, "_reach", counted)
    for m in range(4, 21):
        inst = gen_geometric_family(m, T)
        for spec in (ModeSpec.unconstrained(), ModeSpec.nd(), ModeSpec.beta_nd(math.sqrt(inst.n))):
            calls = 0
            geometric_solve(inst, spec)
            assert calls // 2 <= 3 * m, (m, spec)


def test_symmetric_solve_scales_linearly_to_a_million_agents():
    """ROADMAP item 3's gate: lemma9 at n = 10^6, beta = n, in under 1 s.

    The optimum is c07's closed form (10 - sqrt(2))/32 +
    (3 sqrt(2) - 2)/(32(n - 1)), whose O(1/n^2) remainder is far below
    1e-9 here, and the returned contract is an equilibrium.
    """
    n = 1_000_000
    inst = gen_two_class("lemma9", n, epsilon=1e-6)
    start = time.perf_counter()
    rep = symmetric_solve(inst, ModeSpec.beta_nd(float(n)))
    elapsed = time.perf_counter() - start
    target = (10 - R2) / 32 + (3 * R2 - 2) / (32 * (n - 1))
    assert elapsed < 1.0, f"symmetric_solve took {elapsed:.2f} s at n = 10^6"
    assert abs(rep.best.utility - target) <= 1e-9
    assert is_equilibrium(inst, rep.best.payments, rep.best.members)


def test_geometric_solve_scales_to_a_million_agents():
    """gen_geometric_family(20, T=3), n = 2^20 - 1, unconstrained, nd and
    beta = sqrt(n), in under 1 s in all.

    The unconstrained optimum is the full set's 1 - 1/T, and every
    returned contract is an equilibrium.
    """
    inst = gen_geometric_family(20, T=3)
    specs = (ModeSpec.unconstrained(), ModeSpec.nd(), ModeSpec.beta_nd(math.sqrt(inst.n)))
    start = time.perf_counter()
    reps = [geometric_solve(inst, spec) for spec in specs]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"geometric_solve took {elapsed:.2f} s at n = 2^20 - 1"
    assert abs(reps[0].best.utility - (1 - 1 / 3)) <= 1e-9
    for rep in reps:
        assert is_equilibrium(inst, rep.best.payments, rep.best.members)
