"""Contract engine tests: payments, utilities, equilibrium, best response."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fairpay.contracts import (
    COMPARE_TOL,
    Contract,
    Instance,
    ModeSpec,
    best_response_step,
    group_payment_nd,
    indifference_payment,
    is_equilibrium,
    optimal_contract_for_set,
)
from fairpay.errors import ContractLogicError, EmptySetError, ParameterError
from fairpay.experiments import random_two_agent_instance
from fairpay.families import gen_geometric_family, gen_random, gen_two_agent_tight
from fairpay.rewards import Additive, CappedAdditive, Coverage, SymmetricTwoClass, mask_to_indices
from fairpay.solvers import _base_alphas


@pytest.fixture
def pair():
    return Instance(2, np.array([0.1, 0.2]), Additive([0.5, 0.5]))


def test_instance_validation():
    with pytest.raises(ParameterError):
        Instance(2, np.array([0.1, 0.0]), Additive([0.5, 0.5]))  # zero cost
    with pytest.raises(ParameterError):
        Instance(3, np.array([0.1, 0.1]), Additive([0.3, 0.3, 0.3]))  # length
    for bad in (math.nan, math.inf):
        # a NaN cost passes "cost > 0" checks; it must not be dropped silently
        with pytest.raises(ParameterError, match="finite"):
            Instance(3, np.array([0.01, bad, 0.02]), Additive([0.3, 0.3, 0.3]))
    from fairpay.rewards import ExplicitTable

    with pytest.raises(ParameterError):
        # supermodular explicit table is rejected at instance level
        Instance(2, np.array([0.1, 0.1]), ExplicitTable(2, [0.0, 0.2, 0.2, 0.6]))


def test_indifference_payment(pair):
    assert indifference_payment(pair, 1, [0, 1]) == pytest.approx(0.4)  # 0.2 / 0.5
    with pytest.raises(ContractLogicError):
        indifference_payment(pair, 1, [0])


def test_indifference_payment_boundary():
    inst = Instance(1, np.array([0.6]), Additive([0.6]))
    assert indifference_payment(inst, 0, [0]) == pytest.approx(1.0)


def test_indifference_payment_capped():
    inst = Instance(2, np.array([0.1, 0.3]), CappedAdditive([0.7, 0.7], 1.0))
    assert indifference_payment(inst, 1, [0, 1]) == pytest.approx(1.0)  # 0.3 / 0.3


def test_indifference_payment_zero_marginal():
    # both agents cover the same element; inside the pair each marginal is 0
    inst = Instance(2, np.array([0.1, 0.1]), Coverage([1.0], [[0], [0]]))
    assert indifference_payment(inst, 0, [0, 1]) is None


def test_group_payment_nd(pair):
    assert group_payment_nd(pair, [0, 1]) == pytest.approx(0.4)
    assert group_payment_nd(pair, [1]) == indifference_payment(pair, 1, [1])
    with pytest.raises(EmptySetError):
        group_payment_nd(pair, [])


def test_group_payment_nd_geometric():
    inst = gen_geometric_family(2, 2)
    assert group_payment_nd(inst, [1, 2]) == pytest.approx(0.125)  # both group-2 agents


def test_optimal_contract_modes(pair):
    both = [0, 1]
    unc = optimal_contract_for_set(pair, both, ModeSpec.unconstrained())
    assert unc.utility == pytest.approx(0.4)  # (1 - 0.2 - 0.4) * 1
    nd = optimal_contract_for_set(pair, both, ModeSpec.nd())
    assert nd.utility == pytest.approx(0.2)  # (1 - 2 * 0.4) * 1
    bnd = optimal_contract_for_set(pair, both, ModeSpec.beta_nd(2.0))
    assert bnd.utility == pytest.approx(0.4)  # (1 - max(.2,.2) - .4) * 1
    assert np.allclose(bnd.payments.payments, [0.2, 0.4])


def test_pay_ratio_is_one_rule_for_every_mode(pair):
    """Each member is paid max(alpha_i, top / pay_ratio): nd is beta_nd at
    beta = 1 bit for bit, and unconstrained pays the indifference payments."""
    assert ModeSpec.unconstrained().pay_ratio == math.inf
    assert ModeSpec.nd().pay_ratio == 1.0
    assert ModeSpec.beta_nd(2.5).pay_ratio == 2.5
    for inst in (pair, gen_geometric_family(3, 3)):
        for mask in range(1, 1 << inst.n):
            nd = optimal_contract_for_set(inst, mask, ModeSpec.nd())
            one = optimal_contract_for_set(inst, mask, ModeSpec.beta_nd(1.0))
            assert (nd.utility, nd.payments.payments.tolist()) == (
                one.utility, one.payments.payments.tolist())
            unc = optimal_contract_for_set(inst, mask, ModeSpec.unconstrained())
            alphas = [indifference_payment(inst, i, mask) for i in mask_to_indices(mask)]
            assert unc.payments.payments[unc.payments.payments > 0].tolist() == alphas


def test_optimal_contract_empty_set(pair):
    out = optimal_contract_for_set(pair, 0, ModeSpec.nd())
    assert out.feasible and out.utility == 0.0
    assert out.payments.total() == 0.0


def test_optimal_contract_tight_pair_payments():
    # beta = 3 tight pair: member payments are (1 - 1/sqrt(beta+1)) and a
    # third of that, giving utility 1/(2 sqrt(beta+1)) = 1/4
    inst = gen_two_agent_tight(3.0, epsilon=1e-9)
    out = optimal_contract_for_set(inst, [0, 1], ModeSpec.beta_nd(3.0))
    assert out.payments.payments[0] == pytest.approx(0.5, abs=1e-9)
    assert out.payments.payments[1] == pytest.approx(0.5 / 3.0, abs=1e-9)
    assert out.utility == pytest.approx(0.25, abs=1e-8)


def test_infeasibility_reasons():
    too_costly = Instance(1, np.array([0.9]), Additive([0.5]))
    out = optimal_contract_for_set(too_costly, [0], ModeSpec.unconstrained())
    assert not out.feasible and out.infeasibility_reason == "payment-above-one"
    assert out.utility == -math.inf

    stuck = Instance(2, np.array([0.1, 0.1]), Coverage([1.0], [[0], [0]]))
    out = optimal_contract_for_set(stuck, [0, 1], ModeSpec.nd())
    assert not out.feasible and out.infeasibility_reason == "zero-marginal"


def test_is_equilibrium(pair):
    out = optimal_contract_for_set(pair, [0, 1], ModeSpec.nd())
    assert is_equilibrium(pair, out.payments, out.members)
    zero = Contract(np.zeros(2))
    assert is_equilibrium(pair, zero, 0)
    assert not is_equilibrium(pair, zero, [0])


def test_best_response_fixed_point(pair):
    out = optimal_contract_for_set(pair, [0, 1], ModeSpec.unconstrained())
    assert best_response_step(pair, out.payments, out.members) == out.members


def test_best_response_all_drop_out(pair):
    zero = Contract(np.zeros(2))
    assert best_response_step(pair, zero, [0, 1]) == 0


def test_best_response_tie_joins():
    # optimal uniform contract targeting the group-1 agent pays exactly the
    # indifference amount; starting from nobody, the tie-break pulls them in
    inst = gen_geometric_family(2, 2)
    out = optimal_contract_for_set(inst, [0], ModeSpec.nd())
    assert out.payments.payments[0] == pytest.approx(0.25)
    assert best_response_step(inst, out.payments, 0) == 0b001


def _random_pool(count, seed):
    rng = np.random.default_rng(seed)
    kinds = ("additive", "coverage", "capped_additive")
    for k in range(count):
        n = int(rng.integers(2, 9))
        yield gen_random(kinds[k % 3], n, seed=int(rng.integers(0, 10_000))), rng


def test_mode_utility_ordering():
    for inst, rng in _random_pool(25, 31):
        mask = int(rng.integers(1, 1 << inst.n))
        unc = optimal_contract_for_set(inst, mask, ModeSpec.unconstrained())
        nd = optimal_contract_for_set(inst, mask, ModeSpec.nd())
        for beta in (1.0, 2.0, 8.0):
            bnd = optimal_contract_for_set(inst, mask, ModeSpec.beta_nd(beta))
            if unc.feasible and bnd.feasible:
                assert unc.utility >= bnd.utility - 1e-12
            if bnd.feasible and nd.feasible:
                assert bnd.utility >= nd.utility - 1e-12


def test_beta_one_equals_nd():
    for inst, rng in _random_pool(20, 37):
        mask = int(rng.integers(1, 1 << inst.n))
        nd = optimal_contract_for_set(inst, mask, ModeSpec.nd())
        b1 = optimal_contract_for_set(inst, mask, ModeSpec.beta_nd(1.0))
        assert nd.utility == b1.utility
        assert np.array_equal(nd.payments.payments, b1.payments.payments)


def test_beta_monotonicity():
    for inst, rng in _random_pool(20, 41):
        mask = int(rng.integers(1, 1 << inst.n))
        betas = (1.0, 1.5, 2.0, 4.0, 16.0)
        utils = [
            optimal_contract_for_set(inst, mask, ModeSpec.beta_nd(b)).utility
            for b in betas
        ]
        for lo, hi in zip(utils, utils[1:]):
            assert lo <= hi + 1e-12


def test_wage_ratio_constraint_holds():
    for inst, rng in _random_pool(25, 43):
        mask = int(rng.integers(1, 1 << inst.n))
        for beta in (1.0, 3.0, 10.0):
            out = optimal_contract_for_set(inst, mask, ModeSpec.beta_nd(beta))
            if not out.feasible:
                continue
            member_pay = out.payments.payments[out.member_list()]
            assert member_pay.max() <= beta * member_pay.min() + 1e-9


def test_feasible_outcomes_are_equilibria():
    for inst, rng in _random_pool(25, 47):
        mask = int(rng.integers(0, 1 << inst.n))
        for spec in (ModeSpec.unconstrained(), ModeSpec.nd(), ModeSpec.beta_nd(2.0)):
            out = optimal_contract_for_set(inst, mask, spec)
            if out.feasible:
                assert is_equilibrium(inst, out.payments, out.members)


def test_payments_zero_outside_set():
    for inst, rng in _random_pool(10, 53):
        mask = int(rng.integers(1, 1 << inst.n))
        out = optimal_contract_for_set(inst, mask, ModeSpec.nd())
        if out.feasible:
            outside = [i for i in range(inst.n) if not (mask >> i) & 1]
            assert all(out.payments.payments[i] == 0.0 for i in outside)


def test_mode_spec_validation():
    with pytest.raises(ParameterError):
        ModeSpec("nd", beta=2.0)
    with pytest.raises(ParameterError):
        ModeSpec("beta_nd")
    with pytest.raises(ParameterError):
        ModeSpec.beta_nd(0.5)
    with pytest.raises(ParameterError):
        ModeSpec("equalish")
    assert ModeSpec.nd().beta is None


def test_mode_spec_rejects_nan_beta():
    # "nan < 1" is False, so a NaN ratio once passed and poisoned every payment
    with pytest.raises(ParameterError):
        ModeSpec.beta_nd(math.nan)


def test_contract_range_validation():
    with pytest.raises(ParameterError):
        Contract(np.array([0.5, 1.2]))
    with pytest.raises(ParameterError):
        Contract(np.array([-0.2, 0.5]))


def test_contract_rejects_nan_and_nested_payments():
    # a NaN fails every comparison, so a range test written as "below 0 or
    # above 1" let it through
    for bad in ([np.nan, 0.5], [np.nan] * 3, [0.5, np.inf], [[0.1], [0.2]], 0.5):
        with pytest.raises(ParameterError):
            Contract(np.array(bad))
    assert Contract(np.array([0.0, 1.0])).total() == 1.0


# ---------------------------------------------------------------------------
# the array paths against the per-agent scalar versions they replaced


def _price_per_member(inst, mask, spec):
    """(reason or None, payments, utility): optimal_contract_for_set as it
    priced members one indifference_payment call at a time."""
    members = mask_to_indices(mask)
    alphas = np.empty(len(members))
    for k, i in enumerate(members):
        a = indifference_payment(inst, i, mask)
        if a is None:
            return "zero-marginal", None, None
        alphas[k] = a
    top = float(alphas.max())
    if spec.mode == "unconstrained":
        pay = alphas
    elif spec.mode == "nd":
        pay = np.full(len(members), top)
    else:
        pay = np.maximum(alphas, top / spec.beta)
    if pay.max() > 1 + COMPARE_TOL:
        return "payment-above-one", None, None
    payments = np.zeros(inst.n)
    payments[members] = np.minimum(pay, 1.0)
    return None, payments, float((1.0 - pay.sum()) * inst.reward.value(mask))


def _is_equilibrium_scalar(inst, contract, mask):
    """is_equilibrium as it compared each agent's two utilities directly."""
    f = inst.reward
    f_S = f.value(mask)
    for i in range(inst.n):
        a_i = float(contract.payments[i])
        if (mask >> i) & 1:
            if a_i * f_S - inst.costs[i] < a_i * f.value(mask & ~(1 << i)) - COMPARE_TOL:
                return False
        elif a_i * f.value(mask | (1 << i)) - inst.costs[i] > a_i * f_S + COMPARE_TOL:
            return False
    return True


def _instance(kind, n, seed):
    if kind == "explicit":
        return random_two_agent_instance(np.random.default_rng(seed))
    if kind == "symmetric_two_class":
        rng = np.random.default_rng(seed)
        count_b = max(n - 1, 1)
        f_b = rng.uniform(0.0, 1.0 / count_b)
        f_a = rng.uniform(0.0, 1.0 - count_b * f_b)
        costs = np.full(count_b + 1, rng.uniform(0.01, 1.0) * f_b + 1e-9)
        costs[0] = rng.uniform(0.01, 1.0) * f_a + 1e-9
        return Instance(count_b + 1, costs, SymmetricTwoClass(f_a, f_b, count_b))
    return gen_random(kind, n, seed)


_kinds = st.sampled_from(["additive", "coverage", "capped_additive", "explicit"])


@settings(max_examples=100, deadline=None)
@given(kind=_kinds, n=st.integers(1, 10), seed=st.integers(0, 2**31), data=st.data())
def test_optimal_contract_matches_per_member_pricing(kind, n, seed, data):
    inst = _instance(kind, n, seed)
    mask = data.draw(st.integers(1, (1 << inst.n) - 1))
    for spec in (ModeSpec.unconstrained(), ModeSpec.nd(), ModeSpec.beta_nd(1.0),
                 ModeSpec.beta_nd(data.draw(st.floats(1.0, 1e3)))):
        out = optimal_contract_for_set(inst, mask, spec)
        reason, payments, utility = _price_per_member(inst, mask, spec)
        assert out.infeasibility_reason == reason
        if reason is None:
            assert out.payments.payments.tobytes() == payments.tobytes()
            assert out.utility == utility


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(["additive", "coverage", "capped_additive", "explicit",
                          "symmetric_two_class"]),
    n=st.integers(1, 10),
    seed=st.integers(0, 2**31),
    data=st.data(),
)
def test_member_payments_match_indifference_payment(kind, n, seed, data):
    """group_payment_nd and the partition base's payments read one
    marginals array, bit for bit the per-member indifference_payment."""
    inst = _instance(kind, n, seed)
    mask = data.draw(st.integers(1, (1 << inst.n) - 1))
    members = mask_to_indices(mask)
    alphas = [indifference_payment(inst, i, mask) for i in members]
    assert group_payment_nd(inst, mask) == (None if None in alphas else max(alphas))
    if optimal_contract_for_set(inst, mask, ModeSpec.unconstrained()).feasible:
        assert _base_alphas(inst, mask) == (mask, dict(zip(members, alphas)))


@settings(max_examples=150, deadline=None)
@given(kind=_kinds, n=st.integers(1, 10), seed=st.integers(0, 2**31), data=st.data())
def test_is_equilibrium_matches_scalar_comparison(kind, n, seed, data):
    """Payments sit at each agent's indifference point, shifted by -1e-6,
    0 or +1e-6, so both verdicts turn on the boundary."""
    inst = _instance(kind, n, seed)
    mask = data.draw(st.integers(0, (1 << inst.n) - 1))
    marg = np.array([inst.reward.marginal(i, mask) for i in range(inst.n)])
    point = np.divide(inst.costs, marg, out=np.zeros(inst.n), where=marg > 0)
    shift = data.draw(st.lists(st.sampled_from([-1e-6, 0.0, 1e-6]),
                               min_size=inst.n, max_size=inst.n))
    contract = Contract(np.clip(point + shift, 0.0, 1.0))
    assert is_equilibrium(inst, contract, mask) == _is_equilibrium_scalar(inst, contract, mask)


def _best_response_scalar(inst, contract, mask):
    """best_response_step as it compared each agent's two utilities with
    two value calls."""
    f = inst.reward
    new_mask = 0
    for i in range(inst.n):
        a_i = float(contract.payments[i])
        exert = a_i * f.value(mask | (1 << i)) - float(inst.costs[i])
        shirk = a_i * f.value(mask & ~(1 << i))
        if exert >= shirk - COMPARE_TOL:
            new_mask |= 1 << i
    return new_mask


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["additive", "coverage", "capped_additive", "explicit",
                          "symmetric_two_class"]),
    n=st.integers(1, 10),
    seed=st.integers(0, 2**31),
    data=st.data(),
)
def test_best_response_step_matches_scalar_comparison(kind, n, seed, data):
    """Payments sit at each agent's indifference point, exactly or shifted
    by ±1e-6, or are drawn freely; draws whose gain lies within 1e-12 of
    ±COMPARE_TOL, where the two regroupings may round apart, are skipped."""
    inst = _instance(kind, n, seed)
    mask = data.draw(st.integers(0, (1 << inst.n) - 1))
    marg = inst.reward.marginals(mask)
    point = np.divide(inst.costs, marg, out=np.zeros(inst.n), where=marg > 0)
    shift = data.draw(st.lists(st.sampled_from([-1e-6, 0.0, 1e-6, None]),
                               min_size=inst.n, max_size=inst.n))
    free = data.draw(st.lists(st.floats(0.0, 1.0), min_size=inst.n, max_size=inst.n))
    pay = [f if s is None else p + s for p, s, f in zip(point, shift, free)]
    contract = Contract(np.clip(pay, 0.0, 1.0))
    gain = contract.payments * marg - inst.costs
    assume(np.all(np.abs(np.abs(gain) - COMPARE_TOL) > 1e-12))
    assert best_response_step(inst, contract, mask) == _best_response_scalar(inst, contract, mask)
