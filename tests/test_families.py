"""Generator tests: exact family values, validations, and reproducibility."""

import math
import warnings

import numpy as np
import pytest

from fairpay.contracts import ModeSpec, optimal_contract_for_set
from fairpay.errors import ParameterError
from fairpay.families import (
    gen_geometric_family,
    gen_random,
    gen_two_agent_tight,
    gen_two_class,
)
from fairpay.rewards import check_structure
from fairpay.serialize import instance_to_dict
from fairpay.solvers import brute_force

R2 = math.sqrt(2.0)


def test_geometric_family_m2_t2_exact():
    inst = gen_geometric_family(2, 2)
    assert inst.n == 3
    assert np.allclose(inst.reward.weights, [0.5, 0.25, 0.25])
    assert np.allclose(inst.costs, [0.125, 0.03125, 0.03125])


def test_geometric_family_degenerate_m1():
    inst = gen_geometric_family(1, 4)
    assert inst.n == 1
    assert inst.reward.weights[0] == pytest.approx(1.0)
    assert inst.costs[0] == pytest.approx(0.25)


def test_geometric_family_group_contributions():
    for m in (2, 3, 4, 5):
        inst = gen_geometric_family(m, 3)
        pos = 0
        for k in range(m):
            size = 1 << k
            group = list(range(pos, pos + size))
            assert inst.reward.value(group) == pytest.approx(1.0 / m, abs=1e-12)
            pos += size
        assert inst.reward.value(list(range(inst.n))) == pytest.approx(1.0, abs=1e-9)


def test_geometric_family_optimum_at_full_set():
    inst = gen_geometric_family(3, 3)
    rep = brute_force(inst, ModeSpec.unconstrained())
    assert rep.best.members == (1 << inst.n) - 1
    assert rep.best.utility == pytest.approx(2.0 / 3.0, abs=1e-12)


def _geometric_family_lists(m, T):
    """The per-agent list build gen_geometric_family once used."""
    weights = []
    costs = []
    for k in range(1, m + 1):
        size = 1 << (k - 1)
        weights.extend([1.0 / (m * size)] * size)
        costs.extend([1.0 / (T * m * m * size * size)] * size)
    return np.array(weights), np.array(costs)


def test_geometric_family_matches_the_list_build():
    for m in range(1, 21):
        for T in (2, 3, 7.3):
            inst = gen_geometric_family(m, T)
            weights, costs = _geometric_family_lists(m, T)
            assert inst.reward.weights.tobytes() == weights.tobytes()
            assert inst.costs.tobytes() == costs.tobytes()


def test_geometric_family_param_errors():
    with pytest.raises(ParameterError):
        gen_geometric_family(0, 3)
    with pytest.raises(ParameterError):
        gen_geometric_family(3, 1.5)


def test_two_class_lemma8_values():
    inst = gen_two_class("lemma8", 200, epsilon=0.1, M=14.0, delta=0.5)
    assert inst.costs[0] == pytest.approx(1.0 / 28.0)
    assert inst.reward.f_a == pytest.approx(0.5)
    assert inst.reward.f_b == pytest.approx(0.5 / 199)
    assert inst.costs[1] == pytest.approx(0.1 / (2 * 199**2))
    # unconstrained requirements: 1/M for the special agent, eps/(n-1) per other
    full = (1 << 200) - 1
    from fairpay.contracts import indifference_payment

    assert indifference_payment(inst, 0, full) == pytest.approx(1.0 / 14.0)
    assert indifference_payment(inst, 1, full) == pytest.approx(0.1 / 199)


def test_two_class_lemma8_validations():
    with pytest.raises(ParameterError, match="M > 3"):
        gen_two_class("lemma8", 200, epsilon=0.1, M=10.0, delta=0.5)
    with pytest.raises(ParameterError, match=r"n > M"):
        gen_two_class("lemma8", 100, epsilon=0.1, M=14.0, delta=0.5)
    with pytest.raises(ParameterError):
        gen_two_class("lemma8", 200, epsilon=0.1, M=14.0, delta=1.2)
    with pytest.raises(ParameterError):
        gen_two_class("lemma8", 200, epsilon=0.1, delta=0.5)  # missing M


def test_two_class_lemma9_values():
    with pytest.warns(UserWarning, match="large n"):
        inst = gen_two_class("lemma9", 4, epsilon=1e-6)
    assert inst.reward.f_a == pytest.approx(R2 / 4)
    assert inst.reward.f_b == pytest.approx(1.0 / 12.0)
    assert inst.reward.value([0, 1, 2, 3]) == pytest.approx(R2 / 4 + 0.25, abs=1e-12)
    # minimum payment for the special agent is 1 - 1/sqrt(2)
    from fairpay.contracts import indifference_payment

    assert indifference_payment(inst, 0, [0]) == pytest.approx(1 - 1 / R2)


def test_two_class_lemma9_validations():
    with pytest.raises(ParameterError, match="even"):
        gen_two_class("lemma9", 1001)
    with pytest.raises(ParameterError):
        gen_two_class("lemma9", 1000, epsilon=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gen_two_class("lemma9", 1000)  # no warning at n >= 1000


def test_two_class_unknown_family():
    with pytest.raises(ParameterError):
        gen_two_class("lemma10", 100)


def test_tight_pair_values():
    inst = gen_two_agent_tight(3.0, epsilon=1e-6)
    assert np.allclose(inst.reward.weights, [0.5, 0.25])
    assert inst.costs[0] == pytest.approx(0.25)
    assert inst.costs[1] == pytest.approx(2.5e-7)
    b1 = gen_two_agent_tight(1.0, epsilon=1e-6)
    assert b1.reward.weights[1] == pytest.approx(1 / (2 * R2))


def test_tight_pair_unconstrained_payments_and_utility():
    for beta in (1.0, 3.0, 8.0):
        eps = 1e-6
        inst = gen_two_agent_tight(beta, epsilon=eps)
        out = optimal_contract_for_set(inst, [0, 1], ModeSpec.unconstrained())
        root = math.sqrt(beta + 1)
        assert out.payments.payments[0] == pytest.approx(1 - 1 / root, abs=1e-12)
        assert out.payments.payments[1] == pytest.approx(eps, abs=1e-12)
        expected = (root + 1) / (2 * (beta + 1)) - eps * (0.5 + 0.5 / root)
        assert out.utility == pytest.approx(expected, abs=1e-9)


def test_tight_pair_param_errors():
    for bad in (0.5, float("nan")):
        with pytest.raises(ParameterError, match="beta >= 1"):
            gen_two_agent_tight(bad)
    with pytest.raises(ParameterError):
        gen_two_agent_tight(2.0, epsilon=0.0)


@pytest.mark.parametrize("kind", ["additive", "coverage", "capped_additive"])
def test_gen_random_deterministic(kind):
    a = gen_random(kind, 8, seed=77)
    b = gen_random(kind, 8, seed=77)
    assert instance_to_dict(a) == instance_to_dict(b)


@pytest.mark.parametrize("kind", ["additive", "coverage", "capped_additive"])
def test_gen_random_structure_and_feasibility(kind):
    for seed in range(6):
        inst = gen_random(kind, 7, seed=seed)
        assert np.all(inst.costs > 0)
        report = check_structure(inst.reward)
        assert report.monotone and report.submodular
        best_single = max(
            optimal_contract_for_set(inst, [i], ModeSpec.unconstrained()).utility
            for i in range(inst.n)
        )
        assert best_single > 0
        rep = brute_force(inst, ModeSpec.unconstrained())
        assert rep.best.utility >= best_single - 1e-12


def test_gen_random_param_errors():
    with pytest.raises(ParameterError):
        gen_random("additive", 0, seed=1)
    with pytest.raises(ParameterError):
        gen_random("additive", 5, seed=1, cost_margin=1.5)
    with pytest.raises(ParameterError):
        gen_random("xos", 5, seed=1)
