"""Harness tests: ratio records, sweeps, CSV round trips, bound suites."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairpay.contracts import Instance, ModeSpec, is_equilibrium, optimal_contract_for_set
from fairpay.errors import ParameterError, StructureError
from fairpay.experiments import (
    CSV_COLUMNS,
    SweepSpec,
    build_instance,
    geometric_solve,
    parse_csv,
    pond_ratio,
    read_csv,
    records_to_csv,
    run_sweep,
    solve_with,
    verify_bounds,
    write_csv,
)
from fairpay.families import gen_geometric_family, gen_random, gen_two_agent_tight
from fairpay.rewards import Additive, Coverage
from fairpay.solvers import brute_force, two_agent_bound
from test_structured_scans import _specs

R2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# pond_ratio

def test_pond_ratio_geometric_m2():
    rec = pond_ratio(gen_geometric_family(2, 2), ModeSpec.nd(), ("brute", "brute"))
    assert rec.ratio == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert rec.beta == 1.0 and not rec.degenerate


def test_pond_ratio_tight_pair():
    inst = gen_two_agent_tight(3.0, epsilon=1e-6)
    rec = pond_ratio(inst, ModeSpec.beta_nd(3.0), ("two_agent", "two_agent"))
    assert rec.ratio == pytest.approx(1.5, abs=1e-3)


def test_pond_ratio_vacuous_constraint():
    inst = gen_geometric_family(3, 3)
    rec = pond_ratio(inst, ModeSpec.beta_nd(1e9), ("brute", "brute"))
    assert rec.ratio == pytest.approx(1.0, abs=1e-6)


def test_pond_ratio_degenerate():
    # nothing is worth incentivizing; constrained optimum is 0
    inst = Instance(2, np.array([0.9, 0.9]), Additive([0.4, 0.4]))
    rec = pond_ratio(inst, ModeSpec.nd(), ("brute", "brute"))
    assert rec.degenerate and rec.ratio is None


def test_pond_ratio_rejects_unconstrained():
    with pytest.raises(ParameterError):
        pond_ratio(gen_geometric_family(2, 2), ModeSpec.unconstrained())


def test_pond_ratio_opt_dominates():
    rng = np.random.default_rng(83)
    from fairpay.families import gen_random

    for k in range(20):
        inst = gen_random(("additive", "coverage", "capped_additive")[k % 3],
                          int(rng.integers(3, 10)), seed=int(rng.integers(0, 10_000)))
        spec = ModeSpec.nd() if k % 2 else ModeSpec.beta_nd(2.0)
        rec = pond_ratio(inst, spec)
        assert rec.opt >= rec.opt_nd - 1e-9
        if not rec.degenerate:
            assert rec.ratio >= 1 - 1e-9


# ---------------------------------------------------------------------------
# method dispatch

def test_solve_with_unknown_method():
    with pytest.raises(ParameterError):
        solve_with(gen_geometric_family(2, 2), ModeSpec.nd(), "annealing")


def test_solve_with_partition_methods():
    inst = gen_geometric_family(3, 3)
    rep = solve_with(inst, ModeSpec.nd(), "log_partition")
    base = brute_force(inst, ModeSpec.unconstrained()).best
    assert rep.method == "log_partition"
    assert rep.best.utility >= base.utility / inst.n.bit_length() - 1e-9
    rep2 = solve_with(inst, ModeSpec.beta_nd(inst.n**0.5), "delta_partition")
    assert rep2.method == "delta_partition"
    assert rep2.best.utility >= 0
    with pytest.raises(ParameterError):
        solve_with(inst, ModeSpec.nd(), "delta_partition")
    with pytest.raises(ParameterError):
        solve_with(inst, ModeSpec.beta_nd(2.0), "log_partition")


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 4),
    T=st.floats(2.0, 50.0),
    cost_scale=st.sampled_from([1.0, 7.0, 300.0, "rate-one"]),
    beta=st.floats(1.0, 1e4),
)
def test_geometric_solve_matches_brute_force_small_m(m, T, cost_scale, beta):
    """The consecutive-groups restriction is exact where brute force can
    check it, with scaled costs (the leading groups unaffordable), and the
    winner is an equilibrium.  Costs equal to weights, every rate exactly
    1, are outside the family for m > 1 and rejected."""
    inst = gen_geometric_family(m, T)
    costs = np.array(inst.reward.weights) if cost_scale == "rate-one" else inst.costs * cost_scale
    inst = Instance(inst.n, costs, inst.reward, inst.metadata)
    if cost_scale == "rate-one" and m > 1:
        with pytest.raises(StructureError):
            geometric_solve(inst, ModeSpec.nd())
        return
    for spec in _specs(inst.n, beta):
        fast = geometric_solve(inst, spec)
        slow = brute_force(inst, spec)
        assert fast.best.utility == pytest.approx(slow.best.utility, abs=1e-12), (m, T, spec)
        assert is_equilibrium(inst, fast.best.payments, fast.best.members)


def test_geometric_solve_rejects_other_instances():
    from fairpay.families import gen_random

    with pytest.raises(StructureError):
        geometric_solve(gen_random("additive", 5, seed=1), ModeSpec.nd())


@pytest.mark.parametrize("inst, brute_set", [
    # doubling runs of other weights, labeled geometric
    (Instance(7, np.repeat([0.02, 0.03, 0.015], [1, 2, 4]),
              Additive(np.repeat([0.4, 0.05, 0.1], [1, 2, 4])), {"family": "geometric"}),
     [0, 3]),
    # the family's weights with other per-group costs
    (Instance(7, np.repeat([0.098, 0.168, 0.01], [1, 2, 4]),
              gen_geometric_family(3, 3).reward, gen_geometric_family(3, 3).metadata),
     [0, 3]),
])
def test_geometric_solve_rejects_labeled_instances_off_the_family(inst, brute_set):
    """Doubling runs outside the family, whose consecutive-group
    candidates miss brute force's optimum ({0} against {0, 3}
    unconstrained, here), raise StructureError whatever the metadata
    says."""
    assert brute_force(inst, ModeSpec.unconstrained()).best.member_list() == brute_set
    for spec in _specs(inst.n, 2.0):
        with pytest.raises(StructureError, match="geometric family's runs"):
            geometric_solve(inst, spec)


def test_delta_partition_prices_its_set_under_the_spec_it_reports():
    """A delta_partition report is its set priced under its own spec,
    byte for byte, though the groups are priced at beta = n^delta with
    delta = ln beta / ln n, which can miss beta by an ulp; at n = 9 and
    beta = 3 it did, and the report's largest payment was then 3 times
    its smallest and an ulp."""
    inst = gen_random("additive", 9, seed=0)
    report = solve_with(inst, ModeSpec.beta_nd(3.0), "delta_partition")
    paid = report.best.payments.payments[report.best.member_list()]
    assert report.best.member_list() == [2, 4, 6] and paid.max() / paid.min() == 3.0
    for k in range(36):
        inst = gen_random(("additive", "coverage", "capped_additive")[k % 3], 2 + k % 11, seed=k)
        for delta in (0.3, 0.5, 0.8, 1.0):
            spec = ModeSpec.beta_nd(inst.n**delta)
            best = solve_with(inst, spec, "delta_partition").best
            canonical = optimal_contract_for_set(inst, best.members, spec)
            assert best.payments.payments.tobytes() == canonical.payments.payments.tobytes()
            assert best.utility == canonical.utility


# ---------------------------------------------------------------------------
# sweeps

def test_sweep_geometric_m_grid_increasing_ratio():
    sweep = SweepSpec(
        family="geometric",
        params={"T": 3},
        grid_param="m",
        grid_values=[2, 3, 4],
        methods=("brute", "brute"),
        mode="nd",
    )
    records = run_sweep(sweep)
    ratios = [r.ratio for r in records]
    assert all(r.error is None for r in records)
    assert ratios[0] < ratios[1] < ratios[2]


def test_sweep_tight_pair_beta_grid():
    sweep = SweepSpec(
        family="tight2",
        params={"epsilon": 1e-6},
        grid_param="beta",
        grid_values=[1.0, 2.0, 3.0, 8.0, 15.0],
        methods=("two_agent", "two_agent"),
        mode="beta_nd",
    )
    records = run_sweep(sweep)
    assert len(records) == 5
    for rec, beta in zip(records, sweep.grid_values):
        assert rec.ratio == pytest.approx(two_agent_bound(beta), abs=1e-3)


def test_sweep_lemma9_n_grid():
    sweep = SweepSpec(
        family="lemma9",
        params={"epsilon": 1e-6, "delta": 1.0},
        grid_param="n",
        grid_values=[1_000, 10_000],
        methods=("symmetric", "symmetric"),
        mode="beta_nd",
    )
    records = run_sweep(sweep)
    target = (11 - 6 * R2) / 4
    for rec in records:
        assert rec.error is None
        assert 1.0 / rec.ratio == pytest.approx(target, abs=1e-2)


def test_beta_sweep_builds_its_instance_and_table_once():
    grid = [1.0, 1.25, 1.5, 2.0, 3.0, 5.0, 8.0, 13.0]
    sweep = SweepSpec("random-coverage", {"n": 10, "seed": 3}, "beta", grid, mode="beta_nd")
    build = Coverage.value_table
    with mock.patch.object(Coverage, "value_table", autospec=True, side_effect=build) as calls:
        records = run_sweep(sweep)
    assert calls.call_count == 1
    # the same CSV as solving each point on an instance of its own
    separate = [pond_ratio(build_instance("random-coverage", {"n": 10, "seed": 3}),
                           ModeSpec.beta_nd(b)) for b in grid]
    assert records_to_csv(records) == records_to_csv(separate)


def test_sweep_point_failure_is_recorded():
    sweep = SweepSpec(
        family="geometric",
        params={"T": 3},
        grid_param="m",
        grid_values=[2, 0, 3],  # m = 0 is invalid
        mode="nd",
    )
    records = run_sweep(sweep)
    assert records[0].error is None and records[2].error is None
    assert records[1].error is not None and "m must be" in records[1].error


def test_sweep_error_rows_record_the_instance_size():
    """A point whose solver fails records its instance's n; only a point
    whose instance fails to build records 0.  A sweep that lacks a
    needed parameter fails when it is built, not point by point."""
    # solvers whose gates refuse each point's instance
    tight = SweepSpec("tight2", {"epsilon": 1e-6}, "beta", [2.0, 3.0], methods=("geometric",) * 2)
    geometric = SweepSpec("geometric", {"T": 3}, "m", [2, 0, 3], methods=("two_agent",) * 2)
    for sweep, sizes in ((tight, [2, 2]), (geometric, [3, 0, 7])):
        records = run_sweep(sweep)
        assert all(r.error is not None for r in records)
        assert [r.n for r in records] == sizes
    with pytest.raises(ParameterError, match="needs parameter 'n'"):
        SweepSpec("random-coverage", {"seed": 3}, "beta", [1.0, 2.0])


def test_sweep_spec_validation():
    with pytest.raises(ParameterError):
        SweepSpec("geometric", {}, "m", [])
    with pytest.raises(ParameterError):
        SweepSpec("geometric", {}, "q", [1])
    with pytest.raises(ParameterError):
        SweepSpec("geometric", {}, "m", [2], mode="fair")


def test_build_instance_missing_param():
    with pytest.raises(ParameterError, match="needs parameter"):
        build_instance("geometric", {"m": 3})
    with pytest.raises(ParameterError, match="seed"):
        build_instance("random-additive", {"n": 5})
    with pytest.raises(ParameterError, match="unknown family"):
        build_instance("quadratic", {})


def test_sweep_mode_follows_the_grid():
    """The mode defaults to beta_nd over a beta or delta grid and to nd
    otherwise; nd over a grid of pay ratios would leave it nothing to set."""
    geometric = {"m": 3, "T": 3.0}
    assert SweepSpec("geometric", geometric, "beta", [2.0]).mode == "beta_nd"
    assert SweepSpec("geometric", geometric, "delta", [0.5]).mode == "beta_nd"
    assert SweepSpec("geometric", {"T": 3.0}, "m", [2]).mode == "nd"
    for grid in ("beta", "delta"):
        with pytest.raises(ParameterError, match=f"mode nd has no pay ratio for a {grid} grid"):
            SweepSpec("geometric", geometric, grid, [2.0], mode="nd")


@pytest.mark.parametrize("family, params, grid, values, key", [
    ("geometric", {"T": 3}, "m", [2.5], "'values'"),
    ("random-additive", {"seed": 1}, "n", [4, 5.5], "'values'"),
    ("random-additive", {"n": 4, "seed": 1.5}, "beta", [2.0], "'seed'"),
    ("geometric", {"m": 3.7, "T": 3}, "delta", [0.5], "'m'"),
])
def test_sweep_spec_reads_each_value_as_the_family_does(family, params, grid, values, key):
    """A parameter or grid point that the family's reader refuses raises
    when the sweep is made, naming its key, not point by point."""
    with pytest.raises(ParameterError, match=key):
        SweepSpec(family, params, grid, values)


def test_a_shared_instance_that_fails_to_build_raises():
    """A beta grid's one instance is built before the first point, so a
    seed it cannot take raises once instead of failing every point."""
    sweep = SweepSpec("random-additive", {"n": 4, "seed": -1}, "beta", [1.0, 2.0])
    with pytest.raises(ParameterError, match="seed must be nonnegative, got -1"):
        run_sweep(sweep)


# ---------------------------------------------------------------------------
# CSV

def test_csv_round_trip(tmp_path):
    inst = gen_two_agent_tight(2.0, epsilon=1e-6)
    records = [
        pond_ratio(inst, ModeSpec.beta_nd(2.0), ("two_agent", "two_agent")),
        pond_ratio(gen_geometric_family(2, 2), ModeSpec.nd(), ("brute", "brute")),
    ]
    path = tmp_path / "out.csv"
    write_csv(records, path)
    text = path.read_text()
    assert text.splitlines()[0] == ",".join(CSV_COLUMNS)
    parsed = read_csv(path)
    # serialization is stable: writing the parsed records reproduces the file
    assert records_to_csv(parsed) == text
    for before, after in zip(records, parsed):
        assert after.instance_id == before.instance_id
        assert after.ratio == pytest.approx(before.ratio, rel=1e-11)
        assert after.degenerate == before.degenerate


def test_csv_degenerate_row_has_empty_ratio():
    inst = Instance(2, np.array([0.9, 0.9]), Additive([0.4, 0.4]))
    rec = pond_ratio(inst, ModeSpec.nd(), ("brute", "brute"))
    text = records_to_csv([rec])
    row = text.splitlines()[1].split(",")
    assert row[CSV_COLUMNS.index("ratio")] == ""
    assert row[CSV_COLUMNS.index("degenerate")] == "true"
    assert parse_csv(text)[0].ratio is None


def test_csv_rejects_foreign_header():
    with pytest.raises(ParameterError):
        parse_csv("a,b,c\n1,2,3\n")


# ---------------------------------------------------------------------------
# verification suites

def test_verify_lemma2_suite():
    report = verify_bounds("lemma2", trials=200, seed=5)
    assert report.passed, report.failures[:2]
    assert report.checks == 200


def test_verify_lemma6_suite():
    report = verify_bounds("lemma6", trials=100, seed=5)
    assert report.passed, report.failures[:2]
    assert report.checks == 200  # two deltas per instance


def test_verify_theorem3_suite():
    report = verify_bounds("theorem3", trials=500, seed=5)
    assert report.passed, report.failures[:2]
    assert report.checks == 1500


def test_verify_remark1_suite():
    report = verify_bounds("remark1")
    assert report.passed, report.failures
    ratios = report.details["ratio_by_n"]
    assert ratios[255] <= 1.05


def test_verify_unknown_suite():
    with pytest.raises(ParameterError):
        verify_bounds("lemma42")
