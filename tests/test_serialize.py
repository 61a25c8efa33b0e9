"""File format tests: instance/result JSON and sweep configs."""

import json
import math

import numpy as np
import pytest

from fairpay.contracts import ModeSpec
from fairpay.errors import ParameterError
from fairpay.experiments import solve_with
from fairpay.families import gen_geometric_family, gen_random, gen_two_class
from fairpay.rewards import Coverage, ExplicitTable
from fairpay.contracts import Instance
from fairpay.serialize import (
    _dumps,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    load_result,
    parse_sweep_config,
    report_to_dict,
    result_contract,
    save_instance,
    save_report,
)
from fairpay.solvers import brute_force


@pytest.mark.parametrize(
    "make",
    [
        lambda: gen_geometric_family(3, 3),
        lambda: gen_random("additive", 6, seed=3),
        lambda: gen_random("coverage", 6, seed=3),
        lambda: gen_random("capped_additive", 6, seed=3),
        lambda: gen_two_class("lemma9", 1000, epsilon=1e-6),
    ],
)
def test_instance_round_trip(make, tmp_path):
    inst = make()
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    back = load_instance(path)
    assert back.n == inst.n
    assert np.array_equal(back.costs, inst.costs)  # lossless floats
    assert instance_to_dict(back) == instance_to_dict(inst)


def test_explicit_table_round_trip(tmp_path):
    from fairpay.experiments import random_two_agent_instance

    inst = random_two_agent_instance(np.random.default_rng(3))
    path = tmp_path / "explicit.json"
    save_instance(inst, path)
    back = load_instance(path)
    assert back.reward.kind == "explicit"
    assert np.array_equal(back.reward.value_table(), inst.reward.value_table())


def test_round_trip_preserves_solver_results(tmp_path):
    inst = gen_random("coverage", 7, seed=11)
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    back = load_instance(path)
    for spec in (ModeSpec.unconstrained(), ModeSpec.nd(), ModeSpec.beta_nd(2.5)):
        a = brute_force(inst, spec)
        b = brute_force(back, spec)
        assert a.best.members == b.best.members
        assert a.best.utility == b.best.utility


def test_instance_version_check():
    data = instance_to_dict(gen_geometric_family(2, 2))
    data["version"] = "9"
    with pytest.raises(ParameterError):
        instance_from_dict(data)


def test_result_file_contents(tmp_path):
    inst = gen_geometric_family(2, 2)
    report = solve_with(inst, ModeSpec.nd(), "brute")
    path = tmp_path / "res.json"
    save_report(report, path, timing_ms=1.25)
    data = load_result(path)
    assert data["spec"] == {"mode": "nd", "beta": None}
    assert data["method"] == "brute_force"
    assert data["set"] == sorted(data["set"]) == [0]
    assert data["utility"] == pytest.approx(0.375)
    assert data["timing_ms"] == 1.25
    contract, mask = result_contract(data, inst.n)
    assert mask == 0b001
    assert contract.payments[0] == pytest.approx(0.25)


@pytest.mark.parametrize(
    "value",
    [
        {}, [], {"a": []}, {"a": {}}, [None], "text", 3, -0.5, None, True,
        {"flat": [1, 2, 3], "floats": [0.1, -0.0, 1e-300, 5e300, 2.0]},
        {"mixed": [1, 2.5], "bools": [True, False], "ints": [1, True]},
        {"nan": [math.nan, 1.0], "inf": [1.0, math.inf], "-inf": -math.inf},
        {"nested": [[1, 2], [], [3.5, {"k": [0.25]}]], "deep": {"a": {"b": {"c": [1.0]}}}},
        {1: "int key", "a": {2.5: [1, 2]}}, {"tuple": (1, 2.0)},
        {"s": "line\nbreak \"quoted\" \u00e9", "big": 10**30},
        {"numpy": np.float64(0.1), "numpy list": [np.float64(0.2), 0.3]},
    ],
)
def test_writer_matches_json_dump_indent_2(value):
    assert _dumps(value) == json.dumps(value, indent=2)


def test_saved_files_match_json_dump_indent_2(tmp_path):
    """Instance and result files are byte for byte what
    json.dump(..., indent=2) plus a newline writes."""
    cov = gen_random("coverage", 5, seed=2)
    instances = [
        gen_geometric_family(3, 3),
        gen_two_class("lemma9", 1000, epsilon=1e-6),
        gen_random("capped_additive", 7, seed=1),
        cov,
        Instance(5, cov.costs, ExplicitTable(5, cov.reward.value_table())),
        Instance(2, [0.1, 0.2], Coverage([], [[], []]), metadata={"note": [1, "x", None]}),
    ]
    path = tmp_path / "file.json"
    for inst in instances:
        save_instance(inst, path)
        assert path.read_text() == json.dumps(instance_to_dict(inst), indent=2) + "\n"
        for spec in (ModeSpec.nd(), ModeSpec.beta_nd(2.0)):
            report = solve_with(inst, spec, "symmetric" if inst.n > 22 else "brute")
            save_report(report, path, timing_ms=0.5)
            expected = json.dumps(report_to_dict(report, 0.5), indent=2) + "\n"
            assert path.read_text() == expected


def test_result_contract_length_mismatch(tmp_path):
    inst = gen_geometric_family(2, 2)
    report = solve_with(inst, ModeSpec.nd(), "brute")
    path = tmp_path / "res.json"
    save_report(report, path)
    data = load_result(path)
    with pytest.raises(ParameterError):
        result_contract(data, 5)


def test_parse_sweep_config():
    spec = parse_sweep_config(
        """
        # tight-pair ratio sweep
        family = tight2
        epsilon = 1e-6
        grid = beta
        values = 1, 2, 3
        method_opt = two-agent
        method_nd = two-agent
        """
    )
    assert spec.family == "tight2"
    assert spec.grid_param == "beta"
    assert spec.grid_values == [1.0, 2.0, 3.0]
    assert spec.methods == ("two_agent", "two_agent")
    assert spec.mode == "beta_nd"
    assert spec.params == {"epsilon": 1e-6}


def test_parse_sweep_config_defaults_nd_for_m_grid():
    spec = parse_sweep_config("family = geometric\nT = 3\ngrid = m\nvalues = 2,3\n")
    assert spec.mode == "nd" and spec.methods == ("brute", "brute")


def test_parse_sweep_config_errors():
    with pytest.raises(ParameterError):
        parse_sweep_config("grid = m\nvalues = 1\n")  # no family
    with pytest.raises(ParameterError):
        parse_sweep_config("family = geometric\nvalues = 1\n")  # no grid
    with pytest.raises(ParameterError):
        parse_sweep_config("family = geometric\ngrid = m\nvalues = \n")  # empty grid
    with pytest.raises(ParameterError):
        parse_sweep_config("family = geometric\ngrid = m\nvalues = 2\nbroken line\n")
    with pytest.raises(ParameterError):
        parse_sweep_config("family = geometric\ngrid = m\nvalues = 2\nT = high\n")
