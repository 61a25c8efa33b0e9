"""CLI tests: commands, exit codes, and file outputs."""

import json
from pathlib import Path
from unittest import mock

import pytest

from fairpay.cli import _build_parser, main
from fairpay.errors import ParameterError
from fairpay.experiments import FAMILIES, build_instance

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def run(args):
    return main([str(a) for a in args])


def test_gen_geometric(tmp_path, capsys):
    out = tmp_path / "geo.json"
    assert run(["gen", "geometric", "--m", 3, "--T", 3, "--out", out]) == 0
    data = json.loads(out.read_text())
    assert data["n"] == 7
    assert "n=7" in capsys.readouterr().out


def test_gen_tight2(tmp_path):
    out = tmp_path / "t2.json"
    assert run(["gen", "tight2", "--beta", 3, "--epsilon", "1e-6", "--out", out]) == 0
    assert json.loads(out.read_text())["n"] == 2


def test_gen_random_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["gen", "random-additive", "--n", 10, "--seed", 7, "--out", a]) == 0
    assert run(["gen", "random-additive", "--n", 10, "--seed", 7, "--out", b]) == 0
    assert a.read_text() == b.read_text()


def test_gen_random_requires_seed(tmp_path, capsys):
    assert run(["gen", "random-additive", "--n", 5, "--out", tmp_path / "x.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "seed" in err


def test_gen_bad_params_exit_2(tmp_path, capsys):
    code = run(["gen", "lemma8", "--n", 100, "--M", 14, "--epsilon", "0.1",
                "--delta", "0.5", "--out", tmp_path / "x.json"])
    assert code == 2
    assert "n > M" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["geometric", "--m", 62, "--T", 3],
    ["geometric", "--m", 70, "--T", 3],
    ["random-additive", "--n", 10**30, "--seed", 1],
    ["lemma9", "--n", 10**30],
])
def test_gen_more_agents_than_an_array_holds_exit_2(tmp_path, capsys, argv):
    assert run(["gen", *argv, "--out", tmp_path / "x.json"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ") and out.err.count("\n") == 1
    assert not (tmp_path / "x.json").exists()


def _one_error_line(capsys, words):
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ") and out.err.count("\n") == 1
    assert words in out.err, out.err


def test_gen_negative_seed_exit_2(tmp_path, capsys):
    """numpy's default_rng refuses a negative seed with a ValueError,
    which gen_random turns into a ParameterError naming the seed."""
    assert run(["gen", "random-additive", "--n", 4, "--seed", -1, "--out", tmp_path / "x.json"]) == 2
    _one_error_line(capsys, "seed must be nonnegative, got -1")
    assert not (tmp_path / "x.json").exists()


def test_check_structure_sampled_negative_seed_exit_2(tmp_path, capsys):
    inst = tmp_path / "c30.json"
    assert run(["gen", "random-coverage", "--n", 30, "--seed", 1, "--out", inst]) == 0
    capsys.readouterr()
    assert run(["check", "structure", "--in", inst, "--sample", 10, "--seed", -1]) == 2
    _one_error_line(capsys, "seed must be nonnegative, got -1")


def test_gen_lemma8_bound_that_overflows_exit_2(tmp_path, capsys):
    """M^(1/(1-delta)) overflows a float at M = 1e308: a bound above any
    n, so the condition n > bound is violated."""
    assert run(["gen", "lemma8", "--n", 10, "--M", "1e308", "--delta", 0.5, "--epsilon", 0.5,
                "--out", tmp_path / "x.json"]) == 2
    _one_error_line(capsys, "violated: n > M^(1/(1-delta)) (n=10, M^(1/(1-delta))=inf)")


def test_gen_out_of_memory_exit_2(tmp_path, capsys):
    """An allocation that fails exits 2 with one error line; gen sets no
    cap of its own below MAX_AGENTS.  The failure is patched in, as a
    size that really fails would depend on the host."""
    failed = MemoryError("Unable to allocate 8.00 EiB for an array")
    with mock.patch("fairpay.families.np.repeat", side_effect=failed):
        assert run(["gen", "geometric", "--m", 3, "--T", 3, "--out", tmp_path / "x.json"]) == 2
    _one_error_line(capsys, "Unable to allocate 8.00 EiB")
    with mock.patch("fairpay.families.np.repeat", side_effect=MemoryError):
        assert run(["gen", "geometric", "--m", 3, "--T", 3, "--out", tmp_path / "x.json"]) == 2
    _one_error_line(capsys, "error: MemoryError")
    assert not (tmp_path / "x.json").exists()


def _gen_geo(tmp_path, m=2, T=2):
    path = tmp_path / "geo.json"
    assert run(["gen", "geometric", "--m", m, "--T", T, "--out", path]) == 0
    return path


def test_solve_unconstrained(tmp_path, capsys):
    inst = _gen_geo(tmp_path)
    out = tmp_path / "r.json"
    assert run(["solve", "--in", inst, "--mode", "unconstrained",
                "--method", "brute", "--out", out]) == 0
    data = json.loads(out.read_text())
    assert data["utility"] == pytest.approx(0.5)
    assert data["set"] == [0, 1, 2]
    assert data["timing_ms"] >= 0


def test_solve_nd(tmp_path):
    inst = _gen_geo(tmp_path)
    out = tmp_path / "r.json"
    assert run(["solve", "--in", inst, "--mode", "nd", "--method", "brute",
                "--out", out]) == 0
    assert json.loads(out.read_text())["utility"] == pytest.approx(0.375)


def test_solve_tight2_beta_nd(tmp_path):
    inst = tmp_path / "t.json"
    run(["gen", "tight2", "--beta", 3, "--epsilon", "1e-6", "--out", inst])
    out = tmp_path / "r.json"
    assert run(["solve", "--in", inst, "--mode", "beta-nd", "--beta", 3,
                "--method", "two-agent", "--out", out]) == 0
    assert json.loads(out.read_text())["utility"] == pytest.approx(0.25, abs=1e-6)


def test_solve_delta_is_n_power(tmp_path):
    inst = _gen_geo(tmp_path, m=3, T=3)
    out = tmp_path / "r.json"
    assert run(["solve", "--in", inst, "--mode", "beta-nd", "--delta", "0.5",
                "--method", "brute", "--out", out]) == 0
    assert json.loads(out.read_text())["spec"]["beta"] == pytest.approx(7**0.5)


def test_solve_beta_and_delta_conflict(tmp_path):
    inst = _gen_geo(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run(["solve", "--in", inst, "--mode", "beta-nd", "--beta", 2,
             "--delta", "0.5", "--method", "brute", "--out", tmp_path / "r.json"])
    assert exc.value.code == 2


def test_parser_is_built_once_and_survives_rejected_argv(tmp_path):
    """main shares one parser across calls; an argv it rejects (exit 2)
    leaves nothing behind that changes the next call's parse."""
    assert _build_parser() is _build_parser()
    inst = _gen_geo(tmp_path)
    out = tmp_path / "r.json"
    for argv in (["solve", "--in", inst, "--beta", 2, "--delta", "0.5", "--out", out],
                 ["solve", "--in", inst, "--mode", "beta", "--out", out],
                 ["solve", "--out", out]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert not out.exists()
    assert run(["solve", "--in", inst, "--mode", "nd", "--method", "brute",
                "--out", out]) == 0
    data = json.loads(out.read_text())
    assert data["utility"] == pytest.approx(0.375)
    assert data["spec"]["mode"] == "nd" and data["spec"]["beta"] is None


def test_solve_beta_nd_without_beta(tmp_path, capsys):
    inst = _gen_geo(tmp_path)
    capsys.readouterr()
    assert run(["solve", "--in", inst, "--mode", "beta-nd", "--method", "brute",
                "--out", tmp_path / "r.json"]) == 2
    assert capsys.readouterr().err.startswith("error: beta_nd mode requires beta >= 1")


def test_solve_mode_and_beta_disagree(tmp_path, capsys):
    """A beta or delta for another mode, a beta below 1 or not finite,
    and an n^delta past the float range each exit 2 with one error line;
    an infinite beta would be written as Infinity, which is not JSON."""
    inst = _gen_geo(tmp_path)
    out = tmp_path / "r.json"
    for args in (["--mode", "nd", "--beta", 2],
                 ["--mode", "unconstrained", "--delta", "0.5"],
                 ["--mode", "beta-nd", "--beta", "nan"],
                 ["--mode", "beta-nd", "--beta", "inf"],
                 ["--mode", "beta-nd", "--delta", "-1"],
                 ["--mode", "beta-nd", "--delta", "1e6"]):
        assert run(["solve", "--in", inst, "--method", "brute", "--out", out, *args]) == 2, args
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and not out.exists(), args


def test_solve_oversized_brute_exit_2(tmp_path, capsys):
    inst = tmp_path / "big.json"
    run(["gen", "lemma9", "--n", 1000, "--epsilon", "1e-6", "--out", inst])
    assert run(["solve", "--in", inst, "--mode", "nd", "--method", "brute",
                "--out", tmp_path / "r.json"]) == 2
    assert "symmetric or partition" in capsys.readouterr().err


def test_solve_symmetric_method_large_n(tmp_path):
    inst = tmp_path / "big.json"
    run(["gen", "lemma9", "--n", 10000, "--epsilon", "1e-6", "--out", inst])
    out = tmp_path / "r.json"
    assert run(["solve", "--in", inst, "--mode", "beta-nd", "--delta", "1.0",
                "--method", "symmetric", "--out", out]) == 0
    data = json.loads(out.read_text())
    assert data["method"] == "symmetric"
    assert len(data["set"]) in (10_000 // 2 + 1, 10_000 // 2 + 2)


def test_solve_degenerate_exit_3(tmp_path):
    inst = tmp_path / "dead.json"
    # costs above the singleton values: nothing is worth incentivizing
    inst.write_text(json.dumps({
        "version": "1", "n": 2, "costs": [0.9, 0.9],
        "reward": {"kind": "additive", "weights": [0.4, 0.4]},
        "metadata": {},
    }))
    assert run(["solve", "--in", inst, "--mode", "nd", "--method", "brute",
                "--out", tmp_path / "r.json"]) == 3


@pytest.mark.parametrize("mode", ["unconstrained", "nd"])
def test_solve_two_agent_keeps_the_requested_mode(tmp_path, mode):
    inst = tmp_path / "t.json"
    run(["gen", "tight2", "--beta", 3, "--epsilon", "1e-6", "--out", inst])
    results = {}
    for method in ("two-agent", "brute"):
        out = tmp_path / f"{method}.json"
        assert run(["solve", "--in", inst, "--mode", mode, "--method", method,
                    "--out", out]) == 0
        results[method] = json.loads(out.read_text())
    two, brute = results["two-agent"], results["brute"]
    assert two["spec"] == {"mode": mode, "beta": None}
    assert (two["set"], two["utility"], two["payments"]) == (
        brute["set"], brute["utility"], brute["payments"])
    assert two["opt_reference"] == brute["opt_reference"]


def test_solve_delta_partition_single_agent_exit_2(tmp_path, capsys):
    inst = tmp_path / "one.json"
    assert run(["gen", "random-additive", "--n", 1, "--seed", 3, "--out", inst]) == 0
    assert run(["solve", "--in", inst, "--mode", "beta-nd", "--beta", 2,
                "--method", "delta-partition", "--out", tmp_path / "r.json"]) == 2
    assert "n >= 2" in capsys.readouterr().err


def test_solve_nd_and_beta_nd_one_write_the_same_set(tmp_path):
    """nd is beta = 1: on a geometric instance whose best sets lie an ulp
    apart, both commands write the same set and utility."""
    inst = _gen_geo(tmp_path, m=4, T=4.766237031887716)
    written = []
    for mode in (["--mode", "nd"], ["--mode", "beta-nd", "--beta", 1]):
        out = tmp_path / "r.json"
        assert run(["solve", "--in", inst, "--method", "brute", "--out", out, *mode]) == 0
        written.append(json.loads(out.read_text()))
    assert written[0]["set"] == written[1]["set"]
    assert written[0]["utility"] == written[1]["utility"]


def test_partitions_read_the_pay_ratio(tmp_path, capsys):
    """log-partition solves beta = 1 as nd; delta-partition needs beta > 1,
    as delta = log(beta) / log(n) must be positive."""
    inst = _gen_geo(tmp_path, m=3, T=3)
    sets = []
    for mode in (["--mode", "nd"], ["--mode", "beta-nd", "--beta", 1]):
        out = tmp_path / "r.json"
        assert run(["solve", "--in", inst, "--method", "log-partition", "--out", out, *mode]) == 0
        sets.append(json.loads(out.read_text())["set"])
    assert sets[0] == sets[1]
    capsys.readouterr()
    out = tmp_path / "d.json"
    assert run(["solve", "--in", inst, "--method", "delta-partition", "--mode", "beta-nd",
                "--beta", 1, "--out", out]) == 2
    _one_error_line(capsys, "beta > 1")
    assert not out.exists()


@pytest.mark.parametrize("key", ["n", "costs", "reward"])
def test_instance_file_missing_key_exit_2(tmp_path, capsys, key):
    """solve and check structure each refuse a file that lacks a key, or
    that has another version, with one error line."""
    full = {
        "version": "1", "n": 2, "costs": [0.1, 0.1],
        "reward": {"kind": "additive", "weights": [0.4, 0.4]},
        "metadata": {},
    }
    partial = {k: v for k, v in full.items() if k != key}
    inst = tmp_path / "partial.json"
    for data, words in ((partial, repr(key)),
                        ({**full, "version": "7"}, "unsupported instance file version '7'")):
        inst.write_text(json.dumps(data))
        for argv in (["solve", "--in", inst, "--mode", "nd", "--out", tmp_path / "r.json"],
                     ["check", "structure", "--in", inst]):
            assert run(argv) == 2
            _one_error_line(capsys, words)
    # a reward descriptor without its parameters is reported the same way
    inst.write_text(json.dumps({**partial, "reward": {"kind": "additive"}}))
    assert run(["check", "structure", "--in", inst]) == 2
    assert "'weights'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, patch",
    [
        ("weights", {"reward": {"kind": "additive", "weights": ["x", 0.4]}}),
        ("costs", {"costs": ["cheap", 0.1]}),
        ("n", {"n": "two"}),
        ("cap", {"reward": {"kind": "capped_additive", "weights": [0.4, 0.4], "cap": "x"}}),
        ("covers", {"reward": {"kind": "coverage", "elements": [{"weight": 0.5}],
                               "covers": [["a"], [0]]}}),
        ("f_a", {"n": 3, "costs": [0.1, 0.1, 0.1],
                 "reward": {"kind": "symmetric_two_class", "f_a": None, "f_b": 0.1,
                            "count_b": 2}}),
    ],
)
def test_instance_file_non_numeric_value_exit_2(tmp_path, capsys, key, patch):
    data = {
        "version": "1", "n": 2, "costs": [0.1, 0.1],
        "reward": {"kind": "additive", "weights": [0.4, 0.4]},
        "metadata": {},
        **patch,
    }
    inst = tmp_path / "bad.json"
    inst.write_text(json.dumps(data))
    assert run(["solve", "--in", inst, "--mode", "nd", "--out", tmp_path / "r.json"]) == 2
    err = capsys.readouterr().err
    assert repr(key) in err and "Traceback" not in err


@pytest.mark.parametrize(
    "data",
    [
        {"version": "1", "n": 2, "costs": [0.1, 0.1], "reward": "additive"},
        {"version": "1", "n": 2, "costs": [0.1, 0.1], "reward": [0.4, 0.4]},
        [{"version": "1", "n": 2}],
        "instance",
    ],
)
def test_non_object_json_exit_2(tmp_path, capsys, data):
    inst = tmp_path / "bad.json"
    inst.write_text(json.dumps(data))
    for argv in (["solve", "--in", inst, "--mode", "nd", "--out", tmp_path / "r.json"],
                 ["check", "structure", "--in", inst]):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "must be a JSON object" in err and "Traceback" not in err
        assert "lacks" not in err


def test_non_object_result_file_exit_2(tmp_path, capsys):
    inst = _gen_geo(tmp_path)
    res = tmp_path / "r.json"
    res.write_text(json.dumps([{"version": "1", "set": [0]}]))
    assert run(["check", "equilibrium", "--in", inst, "--result", res]) == 2
    err = capsys.readouterr().err
    assert "result file must be a JSON object" in err and "Traceback" not in err


def _geometric_file(tmp_path, edit):
    path = tmp_path / "geo.json"
    assert run(["gen", "geometric", "--m", 4, "--T", 3, "--out", path]) == 0
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize("metadata", [
    {"family": "geometric", "T": 3},
    {"family": "geometric", "m": 3, "T": 3},
    {"family": "geometric", "m": 5, "T": 3},
    {"family": "lemma9"},
    None,
], ids=["None", "3", "5", "other-family", "no-metadata"])
def test_geometric_method_reads_groups_from_the_weights(tmp_path, metadata):
    """A geometric file with no "m", a wrong one, another family's label
    or no metadata at all solves to the brute-force optimum: the groups
    and the family's shape are read from the reward's runs."""
    def set_metadata(data):
        del data["metadata"]
        if metadata is not None:
            data["metadata"] = metadata

    inst = _geometric_file(tmp_path, set_metadata)
    for mode in (["unconstrained"], ["nd"], ["beta-nd", "--beta", 4]):
        results = []
        for method in ("geometric", "brute"):
            out = tmp_path / f"{method}.json"
            assert run(["solve", "--in", inst, "--method", method, "--out", out,
                        "--mode", *mode]) == 0
            results.append(json.loads(out.read_text()))
        geo, brute = results
        assert geo["set"] == brute["set"]
        assert geo["utility"] == pytest.approx(brute["utility"], abs=1e-12)


def test_geometric_method_rejects_broken_doubling_runs(tmp_path, capsys):
    def halve_agent_2(data):
        data["reward"]["weights"][2] /= 2

    inst = _geometric_file(tmp_path, halve_agent_2)
    assert run(["solve", "--in", inst, "--mode", "nd", "--method", "geometric",
                "--out", tmp_path / "r.json"]) == 2
    assert "sizes 1, 2, 4" in capsys.readouterr().err


def test_geometric_method_rejects_a_labeled_file_off_the_family(tmp_path, capsys):
    """The fixture's runs have sizes 1, 2, 4 and its metadata claims the
    geometric family, but its weights and costs are not the family's;
    the class scan would return {0} at 0.38, where brute force finds
    {0, 3} at 0.4."""
    inst = FIXTURES / "geometric_label_off_family.json"
    out = tmp_path / "r.json"
    assert run(["solve", "--in", inst, "--method", "geometric", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "geometric family's runs" in err and not out.exists()
    assert run(["solve", "--in", inst, "--method", "brute", "--out", out]) == 0
    data = json.loads(out.read_text())
    assert data["set"] == [0, 3] and data["utility"] == pytest.approx(0.4)


def test_check_structure_pass(tmp_path, capsys):
    inst = tmp_path / "cov.json"
    run(["gen", "random-coverage", "--n", 6, "--seed", 3, "--out", inst])
    assert run(["check", "structure", "--in", inst]) == 0
    assert "pass" in capsys.readouterr().out


def test_check_structure_fail_with_witness(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "version": "1", "n": 2, "costs": [0.1, 0.1],
        "reward": {"kind": "explicit", "n": 2, "table": [0.0, 0.2, 0.2, 0.6]},
        "metadata": {},
    }))
    assert run(["check", "structure", "--in", bad]) == 1
    out = capsys.readouterr().out
    assert "submodular" in out and "witness" in out


def test_check_structure_checks_a_passing_explicit_table_once(tmp_path, capsys):
    """check structure reads the instance around the reward it checked, so
    the Instance's own check returns the kept report: one exhaustive check
    per run.  A failing table is checked once too, and the output stays."""
    from fairpay import rewards

    cov = build_instance("random-coverage", {"n": 10, "seed": 4})
    failing = [0.0, 0.2, 0.2, 0.6]
    for n, table, code in ((10, cov.reward.value_table().tolist(), 0), (2, failing, 1)):
        path = tmp_path / f"explicit-{n}.json"
        path.write_text(json.dumps({
            "version": "1", "n": n, "costs": [0.01] * n,
            "reward": {"kind": "explicit", "n": n, "table": table}, "metadata": {},
        }))
        with mock.patch.object(rewards, "StructureReport", wraps=rewards.StructureReport) as made:
            assert run(["check", "structure", "--in", path]) == code
        assert made.call_count == 1
        out = capsys.readouterr().out
        if code == 0:
            assert out == f"pass: monotone and submodular ({(n * (n + 1) << n) >> 2} checks)\n"
        else:
            assert out.startswith("fail: not submodular; witness S=[] T=[1] i=0")


def test_check_structure_sample_requires_seed(tmp_path, capsys):
    inst = tmp_path / "big.json"
    run(["gen", "lemma9", "--n", 1000, "--epsilon", "1e-6", "--out", inst])
    assert run(["check", "structure", "--in", inst, "--sample", 50]) == 2
    assert capsys.readouterr().err == "error: --sample requires an explicit --seed\n"
    assert run(["check", "structure", "--in", inst, "--sample", 50, "--seed", 1]) == 0
    capsys.readouterr()
    for sample in (0, -3):  # zero checks is no pass
        assert run(["check", "structure", "--in", inst, "--sample", sample, "--seed", 1]) == 2
        err = capsys.readouterr()
        assert "pass" not in err.out and "error: samples must be at least 1" in err.err


def test_check_equilibrium_on_solver_output(tmp_path, capsys):
    inst = _gen_geo(tmp_path)
    res = tmp_path / "r.json"
    run(["solve", "--in", inst, "--mode", "nd", "--method", "brute", "--out", res])
    assert run(["check", "equilibrium", "--in", inst, "--result", res]) == 0


def test_check_equilibrium_detects_violation(tmp_path, capsys):
    inst = _gen_geo(tmp_path)
    res = tmp_path / "r.json"
    run(["solve", "--in", inst, "--mode", "nd", "--method", "brute", "--out", res])
    data = json.loads(res.read_text())
    data["payments"] = [0.0] * 3  # zero payments cannot hold the set together
    res.write_text(json.dumps(data))
    assert run(["check", "equilibrium", "--in", inst, "--result", res]) == 1
    assert "prefers shirking" in capsys.readouterr().out


def test_check_equilibrium_report_uses_the_equilibrium_gains(tmp_path, capsys):
    from fairpay.contracts import COMPARE_TOL, Contract, effort_gains
    from fairpay.serialize import load_instance

    inst_path = tmp_path / "add.json"
    run(["gen", "random-additive", "--n", 5, "--seed", 3, "--out", inst_path])
    inst = load_instance(inst_path)
    mask = 0b11
    marginals = inst.reward.marginals(mask)
    # each agent's gain from effort sits just inside or just beyond the
    # tolerance: members 0 and 1 fall short, outsiders 2 and 3 gain
    pay = [0.0] * inst.n
    for i, gain in ((0, -0.5), (1, -2.0), (2, 2.0), (3, 0.5)):
        pay[i] = (inst.costs[i] + gain * COMPARE_TOL) / marginals[i]
    res = tmp_path / "r.json"
    res.write_text(json.dumps({"version": "1", "set": [0, 1], "payments": pay}))
    capsys.readouterr()
    assert run(["check", "equilibrium", "--in", inst_path, "--result", res]) == 1
    lines = capsys.readouterr().out.splitlines()
    gains = effort_gains(inst, Contract(pay), mask)
    assert abs(gains[:4] / COMPARE_TOL - [-0.5, -2.0, 2.0, 0.5]).max() < 1e-3
    assert [int(line.split()[2]) for line in lines] == [1, 2]


@pytest.mark.parametrize("patch, message", [
    ({"payments": [float("nan")] * 3}, "must lie in [0, 1]"),
    ({"payments": [0.1, float("inf"), 0.1]}, "must lie in [0, 1]"),
    ({"payments": [[0.1], [0.1], [0.1]]}, "malformed 'payments'"),
    ({"payments": [[0.1], 0.1, 0.1]}, "malformed 'payments'"),
    ({"payments": ["0.1", "0.1", "0.1"]}, "malformed 'payments'"),
    ({"payments": [True, False, False]}, "malformed 'payments'"),
    ({"set": "01"}, "malformed 'set'"),
    ({"set": [0.5]}, "malformed 'set'"),
    ({"set": [True]}, "malformed 'set'"),
], ids=["nan", "inf", "nested", "ragged", "strings", "bools", "set-string", "set-float",
        "set-bool"])
def test_malformed_result_files_exit_2(tmp_path, capsys, patch, message):
    """check equilibrium rejects a result file whose payments are not a
    flat list of n numbers in [0, 1], or whose set is not a list of agent
    indices: all-NaN payments used to pass, nested ones gave a traceback,
    and "01" was read as the set [0, 1]."""
    inst = _gen_geo(tmp_path)
    res = tmp_path / "r.json"
    run(["solve", "--in", inst, "--mode", "nd", "--method", "brute", "--out", res])
    res.write_text(json.dumps({**json.loads(res.read_text()), **patch}))
    capsys.readouterr()
    assert run(["check", "equilibrium", "--in", inst, "--result", res]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: ") and message in captured.err


@pytest.mark.parametrize("patch, message", [
    ({"costs": ["0.1", "0.1", "0.1"]}, "malformed 'costs'"),
    ({"costs": [[0.1, 0.1, 0.1]]}, "malformed 'costs'"),
    ({"reward": {"kind": "additive", "weights": [True, 0.5, 0.25]}}, "malformed 'weights'"),
    ({"reward": {"kind": "capped_additive", "weights": [0.5, 0.25, 0.25], "cap": "1"}},
     "malformed 'cap'"),
    ({"reward": {"kind": "coverage", "elements": [{"weight": "0.5"}], "covers": [[0]] * 3}},
     "malformed 'elements'"),
    ({"reward": {"kind": "coverage", "elements": [{"weight": 0.5}], "covers": ["0", [], []]}},
     "malformed 'covers'"),
    ({"reward": {"kind": "symmetric_two_class", "f_a": 0.5, "f_b": 0.1, "count_b": 2.5}},
     "malformed 'count_b'"),
    ({"metadata": [1, 2]}, "metadata must be a JSON object"),
    ({"metadata": "geometric"}, "metadata must be a JSON object"),
    ({"n": True}, "malformed 'n'"),
    ({"n": 3.7}, "malformed 'n'"),
    ({"n": "3"}, "malformed 'n'"),
], ids=["cost-strings", "nested-costs", "weight-bool", "cap-string", "weight-string",
        "cover-string", "count-fraction", "metadata-list", "metadata-string", "n-bool",
        "n-fraction", "n-string"])
def test_malformed_instance_fields_exit_2(tmp_path, capsys, patch, message):
    """Numbers given as strings or bools, nested lists, fractional counts,
    a metadata that is not an object, which Instance.label could not
    read, and an n that is a bool or not integral are rejected before
    anything is solved; an integral float n is read as that integer."""
    inst = _gen_geo(tmp_path)
    data = json.loads(inst.read_text())
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**data, **patch}))
    capsys.readouterr()
    assert run(["solve", "--in", bad, "--mode", "nd", "--out", tmp_path / "r.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    bad.write_text(json.dumps({**data, "n": float(data["n"]), "metadata": None}))
    assert run(["solve", "--in", bad, "--mode", "nd", "--out", tmp_path / "r.json"]) == 0


def test_check_equilibrium_needs_result(tmp_path, capsys):
    inst = _gen_geo(tmp_path)
    capsys.readouterr()
    assert run(["check", "equilibrium", "--in", inst]) == 2
    assert capsys.readouterr().err == "error: equilibrium check needs --result\n"


def test_check_parse_error_exit_2(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    for path in (broken, tmp_path / "missing.json"):
        assert run(["check", "structure", "--in", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_unreadable_files_exit_2(tmp_path, capsys):
    """A directory or a binary file where a file is read, and a directory
    where one is written, each exit 2 with one error line."""
    inst = _gen_geo(tmp_path)
    result = tmp_path / "r.json"
    assert run(["solve", "--in", inst, "--mode", "nd", "--out", result]) == 0
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\x89PNG\r\n\x1a\n\x00\xff\xfe")
    out = tmp_path / "out.json"
    capsys.readouterr()
    for argv in (
        ["solve", "--in", tmp_path, "--out", out],
        ["solve", "--in", binary, "--out", out],
        ["solve", "--in", inst, "--out", tmp_path],
        ["gen", "geometric", "--m", 2, "--T", 2, "--out", tmp_path],
        ["check", "structure", "--in", binary],
        ["check", "equilibrium", "--in", inst, "--result", binary],
        ["check", "equilibrium", "--in", inst, "--result", tmp_path],
        ["sweep", "--config", binary, "--out", tmp_path / "s.csv"],
        ["sweep", "--config", tmp_path, "--out", tmp_path / "s.csv"],
    ):
        assert run(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, argv


def test_sweep_config_values_must_be_numbers(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    for body, key in (
        ("family = geometric\nT = 3\ngrid = m\nvalues = 2, abc\n", "'values'"),
        ("family = random-additive\ngrid = n\nvalues = 4\nseed = 1.5\n", "'seed'"),
        ("family = geometric\nT = high\ngrid = m\nvalues = 2\n", "'T'"),
        # sizes are integers: neither a grid point nor a parameter is truncated
        ("family = random-additive\ngrid = n\nvalues = 4, 5.5\nseed = 1\n", "'values'"),
        ("family = geometric\nT = 3\ngrid = m\nvalues = 2, inf\n", "'values'"),
        ("family = geometric\nT = 3\nm = 3.7\ngrid = delta\nvalues = 0.5\n", "'m'"),
        ("family = random-additive\nn = 6.5\ngrid = beta\nvalues = 2\nseed = 1\n", "'n'"),
        # an integer literal too large for a float grid point
        (f"family = random-additive\ngrid = n\nvalues = 4, {10**400}\nseed = 1\n", "'values'"),
    ):
        cfg.write_text(body)
        assert run(["sweep", "--config", cfg, "--out", tmp_path / "s.csv"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and key in err


def test_sweep_command(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "family = tight2\nepsilon = 1e-6\ngrid = beta\nvalues = 1, 3, 8\n"
        "method_opt = two-agent\nmethod_nd = two-agent\n"
    )
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--config", cfg, "--out", out]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    assert "0 failures" in capsys.readouterr().out


def test_sweep_empty_grid_exit_2(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("family = tight2\ngrid = beta\nvalues =\n")
    assert run(["sweep", "--config", cfg, "--out", tmp_path / "s.csv"]) == 2


def test_sweep_random_family_requires_seed(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("family = random-additive\ngrid = n\nvalues = 4, 6\n")
    assert run(["sweep", "--config", cfg, "--out", tmp_path / "s.csv"]) == 2
    assert "seed" in capsys.readouterr().err
    cfg.write_text("family = random-additive\ngrid = n\nvalues = 4, 6\nseed = 3\n")
    assert run(["sweep", "--config", cfg, "--out", tmp_path / "s.csv"]) == 0


def test_sweep_unbuildable_shared_instance_exit_2(tmp_path, capsys):
    """A beta grid's one instance is built before the first point: a
    seed it cannot take exits 2 with one error line and writes no CSV."""
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("family = random-additive\nn = 5\nseed = -1\ngrid = beta\nvalues = 1, 2\n")
    assert run(["sweep", "--config", cfg, "--out", tmp_path / "s.csv"]) == 2
    _one_error_line(capsys, "seed must be nonnegative, got -1")
    assert not (tmp_path / "s.csv").exists()


def test_sweep_partial_failure_exit_1(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("family = geometric\nT = 3\ngrid = m\nvalues = 2, 0, 3\n")
    out = tmp_path / "s.csv"
    assert run(["sweep", "--config", cfg, "--out", out]) == 1
    assert "1 failures" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# a parameter that nothing reads exits 2

# a valid value of each parameter that some family takes
PARAMETER_VALUES = {"m": 2, "T": 3, "n": 4, "epsilon": 1e-6, "M": 30, "delta": 0.5, "beta": 2,
                    "seed": 1, "cost_margin": 0.5}
SYMMETRIC = "method_opt = symmetric\nmethod_nd = symmetric\n"
# per family, the flags of a valid gen command, and a valid sweep config
# in which a beta or delta key the family does not take sets nothing
FAMILY_CASES = {
    "geometric": ({"m": 2, "T": 3}, "T = 3\ngrid = m\nvalues = 2, 3\n"),
    "lemma8": ({"n": 1000, "M": 30, "delta": 0.5, "epsilon": 0.1},
               "M = 30\ndelta = 0.5\nepsilon = 0.1\ngrid = n\nvalues = 1000\n" + SYMMETRIC),
    "lemma9": ({"n": 1000}, "grid = n\nvalues = 1000, 1002\n" + SYMMETRIC),
    "tight2": ({"beta": 2}, "grid = beta\nvalues = 1, 3\nmethod_opt = two-agent\n"),
    "random-additive": ({"n": 4, "seed": 1}, "seed = 1\ngrid = n\nvalues = 3, 4\n"),
    "random-coverage": ({"n": 4, "seed": 2}, "seed = 2\ncost_margin = 0.3\ngrid = n\nvalues = 4\n"),
    "random-capped": ({"n": 5, "seed": 3}, "n = 5\nseed = 3\ngrid = beta\nvalues = 1, 2\n"),
}


def _gen_argv(family, params, out):
    flags = [arg for key, value in params.items() for arg in ("--" + key.replace("_", "-"), value)]
    return ["gen", family, *flags, "--out", out]


def _sweep(tmp_path, text):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(text)
    return run(["sweep", "--config", cfg, "--out", tmp_path / "s.csv"])


@pytest.mark.parametrize("family", FAMILIES)
def test_family_cases_are_valid(tmp_path, capsys, family):
    assert set(PARAMETER_VALUES) == {key for _, readers, _ in FAMILIES.values() for key in readers}
    params, config = FAMILY_CASES[family]
    assert run(_gen_argv(family, params, tmp_path / "x.json")) == 0
    assert _sweep(tmp_path, f"family = {family}\n{config}") == 0
    assert "0 failures" in capsys.readouterr().out


@pytest.mark.parametrize("family, key", [
    (family, key) for family, (_, readers, _) in FAMILIES.items()
    for key in PARAMETER_VALUES if key not in readers
])
def test_a_parameter_the_family_does_not_take_exits_2(tmp_path, capsys, family, key):
    """gen, build_instance and a sweep config each refuse a parameter
    that the family does not take, and name it."""
    params, config = FAMILY_CASES[family]
    out = tmp_path / "x.json"
    assert run(_gen_argv(family, {**params, key: PARAMETER_VALUES[key]}, out)) == 2
    _one_error_line(capsys, repr(key))
    assert not out.exists()
    with pytest.raises(ParameterError, match=repr(key)):
        build_instance(family, {**params, key: PARAMETER_VALUES[key]})
    assert _sweep(tmp_path, f"family = {family}\n{config}{key} = {PARAMETER_VALUES[key]}\n") == 2
    _one_error_line(capsys, repr(key))


RANDOM_N = "family = random-additive\nseed = 1\ngrid = n\nvalues = 5, 6\n"


# configs with a key that nothing reads, or that every point would fail
# on, and the words of the error that each gives
SWEEP_REFUSALS = {
    # a grid over a parameter the family does not take
    "n-grid-over-geometric": ("family = geometric\nm = 3\nT = 3\ngrid = n\nvalues = 3, 4, 5\n",
                              "'n'"),
    "m-grid-over-random": ("family = random-additive\nn = 5\nseed = 1\ngrid = m\nvalues = 2, 3\n",
                           "'m'"),
    "misspelt-key": (RANDOM_N + "cost_marign = 0.9\n", "'cost_marign'"),
    # a pay ratio that nothing reads: an nd sweep's, one a delta grid replaces, a second one
    "beta-in-nd": (RANDOM_N + "beta = 3\n", "'beta'"),
    "delta-in-nd": (RANDOM_N + "delta = 0.5\n", "'delta'"),
    "beta-over-delta-grid": (
        "family = random-additive\nn = 5\nseed = 1\ngrid = delta\nvalues = 0.5\nbeta = 2\n",
        "'beta'"),
    "beta-and-delta": (RANDOM_N + "mode = beta-nd\nbeta = 2\ndelta = 0.9\n",
                       "a beta or a delta parameter, not both"),
    "no-pay-ratio": (RANDOM_N + "mode = beta-nd\n", "need a beta or delta parameter"),
    # a constant pay ratio out of range would fail every point
    "beta-below-one": (RANDOM_N + "mode = beta-nd\nbeta = 0.5\n", "requires beta >= 1"),
    "negative-delta": (RANDOM_N + "mode = beta-nd\ndelta = -1\n", "delta parameter must be"),
    # nd mode over a grid of pay ratios
    "nd-over-delta-grid": (
        "family = geometric\nT = 3\nm = 3\ngrid = delta\nvalues = 0.5, 1\nmode = nd\n", "mode nd"),
    "nd-over-beta-grid": ("family = tight2\ngrid = beta\nvalues = 1, 3\nmode = nd\n", "mode nd"),
    # a parameter that the grid overwrites
    "n-and-n-grid": (RANDOM_N + "n = 4\n", "'n'"),
    "beta-and-beta-grid": ("family = tight2\nbeta = 2\ngrid = beta\nvalues = 1, 3\n", "'beta'"),
    # a method that solve_with does not know
    "unknown-method-nd": (RANDOM_N + "method_nd = brutal\n", "method_nd 'brutal'"),
    "unknown-method-opt": (RANDOM_N + "method_opt = brutal\n", "method_opt 'brutal'"),
    # a seed for a family that draws nothing
    "seed-for-geometric": ("family = geometric\nT = 3\ngrid = m\nvalues = 2\nseed = 4\n",
                           "'seed'"),
}


@pytest.mark.parametrize("case", SWEEP_REFUSALS)
def test_a_sweep_key_that_selects_nothing_exits_2(tmp_path, capsys, case):
    """Each config fails when it is read, with one error line that
    names what nothing reads, and writes no CSV."""
    config, words = SWEEP_REFUSALS[case]
    assert _sweep(tmp_path, config) == 2
    _one_error_line(capsys, words)
    assert not (tmp_path / "s.csv").exists()


# configs whose beta, delta or method each set something
SWEEP_READS = {
    "beta-over-n-grid": RANDOM_N + "mode = beta-nd\nbeta = 2\n",
    "delta-over-n-grid": RANDOM_N + "mode = beta-nd\ndelta = 0.5\n",
    "brute-force": RANDOM_N + "method_nd = brute-force\n",
    # lemma8's delta is its own parameter, and the pay ratio's too unless
    # a beta is given; a delta grid sets the pay ratio only
    "lemma8-delta": "family = lemma8\nM = 30\ndelta = 0.5\nepsilon = 0.1\ngrid = n\n"
                    "values = 1000\nmode = beta-nd\n" + SYMMETRIC,
    "lemma8-beta": "family = lemma8\nM = 30\ndelta = 0.5\nbeta = 3\nepsilon = 0.1\ngrid = n\n"
                   "values = 1000\nmode = beta-nd\n" + SYMMETRIC,
    "lemma8-delta-grid": "family = lemma8\nn = 1000\nM = 30\ndelta = 0.5\nepsilon = 0.1\n"
                         "grid = delta\nvalues = 0.5, 0.9\n" + SYMMETRIC,
    # tight2's beta is its own parameter under a delta grid
    "tight2-beta-delta-grid": "family = tight2\nbeta = 2\ngrid = delta\nvalues = 0.5, 1\n"
                              "method_nd = two-agent\n",
}


@pytest.mark.parametrize("case", SWEEP_READS)
def test_a_sweep_key_that_sets_something_runs(tmp_path, capsys, case):
    assert _sweep(tmp_path, SWEEP_READS[case]) == 0
    assert "0 failures" in capsys.readouterr().out


def test_bound_command(capsys):
    assert run(["bound", "--beta", 3]) == 0
    assert "1.5" in capsys.readouterr().out
    assert run(["bound", "--n", 100, "--delta", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "7" in out and "3" in out
    bad = (
        ["--n", 10, "--delta", 0],
        ["--n", 10, "--delta", -1],
        ["--n", 10, "--delta", 2],
        ["--n", 10, "--delta", "nan"],
        ["--n", 0],
        ["--n", -5],
        ["--n", 10, "--delta", "5e-324"],
        ["--n", 10**400, "--delta", "0.5"],
        ["--delta", "0.5"],
        ["--beta", 3, "--delta", "0.5"],
        ["--beta", "nan"],
        ["--beta", "inf"],
        ["--beta", "0.5"],
        [],
    )
    for argv in bad:
        assert run(["bound", *argv]) == 2, argv
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error: "), argv
    assert run(["bound", "--n", 1, "--delta", 1]) == 0
    assert "threshold partition denominator at delta=1: 2" in capsys.readouterr().out


def test_workers_env_default(tmp_path, monkeypatch):
    """FAIRPAY_WORKERS is not read: every command runs single threaded."""
    monkeypatch.setenv("FAIRPAY_WORKERS", "3")
    inst = _gen_geo(tmp_path, m=3, T=3)
    out = tmp_path / "r.json"
    assert run(["solve", "--in", inst, "--mode", "nd", "--method", "brute",
                "--out", out]) == 0
    assert json.loads(out.read_text())["utility"] == pytest.approx(4.0 / 9.0)
