"""CLI fuzz tests: mutated instance, result and sweep files, and gen
commands with one flag replaced, either run or exit 2 with one error
line; no exception escapes main.

Every mutation is one edit of a small valid file or command.  Sizes stay
capped: a huge int only replaces fields read before anything is
allocated from them, and a sweep's counts, like gen's --m and --n, are
replaced by small ones only, since gen and a sweep build the instance
their m or n asks for.
"""

import contextlib
import io
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fairpay.cli import main
from fairpay.experiments import FAMILIES

# the values a JSON field is replaced by: other types, non-finite and
# fractional numbers, and ints beyond int64
JSON_VALUES = [
    None, True, False, "x", "1", [], {}, math.nan, math.inf, -math.inf,
    0, -1, 1, 0.5, 1.5, 1e308, 2**63, -(2**63), 10**30,
]
# the values a sweep config entry is replaced by; its numbers stay small
SWEEP_VALUES = [
    "abc", "nan", "inf", "-inf", "1e400", "-1", "0", "2", "1.5", "0.5", "true",
    "2, abc", "3,", ",", "geometric", "tight2", "random-additive", "n", "m", "beta",
    "brute", "symmetric", "two-agent", "nd", "beta-nd",
]

# the values a gen flag is replaced by, by the flag's type; --m and --n
# stay at most 6 and 64, but for ints far above MAX_AGENTS, refused
# before anything is allocated
GEN_FLOATS = [-1.0, 0.0, 0.5, 1.0, 2.0, 30.0, 1e308, -1e308, 5e-324, math.nan, math.inf, -math.inf]
GEN_INTS = {
    "--m": [-1, 0, 1, 6, 10**30],
    "--n": [-1, 0, 1, 2, 3, 64, 10**30],
    "--seed": [-1, 0, 2**70, -(2**70)],
}
GEN_FLAGS = [*GEN_INTS, "--T", "--M", "--beta", "--delta", "--epsilon", "--cost-margin"]
GEN_COMMANDS = [
    ["geometric", "--m", "2", "--T", "2"],
    ["lemma8", "--n", "1000", "--M", "30", "--delta", "0.5", "--epsilon", "0.1"],
    ["lemma9", "--n", "1000", "--epsilon", "1e-6"],
    ["tight2", "--beta", "2", "--epsilon", "1e-6"],
    ["random-additive", "--n", "4", "--seed", "1"],
    ["random-coverage", "--n", "4", "--seed", "2", "--cost-margin", "0.5"],
    ["random-capped", "--n", "4", "--seed", "3"],
]

INSTANCES = {
    "geometric": ["gen", "geometric", "--m", "2", "--T", "2"],
    "additive": ["gen", "random-additive", "--n", "4", "--seed", "1"],
    "coverage": ["gen", "random-coverage", "--n", "4", "--seed", "2"],
    "capped": ["gen", "random-capped", "--n", "4", "--seed", "3"],
    "tight2": ["gen", "tight2", "--beta", "2"],
}
WRITTEN = {
    "explicit": {
        "version": "1", "n": 2, "costs": [0.05, 0.1],
        "reward": {"kind": "explicit", "n": 2, "table": [0.0, 0.4, 0.5, 0.7]},
        "metadata": {"label": "explicit"},
    },
    "two-class": {
        "version": "1", "n": 4, "costs": [0.1, 0.01, 0.01, 0.01],
        "reward": {"kind": "symmetric_two_class", "f_a": 0.35, "f_b": 0.08, "count_b": 3},
        "metadata": {"family": "lemma9", "n": 4, "epsilon": 1e-06},
    },
}
SWEEPS = [
    "family = geometric\nT = 3\ngrid = m\nvalues = 2, 3\nmethod_nd = geometric\n",
    "family = random-coverage\ngrid = n\nvalues = 3, 4\nseed = 1\ncost_margin = 0.5\n",
    "family = tight2\nepsilon = 1e-6\ngrid = beta\nvalues = 1, 3\n"
    "method_opt = two-agent\nmethod_nd = two-agent\n",
    "family = random-additive\nn = 4\nseed = 2\ngrid = delta\nvalues = 0.5, 1\n",
]

# a valid value of each family parameter: the lines added, one at a
# time, to a valid sweep config, with mode = nd and an unknown method
SWEEP_PARAMETERS = {"m": 2, "T": 3, "n": 4, "epsilon": 1e-6, "M": 30, "delta": 0.5, "beta": 2,
                    "seed": 1, "cost_margin": 0.5}
SWEEP_LINES = [*(f"{key} = {value}" for key, value in SWEEP_PARAMETERS.items()),
               "mode = nd", "method_nd = brutal"]


def _run(argv):
    """main(argv)'s exit code and stderr; any exception escapes."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


def _check(argv):
    """main(argv)'s exit code, asserted to be one of the documented ones."""
    code, err = _run(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    assert "Traceback" not in err
    return code


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Valid instance files, each with the result of its nd solve."""
    root = tmp_path_factory.mktemp("fuzz")
    out = {}
    for name, argv in INSTANCES.items():
        path = root / f"{name}.json"
        assert _run([*argv, "--out", path])[0] == 0
        out[name] = path
    for name, data in WRITTEN.items():
        out[name] = root / f"{name}.json"
        out[name].write_text(json.dumps(data))
    results = {}
    for name, path in out.items():
        results[name] = root / f"{name}.result.json"
        assert _run(["solve", "--in", path, "--mode", "nd", "--out", results[name]])[0] in (0, 3)
    return root, out, results


def _paths(data, path=()):
    """Every position in a JSON value, as a tuple of keys and indices."""
    yield path
    items = data.items() if isinstance(data, dict) else enumerate(data) if isinstance(data, list) else ()
    for key, value in items:
        yield from _paths(value, (*path, key))


@st.composite
def _mutated_json(draw, data):
    """The text of data with one edit: a field replaced, nested, cut
    short, lengthened or deleted, or the whole text truncated."""
    data = json.loads(json.dumps(data))
    path = draw(st.sampled_from(list(_paths(data))))
    edit = draw(st.sampled_from(["replace", "nest", "shorten", "lengthen", "delete", "truncate"]))
    if edit == "truncate":
        text = json.dumps(data)
        return text[: draw(st.integers(0, len(text) - 1))]
    if not path:
        return json.dumps(draw(st.sampled_from(JSON_VALUES)))
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    key, old = path[-1], parent[path[-1]]
    if edit == "delete":
        del parent[key]
    elif edit == "nest":
        parent[key] = [old]
    elif edit in ("shorten", "lengthen") and isinstance(old, list):
        parent[key] = old[:-1] if edit == "shorten" else old + old[-1:]
    else:
        parent[key] = draw(st.sampled_from(JSON_VALUES))
    return json.dumps(data)


@st.composite
def _mutated_sweep(draw):
    """A valid sweep config with one line replaced, deleted, repeated or
    added, or with one value replaced by a small one."""
    lines = draw(st.sampled_from(SWEEPS)).splitlines()
    at = draw(st.integers(0, len(lines) - 1))
    edit = draw(st.sampled_from(["value", "key", "delete", "repeat", "junk", "truncate"]))
    key, value = (part.strip() for part in lines[at].split("=", 1))
    if edit == "value":
        lines[at] = f"{key} = {draw(st.sampled_from(SWEEP_VALUES))}"
    elif edit == "key":
        new = draw(st.sampled_from(["m", "n", "T", "M", "beta", "delta", "seed", "mode", "grid"]))
        lines[at] = f"{new} = {value}"
    elif edit == "delete":
        del lines[at]
    elif edit == "repeat":
        lines.insert(at, lines[at])
    elif edit == "junk":
        lines.insert(at, draw(st.sampled_from(["garbage", "= 3", "key =", "a = b = c", "# x"])))
    text = "\n".join(lines)
    return text[: draw(st.integers(0, len(text)))] if edit == "truncate" else text


_fuzz = settings(max_examples=150, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


@_fuzz
@given(data=st.data())
def test_mutated_instance_files_solve_or_exit_2(files, data):
    root, instances, _ = files
    name = data.draw(st.sampled_from(sorted(instances)))
    bad = root / "bad-instance.json"
    bad.write_text(data.draw(_mutated_json(json.loads(instances[name].read_text()))))
    nd = _check(["solve", "--in", bad, "--mode", "nd", "--out", root / "bad.result.json"])
    _check(["solve", "--in", bad, "--mode", "beta-nd", "--beta", "2", "--out",
            root / "bad.result.json"])
    # check structure passes only a file that solve reads
    assert _check(["check", "structure", "--in", bad]) != 0 or nd in (0, 3)


@_fuzz
@given(data=st.data())
def test_mutated_result_files_check_or_exit_2(files, data):
    root, instances, results = files
    name = data.draw(st.sampled_from(sorted(results)))
    bad = root / "bad-result.json"
    bad.write_text(data.draw(_mutated_json(json.loads(results[name].read_text()))))
    _check(["check", "equilibrium", "--in", instances[name], "--result", bad])


@_fuzz
@given(text=_mutated_sweep())
def test_mutated_sweep_configs_run_or_exit_2(files, text):
    root = files[0]
    cfg = root / "bad.cfg"
    cfg.write_text(text)
    _check(["sweep", "--config", cfg, "--out", root / "bad.csv"])


@pytest.mark.parametrize("base", range(len(SWEEPS)))
def test_a_sweep_key_added_runs_or_exits_2(tmp_path, base):
    """A valid config with one more key, each in turn, either runs or is
    refused as a config error; no added key fails point by point."""
    assert set(SWEEP_PARAMETERS) == {key for _, readers, _ in FAMILIES.values() for key in readers}
    cfg = tmp_path / "added.cfg"
    failed = []
    for line in SWEEP_LINES:
        cfg.write_text(f"{SWEEPS[base]}{line}\n")
        code, err = _run(["sweep", "--config", cfg, "--out", tmp_path / "added.csv"])
        if code != 0 and not (code == 2 and err.startswith("error: ") and err.count("\n") == 1):
            failed.append((line, code, err))
    assert failed == []


@pytest.mark.parametrize("n", [63, 2**63, 10**30, 1e308])
def test_huge_explicit_n_exit_2(files, n):
    """An explicit table's n is compared with its size without building
    2^n: the fuzzer found that 2^63 gave a MemoryError and 10^30 an
    OverflowError."""
    root = files[0]
    bad = root / "huge-n.json"
    bad.write_text(json.dumps({**WRITTEN["explicit"],
                               "reward": {**WRITTEN["explicit"]["reward"], "n": n}}))
    for argv in (["solve", "--in", bad, "--mode", "nd", "--out", root / "r.json"],
                 ["check", "structure", "--in", bad]):
        code, err = _run(argv)
        assert code == 2 and err.count("\n") == 1 and "needs exactly 2^" in err


def test_gen_with_one_flag_replaced_writes_or_exits_2(tmp_path):
    """gen either writes its instance or exits 2 with one error line, when
    one flag of a valid command, given or not, takes another value; every
    such edit is run."""
    out = tmp_path / "gen.json"
    failed = []
    for base in GEN_COMMANDS:
        for flag in GEN_FLAGS:
            for value in GEN_INTS.get(flag, GEN_FLOATS):
                argv = list(base)
                if flag in argv:
                    del argv[argv.index(flag) : argv.index(flag) + 2]
                argv.append(f"{flag}={value!r}")  # "=": argparse reads -1e+308 as a flag
                out.unlink(missing_ok=True)
                try:
                    code, err = _run(["gen", *argv, "--out", out])
                except Exception as exc:  # noqa: BLE001 - collected, to list every failing edit
                    failed.append((argv, repr(exc)))
                    continue
                one_line = err.startswith("error: ") and err.count("\n") == 1
                if code not in (0, 2) or out.exists() != (code == 0) or code == 2 and not one_line:
                    failed.append((argv, code, err))
    assert failed == []
