"""JSON file formats and the sweep configuration parser.

Instance files carry the agent count, costs, a reward descriptor, and
free-form metadata; result files carry a solved contract.  Everything is
plain JSON so witnesses stay inspectable.  Floats survive a round trip
exactly (Python's default float repr is shortest-exact).
"""

from __future__ import annotations

import json
import math

from .contracts import Contract, Instance
from .errors import ParameterError
from .experiments import SweepSpec
from .rewards import as_mask, json_object, read_field, read_floats, read_int, reward_from_descriptor
from .solvers import SolveReport

FILE_VERSION = "1"


def instance_to_dict(inst: Instance) -> dict:
    return {
        "version": FILE_VERSION,
        "n": inst.n,
        "costs": inst.costs.tolist(),
        "reward": inst.reward.descriptor(),
        "metadata": inst.metadata or {},
    }


def instance_from_dict(data: dict) -> Instance:
    return _instance_from_dict(data, None)


def _instance_from_dict(data: dict, reward) -> Instance:
    """instance_from_dict around reward, if not None, built from data's descriptor."""
    if json_object(data, "instance file").get("version") != FILE_VERSION:
        raise ParameterError(f"unsupported instance file version {data.get('version')!r}")
    missing = [key for key in ("n", "costs", "reward") if key not in data]
    if missing:
        raise ParameterError(f"instance file lacks the required key(s) {missing}")
    metadata = data.get("metadata")
    if metadata is not None:
        json_object(metadata, "instance file's metadata")
    return Instance(
        n=read_field(data, "n", read_int, "instance file"),
        costs=read_field(data, "costs", read_floats, "instance file"),
        reward=reward_from_descriptor(data["reward"]) if reward is None else reward,
        metadata=metadata or None,
    )


def _dumps(value, level: int = 0) -> str:
    """json.dumps(value, indent=2) nested level deep, byte for byte.

    Dicts with string keys and lists are laid out here, one item per
    line; a flat list of ints, or of finite floats, is joined from their
    reprs, as json writes them, instead of passing the pure-Python
    encoder item by item.  Anything else goes to json.dumps and is
    indented to its level: json escapes newlines inside strings, so each
    line break it writes starts a line of its layout.
    """
    pad = "\n" + "  " * (level + 1)
    if type(value) is dict and value and all(type(key) is str for key in value):
        items = (json.dumps(key) + ": " + _dumps(item, level + 1) for key, item in value.items())
        return "{" + pad + ("," + pad).join(items) + pad[:-2] + "}"
    if type(value) is list and value:
        kinds = set(map(type, value))
        if kinds == {int} or kinds == {float} and all(map(math.isfinite, value)):
            items = map(kinds.pop().__repr__, value)
        else:
            items = (_dumps(item, level + 1) for item in value)
        return "[" + pad + ("," + pad).join(items) + pad[:-2] + "]"
    return json.dumps(value, indent=2).replace("\n", "\n" + "  " * level)


def _save(data: dict, path) -> None:
    with open(path, "w") as handle:
        handle.write(_dumps(data) + "\n")


def save_instance(inst: Instance, path) -> None:
    _save(instance_to_dict(inst), path)


def load_instance(path) -> Instance:
    with open(path) as handle:
        return instance_from_dict(json.load(handle))


def report_to_dict(report: SolveReport, timing_ms: float | None = None) -> dict:
    out = {
        "version": FILE_VERSION,
        "spec": {"mode": report.spec.mode, "beta": report.spec.beta},
        "method": report.method,
        "set": report.best.member_list(),
        "payments": report.best.payments.payments.tolist(),
        "utility": report.best.utility,
        "opt_reference": report.opt_reference,
        "timing_ms": timing_ms,
    }
    return out


def save_report(report: SolveReport, path, timing_ms: float | None = None) -> None:
    _save(report_to_dict(report, timing_ms), path)


def load_result(path) -> dict:
    with open(path) as handle:
        data = json_object(json.load(handle), "result file")
    if data.get("version") != FILE_VERSION:
        raise ParameterError(f"unsupported result file version {data.get('version')!r}")
    return data


def result_contract(data: dict, n: int) -> tuple[Contract, int]:
    """Contract and member bitmask from a loaded result file: payments
    are a flat list of n numbers in [0, 1], and the set a list of agent
    indices."""
    payments = read_field(data, "payments", read_floats, "result file")
    if payments.size != n:
        raise ParameterError(
            f"result payments have length {payments.size}, instance has n={n}"
        )
    members = read_field(data, "set", lambda s: [read_int(i) for i in s], "result file")
    return Contract(payments), as_mask(members, n)


# ---------------------------------------------------------------------------
# sweep configuration: flat "key = value" lines, '#' comments

def _number(raw: str):
    """A number in a config value: an int, read exactly, when it is all
    digits, and else a float."""
    return int(raw) if raw.isdigit() else float(raw)


def parse_sweep_config(text: str) -> SweepSpec:
    """Parse a sweep configuration.

    Recognized keys: family, grid, values (comma-separated), mode,
    method_opt, method_nd, and parameters, each read as a number;
    SweepSpec works out the mode the config leaves out, reads the
    parameters as the family does, and refuses those that nothing reads.
    """
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ParameterError(f"line {lineno}: empty key or value")
        entries[key] = value

    if "family" not in entries:
        raise ParameterError("sweep config needs a family")
    if "grid" not in entries:
        raise ParameterError("sweep config needs a grid parameter")
    family = entries.pop("family")
    grid = entries.pop("grid")

    def field(key, convert):
        """The entry, removed and converted; ParameterError naming the key
        if convert rejects it."""
        return read_field({key: entries.pop(key)}, key, convert, "sweep config")

    def points(raw):
        """The grid points, as floats, which run_sweep's error records print."""
        return [float(_number(v)) for v in raw.split(",") if v.strip()]

    grid_values = field("values", points) if "values" in entries else []
    mode = entries.pop("mode", "").replace("-", "_") or None
    method_opt = entries.pop("method_opt", "brute").replace("-", "_")
    method_nd = entries.pop("method_nd", "brute").replace("-", "_")
    params = {key: field(key, _number) for key in list(entries)}

    return SweepSpec(
        family=family,
        params=params,
        grid_param=grid,
        grid_values=grid_values,
        methods=(method_opt, method_nd),
        mode=mode,
    )


def load_sweep_config(path) -> SweepSpec:
    with open(path) as handle:
        return parse_sweep_config(handle.read())
