"""Reward oracle tests: evaluation, marginals, and structure checking."""

import time
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairpay.contracts import Contract, IncentiveOutcome
from fairpay.errors import InvalidSubsetError, ParameterError, SizeLimitError
from fairpay import rewards
from fairpay.families import gen_geometric_family, gen_random
from fairpay.rewards import (
    Additive,
    CappedAdditive,
    Coverage,
    ExplicitTable,
    SymmetricTwoClass,
    as_mask,
    check_structure,
    mask_to_indices,
)

STRUCT_TOL = 1e-12


def test_additive_eval():
    f = Additive([0.5, 0.5])
    assert f.value([0, 1]) == pytest.approx(1.0, abs=1e-12)
    assert f.value(0) == 0.0
    assert f.value([1]) == pytest.approx(0.5)


def test_empty_set_is_zero_for_all_kinds():
    kinds = [
        Additive([0.3, 0.4]),
        CappedAdditive([0.7, 0.7], 1.0),
        Coverage([0.5, 0.5], [[0], [1]]),
        ExplicitTable(2, [0.0, 0.2, 0.3, 0.4]),
        SymmetricTwoClass(0.5, 0.1, 3),
    ]
    for f in kinds:
        assert f.value(0) == 0.0


def test_two_class_is_additive_over_its_weight_vector():
    """A two-class reward holds the weights [f_a, f_b, ...] and answers
    Additive's oracles from them, with the values its own formulas gave;
    value() stays its O(1) count, and its descriptor and kind are its own."""
    f = SymmetricTwoClass(0.4, 0.05, 6)
    assert isinstance(f, Additive) and f.kind == "symmetric_two_class"
    assert f.weights.tolist() == [0.4] + [0.05] * 6 and not f.weights.flags.writeable
    for mask in (0, 0b1, 0b1010110, 0b1111111):
        assert f.marginals(mask).tobytes() == np.array([0.4] + [0.05] * 6).tobytes()
        assert [f.marginal(i, mask) for i in range(7)] == [0.4] + [0.05] * 6
        assert f.value(mask) == (mask & 1) * 0.4 + (mask >> 1).bit_count() * 0.05
    assert f.descriptor() == {"kind": "symmetric_two_class", "f_a": 0.4, "f_b": 0.05, "count_b": 6}


def test_geometric_family_singleton_value():
    inst = gen_geometric_family(2, 2)
    assert inst.reward.value([0]) == pytest.approx(0.5)  # group-1 agent


def test_marginal_additive():
    f = Additive([0.5, 0.5])
    assert f.marginal(1, [0]) == pytest.approx(0.5)


def test_marginal_capped():
    f = CappedAdditive([0.7, 0.7], 1.0)
    assert f.marginal(1, [0]) == pytest.approx(0.3)  # min(1, 1.4) - 0.7


def test_marginal_null_agent():
    f = Additive([0.4, 0.0, 0.3])
    assert f.marginal(1, [0, 2]) == 0.0


def test_marginal_removes_member_first():
    f = Additive([0.2, 0.3])
    assert f.marginal(0, [0, 1]) == pytest.approx(f.marginal(0, [1]))


def test_subset_encoding_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(1, 13))
        f = gen_random("additive", n, seed=int(rng.integers(0, 1000))).reward
        mask = int(rng.integers(0, 1 << n))
        assert f.value(mask) == f.value(mask_to_indices(mask))


def test_invalid_subset_errors():
    f = Additive([0.5, 0.5])
    with pytest.raises(InvalidSubsetError):
        f.value([2])
    with pytest.raises(InvalidSubsetError):
        f.value(1 << 2)
    with pytest.raises(InvalidSubsetError):
        f.marginal(5, 0)


def test_construction_rejections():
    with pytest.raises(ParameterError):
        Additive([0.8, 0.8])  # sums above 1
    with pytest.raises(ParameterError):
        Additive([-0.1, 0.5])
    with pytest.raises(ParameterError):
        ExplicitTable(2, [0.1, 0.2, 0.3, 0.4])  # f(empty) != 0
    with pytest.raises(ParameterError):
        ExplicitTable(2, [0.0, 0.2, 0.3])  # missing entries
    with pytest.raises(ParameterError):
        CappedAdditive([0.2], cap=1.5)
    with pytest.raises(ParameterError):
        Coverage([0.5, 0.6], [[0], [1]])  # element weights above 1
    with pytest.raises(ParameterError):
        SymmetricTwoClass(0.9, 0.2, 2)  # total above 1


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize(
    "build",
    [
        lambda x: Additive([0.2, x]),
        lambda x: CappedAdditive([x, 0.2], cap=0.5),
        lambda x: Coverage([0.3, x], [[0], [1]]),
        lambda x: ExplicitTable(2, [0.0, 0.2, x, 0.4]),
        lambda x: SymmetricTwoClass(x, 0.1, 2),
        lambda x: SymmetricTwoClass(0.1, x, 2),
    ],
    ids=["additive", "capped", "coverage", "explicit", "two_class_a", "two_class_b"],
)
def test_construction_rejects_non_finite(build, bad):
    # NaN slips past every range comparison, so it must be caught by name
    with pytest.raises(ParameterError, match="finite"):
        build(bad)


def test_check_structure_additive_passes():
    report = check_structure(Additive([0.3, 0.4]))
    assert report.monotone and report.submodular
    assert report.witness is None
    assert report.checks > 0


def test_check_structure_coverage_passes():
    f = Coverage([0.2, 0.3, 0.4], [[0, 1], [1, 2], [0, 2]])
    report = check_structure(f)
    assert report.monotone and report.submodular


def test_check_structure_supermodular_witness():
    f = ExplicitTable(2, [0.0, 0.2, 0.2, 0.6])
    report = check_structure(f)
    assert report.monotone
    assert not report.submodular
    assert report.violated == "submodular"
    s, t, i = report.witness
    # the witness must actually violate decreasing marginals when re-evaluated
    assert t == s | (t & ~s) and not (t >> i) & 1
    gain_small = f.value(s | (1 << i)) - f.value(s)
    gain_large = f.value(t | (1 << i)) - f.value(t)
    assert gain_large > gain_small + STRUCT_TOL


def test_check_structure_monotone_witness():
    # adding agent 1 to {0} lowers the value
    f = ExplicitTable(2, [0.0, 0.5, 0.1, 0.3])
    report = check_structure(f)
    assert not report.monotone
    assert report.violated == "monotone"
    s, t, i = report.witness
    assert f.value(t) < f.value(s) - STRUCT_TOL


def test_check_structure_size_limit_and_sampling():
    f = Additive(np.full(23, 0.04))  # one agent above the exhaustive limit
    with pytest.raises(SizeLimitError):
        check_structure(f)
    with pytest.raises(ParameterError):
        check_structure(f, samples=100)  # no seed
    report = check_structure(f, samples=100, seed=3)
    assert report.monotone and report.submodular
    assert report.checks == 200  # one monotone + one submodular condition per sample
    for samples in (0, -1):  # no check would pass vacuously
        with pytest.raises(ParameterError, match="samples must be at least 1"):
            check_structure(f, samples=samples, seed=3)


@pytest.mark.parametrize("kind", ["additive", "coverage", "capped_additive"])
def test_by_construction_kinds_are_monotone_submodular(kind):
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        f = gen_random(kind, n, seed=int(rng.integers(0, 10_000))).reward
        report = check_structure(f)
        assert report.monotone and report.submodular, report


@pytest.mark.parametrize("kind", ["additive", "coverage", "capped_additive"])
def test_eval_marginal_consistency(kind):
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(2, 10))
        f = gen_random(kind, n, seed=int(rng.integers(0, 10_000))).reward
        for _ in range(20):
            mask = int(rng.integers(0, 1 << n))
            i = int(rng.integers(0, n))
            base = mask & ~(1 << i)
            assert f.value(base | (1 << i)) == pytest.approx(
                f.value(base) + f.marginal(i, base), abs=1e-12
            )
            assert f.marginal(i, base) >= -1e-12


def test_values_stay_in_unit_interval():
    for kind in ("additive", "coverage", "capped_additive"):
        f = gen_random(kind, 8, seed=41).reward
        table = f.value_table()
        assert table.min() >= 0.0 and table.max() <= 1.0


def test_value_table_matches_pointwise_eval():
    for kind in ("additive", "coverage", "capped_additive"):
        f = gen_random(kind, 7, seed=13).reward
        table = f.value_table()
        for mask in range(1 << 7):
            assert table[mask] == pytest.approx(f.value(mask), abs=1e-12)
    # additive tables add the weights in agent order from 0.0, as np.sum
    # does below 8 terms, so they agree bit for bit; weights totalling
    # above 1 or the cap are clipped like the pointwise values
    for f in (
        gen_random("additive", 7, seed=13).reward,
        gen_random("capped_additive", 7, seed=13).reward,
        Additive([0.6, 0.4 + 5e-10]),
        CappedAdditive([0.3, 0.25, 0.2, 0.1], 0.5),
    ):
        assert np.array_equal(f.value_table(), [f.value(mask) for mask in range(1 << f.n)])
    # and they are byte-identical to the former build, which concatenated
    # the table with itself plus each weight and clipped a copy
    for f in (gen_random("additive", 12, seed=5).reward, SymmetricTwoClass(0.3, 0.05, 11),
              CappedAdditive(np.full(12, 0.1), 0.75)):
        former = np.zeros(1)
        for w in f.weights:
            former = np.concatenate([former, former + w])
        cap = getattr(f, "cap", 1.0)
        assert f.value_table().tobytes() == np.clip(former, 0.0, cap).tobytes()
    # coverage tables add element weights chunk by chunk, as the
    # pointwise evaluation does, so they agree bit for bit; also with one
    # agent, with an element every agent covers, and above 64 elements
    rng = np.random.default_rng(13)
    weights = rng.uniform(0.0, 1.0, 70)
    coverages = [
        gen_random("coverage", 7, seed=13).reward,
        gen_random("coverage", 1, seed=13).reward,
        Coverage(weights / weights.sum(), [[0, 5, 69], [0, 1, 68], list(range(0, 70, 3))]),
    ]
    for f in coverages:
        table = f.value_table()
        assert np.array_equal(table, [f.value(mask) for mask in range(1 << f.n)])
    # and byte-identical to a plain loop in that order, past one row of
    # 2^ROW_BITS masks and past one gather block: every mask up to
    # n = 12, and a sample of them above
    rng = np.random.default_rng(19)
    for n in range(1, 19):
        f = gen_random("coverage", n, seed=n).reward
        masks = np.arange(1 << n) if n <= 12 else rng.integers(0, 1 << n, 2000)
        assert f.value_table()[masks].tobytes() == _chunk_loop_values(f, masks).tobytes()
    sym = SymmetricTwoClass(0.4, 0.05, 6)
    table = sym.value_table()
    for mask in range(1 << 7):
        assert table[mask] == pytest.approx(sym.value(mask), abs=1e-12)


def _chunk_loop_values(f, masks):
    """Coverage values as a plain loop, the reference: the covered weights
    of each chunk of CHUNK elements added in ascending order from 0.0,
    then the chunk sums in chunk order, clipped to [0, 1]."""
    covers = [sum(1 << e for e in cover) for cover in f.covers]
    weights = f.element_weights.tolist()
    out = []
    for mask in masks.tolist():
        covered = 0
        for i in mask_to_indices(mask):
            covered |= covers[i]
        total = 0.0
        for start in range(0, len(weights), rewards.CHUNK):
            chunk = 0.0
            for e in range(start, min(start + rewards.CHUNK, len(weights))):
                if covered >> e & 1:
                    chunk += weights[e]
            total += chunk
        out.append(min(max(total, 0.0), 1.0))
    return np.array(out)


def test_dense_table_is_shared_and_read_only():
    f = gen_random("coverage", 9, seed=2).reward
    table = rewards.dense_table(f)
    assert rewards.dense_table(f) is table
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[1] = 0.5
    # the public builder still returns a fresh writable array of the same bytes
    fresh = f.value_table()
    assert fresh is not table and fresh is not f.value_table()
    assert fresh.flags.writeable
    assert fresh.tobytes() == table.tobytes()


def test_dense_table_of_each_new_reward_is_its_own():
    for kind in ("additive", "coverage", "capped_additive"):
        for seed in range(4):
            f = gen_random(kind, 7, seed=seed).reward
            assert rewards.dense_table(f).tobytes() == f.value_table().tobytes()
    # the slot holds its reward strongly, so a reward dropped by its caller
    # cannot die and pass its id on to the next one (b's arguments are made
    # first, so that b itself would take a's freed memory, and so its id)
    for k in range(2, 7):
        a = Coverage([0.125 * k, 0.125], [[0], [1], [0, 1]])
        a_table = rewards.dense_table(a).tobytes()
        weights, covers = [0.125, 0.125 * k], [[0], [1], [0, 1]]
        del a  # freed at once: nothing else refers to it
        b = Coverage(weights, covers)
        assert rewards.dense_table(b).tobytes() == b.value_table().tobytes() != a_table


def test_dense_table_frees_the_old_table_before_building():
    a = gen_random("coverage", 10, seed=1).reward
    b = gen_random("additive", 10, seed=1).reward
    old = weakref.ref(rewards.dense_table(a))
    build = Additive.value_table

    def checked_build(self):
        assert old() is None  # at most one table is alive during a build
        return build(self)

    with mock.patch.object(Additive, "value_table", checked_build):
        rewards.dense_table(b)
    assert old() is None


def test_as_mask_rejects_bad_indices():
    with pytest.raises(InvalidSubsetError):
        as_mask([-1], 4)
    with pytest.raises(InvalidSubsetError):
        as_mask(16, 4)
    assert as_mask([0, 3], 4) == 0b1001
    # the first bad index in iteration order is the one named
    for bad, first in (([2, 7, -1], 7), ((i for i in (1, -3, 9)), -3), (np.array([4]), 4)):
        with pytest.raises(InvalidSubsetError, match=rf"agent index {first} out of range for n=4"):
            as_mask(bad, 4)


def _loop_indices(mask):
    """mask_to_indices as a bit-at-a-time loop, the reference."""
    out, i = [], 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def _loop_mask(indices):
    """as_mask of an iterable as one shift per index, the reference."""
    mask = 0
    for i in indices:
        mask |= 1 << int(i)
    return mask


def test_mask_helpers_match_bit_loops():
    rng = np.random.default_rng(17)
    for n in (0, 1, 7, 8, 9, 63, 64, 65, 130, 1000):
        for density in (0.0, 0.1, 0.5, 1.0):
            bits = rng.random(n) < density
            mask = _loop_mask(np.flatnonzero(bits))
            indices = mask_to_indices(mask)
            assert indices == _loop_indices(mask)
            assert mask_to_indices(np.uint64(mask & (2**64 - 1))) == _loop_indices(mask & (2**64 - 1))
            # lists, generators and arrays, in any order and with repeats
            repeated = indices + indices[::-1]
            for subset in (indices, iter(repeated), np.array(repeated, dtype=np.int64)):
                assert as_mask(subset, n) == mask
            assert as_mask(indices, n + 5) == mask


def test_mask_helpers_handle_a_million_members_in_under_a_second():
    n = 10**6
    outcome = IncentiveOutcome((1 << n) - 1, Contract(np.zeros(n)), 0.0, True)
    start = time.perf_counter()
    members = outcome.member_list()
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"member_list took {elapsed:.2f} s at 10^6 members"
    assert members == list(range(n))
    start = time.perf_counter()
    mask = as_mask(members, n)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"as_mask took {elapsed:.2f} s at 10^6 indices"
    assert mask == outcome.members


# probabilities with the boundary values drawn often, so that zero
# marginals, saturated caps and exact ties come up
_prob = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))


def _scaled(weights):
    total = sum(weights)
    return [w / total for w in weights] if total > 1 else weights


@st.composite
def _rewards(draw):
    kind = draw(st.sampled_from(
        ["additive", "capped_additive", "coverage", "explicit", "symmetric_two_class"]
    ))
    n = draw(st.integers(2 if kind == "symmetric_two_class" else 1, 9))
    if kind == "additive":
        return Additive(_scaled(draw(st.lists(_prob, min_size=n, max_size=n))))
    if kind == "capped_additive":
        return CappedAdditive(draw(st.lists(_prob, min_size=n, max_size=n)), draw(_prob))
    if kind == "coverage":
        weights = _scaled(draw(st.lists(_prob, max_size=12)))
        elements = st.integers(0, len(weights) - 1) if weights else st.nothing()
        covers = draw(st.lists(st.sets(elements), min_size=n, max_size=n))
        return Coverage(weights, covers)
    if kind == "explicit":
        n = min(n, 5)
        table = draw(st.lists(_prob, min_size=1 << n, max_size=1 << n))
        return ExplicitTable(n, [0.0] + table[1:])
    f_b = draw(_prob) / (n - 1)
    return SymmetricTwoClass(draw(_prob) * (1 - (n - 1) * f_b), f_b, n - 1)


@settings(max_examples=100, deadline=None)
@given(f=_rewards(), data=st.data())
def test_marginals_equal_marginal_bit_for_bit(f, data):
    mask = data.draw(st.integers(0, (1 << f.n) - 1))
    expected = np.array([f.marginal(i, mask) for i in range(f.n)])
    got = f.marginals(mask)
    assert got.shape == (f.n,)
    assert got.tobytes() == expected.tobytes()
    assert f.marginals(mask_to_indices(mask)).tobytes() == expected.tobytes()


@st.composite
def _coverages(draw):
    """Coverage rewards with 1..12 agents and 0..70 elements, so that
    empty covers, uncovered elements, zero weights, fewer elements than
    agents and more than 32 elements all come up."""
    n = draw(st.integers(1, 12))
    size = draw(st.integers(0, 70))
    weights = _scaled(draw(st.lists(_prob, min_size=size, max_size=size)))
    elements = st.integers(0, size - 1) if size else st.nothing()
    covers = draw(st.lists(st.sets(elements, max_size=size), min_size=n, max_size=n))
    return Coverage(weights, covers)


@settings(max_examples=100, deadline=None)
@given(f=_coverages(), row_bits=st.sampled_from([None, 0, 2]))
@example(f=Coverage([], [[], []]), row_bits=None)
@example(f=Coverage([0.0, 0.5, 0.0], [[], [0, 1], [], [2], [1]]), row_bits=0)
@example(f=Coverage(np.full(40, 0.025), [[0, 39], [], list(range(33)), [35], [31, 32, 33]]),
         row_bits=2)
def test_coverage_value_table_matches_pointwise_eval(f, row_bits):
    """Byte-identical to the clipped pointwise values.  row_bits shrinks
    ROW_BITS, and GATHER_BLOCK to two rows, so that small tables span
    many rows and gather blocks, as large ones do."""
    row_bits = rewards.ROW_BITS if row_bits is None else row_bits
    with mock.patch.multiple(rewards, ROW_BITS=row_bits, GATHER_BLOCK=2 << row_bits):
        table = f.value_table()
    expected = np.array([f.value(mask) for mask in range(1 << f.n)])
    assert table.tobytes() == expected.tobytes()


def test_marginals_clip_like_value():
    # the weights total 1 + 5e-10, so f of the full set is clipped to 1
    for f in (Coverage([0.6, 0.4 + 5e-10], [[0, 1], [1]]), Additive([0.6, 0.4 + 5e-10])):
        for mask in range(4):
            expected = np.array([f.marginal(i, mask) for i in range(2)])
            assert f.marginals(mask).tobytes() == expected.tobytes()


def _check_structure_loop(f):
    """The per-condition exhaustive check that the strided one replaced,
    kept as a reference: (monotone, submodular, witness, violated, checks)."""
    n = f.n
    table = f.value_table()
    checks = 0
    mono_witness = None
    sub_witness = None

    def conditions():
        for mask in range(1 << n):
            outside = [i for i in range(n) if not (mask >> i) & 1]
            for a, i in enumerate(outside):
                yield mask, i, None
                for j in outside[a + 1 :]:
                    yield mask, i, j
                    yield mask, j, i

    for mask, i, j in conditions():
        checks += 1
        with_i = mask | (1 << i)
        if j is None:
            if mono_witness is None and table[with_i] < table[mask] - STRUCT_TOL:
                mono_witness = (mask, with_i, i)
        else:
            with_j = mask | (1 << j)
            gain_small = table[with_i] - table[mask]
            gain_large = table[with_j | (1 << i)] - table[with_j]
            if sub_witness is None and gain_large > gain_small + STRUCT_TOL:
                sub_witness = (mask, with_j, i)
        if mono_witness is not None and sub_witness is not None:
            break

    monotone = mono_witness is None
    submodular = sub_witness is None
    witness = mono_witness if not monotone else sub_witness
    violated = "monotone" if not monotone else ("submodular" if not submodular else None)
    return monotone, submodular, witness, violated, checks


@st.composite
def _explicit_tables(draw):
    """Uniform random tables, coverage tables with a few entries nudged
    (some by about STRUCT_TOL), and squared additive (supermodular) ones."""
    n = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["uniform", "perturbed coverage", "squared additive"]))
    if shape == "uniform":
        table = rng.random(1 << n)
    elif shape == "perturbed coverage":
        table = gen_random("coverage", n, seed=int(rng.integers(1 << 30))).reward.value_table()
        at = rng.integers(1, 1 << n, size=draw(st.integers(0, 3)))
        nudges = [1e-12, -1e-12, 3e-12, -3e-12, 1e-4, -1e-4, 0.05, -0.05]
        table[at] += rng.choice(nudges, size=at.size)
    else:
        w = rng.uniform(0.1, 1.0, n)
        table = np.minimum(Additive(w / w.sum()).value_table() ** 2, 1.0)
    table = np.clip(table, 0.0, 1.0)
    table[0] = 0.0
    return ExplicitTable(n, table)


@settings(max_examples=150, deadline=None)
@given(f=_explicit_tables(), rows=st.sampled_from([None, 1, 2]))
def test_check_structure_matches_per_condition_loop(f, rows):
    """rows shrinks GAINS_BLOCK to that many agents' gains, so that small
    tables take the blocked path that large ones take."""
    monotone, submodular, witness, violated, checks = _check_structure_loop(f)
    block = rewards.GAINS_BLOCK if rows is None else rows << f.n
    with mock.patch.object(rewards, "GAINS_BLOCK", block):
        report = check_structure(f)
    assert (report.monotone, report.submodular) == (monotone, submodular)
    assert report.witness == witness
    assert report.violated == violated
    if monotone or submodular:
        # the loop stopped early only once it had found both violations
        assert report.checks == checks == f.n * (f.n + 1) * 2**f.n // 4


@settings(max_examples=100, deadline=None)
@given(f=st.one_of(_rewards(), _coverages()), data=st.data(), small_blocks=st.booleans())
def test_values_and_rows_match_the_value_table(f, data, small_blocks):
    """_oracle(k)'s values and TableRows of every width read
    value_table()'s entries bit for bit; with k = n, TableRows' one row is
    asked for as [0], as the kernel asks for it.  small_blocks shrinks
    GATHER_BLOCK so that values spans several blocks."""
    table = f.value_table()
    masks = np.array(data.draw(st.lists(st.integers(0, table.size - 1), max_size=40)), np.int64)
    with mock.patch.object(rewards, "GATHER_BLOCK", 4 if small_blocks else rewards.GATHER_BLOCK):
        for k in range(f.n + 1):
            values = f._oracle(k)[0]
            assert values(np.arange(table.size)).tobytes() == table.tobytes()
            pairs = masks.reshape(-1, 2) if masks.size % 2 == 0 else masks
            assert values(pairs).tobytes() == table[pairs].tobytes()
            store = rewards.TableRows(f, k)
            grid = table.reshape(-1, 1 << k)
            hs = np.array(data.draw(st.lists(st.integers(0, len(grid) - 1), max_size=5)), np.intp)
            if k == f.n:
                hs = np.zeros(1, np.intp)
            assert store.rows(hs).tobytes() == grid[hs].tobytes()
            assert store.values(masks).tobytes() == table[masks].tobytes()
            assert store.values(masks[:, None] ^ np.arange(2)).tobytes() == (
                table[masks[:, None] ^ np.arange(2)].tobytes()
            )


def test_table_rows_are_shared_and_the_whole_table_is_dense_table():
    f = gen_random("coverage", 9, seed=2).reward
    rows = rewards.table_rows(f, 4)
    assert rewards.table_rows(f, 4) is rows
    whole = rewards.table_rows(f, 9)
    assert whole is not rows and rewards.dense_table(f) is whole.table
    assert whole.rows(np.zeros(1, np.intp)).base is whole.table
    assert rewards.table_rows(f, 4) is not rows  # the slot held the whole table
