"""Success-probability set functions over agent subsets.

A reward function maps each subset of the n agents to the probability that
the project succeeds when exactly those agents exert effort.  All functions
are normalized (empty set maps to 0) and, except for explicit tables, are
monotone submodular by construction.  Subsets are bitmasks over agent
indices 0..n-1 everywhere; bit i set means agent i is in the set.

Each kind values sets in bulk through its own row oracle, _oracle(k),
which value_table fills the dense table from unless the kind has a
closed form; TableRows hands the oracle, or the dense table, to solves.
"""

from __future__ import annotations

import math
import numbers
import operator
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidSubsetError, ParameterError, SizeLimitError

# Tolerance for construction-time range checks (sums of probabilities may
# carry a few ulps of rounding); structural inequalities use a tighter one.
VALUE_TOL = 1e-9
STRUCT_TOL = 1e-12

# Largest n for which check_structure enumerates every condition; it is
# also brute_force's limit (solvers.BRUTE_FORCE_LIMIT), so every explicit
# table that brute_force can scan can become an Instance.
EXHAUSTIVE_CHECK_LIMIT = 22
# check_structure holds the gains of at most this many (agent, mask)
# pairs at once, 32 MB: one block of agents up to n = 17, one agent at
# n = 22, where all n rows would take 738 MB.
GAINS_BLOCK = 1 << 22
# RewardFunction.value_table views the table as rows of 2^ROW_BITS masks,
# one per combination of the agents above the lowest ROW_BITS, and fills
# them GATHER_BLOCK masks at a time, 128 KB of table, with 256 KB of index
# and lookup buffers for coverage; _add_where lays out GATHER_BLOCK terms
# at a time.
ROW_BITS = 12
GATHER_BLOCK = 1 << 14
# Coverage sums its weights in chunks of CHUNK elements, one lookup in a
# 2^CHUNK-entry table (32 KB) per chunk.  value_table of gen_random
# coverage rewards took 0.072, 0.175, 0.417 and 0.731 ms at n = 10, 14,
# 16 and 17 (median of 8 instances x 5, three processes, 2 vCPUs); 0.094,
# 0.217, 0.538 and 1.16 ms with chunks of 8 and 0.088, 0.146, 0.776 and
# 1.42 ms with chunks of 16, whose 512 KB tables miss the caches; and
# 0.120, 0.342, 1.09 and 1.40 ms for a prefix lookup of up to 32 elements
# followed by one add per later element, which it replaced.
CHUNK = 12


def as_mask(subset, n: int) -> int:
    """Normalize a subset given as a bitmask or an iterable of agent
    indices, which may repeat, in O(n + len(subset))."""
    if isinstance(subset, (int, np.integer)):
        mask = int(subset)
        if mask < 0 or mask >= (1 << n):
            raise InvalidSubsetError(f"mask {mask} out of range for n={n}")
        return mask
    packed = bytearray((n + 7) // 8)  # little-endian, as mask_to_bools reads
    for i in subset:
        i = int(i)
        if i < 0 or i >= n:
            raise InvalidSubsetError(f"agent index {i} out of range for n={n}")
        packed[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(packed, "little")


def mask_to_indices(mask: int) -> list[int]:
    """Sorted agent indices contained in a bitmask, in O(bit length)."""
    return [i for i, bit in enumerate(reversed(bin(mask)[2:])) if bit == "1"]


def mask_to_bools(mask: int, n: int) -> np.ndarray:
    """Boolean membership vector of length n for a bitmask."""
    raw = np.frombuffer(mask.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=n, bitorder="little").view(bool)


def _clip01(x: float) -> float:
    return 0.0 if x < 0.0 else (1.0 if x > 1.0 else x)


class RewardFunction(ABC):
    """Oracle for the project's success probability on each agent subset."""

    n: int
    kind: str

    @abstractmethod
    def _value_of_mask(self, mask: int) -> float:
        """Raw evaluation on a validated bitmask."""

    def value(self, subset) -> float:
        """Success probability f(S) for the given subset."""
        return _clip01(self._value_of_mask(as_mask(subset, self.n)))

    __call__ = value

    def marginal(self, i: int, subset) -> float:
        """Marginal contribution f(S + i) - f(S); i is removed from S first."""
        if i < 0 or i >= self.n:
            raise InvalidSubsetError(f"agent index {i} out of range for n={self.n}")
        mask = as_mask(subset, self.n) & ~(1 << i)
        return self.value(mask | (1 << i)) - self.value(mask)

    def marginals(self, subset) -> np.ndarray:
        """Every agent's marginal f(S + i) - f(S - i), in index order.

        Entry i is bit for bit marginal(i, S): members are measured against
        S without them, non-members by joining S.  This generic version
        evaluates f(S) once and f(S xor i) for each agent; rewards with
        constant marginals override it with their weights.
        """
        mask = as_mask(subset, self.n)
        f_S = self.value(mask)
        out = np.empty(self.n)
        for i in range(self.n):
            bit = 1 << i
            if mask & bit:
                out[i] = f_S - self.value(mask ^ bit)
            else:
                out[i] = self.value(mask | bit) - f_S
        return out

    def _member_terms(self, mask: int, members: np.ndarray) -> tuple[np.ndarray, float]:
        """The members' marginals and f(S), bit for bit marginals(mask)[members]
        and value(mask), for a validated mask and its mask_to_bools; this
        version makes |S| + 1 _value_of_mask calls."""
        f_S = _clip01(self._value_of_mask(mask))
        drop = (mask ^ 1 << i for i in np.flatnonzero(members).tolist())
        return np.array([f_S - _clip01(self._value_of_mask(m)) for m in drop]), f_S

    def value_table(self) -> np.ndarray:
        """Dense table of f over all 2^n bitmasks (index = mask): _oracle's
        rows of 2^min(n, ROW_BITS) masks, GATHER_BLOCK masks at a time.
        Transient memory beside the table: one block of rows and what
        _oracle holds.  Additive, capped and explicit rewards override it
        with their closed forms."""
        low = min(self.n, ROW_BITS)
        rows = self._oracle(low)[1]
        table = np.empty(1 << self.n)
        grid = table.reshape(-1, 1 << low)
        step = max(1, GATHER_BLOCK >> low)
        for r in range(0, len(grid), step):
            grid[r : r + step] = rows(np.arange(r, min(r + step, len(grid))))
        return table

    @abstractmethod
    def _oracle(self, k: int):
        """(values, rows): values maps an int64 array of masks to f of
        each, and rows maps an int64 array of r row indices to the r x 2^k
        array of f of the masks h << k | l, l < 2^k, for each row h, both
        bit for bit value_table()'s entries.  They hold the lookup tables
        that takes, so that a caller valuing many batches builds them once."""

    @abstractmethod
    def descriptor(self) -> dict:
        """JSON-serializable description (see the instance file format)."""


def _weight_vector(weights: Sequence[float]) -> np.ndarray:
    """Validated per-agent weights: a nonempty 1-d vector of finite,
    nonnegative floats."""
    w = np.array(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ParameterError("weights must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(w)):
        raise ParameterError("weights must be finite")
    if np.any(w < 0):
        raise ParameterError("weights must be nonnegative")
    return w


def fold_subsets(op, values, dtype=float) -> np.ndarray:
    """Array over all 2^n masks of op folded over each mask's values in
    agent order from 0, built in one buffer by doubling: the masks whose
    highest member is agent i are the masks below 1 << i with values[i]
    folded in.  fold_subsets(np.add, w) holds every mask's sum of w.
    values may be the n rows of a 2-d array, folded entry by entry."""
    out = np.empty((1 << len(values), *np.shape(values)[1:]), dtype)
    out[0] = 0
    for i, v in enumerate(values):
        op(out[: 1 << i], v, out=out[1 << i : 2 << i])
    return out


def _additive_table(weights: np.ndarray, cap: float = 1.0) -> np.ndarray:
    table = fold_subsets(np.add, weights)
    return np.clip(table, 0.0, cap, out=table)


def _add_where(out, masks, agents, weights):
    """Add to out, in order, each weight where the mask holds one of its
    agents (an int64 bitmask) and 0.0 elsewhere, which leaves a
    nonnegative sum as it is, so that out sums in the order of weights;
    masks and out are 1-d.  The 0/weight terms are laid out as one row
    per weight, GATHER_BLOCK of them at a time."""
    step = max(1, GATHER_BLOCK // max(1, weights.size))
    for lo in range(0, masks.size, step):
        terms = np.where(masks[lo : lo + step] & agents[:, None] != 0, weights[:, None], 0.0)
        for term in terms:
            out[lo : lo + step] += term
    return out


def _additive_oracle(weights: np.ndarray, k: int, cap: float = 1.0):
    """RewardFunction._oracle of _additive_table: the sums of the agents
    below k are looked up in their fold, which goes on over the higher
    agents in agent order, adding each weight where the mask or the row
    holds the agent, as adding 0.0 to a nonnegative sum changes nothing."""
    head = fold_subsets(np.add, weights[:k])
    high = 1 << np.arange(k, weights.size)

    def values(masks):
        out = _add_where(head[masks.ravel() & (head.size - 1)], masks.ravel(), high, weights[k:])
        return np.clip(out, 0.0, cap, out=out).reshape(masks.shape)

    def rows(hs):
        out = np.tile(head, (hs.size, 1))
        for i in range(k, weights.size):
            np.add(out, weights[i], out=out, where=hs[:, None] >> (i - k) & 1 != 0)
        return np.clip(out, 0.0, cap, out=out)

    return values, rows


class Additive(RewardFunction):
    """f(S) = sum of per-agent success weights; weights must total at most 1."""

    kind = "additive"

    def __init__(self, weights: Sequence[float]):
        w = _weight_vector(weights)
        if w.sum() > 1 + VALUE_TOL:
            raise ParameterError(f"weights sum to {w.sum()}, above 1")
        w.setflags(write=False)
        self.weights = w
        self.n = int(w.size)

    def _value_of_mask(self, mask: int) -> float:
        return float(self.weights[mask_to_bools(mask, self.n)].sum())

    def marginal(self, i: int, subset) -> float:
        if i < 0 or i >= self.n:
            raise InvalidSubsetError(f"agent index {i} out of range for n={self.n}")
        as_mask(subset, self.n)
        return float(self.weights[i])

    def marginals(self, subset) -> np.ndarray:
        as_mask(subset, self.n)
        return self.weights.copy()

    def _member_terms(self, mask, members):
        w = self.weights[members]  # _value_of_mask sums this gather
        return w, _clip01(float(w.sum()))

    def value_table(self) -> np.ndarray:
        return _additive_table(self.weights)

    def _oracle(self, k: int):
        return _additive_oracle(self.weights, k)

    def descriptor(self) -> dict:
        return {"kind": "additive", "weights": self.weights.tolist()}


class CappedAdditive(RewardFunction):
    """f(S) = min(cap, sum of weights); the cap keeps values in [0, 1]."""

    kind = "capped_additive"

    def __init__(self, weights: Sequence[float], cap: float):
        w = _weight_vector(weights)
        if not 0.0 <= cap <= 1.0 + VALUE_TOL:
            raise ParameterError(f"cap {cap} outside [0, 1]")
        w.setflags(write=False)
        self.weights = w
        self.cap = float(min(cap, 1.0))
        self.n = int(w.size)

    def _value_of_mask(self, mask: int) -> float:
        return min(self.cap, float(self.weights[mask_to_bools(mask, self.n)].sum()))

    def value_table(self) -> np.ndarray:
        return _additive_table(self.weights, self.cap)

    def _oracle(self, k: int):
        return _additive_oracle(self.weights, k, self.cap)

    def descriptor(self) -> dict:
        return {
            "kind": "capped_additive",
            "weights": self.weights.tolist(),
            "cap": self.cap,
        }


class Coverage(RewardFunction):
    """Weighted coverage: f(S) = total weight of elements covered by S.

    Agent i covers a fixed set of elements; element weights must total at
    most 1 so every value is a probability.  Every evaluation sums the
    covered weights in one order: in chunks of CHUNK elements, ascending
    from 0.0 within a chunk, then the chunk sums in chunk order, so that
    value, marginals, value_table and _oracle's values and rows are bit
    for bit the same floats.
    """

    kind = "coverage"

    def __init__(self, element_weights: Sequence[float], covers: Sequence[Iterable[int]]):
        ew = np.array(element_weights, dtype=float)
        if ew.ndim != 1:
            raise ParameterError("element_weights must be 1-d")
        if not np.all(np.isfinite(ew)):
            raise ParameterError("element weights must be finite")
        if np.any(ew < 0):
            raise ParameterError("element weights must be nonnegative")
        if ew.sum() > 1 + VALUE_TOL:
            raise ParameterError(f"element weights sum to {ew.sum()}, above 1")
        n_elem = ew.size
        ew.setflags(write=False)
        self.element_weights = ew
        self.covers: list[frozenset[int]] = []
        for cover in covers:
            cover = frozenset(int(e) for e in cover)
            if any(e < 0 or e >= n_elem for e in cover):
                raise ParameterError("cover refers to an element index out of range")
            self.covers.append(cover)
        if not self.covers:
            raise ParameterError("at least one agent is required")
        self.n = len(self.covers)
        # agent x element incidence and weights, padded with uncovered
        # elements of weight 0.0 to whole chunks of CHUNK elements
        size = CHUNK * max(1, -(-n_elem // CHUNK))
        self._incidence = np.zeros((self.n, size), dtype=bool)
        for i, cover in enumerate(self.covers):
            self._incidence[i, sorted(cover)] = True
        self._padded = np.zeros(size)
        self._padded[:n_elem] = ew

    def _sums(self, covered: np.ndarray) -> np.ndarray:
        """Unclipped f of each row of an element-coverage matrix.

        The weights are summed in chunks of CHUNK elements: within a chunk
        cumsum adds the covered weights one at a time in ascending element
        order from 0.0, an uncovered element adding 0.0, which changes
        nothing; the chunk sums are then added in chunk order, so every
        sum is the same float as the chunk lookups of value_table.
        """
        terms = np.where(covered, self._padded, 0.0)
        terms = terms.reshape(terms.shape[:-1] + (-1, CHUNK))
        return terms.cumsum(axis=-1)[..., -1].cumsum(axis=-1)[..., -1]

    def _value_of_mask(self, mask: int) -> float:
        return float(self._sums(self._incidence[mask_to_bools(mask, self.n)].any(axis=0)))

    def marginals(self, subset) -> np.ndarray:
        """Every agent's marginal, bit for bit equal to marginal(i, S).

        Row i of a matrix holds the elements covered by S xor i: those
        covered by another member for a member, S's elements plus i's for
        a non-member.  Its sum is f(S xor i), as _value_of_mask adds it.
        """
        mask = as_mask(subset, self.n)
        members = mask_to_bools(mask, self.n)
        hits = self._incidence[members].sum(axis=0)  # members covering each element
        # S - i keeps an element some other member covers: hits > (i covers it)
        rows = np.where(members[:, None], hits > self._incidence, (hits > 0) | self._incidence)
        values = np.clip(self._sums(np.vstack([hits > 0, rows])), 0.0, 1.0)
        f_S, others = values[0], values[1:]
        return np.where(members, f_S - others, others - f_S)

    def _member_terms(self, mask, members):
        cover = self._incidence[members]  # marginals' rows of S and its members: |S| + 1
        hits = cover.sum(axis=0)
        values = np.clip(self._sums(np.vstack([hits > 0, hits > cover])), 0.0, 1.0)
        return values[0] - values[1:], float(values[0])

    def _oracle(self, k: int):
        """RewardFunction._oracle: f of a mask is one lookup per chunk of
        CHUNK elements, added in chunk order.  A chunk's table, the
        fold_subsets(np.add, ...) of its weights, holds the ascending sum
        from 0.0 of every subset of its elements, as _sums adds them; a
        mask covers the subset that is the OR of its agents' cover bits,
        folded once over the agents below k (lo, per column) and once over
        the others (hi, per row), so entry (row, col) is its table's entry
        hi[row] | lo[col].  Besides the lookups, the chunk tables, 2^CHUNK
        entries each, and lo and hi are built.  rows writes the first
        chunk's lookups into a new array and adds the others'."""
        w = self.element_weights
        parts = []
        for start in range(0, max(1, w.size), CHUNK):
            cover = self._incidence[:, start : start + CHUNK]
            bits = (cover << np.arange(cover.shape[1])).sum(axis=1)
            parts.append((
                fold_subsets(np.add, w[start : start + CHUNK]),
                fold_subsets(np.bitwise_or, bits[:k], np.intp),
                fold_subsets(np.bitwise_or, bits[k:], np.intp),
            ))
        col = (1 << k) - 1

        def values(masks):
            hs, ls = masks.ravel() >> k, masks.ravel() & col
            out = np.zeros(masks.size)  # 0.0 + the first chunk's sum is that sum
            for table, lo, hi in parts:
                out += table[hi[hs] | lo[ls]]
            return np.clip(out, 0.0, 1.0, out=out).reshape(masks.shape)

        def rows(hs):
            out = np.empty((hs.size, col + 1))
            index, chunk = np.empty(out.shape, np.intp), np.empty(out.shape)
            for c, (table, lo, hi) in enumerate(parts):
                np.bitwise_or(hi[hs, None], lo, out=index)
                # every index is below the table's size; "wrap" writes to out unbuffered
                np.take(table, index, out=chunk if c else out, mode="wrap")
                if c:
                    out += chunk
            return np.clip(out, 0.0, 1.0, out=out)

        return values, rows

    def descriptor(self) -> dict:
        return {
            "kind": "coverage",
            "elements": [{"weight": float(w)} for w in self.element_weights],
            "covers": [sorted(cover) for cover in self.covers],
        }


class ExplicitTable(RewardFunction):
    """f given as a full 2^n table indexed by bitmask.

    Tables are accepted as long as they are valid probabilities with
    f(empty) = 0; monotonicity and submodularity are NOT implied and must
    be verified with check_structure before the function is used to build
    an Instance.
    """

    kind = "explicit"

    def __init__(self, n: int, table: Sequence[float]):
        t = np.array(table, dtype=float)
        if n < 1:
            raise ParameterError("n must be at least 1")
        if n >= 63 or t.size != 1 << n:  # no array holds 2^63 entries
            raise ParameterError(f"explicit table needs exactly 2^{n} entries, got {t.size}")
        if not np.all(np.isfinite(t)):
            raise ParameterError("table values must be finite")
        if np.any(t < -VALUE_TOL) or np.any(t > 1 + VALUE_TOL):
            raise ParameterError("table values must lie in [0, 1]")
        if abs(t[0]) > VALUE_TOL:
            raise ParameterError(f"f(empty set) must be 0, got {t[0]}")
        table = np.clip(t, 0.0, 1.0)
        table[0] = 0.0
        table.setflags(write=False)
        self.table = table
        self.n = int(n)

    def _value_of_mask(self, mask: int) -> float:
        return float(self.table[mask])

    def _member_terms(self, mask, members):
        f_S = float(self.table[mask])  # the table is clipped already
        return f_S - self.table[mask ^ 1 << np.flatnonzero(members)], f_S

    def value_table(self) -> np.ndarray:
        return self.table.copy()

    def _oracle(self, k: int):
        return self.table.__getitem__, self.table.reshape(-1, 1 << k).__getitem__

    def descriptor(self) -> dict:
        return {"kind": "explicit", "n": self.n, "table": self.table.tolist()}


class SymmetricTwoClass(Additive):
    """Additive reward with one special agent plus count_b identical agents.

    Agent 0 contributes f_a; agents 1..count_b each contribute f_b, so the
    weights are [f_a, f_b, ..., f_b] and Additive's oracles serve it; only
    value() is evaluated in O(1).  The explicit two-class structure lets
    solvers enumerate candidates by (special agent in or out, number of
    identical agents) instead of by subset.
    """

    kind = "symmetric_two_class"

    def __init__(self, f_a: float, f_b: float, count_b: int):
        if count_b < 1:
            raise ParameterError("count_b must be at least 1")
        if not (math.isfinite(f_a) and math.isfinite(f_b)):
            raise ParameterError("contributions must be finite")
        if f_a < 0 or f_b < 0:
            raise ParameterError("contributions must be nonnegative")
        if f_a + count_b * f_b > 1 + VALUE_TOL:
            raise ParameterError("total contribution exceeds 1")
        self.f_a = float(f_a)
        self.f_b = float(f_b)
        self.count_b = int(count_b)
        self.n = self.count_b + 1
        # the checks above stand for Additive's, which would sum the weights again
        w = np.full(self.n, self.f_b)
        w[0] = self.f_a
        w.setflags(write=False)
        self.weights = w

    def _value_of_mask(self, mask: int) -> float:
        a_in = mask & 1
        t = (mask >> 1).bit_count()
        return a_in * self.f_a + t * self.f_b

    def _member_terms(self, mask, members):
        return self.weights[members], _clip01(self._value_of_mask(mask))

    def descriptor(self) -> dict:
        return {
            "kind": "symmetric_two_class",
            "f_a": self.f_a,
            "f_b": self.f_b,
            "count_b": self.count_b,
        }


class TableRows:
    """A reward's value table as 2^(n - k) rows of 2^k masks: the agents
    below k pick a mask's column and the others its row, so row h holds f
    of the masks h << k | l, l < 2^k, bit for bit the entries of
    value_table().reshape(-1, 1 << k)[h].  values and rows are
    f._oracle(k)'s, which value every request afresh.  With k = n the one
    row is the whole table, built by value_table(), read-only, and kept
    as table: values reads it, and rows returns it as row [0], the only
    row, whatever it is asked for.

    survivors is None or, set by the last bounded brute-force solve over
    these rows, (costs, bar, masks): the costs it was solved with, the
    lower of its two optimal utilities, and in ascending order every mask
    whose utility bound under those costs reached that bar less
    BOUND_SLACK, which a later solve at those costs prices first.
    report is None or, with k = n, check_structure's exhaustive report
    on the table, which a later check of f returns.
    """

    def __init__(self, f: RewardFunction, k: int):
        self.f, self.k = f, k
        self.survivors = self.report = None
        if k < f.n:
            self.values, self.rows = f._oracle(k)
            return
        self.table = f.value_table()
        self.table.setflags(write=False)
        whole = self.table[None]  # closed over, not self, so no cycle keeps the table
        self.values, self.rows = self.table.__getitem__, lambda hs: whole


# the TableRows of the last table_rows call, or None
_last_rows: TableRows | None = None


def table_rows(f: RewardFunction, k: int) -> TableRows:
    """f's value table in rows of 2^k masks, shared by consecutive callers.

    The values do not depend on costs or pay regime, so the solves of
    one reward under several modes or betas, and an explicit Instance's
    structure check before them, share one table (k = n), or one oracle
    and the sets the last solve kept (k < n).  A single slot holds the
    TableRows last asked for, matched by the reward's identity,
    referenced strongly so that its id cannot be reused, and by k; it
    keeps them until other rows are asked for.  The slot is emptied
    before new rows are made, so at most one table is alive while one is
    built.  The library is single threaded; rewards are immutable.
    """
    global _last_rows
    if _last_rows is not None and _last_rows.f is f and _last_rows.k == k:
        return _last_rows
    _last_rows = None
    _last_rows = TableRows(f, k)
    return _last_rows


def dense_table(f: RewardFunction) -> np.ndarray:
    """Read-only value table of f, shared by consecutive callers through
    table_rows: its one row of 2^n masks."""
    return table_rows(f, f.n).table


def halves(arr: np.ndarray, bit: int) -> tuple[np.ndarray, np.ndarray]:
    """(without, with) views of an array along one agent's bit of its last
    axis, which is indexed by mask.

    Viewed as reshape(..., -1, 2, bit), [..., 0, :] holds the masks
    without the bit and [..., 1, :] their partners with it (the stride
    layout of Yates' subset transform), so per-mask work runs on views,
    with no mask or index arrays.  Both views are in mask order when
    flattened: flat entry k of the without half is the mask
    k // bit * 2 * bit + k % bit.
    """
    v = arr.reshape(*arr.shape[:-1], -1, 2, bit)
    return v[..., 0, :], v[..., 1, :]


def _first_mask(hit: np.ndarray, bit: int) -> int | None:
    """Smallest mask at which hit, a condition evaluated on the without
    half of halves(table, bit), holds; None if it holds nowhere.  The
    half is in mask order, so that is hit's first true entry."""
    k = int(hit.argmax())
    return k // bit * 2 * bit + k % bit if hit.flat[k] else None


@dataclass(frozen=True)
class StructureReport:
    """Outcome of a monotonicity/submodularity check.

    witness is an (S, T, i) triple of bitmasks/index such that either
    f(T) < f(S) with T = S + i (monotonicity) or f(i | T) > f(i | S) with
    T = S + j (submodularity); violated names which.  checks counts the
    conditions evaluated: the exhaustive check evaluates all
    n(n + 1) 2^(n-2) of them, even on a table that violates both
    properties, and sampling mode reports its coverage.
    """

    monotone: bool
    submodular: bool
    witness: tuple[int, int, int] | None = None
    violated: str | None = None
    checks: int = 0


def check_structure(
    f: RewardFunction,
    samples: int | None = None,
    seed: int | None = None,
) -> StructureReport:
    """Verify monotonicity and submodularity of a reward function.

    Up to EXHAUSTIVE_CHECK_LIMIT agents every condition is evaluated on the
    dense table, read through table_rows, so a solve of the same reward
    that follows reuses the table, and a later check the report kept
    beside it: monotonicity as f(S + i) >= f(S) for all S and i not in
    S, and submodularity in its pairwise form f(i | S + j) <= f(i | S)
    for all S and distinct i, j outside S (equivalent to the nested-sets
    form).  Agent i's monotonicity compares the two halves of the table
    along bit i.  The gains f(S + i) - f(S) of a block of agents form one
    array, NaN (so never a violation) where S holds i, and its two halves
    along bit j hold the submodularity conditions of every pair (i, j)
    with i in the block; blocks hold at most GAINS_BLOCK entries.  The
    witness is the first violation in the order S, then i (monotonicity)
    or (min(i, j), max(i, j), i > j) (submodularity).
    Above the limit a seeded random sample of conditions is checked and
    the number of checks is reported; samples, when given, must be at
    least 1.
    """
    if samples is not None and samples < 1:
        raise ParameterError(f"samples must be at least 1, got {samples}")
    n = f.n
    mono = sub = None
    if n <= EXHAUSTIVE_CHECK_LIMIT:
        kept = table_rows(f, n)
        if kept.report is not None:
            return kept.report
        table = kept.table
        rows = max(1, GAINS_BLOCK >> n)
        found_mono, found_sub = [], []
        for lo in range(0, n, rows):
            agents = range(lo, min(n, lo + rows))
            gains = np.full((len(agents), table.size), np.nan)
            for k, i in enumerate(agents):
                without, with_i = halves(table, 1 << i)
                halves(gains[k], 1 << i)[0][...] = with_i - without
                mask = _first_mask(with_i < without - STRUCT_TOL, 1 << i)
                if mask is not None:
                    found_mono.append((mask, i))
            for j in range(n):
                small, large = halves(gains, 1 << j)
                hit = large > small + STRUCT_TOL
                if not hit.any():
                    continue
                for k in np.flatnonzero(hit.any(axis=(-2, -1))).tolist():
                    i = agents[k]
                    mask = _first_mask(hit[k], 1 << j)
                    found_sub.append((mask, min(i, j), max(i, j), i > j, i, j))
        if found_mono:
            mask, i = min(found_mono)
            mono = (mask, mask | 1 << i, i)
        if found_sub:
            mask, *_, i, j = min(found_sub)
            sub = (mask, mask | 1 << j, i)
        checks = (n * (n + 1) << n) >> 2
    else:
        if samples is None:
            raise SizeLimitError(
                f"n={n} exceeds the exhaustive limit {EXHAUSTIVE_CHECK_LIMIT}; "
                "pass samples= (with seed=) to sample-check"
            )
        if seed is None:
            raise ParameterError("sampling mode requires an explicit seed")
        if seed < 0:
            raise ParameterError(f"seed must be nonnegative, got {seed}")
        checks = 0
        rng = np.random.default_rng(seed)
        for _ in range(samples):
            bits = rng.random(n) < rng.random()
            i, j = (int(k) for k in rng.choice(n, size=2, replace=False))
            bits[i] = bits[j] = False
            mask = as_mask(np.flatnonzero(bits), n)
            with_i, with_j = mask | 1 << i, mask | 1 << j
            checks += 1
            if mono is None and f.value(with_i) < f.value(mask) - STRUCT_TOL:
                mono = (mask, with_i, i)
                if sub is not None:
                    break
            checks += 1
            gain_small = f.value(with_i) - f.value(mask)
            gain_large = f.value(with_j | 1 << i) - f.value(with_j)
            if sub is None and gain_large > gain_small + STRUCT_TOL:
                sub = (mask, with_j, i)
            if mono is not None and sub is not None:
                break

    violated = "monotone" if mono else ("submodular" if sub else None)
    report = StructureReport(mono is None, sub is None, mono or sub, violated, checks)
    if n <= EXHAUSTIVE_CHECK_LIMIT:
        kept.report = report
    return report


def json_object(data, where: str) -> dict:
    """data itself when it is a JSON object; ParameterError otherwise."""
    if not isinstance(data, dict):
        raise ParameterError(f"{where} must be a JSON object, got {type(data).__name__}")
    return data


def read_field(data: dict, key: str, convert, where: str):
    """data[key] passed through convert.  A missing key, or a value that
    convert rejects, raises ParameterError naming the key."""
    if key not in data:
        raise ParameterError(f"{where} lacks the key {key!r}")
    try:
        return convert(data[key])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(f"{where} has a malformed {key!r}: {exc}") from None


def read_int(value) -> int:
    """A count or an index read from a file: an int, or a float with an
    integral value; TypeError for a bool, a string or anything else, and
    ValueError for a float with a fractional part or none (NaN, inf)."""
    if isinstance(value, bool):
        raise TypeError("expected an integer, got a bool")
    if isinstance(value, float):
        if not value.is_integer():
            raise ValueError(f"expected an integer, got {value!r}")
        return int(value)
    return operator.index(value)


def read_float(value) -> float:
    """A number read from a file, as a float; TypeError for a bool, a
    string or anything else, which float() would convert."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"expected a number, got {value!r:.40}")
    return float(value)


def read_floats(values) -> np.ndarray:
    """A flat list of numbers read from a file, as a float array;
    TypeError for bools or strings, which numpy would convert, and
    ValueError for nested lists."""
    array = np.asarray(values)
    # numpy turns bools among numbers into numbers too
    if array.dtype.kind not in "iuf" or array.ndim == 1 and bool in set(map(type, values)):
        raise TypeError(f"expected numbers, got {values!r:.40}")
    if array.ndim != 1:
        raise ValueError(f"expected a flat list, got shape {array.shape}")
    return array.astype(float)


def reward_from_descriptor(desc: dict) -> RewardFunction:
    """Build a reward function from its JSON descriptor."""
    kind = json_object(desc, "reward descriptor").get("kind")
    where = f"{kind} reward descriptor"

    def field(key, convert=read_float):
        return read_field(desc, key, convert, where)

    if kind == "additive":
        return Additive(field("weights", read_floats))
    if kind == "capped_additive":
        return CappedAdditive(field("weights", read_floats), field("cap"))
    if kind == "coverage":
        return Coverage(
            field("elements", lambda elements: [read_float(e["weight"]) for e in elements]),
            field("covers", lambda covers: [[read_int(e) for e in cover] for cover in covers]),
        )
    if kind == "explicit":
        return ExplicitTable(field("n", read_int), field("table", read_floats))
    if kind == "symmetric_two_class":
        return SymmetricTwoClass(field("f_a"), field("f_b"), field("count_b", read_int))
    raise ParameterError(f"unknown reward kind: {kind!r}")
