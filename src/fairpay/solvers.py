"""Optimizers over incentive sets.

brute_force enumerates every subset in one single-threaded pass over the
dense value table: agent i's marginals are the difference of the two
halves of the table viewed as reshape(-1, 2, 2^i) (rewards.halves), so
the kernel builds no mask or index arrays.
log_partition and delta_partition split a known good base set into groups
whose best uniform-pay (or bounded-ratio) contract carries a guaranteed
fraction of the base utility.  symmetric_solve and two_agent_solve are
exact structure-exploiting fast paths.

Ties between maximizing sets are always broken toward smaller
cardinality, then smaller bitmask (_rank), so results are independent of
enumeration order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contracts import (
    COMPARE_TOL,
    MARGINAL_TOL,
    Contract,
    IncentiveOutcome,
    Instance,
    ModeSpec,
    indifference_payment,
    optimal_contract_for_set,
)
from .errors import EmptySetError, ParameterError, SizeLimitError, StructureError
from .rewards import as_mask, halves, mask_to_indices

BRUTE_FORCE_LIMIT = 22


@dataclass(frozen=True)
class SolveReport:
    """Best incentive set found by a solver, with provenance."""

    spec: ModeSpec
    best: IncentiveOutcome
    method: str
    candidates_examined: int
    opt_reference: float | None = None


@dataclass(frozen=True)
class PartitionResult:
    """Groups produced by a partition scheme over a base set.

    groups and per_group are aligned; empty groups are dropped.  The
    scheme's approximation guarantee is best utility >= (base utility,
    possibly with an additive slack) / guarantee_denominator.
    """

    groups: list[int]
    per_group: list[IncentiveOutcome]
    guarantee_denominator: int
    base_set: int

    def best(self) -> IncentiveOutcome:
        """Highest-utility feasible group outcome (empty set as floor)."""
        n = max(o.payments.payments.size for o in self.per_group) if self.per_group else 1
        floor = IncentiveOutcome(0, Contract(np.zeros(n)), 0.0, True)
        candidates = [o for o in self.per_group if o.feasible] + [floor]
        return min(candidates, key=lambda o: _rank(o.utility, o.members))


def _rank(utility: float, mask: int) -> tuple:
    """Sort key of a candidate set, smaller is better: highest utility,
    then fewest members, then smallest mask."""
    return (-utility, mask.bit_count(), mask)


def _argbest(util, popc=None):
    """Index of the best candidate in a utility array, or None when no
    utility is finite (-inf marks an infeasible candidate).

    Best is as _rank orders it; index order must be mask order among
    candidates of equal size.  popc gives each candidate's member count,
    or None when index order already sorts by member count, so that the
    first maximum wins.
    """
    top = util.max()
    if not np.isfinite(top):
        return None
    cand = np.flatnonzero(util == top)
    if popc is not None:
        cand = cand[popc[cand] == popc[cand].min()]
    return int(cand[0])


def _table_best(table, costs, mode, beta):
    """Best masks for the requested mode and for the unconstrained mode,
    scanning every subset of the dense value table.

    Agent i's marginals are the difference of the table's two halves
    along bit i (see halves), and every per-mask array is updated in
    place through the same views.
    """
    size = table.size
    max_a = np.zeros(size)
    sum_a = np.zeros(size)
    popc = np.zeros(1, dtype=np.uint8)
    while popc.size < size:
        popc = np.concatenate([popc, popc + 1])
    a_buf = np.empty(size // 2)
    bad_buf = np.empty(size // 2, dtype=bool)

    def alphas(i):
        """Indifference payments of agent i in each mask that contains it
        (inf where the marginal vanishes), in a_buf shaped like its half."""
        without, with_i = halves(table, 1 << i)
        a = a_buf.reshape(without.shape)
        bad = bad_buf.reshape(without.shape)
        np.subtract(with_i, without, out=a)
        np.less_equal(a, MARGINAL_TOL, out=bad)
        np.copyto(a, 0.0, where=bad)
        with np.errstate(divide="ignore"):
            return np.divide(costs[i], a, out=a)

    for i in range(costs.size):
        a = alphas(i)
        top, total = halves(max_a, 1 << i)[1], halves(sum_a, 1 << i)[1]
        np.maximum(top, a, out=top)
        total += a
    # a set is feasible iff every member's payment is at most 1, i.e. iff
    # its largest payment is; a vanishing marginal makes that payment inf
    infeasible = max_a > 1 + COMPARE_TOL

    def select(pay):
        """Reduce a payment vector, overwriting it with the utilities.
        The empty set is always feasible, with utility 0."""
        np.subtract(1.0, pay, out=pay)
        with np.errstate(invalid="ignore"):
            np.multiply(pay, table, out=pay)
        np.copyto(pay, -np.inf, where=infeasible)
        return _argbest(pay, popc)

    ref = select(sum_a)
    if mode == "unconstrained":
        return ref, ref
    if mode == "nd":
        return select(np.multiply(popc, max_a, out=max_a)), ref
    floor = np.divide(max_a, beta, out=max_a)
    pay = np.zeros(size)
    for i in range(costs.size):
        a = alphas(i)
        np.maximum(a, halves(floor, 1 << i)[1], out=a)
        total = halves(pay, 1 << i)[1]
        total += a
    return select(pay), ref


def brute_force(
    inst: Instance,
    spec: ModeSpec,
    workers: int = 1,
    limit: int = BRUTE_FORCE_LIMIT,
) -> SolveReport:
    """Exact optimum by scanning all 2^n subsets in one vectorized pass.

    workers is accepted for compatibility and ignored: the scan is single
    threaded.  The unconstrained optimum is computed alongside and
    reported as opt_reference.
    """
    n = inst.n
    if n > limit:
        raise SizeLimitError(
            f"brute force over 2^{n} subsets exceeds the limit ({limit}); "
            "use the symmetric or partition methods"
        )
    best, ref = _table_best(inst.reward.value_table(), inst.costs, spec.mode, spec.beta)
    out = optimal_contract_for_set(inst, best, spec)
    ref_out = optimal_contract_for_set(inst, ref, ModeSpec.unconstrained())
    return SolveReport(spec, out, "brute_force", 1 << n, ref_out.utility)


def _base_alphas(inst: Instance, base) -> tuple[int, dict[int, float]]:
    """Validate a partition base set and return member payments within it."""
    base_mask = as_mask(base, inst.n)
    if base_mask == 0:
        raise EmptySetError("partition base set must be nonempty")
    outcome = optimal_contract_for_set(inst, base_mask, ModeSpec.unconstrained())
    if not outcome.feasible:
        raise ParameterError(
            f"base set is not feasible under unconstrained payments "
            f"({outcome.infeasibility_reason})"
        )
    alphas = {
        i: indifference_payment(inst, i, base_mask)
        for i in mask_to_indices(base_mask)
    }
    return base_mask, alphas


def log_partition(inst: Instance, base) -> PartitionResult:
    """Doubling partition of a base set, each group priced uniformly.

    Members are sorted by descending in-base payment and cut into groups
    of sizes 1, 2, 4, ... with the remainder in the last group; the best
    group's uniform-pay utility is at least the base's unconstrained
    utility divided by ceil(log2(n + 1)).

    The group count is ceil(log2(|base| + 1)), which keeps the remainder
    group no larger than the half that precedes it; one group more than
    ceil(log2 |base|) exactly at powers of two, where the shorter
    partition can overpay its remainder group and lose the guarantee.
    """
    base_mask, alphas = _base_alphas(inst, base)
    order = sorted(alphas, key=lambda i: (-alphas[i], i))
    m = len(order).bit_length()
    groups = []
    pos = 0
    for k in range(1, m):
        size = 1 << (k - 1)
        groups.append(order[pos : pos + size])
        pos += size
    groups.append(order[pos:])
    groups = [g for g in groups if g]
    masks = [as_mask(g, inst.n) for g in groups]
    per_group = [optimal_contract_for_set(inst, g, ModeSpec.nd()) for g in masks]
    return PartitionResult(masks, per_group, inst.n.bit_length(), base_mask)


def delta_partition(inst: Instance, base, delta: float) -> PartitionResult:
    """Payment-threshold partition evaluated under the n^delta wage ratio.

    With t = ceil(1/delta), members are bucketed by their in-base payment:
    below 1/n, then geometric bands of width n^delta up to 1.  Each bucket
    is priced as a beta-ND contract with beta = n^delta; the best bucket
    carries at least (base utility - n^-delta) / (t + 1).
    """
    if not 0 < delta <= 1:
        raise ParameterError(f"delta must lie in (0, 1], got {delta}")
    base_mask, alphas = _base_alphas(inst, base)
    n = inst.n
    t = math.ceil(1.0 / delta)
    beta = math.exp(delta * math.log(n)) if n > 1 else 1.0
    uppers = [1.0 / n] + [n ** (-(t + 1 - j) * delta) for j in range(2, t + 2)]

    buckets: list[list[int]] = [[] for _ in range(t + 1)]
    for i in sorted(alphas):
        for g, upper in enumerate(uppers):
            if alphas[i] < upper:
                buckets[g].append(i)
                break
        else:
            # payments at or above the top band edge (only possible right at
            # the boundary); fold into the last bucket
            buckets[-1].append(i)

    groups = [b for b in buckets if b]
    masks = [as_mask(g, inst.n) for g in groups]
    mode = ModeSpec.beta_nd(beta)
    per_group = [optimal_contract_for_set(inst, g, mode) for g in masks]
    return PartitionResult(masks, per_group, t + 1, base_mask)


def _two_class_scan(f_a, f_b, count_b, c_a, c_b, mode, beta):
    """Best (utility, popcount, mask) over candidates (a in/out, t of b's).

    Utilities on this reward depend only on a-membership and the number of
    identical agents taken, so the scan is exact; within a candidate class
    the t lowest-index identical agents realize the smallest bitmask.
    Members with a vanishing marginal get a sentinel payment above 1, which
    the feasibility filter then rejects.  The candidates are laid out as
    (out, 0), (in, 0), (out, 1), (in, 1), ...: candidate k has (k + 1) // 2
    members, and (a in, t) has a smaller mask than (a out, t + 1), so the
    first maximum is the tie-break winner and only its bitmask is built.
    """
    alpha_a = c_a / f_a if f_a > MARGINAL_TOL else 2.0
    alpha_b = c_b / f_b if f_b > MARGINAL_TOL else 2.0
    t = np.arange(count_b + 1, dtype=float)
    util = np.empty(2 * (count_b + 1))
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
        util[a_in::2] = np.where(top <= 1 + COMPARE_TOL, (1.0 - pay) * value, -np.inf)
    util[0] = 0.0  # empty set baseline
    k = _argbest(util)
    a_in, tt = k & 1, k >> 1
    return (float(util[k]), a_in + tt, a_in | (((1 << tt) - 1) << 1))


def symmetric_solve(inst: Instance, spec: ModeSpec) -> SolveReport:
    """Exact optimum for two-class rewards over 2(n + 1) candidates.

    Requires a symmetric_two_class reward and identical costs for the
    identical agents; candidates are (special agent in or out) x (how
    many identical agents), which covers every distinct utility.  The
    scan, the pricing of the winner and the reference are O(n) array
    operations, and one n-bit mask is built per mode.
    """
    r = inst.reward
    if r.kind != "symmetric_two_class":
        raise StructureError(
            f"symmetric_solve needs a symmetric_two_class reward, got {r.kind}"
        )
    tail = inst.costs[1:]
    if not np.all(tail == tail[0]):
        raise StructureError("identical agents must share a single cost")
    args = (r.f_a, r.f_b, r.count_b, float(inst.costs[0]), float(tail[0]))

    best_key = _two_class_scan(*args, spec.mode, spec.beta)
    ref_key = _two_class_scan(*args, "unconstrained", None)
    best = optimal_contract_for_set(inst, best_key[2], spec)
    ref = optimal_contract_for_set(inst, ref_key[2], ModeSpec.unconstrained())
    return SolveReport(spec, best, "symmetric", 2 * (r.count_b + 1), ref.utility)


def two_agent_bound(beta: float) -> float:
    """Worst-case utility ratio for two agents: 1 + 1/sqrt(beta + 1)."""
    if beta < 1:
        raise ParameterError(f"beta must be at least 1, got {beta}")
    return 1.0 + 1.0 / math.sqrt(beta + 1.0)


def _two_agent_scan(inst: Instance, spec: ModeSpec) -> SolveReport:
    """Exact two-agent optimum under any payment regime: the four sets
    are priced under spec, and the unconstrained optimum over them is
    recorded as opt_reference."""
    if inst.n != 2:
        raise SizeLimitError(f"the two-agent solver requires exactly 2 agents, got {inst.n}")
    outs = [optimal_contract_for_set(inst, mask, spec) for mask in range(4)]
    refs = [optimal_contract_for_set(inst, mask, ModeSpec.unconstrained()) for mask in range(4)]
    best = min((o for o in outs if o.feasible), key=lambda o: _rank(o.utility, o.members))
    ref = max(o.utility for o in refs if o.feasible)
    return SolveReport(spec, best, "two_agent", 4, ref)


def two_agent_solve(inst: Instance, beta: float) -> SolveReport:
    """Exact two-agent optimum under the beta wage-ratio constraint.

    Evaluates the four candidate sets and returns the constrained best;
    the unconstrained optimum over the same candidates is recorded as
    opt_reference.
    """
    return _two_agent_scan(inst, ModeSpec.beta_nd(float(beta)))
