"""Optimizers over incentive sets.

brute_force finds the exact optimum over all 2^n subsets (_table_best),
and the two-agent solvers are brute_force at n = 2: at small n every
set is priced, and above it a bound from each agent's singleton rate
leaves out almost every set.  From SPLIT_N agents on, the value table is
split into rows by the upper half of the agents; a bound on each row,
from the lower half's Pareto frontier (a meet in the middle), leaves out
most rows before they are valued, and no 2^n array is built.  A solve
keeps the few sets its bound could not rule out on the rows it shares
with later solves of the same reward (rewards.table_rows); a later solve
at the same costs prices those first, and when they reach the kept bar,
as they do in a regime at least as loose (nd, then beta_nd with a
growing beta, then unconstrained), it needs no bound pass at all.
log_partition and delta_partition split a known good base set into groups
whose best uniform-pay (or bounded-ratio) contract carries a guaranteed
fraction of the base utility.  symmetric_solve and geometric_solve are
exact fast paths for rewards made of runs of agents with equal weight
and cost, both evaluated by _class_solve; each checks from the
instance's numbers, never its metadata, that it has its family's shape.
Every exact solver ends in _report.

Ties between maximizing sets are always broken toward smaller
cardinality, then smaller bitmask (_rank), so results are independent of
enumeration order.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .contracts import (
    BOUND_SLACK,
    COMPARE_TOL,
    MARGINAL_TOL,
    RATE_TOL,
    IncentiveOutcome,
    Instance,
    ModeSpec,
    _empty_outcome,
    _price_set,
    _utility,
    indifference_payment,  # noqa: F401 - bench/tracing.py wraps this name
    optimal_contract_for_set,
)
from .errors import EmptySetError, ParameterError, SizeLimitError, StructureError
from .rewards import EXHAUSTIVE_CHECK_LIMIT, STRUCT_TOL, Additive, as_mask, fold_subsets
from .rewards import table_rows

BRUTE_FORCE_LIMIT = EXHAUSTIVE_CHECK_LIMIT
# masks priced per block by _table_best
PRICE_BLOCK = 4096
# _table_best prices every set up to this n, the largest with n 2^n <=
# PRICE_BLOCK; the bound passes take 143, 109, 142 us at n = 8, 9, 10 and
# pricing every set 65, 100, 162 us (median, random instances, 2 vCPUs)
PRICE_ALL_N = 8
# _table_best splits the table into rows of 2^ceil(n/2) masks from this n
# on, and builds no 2^n array.  An nd and then a beta_nd(2) solve of one
# gen_random instance took, with one row against the split (ms, median of
# 4 processes x 4 alternating rounds x 8 instances, 2 vCPUs): coverage
# 1.51 / 1.42 and additive 0.91 / 1.02 at n = 16, 2.52 / 1.42 and 1.56 /
# 1.11 at n = 17, 4.73 / 1.61 and 2.82 / 1.11 at n = 18.  The beta_nd
# solve reprices the sets the nd solve kept either way: 0.14 / 0.17 ms on
# additive and 0.24 / 0.27 ms on coverage at n = 17.
SPLIT_N = 17
# masks valued and bounded per batch of rows by _table_best
ROW_BLOCK = 1 << 14
# 8 units in the last place of 1.0, the unit of _best_count's error bounds
ULP8 = 2.0**-50


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
        candidates = [o for o in self.per_group if o.feasible] + [_empty_outcome(n)]
        return min(candidates, key=lambda o: _rank(o.utility, o.members))


def _rank(utility: float, mask: int) -> tuple:
    """Sort key of a candidate set, smaller is better: highest utility,
    then fewest members, then smallest mask."""
    return (-utility, mask.bit_count(), mask)


EMPTY_RANK = (-0.0, 0, 0)  # _rank(0.0, 0), the empty set's key


def _argbest(util, popc):
    """Index of the best candidate in a utility array, or None when no
    utility is finite (-inf marks an infeasible candidate).

    Best is as _rank orders it, popc giving each candidate's member
    count; index order must be mask order among candidates of equal size.
    """
    k = int(util.argmax())  # the first maximum
    if not np.isfinite(util[k]):
        return None
    cand = np.flatnonzero(util == util[k])
    return int(cand[popc[cand].argmin()])


def _price(values, costs, masks, ratio):
    """Unconstrained and mode utilities of the given masks, and their
    member counts, -inf for an infeasible set; values(masks) is f of each.

    Agent i's payment in S is costs[i] / (f(S) - f(S - i)); S is
    infeasible when a member's marginal is at most MARGINAL_TOL or its
    top payment exceeds 1 + COMPARE_TOL.  Each member is paid max(alpha_i,
    top / ratio), ModeSpec.pay_ratio's rule, and the payments are summed
    in agent order (reduce adds sequentially, np.sum pairwise), so nd is
    ratio 1.0 bit for bit.  Arrays are agents x masks, so that each
    agent's row is contiguous.
    """
    bits = (1 << np.arange(costs.size))[:, None]
    has = (masks & bits) != 0
    both = values(np.concatenate([masks[None], masks & ~bits]))  # f(S), then each f(S - i)
    value, marg = both[0], both[0] - both[1:]  # 0 off the set
    paid = marg > MARGINAL_TOL  # hence members only
    with np.errstate(over="ignore"):  # an inf payment is above 1: infeasible
        alpha = np.divide(costs[:, None], marg, out=np.zeros(marg.shape), where=paid)
    popc = has.sum(axis=0)
    top = alpha.max(axis=0)
    infeasible = (paid.sum(axis=0) < popc) | (top > 1 + COMPARE_TOL)

    def utility(pay):
        util = (1.0 - pay) * value
        util[infeasible] = -np.inf
        return util

    ref = utility(functools.reduce(np.add, alpha))
    if ratio == math.inf:
        return ref, ref, popc
    floor = np.where(has, np.maximum(alpha, top / ratio), 0.0)  # not pay * has: inf * 0
    return ref, utility(functools.reduce(np.add, floor)), popc


def _ranked(key, util, popc, masks):
    """The smaller of the _rank key and that of the best priced mask."""
    i = _argbest(util, popc)
    return key if i is None else min(key, (-util[i], int(popc[i]), int(masks[i])))


def _priced(rows, costs, masks, ratio, best, ref):
    """best and ref, the _rank keys of the best sets so far in the mode
    and unconstrained, each lowered to the best of the masks, which are
    priced PRICE_BLOCK at a time and ascend within each block."""
    for c in range(0, masks.size, PRICE_BLOCK):
        block = masks[c : c + PRICE_BLOCK]
        ref_u, util_u, popc = _price(rows.values, costs, block, ratio)
        best, ref = _ranked(best, util_u, popc, block), _ranked(ref, ref_u, popc, block)
    return best, ref


def _row_bounds(a, b, x, y):
    """max over l of max(a[h] - x[l], 0) (b[h] + y[l]) for each row h,
    taken over the Pareto frontier of the points (x[l], y[l]): those that
    no other point matches with a smaller or equal x and a larger or
    equal y.  Rounding is monotone, so a point's float product is at most
    that of any point dominating it."""
    order = np.lexsort((-y, x))  # x ascending, then y descending
    x, y = x[order], y[order]
    front = y > np.maximum.accumulate(np.concatenate([[-np.inf], y[:-1]]))
    gap = np.maximum(a[:, None] - x[front], 0.0)
    return (gap * (b[:, None] + y[front])).max(axis=1)


def _row_slack(n):
    """How far a set's B can exceed its row's bound (see _table_best).

    t(h | l) <= t(h) + t(l) holds up to k (n - k) <= n^2 / 4 pairwise
    conditions, each checked to STRUCT_TOL on float gains that round by
    at most 4u, u = 2^-53.  The rate sums are at most 2n, so 1 - R[S] as
    B forms it and a - x as the bound does differ by at most 6 (2n + 1) u,
    which multiplies values below 3; the sum b + y and the two products,
    of values at most 2, round by at most 7u in all.  Rewards built from
    sums, additive and coverage, round t by far less than STRUCT_TOL.
    """
    u = 2.0**-53
    return n * n / 4 * (STRUCT_TOL + 4 * u) + (18 * (2 * n + 1) + 7) * u


def _table_best(rows, costs, ratio):
    """Best masks for the pay ratio's mode and for the unconstrained mode
    over every subset, from the value table's rows (rewards.TableRows).

    Up to PRICE_ALL_N agents every set is priced in one block, which
    costs less than the bound passes below: they cost a few passes and
    two pricings however small the table, while pricing costs n 2^n.
    _price treats each mask alone, so both ways pick the same sets, and
    every way reduces through _priced from the empty set's key.

    The rewards are submodular, so agent i's marginal in any set is at
    most its singleton marginal plus RATE_TOL, and its payment alpha_i(S)
    is at least its rate r_i = costs[i] / (that marginal + RATE_TOL), bit
    for bit, as rounding is monotone.  A set's rate sum R[S] is its low
    agents' rates folded in agent order, as the payments are summed, plus
    the sum of its high agents' (with one row, the fold alone, bit for
    bit the payments' order).  Both sums are of at most n rates below 2,
    so R exceeds the sum of the payments by at most 4 n^2 u, 2e-13 at
    n = 22 with u = 2^-53.  B = (1 - R) t thus falls short of every
    mode's utility by at most that, far less than BOUND_SLACK.  The bar
    is the best exact utility found so far in each mode, starting from
    the empty set's 0, raised by pricing each batch's argmax B: only the
    sets whose bound reaches it less BOUND_SLACK can win, and at a bar of
    0 no set with t[S] = 0, which ties the empty set at best.

    When the price of non-discrimination is high, B stays above the nd or
    beta_nd bar on many sets.  Once pricing them, n operations each,
    would cost more than a pass over the batch, the mode's own bound
    (1 - k rho / ratio) t prunes them again: every member is paid at
    least top / ratio >= rho[S] / ratio, rho[S] being the largest rate.
    Survivors are priced exactly, PRICE_BLOCK masks at a time, each once
    for both modes, and ranked by _rank.

    Reuse: let tau be the lower of the two final bars.  In any regime at
    these costs whose best utility reaches tau, every set that can win or
    tie has a utility of at least tau, so B >= tau - BOUND_SLACK, as B
    falls short of each utility by far less than the slack.  The kernel
    keeps those sets on rows.survivors, with tau and the costs: each
    batch's sets whose B reached its lower bar, a superset, as bars only
    rise, filtered by the final tau; rows never valued held no set whose
    B reached the bar of their time, at most tau.  A later solve at equal
    costs prices them first, and when both of its bests among them reach
    tau, no set outside can beat or tie them, so their _rank winners are
    the full kernel's.  They always do when the later regime is at least
    as loose as the first: for a fixed set, top / ratio falls as the
    ratio grows, and float max, +, 1 - x and x f >= 0 are all monotone,
    so nd <= beta_nd(beta) <= beta_nd(beta') <= unconstrained utility for
    beta <= beta' holds set by set in floats, and the first solve's two
    winners, which are kept, reach their bars again.  Otherwise the full
    kernel runs and replaces what is kept.  tau <= BOUND_SLACK, when the
    empty set may tie, keeps nothing.

    Rows: agents 0..k-1 pick a mask's column and the rest its row h (k =
    n below SPLIT_N, one row, the dense table).  Above, k = ceil(n / 2),
    and the rows are valued best first by a bound on their sets' B, with
    a = 1 - R[h], b = t[h] and x, y the rate sum and value of each low set
    l: t(h | l) <= b + y, up to k (n - k) <= n^2 / 4 pairwise violations
    of STRUCT_TOL by an explicit table (each marginal of l's agents shrinks
    by at most STRUCT_TOL per agent of h), and the rates add, so B(h | l)
    <= max(a - x, 0) (b + y) + _row_slack(n), which also covers the
    rounding (see _row_slack).  _row_bounds maximizes it over the low sets'
    Pareto frontier.  Batches of rows, ROW_BLOCK masks at a time, are
    valued, bounded and priced as the one row is, until the next row's
    bound is below the lower bar less BOUND_SLACK: no later row holds a
    set that the one-row kernel would price.  Costs: O(2^k) to set up,
    O(2^(n - k) F) for the bounds of F frontier points, O(2^k) passes per
    batch valued, and O(s n) pricing of s survivors; below SPLIT_N, O(2^n)
    contiguous passes, and s is 2^n when every set ties.  A solve that
    reuses the kept sets costs O(s' n) for the s' <= s kept, and nothing
    else: on gen_random's coverage and additive instances at n = 16..20,
    s' is a few dozen (at most a few hundred).
    """
    n, k = costs.size, rows.k
    if n <= PRICE_ALL_N:
        best, ref = _priced(rows, costs, np.arange(1 << n), ratio, EMPTY_RANK, EMPTY_RANK)
        return best[2], ref[2]
    if rows.survivors is not None and np.array_equal(rows.survivors[0], costs):
        _, bar, masks = rows.survivors
        best, ref = _priced(rows, costs, masks, ratio, EMPTY_RANK, EMPTY_RANK)
        if min(-best[0], -ref[0]) >= bar:
            return best[2], ref[2]
    t_low = rows.rows(np.zeros(1, np.intp))[0]  # row 0: the low sets
    t_high = rows.values(np.arange(1 << (n - k)) << k)  # column 0: the high sets
    singles = np.concatenate([t_low[1 << np.arange(k)], t_high[1 << np.arange(n - k)]])
    with np.errstate(over="ignore"):
        rates = costs / (singles - t_low[0] + RATE_TOL)
    # a rate above 1 + COMPARE_TOL makes every set holding the agent
    # infeasible; capped, R stays finite, so (1 - R) t is never inf * 0
    np.minimum(rates, 2.0, out=rates)
    low, high = rates[:k], rates[k:]
    low_sum, high_sum = fold_subsets(np.add, low), fold_subsets(np.add, high)
    order = np.zeros(1, np.intp)
    reach_row = np.full(1, np.inf)
    if k < n:
        bound = _row_bounds(1.0 - high_sum, t_high, low_sum, t_low)
        order = np.argsort(-bound, kind="stable")
        reach_row = bound[order] + _row_slack(n)
    best = ref = EMPTY_RANK

    def utility(pay, t):
        np.subtract(1.0, pay, out=pay)
        return np.multiply(pay, t, out=pay)

    def reach(bound, t, bar):
        """The sets whose bound reaches bar >= 0."""
        hit = bound >= bar - BOUND_SLACK
        if bar <= BOUND_SLACK:
            hit &= t > 0
        return hit

    def masks_of(cand, hs):
        """The masks at the flat indices cand of the rows hs; the one
        row's indices are its masks."""
        return cand if k == n else hs[cand >> k] << k | cand & (1 << k) - 1

    def bars(bound, hs):
        """The best (unconstrained, mode) utilities so far, raised to the
        exact ones of argmax bound."""
        masks = masks_of(np.array([bound.argmax()]), hs)
        ref_u, util_u, _ = _price(rows.values, costs, masks, ratio)
        return max(ref_u[0], -ref[0]), max(util_u[0], -best[0])

    def row_fold(low_fold, high_fold, op, hs):
        """op of a fold over the low agents and one over the high agents
        at each mask of the rows hs; with one row, the low fold itself,
        which its one batch then reads once, in place."""
        return low_fold[None] if k == n else op(low_fold, high_fold[hs, None])

    per = max(1, ROW_BLOCK >> k)
    held = []  # (masks, B) of the sets each batch kept by B
    mode_folds = None  # the largest rate and the member count of the low and the high sets
    for start in range(0, order.size, per):
        bar_low = min(-best[0], -ref[0])
        hs = order[start : start + per]
        hs = np.sort(hs[reach_row[start : start + per] >= bar_low - BOUND_SLACK])
        if not hs.size:
            break  # the rows are in descending bound order
        t = rows.rows(hs)
        bound = utility(row_fold(low_sum, high_sum, np.add, hs), t)
        bar_ref, bar = bars(bound, hs)
        keep = reach(bound, t, min(bar_ref, bar))
        cand = np.flatnonzero(keep)
        masks = masks_of(cand, hs)
        held.append((masks, bound.ravel()[cand]))
        if ratio < math.inf and cand.size * n > keep.size:
            keep_ref = reach(bound, t, bar_ref)
            if mode_folds is None:
                ones = np.ones(n, np.uint8)
                mode_folds = (
                    fold_subsets(np.maximum, low),
                    fold_subsets(np.maximum, high),
                    fold_subsets(np.add, ones[:k], np.uint8),
                    fold_subsets(np.add, ones[k:], np.uint8),
                )
            top_low, top_high, count_low, count_high = mode_folds
            pay = row_fold(top_low, top_high, np.maximum, hs)
            np.multiply(pay, row_fold(count_low, count_high, np.add, hs), out=pay)
            np.divide(pay, ratio, out=pay)
            bound = utility(pay, t)
            keep &= reach(bound, t, max(bar, bars(bound, hs)[1]))
            keep |= keep_ref
            masks = masks_of(np.flatnonzero(keep), hs)
        best, ref = _priced(rows, costs, masks, ratio, best, ref)
    bar = min(-best[0], -ref[0])
    rows.survivors = None
    if bar > BOUND_SLACK:
        masks, bound = (np.concatenate(part) for part in zip(*held))
        rows.survivors = (costs.copy(), bar, np.sort(masks[bound >= bar - BOUND_SLACK]))
    return best[2], ref[2]


def _report(inst, spec, method, examined, best, ref) -> SolveReport:
    """Report of an exact solver: its winner mask priced under spec, and
    the unconstrained optimum, the utility of the mask ref."""
    out = optimal_contract_for_set(inst, best, spec)
    return SolveReport(spec, out, method, examined, _utility(inst, ref))


def brute_force(
    inst: Instance,
    spec: ModeSpec,
    workers: int = 1,
) -> SolveReport:
    """Exact optimum over all 2^n subsets, n <= BRUTE_FORCE_LIMIT, with
    the unconstrained optimum reported as opt_reference; ties go to
    _rank's order.  candidates_examined counts all 2^n sets.  workers is
    accepted for compatibility and ignored: the scan is single threaded.

    Costs (derived in _table_best): up to PRICE_ALL_N agents, n 2^n to
    price every set; below SPLIT_N, O(2^n) contiguous passes for the
    bound and O(s n) to price the s sets it keeps, 2^n only when every
    set ties; from SPLIT_N on, O(2^k + 2^(n - k) F) to bound every row,
    k = ceil(n / 2), and O(2^k) for each row whose bound reaches the bar,
    with no 2^n array (the nd and beta_nd solves of gen_random instances
    at n = 18..20 valued 1.6% to 16% of the rows between them).  Rows
    come from rewards.table_rows, which also holds the sets the last
    solve of the reward kept: a solve at its costs first prices only
    those s', O(s' n), and values no row when they decide it.
    """
    n = inst.n
    if n > BRUTE_FORCE_LIMIT:
        raise SizeLimitError(
            f"brute force over 2^{n} subsets exceeds the limit ({BRUTE_FORCE_LIMIT}); "
            "use the symmetric or partition methods"
        )
    k = n if n < SPLIT_N else (n + 1) // 2
    best, ref = _table_best(table_rows(inst.reward, k), inst.costs, spec.pay_ratio)
    return _report(inst, spec, "brute_force", 1 << n, best, ref)


def _base_alphas(inst: Instance, base) -> tuple[int, dict[int, float]]:
    """Validate a partition base set and return member payments within it.

    The base is feasible as optimal_contract_for_set decides, from the
    same one pricing (unconstrained pay is the indifference payments):
    no member's marginal vanishes and none is paid above 1 + COMPARE_TOL.
    """
    base_mask = as_mask(base, inst.n)
    if base_mask == 0:
        raise EmptySetError("partition base set must be nonempty")
    reason, members, alphas, _ = _price_set(inst, base_mask, math.inf)
    if reason is not None:
        raise ParameterError(f"base set is not feasible under unconstrained payments ({reason})")
    return base_mask, dict(zip(np.flatnonzero(members).tolist(), alphas.tolist()))


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


def delta_bands(delta: float) -> int:
    """t = ceil(1/delta), the number of payment bands above 1/n of
    delta_partition; ParameterError unless 0 < delta <= 1 and 1/delta is
    finite, which a subnormal delta's is not."""
    if not 0 < delta <= 1 or math.isinf(1.0 / delta):
        raise ParameterError(f"delta must lie in (0, 1] with 1/delta finite, got {delta:g}")
    return math.ceil(1.0 / delta)


def delta_partition(inst: Instance, base, delta: float) -> PartitionResult:
    """Payment-threshold partition evaluated under the n^delta wage ratio.

    With t = delta_bands(delta), members are bucketed by their in-base
    payment a: below 1/n, else in the first band g = 1..t with a <
    n^(-(t - g) delta), edges that rise by a factor n^delta up to 1, or
    in band t.  Each bucket is priced as a beta-ND contract with beta =
    n^delta; the best bucket carries at least (base utility - n^-delta)
    / (t + 1).  Bisection finds the band a scan over the edges would, as
    they never fall with g (they could only with n^delta within an ulp
    of 1, t > 10^15), in O(|base| log t), keeping only nonempty buckets.
    """
    t = delta_bands(delta)
    base_mask, alphas = _base_alphas(inst, base)
    n = inst.n
    beta = math.exp(delta * math.log(n)) if n > 1 else 1.0

    def band(a):
        if a < 1.0 / n:
            return 0
        lo, hi = 1, t  # a is below band hi's edge, or hi = t
        while lo < hi:
            mid = (lo + hi) // 2
            if a < n ** (-(t - mid) * delta):
                hi = mid
            else:
                lo = mid + 1
        return lo

    buckets: dict[int, list[int]] = {}
    for i in sorted(alphas):
        buckets.setdefault(band(alphas[i]), []).append(i)

    masks = [as_mask(buckets[g], n) for g in sorted(buckets)]
    mode = ModeSpec.beta_nd(beta)
    per_group = [optimal_contract_for_set(inst, g, mode) for g in masks]
    return PartitionResult(masks, per_group, t + 1, base_mask)


def _reach(a, b, size):
    """One more than the largest x >= 0 with a x^2 - b x <= 2 (a >= 0),
    capped at size; size when every x >= 0 qualifies (a = 0 <= b).

    The root is formed without cancellation, and its relative condition
    number in a, b and the 2 is at most 1, so inputs and steps that each
    round by a few units in the last place move it by a few units in its
    last place, which 1 + floor covers for any root below 2^48.
    """
    d = math.sqrt(b * b + 8.0 * a)
    if b < 0:
        x = 4.0 / (d - b)
    elif 2.0 * a * size <= b + d:
        return size
    else:
        x = (b + d) / (2.0 * a)
    return min(size, int(x) + 1)


def _best_count(base, rate, value, weight, size, bar):
    """First count p in 1..size that maximizes the float utility
    u(p) = (1.0 - (base + p * rate)) * (value + p * weight), and u(p);
    None, without scoring any count, when every u(p) is below bar.

    Here A = base, s = rate and V = value are >= 0 and w = weight > 0.
    The exact U(p) = F(p) G(p), with F = 1 - A - p s and G = V + p w, is a
    concave quadratic: U(p0 + x) = U(p0) + g x - q x^2, where q = s w and
    g = w F(p0) - s G(p0).  With u = 2^-53, X = A + size s and Y = V +
    size w, each step of u(p) rounds by at most u, so the float F is
    within u (1 + 3X) of F, the float G within 2u Y of G, and u(p) within
    u Y (4 + 6X) < 8u Y (1 + X) = eps of U(p); the float g is likewise
    within 5u (w (1 + X) + s Y) < dg of g.  (Underflow adds at most
    2^-1075 a step, far below eps and dg, as w > MARGINAL_TOL.  eps and
    dg as computed are a few ulps below their formulas, and the bounds
    they cover, here and below, clear them by a quarter.)

    The bar test bounds every u(p) by the block's continuous maximum.
    The float U'(0) = w (1 - A) - s V is within e = 4u (w (1 + X) + s Y)
    of the exact one, and 2q and 2q size round by at most 2u relatively.
    When the vertex is at or below 1 as computed, U'(1) <= e + 2u q, so
    by concavity U(p) <= U(1) + (e + 2u q)(size - 1) <= U(1) + 2 eps, as
    w size <= Y and s size <= X; at or above size, U(p) <= U(size) +
    (e + 4u q size)(size - 1) <= U(size) + 2 eps likewise.  Either way
    u(p) <= u(end) + 4 eps.  In between, the float U'(0) > 2 q > 0, so
    w (1 - A) > 0, and M = (w (1 - A) + s V)^2 / (4 s w), the parabola's
    maximum, is formed from nonnegative terms only: the rounding is
    relative, nine steps leave the float M' within 10u M of M, and u(p)
    <= M + eps <= M' (1 + 2 ULP8) + eps as computed.  The last addition
    rounds monotonically, so a bound whose float is below bar was below
    it exactly, and every u(p) < bar.

    The first float maximum p* has U(p*) >= u(p*) - eps >= u(p0) - eps >=
    U(p0) - 2 eps for any p0, so x = p* - p0 solves q x^2 - g x <= 2 eps,
    an interval.  Bounding g by g + dg to the right of p0 and by g - dg to
    its left widens it, and _reach solves each side.  p0 is the vertex
    rounded into 1..size, so the interval is a few counts wide unless U
    is flat within eps across many counts; at worst, when every count
    ties within rounding, it is all of 1..size.  The loop scores it in
    ascending p, and the strict > keeps the first maximum.
    """
    tip = 1.0 + base + size * rate  # 1 + X
    height = value + size * weight  # Y
    eps = ULP8 * height * tip
    dg = ULP8 * (weight * tip + rate * height)
    curve = rate * weight  # q
    slope = weight * (1.0 - base) - rate * value  # U'(0) = 2 q vertex
    if slope <= 2.0 * curve:
        p0 = 1
        top = (1.0 - (base + rate)) * (value + weight) + 4.0 * eps
    elif slope >= 2.0 * curve * size:
        p0 = size
        top = (1.0 - (base + size * rate)) * (value + size * weight) + 4.0 * eps
    else:
        p0 = round(slope / (2.0 * curve))
        peak = (weight * (1.0 - base) + rate * value) ** 2 / (4.0 * curve)
        top = peak * (1.0 + 2.0 * ULP8) + eps
    if top < bar:
        return None
    g = weight * (1.0 - (base + p0 * rate)) - rate * (value + p0 * weight)
    a = curve / eps
    lo = max(1, p0 - _reach(a, (dg - g) / eps, size))
    hi = min(size, p0 + _reach(a, (g + dg) / eps, size))
    best, util = 0, -math.inf
    for p in range(lo, hi + 1):
        u = (1.0 - (base + p * rate)) * (value + p * weight)
        if u > util:
            best, util = p, u
    return best, util


def _class_solve(inst, spec, method, sizes, weights, costs) -> SolveReport:
    """Exact optimum over the class candidates of a reward with constant
    marginals, and the unconstrained optimum over them, in one pass.

    A class is a run of consecutive agents with equal weight (their
    marginal) and equal cost: class g holds sizes[g] agents at the rate
    costs[g] / weights[g], infinite for a vanishing weight.  A candidate
    takes classes L..j-1 whole plus the first p agents of class j.  As in
    optimal_contract_for_set, its top rate must be at most 1, and each
    member is paid max(rate, top / spec.pay_ratio).  Within a block (L, j)
    the utility is a concave quadratic in p, and _best_count scores only
    the counts that can be its first float maximum.  It is given the best utility found
    so far in its mode, and skips a block whose continuous maximum,
    with rounding slack, is below it: every count there loses to the
    best so far, so the winners are a full scan's.  Block winners are
    ranked by (utility, member count, first member), and only the final
    winner and reference get a bitmask.  The pay of classes L..j-1 is
    summed afresh only when the floor top / ratio rises.  With k classes
    this is O(k^2) cap and bar checks (O(k^3) if the top rate rises at
    most classes, which neither family does), plus the blocks actually
    scored, and O(n) to price the winner and the reference.  On the
    geometric family only the first row, L = 0, holds winners, and of
    the m(m + 1) blocks of both modes 2m are scored (2m + 1 at worst,
    counted at m = 4..20, T = 2, 3, 10 in three modes).
    """
    starts = [0, *itertools.accumulate(sizes)]
    rates = [c / w if w > MARGINAL_TOL else math.inf for w, c in zip(weights, costs)]
    ratio = spec.pay_ratio

    def block_winner(L, j, base, rate, key):
        """The smaller of key and the key of block (L, j)'s best
        candidate, value being the weight of classes L..j-1: (-utility,
        member count, first member).  A candidate is a run of consecutive
        agents, and of two runs of equal length the earlier one has the
        smaller mask, so the key orders candidates as _rank does.  A
        block whose every utility is below key's is not scored."""
        found = _best_count(base, rate, value, weights[j], sizes[j], -key[0])
        if found is None:
            return key
        p, util = found
        return min(key, (-util, starts[j] - starts[L] + p, starts[L]))

    best = ref = EMPTY_RANK
    for L in range(len(sizes)):
        # value, pay_unc and pay: classes L..j-1 whole
        top = floor = value = pay_unc = pay = 0.0
        for j in range(L, len(sizes)):
            top = max(top, rates[j])
            if top > 1 + COMPARE_TOL:
                break  # every later block holds class j too
            if top / ratio != floor:
                floor = top / ratio
                pay = 0.0  # summed afresh, in the same order
                for g in range(L, j):
                    pay += sizes[g] * max(rates[g], floor)
            elif j > L:
                pay += sizes[j - 1] * max(rates[j - 1], floor)
            ref = block_winner(L, j, pay_unc, rates[j], ref)
            best = block_winner(L, j, pay, max(rates[j], floor), best)
            value += sizes[j] * weights[j]
            pay_unc += sizes[j] * rates[j]
    examined = 1 + sum((j + 1) * size for j, size in enumerate(sizes))

    def run_mask(key):
        _, count, first = key
        return ((1 << count) - 1) << first

    return _report(inst, spec, method, examined, run_mask(best), run_mask(ref))


def symmetric_solve(inst: Instance, spec: ModeSpec) -> SolveReport:
    """Exact optimum for two-class rewards over 2(n + 1) candidates.

    Requires an additive reward, symmetric_two_class among them, whose
    agents after the first share one weight and one cost.  The two
    classes are agent 0 and the n - 1 identical ones, so _class_solve's
    candidates are (agent 0 in or out) x (the t lowest-index identical
    agents), which covers every distinct utility with the smallest mask.
    The scan checks three blocks per mode and scores those that can
    still win, a few scalar steps each; checking the classes and pricing
    the winner and the reference are O(n) array work.
    """
    r = inst.reward
    if not isinstance(r, Additive) or inst.n < 2:
        raise StructureError(f"symmetric_solve needs an additive reward of n >= 2, got {r.kind}")
    w, c = r.weights, inst.costs
    if not (np.all(w[2:] == w[1]) and np.all(c[2:] == c[1])):
        raise StructureError("identical agents must share a single weight and cost")
    sizes, weights, costs = [1, inst.n - 1], w[:2].tolist(), c[:2].tolist()
    return _class_solve(inst, spec, "symmetric", sizes, weights, costs)


def geometric_solve(inst: Instance, spec: ModeSpec) -> SolveReport:
    """Structured search for geometric-family instances at any size.

    The groups are the additive reward's runs of equal (weight, cost).
    Candidate sets are unions of consecutive whole groups plus a prefix
    of the next group (agents within a group are interchangeable, and
    lower groups dominate higher ones per unit of payment), which brute
    force confirms is where the optimum lives for small m; that holds on
    the family only, so the runs must have its shape, checked in O(m):
    sizes s_k = 1, 2, 4, ..., w_k s_k == 1 / m and c_k s_k^2 == c_0, which
    hold bit for bit, s_k being powers of two, on every
    gen_geometric_family(m, T) and any positive rescale of its costs.
    _class_solve checks the m(m + 1) / 2 blocks per mode in O(m^2)
    scalar steps, and picks the best prefix in closed form of only the
    blocks that can still win, about m per mode, plus O(n) to price the
    winner and the reference.
    """
    r = inst.reward
    if not isinstance(r, Additive):
        raise StructureError(f"geometric solving needs an additive reward, got {r.kind}")
    w, c = r.weights, inst.costs
    change = (w[1:] != w[:-1]) | (c[1:] != c[:-1])
    starts = np.concatenate([[0], np.flatnonzero(change) + 1])
    sizes = np.diff(starts, append=inst.n).tolist()
    if sizes != [1 << g for g in range(len(sizes))]:
        raise StructureError(
            "geometric solving needs runs of equal weight and cost "
            "of sizes 1, 2, 4, ..."
        )
    weights, costs = w[starts].tolist(), c[starts].tolist()
    share = 1.0 / len(sizes)
    if any(wk * s != share or ck * s**2 != costs[0] for wk, ck, s in zip(weights, costs, sizes)):
        raise StructureError(
            "geometric solving needs the geometric family's runs: weights "
            "1 / (m 2^k) and costs c_0 / 4^k"
        )
    return _class_solve(inst, spec, "geometric", sizes, weights, costs)


def two_agent_bound(beta: float) -> float:
    """Worst-case utility ratio for two agents: 1 + 1/sqrt(beta + 1)."""
    ModeSpec.beta_nd(beta)  # beta >= 1, as every beta_nd solve requires
    return 1.0 + 1.0 / math.sqrt(beta + 1.0)


def two_agent_exact(inst: Instance, spec: ModeSpec) -> SolveReport:
    """Exact two-agent optimum under any payment regime: brute_force over
    the four sets, reported under the method "two_agent"."""
    if inst.n != 2:
        raise SizeLimitError(f"the two-agent solver requires exactly 2 agents, got {inst.n}")
    return dataclasses.replace(brute_force(inst, spec), method="two_agent")


def two_agent_solve(inst: Instance, beta: float) -> SolveReport:
    """Exact two-agent optimum under the beta wage-ratio constraint, with
    the unconstrained optimum as opt_reference (see two_agent_exact)."""
    return two_agent_exact(inst, ModeSpec.beta_nd(float(beta)))
