"""Linear contracts: payments, principal utility, and equilibrium checks.

A linear contract is a payment vector alpha in [0,1]^n; agent i receives
alpha_i when the project succeeds, whether or not they exerted effort.
The three payment regimes of an incentive set S are one rule: each
member gets max(own indifference payment, top / pay_ratio), top being
the largest indifference payment in S, with ModeSpec.pay_ratio:

  unconstrained  inf: each member is paid their indifference payment
  nd             1: every member is paid top
  beta_nd        beta: payments differ by at most a factor beta

The principal's utility is (1 - total payment) * f(S).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractLogicError, EmptySetError, ParameterError
from .rewards import EXHAUSTIVE_CHECK_LIMIT, STRUCT_TOL, RewardFunction, as_mask, check_structure
from .rewards import mask_to_bools, mask_to_indices

log = logging.getLogger(__name__)

# Marginals at or below this are treated as zero (the agent cannot be
# incentivized inside that set); also the slack used in comparisons.
MARGINAL_TOL = 1e-9
COMPARE_TOL = 1e-9
# brute_force's singleton-rate bound: a marginal exceeds the agent's
# singleton marginal by less than this, as explicit tables are submodular
# up to STRUCT_TOL per pair and have at most EXHAUSTIVE_CHECK_LIMIT agents.
RATE_TOL = EXHAUSTIVE_CHECK_LIMIT * STRUCT_TOL
# brute_force prices every set whose bound is within this of the bar: nd
# pays k * top as one product, which may round a few ulps off the rate sum.
BOUND_SLACK = 1e-12


@dataclass(frozen=True)
class Instance:
    """A contract-design problem: n agents with effort costs and a reward."""

    n: int
    costs: np.ndarray
    reward: RewardFunction
    metadata: dict | None = None

    def __post_init__(self):
        costs = np.array(self.costs, dtype=float)
        costs.setflags(write=False)
        object.__setattr__(self, "costs", costs)
        if costs.shape != (self.n,):
            raise ParameterError(f"expected {self.n} costs, got shape {costs.shape}")
        if not np.all(np.isfinite(costs)):
            raise ParameterError("all effort costs must be finite")
        if np.any(costs <= 0):
            raise ParameterError("all effort costs must be strictly positive")
        if self.reward.n != self.n:
            raise ParameterError("reward function and costs disagree on n")
        if self.reward.kind == "explicit":
            report = check_structure(self.reward)
            if not (report.monotone and report.submodular):
                raise ParameterError(
                    f"explicit reward is not {report.violated}; witness {report.witness}"
                )

    @property
    def label(self) -> str:
        meta = self.metadata or {}
        if "label" in meta:
            return str(meta["label"])
        family = meta.get("family")
        if family:
            params = ",".join(
                f"{k}={meta[k]}" for k in sorted(meta) if k not in ("family", "label")
            )
            return f"{family}({params})"
        return f"{self.reward.kind}(n={self.n})"


@dataclass(frozen=True)
class Contract:
    """Payment vector; every entry must lie in [0, 1]."""

    payments: np.ndarray

    def __post_init__(self):
        p = np.array(self.payments, dtype=float)
        p.setflags(write=False)
        object.__setattr__(self, "payments", p)
        if p.ndim != 1:
            raise ParameterError(f"contract payments must be a flat vector, got shape {p.shape}")
        # a NaN fails both comparisons
        if p.size and not (p.min() >= -COMPARE_TOL and p.max() <= 1 + COMPARE_TOL):
            raise ParameterError("contract payments must lie in [0, 1]")

    def total(self) -> float:
        return float(self.payments.sum())


@dataclass(frozen=True)
class ModeSpec:
    """Payment regime selector: unconstrained, nd, or beta_nd with a
    finite beta >= 1."""

    mode: str
    beta: float | None = None

    def __post_init__(self):
        if self.mode not in ("unconstrained", "nd", "beta_nd"):
            raise ParameterError(f"unknown mode {self.mode!r}")
        if self.mode == "beta_nd":
            if self.beta is None or not 1 <= self.beta < math.inf:
                raise ParameterError(f"beta_nd mode requires beta >= 1 and finite, got {self.beta}")
        elif self.beta is not None:
            raise ParameterError(f"mode {self.mode!r} takes no beta")

    @property
    def pay_ratio(self) -> float:
        """Each member is paid at least top / pay_ratio: inf unconstrained,
        1 for nd, beta for beta_nd."""
        if self.beta is not None:
            return self.beta
        return 1.0 if self.mode == "nd" else math.inf

    @classmethod
    def unconstrained(cls) -> "ModeSpec":
        return cls("unconstrained")

    @classmethod
    def nd(cls) -> "ModeSpec":
        return cls("nd")

    @classmethod
    def beta_nd(cls, beta: float) -> "ModeSpec":
        return cls("beta_nd", float(beta))


@dataclass(frozen=True)
class IncentiveOutcome:
    """Result of designing a contract that makes exactly one set exert effort.

    For infeasible sets (some member has a vanishing marginal, or would
    need a payment above 1) the utility is -inf and payments are all zero.
    """

    members: int
    payments: Contract
    utility: float
    feasible: bool
    infeasibility_reason: str | None = None

    def member_list(self) -> list[int]:
        return mask_to_indices(self.members)


def indifference_payment(inst: Instance, i: int, subset) -> float | None:
    """Minimum payment making agent i exert inside S: c_i / f(i | S - i).

    Returns None when the marginal is (numerically) zero, meaning i cannot
    be incentivized as part of S.
    """
    mask = as_mask(subset, inst.n)
    if not (mask >> i) & 1:
        raise ContractLogicError(f"agent {i} is not in the set")
    marg = inst.reward.marginal(i, mask & ~(1 << i))
    if marg <= MARGINAL_TOL:
        return None
    return float(inst.costs[i]) / marg


@np.errstate(over="ignore")  # an inf payment is above 1: infeasible
def _indifference_payments(inst: Instance, mask: int):
    """Members of a nonempty set as a boolean vector, and their
    indifference payments costs[S] / marginals(S)[S] in index order, bit
    for bit indifference_payment; the payments are None when a member's
    marginal vanishes."""
    members = mask_to_bools(mask, inst.n)
    marg = inst.reward.marginals(mask)[members]
    if marg.min() <= MARGINAL_TOL:
        return members, None
    return members, inst.costs[members] / marg


def group_payment_nd(inst: Instance, subset) -> float | None:
    """Uniform payment needed to incentivize all of S: the largest member
    indifference payment.  None if any member cannot be incentivized."""
    mask = as_mask(subset, inst.n)
    if mask == 0:
        raise EmptySetError("the uniform payment of the empty set is undefined")
    alphas = _indifference_payments(inst, mask)[1]
    return None if alphas is None else float(alphas.max())


def _empty_outcome(n: int) -> IncentiveOutcome:
    return IncentiveOutcome(0, Contract(np.zeros(n)), 0.0, True)


def _infeasible(n: int, mask: int, reason: str) -> IncentiveOutcome:
    return IncentiveOutcome(mask, Contract(np.zeros(n)), float("-inf"), False, reason)


def optimal_contract_for_set(inst: Instance, subset, spec: ModeSpec) -> IncentiveOutcome:
    """Cheapest contract (per the mode) that incentivizes exactly this set.

    Each member is paid max(indifference, top / spec.pay_ratio), so the
    unconstrained pay is the indifference payments (top / inf is 0.0) and
    nd's is top.  Utility is (1 - total payment) * f(S); it may be
    negative for feasible sets.

    Members are priced together, costs[S] / marginals(S)[S], so the cost
    is one marginals call plus O(n) array work: O(n) for rewards with
    constant marginals, n + 1 value-oracle calls for the others.
    """
    mask = as_mask(subset, inst.n)
    n = inst.n
    if mask == 0:
        return _empty_outcome(n)

    members, alphas = _indifference_payments(inst, mask)
    if alphas is None:
        return _infeasible(n, mask, "zero-marginal")

    # every mode pays the top member exactly top (top / pay_ratio <= top)
    top = float(alphas.max())
    if top > 1 + COMPARE_TOL:
        return _infeasible(n, mask, "payment-above-one")
    pay = np.maximum(alphas, top / spec.pay_ratio, out=alphas)  # no caller shares alphas
    payments = np.zeros(n)
    payments[members] = np.minimum(pay, 1.0)
    utility = (1.0 - pay.sum()) * inst.reward.value(mask)
    return IncentiveOutcome(mask, Contract(payments), float(utility), True)


def effort_gains(inst: Instance, contract: Contract, subset) -> np.ndarray:
    """Each agent's gain from exerting with the others' actions fixed:
    a_i m_i - c_i, with m_i = f(S + i) - f(S - i) from one marginals call.

    This regrouping of a_i f(S + i) - c_i against a_i f(S - i) differs
    from comparing the two utilities directly only by rounding (about
    1e-16, against a COMPARE_TOL of 1e-9).
    """
    mask = as_mask(subset, inst.n)
    return contract.payments * inst.reward.marginals(mask) - inst.costs


def is_equilibrium(inst: Instance, contract: Contract, subset) -> bool:
    """True when exerting exactly S is a pure Nash equilibrium.

    Members must weakly prefer effort (effort_gains >= -COMPARE_TOL; ties
    break toward effort) and non-members must weakly prefer shirking
    (effort_gains <= COMPARE_TOL).  Non-members sitting exactly on the
    boundary are logged since the tie-break would pull them in.
    """
    mask = as_mask(subset, inst.n)
    pay = contract.payments
    gain = effort_gains(inst, contract, mask)
    members = mask_to_bools(mask, inst.n)
    if log.isEnabledFor(logging.DEBUG):
        for i in np.flatnonzero(~members & (np.abs(gain) <= COMPARE_TOL) & (pay > 0)):
            log.debug(
                "agent %d outside the set is exactly indifferent; "
                "the effort tie-break would include them",
                i,
            )
    return not (np.any(gain[members] < -COMPARE_TOL) or np.any(gain[~members] > COMPARE_TOL))


def best_response_step(inst: Instance, contract: Contract, subset) -> int:
    """One synchronous round of best responses; returns the new set.

    Each agent compares exerting against shirking while the others hold
    their actions fixed, through effort_gains; gains within COMPARE_TOL
    below zero go to effort.  Fixed points of this map are equilibria
    (the converse holds except when a non-member is exactly indifferent,
    where the tie-break pulls them in).
    """
    gain = effort_gains(inst, contract, subset)
    return as_mask(np.flatnonzero(gain >= -COMPARE_TOL), inst.n)
