"""Instance generators.

Three adversarial families with known closed-form optima, plus seeded
random instances for property testing.  Agents are laid out group by
group in ascending group index so expected optimizer sets are stable.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .contracts import Instance, ModeSpec
from .errors import ParameterError
from .rewards import Additive, CappedAdditive, Coverage, SymmetricTwoClass

DEFAULT_EPSILON = 1e-6
# the most agents whose float64 vectors numpy can describe (intp.max bytes)
MAX_AGENTS = np.iinfo(np.intp).max // 8


def _check_agents(n: int) -> None:
    if n > MAX_AGENTS:
        raise ParameterError(f"n = {n} agents exceeds the largest array ({MAX_AGENTS} floats)")


def gen_geometric_family(m: int, T: float) -> Instance:
    """Doubling groups with geometrically decaying weights and costs.

    n = 2^m - 1 agents in m groups; group k (size 2^(k-1)) agents have
    success weight 1/(m 2^(k-1)) and cost 1/(T m^2 4^(k-1)), so each
    group contributes 1/m of the total reward and the full set is the
    unconstrained optimum with utility 1 - 1/T.
    """
    if m < 1:
        raise ParameterError(f"m must be at least 1, got {m}")
    if T < 2:
        raise ParameterError(f"T must be at least 2, got {T}")
    if m > MAX_AGENTS.bit_length():  # 2^m - 1 > MAX_AGENTS
        raise ParameterError(f"m must be at most {MAX_AGENTS.bit_length()}, got {m}")
    sizes = [1 << k for k in range(m)]
    weights = [1.0 / (m * size) for size in sizes]
    costs = [1.0 / (T * m * m * size * size) for size in sizes]
    return Instance(
        n=(1 << m) - 1,
        costs=np.repeat(costs, sizes),
        reward=Additive(np.repeat(weights, sizes)),
        metadata={"family": "geometric", "m": m, "T": T},
    )


def gen_two_class(
    family: str,
    n: int,
    epsilon: float = DEFAULT_EPSILON,
    M: float | None = None,
    delta: float | None = None,
) -> Instance:
    """One high-contribution agent plus n-1 identical low-contribution agents.

    family "lemma8": f_a = 1/2, c_a = 1/(2M), f_b = 1/(2(n-1)),
    c_b = eps/(2(n-1)^2); requires M > 3 + 1/eps and n > M^(1/(1-delta)).
    family "lemma9": f_a = sqrt(2)/4, c_a = (sqrt(2)-1)/4,
    f_b = 1/(4(n-1)), c_b = eps/(4(n-1)^2); requires n even and large.
    """
    if epsilon <= 0:
        raise ParameterError("epsilon must be strictly positive (costs are > 0)")
    if n < 2:
        raise ParameterError("need at least two agents")
    _check_agents(n)
    if family == "lemma8":
        if M is None or delta is None:
            raise ParameterError("family lemma8 needs M and delta")
        if not 0 < delta < 1:
            raise ParameterError(f"delta must lie in (0, 1), got {delta}")
        if M <= 3 + 1.0 / epsilon:
            raise ParameterError(
                f"violated: M > 3 + 1/epsilon (M={M}, 3 + 1/epsilon={3 + 1 / epsilon})"
            )
        if n <= M ** (1.0 / (1.0 - delta)):
            raise ParameterError(
                f"violated: n > M^(1/(1-delta)) (n={n}, "
                f"M^(1/(1-delta))={M ** (1.0 / (1.0 - delta)):.6g})"
            )
        f_a, c_a = 0.5, 1.0 / (2.0 * M)
        f_b = 0.5 / (n - 1)
        c_b = epsilon / (2.0 * (n - 1) ** 2)
        meta = {"family": "lemma8", "n": n, "M": M, "epsilon": epsilon, "delta": delta}
    elif family == "lemma9":
        if n % 2 != 0:
            raise ParameterError(f"violated: n must be even, got {n}")
        if n < 1000:
            warnings.warn(
                f"family lemma9 is calibrated for large n; n={n} may be far "
                "from its asymptotic behavior",
                stacklevel=2,
            )
        r2 = math.sqrt(2.0)
        f_a, c_a = r2 / 4.0, (r2 - 1.0) / 4.0
        f_b = 1.0 / (4.0 * (n - 1))
        c_b = epsilon / (4.0 * (n - 1) ** 2)
        meta = {"family": "lemma9", "n": n, "epsilon": epsilon}
    else:
        raise ParameterError(f"unknown two-class family {family!r}")

    costs = np.full(n, c_b)
    costs[0] = c_a
    return Instance(
        n=n,
        costs=costs,
        reward=SymmetricTwoClass(f_a, f_b, n - 1),
        metadata=meta,
    )


def gen_two_agent_tight(beta: float, epsilon: float = DEFAULT_EPSILON) -> Instance:
    """Two-agent instance whose utility ratio meets the two-agent bound.

    Additive with f(1) = 1/2, c_1 = 1/2 - 1/(2 sqrt(beta+1)),
    f(2) = 1/(2 sqrt(beta+1)), c_2 = eps/(2 sqrt(beta+1)).
    """
    ModeSpec.beta_nd(beta)  # beta >= 1, as every beta_nd solve requires
    if epsilon <= 0:
        raise ParameterError("epsilon must be strictly positive (costs are > 0)")
    root = math.sqrt(beta + 1.0)
    weights = [0.5, 0.5 / root]
    costs = np.array([0.5 - 0.5 / root, epsilon / (2.0 * root)])
    return Instance(
        n=2,
        costs=costs,
        reward=Additive(weights),
        metadata={"family": "tight2", "beta": beta, "epsilon": epsilon},
    )


def gen_random(kind: str, n: int, seed: int, cost_margin: float = 0.5) -> Instance:
    """Seeded random instance of the given reward kind.

    Weights are drawn and normalized so the full set's value is at most 1;
    each cost is cost_margin times a random fraction of that agent's
    singleton value, so incentivizing any single agent is always feasible
    and the unconstrained optimum is strictly positive.
    """
    if n < 1:
        raise ParameterError("n must be at least 1")
    _check_agents(n)
    if not 0 < cost_margin < 1:
        raise ParameterError(f"cost_margin must lie in (0, 1), got {cost_margin}")
    rng = np.random.default_rng(seed)

    if kind == "additive":
        w = rng.uniform(0.1, 1.0, n)
        w /= w.sum()
        reward = Additive(w)
    elif kind == "capped_additive":
        w = rng.uniform(0.1, 1.0, n)
        w /= w.sum()
        cap = rng.uniform(0.4, 1.0)
        reward = CappedAdditive(w, cap)
    elif kind == "coverage":
        n_elem = min(2 * n, 48)
        ew = rng.uniform(0.2, 1.0, n_elem)
        ew /= ew.sum()
        covers = []
        for _ in range(n):
            size = int(rng.integers(1, max(2, n_elem // 3 + 1)))
            covers.append(sorted(rng.choice(n_elem, size=size, replace=False).tolist()))
        reward = Coverage(ew, covers)
    else:
        raise ParameterError(f"unknown random kind {kind!r}")

    singles = np.array([reward.value(1 << i) for i in range(n)])
    costs = cost_margin * rng.uniform(0.05, 1.0, n) * singles
    return Instance(
        n=n,
        costs=costs,
        reward=reward,
        metadata={
            "family": f"random-{kind.replace('_', '-')}",
            "n": n,
            "seed": seed,
            "cost_margin": cost_margin,
        },
    )
