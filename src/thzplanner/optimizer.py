"""Joint offloading-share and carrier-assignment planning.

For each user the transmission-rate requirement is minimized over the
offloading share beta (the requirement is the only coupling between the
queueing side and the radio side), then carriers go to users by an exact
assignment solve over the whole grid that maximizes total distance.  Where
distance has increasing differences in (rate, carrier) that optimum is the
paper's sorted matching, `assign_frequencies`, which tests and demos
compare against.  `brute_force_assignment` is the independent check of the
optimum (its name predates the solver and is kept for the benchmark tracer).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Sequence, Tuple

from .channel import (
    DEFAULT_ATTENUATION_FIT,
    FrequencyGrid,
    GaussianFit,
    RadioParams,
    achievable_distance,
)
from .numerics import min_cost_assignment, minimize_scalar
from .reliability import (
    EdgeProfile,
    InfeasibleError,
    QosTarget,
    StabilityError,
    TaskProfile,
    UserProfile,
    local_reliability,
    rate_threshold,
)

# keeps the open interval (1 - mu_l/lambda, 1] open at its left end
_BETA_EDGE_OFFSET = 1e-9

FEASIBLE = "feasible"
UNCONSTRAINED = "unconstrained"
INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class Scenario:
    """Complete planning input: one edge server, K users, M candidate carriers."""

    task: TaskProfile
    radio: RadioParams
    edge: EdgeProfile
    qos: QosTarget
    grid: FrequencyGrid
    users: Tuple[UserProfile, ...]
    fit: GaussianFit = DEFAULT_ATTENUATION_FIT
    max_distance_m: float = math.inf

    def __post_init__(self) -> None:
        if not self.users:
            raise ValueError("scenario needs at least one user")
        if len(self.grid) < len(self.users):
            raise ValueError(
                f"grid offers {len(self.grid)} carriers for {len(self.users)} users; "
                "each user must occupy a distinct carrier"
            )
        if self.max_distance_m <= 0.0:
            raise ValueError("distance cap must be positive")


@dataclass(frozen=True)
class UserPlan:
    """Planning outcome for one user."""

    user_id: int
    status: str  # feasible | unconstrained | infeasible
    beta: float
    rate_bps: float
    freq_ghz: float  # nan when infeasible
    distance_m: float


@dataclass(frozen=True)
class Plan:
    """Joint plan: per-user decisions plus system-level flags."""

    users: Tuple[UserPlan, ...]
    total_distance_m: float
    edge_stable: bool
    forced_full_offload: bool
    warnings: Tuple[str, ...] = ()


def minimize_rate_threshold(scenario: Scenario, user_index: int) -> Tuple[float, float]:
    """Offloading share minimizing the user's rate requirement.

    Returns (beta, rate).  (0.0, 0.0) means the user needs no link at all:
    keeping every job local already meets the reliability target.  Raises
    InfeasibleError when no share in the stable range works.
    """
    user = scenario.users[user_index]
    task, edge, qos = scenario.task, scenario.edge, scenario.qos
    lam = user.arrival_rate
    mu_l = user.local_service_rate(task)

    beta_lo = 0.0 if lam <= 0.0 else max(0.0, 1.0 - mu_l / lam)
    if beta_lo >= 1.0:
        # no local capacity at all: everything must be offloaded
        return 1.0, rate_threshold(user, task, edge, qos, 1.0)
    if beta_lo == 0.0 and lam < mu_l:
        if local_reliability(user, task, 0.0, qos.delay_s) >= qos.min_reliability:
            return 0.0, 0.0

    def objective(beta: float) -> float:
        try:
            return rate_threshold(user, task, edge, qos, beta)
        except (InfeasibleError, StabilityError):
            return math.inf

    lo = beta_lo + _BETA_EDGE_OFFSET * (1.0 - beta_lo) if beta_lo > 0.0 else _BETA_EDGE_OFFSET
    try:
        beta_star, rate_star = minimize_scalar(objective, lo, 1.0, tol=1e-8)
    except ValueError as exc:
        # every share in the stable range is infeasible
        raise InfeasibleError(
            f"user {user_index}: no offloading share meets the reliability target"
        ) from exc
    if rate_star <= 0.0:
        return 0.0, 0.0  # zero-traffic user: no link needed
    return beta_star, rate_star


def assign_frequencies(
    thresholds: Sequence[float], grid: FrequencyGrid
) -> Tuple[float, ...]:
    """Sorted matching: k-th smallest rate requirement gets k-th lowest carrier.

    Ties are broken by user index.  Requires at least as many carriers as
    thresholds; only the len(thresholds) lowest carriers are used.
    """
    if len(grid) < len(thresholds):
        raise ValueError(
            f"grid offers {len(grid)} carriers for {len(thresholds)} users"
        )
    order = sorted(range(len(thresholds)), key=lambda k: (thresholds[k], k))
    out = [math.nan] * len(thresholds)
    for rank, k in enumerate(order):
        out[k] = grid.freqs_ghz[rank]
    return tuple(out)


@dataclass(frozen=True)
class BruteForceResult:
    """Best assignment over all injective carrier choices, with extremes."""

    assignment: Tuple[float, ...]
    best_total_m: float
    worst_total_m: float


def brute_force_assignment(
    thresholds: Sequence[float],
    grid: FrequencyGrid,
    radio: RadioParams,
    fit: GaussianFit = DEFAULT_ATTENUATION_FIT,
) -> BruteForceResult:
    """Best and worst injective user->carrier maps over the whole grid.

    The independent check that sorted matching is optimal (and the reversed
    order pessimal) under increasing differences: two exact assignment
    solves, on negated and on plain distances.  No permutation is
    enumerated; the name is kept because the benchmark tracer binds it.
    """
    dist = [
        [achievable_distance(fit, radio, f, r) for f in grid.freqs_ghz]
        for r in thresholds
    ]
    best = min_cost_assignment([[-d for d in row] for row in dist])
    worst = min_cost_assignment(dist)
    assignment = tuple(grid.freqs_ghz[j] for j in best)
    return BruteForceResult(
        assignment,
        sum(dist[i][j] for i, j in enumerate(best)),
        sum(dist[i][j] for i, j in enumerate(worst)),
    )


def _plan_user(
    scenario: Scenario, k: int, force_offload_all: bool
) -> Tuple[str, float, float]:
    """Status, beta, rate for one user; never raises on infeasibility."""
    user = scenario.users[k]
    try:
        if force_offload_all:
            rate = rate_threshold(
                user, scenario.task, scenario.edge, scenario.qos, 1.0
            )
            if not math.isfinite(rate):
                return INFEASIBLE, math.nan, math.nan
            return FEASIBLE, 1.0, rate
        beta, rate = minimize_rate_threshold(scenario, k)
    except (InfeasibleError, StabilityError):
        return INFEASIBLE, math.nan, math.nan
    if not math.isfinite(rate):
        return INFEASIBLE, math.nan, math.nan
    if rate <= 0.0:
        return UNCONSTRAINED, beta, 0.0
    return FEASIBLE, beta, rate


def plan(scenario: Scenario, force_offload_all: bool = False) -> Plan:
    """Plan offloading shares, rates, carriers, and coverage distances.

    Rate-constrained users get the carriers that maximize their total
    distance (exact assignment over the full grid; equal rates take
    ascending carriers in user index order).  Users whose reliability target
    is met locally (rate 0) receive the highest leftover carriers and the
    configured distance cap.  Users that cannot meet the target are flagged
    infeasible with zero distance and no carrier.  force_offload_all pins
    beta to 1, the no-local-compute baseline.
    """
    k_users = len(scenario.users)
    outcomes = [_plan_user(scenario, k, force_offload_all) for k in range(k_users)]

    constrained = sorted(
        (k for k in range(k_users) if outcomes[k][0] == FEASIBLE),
        key=lambda k: (outcomes[k][2], k),
    )
    free_riders = [k for k in range(k_users) if outcomes[k][0] == UNCONSTRAINED]

    grid = scenario.grid.freqs_ghz
    freqs = [math.nan] * k_users
    dists = [0.0] * k_users
    cols: Tuple[int, ...] = ()
    if constrained:
        rates = [outcomes[k][2] for k in constrained]
        matrix = [
            [achievable_distance(scenario.fit, scenario.radio, f, r) for f in grid]
            for r in rates
        ]
        best = min_cost_assignment([[-d for d in row] for row in matrix])
        # equal rates are interchangeable: ascending carriers in user order
        cols = tuple(j for _, j in sorted(zip(rates, best)))
        for k, row, j in zip(constrained, matrix, cols):
            freqs[k], dists[k] = grid[j], row[j]
    # the unconstrained get the top leftovers; any carrier works for them
    leftovers = [f for j, f in enumerate(grid) if j not in cols]
    for k in free_riders:
        freqs[k] = leftovers.pop()

    rows = []
    warnings: List[str] = []
    total = 0.0
    load = 0.0
    for k in range(k_users):
        status, beta, rate = outcomes[k]
        if status == FEASIBLE:
            dist = dists[k]
            load += beta * scenario.users[k].arrival_rate
        elif status == UNCONSTRAINED:
            dist = scenario.max_distance_m
        else:
            dist = 0.0
        total += dist
        rows.append(
            UserPlan(
                user_id=k,
                status=status,
                beta=beta,
                rate_bps=rate,
                freq_ghz=freqs[k],
                distance_m=dist,
            )
        )

    mu_m = scenario.edge.service_rate(scenario.task)
    edge_stable = load < mu_m
    if not edge_stable:
        warnings.append(
            f"edge load {load:.6g} jobs/s does not stay below capacity {mu_m:.6g} jobs/s"
        )
    if any(outcomes[k][0] == INFEASIBLE for k in range(k_users)):
        bad = [str(k) for k in range(k_users) if outcomes[k][0] == INFEASIBLE]
        warnings.append(
            "users {} cannot meet the reliability target under any offloading share".format(
                ", ".join(bad)
            )
        )

    return Plan(
        users=tuple(rows),
        total_distance_m=total,
        edge_stable=edge_stable,
        forced_full_offload=force_offload_all,
        warnings=tuple(warnings),
    )


SWEEP_AXES = ("f_m_cycles_per_s", "epsilon_s", "theta_th", "f_l_cycles_per_s")

# short spellings accepted on the command line
_AXIS_ALIASES = {
    "f_m": "f_m_cycles_per_s",
    "epsilon": "epsilon_s",
    "theta_th": "theta_th",
    "f_l": "f_l_cycles_per_s",
}


def apply_axis(scenario: Scenario, axis: str, value: float) -> Scenario:
    """Scenario with one swept quantity replaced.

    f_l_cycles_per_s sets every user's local CPU to the same value, the
    common way the local-capacity trend is plotted.
    """
    axis = _AXIS_ALIASES.get(axis, axis)
    if axis == "f_m_cycles_per_s":
        return replace(scenario, edge=EdgeProfile(cpu_hz=value))
    if axis == "epsilon_s":
        return replace(
            scenario,
            qos=QosTarget(delay_s=value, min_reliability=scenario.qos.min_reliability),
        )
    if axis == "theta_th":
        return replace(
            scenario, qos=QosTarget(delay_s=scenario.qos.delay_s, min_reliability=value)
        )
    if axis == "f_l_cycles_per_s":
        users = tuple(replace(u, local_cpu_hz=value) for u in scenario.users)
        return replace(scenario, users=users)
    raise ValueError(f"unknown sweep axis {axis!r}; choose one of {SWEEP_AXES}")
