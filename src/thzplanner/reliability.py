"""URLLC reliability of split local/edge execution with M/M/1 queues.

Jobs arrive Poisson at each user and are offloaded to the edge server with
probability beta, independently per job.  The local path is one M/M/1 queue;
the offloaded path is a transmission queue (service rate R / L_a) feeding
the edge compute queue (rate mu_m).  Reliability is the probability that a
job's total sojourn time stays within the delay budget epsilon, and the
mixture

    Phi(beta, R) = (1 - beta) * Phi_local + beta * Phi_edge

is compared against the target theta.  The edge term has the two-stage
closed form below; inverting Phi = theta for the minimum transmission rate
is a Lambert W evaluation with one genuine and one spurious root, resolved
analytically here and cross-checked by bisection in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from .numerics import lambert_w, lambert_w_log_lower

# relative safety margin applied to the queue-stability rate floor
STABILITY_MARGIN = 1e-6
# u and v closer than this (relative) use the equal-rates limit
_DEGENERATE_RTOL = 1e-9


class StabilityError(ValueError):
    """A queue's arrival rate meets or exceeds its service rate."""


class InfeasibleError(ValueError):
    """No transmission rate can reach the reliability target."""


class _CeilingError(InfeasibleError):
    """Edge target above the u -> inf ceiling; args are (target, ceiling).

    The share search raises and discards thousands of these per plan, so
    the message is formatted only when read.
    """

    def __str__(self) -> str:
        return "edge reliability target {:.12g} is not reachable: ceiling is {:.12g}".format(
            *self.args
        )


@dataclass(frozen=True)
class TaskProfile:
    """Workload statistics of one job (exponentially distributed)."""

    mean_job_bits: float
    mean_job_cycles: float

    def __post_init__(self) -> None:
        if self.mean_job_bits <= 0.0 or self.mean_job_cycles <= 0.0:
            raise ValueError("job size and cycle count must be positive")


@dataclass(frozen=True)
class UserProfile:
    """One user's traffic intensity and local CPU speed."""

    arrival_rate: float  # jobs/s
    local_cpu_hz: float  # cycles/s

    def __post_init__(self) -> None:
        if self.arrival_rate < 0.0:
            raise ValueError("arrival rate must be nonnegative")
        if self.local_cpu_hz < 0.0:
            raise ValueError("local CPU speed must be nonnegative")

    def local_service_rate(self, task: TaskProfile) -> float:
        return self.local_cpu_hz / task.mean_job_cycles


@dataclass(frozen=True)
class EdgeProfile:
    """Edge server CPU speed, shared by all users."""

    cpu_hz: float

    def __post_init__(self) -> None:
        if self.cpu_hz <= 0.0:
            raise ValueError("edge CPU speed must be positive")

    def service_rate(self, task: TaskProfile) -> float:
        return self.cpu_hz / task.mean_job_cycles


@dataclass(frozen=True)
class QosTarget:
    """Delay budget and minimum within-budget probability."""

    delay_s: float
    min_reliability: float

    def __post_init__(self) -> None:
        if self.delay_s <= 0.0:
            raise ValueError("delay budget must be positive")
        if not 0.0 < self.min_reliability < 1.0:
            raise ValueError("reliability target must lie in (0, 1)")


@dataclass(frozen=True)
class QueueRates:
    """Net rates of the offloading tandem.

    u: transmission service rate minus offloaded arrival rate,
    v: edge service rate minus offloaded arrival rate, both in jobs/s.
    """

    u: float
    v: float


def queue_rates(
    user: UserProfile,
    task: TaskProfile,
    edge: EdgeProfile,
    beta: float,
    rate_bps: float,
) -> QueueRates:
    """Net tandem rates at offloading share beta and transmission rate R."""
    offered = beta * user.arrival_rate
    return QueueRates(
        u=rate_bps / task.mean_job_bits - offered,
        v=edge.service_rate(task) - offered,
    )


def local_reliability(
    user: UserProfile, task: TaskProfile, beta: float, epsilon_s: float
) -> float:
    """P(local sojourn <= epsilon) when a share (1 - beta) stays local.

    M/M/1 sojourn is exponential with the net rate mu_l - (1 - beta) * lambda,
    which must be positive.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    net = user.local_service_rate(task) - (1.0 - beta) * user.arrival_rate
    if net <= 0.0:
        raise StabilityError(
            f"local queue unstable: mu_l - (1-beta)*lambda = {net:.6g} <= 0"
        )
    return -math.expm1(-net * epsilon_s)


def edge_reliability(rates: QueueRates, epsilon_s: float) -> float:
    """P(transmission + edge sojourn <= epsilon) for the offloaded tandem.

    The two stage sojourns are independent exponentials with rates u and v
    (departures of the first M/M/1 queue are Poisson), so the tail is a
    hypoexponential:

        Phi = 1 - e^(-v eps) - v e^(-v eps) * expm1((v - u) eps) / (v - u)

    with the u = v limit 1 - e^(-v eps) - v eps e^(-v eps).
    """
    u, v = rates.u, rates.v
    if u <= 0.0:
        raise StabilityError(f"transmission queue unstable: net rate u = {u:.6g} <= 0")
    if v <= 0.0:
        raise StabilityError(f"edge queue unstable: net rate v = {v:.6g} <= 0")
    if epsilon_s < 0.0:
        raise ValueError("epsilon must be nonnegative")
    e_v = math.exp(-v * epsilon_s)
    gap = v - u
    if abs(gap) <= _DEGENERATE_RTOL * max(u, v):
        return -math.expm1(-v * epsilon_s) - v * epsilon_s * e_v
    if gap * epsilon_s > 700.0:
        # expm1 would overflow; algebraically ratio*e_v = (e^(-u eps)-e^(-v eps))/gap
        ratio_ev = (math.exp(-u * epsilon_s) - e_v) / gap
    else:
        ratio_ev = e_v * math.expm1(gap * epsilon_s) / gap
    return -math.expm1(-v * epsilon_s) - v * ratio_ev


def system_reliability(
    user: UserProfile,
    task: TaskProfile,
    edge: EdgeProfile,
    beta: float,
    rate_bps: float,
    epsilon_s: float,
) -> float:
    """Probability a random job meets the delay budget under split execution."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    phi = 0.0
    if beta < 1.0:
        phi += (1.0 - beta) * local_reliability(user, task, beta, epsilon_s)
    if beta > 0.0:
        rates = queue_rates(user, task, edge, beta, rate_bps)
        phi += beta * edge_reliability(rates, epsilon_s)
    return phi


def _genuine_root_rate(
    mu_m: float,
    offered: float,
    diff: float,
    epsilon_s: float,
    mean_job_bits: float,
) -> float:
    """Rate solving Phi_edge = sup - diff, the genuine Lambert W root.

    Writing v = mu_m - offered and Lam = e^(v eps) diff / v, the condition
    becomes w e^w = -s e^(-s) with s = eps / Lam and w = -eps (v - u) - s.
    w = -s solves it trivially (u = v, the spurious root); the genuine root
    sits on the principal branch when s >= 1 and on the lower branch
    otherwise.  All logs are taken before exponentiating so huge v * eps
    cannot overflow.
    """
    v = mu_m - offered
    log_lam = v * epsilon_s + math.log(diff) - math.log(v)
    log_s = math.log(epsilon_s) - log_lam
    if log_s > 700.0:
        return math.inf  # required rate beyond representable range
    s = math.exp(log_s)
    if log_s < -690.0:
        # W's argument underflows, and w ~ -v eps would cancel in
        # mu_m + w / eps.  w + log(-w) = log s - s gives x = u eps directly.
        w = lambert_w_log_lower(log_s - s)
        x = math.log(v * epsilon_s) - math.log(diff) - math.log(-w)
        return (offered + x / epsilon_s) * mean_job_bits
    w = lambert_w(-s * math.exp(-s), 0 if log_s >= 0.0 else -1)
    return (mu_m + (w + s) / epsilon_s) * mean_job_bits


def _edge_target(
    user: UserProfile,
    task: TaskProfile,
    edge: EdgeProfile,
    qos: QosTarget,
    beta: float,
) -> Tuple[float, float, float, float]:
    """(mu_m, offered load, stability floor rate, edge reliability target).

    The setup shared by the closed form and the bisection oracle.  Raises
    StabilityError when the edge or the local queue is unstable.  A
    nonpositive edge target means the local share alone meets theta.
    """
    if not 0.0 < beta <= 1.0:
        raise ValueError("rate threshold needs beta in (0, 1]")
    offered = beta * user.arrival_rate
    mu_m = edge.service_rate(task)
    if mu_m - offered <= 0.0:
        raise StabilityError(
            f"edge queue unstable: mu_m - beta*lambda = {mu_m - offered:.6g} <= 0"
        )
    floor_rate = offered * task.mean_job_bits * (1.0 + STABILITY_MARGIN)
    theta = qos.min_reliability
    if beta < 1.0:
        phi_l = local_reliability(user, task, beta, qos.delay_s)  # raises if unstable
        return mu_m, offered, floor_rate, (theta - (1.0 - beta) * phi_l) / beta
    return mu_m, offered, floor_rate, theta


def rate_threshold(
    user: UserProfile,
    task: TaskProfile,
    edge: EdgeProfile,
    qos: QosTarget,
    beta: float,
) -> float:
    """Minimum transmission rate (bit/s) meeting the reliability target.

    Solves Phi(beta, R) = theta for R in closed form via Lambert W.  Always
    at least the stability floor beta * lambda * L_a * (1 + 1e-6).  When the
    local share alone already meets theta, the floor is returned without
    solving (any stable rate works).
    """
    mu_m, offered, floor_rate, edge_target = _edge_target(user, task, edge, qos, beta)
    if edge_target <= 0.0:
        return floor_rate  # reliability already met locally
    eps = qos.delay_s
    sup = -math.expm1(-(mu_m - offered) * eps)  # u -> inf limit of Phi_edge
    diff = sup - edge_target
    if diff <= 0.0:
        raise _CeilingError(edge_target, sup)
    root = _genuine_root_rate(mu_m, offered, diff, eps, task.mean_job_bits)
    return max(root, floor_rate)


def rate_threshold_oracle(
    user: UserProfile,
    task: TaskProfile,
    edge: EdgeProfile,
    qos: QosTarget,
    beta: float,
) -> float:
    """Rate threshold by bisection on system_reliability; no Lambert W.

    Independent of the closed form except for the Phi evaluation itself.
    Expands the bracket upward from the stability floor and raises
    InfeasibleError once the required rate exceeds 1e15 bit/s.
    """
    mu_m, _, floor_rate, edge_target = _edge_target(user, task, edge, qos, beta)
    if edge_target <= 0.0:
        return floor_rate
    eps = qos.delay_s
    theta = qos.min_reliability

    def gap(rate: float) -> float:
        return system_reliability(user, task, edge, beta, rate, eps) - theta

    lo = max(floor_rate, 1e-12)
    if gap(lo) >= 0.0:
        return lo
    hi = max(2.0 * lo, mu_m * task.mean_job_bits)
    while gap(hi) < 0.0:
        hi *= 2.0
        if hi > 1e15:
            raise InfeasibleError(
                "no rate below 1e15 bit/s reaches the reliability target"
            )
    while (hi - lo) > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if gap(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
