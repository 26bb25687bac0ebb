"""URLLC reliability of split local/edge execution with M/M/1 queues.

Jobs arrive Poisson at each user and are offloaded to the edge server with
probability beta, independently per job.  The local path is one M/M/1 queue;
the offloaded path is a transmission queue (service rate R / L_a) feeding
the edge compute queue (rate mu_m).  Reliability is the probability that a
job's total sojourn time stays within the delay budget epsilon, and the
mixture

    Phi(beta, R) = (1 - beta) * Phi_local + beta * Phi_edge

is compared against the target theta, in outages: a share can meet it
exactly where the ceiling outage C(beta) = beta e^(-v eps) + (1 - beta)
e^(-n eps), the R -> inf limit (v = mu_m - beta lambda, n = mu_l - (1 - beta)
lambda), is below 1 - theta.  The edge term has the two-stage closed form
below; inverting Phi = theta for the minimum transmission rate is a Lambert
W evaluation with one genuine and one spurious root, resolved analytically
here and cross-checked by bisection in the tests.
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
# g(x) = sum over j >= 0 of (-x)^j / (j + 2)!, highest power first; nine
# terms reach double precision for |x| < 0.1
_G_SERIES = tuple(1.0 / math.factorial(j + 2) for j in range(8, -1, -1))


class StabilityError(ValueError):
    """A queue's arrival rate meets or exceeds its service rate."""


class InfeasibleError(ValueError):
    """No transmission rate can reach the reliability target."""


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


def min_stable_share(user: UserProfile, task: TaskProfile) -> float:
    """Floor of the offloading shares: the local queue is stable exactly
    when beta > 1 - mu_l/lambda, or at beta = 1, where no job stays local."""
    lam, mu_l = user.arrival_rate, user.local_service_rate(task)
    return 0.0 if lam <= 0.0 else max(0.0, 1.0 - mu_l / lam)


def local_reliability(
    user: UserProfile, task: TaskProfile, beta: float, epsilon_s: float
) -> float:
    """P(local sojourn <= epsilon) when a share (1 - beta) stays local.

    M/M/1 sojourn is exponential with the net rate mu_l - (1 - beta) * lambda,
    which must be positive.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    return -math.expm1(-_local_net_rate(user, task, beta) * epsilon_s)


def _local_net_rate(user: UserProfile, task: TaskProfile, beta: float) -> float:
    """mu_l - (1 - beta) lambda; raises StabilityError unless positive."""
    net = user.local_service_rate(task) - (1.0 - beta) * user.arrival_rate
    if net <= 0.0:
        raise StabilityError(
            f"local queue unstable: mu_l - (1-beta)*lambda = {net:.6g} <= 0"
        )
    return net


def _edge_tail(u: float, v: float, epsilon_s: float) -> Tuple[float, float]:
    """The two nonnegative terms of P(tandem sojourn > epsilon), (e_v, rest):

        e_v = e^(-v eps),  rest = v e^(-v eps) * expm1((v - u) eps) / (v - u)

    with the u = v limit rest = v eps e^(-v eps).  Raises StabilityError when
    either net rate is not positive.
    """
    if u <= 0.0:
        raise StabilityError(f"transmission queue unstable: net rate u = {u:.6g} <= 0")
    if v <= 0.0:
        raise StabilityError(f"edge queue unstable: net rate v = {v:.6g} <= 0")
    if epsilon_s < 0.0:
        raise ValueError("epsilon must be nonnegative")
    e_v = math.exp(-v * epsilon_s)
    gap = v - u
    if abs(gap) <= _DEGENERATE_RTOL * max(u, v):
        return e_v, v * epsilon_s * e_v
    if gap * epsilon_s > 700.0:
        # expm1 would overflow; algebraically ratio*e_v = (e^(-u eps)-e^(-v eps))/gap
        ratio_ev = (math.exp(-u * epsilon_s) - e_v) / gap
    else:
        ratio_ev = e_v * math.expm1(gap * epsilon_s) / gap
    return e_v, v * ratio_ev


def edge_reliability(rates: QueueRates, epsilon_s: float) -> float:
    """P(transmission + edge sojourn <= epsilon) for the offloaded tandem.

    The two stage sojourns are independent exponentials with rates u and v
    (departures of the first M/M/1 queue are Poisson), so the tail is a
    hypoexponential:

        Phi = 1 - e^(-v eps) - v e^(-v eps) * expm1((v - u) eps) / (v - u)

    with the u = v limit 1 - e^(-v eps) - v eps e^(-v eps).
    """
    rest = _edge_tail(rates.u, rates.v, epsilon_s)[1]
    return -math.expm1(-rates.v * epsilon_s) - rest


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
    """Rate at which the edge outage e^(-v eps) + rest is e^(-v eps) + diff
    (rest as in _edge_tail), the genuine Lambert W root.

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
    # s = v eps e^(-v eps) / diff and diff >= ~2^-53 e^(-v eps) unless that
    # underflows (v eps > ~745, s tiny), so s <= ~2^53 * 745: log s <= ~44
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
) -> Tuple[float, float, float, float, float]:
    """(mu_m, offered load, stability floor rate, edge outage budget B,
    margin B - e^(-v eps)), B = ((1 - theta) - (1 - beta) e^(-n eps)) / beta.

    The setup shared by the closed form and the bisection oracle.  Raises
    StabilityError when the edge or the local queue is unstable.  B >= 1
    means the local share alone meets theta: the margin is then +inf.
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
    budget = 1.0 - qos.min_reliability
    if beta < 1.0:
        local_miss = math.exp(-_local_net_rate(user, task, beta) * qos.delay_s)
        budget = (budget - (1.0 - beta) * local_miss) / beta
    margin = math.inf if budget >= 1.0 else budget - math.exp(-(mu_m - offered) * qos.delay_s)
    return mu_m, offered, floor_rate, budget, margin


def ceiling_margin(
    user: UserProfile,
    task: TaskProfile,
    edge: EdgeProfile,
    qos: QosTarget,
    beta: float,
) -> float:
    """((1 - theta) - C(beta)) / beta: the edge outage budget's room above
    the edge's ceiling outage e^(-v eps) at share beta.

    rate_threshold returns a rate exactly where this is positive and raises
    where it is not: it decides feasibility with the same expression.
    -inf where a queue is unstable (rate_threshold raises StabilityError),
    +inf where the local share alone meets theta.  Never raises for beta in
    (0, 1], so a search can probe shares without exceptions.
    """
    try:
        return _edge_target(user, task, edge, qos, beta)[-1]
    except StabilityError:
        return -math.inf


def _ceiling_outage_slope(
    user: UserProfile,
    task: TaskProfile,
    edge: EdgeProfile,
    qos: QosTarget,
    beta: float,
) -> float:
    """Slope of the ceiling outage C of the module docstring:

        C'(beta) = e^(-v eps) (1 + beta lambda eps) - e^(-n eps) (1 + (1-beta) lambda eps)

    Both terms of C are convex, so C' increases.  +inf where the edge queue
    is unstable (v <= 0), -inf where the local one is (n <= 0).
    """
    lam, eps = user.arrival_rate, qos.delay_s
    v = edge.service_rate(task) - beta * lam
    n = user.local_service_rate(task) - (1.0 - beta) * lam
    if v <= 0.0:
        return math.inf
    if n <= 0.0:
        return -math.inf
    return math.exp(-v * eps) * (1.0 + beta * lam * eps) - math.exp(-n * eps) * (
        1.0 + (1.0 - beta) * lam * eps
    )


def ceiling_margin_slope(
    user: UserProfile,
    task: TaskProfile,
    edge: EdgeProfile,
    qos: QosTarget,
    beta: float,
) -> float:
    """d(ceiling_margin)/dbeta = -(C'(beta) + margin) / beta, as the margin
    is ((1 - theta) - C) / beta.

    Where it vanishes its own slope is -C''/beta < 0, so it changes sign
    once, at the margin's single peak.  0 on the margin's +inf plateau (the
    local share alone meets theta), and -C' where a queue is unstable.
    """
    margin = ceiling_margin(user, task, edge, qos, beta)
    if margin == math.inf:
        return 0.0
    slope = _ceiling_outage_slope(user, task, edge, qos, beta)
    return -slope if margin == -math.inf else -(slope + margin) / beta


def rate_threshold(
    user: UserProfile,
    task: TaskProfile,
    edge: EdgeProfile,
    qos: QosTarget,
    beta: float,
) -> float:
    """Minimum transmission rate (bit/s) meeting the reliability target.

    Solves Phi(beta, R) = theta for R in closed form via Lambert W, whose
    input is ceiling_margin's value.  Always at least the stability floor
    beta * lambda * L_a * (1 + 1e-6).  When the local share alone already
    meets theta, the floor is returned without solving (any stable rate
    works).
    """
    mu_m, offered, floor_rate, budget, diff = _edge_target(user, task, edge, qos, beta)
    eps = qos.delay_s
    if diff == math.inf:
        return floor_rate  # reliability already met locally
    if diff <= 0.0:
        raise InfeasibleError(
            f"edge outage budget {budget:.12g} is not reachable: "
            f"ceiling outage is {math.exp(-(mu_m - offered) * eps):.12g}"
        )
    root = _genuine_root_rate(mu_m, offered, diff, eps, task.mean_job_bits)
    return max(root, floor_rate)


def _tail_rate_slope(u: float, v: float, epsilon_s: float) -> float:
    """d(tail)/du of the tandem tail e_v + rest, at a fixed v:

        -v eps^2 e^(-u eps) g((v - u) eps),  g(x) = (e^(-x) - 1 + x) / x^2

    Near x = 0 (the u = v limit, g(0) = 1/2) g is summed from its series,
    since the closed form cancels there; elsewhere e^(-u eps) g(x) is formed
    as (e^(-v eps) - e^(-u eps) (1 - x)) / x^2, which cannot overflow.
    """
    x = (v - u) * epsilon_s
    e_u = math.exp(-u * epsilon_s)
    if abs(x) < 0.1:
        g = 0.0
        for c in _G_SERIES:
            g = g * -x + c
        scaled = e_u * g
    else:
        scaled = (math.exp(-v * epsilon_s) - e_u * (1.0 - x)) / (x * x)
    return -v * epsilon_s * epsilon_s * scaled


def rate_slope(
    user: UserProfile,
    task: TaskProfile,
    edge: EdgeProfile,
    qos: QosTarget,
    beta: float,
    rate: float,
) -> float:
    """dR*/dbeta, the slope of rate_threshold at share beta; rate is
    rate_threshold's value there.

    With the outage M(beta, R) = (1-beta) e^(-n eps) + beta T(u, v), T the
    tandem tail e_v + rest of _edge_tail, the implicit function theorem
    gives dR*/dbeta = -(dM/dbeta) / (dM/dR), where

        dM/dbeta = T (1 + beta lambda eps) - beta lambda rest / v
                   - e^(-n eps) (1 + (1-beta) lambda eps)
        dM/dR    = beta (dT/du) / L_a  < 0,

    since shifting u and v down together changes T by eps T - rest / v.  So
    the slope has the sign of dM/dbeta.  Where the rate sits on the
    stability floor (also where the local share alone meets theta) it is
    the floor's slope lambda L_a (1 + STABILITY_MARGIN).
    """
    lam, bits = user.arrival_rate, task.mean_job_bits
    offered = beta * lam
    if rate <= offered * bits * (1.0 + STABILITY_MARGIN):
        return lam * bits * (1.0 + STABILITY_MARGIN)
    eps = qos.delay_s
    u, v = rate / bits - offered, edge.service_rate(task) - offered
    e_v, rest = _edge_tail(u, v, eps)
    tail = e_v + rest
    local = user.local_service_rate(task) - (1.0 - beta) * lam
    dm_dbeta = (
        tail * (1.0 + offered * eps)
        - offered * rest / v
        - math.exp(-local * eps) * (1.0 + (1.0 - beta) * lam * eps)
    )
    dm_drate = beta * _tail_rate_slope(u, v, eps) / bits
    if dm_drate == 0.0:  # the tail underflowed; its sign is all that is left
        return math.copysign(math.inf, dm_dbeta)
    return -dm_dbeta / dm_drate


def rate_threshold_oracle(
    user: UserProfile,
    task: TaskProfile,
    edge: EdgeProfile,
    qos: QosTarget,
    beta: float,
) -> float:
    """Rate threshold by bisection on the outage; no Lambert W.

    The outage 1 - Phi = (1-beta) e^(-net eps) + beta * (edge tail) is a
    sum of nonnegative terms and is compared with 1 - theta (exact for
    theta >= 1/2), so neither side is formed as 1 - x and targets far below
    1e-9 resolve.  Shares only the setup and the tail terms with the closed
    form.  Expands the bracket upward from the stability floor and raises
    InfeasibleError once the required rate exceeds 1e15 bit/s.
    """
    mu_m, offered, floor_rate, budget, _ = _edge_target(user, task, edge, qos, beta)
    if budget >= 1.0:
        return floor_rate
    eps = qos.delay_s
    miss = 1.0 - qos.min_reliability
    local_miss = 0.0
    if beta < 1.0:
        local_miss = (1.0 - beta) * math.exp(-_local_net_rate(user, task, beta) * eps)
    v, bits = mu_m - offered, task.mean_job_bits

    def gap(rate: float) -> float:
        e_v, rest = _edge_tail(rate / bits - offered, v, eps)
        return miss - (local_miss + beta * (e_v + rest))

    lo = max(floor_rate, 1e-12)
    if gap(lo) >= 0.0:
        return lo
    hi = max(2.0 * lo, mu_m * bits)
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
