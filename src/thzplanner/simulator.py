"""Discrete-event validation of the queueing closed forms.

Each user's job stream is Poisson; a coin with probability beta sends a job
through the transmission queue and then the edge CPU queue, otherwise it is
served by the local CPU queue.  All queues are FIFO with exponential
services, so per-queue waiting times follow the Lindley recursion, which is
evaluated in vectorized form:

    W_n = C_n - min_{k<=n} C_k,   C_n = sum_{i<=n} (S_{i-1} - A_i)

with S the services and A the inter-arrival gaps.  Two edge disciplines are
supported: "isolated" gives every user a private edge queue (the analytic
model), "shared_edge" merges all users' transmission departures into one
queue in arrival order.

Streams are counter-based (Philox) and keyed by (seed, user, stage), so runs
are bit-reproducible and the two modes consume identical randomness: a
single-user shared run equals the isolated run exactly.

numpy is imported inside the functions that draw or queue, so importing
this module (as the CLI does for plan, sweep and verify) does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

from .optimizer import INFEASIBLE, Plan, Scenario
from .reliability import (
    EdgeProfile,
    InfeasibleError,
    QosTarget,
    StabilityError,
    TaskProfile,
    UserProfile,
    system_reliability,
)

if TYPE_CHECKING:
    import numpy as np

ISOLATED = "isolated"
SHARED_EDGE = "shared_edge"

# stage tags keying the per-user random streams
_PH_ARRIVAL = 0
_PH_OFFLOAD = 1
_PH_LOCAL = 2
_PH_TX = 3
_PH_EDGE = 4


@dataclass(frozen=True)
class SimConfig:
    """Run length, warmup discard, seed, and edge discipline."""

    n_jobs: int = 1_000_000
    warmup: int = 10_000
    seed: int = 0
    mode: str = ISOLATED

    def __post_init__(self) -> None:
        if self.mode not in (ISOLATED, SHARED_EDGE):
            raise ValueError(f"mode must be {ISOLATED!r} or {SHARED_EDGE!r}")
        if self.warmup < 0:
            raise ValueError("warmup must be nonnegative")
        if self.n_jobs < 10 * max(self.warmup, 1):
            raise ValueError("need n_jobs >= 10 * warmup")


@dataclass(frozen=True)
class SimUserReport:
    """Empirical vs analytic reliability for one user."""

    user_id: int
    beta: float
    rate_bps: float
    analytic: float
    empirical: float
    ci_radius: float  # 3 * sqrt(p(1-p)/n), binomial
    n_effective: int

    @property
    def delta(self) -> float:
        return self.empirical - self.analytic

    @property
    def within_ci(self) -> bool:
        return abs(self.delta) <= self.ci_radius


@dataclass(frozen=True)
class SimReport:
    mode: str
    seed: int
    n_jobs: int
    users: Tuple[SimUserReport, ...]
    warnings: Tuple[str, ...] = ()

    @property
    def all_within_ci(self) -> bool:
        return all(row.within_ci for row in self.users)


def _stream(seed: int, user_id: int, stage: int) -> np.random.Generator:
    import numpy as np

    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence((seed, user_id, stage)))
    )


def _lindley_sojourn(arrivals: np.ndarray, services: np.ndarray) -> np.ndarray:
    """Per-job sojourn times of a FIFO single-server queue, vectorized."""
    import numpy as np

    n = arrivals.size
    if n == 0:
        return np.empty(0)
    gaps = np.subtract(arrivals[1:], arrivals[:-1])
    np.subtract(services[:-1], gaps, out=gaps)
    cum = np.empty(n)
    cum[0] = 0.0
    np.cumsum(gaps, out=cum[1:])
    del gaps
    waits = np.minimum.accumulate(cum)
    np.subtract(cum, waits, out=waits)
    waits += services
    return waits


class _UserTrace:
    """Per-user state shared by the two edge disciplines."""

    __slots__ = ("off_arrivals", "offloaded", "totals", "tx_departures", "edge_services")

    def __init__(
        self,
        off_arrivals: np.ndarray,
        offloaded: np.ndarray,
        totals: np.ndarray,
        tx_departures: np.ndarray,
        edge_services: np.ndarray,
    ) -> None:
        self.off_arrivals = off_arrivals
        self.offloaded = offloaded
        self.totals = totals
        self.tx_departures = tx_departures
        self.edge_services = edge_services


def _trace_user(
    user_id: int,
    user: UserProfile,
    task: TaskProfile,
    edge: EdgeProfile,
    beta: float,
    rate_bps: float,
    cfg: SimConfig,
) -> _UserTrace:
    """Arrivals, split, local sojourns, and transmission departures.

    Checks the user's local, transmission and edge queues for stability
    (the edge against this user's load alone) before drawing anything.
    """
    import numpy as np

    lam = user.arrival_rate
    if lam <= 0.0:
        raise ValueError("simulation needs a positive arrival rate")
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    mu_l = user.local_service_rate(task)
    if beta < 1.0 and mu_l <= (1.0 - beta) * lam:
        raise StabilityError(
            f"user {user_id}: local queue unstable at beta={beta:.6g}"
        )
    tx_rate = rate_bps / task.mean_job_bits if beta > 0.0 else 0.0
    if beta > 0.0 and tx_rate <= beta * lam:
        raise StabilityError(
            f"user {user_id}: transmission queue unstable at beta={beta:.6g}"
        )
    mu_m = edge.service_rate(task)
    if beta > 0.0 and mu_m <= beta * lam:
        raise StabilityError(f"user {user_id}: edge queue unstable at beta={beta:.6g}")

    n = cfg.n_jobs
    arrivals = np.cumsum(_stream(cfg.seed, user_id, _PH_ARRIVAL).exponential(1.0 / lam, n))
    offloaded = _stream(cfg.seed, user_id, _PH_OFFLOAD).random(n) < beta
    totals = np.empty(n)

    kept = ~offloaded
    n_kept = int(kept.sum())
    if n_kept:
        local_services = _stream(cfg.seed, user_id, _PH_LOCAL).exponential(
            1.0 / mu_l, n_kept
        )
        totals[kept] = _lindley_sojourn(arrivals[kept], local_services)

    off_arrivals = arrivals[offloaded]
    n_off = off_arrivals.size
    if n_off:
        tx_services = _stream(cfg.seed, user_id, _PH_TX).exponential(1.0 / tx_rate, n_off)
        tx_departures = _lindley_sojourn(off_arrivals, tx_services)
        tx_departures += off_arrivals
        edge_services = _stream(cfg.seed, user_id, _PH_EDGE).exponential(
            1.0 / mu_m, n_off
        )
    else:
        tx_departures = np.empty(0)
        edge_services = np.empty(0)
    return _UserTrace(off_arrivals, offloaded, totals, tx_departures, edge_services)


def _finish_isolated(trace: _UserTrace) -> None:
    """Complete offloaded jobs through a private edge queue."""
    if trace.tx_departures.size == 0:
        return
    done = _lindley_sojourn(trace.tx_departures, trace.edge_services)
    done += trace.tx_departures
    done -= trace.off_arrivals
    trace.totals[trace.offloaded] = done


def _finish_shared(traces: List[_UserTrace]) -> None:
    """Complete all offloaded jobs through one merged edge queue."""
    import numpy as np

    dep = np.concatenate([t.tx_departures for t in traces])
    serv = np.concatenate([t.edge_services for t in traces])
    for t in traces:  # release the per-user copies before the merge
        t.tx_departures = t.edge_services = None
    if dep.size == 0:
        return
    order = np.argsort(dep, kind="stable")
    dep = dep[order]
    serv = serv[order]
    sojourn = _lindley_sojourn(dep, serv)
    sojourn += dep
    done = np.empty(sojourn.size)
    done[order] = sojourn
    lo = 0
    for t in traces:
        seg = done[lo : lo + t.off_arrivals.size]
        seg -= t.off_arrivals
        t.totals[t.offloaded] = seg
        lo += seg.size


def _report_row(
    user_id: int,
    user: UserProfile,
    task: TaskProfile,
    edge: EdgeProfile,
    beta: float,
    rate_bps: float,
    qos: QosTarget,
    trace: _UserTrace,
    cfg: SimConfig,
) -> SimUserReport:
    import numpy as np

    post = trace.totals[cfg.warmup :]
    n_eff = post.size
    p_hat = float(np.mean(post <= qos.delay_s))
    ci = 3.0 * math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n_eff)
    analytic = system_reliability(user, task, edge, beta, rate_bps, qos.delay_s)
    return SimUserReport(
        user_id=user_id,
        beta=beta,
        rate_bps=rate_bps,
        analytic=analytic,
        empirical=p_hat,
        ci_radius=ci,
        n_effective=n_eff,
    )


def simulate_user(
    user: UserProfile,
    task: TaskProfile,
    edge: EdgeProfile,
    beta: float,
    rate_bps: float,
    qos: QosTarget,
    cfg: SimConfig,
    user_id: int = 0,
) -> SimUserReport:
    """Single user against a private edge queue (the analytic model)."""
    trace = _trace_user(user_id, user, task, edge, beta, rate_bps, cfg)
    _finish_isolated(trace)
    return _report_row(user_id, user, task, edge, beta, rate_bps, qos, trace, cfg)


def simulate_system(
    p: Plan,
    scenario: Scenario,
    cfg: SimConfig,
    overrides: Optional[List[Tuple[float, float]]] = None,
) -> SimReport:
    """Simulate every planned user under the configured edge discipline.

    overrides, when given, replaces each user's (beta, rate) pair, e.g. to
    replay a plan's rates with offloading forced to 1.  In isolated mode a
    user with an overloaded queue is reported with analytic 0 and NaN
    empirical columns, and the reason is added to SimReport.warnings.
    Raises InfeasibleError when any user is flagged infeasible, and
    StabilityError in shared-edge mode when any queue would be overloaded.
    """
    if any(row.status == INFEASIBLE for row in p.users):
        raise InfeasibleError("plan is infeasible; nothing to simulate")
    task, edge, qos = scenario.task, scenario.edge, scenario.qos
    pairs = (overrides if overrides is not None
             else [(row.beta, row.rate_bps) for row in p.users])
    if len(pairs) != len(p.users):
        raise ValueError("one (beta, rate) pair per user required")

    if cfg.mode == ISOLATED:
        rows: List[SimUserReport] = []
        warnings: List[str] = []
        for row, (b, r) in zip(p.users, pairs):
            try:
                rows.append(simulate_user(
                    scenario.users[row.user_id], task, edge, b, r, qos, cfg,
                    user_id=row.user_id,
                ))
            except StabilityError as exc:
                # unstable queue: long-run within-budget fraction is zero
                warnings.append(str(exc))
                rows.append(SimUserReport(
                    row.user_id, b, r, analytic=0.0, empirical=math.nan,
                    ci_radius=math.nan, n_effective=0,
                ))
        return SimReport(mode=cfg.mode, seed=cfg.seed, n_jobs=cfg.n_jobs,
                         users=tuple(rows), warnings=tuple(warnings))

    mu_m = edge.service_rate(task)
    load = sum(b * scenario.users[row.user_id].arrival_rate
               for row, (b, _) in zip(p.users, pairs))
    if load >= mu_m:
        raise StabilityError(
            f"shared edge overloaded: total offered load {load:.6g} >= {mu_m:.6g} jobs/s"
        )
    traces = [
        _trace_user(row.user_id, scenario.users[row.user_id], task, edge, b, r, cfg)
        for row, (b, r) in zip(p.users, pairs)
    ]
    _finish_shared(traces)
    rows = tuple(
        _report_row(
            row.user_id, scenario.users[row.user_id], task, edge, b, r, qos, trace, cfg
        )
        for row, (b, r), trace in zip(p.users, pairs, traces)
    )
    return SimReport(mode=cfg.mode, seed=cfg.seed, n_jobs=cfg.n_jobs, users=rows)
