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
queue in departure order.  Both run the same engine: a group of users
feeding one edge queue, of one user when isolated and of all when shared.

Streams run in fixed chunks of _CHUNK jobs, so memory does not depend on
the run length.  Each queue carries its Lindley state (last arrival, last
service, C_n and min C_k) from chunk to chunk, and the sums run left to
right over [carry, chunk], so every value has the operands, in the order,
of one pass over the whole run: the chunk size changes no output bit.
Each user keeps only its count of post-warmup jobs within the budget.
Offloaded jobs travel as three arrays stably sorted on departure (departure,
edge service, arrival) and a boolean mark of their warmup jobs, None if
none, that goes with them through every sort and merge.

Streams are counter-based (Philox) and keyed by (seed, user, stage), so runs
are bit-reproducible and the two modes consume identical randomness: a
single-user shared run equals the isolated run exactly.  A user whose
share is exactly 0 or 1 draws no offload coin, whose outcome is certain.

Isolated users share nothing, so they run at once, on up to one thread per
CPU the process may use; numpy releases the GIL while it draws, sums and
compares, which is nearly all of a run.  Every analytic value and warning
is formed first, on the calling thread, in user order, and the rows come
back in user order, so the thread count changes no output bit.  The
users of a shared edge couple only through its queue, and the order of
their draws depends on the draws alone (the user with the lowest bound
draws next), so one producer thread draws every user's chunks, one chunk
ahead, while the calling thread runs the edge queue: numpy releases the
GIL for nearly all of both.  With one user or one CPU the same schedule
is drawn in place.

numpy, the thread pool and the queue are imported inside the functions
that use them, so importing this module (as the CLI does for plan, sweep
and verify) loads none of them.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, List, Optional, Tuple

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
    _Jobs = Tuple[np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]

ISOLATED = "isolated"
SHARED_EDGE = "shared_edge"

# stage tags keying the per-user random streams
_PH_ARRIVAL = 0
_PH_OFFLOAD = 1
_PH_LOCAL = 2
_PH_TX = 3
_PH_EDGE = 4
_N_STAGES = 5

# jobs drawn per stream at a time; memory is set by this, not by n_jobs
_CHUNK = 1 << 14

_NO_ARRIVALS = "user {}: no arrivals (lambda = 0); not simulated"


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
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
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
    no_arrivals: bool = False  # lambda = 0: not simulated, empirics NaN

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
        """Every user that had jobs to simulate stayed within its band."""
        return all(row.within_ci for row in self.users if not row.no_arrivals)


def _stream(seed: int, user_id: int, stage: int) -> np.random.Generator:
    import numpy as np

    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence((seed, user_id, stage)))
    )


class _Queue:
    """A FIFO single-server queue fed one chunk of jobs at a time.

    Carries the last job's arrival and service, its C_n and the running
    min_{k<=n} C_k from call to call, so a run pushed in any number of
    pieces gets the sojourn times, bit for bit, of one push of the whole.
    """

    __slots__ = ("arrival", "service", "cum", "low")

    def __init__(self) -> None:
        self.arrival = None  # no job yet

    def sojourn(self, arrivals: np.ndarray, services: np.ndarray) -> np.ndarray:
        """Per-job sojourn times of the next jobs, in arrival order."""
        import numpy as np

        n = arrivals.size
        if n == 0:
            return np.empty(0)
        if self.arrival is None:
            # an empty queue before the first job makes its C exactly 0
            self.arrival, self.service, self.cum, self.low = arrivals[0], 0.0, 0.0, 0.0
        # cum = [C_prev, S_prev - (A_0 - A_prev), S_0 - (A_1 - A_0), ...],
        # then summed left to right in place, as one whole-run cumsum would
        cum = np.empty(n + 1)
        cum[0] = self.cum
        steps = cum[1:]
        steps[0] = self.service - (arrivals[0] - self.arrival)
        np.subtract(arrivals[1:], arrivals[:-1], out=steps[1:])
        np.subtract(services[:-1], steps[1:], out=steps[1:])
        np.cumsum(cum, out=cum)  # steps now holds C_n
        waits = np.minimum.accumulate(steps)
        np.minimum(waits, self.low, out=waits)
        self.arrival, self.service = arrivals[-1], services[-1]
        self.cum, self.low = cum[-1], waits[-1]
        np.subtract(steps, waits, out=waits)
        waits += services
        return waits


class _Source:
    """One user's job stream, drawn _CHUNK jobs at a time.

    Jobs kept local go straight through the local queue.  Offloaded jobs
    go through the transmission queue and are handed on for the edge
    queue as the arrays and mark of the module docstring.
    """

    def __init__(
        self,
        user_id: int,
        user: UserProfile,
        task: TaskProfile,
        edge: EdgeProfile,
        beta: float,
        rate_bps: float,
        delay_s: float,
        cfg: SimConfig,
    ) -> None:
        """Takes the analytic reliability before opening any stream, so an
        unstable queue (the edge against this user's load alone) raises
        StabilityError first.  A user without arrivals draws no job."""
        lam = user.arrival_rate
        try:
            self.analytic = system_reliability(user, task, edge, beta, rate_bps, delay_s)
        except StabilityError as exc:
            raise StabilityError(f"user {user_id}: {exc}") from exc

        self.user_id = user_id
        self.beta, self.rate_bps = beta, rate_bps
        self.lam, self.mu_l = lam, user.local_service_rate(task)
        self.tx_rate, self.mu_m = rate_bps / task.mean_job_bits, edge.service_rate(task)
        self.streams = [_stream(cfg.seed, user_id, stage) for stage in range(_N_STAGES)]
        self.left = cfg.n_jobs if lam > 0.0 else 0  # jobs still to draw
        self.skip = cfg.warmup  # warmup jobs still to draw
        self.last = 0.0  # arrival time of the last job drawn
        self.local, self.tx = _Queue(), _Queue()

    @property
    def bound(self) -> float:
        """No transmission drawn later departs before this time."""
        return self.last if self.left else math.inf

    def draw(self) -> Tuple[np.ndarray, _Jobs]:
        """Draw the next chunk; returns its post-warmup local sojourn times
        and its offloaded jobs (see the class), stably sorted on departure.

        Each array is dropped once used, so a draw holds little more than
        it returns: on a producer thread, its peak adds to the edge queue's.
        """
        import numpy as np

        m = min(_CHUNK, self.left)
        self.left -= m
        cut = min(self.skip, m)
        self.skip -= cut
        streams = self.streams
        arrivals = np.empty(m + 1)
        arrivals[0] = self.last
        arrivals[1:] = streams[_PH_ARRIVAL].exponential(1.0 / self.lam, m)
        np.cumsum(arrivals, out=arrivals)
        arrivals = arrivals[1:]
        self.last = arrivals[-1]
        # at share 0 or 1 the coin is certain (random() < 1.0 always holds,
        # < 0.0 never), and its stream feeds nothing else: draw no coin
        if self.beta == 1.0:
            local, off_arrivals, n_warm = arrivals[:0], arrivals, 0
        elif self.beta == 0.0:
            local, off_arrivals, n_warm = arrivals, arrivals[:0], cut
        else:
            offloaded = streams[_PH_OFFLOAD].random(m) < self.beta
            kept = ~offloaded
            n_warm = int(np.count_nonzero(kept[:cut]))
            local = np.compress(kept, arrivals)
            off_arrivals = np.compress(offloaded, arrivals)
        del arrivals
        if local.size:
            local = self.local.sojourn(
                local, streams[_PH_LOCAL].exponential(1.0 / self.mu_l, local.size))

        n_off = off_arrivals.size
        if not n_off:
            return local[n_warm:], (off_arrivals, off_arrivals, off_arrivals, None)
        departures = self.tx.sojourn(
            off_arrivals, streams[_PH_TX].exponential(1.0 / self.tx_rate, n_off))
        departures += off_arrivals
        # the first offloaded jobs of the first chunks are warmup jobs
        warm = np.arange(n_off) < cut - n_warm if cut > n_warm else None
        jobs = (departures, streams[_PH_EDGE].exponential(1.0 / self.mu_m, n_off),
                off_arrivals, warm)
        if np.any(departures[1:] < departures[:-1]):  # FIFO but for rounding
            jobs = _pick(jobs, np.argsort(departures, kind="stable"))
        return local[n_warm:], jobs


def _pick(jobs: _Jobs, index) -> _Jobs:
    """The jobs at index, a slice or an order."""
    return tuple(None if row is None else row[index] for row in jobs)


def _merge(pending: List[List[_Jobs]], bound: float) -> tuple:
    """Take the jobs whose transmission departs before bound out of pending
    (each user's waiting runs of offloaded jobs, in user order and drawn
    order).  Returns their departures, services and arrivals in edge order,
    a stable sort on departure of their concatenation, with that sort's
    order (None if it moves no job), and each run's (slot, count, warmup
    mark).  No job drawn later departs before bound, and strict < holds a
    tie at bound back with the later jobs it may tie with, so successive
    releases concatenate to one stable sort of every user's whole run.
    """
    import numpy as np

    runs, spans = [], []
    for k, waiting in enumerate(pending):
        for i, jobs in enumerate(waiting):
            cut = int(np.searchsorted(jobs[0], bound))
            if cut:
                runs.append(_pick(jobs, slice(cut)))
                spans.append((k, cut, runs[-1][3]))
                waiting[i] = _pick(jobs, slice(cut, None))
        waiting[:] = [jobs for jobs in waiting if jobs[0].size]
    rows = list(zip(*runs))[:3] or [[np.empty(0)]] * 3  # each row's runs
    if all(run[0][0] >= last[0][-1] for last, run in zip(runs, runs[1:])):
        # in edge order already, as one user's runs are but for rounding
        return (*(np.concatenate(r) if len(r) > 1 else r[0] for r in rows), None), spans
    # gathered a row at a time, so at most one row is held twice
    departures = np.concatenate(rows[0])
    order = np.argsort(departures, kind="stable")
    released = [np.take(departures, order)]
    del departures
    released += [np.take(np.concatenate(row), order) for row in rows[1:]]
    return (*released, order), spans


def _schedule(
    group: List[_Source], delay: float, stop: Optional[threading.Event]
) -> Iterator[Tuple[int, int, _Jobs, float]]:
    """Draw group's chunks in the one order a run has: the user with the
    lowest bound draws next.  Yields per draw the user's slot, its count of
    post-warmup local sojourns within delay, its offloaded jobs and the
    lowest bound after the draw.  The order depends on the draws alone, so
    any thread may run this and yield the same items.  Once stop is set it
    ends before its next draw."""
    import numpy as np

    def draw(k: int) -> Tuple[int, int, _Jobs, float]:
        local, jobs = group[k].draw()
        bounds[k] = group[k].bound
        return k, int(np.count_nonzero(local <= delay)), jobs, min(bounds)

    bounds = [src.bound for src in group]
    while stop is None or not stop.is_set():
        bound = min(bounds)
        if bound == math.inf:
            return
        # yielded as drawn: no name here keeps a chunk alive past its use
        yield draw(bounds.index(bound))


def _ahead(items: Iterator) -> Iterator:
    """Yield items as a producer thread takes them from the iterator.

    The producer hands them over through a box of one item, so it runs at
    most one item ahead of the box.  The producer's exception is raised
    here.  When this generator ends early (closed, or interrupted while it
    waits), the producer stops at its next item, and it is joined before
    this generator returns.
    """
    import queue

    box: queue.Queue = queue.Queue(maxsize=1)
    halt = threading.Event()

    def produce() -> None:
        end: BaseException = StopIteration()  # the items ran out
        try:
            for item in items:
                box.put(item)
                del item  # the consumer's now: hold it no longer
                if halt.is_set():
                    break
        except BaseException as exc:  # raised again on the consuming thread
            end = exc
        box.put(end)

    producer = threading.Thread(target=produce, daemon=True)
    producer.start()
    end: List[BaseException] = []

    def take() -> object:
        item = box.get()
        if isinstance(item, BaseException):
            end.append(item)
            return None
        return item

    try:
        # yield from keeps no name here bound to an item once it is yielded
        yield from iter(take, None)
        if not isinstance(end[0], StopIteration):
            raise end[0]
    finally:
        # the producer puts at most one item after halt, then its end:
        # take both, so no put of it stays blocked on a full box
        halt.set()
        while not end:
            take()
        producer.join()


def _simulate_group(
    group: List[_Source], qos: QosTarget, cfg: SimConfig,
    stop: Optional[threading.Event] = None,
) -> List[SimUserReport]:
    """Run every user of group through one shared edge queue.

    Every draw is followed by a release up to the lowest bound, so no user
    holds much more than one chunk of pending jobs, whatever the spread of
    arrival rates.  With more than one user and more than one CPU the
    draws run on a producer thread one chunk ahead, while this thread
    runs the edge queue; numpy releases the GIL for nearly all of both.
    Once stop is set the run ends at its next draw and returns no rows.
    """
    import numpy as np

    delay = qos.delay_s
    edge = _Queue()
    n_ok = np.zeros(len(group), dtype=np.int64)
    pending: List[List[_Jobs]] = [[] for _ in group]  # each user's runs
    draws = _schedule(group, delay, stop)
    if len(group) > 1 and _cpus() > 1:
        draws = _ahead(draws)
    try:
        for k, ok, jobs, bound in draws:
            n_ok[k] += ok
            pending[k].append(jobs)  # an empty run is dropped by the merge
            (departures, services, arrivals, order), spans = _merge(pending, bound)
            done = edge.sojourn(departures, services)
            done += departures
            done -= arrivals
            ok = done <= delay
            if order is not None:
                ok[order] = ok.copy()  # back into the runs' order
            for slot, n, warm in spans:
                n_ok[slot] += np.count_nonzero(ok[:n] if warm is None else ok[:n] & ~warm)
                ok = ok[n:]
    finally:
        draws.close()
    if stop is not None and stop.is_set():
        return []

    n_eff = cfg.n_jobs - cfg.warmup
    rows = []
    for src, ok in zip(group, n_ok.tolist()):
        if not src.lam > 0.0:
            rows.append(SimUserReport(
                src.user_id, src.beta, src.rate_bps, src.analytic, empirical=math.nan,
                ci_radius=math.nan, n_effective=0, no_arrivals=True,
            ))
            continue
        p_hat = ok / n_eff
        ci = 3.0 * math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n_eff)
        rows.append(SimUserReport(
            user_id=src.user_id,
            beta=src.beta,
            rate_bps=src.rate_bps,
            analytic=src.analytic,
            empirical=p_hat,
            ci_radius=ci,
            n_effective=n_eff,
        ))
    return rows


def _cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _simulate_each(
    sources: List[_Source], qos: QosTarget, cfg: SimConfig
) -> List[SimUserReport]:
    """Run each source against its own edge queue, at once on up to one
    thread per available CPU; rows in source order.

    When a source raises, or the caller is interrupted, the sources not
    yet started are cancelled and those running stop at their next chunk.
    """
    workers = min(_cpus(), len(sources))
    if workers <= 1:
        return [_simulate_group([src], qos, cfg)[0] for src in sources]
    from concurrent.futures import ThreadPoolExecutor

    stop = threading.Event()
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        futures = [pool.submit(_simulate_group, [src], qos, cfg, stop) for src in sources]
        return [future.result()[0] for future in futures]
    finally:
        stop.set()
        pool.shutdown(cancel_futures=True)


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
    """Single user against a private edge queue (the analytic model).

    A user without arrivals is not simulated: its row has no_arrivals set
    and NaN empirical columns.
    """
    source = _Source(user_id, user, task, edge, beta, rate_bps, qos.delay_s, cfg)
    return _simulate_group([source], qos, cfg)[0]


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
    empirical columns, and the reason is added to SimReport.warnings.  In
    both modes a user without arrivals is not simulated: its row keeps the
    closed-form analytic value beside NaN empirics, a warning says so, and
    it does not count towards all_within_ci.  Raises InfeasibleError when
    any user is flagged infeasible, and StabilityError in shared-edge mode
    when any queue would be overloaded.
    """
    if any(row.status == INFEASIBLE for row in p.users):
        raise InfeasibleError("plan is infeasible; nothing to simulate")
    task, edge, qos = scenario.task, scenario.edge, scenario.qos
    pairs = (overrides if overrides is not None
             else [(row.beta, row.rate_bps) for row in p.users])
    if len(pairs) != len(p.users):
        raise ValueError("one (beta, rate) pair per user required")

    if cfg.mode == ISOLATED:
        # every source is built here, in user order, so the analytic values
        # and the warnings stay on this thread; only the draws run in workers
        slots: List[object] = []  # a _Source, or an unstable user's row
        warnings: List[str] = []
        for row, (b, r) in zip(p.users, pairs):
            try:
                src = _Source(row.user_id, scenario.users[row.user_id], task, edge,
                              b, r, qos.delay_s, cfg)
            except StabilityError as exc:
                # unstable queue: long-run within-budget fraction is zero
                warnings.append(str(exc))
                slots.append(SimUserReport(
                    row.user_id, b, r, analytic=0.0, empirical=math.nan,
                    ci_radius=math.nan, n_effective=0,
                ))
                continue
            if not src.lam > 0.0:
                warnings.append(_NO_ARRIVALS.format(row.user_id))
            slots.append(src)
        done = iter(_simulate_each([s for s in slots if isinstance(s, _Source)], qos, cfg))
        rows = [next(done) if isinstance(s, _Source) else s for s in slots]
        return SimReport(mode=cfg.mode, seed=cfg.seed, n_jobs=cfg.n_jobs,
                         users=tuple(rows), warnings=tuple(warnings))

    mu_m = edge.service_rate(task)
    load = sum(b * scenario.users[row.user_id].arrival_rate
               for row, (b, _) in zip(p.users, pairs))
    if load >= mu_m:
        raise StabilityError(
            f"shared edge overloaded: total offered load {load:.6g} >= {mu_m:.6g} jobs/s"
        )
    group = [_Source(row.user_id, scenario.users[row.user_id], task, edge, b, r,
                     qos.delay_s, cfg) for row, (b, r) in zip(p.users, pairs)]
    rows = tuple(_simulate_group(group, qos, cfg))
    warnings = [_NO_ARRIVALS.format(rep.user_id) for rep in rows if rep.no_arrivals]
    return SimReport(mode=cfg.mode, seed=cfg.seed, n_jobs=cfg.n_jobs, users=rows,
                     warnings=tuple(warnings))
