"""Discrete-event validation of the queueing formulas.

A note on tolerances: the binomial radius 3 sqrt(p(1-p)/n) treats the
within-budget indicators as independent, but sojourn times of neighboring
jobs are correlated through busy periods.  At load 0.5 the true standard
error is roughly 1.5x the binomial one, so seeds are pinned wherever a
single run is compared against that radius.
"""

import math
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import thzplanner as tp
from thzplanner import (
    ISOLATED,
    SHARED_EDGE,
    EdgeProfile,
    QosTarget,
    SimConfig,
    StabilityError,
    TaskProfile,
    UserProfile,
    simulate_system,
    simulate_user,
    system_reliability,
)
from thzplanner.scenario_io import load_scenario
from thzplanner.simulator import (
    _N_STAGES,
    _PH_ARRIVAL,
    _PH_EDGE,
    _PH_LOCAL,
    _PH_OFFLOAD,
    _PH_TX,
    _merge,
    _Queue,
    _simulate_group,
    _Source,
    _stream,
)

REFERENCE = Path(__file__).resolve().parent.parent / "scenarios" / "reference_k10.yaml"

TASK = TaskProfile(mean_job_bits=8.0e6, mean_job_cycles=1.0e7)


class TestSimConfig:
    def test_mode_checked(self):
        with pytest.raises(ValueError):
            SimConfig(mode="both")

    def test_warmup_bounds(self):
        with pytest.raises(ValueError):
            SimConfig(n_jobs=1000, warmup=-1)
        with pytest.raises(ValueError):
            SimConfig(n_jobs=1000, warmup=500)  # needs n_jobs >= 10x warmup
        SimConfig(n_jobs=1000, warmup=100)

    def test_seed_nonnegative(self):
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            SimConfig(seed=-1)
        SimConfig(seed=0)


def mm1_within(lam, mu, eps, cfg):
    """Empirical P(sojourn <= eps) of an M/M/1 queue: a user that offloads
    nothing, with jobs of one cycle on a CPU of mu cycles/s."""
    one_cycle = TaskProfile(mean_job_bits=1.0, mean_job_cycles=1.0)
    rep = simulate_user(
        UserProfile(arrival_rate=lam, local_cpu_hz=mu), one_cycle,
        EdgeProfile(cpu_hz=1.0), 0.0, 0.0, QosTarget(delay_s=eps, min_reliability=0.5),
        cfg,
    )
    return rep.empirical


class TestMm1:
    def test_half_loaded_queue_matches_theory(self):
        # lambda 50, mu 100: sojourn ~ Exp(50), P(<= 0.08) = 1 - e^-4.
        # Seed pinned: see the module docstring on busy-period correlation.
        cfg = SimConfig(n_jobs=1_000_000, warmup=10_000, seed=0)
        frac = mm1_within(50.0, 100.0, 0.08, cfg)
        expect = -math.expm1(-4.0)
        ci = 3.0 * math.sqrt(expect * (1.0 - expect) / 990_000)
        assert abs(frac - expect) <= ci

    def test_no_arrivals_is_pure_service(self):
        # a vanishing arrival rate leaves every job an empty queue, so the
        # samples are independent and the binomial radius is exact here
        cfg = SimConfig(n_jobs=400_000, warmup=4_000, seed=7)
        frac = mm1_within(1e-9, 100.0, 0.02, cfg)
        expect = -math.expm1(-2.0)
        ci = 3.0 * math.sqrt(expect * (1.0 - expect) / 396_000)
        assert abs(frac - expect) <= ci

    def test_unstable_rejected(self):
        cfg = SimConfig(n_jobs=1000, warmup=10)
        with pytest.raises(StabilityError):
            mm1_within(100.0, 100.0, 0.08, cfg)
        with pytest.raises(ValueError):
            mm1_within(10.0, 0.0, 0.08, cfg)
        with pytest.raises(ValueError):
            mm1_within(-1.0, 10.0, 0.08, cfg)

    def test_seed_reproducibility(self):
        cfg = SimConfig(n_jobs=50_000, warmup=500, seed=11)
        a = mm1_within(30.0, 100.0, 0.05, cfg)
        b = mm1_within(30.0, 100.0, 0.05, cfg)
        assert a == b
        other = SimConfig(n_jobs=50_000, warmup=500, seed=12)
        assert mm1_within(30.0, 100.0, 0.05, other) != a


class TestLindley:
    @staticmethod
    def _reference(arrivals, services):
        if arrivals.size == 0:
            return np.empty(0)
        cum = np.concatenate(([0.0], np.cumsum(services[:-1] - np.diff(arrivals))))
        return cum - np.minimum.accumulate(cum) + services

    @pytest.mark.parametrize("n", [0, 1, 2, 5_000])
    def test_bit_identical_to_the_plain_expression(self, n):
        rng = np.random.default_rng(n)
        arrivals = np.cumsum(rng.exponential(1.0, n))
        services = rng.exponential(0.8, n)
        got = _Queue().sojourn(arrivals, services)
        assert np.array_equal(got, self._reference(arrivals, services))

    def test_matches_the_scalar_recursion(self):
        rng = np.random.default_rng(7)
        arrivals = np.cumsum(rng.exponential(1.0, 2_000))
        services = rng.exponential(0.9, 2_000)
        got = _Queue().sojourn(arrivals, services)
        w = 0.0
        for i in range(arrivals.size):
            if i:
                w = max(0.0, w + services[i - 1] - (arrivals[i] - arrivals[i - 1]))
            assert got[i] == pytest.approx(w + services[i], rel=1e-12)

    def test_bit_identical_at_every_split_point(self):
        """The carried state makes two pushes equal one push of the whole."""
        rng = np.random.default_rng(50)
        arrivals = np.cumsum(rng.exponential(1.0, 50))
        services = rng.exponential(0.95, 50)
        expect = self._reference(arrivals, services)
        for cut in range(51):
            queue = _Queue()
            head = queue.sojourn(arrivals[:cut], services[:cut])
            tail = queue.sojourn(arrivals[cut:], services[cut:])
            assert np.array_equal(np.concatenate((head, tail)), expect), cut


def drain(source):
    """Draw every chunk of source; returns the post-warmup local sojourn
    times and the offloaded jobs' departures, services, arrivals and
    warmup marks, each in draw order.  Each chunk's jobs come sorted on
    departure."""
    local, offloaded = [], []
    while source.left:
        times, (departures, services, arrivals, warm) = source.draw()
        assert np.all(departures[1:] >= departures[:-1])
        if warm is None:
            warm = np.zeros(departures.size, dtype=bool)
        local.append(times)
        offloaded.append((departures, services, arrivals, warm))
    return np.concatenate(local), tuple(np.concatenate(rows) for rows in zip(*offloaded))


class TestTraceStreams:
    def test_offloaded_substream_is_poisson(self):
        """Thinning the Poisson arrivals with probability beta must leave
        exponential inter-arrivals at rate beta * lambda."""
        user = UserProfile(arrival_rate=20.0, local_cpu_hz=1.0e9)
        edge = EdgeProfile(cpu_hz=1.0e9)
        cfg = SimConfig(n_jobs=40_000, warmup=400, seed=3)
        source = _Source(0, user, TASK, edge, 0.5, 2.0e9, 0.1, cfg)
        gaps = np.diff(np.sort(drain(source)[1][2]))
        # 1% critical value; n ~ 20000 thinned jobs
        res = stats.kstest(gaps, "expon", args=(0.0, 1.0 / (0.5 * 20.0)))
        assert res.pvalue > 0.01

    def test_split_is_exhaustive(self):
        user = UserProfile(arrival_rate=20.0, local_cpu_hz=1.0e9)
        edge = EdgeProfile(cpu_hz=1.0e9)
        cfg = SimConfig(n_jobs=10_000, warmup=100, seed=3)
        source = _Source(0, user, TASK, edge, 0.3, 2.0e9, 0.1, cfg)
        local, offloaded = drain(source)
        assert local.size + np.count_nonzero(~offloaded[3]) == 10_000 - 100
        assert np.all(np.isfinite(local)) and np.all(np.isfinite(offloaded[:3]))

    def test_unstable_queues_refused(self):
        cfg = SimConfig(n_jobs=1000, warmup=10, seed=0)
        edge = EdgeProfile(cpu_hz=1.0e9)
        weak_local = UserProfile(arrival_rate=60.0, local_cpu_hz=5.0e8)  # mu_l = 50
        with pytest.raises(StabilityError):
            _Source(0, weak_local, TASK, edge, 0.05, 1.0e9, 0.1, cfg)
        user = UserProfile(arrival_rate=20.0, local_cpu_hz=1.0e9)
        with pytest.raises(StabilityError):
            # tx rate 10 jobs/s below the offered 0.9 * 20
            _Source(0, user, TASK, edge, 0.9, 8.0e7, 0.1, cfg)

    def test_edge_overload_refused_before_any_draw(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("random stream opened before the stability check")

        monkeypatch.setattr(tp.simulator, "_stream", no_draws)
        cfg = SimConfig(n_jobs=1000, warmup=10, seed=0)
        user = UserProfile(arrival_rate=20.0, local_cpu_hz=1.0e9)
        tiny_edge = EdgeProfile(cpu_hz=1.5e8)  # mu_m = 15 < 0.9 * 20
        with pytest.raises(StabilityError, match="edge queue"):
            _Source(0, user, TASK, tiny_edge, 0.9, 2.0e9, 0.1, cfg)


class TestOffloadCoin:
    """At share 0 or 1 every job's route is certain: no coin is drawn, and
    the draws equal those of a coin that always lands the same way."""

    USER = UserProfile(arrival_rate=20.0, local_cpu_hz=1.0e9)
    EDGE = EdgeProfile(cpu_hz=1.0e9)
    CFG = SimConfig(n_jobs=40_000, warmup=400, seed=3)

    @staticmethod
    def no_coin(monkeypatch):
        real = tp.simulator._stream

        class NoCoin:
            def random(self, *args):
                raise AssertionError("offload coin drawn")

        def stream(seed, user_id, stage):
            return NoCoin() if stage == tp.simulator._PH_OFFLOAD else real(seed, user_id, stage)

        monkeypatch.setattr(tp.simulator, "_stream", stream)

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_certain_share_draws_no_coin(self, monkeypatch, beta):
        qos = QosTarget(delay_s=0.1, min_reliability=0.9)
        expect = simulate_user(self.USER, TASK, self.EDGE, beta, 2.0e9, qos, self.CFG)
        self.no_coin(monkeypatch)
        assert simulate_user(self.USER, TASK, self.EDGE, beta, 2.0e9, qos, self.CFG) == expect

    def test_interior_share_draws_the_coin(self, monkeypatch):
        self.no_coin(monkeypatch)
        source = _Source(0, self.USER, TASK, self.EDGE, 0.5, 2.0e9, 0.1, self.CFG)
        with pytest.raises(AssertionError, match="offload coin drawn"):
            source.draw()

    # a share just past 1 or 0 takes the coin path with a coin that always
    # lands the same way: random() is in [0, 1)
    @pytest.mark.parametrize("beta, coin_beta", [(1.0, 1.0 + 2.0**-52), (0.0, -5e-324)])
    def test_draws_equal_a_certain_coin(self, beta, coin_beta):
        skip = _Source(0, self.USER, TASK, self.EDGE, beta, 2.0e9, 0.1, self.CFG)
        coin = _Source(0, self.USER, TASK, self.EDGE, beta, 2.0e9, 0.1, self.CFG)
        coin.beta = coin_beta
        (local, jobs), (coin_local, coin_jobs) = drain(skip), drain(coin)
        for got, expect in zip((local, *jobs), (coin_local, *coin_jobs)):
            assert np.array_equal(got, expect)


class TestMerge:
    def test_releases_concatenate_to_one_stable_sort(self):
        """Departures that tie within and across users leave the merge in
        the order of a stable argsort of the whole runs' user-order
        concatenation, however the runs arrive and are released."""
        runs = [[1.0, 2.0, 2.0, 3.0], [2.0, 2.0, 4.0], [0.5, 2.0, 3.0, 3.0]]
        ids = np.cumsum([0] + [len(r) for r in runs])
        # each job's id rides in its service
        jobs = [(np.array(r), np.arange(lo, lo + len(r), dtype=float), np.zeros(len(r)))
                for r, lo in zip(runs, ids)]
        # user 1's first 2.0 waits at bound 2.0 while user 0's 2.0s are
        # still to be drawn: releasing it (<=) would put it before them
        first = [1, 1, 2]
        pending = [[(*(row[:k] for row in j), None)] for j, k in zip(jobs, first)]
        released, _ = _merge(pending, 2.0)
        order = [released[1]]
        released, _ = _merge(pending, 2.0)
        order.append(released[1])
        for waiting, j, k in zip(pending, jobs, first):
            waiting.append((*(row[k:] for row in j), None))
        for bound in (3.0, math.inf):
            released, _ = _merge(pending, bound)
            order.append(released[1])
        assert pending == [[], [], []]
        expect = np.argsort(np.concatenate(runs), kind="stable")
        assert np.array_equal(np.concatenate(order), expect)


class TestWarmup:
    """Warmup jobs are left out by identity, also when a sort on departure
    moves one behind jobs that count."""

    USER = UserProfile(arrival_rate=20.0, local_cpu_hz=1.0e9)
    EDGE = EdgeProfile(cpu_hz=1.0e9)
    QOS = QosTarget(delay_s=0.1, min_reliability=0.9)
    LATE_S = 1.0  # ten offloaded jobs' gaps, and far past the delay budget

    class Late:
        """A transmission queue whose first chunk's job `late` departs
        LATE_S late."""

        def __init__(self, queue, late):
            self.queue, self.late = queue, late

        def sojourn(self, arrivals, services):
            sojourns = self.queue.sojourn(arrivals, services)
            if self.late is not None:
                sojourns[self.late] += TestWarmup.LATE_S
                self.late = None
            return sojourns

    def reference(self, src, cfg):
        """src's post-warmup local jobs within the budget, the index of its
        last offloaded warmup job, and its offloaded jobs (departure,
        service, arrival, warmup) with that job LATE_S late, all drawn over
        the whole run at once."""
        streams = [_stream(cfg.seed, src.user_id, stage) for stage in range(_N_STAGES)]
        n = cfg.n_jobs
        arrivals = np.cumsum(streams[_PH_ARRIVAL].exponential(1.0 / src.lam, n))
        offloaded = streams[_PH_OFFLOAD].random(n) < src.beta
        warm = np.arange(n) < cfg.warmup  # the first arrivals
        kept = arrivals[~offloaded]
        local = _Queue().sojourn(
            kept, streams[_PH_LOCAL].exponential(1.0 / src.mu_l, kept.size))
        n_ok = np.count_nonzero((local <= self.QOS.delay_s) & ~warm[~offloaded])
        sent = arrivals[offloaded]
        departures = _Queue().sojourn(
            sent, streams[_PH_TX].exponential(1.0 / src.tx_rate, sent.size))
        late = np.count_nonzero(offloaded[: cfg.warmup]) - 1
        departures[late] += self.LATE_S
        departures += sent
        services = streams[_PH_EDGE].exponential(1.0 / src.mu_m, sent.size)
        return n_ok, late, (departures, services, sent, warm[offloaded])

    def edge_counts(self, jobs):
        """Each user's post-warmup offloaded jobs within the budget, through
        one edge queue in a stable sort on departure of the users' jobs."""
        departures, services, arrivals, warm = (np.concatenate(rows) for rows in zip(*jobs))
        users = np.repeat(np.arange(len(jobs)), [run[0].size for run in jobs])
        order = np.argsort(departures, kind="stable")
        done = _Queue().sojourn(departures[order], services[order])
        done += departures[order]
        done -= arrivals[order]
        counted = (done <= self.QOS.delay_s) & ~warm[order]
        return np.bincount(users[order][counted], minlength=len(jobs))

    # the late job departs after its chunk's last arrival, or within it
    @pytest.mark.parametrize("chunk", [100, 1 << 14], ids=["held_back", "in_its_chunk"])
    @pytest.mark.parametrize("mode", [ISOLATED, SHARED_EDGE])
    def test_late_warmup_job_is_left_out(self, monkeypatch, chunk, mode):
        monkeypatch.setattr(tp.simulator, "_CHUNK", chunk)
        cfg = SimConfig(n_jobs=2_000, warmup=100, seed=4, mode=mode)
        group = [_Source(k, self.USER, TASK, self.EDGE, 0.5, 2.0e9, self.QOS.delay_s, cfg)
                 for k in range(3)]
        local, offloaded = [], []
        for src in group:
            n_ok, late, jobs = self.reference(src, cfg)
            assert jobs[0][late] > jobs[0][late + 1]  # behind a job that counts
            src.tx = self.Late(src.tx, late)
            local.append(n_ok)
            offloaded.append(jobs)
        if mode == ISOLATED:
            expect = [ok + self.edge_counts([jobs])[0] for ok, jobs in zip(local, offloaded)]
            rows = [_simulate_group([src], self.QOS, cfg)[0] for src in group]
        else:
            expect = np.add(local, self.edge_counts(offloaded)).tolist()
            rows = _simulate_group(group, self.QOS, cfg)
        n_eff = cfg.n_jobs - cfg.warmup
        assert [row.empirical for row in rows] == [ok / n_eff for ok in expect]


class TestSimulateUser:
    USER = UserProfile(arrival_rate=10.0, local_cpu_hz=5.0e8)  # mu_l = 50
    EDGE = EdgeProfile(cpu_hz=6.0e8)  # mu_m = 60
    QOS = QosTarget(delay_s=0.08, min_reliability=0.97)

    def test_analytic_column_is_the_closed_form(self):
        cfg = SimConfig(n_jobs=20_000, warmup=200, seed=1)
        rep = simulate_user(self.USER, TASK, self.EDGE, 0.5, 8.8e8, self.QOS, cfg)
        assert rep.analytic == system_reliability(
            self.USER, TASK, self.EDGE, 0.5, 8.8e8, self.QOS.delay_s
        )
        assert rep.n_effective == 19_800
        assert 0.0 <= rep.empirical <= 1.0

    def test_moderate_load_within_ci(self):
        cfg = SimConfig(n_jobs=400_000, warmup=4_000, seed=42)
        for beta in (0.0, 0.5, 1.0):
            rep = simulate_user(self.USER, TASK, self.EDGE, beta, 8.8e8, self.QOS, cfg)
            assert rep.within_ci, (beta, rep.delta, rep.ci_radius)

    def test_beta_zero_ignores_the_link(self):
        cfg = SimConfig(n_jobs=20_000, warmup=200, seed=5)
        a = simulate_user(self.USER, TASK, self.EDGE, 0.0, 1.0e9, self.QOS, cfg)
        b = simulate_user(self.USER, TASK, self.EDGE, 0.0, 5.0e9, self.QOS, cfg)
        assert a.empirical == b.empirical

    def test_edge_overload_refused(self):
        cfg = SimConfig(n_jobs=10_000, warmup=100, seed=0)
        tiny_edge = EdgeProfile(cpu_hz=9.0e7)  # mu_m = 9 < beta * lambda = 10
        with pytest.raises(StabilityError):
            simulate_user(self.USER, TASK, tiny_edge, 1.0, 2.0e9, self.QOS, cfg)


class TestSimulateSystem:
    def test_reference_plan_isolated(self):
        sc = tp.reference_scenario()
        p = tp.plan(sc)
        cfg = SimConfig(n_jobs=50_000, warmup=500, seed=9)
        rep = simulate_system(p, sc, cfg)
        assert rep.mode == ISOLATED
        assert len(rep.users) == 10
        assert [r.user_id for r in rep.users] == list(range(10))
        for row in rep.users:
            assert row.n_effective == 49_500
            assert 0.0 <= row.empirical <= 1.0

    def test_single_user_isolated_equals_shared(self):
        # one user cannot tell whether the edge is shared
        sc = tp.single_user_scenario()
        p = tp.plan(sc)
        iso = simulate_system(p, sc, SimConfig(n_jobs=100_000, warmup=1_000, seed=2))
        sh = simulate_system(
            p, sc, SimConfig(n_jobs=100_000, warmup=1_000, seed=2, mode=SHARED_EDGE)
        )
        assert iso.users[0].empirical == sh.users[0].empirical

    def test_shared_edge_contention_hurts(self):
        """With many users on one edge queue the empirical reliability must
        drop below the isolated-edge prediction for at least the heavy
        users; the analytic column keeps the per-user model either way."""
        sc = tp.reference_scenario()
        # shrink the edge so that contention is actually visible
        sc_small = tp.apply_axis(sc, "f_m_cycles_per_s", 2.5e9)
        p = tp.plan(sc_small)
        cfg = SimConfig(n_jobs=60_000, warmup=600, seed=4, mode=SHARED_EDGE)
        rep = simulate_system(p, sc_small, cfg)
        assert rep.mode == SHARED_EDGE
        mean_delta = np.mean([r.delta for r in rep.users])
        assert mean_delta < 0.0  # contention only removes capacity

    def test_shared_overload_refused(self):
        sc = tp.reference_scenario()
        p = tp.plan(sc)
        tiny = tp.apply_axis(sc, "f_m_cycles_per_s", 1.3e9)  # mu_m = 130 < 140
        cfg = SimConfig(n_jobs=10_000, warmup=100, seed=0, mode=SHARED_EDGE)
        overrides = [(1.0, row.rate_bps) for row in p.users]
        with pytest.raises(StabilityError):
            simulate_system(p, tiny, cfg, overrides=overrides)

    def test_isolated_edge_overload_reported_per_user(self):
        """In isolated mode an overloaded private edge queue becomes a NaN
        row and a warning; the other users are simulated as usual."""
        sc = tp.reference_scenario()
        p = tp.plan(sc)
        tiny = tp.apply_axis(sc, "f_m_cycles_per_s", 1.0e8)  # mu_m = 10 jobs/s
        cfg = SimConfig(n_jobs=10_000, warmup=100, seed=0)
        overrides = [(1.0, row.rate_bps) for row in p.users]
        rep = simulate_system(p, tiny, cfg, overrides=overrides)
        assert not rep.all_within_ci
        lam = {r.user_id: sc.users[r.user_id].arrival_rate for r in rep.users}
        unstable = [r for r in rep.users if lam[r.user_id] >= 10.0]
        stable = [r for r in rep.users if lam[r.user_id] < 10.0]
        assert len(unstable) == 7
        assert sorted(lam[r.user_id] for r in stable) == [5.0, 7.0, 9.0]
        for r in unstable:
            assert r.analytic == 0.0 and math.isnan(r.empirical)
            assert math.isnan(r.ci_radius) and r.n_effective == 0
            assert not r.within_ci
        assert len(rep.warnings) == len(unstable)
        for r, note in zip(unstable, rep.warnings):
            v = 10.0 - lam[r.user_id]
            assert note == f"user {r.user_id}: edge queue unstable: net rate v = {v:.6g} <= 0"
        for r in stable:
            assert r.n_effective == 9_900 and 0.0 <= r.empirical <= 1.0

    @pytest.mark.parametrize("mode", [ISOLATED, SHARED_EDGE])
    def test_user_without_arrivals_is_skipped(self, mode):
        """A user with lambda = 0 draws no job: its row keeps the closed
        form beside NaN empirics, a warning names it, and the verdict comes
        from the simulated users alone, which run as without it."""
        sc = tp.single_user_scenario()
        idle = UserProfile(arrival_rate=0.0, local_cpu_hz=5.0e8)
        two = replace(sc, users=sc.users + (idle,), grid=tp.FrequencyGrid((150.0, 160.0)))
        p = tp.plan(two)
        cfg = SimConfig(n_jobs=20_000, warmup=200, seed=3, mode=mode)
        rep = simulate_system(p, two, cfg)
        alone = simulate_system(tp.plan(sc), sc, cfg)
        assert rep.users[0] == alone.users[0] and rep.users[0].within_ci
        row = rep.users[1]
        assert row.no_arrivals and row.user_id == 1 and row.n_effective == 0
        assert row.analytic == system_reliability(
            idle, sc.task, sc.edge, p.users[1].beta, p.users[1].rate_bps, sc.qos.delay_s
        )
        assert all(math.isnan(x) for x in (row.empirical, row.ci_radius, row.delta))
        assert rep.warnings == ("user 1: no arrivals (lambda = 0); not simulated",)
        assert rep.all_within_ci

    def test_overloaded_user_beside_an_idle_one_still_fails(self):
        sc = tp.single_user_scenario()
        idle = UserProfile(arrival_rate=0.0, local_cpu_hz=5.0e8)
        two = replace(sc, users=sc.users + (idle,), grid=tp.FrequencyGrid((150.0, 160.0)))
        p = tp.plan(two)
        tiny = tp.apply_axis(two, "f_m_cycles_per_s", 5.0e7)  # mu_m = 5 < lambda = 10
        overrides = [(1.0, p.users[0].rate_bps), (p.users[1].beta, p.users[1].rate_bps)]
        rep = simulate_system(p, tiny, SimConfig(n_jobs=10_000, warmup=100), overrides)
        assert rep.users[0].analytic == 0.0 and math.isnan(rep.users[0].empirical)
        assert rep.users[1].no_arrivals and not rep.users[0].no_arrivals
        assert rep.warnings == (
            "user 0: edge queue unstable: net rate v = -5 <= 0",
            "user 1: no arrivals (lambda = 0); not simulated",
        )
        assert not rep.all_within_ci

    def test_infeasible_plan_refused(self):
        sc = tp.strict_scenario()
        p = tp.plan(sc)
        with pytest.raises(tp.InfeasibleError, match="plan is infeasible"):
            simulate_system(p, sc, SimConfig(n_jobs=10_000, warmup=100))

    def test_override_length_checked(self):
        sc = tp.reference_scenario()
        p = tp.plan(sc)
        with pytest.raises(ValueError):
            simulate_system(
                p, sc, SimConfig(n_jobs=10_000, warmup=100), overrides=[(1.0, 1e9)]
            )

    def test_empty_overrides_rejected(self):
        """An empty list is a wrong-length override, not "use the plan"."""
        sc = tp.single_user_scenario()
        p = tp.plan(sc)
        with pytest.raises(ValueError, match="one \\(beta, rate\\) pair per user"):
            simulate_system(p, sc, SimConfig(n_jobs=10_000, warmup=100), overrides=[])


class TestThreads:
    """Isolated users run on worker threads with the rows, the warnings and
    every bit of one serial pass."""

    @staticmethod
    def idle_then_overloaded():
        """An idle user 0, then the reference users from 23 jobs/s down to
        7; forced offloading overloads every private edge queue with
        lambda >= 10, so users 1-7."""
        sc = tp.reference_scenario()
        idle = UserProfile(arrival_rate=0.0, local_cpu_hz=5.0e8)
        sc = replace(sc, users=(idle,) + sc.users[:0:-1])
        p = tp.plan(sc)
        tiny = tp.apply_axis(sc, "f_m_cycles_per_s", 1.0e8)  # mu_m = 10 jobs/s
        return p, tiny, [(1.0, row.rate_bps) for row in p.users]

    @staticmethod
    def serial(p, sc, cfg, overrides):
        rows, warnings = [], []
        for row, (b, r) in zip(p.users, overrides):
            try:
                rep = simulate_user(sc.users[row.user_id], sc.task, sc.edge, b, r, sc.qos,
                                    cfg, user_id=row.user_id)
            except StabilityError as exc:
                warnings.append(str(exc))
                rep = tp.SimUserReport(row.user_id, b, r, analytic=0.0, empirical=math.nan,
                                       ci_radius=math.nan, n_effective=0)
            if rep.no_arrivals:
                warnings.append(f"user {rep.user_id}: no arrivals (lambda = 0); not simulated")
            rows.append(rep)
        return tp.SimReport(ISOLATED, cfg.seed, cfg.n_jobs, tuple(rows), tuple(warnings))

    @pytest.mark.parametrize("cpus", [None, 1, 2])
    def test_equals_one_serial_pass(self, monkeypatch, cpus):
        p, sc, overrides = self.idle_then_overloaded()
        cfg = SimConfig(n_jobs=40_000, warmup=400, seed=7)
        expect = self.serial(p, sc, cfg, overrides)
        assert expect.warnings[0] == "user 0: no arrivals (lambda = 0); not simulated"
        assert "user 1: edge queue unstable" in expect.warnings[1]
        if cpus is not None:
            monkeypatch.setattr(tp.simulator, "_cpus", lambda: cpus)
        got = simulate_system(p, sc, cfg, overrides=overrides)
        assert got == expect
        assert got.users[9].n_effective == 39_600  # stable users did run

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_analytics_on_the_calling_thread(self, monkeypatch, cpus):
        """system_reliability runs on the caller's thread, once per user;
        the draws run in workers only when there is more than one CPU."""
        seen = {"analytic": [], "draws": []}
        real_reliability = tp.simulator.system_reliability
        real_group = tp.simulator._simulate_group

        def reliability(*args):
            seen["analytic"].append(threading.current_thread())
            return real_reliability(*args)

        def group(*args):
            seen["draws"].append(threading.current_thread())
            return real_group(*args)

        monkeypatch.setattr(tp.simulator, "system_reliability", reliability)
        monkeypatch.setattr(tp.simulator, "_simulate_group", group)
        monkeypatch.setattr(tp.simulator, "_cpus", lambda: cpus)
        sc = tp.reference_scenario()
        simulate_system(tp.plan(sc), sc, SimConfig(n_jobs=10_000, warmup=100, seed=1))
        main = threading.main_thread()
        assert seen["analytic"] == [main] * 10
        assert len(seen["draws"]) == 10
        assert all((t is main) == (cpus == 1) for t in seen["draws"])

    def test_worker_error_cancels_the_rest(self, monkeypatch):
        """User 0 raises; the users in flight beside it are held until the
        pool is shut down and are told to stop, and no user queued behind
        them starts."""
        started, stopped = [], []
        released = threading.Event()
        real_shutdown = ThreadPoolExecutor.shutdown

        def shutdown(pool, wait=True, *, cancel_futures=False):
            real_shutdown(pool, wait=False, cancel_futures=cancel_futures)
            released.set()
            real_shutdown(pool, wait=wait, cancel_futures=cancel_futures)

        def group(sources, qos, cfg, stop):
            started.append(sources[0].user_id)
            if sources[0].user_id == 0:
                raise RuntimeError("boom")
            assert released.wait(30.0)
            stopped.append(stop.is_set())
            return [None]

        monkeypatch.setattr(ThreadPoolExecutor, "shutdown", shutdown)
        monkeypatch.setattr(tp.simulator, "_simulate_group", group)
        monkeypatch.setattr(tp.simulator, "_cpus", lambda: 2)
        sc = tp.reference_scenario()
        with pytest.raises(RuntimeError, match="boom"):
            simulate_system(tp.plan(sc), sc, SimConfig(n_jobs=10_000, warmup=100))
        # user 0's worker may take one more user before the pool shuts down
        assert {0, 1} <= set(started) <= {0, 1, 2}
        assert stopped and all(stopped)

    def test_stopped_run_draws_nothing(self):
        stop = threading.Event()
        stop.set()
        cfg = SimConfig(n_jobs=10_000, warmup=100)
        user = UserProfile(arrival_rate=20.0, local_cpu_hz=1.0e9)
        src = _Source(0, user, TASK, EdgeProfile(cpu_hz=1.0e9), 0.5, 2.0e9, 0.1, cfg)
        qos = QosTarget(delay_s=0.1, min_reliability=0.9)
        assert _simulate_group([src], qos, cfg, stop) == []
        assert src.left == cfg.n_jobs


class TestProducer:
    """A shared edge of more than one user draws on a producer thread, one
    chunk ahead of the edge queue, with every bit of drawing in place; the
    producer never outlives the run."""

    CFG = SimConfig(n_jobs=40_000, warmup=400, seed=9, mode=SHARED_EDGE)

    @staticmethod
    def uneven():
        """An idle user, then shares 0.5, 0, 1 and 0.5 at 4, 2, 40 and 0.2
        jobs/s: one chunk of the slowest user spans 200 of the fastest's,
        and the user at share 0 offloads nothing."""
        sc = tp.reference_scenario()
        rates = (0.0, 4.0, 2.0, 40.0, 0.2)
        sc = replace(sc, users=tuple(UserProfile(arrival_rate=lam, local_cpu_hz=1.0e9)
                                     for lam in rates))
        p = tp.plan(sc)
        overrides = [(b, 2.0e9) for b in (0.5, 0.5, 0.0, 1.0, 0.5)]
        return p, sc, overrides

    @staticmethod
    def record_draws(monkeypatch):
        """Patch _Source.draw to log (thread, user id) per draw."""
        log = []
        real = _Source.draw

        def draw(src):
            log.append((threading.current_thread(), src.user_id))
            return real(src)

        monkeypatch.setattr(_Source, "draw", draw)
        return log

    @pytest.mark.parametrize("chunk", [1000, 4096])
    def test_threads_change_no_bit(self, monkeypatch, chunk):
        p, sc, overrides = self.uneven()
        monkeypatch.setattr(tp.simulator, "_CHUNK", chunk)
        log = self.record_draws(monkeypatch)
        reports = []
        for cpus in (1, 2):
            monkeypatch.setattr(tp.simulator, "_cpus", lambda cpus=cpus: cpus)
            reports.append(simulate_system(p, sc, self.CFG, overrides=overrides))
        assert reports[0] == reports[1]
        assert [row.no_arrivals for row in reports[0].users] == [True] + [False] * 4
        # the same draws, in place and then on one producer thread
        main = threading.main_thread()
        half = len(log) // 2
        assert [u for _, u in log[:half]] == [u for _, u in log[half:]]
        assert {t for t, _ in log[:half]} == {main}
        assert len({t for t, _ in log[half:]}) == 1 and log[-1][0] is not main

    def test_stopped_run_draws_nothing(self, monkeypatch):
        monkeypatch.setattr(tp.simulator, "_cpus", lambda: 2)
        stop = threading.Event()
        stop.set()
        cfg = SimConfig(n_jobs=10_000, warmup=100)
        user = UserProfile(arrival_rate=20.0, local_cpu_hz=1.0e9)
        group = [_Source(k, user, TASK, EdgeProfile(cpu_hz=1.0e9), 0.5, 2.0e9, 0.1, cfg)
                 for k in range(2)]
        qos = QosTarget(delay_s=0.1, min_reliability=0.9)
        before = threading.enumerate()
        assert _simulate_group(group, qos, cfg, stop) == []
        assert threading.enumerate() == before
        assert all(src.left == cfg.n_jobs for src in group)

    def test_producer_error_is_raised_here(self, monkeypatch):
        """One user's draw raises on its third chunk, on the producer."""
        p, sc, overrides = self.uneven()
        real = _Source.draw
        chunks = []

        def draw(src):
            if src.user_id == 3:
                chunks.append(threading.current_thread())
                if len(chunks) == 3:
                    raise RuntimeError("third chunk")
            return real(src)

        monkeypatch.setattr(_Source, "draw", draw)
        monkeypatch.setattr(tp.simulator, "_CHUNK", 1000)
        monkeypatch.setattr(tp.simulator, "_cpus", lambda: 2)
        before = threading.enumerate()
        with pytest.raises(RuntimeError, match="third chunk"):
            simulate_system(p, sc, self.CFG, overrides=overrides)
        assert threading.enumerate() == before
        assert threading.main_thread() not in chunks

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_caller_error_ends_the_producer(self, monkeypatch, error):
        """The edge side raises while the producer waits on a full box:
        the producer draws no chunk after that, and is joined."""
        p, sc, overrides = self.uneven()
        log = self.record_draws(monkeypatch)
        real = tp.simulator._merge
        merges = []

        def merge(pending, bound):
            merges.append(threading.current_thread())
            if len(merges) == 3:
                # wait until the producer has one chunk in the box and has
                # begun the next, which it cannot put
                deadline = time.monotonic() + 30.0
                while len(log) < 5 and time.monotonic() < deadline:
                    time.sleep(0.001)
                raise error("edge")
            return real(pending, bound)

        monkeypatch.setattr(tp.simulator, "_merge", merge)
        monkeypatch.setattr(tp.simulator, "_CHUNK", 1000)
        monkeypatch.setattr(tp.simulator, "_cpus", lambda: 2)
        before = threading.enumerate()
        with pytest.raises(error, match="edge"):
            simulate_system(p, sc, self.CFG, overrides=overrides)
        assert threading.enumerate() == before
        assert set(merges) == {threading.main_thread()}
        assert len(log) == 5  # of 160 in the whole run


class TestChunking:
    """The chunk size changes no output bit."""

    # every chunk costs about 0.1 ms of numpy calls whatever its size, so
    # the small chunks run fewer jobs; each run is compared with one pass
    # of the default chunk over the same jobs
    @pytest.mark.parametrize("chunk, n_jobs", [(1, 1_000), (7, 2_000), (4096, 20_000)])
    @pytest.mark.parametrize("mode", [ISOLATED, SHARED_EDGE])
    @pytest.mark.parametrize("beta_one", [False, True], ids=["plan", "beta_one"])
    def test_reports_equal_across_chunk_sizes(self, monkeypatch, chunk, n_jobs, mode, beta_one):
        sc = load_scenario(REFERENCE)
        p = tp.plan(sc)
        overrides = [(1.0, row.rate_bps) for row in p.users] if beta_one else None
        cfg = SimConfig(n_jobs=n_jobs, warmup=n_jobs // 10, seed=5, mode=mode)
        expect = simulate_system(p, sc, cfg, overrides=overrides)
        monkeypatch.setattr(tp.simulator, "_CHUNK", chunk)
        assert simulate_system(p, sc, cfg, overrides=overrides) == expect


class TestMemory:
    @pytest.mark.parametrize("skewed", [False, True], ids=["reference", "rates_1000x"])
    def test_shared_edge_peak_does_not_grow_with_jobs(self, skewed):
        """numpy reports its buffers to tracemalloc, so the traced peak
        covers every array the run holds.  The first shared-edge run in a
        process also allocates what later runs reuse, which would inflate
        the baseline, so an untraced run goes first."""
        sc = load_scenario(REFERENCE)
        overrides = None
        if skewed:
            # 0.5 and 500 jobs/s: a slow user's chunk spans a thousand of a
            # fast user's, and its offloaded jobs wait for the fast users
            users = tuple(
                UserProfile(arrival_rate=0.5 if k % 2 else 500.0, local_cpu_hz=1.0e11)
                for k in range(10)
            )
            sc = replace(sc, users=users, edge=EdgeProfile(cpu_hz=1.0e14))
            overrides = [(0.5, 1.0e11)] * 10
        p = tp.plan(sc)
        warm = SimConfig(n_jobs=50_000, warmup=1_000, seed=1, mode=SHARED_EDGE)
        simulate_system(p, sc, warm, overrides=overrides)
        peaks = []
        for n_jobs in (50_000, 400_000):
            cfg = SimConfig(n_jobs=n_jobs, warmup=1_000, seed=1, mode=SHARED_EDGE)
            tracemalloc.start()
            try:
                simulate_system(p, sc, cfg, overrides=overrides)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0], peaks


class TestAgreementProperty:
    def test_random_light_load_cases(self):
        """Analytic reliability within the binomial radius across a spread
        of lightly loaded tandem configurations (master seed pinned)."""
        rng = np.random.default_rng(61)
        cfg = SimConfig(n_jobs=200_000, warmup=2_000, seed=61)
        for _ in range(6):
            lam = float(rng.uniform(5.0, 15.0))
            mu_l = lam * float(rng.uniform(3.0, 6.0))
            mu_m = lam * float(rng.uniform(4.0, 8.0))
            tx = lam * float(rng.uniform(5.0, 9.0))
            beta = float(rng.uniform(0.2, 0.8))
            eps = float(rng.uniform(0.05, 0.2))
            user = UserProfile(arrival_rate=lam, local_cpu_hz=mu_l * 1.0e7)
            edge = EdgeProfile(cpu_hz=mu_m * 1.0e7)
            qos = QosTarget(delay_s=eps, min_reliability=0.9)
            rep = simulate_user(user, TASK, edge, beta, tx * TASK.mean_job_bits, qos, cfg)
            assert rep.within_ci, (lam, mu_l, mu_m, tx, beta, eps, rep.delta, rep.ci_radius)
