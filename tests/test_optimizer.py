"""Planner: per-user share minimization, carrier matching, plan assembly.

The share minimizer is checked against the dense lattice scan it replaced
(dense_scan.py: the same verdict, the same bytes at full offload, and
elsewhere a share no worse),
against a finer grid scan of the same objective, and against a 60-digit
mpmath root of the outage's share derivative; carrier matching and the exact assignment solver behind
brute_force_assignment against explicit enumeration of all injective
assignments (kept here as a test-local reference) and against scipy.
"""

import dataclasses
import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.optimize import minimize_scalar as scipy_minimize_scalar

import thzplanner as tp
from dense_scan import assert_share_search_gate, share_search_outcome
from exact_outage import outage_slope_root
from thzplanner import optimizer
from thzplanner import (
    FEASIBLE,
    INFEASIBLE,
    UNCONSTRAINED,
    EdgeProfile,
    FrequencyGrid,
    GaussianFit,
    InfeasibleError,
    QosTarget,
    Scenario,
    TaskProfile,
    UserProfile,
    apply_axis,
    assign_frequencies,
    brute_force_assignment,
    ceiling_margin,
    minimize_rate_threshold,
    plan,
    rate_threshold,
    rate_threshold_oracle,
)

REF = tp.reference_scenario()
RADIO = tp.reference_radio()
TASK = tp.reference_task()


def distances(thresholds, grid):
    """K x M matrix of achievable distances, users by carriers."""
    return [
        [tp.achievable_distance(tp.DEFAULT_ATTENUATION_FIT, RADIO, f, r)
         for f in grid.freqs_ghz]
        for r in thresholds
    ]


def enumerate_assignment(thresholds, grid):
    """(best total, worst total) over every injective user->carrier map."""
    dist = distances(thresholds, grid)
    totals = [
        sum(dist[i][j] for i, j in enumerate(perm))
        for perm in itertools.permutations(range(len(grid)), len(thresholds))
    ]
    return max(totals), min(totals)


def random_instance(rng, k, m, lo_ghz, hi_ghz):
    freqs = FrequencyGrid(tuple(sorted(rng.uniform(lo_ghz, hi_ghz, m).tolist())))
    thresholds = tuple((10.0 ** rng.uniform(7.5, 10.0, k)).tolist())
    return thresholds, freqs


def sorted_total(thresholds, grid):
    return sum(
        tp.achievable_distance(tp.DEFAULT_ATTENUATION_FIT, RADIO, f, r)
        for f, r in zip(assign_frequencies(thresholds, grid), thresholds)
    )


def water_line_scenario():
    """reference_k10 with a 183.3 GHz water line (ITU-R P.676) in place of
    the 447.7 GHz term and carriers added at 183 and 186 GHz: distance
    loses increasing differences there, so sorted matching is not optimal."""
    terms = tp.DEFAULT_ATTENUATION_FIT.terms[:-1] + ((2000.0, 183.3, 3.0),)
    grid = FrequencyGrid(tuple(sorted(REF.grid.freqs_ghz + (183.0, 186.0))))
    return dataclasses.replace(REF, fit=GaussianFit(terms), grid=grid)


def optimal_total(scenario, p):
    """scipy's maximum total distance for the plan's rate-constrained users."""
    rates = [row.rate_bps for row in p.users if row.status == FEASIBLE]
    dist = np.array([
        [tp.achievable_distance(scenario.fit, scenario.radio, f, r)
         for f in scenario.grid.freqs_ghz]
        for r in rates
    ])
    rows, cols = linear_sum_assignment(dist, maximize=True)
    return dist[rows, cols].sum()


def grid_scan(scenario, k, betas):
    """Best (beta, rate) over an explicit beta grid, infs skipped."""
    user = scenario.users[k]
    best = (math.nan, math.inf)
    for b in betas:
        try:
            r = rate_threshold(user, scenario.task, scenario.edge, scenario.qos, b)
        except (tp.StabilityError, InfeasibleError):
            continue
        if r < best[1]:
            best = (b, r)
    return best


def generated_users(seed, count):
    """Single-user scenarios drawn from the ranges of the benchmark's plan
    and verify scenarios (bench/gen.py), alternately."""
    rng = random.Random(seed)
    for j in range(count):
        plan_kind = j % 2 == 0
        miss_hi, f_l, f_m = (
            (3e-2, (2e8, 2e9), (2e9, 3e10)) if plan_kind else (1e-4, (2e8, 8e8), (1e10, 3e10))
        )
        miss = math.exp(rng.uniform(math.log(1e-7), math.log(miss_hi)))
        user = UserProfile(arrival_rate=rng.uniform(2.0, 25.0), local_cpu_hz=rng.uniform(*f_l))
        yield dataclasses.replace(
            REF,
            users=(user,),
            edge=EdgeProfile(cpu_hz=rng.uniform(*f_m)),
            qos=QosTarget(delay_s=rng.uniform(0.02, 0.1), min_reliability=1.0 - miss),
        )


def outcome_kind(outcome):
    if outcome == "infeasible":
        return outcome
    beta, rate = outcome
    return "unconstrained" if rate == 0.0 else "full offload" if beta == 1.0 else "interior"


def narrow_window_scenario():
    """lambda = 40, mu_l = 30, mu_m = 60 jobs/s, eps = 80 ms, and theta 1e-8
    below the peak over beta of the reliability ceiling
    (1 - beta) Phi_l + beta (1 - e^(-(mu_m - beta lambda) eps)): the shares
    that meet theta form a window narrower than one lattice cell."""
    task = TaskProfile(mean_job_bits=1.0e4, mean_job_cycles=1.0e7)
    lam, mu_l, mu_m, eps = 40.0, 30.0, 60.0, 0.08

    def ceiling(b):
        phi_l = -math.expm1(-(mu_l - (1.0 - b) * lam) * eps)
        return (1.0 - b) * phi_l - b * math.expm1(-(mu_m - b * lam) * eps)

    peak = scipy_minimize_scalar(
        lambda b: -ceiling(b), bounds=(0.25, 1.0), method="bounded", options={"xatol": 1e-12}
    )
    return dataclasses.replace(
        REF,
        task=task,
        users=(UserProfile(arrival_rate=lam, local_cpu_hz=mu_l * task.mean_job_cycles),),
        edge=EdgeProfile(cpu_hz=mu_m * task.mean_job_cycles),
        qos=QosTarget(delay_s=eps, min_reliability=-peak.fun - 1e-8),
    )


class TestMinimizeRateThreshold:
    def test_matches_lattice_scan_on_generated_users(self):
        kinds = Counter()
        for scenario in generated_users(seed=14, count=2000):
            kinds[outcome_kind(assert_share_search_gate(scenario, 0))] += 1
        assert set(kinds) == {"infeasible", "unconstrained", "full offload", "interior"}, kinds

    def test_narrow_feasible_window(self):
        sc = narrow_window_scenario()
        user, qos = sc.users[0], sc.qos
        # no lattice share clears the ceiling, so the scan found none
        assert share_search_outcome(sc, 0, dense=True) == "infeasible"
        beta, rate = minimize_rate_threshold(sc, 0)
        assert 0.76786 < beta < 0.76803
        assert rate == pytest.approx(
            rate_threshold_oracle(user, sc.task, sc.edge, qos, beta), rel=1e-6
        )
        window = np.linspace(0.76786, 0.76803, 1701)
        assert rate <= min(
            rate_threshold(user, sc.task, sc.edge, qos, b)
            for b in window
            if ceiling_margin(user, sc.task, sc.edge, qos, b) > 0.0
        ) * (1.0 + 1e-9)
        assert plan(sc).users[0].status == FEASIBLE

    @pytest.mark.parametrize("cut", [1e-5, 1e-4, 1e-3])
    def test_infinite_rates_near_the_run_ends(self, monkeypatch, cut):
        """rate_threshold can return inf without raising, where the rate
        (mu_m + (w + s) / eps) * L_a overflows.  Few scenarios get there
        (test_cli's L_a of 1e306 bits does), so the region is planted where
        the margin is tiny against the ceiling: every margin below `cut`
        gives inf."""
        genuine = tp.reliability._genuine_root_rate

        def planted(mu_m, offered, diff, eps, bits):
            if diff < cut:
                kinds["planted"] += 1
                return math.inf
            return genuine(mu_m, offered, diff, eps, bits)

        monkeypatch.setattr(tp.reliability, "_genuine_root_rate", planted)
        kinds = Counter()
        cases = [(REF, k) for k in range(len(REF.users))]
        cases += [(sc, 0) for sc in generated_users(seed=15, count=100)]
        for scenario, k in cases:
            kinds[outcome_kind(assert_share_search_gate(scenario, k))] += 1
        assert kinds["planted"] and kinds["full offload"] and kinds["interior"]

    def test_reference_plan_rarely_calls_the_closed_form(self, monkeypatch):
        """The exact closed-form count of the share search on reference_k10,
        none raising.  The dense scan made 10,506 calls (8,370 raised), the
        bracketed lattice search with golden section 326 (1 raised), the
        lattice search with the slope's root 71, and this root search on the
        reliability-domain margin 61.  Users 7, 8 and 9 make 23, 22 and 14."""
        counts = Counter()

        def counting(*args):
            counts["calls"] += 1
            try:
                return rate_threshold(*args)
            except ValueError:
                counts["raised"] += 1
                raise

        monkeypatch.setattr(optimizer, "rate_threshold", counting)
        for k in range(len(REF.users)):
            minimize_rate_threshold(REF, k)
        assert counts == Counter(calls=66)

    def test_no_probe_raises_on_generated_users(self, monkeypatch):
        """The share search calls the closed form only where the margin
        says it has a root: never past the feasible run's ends."""
        counts = Counter()

        def counting(*args):
            counts["calls"] += 1
            try:
                return rate_threshold(*args)
            except ValueError:
                counts["raised"] += 1
                raise

        monkeypatch.setattr(optimizer, "rate_threshold", counting)
        kinds = Counter(
            outcome_kind(share_search_outcome(sc, 0))
            for sc in generated_users(seed=16, count=1000)
        )
        assert counts["calls"] > 0 and counts["raised"] == 0
        assert kinds["infeasible"] and kinds["interior"] and kinds["full offload"], kinds

    def test_interior_shares_sit_on_the_slope_root(self):
        """Each interior share lies within 1e-9 of the 60-digit share where
        dM/dbeta, taken along R*(beta), vanishes."""
        interior = (
            sc for sc in generated_users(seed=17, count=1000)
            if outcome_kind(share_search_outcome(sc, 0)) == "interior"
        )
        cases = [(REF, k) for k in (7, 8, 9)] + [(sc, 0) for sc in itertools.islice(interior, 30)]
        assert len(cases) == 33
        for sc, k in cases:
            beta, rate = minimize_rate_threshold(sc, k)
            root = outage_slope_root(sc.users[k], sc.task, sc.edge, sc.qos, beta, rate)
            assert abs(beta - float(root)) <= 1e-9, (sc, k)

    def test_matches_dense_grid_scan(self):
        # user 8 has an interior optimum; 20001-point scan brackets it
        betas = np.linspace(1e-6, 1.0, 20001)
        b_grid, r_grid = grid_scan(REF, 8, betas)
        b_star, r_star = minimize_rate_threshold(REF, 8)
        assert r_star <= r_grid * (1.0 + 1e-9)
        assert abs(b_star - b_grid) <= 2.0 * (betas[1] - betas[0])

    def test_local_optimality(self):
        b_star, r_star = minimize_rate_threshold(REF, 9)
        assert 0.0 < b_star < 1.0
        for db in (-3e-5, 3e-5):
            r = rate_threshold(
                REF.users[9], REF.task, REF.edge, REF.qos, b_star + db
            )
            assert r >= r_star - 1e-6 * r_star

    def test_weak_local_cpu_forces_full_offload(self):
        # users 0..6 cannot make the target locally at any share below 1
        for k in range(7):
            b_star, r_star = minimize_rate_threshold(REF, k)
            assert b_star == pytest.approx(1.0, abs=1e-6)
            assert r_star > 0.0

    def test_no_local_capacity_at_all(self):
        sc = dataclasses.replace(
            REF, users=(UserProfile(arrival_rate=10.0, local_cpu_hz=1.0e7),)
        )
        b_star, _ = minimize_rate_threshold(sc, 0)
        assert b_star == 1.0  # mu_l = 1 < lambda: nothing can stay local

    def test_unconstrained_user_needs_no_link(self):
        sc = dataclasses.replace(
            REF,
            qos=QosTarget(delay_s=0.08, min_reliability=0.9),
            users=(UserProfile(arrival_rate=5.0, local_cpu_hz=2.0e9),),
        )
        assert minimize_rate_threshold(sc, 0) == (0.0, 0.0)

    def test_local_outage_just_above_the_budget_needs_a_link(self):
        """1 - theta = 1e-15 and a local outage 3% above it.  Phi_l then
        rounds to a double next to 1, and a reliability-domain test took
        Phi_l >= theta and planned no link; the margin says otherwise."""
        task = TaskProfile(mean_job_bits=1.0e6, mean_job_cycles=1.0e7)
        lam, eps, theta = 10.0, 0.1, 1.0 - 1e-15
        mu_l = lam - math.log(1.03 * (1.0 - theta)) / eps
        sc = dataclasses.replace(
            REF,
            task=task,
            edge=EdgeProfile(cpu_hz=1.0e11),
            qos=QosTarget(delay_s=eps, min_reliability=theta),
            users=(UserProfile(arrival_rate=lam, local_cpu_hz=mu_l * task.mean_job_cycles),),
        )
        user = sc.users[0]
        assert ceiling_margin(user, task, sc.edge, sc.qos, 1e-6) < 0.0
        beta, rate = minimize_rate_threshold(sc, 0)
        assert 0.0 < beta < 1.0 and rate > 0.0
        assert ceiling_margin(user, task, sc.edge, sc.qos, beta) > 0.0
        assert rate == pytest.approx(
            rate_threshold_oracle(user, task, sc.edge, sc.qos, beta), rel=1e-9
        )
        assert plan(sc).users[0].status == FEASIBLE

    def test_infeasible_everywhere(self):
        sc = tp.strict_scenario()
        with pytest.raises(InfeasibleError):
            minimize_rate_threshold(sc, 0)


class TestAssignFrequencies:
    GRID = FrequencyGrid((110.0, 130.0, 150.0, 170.0))

    def test_sorted_matching(self):
        freqs = assign_frequencies((3e9, 1e9, 2e9), self.GRID)
        # smallest requirement gets the lowest carrier
        assert freqs == (150.0, 110.0, 130.0)

    def test_ties_break_by_user_index(self):
        freqs = assign_frequencies((1e9, 1e9, 1e9), self.GRID)
        assert freqs == (110.0, 130.0, 150.0)

    def test_grid_too_small(self):
        with pytest.raises(ValueError):
            assign_frequencies((1e9,) * 5, self.GRID)

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(3511)
        for _ in range(25):
            k = int(rng.integers(2, 7))
            m = k + int(rng.integers(0, 3))
            freqs = FrequencyGrid(
                tuple(sorted(rng.uniform(100.0, 215.0, m).tolist()))
            )
            thresholds = tuple((10.0 ** rng.uniform(7.5, 10.0, k)).tolist())
            bf = brute_force_assignment(thresholds, freqs, RADIO)
            assigned = assign_frequencies(thresholds, freqs)
            total = sum(
                tp.achievable_distance(tp.DEFAULT_ATTENUATION_FIT, RADIO, f, r)
                for f, r in zip(assigned, thresholds)
            )
            assert total == pytest.approx(bf.best_total_m, rel=1e-12)
            assert bf.worst_total_m <= bf.best_total_m

    def test_reversed_order_is_pessimal(self):
        thresholds = (1e8, 5e8, 2e9)
        grid = FrequencyGrid((120.0, 150.0, 180.0))
        bf = brute_force_assignment(thresholds, grid, RADIO)
        # reversed pairing: largest requirement on the lowest carrier
        worst = sum(
            tp.achievable_distance(tp.DEFAULT_ATTENUATION_FIT, RADIO, f, r)
            for f, r in zip((180.0, 150.0, 120.0), sorted(thresholds))
        )
        assert worst == pytest.approx(bf.worst_total_m, rel=1e-12)

    @pytest.mark.parametrize("lo_ghz, hi_ghz", [(100.0, 215.0), (400.0, 600.0)])
    def test_solver_matches_enumeration(self, lo_ghz, hi_ghz):
        rng = np.random.default_rng(2718)
        beaten = 0
        for _ in range(20):
            k = int(rng.integers(1, 8))
            # M <= K + 3, capped at 9 carriers to keep enumeration under 2e5 maps
            m = min(k + int(rng.integers(0, 4)), 9)
            thresholds, grid = random_instance(rng, k, m, lo_ghz, hi_ghz)
            bf = brute_force_assignment(thresholds, grid, RADIO)
            best, worst = enumerate_assignment(thresholds, grid)
            assert bf.best_total_m == pytest.approx(best, rel=1e-12)
            assert bf.worst_total_m == pytest.approx(worst, rel=1e-12)
            dist = distances(thresholds, grid)
            picked = [grid.freqs_ghz.index(f) for f in bf.assignment]
            assert len(set(picked)) == k
            assert sum(dist[i][j] for i, j in enumerate(picked)) == bf.best_total_m
            beaten += sorted_total(thresholds, grid) < best * (1.0 - 1e-9)
        # on 400-600 GHz the default fit's mixed differences change sign, so
        # sorted matching loses coverage: a solver that returned the sorted
        # order would fail the totals above
        assert (beaten > 0) == (lo_ghz > 215.0)

    @pytest.mark.parametrize("lo_ghz, hi_ghz", [(100.0, 215.0), (400.0, 600.0)])
    def test_solver_matches_scipy(self, lo_ghz, hi_ghz):
        rng = np.random.default_rng(1955)
        for k in (1, 2, 5, 10, 17, 25, 40):
            m = k + int(rng.integers(0, 6))
            thresholds, grid = random_instance(rng, k, m, lo_ghz, hi_ghz)
            bf = brute_force_assignment(thresholds, grid, RADIO)
            dist = np.array(distances(thresholds, grid))
            rows, cols = linear_sum_assignment(dist, maximize=True)
            assert bf.best_total_m == pytest.approx(dist[rows, cols].sum(), rel=1e-12)
            rows, cols = linear_sum_assignment(dist)
            assert bf.worst_total_m == pytest.approx(dist[rows, cols].sum(), rel=1e-12)

    def test_ten_users_on_the_full_grid(self):
        # beyond the reach of enumeration; sorted matching is optimal here
        grid = FrequencyGrid(tuple(100.0 + 5.0 * i for i in range(12)))
        thresholds = tuple(np.geomspace(1e8, 3e9, 10).tolist()[::-1])
        bf = brute_force_assignment(thresholds, grid, RADIO)
        assert bf.assignment == assign_frequencies(thresholds, grid)
        assert bf.best_total_m == pytest.approx(sorted_total(thresholds, grid), rel=1e-12)
        assert bf.worst_total_m < bf.best_total_m

    def test_no_users_or_too_few_carriers_rejected(self):
        grid = FrequencyGrid((110.0, 130.0))
        for thresholds in ((), (1e9,) * 3):
            with pytest.raises(ValueError):
                brute_force_assignment(thresholds, grid, RADIO)


class TestPlan:
    def test_reference_plan_shape(self):
        p = plan(REF)
        assert len(p.users) == 10
        assert p.edge_stable
        assert not p.forced_full_offload
        assert p.warnings == ()
        assert all(row.status == FEASIBLE for row in p.users)
        assert p.total_distance_m == pytest.approx(
            sum(row.distance_m for row in p.users), rel=1e-12
        )
        # each feasible user occupies a distinct carrier from the grid
        used = [row.freq_ghz for row in p.users]
        assert len(set(used)) == len(used)
        assert set(used) <= set(REF.grid.freqs_ghz)

    def test_plan_is_deterministic(self):
        assert plan(REF) == plan(REF)

    def test_kept_solve_is_left_out_of_eq_repr_and_hash(self):
        p = plan(REF)
        cost, cols, u, v = p.assignment
        feasible = [row for row in p.users if row.status == FEASIBLE]
        assert len(cost) == len(cols) == len(u) == len(feasible)
        assert len(v) == len(REF.grid)
        # rows by ascending rate, each holding its user's carrier
        by_rate = sorted(feasible, key=lambda row: (row.rate_bps, row.user_id))
        assert [REF.grid.freqs_ghz[j] for j in cols] == [row.freq_ghz for row in by_rate]
        assert [-cost[i][j] for i, j in enumerate(cols)] == [row.distance_m for row in by_rate]
        bare = dataclasses.replace(p, assignment=None)
        assert p == bare and hash(p) == hash(bare) and repr(p) == repr(bare)
        assert "assignment" not in repr(p)

    def test_no_solve_is_kept_without_a_constrained_user(self):
        sc = dataclasses.replace(REF, users=REF.users[:1])
        sc = tp.apply_axis(sc, "theta_th", 0.5)  # met locally: no link needed
        p = plan(sc)
        assert [row.status for row in p.users] == ["unconstrained"]
        assert p.assignment is None

    def test_forced_full_offload_never_wins(self):
        p_opt = plan(REF)
        p_forced = plan(REF, force_offload_all=True)
        assert p_forced.forced_full_offload
        assert all(row.beta == 1.0 for row in p_forced.users)
        assert p_opt.total_distance_m >= p_forced.total_distance_m

    def test_matched_carriers_follow_threshold_order(self):
        p = plan(REF)
        rows = [r for r in p.users if r.status == FEASIBLE and r.rate_bps > 0.0]
        by_rate = sorted(rows, key=lambda r: r.rate_bps)
        freqs = [r.freq_ghz for r in by_rate]
        assert freqs == sorted(freqs)

    def test_infeasible_scenario(self):
        p = plan(tp.strict_scenario())
        assert all(row.status == INFEASIBLE for row in p.users)
        assert p.total_distance_m == 0.0
        assert all(math.isnan(row.freq_ghz) for row in p.users)
        assert all(row.distance_m == 0.0 for row in p.users)
        assert p.warnings  # at least one note about dropped users

    def test_unconstrained_user_gets_leftover_carrier(self):
        users = REF.users[:3] + (UserProfile(arrival_rate=2.0, local_cpu_hz=5.0e9),)
        sc = dataclasses.replace(REF, users=users)
        p = plan(sc)
        free = p.users[3]
        assert free.status == UNCONSTRAINED
        assert free.beta == 0.0 and free.rate_bps == 0.0
        constrained_freqs = {r.freq_ghz for r in p.users[:3]}
        assert free.freq_ghz not in constrained_freqs
        # constrained users keep the lowest carriers, free riders the rest
        assert free.freq_ghz > max(constrained_freqs)
        # no rate requirement means no distance limit: the configured cap
        # is reported, which is infinite here
        assert free.distance_m == sc.max_distance_m == math.inf
        capped = plan(dataclasses.replace(sc, max_distance_m=750.0))
        assert capped.users[3].distance_m == 750.0
        assert math.isfinite(capped.total_distance_m)

    def test_distance_cap_applies(self):
        sc = dataclasses.replace(REF, max_distance_m=100.0)
        p = plan(sc)
        assert all(row.distance_m <= 100.0 for row in p.users)
        assert p.total_distance_m <= 1000.0

    @pytest.mark.parametrize(
        "freqs",
        [
            tuple(400.0 + 18.0 * i for i in range(12)),
            REF.grid.freqs_ghz[:-1] + (250.0,),
        ],
        ids=["400-600GHz", "spans-215GHz"],
    )
    def test_default_fit_grid_is_planned_exactly(self, freqs):
        sc = dataclasses.replace(REF, grid=FrequencyGrid(freqs))
        p = plan(sc)
        assert all(row.status == FEASIBLE for row in p.users)
        assert p.total_distance_m == pytest.approx(optimal_total(sc, p), rel=1e-12)
        assert p.warnings == ()

    def test_water_line_fit_is_planned_exactly(self):
        sc = water_line_scenario()
        p = plan(sc)
        assert p.warnings == ()
        assert p.total_distance_m == pytest.approx(optimal_total(sc, p), rel=1e-12)
        assert p.total_distance_m == pytest.approx(511.579187728, rel=1e-11)
        # sorted matching on the lowest carriers gives up about 6% here
        rates = [row.rate_bps for row in p.users]
        lowest = FrequencyGrid(sc.grid.freqs_ghz[: len(rates)])
        sorted_sum = sum(
            tp.achievable_distance(sc.fit, RADIO, f, r)
            for f, r in zip(assign_frequencies(rates, lowest), rates)
        )
        assert sorted_sum < 0.95 * p.total_distance_m

    def test_equal_rates_take_ascending_carriers_in_index_order(self):
        # on this grid the solver alone would hand the tied users carriers
        # out of index order
        grid = FrequencyGrid(tuple(400.0 + 20.0 * i for i in range(8)))
        sc = dataclasses.replace(REF, grid=grid, users=(REF.users[0],) * 5)
        p = plan(sc)
        assert len({row.rate_bps for row in p.users}) == 1
        assert [row.freq_ghz for row in p.users] == [400.0, 420.0, 440.0, 460.0, 480.0]

    def test_low_band_plan_is_sorted_matching(self):
        # at or below 215 GHz the default fit has increasing differences, so
        # the exact plan is the paper's sorted matching on the lowest carriers
        rng = np.random.default_rng(215)
        checked = 0
        for _ in range(15):
            k = int(rng.integers(1, 11))
            m = k + int(rng.integers(0, 4))
            freqs = rng.choice(np.arange(100.0, 215.5, 0.5), m, replace=False)
            users = tuple(
                UserProfile(arrival_rate=float(lam), local_cpu_hz=float(cpu))
                for lam, cpu in zip(rng.uniform(2.0, 25.0, k), rng.uniform(2e8, 2e9, k))
            )
            sc = dataclasses.replace(
                REF, grid=FrequencyGrid(tuple(sorted(freqs.tolist()))), users=users
            )
            p = plan(sc)
            rows = [row for row in p.users if row.status == FEASIBLE]
            if not rows:
                continue
            expected = assign_frequencies(
                [row.rate_bps for row in rows],
                FrequencyGrid(sc.grid.freqs_ghz[: len(rows)]),
            )
            assert tuple(row.freq_ghz for row in rows) == expected
            checked += len(rows) > 1
        assert checked >= 10

    def test_grid_shorter_than_user_list_rejected(self):
        with pytest.raises(ValueError):
            dataclasses.replace(REF, grid=FrequencyGrid((110.0, 120.0)))


class TestEdgeStability:
    def test_reference_is_stable(self):
        assert plan(REF).edge_stable

    @staticmethod
    def _forced_pair(arrival_rate):
        # two fully offloading users against the reference mu_m = 2000 jobs/s
        user = UserProfile(arrival_rate=arrival_rate, local_cpu_hz=1.0e9)
        return plan(dataclasses.replace(REF, users=(user, user)), force_offload_all=True)

    def test_boundary_is_not_stable(self):
        # offered load exactly mu_m must count as unstable (strict <)
        assert REF.edge.service_rate(REF.task) == 2000.0
        p = self._forced_pair(1000.0)
        assert all(row.status == FEASIBLE for row in p.users)
        assert not p.edge_stable
        assert any("capacity" in w for w in p.warnings)

    def test_just_below_boundary_is_stable(self):
        p = self._forced_pair(999.0)
        assert all(row.status == FEASIBLE for row in p.users)
        assert p.edge_stable


class TestApplyAxis:
    def test_each_axis_lands_in_the_right_field(self):
        assert apply_axis(REF, "f_m_cycles_per_s", 3e10).edge.cpu_hz == 3e10
        assert apply_axis(REF, "epsilon_s", 0.05).qos.delay_s == 0.05
        assert apply_axis(REF, "theta_th", 0.999).qos.min_reliability == 0.999
        swept = apply_axis(REF, "f_l_cycles_per_s", 9.9e8)
        assert all(u.local_cpu_hz == 9.9e8 for u in swept.users)
        assert all(
            a.arrival_rate == b.arrival_rate for a, b in zip(swept.users, REF.users)
        )

    def test_short_spellings(self):
        assert apply_axis(REF, "f_m", 3e10) == apply_axis(REF, "f_m_cycles_per_s", 3e10)
        assert apply_axis(REF, "epsilon", 0.05) == apply_axis(REF, "epsilon_s", 0.05)
        assert apply_axis(REF, "f_l", 8e8) == apply_axis(REF, "f_l_cycles_per_s", 8e8)

    def test_unknown_axis(self):
        with pytest.raises(ValueError):
            apply_axis(REF, "not_an_axis", 1.0)
        with pytest.raises(ValueError):
            apply_axis(REF, "p_w", 0.2)

    def test_original_untouched(self):
        apply_axis(REF, "epsilon_s", 0.5)
        assert REF.qos.delay_s == 0.08


class TestScenarioValidation:
    def test_needs_at_least_one_user(self):
        with pytest.raises(ValueError):
            dataclasses.replace(REF, users=())

    def test_cap_must_be_positive(self):
        with pytest.raises(ValueError):
            dataclasses.replace(REF, max_distance_m=0.0)
