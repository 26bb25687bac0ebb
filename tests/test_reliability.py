"""Queueing reliability closed forms and the inverse rate threshold.

edge_reliability is cross-checked against scipy adaptive quadrature of the
two-stage sojourn convolution; rate_threshold against plain bisection on
system_reliability (rate_threshold_oracle), which shares no code with the
Lambert W route; rate_slope against mpmath's derivative of the 60-digit
rate threshold, and the ceiling outage's and ceiling margin's slopes
against mpmath's derivatives of the 60-digit ceiling outage
(exact_outage.py).
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from thzplanner import (
    EdgeProfile,
    QosTarget,
    QueueRates,
    StabilityError,
    TaskProfile,
    UserProfile,
    ceiling_margin,
    ceiling_margin_slope,
    edge_reliability,
    local_reliability,
    queue_rates,
    rate_slope,
    rate_threshold,
    rate_threshold_oracle,
    system_reliability,
)
from thzplanner import reliability
from thzplanner.reliability import _ceiling_outage_slope
import exact_outage
from exact_outage import exact_rate_slope, outage

TASK = TaskProfile(mean_job_bits=8.0e6, mean_job_cycles=1.0e7)

# hypoexponential CDF references, mpmath mp.dps=50
PHI_EDGE_U100_V50_E008 = 0.963704184850
PHI_EDGE_DEGENERATE_50 = 0.908421805556


def quad_reference(u: float, v: float, eps: float) -> float:
    val, _ = quad(
        lambda x: u * math.exp(-u * x) * -math.expm1(-v * (eps - x)),
        0.0,
        eps,
        epsabs=1e-13,
        epsrel=1e-13,
        limit=200,
    )
    return val


class TestProfiles:
    def test_service_rates(self):
        user = UserProfile(arrival_rate=10.0, local_cpu_hz=5.0e8)
        assert user.local_service_rate(TASK) == pytest.approx(50.0)
        edge = EdgeProfile(cpu_hz=2.0e10)
        assert edge.service_rate(TASK) == pytest.approx(2000.0)

    def test_qos_validation(self):
        QosTarget(delay_s=0.08, min_reliability=0.99999)
        with pytest.raises(ValueError):
            QosTarget(delay_s=0.0, min_reliability=0.9)
        with pytest.raises(ValueError):
            QosTarget(delay_s=0.08, min_reliability=1.0)
        with pytest.raises(ValueError):
            QosTarget(delay_s=0.08, min_reliability=0.0)


class TestLocalReliability:
    def test_frozen_value(self):
        # net rate 75 jobs/s over 80 ms: 1 - e^-6
        user = UserProfile(arrival_rate=25.0, local_cpu_hz=1.0e9)
        got = local_reliability(user, TASK, beta=0.0, epsilon_s=0.08)
        assert got == pytest.approx(-math.expm1(-(100.0 - 25.0) * 0.08), rel=1e-14)
        assert got == pytest.approx(0.997521247823, rel=1e-11)

    def test_offloading_relieves_the_local_queue(self):
        user = UserProfile(arrival_rate=40.0, local_cpu_hz=5.0e8)
        lo = local_reliability(user, TASK, 0.2, 0.08)
        hi = local_reliability(user, TASK, 0.8, 0.08)
        assert hi > lo

    def test_unstable_local_queue(self):
        user = UserProfile(arrival_rate=60.0, local_cpu_hz=5.0e8)  # mu_l = 50
        with pytest.raises(StabilityError):
            local_reliability(user, TASK, beta=0.1, epsilon_s=0.08)
        # offloading enough restores stability
        assert local_reliability(user, TASK, beta=0.5, epsilon_s=0.08) > 0.0

    def test_beta_range(self):
        user = UserProfile(arrival_rate=10.0, local_cpu_hz=1.0e9)
        with pytest.raises(ValueError):
            local_reliability(user, TASK, -0.1, 0.08)
        with pytest.raises(ValueError):
            local_reliability(user, TASK, 1.1, 0.08)


class TestEdgeReliability:
    def test_frozen_values(self):
        got = edge_reliability(QueueRates(u=100.0, v=50.0), 0.08)
        assert got == pytest.approx(PHI_EDGE_U100_V50_E008, rel=1e-11)
        got = edge_reliability(QueueRates(u=50.0, v=50.0), 0.08)
        assert got == pytest.approx(PHI_EDGE_DEGENERATE_50, rel=1e-11)

    def test_symmetric_in_u_v(self):
        # sum of independent exponentials does not care about the order
        a = edge_reliability(QueueRates(u=80.0, v=30.0), 0.1)
        b = edge_reliability(QueueRates(u=30.0, v=80.0), 0.1)
        assert a == pytest.approx(b, rel=1e-12)

    def test_against_quadrature(self):
        rng = np.random.default_rng(1207)
        for _ in range(40):
            u = float(rng.uniform(0.5, 400.0))
            v = float(rng.uniform(0.5, 400.0))
            eps = float(rng.uniform(0.01, 0.5))
            assert edge_reliability(QueueRates(u=u, v=v), eps) == pytest.approx(
                quad_reference(u, v, eps), abs=1e-10
            )

    def test_near_degenerate_continuity(self):
        base = edge_reliability(QueueRates(u=70.0, v=70.0), 0.09)
        for delta in (1e-13, 1e-11, 1e-8):
            close = edge_reliability(QueueRates(u=70.0 * (1.0 + delta), v=70.0), 0.09)
            assert close == pytest.approx(base, abs=1e-9)

    def test_huge_gap_branch(self):
        # v - u so large that expm1((v-u) eps) would overflow; quadrature
        # misses the 1/v boundary layer here, so the reference is the
        # textbook two-exponential CDF evaluated the naive way
        u, v, eps = 2.0, 20000.0, 0.5
        ref = 1.0 - (v * math.exp(-u * eps) - u * math.exp(-v * eps)) / (v - u)
        assert edge_reliability(QueueRates(u=u, v=v), eps) == pytest.approx(
            ref, rel=1e-12
        )
        # the mirrored case exercises gap < 0
        assert edge_reliability(QueueRates(u=v, v=u), eps) == pytest.approx(
            ref, rel=1e-12
        )

    def test_monotone_in_each_rate_and_budget(self):
        base = edge_reliability(QueueRates(u=60.0, v=40.0), 0.08)
        assert edge_reliability(QueueRates(u=90.0, v=40.0), 0.08) > base
        assert edge_reliability(QueueRates(u=60.0, v=70.0), 0.08) > base
        assert edge_reliability(QueueRates(u=60.0, v=40.0), 0.12) > base

    def test_unstable_rates_rejected(self):
        with pytest.raises(StabilityError):
            edge_reliability(QueueRates(u=0.0, v=50.0), 0.08)
        with pytest.raises(StabilityError):
            edge_reliability(QueueRates(u=50.0, v=-1.0), 0.08)


class TestSystemReliability:
    USER = UserProfile(arrival_rate=19.0, local_cpu_hz=1.45e9)
    EDGE = EdgeProfile(cpu_hz=2.0e10)

    def test_mixture_of_pure_cases(self):
        eps = 0.08
        phi0 = system_reliability(self.USER, TASK, self.EDGE, 0.0, 0.0, eps)
        assert phi0 == pytest.approx(
            local_reliability(self.USER, TASK, 0.0, eps), rel=1e-14
        )
        phi1 = system_reliability(self.USER, TASK, self.EDGE, 1.0, 5e8, eps)
        rates = queue_rates(self.USER, TASK, self.EDGE, 1.0, 5e8)
        assert phi1 == pytest.approx(edge_reliability(rates, eps), rel=1e-14)

    def test_interior_is_convex_combination(self):
        eps, beta, rate = 0.08, 0.4, 5e8
        phi = system_reliability(self.USER, TASK, self.EDGE, beta, rate, eps)
        phi_l = local_reliability(self.USER, TASK, beta, eps)
        rates = queue_rates(self.USER, TASK, self.EDGE, beta, rate)
        phi_m = edge_reliability(rates, eps)
        assert phi == pytest.approx((1 - beta) * phi_l + beta * phi_m, rel=1e-14)
        assert min(phi_l, phi_m) <= phi <= max(phi_l, phi_m)

    def test_increasing_in_rate(self):
        eps, beta = 0.08, 0.6
        phis = [
            system_reliability(self.USER, TASK, self.EDGE, beta, r, eps)
            for r in (2e8, 4e8, 8e8, 1.6e9)
        ]
        assert all(b > a for a, b in zip(phis, phis[1:]))


def random_threshold_case(rng):
    """User, edge and QoS drawn so that the stable range is non-trivial."""
    lam = float(rng.uniform(2.0, 40.0))
    mu_l = float(rng.uniform(0.3, 8.0)) * lam
    mu_m = float(rng.uniform(1.5, 80.0)) * lam
    eps = float(rng.uniform(0.02, 0.3))
    theta = float(rng.uniform(0.9, 0.99999))
    user = UserProfile(arrival_rate=lam, local_cpu_hz=mu_l * TASK.mean_job_cycles)
    edge = EdgeProfile(cpu_hz=mu_m * TASK.mean_job_cycles)
    return user, edge, QosTarget(delay_s=eps, min_reliability=theta)


class TestRateThreshold:
    def test_threshold_meets_target_exactly(self):
        user = UserProfile(arrival_rate=19.0, local_cpu_hz=1.45e9)
        edge = EdgeProfile(cpu_hz=2.0e10)
        qos = QosTarget(delay_s=0.08, min_reliability=0.99999)
        for beta in (0.7, 0.745, 0.8, 0.9, 1.0):
            r = rate_threshold(user, task=TASK, edge=edge, qos=qos, beta=beta)
            phi = system_reliability(user, TASK, edge, beta, r, qos.delay_s)
            assert abs(phi - qos.min_reliability) <= 1e-8

    def test_small_share_infeasible_for_strong_local_user(self):
        # local alone misses more than 1 - theta, so the edge share would
        # need a negative outage: ((1-theta) - (1-b) e^(-n eps)) / b < 0 at small b
        user = UserProfile(arrival_rate=19.0, local_cpu_hz=1.45e9)
        edge = EdgeProfile(cpu_hz=2.0e10)
        qos = QosTarget(delay_s=0.08, min_reliability=0.99999)
        from thzplanner import InfeasibleError

        with pytest.raises(InfeasibleError) as info:
            rate_threshold(user, TASK, edge, qos, 0.1)
        assert isinstance(info.value, ValueError)
        assert str(info.value) == (
            "edge outage budget -0.000223997284732 is not reachable: "
            "ceiling outage is 3.79223861983e-70"
        )

    def test_agrees_with_bisection(self):
        rng = np.random.default_rng(424242)
        checked = 0
        while checked < 60:
            user, edge, qos = random_threshold_case(rng)
            beta = float(rng.uniform(0.05, 1.0))
            try:
                closed = rate_threshold(user, TASK, edge, qos, beta)
            except (StabilityError, ValueError):
                continue
            if math.isinf(closed):
                continue
            ref = rate_threshold_oracle(user, TASK, edge, qos, beta)
            assert closed == pytest.approx(ref, rel=1e-6)
            checked += 1

    def test_floor_when_local_share_suffices(self):
        # strong local CPU, mild target: tiny offload share needs no real rate
        user = UserProfile(arrival_rate=5.0, local_cpu_hz=2.0e9)  # mu_l = 200
        edge = EdgeProfile(cpu_hz=2.0e10)
        qos = QosTarget(delay_s=0.08, min_reliability=0.9)
        beta = 0.01
        r = rate_threshold(user, TASK, edge, qos, beta)
        floor = beta * user.arrival_rate * TASK.mean_job_bits
        assert r == pytest.approx(floor, rel=1e-5)
        phi = system_reliability(user, TASK, edge, beta, r, qos.delay_s)
        assert phi >= qos.min_reliability - 1e-8

    def test_unreachable_ceiling_is_infeasible(self):
        # edge queue alone caps Phi_m below theta: no rate can help
        from thzplanner import InfeasibleError

        user = UserProfile(arrival_rate=10.0, local_cpu_hz=1.0e6)
        edge = EdgeProfile(cpu_hz=1.2e8)  # mu_m = 12, so v <= 2 and sup << theta
        qos = QosTarget(delay_s=0.08, min_reliability=0.99999)
        with pytest.raises(InfeasibleError) as info:
            rate_threshold(user, TASK, edge, qos, 1.0)
        assert isinstance(info.value, ValueError)
        assert str(info.value) == (
            "edge outage budget 9.99999999995e-06 is not reachable: "
            "ceiling outage is 0.852143788966"
        )

    def test_unstable_edge_raises(self):
        user = UserProfile(arrival_rate=30.0, local_cpu_hz=1.0e9)
        edge = EdgeProfile(cpu_hz=2.0e8)  # mu_m = 20 < 30
        qos = QosTarget(delay_s=0.08, min_reliability=0.999)
        with pytest.raises(StabilityError):
            rate_threshold(user, TASK, edge, qos, 1.0)

    def test_beta_domain(self):
        user = UserProfile(arrival_rate=10.0, local_cpu_hz=1.0e9)
        edge = EdgeProfile(cpu_hz=2.0e10)
        qos = QosTarget(delay_s=0.08, min_reliability=0.999)
        with pytest.raises(ValueError):
            rate_threshold(user, TASK, edge, qos, 0.0)
        with pytest.raises(ValueError):
            rate_threshold(user, TASK, edge, qos, 1.2)

    def test_both_solver_branches_verify(self):
        """Small, medium and huge edge headroom land on the principal W
        branch, the direct lower branch, and the log-domain lower branch;
        the closed form must hit the target on all three."""
        user = UserProfile(arrival_rate=10.0, local_cpu_hz=1.0e6)
        qos = QosTarget(delay_s=0.08, min_reliability=0.999)
        for cpu in (1.0e9, 2.0e10, 2.0e12):  # mu_m = 100, 2000, 200000
            edge = EdgeProfile(cpu_hz=cpu)
            r = rate_threshold(user, TASK, edge, qos, 1.0)
            phi = system_reliability(user, TASK, edge, 1.0, r, qos.delay_s)
            assert abs(phi - qos.min_reliability) <= 1e-8

    def test_log_domain_root_has_no_cancellation(self):
        """v eps ~ 1e12: w ~ -v eps would cancel against mu_m eps, and Phi
        is too flat in R for a reliability check to notice the lost digits.
        The rate is the u eps -> ln(1/(1 - theta)) limit."""
        task = TaskProfile(mean_job_bits=1.0e4, mean_job_cycles=1.0e5)
        user = UserProfile(arrival_rate=0.1, local_cpu_hz=1.0e3)
        edge = EdgeProfile(cpu_hz=1.0e16)
        qos = QosTarget(delay_s=10.0, min_reliability=0.99999)
        r = rate_threshold(user, task, edge, qos, 1.0)
        expected = (0.1 + math.log(1.0e5) / 10.0) * 1.0e4  # 12512.92546497
        assert r == pytest.approx(expected, rel=1e-9)

    def test_closed_form_never_calls_the_oracle(self, monkeypatch):
        task = TaskProfile(mean_job_bits=1.0e4, mean_job_cycles=1.0e5)
        user = UserProfile(arrival_rate=1.0, local_cpu_hz=1.0e8)
        edge = EdgeProfile(cpu_hz=1.0e13)
        qos = QosTarget(delay_s=10.0, min_reliability=0.9)
        ref = rate_threshold_oracle(user, task, edge, qos, 1.0)

        def refuse(*args):
            raise AssertionError("rate_threshold called the bisection oracle")

        monkeypatch.setattr(reliability, "rate_threshold_oracle", refuse)
        r = rate_threshold(user, task, edge, qos, 1.0)
        assert r == pytest.approx(ref, rel=1e-9)

    def test_decreasing_in_edge_capacity(self):
        user = UserProfile(arrival_rate=10.0, local_cpu_hz=1.0e6)
        qos = QosTarget(delay_s=0.08, min_reliability=0.999)
        rates = [
            rate_threshold(user, TASK, EdgeProfile(cpu_hz=c), qos, 1.0)
            for c in (2.0e9, 2.0e10, 2.0e11, 2.0e12)
        ]
        assert all(b < a for a, b in zip(rates, rates[1:]))

    def test_increasing_in_target(self):
        user = UserProfile(arrival_rate=10.0, local_cpu_hz=1.0e6)
        edge = EdgeProfile(cpu_hz=2.0e10)
        rates = [
            rate_threshold(
                user, TASK, edge, QosTarget(delay_s=0.08, min_reliability=t), 1.0
            )
            for t in (0.9, 0.99, 0.999, 0.9999)
        ]
        assert all(b > a for a, b in zip(rates, rates[1:]))


def exact_slope(user, edge, qos, beta, rate):
    return float(exact_rate_slope(user, TASK, edge, qos, beta, rate))


class TestRateSlope:
    """rate_slope against mpmath's derivative of the 60-digit R*(beta)."""

    USER = UserProfile(arrival_rate=19.0, local_cpu_hz=1.45e9)
    EDGE = EdgeProfile(cpu_hz=2.0e10)
    QOS = QosTarget(delay_s=0.08, min_reliability=0.99999)

    @pytest.mark.parametrize("beta", [0.7, 0.745, 0.8, 0.9, 1.0])
    def test_matches_mpmath(self, beta):
        r = rate_threshold(self.USER, TASK, self.EDGE, self.QOS, beta)
        slope = rate_slope(self.USER, TASK, self.EDGE, self.QOS, beta, r)
        # near the optimum (beta = 0.745) the slope cancels, and the rate's
        # own last digits move it: compare on the scale of the rate too
        exact = exact_slope(self.USER, self.EDGE, self.QOS, beta, r)
        assert slope == pytest.approx(exact, rel=1e-9, abs=1e-9 * r)

    def test_full_offload_slope_sign(self):
        # a user with almost no local CPU: the rate falls all the way to 1
        user = UserProfile(arrival_rate=10.0, local_cpu_hz=1.0e6)
        r = rate_threshold(user, TASK, self.EDGE, self.QOS, 1.0)
        slope = rate_slope(user, TASK, self.EDGE, self.QOS, 1.0, r)
        assert slope < 0.0
        assert slope == pytest.approx(exact_slope(user, self.EDGE, self.QOS, 1.0, r), rel=1e-9)

    @pytest.mark.parametrize("gap", [0.0, 1e-12, 1e-9, 1e-6, 0.05, -0.05])
    def test_equal_net_rates(self, gap):
        """u = v exactly (x = 0 in the series), inside and just past the
        relative band where _edge_tail takes the u = v limit, and where
        the series hands over to the closed form.  The target is set so
        that R*(beta) = mu_m L_a (1 + gap), which puts u - v at about
        gap mu_m.  The edge (mu_m = 140 jobs/s, v eps = 10) leaves an edge
        outage of about 5e-4, well above the local one."""
        beta = 0.8
        edge = EdgeProfile(cpu_hz=1.4e9)
        mu_m = edge.service_rate(TASK)
        rate = mu_m * TASK.mean_job_bits * (1.0 + gap)
        miss = float(outage(self.USER, TASK, edge, self.QOS, beta, rate))
        qos = QosTarget(delay_s=self.QOS.delay_s, min_reliability=1.0 - miss)
        rates = queue_rates(self.USER, TASK, edge, beta, rate)
        assert abs(rates.u - rates.v) <= abs(gap) * 1.01 * mu_m
        slope = rate_slope(self.USER, TASK, edge, qos, beta, rate)
        assert slope == pytest.approx(exact_slope(self.USER, edge, qos, beta, rate), rel=1e-9)

    def test_floor_when_local_share_suffices(self):
        user = UserProfile(arrival_rate=5.0, local_cpu_hz=2.0e9)
        qos = QosTarget(delay_s=0.08, min_reliability=0.9)
        beta = 0.01
        r = rate_threshold(user, TASK, self.EDGE, qos, beta)
        floor_slope = user.arrival_rate * TASK.mean_job_bits * (1.0 + reliability.STABILITY_MARGIN)
        assert rate_slope(user, TASK, self.EDGE, qos, beta, r) == floor_slope
        assert floor_slope == pytest.approx(exact_slope(user, self.EDGE, qos, beta, r), rel=1e-12)

    def test_floor_above_the_root(self):
        # the local share leaves the edge an outage budget of 1 - 1e-9, more
        # than it misses at the floor rate (about 1 - u eps = 1 - 2e-8): the
        # Lambert W root lies below the stability floor, and the floor binds
        user = UserProfile(arrival_rate=5.0, local_cpu_hz=2.0e9)
        beta = 0.05
        phi_l = local_reliability(user, TASK, beta, 0.08)
        qos = QosTarget(delay_s=0.08, min_reliability=(1.0 - beta) * phi_l + beta * 1e-9)
        _, _, floor, budget, _ = reliability._edge_target(user, TASK, self.EDGE, qos, beta)
        # the root is solved for, then clamped
        assert 1.0 - budget == pytest.approx(1e-9, rel=1e-5)
        r = rate_threshold(user, TASK, self.EDGE, qos, beta)
        assert r == floor
        floor_slope = user.arrival_rate * TASK.mean_job_bits * (1.0 + reliability.STABILITY_MARGIN)
        assert rate_slope(user, TASK, self.EDGE, qos, beta, r) == floor_slope
        assert floor_slope == pytest.approx(exact_slope(user, self.EDGE, qos, beta, r), rel=1e-12)


class TestCeilingSlopes:
    """C'(beta) and the ceiling margin's slope against mpmath's derivatives
    of the 60-digit ceiling outage C."""

    CASES = [
        # an interior-share user, from C's falling side to beta = 1
        (UserProfile(arrival_rate=19.0, local_cpu_hz=1.45e9), EdgeProfile(cpu_hz=2.0e10), b)
        for b in (0.25, 0.5, 0.745, 0.9, 1.0)
    ] + [
        # lambda = 40, mu_l = 30, mu_m = 60 jobs/s: C is least inside (0, 1),
        # and the edge is unstable from beta = 1.5 on
        (UserProfile(arrival_rate=40.0, local_cpu_hz=3.0e8), EdgeProfile(cpu_hz=6.0e8), b)
        for b in (0.3, 0.6, 0.768, 0.9, 1.0)
    ]
    QOS = QosTarget(delay_s=0.08, min_reliability=0.99999)

    @staticmethod
    def terms(user, edge, beta):
        """|C'|'s two terms, e^(-v eps) (1 + beta lambda eps) and
        e^(-n eps) (1 + (1-beta) lambda eps), summed: the scale of C'."""
        lam, eps = user.arrival_rate, TestCeilingSlopes.QOS.delay_s
        v = edge.service_rate(TASK) - beta * lam
        n = user.local_service_rate(TASK) - (1.0 - beta) * lam
        return math.exp(-v * eps) * (1.0 + beta * lam * eps) + math.exp(-n * eps) * (
            1.0 + (1.0 - beta) * lam * eps
        )

    @pytest.mark.parametrize("user, edge, beta", CASES)
    def test_outage_slope_matches_mpmath(self, user, edge, beta):
        got = _ceiling_outage_slope(user, TASK, edge, self.QOS, beta)
        exact = float(exact_outage.ceiling_outage_slope(user, TASK, edge, self.QOS, beta))
        # C' is a difference, which cancels at C's minimum
        assert abs(got - exact) <= 1e-13 * self.terms(user, edge, beta)

    @pytest.mark.parametrize("user, edge, beta", CASES)
    def test_margin_slope_matches_mpmath(self, user, edge, beta):
        got = ceiling_margin_slope(user, TASK, edge, self.QOS, beta)
        exact = float(exact_outage.ceiling_margin_slope(user, TASK, edge, self.QOS, beta))
        # -(C' + margin) / beta
        assert abs(got - exact) <= 1e-13 * self.terms(user, edge, beta) / beta

    def test_infinite_margins(self):
        user, edge = self.CASES[-1][:2]
        slopes = (_ceiling_outage_slope, ceiling_margin_slope)
        # the local queue is unstable below beta = 0.25: the margin rises
        assert [s(user, TASK, edge, self.QOS, 0.2) for s in slopes] == [-math.inf, math.inf]
        # past the edge's limit, with mu_m = 30 jobs/s: the margin falls
        slow = EdgeProfile(cpu_hz=3.0e8)
        assert [s(user, TASK, slow, self.QOS, 0.8) for s in slopes] == [math.inf, -math.inf]
        # where the local share alone meets theta the margin is +inf: flat
        relaxed = QosTarget(delay_s=0.08, min_reliability=0.2)
        assert ceiling_margin(user, TASK, edge, relaxed, 0.5) == math.inf
        assert ceiling_margin_slope(user, TASK, edge, relaxed, 0.5) == 0.0


class TestOracle:
    def test_oracle_meets_target(self):
        user = UserProfile(arrival_rate=19.0, local_cpu_hz=1.45e9)
        edge = EdgeProfile(cpu_hz=2.0e10)
        qos = QosTarget(delay_s=0.08, min_reliability=0.99999)
        r = rate_threshold_oracle(user, TASK, edge, qos, 0.6)
        phi = system_reliability(user, TASK, edge, 0.6, r, qos.delay_s)
        assert abs(phi - qos.min_reliability) <= 1e-6
