"""Property-based checks of the closed forms at parameter extremes.

Each property runs a fixed, derandomized set of hypothesis examples, so a
failure reproduces on every run.  Scale parameters are drawn log-uniformly
so that every decade of each range is visited.
"""

import dataclasses
import math

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import thzplanner as tp
from dense_scan import assert_share_search_gate, lattice
from exact_outage import exact_rate, exact_rate_slope, floor_rate
from thzplanner import (
    DEFAULT_ATTENUATION_FIT,
    EdgeProfile,
    InfeasibleError,
    QosTarget,
    SimConfig,
    StabilityError,
    TaskProfile,
    UserProfile,
    achievable_distance,
    ceiling_margin,
    ceiling_margin_slope,
    data_rate,
    lambert_w,
    min_stable_share,
    minimize_rate_threshold,
    queue_rates,
    rate_slope,
    rate_threshold,
    rate_threshold_oracle,
    simulate_user,
    system_reliability,
)
from thzplanner.reliability import _ceiling_outage_slope as ceiling_outage_slope

FIXED = settings(derandomize=True, deadline=None, max_examples=300)

# the oracle's bisection gives up beyond this rate
ORACLE_CAP_BPS = 1e15
# the oracle against the 60-digit root: its bisection stops at 1e-12 wide
MPMATH_RTOL = 1e-11
# the closed form against the 60-digit root
CLOSED_FORM_RTOL = 1e-12


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


@FIXED
@given(
    bits=log_uniform(1e3, 1e9),
    cycles=log_uniform(1e5, 1e9),
    lam=log_uniform(1e-2, 1e4),
    f_l=log_uniform(1e6, 1e11),
    f_m=log_uniform(1e7, 1e16),
    eps=log_uniform(1e-5, 10.0),
    miss=log_uniform(1e-15, 0.99),
    beta=st.floats(0.0, 1.0, exclude_min=True),
)
# the ceiling outage e^(-v eps) = 1.9e-14 sits near the 1e-12 budget
@example(bits=1e3, cycles=10 ** 7.375, lam=1.0, f_l=1e6, f_m=10 ** 10.5,
         eps=10 ** -1.625, miss=1e-12, beta=1.0)
def test_rate_threshold_matches_oracle(bits, cycles, lam, f_l, f_m, eps, miss, beta):
    args = (
        UserProfile(arrival_rate=lam, local_cpu_hz=f_l),
        TaskProfile(mean_job_bits=bits, mean_job_cycles=cycles),
        EdgeProfile(cpu_hz=f_m),
        QosTarget(delay_s=eps, min_reliability=1.0 - miss),
        beta,
    )
    try:
        ref = rate_threshold_oracle(*args)
    except (StabilityError, InfeasibleError) as exc:
        try:
            closed = rate_threshold(*args)
        except type(exc):
            return
        assert closed > ORACLE_CAP_BPS
        return
    closed = rate_threshold(*args)
    assert abs(closed - ref) <= 1e-6 * ref


# rate_slope against the derivative of the 60-digit R*: the closed-form
# rate it is given holds to about 1e-14 (worst seen: 5.5e-14)
SLOPE_RTOL = 1e-12


@FIXED
@given(
    bits=log_uniform(1e3, 1e9),
    cycles=log_uniform(1e5, 1e9),
    lam=log_uniform(1e-2, 1e4),
    f_l=log_uniform(1e6, 1e11),
    f_m=log_uniform(1e7, 1e16),
    eps=log_uniform(1e-5, 10.0),
    miss=log_uniform(1e-15, 0.99),
    beta=st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
)
def test_rate_slope_matches_mpmath(bits, cycles, lam, f_l, f_m, eps, miss, beta):
    """rate_slope at the closed form's rate is mpmath's derivative of the
    60-digit R*(beta), on the root and on the stability floor alike."""
    args = (
        UserProfile(arrival_rate=lam, local_cpu_hz=f_l),
        TaskProfile(mean_job_bits=bits, mean_job_cycles=cycles),
        EdgeProfile(cpu_hz=f_m),
        QosTarget(delay_s=eps, min_reliability=1.0 - miss),
    )
    try:
        rate = rate_threshold(*args, beta)
    except (StabilityError, InfeasibleError):
        return
    assume(math.isfinite(rate))
    exact = exact_rate(*args, beta, rate)
    # next to the kink where the root crosses the floor the two can differ
    # on which side they are
    on_floor = rate <= beta * lam * bits * (1.0 + tp.reliability.STABILITY_MARGIN)
    assume(on_floor == (exact == floor_rate(args[0], args[1], beta)))
    slope = rate_slope(*args, beta, rate)
    exact = float(exact_rate_slope(*args, beta, rate))
    # near an optimum the slope cancels: there it holds on the rate's scale
    assert slope == pytest.approx(exact, rel=SLOPE_RTOL, abs=SLOPE_RTOL * rate)


def mpmath_rate_threshold(user, task, edge, qos, beta):
    """Rate whose outage is exactly 1 - theta, by 60-digit bisection.

    The third oracle: the tandem tail in its symmetric form
    (v e^(-u eps) - u e^(-v eps)) / (v - u), evaluated in mpmath from the
    exact double inputs, with no shared code.  None when no rate below
    1e30 bit/s reaches the target.
    """
    with mpmath.workdps(60):
        lam, b, bits = mpmath.mpf(user.arrival_rate), mpmath.mpf(beta), task.mean_job_bits
        mu_l = mpmath.mpf(user.local_cpu_hz) / task.mean_job_cycles
        v = mpmath.mpf(edge.cpu_hz) / task.mean_job_cycles - b * lam
        eps, miss = mpmath.mpf(qos.delay_s), 1 - mpmath.mpf(qos.min_reliability)
        local = (1 - b) * mpmath.exp(-(mu_l - (1 - b) * lam) * eps) if beta < 1.0 else 0

        def met(rate):
            u = rate / bits - b * lam
            if u == v:
                tail = (1 + v * eps) * mpmath.exp(-v * eps)
            else:
                tail = (v * mpmath.exp(-u * eps) - u * mpmath.exp(-v * eps)) / (v - u)
            return local + b * tail <= miss

        # the stability floor as the oracle rounds it, also where subnormal
        lo = mpmath.mpf(
            beta * user.arrival_rate * bits * (1.0 + tp.reliability.STABILITY_MARGIN)
        )
        if met(lo):
            return float(lo)
        hi = max(2 * lo, 1)
        while not met(hi):
            hi *= 2
            if hi > 1e30:
                return None
        for _ in range(160):
            mid = (lo + hi) / 2
            lo, hi = (lo, mid) if met(mid) else (mid, hi)
        return float(hi)


@FIXED
@given(
    bits=log_uniform(1e3, 1e9),
    cycles=log_uniform(1e5, 1e9),
    lam=log_uniform(1e-2, 1e4),
    f_l=log_uniform(1e6, 1e11),
    f_m=log_uniform(1e7, 1e16),
    eps=log_uniform(1e-5, 10.0),
    miss=log_uniform(1e-15, 1e-5),
    beta=st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
)
# the ceiling outage e^(-v eps) = 1.9e-14 sits near the 1e-12 budget
@example(bits=1e3, cycles=10 ** 7.375, lam=1.0, f_l=1e6, f_m=10 ** 10.5,
         eps=10 ** -1.625, miss=1e-12, beta=1.0)
# a generated plan user's interior share: the margin there is 6.3e-7
@example(bits=8e6, cycles=1e7, lam=21.02, f_l=1.845e9, f_m=2.175e10,
         eps=0.0912, miss=1.0 - 0.9999996883, beta=0.10109820566846853)
def test_oracle_matches_mpmath(bits, cycles, lam, f_l, f_m, eps, miss, beta):
    """The bisection oracle holds at 1 - theta down to 1e-15: it bisects on
    the outage, which it never forms as 1 - Phi.  Off the stability floor
    the closed form holds to 1e-12 there too: it forms its margin from
    outages as well."""
    args = (
        UserProfile(arrival_rate=lam, local_cpu_hz=f_l),
        TaskProfile(mean_job_bits=bits, mean_job_cycles=cycles),
        EdgeProfile(cpu_hz=f_m),
        QosTarget(delay_s=eps, min_reliability=1.0 - miss),
        beta,
    )
    try:
        ref = rate_threshold_oracle(*args)
    except (StabilityError, InfeasibleError):
        return
    exact = mpmath_rate_threshold(*args)
    assert exact is not None
    assert abs(ref - exact) <= MPMATH_RTOL * exact
    closed = rate_threshold(*args)
    if closed > beta * lam * bits * (1.0 + tp.reliability.STABILITY_MARGIN):
        assert abs(closed - exact) <= CLOSED_FORM_RTOL * exact


def queue_rates_oracle(user, task, edge, qos, beta):
    """rate_threshold_oracle with each bisection step forming the tandem's
    net rates through queue_rates, as a QueueRates."""
    rel = tp.reliability
    mu_m, _, floor, budget, _ = rel._edge_target(user, task, edge, qos, beta)
    if budget >= 1.0:
        return floor
    eps = qos.delay_s
    miss = 1.0 - qos.min_reliability
    local_miss = 0.0
    if beta < 1.0:
        local_miss = (1.0 - beta) * math.exp(-rel._local_net_rate(user, task, beta) * eps)

    def gap(rate):
        rates = queue_rates(user, task, edge, beta, rate)
        e_v, rest = rel._edge_tail(rates.u, rates.v, eps)
        return miss - (local_miss + beta * (e_v + rest))

    lo = max(floor, 1e-12)
    if gap(lo) >= 0.0:
        return lo
    hi = max(2.0 * lo, mu_m * task.mean_job_bits)
    while gap(hi) < 0.0:
        hi *= 2.0
        if hi > 1e15:
            raise InfeasibleError("no rate below 1e15 bit/s reaches the reliability target")
    while (hi - lo) > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if gap(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def queue_rates_slope(user, task, edge, qos, beta, rate):
    """rate_slope with the tandem's net rates formed as a QueueRates."""
    rel = tp.reliability
    lam, bits = user.arrival_rate, task.mean_job_bits
    offered = beta * lam
    if rate <= offered * bits * (1.0 + rel.STABILITY_MARGIN):
        return lam * bits * (1.0 + rel.STABILITY_MARGIN)
    eps = qos.delay_s
    rates = queue_rates(user, task, edge, beta, rate)
    e_v, rest = rel._edge_tail(rates.u, rates.v, eps)
    tail = e_v + rest
    local = user.local_service_rate(task) - (1.0 - beta) * lam
    dm_dbeta = (
        tail * (1.0 + offered * eps)
        - offered * rest / rates.v
        - math.exp(-local * eps) * (1.0 + (1.0 - beta) * lam * eps)
    )
    dm_drate = beta * rel._tail_rate_slope(rates.u, rates.v, eps) / bits
    if dm_drate == 0.0:
        return math.copysign(math.inf, dm_dbeta)
    return -dm_dbeta / dm_drate


def outcome(fn, *args):
    """fn's value, or the type of what it raised (rate_slope is not defined
    where the local queue is unstable, and may overflow there), with the
    arguments of every call fn made to the tail terms, step by step."""
    rel, calls = tp.reliability, []

    def recorded(real):
        def call(*a):
            calls.append(a)
            return real(*a)

        return call

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rel, "_edge_tail", recorded(rel._edge_tail))
        mp.setattr(rel, "_tail_rate_slope", recorded(rel._tail_rate_slope))
        try:
            return fn(*args), calls
        except (ArithmeticError, ValueError) as exc:
            return type(exc), calls


@FIXED
@given(
    bits=log_uniform(1e3, 1e9),
    cycles=log_uniform(1e5, 1e9),
    lam=log_uniform(1e-2, 1e4),
    f_l=log_uniform(1e6, 1e11),
    f_m=log_uniform(1e7, 1e16),
    eps=log_uniform(1e-5, 10.0),
    miss=log_uniform(1e-15, 0.99),
    beta=st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
    # the rate as a multiple of mu_m L_a, where u = v
    ratio=st.one_of(st.just(1.0), st.floats(1.0 - 1e-8, 1.0 + 1e-8), log_uniform(1e-9, 1e3)),
)
# beta = 1, and a rate at u = v to within one rounding
@example(bits=8e6, cycles=1e7, lam=19.0, f_l=1.45e9, f_m=2e10, eps=0.08, miss=1e-5,
         beta=1.0, ratio=1.0)
# (v - u) eps = 1e8 at the floor: expm1 would overflow
@example(bits=1e4, cycles=1e5, lam=0.1, f_l=1e3, f_m=1e16, eps=1.0, miss=1e-5,
         beta=0.5, ratio=1e-9)
def test_float_net_rates_change_no_bit(bits, cycles, lam, f_l, f_m, eps, miss, beta, ratio):
    """The oracle's bisection and rate_slope take u and v as plain floats;
    every value, and every step's u and v, is the one the QueueRates forms
    give, compared with ==."""
    args = (
        UserProfile(arrival_rate=lam, local_cpu_hz=f_l),
        TaskProfile(mean_job_bits=bits, mean_job_cycles=cycles),
        EdgeProfile(cpu_hz=f_m),
        QosTarget(delay_s=eps, min_reliability=1.0 - miss),
        beta,
    )
    assert outcome(rate_threshold_oracle, *args) == outcome(queue_rates_oracle, *args)
    rates = [f_m / cycles * bits * ratio]
    closed = outcome(rate_threshold, *args)[0]
    if isinstance(closed, float) and math.isfinite(closed):
        rates.append(closed)
    for rate in rates:
        assert outcome(rate_slope, *args, rate) == outcome(queue_rates_slope, *args, rate)


@FIXED
@given(
    x=st.floats(-math.exp(-1.0), -math.exp(-1.0) + 1e-15),
    branch=st.sampled_from((0, -1)),
)
def test_lambert_w_at_branch_point(x, branch):
    w = lambert_w(x, branch)
    assert abs(w * math.exp(w) - x) <= 1e-14 * abs(x)
    assert (w >= -1.0) if branch == 0 else (w <= -1.0)


RADIO = tp.reference_radio()


@FIXED
@given(freq=st.floats(100.0, 1000.0), rate=log_uniform(1e5, 1e13))
def test_distance_round_trip(freq, rate):
    d = achievable_distance(DEFAULT_ATTENUATION_FIT, RADIO, freq, rate)
    assert 0.0 < d < math.inf
    back = data_rate(DEFAULT_ATTENUATION_FIT, RADIO, freq, d)
    assert back == pytest.approx(rate, rel=1e-9)


# unit job size and cycle count: the service rates in jobs/s are the very
# doubles given as CPU speeds and link rate, so a boundary can be hit exactly
UNIT_TASK = TaskProfile(mean_job_bits=1.0, mean_job_cycles=1.0)
TINY_RUN = SimConfig(n_jobs=100, warmup=1, seed=0)


@FIXED
@given(
    queue=st.sampled_from(("local", "transmission", "edge")),
    lam=log_uniform(1e-2, 1e4),
    beta=st.floats(0.0, 1.0),
    ulps=st.sampled_from((-1, 0, 1)),
)
def test_simulator_refuses_exactly_the_unstable_queues(queue, lam, beta, ulps):
    """At each stability boundary (mu_l = (1-beta) lambda, R/L = beta lambda,
    mu_m = beta lambda) and one ulp to either side, the simulator refuses
    a user exactly when the closed form does, naming the same queue."""
    load = (1.0 - beta) * lam if queue == "local" else beta * lam
    assume(load > 0.0)
    boundary = load if ulps == 0 else math.nextafter(load, math.inf * ulps)
    rates = {"local": 2.0 * lam, "transmission": 2.0 * lam, "edge": 2.0 * lam}
    rates[queue] = boundary
    args = (
        UserProfile(arrival_rate=lam, local_cpu_hz=rates["local"]),
        UNIT_TASK,
        EdgeProfile(cpu_hz=rates["edge"]),
        beta,
        rates["transmission"],
    )
    qos = QosTarget(delay_s=0.1, min_reliability=0.9)
    try:
        system_reliability(*args, qos.delay_s)
        closed = None
    except StabilityError as exc:
        closed = str(exc)
    try:
        simulate_user(*args, qos, TINY_RUN, user_id=3)
        simulated = None
    except StabilityError as exc:
        simulated = str(exc)
    assert (closed is None) == (ulps > 0)
    if closed is None:
        assert simulated is None
    else:
        assert closed.startswith(f"{queue} queue unstable")
        assert simulated == f"user 3: {closed}"


@FIXED
@given(
    lam=log_uniform(1e-1, 1e3),
    local_ratio=log_uniform(1e-12, 10.0),
    edge_ratio=log_uniform(1.01, 1e3),
    eps=log_uniform(1e-3, 1.0),
    miss=log_uniform(1e-8, 0.5),
)
# mu_l / lambda = 1e-12: the relative offset above the floor is below half
# an ulp of it and rounds away
@example(lam=10.0, local_ratio=1e-12, edge_ratio=50.0, eps=1.0, miss=0.1)
def test_share_search_stays_above_the_stability_floor(lam, local_ratio, edge_ratio, eps, miss):
    """Every share the search returns keeps the local queue stable.  The
    floor stays below 1 here: at mu_l = 0 it is 1, and beta = 1 its only
    share."""
    task = tp.reference_task()
    user = UserProfile(arrival_rate=lam, local_cpu_hz=lam * local_ratio * task.mean_job_cycles)
    scenario = dataclasses.replace(
        tp.single_user_scenario(),
        task=task,
        users=(user,),
        edge=EdgeProfile(cpu_hz=lam * edge_ratio * task.mean_job_cycles),
        qos=QosTarget(delay_s=eps, min_reliability=1.0 - miss),
    )
    try:
        beta, rate = minimize_rate_threshold(scenario, 0)
    except InfeasibleError:
        return
    if rate > 0.0:
        assert beta > min_stable_share(user, task)
    else:  # the local queue alone meets the target
        assert beta == 0.0 and lam < user.local_service_rate(task)


def share_search_scenario(bits, cycles, lam, f_l, f_m, eps, miss):
    return dataclasses.replace(
        tp.single_user_scenario(),
        task=TaskProfile(mean_job_bits=bits, mean_job_cycles=cycles),
        users=(UserProfile(arrival_rate=lam, local_cpu_hz=f_l),),
        edge=EdgeProfile(cpu_hz=f_m),
        qos=QosTarget(delay_s=eps, min_reliability=1.0 - miss),
    )


# the extremes of test_rate_threshold_matches_oracle
SHARE_SEARCH_CASES = dict(
    bits=log_uniform(1e3, 1e9),
    cycles=log_uniform(1e5, 1e9),
    lam=log_uniform(1e-2, 1e4),
    f_l=log_uniform(1e6, 1e11),
    f_m=log_uniform(1e7, 1e16),
    eps=log_uniform(1e-5, 10.0),
    miss=log_uniform(1e-15, 0.99),
)


def share_search_examples(test):
    """One user per outcome of the share search."""
    reference = dict(bits=8e6, cycles=1e7, eps=0.08)
    for lam, f_l, f_m, miss in (
        (10.0, 2e9, 2e10, 0.1),  # unconstrained: the local queue alone meets theta
        (10.0, 1e6, 2e10, 1e-5),  # full offload: mu_l = 0.1 jobs/s
        (19.0, 1.45e9, 2e10, 1e-5),  # interior share
        (10.0, 1e6, 1.2e8, 1e-5),  # infeasible: the edge ceiling stays below theta
    ):
        test = example(lam=lam, f_l=f_l, f_m=f_m, miss=miss, **reference)(test)
    return test


@FIXED
@given(**SHARE_SEARCH_CASES)
@share_search_examples
def test_share_search_matches_dense_scan(bits, cycles, lam, f_l, f_m, eps, miss):
    """The dense lattice scan's verdict, its bytes at full offload, and
    elsewhere a share no worse by the bisection oracle."""
    scenario = share_search_scenario(bits, cycles, lam, f_l, f_m, eps, miss)
    assert_share_search_gate(scenario, 0)


@FIXED
@given(
    **SHARE_SEARCH_CASES,
    shares=st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=1, max_size=8),
)
def test_ceiling_outage_slope_increases(bits, cycles, lam, f_l, f_m, eps, miss, shares):
    """C' never falls over the shares where the local queue is stable, and
    never raises or returns nan: shares past the edge queue's stability
    limit, and the ulps around it, give +inf."""
    scenario = share_search_scenario(bits, cycles, lam, f_l, f_m, eps, miss)
    user, task, edge, qos = scenario.users[0], scenario.task, scenario.edge, scenario.qos
    limit = edge.service_rate(task) / lam
    betas = sorted(
        b
        for b in shares + [limit, math.nextafter(limit, 0.0), math.nextafter(limit, 2.0)]
        if min_stable_share(user, task) < b <= 1.0
    )
    slopes = [ceiling_outage_slope(user, task, edge, qos, b) for b in betas]
    assert all(a <= b for a, b in zip(slopes, slopes[1:])), (betas, slopes)
    for b, s in zip(betas, slopes):
        assert (s == math.inf) == (edge.service_rate(task) - b * lam <= 0.0)


def _turns(values):
    """(interior local minima, interior local maxima) once equal neighbours merge."""
    merged = [v for i, v in enumerate(values) if i == 0 or v != values[i - 1]]
    inner = list(zip(merged, merged[1:], merged[2:]))
    return (
        sum(1 for a, b, c in inner if a > b < c),
        sum(1 for a, b, c in inner if a < b > c),
    )


@FIXED
@given(**SHARE_SEARCH_CASES)
@share_search_examples
# the margin is within about 1e-12 of 0 over part of the run
@example(bits=1e3, cycles=10 ** 5.53125, lam=1.0, f_l=10 ** 6.96875, f_m=1e7,
         eps=1.0, miss=1e-12)
def test_share_search_lattice_structure(bits, cycles, lam, f_l, f_m, eps, miss):
    """What the root-based search assumes, on the dense scan's lattice: C'
    never falls, so the margin's slope changes sign once, from + to -, the
    margin has a single peak, and the shares with a positive margin form
    one run; and R has no interior local maximum on that run (so at most
    one interior local minimum)."""
    scenario = share_search_scenario(bits, cycles, lam, f_l, f_m, eps, miss)
    user, task, edge, qos = scenario.users[0], scenario.task, scenario.edge, scenario.qos
    floor = min_stable_share(user, task)
    # the range minimize_rate_threshold searches
    lo = max(floor + 1e-9 * (1.0 - floor), math.nextafter(floor, 1.0))
    assume(lo < 1.0)
    betas = lattice(lo, 1.0)
    outage_slopes = [ceiling_outage_slope(user, task, edge, qos, b) for b in betas]
    assert all(a <= b for a, b in zip(outage_slopes, outage_slopes[1:]))
    signs = [
        math.copysign(1.0, s) if s else 0.0
        for s in (ceiling_margin_slope(user, task, edge, qos, b) for b in betas)
    ]
    assert all(a >= b for a, b in zip(signs, signs[1:])), signs
    margins = [ceiling_margin(user, task, edge, qos, b) for b in betas]
    assert _turns(margins)[0] == 0
    run = [i for i, m in enumerate(margins) if m > 0.0]
    if not run:
        return
    assert run == list(range(run[0], run[-1] + 1))
    rates = [rate_threshold(user, task, edge, qos, betas[i]) for i in run]
    minima, maxima = _turns(rates)
    assert maxima == 0 and minima <= 1
