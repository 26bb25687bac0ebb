"""Property-based checks of the closed forms at parameter extremes.

Each property runs a fixed, derandomized set of hypothesis examples, so a
failure reproduces on every run.  Scale parameters are drawn log-uniformly
so that every decade of each range is visited.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import thzplanner as tp
from thzplanner import (
    DEFAULT_ATTENUATION_FIT,
    EdgeProfile,
    InfeasibleError,
    QosTarget,
    StabilityError,
    TaskProfile,
    UserProfile,
    achievable_distance,
    data_rate,
    lambert_w,
    rate_threshold,
    rate_threshold_oracle,
)

FIXED = settings(derandomize=True, deadline=None, max_examples=300)

# the oracle's bisection gives up beyond this rate
ORACLE_CAP_BPS = 1e15


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
    # 1 - theta stops at 1e-9: below it the double theta itself keeps
    # fewer than 7 digits of 1 - theta, so neither the closed form nor the
    # bisection can resolve the rate to 1e-6
    miss=log_uniform(1e-9, 0.99),
    beta=st.floats(0.0, 1.0, exclude_min=True),
)
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
