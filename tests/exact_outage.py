"""60-digit mpmath reference for the outage and the share search's slopes.

The outage M(beta, R) = (1-beta) e^(-n eps) + beta T(u, v), with the
tandem tail (v e^(-u eps) - u e^(-v eps)) / (v - u) written as
e^(-v eps) (1 + v eps expm1((v - u) eps) / ((v - u) eps)) so that it keeps
its digits as u approaches v, evaluated from the exact double inputs.  The rate R*(beta) that meets
1 - theta is its root in R, found by mpmath's secant solver; its slope is
mpmath's numerical derivative of that root.  The ceiling outage C(beta) is
M's limit as R grows without bound, (1-beta) e^(-n eps) + beta e^(-v eps),
and the ceiling margin ((1 - theta) - C) / beta; their slopes are mpmath's
numerical derivatives.  None of this shares code with the package.
"""

import mpmath

from thzplanner.reliability import STABILITY_MARGIN

DIGITS = 60


def outage(user, task, edge, qos, beta, rate):
    """M(beta, R) in mpmath; beta and rate may be mpmath numbers."""
    b, rate = mpmath.mpf(beta), mpmath.mpf(rate)
    lam = mpmath.mpf(user.arrival_rate)
    mu_l = mpmath.mpf(user.local_cpu_hz) / task.mean_job_cycles
    mu_m = mpmath.mpf(edge.cpu_hz) / task.mean_job_cycles
    eps = mpmath.mpf(qos.delay_s)
    u, v = rate / task.mean_job_bits - b * lam, mu_m - b * lam
    gap = (v - u) * eps
    ratio = mpmath.expm1(gap) / gap if gap else 1  # e^(-u eps) = e^(-v eps) e^gap
    tail = mpmath.exp(-v * eps) * (1 + v * eps * ratio)
    return (1 - b) * mpmath.exp(-(mu_l - (1 - b) * lam) * eps) + b * tail


def ceiling_outage(user, task, edge, qos, beta):
    """C(beta) in mpmath; beta may be an mpmath number."""
    b = mpmath.mpf(beta)
    lam = mpmath.mpf(user.arrival_rate)
    mu_l = mpmath.mpf(user.local_cpu_hz) / task.mean_job_cycles
    mu_m = mpmath.mpf(edge.cpu_hz) / task.mean_job_cycles
    eps = mpmath.mpf(qos.delay_s)
    return (1 - b) * mpmath.exp(-(mu_l - (1 - b) * lam) * eps) + b * mpmath.exp(
        -(mu_m - b * lam) * eps
    )


def ceiling_outage_slope(user, task, edge, qos, beta):
    """C'(beta), mpmath's derivative of C."""
    with mpmath.workdps(DIGITS):
        return mpmath.diff(lambda b: ceiling_outage(user, task, edge, qos, b), beta)


def ceiling_margin_slope(user, task, edge, qos, beta):
    """The slope of the ceiling margin ((1 - theta) - C) / beta."""
    with mpmath.workdps(DIGITS):
        miss = 1 - mpmath.mpf(qos.min_reliability)
        return mpmath.diff(lambda b: (miss - ceiling_outage(user, task, edge, qos, b)) / b, beta)


def floor_rate(user, task, beta):
    """The stability floor beta lambda L_a (1 + STABILITY_MARGIN), unrounded."""
    return mpmath.mpf(beta) * user.arrival_rate * task.mean_job_bits * (
        1 + mpmath.mpf(STABILITY_MARGIN)
    )


def _exact_rate(user, task, edge, qos, beta, guess):
    """exact_rate at the working precision of the caller."""
    b = mpmath.mpf(beta)
    miss = 1 - mpmath.mpf(qos.min_reliability)
    floor = floor_rate(user, task, b)
    if outage(user, task, edge, qos, b, floor) <= miss:
        return floor
    root = mpmath.findroot(lambda r: outage(user, task, edge, qos, b, r) - miss, mpmath.mpf(guess))
    return max(root, floor)


def exact_rate(user, task, edge, qos, beta, guess):
    """R*(beta): the root of M(beta, R) = 1 - theta near guess, or the
    stability floor where that root lies below it."""
    with mpmath.workdps(DIGITS):
        return _exact_rate(user, task, edge, qos, beta, guess)


def exact_rate_slope(user, task, edge, qos, beta, guess):
    """dR*/dbeta, mpmath's numerical derivative of R*."""
    with mpmath.workdps(DIGITS):
        return mpmath.diff(lambda b: _exact_rate(user, task, edge, qos, b, guess), beta)


def outage_slope_root(user, task, edge, qos, beta, guess):
    """The share near beta where dM/dbeta, taken at (b, R*(b)), vanishes."""
    with mpmath.workdps(DIGITS):

        def dm_dbeta(b):
            rate = _exact_rate(user, task, edge, qos, b, guess)
            return mpmath.diff(lambda x: outage(user, task, edge, qos, x, rate), b)

        step = mpmath.mpf("1e-7")
        return mpmath.findroot(dm_dbeta, (beta - step, beta + step), solver="anderson")
