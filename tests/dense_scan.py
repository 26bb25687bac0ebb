"""Dense-scan reference for the share search.

The planner's `minimize_scalar` finds the share from roots: of the
ceiling outage's slope, of the margin and of the rate's slope.  This module
keeps the search those roots replaced: it probes every one of 1,024
evenly spaced shares and then refines by golden section on the best
share's two cells, to a bracket of 1e-8.  The two searches probe different
shares, so their outcomes cannot match bit for bit except where both plan
full offload or no link; `assert_share_search_gate` holds the share search
to its gate instead.
"""

import math

from thzplanner import InfeasibleError, optimizer, rate_threshold_oracle

SAMPLES = 1024
TOL = 1e-8
# the bisection oracle stops at a bracket 1e-12 wide, relative
ORACLE_RTOL = 1e-12


def lattice(lo, hi):
    """The dense scan's SAMPLES evenly spaced points of [lo, hi]."""
    step = (hi - lo) / (SAMPLES - 1)
    return [lo + i * step if i < SAMPLES - 1 else hi for i in range(SAMPLES)]


def dense_scan_minimize(f, lo, hi, *unused):
    """(x, f(x)) from a scan of every lattice point plus golden section on
    the best point's two cells.

    Ignores any further arguments (the margin and the slopes), so that it
    can stand in for `numerics.minimize_scalar`.
    """
    if not lo < hi:
        raise ValueError("need lo < hi")

    def _eval(x):
        v = f(x)
        return v if v == v else math.inf

    points = lattice(lo, hi)
    best_i, best_v = None, math.inf
    for i, x in enumerate(points):
        v = _eval(x)
        if v < best_v:
            best_i, best_v = i, v
    if best_i is None:
        raise ValueError("objective is non-finite everywhere on the grid")
    best_x = points[best_i]
    step = (hi - lo) / (SAMPLES - 1)
    a = lo + (best_i - 1) * step if best_i > 0 else lo
    b = min(lo + (best_i + 1) * step, hi) if best_i < SAMPLES - 1 else hi

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = _eval(c)
    fd = _eval(d)
    for _ in range(512):
        if (b - a) <= TOL:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = _eval(c)
            x, v = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = _eval(d)
            x, v = d, fd
        if v < best_v:
            best_v, best_x = v, x
    return best_x, best_v


def share_search_outcome(scenario, k, dense=False):
    """minimize_rate_threshold's (beta, rate) for user k, or "infeasible";
    with dense=True, under the dense scan."""
    saved = optimizer.minimize_scalar
    if dense:
        optimizer.minimize_scalar = dense_scan_minimize
    try:
        return optimizer.minimize_rate_threshold(scenario, k)
    except InfeasibleError:
        return "infeasible"
    finally:
        optimizer.minimize_scalar = saved


def oracle_rate(scenario, k, beta):
    """The bisection oracle's rate at share beta (inf above its 1e15 cap)."""
    s = scenario
    try:
        return rate_threshold_oracle(s.users[k], s.task, s.edge, s.qos, beta)
    except InfeasibleError:
        return math.inf


def assert_share_search_gate(scenario, k):
    """The share search against the dense scan, for user k; returns the
    search's outcome.

    The same verdict.  Where the dense scan plans full offload (or no
    link), the same bytes.  Elsewhere the share is no worse: its rate, by
    the bisection oracle, exceeds the rate of the dense scan's share by at
    most the oracle's own resolution.
    """
    got = share_search_outcome(scenario, k)
    ref = share_search_outcome(scenario, k, dense=True)
    if ref == "infeasible":
        assert got == ref, (scenario, k, got)
        return got
    assert got != "infeasible", (scenario, k, got, ref)
    if ref[0] == 1.0 or ref[1] == 0.0:
        assert repr(got) == repr(ref), (scenario, k)
        return got
    got_oracle, ref_oracle = oracle_rate(scenario, k, got[0]), oracle_rate(scenario, k, ref[0])
    assert got_oracle <= ref_oracle * (1.0 + 2.0 * ORACLE_RTOL), (scenario, k, got, ref)
    return got
