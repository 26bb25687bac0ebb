"""Dense-scan reference for the share search.

The planner's `minimize_scalar` finds the lattice argmin by bracketing.
This module keeps the search it replaced, which probes every one of the
1,024 lattice points and then runs the same golden-section refinement, as
the oracle the tests compare against bit for bit.
"""

import math

from thzplanner import InfeasibleError, optimizer

SAMPLES = 1024
TOL = 1e-8


def lattice(lo, hi):
    """The lattice points of [lo, hi], exactly as the search computes them."""
    step = (hi - lo) / (SAMPLES - 1)
    return [lo + i * step if i < SAMPLES - 1 else hi for i in range(SAMPLES)]


def scan_index(f, lo, hi):
    """First lattice index of the least finite f (nan counts as inf), or None."""
    best_i, best_v = None, math.inf
    for i, x in enumerate(lattice(lo, hi)):
        v = f(x)
        if v < best_v:  # nan compares false
            best_i, best_v = i, v
    return best_i


def dense_scan_minimize(f, lo, hi, margin=None):
    """(x, f(x)) from a scan of every lattice point plus golden section.

    Takes (and ignores) the margin so that it can stand in for
    `numerics.minimize_scalar`.
    """
    if not lo < hi:
        raise ValueError("need lo < hi")

    def _eval(x):
        v = f(x)
        return v if v == v else math.inf

    best_i = scan_index(_eval, lo, hi)
    if best_i is None:
        raise ValueError("objective is non-finite everywhere on the grid")
    n = SAMPLES
    step = (hi - lo) / (n - 1)
    best_x = lattice(lo, hi)[best_i]
    best_v = _eval(best_x)

    a = lo + (best_i - 1) * step if best_i > 0 else lo
    b = lo + (best_i + 1) * step if best_i < n - 1 else hi
    a = max(a, lo)
    b = min(b, hi)

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
