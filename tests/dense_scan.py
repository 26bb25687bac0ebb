"""Dense-scan reference for the share search.

The planner's `minimize_scalar` finds the lattice argmin by bracketing and
then solves for the root of the objective's slope.  This module keeps the
search both steps replaced: it probes every one of the 1,024 lattice
points and then refines by golden section on the argmin's two cells, to a
bracket of 1e-8.  The tests compare the lattice argmin with it bit for bit
(`scan_index`).  The refined point cannot match bit for bit, because the
two refinements probe different shares; `assert_share_search_gate` holds
the share search to its gate instead.
"""

import math

from thzplanner import InfeasibleError, numerics, optimizer, rate_threshold_oracle

SAMPLES = 1024
TOL = 1e-8
# the bisection oracle stops at a bracket 1e-12 wide, relative
ORACLE_RTOL = 1e-12


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


def dense_scan_search(f, lo, hi):
    """(lattice argmin, x, f(x)) from a scan of every lattice point plus
    golden section on the argmin's two cells."""
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
    return best_i, best_x, best_v


def dense_scan_minimize(f, lo, hi, margin=None, slope=None):
    """(x, f(x)) of `dense_scan_search`.

    Takes (and ignores) the margin and the slope so that it can stand in
    for `numerics.minimize_scalar`.
    """
    return dense_scan_search(f, lo, hi)[1:]


def share_search(scenario, k, dense=False):
    """(outcome, lattice argmin) of minimize_rate_threshold for user k.

    The outcome is (beta, rate) or "infeasible"; with dense=True it comes
    from the dense scan.  The lattice argmin is None where the search
    returned before reaching the lattice.
    """
    seen = []
    saved_search, saved_argmin = optimizer.minimize_scalar, numerics._lattice_argmin

    def dense_search(f, lo, hi, margin, slope):
        best_i, x, v = dense_scan_search(f, lo, hi)
        seen.append(best_i)
        return x, v

    def recording_argmin(key, n):
        seen.append(saved_argmin(key, n))
        return seen[-1]

    if dense:
        optimizer.minimize_scalar = dense_search
    else:
        numerics._lattice_argmin = recording_argmin
    try:
        outcome = optimizer.minimize_rate_threshold(scenario, k)
    except InfeasibleError:
        outcome = "infeasible"
    finally:
        optimizer.minimize_scalar, numerics._lattice_argmin = saved_search, saved_argmin
    return outcome, seen[0] if seen else None


def share_search_outcome(scenario, k, dense=False):
    """minimize_rate_threshold's (beta, rate) for user k, or "infeasible";
    with dense=True, under the dense scan."""
    return share_search(scenario, k, dense)[0]


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

    The same lattice argmin and the same verdict.  Where the dense scan
    plans full offload (or no link), the same bytes.  Elsewhere the share
    is no worse: its rate, by the bisection oracle, exceeds the rate of the
    dense scan's share by at most the oracle's own resolution.  The closed
    form's rates are not compared directly: where its `sup - edge_target`
    cancels, they scatter by up to about 1e-10 relative from share to
    share, and the golden section's best probe partly records that scatter.
    """
    got, got_i = share_search(scenario, k)
    ref, ref_i = share_search(scenario, k, dense=True)
    if ref == "infeasible":
        assert got == ref, (scenario, k, got)
        return got
    assert got != "infeasible" and got_i == ref_i, (scenario, k, got, ref)
    if ref[0] == 1.0 or ref[1] == 0.0:
        assert repr(got) == repr(ref), (scenario, k)
        return got
    got_oracle, ref_oracle = oracle_rate(scenario, k, got[0]), oracle_rate(scenario, k, ref[0])
    assert got_oracle <= ref_oracle * (1.0 + 2.0 * ORACLE_RTOL), (scenario, k, got, ref)
    return got
