"""Numerical kernels: Lambert W, bracketed minimization, bisection, assignment.

The minimizer finds a lattice argmin by Fibonacci search and then solves
for the root of the objective's slope by Illinois false position: a root
of the slope is well conditioned where the flat minimum itself is not.

Everything here is dependency-free on purpose.  The planner inverts its
link-budget and queueing expressions through these routines, and keeping
them in plain Python makes the closed forms easy to audit against the
independent oracles used in the test suite.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence, Tuple

_E = math.e
_INV_E = math.exp(-1.0)
_MAX_HALLEY_ITER = 64
# minimize_scalar: lattice points, margin-peak bracket width, slope-root
# bracket width, false-position step cap
_LATTICE_POINTS = 1024
_MINIMIZE_TOL = 1e-8
_ROOT_TOL = 1e-9
_MAX_FALSE_POSITION_ITER = 200
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi


def _halley_w(x: float, w: float) -> float:
    """Polish an initial guess for W(x) with Halley's iteration.

    Converges cubically.  The residual target scales with |x| (not with
    max(1, |x|)): on the lower branch w * exp(w) is itself tiny, and an
    absolute target would accept the unpolished seed.  That target can lie
    below what one ulp of w resolves (lower branch, |w| of about 100 and
    more), so the loop also ends once a step is at most a few ulps of w,
    where w would only stay put or flip between neighbouring doubles.
    """
    target = 1e-14 * max(abs(x), 1e-308)
    for _ in range(_MAX_HALLEY_ITER):
        ew = math.exp(w)
        err = w * ew - x
        if abs(err) <= target:
            break
        wp1 = w + 1.0
        if wp1 == 0.0:
            # sitting exactly on the branch point; nudge off it
            w += 1e-12
            continue
        denom = ew * wp1 - (w + 2.0) * err / (2.0 * wp1)
        if denom == 0.0:
            break
        step = err / denom
        w -= step
        if abs(step) <= 4.0 * math.ulp(w):
            break
    return w


def lambert_w(x: float, branch: int = 0) -> float:
    """Real Lambert W: the solution w of w * exp(w) = x.

    branch 0 is the principal branch (w >= -1, defined for x >= -1/e);
    branch -1 is the lower branch (w <= -1, defined for -1/e <= x < 0).
    Raises ValueError outside the branch domain.
    """
    if branch not in (0, -1):
        raise ValueError("branch must be 0 or -1")
    if x != x:
        raise ValueError("lambert_w argument is NaN")
    # the branches mirror each other through sign: the seeds take the
    # positive or negative root, and the asymptotic seed takes over from the
    # branch-point one above e (x -> inf) or above -0.275 (x -> 0-)
    sign, asymptotic_above = (1.0, _E) if branch == 0 else (-1.0, -0.275)
    if branch == -1 and x >= 0.0:
        raise ValueError(f"lambert_w branch -1 needs x < 0, got {x!r}")
    if x < -_INV_E:
        # tolerate rounding right at the branch point
        if x < -_INV_E - 1e-15 * _INV_E:
            raise ValueError(f"lambert_w branch {branch} needs x >= -1/e, got {x!r}")
        x = -_INV_E
    if x == 0.0:
        return 0.0
    if x > asymptotic_above:
        l1 = math.log(sign * x)
        l2 = math.log(sign * l1)
        w = l1 - l2 + l2 / l1
    else:
        # branch-point expansion seed, exact at x = -1/e
        p = sign * math.sqrt(max(0.0, 2.0 * (_E * x + 1.0)))
        w = -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0)))
    w = _halley_w(x, w)
    return w if branch == 0 else min(w, -1.0)


def _newton_log(q: float) -> float:
    """Newton's root of w + log|w| = q from the seed q - log|q|.

    The root is W0(exp(q)) for q > 1 and W_{-1}(-exp(q)) for q < -1, found
    without ever forming exp(q).
    """
    w = q - math.log(abs(q))
    for _ in range(_MAX_HALLEY_ITER):
        dfdw = 1.0 + 1.0 / w
        if dfdw == 0.0:
            break
        step = (w + math.log(abs(w)) - q) / dfdw
        w -= step
        if abs(step) <= 1e-15 * abs(w):
            break
    return w


def lambert_w_log_lower(q: float) -> float:
    """Lower-branch Lambert W evaluated from log-domain input.

    Solves w + log(-w) = q for w <= -1, which is W_{-1}(-exp(q)) without
    ever forming exp(q).  Used when the argument of W would underflow, i.e.
    q far below log(1/e) = -1.  Requires q <= -1.
    """
    if q > -1.0:
        raise ValueError("lambert_w_log_lower needs q <= -1")
    if q == -1.0:
        return -1.0
    return min(_newton_log(q), -1.0)


def lambert_w_log(q: float) -> float:
    """Principal-branch Lambert W evaluated from log-domain input.

    Solves w + log(w) = q for w > 0, which is W0(exp(q)) without ever
    forming exp(q).  Used when the argument of W would overflow.  Requires
    q > 1, where the Newton iteration from w = q - log(q) (below the root:
    the map is concave and increasing) overshoots once and then descends
    monotonically.
    """
    if not q > 1.0:
        raise ValueError("lambert_w_log needs q > 1")
    return _newton_log(q)


def _golden(
    f: Callable[[float], float], a: float, b: float, best_x: float, best_v: float
) -> Tuple[float, float]:
    """Golden-section search on [a, b] until it is narrower than _MINIMIZE_TOL.

    Returns the best (x, f(x)) among (best_x, best_v) and the probes made
    after the first pair; the first pair only steers.
    """
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = f(c)
    fd = f(d)
    for _ in range(512):
        if (b - a) <= _MINIMIZE_TOL:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
            x, v = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
            x, v = d, fd
        if v < best_v:
            best_v, best_x = v, x
    return best_x, best_v


def _false_position(
    g: Callable[[float], float], a: float, ga: float, b: float, gb: float
) -> Tuple[float, float]:
    """Illinois false position (Dowell & Jarratt 1971) on g's sign change.

    ga = g(a) and gb = g(b) must be nonzero and of opposite signs.  Each
    step probes the secant's zero and keeps the end across which g changes
    sign; an end kept twice in a row has its value halved, which stops the
    one-sided creep of plain false position.  Returns the last bracket, at
    most _ROOT_TOL wide (or (c, c) at an exact zero c); g was evaluated at
    both its ends.
    """
    kept = 0  # 1: b was kept by the last step, -1: a was
    for _ in range(_MAX_FALSE_POSITION_ITER):
        if abs(b - a) <= _ROOT_TOL:
            break
        c = b - gb * (b - a) / (gb - ga)
        if not min(a, b) < c < max(a, b):
            c = 0.5 * (a + b)  # the secant rounded onto an end
            if c in (a, b):
                break
        gc = g(c)
        if gc == 0.0:
            return c, c
        if (gc < 0.0) == (ga < 0.0):
            a, ga = c, gc
            if kept == 1:
                gb *= 0.5
            kept = 1
        else:
            b, gb = c, gc
            if kept == -1:
                ga *= 0.5
            kept = -1
    return a, b


def _lattice_argmin(key: Callable[[int], Tuple[float, float]], n: int) -> int:
    """First index of the least key(i) over 0 <= i < n, by Fibonacci search.

    key must fall and then rise; equal keys may sit only at the bottom or
    on the rise.  Indices past n - 1 rank worst, so the open interval can
    have a Fibonacci length, and every step after the first probes one new
    index (key should cache).  Ties go to the lower index.
    """
    fib = [1, 2]
    while fib[-1] <= n:
        fib.append(fib[-1] + fib[-2])
    a = -1  # the answer lies in the open interval (a, a + fib[k])

    def at(i: int) -> Tuple[float, float]:
        return key(i) if i < n else (math.inf, math.inf)

    for k in range(len(fib) - 1, 1, -1):
        c, d = a + fib[k - 2], a + fib[k - 1]
        if at(c) > at(d):
            a = c  # keep (c, a + fib[k]); else keep (a, d)
    return a + 1


def minimize_scalar(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    margin: Callable[[float], float],
    slope: Callable[[float, float], float],
) -> Tuple[float, float]:
    """Minimize f where margin > 0 on [lo, hi]: lattice search, then the root
    of f's slope.

    f is inf (or nan) where margin(x) <= 0, and may be inf where the
    margin is positive but small; elsewhere it is finite.  slope(x, f(x))
    is f's derivative at x, asked for only where f(x) is finite; only its
    sign and its zero matter.  On the lattice of _LATTICE_POINTS evenly
    spaced points the margin must have a single peak, and f no interior
    local maximum on the run where the margin is positive.  Then:

    1. one Fibonacci search of the whole lattice finds the first least key,
       (f, 0) where the margin is positive and f finite and (inf, -margin)
       elsewhere: the key falls towards the run from either side, and f is
       never evaluated where the margin is not positive;
    2. the slope at that point says on which side f falls.  If that side
       is past lo or hi, the point is the minimum.  Otherwise the side's
       neighbour bounds a bracket; where the run ends inside that cell, the
       bracket ends at the run's last point, found by bisection (to
       _ROOT_TOL) on the margin and f's finiteness;
    3. where the slope changes sign across the bracket, Illinois false
       position narrows it below _ROOT_TOL, and the end with the smaller
       slope is the minimum.  Where it does not, f falls all the way to
       the bracket's end, and the lower of the two points wins.

    f is therefore never evaluated where the margin is not positive.  When
    no lattice point has a positive margin, the argmin is the margin's
    lattice peak: the margin is maximized on its two cells by golden
    section (margin probes only), and if the maximum clears 0, steps 2-3
    run from there.  Returns (x, f(x)) for a point actually evaluated, so
    the reported value is exact.  Raises ValueError when f is non-finite
    everywhere.  Deterministic for identical inputs.
    """
    if not lo < hi:
        raise ValueError("need lo < hi")

    # each point is evaluated once: the steps revisit points
    @functools.cache
    def value_of(x: float) -> float:
        v = f(x)
        return v if v == v else math.inf

    @functools.cache
    def room_of(x: float) -> float:
        g = margin(x)
        return g if g == g else -math.inf

    n = _LATTICE_POINTS
    step = (hi - lo) / (n - 1)

    def point(i: int) -> float:
        return lo + i * step if i < n - 1 else hi

    def rank(i: int) -> Tuple[float, float]:
        room = room_of(point(i))
        v = value_of(point(i)) if room > 0.0 else math.inf
        return (v, 0.0) if v < math.inf else (v, -room)

    def usable(x: float) -> bool:
        return room_of(x) > 0.0 and value_of(x) < math.inf

    @functools.cache
    def slope_at(x: float) -> float:
        return slope(x, value_of(x))

    def descend(x: float, a: float, b: float) -> Tuple[float, float]:
        """Steps 2-3 from the point x of the cells [a, b]."""
        if not usable(x):
            return x, value_of(x)
        s = slope_at(x)
        end = b if s < 0.0 else a
        if s == 0.0 or end == x:
            return x, value_of(x)
        inside = x
        while not usable(end) and abs(end - inside) > _ROOT_TOL:
            mid = 0.5 * (inside + end)
            if mid in (inside, end):
                break
            if usable(mid):
                inside = mid
            else:
                end = mid
        if not usable(end):
            end = inside
        s_end = slope_at(end)
        if s_end == 0.0 or (s_end < 0.0) == (s < 0.0):
            # no sign change: f falls all the way to the run's end
            return min((end, value_of(end)), (x, value_of(x)), key=lambda p: p[1])
        root = min(_false_position(slope_at, x, s, end, s_end), key=lambda e: abs(slope_at(e)))
        return root, value_of(root)

    best_i = _lattice_argmin(rank, n)
    a = point(best_i - 1) if best_i > 0 else lo
    b = point(best_i + 1) if best_i < n - 1 else hi
    if room_of(point(best_i)) <= 0.0:
        # best_i is the margin's lattice peak, and any window where the
        # margin clears 0 lies in the peak's two cells
        x_top, low = _golden(lambda x: -room_of(x), a, b, point(best_i), -room_of(point(best_i)))
        if not low < 0.0:
            raise ValueError("margin is nowhere positive")
        return descend(x_top, a, b)
    if not value_of(point(best_i)) < math.inf:
        raise ValueError("objective is non-finite everywhere on the feasible run")
    return descend(point(best_i), a, b)


def find_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-10,
) -> float:
    """Bisection root of f on [lo, hi]; endpoints must bracket a sign change."""
    if not lo < hi:
        raise ValueError("need lo < hi")
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise ValueError("f(lo) and f(hi) must differ in sign")
    while (hi - lo) > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # interval at floating-point resolution
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def min_cost_assignment(cost: Sequence[Sequence[float]]) -> Tuple[int, ...]:
    """Distinct column for each row of a K x M cost matrix (K <= M), least total.

    Hungarian method in shortest-augmenting-path form (Kuhn 1955; Jonker &
    Volgenant 1987): each row joins along the cheapest path in reduced
    costs, O(K^2 M) in all.  Costs must be finite: an infinite one would
    keep the path search from ever reaching a free column.
    """
    k = len(cost)
    m = len(cost[0]) if k else 0
    if not 0 < k <= m:
        raise ValueError(f"need 1 <= rows <= columns, got {k} x {m}")
    if not all(all(map(math.isfinite, row)) for row in cost):
        raise ValueError("assignment costs must be finite")
    u = [0.0] * (k + 1)  # row potentials, 1-based; index 0 unused
    v = [0.0] * (m + 1)  # column potentials; column 0 is the path root
    row_of = [0] * (m + 1)  # 1-based row holding each column, 0 when free
    way = [0] * (m + 1)
    for i in range(1, k + 1):
        row_of[0] = i
        j0 = 0
        slack = [math.inf] * (m + 1)
        used = [False] * (m + 1)
        while row_of[j0]:
            used[j0] = True
            i0 = row_of[j0]
            delta, j1 = math.inf, 0
            for j in range(1, m + 1):
                if not used[j]:
                    cur = cost[i0 - 1][j - 1] - u[i0] - v[j]
                    if cur < slack[j]:
                        slack[j], way[j] = cur, j0
                    if slack[j] < delta:
                        delta, j1 = slack[j], j
            for j in range(m + 1):
                if used[j]:
                    u[row_of[j]] += delta
                    v[j] -= delta
                else:
                    slack[j] -= delta
            j0 = j1
        while j0:  # flip the augmenting path back to the root
            row_of[j0] = row_of[way[j0]]
            j0 = way[j0]
    col_of = {row_of[j]: j - 1 for j in range(1, m + 1)}
    return tuple(col_of[i] for i in range(1, k + 1))
