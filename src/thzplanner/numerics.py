"""Numerical kernels: Lambert W, bracketed roots and minimization, assignment.

The minimizer scans nothing.  It finds a feasible point at the root of
the margin's slope, the feasible run's ends as roots of the margin, and
the minimum as the root of the objective's slope: a root of the slope is
well conditioned where the flat minimum itself is not.  One safeguarded
Illinois false position finds all three roots, and it is the package's
only bracketed root finder: the channel's attenuation crossover uses it
too.

Everything here is dependency-free on purpose.  The planner inverts its
link-budget and queueing expressions through these routines, and keeping
them in plain Python makes the closed forms easy to audit against the
independent oracles used in the test suite.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence, Tuple

_E = math.e
_INV_E = math.exp(-1.0)
_MAX_HALLEY_ITER = 64
# false position: bracket width it stops at, step cap
_ROOT_TOL = 1e-9
_MAX_FALSE_POSITION_ITER = 200


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


def _false_position(
    g: Callable[[float], float], a: float, ga: float, b: float, gb: float
) -> Tuple[float, float]:
    """Safeguarded Illinois false position (Dowell & Jarratt 1971) on g's
    sign change.

    ga = g(a) and gb = g(b) must be of opposite signs, ga nonzero.  Each
    step probes the secant's zero and keeps the end across which g changes
    sign; an end kept twice in a row has its value halved, which stops the
    one-sided creep of plain false position.  A step bisects instead where
    an end's value is not finite, or where the last two steps did not halve
    the bracket (next to a pole of g); the first time the secant rounds
    onto an end, it probes that end's neighbour instead.  Returns the last
    bracket (a, b), at most _ROOT_TOL wide (or (c, c) at an exact zero c),
    with g of ga's sign at a; g was evaluated at both ends.
    """
    kept = 0  # 1: b was kept by the last step, -1: a was
    nudged = False
    # the bracket's width two steps ago and one step ago; the start counts
    # for both, so the first step bisects
    before = [abs(b - a)] * 2
    for _ in range(_MAX_FALSE_POSITION_ITER):
        width = abs(b - a)
        if width <= _ROOT_TOL:
            break
        c = b - gb * (b - a) / (gb - ga)
        if c in (a, b) and not nudged and width <= 0.5 * before[0]:
            # the secant puts the zero within an ulp of that end: probe the
            # double next to it, which closes the bracket where g is about
            # linear.  Once: where it does not, later secants are no better
            nudged = True
            c = math.nextafter(c, a if c == b else b)
        elif width > 0.5 * before[0] or not min(a, b) < c < max(a, b):
            c = 0.5 * (a + b)  # also where the secant is nan
            if c in (a, b):
                break
        before = [before[1], width]
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


def _memo(fn: Callable[[float], float]) -> Callable[[float], float]:
    """fn, evaluated once per point; cheaper to build than functools.cache."""
    seen = {}

    def at(x: float) -> float:
        if x not in seen:
            seen[x] = fn(x)
        return seen[x]

    return at


def minimize_scalar(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    margin: Callable[[float], float],
    slope: Callable[[float, float], float],
    margin_slope: Callable[[float], float],
) -> Tuple[float, float]:
    """Minimize f where margin > 0 on [lo, hi] from roots; nothing is scanned.

    margin_slope is the margin's derivative, or anything of its sign: > 0
    left of the margin's single peak, < 0 right of it, and 0 or either sign
    on a peak plateau.  So the margin is positive on one run.  f is inf (or
    nan) where margin(x) <= 0, may be inf where the margin is positive but
    small, and has no interior local maximum on the run.  slope(x, f(x)) is
    f's derivative, asked for only where f(x) is finite; only its sign and
    its zero matter.  Then:

    1. hi is the minimum where f is finite there and falls (slope <= 0);
    2. a run point where f is finite: hi, lo, or else the margin's peak;
    3. the run's ends: lo or hi where their margin is positive, else the
       margin's root between them and the run point, moved (by one
       tolerance, then by a root of the sign of "margin positive and f
       finite") to the last point towards them where f is finite;
    4. an end if f rises from it (a) or falls into it (b), else the root of
       f's slope: the end of its last bracket with the smaller slope.

    Each root is one _false_position, to _ROOT_TOL.  f is never evaluated
    where the margin is not positive.  Returns (x, f(x)) for a point
    actually evaluated, so the value is exact.  Raises ValueError when no
    point has a positive margin and a finite f.
    """
    if not lo < hi:
        raise ValueError("need lo < hi")

    # each point is evaluated once: the steps revisit points; nan counts as inf
    value_of = _memo(lambda x: v if (v := f(x)) == v else math.inf)
    slope_at = _memo(lambda x: slope(x, value_of(x)))
    margin_at = _memo(margin)
    margin_slope_at = _memo(margin_slope)

    def usable(x: float) -> bool:
        return margin_at(x) > 0.0 and value_of(x) < math.inf

    if usable(hi) and slope_at(hi) <= 0.0:
        return hi, value_of(hi)
    inside = next((x for x in (hi, lo) if usable(x)), None)
    if inside is None:
        s_lo, s_hi = margin_slope_at(lo), margin_slope_at(hi)
        if s_lo > 0.0 > s_hi:
            peak = _false_position(margin_slope_at, lo, s_lo, hi, s_hi)
            inside = min(peak, key=lambda x: abs(margin_slope_at(x)))
        if inside is None or not usable(inside):
            raise ValueError("no point has a positive margin and a finite objective")

    def run_end(end: float) -> float:
        """The run's last point towards end where f is finite."""
        if margin_at(end) < 0.0:
            end = _false_position(margin_at, inside, margin_at(inside), end, margin_at(end))[0]
        if not usable(end) and abs(end - inside) > _ROOT_TOL:
            # f is inf next to the margin's root: one tolerance in, it rarely is
            end += math.copysign(_ROOT_TOL, inside - end)
        if usable(end):
            return end
        return _false_position(lambda x: 1.0 if usable(x) else -1.0, inside, 1.0, end, -1.0)[0]

    a, b = run_end(lo), run_end(hi)
    s_a, s_b = slope_at(a), slope_at(b)
    if s_a >= 0.0:
        return a, value_of(a)
    if s_b <= 0.0:
        return b, value_of(b)
    x = min(_false_position(slope_at, a, s_a, b, s_b), key=lambda e: abs(slope_at(e)))
    return x, value_of(x)


def min_cost_assignment(
    cost: Sequence[Sequence[float]],
) -> Tuple[Tuple[int, ...], Tuple[float, ...], Tuple[float, ...]]:
    """Distinct column for each row of a K x M cost matrix (K <= M), least total.

    Hungarian method in shortest-augmenting-path form (Kuhn 1955; Jonker &
    Volgenant 1987): each row joins along the cheapest path in reduced
    costs, O(K^2 M) in all.  Costs must be finite: an infinite one would
    keep the path search from ever reaching a free column.

    Returns (columns, u, v).  The row and column potentials u, v solve the
    dual LP and so certify the optimum (Burkard, Dell'Amico & Martello 2009,
    ch. 4): u_i + v_j <= cost[i][j] on every cell, with equality on the
    assigned pairs, and v_j <= 0, with v_j = 0 on the free columns.
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
    return tuple(col_of[i] for i in range(1, k + 1)), tuple(u[1:]), tuple(v[1:])
