"""Numerical kernels: Lambert W, bracketed minimization, bisection, assignment.

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


def _halley_w(x: float, w: float) -> float:
    """Polish an initial guess for W(x) with Halley's iteration.

    Converges cubically.  The residual target scales with |x| (not with
    max(1, |x|)): on the lower branch w * exp(w) is itself tiny, and an
    absolute target would accept the unpolished seed.  The step-size break
    ends the loop once double precision saturates.
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
        if abs(step) <= 1e-16 * (1.0 + abs(w)):
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

    if branch == 0:
        if x < -_INV_E:
            # tolerate rounding right at the branch point
            if x < -_INV_E - 1e-15 * _INV_E:
                raise ValueError(f"lambert_w branch 0 needs x >= -1/e, got {x!r}")
            x = -_INV_E
        if x == 0.0:
            return 0.0
        if x <= _E:
            # branch-point expansion seed, exact at x = -1/e
            p = math.sqrt(max(0.0, 2.0 * (_E * x + 1.0)))
            w = -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0)))
        else:
            # asymptotic seed for large arguments
            l1 = math.log(x)
            l2 = math.log(l1)
            w = l1 - l2 + l2 / l1
        return _halley_w(x, w)

    # branch -1
    if x >= 0.0:
        raise ValueError(f"lambert_w branch -1 needs x < 0, got {x!r}")
    if x < -_INV_E:
        if x < -_INV_E - 1e-15 * _INV_E:
            raise ValueError(f"lambert_w branch -1 needs x >= -1/e, got {x!r}")
        x = -_INV_E
    if x > -0.275:
        # asymptotic seed valid as x -> 0-
        l1 = math.log(-x)
        l2 = math.log(-l1)
        w = l1 - l2 + l2 / l1
    else:
        # branch-point expansion with the negative square root
        p = -math.sqrt(max(0.0, 2.0 * (_E * x + 1.0)))
        w = -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0)))
    w = _halley_w(x, w)
    return min(w, -1.0)


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
    # w ~ q - log(-q) for q -> -inf
    w = q - math.log(-q)
    for _ in range(_MAX_HALLEY_ITER):
        err = w + math.log(-w) - q
        dfdw = 1.0 + 1.0 / w
        if dfdw == 0.0:
            break
        step = err / dfdw
        w -= step
        if abs(step) <= 1e-15 * abs(w):
            break
    return min(w, -1.0)


def minimize_scalar(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-8,
    samples: int = 1024,
) -> Tuple[float, float]:
    """Minimize f on [lo, hi]: coarse grid scan, then golden-section refine.

    The grid stage locates the basin (the objectives here can be flat or
    one-sided near a stability boundary), golden section then shrinks the
    bracket below tol.  f may return inf/nan to mark invalid points; those
    are skipped.  Returns (x, f(x)) for the best point actually evaluated,
    so the reported value is exact.  Deterministic for identical inputs.
    """
    if not lo < hi:
        raise ValueError("need lo < hi")
    if samples < 3:
        raise ValueError("need at least 3 grid samples")

    def _eval(x: float) -> float:
        v = f(x)
        return v if v == v else math.inf

    best_x = lo
    best_v = math.inf
    n = samples
    step = (hi - lo) / (n - 1)
    best_i = -1
    for i in range(n):
        x = lo + i * step if i < n - 1 else hi
        v = _eval(x)
        if v < best_v:
            best_v = v
            best_x = x
            best_i = i
    if not math.isfinite(best_v):
        raise ValueError("objective is non-finite everywhere on the grid")

    a = lo + (best_i - 1) * step if best_i > 0 else lo
    b = lo + (best_i + 1) * step if best_i < n - 1 else hi
    a = max(a, lo)
    b = min(b, hi)

    invphi = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = _eval(c)
    fd = _eval(d)
    for _ in range(512):
        if (b - a) <= tol:
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
    costs, O(K^2 M) in all.  Costs must be finite.
    """
    k = len(cost)
    m = len(cost[0]) if k else 0
    if not 0 < k <= m:
        raise ValueError(f"need 1 <= rows <= columns, got {k} x {m}")
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
