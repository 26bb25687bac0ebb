"""Root finding, scalar minimization and Lambert W checks.

The share search's minimizer is compared with the dense scan it replaced,
kept in dense_scan.py: the same bytes where the scan's minimum is an end of
the range, and elsewhere a point no worse.

The Lambert W implementation is compared against scipy's on both real
branches, except in a tiny neighborhood of the branch point x = -1/e where
scipy itself loses digits; there the defining residual w * e^w - x is the
arbiter.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.special import lambertw as scipy_lambertw

from dense_scan import dense_scan_minimize
from thzplanner import lambert_w, minimize_scalar, numerics
from thzplanner.numerics import lambert_w_log, lambert_w_log_lower, min_cost_assignment

BRANCH_POINT = -1.0 / math.e


def residual(w: float, x: float) -> float:
    return abs(w * math.exp(w) - x)


class TestLambertPrincipal:
    def test_exact_anchors(self):
        assert lambert_w(0.0) == 0.0
        assert abs(lambert_w(math.e) - 1.0) < 1e-15
        assert abs(lambert_w(BRANCH_POINT) - (-1.0)) < 1e-7  # sqrt loss at the tip
        assert abs(lambert_w(1.0) - 0.5671432904097838) < 5e-15  # omega constant

    def test_residual_positive_args(self):
        xs = np.logspace(-12.0, 12.0, 2000)
        for x in xs:
            w = lambert_w(float(x))
            assert residual(w, float(x)) <= 1e-12 * max(1.0, x)

    def test_residual_negative_args(self):
        # (-1/e, 0): the shallow side of the principal branch
        xs = -np.logspace(-12.0, math.log10(1.0 / math.e) - 1e-12, 2000)
        for x in xs:
            w = lambert_w(float(x))
            assert residual(w, float(x)) <= 1e-12

    def test_matches_scipy_away_from_branch_point(self):
        xs = np.concatenate([np.logspace(-10, 10, 500), -np.logspace(-10, -1, 300)])
        for x in xs:
            if abs(x - BRANCH_POINT) < 1e-9:
                continue
            mine = lambert_w(float(x))
            ref = float(scipy_lambertw(float(x), 0).real)
            assert mine == pytest.approx(ref, rel=1e-12, abs=1e-300)

    def test_below_branch_point_rejected(self):
        with pytest.raises(ValueError):
            lambert_w(BRANCH_POINT - 1e-6)


class TestLambertLower:
    def test_domain(self):
        with pytest.raises(ValueError):
            lambert_w(0.1, branch=-1)
        with pytest.raises(ValueError):
            lambert_w(0.0, branch=-1)
        with pytest.raises(ValueError):
            lambert_w(BRANCH_POINT - 1e-6, branch=-1)
        with pytest.raises(ValueError):
            lambert_w(-0.1, branch=2)

    def test_residual_over_domain(self):
        xs = -np.logspace(-300.0, math.log10(1.0 / math.e) - 1e-12, 3000)
        for x in xs:
            w = lambert_w(float(x), branch=-1)
            assert w <= -1.0
            assert residual(w, float(x)) <= 1e-12 * max(1.0, abs(x))

    def test_matches_scipy(self):
        xs = -np.logspace(-250.0, -0.5, 400)
        for x in xs:
            mine = lambert_w(float(x), branch=-1)
            ref = float(scipy_lambertw(float(x), -1).real)
            assert mine == pytest.approx(ref, rel=1e-12)

    def test_anchor(self):
        assert abs(lambert_w(BRANCH_POINT, branch=-1) - (-1.0)) < 1e-7
        # W_{-1}(-1/(2e)) has the closed form via w e^w: check residual only
        w = lambert_w(-0.5 / math.e, branch=-1)
        assert residual(w, -0.5 / math.e) < 1e-16


class TestLambertLogLower:
    """Solves w + ln(-w) = q for q too negative to form x = e^q."""

    def test_identity(self):
        for q in (-2.0, -10.0, -100.0, -745.0, -1e4, -1e6, -1e9):
            w = lambert_w_log_lower(q)
            assert w < -1.0
            assert abs((w + math.log(-w)) - q) <= 1e-12 * abs(q)

    def test_agrees_with_direct_branch_where_both_work(self):
        for q in (-5.0, -50.0, -500.0):
            direct = lambert_w(-math.exp(q), branch=-1)
            logform = lambert_w_log_lower(q)
            assert logform == pytest.approx(direct, rel=1e-13)

    def test_rejects_q_above_minus_one(self):
        with pytest.raises(ValueError):
            lambert_w_log_lower(-0.5)


class TestLambertLog:
    """Solves w + ln(w) = q for q too large to form x = e^q."""

    def test_identity(self):
        for q in (1.0 + 1e-12, 1.5, 10.0, 709.0, 710.0, 1e4, 1e9, 1e300):
            w = lambert_w_log(q)
            assert w > 0.0
            assert abs((w + math.log(w)) - q) <= 1e-14 * q

    def test_agrees_with_direct_branch_where_both_work(self):
        for q in (1.5, 5.0, 50.0, 500.0, 709.0):
            direct = lambert_w(math.exp(q))
            assert lambert_w_log(q) == pytest.approx(direct, rel=1e-14)
            assert lambert_w_log(q) == pytest.approx(
                float(scipy_lambertw(math.exp(q)).real), rel=1e-14
            )

    def test_rejects_q_at_or_below_one(self):
        for q in (1.0, 0.0, -5.0):
            with pytest.raises(ValueError):
                lambert_w_log(q)


class TestHalleyStop:
    def test_deep_lower_branch_stops_on_the_step(self, monkeypatch):
        """At x = -1.19e-54 (w about -129) the residual target 1e-14 |x| is
        finer than one ulp of w resolves: the loop must end on its step
        size, not run all 64 iterations."""
        x = -1.1912360612795531e-54
        exps = []

        class CountingMath:
            def __getattr__(self, name):
                return getattr(math, name)

            def exp(self, w):
                exps.append(w)
                return math.exp(w)

        monkeypatch.setattr(numerics, "math", CountingMath())
        w = lambert_w(x, -1)
        assert len(exps) <= 8  # one exp per Halley iteration
        exact = float(mpmath.lambertw(mpmath.mpf(x), -1).real)
        assert abs(w - exact) <= 2.0 * math.ulp(exact)


# single-peaked margins and their slopes (only the sign of the slope
# matters), as minimize_scalar takes them: (margin, margin slope)
POSITIVE = (lambda t: 1.0), (lambda t: 0.0)


def tent(center, half_width):
    """Margin positive on (center - half_width, center + half_width) only."""
    return (lambda t: half_width - abs(t - center)), (lambda t: center - t)


def gated(objective, lo, hi, window):
    """(f, lo, hi, margin, slope, margin slope) from objective = (f, slope)
    and window = (margin, margin slope), with f inf where the margin is not
    positive, as minimize_scalar requires."""
    (f, slope), (margin, margin_slope) = objective, window
    return (lambda t: f(t) if margin(t) > 0.0 else math.inf), lo, hi, margin, slope, margin_slope


def parabola(center):
    """(t - center)^2 and its slope, as minimize_scalar takes it."""
    return (lambda t: (t - center) ** 2), (lambda t, ft: 2.0 * (t - center))


def line(s):
    """s t and its slope."""
    return (lambda t: s * t), (lambda t, ft: s)


# unimodal objectives on margins that are positive on one run
SCAN_CASES = {
    "interior": gated(parabola(0.3), 0.0, 1.0, POSITIVE),
    "run_inside_range": gated(parabola(0.55), 0.0, 1.0, tent(0.5, 0.3)),
    "least_at_run_start": gated(line(1.0), 0.0, 1.0, tent(0.6, 0.25)),
    "least_at_run_end": gated(line(-1.0), 0.0, 1.0, tent(0.6, 0.25)),
    "least_at_range_end": gated(line(-1.0), 2.0, 5.0, tent(5.0, 1.5)),
    # +inf margin plateau (the local share alone meets the target), then
    # -inf past a stability limit
    "infinite_margins": gated(
        parabola(0.45),
        0.0,
        1.0,
        (
            lambda t: math.inf if t < 0.4 else (0.8 - t if t < 0.9 else -math.inf),
            lambda t: 0.0 if t < 0.4 else -1.0,
        ),
    ),
    # a flat bottom: the slope is zero on it
    "flat_bottom": gated(
        (
            lambda t: max(abs(t - 0.5), 0.01),
            lambda t, ft: 0.0 if abs(t - 0.5) < 0.01 else math.copysign(1.0, t - 0.5),
        ),
        0.0,
        1.0,
        POSITIVE,
    ),
    # the objective is non-finite where the margin is not positive
    "nan_outside_run": (
        lambda t: float("nan") if t < 0.5 else (t - 0.7) ** 2,
        0.0,
        1.0,
        lambda t: t - 0.5,
        parabola(0.7)[1],
        lambda t: 1.0,
    ),
    "single_point_run": gated(line(1.0), 0.0, 1.0, tent(512 / 1023, 1e-4)),
    # the least f lies far from the margin peak, near an end of the run
    "peak_right_of_minimum": gated(parabola(0.35), 0.0, 1.0, tent(0.8, 0.5)),
    "peak_left_of_minimum": gated(parabola(0.9), 0.0, 1.0, tent(0.2, 0.75)),
    # the least f lies next to the run's start
    "minimum_next_to_run_start": gated(parabola(0.30015), 0.0, 1.0, tent(0.6, 0.2999)),
    # f falls all the way to the run's end
    "falling_into_run_end": gated(line(-1.0), 0.0, 1.0, tent(0.6, 0.2004)),
}


def counted(f, margin):
    """f, plus a list of the points where it was called on a margin <= 0."""
    outside = []

    def g(t):
        if not margin(t) > 0.0:
            outside.append(t)
        return f(t)

    return g, outside


class TestMinimizeScalar:
    """The root-based search against the dense scan it replaced: the same
    point where the scan's is an end of the range, and a point no worse."""

    @pytest.mark.parametrize("case", sorted(SCAN_CASES))
    def test_matches_dense_scan(self, case):
        f, lo, hi, margin, slope, margin_slope = SCAN_CASES[case]
        probe, outside = counted(f, margin)
        x, fx = minimize_scalar(probe, lo, hi, margin, slope, margin_slope)
        assert outside == []  # f is never asked where the margin rules it out
        ref_x, ref_fx = dense_scan_minimize(f, lo, hi)
        if ref_x in (lo, hi):
            assert repr((x, fx)) == repr((ref_x, ref_fx))
        # no worse, up to what the final bracket of 1e-9 leaves open
        assert fx <= ref_fx + 1e-9 * abs(slope(x, fx)) + 1e-12 * max(abs(ref_fx), 1.0)
        assert fx == f(x)

    def test_quadratic_interior(self):
        x, fx = minimize_scalar(
            lambda t: (t - 0.3) ** 2 + 1.0, 0.0, 1.0, POSITIVE[0], parabola(0.3)[1], POSITIVE[1]
        )
        assert abs(x - 0.3) <= 1e-9
        assert abs(fx - 1.0) < 1e-15

    @pytest.mark.parametrize("center", [0.30015, 0.7123456789])
    def test_lands_on_the_slope_root(self, center):
        f, df = parabola(center)
        x, _ = minimize_scalar(f, 0.0, 1.0, POSITIVE[0], df, POSITIVE[1])
        assert abs(x - center) <= 1e-9

    def test_boundary_minimum(self):
        f, df = line(1.0)
        x, fx = minimize_scalar(f, 2.0, 5.0, POSITIVE[0], df, POSITIVE[1])
        assert (x, fx) == (2.0, 2.0)

    def test_partial_nan_objective(self):
        # nan where the margin is not positive; the valley right of it wins
        def f(t):
            return float("nan") if t < 0.5 else (t - 0.7) ** 2

        x, _ = minimize_scalar(f, 0.0, 1.0, lambda t: t - 0.5, parabola(0.7)[1], lambda t: 1.0)
        assert abs(x - 0.7) < 1e-9

    def test_all_non_finite_raises(self):
        with pytest.raises(ValueError):
            minimize_scalar(
                lambda t: float("inf"), 0.0, 1.0, lambda t: -1.0, line(0.0)[1], POSITIVE[1]
            )

    def test_non_finite_objective_on_the_run_raises(self):
        with pytest.raises(ValueError):
            minimize_scalar(lambda t: float("inf"), 0.0, 1.0, POSITIVE[0], line(0.0)[1], POSITIVE[1])

    def test_probes_logarithmically(self):
        calls = {"f": 0, "margin": 0}

        def f(t):
            calls["f"] += 1
            return (t - 0.55) ** 2

        def margin(t):
            calls["margin"] += 1
            return 0.3 - abs(t - 0.5)

        minimize_scalar(f, 0.0, 1.0, margin, parabola(0.55)[1], lambda t: 0.5 - t)
        # a scan probes all 1,024 points.  The margin's peak, each margin
        # root and the slope's root take one bisection and one secant step
        # each, since all are linear
        assert calls["margin"] <= 20
        assert calls["f"] <= 6

    def test_infinite_objective_next_to_the_run_end(self):
        # as the rate threshold, f is inf where the margin is positive but
        # tiny: the end steps 1e-9 inside instead of bisecting from the peak
        calls = []

        def margin(t):
            calls.append(t)
            return 0.3 - abs(t - 0.5)

        def f(t):
            return -t if margin(t) > 1e-12 else math.inf

        x, fx = minimize_scalar(f, 0.0, 1.0, margin, line(-1.0)[1], lambda t: 0.5 - t)
        assert 0.8 - 2e-9 <= x < 0.8 and fx == -x
        assert len(calls) <= 20

    def test_end_of_the_range_costs_no_probe(self):
        calls = []

        def f(t):
            calls.append(t)
            return 2.0 - t

        x, fx = minimize_scalar(f, 0.0, 1.0, POSITIVE[0], line(-1.0)[1], POSITIVE[1])
        assert (x, fx) == (1.0, 1.0)
        assert calls == [1.0]  # the slope at 1 points out of the range

    def test_window_narrower_than_a_cell(self):
        # the lattice points are i/1023: none lies within 1e-4 of 0.5
        f, lo, hi, margin, slope, margin_slope = gated(
            parabola(0.50005), 0.0, 1.0, tent(0.5, 1e-4)
        )
        probe, outside = counted(f, margin)
        x, _ = minimize_scalar(probe, lo, hi, margin, slope, margin_slope)
        assert x == pytest.approx(0.50005, abs=1e-9)
        assert outside == []
        with pytest.raises(ValueError):
            dense_scan_minimize(f, lo, hi)

    def test_window_that_never_opens_raises(self):
        f, df = line(1.0)
        with pytest.raises(ValueError):
            minimize_scalar(f, 0.0, 1.0, lambda t: -1e-9 - abs(t - 0.5), df, lambda t: 0.5 - t)

    def test_deterministic(self):
        def f(t):
            return math.cosh(t - 1.7) + 0.1 * t

        def df(t, ft):
            return math.sinh(t - 1.7) + 0.1

        a = minimize_scalar(f, 0.0, 3.0, POSITIVE[0], df, POSITIVE[1])
        b = minimize_scalar(f, 0.0, 3.0, POSITIVE[0], df, POSITIVE[1])
        assert a == b
        assert abs(a[0] - (1.7 - math.asinh(0.1))) <= 1e-9

    def test_bad_bracket(self):
        f, df = line(1.0)
        with pytest.raises(ValueError):
            minimize_scalar(f, 1.0, 1.0, POSITIVE[0], df, POSITIVE[1])


class TestFalsePosition:
    def test_brackets_the_root_below_the_tolerance(self):
        calls = []

        def g(t):
            calls.append(t)
            return math.expm1(t) - 0.5

        a, b = numerics._false_position(g, 0.0, g(0.0), 1.0, g(1.0))
        root = math.log1p(0.5)
        assert abs(b - a) <= 1e-9 and min(a, b) <= root <= max(a, b)
        # Illinois halving keeps both ends moving: superlinear, not one-sided
        assert len(calls) <= 12

    def test_one_huge_end(self):
        # a slope that blows up at the run's end, as the rate's does
        def g(t):
            return -1.0 / (1.0 - t) ** 2 + 4.0

        a, b = numerics._false_position(g, 0.0, g(0.0), 1.0 - 1e-9, g(1.0 - 1e-9))
        assert min(a, b) <= 0.5 <= max(a, b) and abs(b - a) <= 1e-9

    def test_pole_next_to_an_end_is_bisected_away(self):
        # g(a) is about -1e18, so each secant lands next to b and moves it
        # by a sliver; unguarded, Illinois false position takes 68 probes
        calls = []

        def g(t):
            calls.append(t)
            return 1.0 - 1e-6 / t**2

        a, b = numerics._false_position(g, 1e-12, g(1e-12), 1.0, g(1.0))
        assert min(a, b) <= 1e-3 <= max(a, b) and abs(b - a) <= 1e-9
        assert len(calls) - 2 <= 24

    def test_non_finite_end(self):
        def g(t):
            return -math.inf if t < 0.2 else t * t - 0.1

        a, b = numerics._false_position(g, 0.0, -math.inf, 1.0, 0.9)
        assert min(a, b) <= math.sqrt(0.1) <= max(a, b) and abs(b - a) <= 1e-9
        assert g(a) <= 0.0 <= g(b)


def certificate_miss(cost, cols, u, v):
    """Largest breach of the LP-duality conditions min_cost_assignment states."""
    return max(
        max(u[i] + v[j] - c for i, row in enumerate(cost) for j, c in enumerate(row)),
        max(abs(u[i] + v[j] - cost[i][j]) for i, j in enumerate(cols)),
        max(x if j in cols else abs(x) for j, x in enumerate(v)),
    )


class TestMinCostAssignment:
    def test_matches_scipy_on_rectangular_and_tied_costs(self):
        rng = np.random.default_rng(1987)
        for trial in range(200):
            k = int(rng.integers(1, 25))
            cost = rng.normal(size=(k, k + int(rng.integers(0, 6))))
            if trial % 2:
                cost = np.round(cost)  # many equal-cost optima
            cols = min_cost_assignment(cost.tolist())[0]
            assert len(set(cols)) == k
            rows, ref = linear_sum_assignment(cost)
            got = cost[np.arange(k), list(cols)].sum()
            assert got == pytest.approx(cost[rows, ref].sum(), rel=1e-12, abs=1e-12)

    def test_potentials_certify_the_optimum(self):
        rng = np.random.default_rng(2009)
        for trial in range(600):
            k = int(rng.integers(1, 13))
            m = int(rng.integers(k, 41))
            cost = rng.normal(scale=10.0 ** rng.uniform(-3, 6), size=(k, m))
            if trial % 3 == 1:
                cost = np.round(cost)  # many equal-cost optima
            elif trial % 3 == 2:
                cost = rng.integers(0, 3, size=(k, m)).astype(float)  # ties everywhere
            cols, u, v = min_cost_assignment(cost.tolist())
            assert len(u) == k and len(v) == m and len(set(cols)) == k
            scale = max(np.abs(cost).max(), 1e-300)
            assert certificate_miss(cost.tolist(), cols, u, v) <= 1e-12 * scale, trial
            rows, ref = linear_sum_assignment(cost)
            best = cost[rows, ref].sum()
            got = cost[np.arange(k), list(cols)].sum()
            assert got == pytest.approx(best, rel=1e-12, abs=1e-12 * scale)
            # weak duality: the potentials bound every assignment from below
            assert math.fsum(u) + math.fsum(v) == pytest.approx(best, rel=1e-12, abs=1e-12 * scale)

    def test_certificate_catches_a_suboptimal_pair(self):
        cost = [[4.0, 1.0, 6.0], [2.0, 0.0, 5.0]]
        cols, u, v = min_cost_assignment(cost)
        assert certificate_miss(cost, cols, u, v) == 0.0
        assert certificate_miss(cost, cols[::-1], u, v) > 0.0

    def test_picks_the_off_diagonal_optimum(self):
        assert min_cost_assignment([[4.0, 1.0, 6.0], [2.0, 0.0, 5.0]])[0] == (1, 0)

    @pytest.mark.parametrize("cost", [[], [[1.0], [2.0]]])
    def test_needs_rows_at_most_columns(self, cost):
        with pytest.raises(ValueError):
            min_cost_assignment(cost)

    @pytest.mark.parametrize("bad", [-math.inf, math.inf, math.nan])
    def test_needs_finite_costs(self, bad):
        # many infinite costs would otherwise send the path search round forever
        cost = [[bad, -1.0, bad], [bad, bad, -2.0], [-3.0, bad, bad]]
        with pytest.raises(ValueError, match="finite"):
            min_cost_assignment(cost)
