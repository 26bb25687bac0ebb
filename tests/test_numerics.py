"""Root finding, scalar minimization and Lambert W checks.

The Lambert W implementation is compared against scipy's on both real
branches, except in a tiny neighborhood of the branch point x = -1/e where
scipy itself loses digits; there the defining residual w * e^w - x is the
arbiter.
"""

import math

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.special import lambertw as scipy_lambertw

from thzplanner import find_root, lambert_w, minimize_scalar
from thzplanner.numerics import lambert_w_log_lower, min_cost_assignment

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


class TestMinimizeScalar:
    def test_quadratic_interior(self):
        x, fx = minimize_scalar(lambda t: (t - 0.3) ** 2 + 1.0, 0.0, 1.0)
        assert abs(x - 0.3) < 1e-7
        assert abs(fx - 1.0) < 1e-13

    def test_boundary_minimum(self):
        x, fx = minimize_scalar(lambda t: t, 2.0, 5.0)
        assert abs(x - 2.0) < 1e-6
        assert fx == pytest.approx(2.0, abs=1e-6)

    def test_partial_nan_objective(self):
        # nan regions are treated as +inf, the finite valley still wins
        def f(t):
            return float("nan") if t < 0.5 else (t - 0.7) ** 2

        x, _ = minimize_scalar(f, 0.0, 1.0)
        assert abs(x - 0.7) < 1e-6

    def test_all_non_finite_raises(self):
        with pytest.raises(ValueError):
            minimize_scalar(lambda t: float("inf"), 0.0, 1.0)

    def test_deterministic(self):
        def f(t):
            return math.sin(5.0 * t) + 0.1 * t

        a = minimize_scalar(f, 0.0, 3.0)
        b = minimize_scalar(f, 0.0, 3.0)
        assert a == b

    def test_bad_bracket(self):
        with pytest.raises(ValueError):
            minimize_scalar(lambda t: t, 1.0, 1.0)


class TestFindRoot:
    def test_simple_root(self):
        r = find_root(lambda t: t * t - 2.0, 0.0, 2.0, tol=1e-12)
        assert abs(r - math.sqrt(2.0)) < 1e-11

    def test_requires_sign_change(self):
        with pytest.raises(ValueError):
            find_root(lambda t: t * t + 1.0, -1.0, 1.0)

    def test_root_at_endpoint(self):
        r = find_root(lambda t: t, 0.0, 1.0)
        assert abs(r) < 1e-12



class TestMinCostAssignment:
    def test_matches_scipy_on_rectangular_and_tied_costs(self):
        rng = np.random.default_rng(1987)
        for trial in range(200):
            k = int(rng.integers(1, 25))
            cost = rng.normal(size=(k, k + int(rng.integers(0, 6))))
            if trial % 2:
                cost = np.round(cost)  # many equal-cost optima
            cols = min_cost_assignment(cost.tolist())
            assert len(set(cols)) == k
            rows, ref = linear_sum_assignment(cost)
            got = cost[np.arange(k), list(cols)].sum()
            assert got == pytest.approx(cost[rows, ref].sum(), rel=1e-12, abs=1e-12)

    def test_picks_the_off_diagonal_optimum(self):
        assert min_cost_assignment([[4.0, 1.0, 6.0], [2.0, 0.0, 5.0]]) == (1, 0)

    @pytest.mark.parametrize("cost", [[], [[1.0], [2.0]]])
    def test_needs_rows_at_most_columns(self, cost):
        with pytest.raises(ValueError):
            min_cost_assignment(cost)
