"""Channel model: absorption fit, loss, rate, and the distance inversion.

Frozen constants below were computed once with mpmath at 50 digits from the
same seven-term Gaussian coefficients and are trusted as oracles here.
"""

import dataclasses
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

import thzplanner as tp
from thzplanner import (
    DEFAULT_ATTENUATION_FIT,
    FrequencyGrid,
    GaussianFit,
    RadioParams,
    achievable_distance,
    attenuation_crossover,
    attenuation_derivative,
    data_rate,
    distance_matrix,
    gaseous_attenuation,
    link_budget_db,
    path_loss,
    supermodularity_gap,
)
from thzplanner.optimizer import _distances
from thzplanner.scenario_io import load_scenario, scenario_from_dict

# mpmath mp.dps=50 references
GAMMA_100 = 7.3613350774870
GAMMA_150 = 9.28670878638982
GAMMA_190 = 11.177252537486
GAMMA_215 = 12.546354584278
SPREAD_150GHZ_10M = 95.963597367162  # 20 log10(4 pi f d / c)
CROSSOVER_GHZ = 216.56919282753

RADIO = tp.reference_radio()
ZERO_FIT = GaussianFit(terms=((0.0, 500.0, 1.0),) * 7)
ROOT = Path(__file__).resolve().parent.parent


def find_root(f, lo, hi, tol=1e-10):
    """Bisection root of f on [lo, hi]; endpoints must bracket a sign change.

    The independent oracle for the distance inversion: plain bisection,
    sharing no code with the package's false position.
    """
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


def crossover_gap(f):
    """h(f) = f gamma'(f) - gamma(f) on the default fit."""
    fit = DEFAULT_ATTENUATION_FIT
    return f * attenuation_derivative(fit, f) - gaseous_attenuation(fit, f)


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


class TestGaussianFit:
    def test_default_is_seven_terms(self):
        assert len(DEFAULT_ATTENUATION_FIT.terms) == 7

    def test_wrong_term_count_rejected(self):
        with pytest.raises(ValueError):
            GaussianFit(terms=((1.0, 500.0, 1.0),) * 6)

    def test_nonpositive_width_rejected(self):
        with pytest.raises(ValueError):
            GaussianFit(terms=((1.0, 500.0, 1.0),) * 6 + ((1.0, 500.0, 0.0),))


class TestAttenuation:
    def test_frozen_values(self):
        fit = DEFAULT_ATTENUATION_FIT
        assert gaseous_attenuation(fit, 100.0) == pytest.approx(GAMMA_100, rel=1e-12)
        assert gaseous_attenuation(fit, 150.0) == pytest.approx(GAMMA_150, rel=1e-12)
        assert gaseous_attenuation(fit, 190.0) == pytest.approx(GAMMA_190, rel=1e-12)
        assert gaseous_attenuation(fit, 215.0) == pytest.approx(GAMMA_215, rel=1e-12)

    def test_absorption_peak_dominates(self):
        # the 557 GHz water line sits on top of a 9906 dB/km Gaussian term
        assert gaseous_attenuation(DEFAULT_ATTENUATION_FIT, 557.0) > 9906.0

    def test_band_limits(self):
        gaseous_attenuation(DEFAULT_ATTENUATION_FIT, 100.0)
        gaseous_attenuation(DEFAULT_ATTENUATION_FIT, 1000.0)
        with pytest.raises(ValueError):
            gaseous_attenuation(DEFAULT_ATTENUATION_FIT, 99.0)
        with pytest.raises(ValueError):
            gaseous_attenuation(DEFAULT_ATTENUATION_FIT, 1001.0)

    def test_derivative_matches_finite_differences(self):
        fit = DEFAULT_ATTENUATION_FIT
        h = 1e-5
        for f in (110.0, 150.0, 199.5, 216.0, 250.0, 400.0, 557.0, 900.0):
            central = (
                gaseous_attenuation(fit, f + h) - gaseous_attenuation(fit, f - h)
            ) / (2.0 * h)
            assert attenuation_derivative(fit, f) == pytest.approx(
                central, rel=1e-6, abs=1e-9
            )


class TestPathLoss:
    def test_spreading_only(self):
        # zero absorption isolates the 20 log10(4 pi f d / c) term
        assert path_loss(ZERO_FIT, 150.0, 10.0) == pytest.approx(
            SPREAD_150GHZ_10M, rel=1e-12
        )

    def test_absorption_term_scales_with_km(self):
        fit = DEFAULT_ATTENUATION_FIT
        base = path_loss(fit, 150.0, 1000.0) - path_loss(ZERO_FIT, 150.0, 1000.0)
        assert base == pytest.approx(GAMMA_150, rel=1e-12)

    def test_positive_distance_required(self):
        with pytest.raises(ValueError):
            path_loss(DEFAULT_ATTENUATION_FIT, 150.0, 0.0)


class TestDataRate:
    def test_monotone_decreasing_in_distance(self):
        ds = np.linspace(1.0, 800.0, 40)
        rates = [data_rate(DEFAULT_ATTENUATION_FIT, RADIO, 150.0, float(d)) for d in ds]
        assert all(b < a for a, b in zip(rates, rates[1:]))

    def test_monotone_decreasing_in_frequency_planning_band(self):
        # guaranteed only below the 215 GHz bound; secondary absorption
        # lines break strict monotonicity higher up
        fs = np.linspace(100.0, 215.0, 30)
        rates = [data_rate(DEFAULT_ATTENUATION_FIT, RADIO, float(f), 50.0) for f in fs]
        assert all(b < a for a, b in zip(rates, rates[1:]))

    def test_huge_loss_underflows_to_zero_gracefully(self):
        r = data_rate(DEFAULT_ATTENUATION_FIT, RADIO, 557.0, 5000.0)
        assert r == 0.0

    def test_linear_regime_at_tiny_distance(self):
        # ~1 mm link: SNR in dB is astronomic, rate must stay finite
        r = data_rate(DEFAULT_ATTENUATION_FIT, RADIO, 150.0, 1e-3)
        assert math.isfinite(r) and r > RADIO.bandwidth_hz * 10


class TestDistanceInversion:
    def test_round_trip_rate_distance_rate(self):
        for f in (100.0, 137.5, 180.0, 215.0):
            for r in np.logspace(6, 12, 13):
                d = achievable_distance(DEFAULT_ATTENUATION_FIT, RADIO, f, float(r))
                back = data_rate(DEFAULT_ATTENUATION_FIT, RADIO, f, d)
                assert back == pytest.approx(float(r), rel=1e-9)

    def test_against_bisection_on_the_loss_budget(self):
        # independent route: find d with path_loss(d) == link budget
        for f, r in ((120.0, 3e8), (150.0, 1e9), (200.0, 5e9)):
            chi = link_budget_db(RADIO, r)

            def gap(d, f=f, chi=chi):
                fd = f * 1e9 * d
                return (
                    gaseous_attenuation(DEFAULT_ATTENUATION_FIT, f) * d / 1000.0
                    + 20.0 * math.log10(fd)
                    - chi
                )

            ref = find_root(gap, 1e-6, 1e6, tol=1e-10)
            assert achievable_distance(
                DEFAULT_ATTENUATION_FIT, RADIO, f, r
            ) == pytest.approx(ref, rel=1e-8)

    def test_zero_absorption_is_free_space(self):
        """With every fit amplitude zero, spreading alone spends the link
        budget: d = 10^(chi/20) / f."""
        no_absorption = GaussianFit(
            terms=tuple((0.0, b, c) for _, b, c in DEFAULT_ATTENUATION_FIT.terms)
        )
        d = achievable_distance(no_absorption, RADIO, 150.0, 1e9)
        assert d == pytest.approx(59.407076750, rel=1e-10)
        for f in (100.0, 150.0, 560.0, 1000.0):
            for r in (1e6, 1e9, 1e11):
                d = achievable_distance(no_absorption, RADIO, f, r)
                chi = link_budget_db(RADIO, r)
                assert d == pytest.approx(10.0 ** (chi / 20.0) / (f * 1e9), rel=1e-13)
                assert data_rate(no_absorption, RADIO, f, d) == pytest.approx(r, rel=1e-12)
        # a budget past the float range gives an infinite free-space range
        huge = dataclasses.replace(RADIO, noise_dbm=-10000.0)
        assert achievable_distance(no_absorption, huge, 150.0, 1e9) == math.inf

    def test_huge_link_budget_stays_finite(self):
        """A budget whose 10^(chi/20) overflows takes W0 from its logarithm;
        the distance still solves the loss equation."""
        radio = dataclasses.replace(RADIO, noise_dbm=-10000.0)
        for f, r in ((100.0, 1e6), (100.0, 1e9), (190.0, 1e11), (560.0, 1e9)):
            chi = link_budget_db(radio, r)
            assert chi / 20.0 > 308.0  # 10^(chi/20) is not a double
            d = achievable_distance(DEFAULT_ATTENUATION_FIT, radio, f, r)
            assert math.isfinite(d) and d > 0.0
            assert data_rate(DEFAULT_ATTENUATION_FIT, radio, f, d) == pytest.approx(
                r, rel=1e-9
            )

            def gap(d, f=f, chi=chi):
                return (
                    gaseous_attenuation(DEFAULT_ATTENUATION_FIT, f) * d / 1000.0
                    + 20.0 * math.log10(f * 1e9 * d)
                    - chi
                )

            assert d == pytest.approx(find_root(gap, 1.0, 1e9, tol=1e-10), rel=1e-8)
        assert achievable_distance(
            DEFAULT_ATTENUATION_FIT, radio, 100.0, 1e9
        ) == pytest.approx(1.341665e6, rel=1e-6)

    def test_impossible_rate_gives_zero(self):
        assert achievable_distance(DEFAULT_ATTENUATION_FIT, RADIO, 150.0, 1e30) == 0.0

    def test_rate_must_be_positive(self):
        with pytest.raises(ValueError):
            link_budget_db(RADIO, 0.0)

    def test_distance_decreasing_in_rate_and_frequency(self):
        d1 = achievable_distance(DEFAULT_ATTENUATION_FIT, RADIO, 150.0, 1e8)
        d2 = achievable_distance(DEFAULT_ATTENUATION_FIT, RADIO, 150.0, 1e9)
        d3 = achievable_distance(DEFAULT_ATTENUATION_FIT, RADIO, 190.0, 1e8)
        assert d1 > d2
        assert d1 > d3


def load_generator():
    spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cellwise(fit, radio, freqs, rates):
    return [[achievable_distance(fit, radio, f, r) for f in freqs] for r in rates]


class TestDistanceMatrix:
    """distance_matrix factors each rate's link budget and each carrier's
    absorption out of the cells; every cell must stay achievable_distance's
    own value, compared with ==."""

    RATES = [10.0 ** (6.0 + q / 4.0) for q in range(29)]  # 1e6 .. 1e13 bit/s

    @pytest.mark.parametrize("name", ["reference_k10", "strict_infeasible_k10", "single_user"])
    def test_shipped_scenarios(self, name):
        sc = load_scenario(str(ROOT / "scenarios" / f"{name}.yaml"))
        freqs = sc.grid.freqs_ghz
        assert distance_matrix(sc.fit, sc.radio, freqs, self.RATES) == cellwise(
            sc.fit, sc.radio, freqs, self.RATES
        )

    @pytest.mark.parametrize("workload,seed", [("plan", 3), ("plan", 7), ("verify", 2)])
    def test_generated_scenarios(self, workload, seed):
        gen = load_generator()
        for index in range(150):
            sc = scenario_from_dict(gen.make(workload, seed, index)[0])
            freqs = sc.grid.freqs_ghz
            got = distance_matrix(sc.fit, sc.radio, freqs, self.RATES)
            assert got == cellwise(sc.fit, sc.radio, freqs, self.RATES), index

    def test_zero_absorption_is_free_space_and_inf_past_the_float_range(self):
        freqs = (100.0, 150.0, 560.0, 1000.0)
        got = distance_matrix(ZERO_FIT, RADIO, freqs, self.RATES)
        assert got == cellwise(ZERO_FIT, RADIO, freqs, self.RATES)
        for r, row in zip(self.RATES, got):
            gain = math.exp(link_budget_db(RADIO, r) * (math.log(10.0) / 20.0))
            assert row == [gain / (f * 1e9) for f in freqs]
        huge = dataclasses.replace(RADIO, noise_dbm=-10000.0)
        got = distance_matrix(ZERO_FIT, huge, freqs, [1e9])
        assert got == cellwise(ZERO_FIT, huge, freqs, [1e9]) == [[math.inf] * 4]

    def test_negative_absorption_gives_zero(self):
        fit = GaussianFit(terms=((-5.0, 150.0, 100.0),) + ((0.0, 500.0, 1.0),) * 6)
        freqs = (100.0, 150.0, 210.0)
        got = distance_matrix(fit, RADIO, freqs, self.RATES)
        assert got == cellwise(fit, RADIO, freqs, self.RATES)
        assert got == [[0.0] * 3] * len(self.RATES)

    def test_overflowing_argument_takes_w_from_its_logarithm(self):
        huge = dataclasses.replace(RADIO, noise_dbm=-10000.0)
        freqs = (100.0, 190.0, 560.0)
        assert all(link_budget_db(huge, r) / 20.0 > 308.0 for r in self.RATES)
        got = distance_matrix(DEFAULT_ATTENUATION_FIT, huge, freqs, self.RATES)
        assert got == cellwise(DEFAULT_ATTENUATION_FIT, huge, freqs, self.RATES)
        assert all(math.isfinite(d) and d > 0.0 for row in got for d in row)

    def test_planner_matrix_refuses_a_cell_beyond_the_float_range(self):
        huge = dataclasses.replace(RADIO, noise_dbm=-10000.0)
        grid = FrequencyGrid(freqs_ghz=(100.0, 150.0))
        with pytest.raises(
            ValueError,
            match=r"^coverage distance on carrier 100 GHz at rate 1e\+09 bit/s"
            r" is beyond the float range$",
        ):
            _distances([1e9], grid, huge, ZERO_FIT)

    def test_checks_carrier_and_rate_like_the_single_cell(self):
        with pytest.raises(ValueError, match="outside fit validity"):
            distance_matrix(DEFAULT_ATTENUATION_FIT, RADIO, (150.0, 1200.0), [1e9])
        with pytest.raises(ValueError, match="rate must be positive"):
            distance_matrix(DEFAULT_ATTENUATION_FIT, RADIO, (150.0,), [1e9, 0.0])


class TestSupermodularity:
    def test_positive_gap_below_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            f_lo, f_hi = sorted(rng.uniform(100.0, 215.0, 2))
            r_lo, r_hi = sorted(10.0 ** rng.uniform(7.0, 10.5, 2))
            if f_hi - f_lo < 1e-3 or r_hi / r_lo < 1.001:
                continue
            g = supermodularity_gap(
                DEFAULT_ATTENUATION_FIT, RADIO, r_lo, r_hi, f_lo, f_hi
            )
            assert g > 0.0

    def test_argument_order_enforced(self):
        with pytest.raises(ValueError):
            supermodularity_gap(DEFAULT_ATTENUATION_FIT, RADIO, 1e9, 1e8, 110.0, 120.0)
        with pytest.raises(ValueError):
            supermodularity_gap(DEFAULT_ATTENUATION_FIT, RADIO, 1e8, 1e9, 120.0, 110.0)

    def test_crossover_location(self):
        x = attenuation_crossover(DEFAULT_ATTENUATION_FIT)
        assert x == pytest.approx(CROSSOVER_GHZ, abs=1e-6)
        # f gamma'(f) - gamma(f) is negative below the root, positive above
        h = crossover_gap
        assert h(200.0) < 0.0
        assert h(300.0) > 0.0
        assert abs(h(x)) < 1e-6

    def test_crossover_is_a_root(self):
        """h is zero at the carrier returned, or changes sign within 1e-9 GHz
        of it."""
        for lo, hi in ((150.0, 300.0), (200.0, 250.0), (216.0, 217.0)):
            x = attenuation_crossover(DEFAULT_ATTENUATION_FIT, lo, hi)
            assert lo < x < hi
            assert crossover_gap(x - 1e-9) < 0.0 < crossover_gap(x + 1e-9)

    def test_crossover_needs_a_sign_change(self):
        # h is about -2.82 at 150 GHz and -0.88 at 200 GHz: no root between
        assert crossover_gap(150.0) == pytest.approx(-2.82, abs=5e-3)
        assert crossover_gap(200.0) == pytest.approx(-0.88, abs=5e-3)
        with pytest.raises(ValueError, match="does not change sign"):
            attenuation_crossover(DEFAULT_ATTENUATION_FIT, 150.0, 200.0)


class TestFrequencyGrid:
    def test_sorted_and_unique(self):
        g = FrequencyGrid((100.0, 110.0, 120.0))
        assert len(g) == 3
        with pytest.raises(ValueError):
            FrequencyGrid((100.0, 100.0))
        with pytest.raises(ValueError):
            FrequencyGrid((110.0, 100.0))
        with pytest.raises(ValueError):
            FrequencyGrid(())
        with pytest.raises(ValueError):
            FrequencyGrid((99.0, 110.0))


class TestRadioParams:
    def test_gain_snr_db_reference(self):
        # 10 log10(0.1 W) + 20 dBi + 20 dBi - (-40 dBm -> -70 dBW) = 100 dB
        assert RADIO.gain_snr_db() == pytest.approx(100.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            RadioParams(bandwidth_hz=0.0, power_w=0.1, tx_gain_dbi=20.0,
                        rx_gain_dbi=20.0, noise_dbm=-40.0)
        with pytest.raises(ValueError):
            RadioParams(bandwidth_hz=1e10, power_w=0.0, tx_gain_dbi=20.0,
                        rx_gain_dbi=20.0, noise_dbm=-40.0)
