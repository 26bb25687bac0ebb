"""Channel model: absorption fit, loss, rate, and the distance inversion.

Frozen constants below were computed once with mpmath at 50 digits from the
same seven-term Gaussian coefficients and are trusted as oracles here.
"""

import math

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
    gaseous_attenuation,
    link_budget_db,
    path_loss,
    supermodularity_gap,
)
from thzplanner.numerics import find_root

# mpmath mp.dps=50 references
GAMMA_100 = 7.3613350774870
GAMMA_150 = 9.28670878638982
GAMMA_190 = 11.177252537486
GAMMA_215 = 12.546354584278
SPREAD_150GHZ_10M = 95.963597367162  # 20 log10(4 pi f d / c)
CROSSOVER_GHZ = 216.56919282753

RADIO = tp.reference_radio()
ZERO_FIT = GaussianFit(terms=((0.0, 500.0, 1.0),) * 7)


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
        fit = DEFAULT_ATTENUATION_FIT

        def h(f):
            return f * attenuation_derivative(fit, f) - gaseous_attenuation(fit, f)

        assert h(200.0) < 0.0
        assert h(300.0) > 0.0
        assert abs(h(x)) < 1e-6


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
