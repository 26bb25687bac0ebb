"""THz link budget: gaseous attenuation fit, path loss, rate, and distance.

The molecular-absorption part of the loss uses a seven-term Gaussian fit to
the ITU-R P.676-9 specific attenuation of standard air (7.5 g/m^3 water
vapour), valid for carrier frequencies between 100 GHz and 1 THz.  On top of
that sits free-space spreading, so the end-to-end loss in dB is

    L(f, d) = gamma(f) * d_km + 20 log10(4 pi f d / c)

with gamma in dB/km.  Shannon capacity over that loss gives the achievable
rate, and the inverse map from a required rate back to distance is a Lambert
W evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .numerics import _false_position, lambert_w, lambert_w_log

SPEED_OF_LIGHT = 3.0e8  # m/s, planning convention
FREQ_MIN_GHZ = 100.0
FREQ_MAX_GHZ = 1000.0
_LN10 = math.log(10.0)
_LN2 = math.log(2.0)


@dataclass(frozen=True)
class GaussianFit:
    """Superposition of Gaussians fitting specific attenuation in dB/km.

    Each term is (amplitude dB/km, center GHz, width GHz).  Exactly seven
    terms with positive widths; amplitudes may be zero.
    """

    terms: Tuple[Tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        if len(self.terms) != 7:
            raise ValueError("attenuation fit needs exactly 7 Gaussian terms")
        for amp, center, width in self.terms:
            if width <= 0.0:
                raise ValueError("Gaussian term width must be positive")
            del amp, center


# Standard-air fit coefficients (7.5 g/m^3 water vapour, sea level).
DEFAULT_ATTENUATION_FIT = GaussianFit(
    terms=(
        (9906.0, 557.0, 3.175),
        (9940.0, 752.1, 4.968),
        (7301.0, 987.9, 4.6),
        (5667.0, 556.5, 8.772),
        (542.2, 559.1, 33.58),
        (3.338e15, 1.46e4, 2496.0),
        (208.2, 447.7, 6.968),
    )
)


@dataclass(frozen=True)
class FrequencyGrid:
    """Candidate carriers in GHz: distinct, ascending, inside the fit band."""

    freqs_ghz: Tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.freqs_ghz:
            raise ValueError("frequency grid must not be empty")
        for f in self.freqs_ghz:
            if not FREQ_MIN_GHZ <= f <= FREQ_MAX_GHZ:
                raise ValueError(
                    f"grid frequency {f} GHz outside [{FREQ_MIN_GHZ}, {FREQ_MAX_GHZ}] GHz"
                )
        for a, b in zip(self.freqs_ghz, self.freqs_ghz[1:]):
            if a == b:
                raise ValueError(
                    f"duplicate grid frequency {a} GHz: each user must occupy a distinct carrier"
                )
            if a > b:
                raise ValueError("grid frequencies must be strictly ascending")

    def __len__(self) -> int:
        return len(self.freqs_ghz)


@dataclass(frozen=True)
class RadioParams:
    """Transmit-side radio configuration shared by all users."""

    bandwidth_hz: float
    power_w: float
    tx_gain_dbi: float
    rx_gain_dbi: float
    noise_dbm: float  # total noise power over the band

    def __post_init__(self) -> None:
        if self.bandwidth_hz <= 0.0:
            raise ValueError("bandwidth must be positive")
        if self.power_w <= 0.0:
            raise ValueError("transmit power must be positive")

    def gain_snr_db(self) -> float:
        """10 log10(p * Gt * Gr / sigma^2): SNR in dB before any path loss."""
        p_dbm = 10.0 * math.log10(self.power_w * 1e3)
        return p_dbm + self.tx_gain_dbi + self.rx_gain_dbi - self.noise_dbm


def _check_freq(freq_ghz: float) -> None:
    if not FREQ_MIN_GHZ <= freq_ghz <= FREQ_MAX_GHZ:
        raise ValueError(
            f"carrier {freq_ghz} GHz outside fit validity [{FREQ_MIN_GHZ}, {FREQ_MAX_GHZ}] GHz"
        )


def gaseous_attenuation(fit: GaussianFit, freq_ghz: float) -> float:
    """Specific gaseous attenuation in dB/km at the given carrier."""
    _check_freq(freq_ghz)
    total = 0.0
    for amp, center, width in fit.terms:
        z = (freq_ghz - center) / width
        total += amp * math.exp(-z * z)
    return total


def attenuation_derivative(fit: GaussianFit, freq_ghz: float) -> float:
    """d(gamma)/df in dB/km per GHz, analytic term-by-term."""
    _check_freq(freq_ghz)
    total = 0.0
    for amp, center, width in fit.terms:
        z = (freq_ghz - center) / width
        total += amp * math.exp(-z * z) * (-2.0 * z / width)
    return total


def path_loss(fit: GaussianFit, freq_ghz: float, distance_m: float) -> float:
    """Total loss in dB: molecular absorption plus free-space spreading."""
    _check_freq(freq_ghz)
    if distance_m <= 0.0:
        raise ValueError("distance must be positive")
    gamma = gaseous_attenuation(fit, freq_ghz)
    freq_hz = freq_ghz * 1e9
    spreading = 20.0 * math.log10(4.0 * math.pi * freq_hz * distance_m / SPEED_OF_LIGHT)
    return gamma * (distance_m / 1000.0) + spreading


def data_rate(
    fit: GaussianFit, radio: RadioParams, freq_ghz: float, distance_m: float
) -> float:
    """Shannon rate in bit/s at the given carrier and distance."""
    loss_db = path_loss(fit, freq_ghz, distance_m)
    snr_db = radio.gain_snr_db() - loss_db
    # exp form keeps underflow graceful at huge loss (rate -> 0, no overflow)
    snr = math.exp(snr_db * (_LN10 / 10.0)) if snr_db < 300.0 else math.inf
    if math.isinf(snr):
        return radio.bandwidth_hz * (snr_db * _LN10 / 10.0) / _LN2
    return radio.bandwidth_hz * math.log1p(snr) / _LN2


def link_budget_db(radio: RadioParams, rate_bps: float) -> float:
    """Loss budget (dB) available once the SNR needed for rate_bps is spent.

    This is 10 log10(p Gt Gr / ((2^(R/B) - 1) sigma^2)) - 20 log10(4 pi / c);
    adding 20 log10(f d) plus the absorption term exhausts it at the
    achievable distance.
    """
    if rate_bps <= 0.0:
        raise ValueError("rate must be positive")
    y = _LN2 * rate_bps / radio.bandwidth_hz
    if y > 50.0:
        snr_req_db = 10.0 * y / _LN10  # expm1(y) ~ exp(y) beyond ~50
    else:
        snr_req_db = 10.0 * math.log10(math.expm1(y))
    spread_const = 20.0 * math.log10(4.0 * math.pi / SPEED_OF_LIGHT)
    return radio.gain_snr_db() - snr_req_db - spread_const


def achievable_distance(
    fit: GaussianFit, radio: RadioParams, freq_ghz: float, rate_bps: float
) -> float:
    """Largest distance (m) at which the link still delivers rate_bps.

    Inverts the loss model in closed form: with gamma_m the absorption in
    dB/m and chi the link budget from link_budget_db,

        d = (20 / (gamma_m ln 10)) * W0((gamma_m ln 10 / (20 f)) * 10^(chi/20)).

    Without absorption (gamma_m = 0) spreading alone spends the budget,
    d = 10^(chi/20) / f (inf past the float range).  When W's argument
    overflows, W0 is taken from its logarithm.  A negative absorption fit
    gives 0.
    """
    gamma = gaseous_attenuation(fit, freq_ghz)  # checks the carrier first
    return _distance_cell(link_budget_db(radio, rate_bps), gamma, freq_ghz)


def distance_matrix(
    fit: GaussianFit, radio: RadioParams, freqs_ghz: Sequence[float], rates_bps: Sequence[float]
) -> List[List[float]]:
    """achievable_distance of each rate (rows) on each carrier (columns), bit for
    bit, from one link budget per rate, one absorption per carrier and one W per cell."""
    gammas = [gaseous_attenuation(fit, f) for f in freqs_ghz]
    chis = [link_budget_db(radio, r) for r in rates_bps]
    return [[_distance_cell(chi, g, f) for g, f in zip(gammas, freqs_ghz)] for chi in chis]


def _distance_cell(chi: float, gamma_db_per_km: float, freq_ghz: float) -> float:
    """achievable_distance from the link budget chi (dB) and the absorption."""
    gamma_m = gamma_db_per_km / 1000.0  # dB/m
    freq_hz = freq_ghz * 1e9
    scale = gamma_m * _LN10 / 20.0
    log_gain = chi * (_LN10 / 20.0)  # ln 10^(chi/20)
    try:
        gain = math.exp(log_gain)
    except OverflowError:
        gain = math.inf
    if scale == 0.0:
        return gain / freq_hz
    arg = (scale / freq_hz) * gain
    if arg <= 0.0:
        return 0.0
    if math.isinf(arg):
        return lambert_w_log(math.log(scale / freq_hz) + log_gain) / scale
    return lambert_w(arg, 0) / scale


def supermodularity_gap(
    fit: GaussianFit,
    radio: RadioParams,
    rate_lo_bps: float,
    rate_hi_bps: float,
    freq_lo_ghz: float,
    freq_hi_ghz: float,
) -> float:
    """Mixed second difference of distance over {rates} x {carriers}.

    d(R_hi, f_hi) + d(R_lo, f_lo) - d(R_hi, f_lo) - d(R_lo, f_hi).  Positive
    values over a grid make sorted matching optimal there; on the default
    fit they are positive for rate_lo < rate_hi and freq_lo < freq_hi below
    the attenuation crossover, and the sign depends on the fit elsewhere.
    """
    if rate_lo_bps > rate_hi_bps:
        raise ValueError("need rate_lo_bps <= rate_hi_bps")
    if freq_lo_ghz > freq_hi_ghz:
        raise ValueError("need freq_lo_ghz <= freq_hi_ghz")
    d_hh = achievable_distance(fit, radio, freq_hi_ghz, rate_hi_bps)
    d_ll = achievable_distance(fit, radio, freq_lo_ghz, rate_lo_bps)
    d_hl = achievable_distance(fit, radio, freq_lo_ghz, rate_hi_bps)
    d_lh = achievable_distance(fit, radio, freq_hi_ghz, rate_lo_bps)
    return d_hh + d_ll - d_hl - d_lh


def attenuation_crossover(
    fit: GaussianFit, lo_ghz: float = 150.0, hi_ghz: float = 300.0
) -> float:
    """Carrier where f * gamma'(f) - gamma(f) changes sign.

    Below the root the sorted-assignment argument holds exactly; the default
    fit crosses near 216.57 GHz.  The root comes from the share search's
    false position: h is zero at the carrier returned, or changes sign
    within 1e-9 GHz of it.  Raises ValueError when the bracket does not
    straddle a sign change.
    """
    _check_freq(lo_ghz)
    _check_freq(hi_ghz)

    def h(f: float) -> float:
        return f * attenuation_derivative(fit, f) - gaseous_attenuation(fit, f)

    h_lo, h_hi = h(lo_ghz), h(hi_ghz)
    if h_lo == 0.0 or h_hi == 0.0:
        return lo_ghz if h_lo == 0.0 else hi_ghz
    if (h_lo < 0.0) == (h_hi < 0.0):
        raise ValueError(
            f"f * gamma'(f) - gamma(f) does not change sign between {lo_ghz:g}"
            f" and {hi_ghz:g} GHz"
        )
    return _false_position(h, lo_ghz, h_lo, hi_ghz, h_hi)[0]
