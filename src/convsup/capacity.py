"""Ergodic-capacity lower bounds, outage closed form and special functions.

All fading averages reduce to the map A -> E[ln(1 + A*u)] over a unit
exponential u, evaluated through the exponential integral.  Monte Carlo
estimators sample the per-subcarrier effective SNRs directly and report the
standard error of every average; under a channel-independent profile the
``*_quad`` functions compute the same rates exactly, by Gauss-Laguerre
quadrature over the remaining unit exponentials (64 nodes per axis), and
the Monte Carlo estimators stay as their oracle.  Capacities are in
bits/s/Hz (the cyclic prefix overhead is excluded everywhere and reported
separately as the M/(M+L_cp) factor).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy import special as _sps

from .channel import NetworkScenario, mean_se, trials
from .precoding import (PowerProfile, srx_noise_floor, uc_power_coefficient,
                        waterfill_power, waterfill_thresholds)
from .spectral import VcLayout

__all__ = [
    "EULER_GAMMA",
    "CapacityReport",
    "psi",
    "bessel_k",
    "kappa",
    "outage_closed_form",
    "pu_outage_probability",
    "outage_mc",
    "snr_13_direct",
    "c_pu_direct",
    "c_pu_lower",
    "c_pu_lower_trials",
    "c_pu_lower_quad",
    "c_su_lower_csit",
    "c_su_lower_nocsit",
    "c_su_lower_nocsit_quad",
    "baseline_ocr",
    "baseline_nocr",
    "baseline_nocr_quad",
    "nocsit_low_snr_approx",
    "nocsit_high_snr_approx",
    "check_pu_monotonicity",
]

EULER_GAMMA = float(np.euler_gamma)
LOG2E = 1.0 / np.log(2.0)

GL_NODES = 64  # Gauss-Laguerre nodes per axis of the *_quad rates
_NOCR_STEP = 0.2  # trapezoid step in ln u of baseline_nocr_quad
# trials per waterfilling pass of c_su_lower_csit: the few (rows, K)
# arrays of a 512-row block stay in cache
_CSIT_ROWS = 512


@functools.cache
def _laguerre(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Laguerre nodes and weights: sum_i w_i f(x_i) ~ E[f(u)] for a
    unit exponential u."""
    return np.polynomial.laguerre.laggauss(n_nodes)


def _laguerre_2d(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor-product rule over two independent unit exponentials, as
    flattened (node_1, node_2, weight) arrays."""
    x, w = _laguerre(n_nodes)
    return (np.repeat(x, n_nodes), np.tile(x, n_nodes),
            np.outer(w, w).ravel())


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

_PSI_SEAM = 700.0  # exp(1/a) overflows just above 1/a = 709


def psi(a):
    """E[ln(1 + a*u)] for a unit exponential u, i.e. the integral of
    exp(-u) ln(1 + a*u); equals exp(1/a) * E1(1/a).  Vectorized; requires
    a > 0 and tends to a as a -> 0+.

    For 1/a <= 700 the library E1 is scaled by exp(1/a); beyond, where that
    factor overflows, the asymptotic series a * sum_k (-1)^k k! a^k is cut
    after k = 8, whose first omitted term is below 1e-20 relative.
    """
    arr = np.asarray(a, dtype=float)
    if np.any(arr <= 0) or not np.all(np.isfinite(arr)):
        raise ValueError("psi requires strictly positive finite arguments")
    with np.errstate(over="ignore"):  # subnormal a gives z = inf: tail branch
        z = 1.0 / arr
    tail = z > _PSI_SEAM
    if not tail.any():
        out = np.exp(z) * _sps.exp1(z)
    else:
        out = np.empty_like(arr)
        head = ~tail
        out[head] = np.exp(z[head]) * _sps.exp1(z[head])
        out[tail] = arr[tail] * _psi_series(arr[tail], 0)
    return out if out.ndim else float(out)


def _psi_series(a, first: int):
    """Horner form of sum_k (-1)^k (k + first)!/first! a^k, cut at
    k + first = 8: psi(a)/a for ``first = 0``, (1 - psi(a)/a)/a for
    ``first = 1``; valid for a <= 1/700."""
    acc = np.ones_like(a)
    for k in range(8, first, -1):
        acc = 1.0 - k * a * acc
    return acc


def _psi_deficit(b: np.ndarray) -> np.ndarray:
    """1 - psi(b)/b = E[b u / (1 + b u)] for a unit exponential u, without
    the cancellation of the difference at small b."""
    small = b < 1.0 / _PSI_SEAM
    out = np.empty_like(b)
    out[small] = b[small] * _psi_series(b[small], 1)
    big = ~small
    out[big] = 1.0 - psi(b[big]) / b[big]
    return out


def bessel_k(order: int, x):
    """Modified Bessel function of the second kind, orders 0 and 1 only."""
    if order not in (0, 1):
        raise ValueError("only orders 0 and 1 are supported")
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0):
        raise ValueError("bessel_k requires x > 0")
    out = _sps.k0(arr) if order == 0 else _sps.k1(arr)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# outage
# ---------------------------------------------------------------------------

def kappa(scenario: NetworkScenario) -> float:
    """Outage parameter (sigma_13/sigma_12)*(sigma_v2/sigma_v3)."""
    return float(np.sqrt(scenario.link_variance(1, 3) / scenario.link_variance(1, 2)
                         * scenario.sigma2_v[2] / scenario.sigma2_v[3]))


def outage_closed_form(k: float) -> float:
    """Primary outage probability 1 - 2k*K1(2k) at outage parameter k; k
    must be finite and non-negative."""
    if not (np.isfinite(k) and k >= 0):
        raise ValueError(f"outage parameter kappa must be finite and >= 0, got {k}")
    if k == 0.0:
        return 0.0
    return float(np.clip(1.0 - 2.0 * k * bessel_k(1, 2.0 * k), 0.0, 1.0))


def pu_outage_probability(scenario: NetworkScenario) -> float:
    """Probability that the effective primary SNR with the secondary active
    drops below the direct-link SNR: 1 - 2k*K1(2k).  Independent of the
    secondary precoding."""
    return outage_closed_form(kappa(scenario))


def outage_mc(scenario: NetworkScenario, profile: PowerProfile, n_trials: int,
              rng: np.random.Generator) -> tuple[float, float]:
    """Monte Carlo outage frequency with its binomial standard error.

    Draws the relay-gain product for one used subcarrier and counts how
    often the effective SNR falls below the direct one; the per-subcarrier
    weight cancels, so the count is profile independent under common draws.
    """
    relay, noise = _pu_relay_terms(scenario, float(profile.uc_power[0]),
                                   rng.exponential(size=n_trials),
                                   rng.exponential(size=n_trials))
    p_hat = float(np.mean(relay < noise))
    return p_hat, float(np.sqrt(max(p_hat * (1 - p_hat), 1e-300) / n_trials))


# ---------------------------------------------------------------------------
# primary-user capacity
# ---------------------------------------------------------------------------

def snr_13_direct(scenario: NetworkScenario) -> float:
    return scenario.link_variance(1, 3) * scenario.p_pu / scenario.sigma2_v[3]


def c_pu_direct(scenario: NetworkScenario, layout: VcLayout) -> float:
    """Ergodic capacity of the primary link with the secondary silent."""
    return layout.q * LOG2E / layout.m * psi(snr_13_direct(scenario))


def _pu_relay_terms(scenario: NetworkScenario, a, e_relay, e_filter):
    """Relayed primary signal and relayed secondary-chain noise at the
    primary receiver, relative to the direct signal and the receiver noise,
    on a used subcarrier of weight ``a`` with the relay gain |h23|^2 =
    s23 * e_relay and the filter gain |f|^2 = a * e_filter (e_relay and
    e_filter unit exponentials)."""
    s23 = scenario.link_variance(2, 3)
    relay = ((s23 * e_relay) * (a * e_filter) * scenario.link_variance(1, 2)
             / scenario.link_variance(1, 3))
    return relay, a * s23 * scenario.sigma2_v[2] / scenario.sigma2_v[3]


def _pu_snr(scenario: NetworkScenario, a, e_relay, e_filter):
    """Worst-case primary SNR snr_13 (1 + relay) / (1 + noise) of the terms
    of ``_pu_relay_terms``: below the direct snr_13 exactly when the relayed
    noise outweighs the relayed signal."""
    relay, noise = _pu_relay_terms(scenario, a, e_relay, e_filter)
    return snr_13_direct(scenario) * (1.0 + relay) / (1.0 + noise)


def _pu_exponentials(rng: np.random.Generator, shape) -> np.ndarray:
    """The unit exponentials (e_relay, e_filter) of ``_pu_relay_terms`` for
    ``shape`` used subcarriers, stacked along a new first axis and drawn in
    that order."""
    return rng.exponential(size=(2, *shape))


def _pu_rate_law(scenario: NetworkScenario, layout: VcLayout,
                 profile: PowerProfile, draws: np.ndarray) -> np.ndarray:
    """Per-trial primary worst-case rate (bits/s/Hz) of stacked
    ``_pu_exponentials`` draws of shape (2, trials, q)."""
    gam = _pu_snr(scenario, profile.uc_power, draws[0], draws[1])
    return (LOG2E / layout.m) * psi(gam).sum(axis=1)


def c_pu_lower_trials(scenario: NetworkScenario, layout: VcLayout,
                      profile: PowerProfile, n_trials: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Per-trial samples of the primary worst-case rate under a
    channel-independent profile (bits/s/Hz)."""
    def sample(n):
        return _pu_rate_law(scenario, layout, profile,
                            _pu_exponentials(rng, (n, layout.q)))
    return trials(n_trials, sample)


def c_pu_lower(scenario: NetworkScenario, layout: VcLayout, profile: PowerProfile,
               n_trials: int, rng: np.random.Generator) -> tuple[float, float]:
    """Monte Carlo estimate (value, standard error) of the primary
    worst-case ergodic rate with the secondary active."""
    return mean_se(c_pu_lower_trials(scenario, layout, profile, n_trials, rng))


def c_pu_lower_quad(scenario: NetworkScenario, layout: VcLayout,
                    profile: PowerProfile) -> float:
    """Exact primary worst-case ergodic rate under a channel-independent
    profile: the mean of ``c_pu_lower_trials`` by 2-D Gauss-Laguerre over
    the relay gain |h23|^2/s23 and the filter gain |f|^2/a, once per
    distinct weight a."""
    a, count = np.unique(profile.uc_power, return_counts=True)
    e1, e2, w = _laguerre_2d(GL_NODES)
    gam = _pu_snr(scenario, a[:, None], e1, e2)
    return float(LOG2E / layout.m * (count * (psi(gam) @ w)).sum())


# ---------------------------------------------------------------------------
# secondary-user capacity
# ---------------------------------------------------------------------------

def _relay_factors(scenario: NetworkScenario, e0, e1=1.0):
    """The draws of ``_relayed_gain`` scaled by their link variances, s24 E0
    and s12 |x_pu|^2 with |x_pu|^2 = P_pu E1; they depend on the scenario
    through s24, s12 and P_pu only."""
    return (scenario.link_variance(2, 4) * e0,
            scenario.link_variance(1, 2) * (scenario.p_pu * e1))


def _relayed_gain(scenario: NetworkScenario, e0, e1=1.0, *, factors=None, out=None):
    """s24 E0 (s12 |x_pu|^2 + sigma2_v2) with |x_pu|^2 = P_pu E1: the
    composite used-subcarrier gain |h24 (h12 x_pu + v2)|^2 before its
    innermost relay-gain exponential E2.  ``e1 = 1.0`` is a constant-modulus
    primary symbol.  ``factors``, when given, are the ``_relay_factors`` of
    the draws, computed once for the scenarios that share them, and ``out``
    receives the gain."""
    s24_e0, s12_x = _relay_factors(scenario, e0, e1) if factors is None else factors
    return np.multiply(s24_e0, np.add(s12_x, scenario.sigma2_v[2], out=out), out=out)


def _relay_exponentials(rng: np.random.Generator, shape,
                        constant_modulus: bool = False) -> np.ndarray:
    """The unit exponentials (E0, E1, E2) of ``shape`` composite gains,
    stacked along a new first axis and drawn in that order; (E0, E2) when
    ``constant_modulus`` (no E1)."""
    return rng.exponential(size=(2 if constant_modulus else 3, *np.atleast_1d(shape)))


def _composite_law(scenario: NetworkScenario, draws: np.ndarray) -> np.ndarray:
    """Composite used-subcarrier gain ``_relayed_gain`` times E2 of stacked
    ``_relay_exponentials`` draws (any slice of their trailing axes); two
    stacked draws (E0, E2) leave E1 at its constant-modulus 1."""
    return _relayed_gain(scenario, draws[0], *draws[1:-1]) * draws[-1]


def _composite_gain(rng: np.random.Generator, scenario: NetworkScenario, shape,
                    constant_modulus: bool = False) -> np.ndarray:
    """Composite used-subcarrier gain ``_relayed_gain`` times E2, drawn
    exactly in law with E0, E1, E2 unit exponentials in that draw order (no
    E1 when ``constant_modulus``)."""
    return _composite_law(scenario, _relay_exponentials(rng, shape, constant_modulus))


def c_su_lower_csit(scenarios, layout: VcLayout, n_trials: int,
                    rng: np.random.Generator,
                    use_vcs: bool = True) -> list[tuple[float, float]]:
    """Secondary worst-case ergodic rate with per-realization waterfilling,
    as (value, standard error) at each of ``scenarios``.

    Each trial draws the composite used-subcarrier gain (relay gain times
    relayed primary symbol plus secondary-chain noise) and the direct
    virtual-subcarrier gain, waterfills the budget over the active
    dimensions, and scores the resulting rate.  A batch takes all of its
    exponentials first (E0, E1 and E2 of the used subcarriers, then the
    virtual-subcarrier gains), then waterfills and scores them in blocks of
    ``_CSIT_ROWS`` trials, in buffers that every block reuses; every row is
    computed as it would be alone, so the blocks do not change a bit.

    The law of those unit exponentials depends on ``layout`` only, so the
    scenarios share one draw (common random numbers): each block is scored
    at every scenario, and every scenario gets the numbers that a call with
    it alone, on a generator in the same state, would return.  The factors
    s24 E0 and s12 P_pu E1 (``_relay_factors``) and the virtual-subcarrier
    gains s24 E of a block are computed once for consecutive scenarios with
    the same (s24, s12, P_pu), e.g. every point of an SNR sweep, so a
    scenario only adds its sigma2_v2, multiplies by them and by E2, and
    divides.
    """
    points = [(sc, (sc.link_variance(2, 4), sc.link_variance(1, 2), sc.p_pu),
               (uc_power_coefficient(sc), srx_noise_floor(sc), sc.sigma2_v[4]))
              for sc in scenarios]
    n_vc = layout.m_vc if use_vcs else 0

    def sample(n):
        draws = _relay_exponentials(rng, (n, layout.q))
        vc_draws = rng.exponential(size=(n, n_vc))
        rate = np.empty((n, len(points)))
        gain_buf = np.empty((min(n, _CSIT_ROWS), layout.q))
        thr_buf = np.empty((min(n, _CSIT_ROWS), layout.q + n_vc))
        for lo in range(0, n, _CSIT_ROWS):
            hi = min(lo + _CSIT_ROWS, n)
            e0, e1, e2 = draws[:, lo:hi]
            gain, thr = gain_buf[:hi - lo], thr_buf[:hi - lo]
            shared = None
            for j, (sc, key, levels) in enumerate(points):
                if key != shared:
                    shared = key
                    factors = _relay_factors(sc, e0, e1)
                    gain_vc = sc.link_variance(2, 4) * vc_draws[lo:hi]
                _relayed_gain(sc, e0, e1, factors=factors, out=gain)
                gain *= e2
                waterfill_thresholds(*levels, gain, gain_vc, out=thr)
                spend, _ = waterfill_power(thr, sc.p_su)
                spend /= thr
                spend += 1.0
                rate[lo:hi, j] = np.log2(spend, out=spend).sum(axis=1)
        return rate / layout.m
    # one contiguous row of per-trial rates per scenario
    samples = np.ascontiguousarray(trials(n_trials, sample).T)
    return [mean_se(vals) for vals in samples]


def _gamma4_scale(scenario: NetworkScenario, layout: VcLayout, g: float) -> float:
    return ((scenario.p_su - layout.m_vc * g)
            / (layout.q * srx_noise_floor(scenario) * uc_power_coefficient(scenario)))


def _vc_snr(scenario: NetworkScenario, g):
    """Mean SNR of a virtual subcarrier carrying power ``g`` on the direct
    secondary link."""
    return scenario.link_variance(2, 4) * g / scenario.sigma2_v[4]


def _nocsit_setup(scenario: NetworkScenario, layout: VcLayout, g: float):
    """Used-subcarrier SNR scale per unit composite gain and the closed-form
    virtual-subcarrier term M_vc * psi(snr_24), in nats."""
    if g < 0 or layout.m_vc * g > scenario.p_su:
        raise ValueError("virtual-subcarrier power outside the budget")
    vc_term = layout.m_vc * psi(_vc_snr(scenario, g)) if (layout.m_vc and g > 0) else 0.0
    return _gamma4_scale(scenario, layout, g), vc_term


def c_su_lower_nocsit(scenario: NetworkScenario, layout: VcLayout, g: float,
                      n_trials: int, rng: np.random.Generator,
                      constant_modulus: bool = False) -> tuple[float, float]:
    """Secondary worst-case ergodic rate under uniform power allocation,
    by Monte Carlo.

    Samples log2(1 + gamma) per draw on the used subcarriers; the
    virtual-subcarrier part is the closed form M_vc * psi(snr_24).
    ``constant_modulus`` pins |x_pu|^2 = P_pu instead of drawing it
    exponentially.  ``c_su_lower_nocsit_quad`` is the exact value.
    """
    scale, vc_term = _nocsit_setup(scenario, layout, g)

    def sample(n):
        gam = scale * _composite_gain(rng, scenario, (n, layout.q),
                                      constant_modulus=constant_modulus)
        return (LOG2E / layout.m) * (np.log(1.0 + gam).sum(axis=1) + vc_term)
    return mean_se(trials(n_trials, sample))


def c_su_lower_nocsit_quad(scenario: NetworkScenario, layout: VcLayout, g: float,
                           constant_modulus: bool = False) -> float:
    """Exact value of ``c_su_lower_nocsit``: psi absorbs the innermost
    relay-gain exponential E2 of the composite gain, and Gauss-Laguerre
    averages s24 E0 (s12 |x_pu|^2 + sigma2_v2) over the remaining (E0, E1),
    or over E0 alone when ``constant_modulus``."""
    scale, vc_term = _nocsit_setup(scenario, layout, g)
    if constant_modulus:
        e0, w = _laguerre(GL_NODES)
        e1 = 1.0
    else:
        e0, e1, w = _laguerre_2d(GL_NODES)
    gain = _relayed_gain(scenario, e0, e1)
    uc = layout.q * float(psi(scale * gain) @ w) if scale > 0 else 0.0
    return float(LOG2E / layout.m * (uc + vc_term))


def baseline_ocr(scenario: NetworkScenario, layout: VcLayout, n_trials: int,
                 rng: np.random.Generator) -> tuple[float, float]:
    """Orthogonal-access baseline: the secondary transmits only on the
    virtual subcarriers with g = P_su / M_vc (exact capacity, no relaying)."""
    if layout.m_vc == 0:
        return 0.0, 0.0
    snr = _vc_snr(scenario, scenario.p_su / layout.m_vc)

    def sample(n):
        draws = np.log2(1.0 + snr * rng.exponential(size=(n, layout.m_vc)))
        return draws.sum(axis=1) / layout.m
    return mean_se(trials(n_trials, sample))


def baseline_nocr(scenario: NetworkScenario, layout: VcLayout, n_trials: int,
                  rng: np.random.Generator) -> tuple[float, float]:
    """Flat single-symbol relaying baseline: order-zero filter (N = 1), no
    virtual-subcarrier block, equal weight on every subcarrier.

    One symbol rides all used subcarriers at once, so each trial scores the
    rank-one rate log2(1 + a * sum |h|^2 / nu) / M over the used set.
    """
    a = scenario.p_su / (layout.q * uc_power_coefficient(scenario))
    nu_uc = srx_noise_floor(scenario)

    def sample(n):
        gain_sum = _composite_gain(rng, scenario, (n, layout.q)).sum(axis=1)
        return np.log2(1.0 + a * gain_sum / nu_uc) / layout.m
    return mean_se(trials(n_trials, sample))


def baseline_nocr_quad(scenario: NetworkScenario, layout: VcLayout) -> float:
    """Exact value of ``baseline_nocr``.

    With X = c S, c = a / nu and S the sum of q iid composite gains,
    E ln(1 + X) = int_0^inf (1 - E exp(-u X)) exp(-u) / u du (K. A. Hamdi,
    IEEE Trans. Commun. 58(2), 2010), and E exp(-u X) = L(c u)^q.  One
    composite gain has L(t) = E_E1[psi(b) / b], b = t s24 (s12 P_pu E1 +
    sigma2_v2): psi(b)/b is the mean of 1/(1 + b E0) over E0 after E2 is
    integrated out.  1 - L is a Gauss-Laguerre sum over E1, formed without
    cancellation so that tiny budgets keep their digits.

    In t = ln u the outer integral is int (1 - L(c e^t)^q) exp(-e^t) dt,
    smooth and decaying like e^t below the knee at u = 1/E[X] and like
    exp(-e^t) above u = 1, so one trapezoid sum with step ``_NOCR_STEP``
    from t = 4 (exp(-e^4) < 1e-23) down to 32 below min(0, -ln E[X]) (a
    tail below 2e-14 of the total) is exact to a few 1e-14 relative.
    """
    c = scenario.p_su / (layout.q * uc_power_coefficient(scenario)
                         * srx_noise_floor(scenario))
    e1, w = _laguerre(GL_NODES)
    gain = _relayed_gain(scenario, 1.0, e1)
    mean_x = c * layout.q * float(gain @ w)
    u = np.exp(np.arange(4.0, -max(0.0, np.log(mean_x)) - 32.0, -_NOCR_STEP))
    deficit = _psi_deficit(c * u[:, None] * gain[None, :]) @ w  # 1 - L(c u)
    f = -np.expm1(layout.q * np.log1p(-deficit)) * np.exp(-u)
    return float(LOG2E * _NOCR_STEP * f.sum() / layout.m)


# ---------------------------------------------------------------------------
# closed-form reference points for the uniform-allocation secondary rate
# ---------------------------------------------------------------------------

def nocsit_low_snr_approx(scenario: NetworkScenario, layout: VcLayout, g: float) -> float:
    """Low-SNR closed form (constant-modulus primary symbols): the used-
    subcarrier sum collapses to its mean SNR."""
    snr_24 = _vc_snr(scenario, g)
    snr_14 = scenario.link_variance(1, 4) * scenario.p_pu / scenario.sigma2_v[4]
    uc = snr_24 * (scenario.p_su / g - layout.m_vc) / (1.0 + snr_14)
    return LOG2E / layout.m * (uc + layout.m_vc * psi(snr_24))


def nocsit_high_snr_approx(scenario: NetworkScenario, layout: VcLayout, g: float) -> float:
    """High-SNR closed form (constant-modulus primary symbols): the log
    asymptote absorbs the innermost fading layer, leaving psi of the mean
    SNR minus Euler's constant per used subcarrier."""
    gam_mean = (scenario.link_variance(2, 4) * (scenario.p_su - layout.m_vc * g)
                / (layout.q * srx_noise_floor(scenario)))
    uc = layout.q * (psi(gam_mean) - EULER_GAMMA)
    return LOG2E / layout.m * (uc + layout.m_vc * psi(_vc_snr(scenario, g)))


# ---------------------------------------------------------------------------
# monotonicity of the primary bound in the secondary budget
# ---------------------------------------------------------------------------

_KAPPA_GATE = 0.1  # largest outage parameter of the monotonicity claim


def check_pu_monotonicity(scenario: NetworkScenario, layout: VcLayout,
                          psu_grid, n_trials: int, seed: int) -> tuple[bool, dict]:
    """Check that the primary worst-case rate is non-decreasing in the
    secondary budget, under common random numbers across the grid, with
    half of each budget on the virtual subcarriers.

    Applies only when the outage parameter satisfies kappa <= 0.1;
    outside that regime the report says so and no claim is made.  The
    report lists the Monte Carlo ``means`` with their ``stderrs`` and the
    ``exact`` rates (``c_pu_lower_quad``) at every grid point.  The grid
    shares one draw: each batch of ``default_rng(seed)``'s exponentials
    is scored at every budget, so every budget sees the numbers that
    ``c_pu_lower_trials`` would draw from a fresh ``default_rng(seed)``.
    """
    from dataclasses import replace
    from .precoding import uniform_profile

    psu_grid = [float(p) for p in psu_grid]
    if len(psu_grid) < 2 or np.any(np.diff(psu_grid) < 0):
        raise ValueError("budget grid must be non-decreasing with >= 2 points")
    k = kappa(scenario)
    report = {"kappa": k, "grid": psu_grid, "violations": [],
              "hypothesis_met": k <= _KAPPA_GATE}
    if not report["hypothesis_met"]:
        report["note"] = (f"kappa={k:.3g} exceeds the gate {_KAPPA_GATE}; "
                          "monotonicity is not asserted")
        return True, report

    points = []
    exact = []
    for p_su in psu_grid:
        sc = replace(scenario, p_su=p_su)
        g = 0.5 * p_su / layout.m_vc if layout.m_vc else 0.0
        profile = uniform_profile(layout, sc, g)
        points.append((sc, profile))
        exact.append(c_pu_lower_quad(sc, layout, profile))
    rng = np.random.default_rng(seed)

    def sample(n):
        draws = _pu_exponentials(rng, (n, layout.q))
        return np.stack([_pu_rate_law(sc, layout, profile, draws)
                         for sc, profile in points], axis=1)
    # one contiguous row of per-trial rates per budget
    samples = np.ascontiguousarray(trials(n_trials, sample).T)
    ok = True
    for i in range(1, len(psu_grid)):
        d_mean, d_se = mean_se(samples[i] - samples[i - 1])
        if d_mean < -3.0 * d_se:
            ok = False
            report["violations"].append(
                {"from": psu_grid[i - 1], "to": psu_grid[i],
                 "delta": d_mean, "stderr": d_se})
    stats = [mean_se(vals) for vals in samples]
    report["means"] = [mean for mean, _ in stats]
    report["stderrs"] = [se for _, se in stats]
    report["exact"] = exact
    return ok, report


# ---------------------------------------------------------------------------
# per-configuration report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CapacityReport:
    """Capacity estimates of one configuration (bits/s/Hz)."""

    c_pu_lower: float
    c_pu_direct: float
    delta_c_pu: float
    c_su_lower: float
    p_out: float
    std_err: dict
    estimators: dict  # method of each rate: "quadrature", "mc", "closed_form"

    def __post_init__(self):
        numbers = {name: getattr(self, name) for name in (
            "c_pu_lower", "c_pu_direct", "delta_c_pu", "c_su_lower", "p_out")}
        numbers.update((f"std_err[{key!r}]", v) for key, v in self.std_err.items())
        for name, value in numbers.items():
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if abs(self.delta_c_pu - (self.c_pu_lower - self.c_pu_direct)) > 1e-12:
            raise ValueError("delta_c_pu must equal c_pu_lower - c_pu_direct")
        if min(self.c_pu_lower, self.c_pu_direct, self.c_su_lower) < 0:
            raise ValueError("capacities must be non-negative")
        if not 0.0 <= self.p_out <= 1.0:
            raise ValueError("outage probability must lie in [0, 1]")
