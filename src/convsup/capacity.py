"""Ergodic-capacity lower bounds, outage closed form and special functions.

All fading averages reduce to the map A -> E[ln(1 + A*u)] over a unit
exponential u, evaluated through the exponential integral.  Monte Carlo
estimators sample the per-subcarrier effective SNRs directly and fold them
with ``channel.trials``, and ``channel.mean_se`` forms the standard error
of every average; under a uniform allocation the
``*_quad`` functions compute the same rates exactly, by Gauss-Laguerre
quadrature over the remaining unit exponentials (64 nodes per axis), and
a Monte Carlo twin of each is its oracle (the NOCSIT one in the tests).
Capacities are in bits/s/Hz (the cyclic prefix overhead is excluded
everywhere and reported separately as the M/(M+L_cp) factor).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial.laguerre import laggauss

from .channel import Moments, NetworkScenario, mean_se, trials
from .precoding import (srx_noise_floor, uc_power_coefficient, uniform_split,
                        waterfill_power, waterfill_thresholds)
from .spectral import VcLayout

__all__ = [
    "EULER_GAMMA",
    "CapacityReport",
    "psi",
    "bessel_k1",
    "kappa",
    "outage_closed_form",
    "pu_outage_probability",
    "outage_mc",
    "snr_13_direct",
    "c_pu_direct",
    "c_pu_lower_trials",
    "c_pu_lower_quad",
    "c_su_lower_csit",
    "c_su_lower_nocsit_quad",
    "baseline_ocr",
    "baseline_nocr",
    "baseline_nocr_quad",
    "check_pu_monotonicity",
]

EULER_GAMMA = float(np.euler_gamma)
LOG2E = 1.0 / np.log(2.0)

GL_NODES = 64  # Gauss-Laguerre nodes per axis of the *_quad rates
_NOCR_STEP = 0.2  # trapezoid step in ln u of baseline_nocr_quad
# trials per pass of c_su_lower_csit's waterfilling: the few (rows, K)
# arrays of a 512-row block stay in cache; it also draws per block, so this
# fixes its stream
_CSIT_ROWS = 512
# trials per pass of c_pu_lower_trials: its (rows, q) temporaries stay below
# glibc's 128 KiB mmap threshold, so a fresh process reuses their pages
_PU_ROWS = 128


@functools.cache
def _laguerre(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Laguerre nodes and weights: sum_i w_i f(x_i) ~ E[f(u)] for a
    unit exponential u."""
    return laggauss(n_nodes)


def _laguerre_2d(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor-product rule over two independent unit exponentials, as
    flattened (node_1, node_2, weight) arrays."""
    x, w = _laguerre(n_nodes)
    return (np.repeat(x, n_nodes), np.tile(x, n_nodes),
            np.outer(w, w).ravel())


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------
#
# psi and K_1 are numpy kernels: importing the package does not load
# scipy.special.  Each element takes the terms of its own band of the
# argument, whatever else its array holds.


def _e1_series(terms: int) -> tuple[float, ...]:
    """(-1)^(k+1) / (k k!) for k = terms..1: the E1 power series without
    its -gamma - ln z, highest order first."""
    return tuple((-1) ** (k + 1) / (k * math.factorial(k)) for k in range(terms, 0, -1))


# z exp(z) E1(z) = E[1/(1 + a u)] for a unit exponential u and a = 1/z in
# [0, 1] as the (10, 10) rational c + sum_k r_k / (a + s_k), fitted
# near-minimax at 50 digits with mpmath (Sanathanan-Koerner iteration with
# Lawson weights; relative error 1.4e-17 over [0, 1]); the (s_k, r_k) are
# in the order of summation, smallest term first, and the sum is 1 at a = 0
_PSI_RATIONAL_C = 0.019165484638155577
_PSI_RATIONAL = (
    (0.068365151819964391552, 1.908286512536868944e-7),
    (0.10233948430193723897, 0.000022261407820807035711),
    (0.15113238753982426533, 0.00052609704800284897937),
    (0.22592502567206977078, 0.0049399100293816117215),
    (0.34673187522340859939, 0.024927966989361187815),
    (13.937262201047968282, 1.5939046148120381697),
    (0.55405530354498181333, 0.081392708737101888929),
    (3.9728002303487591034, 0.74625636022532171896),
    (0.94092789399369698333, 0.19704072861280386299),
    (1.7637907592052246179, 0.39659706991254568167))
# psi's bands of z = 1/a as (upper edge, series coefficients), None for the
# rational; each series is cut where its first omitted term at the
# band's upper edge is below 2^-60 of E1
_PSI_BANDS = ((2.0 ** -6, _e1_series(7)), (1.0, _e1_series(19)), (math.inf, None))
_DEFICIT_SEAM = 1.0 / 700.0  # below it _psi_deficit takes its series


def psi(a):
    """E[ln(1 + a*u)] for a unit exponential u, i.e. the integral of
    exp(-u) ln(1 + a*u); equals exp(z) * E1(z) with z = 1/a.  Vectorized;
    requires a > 0 and tends to a as a -> 0+.

    For z <= 1 it is exp(z) (ln a - gamma + sum_k (-1)^(k+1) z^k/(k k!)),
    the E1 power series in Horner form, with 7 terms up to z = 2^-6 and
    19 above.  For z > 1 it is a times a rational in a, in partial
    fractions, which takes a subnormal a (z = inf) too.  Every element takes
    the operations of its own band, whatever else its array holds, and a
    scalar runs as a one-element array, so it gets the bits it would get
    inside any array.  The error stays within 3 ulp of the exact value over
    the whole float range (see the tests).
    """
    arr = np.asarray(a, dtype=float)
    if np.any(arr <= 0) or not np.all(np.isfinite(arr)):
        raise ValueError("psi requires strictly positive finite arguments")
    flat = arr.reshape(-1)
    with np.errstate(over="ignore"):  # subnormal a gives z = inf
        z = 1.0 / flat
    out = _psi_kernel(z, flat)
    return out.reshape(arr.shape) if arr.ndim else float(out[0])


def _psi_kernel(z, a):
    """psi of an array, each element by the kernel of its z-band; the
    array is split only where it spans several bands."""
    out = None
    below = None  # the elements of the lower bands
    for edge, coef in _PSI_BANDS:
        inside = z <= edge
        sel = inside if below is None else inside & ~below
        if sel.all():
            return _psi_band(z, a, coef)
        if sel.any():
            if out is None:
                out = np.empty_like(a)
            out[sel] = _psi_band(z[sel], a[sel], coef)
        below = inside
    return out


def _psi_band(z, a, coef):
    if coef is None:
        acc = _PSI_RATIONAL_C
        for pole, residue in _PSI_RATIONAL:
            acc = acc + residue / (a + pole)
        return a * acc
    return ((np.log(a) - EULER_GAMMA) + z * _horner(z, coef)) * np.exp(z)


def _psi_series(a):
    """(1 - psi(a)/a)/a as the Horner form of sum_k (-1)^k (k + 1)! a^k,
    cut at k = 7; valid for a <= 1/700."""
    acc = np.ones_like(a)
    for k in range(8, 1, -1):
        acc = 1.0 - k * a * acc
    return acc


def _psi_deficit(b: np.ndarray) -> np.ndarray:
    """1 - psi(b)/b = E[b u / (1 + b u)] for a unit exponential u, without
    the cancellation of the difference at small b."""
    small = b < _DEFICIT_SEAM
    out = np.empty_like(b)
    out[small] = b[small] * _psi_series(b[small])
    big = ~small
    out[big] = 1.0 - psi(b[big]) / b[big]
    return out


# Chebyshev coefficients, highest order first, of the expansions of Cephes
# (S. L. Moshier, Methods and Programs for Mathematical Functions, 1989),
# recomputed at 60 digits with mpmath: x (K1(x) - ln(x/2) I1(x)) in x^2 - 2
# for x <= 2, and exp(x) sqrt(x) K1(x) in 8/x - 2 for x > 2
_K1_SMALL = (
    -7.02386347938628759718e-18, -2.42744985051936593393e-15,
    -6.66690169419932900609e-13, -1.41148839263352776110e-10,
    -2.21338763073472585583e-8, -2.43340614156596823496e-6,
    -1.73028895751305206302e-4, -6.97572385963986435018e-3,
    -1.22611180822657148235e-1, -3.53155960776544875667e-1,
    1.52530022733894777053e0)
_K1_LARGE = (
    -5.75674448207330245029e-18, 1.79405104788635729143e-17,
    -5.68946284919364837425e-17, 1.83809357524304542556e-16,
    -6.05704727064301782278e-16, 2.03870316623986087993e-15,
    -7.01983708921476885131e-15, 2.47715442421959868133e-14,
    -8.97670518201014606915e-14, 3.34841966605224312010e-13,
    -1.28917396094982293520e-12, 5.13963967348234354040e-12,
    -2.12996783842779102155e-11, 9.21831518760531412583e-11,
    -4.19035475934192558424e-10, 2.01504975519703461615e-9,
    -1.03457624656780970267e-8, 5.74108412545004929231e-8,
    -3.50196060308781254210e-7, 2.40648494783721711706e-6,
    -1.93619797416608296002e-5, 1.95215518471351631108e-4,
    -2.85781685962277938680e-3, 1.03923736576817238437e-1,
    2.72062619048444266945e0)
# power series of I1/(x/2) in (x/2)^2, highest order first: the first
# omitted term is below 2^-60 of the sum for x <= 2
_I1_SERIES = tuple(1.0 / (math.factorial(k) * math.factorial(k + 1))
                   for k in range(13, -1, -1))


def _chebyshev(y, coef):
    """Clenshaw sum c_0/2 + sum_k c_k T_k(y/2) of ``coef`` = (c_n, ..., c_0),
    Cephes' chbevl."""
    b0, b1, b2 = coef[0], 0.0, 0.0
    for c in coef[1:]:
        b0, b1, b2 = y * b0 - b1 + c, b0, b1
    return 0.5 * (b0 - b2)


def _horner(x, coef):
    """sum_k c_k x^k of ``coef`` = (c_n, ..., c_0)."""
    acc = coef[0]
    for c in coef[1:]:
        acc = acc * x + c
    return acc


def bessel_k1(x):
    """Modified Bessel function of the second kind of order 1, for x > 0
    (inf gives 0).

    Cephes' two Chebyshev expansions: for x <= 2 the smooth part left after
    the logarithmic singularity ln(x/2) I1(x), with I1 from its power
    series; for x > 2 exp(x) sqrt(x) K1(x) in 8/x - 2.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(arr > 0):
        raise ValueError("bessel_k1 requires x > 0")
    flat = arr.ravel()
    out = np.empty_like(flat)
    small = flat <= 2.0
    if small.any():
        xs = flat[small]
        x2 = xs * xs
        log_half = np.log(0.5 * xs)
        out[small] = (log_half * (0.5 * xs) * _horner(0.25 * x2, _I1_SERIES)
                      + _chebyshev(x2 - 2.0, _K1_SMALL) / xs)
    large = ~small
    if large.any():
        xl = flat[large]
        out[large] = (np.exp(-xl) * _chebyshev(8.0 / xl - 2.0, _K1_LARGE)
                      / np.sqrt(xl))
    return out.reshape(arr.shape) if arr.ndim else float(out[0])


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
    return float(np.clip(1.0 - 2.0 * k * bessel_k1(2.0 * k), 0.0, 1.0))


def pu_outage_probability(scenario: NetworkScenario) -> float:
    """Probability that the effective primary SNR with the secondary active
    drops below the direct-link SNR: 1 - 2k*K1(2k).  Independent of the
    secondary precoding."""
    return outage_closed_form(kappa(scenario))


def outage_mc(scenario: NetworkScenario, a: float, n_trials: int,
              rng: np.random.Generator) -> tuple[float, float]:
    """Monte Carlo outage frequency with its standard error (``mean_se`` of
    the outage indicators).

    Draws the relay-gain product for one used subcarrier of weight ``a``
    and counts how often the effective SNR falls below the direct one; the
    weight cancels, so the count is independent of it under common draws.
    """
    def sample(n):
        relay, noise = _pu_relay_terms(scenario, a, *_pu_exponentials(rng, (n,)))
        return relay < noise
    return mean_se(trials(n_trials, sample))


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


def _pu_rate_law(scenario: NetworkScenario, layout: VcLayout, a,
                 draws: np.ndarray) -> np.ndarray:
    """Per-trial primary worst-case rate (bits/s/Hz) of stacked
    ``_pu_exponentials`` draws of shape (2, trials, q) at the used-subcarrier
    weight ``a``, one number or one per used subcarrier."""
    gam = _pu_snr(scenario, a, draws[0], draws[1])
    return (LOG2E / layout.m) * psi(gam).sum(axis=1)


def c_pu_lower_trials(points, layout: VcLayout, n_trials: int,
                      rng: np.random.Generator) -> Moments:
    """The per-trial primary worst-case rate (bits/s/Hz) at each of
    ``points``, (scenario, used-subcarrier weight ``a``) pairs that share
    ``layout``, folded by ``trials``: one column per point.  Each batch of
    exponentials is drawn once and scored at every point (common random
    numbers), so a point's column holds the numbers a one-point call
    draws."""
    def sample(n):
        draws = _pu_exponentials(rng, (n, layout.q))
        out = np.empty((n, len(points)))
        # scored in row blocks: a whole batch's (n, q) temporaries would be
        # mapped and faulted in afresh for every point
        for lo in range(0, n, _PU_ROWS):
            block = draws[:, lo:lo + _PU_ROWS]
            for j, (sc, a) in enumerate(points):
                out[lo:lo + _PU_ROWS, j] = _pu_rate_law(sc, layout, a, block)
        return out
    return trials(n_trials, sample)


def c_pu_lower_quad(scenario: NetworkScenario, layout: VcLayout, a: float) -> float:
    """Exact primary worst-case ergodic rate at the weight ``a`` on every
    used subcarrier: the mean of ``c_pu_lower_trials`` by 2-D Gauss-Laguerre
    over the relay gain |h23|^2/s23 and the filter gain |f|^2/a."""
    e1, e2, w = _laguerre_2d(GL_NODES)
    gam = _pu_snr(scenario, a, e1, e2)
    return float(LOG2E / layout.m * (layout.q * (psi(gam) @ w)))


# ---------------------------------------------------------------------------
# secondary-user capacity
# ---------------------------------------------------------------------------

def _relay_factors(scenario: NetworkScenario, e0, e1):
    """The draws of ``_relayed_gain`` scaled by their link variances, s24 E0
    and s12 |x_pu|^2 with |x_pu|^2 = P_pu E1; they depend on the scenario
    through s24, s12 and P_pu only."""
    return (scenario.link_variance(2, 4) * e0,
            scenario.link_variance(1, 2) * (scenario.p_pu * e1))


def _relayed_gain(scenario: NetworkScenario, e0, e1, *, factors=None, out=None):
    """s24 E0 (s12 |x_pu|^2 + sigma2_v2) with |x_pu|^2 = P_pu E1: the
    composite used-subcarrier gain |h24 (h12 x_pu + v2)|^2 before its
    innermost relay-gain exponential E2.  ``factors``, when given, are the
    ``_relay_factors`` of the draws, computed once for the scenarios that
    share them, and ``out`` receives the gain."""
    s24_e0, s12_x = _relay_factors(scenario, e0, e1) if factors is None else factors
    return np.multiply(s24_e0, np.add(s12_x, scenario.sigma2_v[2], out=out), out=out)


def _relay_exponentials(rng: np.random.Generator, shape) -> np.ndarray:
    """The unit exponentials (E0, E1, E2) of ``shape`` composite gains,
    stacked along a new first axis and drawn in that order."""
    return rng.exponential(size=(3, *np.atleast_1d(shape)))


def _composite_gain(rng: np.random.Generator, scenario: NetworkScenario, shape) -> np.ndarray:
    """Composite used-subcarrier gain ``_relayed_gain`` times E2, drawn
    exactly in law with E0, E1, E2 unit exponentials in that draw order."""
    e0, e1, e2 = _relay_exponentials(rng, shape)
    return _relayed_gain(scenario, e0, e1) * e2


def c_su_lower_csit(scenarios, layout: VcLayout, n_trials: int,
                    rng: np.random.Generator,
                    use_vcs: bool = True) -> Moments:
    """Per-trial secondary worst-case rate with per-realization
    waterfilling, one column per scenario of ``scenarios``, folded by
    ``trials`` as ``c_pu_lower_trials`` folds its columns; ``mean_se``
    gives each scenario's (value, standard error).

    Each trial draws the composite used-subcarrier gain (relay gain times
    relayed primary symbol plus secondary-chain noise) and the direct
    virtual-subcarrier gain, waterfills the budget over the active
    dimensions, and scores the resulting rate.  Each batch of ``trials``
    runs in blocks of ``_CSIT_ROWS`` trials: a block draws its exponentials
    (E0, E1 and E2 of the used subcarriers, then the virtual-subcarrier
    gains), then waterfills and scores them in buffers that every block
    reuses, so the draws held at any time are one block's, whatever
    ``n_trials``.  ``_CSIT_ROWS`` and ``channel._CHUNK`` together fix how
    the random stream is consumed.

    The law of those unit exponentials depends on ``layout`` only, so the
    scenarios share one draw (common random numbers): each block is scored
    at every scenario, and every scenario's column holds the numbers that a
    call with it alone, on a generator in the same state, would fold.  The
    factors s24 E0 and s12 P_pu E1 (``_relay_factors``) and the
    virtual-subcarrier gains s24 E of a block are computed once for
    consecutive scenarios with the same (s24, s12, P_pu), e.g. every point
    of an SNR sweep, so a scenario only adds its sigma2_v2, multiplies by
    them and by E2, and divides.
    """
    points = [(sc, (sc.link_variance(2, 4), sc.link_variance(1, 2), sc.p_pu),
               (uc_power_coefficient(sc), srx_noise_floor(sc), sc.sigma2_v[4]))
              for sc in scenarios]
    n_vc = layout.m_vc if use_vcs else 0

    def sample(n):
        rate = np.empty((n, len(points)))
        gain_buf = np.empty((min(n, _CSIT_ROWS), layout.q))
        thr_buf = np.empty((min(n, _CSIT_ROWS), layout.q + n_vc))
        for lo in range(0, n, _CSIT_ROWS):
            hi = min(lo + _CSIT_ROWS, n)
            e0, e1, e2 = _relay_exponentials(rng, (hi - lo, layout.q))
            vc_draws = rng.exponential(size=(hi - lo, n_vc))
            gain, thr = gain_buf[:hi - lo], thr_buf[:hi - lo]
            shared = None
            for j, (sc, key, levels) in enumerate(points):
                if key != shared:
                    shared = key
                    factors = _relay_factors(sc, e0, e1)
                    gain_vc = sc.link_variance(2, 4) * vc_draws
                _relayed_gain(sc, e0, e1, factors=factors, out=gain)
                gain *= e2
                waterfill_thresholds(*levels, gain, gain_vc, out=thr)
                spend, _ = waterfill_power(thr, sc.p_su)
                spend /= thr
                spend += 1.0
                rate[lo:hi, j] = np.log2(spend, out=spend).sum(axis=1)
        rate /= layout.m
        return rate
    return trials(n_trials, sample)


def _vc_snr(scenario: NetworkScenario, g):
    """Mean SNR of a virtual subcarrier carrying power ``g`` on the direct
    secondary link."""
    return scenario.link_variance(2, 4) * g / scenario.sigma2_v[4]


def _vc_term(scenario: NetworkScenario, layout: VcLayout, g: float) -> float:
    """The virtual subcarriers' part of the uniform-allocation secondary
    rate, the closed form M_vc * psi(snr_24) in nats (0 if snr_24 is 0)."""
    return layout.m_vc * psi(snr) if (snr := _vc_snr(scenario, g)) > 0 else 0.0


def c_su_lower_nocsit_quad(scenario: NetworkScenario, layout: VcLayout,
                           a: float, g: float) -> float:
    """Secondary worst-case ergodic rate under the uniform allocation
    ``(a, g)`` of ``uniform_split``, exactly.

    On a used subcarrier of weight a the SNR is a / nu times the composite
    gain (nu the ``srx_noise_floor``); psi absorbs the gain's innermost
    relay-gain exponential E2, and Gauss-Laguerre averages s24 E0 (s12
    |x_pu|^2 + sigma2_v2) over the remaining (E0, E1).  The virtual
    subcarriers add the closed form M_vc * psi(snr_24)."""
    scale = a / srx_noise_floor(scenario)
    e0, e1, w = _laguerre_2d(GL_NODES)
    gain = _relayed_gain(scenario, e0, e1)
    uc = layout.q * float(psi(scale * gain) @ w) if scale > 0 else 0.0
    return float(LOG2E / layout.m * (uc + _vc_term(scenario, layout, g)))


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
    a, _ = uniform_split(layout, scenario, 0.0)
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
    c = uniform_split(layout, scenario, 0.0)[0] / srx_noise_floor(scenario)
    e1, w = _laguerre(GL_NODES)
    gain = _relayed_gain(scenario, 1.0, e1)
    mean_x = c * layout.q * float(gain @ w)
    u = np.exp(np.arange(4.0, -max(0.0, np.log(mean_x)) - 32.0, -_NOCR_STEP))
    deficit = _psi_deficit(c * u[:, None] * gain[None, :]) @ w  # 1 - L(c u)
    f = -np.expm1(layout.q * np.log1p(-deficit)) * np.exp(-u)
    return float(LOG2E * _NOCR_STEP * f.sum() / layout.m)


# ---------------------------------------------------------------------------
# monotonicity of the primary bound in the secondary budget
# ---------------------------------------------------------------------------

_KAPPA_GATE = 0.1  # largest outage parameter of the monotonicity claim


def check_pu_monotonicity(scenario: NetworkScenario, layout: VcLayout,
                          psu_grid, n_trials: int, seed: int) -> tuple[bool, dict]:
    """Check that the primary worst-case rate is non-decreasing in the
    secondary budget, with half of each budget on the virtual subcarriers.

    Applies only when the outage parameter satisfies kappa <= 0.1;
    outside that regime the report says so and no claim is made.  Every
    fall of the ``exact`` rate (``c_pu_lower_quad``) between consecutive
    budgets is a violation, so equal budgets pass.  The report also lists
    the Monte Carlo ``means`` and ``stderrs``, the quadrature's oracle, of
    one draw of ``c_pu_lower_trials`` from ``default_rng(seed)`` that the
    grid shares: every budget sees the numbers a one-budget call would draw.
    """
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

    scenarios = [replace(scenario, p_su=p_su) for p_su in psu_grid]
    points = [(sc, uniform_split(layout, sc, 0.5)[0]) for sc in scenarios]
    exact = [c_pu_lower_quad(sc, layout, a) for sc, a in points]
    report["violations"] = [
        {"from": psu_grid[i - 1], "to": psu_grid[i], "delta": exact[i] - exact[i - 1]}
        for i in range(1, len(exact)) if exact[i] < exact[i - 1]]
    rates = mean_se(c_pu_lower_trials(points, layout, n_trials,
                                      np.random.default_rng(seed)))
    report["means"] = [mean for mean, _ in rates]
    report["stderrs"] = [se for _, se in rates]
    report["exact"] = exact
    return not report["violations"], report


# ---------------------------------------------------------------------------
# per-configuration report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CapacityReport:
    """Capacity estimates of one configuration (bits/s/Hz).  The primary
    rates are exact (a quadrature or the closed form), so the secondary
    rate's is the only standard error; it is 0 when that rate is exact
    too."""

    c_pu_lower: float
    c_pu_direct: float
    c_su_lower: float
    stderr_c_su_lower: float
    p_out: float

    def __post_init__(self):
        for name, value in vars(self).items():
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if min(self.c_pu_lower, self.c_pu_direct, self.c_su_lower) < 0:
            raise ValueError("capacities must be non-negative")
        if not 0.0 <= self.p_out <= 1.0:
            raise ValueError("outage probability must lie in [0, 1]")
