"""Test-only oracles of the uniform-allocation (NOCSIT) secondary rate and
of the CSIT water level.

The program computes that rate by ``capacity.c_su_lower_nocsit_quad``
alone.  Here are its Monte Carlo twin, the constant-modulus variant (the
primary symbol pinned at |x_pu|^2 = P_pu) in both forms, and the paper's
low- and high-SNR closed forms, which hold for constant-modulus symbols.
The Monte Carlo twin and the constant-modulus quadrature take the uniform
allocation ``(a, g)`` of ``precoding.uniform_split``, as the program does;
the closed forms take the power ``g`` of each virtual subcarrier alone.
``waterfill_power_full`` is the full-width water level that
``precoding.waterfill_power`` must give to the bit.
"""

import numpy as np

from convsup import capacity
from convsup.capacity import (EULER_GAMMA, LOG2E, _composite_gain, _relayed_gain,
                              _vc_snr, _vc_term, psi)
from convsup.channel import mean_se, trials
from convsup.precoding import srx_noise_floor


def c_su_lower_nocsit(scenario, layout, a, g, n_trials, rng, constant_modulus=False):
    """Secondary worst-case ergodic rate under uniform power allocation, by
    Monte Carlo, as (value, standard error).

    Samples log2(1 + gamma) per draw on the used subcarriers; the
    virtual-subcarrier part is the closed form M_vc * psi(snr_24).
    ``constant_modulus`` pins |x_pu|^2 = P_pu instead of drawing it
    exponentially, and draws the stacked (E0, E2) without E1.
    ``capacity.c_su_lower_nocsit_quad`` is the exact value.
    """
    scale = a / srx_noise_floor(scenario)
    vc_term = _vc_term(scenario, layout, g)

    def sample(n):
        if constant_modulus:
            e0, e2 = rng.exponential(size=(2, n, layout.q))
            gain = _relayed_gain(scenario, e0, 1.0) * e2
        else:
            gain = _composite_gain(rng, scenario, (n, layout.q))
        gam = scale * gain
        return (LOG2E / layout.m) * (np.log(1.0 + gam).sum(axis=1) + vc_term)
    return mean_se(trials(n_trials, sample))


def c_su_lower_nocsit_quad_constant_modulus(scenario, layout, a, g):
    """Exact value of ``c_su_lower_nocsit(..., constant_modulus=True)``:
    psi absorbs E2, and Gauss-Laguerre averages s24 E0 (s12 P_pu +
    sigma2_v2) over E0 alone, with ``capacity.GL_NODES`` nodes."""
    scale = a / srx_noise_floor(scenario)
    e0, w = capacity._laguerre(capacity.GL_NODES)
    gain = _relayed_gain(scenario, e0, 1.0)
    uc = layout.q * float(psi(scale * gain) @ w) if scale > 0 else 0.0
    return float(LOG2E / layout.m * (uc + _vc_term(scenario, layout, g)))


def nocsit_low_snr_approx(scenario, layout, g):
    """Low-SNR closed form (constant-modulus primary symbols): the used-
    subcarrier sum collapses to its mean SNR."""
    snr_24 = _vc_snr(scenario, g)
    snr_14 = scenario.link_variance(1, 4) * scenario.p_pu / scenario.sigma2_v[4]
    uc = snr_24 * (scenario.p_su / g - layout.m_vc) / (1.0 + snr_14)
    return LOG2E / layout.m * (uc + layout.m_vc * psi(snr_24))


def nocsit_high_snr_approx(scenario, layout, g):
    """High-SNR closed form (constant-modulus primary symbols): the log
    asymptote absorbs the innermost fading layer, leaving psi of the mean
    SNR minus Euler's constant per used subcarrier."""
    gam_mean = (scenario.link_variance(2, 4) * (scenario.p_su - layout.m_vc * g)
                / (layout.q * srx_noise_floor(scenario)))
    uc = layout.q * (psi(gam_mean) - EULER_GAMMA)
    return LOG2E / layout.m * (uc + layout.m_vc * psi(_vc_snr(scenario, g)))


def waterfill_power_full(thresholds, budget):
    """``precoding.waterfill_power`` at full width: the sort, cumulative
    sum, levels and active count over all K sorted columns of every row,
    as the program computed them before it waterfilled only a head."""
    thresholds = np.atleast_2d(np.asarray(thresholds, dtype=float))
    budget = np.asarray(budget, dtype=float)
    if budget.shape not in ((), thresholds.shape[:1]):
        raise ValueError(f"budget of shape {budget.shape} does not match "
                         f"{thresholds.shape[0]} rows of thresholds")
    if not np.all((budget > 0) & np.isfinite(budget)):
        raise ValueError("power budget must be positive and finite")
    excess = np.sort(thresholds, axis=1)  # inf (dead) thresholds sort last
    bottom = excess[:, :1].copy()
    if not np.isfinite(bottom).all():
        raise ValueError("all channels are dead: no subcarrier can be activated")
    excess -= bottom
    levels = np.cumsum(excess, axis=1)
    levels += budget[..., None]
    levels /= np.arange(1.0, excess.shape[1] + 1)
    n_active = np.count_nonzero(levels > excess, axis=1)
    xi = levels[np.arange(levels.shape[0]), n_active - 1]
    # the level array becomes the spend max(xi - (thresholds - bottom), 0)
    spend = np.subtract(thresholds, bottom, out=levels)
    np.subtract(xi[:, None], spend, out=spend)
    return np.maximum(spend, 0.0, out=spend), bottom[:, 0] + xi
