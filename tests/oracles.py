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
``precoding.waterfill_power``, the full-width kernel, must give to the
bit, as must the certified head of ``precoding.waterfill_capacity`` on
every row that passes its exactness test; ``waterfill_score_full`` is its
rate, from which ``waterfill_capacity`` may differ by the summation order
alone (``score_order_bound``); ``head_width_by_weights`` is the head width
that ``precoding._head_width`` must give on finite blocks, from a product
of a weight matrix with the sampled sorted columns.  ``csit_rate_bounds`` gives the exact bounds
that hold ``capacity.c_su_lower_csit`` at every budget, and
``waterfill_instances_by_scenario`` the instances of the waterfilling
check, built as scenarios, that ``validation._draw_instances`` must give
to the bit.
"""

import numpy as np

from convsup import capacity
from convsup.capacity import (EULER_GAMMA, LOG2E, _composite_gain, _relayed_gain,
                              _vc_snr, _vc_term, bessel_k1, psi)
from convsup.channel import mean_se, trials
from convsup.harness import build_scenario
from convsup.precoding import (_HEAD_MIN_ROW, _HEAD_SAMPLES, _HEAD_SHARE, _HEAD_WIDTHS,
                               srx_noise_floor, uc_power_coefficient, uniform_split)


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
    """The full-width water level and spend: the sort, cumulative sum,
    levels and active count over all K sorted columns of every row, in
    the order the program had before it took a head.  ``waterfill_power``
    must give it to the bit, and so must ``waterfill_capacity``'s head
    level (``precoding._certified_head``) on the rows it certifies exact."""
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


def waterfill_score_full(thresholds, budget):
    """The rate of each row of ``waterfill_power_full``'s allocation,
    ``log2(1 + spend / thr)`` summed over all K columns in their order and
    out of place, and the row's count of nonzero terms (active dimensions)."""
    thresholds = np.atleast_2d(np.asarray(thresholds, dtype=float))
    spend, _ = waterfill_power_full(thresholds, budget)
    return np.log2(1.0 + spend / thresholds).sum(axis=1), np.count_nonzero(spend, axis=1)


def score_order_bound(rate, n_active):
    """The gap that ``precoding.waterfill_capacity`` allows between its
    score of a row and the full-width sum ``rate`` of the row's
    ``n_active`` nonzero terms: none for at most two terms, else twice
    gamma_(n-1) = (n - 1) u / (1 - (n - 1) u) of the rate, u = 2^-53, the
    most that either summation order can err from the exact sum."""
    gamma = np.maximum(n_active - 1, 0) * 2.0 ** -53
    gamma /= 1.0 - gamma
    return np.where(n_active <= 2, 0.0, 2.0 * gamma * rate)


def head_width_by_weights(ranked, budget):
    """``precoding._head_width`` of the sorted rows ``ranked`` as a matrix
    product: a row per width of the weights of the sampled columns in the
    cost bound k t_k - sum over s_j <= k of (s_j - s_(j-1)) t_(s_j), times
    those columns of every row, and the narrowest width at which at least
    ``_HEAD_SHARE`` of the rows reach the budget.  Columns past k take
    weight 0, so a dead (inf) one there makes the cost NaN: the two agree
    on finite blocks only."""
    n, width = ranked.shape
    ks = [k for k in _HEAD_WIDTHS if 2 * k <= width] if width >= _HEAD_MIN_ROW else []
    if not ks:
        return width
    samples = _HEAD_SAMPLES[:2 + len(ks)]
    steps = np.diff(samples, prepend=0)
    weights = np.array([[(s == k) * k - w if s <= k else 0 for s, w in zip(samples, steps)]
                        for k in ks], dtype=float)
    with np.errstate(invalid="ignore"):
        cost = weights @ ranked[:, np.array(samples) - 1].T
    passed = np.count_nonzero(cost >= budget, axis=1) >= _HEAD_SHARE * n
    return ks[np.argmax(passed)] if passed.any() else width


def csit_rate_bounds(scenario, layout, use_vcs=True):
    """Exact lower and upper bounds on the rate that ``c_su_lower_csit``
    estimates at the budget P = ``scenario.p_su``, as (lower, upper).

    With c_k = 1/thr_k the SNR per unit spend of dimension k and K = q +
    m_vc dimensions, putting all of P on the best dimension is feasible, so
    ``E[log2(1 + P c_max)] / M`` is a lower bound, tight as P -> 0; by
    Jensen, ``E[K log2(1 + P c_max / K)] / M`` is an upper bound.  Both are
    ``integral g'(x) (1 - F(x)) dx`` over the law F of c_max, the product
    ``F_uc(x)^q F_vc(x)^m_vc``.  A used dimension's c is a(E1) W, W = E0 E2
    the product of two unit exponentials and a(E1) the ``_relayed_gain``
    per unit of ``coef * nu_uc``, so its survival is ``2 sqrt(t)
    K1(2 sqrt(t))`` at t = x / a(E1), mixed over E1 by Gauss-Laguerre; a
    virtual one is exponential, ``exp(-x nu_vc / s24)``.  1 - F is taken as
    ``-expm1(q log1p(-S_uc) + m_vc log1p(-S_vc))``, which keeps its digits
    where F is near 1, as the low-budget bound needs.  The integral is a
    trapezoid sum in ln x (``_BOUND_STEP``; halving it moves the bounds by
    at most 4.4e-16 relative).  Against survivals from adaptive quadrature
    over E1 (scipy's ``quad`` and ``k1``), the bounds agree to 1.2e-8
    relative at the reference geometry with and without VCs and at the 7c
    geometry, at 1e-4, 1e-2 and all of the budget."""
    p = scenario.p_su
    q, m_vc = layout.q, layout.m_vc if use_vcs else 0
    e1, w = capacity._laguerre(capacity.GL_NODES)
    scale_uc = _relayed_gain(scenario, 1.0, e1) / (uc_power_coefficient(scenario)
                                                   * srx_noise_floor(scenario))
    scale_vc = scenario.link_variance(2, 4) / scenario.sigma2_v[4]
    # c_max * P below e^-40 of the smallest scale adds at most that share of
    # the bound, and past e^12 of the largest the survivals have underflowed
    lo = np.log(min(scale_uc.min(), scale_vc)) - 40.0
    hi = np.log(max(scale_uc.max(), scale_vc)) + 12.0
    x = np.exp(np.arange(lo, hi, _BOUND_STEP))
    r = 2.0 * np.sqrt(x[:, None] / scale_uc)
    s_uc = (r * bessel_k1(r)) @ w
    with np.errstate(divide="ignore"):  # S = 1 at the smallest x
        log_f = q * np.log1p(-s_uc)
        if m_vc:
            log_f += m_vc * np.log1p(-np.exp(-x / scale_vc))
    tail = -np.expm1(log_f)
    k = q + m_vc
    lower = _BOUND_STEP * np.sum(p * x / (1.0 + p * x) * tail)
    upper = _BOUND_STEP * np.sum(p * x / (1.0 + p * x / k) * tail)
    return LOG2E * lower / layout.m, LOG2E * upper / layout.m


# step in ln x of csit_rate_bounds' trapezoid sums
_BOUND_STEP = 0.05


def waterfill_instances_by_scenario(layout, rng, n):
    """``validation._draw_instances`` through a ``NetworkScenario`` per
    instance, as the waterfilling check drew its instances before it formed
    their levels from numbers: the levels (p_su, coef, nu_uc, sigma2_v4),
    shape (4, n), the normals of each instance's two channels, shape
    (n, 4, M), and the (a, g) of its 0.25 and 0.4 splits, shape (2, 2, n)."""
    levels = np.empty((4, n))
    normals = np.empty((n, 4, layout.m))
    splits = np.empty((2, 2, n))
    for i in range(n):
        scenario = build_scenario(float(rng.uniform(0.2, 1.5)),
                                  float(rng.uniform(0.5, 4.0)),
                                  float(rng.uniform(0.0, 25.0)), "su")
        levels[:, i] = (scenario.p_su, uc_power_coefficient(scenario),
                        srx_noise_floor(scenario), scenario.sigma2_v[4])
        splits[:, :, i] = [uniform_split(layout, scenario, f) for f in (0.25, 0.4)]
        rng.standard_normal(out=normals[i])
    return levels, normals, splits
