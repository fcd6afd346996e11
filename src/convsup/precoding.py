"""Secondary-transmitter precoders and power allocation.

A precoder pair is (A, G): ``A = pi_idft @ upsilon_vc @ C`` carries symbols
through the relayed filter on the primary's used subcarriers, ``G = xi @ D``
carries symbols directly on the virtual subcarriers.  An allocation is a
squared row norm ``a`` of A on each used subcarrier and a power ``g`` of G
on each virtual one, under the transmit budget

    (sigma2_12 * P_pu + sigma2_v2) * sum(a_m) + sum(g_m) = P_su.

A uniform allocation is the two numbers ``(a, g)`` of ``uniform_split``;
precoders are realized for it, where C = sqrt(Q a / N) I_N is exact.
Waterfilled allocations are per-subcarrier arrays that enter the rate
bounds only as powers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import NetworkScenario
from .spectral import SpectralContext, VcLayout

__all__ = [
    "PrecoderSet",
    "PrecoderRankError",
    "uc_power_coefficient",
    "srx_noise_floor",
    "uniform_split",
    "waterfilling_profile",
    "waterfill_thresholds",
    "waterfill_power",
    "waterfill_rate",
    "waterfill_capacity",
    "waterfill_faults",
    "realize_precoders",
]


class PrecoderRankError(ValueError):
    """The used-subcarrier weight is zero, so the mixing matrix C, and with
    it A, would be zero: the relayed branch carries no symbols."""


def _leak_plus_noise(variance: float, p_pu: float, sigma2: float) -> float:
    """Power a node receives from the primary transmitter over a link of
    ``variance``, plus its thermal noise ``sigma2``."""
    return variance * p_pu + sigma2


def uc_power_coefficient(scenario: NetworkScenario) -> float:
    """Per-unit-weight transmit power of the relayed branch:
    sigma2_12 * P_pu + sigma2_v2."""
    return _leak_plus_noise(scenario.link_variance(1, 2), scenario.p_pu,
                            scenario.sigma2_v[2])


def srx_noise_floor(scenario: NetworkScenario) -> float:
    """Equivalent-noise variance at the secondary receiver on used
    subcarriers, primary leak plus thermal: sigma2_14 * P_pu + sigma2_v4."""
    return _leak_plus_noise(scenario.link_variance(1, 4), scenario.p_pu,
                            scenario.sigma2_v[4])


def uniform_split(layout: VcLayout, scenario: NetworkScenario,
                  fraction: float) -> tuple[float, float]:
    """Uniform allocation with ``fraction`` of the budget on the virtual
    subcarriers: ``(a, g)``, the power g of each virtual subcarrier, rounded
    down so that m_vc g <= P_su, and the weight a of each used subcarrier
    that spends the rest."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"virtual-subcarrier share of the budget must lie in "
                         f"[0, 1], got {fraction}")
    return _split(layout.m_vc, layout.q, scenario.p_su,
                  uc_power_coefficient(scenario), fraction)


def _check_allocation(a: float, g: float) -> None:
    """Reject a used-subcarrier weight ``a`` or virtual-subcarrier power ``g``
    that is not finite and >= 0."""
    for name, value in (("used-subcarrier weight a", a),
                        ("virtual-subcarrier power g", g)):
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(f"{name} must be finite and >= 0, got {value}")


def _split(m_vc: int, q: int, p_su: float, coef: float,
           fraction: float) -> tuple[float, float]:
    """``uniform_split`` of the budget ``p_su`` over ``m_vc`` virtual and
    ``q`` used subcarriers, a used one costing ``coef`` per unit weight."""
    g = fraction * p_su / m_vc if m_vc else 0.0
    while m_vc * g > p_su:
        g = math.nextafter(g, 0.0)
    return (p_su - m_vc * g) / (q * coef), g


def waterfill_thresholds(coef, nu_uc, nu_vc, gain_uc: np.ndarray,
                         gain_vc: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Activation thresholds of the CSIT waterfilling, in transmit-power units.

    A used subcarrier costs ``coef`` (:func:`uc_power_coefficient`) per unit
    of weight and sees the noise floor ``nu_uc`` (:func:`srx_noise_floor`),
    so its threshold is ``coef * nu_uc / gain_uc``; a virtual one fills
    against ``nu_vc / gain_vc`` (nu_vc is sigma2_v4).  Gains run along the
    last axis, used subcarriers first in the result; the three levels are
    scalars or broadcast over the leading axes, e.g. ``(n, 1)`` columns for
    n instances.  A zero gain is a dead channel (infinite threshold).
    ``out``, when given, receives the thresholds in place of a new array.
    """
    q = gain_uc.shape[-1]
    if out is None:
        lead = np.broadcast_shapes(gain_uc.shape[:-1], gain_vc.shape[:-1])
        out = np.empty((*lead, q + gain_vc.shape[-1]))
    with np.errstate(divide="ignore"):
        np.divide(coef * nu_uc, gain_uc, out=out[..., :q])
        np.divide(nu_vc, gain_vc, out=out[..., q:])
    return out


# Head widths that waterfill_capacity may take, narrowest first, and the
# share of rows whose certificate must admit a width for a call to take it.
# A width must be at most half the row, and rows narrower than _HEAD_MIN_ROW
# take no head: there the head saves less than the certificate costs.
_HEAD_WIDTHS = (8, 12, 16, 24, 32, 48)
_HEAD_SHARE = 0.99
_HEAD_MIN_ROW = 32
# Sorted columns (1-based) whose thresholds bound the cost of each width.
_HEAD_SAMPLES = (4, 6, *_HEAD_WIDTHS)


def _head_width(ranked: np.ndarray, budget: np.ndarray) -> int:
    """Narrowest head width ``k`` of ``_HEAD_WIDTHS``, at most half the row
    and none below ``_HEAD_MIN_ROW`` columns, at which at least
    ``_HEAD_SHARE`` of the rows of sorted thresholds ``ranked`` certify at
    most k active dimensions; the row width when none does.

    A row certifies k when raising its dimensions 1..k to ``t_k`` costs at
    least the budget.  Dimension i of the block (s_(j-1), s_j] of
    ``_HEAD_SAMPLES`` costs at least ``t_k - t_(s_j)``, so the cost is at
    least ``k t_k - sum_j (s_j - s_(j-1)) t_(s_j)`` over the samples up to k.
    The widths are tried narrowest first, and that sum grows by one sorted
    column per width, so width k reads no column past k: a row whose dead
    (inf) channels all lie past k may certify k, where a product of a
    weight matrix with every sampled column met 0 * inf and gave NaN.
    """
    n, width = ranked.shape
    ks = [k for k in _HEAD_WIDTHS if 2 * k <= width] if width >= _HEAD_MIN_ROW else []
    need = _HEAD_SHARE * n
    # k (t_k - t_1) bounds the cost above and grows with k, so two columns
    # tell when even the widest head certifies too few rows
    if not ks or np.count_nonzero(
            ks[-1] * (ranked[:, ks[-1] - 1] - ranked[:, 0]) >= budget) < need:
        return width
    below, prev = 0.0, 0
    with np.errstate(invalid="ignore"):  # inf - inf: fewer than k live, a NaN
        for s in _HEAD_SAMPLES[:2 + len(ks)]:
            t_s = ranked[:, s - 1]
            below = below + (s - prev) * t_s
            prev = s
            if s in ks and np.count_nonzero(s * t_s - below >= budget) >= need:
                return s
    return width


def _excess_level(excess: np.ndarray, budget: np.ndarray) -> np.ndarray:
    """Excess water level of each row of sorted ``excess``,
    (budget + e_1 + ... + e_k) / k at the count k of levels that clear
    their excess."""
    width = excess.shape[1]
    levels = np.cumsum(excess, axis=1)
    levels += budget[..., None]
    levels /= np.arange(1.0, width + 1)
    # a product with ones counts exactly, and faster than count_nonzero
    # along short rows
    n_active = ((levels > excess) @ np.ones(width)).astype(np.intp)
    return levels[np.arange(levels.shape[0]), n_active - 1]


def _head_level(head: np.ndarray, budget: np.ndarray):
    """``_excess_level`` of rows whose excesses run down the columns of
    ``head``, one row of it per sorted column, and each row's level at the
    last of them."""
    width = head.shape[0]
    levels = np.empty_like(head)
    levels[0] = head[0]
    # np.cumsum's running sum, one contiguous add per sorted column: along
    # rows of a few dozen columns cumsum pays for each row of the block
    for j in range(1, width):
        np.add(levels[j - 1], head[j], out=levels[j])
    levels += budget
    levels /= np.arange(1.0, width + 1)[:, None]
    n_active = np.count_nonzero(levels > head, axis=0)
    return levels[n_active - 1, np.arange(levels.shape[1])], levels[-1]


def _sorted_rows(thresholds, budget):
    """The input checks and the one sort of both waterfills: the thresholds
    as (n, K) floats, the budget as an array, the sorted rows (dead, inf,
    last) and their smallest thresholds ``bottom``, an (n, 1) column.  A
    zero, negative or NaN threshold raises ``ValueError``."""
    thresholds = np.atleast_2d(np.asarray(thresholds, dtype=float))
    budget = np.asarray(budget, dtype=float)
    if budget.shape not in ((), thresholds.shape[:1]):
        raise ValueError(f"budget of shape {budget.shape} does not match "
                         f"{thresholds.shape[0]} rows of thresholds")
    if not np.all((budget > 0) & np.isfinite(budget)):
        raise ValueError("power budget must be positive and finite")
    # inf (dead) thresholds sort last, and NaN after them: the sorted copy
    # checks the whole block in two of its columns
    ranked = np.sort(thresholds, axis=1)
    bottom = ranked[:, :1].copy()
    if not np.all(bottom > 0) or np.isnan(ranked[:, -1]).any():
        raise ValueError("thresholds must be positive, or inf for a dead channel")
    if not np.isfinite(bottom).all():
        raise ValueError("all channels are dead: no subcarrier can be activated")
    return thresholds, budget, ranked, bottom


def _spend(excess: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """The allocation ``max(xi - e, 0)`` of the excesses ``e`` (overwritten)
    under the excess levels ``xi``, which broadcast against them."""
    np.subtract(xi, excess, out=excess)
    return np.maximum(excess, 0.0, out=excess)


def _full_width(thresholds, budget, ranked, bottom):
    """Spend and excess level ``xi`` of rows levelled over all K of their
    sorted columns ``ranked`` (overwritten with the spend): ``_excess_level``
    of ``ranked - bottom``, then max(xi - (thresholds - bottom), 0)."""
    ranked -= bottom
    xi = _excess_level(ranked, budget)
    return _spend(np.subtract(thresholds, bottom, out=ranked), xi[:, None]), xi


def _certified_head(ranked, bottom, budget):
    """The certified head of :func:`waterfill_capacity`, k sorted columns
    (``_head_width``), or None when the call takes none: ``(sorted_head,
    excess, xi, wide)``, the head's thresholds and excesses above
    ``bottom``, each (k, n) with a row per sorted column, each row's excess
    level ``xi``, and the rows ``wide`` that fail the exactness test.

    A row's head is exact when ``L_k <= e_(k+1) (1 - K (K + 4) 2^-52)``.
    Summing nonnegative excesses in order, ``fl(L_j) <= (k L_k + (j - k)
    e_j)(1 + (K + 4) u) / j`` for j > k to first order in u = 2^-53
    (without underflow), and the test puts that at most ``e_j``: no column
    past the head clears, so the count and the level (summed in a
    full-width cumsum's order) are the full-width ones to the bit.  Without
    the slack a tie at ``e_(k+1)`` can round a later level above it.
    """
    width = ranked.shape[1]
    k = _head_width(ranked, budget)
    if k == width:
        return None
    # the sorted thresholds of the head and the column after it, and their
    # excess e = t - t_1, one row of each per sorted column
    sorted_head = ranked[:, :k + 1].T.copy()
    excess = np.subtract(sorted_head, bottom[:, 0])
    xi, last = _head_level(excess[:k], budget)
    slack = 1.0 - width * (width + 4) * 2.0 ** -52
    wide = np.flatnonzero(~(last <= excess[k] * slack))  # NaN fails
    return sorted_head[:k], excess[:k], xi, wide


def waterfill_power(thresholds: np.ndarray, budget) -> tuple[np.ndarray, np.ndarray]:
    """Exact common water level, in power units, by sort and cumulative sum.

    ``thresholds``: (K,) or (n, K) positive activation levels (inf for dead
    channels); ``budget``: one positive budget for every row, or an ``(n,)``
    array of one per row.  Returns ``(spend, mu)`` with per-dimension
    allocations ``spend = max(mu - thresholds, 0)`` summing to the budget up
    to rounding.  With the excesses ``e`` above the smallest threshold sorted
    ascending, k dimensions active put the excess level at
    ``L_k = (budget + e_1 + ... + e_k) / k``; the active count is the number
    of k whose level clears ``e_k`` (Palomar & Fonollosa, IEEE TSP 2005).
    Working on the excess keeps the level accurate when the budget is tiny
    against the threshold scale.

    The full-width kernel: every row is levelled over all K sorted columns
    and gets the bits it would get alone.  The certified head that shortens
    the CSIT estimator's rows is :func:`waterfill_capacity`'s alone.
    """
    thresholds, budget, ranked, bottom = _sorted_rows(thresholds, budget)
    spend, xi = _full_width(thresholds, budget, ranked, bottom)
    return spend, bottom[:, 0] + xi


def waterfill_rate(spend: np.ndarray, thresholds: np.ndarray):
    """Rate in bits per subcarrier use (not normalized by M) of a spend of
    :func:`waterfill_power` against its thresholds: sum_k log2(1 + spend_k /
    thr_k) along the last axis, 0 on a dead channel.  Overwrites ``spend``."""
    spend /= thresholds
    spend += 1.0
    return np.log2(spend, out=spend).sum(axis=-1)


def waterfill_capacity(thresholds: np.ndarray, budget) -> np.ndarray:
    """Rate of the waterfilled allocation of each row, in bits per
    subcarrier use (not normalized by M): :func:`waterfill_rate` of the
    spend of :func:`waterfill_power`, with the same arguments and checks,
    scored over the certified head alone where the head is exact.

    Past an exact head of k columns every spend is exactly 0, since
    ``xi <= L_k <= e_(k+1) (1 - slack) <= e_j``, and the head's terms are
    the full-width ones, summed in sorted order rather than the row's: each
    sum is within (n_active - 1) 2^-53 of the exact sum of the n_active
    nonzero terms, so the two differ by at most twice that (to first
    order), not at all for n_active <= 2.  Rows that fail the test, and
    every row of a call that takes no head (fewer than ``_HEAD_MIN_ROW``
    columns, or no width certifies), get the full-width spend and score to
    the bit.  A head row's bits do not depend on k, but a row may take a
    head in one batch and not in another, and then its last bits differ.
    """
    thresholds, budget, ranked, bottom = _sorted_rows(thresholds, budget)
    head = _certified_head(ranked, bottom, budget)
    if head is None:
        return waterfill_rate(_full_width(thresholds, budget, ranked, bottom)[0], thresholds)
    sorted_head, excess, xi, wide = head
    # transposed views: the score sums down the k sorted columns in order
    rate = waterfill_rate(_spend(excess, xi).T, sorted_head.T)
    if wide.size:
        rows = thresholds[wide]
        spend, _ = _full_width(rows, budget[wide] if budget.ndim else budget,
                               ranked[wide], bottom[wide])
        rate[wide] = waterfill_rate(spend, rows)
    return rate


def waterfill_faults(thresholds: np.ndarray, spend: np.ndarray, mu, coef, budget,
                     q: int) -> tuple[np.ndarray, np.ndarray]:
    """Optimality bookkeeping of waterfilled allocations, row by row.

    ``thresholds`` and ``spend`` are (K,) or (n, K) in transmit-power units
    with the ``q`` used subcarriers first; ``mu``, ``coef`` (the used-branch
    cost per unit weight) and ``budget`` are scalars or (n,).  Returns the
    signed budget residual ``coef * sum(a) + sum(g) - budget`` with
    ``a = spend_uc / coef`` and the shortfall ``max(1 - t / mu)`` over the
    inactive dimensions, 0 when none sits below the water level (active
    ones sit exactly at ``mu`` by construction of ``[mu - t]+``).
    """
    coef = np.asarray(coef, dtype=float)
    a = spend[..., :q] / coef[..., None]
    residual = coef * a.sum(axis=-1) + spend[..., q:].sum(axis=-1) - budget
    below = np.where(spend == 0.0, 1.0 - thresholds / np.asarray(mu)[..., None], 0.0)
    return residual, np.maximum(below.max(axis=-1), 0.0)


def waterfilling_profile(layout: VcLayout, scenario: NetworkScenario,
                         h_su: np.ndarray, h_24: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Capacity-maximizing allocation for known channels: ``(a, g)``, the
    weights of the used subcarriers and the powers of the virtual ones.

    Waterfills transmit power over the thresholds of
    :func:`waterfill_thresholds`; the common level ``mu`` (in power units)
    is the exact one of :func:`waterfill_power`.  A budget residual above
    1e-9 relative or an inactive subcarrier below the water level raises
    ``AssertionError``.
    """
    h_su = np.asarray(h_su)
    h_24 = np.asarray(h_24)
    if h_su.shape != (layout.m,) or h_24.shape != (layout.m,):
        raise ValueError("channel vectors must have one entry per subcarrier")
    if not (np.all(np.isfinite(h_su)) and np.all(np.isfinite(h_24))):
        raise ValueError("channel entries must be finite")

    coef = uc_power_coefficient(scenario)
    thresholds = waterfill_thresholds(
        coef, srx_noise_floor(scenario), scenario.sigma2_v[4],
        np.abs(h_su[list(layout.uc_indices)]) ** 2,
        np.abs(h_24[list(layout.vc_indices)]) ** 2)
    spend, mu_arr = waterfill_power(thresholds, scenario.p_su)
    spend, mu = spend[0], float(mu_arr[0])

    residual, shortfall = waterfill_faults(thresholds, spend, mu, coef,
                                           scenario.p_su, layout.q)
    if abs(residual) > 1e-9 * scenario.p_su:
        raise AssertionError(f"budget residual {residual:.3e} exceeds tolerance")
    if shortfall > 1e-12:
        raise AssertionError("inactive subcarrier below the water level")
    return spend[: layout.q] / coef, spend[layout.q:]


@dataclass(frozen=True)
class PrecoderSet:
    """Realized precoder pair: A (M x N) on the used subcarriers and G
    (M x M_vc) on the virtual ones.  The squared row norms of A are the
    realized used-subcarrier weights."""

    a: np.ndarray
    g: np.ndarray


def realize_precoders(ctx: SpectralContext, layout: VcLayout, a: float,
                      g: float) -> PrecoderSet:
    """Build (A, G) for the weight ``a`` on every used subcarrier and the
    power ``g`` on every virtual one.

    With B = pi_idft @ upsilon_vc (M x N, semi-unitary and null on the
    virtual subcarriers) the Gram target B^H diag(a) B is a I_N, so C is
    sqrt(q a / N) I_N: its square root sqrt(a) I_N, scaled to spend the
    used-subcarrier total q a.  G = sqrt(g) xi.  A zero weight raises
    :class:`PrecoderRankError`, and ``a`` or ``g`` negative, NaN or inf a
    ``ValueError``.
    """
    _check_allocation(a, g)
    if a == 0.0:
        raise PrecoderRankError("the used subcarriers carry no power, so A is zero")
    a_mat = np.sqrt(layout.q * a / layout.n_sym) * (ctx.pi_idft @ layout.upsilon_vc)
    return PrecoderSet(a=a_mat, g=(math.sqrt(g) * layout.xi).astype(complex))
