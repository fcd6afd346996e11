"""Secondary-transmitter precoders and power allocation.

A precoder pair is (A, G): ``A = pi_idft @ upsilon_vc @ C`` carries symbols
through the relayed filter on the primary's used subcarriers, ``G = xi @ D``
carries symbols directly on the virtual subcarriers.  Power profiles assign
per-subcarrier squared row norms ``a_m`` (used) and ``g_m`` (virtual) under
the transmit budget

    (sigma2_12 * P_pu + sigma2_v2) * sum(a_m) + sum(g_m) = P_su.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import NetworkScenario
from .spectral import SpectralContext, VcLayout

__all__ = [
    "PowerProfile",
    "PrecoderSet",
    "PrecoderRankError",
    "uc_power_coefficient",
    "srx_noise_floor",
    "power_residual",
    "uniform_profile",
    "waterfilling_profile",
    "waterfill_power",
    "csit_objective",
    "realize_precoders",
]


class PrecoderRankError(ValueError):
    """The used-subcarrier mixing matrix came out rank deficient; the symbol
    count N must be reduced (not fixed automatically)."""


@dataclass(frozen=True)
class PowerProfile:
    """Requested (or realized) per-subcarrier powers, aligned with
    ``layout.uc_indices`` and ``layout.vc_indices``."""

    layout: VcLayout
    uc_power: np.ndarray
    vc_power: np.ndarray
    mu: float | None = None

    def __post_init__(self):
        if self.uc_power.shape != (self.layout.q,):
            raise ValueError("uc_power does not match the layout")
        if self.vc_power.shape != (self.layout.m_vc,):
            raise ValueError("vc_power does not match the layout")
        if np.any(self.uc_power < 0) or np.any(self.vc_power < 0):
            raise ValueError("per-subcarrier powers must be non-negative")

    def full_uc_vector(self) -> np.ndarray:
        """Length-M vector of a_m (zero on the virtual subcarriers)."""
        out = np.zeros(self.layout.m)
        out[list(self.layout.uc_indices)] = self.uc_power
        return out

    def full_vc_vector(self) -> np.ndarray:
        """Length-M vector of g_m (zero on the used subcarriers)."""
        out = np.zeros(self.layout.m)
        if self.layout.m_vc:
            out[list(self.layout.vc_indices)] = self.vc_power
        return out


def uc_power_coefficient(scenario: NetworkScenario) -> float:
    """Per-unit-weight transmit power of the relayed branch:
    sigma2_12 * P_pu + sigma2_v2."""
    return scenario.link_variance(1, 2) * scenario.p_pu + scenario.sigma2_v[2]


def srx_noise_floor(scenario: NetworkScenario) -> float:
    """Equivalent-noise variance at the secondary receiver on used
    subcarriers, primary leak plus thermal: sigma2_14 * P_pu + sigma2_v4."""
    return scenario.link_variance(1, 4) * scenario.p_pu + scenario.sigma2_v[4]


def power_residual(profile: PowerProfile, scenario: NetworkScenario) -> float:
    """Signed budget residual of the transmit-power constraint."""
    spent = uc_power_coefficient(scenario) * profile.uc_power.sum() + profile.vc_power.sum()
    return spent - scenario.p_su


def uniform_profile(layout: VcLayout, scenario: NetworkScenario, g: float) -> PowerProfile:
    """Uniform allocation: every virtual subcarrier gets ``g``, the remaining
    budget is spread evenly over the used subcarriers."""
    if g < 0:
        raise ValueError("per-virtual-subcarrier power must be >= 0")
    remaining = scenario.p_su - layout.m_vc * g
    if remaining < 0:
        raise ValueError(
            f"virtual subcarriers absorb {layout.m_vc * g}, more than the "
            f"budget {scenario.p_su}")
    a = remaining / (layout.q * uc_power_coefficient(scenario))
    return PowerProfile(layout=layout,
                        uc_power=np.full(layout.q, a),
                        vc_power=np.full(layout.m_vc, g))


def waterfill_power(thresholds: np.ndarray, budget: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact common water level, in power units, by sort and cumulative sum.

    ``thresholds``: (K,) or (n, K) activation levels (inf allowed for dead
    channels).  Returns ``(spend, mu)`` with per-dimension allocations
    ``spend = max(mu - thresholds, 0)`` summing to the budget up to
    rounding.  With the excesses ``d`` above the smallest threshold sorted
    ascending, k dimensions active put the excess level at
    ``(budget + d_1 + ... + d_k) / k``; the active count is the largest k
    whose level clears ``d_k`` (Palomar & Fonollosa, IEEE TSP 2005).
    Working on the excess keeps the level accurate when the budget is tiny
    against the threshold scale.
    """
    thresholds = np.atleast_2d(np.asarray(thresholds, dtype=float))
    if budget <= 0:
        raise ValueError("power budget must be positive")
    ordered = np.sort(thresholds, axis=1)  # inf (dead) thresholds sort last
    bottom = ordered[:, :1]
    if not np.isfinite(bottom).all():
        raise ValueError("all channels are dead: no subcarrier can be activated")
    excess = ordered - bottom
    levels = (budget + np.cumsum(excess, axis=1)) / np.arange(1, excess.shape[1] + 1)
    n_active = np.count_nonzero(levels > excess, axis=1)
    xi = levels[np.arange(levels.shape[0]), n_active - 1]
    return np.maximum(xi[:, None] - (thresholds - bottom), 0.0), bottom[:, 0] + xi


def waterfilling_profile(layout: VcLayout, scenario: NetworkScenario,
                         h_su: np.ndarray, h_24: np.ndarray) -> PowerProfile:
    """Capacity-maximizing allocation for known channels.

    Waterfills transmit power: a used subcarrier costs
    (sigma2_12 * P_pu + sigma2_v2) per unit of weight, so its activation
    threshold is that cost times (sigma2_14 * P_pu + sigma2_v4)/|h_su|^2,
    while a virtual one fills against sigma2_v4/|h_24|^2; the common level
    ``mu`` (in power units) is the exact one of :func:`waterfill_power`.
    """
    h_su = np.asarray(h_su)
    h_24 = np.asarray(h_24)
    if h_su.shape != (layout.m,) or h_24.shape != (layout.m,):
        raise ValueError("channel vectors must have one entry per subcarrier")
    if not (np.all(np.isfinite(h_su)) and np.all(np.isfinite(h_24))):
        raise ValueError("channel entries must be finite")

    nu_uc = srx_noise_floor(scenario)
    coef = uc_power_coefficient(scenario)
    uc = list(layout.uc_indices)
    vc = list(layout.vc_indices)
    with np.errstate(divide="ignore"):
        t_uc = coef * nu_uc / np.abs(h_su[uc]) ** 2
        t_vc = scenario.sigma2_v[4] / np.abs(h_24[vc]) ** 2
    thresholds = np.concatenate([t_uc, t_vc])
    spend, mu_arr = waterfill_power(thresholds, scenario.p_su)
    spend, mu = spend[0], float(mu_arr[0])

    a = spend[: layout.q] / coef
    g = spend[layout.q:]
    # optimality bookkeeping: budget met to tolerance, every inactive
    # dimension has its threshold at or above the water level (active ones
    # sit exactly at mu by construction of [mu - t]+)
    spent = coef * a.sum() + g.sum()
    if abs(spent - scenario.p_su) > 1e-9 * scenario.p_su:
        raise AssertionError(
            f"budget residual {spent - scenario.p_su:.3e} exceeds tolerance")
    inactive = np.concatenate([t_uc[a == 0.0], t_vc[g == 0.0]])
    if inactive.size and np.min(inactive) < mu * (1.0 - 1e-12):
        raise AssertionError("inactive subcarrier below the water level")
    return PowerProfile(layout=layout, uc_power=a, vc_power=g, mu=mu)


def csit_objective(profile: PowerProfile, scenario: NetworkScenario,
                   h_su: np.ndarray, h_24: np.ndarray) -> float:
    """Sum rate (bits per subcarrier use, not normalized by M) achieved by a
    profile on known channels."""
    layout = profile.layout
    nu_uc = srx_noise_floor(scenario)
    uc = list(layout.uc_indices)
    vc = list(layout.vc_indices)
    uc_term = np.log2(1.0 + profile.uc_power * np.abs(h_su[uc]) ** 2 / nu_uc).sum()
    vc_term = np.log2(1.0 + profile.vc_power * np.abs(h_24[vc]) ** 2
                      / scenario.sigma2_v[4]).sum() if layout.m_vc else 0.0
    return float(uc_term + vc_term)


@dataclass(frozen=True)
class PrecoderSet:
    """Realized precoder pair.

    ``profile`` holds the *realized* per-subcarrier powers (squared row
    norms of A and G); ``requested`` the profile the construction aimed at.
    The used-subcarrier branch can only shape its Gram matrix inside a
    rank-N family, so realized row norms ripple around the request while the
    total spent budget is matched exactly; ``max_uc_mismatch`` records the
    worst relative per-row deviation.
    """

    c: np.ndarray
    d: np.ndarray
    a: np.ndarray
    g: np.ndarray
    profile: PowerProfile
    requested: PowerProfile
    max_uc_mismatch: float


def realize_precoders(ctx: SpectralContext, layout: VcLayout,
                      profile: PowerProfile) -> PrecoderSet:
    """Build (C, D) and the resulting (A, G) for a requested power profile.

    C is the principal (Hermitian PSD) square root of the Gram target
    ``upsilon^H pi^H diag(a) pi upsilon``, rescaled by a single scalar so the
    total used-subcarrier power matches the request exactly.  D is diagonal
    with entries sqrt(g_m), which meets its target exactly.  The worst
    relative gap between realized and requested used-subcarrier row norms
    is recorded as ``max_uc_mismatch``.
    """
    n_sym = layout.n_sym
    if n_sym < 1:
        raise ValueError("layout leaves no used-subcarrier symbol dimensions")

    basis = ctx.pi_idft @ layout.upsilon_vc  # M x N, semi-unitary
    sigma_a = profile.full_uc_vector()
    gram = basis.conj().T @ (sigma_a[:, None] * basis)
    gram = 0.5 * (gram + gram.conj().T)
    ew, ev = np.linalg.eigh(gram)
    scale = max(ew.max(), 0.0)
    if np.any(ew < -1e-10 * max(scale, 1.0)):
        raise AssertionError("Gram target is not positive semidefinite")
    ew = np.clip(ew, 0.0, None)
    if scale <= 0.0 or ew.min() <= 1e-10 * scale:
        raise PrecoderRankError(
            f"used-subcarrier mixing matrix is singular at N={n_sym}; reduce "
            "the symbol count")
    c = (ev * np.sqrt(ew)) @ ev.conj().T

    # the Gram construction realizes only trace(diag(a) P), P the rank-N
    # projector onto the realizable responses; rescale to spend the full
    # requested used-subcarrier budget
    requested_total = profile.uc_power.sum()
    raw_total = float(np.trace(gram).real)
    kappa = np.sqrt(requested_total / raw_total)
    c = kappa * c
    a_mat = basis @ c

    d = np.diag(np.sqrt(profile.vc_power)).astype(complex)
    g_mat = layout.xi @ d

    vc_rows = np.abs(a_mat[list(layout.vc_indices), :]).max() if layout.m_vc else 0.0
    if vc_rows > 1e-10:
        raise AssertionError(f"virtual-subcarrier rows of A are not null: {vc_rows:.3e}")

    realized_uc = np.sum(np.abs(a_mat[list(layout.uc_indices), :]) ** 2, axis=1)
    realized = PowerProfile(layout=layout, uc_power=realized_uc,
                            vc_power=profile.vc_power.copy())
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.abs(realized_uc - profile.uc_power) / np.where(
            profile.uc_power > 0, profile.uc_power, 1.0)
    max_mismatch = float(rel.max()) if rel.size else 0.0

    return PrecoderSet(c=c, d=d, a=a_mat, g=g_mat, profile=realized,
                       requested=profile, max_uc_mismatch=max_mismatch)
