"""Block-fading frequency-selective channels with integer time offsets.

One realization covers a single multicarrier symbol period.  Taps are drawn
i.i.d. zero-mean circularly symmetric complex Gaussian with a flat power
profile, scaled so each frequency-domain coefficient has the geometric link
variance d^(-eta).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

__all__ = [
    "LINKS",
    "NetworkScenario",
    "LinkSpec",
    "ChannelRealization",
    "draw_channels",
    "toeplitz_pair",
    "zmcscg",
]

# node ids: 1 primary transmitter, 2 secondary transmitter (full duplex),
# 3 primary receiver, 4 secondary receiver
LINKS = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4))


def zmcscg(rng: np.random.Generator, shape, variance=1.0) -> np.ndarray:
    """Zero-mean circularly symmetric complex Gaussian samples with the given
    total variance (half per real dimension)."""
    scale = np.sqrt(np.asarray(variance, dtype=float) / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


@dataclass(frozen=True)
class NetworkScenario:
    """Node geometry, power budgets and noise levels.

    Distances are dimensionless (primary Tx-Rx distance normalized to 1 in
    the reference layout); link variances follow the path-loss law
    sigma2 = d^(-eta).
    """

    coords: Mapping[int, tuple[float, float]]
    eta: float
    p_pu: float
    p_su: float
    sigma2_v: Mapping[int, float]

    def __post_init__(self):
        for node in (1, 2, 3, 4):
            if node not in self.coords:
                raise ValueError(f"missing coordinates for node {node}")
            if not np.all(np.isfinite(self.coords[node])):
                raise ValueError(f"coordinates of node {node} must be finite")
        if not np.isfinite(self.eta):
            raise ValueError(f"eta must be finite, got {self.eta}")
        for name in ("p_pu", "p_su"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"power budget {name} must be positive and "
                                 f"finite, got {getattr(self, name)}")
        for node in (2, 3, 4):
            if not 0 < self.sigma2_v.get(node, 0.0) < np.inf:
                raise ValueError(f"noise variance at node {node} must be "
                                 "positive and finite")
        for i, j in LINKS:
            if self.distance(i, j) <= 0:
                raise ValueError(f"nodes {i} and {j} are co-located")

    def distance(self, i: int, j: int) -> float:
        a = np.asarray(self.coords[i], dtype=float)
        b = np.asarray(self.coords[j], dtype=float)
        return float(np.linalg.norm(a - b))

    def link_variance(self, i: int, j: int) -> float:
        return self.distance(i, j) ** (-self.eta)


@dataclass(frozen=True)
class LinkSpec:
    """Channel order and integer time offset of one link, in primary-system
    samples.  ``variance`` overrides the geometric d^(-eta) value when set."""

    order: int
    offset: int
    variance: float | None = None

    def __post_init__(self):
        if self.order < 0 or self.offset < 0:
            raise ValueError("channel order and time offset must be non-negative")
        if self.variance is not None and self.variance <= 0:
            raise ValueError("explicit link variance must be positive")


@dataclass(frozen=True)
class ChannelRealization:
    """Per-link taps, offsets and M-point frequency responses for one symbol
    period."""

    m: int
    taps: Mapping[tuple[int, int], np.ndarray]
    offsets: Mapping[tuple[int, int], int]
    freq: Mapping[tuple[int, int], np.ndarray]


def frequency_response(taps: np.ndarray, offset: int, m: int) -> np.ndarray:
    """M-point response H(m) = exp(-2j*pi*offset*m/M) * sum_l h(l) exp(-2j*pi*l*m/M)."""
    taps = np.asarray(taps)
    grid = np.arange(m)
    phase = np.exp(-2j * np.pi * offset * grid / m)
    basis = np.exp(-2j * np.pi * np.outer(grid, np.arange(taps.size)) / m)
    return phase * (basis @ taps)


def draw_channels(scenario: NetworkScenario, specs: Mapping[tuple[int, int], LinkSpec],
                  m: int, rng: np.random.Generator) -> ChannelRealization:
    """Draw one independent block-fading realization for every link.

    Each tap is ZMCSCG with variance sigma2_ij / (L_ij + 1), so the
    frequency-domain coefficients have variance sigma2_ij.
    """
    for link in LINKS:
        if link not in specs:
            raise ValueError(f"missing link spec for {link}")
    taps: dict[tuple[int, int], np.ndarray] = {}
    offsets: dict[tuple[int, int], int] = {}
    freq: dict[tuple[int, int], np.ndarray] = {}
    for link in LINKS:
        spec = specs[link]
        var = spec.variance if spec.variance is not None else scenario.link_variance(*link)
        h = zmcscg(rng, spec.order + 1, var / (spec.order + 1))
        taps[link] = h
        offsets[link] = spec.offset
        freq[link] = frequency_response(h, spec.offset, m)
    return ChannelRealization(m=m, taps=taps, offsets=offsets, freq=freq)


def toeplitz_pair(taps: np.ndarray, offset: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Intra-block and inter-block Toeplitz operators of one link.

    ``h0`` (lower triangular) acts on the current length-``p`` block, ``h1``
    (upper triangular, top-right corner) on the previous one; together they
    reproduce the sliding linear convolution of the concatenated sample
    stream delayed by ``offset``.
    """
    taps = np.asarray(taps)
    order = taps.size - 1
    if order + offset > p - 1:
        raise ValueError(
            f"channel order {order} plus offset {offset} exceeds block length "
            f"{p} minus one")
    h0 = np.zeros((p, p), dtype=complex)
    h1 = np.zeros((p, p), dtype=complex)
    for ell, h in enumerate(taps):
        h0 += h * np.eye(p, k=-(ell + offset))
        if ell + offset > 0:
            h1 += h * np.eye(p, k=p - ell - offset)
    return h0, h1
