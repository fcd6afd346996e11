"""Block-fading frequency-selective channels with integer time offsets.

One realization covers a single multicarrier symbol period.  Taps are drawn
i.i.d. zero-mean circularly symmetric complex Gaussian with a flat power
profile, scaled so each frequency-domain coefficient has the geometric link
variance d^(-eta).  ``trials`` and ``mean_se`` are the one batch-and-reduce
driver of every Monte Carlo estimator in the package.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

__all__ = [
    "LINKS",
    "NetworkScenario",
    "LinkSpec",
    "ChannelRealization",
    "draw_channels",
    "link_output",
    "toeplitz_pair",
    "zmcscg",
]

# node ids: 1 primary transmitter, 2 secondary transmitter (full duplex),
# 3 primary receiver, 4 secondary receiver
LINKS = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4))
_LINK_ROWS = 128  # frames per pass of link_output: 128 x 2p samples stay in cache
# draws per vectorized batch of every Monte Carlo loop; the batches fix how
# each estimator consumes its random stream
_CHUNK = 20_000


def zmcscg(rng: np.random.Generator, shape, variance=1.0) -> np.ndarray:
    """Zero-mean circularly symmetric complex Gaussian samples with the given
    total variance (half per real dimension)."""
    # all real parts, then all imaginary parts, through one float buffer
    scale = np.sqrt(np.asarray(variance, dtype=float) / 2.0)
    normals = rng.standard_normal(shape)
    out = np.empty(np.broadcast_shapes(normals.shape, scale.shape), dtype=complex)
    np.multiply(scale, normals, out=out.real)
    rng.standard_normal(normals.shape, out=normals)
    np.multiply(scale, normals, out=out.imag)
    return out


def trials(n: int, sample) -> np.ndarray:
    """``sample(k)`` over consecutive batches of at most ``_CHUNK`` draws that
    add up to ``n``, concatenated in order along the first axis; ``n`` must
    be at least 1."""
    if n < 1:
        raise ValueError(f"the number of draws must be at least 1, got {n}")
    return np.concatenate([sample(min(_CHUNK, n - start))
                           for start in range(0, n, _CHUNK)])


def mean_se(vals: np.ndarray) -> tuple[float, float]:
    """Sample mean of per-draw values and its standard error; fewer than two
    values have no standard error and raise ``ValueError``."""
    if len(vals) < 2:
        raise ValueError(f"a standard error needs at least 2 draws, got {len(vals)}")
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(len(vals)))


def _complex_gaussian(re: np.ndarray, im: np.ndarray, variance) -> np.ndarray:
    # unit real normals -> complex samples of the given total variance,
    # scaled straight into the two halves of one complex array
    scale = np.sqrt(np.asarray(variance, dtype=float) / 2.0)
    shape = np.shape(re)
    if scale.ndim or np.shape(im) != shape:
        shape = np.broadcast_shapes(shape, np.shape(im), scale.shape)
    out = np.empty(shape, dtype=complex)
    np.multiply(scale, re, out=out.real)
    np.multiply(scale, im, out=out.imag)
    return out


@dataclass(frozen=True)
class NetworkScenario:
    """Node geometry, power budgets and noise levels.

    Distances are dimensionless (primary Tx-Rx distance normalized to 1 in
    the reference layout); link variances follow the path-loss law
    sigma2 = d^(-eta) and are computed once, when the scenario is built.
    """

    coords: Mapping[int, tuple[float, float]]
    eta: float
    p_pu: float
    p_su: float
    sigma2_v: Mapping[int, float]
    _variances: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for node in (1, 2, 3, 4):
            if node not in self.coords:
                raise ValueError(f"missing coordinates for node {node}")
            if not all(math.isfinite(c) for c in self.coords[node]):
                raise ValueError(f"coordinates of node {node} must be finite")
        if not (np.isfinite(self.eta) and self.eta > 0):
            raise ValueError(f"path-loss exponent eta must be positive and "
                             f"finite, got {self.eta}")
        for name in ("p_pu", "p_su"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"power budget {name} must be positive and "
                                 f"finite, got {getattr(self, name)}")
        for node in (2, 3, 4):
            if not 0 < self.sigma2_v.get(node, 0.0) < np.inf:
                raise ValueError(f"noise variance at node {node} must be "
                                 "positive and finite")
        variances = {}
        for i, j in LINKS:
            d = self.distance(i, j)
            if d <= 0:
                raise ValueError(f"nodes {i} and {j} are co-located")
            try:
                variance = d ** -float(self.eta)
            except OverflowError:
                variance = math.inf
            if not sys.float_info.min <= variance < math.inf:
                raise ValueError(f"path-loss exponent eta={self.eta!r} puts the variance "
                                 f"d^(-eta) of link {i}-{j} (d = {d:.6g}) outside the "
                                 "normal floats")
            variances[i, j] = variance
        object.__setattr__(self, "_variances", variances)

    def distance(self, i: int, j: int) -> float:
        # the dot product np.linalg.norm takes, to the bit, without its
        # overhead; math.hypot rounds differently
        d = np.subtract(self.coords[i], self.coords[j], dtype=float)
        return math.sqrt(d.dot(d))

    def link_variance(self, i: int, j: int) -> float:
        """Variance d^(-eta) of link (i, j), one of ``LINKS``."""
        return self._variances[i, j]


@dataclass(frozen=True)
class LinkSpec:
    """Channel order and integer time offset of one link, in primary-system
    samples."""

    order: int
    offset: int

    def __post_init__(self):
        if self.order < 0 or self.offset < 0:
            raise ValueError("channel order and time offset must be non-negative")


@dataclass(frozen=True)
class ChannelRealization:
    """Per-link taps, offsets and M-point frequency responses for one symbol
    period; a batched draw puts its batch shape in front of every ``taps``
    and ``freq`` array."""

    m: int
    taps: Mapping[tuple[int, int], np.ndarray]
    offsets: Mapping[tuple[int, int], int]
    freq: Mapping[tuple[int, int], np.ndarray]


def frequency_response(taps: np.ndarray, offset: int, m: int) -> np.ndarray:
    """M-point response H(m) = exp(-2j*pi*offset*m/M) * sum_l h(l) exp(-2j*pi*l*m/M)
    of the taps along the last axis; leading axes are a batch."""
    taps = np.asarray(taps)
    grid = np.arange(m)
    phase = np.exp(-2j * np.pi * offset * grid / m)
    basis = np.exp(-2j * np.pi * np.outer(grid, np.arange(taps.shape[-1])) / m)
    # a stacked matrix-vector product gives each draw the bits of basis @ h;
    # taps @ basis.T would differ in the last place
    return phase * (basis @ taps[..., None])[..., 0]


def draw_channels(scenario: NetworkScenario, specs: Mapping[tuple[int, int], LinkSpec],
                  m: int, rng: np.random.Generator,
                  batch: tuple[int, ...] = ()) -> ChannelRealization:
    """Draw independent block-fading realizations for every link, one per
    entry of the ``batch`` shape (``()`` is one draw).

    Each tap is ZMCSCG with variance sigma2_ij / (L_ij + 1), so the
    frequency-domain coefficients have variance sigma2_ij.  Every draw takes
    its normals link by link in ``LINKS`` order, real parts then imaginary
    parts, so a batch of N consumes the stream exactly as N single draws do.
    """
    for link in LINKS:
        if link not in specs:
            raise ValueError(f"missing link spec for {link}")
    sizes = [specs[link].order + 1 for link in LINKS]
    normals = rng.standard_normal(batch + (2 * sum(sizes),))
    taps: dict[tuple[int, int], np.ndarray] = {}
    offsets: dict[tuple[int, int], int] = {}
    freq: dict[tuple[int, int], np.ndarray] = {}
    start = 0
    for link, n in zip(LINKS, sizes):
        h = _complex_gaussian(normals[..., start:start + n],
                              normals[..., start + n:start + 2 * n],
                              scenario.link_variance(*link) / n)
        start += 2 * n
        taps[link] = h
        offsets[link] = specs[link].offset
        freq[link] = frequency_response(h, specs[link].offset, m)
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
    # delayed impulse response, zero-padded to 2p so that entry (i, j) of
    # h0 is impulse[i - j] and of h1 is impulse[i - j + p], with negative
    # lags and lags of p or more landing on zeros
    impulse = np.zeros(2 * p, dtype=complex)
    impulse[offset:offset + taps.size] = taps
    lag = np.subtract.outer(np.arange(p), np.arange(p))
    return impulse[lag], impulse[lag + p]


def link_output(taps: np.ndarray, offset: int, cur: np.ndarray,
                prev: np.ndarray | None = None) -> np.ndarray:
    """``h0 @ cur + h1 @ prev`` of one link without forming ``toeplitz_pair``.

    The block is a shift-and-add over the taps on the concatenated
    ``[prev, cur]`` stream of 2p samples (``prev=None`` is a silent previous
    block), so memory stays O(p) per frame.  Blocks run along the last axis
    of ``cur`` and ``prev`` and taps along the last axis of ``taps``; the
    leading axes of all three broadcast as a batch, which runs in passes of
    ``_LINK_ROWS`` frames so that each tap's product stays in cache.
    """
    taps = np.asarray(taps)
    cur = np.asarray(cur)
    p = cur.shape[-1]
    order = taps.shape[-1] - 1
    if order + offset > p - 1:
        raise ValueError(
            f"channel order {order} plus offset {offset} exceeds block length "
            f"{p} minus one")
    prev = np.zeros((), dtype=cur.dtype) if prev is None else np.asarray(prev)
    shape = np.broadcast_shapes(taps.shape[:-1] + (p,), cur.shape, prev.shape)
    rows = math.prod(shape[:-1])
    taps = np.broadcast_to(taps, shape[:-1] + (order + 1,)).reshape(rows, order + 1)
    cur = np.broadcast_to(cur, shape).reshape(rows, p)
    prev = np.broadcast_to(prev, shape).reshape(rows, p)
    stream = np.empty((min(rows, _LINK_ROWS), 2 * p), dtype=np.result_type(prev, cur))
    out = np.empty((rows, p), dtype=np.result_type(taps, stream))
    for lo in range(0, rows, _LINK_ROWS):
        hi = min(lo + _LINK_ROWS, rows)
        seg, h, o = stream[:hi - lo], taps[lo:hi], out[lo:hi]
        seg[:, :p] = prev[lo:hi]
        seg[:, p:] = cur[lo:hi]
        # output sample n takes tap l from stream sample p + n - offset - l
        np.multiply(h[:, 0, None], seg[:, p - offset:2 * p - offset], out=o)
        for ell in range(1, order + 1):
            start = p - offset - ell
            o += h[:, ell, None] * seg[:, start:start + p]
    return out.reshape(shape)
