"""Block-fading frequency-selective channels with integer time offsets.

One realization covers a single multicarrier symbol period.  Taps are drawn
i.i.d. zero-mean circularly symmetric complex Gaussian with a flat power
profile, scaled so each frequency-domain coefficient has the geometric link
variance d^(-eta).  ``trials`` is the one batch-and-fold driver of every
Monte Carlo estimator in the package, and ``mean_se`` reads what it folds.
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
# normals per fill of zmcscg's float buffer: 32 KiB, which stays in cache
_NORMAL_FILL = 4096


def zmcscg(rng: np.random.Generator, shape, variance: float = 1.0) -> np.ndarray:
    """Zero-mean circularly symmetric complex Gaussian samples with the given
    total variance (half per real dimension), a scalar.

    The draw takes all real parts of ``shape``, then all imaginary parts,
    as two ``standard_normal(shape)`` calls would.  Each part is filled
    ``_NORMAL_FILL`` normals at a time into one small float buffer and
    scaled from there into the complex output, so no whole-size float copy
    is made; consecutive fills consume the stream exactly as one call does.
    """
    scale = np.sqrt(float(variance) / 2.0)
    out = np.empty(shape, dtype=complex)
    flat = out.reshape(-1)
    buf = np.empty(min(flat.size, _NORMAL_FILL))
    for part in (flat.real, flat.imag):
        for lo in range(0, flat.size, _NORMAL_FILL):
            fill = buf[:flat.size - lo]
            rng.standard_normal(out=fill)
            np.multiply(fill, scale, out=part[lo:lo + fill.size])
    return out


@dataclass
class Moments:
    """Running per-column statistics of the draws that ``trials`` folds: the
    count, the mean, M2 (the sum of squared deviations from the mean) and
    the maximum.  Each array has the shape of one draw's values: 0-d for a
    scalar per draw, (k,) for a row of k columns."""

    count: int
    mean: np.ndarray
    m2: np.ndarray
    max: np.ndarray


def trials(n: int, sample) -> Moments:
    """Fold ``sample(k)`` over consecutive batches of at most ``_CHUNK`` draws
    that add up to ``n`` (at least 1) into per-column ``Moments``; the draws
    run along the first axis of each batch.

    Each column of a batch is copied into one contiguous array and takes
    the operations of numpy's ``mean`` and ``std(ddof=1)`` there, and each
    later batch joins the running state by the pairwise update of Chan,
    Golub and LeVeque.  So one batch (``n <= _CHUNK``) gives the statistics
    of the draws to the bit, more batches agree with those of the
    concatenated draws to rounding, and memory stays that of one batch at
    any ``n``.  Nothing of a batch outlives its fold, so a sampler whose
    temporaries are much larger than its values keeps its own buffers
    across batches, or the allocator may return them to the system and
    fault them in again every batch.
    """
    if n < 1:
        raise ValueError(f"the number of draws must be at least 1, got {n}")
    state = None
    for start in range(0, n, _CHUNK):
        k = min(_CHUNK, n - start)
        vals = np.asarray(sample(k))
        shape = vals.shape[1:]
        columns = vals.reshape(k, -1)
        mean, m2, top = np.empty((3, columns.shape[1]))
        col = np.empty(k)
        for j in range(columns.shape[1]):
            np.copyto(col, columns[:, j])
            mean[j] = col.sum() / k
            top[j] = col.max()
            col -= mean[j]
            col *= col
            m2[j] = col.sum()
        del vals, columns, col  # the next batch is drawn without this one
        if state is None:
            state = Moments(k, mean, m2, top)
            continue
        total = state.count + k
        delta = mean - state.mean
        state.mean += delta * (k / total)
        delta *= delta
        state.m2 += m2 + delta * (state.count * k / total)
        np.maximum(state.max, top, out=state.max)
        state.count = total
    return Moments(state.count, *(a.reshape(shape) for a in
                                  (state.mean, state.m2, state.max)))


def mean_se(moments: Moments):
    """Sample mean of the folded draws and its standard error: a pair of
    floats for a scalar per draw, a list of pairs, one per column, for a
    row; fewer than two draws have no standard error and raise
    ``ValueError``."""
    n = moments.count
    if n < 2:
        raise ValueError(f"a standard error needs at least 2 draws, got {n}")
    se = np.sqrt(moments.m2 / (n - 1)) / np.sqrt(n)
    pairs = list(zip(moments.mean.ravel().tolist(), se.ravel().tolist()))
    return pairs if moments.mean.ndim else pairs[0]


def _complex_gaussian(re: np.ndarray, im: np.ndarray, variance: float) -> np.ndarray:
    # unit real normals of one shape -> complex samples of the given total
    # variance, scaled straight into the two halves of one complex array
    scale = np.sqrt(float(variance) / 2.0)
    out = np.empty(re.shape, dtype=complex)
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
    return ChannelRealization(taps=taps, offsets=offsets, freq=freq)


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
