"""End-to-end time-domain simulation of primary symbol periods.

The chain: primary OFDM transmit (IDFT + cyclic prefix), full-duplex
secondary transmitter applying a causal FIR filter to its received samples
plus an own OFDM block on the virtual subcarriers, and both receivers
(prefix removal + DFT).  Inter-block interference is carried explicitly via
the previous period's transmit blocks, so the per-subcarrier frequency
models can be checked sample-exactly against the simulated chain.

Every block runs along the last axis, and leading axes are a batch of
independent frames: a batch shape ``()`` is one frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .channel import (ChannelRealization, LinkSpec, NetworkScenario, link_output,
                      mean_se, trials, zmcscg)
from .precoding import PrecoderSet
from .spectral import SpectralContext, VcLayout, min_norm_filter

__all__ = [
    "FrameConfig",
    "NoiseBlocks",
    "FrameTrace",
    "FrameSimulator",
    "required_cp_length",
    "pu_transmit",
    "stx_process",
    "draw_noise_blocks",
    "zero_noise",
    "pu_frequency_model",
    "srx_frequency_model",
    "stx_power_mc",
]

# frames per pass of the chain in stx_power_mc: its intermediates are a few
# (block, P) complex arrays whatever the batch
_POWER_ROWS = 1024


def required_cp_length(specs: Mapping[tuple[int, int], LinkSpec], l_su: int) -> int:
    """Smallest cyclic prefix that removes inter-block interference at both
    receivers, including the spreading added by the secondary filter."""
    relay_3 = specs[1, 2].order + l_su + specs[2, 3].order + specs[1, 2].offset + specs[2, 3].offset
    relay_4 = specs[1, 2].order + l_su + specs[2, 4].order + specs[1, 2].offset + specs[2, 4].offset
    direct_3 = specs[1, 3].order + specs[1, 3].offset
    direct_4 = specs[1, 4].order + specs[1, 4].offset
    return max(relay_3, direct_3, relay_4, direct_4)


@dataclass(frozen=True)
class FrameConfig:
    """Static per-run frame geometry: transforms, subcarrier layout, prefix
    length and link specs.

    ``enforce_cp=False`` skips the interference-removal bound on the prefix;
    only fault-injection checks should use it.
    """

    ctx: SpectralContext
    layout: VcLayout
    l_cp: int
    specs: Mapping[tuple[int, int], LinkSpec]
    enforce_cp: bool = True

    def __post_init__(self):
        if not 0 < self.l_cp < self.m:
            raise ValueError(f"cyclic prefix length must be in (0, {self.m}), got {self.l_cp}")
        need = required_cp_length(self.specs, self.l_su)
        if self.enforce_cp and self.l_cp < need:
            raise ValueError(
                f"cyclic prefix {self.l_cp} shorter than the interference "
                f"bound {need}")
        # every link's spread is at most that of a path through it
        if need > self.p - 1:
            raise ValueError(
                f"path spread {need} exceeds one block ({self.p - 1})")

    @property
    def m(self) -> int:
        return self.ctx.m

    @property
    def l_su(self) -> int:
        return self.ctx.l_su

    @property
    def p(self) -> int:
        return self.m + self.l_cp


def _apply(mat: np.ndarray, x) -> np.ndarray:
    """``mat @ x`` for every vector along the last axis of ``x``."""
    return np.asarray(x, dtype=complex) @ mat.T


def _cp_insert(block_m: np.ndarray, l_cp: int) -> np.ndarray:
    return np.concatenate([block_m[..., -l_cp:], block_m], axis=-1)


def _cp_remove(block_p: np.ndarray, l_cp: int) -> np.ndarray:
    return block_p[..., l_cp:]


@dataclass(frozen=True)
class NoiseBlocks:
    """Thermal-noise blocks (length P, after the batch shape) at the three
    receiving nodes."""

    v2: np.ndarray
    v3: np.ndarray
    v4: np.ndarray


def draw_noise_blocks(cfg: FrameConfig, scenario: NetworkScenario,
                      rng: np.random.Generator,
                      batch: tuple[int, ...] = ()) -> NoiseBlocks:
    """Draw one period of receiver noise for every frame of ``batch``.

    The secondary-receive-chain noise is an M-sample block prefixed like a
    data block, which makes the relayed-noise path circular and hence
    exactly diagonal in the frequency domain; v3 and v4 are white over all
    P samples.
    """
    v2 = _cp_insert(zmcscg(rng, batch + (cfg.m,), scenario.sigma2_v[2]), cfg.l_cp)
    return NoiseBlocks(v2=v2,
                       v3=zmcscg(rng, batch + (cfg.p,), scenario.sigma2_v[3]),
                       v4=zmcscg(rng, batch + (cfg.p,), scenario.sigma2_v[4]))


def zero_noise(cfg: FrameConfig, batch: tuple[int, ...] = ()) -> NoiseBlocks:
    z = np.zeros(batch + (cfg.p,), dtype=complex)
    return NoiseBlocks(v2=z, v3=z.copy(), v4=z.copy())


@dataclass(frozen=True)
class FrameTrace:
    """All blocks of one simulated primary symbol period (per frame of a
    batch)."""

    u_pu_t: np.ndarray
    y2_t: np.ndarray
    z2_t: np.ndarray
    y3_t: np.ndarray
    y4_t: np.ndarray
    y_pu_f: np.ndarray
    y_su_f: np.ndarray


def pu_transmit(x_pu: np.ndarray, cfg: FrameConfig) -> np.ndarray:
    """Primary OFDM modulator: virtual-subcarrier insertion, unitary IDFT,
    cyclic prefix.  Returns length-P blocks."""
    x_pu = np.asarray(x_pu)
    if x_pu.shape[-1:] != (cfg.layout.q,):
        raise ValueError(f"expected {cfg.layout.q} data symbols, got {x_pu.shape}")
    return _cp_insert(_apply(cfg.ctx.w_idft @ cfg.layout.theta, x_pu), cfg.l_cp)


def stx_process(y2_t: np.ndarray, x_su_1: np.ndarray, x_su_2: np.ndarray,
                pre: PrecoderSet, cfg: FrameConfig) -> np.ndarray:
    """Secondary transmit block: causal FIR filtering of the received block
    (the filter taps encode ``x_su_1``) plus an own prefixed OFDM block
    carrying ``x_su_2`` on the virtual subcarriers."""
    f_tilde = min_norm_filter(cfg.ctx, _apply(pre.a, x_su_1))
    z2_relay = link_output(f_tilde, 0, y2_t)
    u_su = _cp_insert(_apply(cfg.ctx.w_idft @ pre.g, x_su_2), cfg.l_cp)
    return z2_relay + u_su


class FrameSimulator:
    """Stateful frame-by-frame simulator over a batch of independent frames.

    Keeps the previous period's transmit blocks so inter-block interference
    enters exactly as the two-operator Toeplitz expansion dictates.  State
    starts at zero (a silent warm-up period); after a step, the next step
    must use the same batch shape until ``reset``.
    """

    def __init__(self, cfg: FrameConfig, pre: PrecoderSet):
        self.cfg = cfg
        self.pre = pre
        self.reset()

    def reset(self) -> None:
        p = self.cfg.p
        self._prev_u_pu = np.zeros(p, dtype=complex)
        self._prev_z2 = np.zeros(p, dtype=complex)

    def step(self, channels: ChannelRealization, x_pu: np.ndarray,
             x_su_1: np.ndarray, x_su_2: np.ndarray,
             noises: NoiseBlocks) -> FrameTrace:
        cfg = self.cfg

        def link(tx_rx, cur, prev):
            return link_output(channels.taps[tx_rx], channels.offsets[tx_rx], cur, prev)

        u_pu = pu_transmit(x_pu, cfg)
        y2 = link((1, 2), u_pu, self._prev_u_pu) + noises.v2
        z2 = stx_process(y2, x_su_1, x_su_2, self.pre, cfg)
        y3 = (link((1, 3), u_pu, self._prev_u_pu) + link((2, 3), z2, self._prev_z2)
              + noises.v3)
        y4 = (link((1, 4), u_pu, self._prev_u_pu) + link((2, 4), z2, self._prev_z2)
              + noises.v4)

        self._prev_u_pu = u_pu
        self._prev_z2 = z2
        return FrameTrace(u_pu_t=u_pu, y2_t=y2, z2_t=z2, y3_t=y3, y4_t=y4,
                          y_pu_f=_apply(cfg.ctx.w_dft, _cp_remove(y3, cfg.l_cp)),
                          y_su_f=_apply(cfg.ctx.w_dft, _cp_remove(y4, cfg.l_cp)))


def _frequency_inputs(pre: PrecoderSet, layout: VcLayout, x_pu, x_su_1, x_su_2):
    return _apply(pre.a, x_su_1), _apply(layout.theta, x_pu), _apply(pre.g, x_su_2)


def pu_frequency_model(channels: ChannelRealization, pre: PrecoderSet,
                       layout: VcLayout, x_pu, x_su_1, x_su_2,
                       v2_f=0.0, v3_f=0.0) -> np.ndarray:
    """Per-subcarrier model of the primary receiver output: the direct link
    plus the filtered relay path, with the relayed secondary-chain noise and
    the virtual-subcarrier block folded into the equivalent noise."""
    f_resp, theta_x, g_x = _frequency_inputs(pre, layout, x_pu, x_su_1, x_su_2)
    h12, h13, h23 = channels.freq[1, 2], channels.freq[1, 3], channels.freq[2, 3]
    h_pu = h13 + h12 * h23 * f_resp
    return h_pu * theta_x + h23 * f_resp * v2_f + h23 * g_x + v3_f


def srx_frequency_model(channels: ChannelRealization, pre: PrecoderSet,
                        layout: VcLayout, x_pu, x_su_1, x_su_2,
                        v2_f=0.0, v4_f=0.0) -> np.ndarray:
    """Per-subcarrier model of the secondary receiver output.

    On used subcarriers the effective channel multiplies the filter response
    by the relayed primary symbol plus secondary-chain noise; on virtual
    subcarriers only the noise survives, and the direct primary leak acts as
    equivalent noise."""
    f_resp, theta_x, g_x = _frequency_inputs(pre, layout, x_pu, x_su_1, x_su_2)
    h12, h14, h24 = channels.freq[1, 2], channels.freq[1, 4], channels.freq[2, 4]
    h_su = h24 * (h12 * theta_x + v2_f)
    return h_su * f_resp + h24 * g_x + h14 * theta_x + v4_f


def _row_blocks(n: int, size: int):
    """Consecutive slices of about ``size`` rows that cover ``n`` rows, none of
    them a single row unless ``n`` is 1: numpy multiplies one row by a matrix
    with BLAS gemv, whose last bits differ from those of the gemm that a
    taller block of the same rows takes.  That blocks of two or more rows
    keep the bits of the whole batch was checked on the installed BLAS and
    is guarded by ``tests/test_row_blocks.py``; other BLAS builds may route
    short blocks through other kernels."""
    size = max(size, 2)
    lo = 0
    while lo < n:
        hi = n if n - lo <= size + 1 else lo + size
        yield slice(lo, hi)
        lo = hi


def stx_power_mc(cfg: FrameConfig, scenario: NetworkScenario, pre: PrecoderSet,
                 n_frames: int, rng: np.random.Generator) -> tuple[float, float]:
    """Monte Carlo mean and standard error of the transmitted block energy
    ||z2||^2 (prefix excluded; the unitary DFT keeps it the frequency-domain
    energy).

    Each batch of frames of ``channel.trials`` runs the h12 link and
    ``stx_process`` with a zero previous block: inter-block interference
    only touches samples the prefix removal drops, so that gives the
    steady-state statistic.  A batch is drawn whole and then runs through
    the chain in blocks of ``_POWER_ROWS`` frames, so the chain's
    intermediates stay that small; on the installed BLAS every frame's
    energy has the same bits at any block size (see ``_row_blocks``).
    """
    spec12 = cfg.specs[1, 2]

    def sample(n):
        taps = zmcscg(rng, (n, spec12.order + 1),
                      scenario.link_variance(1, 2) / (spec12.order + 1))
        x_pu = zmcscg(rng, (n, cfg.layout.q), scenario.p_pu)
        x1 = zmcscg(rng, (n, cfg.layout.n_sym))
        x2 = zmcscg(rng, (n, cfg.layout.m_vc))
        v2 = zmcscg(rng, (n, cfg.p), scenario.sigma2_v[2])
        energy = np.empty(n)
        for rows in _row_blocks(n, _POWER_ROWS):
            y2 = link_output(taps[rows], spec12.offset, pu_transmit(x_pu[rows], cfg))
            y2 += v2[rows]
            z2 = _cp_remove(stx_process(y2, x1[rows], x2[rows], pre, cfg), cfg.l_cp)
            np.sum(z2.real ** 2 + z2.imag ** 2, axis=-1, out=energy[rows])
        return energy
    return mean_se(trials(n_frames, sample))
