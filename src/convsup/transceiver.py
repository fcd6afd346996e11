"""End-to-end time-domain simulation of one primary symbol period.

The chain: primary OFDM transmit (IDFT + cyclic prefix), full-duplex
secondary transmitter applying a causal FIR filter to its received samples
plus an own OFDM block on the virtual subcarriers, and both receivers
(prefix removal + DFT).  Inter-block interference is carried explicitly via
the previous period's transmit blocks, so the per-subcarrier frequency
models can be checked sample-exactly against the simulated chain.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .channel import ChannelRealization, LinkSpec, NetworkScenario, zmcscg, toeplitz_pair
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
    "simulate_frame",
    "draw_noise_blocks",
    "zero_noise",
    "pu_frequency_model",
    "srx_frequency_model",
    "stx_output_spectrum",
    "stx_power_mc",
    "write_frame_traces",
    "read_frame_traces",
]


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
        relay_3 = (self.specs[1, 2].order + self.l_su + self.specs[2, 3].order
                   + self.specs[1, 2].offset + self.specs[2, 3].offset)
        if relay_3 > self.p - 1:
            raise ValueError(
                f"relayed path spread {relay_3} exceeds one block ({self.p - 1})")
        for link, spec in self.specs.items():
            if spec.order + spec.offset > self.p - 1:
                raise ValueError(f"link {link} spread exceeds one block")

    @property
    def m(self) -> int:
        return self.ctx.m

    @property
    def l_su(self) -> int:
        return self.ctx.l_su

    @property
    def p(self) -> int:
        return self.m + self.l_cp


def _cp_insert(block_m: np.ndarray, l_cp: int) -> np.ndarray:
    return np.concatenate([block_m[-l_cp:], block_m])


def _cp_remove(block_p: np.ndarray, l_cp: int) -> np.ndarray:
    return block_p[l_cp:]


@dataclass(frozen=True)
class NoiseBlocks:
    """Thermal-noise blocks (length P) at the three receiving nodes."""

    v2: np.ndarray
    v3: np.ndarray
    v4: np.ndarray


def draw_noise_blocks(cfg: FrameConfig, scenario: NetworkScenario,
                      rng: np.random.Generator) -> NoiseBlocks:
    """Draw one period of receiver noise.

    The secondary-receive-chain noise is an M-sample block prefixed like a
    data block, which makes the relayed-noise path circular and hence
    exactly diagonal in the frequency domain; v3 and v4 are white over all
    P samples.
    """
    v2 = _cp_insert(zmcscg(rng, cfg.m, scenario.sigma2_v[2]), cfg.l_cp)
    return NoiseBlocks(v2=v2,
                       v3=zmcscg(rng, cfg.p, scenario.sigma2_v[3]),
                       v4=zmcscg(rng, cfg.p, scenario.sigma2_v[4]))


def zero_noise(cfg: FrameConfig) -> NoiseBlocks:
    z = np.zeros(cfg.p, dtype=complex)
    return NoiseBlocks(v2=z, v3=z.copy(), v4=z.copy())


@dataclass(frozen=True)
class FrameTrace:
    """All blocks of one simulated primary symbol period."""

    x_pu: np.ndarray
    x_su_1: np.ndarray
    x_su_2: np.ndarray
    u_pu_t: np.ndarray
    y2_t: np.ndarray
    z2_t: np.ndarray
    y3_t: np.ndarray
    y4_t: np.ndarray
    y_pu_f: np.ndarray
    y_su_f: np.ndarray
    noises: NoiseBlocks
    channels: ChannelRealization


def pu_transmit(x_pu: np.ndarray, cfg: FrameConfig) -> np.ndarray:
    """Primary OFDM modulator: virtual-subcarrier insertion, unitary IDFT,
    cyclic prefix.  Returns a length-P block."""
    x_pu = np.asarray(x_pu)
    if x_pu.shape != (cfg.layout.q,):
        raise ValueError(f"expected {cfg.layout.q} data symbols, got {x_pu.shape}")
    return _cp_insert(cfg.ctx.w_idft @ (cfg.layout.theta @ x_pu), cfg.l_cp)


def stx_process(y2_t: np.ndarray, x_su_1: np.ndarray, x_su_2: np.ndarray,
                pre: PrecoderSet, cfg: FrameConfig) -> np.ndarray:
    """Secondary transmit block: causal FIR filtering of the received block
    (the filter taps encode ``x_su_1``) plus an own prefixed OFDM block
    carrying ``x_su_2`` on the virtual subcarriers."""
    f = pre.a @ x_su_1
    f_tilde = min_norm_filter(cfg.ctx, f)
    z2_relay = np.convolve(y2_t, f_tilde)[: cfg.p]
    u_su = _cp_insert(cfg.ctx.w_idft @ (pre.g @ x_su_2), cfg.l_cp)
    return z2_relay + u_su


class FrameSimulator:
    """Stateful frame-by-frame simulator.

    Keeps the previous period's transmit blocks so inter-block interference
    enters exactly as the two-operator Toeplitz expansion dictates.  State
    starts at zero (a silent warm-up period).
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
        p = cfg.p
        ops = {link: toeplitz_pair(channels.taps[link], channels.offsets[link], p)
               for link in channels.taps}

        u_pu = pu_transmit(x_pu, cfg)
        h12_0, h12_1 = ops[1, 2]
        y2 = h12_0 @ u_pu + h12_1 @ self._prev_u_pu + noises.v2
        z2 = stx_process(y2, x_su_1, x_su_2, self.pre, cfg)

        h13_0, h13_1 = ops[1, 3]
        h23_0, h23_1 = ops[2, 3]
        y3 = (h13_0 @ u_pu + h13_1 @ self._prev_u_pu
              + h23_0 @ z2 + h23_1 @ self._prev_z2 + noises.v3)
        h14_0, h14_1 = ops[1, 4]
        h24_0, h24_1 = ops[2, 4]
        y4 = (h14_0 @ u_pu + h14_1 @ self._prev_u_pu
              + h24_0 @ z2 + h24_1 @ self._prev_z2 + noises.v4)

        w_dft = cfg.ctx.w_dft
        y_pu_f = w_dft @ _cp_remove(y3, cfg.l_cp)
        y_su_f = w_dft @ _cp_remove(y4, cfg.l_cp)

        self._prev_u_pu = u_pu
        self._prev_z2 = z2
        return FrameTrace(x_pu=np.asarray(x_pu, dtype=complex),
                          x_su_1=np.asarray(x_su_1, dtype=complex),
                          x_su_2=np.asarray(x_su_2, dtype=complex),
                          u_pu_t=u_pu, y2_t=y2, z2_t=z2, y3_t=y3, y4_t=y4,
                          y_pu_f=y_pu_f, y_su_f=y_su_f,
                          noises=noises, channels=channels)


def simulate_frame(prev: tuple[ChannelRealization, np.ndarray, np.ndarray, np.ndarray, NoiseBlocks] | None,
                   channels: ChannelRealization, x_pu: np.ndarray,
                   x_su_1: np.ndarray, x_su_2: np.ndarray, noises: NoiseBlocks,
                   pre: PrecoderSet, cfg: FrameConfig) -> FrameTrace:
    """Simulate one period preceded by an explicit previous period.

    ``prev`` is ``(channels, x_pu, x_su_1, x_su_2, noises)`` for the period
    before the one of interest, or None for a silent warm-up.
    """
    sim = FrameSimulator(cfg, pre)
    if prev is not None:
        sim.step(*prev)
    return sim.step(channels, x_pu, x_su_1, x_su_2, noises)


def _frequency_inputs(pre: PrecoderSet, layout: VcLayout, x_pu, x_su_1, x_su_2):
    f_resp = pre.a @ np.asarray(x_su_1, dtype=complex)
    theta_x = layout.theta @ np.asarray(x_pu, dtype=complex)
    g_x = pre.g @ np.asarray(x_su_2, dtype=complex)
    return f_resp, theta_x, g_x


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


def _shift_rows(blocks: np.ndarray, k: int) -> np.ndarray:
    """Delay every row of a batch by k samples (zeros shifted in)."""
    if k == 0:
        return blocks
    out = np.zeros_like(blocks)
    out[:, k:] = blocks[:, :-k]
    return out


def stx_output_spectrum(cfg: FrameConfig, pre: PrecoderSet, h12_taps: np.ndarray,
                        x_pu: np.ndarray, x_su_1: np.ndarray, x_su_2: np.ndarray,
                        v2: np.ndarray) -> np.ndarray:
    """Batched secondary transmit spectrum (prefix removed, unitary DFT).

    Row-per-frame version of the receive-filter-transmit chain at the
    secondary transmitter, used for power accounting over many frames;
    inter-block interference only touches samples the prefix removal drops,
    so a zero previous block gives the steady-state statistic.
    """
    theta12 = cfg.specs[1, 2].offset
    n = x_pu.shape[0]
    w_idft, w_dft = cfg.ctx.w_idft, cfg.ctx.w_dft
    u_m = (w_idft @ (cfg.layout.theta @ x_pu.T)).T
    u = np.concatenate([u_m[:, -cfg.l_cp:], u_m], axis=1)
    y2 = np.array(v2, dtype=complex)
    for ell in range(h12_taps.shape[1]):
        y2 += h12_taps[:, ell:ell + 1] * _shift_rows(u, ell + theta12)
    f = (pre.a @ x_su_1.T).T
    f_tilde = (cfg.ctx.j_pad.T @ (w_idft @ f.T)).T / np.sqrt(cfg.m)
    z2 = np.zeros((n, cfg.p), dtype=complex)
    for k in range(cfg.l_su + 1):
        z2 += f_tilde[:, k:k + 1] * _shift_rows(y2, k)
    u_su_m = (w_idft @ (pre.g @ x_su_2.T)).T
    z2 += np.concatenate([u_su_m[:, -cfg.l_cp:], u_su_m], axis=1)
    return (w_dft @ z2[:, cfg.l_cp:].T).T


def stx_power_mc(cfg: FrameConfig, scenario: NetworkScenario, pre: PrecoderSet,
                 n_frames: int, rng: np.random.Generator,
                 chunk: int = 20_000) -> tuple[float, float]:
    """Monte Carlo mean and standard error of the transmitted block energy
    ||z2||^2 (frequency domain, prefix excluded)."""
    spec12 = cfg.specs[1, 2]
    var12 = (spec12.variance if spec12.variance is not None
             else scenario.link_variance(1, 2))
    powers = np.empty(n_frames)
    for start in range(0, n_frames, chunk):
        n = min(chunk, n_frames - start)
        taps = zmcscg(rng, (n, spec12.order + 1), var12 / (spec12.order + 1))
        x_pu = zmcscg(rng, (n, cfg.layout.q), scenario.p_pu)
        x1 = zmcscg(rng, (n, cfg.layout.n_sym))
        x2 = zmcscg(rng, (n, cfg.layout.m_vc))
        v2 = zmcscg(rng, (n, cfg.p), scenario.sigma2_v[2])
        z2_f = stx_output_spectrum(cfg, pre, taps, x_pu, x1, x2, v2)
        powers[start:start + n] = np.sum(np.abs(z2_f) ** 2, axis=1)
    return float(powers.mean()), float(powers.std(ddof=1) / np.sqrt(n_frames))


_TRACE_MAGIC = b"CVSPTRC1"
_TRACE_HEADER = struct.Struct("<IIIQQ")  # M, L_cp, L_su, seed, n_frames
_TRACE_BLOCKS = ("u_pu_t", "y2_t", "z2_t", "y3_t", "y4_t", "y_pu_f", "y_su_f")


def write_frame_traces(path, cfg: FrameConfig, seed: int, traces) -> None:
    """Dump traces as little-endian float64 interleaved re/im.

    Layout: magic, then ``<IIIQQ`` header (M, L_cp, L_su, seed, n_frames);
    per frame the blocks u_pu_t, y2_t, z2_t, y3_t, y4_t (P complex each)
    followed by y_pu_f, y_su_f (M complex each).
    """
    traces = list(traces)
    with open(path, "wb") as fh:
        fh.write(_TRACE_MAGIC)
        fh.write(_TRACE_HEADER.pack(cfg.m, cfg.l_cp, cfg.l_su, seed, len(traces)))
        for tr in traces:
            for name in _TRACE_BLOCKS:
                fh.write(np.ascontiguousarray(getattr(tr, name), dtype="<c16").tobytes())


def read_frame_traces(path):
    """Read a trace dump; returns (header dict, list of per-frame block dicts).

    Raises ``ValueError`` when the file is not a trace dump or its size
    differs from the size its header implies (truncated or padded)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(_TRACE_MAGIC):
        raise ValueError("not a frame-trace dump")
    start = len(_TRACE_MAGIC) + _TRACE_HEADER.size
    if len(data) < start:
        raise ValueError(f"trace file is {len(data)} bytes, shorter than its "
                         f"{start}-byte header")
    m, l_cp, l_su, seed, n_frames = _TRACE_HEADER.unpack_from(data, len(_TRACE_MAGIC))
    sizes = [m + l_cp] * 5 + [m] * 2
    expected = start + 16 * sum(sizes) * n_frames
    if len(data) != expected:
        raise ValueError(f"trace file is {len(data)} bytes but its header "
                         f"implies {expected} bytes")
    blocks = np.frombuffer(data, dtype="<c16", offset=start).reshape(n_frames, sum(sizes))
    frames = [dict(zip(_TRACE_BLOCKS, np.split(row.copy(), np.cumsum(sizes)[:-1])))
              for row in blocks]
    header = {"m": m, "l_cp": l_cp, "l_su": l_su, "seed": seed, "n_frames": n_frames}
    return header, frames
