"""Time-domain chain tests: prefix structure, causal filtering, interference
removal, and sample-exact agreement with the per-subcarrier models."""

import numpy as np
import pytest

from convsup.channel import ChannelRealization, LinkSpec, draw_channels, zmcscg
from convsup.harness import (build_scenario, frame_equivalence_errors,
                             reference_link_specs, relayed_noise_identity_error)
from convsup.precoding import (PowerProfile, PrecoderSet, realize_precoders,
                               uniform_profile)
from convsup.spectral import build_spectral_context, build_vc_layout
from convsup.transceiver import (FrameConfig, FrameSimulator, NoiseBlocks,
                                 pu_frequency_model, pu_transmit,
                                 read_frame_traces, required_cp_length,
                                 simulate_frame, srx_frequency_model,
                                 stx_output_spectrum, stx_process,
                                 write_frame_traces, zero_noise)


def reference_config(m=64, l_su=10, vc=(0, 16, 32, 48), l_cp=None, enforce=True):
    ctx = build_spectral_context(m, l_su)
    layout = build_vc_layout(ctx, vc)
    specs = reference_link_specs()
    if l_cp is None:
        l_cp = required_cp_length(specs, l_su)
    return FrameConfig(ctx=ctx, layout=layout, l_cp=l_cp, specs=specs,
                       enforce_cp=enforce)


def reference_precoders(cfg, scenario, g_fraction=0.5):
    g = g_fraction * scenario.p_su / cfg.layout.m_vc if cfg.layout.m_vc else 0.0
    profile = uniform_profile(cfg.layout, scenario, g)
    return realize_precoders(cfg.ctx, cfg.layout, profile)


@pytest.fixture(scope="module")
def setup():
    scenario = build_scenario(0.3, 1.0, 20.0, "pu")
    cfg = reference_config()
    return scenario, cfg, reference_precoders(cfg, scenario)


class TestFrameConfig:
    def test_reference_prefix_length(self):
        assert required_cp_length(reference_link_specs(), 10) == 16

    def test_rejects_short_prefix(self):
        with pytest.raises(ValueError, match="shorter than the interference"):
            reference_config(l_cp=15)

    def test_rejects_overlong_link_spread(self):
        specs = reference_link_specs()
        specs[1, 3] = LinkSpec(order=3, offset=76)
        ctx = build_spectral_context(64, 10)
        layout = build_vc_layout(ctx, (0, 16, 32, 48))
        with pytest.raises(ValueError):
            FrameConfig(ctx=ctx, layout=layout, l_cp=16, specs=specs)


class TestPuTransmit:
    def test_zero_symbols_give_zero_block(self):
        cfg = reference_config()
        assert np.all(pu_transmit(np.zeros(60, dtype=complex), cfg) == 0)

    def test_prefix_replicates_tail(self):
        ctx = build_spectral_context(16, 3)
        layout = build_vc_layout(ctx, ())
        specs = {link: LinkSpec(order=0, offset=0) for link in specs_keys()}
        cfg = FrameConfig(ctx=ctx, layout=layout, l_cp=6, specs=specs)
        rng = np.random.default_rng(0)
        u = pu_transmit(zmcscg(rng, 16), cfg)
        assert np.abs(u[:6] - u[16:22]).max() == 0

    def test_delta_spectrum_transform_pair(self):
        # symbols equal to the DFT of a delta give a prefixed delta in time
        ctx = build_spectral_context(16, 3)
        layout = build_vc_layout(ctx, ())
        specs = {link: LinkSpec(order=0, offset=0) for link in specs_keys()}
        cfg = FrameConfig(ctx=ctx, layout=layout, l_cp=6, specs=specs)
        delta = np.zeros(16, dtype=complex)
        delta[5] = 1.0
        u = pu_transmit(ctx.w_dft @ delta, cfg)
        want = np.concatenate([delta[-6:], delta])
        assert np.abs(u - want).max() <= 1e-12


def specs_keys():
    return ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4))


class TestStxProcess:
    def test_silent_secondary(self, setup):
        _, cfg, pre = setup
        rng = np.random.default_rng(1)
        y2 = zmcscg(rng, cfg.p)
        out = stx_process(y2, np.zeros(7, dtype=complex),
                          np.zeros(4, dtype=complex), pre, cfg)
        assert np.abs(out).max() <= 1e-12

    def test_identity_filter_passthrough(self):
        # a precoder whose only column is the all-ones response makes the
        # filter a unit impulse, so the relay forwards its input verbatim
        ctx = build_spectral_context(16, 3)
        layout = build_vc_layout(ctx, ())
        specs = {link: LinkSpec(order=0, offset=0) for link in specs_keys()}
        cfg = FrameConfig(ctx=ctx, layout=layout, l_cp=6, specs=specs)
        prof = PowerProfile(layout=layout, uc_power=np.ones(16), vc_power=np.zeros(0))
        pre = PrecoderSet(c=np.eye(1, dtype=complex), d=np.zeros((0, 0), dtype=complex),
                          a=np.ones((16, 1), dtype=complex),
                          g=np.zeros((16, 0), dtype=complex),
                          profile=prof, requested=prof, max_uc_mismatch=0.0)
        rng = np.random.default_rng(2)
        y2 = zmcscg(rng, cfg.p)
        out = stx_process(y2, np.ones(1, dtype=complex),
                          np.zeros(0, dtype=complex), pre, cfg)
        assert np.abs(out - y2).max() <= 1e-12

    def test_direct_convolution_matches_toeplitz_operator(self, setup):
        _, cfg, pre = setup
        rng = np.random.default_rng(3)
        x1 = zmcscg(rng, 7)
        y2 = zmcscg(rng, cfg.p)
        out = stx_process(y2, x1, np.zeros(4, dtype=complex), pre, cfg)
        from convsup.spectral import min_norm_filter
        f_tilde = min_norm_filter(cfg.ctx, pre.a @ x1)
        f_mat = np.zeros((cfg.p, cfg.p), dtype=complex)
        for k, tap in enumerate(f_tilde):
            f_mat += tap * np.eye(cfg.p, k=-k)
        assert np.abs(out - f_mat @ y2).max() <= 1e-12

    def test_causality(self, setup):
        _, cfg, pre = setup
        rng = np.random.default_rng(4)
        x1 = zmcscg(rng, 7)
        x2 = zmcscg(rng, 4)
        y2 = zmcscg(rng, cfg.p)
        full = stx_process(y2, x1, x2, pre, cfg)
        for cut in (1, 10, 40):
            truncated = y2.copy()
            truncated[cut:] = 0.0
            part = stx_process(truncated, x1, x2, pre, cfg)
            assert np.abs(part[:cut] - full[:cut]).max() <= 1e-12


class TestSimulateFrame:
    def test_direct_link_only_when_secondary_silent(self, setup):
        scenario, cfg, pre = setup
        rng = np.random.default_rng(5)
        ch = draw_channels(scenario, cfg.specs, cfg.m, rng)
        x_pu = zmcscg(rng, 60, scenario.p_pu)
        tr = simulate_frame(None, ch, x_pu, np.zeros(7, dtype=complex),
                            np.zeros(4, dtype=complex), zero_noise(cfg), pre, cfg)
        want = ch.freq[1, 3] * (cfg.layout.theta @ x_pu)
        assert np.abs(tr.y_pu_f - want).max() <= 1e-10 * np.abs(want).max()

    def test_matches_frequency_models_with_random_history(self, setup):
        scenario, cfg, _ = setup
        rng = np.random.default_rng(6)
        worst_pu, worst_su = frame_equivalence_errors(scenario, cfg, 25, rng)
        assert worst_pu <= 1e-10
        assert worst_su <= 1e-10

    def test_prefixed_noise_keeps_models_exact(self, setup):
        scenario, cfg, _ = setup
        rng = np.random.default_rng(7)
        worst_pu, worst_su = frame_equivalence_errors(scenario, cfg, 10, rng,
                                                      noiseless=False)
        assert worst_pu <= 1e-10
        assert worst_su <= 1e-10

    def test_white_secondary_noise_breaks_the_diagonal_model(self, setup):
        # the substitution of prefixed for white noise in the relay chain is
        # an analysis device; with truly white noise the per-subcarrier
        # model is no longer sample-exact
        scenario, cfg, pre = setup
        rng = np.random.default_rng(8)
        ch = draw_channels(scenario, cfg.specs, cfg.m, rng)
        x_pu = zmcscg(rng, 60, scenario.p_pu)
        x1 = zmcscg(rng, 7)
        x2 = zmcscg(rng, 4)
        v2 = zmcscg(rng, cfg.p, scenario.sigma2_v[2])
        noises = NoiseBlocks(v2=v2, v3=np.zeros(cfg.p, dtype=complex),
                             v4=np.zeros(cfg.p, dtype=complex))
        tr = simulate_frame(None, ch, x_pu, x1, x2, noises, pre, cfg)
        v2_f = cfg.ctx.w_dft @ v2[cfg.l_cp:]
        model = pu_frequency_model(ch, pre, cfg.layout, x_pu, x1, x2, v2_f=v2_f)
        assert np.abs(tr.y_pu_f - model).max() > 1e-8 * np.abs(model).max()

    def test_interference_annihilation_and_tightness(self, setup):
        scenario, cfg, pre = setup
        rng = np.random.default_rng(9)
        ch = draw_channels(scenario, cfg.specs, cfg.m, rng)
        x_pu = zmcscg(rng, 60, scenario.p_pu)
        x1, x2 = zmcscg(rng, 7), zmcscg(rng, 4)
        prev = (draw_channels(scenario, cfg.specs, cfg.m, rng),
                zmcscg(rng, 60, scenario.p_pu), zmcscg(rng, 7), zmcscg(rng, 4),
                zero_noise(cfg))
        base = simulate_frame(None, ch, x_pu, x1, x2, zero_noise(cfg), pre, cfg)
        hist = simulate_frame(prev, ch, x_pu, x1, x2, zero_noise(cfg), pre, cfg)
        scale = np.abs(base.y_pu_f).max()
        assert np.abs(base.y_pu_f - hist.y_pu_f).max() <= 1e-10 * scale
        assert np.abs(base.y_su_f - hist.y_su_f).max() <= 1e-10 * scale

        # one sample short and generic channels leak the previous block
        short = FrameConfig(ctx=cfg.ctx, layout=cfg.layout, l_cp=cfg.l_cp - 1,
                            specs=cfg.specs, enforce_cp=False)
        worst_pu, _ = frame_equivalence_errors(scenario, short, 10,
                                               np.random.default_rng(10))
        assert worst_pu > 1e-6

    def test_relayed_noise_circular_identity(self, setup):
        scenario, cfg, _ = setup
        worst = relayed_noise_identity_error(scenario, cfg, 10,
                                             np.random.default_rng(11))
        assert worst <= 1e-10

    def test_srx_model_per_subcarrier_structure(self, setup):
        # virtual subcarriers carry no primary symbols at all: only the own
        # secondary block and the (noise-multiplicative) relayed term; used
        # subcarriers see the relayed primary symbol through the filter
        scenario, cfg, pre = setup
        rng = np.random.default_rng(12)
        ch = draw_channels(scenario, cfg.specs, cfg.m, rng)
        x1 = zmcscg(rng, 7)
        x2 = zmcscg(rng, 4)
        x_a = zmcscg(rng, 60, scenario.p_pu)
        x_b = zmcscg(rng, 60, scenario.p_pu)
        out_a = srx_frequency_model(ch, pre, cfg.layout, x_a, x1, x2)
        out_b = srx_frequency_model(ch, pre, cfg.layout, x_b, x1, x2)
        vc = list(cfg.layout.vc_indices)
        assert np.abs(out_a[vc] - out_b[vc]).max() <= 1e-12
        g_block = ch.freq[2, 4] * (pre.g @ x2)
        assert np.abs(out_a[vc] - g_block[vc]).max() <= 1e-10
        # noiseless node 2, used subcarriers: relayed primary through the
        # filter plus the direct leak
        uc = list(cfg.layout.uc_indices)
        theta_x = cfg.layout.theta @ x_a
        f_resp = pre.a @ x1
        want_uc = (ch.freq[2, 4] * ch.freq[1, 2] * theta_x * f_resp
                   + ch.freq[1, 4] * theta_x)
        assert np.abs(out_a[uc] - want_uc[uc]).max() <= 1e-10


class TestBatchedPower:
    def test_batch_matches_frame_simulator(self, setup):
        scenario, cfg, pre = setup
        rng = np.random.default_rng(13)
        n = 3
        spec12 = cfg.specs[1, 2]
        taps = zmcscg(rng, (n, spec12.order + 1),
                      scenario.link_variance(1, 2) / (spec12.order + 1))
        x_pu = zmcscg(rng, (n, 60), scenario.p_pu)
        x1 = zmcscg(rng, (n, 7))
        x2 = zmcscg(rng, (n, 4))
        v2 = zmcscg(rng, (n, cfg.p), scenario.sigma2_v[2])
        batch = stx_output_spectrum(cfg, pre, taps, x_pu, x1, x2, v2)
        for i in range(n):
            ch = ChannelRealization(
                m=cfg.m,
                taps={link: (taps[i] if link == (1, 2)
                             else np.zeros(cfg.specs[link].order + 1, dtype=complex))
                      for link in cfg.specs},
                offsets={link: cfg.specs[link].offset for link in cfg.specs},
                freq={link: np.zeros(cfg.m, dtype=complex) for link in cfg.specs})
            noises = NoiseBlocks(v2=v2[i], v3=np.zeros(cfg.p, dtype=complex),
                                 v4=np.zeros(cfg.p, dtype=complex))
            sim = FrameSimulator(cfg, pre)
            tr = sim.step(ch, x_pu[i], x1[i], x2[i], noises)
            z2_f = cfg.ctx.w_dft @ tr.z2_t[cfg.l_cp:]
            assert np.abs(batch[i] - z2_f).max() <= 1e-12


class TestReplayDeterminism:
    def test_fixed_seed_reproduces_traces(self, setup):
        scenario, cfg, pre = setup

        def run(seed):
            rng = np.random.default_rng(seed)
            sim = FrameSimulator(cfg, pre)
            out = []
            for _ in range(3):
                ch = draw_channels(scenario, cfg.specs, cfg.m, rng)
                out.append(sim.step(
                    ch, zmcscg(rng, 60, scenario.p_pu), zmcscg(rng, 7),
                    zmcscg(rng, 4),
                    NoiseBlocks(v2=zmcscg(rng, cfg.p, scenario.sigma2_v[2]),
                                v3=zmcscg(rng, cfg.p, scenario.sigma2_v[3]),
                                v4=zmcscg(rng, cfg.p, scenario.sigma2_v[4]))))
            return out

        for a, b in zip(run(21), run(21)):
            assert np.array_equal(a.y_pu_f, b.y_pu_f)
            assert np.array_equal(a.z2_t, b.z2_t)


class TestTraceDump:
    def test_round_trip(self, setup, tmp_path):
        scenario, cfg, pre = setup
        rng = np.random.default_rng(14)
        sim = FrameSimulator(cfg, pre)
        traces = []
        for _ in range(3):
            ch = draw_channels(scenario, cfg.specs, cfg.m, rng)
            traces.append(sim.step(ch, zmcscg(rng, 60, scenario.p_pu),
                                   zmcscg(rng, 7), zmcscg(rng, 4),
                                   zero_noise(cfg)))
        path = tmp_path / "frames.bin"
        write_frame_traces(path, cfg, seed=99, traces=traces)
        header, frames = read_frame_traces(path)
        assert header == {"m": 64, "l_cp": 16, "l_su": 10, "seed": 99,
                          "n_frames": 3}
        for tr, frame in zip(traces, frames):
            assert np.array_equal(frame["z2_t"], tr.z2_t)
            assert np.array_equal(frame["y_su_f"], tr.y_su_f)

    @pytest.mark.parametrize("cut,pad", [(16, b""), (0, b"\0" * 16)],
                             ids=["truncated", "padded"])
    def test_size_mismatch_is_rejected(self, setup, tmp_path, cut, pad):
        scenario, cfg, pre = setup
        rng = np.random.default_rng(15)
        sim = FrameSimulator(cfg, pre)
        ch = draw_channels(scenario, cfg.specs, cfg.m, rng)
        trace = sim.step(ch, zmcscg(rng, 60, scenario.p_pu), zmcscg(rng, 7),
                         zmcscg(rng, 4), zero_noise(cfg))
        path = tmp_path / "frames.bin"
        write_frame_traces(path, cfg, seed=1, traces=[trace])
        data = path.read_bytes()
        path.write_bytes(data[:len(data) - cut] + pad)
        wrong = len(data) - cut + len(pad)
        with pytest.raises(ValueError, match=f"{wrong} bytes.*implies {len(data)}"):
            read_frame_traces(path)
