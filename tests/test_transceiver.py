"""Time-domain chain tests: prefix structure, causal filtering, interference
removal, and sample-exact agreement with the per-subcarrier models."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import convsup.validation
from convsup.channel import ChannelRealization, LinkSpec, draw_channels, zmcscg
from convsup.harness import build_scenario, reference_link_specs
from convsup.precoding import PrecoderSet, realize_precoders, uniform_split
from convsup.spectral import build_spectral_context, build_vc_layout
from convsup.transceiver import (FrameConfig, FrameSimulator, NoiseBlocks,
                                 draw_noise_blocks, pu_frequency_model,
                                 pu_transmit, required_cp_length,
                                 srx_frequency_model, stx_power_mc,
                                 stx_process, zero_noise)
from convsup.validation import (cp_condition_tightness_check, frame_equivalence_errors,
                                frequency_equivalence_check, noise_path_identity_check,
                                precoder_structure_check)


def reference_config(m=64, l_su=10, vc=(0, 16, 32, 48), l_cp=None):
    ctx = build_spectral_context(m, l_su)
    layout = build_vc_layout(ctx, vc)
    specs = reference_link_specs()
    if l_cp is None:
        l_cp = required_cp_length(specs, l_su)
    return FrameConfig(ctx=ctx, layout=layout, l_cp=l_cp, specs=specs)


def reference_precoders(cfg, scenario, g_fraction=0.5):
    return realize_precoders(cfg.ctx, cfg.layout,
                             *uniform_split(cfg.layout, scenario, g_fraction))


@st.composite
def vc_layouts(draw):
    """(m, l_su, vc): no virtual subcarriers, a cyclic block of adjacent
    ones or a random set, at most l_su of them below m.  Sizes stop at
    m = 128 and l_su = 24 so that the 1000 rate draws of the structure
    check stay fast."""
    m = draw(st.integers(8, 128))
    l_su = draw(st.integers(0, min(m - 1, 24)))
    start = draw(st.integers(0, m - 1))
    kinds = [st.just(())]
    if l_su:
        kinds += [st.integers(1, l_su).map(lambda size: tuple((start + k) % m
                                                              for k in range(size))),
                  st.lists(st.integers(0, m - 1), unique=True, min_size=1,
                           max_size=l_su).map(tuple)]
    return m, l_su, draw(st.one_of(kinds))


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
        pre = PrecoderSet(a=np.ones((16, 1), dtype=complex),
                          g=np.zeros((16, 0), dtype=complex))
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
    """One frame of ``FrameSimulator``, after a silent or a random previous
    frame."""

    def test_direct_link_only_when_secondary_silent(self, setup):
        scenario, cfg, pre = setup
        rng = np.random.default_rng(5)
        ch = draw_channels(scenario, cfg.specs, cfg.m, rng)
        x_pu = zmcscg(rng, 60, scenario.p_pu)
        tr = FrameSimulator(cfg, pre).step(ch, x_pu, np.zeros(7, dtype=complex),
                                           np.zeros(4, dtype=complex), zero_noise(cfg))
        want = ch.freq[1, 3] * (cfg.layout.theta @ x_pu)
        assert np.abs(tr.y_pu_f - want).max() <= 1e-10 * np.abs(want).max()

    def test_matches_frequency_models_with_random_history(self, setup):
        scenario, cfg, pre = setup
        ok, detail = frequency_equivalence_check(scenario, cfg, pre, 25,
                                                 np.random.default_rng(6))
        assert ok, detail

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(vc_layouts())
    @example((64, 16, tuple(range(16))))
    @example((256, 16, (255, 0, 1, *range(123, 134))))  # DC nulls and edge guards
    def test_models_hold_on_every_accepted_layout(self, case):
        # guard bands as much as spread virtual subcarriers: the chain
        # matches both models, and the precoders keep their structure
        m, l_su, vc = case
        # FrameConfig rejects a prefix as long as the block
        assume(required_cp_length(reference_link_specs(), l_su) < m)
        cfg = reference_config(m, l_su, vc)
        scenario = build_scenario(0.3, 1.0, 20.0, "pu")
        pre = reference_precoders(cfg, scenario)
        _, g = uniform_split(cfg.layout, scenario, 0.5)
        rng = np.random.default_rng(17)
        ok, detail = frequency_equivalence_check(scenario, cfg, pre, 3, rng)
        assert ok, detail
        ok, detail = precoder_structure_check(scenario, cfg, g, pre, rng)
        assert ok, detail

    def test_white_relayed_noise_fails_the_oracle(self, setup, monkeypatch):
        # the oracle draws the receiver noise, so an unprefixed v2 reaches
        # both receivers through the relay filter and breaks both models
        scenario, cfg, pre = setup

        def white_v2(cfg, scenario, rng, batch=()):
            noises = draw_noise_blocks(cfg, scenario, rng, batch)
            return replace(noises, v2=zmcscg(rng, batch + (cfg.p,), scenario.sigma2_v[2]))
        monkeypatch.setattr(convsup.validation, "draw_noise_blocks", white_v2)
        worst_pu, worst_su = frame_equivalence_errors(scenario, cfg, pre, 10,
                                                      np.random.default_rng(7))
        assert worst_pu > 1e-6
        assert worst_su > 1e-6

    def test_models_without_receiver_noise_fail_the_oracle(self, setup, monkeypatch):
        # the oracle passes v3 and v4 to the models; models that drop them
        # miss the receiver noise at both receivers
        scenario, cfg, pre = setup
        monkeypatch.setattr(convsup.validation, "pu_frequency_model",
                            lambda *args, v3_f, **kw: pu_frequency_model(*args, **kw))
        monkeypatch.setattr(convsup.validation, "srx_frequency_model",
                            lambda *args, v4_f, **kw: srx_frequency_model(*args, **kw))
        worst_pu, worst_su = frame_equivalence_errors(scenario, cfg, pre, 10,
                                                      np.random.default_rng(7))
        assert worst_pu > 1e-6
        assert worst_su > 1e-6

    def test_interference_annihilation_and_tightness(self, setup):
        scenario, cfg, pre = setup
        rng = np.random.default_rng(9)
        ch = draw_channels(scenario, cfg.specs, cfg.m, rng)
        x_pu = zmcscg(rng, 60, scenario.p_pu)
        x1, x2 = zmcscg(rng, 7), zmcscg(rng, 4)
        prev = (draw_channels(scenario, cfg.specs, cfg.m, rng),
                zmcscg(rng, 60, scenario.p_pu), zmcscg(rng, 7), zmcscg(rng, 4),
                zero_noise(cfg))
        base = FrameSimulator(cfg, pre).step(ch, x_pu, x1, x2, zero_noise(cfg))
        sim = FrameSimulator(cfg, pre)
        sim.step(*prev)
        hist = sim.step(ch, x_pu, x1, x2, zero_noise(cfg))
        scale = np.abs(base.y_pu_f).max()
        assert np.abs(base.y_pu_f - hist.y_pu_f).max() <= 1e-10 * scale
        assert np.abs(base.y_su_f - hist.y_su_f).max() <= 1e-10 * scale

        # one sample short and generic channels leak the previous block
        ok, detail = cp_condition_tightness_check(scenario, cfg, pre, 10,
                                                  np.random.default_rng(10))
        assert ok, detail

    def test_relayed_noise_circular_identity(self, setup):
        scenario, cfg, pre = setup
        ok, detail = noise_path_identity_check(scenario, cfg, pre, 10,
                                               np.random.default_rng(11))
        assert ok, detail

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
    def test_batch_boundary_is_pinned(self, setup):
        # 25 000 frames run as batches of 20 000 and 5 000, folded by
        # channel.trials: the recorded mean and standard error of this seed,
        # to the bit
        scenario, cfg, pre = setup
        got = stx_power_mc(cfg, scenario, pre, 25_000, np.random.default_rng(13))
        assert got == (1.0005835550946602, 0.0033112400370388186)

    def test_batch_matches_frame_simulator(self, setup):
        # stx_power_mc's draws, replayed frame by frame through the full
        # chain with only the h12 link live, give the same energies
        scenario, cfg, pre = setup
        n = 3
        mean, se = stx_power_mc(cfg, scenario, pre, n, np.random.default_rng(13))
        rng = np.random.default_rng(13)
        spec12 = cfg.specs[1, 2]
        taps = zmcscg(rng, (n, spec12.order + 1),
                      scenario.link_variance(1, 2) / (spec12.order + 1))
        x_pu = zmcscg(rng, (n, 60), scenario.p_pu)
        x1 = zmcscg(rng, (n, 7))
        x2 = zmcscg(rng, (n, 4))
        v2 = zmcscg(rng, (n, cfg.p), scenario.sigma2_v[2])
        powers = []
        for i in range(n):
            ch = ChannelRealization(
                taps={link: (taps[i] if link == (1, 2)
                             else np.zeros(cfg.specs[link].order + 1, dtype=complex))
                      for link in cfg.specs},
                offsets={link: cfg.specs[link].offset for link in cfg.specs},
                freq={link: np.zeros(cfg.m, dtype=complex) for link in cfg.specs})
            noises = NoiseBlocks(v2=v2[i], v3=np.zeros(cfg.p, dtype=complex),
                                 v4=np.zeros(cfg.p, dtype=complex))
            tr = FrameSimulator(cfg, pre).step(ch, x_pu[i], x1[i], x2[i], noises)
            z2_f = cfg.ctx.w_dft @ tr.z2_t[cfg.l_cp:]
            powers.append(np.sum(np.abs(z2_f) ** 2))
        assert abs(mean - np.mean(powers)) <= 1e-12 * np.mean(powers)
        assert abs(se - np.std(powers, ddof=1) / np.sqrt(n)) <= 1e-12 * se


class TestBatchedChain:
    def test_batched_step_matches_single_frames(self, setup):
        scenario, cfg, pre = setup
        n = 5
        rng = np.random.default_rng(16)

        def inputs():
            return (draw_channels(scenario, cfg.specs, cfg.m, rng, batch=(n,)),
                    zmcscg(rng, (n, 60), scenario.p_pu), zmcscg(rng, (n, 7)),
                    zmcscg(rng, (n, 4)), draw_noise_blocks(cfg, scenario, rng, (n,)))

        def frame(args, i):
            ch, x_pu, x1, x2, noises = args
            one = ChannelRealization(taps={k: v[i] for k, v in ch.taps.items()},
                                     offsets=ch.offsets,
                                     freq={k: v[i] for k, v in ch.freq.items()})
            return (one, x_pu[i], x1[i], x2[i],
                    NoiseBlocks(v2=noises.v2[i], v3=noises.v3[i], v4=noises.v4[i]))

        prev, cur = inputs(), inputs()
        sim = FrameSimulator(cfg, pre)
        sim.step(*prev)
        batched = sim.step(*cur)
        for i in range(n):
            single = FrameSimulator(cfg, pre)
            single.step(*frame(prev, i))
            tr = single.step(*frame(cur, i))
            for name in ("y_pu_f", "y_su_f", "z2_t"):
                want = getattr(tr, name)
                got = getattr(batched, name)[i]
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name

    def test_batched_frequency_models_match_single_frames(self, setup):
        scenario, cfg, pre = setup
        n = 4
        rng = np.random.default_rng(17)
        ch = draw_channels(scenario, cfg.specs, cfg.m, rng, batch=(n,))
        x_pu, x1, x2 = (zmcscg(rng, (n, 60), scenario.p_pu), zmcscg(rng, (n, 7)),
                        zmcscg(rng, (n, 4)))
        v2_f, v_f = zmcscg(rng, (n, cfg.m)), zmcscg(rng, (n, cfg.m))
        pu = pu_frequency_model(ch, pre, cfg.layout, x_pu, x1, x2, v2_f, v_f)
        su = srx_frequency_model(ch, pre, cfg.layout, x_pu, x1, x2, v2_f, v_f)
        for i in range(n):
            one = ChannelRealization(taps={k: v[i] for k, v in ch.taps.items()},
                                     offsets=ch.offsets,
                                     freq={k: v[i] for k, v in ch.freq.items()})
            want_pu = pu_frequency_model(one, pre, cfg.layout, x_pu[i], x1[i], x2[i],
                                         v2_f[i], v_f[i])
            want_su = srx_frequency_model(one, pre, cfg.layout, x_pu[i], x1[i], x2[i],
                                          v2_f[i], v_f[i])
            assert np.abs(pu[i] - want_pu).max() <= 1e-12 * np.abs(want_pu).max()
            assert np.abs(su[i] - want_su).max() <= 1e-12 * np.abs(want_su).max()

    def test_batched_stx_process_matches_single_frames(self, setup):
        _, cfg, pre = setup
        rng = np.random.default_rng(18)
        y2, x1, x2 = zmcscg(rng, (3, cfg.p)), zmcscg(rng, (3, 7)), zmcscg(rng, (3, 4))
        batched = stx_process(y2, x1, x2, pre, cfg)
        for i in range(3):
            want = stx_process(y2[i], x1[i], x2[i], pre, cfg)
            assert np.abs(batched[i] - want).max() <= 1e-12 * np.abs(want).max()

    @staticmethod
    def frame_inputs(scenario, cfg, rng, batch):
        return (draw_channels(scenario, cfg.specs, cfg.m, rng, batch=batch),
                zmcscg(rng, batch + (60,), scenario.p_pu), zmcscg(rng, batch + (7,)),
                zmcscg(rng, batch + (4,)), draw_noise_blocks(cfg, scenario, rng, batch))

    def test_a_step_keeps_the_batch_shape_until_reset(self, setup):
        # a one-frame step after a three-frame step once returned three
        # frames; it raises, and after reset the step is a fresh simulator's
        scenario, cfg, pre = setup
        rng = np.random.default_rng(20)
        sim = FrameSimulator(cfg, pre)
        sim.step(*self.frame_inputs(scenario, cfg, rng, (3,)))
        one = self.frame_inputs(scenario, cfg, rng, ())
        with pytest.raises(ValueError, match="do not share one batch shape") as err:
            sim.step(*one)
        assert "\n" not in str(err.value)
        sim.reset()
        got, want = sim.step(*one), FrameSimulator(cfg, pre).step(*one)
        for name in ("z2_t", "y_pu_f", "y_su_f"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    @pytest.mark.parametrize("batch,other", [((), (3,)), ((3,), ())])
    @pytest.mark.parametrize("name", ["x_su_1", "x_su_2", "v2", "v3", "v4"])
    def test_step_inputs_share_the_batch_shape(self, setup, name, batch, other):
        # an input of another batch shape than x_pu's raises a one-line
        # ValueError; each once broadcast, over the frames or into more
        scenario, cfg, pre = setup
        rng = np.random.default_rng(21)
        ch, x_pu, x1, x2, noises = self.frame_inputs(scenario, cfg, rng, batch)
        _, _, x1_other, x2_other, noises_other = self.frame_inputs(scenario, cfg, rng, other)
        if name == "x_su_1":
            x1 = x1_other
        elif name == "x_su_2":
            x2 = x2_other
        else:
            noises = replace(noises, **{name: getattr(noises_other, name)})
        with pytest.raises(ValueError) as err:
            FrameSimulator(cfg, pre).step(ch, x_pu, x1, x2, noises)
        assert "\n" not in str(err.value)

    def test_noise_blocks_carry_the_batch_shape(self, setup):
        scenario, cfg, _ = setup
        noises = draw_noise_blocks(cfg, scenario, np.random.default_rng(19), (2, 3))
        assert noises.v2.shape == noises.v3.shape == noises.v4.shape == (2, 3, cfg.p)
        assert np.array_equal(noises.v2[..., :cfg.l_cp], noises.v2[..., -cfg.l_cp:])
        assert zero_noise(cfg, (2, 3)).v4.shape == (2, 3, cfg.p)


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

