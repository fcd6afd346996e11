"""Channel-model tests: frequency responses, Toeplitz block operators and
the fading-law statistics of the tap generator."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

import convsup.channel
from convsup.channel import (LINKS, LinkSpec, NetworkScenario, draw_channels,
                             frequency_response, link_output, toeplitz_pair,
                             zmcscg)
from convsup.harness import build_scenario, reference_link_specs, resolve_d12

# normals per fill of zmcscg's buffer
FILL = convsup.channel._NORMAL_FILL


@pytest.fixture(scope="module")
def scenario():
    return build_scenario(0.3, 1.0, 20.0, "pu")


class TestScenario:
    def test_link_variance_follows_path_loss(self, scenario):
        assert scenario.link_variance(1, 3) == pytest.approx(1.0)
        d12 = scenario.distance(1, 2)
        assert scenario.link_variance(1, 2) == pytest.approx(d12 ** -3.0)

    def test_stored_link_variance_is_the_path_loss_law(self):
        # the variances are computed when a scenario is built, also when
        # dataclasses.replace builds it; each is d^(-eta) to the bit
        rng = np.random.default_rng(17)
        for _ in range(50):
            coords = {node: tuple(rng.uniform(-3.0, 3.0, size=2)) for node in (1, 2, 3, 4)}
            scenario = NetworkScenario(coords=coords, eta=float(rng.uniform(2.0, 5.0)),
                                       p_pu=1.0, p_su=1.0, sigma2_v={2: 1, 3: 1, 4: 1})
            moved = replace(scenario, eta=float(rng.uniform(2.0, 5.0)),
                            coords={**coords, 2: tuple(rng.uniform(-3.0, 3.0, size=2))})
            for sc in (scenario, moved):
                for link in LINKS:
                    assert sc.link_variance(*link) == sc.distance(*link) ** (-sc.eta)

    def test_distance_is_the_numpy_norm_to_the_bit(self):
        def norm(a, b):
            return float(np.linalg.norm(np.asarray(a, dtype=float)
                                        - np.asarray(b, dtype=float)))

        rng = np.random.default_rng(29)
        pairs = rng.uniform(-3.0, 3.0, size=(100_000, 2, 2))
        # a bare stand-in for the coordinates is enough to call the method
        for a, b in pairs.tolist():
            stand_in = SimpleNamespace(coords={1: tuple(a), 2: tuple(b)})
            assert NetworkScenario.distance(stand_in, 1, 2) == norm(a, b)
        for d12, ref in [(0.3, "d13"), (0.1, "d13"), (0.7, "d14"), (1.3, "d14")]:
            sc = build_scenario(resolve_d12(d12, ref), 1.0, 20.0, "pu")
            for i, j in LINKS:
                assert sc.distance(i, j) == norm(sc.coords[i], sc.coords[j])

    def test_rejects_bad_parameters(self):
        coords = {1: (0, 0), 2: (1, 0), 3: (2, 0), 4: (0, 1)}
        with pytest.raises(ValueError):
            NetworkScenario(coords=coords, eta=3.0, p_pu=0.0, p_su=1.0,
                            sigma2_v={2: 1, 3: 1, 4: 1})
        with pytest.raises(ValueError):
            NetworkScenario(coords=coords, eta=3.0, p_pu=1.0, p_su=1.0,
                            sigma2_v={2: 1, 3: 0.0, 4: 1})
        for eta in (0.0, -3.0):
            with pytest.raises(ValueError, match="eta"):
                NetworkScenario(coords=coords, eta=eta, p_pu=1.0, p_su=1.0,
                                sigma2_v={2: 1, 3: 1, 4: 1})
        coords_bad = {**coords, 2: (0, 0)}
        with pytest.raises(ValueError):
            NetworkScenario(coords=coords_bad, eta=3.0, p_pu=1.0, p_su=1.0,
                            sigma2_v={2: 1, 3: 1, 4: 1})

    @pytest.mark.parametrize("change,names", [
        ({"coords": {1: (0, 0), 2: (np.nan, 0), 3: (2, 0), 4: (0, 1)}}, "node 2"),
        ({"eta": np.nan}, "eta"),
        ({"p_su": np.inf}, "p_su"),
        ({"sigma2_v": {2: 1, 3: np.inf, 4: 1}}, "node 3"),
    ], ids=["nan-coords", "nan-eta", "inf-p_su", "inf-sigma2_v"])
    def test_rejects_non_finite_numbers(self, change, names):
        kwargs = dict(coords={1: (0, 0), 2: (1, 0), 3: (2, 0), 4: (0, 1)},
                      eta=3.0, p_pu=1.0, p_su=1.0, sigma2_v={2: 1, 3: 1, 4: 1})
        kwargs.update(change)
        with pytest.raises(ValueError, match=names):
            NetworkScenario(**kwargs)


class TestFrequencyResponse:
    def test_single_tap_is_flat(self, scenario):
        rng = np.random.default_rng(0)
        specs = {link: LinkSpec(order=0, offset=0) for link in LINKS}
        ch = draw_channels(scenario, specs, 16, rng)
        for link in LINKS:
            h = ch.freq[link]
            assert np.abs(h - h[0]).max() <= 1e-14

    def test_pure_delay_is_unit_modulus_ramp(self):
        m = 16
        h = frequency_response(np.array([1.0 + 0j]), offset=2, m=m)
        want = np.exp(-4j * np.pi * np.arange(m) / m)
        assert np.abs(h - want).max() <= 1e-14
        assert np.abs(np.abs(h) - 1.0).max() <= 1e-14

    def test_matches_dft_of_extended_response(self):
        rng = np.random.default_rng(1)
        taps = zmcscg(rng, 4)
        theta, m = 3, 32
        extended = np.zeros(m, dtype=complex)
        extended[theta:theta + 4] = taps
        assert np.abs(frequency_response(taps, theta, m)
                      - np.fft.fft(extended)).max() <= 1e-10

    def test_draws_are_reproducible_and_independent_across_links(self, scenario):
        specs = reference_link_specs()
        a = draw_channels(scenario, specs, 64, np.random.default_rng(7))
        b = draw_channels(scenario, specs, 64, np.random.default_rng(7))
        assert np.array_equal(a.taps[1, 2], b.taps[1, 2])
        assert not np.array_equal(a.taps[1, 2], a.taps[1, 3][:2])

    @pytest.mark.parametrize("m", [1, 64])
    def test_batch_equals_single_draws(self, scenario, m):
        specs = reference_link_specs()
        n = 50
        rng = np.random.default_rng(17)
        singles = [draw_channels(scenario, specs, m, rng) for _ in range(n)]
        rng = np.random.default_rng(17)
        batch = draw_channels(scenario, specs, m, rng, batch=(n,))
        for link in LINKS:
            assert batch.taps[link].shape == (n, specs[link].order + 1)
            assert batch.freq[link].shape == (n, m)
            assert np.array_equal(batch.taps[link],
                                  np.array([ch.taps[link] for ch in singles]))
            assert np.array_equal(batch.freq[link],
                                  np.array([ch.freq[link] for ch in singles]))

    def test_frequency_variance_moment(self, scenario):
        # mean of |H(0)|^2 over draws within 3 standard errors of sigma2
        specs = reference_link_specs()
        rng = np.random.default_rng(11)
        n = 20_000
        ch = draw_channels(scenario, specs, 8, rng, batch=(n,))
        vals = np.abs(ch.freq[1, 2][:, 0]) ** 2
        s12 = scenario.link_variance(1, 2)
        assert abs(vals.mean() - s12) <= 3.0 * s12 / np.sqrt(n)

    def test_magnitude_squared_is_exponential(self, scenario):
        specs = reference_link_specs()
        rng = np.random.default_rng(13)
        n = 20_000
        ch = draw_channels(scenario, specs, 8, rng, batch=(n,))
        vals = np.abs(ch.freq[2, 3][:, 0]) ** 2
        p = stats.kstest(vals, "expon",
                         args=(0.0, scenario.link_variance(2, 3))).pvalue
        assert p > 0.01


class TestToeplitzPair:
    def test_identity_channel(self):
        h0, h1 = toeplitz_pair(np.array([1.0 + 0j]), 0, 8)
        assert np.abs(h0 - np.eye(8)).max() == 0
        assert np.abs(h1).max() == 0

    def test_one_sample_delay(self):
        h0, h1 = toeplitz_pair(np.array([0.0, 1.0 + 0j]), 0, 8)
        assert np.abs(h0 - np.eye(8, k=-1)).max() == 0
        want = np.zeros((8, 8))
        want[0, 7] = 1.0
        assert np.abs(h1 - want).max() == 0

    @pytest.mark.parametrize("order,theta", [(3, 2), (0, 0), (3, 0), (0, 15),
                                             (15, 0), (7, 8)])
    def test_block_pair_matches_stream_convolution(self, order, theta):
        # (0, 15), (15, 0) and (7, 8) reach the largest allowed spread p - 1
        p = 16
        rng = np.random.default_rng(2)
        taps = zmcscg(rng, order + 1)
        u_prev = zmcscg(rng, p)
        u_cur = zmcscg(rng, p)
        h0, h1 = toeplitz_pair(taps, theta, p)
        block = h0 @ u_cur + h1 @ u_prev
        # oracle: scalar convolution of the concatenated stream with the
        # delayed impulse response, restricted to the current block
        imp = np.zeros(order + theta + 1, dtype=complex)
        imp[theta:] = taps
        stream = np.concatenate([u_prev, u_cur])
        full = np.convolve(stream, imp)
        assert np.abs(block - full[p:2 * p]).max() <= 1e-12

    def test_rejects_overlong_spread(self):
        with pytest.raises(ValueError):
            toeplitz_pair(np.ones(4, dtype=complex), 5, 8)


class TestLinkOutput:
    @pytest.mark.parametrize("order,theta", [(3, 2), (0, 0), (3, 0), (0, 15),
                                             (15, 0), (7, 8)])
    def test_shift_and_add_matches_block_pair(self, order, theta):
        p = 16
        rng = np.random.default_rng(3)
        taps = zmcscg(rng, order + 1)
        u_prev = zmcscg(rng, p)
        u_cur = zmcscg(rng, p)
        h0, h1 = toeplitz_pair(taps, theta, p)
        got = link_output(taps, theta, u_cur, u_prev)
        assert np.abs(got - (h0 @ u_cur + h1 @ u_prev)).max() <= 1e-12
        # a silent previous block is the intra-block operator alone
        assert np.abs(link_output(taps, theta, u_cur) - h0 @ u_cur).max() <= 1e-12

    def test_batch_rows_are_single_links(self):
        p, n = 16, 4
        rng = np.random.default_rng(4)
        taps = zmcscg(rng, (n, 3))
        u_prev = zmcscg(rng, (n, p))
        u_cur = zmcscg(rng, (n, p))
        got = link_output(taps, 5, u_cur, u_prev)
        assert got.shape == (n, p)
        for i in range(n):
            h0, h1 = toeplitz_pair(taps[i], 5, p)
            assert np.abs(got[i] - (h0 @ u_cur[i] + h1 @ u_prev[i])).max() <= 1e-12

    @staticmethod
    def full_batch(taps, offset, cur, prev):
        # one shift-and-add over the whole batch, without row passes
        p = cur.shape[-1]
        stream = np.concatenate([prev, cur], axis=-1)
        out = taps[..., 0, None] * stream[..., p - offset:2 * p - offset]
        for ell in range(1, taps.shape[-1]):
            out += taps[..., ell, None] * stream[..., p - offset - ell:2 * p - offset - ell]
        return out

    @pytest.mark.parametrize("order,theta", [(3, 2), (0, 0), (3, 0), (0, 15),
                                             (15, 0), (7, 8)])
    def test_row_passes_keep_the_bits(self, order, theta, monkeypatch):
        p, n = 16, 23
        monkeypatch.setattr(convsup.channel, "_LINK_ROWS", 5)  # 4 full passes and 3 rows
        rng = np.random.default_rng(5)
        taps = zmcscg(rng, (n, order + 1))
        u_prev = zmcscg(rng, (n, p))
        u_cur = zmcscg(rng, (n, p))
        assert np.array_equal(link_output(taps, theta, u_cur, u_prev),
                              self.full_batch(taps, theta, u_cur, u_prev))
        # one frame, and a silent previous block over a batch
        assert np.array_equal(link_output(taps[0], theta, u_cur[0], u_prev[0]),
                              self.full_batch(taps[0], theta, u_cur[0], u_prev[0]))
        assert np.array_equal(link_output(taps, theta, u_cur),
                              self.full_batch(taps, theta, u_cur, np.zeros_like(u_cur)))

    @pytest.mark.parametrize("taps,cur,prev", [
        ((3, 4), (5, 16), None),      # taps and block of two batches
        ((4,), (5, 16), None),        # one filter over a batch
        ((5, 4), (16,), None),        # a batch of filters over one block
        ((5, 4), (5, 16), (16,)),     # one previous block under a batch
        ((4,), (16,), (5, 16)),       # a one-frame step after a five-frame one
        ((5, 4), (5, 16), (5, 17)),   # a previous block of another length
    ])
    def test_rejects_mismatched_batch_shapes(self, taps, cur, prev):
        # one batch shape for taps, block and previous block, or a one-line
        # ValueError that names the three shapes; nothing broadcasts
        with pytest.raises(ValueError) as err:
            link_output(np.ones(taps, dtype=complex), 2, np.ones(cur, dtype=complex),
                        None if prev is None else np.ones(prev, dtype=complex))
        message = str(err.value)
        assert "\n" not in message
        assert all(str(s) in message for s in (taps, cur, prev))

    def test_rejects_overlong_spread(self):
        with pytest.raises(ValueError):
            link_output(np.ones(4, dtype=complex), 5, np.zeros(8, dtype=complex))


class TestComplexGaussian:
    @pytest.mark.parametrize("variance", [0.3, np.array([[0.5], [2.0], [1e-3]])])
    def test_bits_match_the_complex_expression(self, variance):
        # a scalar variance gives the bits of scale * (re + 1j * im); an
        # array is rejected, not broadcast
        rng = np.random.default_rng(7)
        re = rng.standard_normal((3, 6))
        im = rng.standard_normal((3, 6))
        if np.ndim(variance):
            with pytest.raises(TypeError):
                convsup.channel._complex_gaussian(re, im, variance)
            return
        want = np.sqrt(variance / 2.0) * (re + 1j * im)
        got = convsup.channel._complex_gaussian(re, im, variance)
        assert got.dtype == complex and np.array_equal(got, want)

    def test_zmcscg_draws_real_then_imaginary_parts(self):
        # the bits of scale * (re + 1j * im) over separate draws, and the
        # stream left where two draws of ``shape`` leave it
        for shape, variance in [((2, 3), 4.0), ((4, 5), 0.7), (9, 1.0), ((), 2.0)]:
            got = zmcscg(np.random.default_rng(8), shape, variance)
            rng = np.random.default_rng(8)
            re, im = rng.standard_normal(shape), rng.standard_normal(shape)
            want = np.sqrt(variance / 2.0) * (re + 1j * im)
            assert got.dtype == complex and got.shape == want.shape, shape
            assert np.array_equal(got, want), (shape, variance)
            rest = np.random.default_rng(8)
            zmcscg(rest, shape, variance)
            assert np.array_equal(rest.standard_normal(5), rng.standard_normal(5))

    @pytest.mark.parametrize("variance", [-1.0, np.nan, np.inf])
    def test_zmcscg_rejects_a_non_physical_variance(self, variance):
        # -1 and NaN once gave NaN samples and inf gave inf samples; now
        # rejected before any normal is drawn
        rng = np.random.default_rng(10)
        with pytest.raises(ValueError, match=r"^variance must be finite and >= 0, got"):
            zmcscg(rng, (3, 4), variance)
        assert rng.standard_normal() == np.random.default_rng(10).standard_normal()

    @staticmethod
    def whole_size_draw(rng, shape, variance):
        """zmcscg as it was before its buffered fill: each part drawn as one
        whole-size float array and scaled into the output."""
        scale = np.sqrt(variance / 2.0)
        normals = rng.standard_normal(shape)
        out = np.empty(normals.shape, dtype=complex)
        np.multiply(scale, normals, out=out.real)
        rng.standard_normal(normals.shape, out=normals)
        np.multiply(scale, normals, out=out.imag)
        return out

    @pytest.mark.parametrize("shape", [1, FILL - 1, FILL, FILL + 1, (3, FILL), (7, 613)])
    @pytest.mark.parametrize("variance", ["scalar", "column", "row"])
    def test_buffered_fill_keeps_the_whole_size_draw(self, shape, variance):
        # around the buffer size, a scalar variance gives the bits of the
        # whole-size draw and leaves the stream where it leaves it; a column
        # or a row of variances, which once broadcast over the draw, is
        # rejected before any normal is drawn
        last = np.shape(np.empty(shape))[-1]
        rows = shape[0] if isinstance(shape, tuple) else 2
        variance = {"scalar": 0.7,
                    "column": np.geomspace(0.5, 2.0, rows)[:, None],
                    "row": np.geomspace(1e-3, 4.0, last)}[variance]
        rng = np.random.default_rng(9)
        ref = np.random.default_rng(9)
        if np.ndim(variance):
            with pytest.raises(TypeError):
                zmcscg(rng, shape, variance)
        else:
            got = zmcscg(rng, shape, variance)
            want = self.whole_size_draw(ref, shape, variance)
            assert got.dtype == complex and got.shape == want.shape
            assert np.array_equal(got, want)
        assert rng.standard_normal() == ref.standard_normal()


class TestLinkSpec:
    def test_rejects_negative_parameters(self):
        with pytest.raises(ValueError):
            LinkSpec(order=-1, offset=0)
        with pytest.raises(ValueError):
            LinkSpec(order=0, offset=-2)

    def test_missing_link_rejected(self, scenario):
        specs = reference_link_specs()
        del specs[2, 4]
        with pytest.raises(ValueError):
            draw_channels(scenario, specs, 8, np.random.default_rng(0))


class TestTrialsFold:
    # largest relative gap between the fold and numpy over the concatenated
    # draws above one batch: 4.4e-16 (2 eps) was the worst of 200 seeds at
    # _CHUNK + 1, 2 _CHUNK, 3 _CHUNK + 7 and 5 _CHUNK + 1 draws
    FOLD_RTOL = 1e-15

    @staticmethod
    def fold(n, seed):
        # three columns of different laws, one of them far from zero
        rng = np.random.default_rng(seed)
        batches = []

        def sample(k):
            batches.append(np.stack([rng.exponential(size=k),
                                     5.0 + rng.standard_normal(k),
                                     rng.lognormal(0.0, 1.0, size=k)], axis=1))
            return batches[-1]
        return convsup.channel.trials(n, sample), np.concatenate(batches)

    @pytest.mark.parametrize("n", [1, 2, convsup.channel._CHUNK, convsup.channel._CHUNK + 1,
                                   3 * convsup.channel._CHUNK + 7])
    def test_fold_matches_numpy_over_the_concatenated_draws(self, n):
        moments, draws = self.fold(n, n)
        assert moments.count == n and draws.shape == (n, 3)
        assert np.array_equal(moments.max, draws.max(axis=0))
        if n < 2:
            with pytest.raises(ValueError, match="got 1"):
                convsup.channel.mean_se(moments)
            assert np.array_equal(moments.mean, draws[0])
            return
        got = convsup.channel.mean_se(moments)
        want = [(float(np.mean(col)), float(np.std(col, ddof=1) / np.sqrt(n)))
                for col in np.ascontiguousarray(draws.T)]
        if n <= convsup.channel._CHUNK:  # one batch: numpy's bits
            assert got == want
        else:
            np.testing.assert_allclose(got, want, rtol=self.FOLD_RTOL, atol=0)

    def test_scalar_draws_give_one_pair(self):
        rng = np.random.default_rng(5)
        draws = []

        def sample(k):
            draws.append(rng.standard_normal(k))
            return draws[-1]
        moments = convsup.channel.trials(300, sample)
        assert moments.mean.shape == moments.max.shape == ()
        assert convsup.channel.mean_se(moments) == (
            float(np.mean(draws[0])), float(np.std(draws[0], ddof=1) / np.sqrt(300)))

    def test_no_draws_are_rejected(self):
        with pytest.raises(ValueError, match="got 0"):
            convsup.channel.trials(0, np.ones)
