"""Channel-model tests: frequency responses, Toeplitz block operators and
the fading-law statistics of the tap generator."""

import numpy as np
import pytest
from scipy import stats

from convsup.channel import (LINKS, LinkSpec, NetworkScenario, draw_channels,
                             frequency_response, toeplitz_pair, zmcscg)
from convsup.harness import build_scenario, reference_link_specs


@pytest.fixture(scope="module")
def scenario():
    return build_scenario(0.3, 1.0, 20.0, "pu")


class TestScenario:
    def test_link_variance_follows_path_loss(self, scenario):
        assert scenario.link_variance(1, 3) == pytest.approx(1.0)
        d12 = scenario.distance(1, 2)
        assert scenario.link_variance(1, 2) == pytest.approx(d12 ** -3.0)

    def test_rejects_bad_parameters(self):
        coords = {1: (0, 0), 2: (1, 0), 3: (2, 0), 4: (0, 1)}
        with pytest.raises(ValueError):
            NetworkScenario(coords=coords, eta=3.0, p_pu=0.0, p_su=1.0,
                            sigma2_v={2: 1, 3: 1, 4: 1})
        with pytest.raises(ValueError):
            NetworkScenario(coords=coords, eta=3.0, p_pu=1.0, p_su=1.0,
                            sigma2_v={2: 1, 3: 0.0, 4: 1})
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

    def test_frequency_variance_moment(self, scenario):
        # mean of |H(0)|^2 over draws within 3 standard errors of sigma2
        specs = reference_link_specs()
        rng = np.random.default_rng(11)
        n = 20_000
        vals = np.empty(n)
        for i in range(n):
            ch = draw_channels(scenario, specs, 8, rng)
            vals[i] = np.abs(ch.freq[1, 2][0]) ** 2
        s12 = scenario.link_variance(1, 2)
        assert abs(vals.mean() - s12) <= 3.0 * s12 / np.sqrt(n)

    def test_magnitude_squared_is_exponential(self, scenario):
        specs = reference_link_specs()
        rng = np.random.default_rng(13)
        n = 20_000
        vals = np.empty(n)
        for i in range(n):
            vals[i] = np.abs(draw_channels(scenario, specs, 8, rng).freq[2, 3][0]) ** 2
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

    def test_block_pair_matches_stream_convolution(self):
        p, order, theta = 16, 3, 2
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


class TestLinkSpec:
    def test_rejects_negative_parameters(self):
        with pytest.raises(ValueError):
            LinkSpec(order=-1, offset=0)
        with pytest.raises(ValueError):
            LinkSpec(order=0, offset=-2)
        with pytest.raises(ValueError):
            LinkSpec(order=0, offset=0, variance=0.0)

    def test_missing_link_rejected(self, scenario):
        specs = reference_link_specs()
        del specs[2, 4]
        with pytest.raises(ValueError):
            draw_channels(scenario, specs, 8, np.random.default_rng(0))
