"""Capacity and special-function tests.

Every closed form is checked against an independent route (adaptive
quadrature of defining integrals, brute-force Monte Carlo of the raw chain,
or the end-to-end frame simulator); Monte Carlo comparisons use 3-sigma
bands on reported standard errors.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from convsup import capacity, channel, precoding
from convsup.capacity import (CapacityReport, EULER_GAMMA, _composite_gain,
                              _psi_deficit, baseline_nocr, baseline_nocr_quad,
                              baseline_ocr, bessel_k1, c_pu_direct,
                              c_pu_lower_quad, c_pu_lower_trials, c_su_lower_csit,
                              c_su_lower_nocsit_quad, check_pu_monotonicity,
                              kappa, outage_mc, psi, pu_outage_probability)
from convsup.channel import draw_channels, mean_se, zmcscg
from convsup.harness import (ACCEPTED, ScenarioSpec, build_scenario,
                             reference_link_specs, resolve_d12)
from convsup.precoding import (srx_noise_floor, uc_power_coefficient, uniform_split,
                               waterfill_capacity, waterfill_power,
                               waterfill_thresholds)
from convsup.spectral import build_spectral_context, build_vc_layout
from oracles import (c_su_lower_nocsit, c_su_lower_nocsit_quad_constant_modulus,
                     csit_rate_bounds, nocsit_high_snr_approx, nocsit_low_snr_approx,
                     score_order_bound, waterfill_power_full, waterfill_score_full)


@pytest.fixture(scope="module")
def layout64():
    ctx = build_spectral_context(64, 10)
    return ctx, build_vc_layout(ctx, (0, 16, 32, 48))


def quad_psi(a: float) -> float:
    val, _ = integrate.quad(lambda u: np.exp(-u) * np.log1p(a * u), 0, np.inf,
                            limit=400)
    return val


class TestPsi:
    def test_matches_quadrature_on_log_grid(self):
        for a in np.logspace(-4, 6, 21):
            assert psi(a) == pytest.approx(quad_psi(a), rel=1e-8)

    def test_small_argument_asymptote(self):
        a = 1e-3
        assert abs(psi(a) - a) / a <= 2e-3

    def test_large_argument_asymptote(self):
        a = 1e6
        want = np.log1p(a) - EULER_GAMMA
        assert abs(psi(a) - want) / want <= 1e-4

    def test_unit_argument_frozen_value(self):
        # adaptive quadrature of the defining integral gives 0.5963473623
        assert psi(1.0) == pytest.approx(0.596347362323194, abs=1e-12)

    def test_monotone_increasing(self):
        grid = np.logspace(-4, 6, 101)
        vals = psi(grid)
        assert np.all(np.diff(vals) > 0)

    def test_vectorized_matches_scalar(self):
        grid = np.array([1e-3, 0.3, 7.0, 1e4])
        assert np.allclose(psi(grid), [psi(float(a)) for a in grid], rtol=1e-14)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            psi(0.0)
        with pytest.raises(ValueError):
            psi(np.array([1.0, -2.0]))

    def test_branch_seam_is_smooth(self):
        # 1/a = 5 is where E1 kernels commonly switch from series to
        # continued fraction
        for a in (0.199999, 0.2, 0.200001):
            assert psi(a) == pytest.approx(quad_psi(a), rel=1e-10)

    def test_matches_mpmath_across_the_large_argument_seam(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        # z = 1/a from 1e-8 to 1e9, dense on both sides of the z = 700 seam
        z = np.concatenate([np.logspace(-8, 9, 171),
                            np.linspace(690.0, 710.0, 41), [5.0]])
        a = 1.0 / z
        got = psi(a)
        for a_k, got_k in zip(a, got):
            z_k = 1 / mpmath.mpf(float(a_k))
            want = float(mpmath.exp(z_k) * mpmath.e1(z_k))
            assert got_k == pytest.approx(want, rel=1e-14, abs=0.0), float(z_k)

    def test_deficit_matches_mpmath(self):
        # 1 - psi(b)/b, the integrand of the nocr quadrature, keeps its
        # digits at small b, where the plain difference cancels
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        b = np.concatenate([np.logspace(-12, 6, 91), np.linspace(1 / 720, 1 / 680, 21)])
        got = _psi_deficit(b)
        for b_k, got_k in zip(b, got):
            z = 1 / mpmath.mpf(float(b_k))
            want = float(1 - z * mpmath.exp(z) * mpmath.e1(z))
            assert got_k == pytest.approx(want, rel=1e-12, abs=0.0), float(b_k)

    def test_deficit_evaluates_each_branch_on_its_own_arguments(self):
        # warnings are errors in this suite: the small-b series never sees
        # a huge b, where its Horner steps would overflow
        b = np.array([1e-300, 1e-5, 1.0 / 700.0, 3.0, 1e200, 1e300])
        got = _psi_deficit(b)
        assert got[0] == b[0]
        assert got[1] == pytest.approx(b[1] * (1 - 2 * b[1] + 6 * b[1] ** 2), rel=1e-14)
        assert np.array_equal(got[2:4], 1.0 - psi(b[2:4]) / b[2:4])
        assert np.array_equal(got[4:], [1.0, 1.0])


class TestBesselK:
    def test_small_argument_limit(self):
        x = 1e-6
        assert abs(x * bessel_k1(x) - 1.0) <= 1e-10

    def test_unit_argument_against_quadrature(self):
        val, _ = integrate.quad(lambda t: np.exp(-t) * np.sqrt(t * t - 1.0),
                                1, np.inf, limit=200)
        want = np.sqrt(np.pi) * 0.5 / (np.sqrt(np.pi) / 2.0) * val
        assert bessel_k1(1.0) == pytest.approx(want, rel=1e-8)

    def test_large_argument_asymptote(self):
        x = 50.0
        want = np.sqrt(np.pi / (2 * x)) * np.exp(-x)
        assert bessel_k1(x) == pytest.approx(want, rel=1e-2)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            bessel_k1(0.0)


def ulps(got, want):
    """|got - want| in units in the last place of ``want``."""
    want = np.asarray(want, dtype=float)
    return np.abs(np.asarray(got) - want) / np.spacing(np.abs(want))


class TestKernels:
    """The numpy kernels of psi and K_1 against 40-digit mpmath, and
    the Kolmogorov-Smirnov p-value against scipy.special."""

    PSI_ULPS = 3
    K1_ULPS = 6

    def test_psi_within_ulps_over_the_float_range(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        rng = np.random.default_rng(16)
        # z = 1/a from 1e-300 to 1e300, dense on both sides of z = 2^-6
        # and z = 1, where the kernel changes
        z = np.concatenate([10.0 ** rng.uniform(-300, 300, 300),
                            rng.uniform(0.0, 0.05, 100), rng.uniform(0.05, 1.0, 100),
                            rng.uniform(1.0, 4.0, 100), 10.0 ** rng.uniform(0, 3, 100),
                            [2.0 ** -6, np.nextafter(2.0 ** -6, 1), 1.0,
                             np.nextafter(1.0, 2)]])
        a = 1.0 / z
        want = []
        for a_k in a:
            z_k = 1 / mpmath.mpf(float(a_k))
            if z_k < 1e15:
                want.append(float(mpmath.exp(z_k) * mpmath.e1(z_k)))
            else:  # the asymptotic series a (1 - a + 2a^2), exact to 6a^3
                want.append(float(mpmath.mpf(float(a_k)) * (1 - 1 / z_k + 2 / z_k ** 2)))
        err = ulps(psi(a), want)
        assert err.max() <= self.PSI_ULPS, (err.max(), z[err.argmax()])

    def test_psi_takes_subnormal_arguments(self):
        # z = 1/a overflows to inf, and psi(a) = a to the last bit
        a = np.array([5e-324, 1e-310, 2.2e-308])
        assert np.array_equal(psi(a), a)
        assert psi(5e-324) == 5e-324

    @pytest.mark.parametrize("order", [1])
    def test_bessel_k_within_ulps_over_its_domain(self, order):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        rng = np.random.default_rng(order)
        # up to x = 700, where K is still a normal float
        x = np.concatenate([10.0 ** rng.uniform(-300, np.log10(700.0), 100),
                            rng.uniform(0.0, 2.0, 100), rng.uniform(2.0, 30.0, 50),
                            [2.0, np.nextafter(2.0, 3)]])
        want = [float(mpmath.besselk(order, mpmath.mpf(float(v)))) for v in x]
        err = ulps(bessel_k1(x), want)
        assert err.max() <= self.K1_ULPS, (err.max(), x[err.argmax()])

    def test_scalar_and_vector_calls_give_the_same_bits(self):
        rng = np.random.default_rng(3)
        # every band of psi and of K in one array, in random order
        a = rng.permutation(np.concatenate([
            10.0 ** rng.uniform(-300, 300, 50), 1.0 / rng.uniform(0, 2 ** -6, 50),
            1.0 / rng.uniform(2 ** -6, 1, 50), rng.uniform(0, 1, 50), [5e-324]]))
        vector = psi(a)
        for scalar in (float, np.float64, np.asarray):
            assert np.array_equal([psi(scalar(v)) for v in a], vector)
        x = a[a > 1e-300]
        assert np.array_equal([bessel_k1(float(v)) for v in x], bessel_k1(x))

    def test_ks_pvalue_matches_kolmogorov(self):
        # below n D^2 = 2.2 the p-value is Kolmogorov's limit law at
        # y = sqrt(n) D, within 2e-14 relative of scipy's for y >= 0.2 and
        # 1 below, where 1 - K(y) is within 1e-12 of 1
        from scipy.special import kolmogorov
        from convsup.validation import _ks_pvalue
        n = 10_000
        for y in np.linspace(0.0, np.sqrt(2.2), 400, endpoint=False):
            d = y / np.sqrt(n)
            got, want = _ks_pvalue(n, d), float(kolmogorov(np.sqrt(n) * d))
            bound = 1e-12 if np.sqrt(n) * d < 0.2 else 2e-14 * want
            assert abs(got - want) <= bound, y

    def test_ks_pvalue_tail_is_twice_smirnov(self):
        from scipy.special import smirnov
        from convsup.validation import _ks_pvalue
        for n in (100, 141, 5000, 100_000):
            for nd2 in (2.21, 3.0, 8.0, 50.0):
                d = np.sqrt(nd2 / n)
                assert n * d * d >= 2.2
                assert _ks_pvalue(n, d) == min(1.0, 2.0 * float(smirnov(n, d)))


class TestOutage:
    def test_closed_form_frozen_point(self):
        # kappa = 1 under equal noise figures: 1 - 2 K1(2)
        scenario = build_scenario(1.0, 1.0, 20.0, "pu")
        assert kappa(scenario) == pytest.approx(1.0)
        want = 1.0 - 2.0 * bessel_k1(2.0)
        assert pu_outage_probability(scenario) == pytest.approx(want, abs=1e-15)
        assert want == pytest.approx(0.7202682363669551, abs=1e-12)

    def test_vanishes_for_small_kappa(self):
        scenario = build_scenario(1e-3, 1.0, 20.0, "pu")
        assert pu_outage_probability(scenario) <= 1e-5

    def test_monte_carlo_matches_closed_form(self, layout64):
        _, layout = layout64
        for kap in (0.05, 0.2, 1.0):
            scenario = build_scenario(kap ** (2.0 / 3.0), 1.0, 20.0, "pu")
            a, _ = uniform_split(layout, scenario, 0.0)
            p_hat, se = outage_mc(scenario, a, 100_000,
                                  np.random.default_rng(18))
            assert abs(p_hat - pu_outage_probability(scenario)) <= 3.0 * max(se, 1e-6)

    def test_stderr_is_mean_se_of_the_indicators(self, layout64, record_trials):
        # the outage frequency and its standard error are those of the
        # folded outage indicators, formed by mean_se like every other one
        _, layout = layout64
        scenario = build_scenario(0.3, 1.0, 20.0, "pu")
        a, _ = uniform_split(layout, scenario, 0.0)
        seen = record_trials(capacity)
        got = outage_mc(scenario, a, channel._CHUNK + 3, np.random.default_rng(7))
        indicators = np.concatenate(seen).astype(float)
        assert got == mean_se(channel.trials(indicators.size, replayed(indicators)))
        assert 0.0 < got[0] < 1.0

    def test_profile_independence_is_exact_under_common_draws(self, layout64):
        _, layout = layout64
        scenario = build_scenario(0.3, 1.0, 20.0, "pu")
        a_0, _ = uniform_split(layout, scenario, 0.0)
        a_1, _ = uniform_split(layout, scenario, 0.48)
        p_a, _ = outage_mc(scenario, a_0, 50_000, np.random.default_rng(5))
        p_b, _ = outage_mc(scenario, a_1, 50_000, np.random.default_rng(5))
        assert p_a == p_b

    @pytest.mark.parametrize("a", [-1.0, np.nan, np.inf])
    def test_rejects_a_non_physical_weight(self, a):
        # a = -1 once gave an outage frequency near 0.9 and NaN or inf gave
        # (0.0, 0.0); now rejected before any draw
        scenario = build_scenario(0.3, 1.0, 20.0, "pu")
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError, match=r"^used-subcarrier weight a must be finite "
                                             r"and >= 0, got"):
            outage_mc(scenario, a, 200, rng)
        assert rng.standard_normal() == np.random.default_rng(5).standard_normal()


class TestPrimaryCapacity:
    def test_silent_secondary_equals_direct_exactly(self, layout64):
        _, layout = layout64
        scenario = build_scenario(0.3, 1.0, 20.0, "pu")
        a, _ = uniform_split(layout, scenario, 1.0)
        assert a == 0
        val, se = mean_se(c_pu_lower_trials([(scenario, a)], layout, 500,
                                            np.random.default_rng(0)))[0]
        assert val == pytest.approx(c_pu_direct(scenario, layout), rel=1e-12)
        assert se == pytest.approx(0.0, abs=1e-12)

    def test_gain_positive_when_relay_close_to_source(self, layout64):
        _, layout = layout64
        scenario = build_scenario(0.1, 1.0, 20.0, "pu")
        a, _ = uniform_split(layout, scenario, 0.5)
        val, se = mean_se(c_pu_lower_trials([(scenario, a)], layout, 30_000,
                                            np.random.default_rng(1)))[0]
        assert val - c_pu_direct(scenario, layout) >= 3.0 * se

    def test_matches_independent_quadrature(self, layout64):
        # the program's Gauss-Laguerre value against Monte Carlo
        _, layout = layout64
        scenario = build_scenario(0.3, 1.0, 20.0, "pu")
        a, _ = uniform_split(layout, scenario, 0.5)
        want = c_pu_lower_quad(scenario, layout, a)
        val, se = mean_se(c_pu_lower_trials([(scenario, a)], layout, 100_000,
                                            np.random.default_rng(2)))[0]
        assert abs(val - want) <= 3.0 * se

    def test_bridge_to_frame_simulator(self, layout64):
        # the per-draw effective-SNR estimator agrees with an end-to-end
        # estimate built from simulated noiseless frames, both using the
        # realized per-subcarrier weights
        from convsup.precoding import realize_precoders
        from convsup.transceiver import (FrameConfig, FrameSimulator,
                                         required_cp_length, zero_noise)
        ctx, layout = layout64
        scenario = build_scenario(0.3, 1.0, 20.0, "pu")
        pre = realize_precoders(ctx, layout, *uniform_split(layout, scenario, 0.5))
        rows = np.sum(np.abs(pre.a[list(layout.uc_indices)]) ** 2, axis=1)
        cfg = FrameConfig(ctx=ctx, layout=layout,
                          l_cp=required_cp_length(reference_link_specs(), 10),
                          specs=reference_link_specs())
        rng = np.random.default_rng(3)
        sim = FrameSimulator(cfg, pre)
        n_frames = 4000
        uc = list(layout.uc_indices)
        r_diag = (scenario.link_variance(2, 3) * scenario.sigma2_v[2]
                  * rows + scenario.sigma2_v[3])
        vals = np.empty(n_frames)
        for i in range(n_frames):
            sim.reset()
            ch = draw_channels(scenario, cfg.specs, cfg.m, rng)
            x_pu = zmcscg(rng, layout.q, scenario.p_pu)
            tr = sim.step(ch, x_pu, zmcscg(rng, layout.n_sym),
                          zmcscg(rng, layout.m_vc), zero_noise(cfg))
            h_pu = tr.y_pu_f[uc] / (layout.theta @ x_pu)[uc]
            snr_eff = scenario.p_pu * np.abs(h_pu) ** 2 / r_diag
            vals[i] = np.log2(1.0 + snr_eff).sum() / layout.m
        e2e, e2e_se = vals.mean(), vals.std(ddof=1) / np.sqrt(n_frames)
        gam, gam_se = mean_se(c_pu_lower_trials([(scenario, rows)], layout,
                                                100_000, np.random.default_rng(4)))[0]
        assert abs(e2e - gam) <= 3.0 * np.hypot(e2e_se, gam_se)


class TestSecondaryCapacity:
    def test_csit_vanishes_without_power(self, layout64):
        _, layout = layout64
        scenario = build_scenario(1.0, 1e-9, 20.0, "pu")
        [(val, _)] = mean_se(c_su_lower_csit([scenario], layout, 2000,
                                             np.random.default_rng(0)))
        assert val <= 1e-6

    def test_csit_beats_nocsit(self, layout64):
        _, layout = layout64
        scenario = build_scenario(resolve_d12(0.7, "d14"), 1.0, 20.0, "su")
        [(cs, se_c)] = mean_se(c_su_lower_csit([scenario], layout, 30_000,
                                               np.random.default_rng(1)))
        no, se_n = c_su_lower_nocsit(scenario, layout, *uniform_split(layout, scenario, 0.5),
                                     30_000,
                                     np.random.default_rng(2))
        assert cs - no >= -3.0 * np.hypot(se_c, se_n)
        assert cs > no  # comfortably apart at this geometry

    def test_direct_and_conditional_estimators_agree(self, layout64):
        # direct Monte Carlo against the quadrature, which averages psi of
        # the conditional mean SNR exactly
        _, layout = layout64
        scenario = build_scenario(resolve_d12(0.7, "d14"), 1.0, 20.0, "su")
        a, g = uniform_split(layout, scenario, 0.5)
        v1, s1 = c_su_lower_nocsit(scenario, layout, a, g, 60_000,
                                   np.random.default_rng(3))
        v2 = c_su_lower_nocsit_quad(scenario, layout, a, g)
        assert abs(v1 - v2) <= 3.0 * s1

    def test_low_snr_closed_form(self, layout64):
        _, layout = layout64
        scenario = build_scenario(resolve_d12(0.7, "d14"), 1.0, -10.0, "su")
        a, g = uniform_split(layout, scenario, 0.5)
        want = nocsit_low_snr_approx(scenario, layout, g)
        got = c_su_lower_nocsit_quad_constant_modulus(scenario, layout, a, g)
        assert abs(got - want) / want <= 0.05

    def test_high_snr_closed_form(self, layout64):
        _, layout = layout64
        scenario = build_scenario(resolve_d12(0.7, "d14"), 1e4, 20.0, "pu")
        a, g = uniform_split(layout, scenario, 0.5)
        want = nocsit_high_snr_approx(scenario, layout, g)
        got = c_su_lower_nocsit_quad_constant_modulus(scenario, layout, a, g)
        assert abs(got - want) / want <= 0.05

    def test_nocsit_rejects_bad_inputs(self, layout64):
        # the rates take their (a, g) from uniform_split, which rejects a
        # negative share and one that would overspend the budget on the VCs
        _, layout = layout64
        scenario = build_scenario(0.7, 1.0, 20.0, "su")
        for fraction in (-0.1, layout.m_vc):
            with pytest.raises(ValueError):
                c_su_lower_nocsit_quad(scenario, layout,
                                       *uniform_split(layout, scenario, fraction))

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_nocsit_quad_rejects_a_non_physical_allocation(self, layout64, bad):
        # a weight a of -1 or NaN once dropped the used subcarriers and gave
        # the rate of the VCs alone, and a bad g dropped the VCs the same way
        _, layout = layout64
        scenario = build_scenario(0.7, 1.0, 20.0, "su")
        a, g = uniform_split(layout, scenario, 0.5)
        for args in ((bad, g), (a, bad)):
            with pytest.raises(ValueError, match="must be finite and >= 0"):
                c_su_lower_nocsit_quad(scenario, layout, *args)

    def test_composite_gain_sampler_matches_complex_product(self):
        from scipy import stats
        scenario = build_scenario(0.3, 1.0, 20.0, "pu")
        s12, s24 = scenario.link_variance(1, 2), scenario.link_variance(2, 4)
        n = 20_000
        rng = np.random.default_rng(11)
        gain = _composite_gain(rng, scenario, n)
        h24, h12 = zmcscg(rng, n, s24), zmcscg(rng, n, s12)
        x_pu = zmcscg(rng, n, scenario.p_pu)
        v2 = zmcscg(rng, n, scenario.sigma2_v[2])
        product = np.abs(h24 * (h12 * x_pu + v2)) ** 2
        assert stats.ks_2samp(gain, product).pvalue > 0.01
        want = s24 * (s12 * scenario.p_pu + scenario.sigma2_v[2])
        assert abs(gain.mean() - want) <= 3.0 * gain.std(ddof=1) / np.sqrt(n)


class TestBaselines:
    def test_ocr_without_vcs_is_silent(self):
        ctx = build_spectral_context(16, 4)
        layout = build_vc_layout(ctx, ())
        scenario = build_scenario(0.7, 1.0, 20.0, "su")
        assert baseline_ocr(scenario, layout, 1000,
                            np.random.default_rng(0)) == (0.0, 0.0)

    def test_ocr_matches_closed_form(self, layout64):
        _, layout = layout64
        scenario = build_scenario(resolve_d12(0.7, "d14"), 1.0, 20.0, "su")
        val, se = baseline_ocr(scenario, layout, 100_000,
                               np.random.default_rng(1))
        g = scenario.p_su / layout.m_vc
        snr = scenario.link_variance(2, 4) * g / scenario.sigma2_v[4]
        want = layout.m_vc / (layout.m * np.log(2)) * psi(snr)
        assert abs(val - want) <= 3.0 * se

    def test_nocr_vanishes_without_power(self, layout64):
        _, layout = layout64
        scenario = build_scenario(0.7, 1e-9, 20.0, "pu")
        val, _ = baseline_nocr(scenario, layout, 2000, np.random.default_rng(2))
        assert val <= 1e-6

    def test_nocr_below_proposed_without_vcs(self, layout64):
        _, layout = layout64
        scenario = build_scenario(resolve_d12(0.7, "d14"), 1.0, 20.0, "su")
        nocr, se_n = baseline_nocr(scenario, layout, 30_000,
                                   np.random.default_rng(3))
        prop, se_p = c_su_lower_nocsit(scenario, layout,
                                       *uniform_split(layout, scenario, 0.0), 30_000,
                                       np.random.default_rng(4))
        assert prop - nocr >= 3.0 * np.hypot(se_n, se_p)


def test_monte_carlo_rates_across_the_batch_boundary():
    # 25 000 draws run as batches of 20 000 and 5 000, folded by
    # channel.trials; each estimator gives the recorded (mean, stderr) of
    # its seed to the bit
    ctx = build_spectral_context(16, 5)
    layout = build_vc_layout(ctx, (0, 8))
    scenario = build_scenario(0.3, 1.0, 20.0, "pu")
    a, g = uniform_split(layout, scenario, 0.5)
    n = 25_000
    assert n > channel._CHUNK
    rng = np.random.default_rng
    got = {"c_pu_lower": mean_se(c_pu_lower_trials([(scenario, a)], layout, n,
                                                   rng(1)))[0],
           "nocsit": c_su_lower_nocsit(scenario, layout, a, g, n, rng(3)),
           "nocsit_constant_modulus": c_su_lower_nocsit(
               scenario, layout, a, g, n, rng(3), constant_modulus=True),
           "nocr": baseline_nocr(scenario, layout, n, rng(5))}
    assert got == {"c_pu_lower": (5.203338382619127, 0.0001488614607834775),
                   "nocsit": (0.3119365463216415, 0.0002007704037929917),
                   "nocsit_constant_modulus": (0.3150579080998715,
                                               0.00015612068005046978),
                   "nocr": (0.07461948410447916, 0.00019722477548511516)}


def replayed(rows):
    """A ``channel.trials`` sample that hands out ``rows`` batch by batch."""
    pos = [0]

    def sample(k):
        pos[0] += k
        return rows[pos[0] - k:pos[0]]
    return sample


@pytest.mark.parametrize("use_vcs", [True, False], ids=["vcs", "no-vcs"])
@pytest.mark.parametrize("n", [
    1, capacity._CSIT_ROWS - 1, capacity._CSIT_ROWS, capacity._CSIT_ROWS + 1,
    channel._CHUNK + capacity._CSIT_ROWS + 1])
def test_csit_row_blocks_match_a_whole_batch(n, use_vcs, layout64, record_trials):
    # the estimator draws and waterfills each batch in row blocks; the same
    # draws, taken block by block and made into thresholds as a whole
    # batch, must give every row, and so the mean and stderr, to the bit.
    # The score sums a row in an order that depends on whether its block
    # takes a head, so the batch is scored in the estimator's row blocks,
    # and every row is the out-of-place full-width score up to that order
    _, layout = layout64
    scenario = build_scenario(0.3, 1.0, 20.0, "pu")
    s24 = scenario.link_variance(2, 4)
    n_vc = layout.m_vc if use_vcs else 0

    def reference(rng):
        rows = []
        for start in range(0, n, channel._CHUNK):
            k = min(channel._CHUNK, n - start)
            blocks = []
            for lo in range(0, k, capacity._CSIT_ROWS):
                size = min(capacity._CSIT_ROWS, k - lo)
                blocks.append([rng.exponential(size=(size, layout.q)) for _ in range(3)]
                              + [rng.exponential(size=(size, n_vc))])
            e0, e1, e2, vc = (np.concatenate(parts) for parts in zip(*blocks))
            thr = waterfill_thresholds(
                uc_power_coefficient(scenario), srx_noise_floor(scenario),
                scenario.sigma2_v[4], capacity._relayed_gain(scenario, e0, e1) * e2,
                s24 * vc)
            rate = np.concatenate([waterfill_capacity(thr[lo:lo + capacity._CSIT_ROWS],
                                                      scenario.p_su)
                                   for lo in range(0, k, capacity._CSIT_ROWS)])
            spend, _ = waterfill_power(thr, scenario.p_su)
            want = np.log2(1.0 + spend / thr).sum(axis=1)
            n_active = np.count_nonzero(spend, axis=1)
            assert np.all(np.abs(rate - want) <= score_order_bound(want, n_active))
            rows.append(rate / layout.m)
        return np.concatenate(rows)

    want = reference(np.random.default_rng(n))
    seen = record_trials(capacity)
    if n > 1:  # one row has no stderr
        assert (mean_se(c_su_lower_csit([scenario], layout, n,
                                        np.random.default_rng(n), use_vcs=use_vcs))
                == [mean_se(channel.trials(n, replayed(want)))])
    else:
        with pytest.raises(ValueError, match="got 1"):
            mean_se(c_su_lower_csit([scenario], layout, n, np.random.default_rng(n),
                                    use_vcs=use_vcs))
    got = np.concatenate(seen)
    assert got.shape == (n, 1) and np.array_equal(got[:, 0], want)


@pytest.mark.parametrize("use_vcs", [True, False], ids=["vcs", "no-vcs"])
def test_csit_columns_of_a_repeated_key_equal_one_scenario_calls(use_vcs, layout64,
                                                                  record_trials):
    # a key that comes back after another: the first run's factors must
    # leave the block's draws as they were for the runs after it, and only
    # the last run scales them in place; every column is the one-scenario
    # call on a generator in the same state, to the bit, across a batch and
    # a row-block boundary
    _, layout = layout64
    scenarios = [build_scenario(resolve_d12(ratio, "d13"), 1.0, 20.0, "pu")
                 for ratio in (0.2, 0.5, 0.2)]
    n = channel._CHUNK + capacity._CSIT_ROWS + 1
    seen = record_trials(capacity)
    c_su_lower_csit(scenarios, layout, n, np.random.default_rng(6), use_vcs=use_vcs)
    got = np.concatenate(seen)
    for j, scenario in enumerate(scenarios):
        seen.clear()
        c_su_lower_csit([scenario], layout, n, np.random.default_rng(6), use_vcs=use_vcs)
        assert np.array_equal(got[:, j], np.concatenate(seen)[:, 0])


_SNR_GRID = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)


@pytest.mark.parametrize("spec, variable, grid, use_vcs", [
    (ScenarioSpec(), "snr_pu_db", _SNR_GRID, True),
    (ScenarioSpec(), "snr_pu_db", _SNR_GRID, False),
    (ScenarioSpec(d12_ratio=0.7, d12_ref="d14"), "snr_su_db", (20.0,), True),
    (ScenarioSpec(m_subcarriers=256, l_su=200), "snr_pu_db", _SNR_GRID, True),
    (ScenarioSpec(m_subcarriers=16, l_su=5, vc_indices=(0, 8)), "snr_pu_db",
     (15.0, 20.0), True),
    (ScenarioSpec(power_ratio=100.0), "snr_su_db", (40.0,), True),
], ids=["reference-vcs", "reference-no-vcs", "7c", "m256-lsu200", "m16-golden",
        "high-budget"])
def test_csit_waterfills_equal_the_full_width_oracle(spec, variable, grid, use_vcs,
                                                     monkeypatch):
    # every block that the estimator waterfills, at the geometries and
    # budgets where the active count is small (reference), larger (7c,
    # M 256) and most of the row (high budget), and where rows are too
    # narrow for a head (M 16): the level of each row that passes the
    # exactness test of its block's head is the full-width kernel's to the
    # bit, and the score is the full-width one up to the order of its
    # nonzero terms; a block that takes no head gets that score to the bit
    scenarios = [spec.with_sweep_value(variable, v).network() for v in grid]
    _, layout, _ = spec.spectral()
    blocks = []

    def spy(thresholds, budget):
        blocks.append((thresholds.copy(), budget, waterfill_capacity(thresholds, budget)))
        return blocks[-1][2]
    monkeypatch.setattr(capacity, "waterfill_capacity", spy)
    c_su_lower_csit(scenarios, layout, 1100, np.random.default_rng(32), use_vcs=use_vcs)
    assert len(blocks) == 3 * len(grid)
    for thresholds, budget, rate in blocks:
        _, want_mu = waterfill_power_full(thresholds, budget)
        want, n_active = waterfill_score_full(thresholds, budget)
        assert np.all(np.abs(rate - want) <= score_order_bound(want, n_active))
        _, budget, ranked, bottom = precoding._sorted_rows(thresholds, budget)
        head = precoding._certified_head(ranked, bottom, budget)
        if head is None:
            assert np.array_equal(rate, want)
            continue
        _, _, xi, wide = head
        exact = np.ones(len(rate), dtype=bool)
        exact[wide] = False
        assert np.array_equal((bottom[:, 0] + xi)[exact], want_mu[exact])


@pytest.mark.parametrize("spec, variable, value", [
    (ScenarioSpec(m_subcarriers=16, l_su=5, vc_indices=(0, 8)), "snr_pu_db", 20.0),
    (ScenarioSpec(power_ratio=100.0), "snr_su_db", 40.0),
], ids=["m16-golden", "high-budget"])
def test_a_csit_block_without_a_head_is_sorted_once(spec, variable, value, monkeypatch):
    # rows of 16 columns take no head, and at the high budget no width
    # certifies: each waterfill_capacity call of the estimator then checks
    # and sorts its block once, finds no head and levels the whole block
    # once, over all its columns
    steps = []

    def spy(name, record):
        step = getattr(precoding, name)

        def spied(*args):
            out = step(*args)
            steps.append((name, record(args, out)))
            return out
        monkeypatch.setattr(precoding, name, spied)
    spy("waterfill_capacity", lambda args, out: args[0].shape)
    spy("_sorted_rows", lambda args, out: args[0].shape)
    spy("_certified_head", lambda args, out: out)
    spy("_excess_level", lambda args, out: args[0].shape)
    monkeypatch.setattr(capacity, "waterfill_capacity", precoding.waterfill_capacity)
    _, layout, _ = spec.spectral()
    scenario = spec.with_sweep_value(variable, value).network()
    c_su_lower_csit([scenario], layout, 1100, np.random.default_rng(33))
    calls = [steps[i:i + 4] for i in range(0, len(steps), 4)]
    assert len(calls) == 3 and len(steps) == 12
    for call in calls:
        shape = call[-1][1]
        assert call == [("_sorted_rows", shape), ("_certified_head", None),
                        ("_excess_level", shape), ("waterfill_capacity", shape)]


@pytest.mark.parametrize("spec, variable, grid, use_vcs", [
    (ScenarioSpec(), "snr_pu_db", (0.0, 20.0, 30.0), True),
    (ScenarioSpec(), "snr_pu_db", (0.0, 20.0, 30.0), False),
    (ScenarioSpec(m_subcarriers=16, l_su=5, vc_indices=(0, 8)), "snr_pu_db",
     (15.0, 20.0), True),
    (ScenarioSpec(d12_ratio=0.7, d12_ref="d14"), "snr_su_db", (20.0,), True),
], ids=["reference-vcs", "reference-no-vcs", "m16-golden", "7c"])
def test_csit_rate_lies_within_its_exact_bounds(spec, variable, grid, use_vcs):
    # the exact bounds of oracles.csit_rate_bounds at 1e-4, 1e-2 and all of
    # each scenario's budget: at 1e-4 a single dimension is active, so the
    # estimate sits on the lower bound and the two bounds nearly meet
    _, layout, _ = spec.spectral()
    shares = (1e-4, 1e-2, 1.0)
    scenarios = [replace(sc, p_su=share * sc.p_su) for value in grid
                 for sc in [spec.with_sweep_value(variable, value).network()]
                 for share in shares]
    rows = mean_se(c_su_lower_csit(scenarios, layout, 20_000, np.random.default_rng(9),
                                   use_vcs=use_vcs))
    for i, (scenario, (value, se)) in enumerate(zip(scenarios, rows)):
        lower, upper = csit_rate_bounds(scenario, layout, use_vcs)
        assert lower - 3 * se <= value <= upper + 3 * se
        if shares[i % len(shares)] == 1e-4:
            assert abs(value - lower) <= 3 * se and upper <= 1.03 * lower


@pytest.mark.parametrize("n_trials", [0, 1])
@pytest.mark.parametrize("estimator", ["c_su_lower_csit", "c_pu_lower",
                                       "c_su_lower_nocsit", "baseline_ocr",
                                       "baseline_nocr"])
def test_too_few_trials_are_rejected(estimator, n_trials, layout64):
    # no draws, or one draw without a standard error, is a one-line
    # ValueError naming the count, not a NaN stderr or a numpy warning
    _, layout = layout64
    scenario = build_scenario(0.3, 1.0, 20.0, "pu")
    a, g = uniform_split(layout, scenario, 0.5)
    run = {"c_su_lower_csit": lambda n, rng: mean_se(c_su_lower_csit(
               [scenario], layout, n, rng))[0],
           "c_pu_lower": lambda n, rng: mean_se(c_pu_lower_trials(
               [(scenario, a)], layout, n, rng))[0],
           "c_su_lower_nocsit": lambda n, rng: c_su_lower_nocsit(
               scenario, layout, a, g, n, rng),
           "baseline_ocr": lambda n, rng: baseline_ocr(scenario, layout, n, rng),
           "baseline_nocr": lambda n, rng: baseline_nocr(scenario, layout, n, rng)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"got {n_trials}$"):
            run[estimator](n_trials, np.random.default_rng(0))


class TestQuadrature:
    """The *_quad rates against their Monte Carlo oracles."""

    @staticmethod
    def reference_point(snr_pu_db):
        # README reference sweep: d12/d13 = 0.3, P_su = P_pu, even VC split
        ctx = build_spectral_context(64, 10)
        layout = build_vc_layout(ctx, (0, 16, 32, 48))
        scenario = build_scenario(0.3, 1.0, snr_pu_db, "pu")
        return scenario, layout, uniform_split(layout, scenario, 0.5)

    @pytest.mark.parametrize("snr_pu_db", [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0])
    def test_reference_grid_within_3se_of_monte_carlo(self, snr_pu_db):
        scenario, layout, (a, g) = self.reference_point(snr_pu_db)
        rngs = [np.random.default_rng((910, int(snr_pu_db), k)) for k in range(5)]
        n = 50_000
        no_vcs = uniform_split(layout, scenario, 0.0)
        pairs = {
            "c_pu_lower": (c_pu_lower_quad(scenario, layout, a),
                           mean_se(c_pu_lower_trials([(scenario, a)], layout, n,
                                                     rngs[0]))[0]),
            "nocsit with vcs": (c_su_lower_nocsit_quad(scenario, layout, a, g),
                                c_su_lower_nocsit(scenario, layout, a, g, n, rngs[1])),
            "nocsit without vcs": (c_su_lower_nocsit_quad(scenario, layout, *no_vcs),
                                   c_su_lower_nocsit(scenario, layout, *no_vcs, n,
                                                     rngs[2])),
            "nocsit constant modulus": (
                c_su_lower_nocsit_quad_constant_modulus(scenario, layout, a, g),
                c_su_lower_nocsit(scenario, layout, a, g, n, rngs[3],
                                  constant_modulus=True)),
            "nocr": (baseline_nocr_quad(scenario, layout),
                     baseline_nocr(scenario, layout, n, rngs[4])),
        }
        for name, (exact, (mc, se)) in pairs.items():
            assert abs(exact - mc) <= 3.0 * se, (name, exact, mc, se)

    @pytest.mark.parametrize("snr_pu_db", [0.0, 30.0])
    def test_64_and_128_nodes_agree(self, snr_pu_db, monkeypatch):
        scenario, layout, (a, g) = self.reference_point(snr_pu_db)
        rates = {
            "c_pu_lower": lambda: c_pu_lower_quad(scenario, layout, a),
            "nocsit": lambda: c_su_lower_nocsit_quad(scenario, layout, a, g),
            "nocsit constant modulus": lambda: c_su_lower_nocsit_quad_constant_modulus(
                scenario, layout, a, g),
            "nocr": lambda: baseline_nocr_quad(scenario, layout),
        }
        at_64 = {name: rate() for name, rate in rates.items()}
        monkeypatch.setattr(capacity, "GL_NODES", 128)
        for name, rate in rates.items():
            assert rate() == pytest.approx(at_64[name], rel=1e-12, abs=0.0), name

    @pytest.mark.parametrize("d12_ratio,power_ratio,snr_pu_db,m,vcs", [
        (0.3, 1.0, 0.0, 64, (0, 16, 32, 48)),
        (0.3, 1.0, 30.0, 64, (0, 16, 32, 48)),
        (0.1, 1e3, 60.0, 64, (0, 16, 32, 48)),
        (0.7, 1e-9, 20.0, 16, (0, 8)),
        (0.7, 1e-3, -20.0, 8, ()),
    ], ids=["ref-0dB", "ref-30dB", "strong", "quiet", "weak-no-vcs"])
    def test_nocr_trapezoid_matches_adaptive_quadrature(
            self, d12_ratio, power_ratio, snr_pu_db, m, vcs):
        # the same integrand in u, integrated by scipy's adaptive rule
        layout = build_vc_layout(build_spectral_context(m, min(10, m // 2)), vcs)
        scenario = build_scenario(d12_ratio, power_ratio, snr_pu_db, "pu")
        c = scenario.p_su / (layout.q * uc_power_coefficient(scenario)
                             * srx_noise_floor(scenario))
        e1, w = np.polynomial.laguerre.laggauss(64)
        gain = scenario.link_variance(2, 4) * (
            scenario.link_variance(1, 2) * scenario.p_pu * e1 + scenario.sigma2_v[2])

        def integrand(u):
            deficit = _psi_deficit(c * u * gain) @ w
            return -np.expm1(layout.q * np.log1p(-deficit)) * np.exp(-u) / u

        ref, _ = integrate.quad(integrand, 0.0, np.inf, epsabs=0.0, epsrel=1e-13,
                                limit=400)
        assert baseline_nocr_quad(scenario, layout) == pytest.approx(
            ref / (layout.m * np.log(2.0)), rel=1e-12, abs=0.0)

    def test_silent_secondary(self, layout64):
        _, layout = layout64
        scenario = build_scenario(0.3, 1.0, 20.0, "pu")
        a, g = uniform_split(layout, scenario, 1.0)
        assert a == 0.0
        assert c_pu_lower_quad(scenario, layout, a) == pytest.approx(
            c_pu_direct(scenario, layout), rel=1e-14)
        quiet = build_scenario(0.7, 1e-9, 20.0, "pu")
        assert 0.0 < baseline_nocr_quad(quiet, layout) <= 1e-6
        assert c_su_lower_nocsit_quad(scenario, layout, a, g) == pytest.approx(
            c_su_lower_nocsit(scenario, layout, a, g, 200,
                              np.random.default_rng(0))[0], rel=1e-14)


class TestMonotonicity:
    def test_identical_budgets_trivially_pass(self, layout64):
        _, layout = layout64
        scenario = build_scenario(0.05 ** (2.0 / 3.0), 1.0, 20.0, "pu")
        ok, report = check_pu_monotonicity(scenario, layout, [1.0, 1.0], 2000, 7)
        assert ok and not report["violations"]

    def test_small_kappa_grid_is_monotone(self, layout64):
        _, layout = layout64
        scenario = build_scenario(0.05 ** (2.0 / 3.0), 1.0, 20.0, "pu")
        ok, report = check_pu_monotonicity(
            scenario, layout, np.geomspace(0.25, 2.0, 8), 20_000, 11)
        assert report["hypothesis_met"]
        assert ok, report["violations"]

    def test_large_kappa_gates_out(self, layout64):
        _, layout = layout64
        scenario = build_scenario(5.0 ** (2.0 / 3.0), 1.0, 20.0, "pu")
        ok, report = check_pu_monotonicity(scenario, layout, [0.5, 1.0], 1000, 13)
        assert ok and not report["hypothesis_met"]
        assert "not asserted" in report["note"]

    @pytest.mark.parametrize("n_trials", [5000, 25_000])
    def test_one_draw_matches_a_fresh_stream_per_budget(self, layout64, n_trials):
        # the grid scores one common draw at every budget; drawing it again
        # from a re-seeded generator at every budget, in the estimator's
        # batches (25 000 crosses the batch boundary), must give the same
        # means and standard errors to the bit
        _, layout = layout64
        scenario = build_scenario(0.05 ** (2.0 / 3.0), 1.0, 20.0, "pu")
        grid = [float(p) for p in np.geomspace(0.25, 2.0, 8)]
        seed = 20260809
        ok, report = check_pu_monotonicity(scenario, layout, grid, n_trials, seed)
        samples, exact = [], []
        for p_su in grid:
            sc = replace(scenario, p_su=p_su)
            a, _ = uniform_split(layout, sc, 0.5)
            rng = np.random.default_rng(seed)
            rows = []
            for start in range(0, n_trials, channel._CHUNK):
                shape = (min(channel._CHUNK, n_trials - start), layout.q)
                e_relay = rng.exponential(size=shape)
                e_filter = rng.exponential(size=shape)
                gam = capacity._pu_snr(sc, a, e_relay, e_filter)
                rows.append(capacity.LOG2E / layout.m * psi(gam).sum(axis=1))
            samples.append(np.concatenate(rows))
            exact.append(c_pu_lower_quad(sc, layout, a))

        def fold(vals):
            return mean_se(channel.trials(n_trials, replayed(vals)))
        assert report["means"] == [fold(v)[0] for v in samples]
        assert report["stderrs"] == [fold(v)[1] for v in samples]
        assert report["exact"] == exact
        assert ok and not report["violations"]

    def test_violations_are_the_falls_of_the_exact_rate(self, layout64, monkeypatch):
        # a fall of the quadrature between consecutive budgets is a
        # violation, however small; a rise or a tie is not
        _, layout = layout64
        scenario = build_scenario(0.05 ** (2.0 / 3.0), 1.0, 20.0, "pu")
        rates = iter([1.0, 2.0, 2.0, 2.0 - 2.0 ** -40, 3.0])
        monkeypatch.setattr(capacity, "c_pu_lower_quad", lambda *args: next(rates))
        ok, report = check_pu_monotonicity(scenario, layout, [1, 2, 3, 4, 5], 10, 0)
        assert not ok
        assert report["violations"] == [{"from": 3.0, "to": 4.0, "delta": -2.0 ** -40}]

    def test_rejects_decreasing_grid(self, layout64):
        _, layout = layout64
        scenario = build_scenario(0.1, 1.0, 20.0, "pu")
        with pytest.raises(ValueError):
            check_pu_monotonicity(scenario, layout, [2.0, 1.0], 1000, 0)


@st.composite
def doubling_cases(draw):
    """A ``ScenarioSpec`` drawn anywhere in its ``ACCEPTED`` rows, with room
    for twice its secondary budget: the power ratio up to half its top and
    the SNR 10 log10(2) dB below its top, as a budget anchored at the
    secondary doubles with its SNR.  The gain is positive mostly for a
    relay nearer the primary transmitter than its receiver, at physical
    SNRs and path-loss exponents, so the two ratios are drawn on a log
    scale, and half the time the d12 ratio is drawn below 1, the SNR from
    -20 to 60 dB and eta from 2 to 6.  Inside draws that the cross-field
    rules reject are discarded."""
    def number(name, hi=None, often=None, log=False):
        row = ACCEPTED[name]
        lo, hi = row.lo, row.hi if hi is None else hi
        scale = math.log10 if log else float
        whole = st.floats(scale(lo), scale(hi), exclude_min=row.lo_open)
        value = draw(whole if often is None else st.one_of(st.floats(*often), whole))
        return min(max(10.0 ** value, lo), hi) if log else value
    m = draw(st.integers(ACCEPTED["m_subcarriers"].lo, ACCEPTED["m_subcarriers"].hi))
    l_su = draw(st.integers(0, m - 1))
    fields = {
        "d12_ratio": number("d12_ratio", often=(-6.0, 0.0), log=True),
        "d12_ref": draw(st.sampled_from(ACCEPTED["d12_ref"].choices)),
        "power_ratio": number("power_ratio", ACCEPTED["power_ratio"].hi / 2, log=True),
        "snr_db": number("snr_db", ACCEPTED["snr_db"].hi - 3.02, (-20.0, 60.0)),
        "snr_ref": draw(st.sampled_from(ACCEPTED["snr_ref"].choices)),
        "eta": number("eta", often=(2.0, 6.0)),
        "m_subcarriers": m,
        "l_su": l_su,
        "vc_indices": tuple(draw(st.lists(st.integers(0, m - 1), unique=True,
                                          max_size=l_su))),
        "vc_power_fraction": number("vc_power_fraction"),
    }
    try:
        spec = ScenarioSpec(**fields)
        return (spec.network(), spec.spectral()[1]), fields["vc_power_fraction"]
    except ValueError:
        assume(False)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(doubling_cases())
@example(((ScenarioSpec().network(), ScenarioSpec().spectral()[1]), 0.5))  # 7a and 7b's point
def test_pu_gain_at_most_doubles_with_the_budget(case):
    # Delta(P) = c_pu_lower_quad - c_pu_direct under the uniform split of
    # the sweep: doubling P_su at most doubles a positive primary gain, the
    # bound that makes the 7a and 7b anchors (0.015 and 0.09) inconsistent.
    # A difference of two rates carries their rounding, a few ulp of the
    # larger (1.3e-15 of it at worst over 3000 random scenarios), so the
    # bound holds to 64 eps of the larger rate
    (scenario, layout), fraction = case

    def delta(sc):
        a, _ = uniform_split(layout, sc, fraction)
        lower, direct = c_pu_lower_quad(sc, layout, a), c_pu_direct(sc, layout)
        return lower - direct, max(lower, direct)
    gain, rate = delta(scenario)
    event(f"positive gain: {gain > 0.0}")
    if gain > 0.0:
        gain2, rate2 = delta(replace(scenario, p_su=2.0 * scenario.p_su))
        assert gain2 <= 2.0 * gain + 64 * np.finfo(float).eps * max(rate, rate2)


class TestCapacityReport:
    @pytest.mark.parametrize("change,names", [
        ({"c_pu_lower": np.nan}, "c_pu_lower"),
        ({"c_su_lower": np.inf}, "c_su_lower"),
        ({"p_out": np.nan}, "p_out"),
        ({"stderr_c_su_lower": np.inf}, "stderr_c_su_lower"),
    ], ids=["nan-c_pu_lower", "inf-c_su_lower", "nan-p_out", "inf-stderr_c_su_lower"])
    def test_rejects_non_finite_values(self, change, names):
        kwargs = dict(c_pu_lower=1.0, c_pu_direct=0.5, c_su_lower=0.1,
                      stderr_c_su_lower=0.01, p_out=0.1)
        CapacityReport(**kwargs)
        kwargs.update(change)
        with pytest.raises(ValueError, match=names):
            CapacityReport(**kwargs)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            CapacityReport(c_pu_lower=1.0, c_pu_direct=0.5, c_su_lower=-0.1,
                           stderr_c_su_lower=0.0, p_out=0.1)
        with pytest.raises(ValueError):
            CapacityReport(c_pu_lower=1.0, c_pu_direct=0.5, c_su_lower=0.1,
                           stderr_c_su_lower=0.0, p_out=1.5)
