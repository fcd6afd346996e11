"""Capacity and special-function tests.

Every closed form is checked against an independent route (adaptive
quadrature of defining integrals, brute-force Monte Carlo of the raw chain,
or the end-to-end frame simulator); Monte Carlo comparisons use 3-sigma
bands on reported standard errors.
"""

import numpy as np
import pytest
from scipy import integrate

from convsup.capacity import (CapacityReport, EULER_GAMMA, _composite_gain,
                              baseline_nocr, baseline_ocr, bessel_k,
                              c_pu_direct, c_pu_lower, c_su_lower_csit,
                              c_su_lower_nocsit,
                              check_pu_monotonicity, exponential_integral_neg,
                              kappa, nocsit_high_snr_approx,
                              nocsit_low_snr_approx, outage_mc, psi,
                              pu_outage_probability)
from convsup.channel import draw_channels, zmcscg
from convsup.harness import build_scenario, reference_link_specs, resolve_d12
from convsup.precoding import uniform_profile
from convsup.spectral import build_spectral_context, build_vc_layout


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


class TestExponentialIntegral:
    def test_matches_scipy_across_branches(self):
        from scipy.special import expi
        for x in (-0.01, -1.0, -4.999, -5.001, -20.0, -100.0):
            assert exponential_integral_neg(x) == pytest.approx(
                float(expi(x)), rel=1e-12)

    def test_rejects_non_negative(self):
        with pytest.raises(ValueError):
            exponential_integral_neg(0.0)


class TestBesselK:
    def test_small_argument_limit(self):
        x = 1e-6
        assert abs(x * bessel_k(1, x) - 1.0) <= 1e-10

    def test_unit_argument_against_quadrature(self):
        val, _ = integrate.quad(lambda t: np.exp(-t) * np.sqrt(t * t - 1.0),
                                1, np.inf, limit=200)
        want = np.sqrt(np.pi) * 0.5 / (np.sqrt(np.pi) / 2.0) * val
        assert bessel_k(1, 1.0) == pytest.approx(want, rel=1e-8)
        val0, _ = integrate.quad(lambda t: np.exp(-t) / np.sqrt(t * t - 1.0),
                                 1, np.inf, limit=200)
        assert bessel_k(0, 1.0) == pytest.approx(val0, rel=1e-8)

    def test_large_argument_asymptote(self):
        x = 50.0
        want = np.sqrt(np.pi / (2 * x)) * np.exp(-x)
        assert bessel_k(1, x) == pytest.approx(want, rel=1e-2)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            bessel_k(2, 1.0)
        with pytest.raises(ValueError):
            bessel_k(0, 0.0)


class TestOutage:
    def test_closed_form_frozen_point(self):
        # kappa = 1 under equal noise figures: 1 - 2 K1(2)
        scenario = build_scenario(1.0, 1.0, 20.0, "pu")
        assert kappa(scenario) == pytest.approx(1.0)
        want = 1.0 - 2.0 * bessel_k(1, 2.0)
        assert pu_outage_probability(scenario) == pytest.approx(want, abs=1e-15)
        assert want == pytest.approx(0.7202682363669551, abs=1e-12)

    def test_vanishes_for_small_kappa(self):
        scenario = build_scenario(1e-3, 1.0, 20.0, "pu")
        assert pu_outage_probability(scenario) <= 1e-5

    def test_monte_carlo_matches_closed_form(self, layout64):
        _, layout = layout64
        for kap in (0.05, 0.2, 1.0):
            scenario = build_scenario(kap ** (2.0 / 3.0), 1.0, 20.0, "pu")
            prof = uniform_profile(layout, scenario, 0.0)
            p_hat, se = outage_mc(scenario, prof, 100_000,
                                  np.random.default_rng(17))
            assert abs(p_hat - pu_outage_probability(scenario)) <= 3.0 * max(se, 1e-6)

    def test_profile_independence_is_exact_under_common_draws(self, layout64):
        _, layout = layout64
        scenario = build_scenario(0.3, 1.0, 20.0, "pu")
        prof_a = uniform_profile(layout, scenario, 0.0)
        prof_b = uniform_profile(layout, scenario, 0.12)
        p_a, _ = outage_mc(scenario, prof_a, 50_000, np.random.default_rng(5))
        p_b, _ = outage_mc(scenario, prof_b, 50_000, np.random.default_rng(5))
        assert p_a == p_b


class TestPrimaryCapacity:
    def test_silent_secondary_equals_direct_exactly(self, layout64):
        _, layout = layout64
        scenario = build_scenario(0.3, 1.0, 20.0, "pu")
        prof = uniform_profile(layout, scenario, scenario.p_su / layout.m_vc)
        assert np.all(prof.uc_power == 0)
        val, se = c_pu_lower(scenario, layout, prof, 500, np.random.default_rng(0))
        assert val == pytest.approx(c_pu_direct(scenario, layout), rel=1e-12)
        assert se == pytest.approx(0.0, abs=1e-12)

    def test_gain_positive_when_relay_close_to_source(self, layout64):
        _, layout = layout64
        scenario = build_scenario(0.1, 1.0, 20.0, "pu")
        prof = uniform_profile(layout, scenario, scenario.p_su / (2 * layout.m_vc))
        val, se = c_pu_lower(scenario, layout, prof, 30_000,
                             np.random.default_rng(1))
        assert val - c_pu_direct(scenario, layout) >= 3.0 * se

    def test_matches_independent_quadrature(self, layout64):
        # two-dimensional Gauss-Laguerre of E[psi(gamma)] as the oracle
        _, layout = layout64
        scenario = build_scenario(0.3, 1.0, 20.0, "pu")
        prof = uniform_profile(layout, scenario, scenario.p_su / (2 * layout.m_vc))
        x, w = np.polynomial.laguerre.laggauss(80)
        s12, s13 = scenario.link_variance(1, 2), scenario.link_variance(1, 3)
        s23 = scenario.link_variance(2, 3)
        a = prof.uc_power[0]
        lam = a * s23 * s12 / s13
        c = a * s23 * scenario.sigma2_v[2] / scenario.sigma2_v[3]
        snr = s13 * scenario.p_pu / scenario.sigma2_v[3]
        u, v = np.meshgrid(x, x)
        target = float(np.outer(w, w).ravel()
                       @ psi(snr * (1 + lam * u * v) / (1 + c)).ravel())
        want = layout.q / (layout.m * np.log(2)) * target
        val, se = c_pu_lower(scenario, layout, prof, 100_000,
                             np.random.default_rng(2))
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
        req = uniform_profile(layout, scenario, scenario.p_su / (2 * layout.m_vc))
        pre = realize_precoders(ctx, layout, req)
        cfg = FrameConfig(ctx=ctx, layout=layout,
                          l_cp=required_cp_length(reference_link_specs(), 10),
                          specs=reference_link_specs())
        rng = np.random.default_rng(3)
        sim = FrameSimulator(cfg, pre)
        n_frames = 4000
        uc = list(layout.uc_indices)
        r_diag = (scenario.link_variance(2, 3) * scenario.sigma2_v[2]
                  * pre.profile.uc_power + scenario.sigma2_v[3])
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
        gam, gam_se = c_pu_lower(scenario, layout, pre.profile, 100_000,
                                 np.random.default_rng(4))
        assert abs(e2e - gam) <= 3.0 * np.hypot(e2e_se, gam_se)


class TestSecondaryCapacity:
    def test_csit_vanishes_without_power(self, layout64):
        _, layout = layout64
        scenario = build_scenario(1.0, 1e-9, 20.0, "pu")
        val, _ = c_su_lower_csit(scenario, layout, 2000, np.random.default_rng(0))
        assert val <= 1e-6

    def test_csit_beats_nocsit(self, layout64):
        _, layout = layout64
        scenario = build_scenario(resolve_d12(0.7, "d14"), 1.0, 20.0, "su")
        g = scenario.p_su / (2 * layout.m_vc)
        cs, se_c = c_su_lower_csit(scenario, layout, 30_000,
                                   np.random.default_rng(1))
        no, se_n = c_su_lower_nocsit(scenario, layout, g, 30_000,
                                     np.random.default_rng(2))
        assert cs - no >= -3.0 * np.hypot(se_c, se_n)
        assert cs > no  # comfortably apart at this geometry

    def test_direct_and_conditional_estimators_agree(self, layout64):
        _, layout = layout64
        scenario = build_scenario(resolve_d12(0.7, "d14"), 1.0, 20.0, "su")
        g = scenario.p_su / (2 * layout.m_vc)
        v1, s1 = c_su_lower_nocsit(scenario, layout, g, 60_000,
                                   np.random.default_rng(3), estimator="direct")
        v2, s2 = c_su_lower_nocsit(scenario, layout, g, 60_000,
                                   np.random.default_rng(4),
                                   estimator="conditional")
        assert abs(v1 - v2) <= 3.0 * np.hypot(s1, s2)

    def test_low_snr_closed_form(self, layout64):
        _, layout = layout64
        scenario = build_scenario(resolve_d12(0.7, "d14"), 1.0, -10.0, "su")
        g = scenario.p_su / (2 * layout.m_vc)
        want = nocsit_low_snr_approx(scenario, layout, g)
        got, _ = c_su_lower_nocsit(scenario, layout, g, 100_000,
                                   np.random.default_rng(5),
                                   estimator="conditional",
                                   constant_modulus=True)
        assert abs(got - want) / want <= 0.05

    def test_high_snr_closed_form(self, layout64):
        _, layout = layout64
        scenario = build_scenario(resolve_d12(0.7, "d14"), 1e4, 20.0, "pu")
        g = scenario.p_su / (2 * layout.m_vc)
        want = nocsit_high_snr_approx(scenario, layout, g)
        got, _ = c_su_lower_nocsit(scenario, layout, g, 100_000,
                                   np.random.default_rng(6),
                                   estimator="conditional",
                                   constant_modulus=True)
        assert abs(got - want) / want <= 0.05

    def test_nocsit_rejects_bad_inputs(self, layout64):
        _, layout = layout64
        scenario = build_scenario(0.7, 1.0, 20.0, "su")
        with pytest.raises(ValueError):
            c_su_lower_nocsit(scenario, layout, -0.1, 1000,
                              np.random.default_rng(0))
        with pytest.raises(ValueError):
            c_su_lower_nocsit(scenario, layout, scenario.p_su, 1000,
                              np.random.default_rng(0))
        with pytest.raises(ValueError):
            c_su_lower_nocsit(scenario, layout, 0.1, 1000,
                              np.random.default_rng(0), estimator="bogus")

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
        prop, se_p = c_su_lower_nocsit(scenario, layout, 0.0, 30_000,
                                       np.random.default_rng(4))
        assert prop - nocr >= 3.0 * np.hypot(se_n, se_p)


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

    def test_rejects_decreasing_grid(self, layout64):
        _, layout = layout64
        scenario = build_scenario(0.1, 1.0, 20.0, "pu")
        with pytest.raises(ValueError):
            check_pu_monotonicity(scenario, layout, [2.0, 1.0], 1000, 0)


class TestCapacityReport:
    @pytest.mark.parametrize("change,names", [
        ({"c_pu_lower": np.nan, "delta_c_pu": np.nan}, "c_pu_lower"),
        ({"c_su_lower": np.inf}, "c_su_lower"),
        ({"p_out": np.nan}, "p_out"),
        ({"cp_efficiency": np.nan}, "cp_efficiency"),
        ({"std_err": {"c_su_lower": np.inf}}, "std_err"),
    ], ids=["nan-c_pu_lower", "inf-c_su_lower", "nan-p_out",
            "nan-cp_efficiency", "inf-std_err"])
    def test_rejects_non_finite_values(self, change, names):
        kwargs = dict(c_pu_lower=1.0, c_pu_direct=0.5, delta_c_pu=0.5,
                      c_su_lower=0.1, mode="CSIT", p_out=0.1, n_trials=10,
                      std_err={"c_pu_lower": 0.01, "c_su_lower": 0.01})
        CapacityReport(**kwargs)
        kwargs.update(change)
        with pytest.raises(ValueError, match=names):
            CapacityReport(**kwargs)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            CapacityReport(c_pu_lower=1.0, c_pu_direct=0.5, delta_c_pu=0.2,
                           c_su_lower=0.1, mode="CSIT", p_out=0.1,
                           n_trials=10, std_err={})
        with pytest.raises(ValueError):
            CapacityReport(c_pu_lower=1.0, c_pu_direct=0.5, delta_c_pu=0.5,
                           c_su_lower=-0.1, mode="CSIT", p_out=0.1,
                           n_trials=10, std_err={})
        with pytest.raises(ValueError):
            CapacityReport(c_pu_lower=1.0, c_pu_direct=0.5, delta_c_pu=0.5,
                           c_su_lower=0.1, mode="CSIT", p_out=1.5,
                           n_trials=10, std_err={})
