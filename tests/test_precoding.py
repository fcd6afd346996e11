"""Power-profile and precoder-construction tests, including the
waterfilling optimality oracles."""

import numpy as np
import pytest

from convsup.channel import zmcscg
from convsup.harness import build_scenario
from convsup.precoding import (PowerProfile, PrecoderRankError,
                               csit_objective, power_residual,
                               realize_precoders, uc_power_coefficient,
                               uniform_profile, waterfill_power,
                               waterfilling_profile)
from convsup.spectral import build_spectral_context, build_vc_layout


@pytest.fixture(scope="module")
def setup64():
    ctx = build_spectral_context(64, 10)
    return ctx, build_vc_layout(ctx, (0, 16, 32, 48))


class TestUniformProfile:
    def test_all_power_on_vcs_boundary(self, setup64):
        _, layout = setup64
        scenario = build_scenario(0.3, 1.0, 20.0, "pu")
        prof = uniform_profile(layout, scenario, scenario.p_su / layout.m_vc)
        assert np.all(prof.uc_power == 0.0)
        assert abs(power_residual(prof, scenario)) <= 1e-12

    def test_no_vcs(self):
        ctx = build_spectral_context(16, 4)
        layout = build_vc_layout(ctx, ())
        scenario = build_scenario(0.3, 1.0, 20.0, "pu")
        prof = uniform_profile(layout, scenario, 0.0)
        want = scenario.p_su / (16 * uc_power_coefficient(scenario))
        assert np.allclose(prof.uc_power, want, rtol=1e-12)

    def test_reference_split_meets_budget(self, setup64):
        _, layout = setup64
        scenario = build_scenario(0.3, 1.0, 20.0, "pu")
        prof = uniform_profile(layout, scenario, scenario.p_su / (2 * layout.m_vc))
        spent = (uc_power_coefficient(scenario) * prof.uc_power.sum()
                 + prof.vc_power.sum())
        assert spent == pytest.approx(scenario.p_su, abs=1e-12)

    def test_rejects_overspent_vcs(self, setup64):
        _, layout = setup64
        scenario = build_scenario(0.3, 1.0, 20.0, "pu")
        with pytest.raises(ValueError):
            uniform_profile(layout, scenario, 1.1 * scenario.p_su / layout.m_vc)


class TestWaterfilling:
    def test_single_dimension_takes_the_whole_budget(self):
        ctx = build_spectral_context(2, 1)
        layout = build_vc_layout(ctx, ())
        scenario = build_scenario(0.7, 1.0, 10.0, "su")
        h_su = np.array([1.0 + 0j, 1e-30 + 0j])  # second carrier dead
        prof = waterfilling_profile(layout, scenario, h_su, np.ones(2, dtype=complex))
        want = scenario.p_su / uc_power_coefficient(scenario)
        assert prof.uc_power[0] == pytest.approx(want, rel=1e-8)
        assert prof.uc_power[1] == 0.0

    def test_equal_channels_split_equally(self):
        ctx = build_spectral_context(2, 1)
        layout = build_vc_layout(ctx, ())
        scenario = build_scenario(0.7, 1.0, 10.0, "su")
        h_su = np.array([0.8 - 0.3j, 0.3 + 0.8j])  # equal magnitudes
        prof = waterfilling_profile(layout, scenario, h_su, np.ones(2, dtype=complex))
        assert prof.uc_power[0] == pytest.approx(prof.uc_power[1], rel=1e-9)

    def test_budget_residual_and_kkt(self):
        ctx = build_spectral_context(8, 5)
        layout = build_vc_layout(ctx, (0, 4))
        rng = np.random.default_rng(3)
        for _ in range(200):
            scenario = build_scenario(float(rng.uniform(0.2, 1.5)),
                                      float(rng.uniform(0.5, 4.0)),
                                      float(rng.uniform(0.0, 25.0)), "su")
            h_su, h_24 = zmcscg(rng, 8), zmcscg(rng, 8)
            prof = waterfilling_profile(layout, scenario, h_su, h_24)
            assert abs(power_residual(prof, scenario)) <= 1e-9 * scenario.p_su
            # never worse than the uniform allocation with the same budget
            uni = uniform_profile(layout, scenario, 0.3 * scenario.p_su / layout.m_vc)
            assert (csit_objective(prof, scenario, h_su, h_24)
                    >= csit_objective(uni, scenario, h_su, h_24) - 1e-12)

    def test_random_search_never_beats_waterfilling(self):
        ctx = build_spectral_context(8, 5)
        layout = build_vc_layout(ctx, (0, 4))
        scenario = build_scenario(0.7, 1.0, 15.0, "su")
        rng = np.random.default_rng(4)
        h_su, h_24 = zmcscg(rng, 8), zmcscg(rng, 8)
        prof = waterfilling_profile(layout, scenario, h_su, h_24)
        wf = csit_objective(prof, scenario, h_su, h_24)
        coef = uc_power_coefficient(scenario)
        uc_gain = np.abs(h_su[list(layout.uc_indices)]) ** 2 / (
            scenario.link_variance(1, 4) * scenario.p_pu + scenario.sigma2_v[4])
        vc_gain = np.abs(h_24[list(layout.vc_indices)]) ** 2 / scenario.sigma2_v[4]
        n = 100_000
        w = rng.exponential(size=(n, 8))
        w /= w.sum(axis=1, keepdims=True)
        spend = w * scenario.p_su
        obj = (np.log2(1 + spend[:, :6] / coef * uc_gain).sum(axis=1)
               + np.log2(1 + spend[:, 6:] * vc_gain).sum(axis=1))
        assert float(obj.max()) <= wf + 1e-9

    def test_relabeling_invariance(self):
        ctx = build_spectral_context(8, 5)
        layout = build_vc_layout(ctx, (0, 4))
        scenario = build_scenario(0.7, 1.0, 15.0, "su")
        rng = np.random.default_rng(5)
        h_su, h_24 = zmcscg(rng, 8), zmcscg(rng, 8)
        prof = waterfilling_profile(layout, scenario, h_su, h_24)
        perm_uc = np.array([3, 0, 5, 1, 4, 2])
        h_su2 = h_su.copy()
        uc = np.array(layout.uc_indices)
        h_su2[uc] = h_su[uc[perm_uc]]
        prof2 = waterfilling_profile(layout, scenario, h_su2, h_24)
        assert np.abs(prof2.uc_power - prof.uc_power[perm_uc]).max() <= 1e-9
        assert prof2.mu == pytest.approx(prof.mu, rel=1e-9)

    def test_rejects_non_finite_channels(self, setup64):
        _, layout = setup64
        scenario = build_scenario(0.3, 1.0, 20.0, "pu")
        h = np.ones(64, dtype=complex)
        h_bad = h.copy()
        h_bad[3] = np.nan
        with pytest.raises(ValueError):
            waterfilling_profile(layout, scenario, h_bad, h)


class TestWaterfillPower:
    @staticmethod
    def thresholds(rng, n=200, k=16):
        t = rng.exponential(size=(n, k)) / rng.exponential(size=(n, k))
        t[::3, ::4] = np.inf  # dead channels on every third row
        return t

    def test_budget_and_level_conditions(self):
        t = self.thresholds(np.random.default_rng(21))
        for budget in (1e-6, 0.7, 50.0):
            spend, mu = waterfill_power(t, budget)
            assert np.all(np.abs(spend.sum(axis=1) - budget) <= 1e-12 * budget)
            active = spend > 0
            level = np.broadcast_to(mu[:, None], t.shape)
            assert np.allclose((t + spend)[active], level[active], rtol=1e-12)
            assert np.all(t[~active] >= level[~active] * (1.0 - 1e-12))
            assert np.all(spend[np.isinf(t)] == 0.0)

    def test_batched_equals_row_by_row(self):
        t = self.thresholds(np.random.default_rng(22), n=40)
        spend, mu = waterfill_power(t, 2.5)
        for i, row in enumerate(t):
            s_i, mu_i = waterfill_power(row, 2.5)
            assert s_i.shape == (1, t.shape[1])
            assert np.array_equal(s_i[0], spend[i]) and mu_i[0] == mu[i]

    def test_level_matches_bracketed_root(self):
        from scipy.optimize import brentq
        t = self.thresholds(np.random.default_rng(23), n=30)
        budget = 1.3
        _, mu = waterfill_power(t, budget)
        for row, mu_i in zip(t, mu):
            lo = row.min()
            root = brentq(lambda m: np.maximum(m - row, 0.0).sum() - budget,
                          lo, lo + budget, xtol=1e-15, rtol=1e-15)
            assert mu_i == pytest.approx(root, rel=1e-10)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            waterfill_power(np.ones(4), 0.0)
        with pytest.raises(ValueError):
            waterfill_power(np.array([[1.0, 2.0], [np.inf, np.inf]]), 1.0)


class TestRealizePrecoders:
    def test_reference_construction(self, setup64):
        ctx, layout = setup64
        scenario = build_scenario(0.3, 1.0, 20.0, "pu")
        prof = uniform_profile(layout, scenario, scenario.p_su / (2 * layout.m_vc))
        pre = realize_precoders(ctx, layout, prof)
        assert pre.max_uc_mismatch > 0.05
        # virtual-subcarrier rows of A are null, G lives only on them
        assert np.abs(pre.a[list(layout.vc_indices), :]).max() <= 1e-10
        assert np.abs(pre.g[list(layout.uc_indices), :]).max() == 0
        # realized profile spends the requested budget exactly
        assert abs(power_residual(pre.profile, scenario)) <= 1e-9 * scenario.p_su
        # realized row norms equal the stored realized profile
        rows = np.sum(np.abs(pre.a[list(layout.uc_indices), :]) ** 2, axis=1)
        assert np.abs(rows - pre.profile.uc_power).max() <= 1e-9 * rows.max()

    def test_realized_rows_follow_projector_diagonal(self, setup64):
        # independent oracle: with a uniform request the realized row norms
        # are the (rescaled) diagonal of the projector onto realizable
        # responses vanishing at the virtual subcarriers
        ctx, layout = setup64
        scenario = build_scenario(0.3, 1.0, 20.0, "pu")
        prof = uniform_profile(layout, scenario, scenario.p_su / (2 * layout.m_vc))
        pre = realize_precoders(ctx, layout, prof)
        assert pre.max_uc_mismatch > 0.05
        basis = ctx.pi_idft @ layout.upsilon_vc
        pdiag = np.sum(np.abs(basis) ** 2, axis=1)[list(layout.uc_indices)]
        want = prof.uc_power[0] * pdiag * (layout.q / layout.n_sym)
        assert np.abs(pre.profile.uc_power - want).max() <= 1e-9 * want.max()

    def test_isotropic_case_without_vcs(self):
        ctx = build_spectral_context(16, 5)
        layout = build_vc_layout(ctx, ())
        scenario = build_scenario(0.3, 1.0, 20.0, "pu")
        prof = uniform_profile(layout, scenario, 0.0)
        # the projector diagonal is flat without virtual subcarriers, so the
        # realization is exact
        pre = realize_precoders(ctx, layout, prof)
        assert pre.max_uc_mismatch <= 1e-12
        # Gram target is isotropic, so C is a multiple of the identity; the
        # budget rescale stretches sqrt(a) by sqrt(M / (l_su + 1))
        a = prof.uc_power[0]
        want = np.sqrt(a * 16 / 6) * np.eye(6)
        assert np.abs(pre.c - want).max() <= 1e-12 * np.abs(want).max()
        assert np.abs(pre.profile.uc_power - a).max() <= 1e-12 * a

    def test_zero_profile_is_rank_deficient(self, setup64):
        ctx, layout = setup64
        scenario = build_scenario(0.3, 1.0, 20.0, "pu")
        prof = uniform_profile(layout, scenario, scenario.p_su / layout.m_vc)
        assert np.all(prof.uc_power == 0)
        with pytest.raises(PrecoderRankError):
            realize_precoders(ctx, layout, prof)

    def test_vc_gram_is_exact(self, setup64):
        ctx, layout = setup64
        scenario = build_scenario(0.3, 1.0, 20.0, "pu")
        prof = uniform_profile(layout, scenario, scenario.p_su / (2 * layout.m_vc))
        pre = realize_precoders(ctx, layout, prof)
        assert pre.max_uc_mismatch > 0.05
        gram = pre.g @ pre.g.conj().T
        want = np.diag(prof.full_vc_vector())
        assert np.abs(gram - want).max() <= 1e-12


class TestPowerProfile:
    def test_shape_validation(self, setup64):
        _, layout = setup64
        with pytest.raises(ValueError):
            PowerProfile(layout=layout, uc_power=np.ones(3), vc_power=np.ones(4))
        with pytest.raises(ValueError):
            PowerProfile(layout=layout, uc_power=-np.ones(60), vc_power=np.ones(4))

    def test_full_vectors(self, setup64):
        _, layout = setup64
        prof = PowerProfile(layout=layout, uc_power=np.full(60, 2.0),
                            vc_power=np.full(4, 5.0))
        fu, fv = prof.full_uc_vector(), prof.full_vc_vector()
        assert fu[0] == 0.0 and fv[0] == 5.0
        assert fu.sum() == pytest.approx(120.0)
        assert fv.sum() == pytest.approx(20.0)
