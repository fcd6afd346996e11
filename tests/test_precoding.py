"""Power-allocation and precoder-construction tests, including the
waterfilling optimality oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import convsup.precoding
from convsup.capacity import _relayed_gain
from convsup.channel import zmcscg
from convsup.harness import build_scenario
from convsup.precoding import (PrecoderRankError, realize_precoders,
                               srx_noise_floor, uc_power_coefficient,
                               uniform_split, waterfill_capacity, waterfill_power,
                               waterfill_rate, waterfill_thresholds,
                               waterfilling_profile)
from convsup.spectral import build_spectral_context, build_vc_layout
from oracles import (head_width_by_weights, score_order_bound, waterfill_power_full,
                     waterfill_score_full)


def rate_of(layout, scenario, a, g, h_su, h_24):
    """``waterfill_rate`` of the allocation ``(a, g)``, numbers or
    per-subcarrier arrays, on known channels: the estimator's score."""
    coef = uc_power_coefficient(scenario)
    thr = waterfill_thresholds(coef, srx_noise_floor(scenario), scenario.sigma2_v[4],
                               np.abs(h_su[list(layout.uc_indices)]) ** 2,
                               np.abs(h_24[list(layout.vc_indices)]) ** 2)
    spend = np.concatenate([np.broadcast_to(coef * np.asarray(a), layout.q),
                            np.broadcast_to(g, layout.m_vc)])
    return float(waterfill_rate(spend, thr))


@pytest.fixture(scope="module")
def setup64():
    ctx = build_spectral_context(64, 10)
    return ctx, build_vc_layout(ctx, (0, 16, 32, 48))


class TestUniformProfile:
    def test_all_power_on_vcs_boundary(self, setup64):
        _, layout = setup64
        scenario = build_scenario(0.3, 1.0, 20.0, "pu")
        a, g = uniform_split(layout, scenario, 1.0)
        assert a == 0.0
        assert abs(layout.m_vc * g - scenario.p_su) <= 1e-12

    def test_no_vcs(self):
        ctx = build_spectral_context(16, 4)
        layout = build_vc_layout(ctx, ())
        scenario = build_scenario(0.3, 1.0, 20.0, "pu")
        a, g = uniform_split(layout, scenario, 0.5)
        want = scenario.p_su / (16 * uc_power_coefficient(scenario))
        assert a == pytest.approx(want, rel=1e-12) and g == 0.0

    def test_reference_split_meets_budget(self, setup64):
        _, layout = setup64
        scenario = build_scenario(0.3, 1.0, 20.0, "pu")
        a, g = uniform_split(layout, scenario, 0.5)
        assert layout.m_vc * g == 0.5 * scenario.p_su
        spent = uc_power_coefficient(scenario) * layout.q * a + layout.m_vc * g
        assert spent == pytest.approx(scenario.p_su, abs=1e-12)

    def test_rejects_overspent_vcs(self):
        # the whole budget on 3 VCs: g = P_su / 3 rounds above P_su / 3 at
        # some budgets, and is stepped down so that 3 g never exceeds P_su
        ctx = build_spectral_context(32, 7)
        layout = build_vc_layout(ctx, (3, 11, 19))
        rounded = 0
        for p_su in np.random.default_rng(6).uniform(0.1, 10.0, 200):
            scenario = build_scenario(0.3, float(p_su), 20.0, "pu")
            a, g = uniform_split(layout, scenario, 1.0)
            assert 3 * g <= scenario.p_su and a >= 0.0
            rounded += g < scenario.p_su / 3
        assert rounded > 0

    @pytest.mark.parametrize("fraction", [np.nan, -0.1, 1.1])
    def test_rejects_a_fraction_outside_the_unit_interval(self, setup64, fraction):
        _, layout = setup64
        scenario = build_scenario(0.3, 1.0, 20.0, "pu")
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            uniform_split(layout, scenario, fraction)


class TestWaterfilling:
    def test_single_dimension_takes_the_whole_budget(self):
        ctx = build_spectral_context(2, 1)
        layout = build_vc_layout(ctx, ())
        scenario = build_scenario(0.7, 1.0, 10.0, "su")
        h_su = np.array([1.0 + 0j, 1e-30 + 0j])  # second carrier dead
        a, _ = waterfilling_profile(layout, scenario, h_su, np.ones(2, dtype=complex))
        want = scenario.p_su / uc_power_coefficient(scenario)
        assert a[0] == pytest.approx(want, rel=1e-8)
        assert a[1] == 0.0

    def test_equal_channels_split_equally(self):
        ctx = build_spectral_context(2, 1)
        layout = build_vc_layout(ctx, ())
        scenario = build_scenario(0.7, 1.0, 10.0, "su")
        h_su = np.array([0.8 - 0.3j, 0.3 + 0.8j])  # equal magnitudes
        a, _ = waterfilling_profile(layout, scenario, h_su, np.ones(2, dtype=complex))
        assert a[0] == pytest.approx(a[1], rel=1e-9)

    def test_budget_residual_and_kkt(self):
        ctx = build_spectral_context(8, 5)
        layout = build_vc_layout(ctx, (0, 4))
        rng = np.random.default_rng(3)
        for _ in range(200):
            scenario = build_scenario(float(rng.uniform(0.2, 1.5)),
                                      float(rng.uniform(0.5, 4.0)),
                                      float(rng.uniform(0.0, 25.0)), "su")
            h_su, h_24 = zmcscg(rng, 8), zmcscg(rng, 8)
            a, g = waterfilling_profile(layout, scenario, h_su, h_24)
            spent = uc_power_coefficient(scenario) * a.sum() + g.sum()
            assert abs(spent - scenario.p_su) <= 1e-9 * scenario.p_su
            # never worse than the uniform allocation with the same budget
            uni = uniform_split(layout, scenario, 0.3)
            assert (rate_of(layout, scenario, a, g, h_su, h_24)
                    >= rate_of(layout, scenario, *uni, h_su, h_24) - 1e-12)

    def test_random_search_never_beats_waterfilling(self):
        ctx = build_spectral_context(8, 5)
        layout = build_vc_layout(ctx, (0, 4))
        scenario = build_scenario(0.7, 1.0, 15.0, "su")
        rng = np.random.default_rng(4)
        h_su, h_24 = zmcscg(rng, 8), zmcscg(rng, 8)
        wf = rate_of(layout, scenario,
                     *waterfilling_profile(layout, scenario, h_su, h_24), h_su, h_24)
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
        a, _ = waterfilling_profile(layout, scenario, h_su, h_24)
        perm_uc = np.array([3, 0, 5, 1, 4, 2])
        h_su2 = h_su.copy()
        uc = np.array(layout.uc_indices)
        h_su2[uc] = h_su[uc[perm_uc]]
        a2, _ = waterfilling_profile(layout, scenario, h_su2, h_24)
        assert np.abs(a2 - a[perm_uc]).max() <= 1e-9

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

    @staticmethod
    def head_width(t, budget):
        ranked = np.sort(np.atleast_2d(t), axis=1)
        return convsup.precoding._head_width(ranked, np.asarray(budget, dtype=float))

    def test_batched_equals_row_by_row(self):
        # every row, dead (inf) channels included, is the row alone to the
        # bit, and the thresholds are left as they were; the 64-column batch
        # would certify a narrow head and its rows alone heads of their own
        # (its one nearly flat row, all active, none), which waterfill_power
        # does not take
        for k, n in [(16, 40), (64, 200)]:
            t = self.thresholds(np.random.default_rng(22), n=n, k=k)
            t[1] = 1.0 + np.arange(k) * 1e-3
            given = t.copy()
            spend, mu = waterfill_power(t, 2.5)
            assert np.array_equal(t, given)
            dead = np.isinf(t).any(axis=1)
            assert 0 < dead.sum() < len(t)
            heads = set()
            for i, row in enumerate(t):
                s_i, mu_i = waterfill_power(row, 2.5)
                assert s_i.shape == (1, t.shape[1])
                assert np.array_equal(s_i[0], spend[i]) and mu_i[0] == mu[i]
                assert np.all(s_i[0][np.isinf(row)] == 0.0)
                heads.add(self.head_width(row, 2.5))
            assert np.array_equal(t, given)
            if k == 64:
                assert self.head_width(t, 2.5) < 64 and 64 in heads and len(heads) > 2
            else:  # below _HEAD_MIN_ROW columns every call is full width
                assert heads == {self.head_width(t, 2.5)} == {16}

    def test_wide_rows_are_levelled_at_full_width(self, monkeypatch):
        # a few rows with nearly every dimension active would fail the
        # exactness test of the block's narrow head; waterfill_power levels
        # every row, these included, once over all 64 columns
        rng = np.random.default_rng(26)
        t = self.thresholds(rng, n=512, k=64)
        wide = [5, 300, 511]
        t[wide] = 1.0 + rng.uniform(0.0, 1e-3, size=(3, 64))
        assert self.head_width(t, 0.05) == 8
        shapes = []

        def spy(name):
            level = getattr(convsup.precoding, name)

            def spied(excess, budget):
                shapes.append((name, excess.shape))
                return level(excess, budget)
            monkeypatch.setattr(convsup.precoding, name, spied)
        spy("_head_level")
        spy("_excess_level")
        spend, mu = waterfill_power(t, 0.05)
        assert shapes == [("_excess_level", (512, 64))]
        want_spend, want_mu = waterfill_power_full(t, 0.05)
        assert np.array_equal(spend, want_spend) and np.array_equal(mu, want_mu)
        assert np.all(spend[wide] > 0)

    def test_takes_no_head(self, monkeypatch):
        # a reference block (M 64 with 4 VCs, 20 dB) certifies a narrow
        # head, yet waterfill_power levels it at full width without the
        # head's steps, to the full-width kernel's bits
        scenario = build_scenario(0.3, 1.0, 20.0, "pu")
        rng = np.random.default_rng(28)
        e0, e1, e2 = rng.exponential(size=(3, 512, 60))
        vc = rng.exponential(size=(512, 4))
        t = waterfill_thresholds(uc_power_coefficient(scenario), srx_noise_floor(scenario),
                                 scenario.sigma2_v[4], _relayed_gain(scenario, e0, e1) * e2,
                                 scenario.link_variance(2, 4) * vc)
        assert self.head_width(t, scenario.p_su) < 64

        def refuse(*args):
            raise AssertionError("waterfill_power reached the certified head")
        monkeypatch.setattr(convsup.precoding, "_head_width", refuse)
        monkeypatch.setattr(convsup.precoding, "_head_level", refuse)
        spend, mu = waterfill_power(t, scenario.p_su)
        want_spend, want_mu = waterfill_power_full(t, scenario.p_su)
        assert np.array_equal(spend, want_spend) and np.array_equal(mu, want_mu)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.integers(1, 256), st.integers(1, 600), st.integers(0, 2 ** 32 - 1),
           st.sampled_from(["none", "grid", "copies"]), st.floats(0.0, 0.5),
           st.floats(-12.0, 6.0), st.booleans(), st.floats(0.0, 0.01))
    def test_equals_the_full_width_oracle(self, k, n, seed, ties, dead_share,
                                          log_budget, per_row, wide_share):
        # spend and level of every block equal the full-width kernel's to the
        # bit: ties, dead (inf) channels with one live channel a row,
        # scalar or per-row budgets from 1e-12 to 1e6 times the threshold
        # scale, and up to 1 % of nearly flat rows, nearly all active
        t, budget = self.drawn_block(k, n, seed, ties, dead_share, log_budget, per_row,
                                     wide_share)
        spend, mu = waterfill_power(t, budget)
        want_spend, want_mu = waterfill_power_full(t, budget)
        assert np.array_equal(spend, want_spend) and np.array_equal(mu, want_mu)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.integers(1, 256), st.integers(1, 600), st.integers(0, 2 ** 32 - 1),
           st.sampled_from(["none", "grid", "copies"]), st.floats(-12.0, 6.0),
           st.booleans(), st.floats(0.0, 0.01))
    def test_head_width_equals_the_weight_matrix_certificate(self, k, n, seed, ties,
                                                             log_budget, per_row,
                                                             wide_share):
        # the running sum of the certificate picks the width that a product
        # of a weight matrix with the sampled columns picks, on the oracle
        # test's blocks without dead channels (where that product meets
        # 0 * inf); 78 of the 200 blocks take a head
        t, budget = self.drawn_block(k, n, seed, ties, 0.0, log_budget, per_row,
                                     wide_share)
        ranked = np.sort(t, axis=1)
        assert (convsup.precoding._head_width(ranked, budget)
                == head_width_by_weights(ranked, budget))

    @staticmethod
    def drawn_block(k, n, seed, ties, dead_share, log_budget, per_row, wide_share):
        """(thresholds, budget) of ``test_equals_the_full_width_oracle``."""
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.uniform(-3, 3)
        t = scale * rng.exponential(size=(n, k)) / rng.exponential(size=(n, k))
        if ties == "grid":  # many exact ties, on a grid that sums inexactly
            t = scale * np.ceil(t / scale * 10.0) / 10.0
        elif ties == "copies":
            cols = rng.integers(0, k, size=(n, k))
            copied = rng.random((n, k)) < 0.5
            t[copied] = t[np.nonzero(copied)[0], cols[copied]]
        flat = rng.random(n) < wide_share
        t[flat] = scale * (1.0 + rng.uniform(0.0, 1e-6, size=(flat.sum(), k)))
        dead = rng.random((n, k)) < dead_share
        dead[np.arange(n), rng.integers(0, k, size=n)] = False
        t[dead] = np.inf
        budget = scale * 10.0 ** (rng.uniform(-12.0, 6.0, size=n) if per_row
                                  else log_budget)
        return t, budget

    def test_per_row_budgets_equal_scalar_calls(self):
        rng = np.random.default_rng(24)
        t = self.thresholds(rng, n=40)
        budgets = rng.uniform(1e-3, 5.0, size=40)
        spend, mu = waterfill_power(t, budgets)
        for i, (row, budget) in enumerate(zip(t, budgets)):
            s_i, mu_i = waterfill_power(row, float(budget))
            assert np.array_equal(s_i[0], spend[i]) and np.array_equal(mu_i[0], mu[i])

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_a_bad_entry_in_the_budgets(self, bad):
        budgets = np.array([1.0, bad, 2.0])
        with pytest.raises(ValueError):
            waterfill_power(np.ones((3, 4)), budgets)

    def test_rejects_budgets_of_the_wrong_shape(self):
        with pytest.raises(ValueError):
            waterfill_power(np.ones((3, 4)), np.ones(2))
        with pytest.raises(ValueError):
            waterfill_power(np.ones((3, 4)), np.ones((3, 1)))

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


class TestWaterfillCapacity:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.integers(1, 256), st.integers(1, 600), st.integers(0, 2 ** 32 - 1),
           st.sampled_from(["none", "grid", "copies"]), st.floats(0.0, 0.5),
           st.floats(-12.0, 6.0), st.booleans(), st.floats(0.0, 0.01))
    def test_scores_the_full_width_allocation(self, k, n, seed, ties, dead_share,
                                              log_budget, per_row, wide_share):
        # the blocks of TestWaterfillPower's oracle test: every row is the
        # full-width score up to the order of its nonzero terms, and a block
        # that takes no head is the full-width score to the bit; in a block
        # that takes one, every row that passes the exactness test has the
        # full-width kernel's level to the bit, and the head leaves the
        # sorted rows, which the rows that fail it level again, as they were
        t, budget = TestWaterfillPower.drawn_block(k, n, seed, ties, dead_share,
                                                   log_budget, per_row, wide_share)
        given = t.copy()
        got = waterfill_capacity(t, budget)
        assert np.array_equal(t, given)
        want, n_active = waterfill_score_full(t, budget)
        assert got.shape == (n,)
        assert np.all(np.abs(got - want) <= score_order_bound(want, n_active))
        _, budget, ranked, bottom = convsup.precoding._sorted_rows(t, budget)
        head = convsup.precoding._certified_head(ranked, bottom, budget)
        if head is None:
            assert np.array_equal(got, want)
            return
        _, _, xi, wide = head
        assert np.array_equal(ranked, np.sort(t, axis=1))
        exact = np.ones(n, dtype=bool)
        exact[wide] = False
        assert np.array_equal((bottom[:, 0] + xi)[exact],
                              waterfill_power_full(t, budget)[1][exact])

    def test_wide_rows_are_scored_at_full_width(self, monkeypatch):
        # the rows that fail the exactness test of the 8-wide head, nearly
        # all of whose 64 dimensions are active, are levelled again over all
        # 64 columns and get the full-width score to the bit; rows narrower
        # than a head are scored at full width too
        rng = np.random.default_rng(26)
        t = TestWaterfillPower.thresholds(rng, n=512, k=64)
        wide = [5, 300, 511]
        t[wide] = 1.0 + rng.uniform(0.0, 1e-3, size=(3, 64))
        shapes = []

        def spy(name):
            level = getattr(convsup.precoding, name)

            def spied(excess, budget):
                shapes.append((name, excess.shape))
                return level(excess, budget)
            monkeypatch.setattr(convsup.precoding, name, spied)
        spy("_head_level")
        spy("_excess_level")
        got = waterfill_capacity(t, 0.05)
        assert shapes == [("_head_level", (8, 512)), ("_excess_level", (3, 64))]
        want, n_active = waterfill_score_full(t, 0.05)
        assert np.array_equal(got[wide], want[wide]) and np.all(n_active[wide] > 8)
        assert np.all(np.abs(got - want) <= score_order_bound(want, n_active))
        assert not np.array_equal(got, want)  # some head rows sum in another order
        narrow = t[:, :16]
        assert np.array_equal(waterfill_capacity(narrow, 0.05),
                              waterfill_score_full(narrow, 0.05)[0])

    @pytest.mark.parametrize("value", [0.1, 0.3, 1 / 3])
    def test_a_tie_at_the_head_edge_keeps_the_full_count(self, value):
        # one row ties every excess past its bottom at ``value`` (the bottom
        # is ``value`` and the rest ``2 value``, so that every threshold can
        # be scored) and has the budget that puts the head's level exactly
        # there: L_8 = e_9.  The rounded levels past the head then clear
        # their excess, so the full width counts more than 8 columns; the
        # slack of the exactness test sends the row to full width, and it
        # keeps the full count's score
        rng = np.random.default_rng(27)
        t = TestWaterfillPower.thresholds(rng, n=200, k=64)
        t[0] = 2 * value
        t[0, 0] = value
        budgets = np.full(200, 0.05)
        budgets[0] = value
        assert TestWaterfillPower.head_width(t, budgets) == 8
        excess = np.sort(t[0]) - value
        levels = (np.cumsum(excess) + value) / np.arange(1, 65)
        assert levels[7] <= excess[8]
        assert np.count_nonzero(levels > excess) > np.count_nonzero(levels[:8] > excess[:8])
        _, budget, ranked, bottom = convsup.precoding._sorted_rows(t, budgets)
        assert 0 in convsup.precoding._certified_head(ranked, bottom, budget)[3]
        got = waterfill_capacity(t, budgets)
        want, n_active = waterfill_score_full(t, budgets)
        assert got[0] == want[0]
        assert np.all(np.abs(got - want) <= score_order_bound(want, n_active))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            waterfill_capacity(np.ones(4), 0.0)
        with pytest.raises(ValueError):
            waterfill_capacity(np.ones((3, 4)), np.ones(2))
        with pytest.raises(ValueError):
            waterfill_capacity(np.array([[1.0, 2.0], [np.inf, np.inf]]), 1.0)


@pytest.mark.parametrize("waterfill", [waterfill_power, waterfill_capacity])
@pytest.mark.parametrize("bad", [0.0, -0.0, -1.0, np.nan],
                         ids=["zero", "negative-zero", "negative", "nan"])
def test_rejects_a_non_physical_threshold(waterfill, bad):
    # one bad entry in a 64-column block with dead channels, which takes a
    # head: a zero threshold made the score divide by zero and the level
    # pass silently, and NaN sorts after the dead (inf) channels
    t = TestWaterfillPower.thresholds(np.random.default_rng(25), n=40, k=64)
    t[7, 5] = bad
    with pytest.raises(ValueError, match="thresholds must be positive"):
        waterfill(t, 2.5)


class TestWaterfillRate:
    def test_matches_the_out_of_place_score_and_overwrites_spend(self):
        # the in-place score gives the bits of log2(1 + spend / thr) summed
        # over the last axis, dead channels (inf threshold, zero spend)
        # included, and leaves the per-dimension terms in spend
        rng = np.random.default_rng(25)
        for n, k in [(1, 8), (40, 16), (513, 64)]:
            t = TestWaterfillPower.thresholds(rng, n=n, k=k)
            spend, _ = waterfill_power(t, rng.uniform(1e-3, 5.0, size=n))
            assert np.any(np.isinf(t)) and np.all(spend[np.isinf(t)] == 0.0)
            given = spend.copy()
            want = np.log2(1.0 + given / t).sum(-1)
            got = waterfill_rate(spend, t)
            assert got.shape == (n,) and np.array_equal(got, want)
            assert np.array_equal(spend, np.log2(1.0 + given / t))
        row = t[0]
        spend, _ = waterfill_power(row, 0.7)
        want = np.log2(1.0 + spend[0] / row).sum(-1)
        assert waterfill_rate(spend[0], row) == want


def realized_rows(pre, layout):
    """Squared norms of A's used-subcarrier rows: the realized weights."""
    return np.sum(np.abs(pre.a[list(layout.uc_indices), :]) ** 2, axis=1)


def uc_mismatch(pre, layout, a):
    """Worst relative gap between the realized used-subcarrier row norms and
    the requested weight ``a``."""
    return np.max(np.abs(realized_rows(pre, layout) - a) / a)


class TestRealizePrecoders:
    def test_reference_construction(self, setup64):
        ctx, layout = setup64
        scenario = build_scenario(0.3, 1.0, 20.0, "pu")
        a, g = uniform_split(layout, scenario, 0.5)
        pre = realize_precoders(ctx, layout, a, g)
        assert uc_mismatch(pre, layout, a) > 0.05
        # virtual-subcarrier rows of A are null, G lives only on them
        assert np.abs(pre.a[list(layout.vc_indices), :]).max() <= 1e-10
        assert np.abs(pre.g[list(layout.uc_indices), :]).max() == 0
        # the realized rows spend the requested budget exactly
        spent = (uc_power_coefficient(scenario) * realized_rows(pre, layout).sum()
                 + layout.m_vc * g)
        assert abs(spent - scenario.p_su) <= 1e-9 * scenario.p_su

    def test_realized_rows_follow_projector_diagonal(self, setup64):
        # independent oracle: with a uniform request the realized row norms
        # are the (rescaled) diagonal of the projector onto realizable
        # responses vanishing at the virtual subcarriers
        ctx, layout = setup64
        scenario = build_scenario(0.3, 1.0, 20.0, "pu")
        a, g = uniform_split(layout, scenario, 0.5)
        pre = realize_precoders(ctx, layout, a, g)
        assert uc_mismatch(pre, layout, a) > 0.05
        basis = ctx.pi_idft @ layout.upsilon_vc
        pdiag = np.sum(np.abs(basis) ** 2, axis=1)[list(layout.uc_indices)]
        want = a * pdiag * (layout.q / layout.n_sym)
        assert np.abs(realized_rows(pre, layout) - want).max() <= 1e-9 * want.max()

    def test_isotropic_case_without_vcs(self):
        ctx = build_spectral_context(16, 5)
        layout = build_vc_layout(ctx, ())
        scenario = build_scenario(0.3, 1.0, 20.0, "pu")
        a, g = uniform_split(layout, scenario, 0.0)
        # the projector diagonal is flat without virtual subcarriers, so the
        # realization is exact
        pre = realize_precoders(ctx, layout, a, g)
        assert uc_mismatch(pre, layout, a) <= 1e-12
        # C = sqrt(Q a / N) I with Q = M and N = l_su + 1, and without
        # virtual subcarriers A = pi_idft @ C
        want = ctx.pi_idft @ (np.sqrt(a * 16 / 6) * np.eye(6))
        assert np.abs(pre.a - want).max() <= 1e-12 * np.abs(want).max()

    def test_zero_profile_is_rank_deficient(self, setup64):
        ctx, layout = setup64
        scenario = build_scenario(0.3, 1.0, 20.0, "pu")
        a, g = uniform_split(layout, scenario, 1.0)
        assert a == 0
        with pytest.raises(PrecoderRankError):
            realize_precoders(ctx, layout, a, g)

    @pytest.mark.parametrize("m, l_su, vc", [
        (64, 10, (0, 16, 32, 48)),
        (128, 20, tuple(range(0, 128, 8))),
        (16, 4, ()),
        (32, 7, (3, 11, 19)),
        (64, 10, (5, 6, 7, 8, 9, 10)),
    ], ids=["reference", "m128-16vc", "m16-no-vc", "m32-3vc", "m64-contiguous-vc"])
    @pytest.mark.parametrize("vc_fraction", [0.0, 0.3])
    def test_closed_form_matches_principal_square_root(self, m, l_su, vc, vc_fraction):
        # C as the principal square root of the Gram target B^H diag(a) B,
        # B = pi_idft @ upsilon_vc, by eigendecomposition, then rescaled to
        # spend the requested used-subcarrier total
        ctx = build_spectral_context(m, l_su)
        layout = build_vc_layout(ctx, vc)
        scenario = build_scenario(0.3, 1.0, 20.0, "pu")
        a, g = uniform_split(layout, scenario, vc_fraction)
        uc_power = np.full(layout.q, a)
        basis = ctx.pi_idft @ layout.upsilon_vc
        gram = basis.conj().T @ ((layout.theta @ uc_power)[:, None] * basis)
        ew, ev = np.linalg.eigh(0.5 * (gram + gram.conj().T))
        c = (ev * np.sqrt(ew)) @ ev.conj().T
        want = np.sqrt(uc_power.sum() / np.trace(gram).real) * (basis @ c)
        got = realize_precoders(ctx, layout, a, g).a
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_vc_gram_is_exact(self, setup64):
        ctx, layout = setup64
        scenario = build_scenario(0.3, 1.0, 20.0, "pu")
        a, g = uniform_split(layout, scenario, 0.5)
        pre = realize_precoders(ctx, layout, a, g)
        assert uc_mismatch(pre, layout, a) > 0.05
        gram = pre.g @ pre.g.conj().T
        want = np.diag(layout.xi @ np.full(layout.m_vc, g))
        assert np.abs(gram - want).max() <= 1e-12
