"""Transform-kernel unit tests: null-space structure, minimal-norm
synthesis, and the consistency law of realizable frequency responses."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from convsup.spectral import (InconsistentResponseError, build_spectral_context,
                              build_vc_layout, filter_frequency_response,
                              min_norm_filter)


def _rand_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _cyclic_blocks(m, l_su):
    """Every cyclic block of 1 to l_su adjacent indices below m, at 8 starts."""
    return [tuple((start + k) % m for k in range(size))
            for start in range(0, m, m // 8) for size in range(1, l_su + 1)]


_GUARD_BANDS = (255, 0, 1, *range(123, 134))  # 3 DC nulls and 11 edge guards at M 256


class TestSpectralContext:
    def test_full_order_basis_is_unitary(self):
        # l_su = m - 1 leaves no annihilated rows: every response is realizable
        ctx = build_spectral_context(4, 3)
        assert ctx.pi_idft.shape == (4, 4)
        assert np.abs(ctx.pi_idft @ ctx.pi_idft.conj().T - np.eye(4)).max() <= 1e-12
        rng = np.random.default_rng(0)
        f = _rand_complex(rng, 4)
        f_tilde = min_norm_filter(ctx, f)
        rec = filter_frequency_response(ctx, f_tilde)
        assert np.abs(rec - f).max() <= 1e-12 * np.abs(f).max()

    def test_tail_rows_annihilate_basis(self):
        ctx = build_spectral_context(8, 2)
        w_bar = ctx.w_idft[3:, :]
        assert np.abs(w_bar @ ctx.pi_idft).max() <= 1e-12

    def test_padded_dft_lies_in_span(self):
        ctx = build_spectral_context(8, 2)
        rng = np.random.default_rng(1)
        f = filter_frequency_response(ctx, _rand_complex(rng, 3))
        proj = ctx.pi_idft @ (ctx.pi_idft.conj().T @ f)
        assert np.linalg.norm(f - proj) <= 1e-12 * np.linalg.norm(f)

    def test_unitarity_of_transform_pair(self):
        ctx = build_spectral_context(16, 5)
        assert np.abs(ctx.w_dft @ ctx.w_idft - np.eye(16)).max() <= 1e-12

    @pytest.mark.parametrize("m,l_su", [(8, 8), (8, 9), (1, 0), (0, 0), (8, -1)])
    def test_rejects_bad_sizes(self, m, l_su):
        with pytest.raises(ValueError):
            build_spectral_context(m, l_su)


class TestVcLayout:
    def test_no_vcs_gives_identity_null_basis(self):
        ctx = build_spectral_context(8, 3)
        layout = build_vc_layout(ctx, ())
        assert layout.upsilon_vc.shape == (4, 4)
        assert np.abs(layout.upsilon_vc - np.eye(4)).max() == 0
        assert layout.xi.shape == (8, 0)
        assert layout.theta.shape == (8, 8)

    @pytest.mark.parametrize("m,l_su,vc_sets", [
        (64, 10, [(0, 16, 32, 48)]),
        *[(m, l_su, _cyclic_blocks(m, l_su)) for m, l_su in ((64, 16), (128, 32), (256, 64))],
        *[(256, l_su, [_GUARD_BANDS]) for l_su in (14, 16, 24)],
    ], ids=["reference", "blocks-64-16", "blocks-128-32", "blocks-256-64",
            "guards-256-14", "guards-256-16", "guards-256-24"])
    def test_null_space_shapes_and_residual(self, m, l_su, vc_sets):
        # the rows at adjacent indices are badly conditioned but of rank
        # m_vc, so every layout builds an orthonormal basis of l_su + 1 - m_vc
        # filters that vanish on the virtual subcarriers
        ctx = build_spectral_context(m, l_su)
        for vc in vc_sets:
            layout = build_vc_layout(ctx, vc)
            n = l_su + 1 - len(vc)
            assert layout.upsilon_vc.shape == (l_su + 1, n) and layout.n_sym == n
            gram = layout.upsilon_vc.conj().T @ layout.upsilon_vc
            assert np.abs(gram - np.eye(n)).max() <= 1e-12, vc
            assert np.abs(ctx.pi_idft[list(vc)] @ layout.upsilon_vc).max() <= 1e-12, vc

    def test_selection_matrices(self):
        ctx = build_spectral_context(8, 4)
        layout = build_vc_layout(ctx, (0, 4))
        assert np.abs(layout.theta.T @ layout.theta - np.eye(6)).max() == 0
        assert np.abs(layout.xi.T @ layout.xi - np.eye(2)).max() == 0
        # nonzero rows of xi are exactly the virtual-subcarrier indices
        assert set(np.nonzero(layout.xi.any(axis=1))[0]) == {0, 4}
        # each theta column has its single one at a used index
        rows = np.nonzero(layout.theta.T)[1]
        assert list(rows) == list(layout.uc_indices)

    def test_null_space_against_gram_schmidt(self):
        ctx = build_spectral_context(8, 4)
        layout = build_vc_layout(ctx, (0, 4))
        pi_vc_h = ctx.pi_idft[[0, 4], :]
        assert layout.upsilon_vc.shape == (5, 3)
        assert np.abs(pi_vc_h @ layout.upsilon_vc).max() <= 1e-12
        # independent construction: orthonormalize the projections of the
        # canonical basis onto the orthogonal complement of the rows
        q_rows, _ = np.linalg.qr(pi_vc_h.conj().T)
        comp = np.eye(5) - q_rows @ q_rows.conj().T
        basis = []
        for k in range(5):
            v = comp[:, k].astype(complex)
            for b in basis:
                v = v - b * (b.conj() @ v)
            if np.linalg.norm(v) > 1e-8:
                basis.append(v / np.linalg.norm(v))
        gs = np.stack(basis, axis=1)
        assert gs.shape == layout.upsilon_vc.shape
        p_gs = gs @ gs.conj().T
        p_svd = layout.upsilon_vc @ layout.upsilon_vc.conj().T
        assert np.abs(p_gs - p_svd).max() <= 1e-10

    def test_rejects_bad_indices(self):
        ctx = build_spectral_context(8, 4)
        with pytest.raises(ValueError):
            build_vc_layout(ctx, (1, 1))
        with pytest.raises(ValueError):
            build_vc_layout(ctx, (8,))
        with pytest.raises(ValueError):
            build_vc_layout(ctx, (-1,))

    def test_rejects_too_many_vcs_for_filter_order(self):
        ctx = build_spectral_context(8, 2)
        with pytest.raises(ValueError):
            build_vc_layout(ctx, (0, 2, 4))


class TestMinNormFilter:
    def test_zero_maps_to_zero(self):
        ctx = build_spectral_context(8, 2)
        assert np.all(min_norm_filter(ctx, np.zeros(8, dtype=complex)) == 0)

    def test_basis_column_roundtrip(self):
        ctx = build_spectral_context(8, 2)
        f = ctx.pi_idft[:, 0]
        rec = filter_frequency_response(ctx, min_norm_filter(ctx, f))
        assert np.abs(rec - f).max() <= 1e-12

    def test_matches_closed_form_through_precoder_route(self):
        ctx = build_spectral_context(16, 5)
        layout = build_vc_layout(ctx, (0, 8))
        rng = np.random.default_rng(2)
        c = _rand_complex(rng, (layout.n_sym, layout.n_sym))
        x = _rand_complex(rng, layout.n_sym)
        f = ctx.pi_idft @ (layout.upsilon_vc @ (c @ x))
        got = min_norm_filter(ctx, f)
        want = (ctx.w_idft[: ctx.l_su + 1] @ f) / np.sqrt(16)
        assert np.abs(got - want).max() <= 1e-12

    def test_rejects_unrealizable_response(self):
        ctx = build_spectral_context(16, 3)
        rng = np.random.default_rng(3)
        with pytest.raises(InconsistentResponseError):
            min_norm_filter(ctx, _rand_complex(rng, 16))

    def test_batch_rows_are_single_filters(self):
        ctx = build_spectral_context(16, 3)
        rng = np.random.default_rng(6)
        taps = _rand_complex(rng, (2, 3, 4))
        f = filter_frequency_response(ctx, taps)
        assert f.shape == (2, 3, 16)
        got = min_norm_filter(ctx, f)
        for i, j in np.ndindex(2, 3):
            single = filter_frequency_response(ctx, taps[i, j])
            assert np.abs(f[i, j] - single).max() <= 1e-12
            assert np.abs(got[i, j] - min_norm_filter(ctx, single)).max() <= 1e-12
        assert np.abs(got - taps).max() <= 1e-12

    def test_batch_with_one_unrealizable_row_is_rejected(self):
        ctx = build_spectral_context(16, 3)
        rng = np.random.default_rng(7)
        f = filter_frequency_response(ctx, _rand_complex(rng, (5, 4)))
        min_norm_filter(ctx, f)
        f[3] = _rand_complex(rng, 16)
        with pytest.raises(InconsistentResponseError):
            min_norm_filter(ctx, f)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=2, max_value=24), st.data())
    def test_consistency_law(self, m, data):
        l_su = data.draw(st.integers(min_value=0, max_value=m - 1))
        seed = data.draw(st.integers(min_value=0, max_value=2**31))
        ctx = build_spectral_context(m, l_su)
        rng = np.random.default_rng(seed)
        f = filter_frequency_response(ctx, _rand_complex(rng, l_su + 1))
        rec = filter_frequency_response(ctx, min_norm_filter(ctx, f))
        assert np.linalg.norm(rec - f) <= 1e-10 * max(np.linalg.norm(f), 1e-30)

    def test_time_frequency_duality(self):
        # literal transform sum versus the padded matrix route
        ctx = build_spectral_context(12, 4)
        rng = np.random.default_rng(4)
        f_tilde = _rand_complex(rng, 5)
        direct = np.array([
            sum(f_tilde[ell] * np.exp(-2j * np.pi * ell * m / 12) for ell in range(5))
            for m in range(12)])
        assert np.abs(direct - filter_frequency_response(ctx, f_tilde)).max() <= 1e-12

    def test_rank_law(self):
        ctx = build_spectral_context(32, 8)
        layout = build_vc_layout(ctx, (0, 10, 20))
        rng = np.random.default_rng(5)
        n = layout.n_sym
        c = _rand_complex(rng, (n, n))
        a = ctx.pi_idft @ layout.upsilon_vc @ c
        sv_a = np.linalg.svd(a, compute_uv=False)
        sv_c = np.linalg.svd(c, compute_uv=False)
        rank_a = int(np.sum(sv_a > 1e-10 * sv_a[0]))
        rank_c = int(np.sum(sv_c > 1e-10 * sv_c[0]))
        assert rank_a == rank_c == n
