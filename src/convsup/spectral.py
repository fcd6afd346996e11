"""Dense complex linear-algebra kernel for FIR-constrained frequency responses.

Everything here works with the M-point unitary symmetric DFT pair.  An
M-vector ``f`` is a *realizable* frequency response when it is the M-point
DFT of a causal FIR filter of order at most ``l_su``; the set of realizable
responses is the column span of ``pi_idft``.  ``min_norm_filter`` inverts
the (tall) synthesis map on that span.

Matrices are materialized explicitly (no FFT): all experiments run at
M <= 256 and the time-domain oracles compare matrix products directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpectralContext",
    "VcLayout",
    "InconsistentResponseError",
    "idft_matrix",
    "build_spectral_context",
    "build_vc_layout",
    "min_norm_filter",
    "filter_frequency_response",
]

_ORTHO_TOL = 1e-12
_SYNTH_TOL = 1e-9  # relative residual above which a response is not realizable


class InconsistentResponseError(ValueError):
    """Requested frequency response is not realizable by a causal FIR filter
    of the configured order."""


def idft_matrix(m: int) -> np.ndarray:
    """Unitary symmetric M-point IDFT matrix, entries exp(+2j*pi*k*n/M)/sqrt(M)."""
    k = np.arange(m)
    return np.exp(2j * np.pi * np.outer(k, k) / m) / np.sqrt(m)


@dataclass(frozen=True)
class SpectralContext:
    """Transform matrices for one subcarrier grid.

    ``pi_idft`` is an M x (l_su+1) semi-unitary basis of the realizable
    responses: the rows of ``w_idft`` below index ``l_su`` annihilate it.
    """

    m: int
    l_su: int
    w_idft: np.ndarray
    w_dft: np.ndarray
    pi_idft: np.ndarray


@dataclass(frozen=True)
class VcLayout:
    """Virtual-subcarrier bookkeeping on top of a :class:`SpectralContext`.

    ``theta`` (M x Q) inserts zeros at the virtual subcarriers when applied
    to a block of Q data symbols; ``xi`` (M x M_vc) scatters one value per
    virtual subcarrier.  ``upsilon_vc`` spans the filter coefficients whose
    frequency response vanishes on every virtual subcarrier.
    """

    m: int
    l_su: int
    vc_indices: tuple[int, ...]
    uc_indices: tuple[int, ...]
    theta: np.ndarray
    xi: np.ndarray
    upsilon_vc: np.ndarray

    @property
    def m_vc(self) -> int:
        return len(self.vc_indices)

    @property
    def q(self) -> int:
        return len(self.uc_indices)

    @property
    def n_sym(self) -> int:
        """Number of symbols transmittable through the used-subcarrier filter."""
        return self.l_su - self.m_vc + 1

    def uc_mask(self) -> np.ndarray:
        mask = np.zeros(self.m, dtype=bool)
        mask[list(self.uc_indices)] = True
        return mask


def build_spectral_context(m: int, l_su: int) -> SpectralContext:
    """Construct and verify the transform matrices for ``m`` subcarriers and
    filter order ``l_su``.

    ``pi_idft`` is taken analytically as the first ``l_su+1`` columns of the
    DFT matrix (orthonormal, and annihilated by the last ``m-l_su-1`` rows of
    the IDFT matrix); the defining properties are then checked numerically.
    """
    if m < 2:
        raise ValueError(f"subcarrier count must be >= 2, got {m}")
    if not 0 <= l_su < m:
        raise ValueError(f"filter order must satisfy 0 <= l_su < m, got l_su={l_su}, m={m}")

    w_idft = idft_matrix(m)
    w_dft = w_idft.conj().T
    pi_idft = w_dft[:, : l_su + 1].copy()

    eye_err = np.abs(w_dft @ w_idft - np.eye(m)).max()
    if eye_err > _ORTHO_TOL:
        raise AssertionError(f"DFT pair is not unitary: max deviation {eye_err:.3e}")
    gram_err = np.abs(pi_idft.conj().T @ pi_idft - np.eye(l_su + 1)).max()
    if gram_err > _ORTHO_TOL:
        raise AssertionError(f"pi_idft is not semi-unitary: max deviation {gram_err:.3e}")
    w_bar = w_idft[l_su + 1 :, :]
    null_err = np.abs(w_bar @ pi_idft).max() if w_bar.size else 0.0
    if null_err > _ORTHO_TOL:
        raise AssertionError(f"pi_idft does not annihilate the tail rows: {null_err:.3e}")

    return SpectralContext(m=m, l_su=l_su, w_idft=w_idft, w_dft=w_dft,
                           pi_idft=pi_idft)


def build_vc_layout(ctx: SpectralContext, vc_indices) -> VcLayout:
    """Build the virtual-subcarrier layout for the given index set.

    The indices must be distinct, in [0, ``m``), and at most ``l_su`` of them.
    ``upsilon_vc`` is then the orthonormal basis of the filters that vanish
    on them: the trailing ``l_su + 1 - m_vc`` right singular vectors of the
    rows of ``pi_idft`` at the indices.  Those rows are a Vandermonde matrix
    with distinct nodes on the unit circle, so their rank is exactly m_vc
    and no rank threshold is needed.  Contiguous blocks, such as guard bands,
    make the rows badly conditioned but not rank-deficient.  The basis is
    checked by its residual on the rows, at most 1e-12 (``ValueError`` where
    it is larger or the SVD fails).
    """
    vc = tuple(sorted(int(i) for i in vc_indices))
    if len(set(vc)) != len(vc):
        raise ValueError(f"vc_indices must be distinct: {vc}")
    if vc and (vc[0] < 0 or vc[-1] >= ctx.m):
        raise ValueError(f"vc_indices out of range [0, {ctx.m}): {vc}")
    m_vc = len(vc)
    if ctx.l_su + 1 <= m_vc:
        raise ValueError(
            f"filter order {ctx.l_su} leaves no used-subcarrier symbols for "
            f"{m_vc} virtual subcarriers (need l_su + 1 > m_vc)")

    uc = tuple(i for i in range(ctx.m) if i not in set(vc))
    theta = np.zeros((ctx.m, len(uc)))
    theta[list(uc), np.arange(len(uc))] = 1.0
    xi = np.zeros((ctx.m, m_vc))
    if m_vc:
        xi[list(vc), np.arange(m_vc)] = 1.0

    if m_vc == 0:
        upsilon = np.eye(ctx.l_su + 1, dtype=complex)
    else:
        pi_vc_h = ctx.pi_idft[list(vc), :]  # M_vc x (l_su+1), rows at vc indices
        # rank m_vc: the trailing right singular vectors span the null space
        try:
            _, _, vh = np.linalg.svd(pi_vc_h)
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"vc_indices {vc} at l_su={ctx.l_su}: {exc}") from exc
        upsilon = vh[m_vc:].conj().T
        resid = np.abs(pi_vc_h @ upsilon).max()
        if resid > _ORTHO_TOL:
            raise ValueError(
                f"vc_indices {vc} at l_su={ctx.l_su} give a null-space residual "
                f"{resid:.3e} (at most {_ORTHO_TOL:g})")

    return VcLayout(m=ctx.m, l_su=ctx.l_su, vc_indices=vc, uc_indices=uc,
                    theta=theta, xi=xi, upsilon_vc=upsilon)


def filter_frequency_response(ctx: SpectralContext, f_tilde: np.ndarray) -> np.ndarray:
    """M-point frequency response of the order-``l_su`` filter ``f_tilde``:
    sqrt(M) * W_dft * J * f_tilde with J the zero padding to M samples, so
    W_dft * J = ``pi_idft``; along the last axis (leading axes are a
    batch)."""
    f_tilde = np.asarray(f_tilde)
    if f_tilde.shape[-1:] != (ctx.l_su + 1,):
        raise ValueError(f"expected {ctx.l_su + 1} filter taps, got shape {f_tilde.shape}")
    return np.sqrt(ctx.m) * (f_tilde @ ctx.pi_idft.T)


def min_norm_filter(ctx: SpectralContext, f: np.ndarray) -> np.ndarray:
    """Minimal-norm filter taps whose frequency response equals ``f``, along
    the last axis (leading axes are a batch).

    Every response must lie in the realizable span (checked through the
    reconstruction residual); otherwise :class:`InconsistentResponseError`
    is raised, naming the worst relative residual of the batch.
    """
    f = np.asarray(f, dtype=complex)
    if f.shape[-1:] != (ctx.m,):
        raise ValueError(f"expected {ctx.m}-vectors, got shape {f.shape}")
    # J^T W_idft: the first l_su + 1 rows of the IDFT
    f_tilde = (f @ ctx.w_idft[: ctx.l_su + 1].T) / np.sqrt(ctx.m)
    resid = np.linalg.norm(filter_frequency_response(ctx, f_tilde) - f, axis=-1)
    scale = np.linalg.norm(f, axis=-1)
    bad = resid > _SYNTH_TOL * np.maximum(scale, np.finfo(float).tiny)
    if np.any(bad):
        worst = np.max(resid[bad] / scale[bad])
        raise InconsistentResponseError(
            f"response is not synthesizable by an order-{ctx.l_su} causal FIR "
            f"filter (relative residual {worst:.3e})")
    return f_tilde
