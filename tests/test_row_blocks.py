"""The estimators and validate oracles that run in row blocks, fold their
batches or draw through small buffers: the same bits at every block size
and as the whole-array code they replaced, and working memory bounded by
the block or the batch, not by the number of draws."""

import tracemalloc

import numpy as np
import pytest

import convsup.channel
import convsup.transceiver
import convsup.validation
from convsup.capacity import baseline_ocr, c_su_lower_csit
from convsup.channel import draw_channels, link_output, zmcscg
from convsup.harness import ScenarioSpec
from convsup.precoding import srx_noise_floor
from convsup.transceiver import pu_transmit, stx_power_mc, stx_process
from convsup.validation import (power_accounting_check, precoder_structure_check,
                                product_density_ks_check, realized_rates)

MIB = 2 ** 20


@pytest.fixture(scope="module")
def reference():
    return convsup.validation._reference_setup()


@pytest.fixture(scope="module")
def setup(reference):
    scenario, cfg, _, pre = reference
    return scenario, cfg, pre


def frame_energies(setup, n, record_trials):
    scenario, cfg, pre = setup
    seen = record_trials(convsup.transceiver)
    got = stx_power_mc(cfg, scenario, pre, n, np.random.default_rng(n))
    return got, np.concatenate(seen)


# 1 runs blocks of two or three rows; with 7, 2115 frames end in a block
# that would be a single row, whose last frame then takes other bits at
# this seed; 10**6 is the whole batch, the unblocked chain
@pytest.mark.parametrize("rows", [1, 7, 10 ** 6])
def test_power_blocks_keep_every_frame_energy(setup, rows, monkeypatch, record_trials):
    want = frame_energies(setup, 2115, record_trials)
    monkeypatch.setattr(convsup.transceiver, "_POWER_ROWS", rows)
    got = frame_energies(setup, 2115, record_trials)
    assert got[0] == want[0]
    assert np.array_equal(got[1], want[1])


def whole_draw_energies(scenario, cfg, pre, n_frames, rng):
    """stx_power_mc's frame energies as they were before each block drew its
    own imaginary parts of v2: every batch's v2 drawn whole as complex
    numbers, and the chain run in blocks of 256 frames."""
    spec12 = cfg.specs[1, 2]
    chunk = convsup.channel._CHUNK
    energies = []
    for lo in range(0, n_frames, chunk):
        n = min(chunk, n_frames - lo)
        taps = zmcscg(rng, (n, spec12.order + 1),
                      scenario.link_variance(1, 2) / (spec12.order + 1))
        x_pu = zmcscg(rng, (n, cfg.layout.q), scenario.p_pu)
        x1 = zmcscg(rng, (n, cfg.layout.n_sym))
        x2 = zmcscg(rng, (n, cfg.layout.m_vc))
        v2 = zmcscg(rng, (n, cfg.p), scenario.sigma2_v[2])
        energy = np.empty(n)
        for rows in convsup.transceiver._row_blocks(n, 256):
            y2 = link_output(taps[rows], spec12.offset, pu_transmit(x_pu[rows], cfg))
            y2 += v2[rows]
            z2 = stx_process(y2, x1[rows], x2[rows], pre, cfg)[:, cfg.l_cp:]
            np.sum(z2.real ** 2 + z2.imag ** 2, axis=-1, out=energy[rows])
        energies.append(energy)
    return np.concatenate(energies)


# 20 001 frames are two batches, the last of one frame
@pytest.mark.parametrize("n", [2115, 20_001])
def test_power_energies_keep_the_bits_of_the_whole_draw(setup, n, record_trials):
    scenario, cfg, pre = setup
    rng = np.random.default_rng(n)
    seen = record_trials(convsup.transceiver)
    stx_power_mc(cfg, scenario, pre, n, rng)
    ref = np.random.default_rng(n)
    want = whole_draw_energies(scenario, cfg, pre, n, ref)
    assert np.array_equal(np.concatenate(seen), want)
    assert rng.random() == ref.random()


@pytest.mark.parametrize("n, size", [(1, 1), (2, 1), (3, 1), (9, 2), (8, 7),
                                     (9, 7), (14, 7), (1025, 1024), (20_000, 1024)])
def test_row_blocks_cover_the_rows_without_single_rows(n, size):
    blocks = list(convsup.transceiver._row_blocks(n, size))
    assert [b.start for b in blocks] == [0] + [b.stop for b in blocks[:-1]]
    assert blocks[-1].stop == n
    assert all(b.stop - b.start <= max(size, 2) + 1 for b in blocks)
    assert all(b.stop - b.start >= 2 for b in blocks) or n == 1


@pytest.mark.parametrize("rows", [1, 7, 10 ** 6])
def test_rate_blocks_keep_every_draw(setup, rows, monkeypatch):
    scenario, cfg, pre = setup
    want = realized_rates(scenario, cfg, pre, 401, np.random.default_rng(3))
    monkeypatch.setattr(convsup.validation, "_RATE_ROWS", rows)
    got = realized_rates(scenario, cfg, pre, 401, np.random.default_rng(3))
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def whole_draw_rates(scenario, cfg, pre, n_draws, rng):
    """realized_rates as it was before it drew its channels at M = 1: every
    link's M-point response formed, and blocks of 200 draws."""
    layout = cfg.layout
    ch = draw_channels(scenario, cfg.specs, cfg.m, rng, batch=(n_draws,))
    x_pu = zmcscg(rng, (n_draws, layout.q), scenario.p_pu)
    v2 = zmcscg(rng, (n_draws, cfg.m), scenario.sigma2_v[2])
    h24 = ch.freq[2, 4]
    h_su = h24 * (ch.freq[1, 2] * (x_pu @ layout.theta.T) + v2)
    nu = np.where(layout.uc_mask(), srx_noise_floor(scenario), scenario.sigma2_v[4])
    eye = np.eye(pre.a.shape[-1] + pre.g.shape[-1])
    logdet = np.empty(n_draws)
    diag = np.empty(n_draws)
    for lo in range(0, n_draws, 200):
        rows = slice(lo, lo + 200)
        rx = np.concatenate([h_su[rows, :, None] * pre.a, h24[rows, :, None] * pre.g],
                            axis=-1)
        gram = rx.conj().swapaxes(-1, -2) @ (rx / nu[:, None])
        logdet[rows] = np.linalg.slogdet(eye + gram)[1]
        diag[rows] = np.log2(1.0 + np.sum(np.abs(rx) ** 2, axis=-1) / nu).sum(axis=-1)
    return logdet / np.log(2.0), diag


@pytest.mark.parametrize("seed", [3, 12])
@pytest.mark.parametrize("n_draws", [37, 401])
def test_rates_keep_the_bits_of_the_whole_draw(setup, seed, n_draws):
    scenario, cfg, pre = setup
    rng = np.random.default_rng(seed)
    got = realized_rates(scenario, cfg, pre, n_draws, rng)
    ref = np.random.default_rng(seed)
    want = whole_draw_rates(scenario, cfg, pre, n_draws, ref)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert rng.random() == ref.random()


def test_product_density_keeps_the_bits_of_whole_factors(setup, monkeypatch):
    # the check tests (s23 * E1) * E2 over whole draws of E1 and E2, across
    # a short last batch of the second factor, and leaves the stream there
    scenario = setup[0]
    n = 2 * convsup.channel._CHUNK + 777
    ref = np.random.default_rng(4)
    s23 = scenario.link_variance(2, 3)
    want = s23 * ref.exponential(size=n) * ref.exponential(size=n)
    seen = []
    ks_test = convsup.validation._ks_test

    def spy(sample, cdf):
        seen.append(sample.copy())
        return ks_test(sample, cdf)
    monkeypatch.setattr(convsup.validation, "_ks_test", spy)
    rng = np.random.default_rng(4)
    product_density_ks_check(scenario, n, rng)
    assert np.array_equal(seen[0], want)
    assert rng.random() == ref.random()


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_power_accounting_memory_is_bounded_by_the_block(setup):
    # unblocked, one 20 000-frame batch peaked at 148 MiB; in 1024-frame
    # blocks with whole-size float draws, 58.9 MiB; with v2 drawn whole as
    # complex numbers and 256-frame blocks, 48.8 MiB; now that each
    # 128-frame block draws its own imaginary parts of v2, 36.1 MiB, of
    # which the batch's draws are 34.5 MiB
    scenario, cfg, pre = setup
    peak = traced_peak(lambda: stx_power_mc(cfg, scenario, pre, 20_000,
                                            np.random.default_rng(1)))
    assert peak <= 40 * MIB


def test_realized_rates_memory_is_bounded_by_the_block(setup):
    # unblocked, 4000 draws peaked at 168 MiB; in 200-draw blocks with
    # every link's M-point response, 39.2 MiB; now 22.5 MiB
    scenario, cfg, pre = setup
    peak = traced_peak(lambda: realized_rates(scenario, cfg, pre, 4000,
                                              np.random.default_rng(2)))
    assert peak <= 28 * MIB


# each check at the size `convsup validate --trials 5000 --frames 100` runs
# it, with its ceiling in MiB: measured 10.2, 7.1 and 9.2 MiB, where the
# whole-size draws and unused responses took 18.1, 15.3 and 16.9 MiB, and
# power accounting with v2 drawn whole as complex numbers 13.7 MiB
@pytest.mark.parametrize("check, ceiling", [("power_accounting", 12),
                                            ("precoder_structure", 9),
                                            ("product_density_ks", 11)])
def test_check_memory_at_the_benchmark_size(reference, check, ceiling):
    scenario, cfg, g, pre = reference
    rng = np.random.default_rng(8)
    run = {"power_accounting": lambda: power_accounting_check(scenario, cfg, pre,
                                                              5000, rng),
           "precoder_structure": lambda: precoder_structure_check(scenario, cfg, g,
                                                                  pre, rng),
           "product_density_ks": lambda: product_density_ks_check(scenario, 1_000_000,
                                                                  rng)}[check]
    assert traced_peak(run) <= ceiling * MIB


@pytest.mark.parametrize("estimator", ["c_su_lower_csit", "baseline_ocr"])
def test_monte_carlo_memory_does_not_grow_with_the_draws(estimator):
    # the batches are folded, not kept: past one batch the working set stays
    # that of one batch; and the CSIT rate on the 7-point reference grid
    # holds one row block's draws, not a batch's (3.0 MiB at one batch and
    # at two, where drawing each batch whole and keeping every per-trial
    # rate peaked at 31 and 32 MiB); the last run of shared factors scales
    # the block's own draws in place (3.01 MiB at one batch, where three
    # fresh factor arrays per block read 3.46)
    spec = ScenarioSpec()
    scenarios = [spec.with_sweep_value("snr_pu_db", v).network() for v in range(0, 31, 5)]
    _, layout, _ = spec.spectral()
    run = {"c_su_lower_csit": lambda n: c_su_lower_csit(scenarios, layout, n,
                                                        np.random.default_rng(1)),
           "baseline_ocr": lambda n: baseline_ocr(scenarios[0], layout, n,
                                                  np.random.default_rng(1))}[estimator]
    chunk = convsup.channel._CHUNK
    one_batch = traced_peak(lambda: run(chunk))
    assert traced_peak(lambda: run(2 * chunk + 1)) <= 1.1 * one_batch
    if estimator == "c_su_lower_csit":
        assert one_batch <= 3.2 * MIB
