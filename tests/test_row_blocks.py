"""The estimators and validate oracles that run in row blocks or fold their
batches: the same bits at every block size, and working memory bounded by
the block or the batch, not by the number of draws."""

import tracemalloc

import numpy as np
import pytest

import convsup.channel
import convsup.transceiver
import convsup.validation
from convsup.capacity import baseline_ocr, c_su_lower_csit
from convsup.harness import ScenarioSpec
from convsup.transceiver import stx_power_mc
from convsup.validation import realized_rates

MIB = 2 ** 20


@pytest.fixture(scope="module")
def setup():
    scenario, cfg, _, pre = convsup.validation._reference_setup()
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


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_power_accounting_memory_is_bounded_by_the_block(setup):
    # unblocked, one 20 000-frame batch peaked at 148 MiB; its draws alone
    # are 59 MiB
    scenario, cfg, pre = setup
    peak = traced_peak(lambda: stx_power_mc(cfg, scenario, pre, 20_000,
                                            np.random.default_rng(1)))
    assert peak <= 80 * MIB


def test_realized_rates_memory_is_bounded_by_the_block(setup):
    # unblocked, 4000 draws peaked at 168 MiB
    scenario, cfg, pre = setup
    peak = traced_peak(lambda: realized_rates(scenario, cfg, pre, 4000,
                                              np.random.default_rng(2)))
    assert peak <= 50 * MIB


@pytest.mark.parametrize("estimator", ["c_su_lower_csit", "baseline_ocr"])
def test_monte_carlo_memory_does_not_grow_with_the_draws(estimator):
    # the batches are folded, not kept: past one batch the working set stays
    # that of one batch; and the CSIT rate on the 7-point reference grid
    # holds one row block's draws, not a batch's (3.7 MiB at one batch and
    # at two, where drawing each batch whole and keeping every per-trial
    # rate peaked at 31 and 32 MiB)
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
        assert one_batch <= 8 * MIB
