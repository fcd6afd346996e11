"""Acceptance gate: one test per criterion, each printing a pass/fail line
with the measured numbers at the criterion's stated tolerance.

The oracles of criteria 3, 4, 5 and of the criterion-8 property suites
are the checks ``convsup validate`` runs (the ``*_check`` functions of
``convsup.validation``); each test calls them with its own seed tags and
sizes, so every oracle has one implementation.  Every oracle is
independent of the code path it checks: adaptive quadrature for special
functions, scalar convolution and per-subcarrier models for the simulator
chain, closed forms against raw Monte Carlo for the statistics, and a
noise floor written out by hand for the waterfilling search.  Outcomes are
deterministic for the fixed seed below.

Three sub-criteria fail and are left failing: 7a, 7b and 7c-NOCSIT each
compare against a value read off one of the paper's figures, and the
repository holds neither those figures nor the paper's simulation
parameters (PAPER.md has the title and abstract only).  Gauss-Laguerre
quadrature of the same model (64 nodes per axis, unchanged from 32 to 128)
confirms the Monte Carlo values, so the estimators are not at fault:

    test        Monte Carlo            quadrature   anchor
    7a          0.014678 +- 1.0e-5     0.014646     0.015
    7b          0.028662 +- 2.0e-5     0.028698     0.09
    7c-NOCSIT   0.3992   +- 1.1e-4     0.39922      0.40

The anchors of 7a and 7b cannot both hold in this model, at any setting.
Doubling P_su multiplies the primary gain Delta = c_pu_lower - c_pu_direct
by only 1.67 to 2.00, at all 540 quadrature points of the grid d12/d13 in
{0.1, 0.2, 0.3, 0.5, 0.7}, SNR_pu in {0, 10, 20, 30} dB,
vc_power_fraction in {0, 0.5, 0.9}, eta in {2, 3, 4} and P_su/P_pu in
{0.25, 1, 4}.  The anchor of 7b is 6 times that of 7a (0.09 against
0.015), so at least one of the two was read at another setting.

Whether the reference configuration or the anchors are wrong cannot be
settled from the repository.  That configuration is the node geometry,
eta = 3, the even split vc_power_fraction = 0.5 of the secondary budget
between virtual and used subcarriers, and P_su taken as a total power
against P_pu per subcarrier.  The anchors, the 3-se tolerances, the seed
tags and TRIALS stay as they are: changing any of them would only fit the
test to today's output.  The per-test comments name the paper data that
would settle each one.

Criterion 8's Gram test checks the diagonalization the precoder pair
promises, in the symbol domain and through the rank-N projection; the
literal 64 x 64 subcarrier-domain reading is unattainable for any
admissible precoder and is printed, not asserted.
"""

import time

import numpy as np
import pytest

from convsup.capacity import (c_pu_direct, c_pu_lower_quad, c_pu_lower_trials,
                              c_su_lower_csit, c_su_lower_nocsit_quad,
                              check_pu_monotonicity)
from convsup.channel import draw_channels, mean_se, zmcscg
from convsup.harness import build_scenario, reference_link_specs, resolve_d12
from convsup.validation import (_reference_setup, channel_statistics_check,
                                frame_equivalence_errors, outage_check,
                                power_accounting_check, product_density_check,
                                relayed_noise_identity_error,
                                spectral_consistency_check,
                                special_functions_check, validate_suite,
                                waterfilling_check)
from convsup.precoding import realize_precoders, uniform_split
from convsup.spectral import build_spectral_context, build_vc_layout
from convsup.transceiver import FrameConfig, required_cp_length
from oracles import c_su_lower_nocsit

SEED = 20260809
TRIALS = 100_000


def _rng(tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((SEED, tag)))


def _report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    return ok


@pytest.fixture(scope="module")
def reference():
    ctx = build_spectral_context(64, 10)
    layout = build_vc_layout(ctx, (0, 16, 32, 48))
    specs = reference_link_specs()
    l_cp = required_cp_length(specs, 10)
    assert l_cp == 16
    cfg = FrameConfig(ctx=ctx, layout=layout, l_cp=l_cp, specs=specs)
    return ctx, layout, cfg


def test_criterion_1_frequency_domain_equivalence():
    scenario, cfg, _, pre = _reference_setup()
    start = time.monotonic()
    worst_pu, worst_su = frame_equivalence_errors(scenario, cfg, pre, 1000, _rng(1))
    elapsed = time.monotonic() - start
    ok = worst_pu <= 1e-10 and worst_su <= 1e-10 and elapsed <= 60.0
    assert _report(
        "criterion 1 (frequency-domain equivalence)", ok,
        f"1000 noisy frames: max rel err PRx {worst_pu:.2e}, "
        f"SRx {worst_su:.2e}, runtime {elapsed:.1f}s")


def test_criterion_2_noise_path_identity():
    scenario, cfg, _, pre = _reference_setup()
    worst = relayed_noise_identity_error(scenario, cfg, pre, 300, _rng(2))
    assert _report(
        "criterion 2 (relayed-noise circular identity)", worst <= 1e-10,
        f"prefix-structured secondary noise: max rel err {worst:.2e}")


def test_criterion_3_special_functions():
    ok, detail = special_functions_check()
    assert _report("criterion 3 (special functions)", ok, detail)


def test_criterion_4_outage_closed_form(reference):
    _, layout, _ = reference
    ok, detail = outage_check(layout, TRIALS, [(SEED, 40 + i) for i in range(3)])
    assert _report("criterion 4 (outage closed form)", ok, detail)


def test_criterion_5_waterfilling():
    ok, detail = waterfilling_check(_rng(5))
    assert _report("criterion 5 (waterfilling)", ok, detail)


def test_criterion_6_budget_monotonicity(reference):
    _, layout, _ = reference
    scenario = build_scenario(0.05 ** (2.0 / 3.0), 1.0, 20.0, "pu")
    ok, report = check_pu_monotonicity(scenario, layout,
                                       np.geomspace(0.25, 2.0, 8),
                                       20_000, SEED)
    assert _report(
        "criterion 6 (primary-bound monotonicity in the secondary budget)",
        ok and report["hypothesis_met"],
        f"kappa={report['kappa']:.3f}, 8-point budget grid under common "
        f"random numbers, violations: {len(report['violations'])}")


def _delta_c_pu(layout, d12_ratio, power_ratio, snr_db, rng, n_trials=TRIALS):
    scenario = build_scenario(resolve_d12(d12_ratio, "d13"), power_ratio,
                              snr_db, "pu")
    a, _ = uniform_split(layout, scenario, 0.5)
    lo, se = mean_se(c_pu_lower_trials([(scenario, a)], layout, n_trials, rng))[0]
    return lo - c_pu_direct(scenario, layout), se


def test_criterion_7a_pu_gain_anchor(reference):
    # Fails on a figure anchor the repository cannot check.  Quadrature of
    # the same model gives 0.014646 at exactly 20 dB, 35 se below 0.015; the
    # Monte Carlo value at this seed tag reads 3.2 se above quadrature and
    # still falls short.  The gain reaches 0.015 only near 25 dB (0.015014)
    # and levels off near 0.01525 (40 dB).  Settled by the figure's
    # parameters: node geometry, eta, the VC split and the power
    # normalization of P_su against P_pu.
    _, layout, _ = reference
    delta, se = _delta_c_pu(layout, 0.3, 1.0, 20.0, _rng(71))
    ok = delta >= 0.015 - 3.0 * se
    assert _report(
        "criterion 7a (PU gain >= 0.015 b/s/Hz at SNR_PU=20dB, d12/d13=0.3, "
        "P_su=P_pu)", ok,
        f"measured {delta:.6f} +- {se:.1e} ({delta * 20:.3f} Mbps at 20 MHz)")


def test_criterion_7b_pu_gain_anchor_double_power(reference):
    # Fails on a figure anchor the repository cannot check.  Quadrature
    # gives 0.028698.  The gain grows about 1.9x per doubling of P_su
    # (0.0146, 0.0287, 0.0553, 0.1040 at P_su/P_pu = 1, 2, 4, 8) and passes
    # 0.09 only between P_su/P_pu = 6 (0.0803) and 7 (0.0923), about 3.5x
    # the stated ratio.  Settled by the figure's parameters, the power
    # normalization first: whether P_su is a total power against P_pu per
    # subcarrier, as here, or counted otherwise.
    _, layout, _ = reference
    delta, se = _delta_c_pu(layout, 0.3, 2.0, 20.0, _rng(72))
    ok = delta >= 0.09 - 3.0 * se
    assert _report(
        "criterion 7b (PU gain >= 0.09 b/s/Hz at P_su/P_pu=2, d12/d13=0.3)",
        ok, f"measured {delta:.6f} +- {se:.1e} ({delta * 20:.3f} Mbps at 20 MHz)")


def test_criterion_7c_su_capacity_anchor_csit(reference):
    _, layout, _ = reference
    scenario = build_scenario(resolve_d12(0.7, "d14"), 1.0, 20.0, "su")
    [(csit, se_c)] = mean_se(c_su_lower_csit([scenario], layout, TRIALS, _rng(73)))
    ok_csit = csit >= 0.55 - 3.0 * se_c
    assert _report(
        "criterion 7c-CSIT (C_SU >= 0.55 b/s/Hz at d12/d14=0.7, SNR_SU=20dB)",
        ok_csit, f"measured {csit:.4f} +- {se_c:.1e} ({csit * 20:.1f} Mbps)")


def test_criterion_7c_su_capacity_anchor_nocsit(reference):
    # Fails on a figure anchor the repository cannot check.  Quadrature
    # gives 0.39922 at the even split vc_power_fraction = 0.5, 7 se below
    # 0.40; the 0.3 and 0.4 splits give 0.4040 and 0.4045 and would pass.
    # Settled by the VC split the paper's figure used, with the same
    # geometry and power normalization as 7a.
    _, layout, _ = reference
    scenario = build_scenario(resolve_d12(0.7, "d14"), 1.0, 20.0, "su")
    nocsit, se_n = c_su_lower_nocsit(scenario, layout, *uniform_split(layout, scenario, 0.5),
                                     TRIALS, _rng(74))
    ok_no = nocsit >= 0.40 - 3.0 * se_n
    assert _report(
        "criterion 7c-NOCSIT (C_SU >= 0.40 b/s/Hz at d12/d14=0.7, SNR_SU=20dB)",
        ok_no, f"measured {nocsit:.4f} +- {se_n:.1e} ({nocsit * 20:.1f} Mbps)")


def test_red_anchor_table_quadrature_column(reference):
    # the quadrature column of the table in this module's docstring, to the
    # digits printed there: c_pu_lower_quad - c_pu_direct for 7a and 7b,
    # c_su_lower_nocsit_quad for 7c-NOCSIT, at the configurations of the
    # three tests
    _, layout, _ = reference
    printed = {line.split()[0]: line.split()[4] for line in __doc__.splitlines()
               if line.split()[:1] in (["7a"], ["7b"], ["7c-NOCSIT"])}

    def pu_gain(power_ratio):
        scenario = build_scenario(resolve_d12(0.3, "d13"), power_ratio, 20.0, "pu")
        a, _ = uniform_split(layout, scenario, 0.5)
        return (c_pu_lower_quad(scenario, layout, a)
                - c_pu_direct(scenario, layout))

    su = build_scenario(resolve_d12(0.7, "d14"), 1.0, 20.0, "su")
    quad = {"7a": pu_gain(1.0), "7b": pu_gain(2.0),
            "7c-NOCSIT": c_su_lower_nocsit_quad(su, layout, *uniform_split(layout, su, 0.5))}
    assert printed.keys() == quad.keys()
    for name, text in printed.items():
        digits = len(text.split(".")[1])
        assert f"{quad[name]:.{digits}f}" == text, name


def test_criterion_7d_trends(reference):
    _, layout, _ = reference
    ok = True
    details = []

    # PU gain increases with the power ratio
    gains = []
    for i, pr in enumerate((1.0, 2.0, 4.0)):
        gains.append(_delta_c_pu(layout, 0.3, pr, 20.0, _rng(750 + i)))
    for (d0, s0), (d1, s1) in zip(gains, gains[1:]):
        ok &= d1 - d0 >= -3.0 * np.hypot(s0, s1)
    details.append("dC_PU vs P_su/P_pu {1,2,4}: "
                   + " -> ".join(f"{d:.4f}" for d, _ in gains))

    # PU gain decreases with d12/d13
    gains = []
    for i, ratio in enumerate((0.3, 0.5, 0.7)):
        gains.append(_delta_c_pu(layout, ratio, 1.0, 20.0, _rng(760 + i)))
    for (d0, s0), (d1, s1) in zip(gains, gains[1:]):
        ok &= d1 - d0 <= 3.0 * np.hypot(s0, s1)
    details.append("dC_PU vs d12/d13 {.3,.5,.7}: "
                   + " -> ".join(f"{d:.4f}" for d, _ in gains))

    # SU capacity improves as d12/d14 grows; CSIT dominates NOCSIT throughout
    cs, no = [], []
    for i, ratio in enumerate((0.3, 0.5, 0.7)):
        scenario = build_scenario(resolve_d12(ratio, "d14"), 1.0, 20.0, "su")
        cs += mean_se(c_su_lower_csit([scenario], layout, TRIALS, _rng(770 + i)))
        no.append(c_su_lower_nocsit(scenario, layout, *uniform_split(layout, scenario, 0.5),
                                    TRIALS, _rng(780 + i)))
    for series in (cs, no):
        for (v0, s0), (v1, s1) in zip(series, series[1:]):
            ok &= v1 - v0 >= -3.0 * np.hypot(s0, s1)
    for (vc_, sc_), (vn, sn) in zip(cs, no):
        ok &= vc_ - vn >= -3.0 * np.hypot(sc_, sn)
    details.append("C_SU(CSIT) vs d12/d14: "
                   + " -> ".join(f"{v:.3f}" for v, _ in cs))
    details.append("C_SU(NOCSIT) vs d12/d14: "
                   + " -> ".join(f"{v:.3f}" for v, _ in no))
    assert _report("criterion 7d (monotone trends)", ok, "; ".join(details))


def test_criterion_8_property_suites():
    scenario, cfg, _, pre = _reference_setup()
    rng = _rng(81)  # the product draws continue the consistency stream
    results = [spectral_consistency_check(cfg.ctx, rng),
               product_density_check(scenario, 1_000_000, rng),
               channel_statistics_check(scenario, cfg.specs, TRIALS, _rng(82)),
               power_accounting_check(scenario, cfg, pre, TRIALS, _rng(83))]
    ok = all(passed for passed, _ in results)
    details = [detail for _, detail in results]

    # full validation sweep stays inside the ten-minute budget
    start = time.monotonic()
    report = validate_suite(seed=SEED, trials=20_000, n_frames=200)
    elapsed = time.monotonic() - start
    ok &= report.ok and elapsed <= 600.0
    details.append(f"validate suite {'PASS' if report.ok else 'FAIL'} "
                   f"in {elapsed:.0f}s")

    assert _report("criterion 8 (property suites)", ok, "; ".join(details))


def _offdiag_ratio(gram: np.ndarray) -> float:
    """Frobenius norm of the off-diagonal part over the trace."""
    off = gram - np.diag(np.diag(gram))
    return float(np.linalg.norm(off, "fro") / np.trace(gram).real)


def test_criterion_8_gram_diagonalization(reference):
    # The secondary Gram diagonalization in the form the precoder pair
    # promises.  The literal reading, a diagonal 64 x 64 subcarrier-domain
    # receive Gram R R^H with R = [h_su * A, h24 * G], is unattainable: R has
    # rank <= N + M_vc = 11, while a diagonal PSD matrix has rank equal to
    # its number of nonzero diagonal entries, here 64.  A is B C with
    # B = pi_idft @ upsilon_vc (M x N, semi-unitary, null on the virtual
    # subcarriers) and C = sqrt(Q a / N) I_N, the square root of the Gram
    # target B^H diag(a) B = a I_N of the uniform split rescaled by
    # kappa = sqrt(Q / N) to spend the requested budget; G = sqrt(g) xi.
    # So, by construction:
    #   (a) the symbol-domain transmit Gram [A G]^H [A G] is diagonal;
    #   (b) per realization, R^H R has a zero cross-branch block and a
    #       diagonal virtual-carrier block (the relayed block follows the
    #       fading of the used subcarriers and is not diagonal);
    #   (c) averaged over fading, R^H R = [A G]^H diag(E|h|^2) [A G] is
    #       diagonal;
    #   (d) A A^H = kappa^2 P diag(a) P with P = B B^H, kappa^2 set by the
    #       requested budget: the orthogonal projection of the diagonal
    #       target onto the realizable family, so what remains off the
    #       diagonal is the structural minimum.
    # The literal ratio, rank(R) and the det-rate against the
    # per-subcarrier diag-rate are printed; validate checks the Hadamard
    # direction of that rate gap.
    ctx, layout, cfg = reference
    scenario = build_scenario(0.3, 1.0, 20.0, "pu")
    a, g = uniform_split(layout, scenario, 0.5)
    pre = realize_precoders(ctx, layout, a, g)
    rng = _rng(84)
    ch = draw_channels(scenario, cfg.specs, cfg.m, rng)
    x_pu = zmcscg(rng, layout.q, scenario.p_pu)
    v2 = zmcscg(rng, cfg.m, scenario.sigma2_v[2])
    h_24 = ch.freq[2, 4]
    h_su = h_24 * (ch.freq[1, 2] * (layout.theta @ x_pu) + v2)
    n = layout.n_sym
    tx = np.hstack([pre.a, pre.g])
    rx = np.hstack([h_su[:, None] * pre.a, h_24[:, None] * pre.g])

    tx_ratio = _offdiag_ratio(tx.conj().T @ tx)
    rx_gram = rx.conj().T @ rx
    cross = float(np.linalg.norm(rx_gram[:n, n:], "fro") / np.trace(rx_gram).real)
    vc_ratio = _offdiag_ratio(rx_gram[n:, n:])
    s24 = scenario.link_variance(2, 4)
    mean_gain = np.where(
        layout.uc_mask(),
        s24 * (scenario.link_variance(1, 2) * scenario.p_pu + scenario.sigma2_v[2]),
        s24)
    avg_ratio = _offdiag_ratio(tx.conj().T @ (mean_gain[:, None] * tx))
    basis = ctx.pi_idft @ layout.upsilon_vc
    proj = basis @ basis.conj().T
    proj_a = proj * (layout.theta @ np.full(layout.q, a))[None, :]
    kappa2 = layout.q * a / np.trace(proj_a).real
    a_gram = pre.a @ pre.a.conj().T
    proj_err = float(np.linalg.norm(a_gram - kappa2 * proj_a @ proj, "fro")
                     / np.trace(a_gram).real)

    subcarrier_gram = rx @ rx.conj().T
    literal = _offdiag_ratio(subcarrier_gram)
    rank = np.linalg.matrix_rank(rx)
    nu = np.where(layout.uc_mask(),
                  scenario.link_variance(1, 4) * scenario.p_pu + scenario.sigma2_v[4],
                  scenario.sigma2_v[4])
    _, logdet = np.linalg.slogdet(np.eye(cfg.m) + subcarrier_gram / nu[:, None])
    det_rate = logdet / np.log(2.0)
    diag_rate = np.log2(1.0 + np.diag(subcarrier_gram).real / nu).sum()

    ok = max(tx_ratio, cross, vc_ratio, avg_ratio, proj_err) <= 1e-9
    assert _report(
        "criterion 8 (SU Gram diagonalization)", ok,
        f"off-diagonal mass / trace (required <= 1e-9): transmit [A G] "
        f"{tx_ratio:.1e}, receive cross-branch {cross:.1e}, receive VC block "
        f"{vc_ratio:.1e}, fading-averaged receive {avg_ratio:.1e}; "
        f"|A A^H - kappa^2 P diag(a) P| / trace {proj_err:.1e}; "
        f"not attainable: literal {cfg.m}x{cfg.m} ratio {literal:.3f} at "
        f"rank(R) = {rank}, det-rate {det_rate:.2f} vs diag-rate "
        f"{diag_rate:.2f} bits")
