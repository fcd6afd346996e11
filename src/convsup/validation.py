"""Self-validation suite behind ``convsup validate``: the oracle and
invariant checks that tie the closed forms, the Monte Carlo estimators and
the sample-exact time-domain chain together.

Each line ``name`` of the report is decided by the function ``name_check``
alone, the one implementation of its oracle, which returns ``(ok, detail)``.
A check whose line reads other than PASS when it holds returns that status
third.  ``validate_suite`` runs them all at the reference scenario of ``harness``,
and the acceptance tests call the same functions with their own seeds and
sizes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .capacity import (bessel_k1, check_pu_monotonicity, outage_mc, psi,
                       pu_outage_probability)
from .channel import (_CHUNK, _complex_gaussian, draw_channels,
                      frequency_response, trials, zmcscg)
from .harness import (ScenarioSpec, build_scenario, check_accepted,
                      reference_link_specs)
from .precoding import (csit_objective, realize_precoders, srx_noise_floor,
                        uc_power_coefficient, uniform_split, waterfill_faults,
                        waterfill_power, waterfill_thresholds, waterfilling_profile)
from .spectral import (InconsistentResponseError, build_spectral_context,
                       build_vc_layout, filter_frequency_response,
                       min_norm_filter)
from .transceiver import (FrameConfig, FrameSimulator, draw_noise_blocks,
                          pu_frequency_model, srx_frequency_model, stx_power_mc,
                          zero_noise)

__all__ = ["CheckResult", "ValidationReport", "validate_suite"]

# points per block of the KS supremum search, and the slack its block
# bounds leave for rounding of the computed CDF (see _ks_test)
_KS_BLOCK = 64
_KS_MARGIN = 1e-12


@dataclass
class CheckResult:
    name: str
    status: str  # PASS | FAIL | SKIP
    detail: str
    seconds: float  # wall time of the check


@dataclass
class ValidationReport:
    checks: list

    @property
    def ok(self) -> bool:
        return all(c.status != "FAIL" for c in self.checks)

    def render(self) -> str:
        """One ``[STATUS] name: detail`` line per check, then the overall
        verdict.  The check times are left out, so that a seed and sizes
        always render the same bytes."""
        lines = [f"[{c.status:4s}] {c.name}: {c.detail}" for c in self.checks]
        lines.append(f"overall: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def _reference_setup():
    """The reference scenario and frame configuration, the power ``g`` of
    each virtual subcarrier under the uniform split with the reference share
    of the budget on them, and the split's realized precoders:
    ``(scenario, cfg, g, pre)``."""
    spec = ScenarioSpec()
    scenario = spec.network()
    ctx, layout, l_cp = spec.spectral()
    cfg = FrameConfig(ctx=ctx, layout=layout, l_cp=l_cp,
                      specs=reference_link_specs())
    a, g = uniform_split(layout, scenario, spec.vc_power_fraction)
    return scenario, cfg, g, realize_precoders(ctx, layout, a, g)


def _outage_scenario(k: float):
    """The scenario at 20 dB primary SNR, unit power ratio and eta = 3 whose
    outage parameter is ``k``: with equal noise figures kappa = d12^(eta/2)."""
    return build_scenario(k ** (2.0 / 3.0), 1.0, 20.0, "pu")


def _rel_err(got, model) -> np.ndarray:
    """Per frame, max |got - model| over max |model|."""
    return np.abs(got - model).max(axis=-1) / np.abs(model).max(axis=-1)


def frame_equivalence_errors(scenario, cfg, pre, n_frames, rng) -> tuple[float, float]:
    """Worst relative deviation of the simulated chain with the precoders
    ``pre`` from the per-subcarrier models at both receivers, over random
    frames with random previous-frame content (exercising interference
    removal) and receiver noise from ``draw_noise_blocks`` at every node, so
    that v2, v3 and v4 each enter the models at the receivers they reach.
    All frames of a batch of ``channel.trials`` run as two batched steps: a
    random warm-up frame that feeds the inter-block path, then the measured
    frame."""
    layout, ctx = cfg.layout, cfg.ctx
    sim = FrameSimulator(cfg, pre)

    def sample(n):
        sim.reset()
        for _ in range(2):
            channels = draw_channels(scenario, cfg.specs, cfg.m, rng, batch=(n,))
            x_pu = zmcscg(rng, (n, layout.q), scenario.p_pu)
            x1 = zmcscg(rng, (n, layout.n_sym))
            x2 = zmcscg(rng, (n, layout.m_vc))
            noises = draw_noise_blocks(cfg, scenario, rng, (n,))
            trace = sim.step(channels, x_pu, x1, x2, noises)
        v2_f, v3_f, v4_f = (noise[:, cfg.l_cp:] @ ctx.w_dft.T for noise in
                            (noises.v2, noises.v3, noises.v4))
        model_pu = pu_frequency_model(channels, pre, layout, x_pu, x1, x2,
                                      v2_f=v2_f, v3_f=v3_f)
        model_su = srx_frequency_model(channels, pre, layout, x_pu, x1, x2,
                                       v2_f=v2_f, v4_f=v4_f)
        return np.stack([_rel_err(trace.y_pu_f, model_pu),
                         _rel_err(trace.y_su_f, model_su)], axis=-1)
    worst_pu, worst_su = trials(n_frames, sample).max
    return float(worst_pu), float(worst_su)


def frequency_equivalence_check(scenario, cfg, pre, n_frames, rng):
    """The simulated chain with the precoders ``pre`` matches the
    per-subcarrier models at both receivers, to 1e-10 relative, over
    ``n_frames`` noisy frames of ``frame_equivalence_errors``."""
    worst_pu, worst_su = frame_equivalence_errors(scenario, cfg, pre, n_frames, rng)
    return worst_pu <= 1e-10 and worst_su <= 1e-10, (
        f"{n_frames} noisy frames, max rel err PRx {worst_pu:.2e}, SRx {worst_su:.2e}")


def noise_path_identity_check(scenario, cfg, pre, n_frames, rng):
    """The relayed secondary-chain noise at the primary receiver matches its
    diagonal model, to 1e-10 relative, with prefix-structured noise,
    through the precoders ``pre``; two batched steps per batch, as in
    ``frame_equivalence_errors``.  The virtual-subcarrier symbols are zero,
    so only A enters, and the identity holds for any A."""
    layout, ctx = cfg.layout, cfg.ctx
    sim = FrameSimulator(cfg, pre)
    zeros_pu = np.zeros(layout.q)
    zeros_vc = np.zeros(layout.m_vc)

    def sample(n):
        sim.reset()
        for _ in range(2):
            channels = draw_channels(scenario, cfg.specs, cfg.m, rng, batch=(n,))
            x1 = zmcscg(rng, (n, layout.n_sym))
            w_block = zmcscg(rng, (n, cfg.m), scenario.sigma2_v[2])
            v2 = np.concatenate([w_block[:, -cfg.l_cp:], w_block], axis=-1)
            noises = replace(zero_noise(cfg, (n,)), v2=v2)
            trace = sim.step(channels, zeros_pu, x1, zeros_vc, noises)
        model = (channels.freq[2, 3] * (x1 @ pre.a.T) * (w_block @ ctx.w_dft.T))
        return _rel_err(trace.y_pu_f, model)
    worst = float(trials(n_frames, sample).max)
    return worst <= 1e-10, f"prefix-structured relayed noise, max rel err {worst:.2e}"


def cp_condition_tightness_check(scenario, cfg, pre, n_frames, rng):
    """Designed negative: with a prefix one sample shorter than ``cfg``'s,
    generic channels leak the previous block, so over ``n_frames`` frames
    the primary receiver misses its model by more than 1e-6 relative."""
    short = replace(cfg, l_cp=cfg.l_cp - 1, enforce_cp=False)
    worst_pu, worst_su = frame_equivalence_errors(scenario, short, pre, n_frames, rng)
    return worst_pu > 1e-6, (f"one-sample-short prefix leaks interference: rel err "
                             f"{worst_pu:.2e} (PRx), {worst_su:.2e} (SRx)")


def validate_suite(seed: int = 20260809, trials: int = 100_000,
                   n_frames: int = 1000) -> ValidationReport:
    """Run every oracle and invariant check; a failed check becomes a FAIL
    entry of the report.  The frame, noise-path, power and precoder checks
    share the precoders of ``_reference_setup``.  Sizes or a seed outside
    their rows of ``harness.ACCEPTED`` raise ``ValueError`` before any check
    runs.  A ``convsup validate`` option left out takes its default here.
    """
    check_accepted(seed=seed, trials=trials, n_frames=n_frames)
    checks: list[CheckResult] = []
    root = np.random.SeedSequence(seed)
    streams = [np.random.default_rng(s) for s in root.spawn(16)]
    # the checks run one after another, so each one's wall time is the time
    # since the previous record, set-up included
    last = time.perf_counter()

    def record(name, ok, detail, passed="PASS"):
        nonlocal last
        now = time.perf_counter()
        checks.append(CheckResult(name, passed if ok else "FAIL", detail, now - last))
        last = now

    scenario, cfg, g, pre = _reference_setup()
    layout, n_draws = cfg.layout, min(trials, 100_000)
    record("spectral_consistency", *spectral_consistency_check(cfg.ctx, streams[0]))
    record("frequency_equivalence",
           *frequency_equivalence_check(scenario, cfg, pre, n_frames, streams[1]))
    record("noise_path_identity",
           *noise_path_identity_check(scenario, cfg, pre, 200, streams[2]))
    record("cp_condition_tightness",
           *cp_condition_tightness_check(scenario, cfg, pre, 20, streams[3]))
    record("special_functions", *special_functions_check())
    record("outage_closed_form",
           *outage_closed_form_check(layout, trials, streams[4].integers(2 ** 63, size=3)))
    record("waterfilling", *waterfilling_check(streams[5]))
    record("pu_budget_monotonicity",
           *pu_budget_monotonicity_check(layout, min(trials, 20_000), seed))
    record("monotonicity_hypothesis_gate", *monotonicity_hypothesis_gate_check(layout, seed))
    record("channel_statistics",
           *channel_statistics_check(scenario, cfg.specs, n_draws, streams[6]))
    record("product_density_ks",
           *product_density_ks_check(scenario, 1_000_000, streams[7]))
    record("power_accounting",
           *power_accounting_check(scenario, cfg, pre, n_draws, streams[8]))
    record("precoder_structure",
           *precoder_structure_check(scenario, cfg, g, pre, streams[9]))
    return ValidationReport(checks=checks)


_CONSISTENCY_DRAWS = 200


def spectral_consistency_check(ctx, rng):
    """Random realizable responses of ``ctx`` survive the minimal-norm round
    trip, and a generic M-vector is rejected as not realizable."""
    worst = 0.0
    for _ in range(_CONSISTENCY_DRAWS):
        f = filter_frequency_response(ctx, zmcscg(rng, ctx.l_su + 1))
        rec = filter_frequency_response(ctx, min_norm_filter(ctx, f))
        worst = max(worst, np.linalg.norm(rec - f) / np.linalg.norm(f))
    try:
        min_norm_filter(ctx, zmcscg(rng, ctx.m))
        fired = False
    except InconsistentResponseError:
        fired = True
    return worst <= 1e-10 and fired, (
        f"reconstruction rel err {worst:.2e} over {_CONSISTENCY_DRAWS} draws; "
        f"inconsistency detected: {fired}")


# from the logarithmic singularity of K_1 at 0 to the exponential tail
_K_GRID = (0.02, 0.05, 0.1, 0.3, 0.5, 1.0, 2.0, 2.5, 5.0, 7.0, 10.0)
_PSI_GRID = np.logspace(-4, 6, 41)
# step of the trapezoid sums behind the psi and K1 references; their
# integrands are analytic and decay at least exponentially, so the sums
# converge exponentially in 1/step (L. N. Trefethen and J. A. C. Weideman,
# SIAM Review 56(3), 2014): 0.2 is exact to a few 1e-15, 0.4 only to 1e-6
_REF_STEP = 0.2


def special_functions_check():
    """psi and K_1 against trapezoid sums of their integrals, which share no
    code with the series, rational and Chebyshev kernels, plus both
    asymptotes of psi."""
    ref = _psi_trapezoid(_PSI_GRID)
    worst_psi = float(np.max(np.abs(psi(_PSI_GRID) - ref) / ref))
    x = np.array(_K_GRID)
    ref = _bessel_k1_trapezoid(x)
    worst_k = float(np.max(np.abs(bessel_k1(x) - ref) / ref))
    small = abs(psi(1e-3) / 1e-3 - 1.0)
    large = abs(psi(1e6) / (np.log1p(1e6) - np.euler_gamma) - 1.0)
    ok = worst_psi <= 1e-8 and worst_k <= 1e-8 and small <= 2e-3 and large <= 1e-4
    return ok, (f"psi vs quadrature {worst_psi:.2e}, K vs quadrature "
                f"{worst_k:.2e} at {len(_K_GRID)} points, asymptote deviations "
                f"{small:.2e} (<=2e-3) and {large:.2e} (<=1e-4)")


def _psi_trapezoid(a):
    # psi(a) = int_0^inf e^{-u} log1p(a u) du; in t = ln u the integrand
    # e^{t - e^t} log1p(a e^t) decays like a e^{2t} below and doubly
    # exponentially above, so t in [-40, 4] leaves tails below 1e-20 relative
    u = np.exp(np.arange(-40.0, 4.0 + _REF_STEP / 2, _REF_STEP))
    f = u * np.exp(-u) * np.log1p(np.multiply.outer(a, u))
    return _REF_STEP * f.sum(axis=-1)


def _bessel_k1_trapezoid(x):
    # K_1(x) = int_0^inf exp(-x cosh s) cosh(s) ds, an even integrand
    # decaying doubly exponentially: s in [0, 8] with half weight at s = 0
    # leaves a tail below 1e-14 relative at x = 0.02
    s = np.arange(0.0, 8.0 + _REF_STEP / 2, _REF_STEP)
    f = np.exp(-np.multiply.outer(x, np.cosh(s))) * np.cosh(s)
    return _REF_STEP * (f.sum(axis=-1) - 0.5 * f[..., 0])


def outage_closed_form_check(layout, trials, seeds):
    """Monte Carlo outage against 1 - 2kK1(2k) at k = 0.05, 0.2 and 1, one
    seed per k.  The same seed drives the used-subcarrier weights of three
    uniform splits of ``layout`` (no virtual power, 0.1 and 0.5 of the
    budget on the virtual subcarriers), whose outage must agree exactly."""
    worst = 0.0
    details = []
    for kap, seed in zip((0.05, 0.2, 1.0), seeds):
        scenario = _outage_scenario(kap)
        p_out = [outage_mc(scenario, uniform_split(layout, scenario, fraction)[0],
                           trials, np.random.default_rng(seed))
                 for fraction in (0.0, 0.1, 0.5)]
        p, se = p_out[0]
        if any(other != p for other, _ in p_out[1:]):
            return False, (f"profile dependence at kappa={kap}: "
                           f"{[v for v, _ in p_out]}")
        closed = pu_outage_probability(scenario)
        dev = abs(p - closed) / max(se, 1e-12)
        worst = max(worst, dev)
        details.append(f"k={kap}: mc {p:.4f} vs closed {closed:.4f} ({dev:.1f} se)")
    return worst <= 3.0, "; ".join(details) + "; profile-invariant"


def pu_budget_monotonicity_check(layout, n_trials, seed):
    """At kappa = 0.05 the exact primary rate of ``check_pu_monotonicity``
    does not fall over eight budgets from 0.25 to 2 with half of each on
    the virtual subcarriers of ``layout``, and the Monte Carlo means of
    ``n_trials`` draws from ``seed``, the quadrature's oracle, stay within
    3 standard errors of it at every budget."""
    ok, rep = check_pu_monotonicity(_outage_scenario(0.05), layout,
                                    np.geomspace(0.25, 2.0, 8), n_trials, seed)
    if not rep["hypothesis_met"]:
        return False, rep["note"]
    gap = max(abs(m - e) / se for m, e, se in
              zip(rep["means"], rep["exact"], rep["stderrs"]))
    return ok and gap <= 3.0, (
        f"kappa={rep['kappa']:.3f}, violations={len(rep['violations'])}, "
        f"Monte Carlo vs quadrature max {gap:.2f} se over "
        f"{len(rep['means'])} budgets")


def monotonicity_hypothesis_gate_check(layout, seed):
    """At kappa = 5, outside the small-kappa regime, ``check_pu_monotonicity``
    makes no claim.  Its gate tripping is reported, not asserted: the line
    then reads SKIP, and FAIL if the gate does not trip."""
    _, rep = check_pu_monotonicity(_outage_scenario(5.0), layout, [0.5, 1.0], 1000, seed)
    return (not rep["hypothesis_met"],
            f"kappa={rep['kappa']:.2f}: " + rep.get("note", "gate failed to trip"), "SKIP")


_WATERFILLING_INSTANCES = 1000
# shares t = w_k 2^-i, i < _TRANSFER_STEPS, that the transfer test moves
# from each donor k; and the rounding allowance, in bits, of its objective
_TRANSFER_STEPS = 41
_TRANSFER_TOL = 1e-12


def waterfilling_check(rng):
    """On random 8-subcarrier instances the waterfilling profile spends the
    budget, leaves no inactive subcarrier below the water level, and no
    uniform split beats it; on one instance no pairwise transfer of budget
    beats it either.

    The instances are drawn one by one and waterfilled as one batch; a
    budget or level fault fails the check and names the worst instance.

    The rate is concave in the shares w of the budget, and the feasible
    set is the simplex, whose tangent cone at w is spanned by the transfers
    e_j - e_k from each coordinate k with w_k > 0 to any other j.  So w is
    optimal exactly when no small pairwise transfer raises the rate (S. Boyd
    and L. Vandenberghe, *Convex Optimization*, 2004, 4.2.3), and a finite
    set of transfers tests it in every direction, where random profiles
    only sample it.  On the search instance each donor k moves
    t = w_k 2^-i, i = 0..40, to each other coordinate (``_pairwise_transfers``):
    at most 56 pairs of 41 steps.  No transfer may gain more than
    ``_TRANSFER_TOL`` = 1e-12 bits, and the test's own objective at the
    waterfill must agree with ``csit_objective`` to the same tolerance.
    The allowance covers rounding of rates of a few tens of bits, whose
    last place is a few 1e-15; a budget move of 1e-6 between the two
    largest shares already loses 6e-12 bits at ``validate``'s default
    seed, a move onto an inactive subcarrier far more.
    """
    ctx = build_spectral_context(8, 5)
    layout = build_vc_layout(ctx, (0, 4))
    worst_resid, n_beat, faults = _waterfill_instances(layout, rng)
    detail = (f"max budget residual {worst_resid:.2e}, uniform splits beat it "
              f"{n_beat}x in {_WATERFILLING_INSTANCES} instances")
    scenario = build_scenario(0.7, 1.0, 15.0, "su")
    h_su = zmcscg(rng, 8)
    h_24 = zmcscg(rng, 8)
    try:
        a, g = waterfilling_profile(layout, scenario, h_su, h_24)
    except AssertionError as exc:
        return False, "; ".join([detail, *faults, f"search instance: {exc}"])
    n_points, gain, (donor, taker), f_star = _pairwise_transfers(
        layout, scenario, h_su, h_24, a, g)
    mismatch = abs(f_star - csit_objective(layout, scenario, a, g, h_su, h_24))
    if gain > _TRANSFER_TOL:
        faults.append(f"moving budget from subcarrier {donor} to subcarrier "
                      f"{taker} gains {gain:.3e} bits")
    if mismatch > _TRANSFER_TOL:
        faults.append(f"transfer objective differs from csit_objective by "
                      f"{mismatch:.3e} bits")
    ok = not faults and n_beat == 0
    return ok, "; ".join([f"{detail}, best of {n_points} pairwise transfers "
                          f"gains {gain:.3e} bits", *faults])


def _pairwise_transfers(layout, scenario, h_su, h_24, a, g):
    """Score every pairwise transfer of ``waterfilling_check`` from the
    shares w* of the allocation ``(a, g)``: the number of points, the best
    gain over f(w*) in bits, its (donor, taker) subcarriers, and f(w*).

    f(w) = log2 prod_k (1 + scale_k w_k) is written out here, not taken from
    ``precoding.csit_objective``, so the oracle stays independent of it."""
    # the SRx noise floor is written out too, not taken from
    # precoding.srx_noise_floor
    nu_uc = scenario.link_variance(1, 4) * scenario.p_pu + scenario.sigma2_v[4]
    coef = uc_power_coefficient(scenario)
    # SNR per unit share of the budget: spend / coef on a used subcarrier
    # against nu_uc, spend on a virtual one against sigma2_v4
    scale = scenario.p_su * np.concatenate([
        np.abs(h_su[list(layout.uc_indices)]) ** 2 / nu_uc / coef,
        np.abs(h_24[list(layout.vc_indices)]) ** 2 / scenario.sigma2_v[4]])
    share = np.concatenate([coef * a, g]) / scenario.p_su
    subcarrier = [*layout.uc_indices, *layout.vc_indices]

    def rate(w):
        # a product of a few factors cannot overflow
        return np.log2(np.prod(1.0 + scale * w, axis=-1))

    donor, taker = (ix.ravel() for ix in np.indices((share.size,) * 2))
    pair = (donor != taker) & (share[donor] > 0.0)
    donor, taker = donor[pair], taker[pair]
    step = share[donor, None] * 0.5 ** np.arange(_TRANSFER_STEPS)
    eye = np.eye(share.size)
    # adding 0 leaves a coordinate's bits, so only the pair's two move
    w = share + step[..., None] * (eye[taker] - eye[donor])[:, None, :]
    f_star = float(rate(share))
    gain = rate(w) - f_star
    best = int(gain.max(axis=1).argmax())  # the pair of the best transfer
    return (gain.size, float(gain.max()),
            (subcarrier[donor[best]], subcarrier[taker[best]]), f_star)


def _waterfill_instances(layout, rng):
    """Worst relative budget residual, the count of uniform splits (0.25 and
    0.4 of the budget on the virtual subcarriers) that beat the waterfill,
    and the fault messages, over ``_WATERFILLING_INSTANCES`` random
    instances waterfilled as one batch."""
    q, n = layout.q, _WATERFILLING_INSTANCES
    levels = np.empty((4, n))  # p_su, coef, nu_uc, sigma2_v4 of each instance
    # per instance the normals of two zmcscg(rng, M) draws in their order:
    # re h_su, im h_su, re h_24, im h_24
    normals = np.empty((n, 4, layout.m))
    splits = np.empty((2, 2, n))  # (a, g) of each instance's two uniform splits
    for i in range(n):
        scenario = build_scenario(float(rng.uniform(0.2, 1.5)),
                                  float(rng.uniform(0.5, 4.0)),
                                  float(rng.uniform(0.0, 25.0)), "su")
        levels[:, i] = (scenario.p_su, uc_power_coefficient(scenario),
                        srx_noise_floor(scenario), scenario.sigma2_v[4])
        splits[:, :, i] = [uniform_split(layout, scenario, f) for f in (0.25, 0.4)]
        rng.standard_normal(out=normals[i])
    h = _complex_gaussian(normals[:, 0::2], normals[:, 1::2], 1.0)  # h_su, h_24
    p_su, coef, nu_uc, nu_vc = levels
    gain = np.abs(h) ** 2
    thr = waterfill_thresholds(coef[:, None], nu_uc[:, None], nu_vc[:, None],
                               gain[:, 0, list(layout.uc_indices)],
                               gain[:, 1, list(layout.vc_indices)])
    spend, mu = waterfill_power(thr, p_su)
    residual, shortfall = waterfill_faults(thr, spend, mu, coef, p_su, q)
    resid = np.abs(residual) / p_su
    rate = np.log2(1.0 + spend / thr).sum(axis=1)
    n_beat = 0
    for a, g in splits:  # a used subcarrier spends coef a
        uni = np.where(np.arange(layout.m) < q, (coef * a)[:, None], g[:, None])
        n_beat += int(np.count_nonzero(
            rate < np.log2(1.0 + uni / thr).sum(axis=1) - 1e-12))
    faults = []
    if resid.max() > 1e-9:
        worst = int(resid.argmax())
        faults.append(f"instance {worst} misses the budget by {residual[worst]:.3e}")
    if shortfall.max() > 1e-12:
        worst = int(shortfall.argmax())
        faults.append(f"{np.count_nonzero(shortfall > 1e-12)} instances leave an "
                      f"inactive subcarrier below the water level, worst {worst} "
                      f"by {shortfall[worst]:.3e} of it")
    return float(resid.max()), n_beat, faults


def channel_statistics_check(scenario, specs, n_draws, rng):
    """|H12(0)|^2 and |H23(0)|^2 follow exponential laws with the link
    variances, and H12(0), H23(0) are uncorrelated.  Only subcarrier 0 is
    read, so the draws ask for one-point responses: H(0) is the tap sum at
    any grid size.  They run in batches of ``_CHUNK``, which consume the
    stream as one batched draw does, and keep only H12(0) and H23(0)."""
    h12_0 = np.empty(n_draws, dtype=complex)
    h23_0 = np.empty(n_draws, dtype=complex)
    for lo in range(0, n_draws, _CHUNK):
        ch = draw_channels(scenario, specs, 1, rng, batch=(min(_CHUNK, n_draws - lo),))
        h12_0[lo:lo + _CHUNK] = ch.freq[1, 2][:, 0]
        h23_0[lo:lo + _CHUNK] = ch.freq[2, 3][:, 0]
    s12 = scenario.link_variance(1, 2)
    s23 = scenario.link_variance(2, 3)
    mag12 = np.abs(h12_0) ** 2
    mean_dev = abs(mag12.mean() - s12) / (s12 / np.sqrt(n_draws))
    cross = np.abs(np.mean(h12_0 * h23_0.conj()))
    cross_se = np.sqrt(s12 * s23 / n_draws)
    # the exponential CDF 1 - exp(-v/s) as -expm1(-v/s), exact near v = 0
    _, p12 = _ks_test(mag12, lambda v: -np.expm1(-(v / s12)))
    _, p23 = _ks_test(np.abs(h23_0) ** 2, lambda v: -np.expm1(-(v / s23)))
    ok = mean_dev <= 3.0 and cross <= 3.0 * cross_se and min(p12, p23) > 0.01
    return ok, (f"|H12|^2 mean within {mean_dev:.1f} se, cross-corr "
                f"{cross / cross_se:.1f} se, KS p={p12:.3f} (|H12|^2) and "
                f"p={p23:.3f} (|H23|^2) over {n_draws} draws")


def product_density_ks_check(scenario, n_draws, rng):
    """The product of two unit exponentials, scaled by sigma2_23, against
    its K-function law P(Z <= v) = 1 - t K1(t), t = 2 sqrt(v / sigma2_23)."""
    s23 = scenario.link_variance(2, 3)
    # (s23 * E1) * E2 in place: the second factor is drawn and multiplied
    # in batches of _CHUNK, which consume the stream as one draw does
    z = rng.exponential(size=n_draws)
    z *= s23
    for lo in range(0, n_draws, _CHUNK):
        z[lo:lo + _CHUNK] *= rng.exponential(size=min(_CHUNK, n_draws - lo))

    def cdf(v):
        t = 2.0 * np.sqrt(v / s23)  # v > 0: every draw is positive
        return 1.0 - t * bessel_k1(t)

    _, p = _ks_test(z, cdf)
    return p > 0.01, f"product-magnitude law KS p={p:.3f} over {n_draws} draws"


def _ks_test(sample, cdf):
    """Two-sided one-sample Kolmogorov-Smirnov test of ``sample`` against
    the vectorized, non-decreasing ``cdf``: returns (D, p-value).

    D = max(D+, D-) on the sorted sample x_0 <= ... <= x_{n-1}, with
    D+ = max_i (i+1)/n - F(x_i) and D- = max_i F(x_i) - i/n, to the bit of
    scipy's ``kstest``, but ``cdf`` is called only where the supremum can
    lie.  The sample is cut into blocks of ``_KS_BLOCK`` points [a, b] and
    F is first evaluated at the edges x_a and x_b.  The edge terms are
    terms of the maximum, so their largest is a lower bound on D.  Since F
    is non-decreasing, every inner point a < i < b has
    F(x_a) <= F(x_i) <= F(x_b), so its D+ term is at most b/n - F(x_a) and
    its D- term at most F(x_b) - (a+1)/n; rounding keeps both
    inequalities, as float division and subtraction are monotone.  Only
    the blocks whose bound reaches the lower bound less ``_KS_MARGIN`` are
    evaluated inside.  A computed F may step down by a few ulps where the
    true law rises (1 - t K1(t) is a difference of two rounded values),
    which lifts an inner term above its bound by as much.  The margin,
    1e-12, is a thousand times any such wiggle of a value in [0, 1], so D
    stays exact.  (The bound of a whole block, edges included, would be
    1/n higher and hide wiggles below 1/n without the margin; the inner
    bound leaves the margin alone to cover them.)  On a 1M-point sample
    about 4 % of the points are evaluated.

    The p-value is ``_ks_pvalue(n, D)``.  ``sample`` is sorted in place,
    so a caller that needs its order passes a copy.
    """
    x = sample
    x.sort()
    n = x.size
    first = np.arange(0, n, _KS_BLOCK)
    last = np.minimum(first + (_KS_BLOCK - 1), n - 1)
    f_first = cdf(x[first])
    f_last = cdf(x[last])
    d_edges = max(_ks_terms(first, f_first, n), _ks_terms(last, f_last, n))
    bound = np.maximum(last / n - f_first, f_last - (first + 1) / n)
    open_first = first[bound >= d_edges - _KS_MARGIN]
    inner = (open_first[:, None] + np.arange(1, _KS_BLOCK - 1)).ravel()
    inner = inner[inner < n - 1]
    d = float(max(d_edges, _ks_terms(inner, cdf(x[inner]), n)))
    return d, _ks_pvalue(n, d)


def _ks_pvalue(n: int, d: float) -> float:
    """p-value of a two-sided one-sample Kolmogorov-Smirnov statistic ``d``
    of ``n`` points, by the rule of R. Simard and P. L'Ecuyer (J. Stat.
    Softw. 39(11), 2011) for the upper tail.

    At n D^2 >= 2.2 it is twice the one-sided Smirnov tail, the branch
    scipy's ``kstwo.sf`` takes there for n > 140; ``scipy.special`` is
    imported in that branch only.  Elsewhere it is Kolmogorov's limit law
    1 - K(y) = 2 sum_{k>=1} (-1)^(k-1) exp(-2 k^2 y^2) at y = sqrt(n) D,
    which stays above 0.024 there, so for n >= 100 a verdict at p > 0.01
    is the exact distribution's.  25 terms, summed exactly rounded, leave
    a tail below exp(-50) for y >= 0.2; below 0.2, where the series has
    not converged, 1 - K(y) is within 1e-12 of 1 and the p-value is 1.
    """
    if n * d * d >= 2.2:
        from scipy.special import smirnov
        return min(1.0, 2.0 * float(smirnov(n, d)))
    y = math.sqrt(n) * d
    if y < 0.2:
        return 1.0
    return 2.0 * math.fsum((-1) ** (k - 1) * math.exp(-2.0 * k * k * y * y)
                           for k in range(1, 26))


def _ks_terms(index, cdfvals, n):
    """Largest D+ and D- term of the sorted points at ``index``; -inf for
    none."""
    return max(np.max((index + 1) / n - cdfvals, initial=-np.inf),
               np.max(cdfvals - index / n, initial=-np.inf))


def power_accounting_check(scenario, cfg, pre, n_frames, rng):
    """The simulated secondary transmit energy of the precoders ``pre``
    matches the budget."""
    mean, se = stx_power_mc(cfg, scenario, pre, n_frames, rng)
    dev = abs(mean - scenario.p_su) / se
    return dev <= 3.0, (f"E||z2||^2 = {mean:.5f} vs budget {scenario.p_su} "
                        f"({dev:.1f} se over {n_frames} frames)")


_RATE_DRAWS = 1000
# draws per block of realized_rates: R and its temporaries are a few
# (block, M, K) complex arrays, 0.56 MB each at the reference size
_RATE_ROWS = 50


def realized_rates(scenario, cfg, pre, n_draws, rng):
    """Det-rate and per-subcarrier diag-rate (bits per block) of the realized
    precoder pair (A, G) at the secondary receiver, one of each per fading
    draw.

    With R = [h_su * A, h24 * G] (M x K, K = N + M_vc) and the noise floors
    nu, the det-rate is log2 det(I_M + R R^H / nu); Sylvester's identity
    turns it into log2 det(I_K + R^H diag(1/nu) R), one batched K x K
    ``slogdet``.  The diag-rate sums log2(1 + (R R^H)_mm / nu_m) over the
    subcarriers, the per-subcarrier form the C_SU bound takes; Hadamard's
    inequality puts it above the det-rate on every draw.  The draws are
    taken whole; R and its Gram run over blocks of ``_RATE_ROWS`` draws,
    with the same bits at any block size on the installed BLAS (guarded by
    ``tests/test_row_blocks.py``).

    The taps of every link are drawn at M = 1, since the normals of a
    draw do not depend on M, and only H12 and H24 are formed at M.
    """
    layout = cfg.layout
    ch = draw_channels(scenario, cfg.specs, 1, rng, batch=(n_draws,))
    h12, h24 = (frequency_response(ch.taps[link], ch.offsets[link], cfg.m)
                for link in ((1, 2), (2, 4)))
    x_pu = zmcscg(rng, (n_draws, layout.q), scenario.p_pu)
    v2 = zmcscg(rng, (n_draws, cfg.m), scenario.sigma2_v[2])
    # out of place: numpy's complex multiply is not bit-symmetric in its
    # operands, so an in-place rewrite would move the last bits
    h_su = h24 * (h12 * (x_pu @ layout.theta.T) + v2)
    nu = np.where(layout.uc_mask(), srx_noise_floor(scenario), scenario.sigma2_v[4])
    eye = np.eye(pre.a.shape[-1] + pre.g.shape[-1])
    logdet = np.empty(n_draws)
    diag = np.empty(n_draws)
    for lo in range(0, n_draws, _RATE_ROWS):
        rows = slice(lo, lo + _RATE_ROWS)
        rx = np.concatenate([h_su[rows, :, None] * pre.a, h24[rows, :, None] * pre.g],
                            axis=-1)
        gram = rx.conj().swapaxes(-1, -2) @ (rx / nu[:, None])
        logdet[rows] = np.linalg.slogdet(eye + gram)[1]  # Hermitian PD
        diag[rows] = np.log2(1.0 + np.sum(np.abs(rx) ** 2, axis=-1) / nu).sum(axis=-1)
    return logdet / np.log(2.0), diag


def precoder_structure_check(scenario, cfg, g, pre, rng):
    """Of the precoders ``pre`` realized with the power ``g`` on each
    virtual subcarrier: null virtual rows of A, exact virtual Gram
    g xi xi^T, exact budget from the realized rows of A, and the Hadamard
    direction of the per-subcarrier rate against the realized mutual
    information on every one of ``_RATE_DRAWS`` fading draws; the detail
    reports both rates averaged over the draws."""
    layout = cfg.layout
    vc_rows = np.abs(pre.a[list(layout.vc_indices), :]).max(initial=0.0)  # 0 without VCs
    g_gram = pre.g @ pre.g.conj().T
    g_err = np.abs(g_gram - g * (layout.xi @ layout.xi.T)).max()
    rows = np.sum(np.abs(pre.a[list(layout.uc_indices)]) ** 2, axis=1)
    spent = uc_power_coefficient(scenario) * rows.sum() + layout.m_vc * g
    budget = abs(spent - scenario.p_su) / scenario.p_su
    det_rate, diag_rate = realized_rates(scenario, cfg, pre, _RATE_DRAWS, rng)
    ok = (vc_rows <= 1e-10 and g_err <= 1e-12 and budget <= 1e-9
          and np.all(det_rate <= diag_rate + 1e-9))
    return ok, (f"null rows {vc_rows:.1e}, vc gram err {g_err:.1e}, budget "
                f"residual {budget:.1e}, fading-averaged det-rate "
                f"{det_rate.mean():.3f} <= diag-rate {diag_rate.mean():.3f} "
                f"bits/block over {_RATE_DRAWS} draws")
