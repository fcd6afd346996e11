"""Batch experiment harness: reference scenario, scheme sweeps, CSV output
and the self-validation suite.

The reference layout normalizes the primary Tx-Rx distance to 1 and the
primary per-subcarrier power to 1; the secondary transmitter sits on a ray
leaving the primary transmitter at 60 degrees, parameterized by the swept
distance ratio.  Rates are bits/s/Hz; the manifest records the 20 MHz
anchor used to quote them in bits/s.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np
from scipy import integrate, special, stats

from . import __version__
from .channel import LinkSpec, NetworkScenario, draw_channels, zmcscg
from .capacity import (CapacityReport, baseline_nocr, baseline_ocr, bessel_k,
                       c_pu_direct, c_pu_lower, c_su_lower_csit,
                       c_su_lower_nocsit, check_pu_monotonicity, kappa,
                       outage_mc, psi, pu_outage_probability)
from .precoding import (csit_objective, power_residual, realize_precoders,
                        srx_noise_floor, uc_power_coefficient, uniform_profile,
                        waterfilling_profile)
from .spectral import (InconsistentResponseError, build_spectral_context,
                       build_vc_layout, filter_frequency_response,
                       min_norm_filter)
from .transceiver import (FrameConfig, FrameSimulator, NoiseBlocks,
                          draw_noise_blocks, pu_frequency_model,
                          required_cp_length, srx_frequency_model,
                          stx_power_mc, zero_noise)

__all__ = [
    "SCHEMES",
    "RATE_ANCHOR_HZ",
    "ScenarioSpec",
    "SweepConfig",
    "CheckResult",
    "ValidationReport",
    "reference_link_specs",
    "build_scenario",
    "evaluate_scheme",
    "run_sweep",
    "emit_csv",
    "validate_suite",
]

SCHEMES = ("proposed_with_vcs", "proposed_without_vcs", "ocr", "nocr")
SWEEP_VARIABLES = ("snr_pu_db", "snr_su_db", "d12_ratio", "power_ratio")
RATE_ANCHOR_HZ = 20e6  # Wi-Fi-style sampling rate used to quote bits/s

_NODE_PTX = (-0.5, 0.0)
_NODE_PRX = (0.5, 0.0)
_NODE_SRX = (0.0, 2.0)
_STX_ANGLE = math.pi / 3
_D13 = 1.0
_D14 = math.dist(_NODE_PTX, _NODE_SRX)


def reference_link_specs() -> dict[tuple[int, int], LinkSpec]:
    """Channel orders and time offsets of the reference experiments."""
    return {
        (1, 2): LinkSpec(order=1, offset=1),
        (1, 3): LinkSpec(order=3, offset=3),
        (1, 4): LinkSpec(order=3, offset=3),
        (2, 3): LinkSpec(order=2, offset=2),
        (2, 4): LinkSpec(order=2, offset=2),
    }


def stx_position(d12: float) -> tuple[float, float]:
    return (_NODE_PTX[0] + d12 * math.cos(_STX_ANGLE),
            _NODE_PTX[1] + d12 * math.sin(_STX_ANGLE))


def resolve_d12(ratio: float, ref: str) -> float:
    if ref == "d13":
        return ratio * _D13
    if ref == "d14":
        return ratio * _D14
    raise ValueError(f"d12_ref must be 'd13' or 'd14', got {ref!r}")


def build_scenario(d12: float, power_ratio: float, snr_db: float,
                   snr_ref: str, eta: float = 3.0) -> NetworkScenario:
    """Reference-geometry scenario: P_pu = 1, P_su = power_ratio, one common
    noise variance at all receivers set by the chosen SNR anchor."""
    p_pu = 1.0
    p_su = power_ratio * p_pu
    if snr_ref == "pu":
        sigma2 = p_pu / 10 ** (snr_db / 10)
    elif snr_ref == "su":
        sigma2 = p_su / 10 ** (snr_db / 10)
    else:
        raise ValueError(f"snr_ref must be 'pu' or 'su', got {snr_ref!r}")
    return NetworkScenario(
        coords={1: _NODE_PTX, 2: stx_position(d12), 3: _NODE_PRX, 4: _NODE_SRX},
        eta=eta, p_pu=p_pu, p_su=p_su,
        sigma2_v={2: sigma2, 3: sigma2, 4: sigma2})


@dataclass(frozen=True)
class ScenarioSpec:
    """Resolved scenario knobs of one sweep (before applying the swept
    variable).  ``vc_power_fraction`` is the share of the secondary budget
    sent over the virtual subcarriers by the uniform allocation."""

    d12_ratio: float = 0.3
    d12_ref: str = "d13"
    power_ratio: float = 1.0
    snr_db: float = 20.0
    snr_ref: str = "pu"
    eta: float = 3.0
    m_subcarriers: int = 64
    l_su: int = 10
    vc_indices: tuple[int, ...] = (0, 16, 32, 48)
    vc_power_fraction: float = 0.5

    def __post_init__(self):
        for name in ("d12_ratio", "power_ratio", "snr_db", "eta",
                     "vc_power_fraction"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"scenario field {name!r} must be finite, "
                                 f"got {getattr(self, name)}")

    def with_sweep_value(self, variable: str, value: float) -> "ScenarioSpec":
        if variable == "snr_pu_db":
            return replace(self, snr_db=float(value), snr_ref="pu")
        if variable == "snr_su_db":
            return replace(self, snr_db=float(value), snr_ref="su")
        if variable == "d12_ratio":
            return replace(self, d12_ratio=float(value))
        if variable == "power_ratio":
            return replace(self, power_ratio=float(value))
        raise ValueError(f"unknown sweep variable {variable!r}")

    def build(self):
        """Returns (scenario, ctx, layout, l_cp)."""
        d12 = resolve_d12(self.d12_ratio, self.d12_ref)
        scenario = build_scenario(d12, self.power_ratio, self.snr_db,
                                  self.snr_ref, self.eta)
        ctx = build_spectral_context(self.m_subcarriers, self.l_su)
        layout = build_vc_layout(ctx, self.vc_indices)
        l_cp = required_cp_length(reference_link_specs(), self.l_su)
        return scenario, ctx, layout, l_cp


@dataclass(frozen=True)
class SweepConfig:
    """One batch run: swept variable, grid, schemes and Monte Carlo size."""

    sweep_variable: str
    grid: tuple[float, ...]
    schemes: tuple[str, ...]
    csit: bool
    n_trials: int
    seed: int
    scenario: ScenarioSpec = field(default_factory=ScenarioSpec)

    def __post_init__(self):
        if self.sweep_variable not in SWEEP_VARIABLES:
            raise ValueError(f"sweep_variable must be one of {SWEEP_VARIABLES}")
        diffs = np.diff(self.grid)
        if (len(self.grid) == 0 or not np.all(np.isfinite(self.grid))
                or not (np.all(diffs > 0) or np.all(diffs < 0))):
            raise ValueError("grid must be non-empty, finite and strictly monotone")
        unknown = set(self.schemes) - set(SCHEMES)
        if unknown or not self.schemes:
            raise ValueError(f"schemes must be a non-empty subset of {SCHEMES}")
        if self.n_trials < 100:
            raise ValueError("n_trials must be at least 100")

    @classmethod
    def from_json(cls, path) -> "SweepConfig":
        """Read a JSON config; a missing or unknown key raises ``ValueError``
        naming it."""
        with open(path) as fh:
            raw = json.load(fh)
        sc = dict(raw.get("scenario", {}))
        for where, keys, known in (("config", raw, fields(cls)),
                                   ("scenario", sc, fields(ScenarioSpec))):
            unknown = sorted(set(keys) - {f.name for f in known})
            if unknown:
                raise ValueError(f"unknown {where} key(s) {unknown}")
        for key in ("sweep_variable", "grid"):
            if key not in raw:
                raise ValueError(f"config is missing the required key {key!r}")
        if "vc_indices" in sc:
            sc["vc_indices"] = tuple(sc["vc_indices"])
        return cls(sweep_variable=raw["sweep_variable"],
                   grid=tuple(float(v) for v in raw["grid"]),
                   schemes=tuple(raw.get("schemes", SCHEMES)),
                   csit=bool(raw.get("csit", False)),
                   n_trials=int(raw.get("n_trials", 100_000)),
                   seed=int(raw.get("seed", 0)),
                   scenario=ScenarioSpec(**sc))


def evaluate_scheme(scheme: str, scenario: NetworkScenario, layout, csit: bool,
                    n_trials: int, rng: np.random.Generator,
                    vc_power_fraction: float = 0.5,
                    cp_efficiency: float = 1.0) -> CapacityReport:
    """Capacity report of one scheme at one configuration."""
    direct = c_pu_direct(scenario, layout)
    if scheme == "ocr":
        su, su_se = baseline_ocr(scenario, layout, n_trials, rng)
        return CapacityReport(c_pu_lower=direct, c_pu_direct=direct,
                              delta_c_pu=0.0, c_su_lower=su,
                              mode="CSIT" if csit else "NOCSIT",
                              p_out=0.0, n_trials=n_trials,
                              std_err={"c_pu_lower": 0.0, "c_su_lower": su_se},
                              cp_efficiency=cp_efficiency)

    if scheme == "proposed_with_vcs":
        g = vc_power_fraction * scenario.p_su / layout.m_vc if layout.m_vc else 0.0
        use_vcs = True
    elif scheme == "proposed_without_vcs":
        g, use_vcs = 0.0, False
    elif scheme == "nocr":
        g, use_vcs = 0.0, False
    else:
        raise ValueError(f"unknown scheme {scheme!r}")

    profile = uniform_profile(layout, scenario, g)
    pu, pu_se = c_pu_lower(scenario, layout, profile, n_trials, rng)
    if scheme == "nocr":
        su, su_se = baseline_nocr(scenario, layout, n_trials, rng)
    elif csit:
        su, su_se = c_su_lower_csit(scenario, layout, n_trials, rng, use_vcs=use_vcs)
    else:
        su, su_se = c_su_lower_nocsit(scenario, layout, g, n_trials, rng)
    return CapacityReport(c_pu_lower=pu, c_pu_direct=direct,
                          delta_c_pu=pu - direct, c_su_lower=su,
                          mode="CSIT" if csit else "NOCSIT",
                          p_out=pu_outage_probability(scenario),
                          n_trials=n_trials,
                          std_err={"c_pu_lower": pu_se, "c_su_lower": su_se},
                          cp_efficiency=cp_efficiency)


def run_sweep(cfg: SweepConfig, threads: int = 1):
    """Run the sweep; returns (rows, manifest).

    One row per (grid value, scheme); every task draws from its own child of
    the root seed, indexed by position, so results do not depend on the
    thread count.
    """
    tasks = [(gi, si) for gi in range(len(cfg.grid)) for si in range(len(cfg.schemes))]
    children = np.random.SeedSequence(cfg.seed).spawn(len(tasks))
    resolved = []
    for gi, value in enumerate(cfg.grid):
        spec = cfg.scenario.with_sweep_value(cfg.sweep_variable, value)
        scenario, ctx, layout, l_cp = spec.build()
        resolved.append((spec, scenario, ctx, layout, l_cp))

    def work(task_idx: int) -> dict:
        gi, si = tasks[task_idx]
        spec, scenario, ctx, layout, l_cp = resolved[gi]
        scheme = cfg.schemes[si]
        rng = np.random.default_rng(children[task_idx])
        rep = evaluate_scheme(scheme, scenario, layout, cfg.csit, cfg.n_trials,
                              rng, vc_power_fraction=spec.vc_power_fraction,
                              cp_efficiency=layout.m / (layout.m + l_cp))
        return {
            "sweep_var": float(cfg.grid[gi]),
            "scheme": scheme,
            "c_pu_lower": rep.c_pu_lower,
            "c_pu_direct": rep.c_pu_direct,
            "delta_c_pu": rep.delta_c_pu,
            "c_su_lower": rep.c_su_lower,
            "p_out": rep.p_out,
            "stderr_c_pu_lower": rep.std_err["c_pu_lower"],
            "stderr_delta_c_pu": rep.std_err["c_pu_lower"],
            "stderr_c_su_lower": rep.std_err["c_su_lower"],
            "n_trials": cfg.n_trials,
            "seed": f"{cfg.seed}/{task_idx}",
        }

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(work, range(len(tasks))))
    else:
        rows = [work(i) for i in range(len(tasks))]

    manifest = {
        "version": __version__,
        "config": {
            "sweep_variable": cfg.sweep_variable,
            "grid": list(cfg.grid),
            "schemes": list(cfg.schemes),
            "csit": cfg.csit,
            "n_trials": cfg.n_trials,
            "seed": cfg.seed,
            "scenario": asdict(cfg.scenario),
        },
        "rate_anchor_hz": RATE_ANCHOR_HZ,
        "link_specs": {f"{i}-{j}": {"order": s.order, "offset": s.offset}
                       for (i, j), s in reference_link_specs().items()},
        "grid_points": [
            {
                "value": float(cfg.grid[gi]),
                "d12": resolve_d12(spec.d12_ratio, spec.d12_ref),
                "stx_position": list(stx_position(resolve_d12(spec.d12_ratio, spec.d12_ref))),
                "p_su": scenario.p_su,
                "sigma2_noise": scenario.sigma2_v[3],
                "kappa": kappa(scenario),
                "l_cp": l_cp,
                "cp_efficiency": layout.m / (layout.m + l_cp),
            }
            for gi, (spec, scenario, ctx, layout, l_cp) in enumerate(resolved)
        ],
    }
    return rows, manifest


_CSV_COLUMNS = ("sweep_var", "scheme", "c_pu_lower", "c_pu_direct", "delta_c_pu",
                "c_su_lower", "p_out", "stderr_c_pu_lower", "stderr_delta_c_pu",
                "stderr_c_su_lower", "n_trials", "seed")


def emit_csv(rows, path) -> None:
    """Write sweep rows with full double precision (round-trip exact)."""
    def fmt(key, value):
        if key in ("scheme", "seed"):
            return str(value)
        if key == "n_trials":
            return str(int(value))
        return f"{float(value):.17e}"

    with open(path, "w", newline="") as fh:
        fh.write(",".join(_CSV_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(fmt(k, row[k]) for k in _CSV_COLUMNS) + "\n")


# ---------------------------------------------------------------------------
# validation suite
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    status: str  # PASS | FAIL | SKIP
    detail: str


@dataclass
class ValidationReport:
    checks: list

    @property
    def ok(self) -> bool:
        return all(c.status != "FAIL" for c in self.checks)

    def render(self) -> str:
        lines = [f"[{c.status:4s}] {c.name}: {c.detail}" for c in self.checks]
        lines.append(f"overall: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def _reference_setup(snr_db=20.0, d12_ratio=0.3, d12_ref="d13", power_ratio=1.0,
                     snr_ref="pu"):
    spec = ScenarioSpec(d12_ratio=d12_ratio, d12_ref=d12_ref,
                        power_ratio=power_ratio, snr_db=snr_db, snr_ref=snr_ref)
    scenario, ctx, layout, l_cp = spec.build()
    cfg = FrameConfig(ctx=ctx, layout=layout, l_cp=l_cp,
                      specs=reference_link_specs())
    return scenario, cfg


def frame_equivalence_errors(scenario, cfg, n_frames, rng,
                             noiseless=True) -> tuple[float, float]:
    """Worst relative deviation of the simulated chain from the
    per-subcarrier models at both receivers, over random frames with random
    previous-frame content (exercising interference removal)."""
    layout, ctx = cfg.layout, cfg.ctx
    g = 0.5 * scenario.p_su / layout.m_vc if layout.m_vc else 0.0
    profile = uniform_profile(layout, scenario, g)
    pre = realize_precoders(ctx, layout, profile)
    sim = FrameSimulator(cfg, pre)
    worst_pu = worst_su = 0.0
    for _ in range(n_frames):
        sim.reset()
        for _ in range(2):  # random warm-up frame feeds the IBI path
            channels = draw_channels(scenario, cfg.specs, cfg.m, rng)
            x_pu = zmcscg(rng, layout.q, scenario.p_pu)
            x1 = zmcscg(rng, layout.n_sym)
            x2 = zmcscg(rng, layout.m_vc)
            noises = (zero_noise(cfg) if noiseless
                      else draw_noise_blocks(cfg, scenario, rng))
            trace = sim.step(channels, x_pu, x1, x2, noises)
        if noiseless:
            v2_f = v3_f = v4_f = 0.0
        else:
            v2_f = ctx.w_dft @ trace.noises.v2[cfg.l_cp:]
            v3_f = ctx.w_dft @ trace.noises.v3[cfg.l_cp:]
            v4_f = ctx.w_dft @ trace.noises.v4[cfg.l_cp:]
        model_pu = pu_frequency_model(channels, pre, layout, x_pu, x1, x2,
                                      v2_f=v2_f, v3_f=v3_f)
        model_su = srx_frequency_model(channels, pre, layout, x_pu, x1, x2,
                                       v2_f=v2_f, v4_f=v4_f)
        worst_pu = max(worst_pu, np.abs(trace.y_pu_f - model_pu).max()
                       / np.abs(model_pu).max())
        worst_su = max(worst_su, np.abs(trace.y_su_f - model_su).max()
                       / np.abs(model_su).max())
    return worst_pu, worst_su


def relayed_noise_identity_error(scenario, cfg, n_frames, rng) -> float:
    """Worst relative deviation of the relayed secondary-chain noise at the
    primary receiver from its diagonal model, with prefix-structured noise."""
    layout, ctx = cfg.layout, cfg.ctx
    profile = uniform_profile(layout, scenario, 0.0)
    pre = realize_precoders(ctx, layout, profile)
    sim = FrameSimulator(cfg, pre)
    worst = 0.0
    zeros_pu = np.zeros(layout.q)
    zeros_vc = np.zeros(layout.m_vc)
    for _ in range(n_frames):
        sim.reset()
        for _ in range(2):
            channels = draw_channels(scenario, cfg.specs, cfg.m, rng)
            x1 = zmcscg(rng, layout.n_sym)
            w_block = zmcscg(rng, cfg.m, scenario.sigma2_v[2])
            noises = NoiseBlocks(v2=np.concatenate([w_block[-cfg.l_cp:], w_block]),
                                 v3=np.zeros(cfg.p, dtype=complex),
                                 v4=np.zeros(cfg.p, dtype=complex))
            trace = sim.step(channels, zeros_pu, x1, zeros_vc, noises)
        f_resp = pre.a @ trace.x_su_1
        v2_f = ctx.w_dft @ w_block
        model = channels.freq[2, 3] * f_resp * v2_f
        worst = max(worst, np.abs(trace.y_pu_f - model).max() / np.abs(model).max())
    return worst


def validate_suite(seed: int = 20260809, trials: int = 100_000,
                   n_frames: int = 1000, search_points: int = 1_000_000) -> ValidationReport:
    """Run every oracle and invariant check; a failed check becomes a FAIL
    entry of the report.

    Each ``*_check`` function below is the one implementation of its oracle
    and returns ``(ok, detail)``; the acceptance tests call the same
    functions with their own seeds and sizes.
    """
    checks: list[CheckResult] = []
    root = np.random.SeedSequence(seed)
    streams = [np.random.default_rng(s) for s in root.spawn(16)]

    def record(name, ok, detail):
        checks.append(CheckResult(name, "PASS" if ok else "FAIL", detail))

    record("spectral_consistency", *spectral_consistency_check(streams[0]))

    # -- frequency-domain equivalence ----------------------------------------
    scenario, cfg = _reference_setup()
    worst_pu, worst_su = frame_equivalence_errors(scenario, cfg, n_frames, streams[1])
    record("frequency_equivalence",
           worst_pu <= 1e-10 and worst_su <= 1e-10,
           f"{n_frames} noiseless frames, max rel err PRx {worst_pu:.2e}, "
           f"SRx {worst_su:.2e}")

    # -- relayed-noise circular identity --------------------------------------
    worst = relayed_noise_identity_error(scenario, cfg, 200, streams[2])
    record("noise_path_identity", worst <= 1e-10,
           f"prefix-structured relayed noise, max rel err {worst:.2e}")

    # -- prefix-condition tightness (designed negative) -----------------------
    short_cfg = FrameConfig(ctx=cfg.ctx, layout=cfg.layout, l_cp=cfg.l_cp - 1,
                            specs=cfg.specs, enforce_cp=False)
    worst_pu_short, worst_su_short = frame_equivalence_errors(
        scenario, short_cfg, 20, streams[3])
    record("cp_condition_tightness", worst_pu_short > 1e-6,
           f"one-sample-short prefix leaks interference: rel err "
           f"{worst_pu_short:.2e} (PRx), {worst_su_short:.2e} (SRx)")

    record("special_functions", *special_functions_check())
    record("outage_closed_form",
           *outage_check(trials, streams[4].integers(2 ** 63, size=3)))
    record("waterfilling", *waterfilling_check(streams[5], search_points))

    # -- budget monotonicity of the primary bound --------------------------------
    sc_mono = build_scenario(0.05 ** (2.0 / 3.0), 1.0, 20.0, "pu")
    ok_mono, rep = check_pu_monotonicity(sc_mono, cfg.layout,
                                         np.geomspace(0.25, 2.0, 8),
                                         min(trials, 20_000), seed)
    record("pu_budget_monotonicity", ok_mono,
           f"kappa={rep['kappa']:.3f}, violations={len(rep['violations'])}")

    # monotonicity gate outside the small-kappa regime: reported, not asserted
    sc_big = build_scenario(5.0 ** (2.0 / 3.0), 1.0, 20.0, "pu")
    _, rep_big = check_pu_monotonicity(sc_big, cfg.layout, [0.5, 1.0], 1000, seed)
    checks.append(CheckResult(
        "monotonicity_hypothesis_gate",
        "SKIP" if not rep_big["hypothesis_met"] else "FAIL",
        f"kappa={rep_big['kappa']:.2f}: " + rep_big.get("note", "gate failed to trip")))

    n_draws = min(trials, 100_000)
    record("channel_statistics",
           *channel_statistics_check(scenario, cfg.specs, n_draws, streams[6]))
    record("product_density_ks",
           *product_density_check(scenario, 1_000_000, streams[7]))
    record("power_accounting",
           *power_accounting_check(scenario, cfg, n_draws, streams[8]))
    record("precoder_structure", *precoder_structure_check(scenario, cfg, streams[9]))
    return ValidationReport(checks=checks)


_CONSISTENCY_DRAWS = 200


def spectral_consistency_check(rng):
    """Random realizable responses survive the minimal-norm round trip, and
    a generic M-vector is rejected as not realizable."""
    ctx = build_spectral_context(64, 10)
    worst = 0.0
    for _ in range(_CONSISTENCY_DRAWS):
        f = filter_frequency_response(ctx, zmcscg(rng, 11))
        rec = filter_frequency_response(ctx, min_norm_filter(ctx, f))
        worst = max(worst, np.linalg.norm(rec - f) / np.linalg.norm(f))
    try:
        min_norm_filter(ctx, zmcscg(rng, 64))
        fired = False
    except InconsistentResponseError:
        fired = True
    return worst <= 1e-10 and fired, (
        f"reconstruction rel err {worst:.2e} over {_CONSISTENCY_DRAWS} draws; "
        f"inconsistency detected: {fired}")


# from the logarithmic singularity of K_0 at 0 to the exponential tail
_K_GRID = (0.02, 0.05, 0.1, 0.3, 0.5, 1.0, 2.0, 2.5, 5.0, 7.0, 10.0)


def special_functions_check():
    """psi and K_0, K_1 against adaptive quadrature, plus both asymptotes
    of psi."""
    worst_psi = 0.0
    for a in np.logspace(-4, 6, 41):
        ref, _ = integrate.quad(lambda u, aa=a: np.exp(-u) * np.log1p(aa * u),
                                0, np.inf, limit=400)
        worst_psi = max(worst_psi, abs(psi(a) - ref) / abs(ref))
    worst_k = 0.0
    for x in _K_GRID:
        for order in (0, 1):
            ref = _bessel_quad(order, x)
            worst_k = max(worst_k, abs(bessel_k(order, x) - ref) / ref)
    small = abs(psi(1e-3) / 1e-3 - 1.0)
    large = abs(psi(1e6) / (np.log1p(1e6) - np.euler_gamma) - 1.0)
    ok = worst_psi <= 1e-8 and worst_k <= 1e-8 and small <= 2e-3 and large <= 1e-4
    return ok, (f"psi vs quadrature {worst_psi:.2e}, K vs quadrature "
                f"{worst_k:.2e} at {len(_K_GRID)} points, asymptote deviations "
                f"{small:.2e} (<=2e-3) and {large:.2e} (<=1e-4)")


def _bessel_quad(order: int, x: float) -> float:
    # integral definition: K_a(x) = sqrt(pi) (x/2)^a / Gamma(a+1/2)
    #                      * int_1^inf e^{-x t} (t^2-1)^(a-1/2) dt,
    # whose prefactor is 1 for a = 0 and x for a = 1
    val, _ = integrate.quad(lambda t: np.exp(-x * t) * (t * t - 1.0) ** (order - 0.5),
                            1.0, np.inf, limit=400, epsabs=1e-14, epsrel=1e-12)
    return x ** order * val


def outage_check(trials, seeds):
    """Monte Carlo outage against 1 - 2kK1(2k) at k = 0.05, 0.2 and 1, one
    seed per k.  The same seed drives three secondary profiles (no virtual
    power, 0.1 and 0.5 of the budget on the virtual subcarriers), whose
    outage must agree exactly."""
    ctx = build_spectral_context(64, 10)
    layout = build_vc_layout(ctx, (0, 16, 32, 48))
    worst = 0.0
    details = []
    for kap, seed in zip((0.05, 0.2, 1.0), seeds):
        d12 = kap ** (2.0 / 3.0)  # equal noise figures: kappa = d12^(eta/2)
        scenario = build_scenario(d12, 1.0, 20.0, "pu")
        p_out = [outage_mc(scenario, uniform_profile(layout, scenario, g), trials,
                           np.random.default_rng(seed))
                 for g in (0.0, 0.1 * scenario.p_su / layout.m_vc,
                           0.5 * scenario.p_su / layout.m_vc)]
        p, se = p_out[0]
        if any(other != p for other, _ in p_out[1:]):
            return False, (f"profile dependence at kappa={kap}: "
                           f"{[v for v, _ in p_out]}")
        closed = pu_outage_probability(scenario)
        dev = abs(p - closed) / max(se, 1e-12)
        worst = max(worst, dev)
        details.append(f"k={kap}: mc {p:.4f} vs closed {closed:.4f} ({dev:.1f} se)")
    return worst <= 3.0, "; ".join(details) + "; profile-invariant"


_WATERFILLING_INSTANCES = 1000


def waterfilling_check(rng, search_points=1_000_000):
    """On random 8-subcarrier instances the waterfilling profile spends the
    budget and no uniform split beats it; on one instance no random
    feasible profile beats it either."""
    ctx = build_spectral_context(8, 5)
    layout = build_vc_layout(ctx, (0, 4))
    worst_resid = 0.0
    n_beat = 0
    for _ in range(_WATERFILLING_INSTANCES):
        scenario = build_scenario(float(rng.uniform(0.2, 1.5)),
                                  float(rng.uniform(0.5, 4.0)),
                                  float(rng.uniform(0.0, 25.0)), "su")
        h_su = zmcscg(rng, 8)
        h_24 = zmcscg(rng, 8)
        prof = waterfilling_profile(layout, scenario, h_su, h_24)
        worst_resid = max(worst_resid, abs(power_residual(prof, scenario))
                          / scenario.p_su)
        wf_obj = csit_objective(prof, scenario, h_su, h_24)
        for vc_fraction in (0.25, 0.4):
            uni = uniform_profile(layout, scenario,
                                  vc_fraction * scenario.p_su / layout.m_vc)
            if wf_obj < csit_objective(uni, scenario, h_su, h_24) - 1e-12:
                n_beat += 1
    scenario = build_scenario(0.7, 1.0, 15.0, "su")
    h_su = zmcscg(rng, 8)
    h_24 = zmcscg(rng, 8)
    prof = waterfilling_profile(layout, scenario, h_su, h_24)
    best_rand = _random_search_best(layout, scenario, h_su, h_24, search_points, rng)
    margin = best_rand - csit_objective(prof, scenario, h_su, h_24)
    ok = worst_resid <= 1e-9 and n_beat == 0 and margin <= 1e-9
    return ok, (f"max budget residual {worst_resid:.2e}, uniform splits beat it "
                f"{n_beat}x in {_WATERFILLING_INSTANCES} instances, best of {search_points} "
                f"random profiles trails by {-margin:.3e} bits")


def _random_search_best(layout, scenario, h_su, h_24, n_points, rng,
                        chunk=200_000):
    # the SRx noise floor is written out here, not taken from
    # precoding.srx_noise_floor, so the oracle stays independent of it
    nu_uc = scenario.link_variance(1, 4) * scenario.p_pu + scenario.sigma2_v[4]
    coef = uc_power_coefficient(scenario)
    uc = list(layout.uc_indices)
    vc = list(layout.vc_indices)
    gains_uc = np.abs(np.asarray(h_su)[uc]) ** 2 / nu_uc
    gains_vc = np.abs(np.asarray(h_24)[vc]) ** 2 / scenario.sigma2_v[4]
    k = len(uc) + len(vc)
    best = -np.inf
    done = 0
    while done < n_points:
        n = min(chunk, n_points - done)
        w = rng.exponential(size=(n, k))
        w /= w.sum(axis=1, keepdims=True)
        spend = w * scenario.p_su
        a = spend[:, : len(uc)] / coef
        g = spend[:, len(uc):]
        obj = (np.log2(1.0 + a * gains_uc).sum(axis=1)
               + np.log2(1.0 + g * gains_vc).sum(axis=1))
        best = max(best, float(obj.max()))
        done += n
    return best


def channel_statistics_check(scenario, specs, n_draws, rng):
    """|H12(0)|^2 and |H23(0)|^2 follow exponential laws with the link
    variances, and H12(0), H23(0) are uncorrelated.  Only subcarrier 0 is
    read, so each draw asks for one-point responses: H(0) is the tap sum
    at any grid size."""
    h12_0 = np.empty(n_draws, dtype=complex)
    h23_0 = np.empty(n_draws, dtype=complex)
    for i in range(n_draws):
        ch = draw_channels(scenario, specs, 1, rng)
        h12_0[i] = ch.freq[1, 2][0]
        h23_0[i] = ch.freq[2, 3][0]
    s12 = scenario.link_variance(1, 2)
    s23 = scenario.link_variance(2, 3)
    mag12 = np.abs(h12_0) ** 2
    mean_dev = abs(mag12.mean() - s12) / (s12 / np.sqrt(n_draws))
    cross = np.abs(np.mean(h12_0 * h23_0.conj()))
    cross_se = np.sqrt(s12 * s23 / n_draws)
    p12 = stats.kstest(mag12, "expon", args=(0.0, s12)).pvalue
    p23 = stats.kstest(np.abs(h23_0) ** 2, "expon", args=(0.0, s23)).pvalue
    ok = mean_dev <= 3.0 and cross <= 3.0 * cross_se and min(p12, p23) > 0.01
    return ok, (f"|H12|^2 mean within {mean_dev:.1f} se, cross-corr "
                f"{cross / cross_se:.1f} se, KS p={p12:.3f} (|H12|^2) and "
                f"p={p23:.3f} (|H23|^2) over {n_draws} draws")


def product_density_check(scenario, n_draws, rng):
    """The product of two unit exponentials, scaled by sigma2_23, against
    its K-function law P(Z <= v) = 1 - t K1(t), t = 2 sqrt(v / sigma2_23)."""
    s23 = scenario.link_variance(2, 3)
    z = s23 * rng.exponential(size=n_draws) * rng.exponential(size=n_draws)

    def cdf(v):
        t = 2.0 * np.sqrt(v / s23)  # v > 0: every draw is positive
        return 1.0 - t * special.k1(t)

    p = stats.kstest(z, cdf).pvalue
    return p > 0.01, f"product-magnitude law KS p={p:.3f} over {n_draws} draws"


def _reference_precoders(scenario, cfg):
    layout = cfg.layout
    profile = uniform_profile(layout, scenario, 0.5 * scenario.p_su / layout.m_vc)
    return profile, realize_precoders(cfg.ctx, layout, profile)


def power_accounting_check(scenario, cfg, n_frames, rng):
    """The simulated secondary transmit energy matches the budget."""
    _, pre = _reference_precoders(scenario, cfg)
    mean, se = stx_power_mc(cfg, scenario, pre, n_frames, rng)
    dev = abs(mean - scenario.p_su) / se
    return dev <= 3.0, (f"E||z2||^2 = {mean:.5f} vs budget {scenario.p_su} "
                        f"({dev:.1f} se over {n_frames} frames)")


def precoder_structure_check(scenario, cfg, rng):
    """Null virtual rows of A, exact virtual Gram, exact budget, and the
    Hadamard direction of the per-subcarrier rate against the realized
    mutual information."""
    layout = cfg.layout
    profile, pre = _reference_precoders(scenario, cfg)
    vc_rows = np.abs(pre.a[list(layout.vc_indices), :]).max()
    g_gram = pre.g @ pre.g.conj().T
    g_target = np.diag(profile.full_vc_vector())
    g_err = np.abs(g_gram - g_target).max()
    budget = abs(power_residual(pre.profile, scenario)) / scenario.p_su
    ch = draw_channels(scenario, cfg.specs, cfg.m, rng)
    x_pu = zmcscg(rng, layout.q, scenario.p_pu)
    v2 = zmcscg(rng, cfg.m, scenario.sigma2_v[2])
    h_su = ch.freq[2, 4] * (ch.freq[1, 2] * (layout.theta @ x_pu) + v2)
    nu = np.where(layout.uc_mask(), srx_noise_floor(scenario), scenario.sigma2_v[4])
    gram = (h_su[:, None] * pre.a) @ (h_su[:, None] * pre.a).conj().T \
        + (ch.freq[2, 4][:, None] * pre.g) @ (ch.freq[2, 4][:, None] * pre.g).conj().T
    sign, logdet = np.linalg.slogdet(np.eye(cfg.m) + gram / nu[:, None])
    det_rate = logdet / np.log(2.0)
    diag_rate = np.log2(1.0 + np.diag(gram).real / nu).sum()
    ok = (vc_rows <= 1e-10 and g_err <= 1e-12 and budget <= 1e-9
          and sign > 0 and det_rate <= diag_rate + 1e-9)
    return ok, (f"null rows {vc_rows:.1e}, vc gram err {g_err:.1e}, budget "
                f"residual {budget:.1e}, det-rate {det_rate:.3f} <= "
                f"diag-rate {diag_rate:.3f}")
