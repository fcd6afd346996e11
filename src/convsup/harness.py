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
import os
import platform
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np
import numpy.random  # with the package, not lazily at a sweep's first generator
import scipy

from . import __version__
from .channel import LinkSpec, NetworkScenario, draw_channels, trials, zmcscg
from .capacity import (CapacityReport, baseline_nocr_quad, baseline_ocr,
                       bessel_k, c_pu_direct, c_pu_lower_quad, c_su_lower_csit,
                       c_su_lower_nocsit_quad, check_pu_monotonicity, kappa,
                       outage_mc, psi, pu_outage_probability)
from .precoding import (csit_objective, power_residual, realize_precoders,
                        srx_noise_floor, uc_power_coefficient, uniform_profile,
                        waterfill_faults, waterfill_power, waterfill_thresholds,
                        waterfilling_profile)
from .spectral import (InconsistentResponseError, build_spectral_context,
                       build_vc_layout, filter_frequency_response,
                       min_norm_filter)
from .transceiver import (FrameConfig, FrameSimulator, draw_noise_blocks,
                          pu_frequency_model, required_cp_length,
                          srx_frequency_model, stx_power_mc, zero_noise)

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
# schemes whose secondary rate is waterfilled per realization under CSIT
_WATERFILLED = ("proposed_with_vcs", "proposed_without_vcs")
SWEEP_VARIABLES = ("snr_pu_db", "snr_su_db", "d12_ratio", "power_ratio")
# the SNR anchor that each SNR sweep variable sets
_SWEPT_SNR_REF = {"snr_pu_db": "pu", "snr_su_db": "su"}
RATE_ANCHOR_HZ = 20e6  # Wi-Fi-style sampling rate used to quote bits/s

_NODE_PTX = (-0.5, 0.0)
_NODE_PRX = (0.5, 0.0)
_NODE_SRX = (0.0, 2.0)
_STX_ANGLE = math.pi / 3
_D13 = 1.0
_D14 = math.dist(_NODE_PTX, _NODE_SRX)
# points per block of the KS supremum search, and the slack its block
# bounds leave for rounding of the computed CDF (see _ks_test)
_KS_BLOCK = 64
_KS_MARGIN = 1e-12


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
    check_accepted(d12_ref=ref)
    return ratio * (_D13 if ref == "d13" else _D14)


def build_scenario(d12: float, power_ratio: float, snr_db: float,
                   snr_ref: str, eta: float = 3.0) -> NetworkScenario:
    """Reference-geometry scenario: P_pu = 1, P_su = power_ratio, one common
    noise variance at all receivers set by the chosen SNR anchor."""
    p_pu = 1.0
    p_su = power_ratio * p_pu
    check_accepted(snr_ref=snr_ref)
    sigma2 = (p_pu if snr_ref == "pu" else p_su) / 10 ** (snr_db / 10)
    return NetworkScenario(
        coords={1: _NODE_PTX, 2: stx_position(d12), 3: _NODE_PRX, 4: _NODE_SRX},
        eta=eta, p_pu=p_pu, p_su=p_su,
        sigma2_v={2: sigma2, 3: sigma2, 4: sigma2})


@dataclass(frozen=True)
class Accepts:
    """A row of ``ACCEPTED``: an integer or finite number in [lo, hi] (lo
    excluded when ``lo_open``), a bool, or one of ``choices``; with ``items``
    a list of them.  ``str`` words the rejection and the README table."""

    kind: str  # "integer", "number", "bool" or "choice"
    lo: float = -math.inf
    hi: float = math.inf
    lo_open: bool = False
    choices: tuple[str, ...] = ()
    items: str = ""  # "", or a list: "any", "distinct" or "monotone"

    def admits(self, value) -> bool:
        if not self.items:
            return self._admits_one(value)
        if not (isinstance(value, tuple) and all(map(self._admits_one, value))):
            return False
        if self.items == "distinct":
            return 0 < len(value) == len(set(value))
        diffs = np.diff(value)
        return self.items == "any" or bool(value) and (all(diffs > 0) or all(diffs < 0))

    def _admits_one(self, value) -> bool:
        if self.kind in ("bool", "choice"):
            return (isinstance(value, bool) if self.kind == "bool"
                    else isinstance(value, str) and value in self.choices)
        # JSON true/false load as bool, a subclass of int
        types = (int, np.integer) + ((float, np.floating) if self.kind == "number" else ())
        if isinstance(value, bool) or not isinstance(value, types):
            return False
        # exact comparisons, which NaN fails, as does an integer beyond the floats
        above = value > self.lo if self.lo_open else value >= self.lo
        return above and value <= self.hi and abs(value) <= sys.float_info.max

    def __str__(self) -> str:
        one = {"bool": "true or false", "choice": "one of " + ", ".join(map(repr, self.choices)),
               "integer": "an integer", "number": "a finite number"}[self.kind]
        if self.kind in ("integer", "number"):
            one += (f" in {'(' if self.lo_open or self.lo == -math.inf else '['}{self.lo:g}, "
                    f"{self.hi:g}{']' if self.hi < math.inf else ')'}")
        lists = {"any": "a list", "distinct": "a non-empty list without repeats",
                 "monotone": "a non-empty, strictly monotone list"}
        return f"{lists[self.items]}, each entry {one}" if self.items else one


_M_MAX = 256
_TRIALS = Accepts("integer", lo=100)
# One row per externally settable value.  In the measured number ranges
# every scheme runs without a warning, with and without CSIT, at 0, 20 and
# 30 dB and the SNR ends, the other rows anywhere; README: cross-field rules.
ACCEPTED = {
    "sweep_variable": Accepts("choice", choices=SWEEP_VARIABLES),
    # each value also goes through the swept field's row
    "grid": Accepts("number", items="monotone"),
    "schemes": Accepts("choice", choices=SCHEMES, items="distinct"),
    "csit": Accepts("bool"),
    # a standard error, and validate's KS p-value rule, need 100 draws
    "n_trials": _TRIALS,
    "seed": Accepts("integer", lo=0),  # what SeedSequence takes
    # runs from 1e-20 to 1e15 at eta 10; a log of 0 at 1e-22, psi(0) at 1e16
    "d12_ratio": Accepts("number", lo=1e-6, hi=1e6),
    "d12_ref": Accepts("choice", choices=("d13", "d14")),
    # at the former 3000 dB SNR top, a subnormal noise below, an overflow above
    "power_ratio": Accepts("number", lo=1e-8, hi=1e4),
    # noise variances overflow when multiplied below -1530 dB; the primary
    # SNR from 2989 dB, with one used subcarrier at eta 10 and top power ratio
    "snr_db": Accepts("number", lo=-1000.0, hi=2900.0),
    "snr_ref": Accepts("choice", choices=("pu", "su")),
    # physical exponents lie in 2-6; runs up to 25, psi(0) at 26 at d12 1e6
    "eta": Accepts("number", lo=0.0, hi=10.0, lo_open=True),
    # spectral.py's dense M x M range; the 100k-trial CSIT reference sweep
    # peaks at 305 MiB here (112 MiB at 64), about linear in M
    "m_subcarriers": Accepts("integer", lo=2, hi=_M_MAX),
    "l_su": Accepts("integer", lo=0, hi=_M_MAX - 1),
    "vc_indices": Accepts("integer", lo=0, hi=_M_MAX - 1, items="any"),
    "vc_power_fraction": Accepts("number", lo=0.0, hi=1.0),  # of the budget
    # no row depends on it; the pool starts at most one thread per task
    "threads": Accepts("integer", lo=1),
    "trials": _TRIALS,
    "n_frames": Accepts("integer", lo=1),
}


def check_accepted(**values) -> None:
    """Raise ``ValueError`` naming the first value its ``ACCEPTED`` row rejects."""
    for name, value in values.items():
        if not ACCEPTED[name].admits(value):
            raise ValueError(f"{name} must be {ACCEPTED[name]}, got {value!r}")


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
        check_accepted(**vars(self))

    def with_sweep_value(self, variable: str, value: float) -> "ScenarioSpec":
        check_accepted(sweep_variable=variable)
        if variable in _SWEPT_SNR_REF:
            return replace(self, snr_db=float(value), snr_ref=_SWEPT_SNR_REF[variable])
        return replace(self, **{variable: float(value)})

    def build(self):
        """Returns (scenario, ctx, layout, l_cp)."""
        return (self.network(), *self.spectral())

    def network(self) -> NetworkScenario:
        """The scenario: geometry, powers and noise variances."""
        return build_scenario(resolve_d12(self.d12_ratio, self.d12_ref),
                              self.power_ratio, self.snr_db, self.snr_ref, self.eta)

    def spectral(self):
        """Returns (ctx, layout, l_cp), which depend on ``m_subcarriers``,
        ``l_su`` and ``vc_indices`` only; no sweep variable changes them."""
        ctx = build_spectral_context(self.m_subcarriers, self.l_su)
        layout = build_vc_layout(ctx, self.vc_indices)
        l_cp = required_cp_length(reference_link_specs(), self.l_su)
        return ctx, layout, l_cp


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
        check_accepted(**{k: v for k, v in vars(self).items() if k != "scenario"})
        # every grid point's scenario must build (the swept field's row,
        # path-loss variances), so that a bad one stops the sweep early
        for value in self.grid:
            self.scenario.with_sweep_value(self.sweep_variable, value).network()

    @classmethod
    def from_json(cls, path) -> "SweepConfig":
        """Read a JSON config; a missing or unknown key raises ``ValueError``
        naming it."""
        with open(path) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("config must be a JSON object")
        sc = raw.get("scenario", {})
        if not isinstance(sc, dict):
            raise ValueError(f"config key 'scenario' must be an object, got {sc!r}")
        for where, keys, known in (("config", raw, fields(cls)),
                                   ("scenario", sc, fields(ScenarioSpec))):
            unknown = sorted(set(keys) - {f.name for f in known})
            if unknown:
                raise ValueError(f"unknown {where} key(s) {unknown}")
        for key in ("sweep_variable", "grid"):
            if key not in raw:
                raise ValueError(f"config is missing the required key {key!r}")

        def tupled(obj):  # JSON lists become the tuples the dataclasses take
            return {k: tuple(v) if isinstance(v, list) else v for k, v in obj.items()}
        cfg = cls(**{"schemes": SCHEMES, "csit": False, "n_trials": 100_000, "seed": 0,
                     **tupled(raw), "scenario": ScenarioSpec(**tupled(sc))})
        # an SNR sweep anchors its SNR itself: a given snr_ref must agree
        swept_ref = _SWEPT_SNR_REF.get(cfg.sweep_variable)
        if swept_ref is not None and sc.get("snr_ref", swept_ref) != swept_ref:
            raise ValueError(f"scenario key 'snr_ref' is {sc['snr_ref']!r}, but the "
                             f"sweep variable {cfg.sweep_variable!r} anchors the SNR "
                             f"at {swept_ref!r}")
        return cfg


def evaluate_scheme(scheme: str, scenarios, layout, csit: bool,
                    n_trials: int, rng: np.random.Generator,
                    vc_power_fraction: float = 0.5) -> list[CapacityReport]:
    """Capacity reports of one scheme at each of ``scenarios``, which share
    ``layout``.  Rates under the uniform profile are exact quadratures with
    standard error 0; the ocr secondary rate and the waterfilled CSIT
    secondary rate are Monte Carlo over ``n_trials`` draws of ``rng``; the
    report's ``estimators`` names the method of each rate.  The CSIT rate
    scores one draw at every scenario (``c_su_lower_csit``); the ocr rate
    draws each scenario's trials in turn."""
    direct = [c_pu_direct(sc, layout) for sc in scenarios]
    if scheme == "ocr":
        pu, p_out = direct, [0.0] * len(scenarios)
        su = [baseline_ocr(sc, layout, n_trials, rng) for sc in scenarios]
        methods = ("closed_form", "mc")
    else:
        if scheme == "proposed_with_vcs":
            g = [_vc_power(vc_power_fraction, sc.p_su, layout.m_vc) for sc in scenarios]
            use_vcs = True
        elif scheme in ("proposed_without_vcs", "nocr"):
            g, use_vcs = [0.0] * len(scenarios), False
        else:
            raise ValueError(f"unknown scheme {scheme!r}")
        pu = [c_pu_lower_quad(sc, layout, uniform_profile(layout, sc, gi))
              for sc, gi in zip(scenarios, g)]
        p_out = [pu_outage_probability(sc) for sc in scenarios]
        methods = ("quadrature", "quadrature")
        if scheme == "nocr":
            su = [(baseline_nocr_quad(sc, layout), 0.0) for sc in scenarios]
        elif csit:
            su = c_su_lower_csit(scenarios, layout, n_trials, rng, use_vcs=use_vcs)
            methods = ("quadrature", "mc")
        else:
            su = [(c_su_lower_nocsit_quad(sc, layout, gi), 0.0)
                  for sc, gi in zip(scenarios, g)]
    return [CapacityReport(c_pu_lower=p, c_pu_direct=d, delta_c_pu=p - d,
                           c_su_lower=s, p_out=o,
                           std_err={"c_pu_lower": 0.0, "c_su_lower": se},
                           estimators=dict(zip(("c_pu_lower", "c_su_lower"), methods)))
            for p, d, (s, se), o in zip(pu, direct, su, p_out)]


def _vc_power(fraction: float, p_su: float, m_vc: int) -> float:
    """Power g of each VC for ``fraction`` of ``p_su``, rounded so m_vc g <= p_su."""
    g = fraction * p_su / m_vc if m_vc else 0.0
    while m_vc * g > p_su:
        g = math.nextafter(g, 0.0)
    return g


def run_sweep(cfg: SweepConfig, threads: int = 1):
    """Run the sweep; returns (rows, manifest).

    One row per (grid value, scheme), in that order.  Each row draws from
    the child of the root seed at its position, so results do not depend on
    the thread count, which must be at least 1; the row's ``seed`` tag
    names that child.  With ``csit`` the waterfilled rows of one proposed
    scheme are a single task: its ``c_su_lower_csit`` scores one draw, from
    the child of the scheme's first row, at every grid point, and every row
    of the scheme carries that child's tag.  Those tasks are queued first,
    since they take most of the time.  The manifest's ``timing`` holds the
    wall seconds of each task, in task order, and of the whole sweep; they
    never enter the rows.
    """
    check_accepted(threads=threads)
    start = time.perf_counter()
    n_schemes = len(cfg.schemes)
    children = np.random.SeedSequence(cfg.seed).spawn(len(cfg.grid) * n_schemes)
    specs = [cfg.scenario.with_sweep_value(cfg.sweep_variable, value)
             for value in cfg.grid]
    scenarios = [spec.network() for spec in specs]
    _, layout, l_cp = cfg.scenario.spectral()
    # a task is one scheme at a tuple of grid indices; the layout, and with
    # it the law of the CSIT draws, is the same at every grid point
    grid_points = tuple(range(len(cfg.grid)))
    shared = [si for si, scheme in enumerate(cfg.schemes)
              if cfg.csit and scheme in _WATERFILLED]
    tasks = ([(si, grid_points) for si in shared]
             + [(si, (gi,)) for gi in grid_points for si in range(n_schemes)
                if si not in shared])

    def work(task_idx: int) -> tuple[list, dict, float]:
        task_start = time.perf_counter()
        si, gis = tasks[task_idx]
        child = gis[0] * n_schemes + si
        scheme = cfg.schemes[si]
        reports = evaluate_scheme(scheme, [scenarios[gi] for gi in gis], layout,
                                  cfg.csit, cfg.n_trials,
                                  np.random.default_rng(children[child]),
                                  vc_power_fraction=cfg.scenario.vc_power_fraction)
        rows = [((gi, si), {
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
            "seed": f"{cfg.seed}/{child}",
        }) for gi, rep in zip(gis, reports)]
        return rows, reports[0].estimators, time.perf_counter() - task_start

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(work, range(len(tasks))))
    else:
        results = [work(i) for i in range(len(tasks))]
    by_position = dict(row for rows, _, _ in results for row in rows)
    rows = [by_position[gi, si] for gi in grid_points for si in range(n_schemes)]

    manifest = {
        "version": __version__,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "threads": threads,
            "cpu_count": os.cpu_count(),
        },
        "estimators": {cfg.schemes[si]: how
                       for (si, _), (_, how, _) in zip(tasks, results)},
        "config": {
            "sweep_variable": cfg.sweep_variable,
            "grid": list(map(float, cfg.grid)),
            "schemes": list(cfg.schemes),
            "csit": cfg.csit,
            "n_trials": cfg.n_trials,
            "seed": cfg.seed,
            # the anchor the rows ran at: an SNR sweep sets its own
            "scenario": dict(asdict(cfg.scenario), snr_ref=specs[0].snr_ref),
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
            for gi, (spec, scenario) in enumerate(zip(specs, scenarios))
        ],
        "timing": {"task_s": [seconds for _, _, seconds in results],
                   "total_s": time.perf_counter() - start},
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
    scenario, ctx, layout, l_cp = ScenarioSpec().build()
    cfg = FrameConfig(ctx=ctx, layout=layout, l_cp=l_cp,
                      specs=reference_link_specs())
    return scenario, cfg


def _rel_err(got, model) -> np.ndarray:
    """Per frame, max |got - model| over max |model|."""
    return np.abs(got - model).max(axis=-1) / np.abs(model).max(axis=-1)


def frame_equivalence_errors(scenario, cfg, n_frames, rng,
                             noiseless=True) -> tuple[float, float]:
    """Worst relative deviation of the simulated chain from the
    per-subcarrier models at both receivers, over random frames with random
    previous-frame content (exercising interference removal).  All frames
    of a batch of ``channel.trials`` run as two batched steps: a random
    warm-up frame that feeds the inter-block path, then the measured
    frame."""
    layout, ctx = cfg.layout, cfg.ctx
    g = 0.5 * scenario.p_su / layout.m_vc if layout.m_vc else 0.0
    profile = uniform_profile(layout, scenario, g)
    pre = realize_precoders(ctx, layout, profile)
    sim = FrameSimulator(cfg, pre)

    def sample(n):
        sim.reset()
        for _ in range(2):
            channels = draw_channels(scenario, cfg.specs, cfg.m, rng, batch=(n,))
            x_pu = zmcscg(rng, (n, layout.q), scenario.p_pu)
            x1 = zmcscg(rng, (n, layout.n_sym))
            x2 = zmcscg(rng, (n, layout.m_vc))
            noises = (zero_noise(cfg, (n,)) if noiseless
                      else draw_noise_blocks(cfg, scenario, rng, (n,)))
            trace = sim.step(channels, x_pu, x1, x2, noises)
        if noiseless:
            v2_f = v3_f = v4_f = 0.0
        else:
            v2_f, v3_f, v4_f = (noise[:, cfg.l_cp:] @ ctx.w_dft.T for noise in
                                (noises.v2, noises.v3, noises.v4))
        model_pu = pu_frequency_model(channels, pre, layout, x_pu, x1, x2,
                                      v2_f=v2_f, v3_f=v3_f)
        model_su = srx_frequency_model(channels, pre, layout, x_pu, x1, x2,
                                       v2_f=v2_f, v4_f=v4_f)
        return np.stack([_rel_err(trace.y_pu_f, model_pu),
                         _rel_err(trace.y_su_f, model_su)], axis=-1)
    worst_pu, worst_su = trials(n_frames, sample).max(axis=0)
    return float(worst_pu), float(worst_su)


def relayed_noise_identity_error(scenario, cfg, n_frames, rng) -> float:
    """Worst relative deviation of the relayed secondary-chain noise at the
    primary receiver from its diagonal model, with prefix-structured noise;
    two batched steps per batch, as in ``frame_equivalence_errors``."""
    layout, ctx = cfg.layout, cfg.ctx
    profile = uniform_profile(layout, scenario, 0.0)
    pre = realize_precoders(ctx, layout, profile)
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
    return float(trials(n_frames, sample).max())


def validate_suite(seed: int = 20260809, trials: int = 100_000,
                   n_frames: int = 1000, search_points: int = 1_000_000) -> ValidationReport:
    """Run every oracle and invariant check; a failed check becomes a FAIL
    entry of the report.

    Each ``*_check`` function below is the one implementation of its oracle
    and returns ``(ok, detail)``; the acceptance tests call the same
    functions with their own seeds and sizes.  Sizes or a seed outside
    their rows of ``ACCEPTED`` raise ``ValueError`` before any check runs.
    """
    check_accepted(seed=seed, trials=trials, n_frames=n_frames)
    checks: list[CheckResult] = []
    root = np.random.SeedSequence(seed)
    streams = [np.random.default_rng(s) for s in root.spawn(16)]
    # the checks run one after another, so each one's wall time is the time
    # since the previous record, set-up included
    last = time.perf_counter()

    def record(name, ok, detail, status=None):
        nonlocal last
        now = time.perf_counter()
        checks.append(CheckResult(name, status or ("PASS" if ok else "FAIL"),
                                  detail, now - last))
        last = now

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
    # the same Monte Carlo means against the exact quadrature, at 3 se
    gap = max(abs(m - e) / se for m, e, se in
              zip(rep["means"], rep["exact"], rep["stderrs"]))
    record("pu_budget_monotonicity", ok_mono and gap <= 3.0,
           f"kappa={rep['kappa']:.3f}, violations={len(rep['violations'])}, "
           f"Monte Carlo vs quadrature max {gap:.2f} se over "
           f"{len(rep['means'])} budgets")

    # monotonicity gate outside the small-kappa regime: reported, not asserted
    sc_big = build_scenario(5.0 ** (2.0 / 3.0), 1.0, 20.0, "pu")
    _, rep_big = check_pu_monotonicity(sc_big, cfg.layout, [0.5, 1.0], 1000, seed)
    record("monotonicity_hypothesis_gate", False,
           f"kappa={rep_big['kappa']:.2f}: " + rep_big.get("note", "gate failed to trip"),
           status="SKIP" if not rep_big["hypothesis_met"] else "FAIL")

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
_PSI_GRID = np.logspace(-4, 6, 41)
# step of the trapezoid sums behind the psi and K references; their
# integrands are analytic and decay at least exponentially, so the sums
# converge exponentially in 1/step (L. N. Trefethen and J. A. C. Weideman,
# SIAM Review 56(3), 2014): 0.2 is exact to a few 1e-15, 0.4 only to 1e-6
_REF_STEP = 0.2


def special_functions_check():
    """psi and K_0, K_1 against trapezoid sums of their integrals, which
    share no code with the series, rational and Chebyshev kernels, plus both
    asymptotes of psi."""
    ref = _psi_trapezoid(_PSI_GRID)
    worst_psi = float(np.max(np.abs(psi(_PSI_GRID) - ref) / ref))
    x = np.array(_K_GRID)
    worst_k = 0.0
    for order in (0, 1):
        ref = _bessel_k_trapezoid(order, x)
        err = np.max(np.abs(bessel_k(order, x) - ref) / ref)
        worst_k = max(worst_k, float(err))
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


def _bessel_k_trapezoid(order: int, x):
    # K_a(x) = int_0^inf exp(-x cosh s) cosh(a s) ds, an even integrand
    # decaying doubly exponentially: s in [0, 8] with half weight at s = 0
    # leaves a tail below 1e-14 relative at x = 0.02
    s = np.arange(0.0, 8.0 + _REF_STEP / 2, _REF_STEP)
    f = np.exp(-np.multiply.outer(x, np.cosh(s))) * np.cosh(order * s)
    return _REF_STEP * (f.sum(axis=-1) - 0.5 * f[..., 0])


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
    budget, leaves no inactive subcarrier below the water level, and no
    uniform split beats it; on one instance no random feasible profile
    beats it either.

    The instances are drawn one by one and waterfilled as one batch; a
    budget or level fault fails the check and names the worst instance.
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
        prof = waterfilling_profile(layout, scenario, h_su, h_24)
    except AssertionError as exc:
        return False, "; ".join([detail, *faults, f"search instance: {exc}"])
    best_rand = _random_search_best(layout, scenario, h_su, h_24, search_points, rng)
    margin = best_rand - csit_objective(prof, scenario, h_su, h_24)
    ok = not faults and n_beat == 0 and margin <= 1e-9
    return ok, "; ".join([f"{detail}, best of {search_points} random profiles "
                          f"trails by {-margin:.3e} bits", *faults])


def _waterfill_instances(layout, rng):
    """Worst relative budget residual, the count of uniform splits (0.25 and
    0.4 of the budget on the virtual subcarriers) that beat the waterfill,
    and the fault messages, over ``_WATERFILLING_INSTANCES`` random
    instances waterfilled as one batch."""
    q, n = layout.q, _WATERFILLING_INSTANCES
    levels = np.empty((4, n))  # p_su, coef, nu_uc, sigma2_v4 of each instance
    h = np.empty((n, 2, layout.m), dtype=complex)  # h_su, h_24
    for i in range(n):
        scenario = build_scenario(float(rng.uniform(0.2, 1.5)),
                                  float(rng.uniform(0.5, 4.0)),
                                  float(rng.uniform(0.0, 25.0)), "su")
        levels[:, i] = (scenario.p_su, uc_power_coefficient(scenario),
                        srx_noise_floor(scenario), scenario.sigma2_v[4])
        h[i, 0] = zmcscg(rng, layout.m)
        h[i, 1] = zmcscg(rng, layout.m)
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
    for vc_fraction in (0.25, 0.4):
        g = vc_fraction * p_su / layout.m_vc
        uni = np.where(np.arange(layout.m) < q, ((p_su - layout.m_vc * g) / q)[:, None],
                       g[:, None])
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


def _random_search_best(layout, scenario, h_su, h_24, n_points, rng):
    # the SRx noise floor is written out here, not taken from
    # precoding.srx_noise_floor, so the oracle stays independent of it
    nu_uc = scenario.link_variance(1, 4) * scenario.p_pu + scenario.sigma2_v[4]
    coef = uc_power_coefficient(scenario)
    # SNR per unit share of the budget: spend / coef on a used subcarrier
    # against nu_uc, spend on a virtual one against sigma2_v4
    scale = scenario.p_su * np.concatenate([
        np.abs(np.asarray(h_su)[list(layout.uc_indices)]) ** 2 / nu_uc / coef,
        np.abs(np.asarray(h_24)[list(layout.vc_indices)]) ** 2 / scenario.sigma2_v[4]])

    def sample(n):
        # a uniform point of the simplex scores log2 prod_k (1 + x_k); the
        # product of a few factors cannot overflow, and log2 is monotone, so
        # only the best product is taken to the log.  The points are the
        # columns of w, so each reduction over a point's K coordinates runs
        # over whole rows, in the order of numpy's own: the bits of
        # sum(axis=1) and prod(axis=1) of the (n, K) draw without numpy's
        # slow loops over short rows
        w = rng.exponential(size=(n, scale.size)).T.copy()
        total = _pairwise_sum(w)
        w *= scale[:, None]
        w /= total
        w += 1.0
        return w.prod(axis=0)
    return float(np.log2(trials(n_points, sample).max()))


def _pairwise_sum(rows):
    """Elementwise sum of the K rows of ``rows`` in the association order of
    numpy's pairwise summation of K numbers: fewer than 8 left to right; up
    to 128 in 8 running partial sums, combined as a balanced tree, and then
    the K mod 8 last ones; more split in two at a multiple of 8."""
    k = len(rows)
    if k < 8:
        total = 0.0 + rows[0]
        for row in rows[1:]:
            total = total + row
        return total
    if k > 128:
        half = k // 2 - k // 2 % 8
        return _pairwise_sum(rows[:half]) + _pairwise_sum(rows[half:])
    part = list(rows[:8])
    for i in range(8, k - k % 8):
        part[i % 8] = part[i % 8] + rows[i]
    total = ((part[0] + part[1]) + (part[2] + part[3])) + ((part[4] + part[5])
                                                           + (part[6] + part[7]))
    for row in rows[k - k % 8:]:
        total = total + row
    return total


def channel_statistics_check(scenario, specs, n_draws, rng):
    """|H12(0)|^2 and |H23(0)|^2 follow exponential laws with the link
    variances, and H12(0), H23(0) are uncorrelated.  Only subcarrier 0 is
    read, so one batched draw asks for one-point responses: H(0) is the tap
    sum at any grid size."""
    ch = draw_channels(scenario, specs, 1, rng, batch=(n_draws,))
    h12_0 = ch.freq[1, 2][:, 0]
    h23_0 = ch.freq[2, 3][:, 0]
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


def product_density_check(scenario, n_draws, rng):
    """The product of two unit exponentials, scaled by sigma2_23, against
    its K-function law P(Z <= v) = 1 - t K1(t), t = 2 sqrt(v / sigma2_23)."""
    s23 = scenario.link_variance(2, 3)
    z = s23 * rng.exponential(size=n_draws) * rng.exponential(size=n_draws)

    def cdf(v):
        t = 2.0 * np.sqrt(v / s23)  # v > 0: every draw is positive
        return 1.0 - t * bessel_k(1, t)

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

    The p-value is ``_ks_pvalue(n, D)``.
    """
    x = np.sort(sample)
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


_RATE_DRAWS = 1000
# draws per block of realized_rates: R is (block, M, K) complex
_RATE_ROWS = 200


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
    """
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
    for lo in range(0, n_draws, _RATE_ROWS):
        rows = slice(lo, lo + _RATE_ROWS)
        rx = np.concatenate([h_su[rows, :, None] * pre.a, h24[rows, :, None] * pre.g],
                            axis=-1)
        gram = rx.conj().swapaxes(-1, -2) @ (rx / nu[:, None])
        logdet[rows] = np.linalg.slogdet(eye + gram)[1]  # Hermitian PD
        diag[rows] = np.log2(1.0 + np.sum(np.abs(rx) ** 2, axis=-1) / nu).sum(axis=-1)
    return logdet / np.log(2.0), diag


def precoder_structure_check(scenario, cfg, rng):
    """Null virtual rows of A, exact virtual Gram, exact budget, and the
    Hadamard direction of the per-subcarrier rate against the realized
    mutual information on every one of ``_RATE_DRAWS`` fading draws; the
    detail reports both rates averaged over the draws."""
    layout = cfg.layout
    profile, pre = _reference_precoders(scenario, cfg)
    vc_rows = np.abs(pre.a[list(layout.vc_indices), :]).max()
    g_gram = pre.g @ pre.g.conj().T
    g_target = np.diag(profile.full_vc_vector())
    g_err = np.abs(g_gram - g_target).max()
    budget = abs(power_residual(pre.profile, scenario)) / scenario.p_su
    det_rate, diag_rate = realized_rates(scenario, cfg, pre, _RATE_DRAWS, rng)
    ok = (vc_rows <= 1e-10 and g_err <= 1e-12 and budget <= 1e-9
          and np.all(det_rate <= diag_rate + 1e-9))
    return ok, (f"null rows {vc_rows:.1e}, vc gram err {g_err:.1e}, budget "
                f"residual {budget:.1e}, fading-averaged det-rate "
                f"{det_rate.mean():.3f} <= diag-rate {diag_rate.mean():.3f} "
                f"bits/block over {_RATE_DRAWS} draws")
