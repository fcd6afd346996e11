"""Batch experiment harness: reference scenario, the table of accepted
inputs, scheme sweeps and CSV output.

The reference layout normalizes the primary Tx-Rx distance to 1 and the
primary per-subcarrier power to 1; the secondary transmitter sits on a ray
leaving the primary transmitter at 60 degrees, parameterized by the swept
distance ratio.  Rates are bits/s/Hz; the manifest records the 20 MHz
anchor used to quote them in bits/s.  The self-validation suite that checks
the rates lives in ``validation``.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import platform
import signal
import sys
import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np
import numpy.random  # with the package, not lazily at a sweep's first generator

from . import __version__
from .channel import LinkSpec, NetworkScenario
from .capacity import (CapacityReport, baseline_nocr_quad, baseline_ocr,
                       c_pu_direct, c_pu_lower_quad, c_su_lower_csit,
                       c_su_lower_nocsit_quad, kappa, pu_outage_probability)
from .precoding import uniform_split
from .spectral import build_spectral_context, build_vc_layout
from .transceiver import required_cp_length

__all__ = [
    "SCHEMES",
    "RATE_ANCHOR_HZ",
    "ScenarioSpec",
    "SweepConfig",
    "reference_link_specs",
    "build_scenario",
    "evaluate_scheme",
    "run_sweep",
    "emit_csv",
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
    # on 2 threads peaks at 81 MiB here (52 MiB at 64)
    "m_subcarriers": Accepts("integer", lo=2, hi=_M_MAX),
    "l_su": Accepts("integer", lo=0, hi=_M_MAX - 1),
    "vc_indices": Accepts("integer", lo=0, hi=_M_MAX - 1, items="any"),
    "vc_power_fraction": Accepts("number", lo=0.0, hi=1.0),  # of the budget
    # no row depends on it; at most one process per task and per available CPU
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
    ``layout``.  Rates under the uniform split (``vc_power_fraction`` of
    the budget on the virtual subcarriers, none for the schemes that use no
    VCs) are exact quadratures with standard error 0; the ocr secondary
    rate and the waterfilled CSIT secondary rate are Monte Carlo over
    ``n_trials`` draws of ``rng``; the report's ``estimators`` names the
    method of each rate.  The CSIT rate scores one draw at every scenario
    (``c_su_lower_csit``); the ocr rate draws each scenario's trials in
    turn."""
    direct = [c_pu_direct(sc, layout) for sc in scenarios]
    if scheme == "ocr":
        pu, p_out = direct, [0.0] * len(scenarios)
        su = [baseline_ocr(sc, layout, n_trials, rng) for sc in scenarios]
        methods = ("closed_form", "mc")
    else:
        if scheme == "proposed_with_vcs":
            fraction, use_vcs = vc_power_fraction, True
        elif scheme in ("proposed_without_vcs", "nocr"):
            fraction, use_vcs = 0.0, False
        else:
            raise ValueError(f"unknown scheme {scheme!r}")
        split = [uniform_split(layout, sc, fraction) for sc in scenarios]
        pu = [c_pu_lower_quad(sc, layout, a) for sc, (a, _) in zip(scenarios, split)]
        p_out = [pu_outage_probability(sc) for sc in scenarios]
        methods = ("quadrature", "quadrature")
        if scheme == "nocr":
            su = [(baseline_nocr_quad(sc, layout), 0.0) for sc in scenarios]
        elif csit:
            su = c_su_lower_csit(scenarios, layout, n_trials, rng, use_vcs=use_vcs)
            methods = ("quadrature", "mc")
        else:
            su = [(c_su_lower_nocsit_quad(sc, layout, a, g), 0.0)
                  for sc, (a, g) in zip(scenarios, split)]
    return [CapacityReport(c_pu_lower=p, c_pu_direct=d, delta_c_pu=p - d,
                           c_su_lower=s, p_out=o,
                           std_err={"c_pu_lower": 0.0, "c_su_lower": se},
                           estimators=dict(zip(("c_pu_lower", "c_su_lower"), methods)))
            for p, d, (s, se), o in zip(pu, direct, su, p_out)]


def _worker_count(threads: int, n_tasks: int) -> int:
    """Processes a sweep runs on: at most ``threads``, one per task and one
    per CPU this process may run on; only the caller without ``os.fork``."""
    if not hasattr(os, "fork"):
        return 1
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return min(threads, n_tasks, cpus)


def _forked_worker(fd: int, work, indices) -> None:
    """Body of a forked worker: run ``work`` on ``indices`` and write
    ``(True, results)``, or ``(False, exception)``, pickled to ``fd``; it
    leaves by ``os._exit`` and never returns."""
    status = 1
    try:
        try:
            payload = (True, [work(i) for i in indices])
        except BaseException as exc:  # the parent raises it again
            payload = (False, exc)
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:  # an exception that does not survive pickling
                payload = (False, RuntimeError(f"{type(exc).__name__}: {exc}"))
        with open(fd, "wb") as fh:
            pickle.dump(payload, fh)
        status = 0
    finally:
        os._exit(status)


def _run_tasks(work, n_tasks: int, k: int):
    """Run ``work(i)`` for every task index on ``k`` processes; returns the
    results in task order and each forked worker's ``(cpu_s, max_rss_mib)``.

    The caller is worker 0 and runs tasks 0, k, 2k, ...; workers 1 to k - 1
    are forked from it, so they share everything built before the call, and
    worker w runs tasks w, w + k, ...  An exception raised in a worker is
    raised again here.  On any error the workers are killed; every worker is
    reaped with ``os.wait4`` before this returns or raises.
    """
    results = [None] * n_tasks
    pids, pipes, usage = [], [], []
    done = False
    try:
        for w in range(1, k):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_fd)
                _forked_worker(write_fd, work, range(w, n_tasks, k))
            os.close(write_fd)
            pids.append(pid)
            pipes.append(open(read_fd, "rb"))
        for i in range(0, n_tasks, k):
            results[i] = work(i)
        for w, pipe in enumerate(pipes, 1):
            data = pipe.read()
            if not data:
                raise ChildProcessError(f"sweep worker {w} ended without a result")
            ok, payload = pickle.loads(data)  # bytes a worker of this call wrote
            if not ok:
                raise payload
            results[w::k] = payload
        done = True
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            if not done:
                os.kill(pid, signal.SIGKILL)
            ru = os.wait4(pid, 0)[2]
            usage.append((ru.ru_utime + ru.ru_stime,
                          ru.ru_maxrss / (2 ** 20 if sys.platform == "darwin" else 1024)))
    return results, usage


def run_sweep(cfg: SweepConfig, threads: int = 1):
    """Run the sweep; returns (rows, manifest).

    One row per (grid value, scheme), in that order.  Each row draws from
    the child of the root seed at its position, so results do not depend on
    ``threads``, which must be at least 1; the row's ``seed`` tag names that
    child.  With ``csit`` the waterfilled rows of one proposed scheme are a
    single task: its ``c_su_lower_csit`` scores one draw, from the child of
    the scheme's first row, at every grid point, and every row of the scheme
    carries that child's tag.  Those tasks are queued first, since they take
    most of the time, so that they land on different workers.

    The tasks run on ``min(threads, tasks, available CPUs)`` processes: the
    caller and workers made with POSIX ``os.fork`` after the scenarios, the
    layout and the seeds are built (one process where there is no
    ``os.fork``).  Call it from a process with no other threads, since a
    forked worker holds only the calling thread.  The manifest's ``timing``
    holds the wall seconds of each task, in task order, and of the whole
    sweep, and the CPU seconds and peak RSS of each forked worker; they
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

    workers = _worker_count(threads, len(tasks))
    results, usage = _run_tasks(work, len(tasks), workers)
    by_position = dict(row for rows, _, _ in results for row in rows)
    rows = [by_position[gi, si] for gi in grid_points for si in range(n_schemes)]

    manifest = {
        "version": __version__,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "threads": threads,
            "workers": workers,
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
        # the standard error of each row's rates over the rate, from the
        # folded moments; 0 for an exact rate
        "rel_stderr": [{"sweep_var": row["sweep_var"], "scheme": row["scheme"],
                        **{rate: row[f"stderr_{rate}"] / row[rate] if row[f"stderr_{rate}"]
                           else 0.0 for rate in ("c_pu_lower", "c_su_lower")}}
                       for row in rows],
        "timing": {"task_s": [seconds for _, _, seconds in results],
                   "total_s": time.perf_counter() - start,
                   # of each forked worker, from os.wait4: the caller is not in them
                   "worker_cpu_s": [cpu for cpu, _ in usage],
                   "worker_max_rss_mib": [rss for _, rss in usage]},
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
