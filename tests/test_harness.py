"""Harness tests: configuration validation, sweep reproducibility, CSV
round trip and the CLI surface."""

import importlib.util
import json
import math
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, special, stats

import convsup.capacity
import convsup.channel
import convsup.cli
import convsup.harness
import convsup.precoding
import convsup.validation
from convsup.capacity import bessel_k1, c_su_lower_csit, psi
from convsup.channel import draw_channels, mean_se, zmcscg
from convsup.cli import main as cli_main
from convsup.harness import (ACCEPTED, SCHEMES, SWEEP_VARIABLES,
                             ScenarioSpec, SweepConfig, build_scenario,
                             emit_csv, evaluate_scheme, reference_link_specs,
                             resolve_d12, run_sweep, stx_position)
from convsup.precoding import (realize_precoders, srx_noise_floor, uc_power_coefficient,
                               uniform_split, waterfill_power, waterfill_thresholds,
                               waterfilling_profile)
from convsup.spectral import build_spectral_context, build_vc_layout
from convsup.transceiver import FrameConfig
from convsup.validation import (precoder_structure_check, realized_rates,
                                special_functions_check, validate_suite,
                                waterfilling_check)


def load_benchmark_gates():
    """perfbench/gates.py, the benchmark's output gates (not a package)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gates.py"
    spec = importlib.util.spec_from_file_location("perfbench_gates", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


DATA = Path(__file__).parent / "data"
# stdout of `convsup validate --seed 20260809 --trials 5000 --frames 100`
GOLDEN_VALIDATE = DATA / "validate_seed20260809_trials5000_frames100.txt"


def small_config(**overrides):
    base = dict(sweep_variable="snr_pu_db", grid=(15.0, 20.0),
                schemes=("proposed_with_vcs", "ocr"), csit=False,
                n_trials=400, seed=123,
                scenario=ScenarioSpec(m_subcarriers=16, l_su=5,
                                      vc_indices=(0, 8)))
    base.update(overrides)
    return SweepConfig(**base)


# other scenario fields that keep an end of a row runnable (l_su below
# m_subcarriers, VC indices below it and fewer than l_su + 1), or that make
# it harder: with this budget 3 * (p_su / 3) rounds above p_su
_END_COMPANIONS = {("m_subcarriers", 2): {"l_su": 1, "vc_indices": (1,)},
                   ("l_su", 0): {"vc_indices": ()},
                   ("l_su", 255): {"m_subcarriers": 256},
                   ("vc_indices", 255): {"m_subcarriers": 256},
                   ("vc_power_fraction", 1.0): {"power_ratio": 0.0016220417389788647,
                                                "vc_indices": (0, 5, 10)}}


def _range_end_cases():
    """(row, end, csit) for both ends of every bounded numeric row of
    ACCEPTED but power_ratio, which test_power_ratio_range_ends_run covers;
    an excluded end is replaced by the next float inside.  validate's own
    rows run once, the others with and without CSIT."""
    for name, row in ACCEPTED.items():
        if row.kind not in ("integer", "number") or name == "power_ratio":
            continue
        for label, end in (("lowest", row.lo), ("highest", row.hi)):
            if not math.isfinite(end):
                continue
            if label == "lowest" and row.lo_open:
                end = math.nextafter(end, math.inf)
            for csit in ((None,) if name in ("trials", "n_frames") else (False, True)):
                tag = "" if csit is None else "-csit" if csit else "-nocsit"
                yield pytest.param(name, end, csit, id=f"{name}-{label}{tag}")


class TestGeometry:
    def test_reference_distances(self):
        assert resolve_d12(0.3, "d13") == pytest.approx(0.3)
        assert resolve_d12(0.7, "d14") == pytest.approx(0.7 * np.hypot(0.5, 2.0))
        x, y = stx_position(0.3)
        assert (x, y) == pytest.approx((-0.35, 0.3 * np.sqrt(3) / 2))

    def test_snr_anchors(self):
        s = build_scenario(0.3, 2.0, 20.0, "pu")
        assert s.sigma2_v[3] == pytest.approx(0.01)
        s = build_scenario(0.3, 2.0, 20.0, "su")
        assert s.sigma2_v[3] == pytest.approx(0.02)
        with pytest.raises(ValueError):
            build_scenario(0.3, 1.0, 20.0, "bogus")


class TestSweepConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            small_config(grid=())
        with pytest.raises(ValueError):
            small_config(grid=(1.0, 1.0))
        with pytest.raises(ValueError):
            small_config(grid=(1.0, 3.0, 2.0))
        with pytest.raises(ValueError):
            small_config(schemes=("bogus",))
        with pytest.raises(ValueError):
            small_config(n_trials=50)

    def test_from_json(self, tmp_path):
        raw = {
            "sweep_variable": "d12_ratio",
            "grid": [0.3, 0.5, 0.7],
            "schemes": ["proposed_with_vcs", "nocr"],
            "csit": True,
            "n_trials": 500,
            "seed": 9,
            "scenario": {"d12_ref": "d14", "snr_db": 20.0, "snr_ref": "su",
                         "vc_indices": [0, 16, 32, 48]},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        cfg = SweepConfig.from_json(path)
        assert cfg.sweep_variable == "d12_ratio"
        assert cfg.scenario.d12_ref == "d14"
        assert cfg.csit is True
        assert cfg.grid == (0.3, 0.5, 0.7)

    def test_sweep_value_application(self):
        spec = ScenarioSpec()
        assert spec.with_sweep_value("snr_su_db", 10.0).snr_ref == "su"
        assert spec.with_sweep_value("power_ratio", 2.5).power_ratio == 2.5
        with pytest.raises(ValueError):
            spec.with_sweep_value("bogus", 1.0)


class TestRunSweep:
    def test_row_structure_and_determinism(self):
        cfg = small_config()
        rows_a, manifest = run_sweep(cfg)
        rows_b, _ = run_sweep(cfg)
        assert rows_a == rows_b
        assert len(rows_a) == len(cfg.grid) * len(cfg.schemes)
        assert rows_a[0]["scheme"] == "proposed_with_vcs"
        assert rows_a[0]["seed"] == "123/0"
        for row in rows_a:
            assert row["delta_c_pu"] == pytest.approx(
                row["c_pu_lower"] - row["c_pu_direct"], abs=1e-15)
        assert manifest["grid_points"][0]["l_cp"] == 11
        assert manifest["rate_anchor_hz"] == 20e6

    @pytest.mark.parametrize("csit", [True, False], ids=["csit", "nocsit"])
    def test_rows_across_the_batch_boundary_are_pinned(self, tmp_path, csit):
        # every Monte Carlo rate of the sweep draws 25 000 trials, in
        # batches of 20 000 and 5 000: the CSV is the recorded one, byte
        # for byte
        cfg = small_config(schemes=SCHEMES, csit=csit, n_trials=25_000)
        assert cfg.n_trials > convsup.channel._CHUNK
        rows, _ = run_sweep(cfg)
        emit_csv(rows, tmp_path / "out.csv")
        golden = DATA / f"sweep_m16_trials25000_{'csit' if csit else 'nocsit'}.csv"
        assert (tmp_path / "out.csv").read_bytes() == golden.read_bytes()

    @pytest.mark.parametrize("csit", [False, True], ids=["nocsit", "csit"])
    def test_thread_count_does_not_change_results(self, tmp_path, csit):
        cfg = small_config(schemes=SCHEMES, csit=csit)
        written = []
        for threads in (1, 2, 3):
            path = tmp_path / f"threads{threads}.csv"
            emit_csv(run_sweep(cfg, threads=threads)[0], path)
            written.append(path.read_bytes())
        assert written[1] == written[0] and written[2] == written[0]

    @pytest.mark.parametrize("variable", SWEEP_VARIABLES)
    def test_csit_rows_of_a_scheme_share_one_stream(self, variable):
        # each waterfilled scheme draws its trials once, from the child seed
        # of its first row, and scores them at every grid point: every row is
        # the one-scenario estimator on that child, to the bit, across the
        # batch and row-block boundaries, whether the grid moves only the
        # noise (the grid points share the factors of a block), s24 and s12
        # (d12_ratio) or P_su (power_ratio)
        grid = {"d12_ratio": (0.2, 0.3, 0.5),
                "power_ratio": (0.5, 1.0, 2.0)}.get(variable, (10.0, 15.0, 20.0))
        n = convsup.channel._CHUNK + convsup.capacity._CSIT_ROWS + 1
        cfg = small_config(sweep_variable=variable, grid=grid, schemes=SCHEMES,
                           csit=True, n_trials=n)
        rows, _ = run_sweep(cfg)
        children = np.random.SeedSequence(cfg.seed).spawn(len(rows))
        for position, row in enumerate(rows):
            if row["scheme"] not in ("proposed_with_vcs", "proposed_without_vcs"):
                assert row["seed"] == f"{cfg.seed}/{position}"
                continue
            si = cfg.schemes.index(row["scheme"])
            assert row["seed"] == f"{cfg.seed}/{si}"
            spec = cfg.scenario.with_sweep_value(cfg.sweep_variable, row["sweep_var"])
            scenario, (_, layout, _) = spec.network(), spec.spectral()
            want = mean_se(c_su_lower_csit([scenario], layout, cfg.n_trials,
                                           np.random.default_rng(children[si]),
                                           use_vcs=row["scheme"] == "proposed_with_vcs"))
            assert [(row["c_su_lower"], row["stderr_c_su_lower"])] == want

    @pytest.mark.parametrize("csit", [False, True], ids=["nocsit", "csit"])
    def test_lowest_accepted_snr_runs(self, csit):
        # warnings are errors in this suite: the bottom of the accepted SNR
        # range runs every scheme without one
        rows, _ = run_sweep(small_config(grid=(ACCEPTED["snr_db"].lo,),
                                         schemes=SCHEMES, csit=csit))
        assert all(np.isfinite(row[k]) for row in rows
                   for k in ("c_pu_lower", "c_su_lower", "stderr_c_su_lower"))

    @pytest.mark.parametrize("csit", [False, True], ids=["nocsit", "csit"])
    @pytest.mark.parametrize("variable", ["snr_pu_db", "snr_su_db"])
    @pytest.mark.parametrize("power_ratio", [ACCEPTED["power_ratio"].lo,
                                             ACCEPTED["power_ratio"].hi],
                             ids=["lowest", "highest"])
    def test_power_ratio_range_ends_run(self, power_ratio, variable, csit):
        # warnings are errors in this suite: both ends of the accepted
        # power_ratio range run every scheme without one
        spec = ScenarioSpec(power_ratio=power_ratio, m_subcarriers=16, l_su=5,
                            vc_indices=(0, 8))
        rows, _ = run_sweep(small_config(sweep_variable=variable, grid=(0.0, 20.0, 30.0),
                                         schemes=SCHEMES, csit=csit, scenario=spec))
        assert all(np.isfinite(row[k]) for row in rows
                   for k in ("c_pu_lower", "c_su_lower", "stderr_c_su_lower"))

    @pytest.mark.parametrize("name, end, csit", list(_range_end_cases()))
    def test_accepted_range_ends_run(self, name, end, csit):
        # warnings are errors in this suite: each end of every bounded
        # numeric row of ACCEPTED runs every scheme without one, at 0, 20
        # and 30 dB
        if name in ("trials", "n_frames"):  # validate's own rows
            report = validate_suite(**{"seed": 1, "trials": 3000, "n_frames": 20,
                                       name: end})
            assert {c.status for c in report.checks} <= {"PASS", "FAIL", "SKIP"}
            return
        spec = {"m_subcarriers": 16, "l_su": 5, "vc_indices": (0, 8),
                **_END_COMPANIONS.get((name, end), {})}
        cfg = {"grid": (0.0, 20.0, 30.0), "schemes": SCHEMES, "csit": csit}
        variables, threads = ("snr_pu_db",), 1
        if name == "snr_db":  # the grid sets it, under both anchors
            cfg["grid"], variables = (end,), ("snr_pu_db", "snr_su_db")
        elif name == "threads":
            threads = end
        elif name in ("n_trials", "seed"):
            cfg[name] = end
        else:
            spec[name] = (end,) if name == "vc_indices" else end
        for variable in variables:
            rows, _ = run_sweep(small_config(sweep_variable=variable,
                                             scenario=ScenarioSpec(**spec), **cfg),
                                threads=threads)
            assert all(np.isfinite(row[k]) for row in rows
                       for k in ("c_pu_lower", "c_su_lower", "stderr_c_su_lower"))

    def test_spectral_context_is_built_once_per_sweep(self, monkeypatch):
        # no sweep variable changes the subcarriers, the filter length or
        # the VC layout, so the whole sweep shares one context
        calls = []
        real = convsup.harness.build_spectral_context
        monkeypatch.setattr(convsup.harness, "build_spectral_context",
                            lambda *a: calls.append(a) or real(*a))
        rows, manifest = run_sweep(small_config(grid=(10.0, 15.0, 20.0)))
        assert len(calls) == 1 and len(manifest["grid_points"]) == 3
        assert {p["l_cp"] for p in manifest["grid_points"]} == {11}

    def test_ocr_rows_report_direct_capacity(self):
        cfg = small_config()
        rows, _ = run_sweep(cfg)
        ocr = [r for r in rows if r["scheme"] == "ocr"]
        for row in ocr:
            assert row["delta_c_pu"] == 0.0
            assert row["p_out"] == 0.0

    @pytest.mark.parametrize("csit", [False, True], ids=["nocsit", "csit"])
    def test_quadrature_rows_report_zero_stderr(self, csit):
        cfg = small_config(grid=(20.0,), schemes=SCHEMES, csit=csit)
        rows, manifest = run_sweep(cfg)
        estimators = manifest["estimators"]
        assert set(estimators) == set(SCHEMES)
        for row in rows:
            for q in ("c_pu_lower", "c_su_lower"):
                exact = estimators[row["scheme"]][q] != "mc"
                assert (row[f"stderr_{q}"] == 0.0) == exact, (row["scheme"], q)
            assert row["n_trials"] == cfg.n_trials
        want_su = "mc" if csit else "quadrature"
        assert estimators["proposed_with_vcs"] == {"c_pu_lower": "quadrature",
                                                   "c_su_lower": want_su}
        assert estimators["nocr"] == {"c_pu_lower": "quadrature",
                                      "c_su_lower": "quadrature"}
        assert estimators["ocr"] == {"c_pu_lower": "closed_form", "c_su_lower": "mc"}

    def test_manifest_records_environment(self):
        # two tasks on 2 threads: as many workers as this process has CPUs,
        # up to 2
        _, manifest = run_sweep(small_config(grid=(20.0,)), threads=2)
        assert manifest["environment"] == {
            "python": platform.python_version(), "numpy": np.__version__,
            "threads": 2, "workers": min(2, _cpus()),
            "cpu_count": os.cpu_count()}

    @pytest.mark.parametrize("variable, anchor", [
        ("snr_pu_db", "pu"), ("snr_su_db", "su"), ("d12_ratio", "pu")])
    def test_manifest_records_the_snr_anchor_the_rows_ran_at(self, variable, anchor):
        # the default scenario says "pu"; an SNR sweep sets its own anchor
        grid = (0.5,) if variable == "d12_ratio" else (20.0,)
        _, manifest = run_sweep(small_config(sweep_variable=variable, grid=grid,
                                             schemes=("ocr",)))
        assert manifest["config"]["scenario"]["snr_ref"] == anchor

    def test_manifest_records_task_timing(self):
        cfg = small_config()
        rows, manifest = run_sweep(cfg, threads=2)
        timing = json.loads(json.dumps(manifest["timing"]))
        assert timing.keys() == {"task_s", "total_s", "worker_cpu_s",
                                 "worker_max_rss_mib"}
        assert len(timing["task_s"]) == len(rows) == 4
        assert all(t > 0.0 for t in timing["task_s"])
        assert timing["total_s"] >= max(timing["task_s"])
        # one entry per forked worker: the caller is worker 0
        forked = manifest["environment"]["workers"] - 1
        assert len(timing["worker_cpu_s"]) == len(timing["worker_max_rss_mib"]) == forked
        assert all(t >= 0.0 for t in timing["worker_cpu_s"])
        assert all(m > 0.0 for m in timing["worker_max_rss_mib"])
        # timings go to the manifest only: the rows do not depend on them
        assert rows == run_sweep(cfg, threads=1)[0]

    @pytest.mark.parametrize("csit", [False, True], ids=["nocsit", "csit"])
    def test_manifest_records_each_rows_relative_stderr(self, tmp_path, csit):
        # one entry per row, in row order: the stderr over the rate of each
        # Monte Carlo rate, 0 for an exact one; neither it nor the CSV
        # depends on the thread count
        cfg = small_config(schemes=SCHEMES, csit=csit)
        runs = [run_sweep(cfg, threads=threads) for threads in (1, 2)]
        for threads, (rows, _) in zip((1, 2), runs):
            emit_csv(rows, tmp_path / f"threads{threads}.csv")
        assert (tmp_path / "threads1.csv").read_bytes() == (tmp_path / "threads2.csv").read_bytes()
        (rows, manifest), (_, manifest2) = runs
        rel = json.loads(json.dumps(manifest["rel_stderr"]))
        assert rel == manifest2["rel_stderr"] and len(rel) == len(rows)
        for row, entry in zip(rows, rel):
            assert entry["sweep_var"] == row["sweep_var"] and entry["scheme"] == row["scheme"]
            for q in ("c_pu_lower", "c_su_lower"):
                se = row[f"stderr_{q}"]
                assert entry[q] == (se / row[q] if se else 0.0)
                assert (entry[q] > 0.0) == (manifest["estimators"][row["scheme"]][q] == "mc")

    def test_zero_power_secondary_has_no_effect(self):
        ctx = build_spectral_context(16, 5)
        layout = build_vc_layout(ctx, (0, 8))
        scenario = build_scenario(0.3, 1e-12, 20.0, "pu")
        [rep], _ = evaluate_scheme("proposed_with_vcs", [scenario], layout, False,
                                   200, np.random.default_rng(0))
        assert rep.c_pu_lower - rep.c_pu_direct == pytest.approx(0.0, abs=1e-9)

    def test_infeasible_layout_aborts_with_diagnostic(self):
        with pytest.raises(ValueError, match="l_su"):
            small_config(scenario=ScenarioSpec(m_subcarriers=16, l_su=1,
                                               vc_indices=(0, 4, 8))).scenario.spectral()


def _cpus():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class WorkerFailure(Exception):
    pass


class TwoPartError(Exception):
    """Pickles as its message alone, which its two-argument constructor
    cannot take back."""

    def __init__(self, a, b):
        super().__init__(f"{a} {b}")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="one process without os.fork")
class TestWorkers:
    """The sweep's tasks on forked worker processes: the caller is worker 0,
    so a patched ``evaluate_scheme`` that compares ``os.getpid()`` with the
    caller's fails in a forked worker only."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        # k = min(threads, tasks, CPUs) on any host: two CPUs unless a test
        # sets its own
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    @staticmethod
    def fail_in_worker(monkeypatch, fault):
        """Make ``evaluate_scheme`` call ``fault()`` in a forked worker and
        run normally in the caller."""
        caller, real = os.getpid(), convsup.harness.evaluate_scheme

        def patched(*args, **kwargs):
            if os.getpid() != caller:
                fault()
            return real(*args, **kwargs)
        monkeypatch.setattr(convsup.harness, "evaluate_scheme", patched)

    def test_processes_are_capped_by_threads_tasks_and_cpus(self, monkeypatch):
        real_fork, forks = os.fork, []

        def counting_fork():
            forks.append(1)
            return real_fork()
        monkeypatch.setattr(os, "fork", counting_fork)
        cfg = small_config()  # 4 tasks
        for threads, cpus, workers in ((8, 3, 3), (8, 6, 4), (2, 6, 2), (1, 6, 1)):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            forks.clear()
            rows, manifest = run_sweep(cfg, threads=threads)
            assert manifest["environment"]["workers"] == workers
            assert len(forks) == workers - 1
            assert rows == run_sweep(cfg)[0]
            assert_no_child_left()

    def test_a_task_raising_in_a_worker_reaches_the_caller(self, monkeypatch):
        def fault():
            raise WorkerFailure("task failed in a forked worker")
        self.fail_in_worker(monkeypatch, fault)
        with pytest.raises(WorkerFailure, match="^task failed in a forked worker$"):
            run_sweep(small_config(), threads=2)
        assert_no_child_left()

    def test_an_exception_that_does_not_pickle_arrives_by_name(self, monkeypatch):
        def fault():
            raise TwoPartError("split", "message")
        self.fail_in_worker(monkeypatch, fault)
        with pytest.raises(RuntimeError, match="^TwoPartError: split message$"):
            run_sweep(small_config(), threads=2)
        assert_no_child_left()

    def test_a_worker_that_dies_is_reported(self, monkeypatch):
        self.fail_in_worker(monkeypatch, lambda: os._exit(3))
        with pytest.raises(ChildProcessError, match="worker 1 ended without a result"):
            run_sweep(small_config(), threads=2)
        assert_no_child_left()

    def test_an_error_in_the_caller_kills_the_workers(self, monkeypatch):
        # the forked worker would sleep for a minute; the caller's error
        # kills it, so the sweep raises at once and leaves no process
        caller, real = os.getpid(), convsup.harness.evaluate_scheme

        def patched(*args, **kwargs):
            if os.getpid() != caller:
                time.sleep(60)
            raise WorkerFailure("task failed in the caller")
        monkeypatch.setattr(convsup.harness, "evaluate_scheme", patched)
        start = time.perf_counter()
        with pytest.raises(WorkerFailure, match="in the caller"):
            run_sweep(small_config(), threads=2)
        assert time.perf_counter() - start < 30
        assert_no_child_left()

    def test_cli_reports_a_worker_failure_in_one_line(self, monkeypatch, tmp_path, capsys):
        def fault():
            raise ValueError("bad value in a forked worker")
        self.fail_in_worker(monkeypatch, fault)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"sweep_variable": "snr_pu_db", "grid": [15.0, 20.0],
                                        "schemes": ["ocr", "nocr"], "n_trials": 200}))
        out = tmp_path / "out.csv"
        rc = cli_main(["sweep", "--config", str(cfg_path), "--threads", "2",
                       "--out", str(out)])
        err = capsys.readouterr().err
        assert rc != 0 and not out.exists()
        assert err == "sweep aborted: bad value in a forked worker\n"
        assert_no_child_left()


def test_unpinned_blas_two_worker_sweep_matches_the_golden(tmp_path):
    # in a fresh interpreter with the BLAS thread pools left at their
    # defaults, a 2-thread CSIT sweep writes the recorded 1-thread CSV
    cfg = small_config(schemes=SCHEMES, csit=True, n_trials=25_000)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "sweep_variable": cfg.sweep_variable, "grid": list(cfg.grid),
        "schemes": list(cfg.schemes), "csit": cfg.csit, "n_trials": cfg.n_trials,
        "seed": cfg.seed, "scenario": {"m_subcarriers": 16, "l_su": 5,
                                       "vc_indices": [0, 8]}}))
    src = str(Path(convsup.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = tmp_path / "out.csv"
    proc = subprocess.run([sys.executable, "-m", "convsup.cli", "sweep", "--config",
                           str(cfg_path), "--threads", "2", "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == (DATA / "sweep_m16_trials25000_csit.csv").read_bytes()
    manifest = json.loads((tmp_path / "out.csv.manifest.json").read_text())
    assert manifest["environment"]["workers"] == min(2, _cpus())


class TestEmitCsv:
    def test_header_only_for_empty_table(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("sweep_var,scheme,")

    def test_round_trip(self, tmp_path):
        cfg = small_config()
        rows, _ = run_sweep(cfg)
        path = tmp_path / "rows.csv"
        emit_csv(rows, path)
        lines = path.read_text().splitlines()
        assert len(lines) == len(rows) + 1
        header = lines[0].split(",")
        parsed = dict(zip(header, lines[1].split(",")))
        assert float(parsed["c_pu_lower"]) == rows[0]["c_pu_lower"]
        assert int(parsed["n_trials"]) == cfg.n_trials
        assert parsed["seed"] == "123/0"

    def test_byte_identical_for_fixed_seed(self, tmp_path):
        cfg = small_config()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_sweep(cfg, threads=1)[0], p1)
        emit_csv(run_sweep(cfg, threads=2)[0], p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestValidateSuite:
    def test_fast_pass(self):
        report = validate_suite(seed=1, trials=3000, n_frames=20)
        assert report.ok, report.render()
        gate = [c for c in report.checks if c.name == "monotonicity_hypothesis_gate"]
        assert gate[0].status == "SKIP"

    @pytest.mark.parametrize("name", load_benchmark_gates().VALIDATE_EXPECTED)
    def test_each_line_is_decided_by_its_check_alone(self, monkeypatch, name):
        # line X is decided by convsup.validation.X_check alone: with every
        # other check holding, X's sentinel fails line X, with its detail, and
        # no other line.  A line decided without its check never shows the
        # sentinel, even where no such check exists.
        lines = load_benchmark_gates().VALIDATE_EXPECTED
        for line in lines:
            result = (False, f"{line} sentinel") if line == name else (True, "holds")
            monkeypatch.setattr(convsup.validation, f"{line}_check",
                                lambda *args, r=result: r, raising=False)
        report = validate_suite(seed=1, trials=200, n_frames=1)
        assert [c.name for c in report.checks] == list(lines)
        assert [(c.name, c.detail) for c in report.checks if c.status == "FAIL"] == [
            (name, f"{name} sentinel")]

    def test_realizes_one_precoder_pair(self, monkeypatch):
        # the frame, noise-path, power and precoder checks all take the
        # precoders of _reference_setup
        calls = []

        def spy(*args):
            calls.append(args)
            return convsup.precoding.realize_precoders(*args)
        monkeypatch.setattr(convsup.validation, "realize_precoders", spy)
        validate_suite(seed=1, trials=200, n_frames=1)
        assert len(calls) == 1

    def test_one_frame_passes(self, capsys):
        # the frame oracles take a max over frames, not a standard error,
        # so a single frame is a valid size
        assert cli_main(["validate", "--trials", "5000", "--frames", "1"]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_benchmark_configuration_passes_its_gate(self, capsys):
        rc = cli_main(["validate", "--seed", "20260809", "--trials", "5000",
                       "--frames", "100"])
        out, err = capsys.readouterr()
        gates = load_benchmark_gates()
        _, problems = gates.check_validate(out, rc)
        assert problems == []
        # the report is on stdout, the time of each check on stderr
        times = dict(re.fullmatch(r"(\w+): (\d+\.\d\d) s", line).groups()
                     for line in err.splitlines())
        assert times.keys() == gates.VALIDATE_EXPECTED.keys()
        assert all(float(t) >= 0.0 for t in times.values())
        # the report of a seed is deterministic: the same bytes as the
        # recorded run of this configuration
        assert out == GOLDEN_VALIDATE.read_text()

    def test_realized_det_rate_stays_below_diag_rate(self):
        scenario, cfg, _, pre = convsup.validation._reference_setup()
        layout = cfg.layout
        det, diag = realized_rates(scenario, cfg, pre, 300, np.random.default_rng(5))
        assert det.shape == diag.shape == (300,)
        assert np.all(det <= diag + 1e-9)
        assert det.mean() < diag.mean()
        # Sylvester's K x K determinant against the M x M one, same draws
        rng = np.random.default_rng(6)
        det, diag = realized_rates(scenario, cfg, pre, 3, rng)
        rng = np.random.default_rng(6)
        ch = draw_channels(scenario, cfg.specs, cfg.m, rng, batch=(3,))
        x_pu = zmcscg(rng, (3, layout.q), scenario.p_pu)
        v2 = zmcscg(rng, (3, cfg.m), scenario.sigma2_v[2])
        nu = np.where(layout.uc_mask(), srx_noise_floor(scenario), scenario.sigma2_v[4])
        for i in range(3):
            h24 = ch.freq[2, 4][i]
            h_su = h24 * (ch.freq[1, 2][i] * (layout.theta @ x_pu[i]) + v2[i])
            rx = np.hstack([h_su[:, None] * pre.a, h24[:, None] * pre.g])
            gram = rx @ rx.conj().T
            _, logdet = np.linalg.slogdet(np.eye(cfg.m) + gram / nu[:, None])
            assert abs(det[i] - logdet / np.log(2.0)) <= 1e-9 * abs(det[i])
            want_diag = np.log2(1.0 + np.diag(gram).real / nu).sum()
            assert abs(diag[i] - want_diag) <= 1e-9 * want_diag

    def test_precoder_structure_holds_without_vcs(self):
        # no virtual rows to be null and no VC Gram: both read 0, and the
        # budget and the rate ordering still hold
        spec = ScenarioSpec(vc_indices=())
        scenario = spec.network()
        ctx, layout, l_cp = spec.spectral()
        cfg = FrameConfig(ctx=ctx, layout=layout, l_cp=l_cp, specs=reference_link_specs())
        a, g = uniform_split(layout, scenario, spec.vc_power_fraction)
        ok, detail = precoder_structure_check(scenario, cfg, g,
                                              realize_precoders(ctx, layout, a, g),
                                              np.random.default_rng(3))
        assert ok, detail
        assert detail.startswith("null rows 0.0e+00, vc gram err 0.0e+00, ")


class TestSpecialFunctionReferences:
    """The trapezoid sums behind ``special_functions_check`` against the
    adaptive quadrature they replace, and the check's own power to fail."""

    def test_psi_reference_matches_adaptive_quadrature(self):
        a = convsup.validation._PSI_GRID
        got = convsup.validation._psi_trapezoid(a)
        for aa, value in zip(a, got):
            ref, _ = integrate.quad(lambda u: np.exp(-u) * np.log1p(aa * u),
                                    0, np.inf, limit=400)
            assert abs(value - ref) <= 1e-9 * ref, aa

    @pytest.mark.parametrize("order", [1])
    def test_bessel_reference_matches_adaptive_quadrature(self, order):
        # K_a(x) = sqrt(pi) (x/2)^a / Gamma(a+1/2) int_1^inf e^{-xt}
        # (t^2-1)^(a-1/2) dt, whose prefactor is x for a = 1
        x = np.array(convsup.validation._K_GRID)
        got = convsup.validation._bessel_k1_trapezoid(x)
        for xx, value in zip(x, got):
            val, _ = integrate.quad(
                lambda t: np.exp(-xx * t) * (t * t - 1.0) ** (order - 0.5),
                1.0, np.inf, limit=400, epsabs=1e-14, epsrel=1e-12)
            ref = xx ** order * val
            assert abs(value - ref) <= 1e-9 * ref, xx

    @pytest.mark.parametrize("name,wrong", [
        ("psi", lambda a: psi(a) * (1.0 + 1e-7)),
        ("bessel_k1", lambda x: bessel_k1(x) * (1.0 + 1e-7)),
    ], ids=["psi", "bessel_k"])
    def test_a_slightly_wrong_function_fails_the_check(self, monkeypatch, name,
                                                        wrong):
        assert special_functions_check()[0]
        monkeypatch.setattr(convsup.validation, name, wrong)
        ok, detail = special_functions_check()
        assert not ok, detail


class TestKsTest:
    """``validation._ks_test`` against ``scipy.stats.kstest``.  Exponential
    samples are tested against exponential laws whose scale is off by
    k / sqrt(n), k from 0 to 3.75, so the statistics range from typical to
    far in the tail at every n."""

    @pytest.mark.parametrize("n", [100, 141, 5000, 100_000])
    def test_matches_scipy(self, n):
        rng = np.random.default_rng(n)
        cases = []
        for k in np.arange(0.0, 4.0, 0.25):
            scale = 1.0 + np.e * k / np.sqrt(n)
            x = rng.exponential(size=n)

            def cdf(v, scale=scale):
                return -special.expm1(-(v / scale))

            d, p = convsup.validation._ks_test(x, cdf)
            want = stats.kstest(x, "expon", args=(0.0, scale))
            assert d == want.statistic
            tail = n * d * d >= 2.2
            if tail and n > 140:
                assert p == want.pvalue
            if n >= 5000:
                assert abs(p - want.pvalue) <= 0.005
            assert (p > 0.01) == (want.pvalue > 0.01), (k, p, want.pvalue)
            cases.append((tail, want.pvalue > 0.01))
        # both p-value rules and both verdicts are exercised
        assert {tail for tail, _ in cases} == {True, False}
        assert {verdict for _, verdict in cases} == {True, False}

    def test_callable_cdf_as_in_the_product_density_check(self):
        rng = np.random.default_rng(7)
        z = rng.exponential(size=20_000) * rng.exponential(size=20_000)

        def cdf(v):
            t = 2.0 * np.sqrt(v)
            return 1.0 - t * bessel_k1(t)

        d, p = convsup.validation._ks_test(z, cdf)
        want = stats.kstest(z, cdf)
        assert d == want.statistic
        assert abs(p - want.pvalue) <= 0.005
        assert p > 0.01

    def test_sorts_the_sample_in_place(self):
        # the statistic of a sorted copy, as before the sort moved in place,
        # and the caller's array left sorted
        rng = np.random.default_rng(8)
        sample = rng.exponential(size=5000)
        before = sample.copy()

        def cdf(v):
            return -special.expm1(-v)

        got = convsup.validation._ks_test(sample, cdf)
        assert got == convsup.validation._ks_test(np.sort(before), cdf)
        assert np.array_equal(sample, np.sort(before))


def full_ks(sample, cdf):
    """(D, p, whether D+ holds the supremum) with the CDF evaluated at every
    sorted point: the definition the block search must reproduce."""
    x = np.sort(sample)
    n = x.size
    f = cdf(x)
    d_plus = np.max(np.arange(1.0, n + 1) / n - f)
    d_minus = np.max(f - np.arange(0.0, n) / n)
    d = float(max(d_plus, d_minus))
    return d, convsup.validation._ks_pvalue(n, d), bool(d_plus > d_minus)


def wiggle(v):
    """-1e-15, 0 or +1e-15 by the low bits of each value: a computed CDF
    that steps down by rounding where the true law rises."""
    return 1e-15 * (np.asarray(v, dtype=float).view(np.int64) % 3 - 1)


def with_wiggle(target, step):
    """The first float at or above ``target`` that ``wiggle`` moves by
    ``step`` (-1, 0 or +1) times 1e-15."""
    v = np.float64(target)
    while wiggle(v) != step * 1e-15:
        v = np.nextafter(v, np.inf)
    return v


class TestKsBlockBound:
    """``validation._ks_test`` evaluates the CDF only at block edges and in
    the blocks whose bound can hold the supremum; (D, p) must be those of
    the full evaluation to the bit."""

    @staticmethod
    def laws(n, rng):
        """(sample, cdf) pairs: exponential samples against laws scaled
        both ways and mirrored, so the supremum falls in D+ and in D-,
        tied samples, a law with CDF values of exactly 0 and 1, and a CDF
        with rounding-level wiggles.  Each law departs from its sample by
        about 1/sqrt(n), so n D^2 stays below 2.2: above it
        ``special.smirnov`` at n = 1M takes over a second."""
        c = 0.5 / np.sqrt(n)
        x = np.sort(rng.exponential(size=n))  # sorted once, for speed
        for scale in (1.0 / (1.0 + 2 * c), 1.0, 1.0 + 2 * c):
            yield x, lambda v, s=scale: -special.expm1(-(v / s))
        # the mirror image, P(-X <= v) = e^v: D+ and D- trade places
        yield -x, np.exp
        # ties: the sample floored to a grid of step c, about sqrt(n) / c
        # points per value at the mode
        yield np.floor(x / c) * c, lambda v: -special.expm1(-v)
        # the law stretched by 2c, so that F is 0 on the lowest ~c n points
        # and 1 on the highest
        yield x, lambda v: np.clip((1.0 + 2 * c) * -special.expm1(-v) - c, 0.0, 1.0)
        yield x, lambda v: -special.expm1(-v) + wiggle(v)

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 129, 5000, 1_000_000])
    def test_matches_full_evaluation(self, n):
        rng = np.random.default_rng(n + 11)
        sides = set()
        for sample, cdf in self.laws(n, rng):
            d, p, plus = full_ks(sample, cdf)
            assert convsup.validation._ks_test(sample, cdf) == (d, p)
            sides.add(plus)
        if n > 1:  # one point has D+ = 1 - F and D- = F only
            assert sides == {True, False}

    @pytest.mark.parametrize("side", ["plus", "minus"])
    def test_rounding_wiggle_inside_a_block(self, side):
        # one block of 64 points whose largest term sits inside it and
        # exceeds the edge bound by the CDF's wiggle: F(x_0) is 1e-15 high
        # (D+) or F(x_63) 1e-15 low (D-), so only the margin keeps the
        # block open
        if side == "plus":
            x0 = with_wiggle(0.25, +1)
            inner = with_wiggle(np.nextafter(x0, 1.0), -1)
            x = [x0] + [inner] * 62 + [with_wiggle(0.25 + 1 / 64, 0)]
        else:
            inner = with_wiggle(0.75, +1)
            x = ([with_wiggle(0.75 - 1 / 64, 0)] + [inner] * 62
                 + [with_wiggle(np.nextafter(inner, 1.0), -1)])

        def cdf(v):
            return v + wiggle(v)

        d, p, plus = full_ks(np.array(x), cdf)
        assert plus == (side == "plus")
        assert convsup.validation._ks_test(np.array(x), cdf) == (d, p)

    def test_evaluates_few_points(self):
        n = 1_000_000
        rng = np.random.default_rng(5)
        z = rng.exponential(size=n) * rng.exponential(size=n)
        seen = []

        def cdf(v):
            seen.append(v.size)
            t = 2.0 * np.sqrt(v)
            return 1.0 - t * bessel_k1(t)

        got = convsup.validation._ks_test(z, cdf)
        evaluated = sum(seen)
        assert got == full_ks(z, cdf)[:2]
        assert evaluated <= 0.06 * n, evaluated / n


def test_the_program_never_imports_scipy_stats_or_integrate(tmp_path):
    # nor scipy.linalg or scipy.special, nor scipy itself, after import, a
    # passing validate and a sweep; in a fresh interpreter, because pytest
    # itself imports scipy.stats
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "sweep_variable": "snr_pu_db", "grid": [20.0], "schemes": ["ocr"],
        "n_trials": 200, "scenario": {"m_subcarriers": 16, "l_su": 5,
                                      "vc_indices": [0, 8]}}))
    script = f"""
import contextlib, io, json, sys

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[:2] in (
        ["scipy"], ["scipy", "stats"], ["scipy", "integrate"], ["scipy", "linalg"],
        ["scipy", "special"]))

from convsup import cli
seen = {{"import": loaded()}}
with contextlib.redirect_stdout(io.StringIO()):
    seen["validate_rc"] = cli.main(["validate", "--trials", "100", "--frames", "1"])
seen["validate"] = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    seen["sweep_rc"] = cli.main(["sweep", "--config", {str(cfg_path)!r},
                                 "--out", {str(tmp_path / "out.csv")!r}])
seen["sweep"] = loaded()
print(json.dumps(seen))
"""
    src = str(Path(convsup.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout)
    assert seen == {"import": [], "validate_rc": 0, "validate": [], "sweep_rc": 0,
                    "sweep": []}


class TestWaterfillingCheck:
    def test_batched_allocation_matches_the_profile(self, monkeypatch):
        # the check draws its instances one by one and waterfills them in
        # one batch; replaying the draws through waterfilling_profile must
        # give the same allocation bits
        calls = []

        def spy(thresholds, budget):
            result = waterfill_power(thresholds, budget)
            calls.append((np.shape(thresholds), result[0]))
            return result

        monkeypatch.setattr(convsup.validation, "_WATERFILLING_INSTANCES", 20)
        monkeypatch.setattr(convsup.validation, "waterfill_power", spy)
        ok, _ = waterfilling_check(np.random.default_rng(31))
        assert ok
        shape, spend = calls[0]
        assert shape == (20, 8)
        layout = build_vc_layout(build_spectral_context(8, 5), (0, 4))
        rng = np.random.default_rng(31)
        for row in spend:
            scenario = build_scenario(float(rng.uniform(0.2, 1.5)),
                                      float(rng.uniform(0.5, 4.0)),
                                      float(rng.uniform(0.0, 25.0)), "su")
            a, g = waterfilling_profile(layout, scenario, zmcscg(rng, 8), zmcscg(rng, 8))
            assert np.array_equal(row[:layout.q] / uc_power_coefficient(scenario), a)
            assert np.array_equal(row[layout.q:], g)

    def test_instances_keep_the_draws_of_the_instance_loop(self, monkeypatch):
        # one normal fill per instance and one batched scaling give the
        # levels and channel gains of the loop that drew each instance's
        # channels with two zmcscg calls, and leave the stream where it did
        n = 50
        layout = build_vc_layout(build_spectral_context(8, 5), (0, 4))
        ref = np.random.default_rng(35)
        levels = np.empty((4, n))
        h = np.empty((n, 2, layout.m), dtype=complex)
        for i in range(n):
            scenario = build_scenario(float(ref.uniform(0.2, 1.5)),
                                      float(ref.uniform(0.5, 4.0)),
                                      float(ref.uniform(0.0, 25.0)), "su")
            levels[:, i] = (scenario.p_su, uc_power_coefficient(scenario),
                            srx_noise_floor(scenario), scenario.sigma2_v[4])
            h[i, 0] = zmcscg(ref, layout.m)
            h[i, 1] = zmcscg(ref, layout.m)
        gain = np.abs(h) ** 2
        want = (levels[1][:, None], levels[2][:, None], levels[3][:, None],
                gain[:, 0, list(layout.uc_indices)], gain[:, 1, list(layout.vc_indices)])
        seen = []

        def spy(*args):
            seen.append(args)
            return waterfill_thresholds(*args)

        monkeypatch.setattr(convsup.validation, "_WATERFILLING_INSTANCES", n)
        monkeypatch.setattr(convsup.validation, "waterfill_thresholds", spy)
        rng = np.random.default_rng(35)
        convsup.validation._waterfill_instances(layout, rng)
        assert len(seen) == 1
        for got, expected in zip(seen[0], want, strict=True):
            assert np.array_equal(got, expected)
        assert rng.random() == ref.random()

    @staticmethod
    def _moved_profile(onto, moved):
        # the search instance's waterfill with 1e-5 of the budget moved from
        # its largest share onto the second largest or onto an inactive
        # subcarrier; records the (donor, taker) subcarriers of the transfer
        # that moves it back
        def profile(layout, scenario, h_su, h_24):
            a, g = waterfilling_profile(layout, scenario, h_su, h_24)
            coef = uc_power_coefficient(scenario)
            share = np.concatenate([coef * a, g]) / scenario.p_su
            order = np.argsort(share, kind="stable")
            src, dst = order[-1], order[-2] if onto == "second_largest" else order[0]
            assert (share[dst] == 0.0) == (onto == "zero_share")
            share[src] -= 1e-5
            share[dst] += 1e-5
            subcarrier = [*layout.uc_indices, *layout.vc_indices]
            moved.append((subcarrier[dst], subcarrier[src]))
            spend = share * scenario.p_su
            return spend[:layout.q] / coef, spend[layout.q:]
        return profile

    @pytest.mark.parametrize("onto", ["second_largest", "zero_share"])
    def test_small_budget_move_fails_the_check(self, onto, monkeypatch):
        # moving the budget back is one of the pairwise transfers, so the
        # check fails and names that pair; a random search of the simplex
        # misses both moves
        moved = []
        monkeypatch.setattr(convsup.validation, "waterfilling_profile",
                            self._moved_profile(onto, moved))
        ok, detail = waterfilling_check(np.random.default_rng(32))
        assert not ok
        donor, taker = moved[0]
        assert re.search(rf"; moving budget from subcarrier {donor} to subcarrier "
                         rf"{taker} gains \d\.\d{{3}}e-\d\d bits$", detail), detail

    def test_objective_mismatch_fails_the_check(self, monkeypatch):
        # the transfer test's own objective is held to csit_objective at
        # the waterfill
        real = convsup.precoding.csit_objective
        monkeypatch.setattr(convsup.validation, "csit_objective",
                            lambda *args: real(*args) + 1e-9)
        ok, detail = waterfilling_check(np.random.default_rng(32))
        assert not ok
        assert detail.endswith("; transfer objective differs from csit_objective "
                               "by 1.000e-09 bits")

    def test_waterfill_passes_the_transfer_test(self):
        # the unpatched profile of the same instance: no transfer gains
        # more than the rounding tolerance
        ok, detail = waterfilling_check(np.random.default_rng(32))
        assert ok, detail
        gain = float(re.search(r"best of \d+ pairwise transfers gains (\S+) bits$",
                               detail).group(1))
        assert gain <= 1e-12

    def test_overspent_budget_fails_the_check(self, monkeypatch):
        def overspend(thresholds, budget):
            spend, mu = waterfill_power(thresholds, budget)
            return 1.01 * spend, mu

        # the batch alone: the overspent rates beat every uniform split and
        # the search instance passes, so only the budget check can fail it
        monkeypatch.setattr(convsup.validation, "waterfill_power", overspend)
        ok, detail = waterfilling_check(np.random.default_rng(32))
        assert not ok
        assert re.search(r"max budget residual 1\.00e-02, uniform splits beat it 0x", detail)
        assert re.search(r"instance \d+ misses the budget by \d\.\d{3}e-0\d", detail)
        assert "pairwise transfers gains" in detail
        # waterfilling_profile's own fault on the search instance is reported too
        monkeypatch.setattr(convsup.precoding, "waterfill_power", overspend)
        ok, detail = waterfilling_check(np.random.default_rng(32))
        assert not ok
        assert "search instance: budget residual 1.000e-02 exceeds tolerance" in detail

    def test_level_fault_fails_the_check(self, monkeypatch):
        # starving the best subcarrier of every row leaves an inactive
        # threshold below the water level while the budget is still spent
        def starve(thresholds, budget):
            spend, mu = waterfill_power(thresholds, budget)
            best = np.argmin(thresholds, axis=1)
            rows = np.arange(spend.shape[0])
            moved = spend[rows, best]
            spend[rows, best] = 0.0
            spend[rows, np.argmax(spend, axis=1)] += moved
            return spend, mu

        monkeypatch.setattr(convsup.validation, "waterfill_power", starve)
        ok, detail = waterfilling_check(np.random.default_rng(33))
        assert not ok
        assert re.search(r"\d+ instances leave an inactive subcarrier below the "
                         r"water level, worst \d+", detail)


class TestChannelStatisticsCheck:
    def test_chunked_draws_keep_the_whole_batch_bits(self, monkeypatch):
        # batches of _CHUNK draws consume the stream as one batched draw, so
        # the check reads the H12(0) and H23(0) bits of the whole batch and
        # leaves the stream where that draw did
        n = 2 * convsup.channel._CHUNK + 7
        scenario = build_scenario(0.7, 1.0, 15.0, "su")
        specs = reference_link_specs()
        ref = np.random.default_rng(36)
        whole = draw_channels(scenario, specs, 1, ref, batch=(n,))
        seen = []

        def spy(*args, **kwargs):
            ch = draw_channels(*args, **kwargs)
            seen.append((ch.freq[1, 2][:, 0], ch.freq[2, 3][:, 0]))
            return ch

        monkeypatch.setattr(convsup.validation, "draw_channels", spy)
        rng = np.random.default_rng(36)
        convsup.validation.channel_statistics_check(scenario, specs, n, rng)
        assert [h12.size for h12, _ in seen] == [convsup.channel._CHUNK] * 2 + [7]
        for link, got in zip(((1, 2), (2, 3)), zip(*seen)):
            assert np.array_equal(np.concatenate(got), whole.freq[link][:, 0])
        assert rng.random() == ref.random()


class TestSchemeOrdering:
    @pytest.mark.parametrize("ratio,snr", [(0.5, 15.0), (0.7, 20.0)])
    def test_su_capacity_ordering(self, ratio, snr):
        # at these geometries the full scheme dominates its no-VC variant,
        # which in turn dominates the flat single-symbol baseline
        ctx = build_spectral_context(64, 10)
        layout = build_vc_layout(ctx, (0, 16, 32, 48))
        scenario = build_scenario(resolve_d12(ratio, "d14"), 1.0, snr, "su")
        reports = {}
        for i, scheme in enumerate(("proposed_with_vcs", "proposed_without_vcs",
                                    "nocr")):
            [reports[scheme]], _ = evaluate_scheme(
                scheme, [scenario], layout, False, 30_000,
                np.random.default_rng((ratio, snr, i).__hash__() % 2**32))
        for hi, lo in (("proposed_with_vcs", "proposed_without_vcs"),
                       ("proposed_without_vcs", "nocr")):
            a, b = reports[hi], reports[lo]
            band = 3.0 * np.hypot(a.stderr_c_su_lower, b.stderr_c_su_lower)
            assert a.c_su_lower - b.c_su_lower >= -band


class TestCli:
    def test_psi_and_outage(self, capsys):
        assert cli_main(["psi", "1.0"]) == 0
        out = capsys.readouterr().out
        assert float(out) == pytest.approx(0.596347362323194, rel=1e-12)
        assert cli_main(["outage", "1.0"]) == 0
        out = capsys.readouterr().out
        assert float(out) == pytest.approx(0.7202682363669551, rel=1e-10)
        assert cli_main(["outage", "--", "-1.0"]) == 2

    @pytest.mark.parametrize("argv", [["psi", "--", "-1"], ["psi", "nan"],
                                      ["outage", "nan"], ["outage", "inf"]])
    def test_scalar_commands_reject_bad_arguments(self, argv, capsys):
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1

    @pytest.mark.parametrize("change,names", [
        ({"scenario": {"bogus": 1}}, "bogus"),
        ({"sweep_variable": None}, "sweep_variable"),
        ({"scenario": {"eta": float("nan")}}, "eta"),
        (None, "cfg.json"),
        ({"grid": None}, "grid"),
        ({"n_trails": 200}, "n_trails"),
        ({"grid": [float("nan")]}, "grid must be"),
        ({"csit": "false"}, "csit"),
        ({"n_trials": 200.9}, "n_trials"),
        ({"seed": 3.7}, "seed"),
        ({"scenario": {"m_subcarriers": 16.0}}, "m_subcarriers"),
        ({"scenario": {"l_su": 10.0}}, "l_su"),
        ({"scenario": {"vc_indices": [0, 16.5]}}, "vc_indices"),
        ({"scenario": {"vc_indices": 3}}, "vc_indices"),
        ({"scenario": {"d12_ratio": "0.3"}}, "d12_ratio"),
        ({"grid": 20}, "grid"),
        ({"grid": [20.0, "25"]}, "grid"),
        ({"scenario": 3}, "scenario"),
        ({"scenario": {"eta": 0}}, "eta"),
        ({"scenario": {"eta": -3}}, "eta"),
        ({"scenario": {"d12_ratio": -0.3}}, "d12_ratio"),
        ({"sweep_variable": "d12_ratio", "grid": [0.3, -0.3]}, "d12_ratio"),
        ({"seed": -1}, "seed"),
        ({"grid": [1e308]}, "snr_db"),
        ({"grid": [-4000]}, "snr_db"),
        ({"grid": [-3000]}, "snr_db"),
        ({"sweep_variable": "d12_ratio", "grid": [0.3],
          "scenario": {"snr_db": 5000}}, "snr_db"),
        ({"schemes": ["ocr", "ocr"]}, "schemes"),
        ({"sweep_variable": "snr_su_db", "scenario": {"power_ratio": 1e200}},
         "power_ratio"),
        ({"scenario": {"power_ratio": 1e-300}}, "power_ratio"),
        ({"scenario": {"power_ratio": 0}}, "power_ratio"),
        ({"sweep_variable": "power_ratio", "grid": [1.0, 1e5]}, "power_ratio"),
        ({"scenario": {"eta": 1e6}}, "eta"),
        ({"sweep_variable": "d12_ratio", "grid": [1.0, 0.001],
          "scenario": {"eta": 120}}, "eta"),
        ({"sweep_variable": "d12_ratio", "grid": [0.3],
          "scenario": {"snr_ref": "bogus"}}, "snr_ref"),
        ({"scenario": {"snr_ref": "su"}}, "snr_ref"),
        ({"sweep_variable": "snr_su_db", "scenario": {"snr_ref": "pu"}}, "snr_ref"),
        ({"scenario": {"vc_power_fraction": 1.5}}, "vc_power_fraction"),
        ({"scenario": {"vc_power_fraction": -0.5}}, "vc_power_fraction"),
        ({"scenario": {"m_subcarriers": 100000}}, "m_subcarriers"),
        ({"scenario": {"m_subcarriers": 257}}, "m_subcarriers"),
        ({"scenario": {"l_su": 256}}, "l_su"),
        ({"scenario": {"vc_indices": [0, 256]}}, "vc_indices"),
        ({"scenario": {"eta": 10.5}}, "eta"),
        ({"scenario": {"d12_ratio": 2e6}}, "d12_ratio"),
        ({"grid": [2901.0]}, "snr_db"),
        ({"scenario": {"vc_indices": [16, 16]}}, "vc_indices"),
        (lambda: small_config(n_trials=200.5), "n_trials"),
        (lambda: small_config(seed=1.5), "seed"),
        (lambda: ScenarioSpec(vc_power_fraction=2.0), "vc_power_fraction"),
    ], ids=["unknown-scenario-key", "missing-sweep-variable", "nan-eta",
            "missing-file", "missing-grid", "unknown-config-key", "nan-grid",
            "string-csit", "float-n_trials", "float-seed", "float-m_subcarriers",
            "float-l_su", "float-vc_index", "scalar-vc_indices",
            "string-d12_ratio", "scalar-grid", "string-grid-entry",
            "scalar-scenario", "zero-eta", "negative-eta", "negative-d12_ratio",
            "negative-d12_ratio-grid", "negative-seed", "overflowing-snr-grid",
            "underflowing-snr-grid", "snr-grid-below-range",
            "overflowing-scenario-snr_db",
            "duplicate-schemes", "huge-power_ratio", "tiny-power_ratio",
            "zero-power_ratio", "power_ratio-grid-above-range", "overflowing-eta",
            "eta-overflowing-one-grid-point", "unknown-snr_ref",
            "snr_ref-against-snr_pu_db", "snr_ref-against-snr_su_db",
            "vc_power_fraction-above-one", "negative-vc_power_fraction",
            "huge-m_subcarriers", "m_subcarriers-above-cap", "l_su-above-range",
            "vc_index-above-range", "eta-above-range", "d12_ratio-above-range",
            "snr-grid-above-range", "repeated-vc_index",
            "python-float-n_trials", "python-float-seed",
            "python-vc_power_fraction-above-one"])
    def test_sweep_rejects_bad_config(self, tmp_path, capsys, change, names):
        if callable(change):  # built in Python: one line naming the key
            with pytest.raises(ValueError, match=names) as info:
                change()
            assert len(str(info.value).splitlines()) == 1
            return
        cfg_path = tmp_path / "cfg.json"
        if change is not None:
            raw = {"sweep_variable": "snr_pu_db", "grid": [20.0],
                   "schemes": ["proposed_with_vcs", "ocr"], "n_trials": 200}
            raw.update(change)
            raw = {k: v for k, v in raw.items() if v is not None}
            cfg_path.write_text(json.dumps(raw))
        out_path = tmp_path / "out.csv"
        rc = cli_main(["sweep", "--config", str(cfg_path), "--out", str(out_path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert not out_path.exists()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and names in lines[0]

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_sweep_rejects_bad_threads(self, tmp_path, capsys, threads):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"sweep_variable": "snr_pu_db",
                                        "grid": [20.0], "schemes": ["ocr"],
                                        "n_trials": 200}))
        out_path = tmp_path / "out.csv"
        rc = cli_main(["sweep", "--config", str(cfg_path), "--out", str(out_path),
                       "--threads", threads])
        captured = capsys.readouterr()
        assert rc == 2 and not out_path.exists()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and "threads" in lines[0]

    @pytest.mark.parametrize("argv,names", [
        (["--trials", "0"], "trials"),
        (["--trials", "99"], "trials"),
        (["--frames", "0"], "frames"),
        (["--seed", "-1"], "seed"),
        (lambda: validate_suite(trials=200.5), "trials"),
        (lambda: validate_suite(seed=1.5), "seed"),
        (lambda: validate_suite(n_frames=1.5), "n_frames"),
    ], ids=["zero-trials", "99-trials", "zero-frames", "negative-seed",
            "python-float-trials", "python-float-seed", "python-float-n_frames"])
    def test_validate_rejects_bad_sizes(self, capsys, argv, names):
        if callable(argv):  # values the integer options cannot carry
            with pytest.raises(ValueError, match=names) as info:
                argv()
            assert len(str(info.value).splitlines()) == 1
            return
        assert cli_main(["validate", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and names in lines[0]

    @pytest.mark.parametrize("unwritable", [False, True], ids=["missing", "read-only"])
    def test_sweep_checks_the_output_directory_first(self, tmp_path, capsys,
                                                      monkeypatch, unwritable):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"sweep_variable": "snr_pu_db",
                                        "grid": [20.0], "schemes": ["ocr"],
                                        "n_trials": 200}))
        calls = []
        monkeypatch.setattr(convsup.cli, "run_sweep",
                            lambda *args, **kwargs: calls.append(args))
        out_dir = tmp_path / "missing_dir"
        if unwritable:
            # root may write anywhere, so the permission test is stubbed
            out_dir.mkdir()
            monkeypatch.setattr(os, "access", lambda path, mode: False)
        rc = cli_main(["sweep", "--config", str(cfg_path),
                       "--out", str(out_dir / "x.csv")])
        captured = capsys.readouterr()
        assert rc == 2 and calls == []
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and str(out_dir) in lines[0]

    @pytest.mark.parametrize("blocked", ["csv", "manifest"])
    def test_sweep_reports_a_failed_write(self, tmp_path, capsys, blocked):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "sweep_variable": "snr_pu_db", "grid": [20.0], "schemes": ["ocr"],
            "n_trials": 200, "scenario": {"m_subcarriers": 16, "l_su": 5,
                                          "vc_indices": [0, 8]}}))
        out_path = tmp_path / "out.csv"
        # a directory where the file should go makes open() fail
        target = out_path if blocked == "csv" else tmp_path / "out.csv.manifest.json"
        target.mkdir()
        rc = cli_main(["sweep", "--config", str(cfg_path), "--out", str(out_path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and str(target) in lines[0]
        # neither file is left behind: a CSV without its manifest is no result
        assert not out_path.is_file()

    def test_sweep_subcommand(self, tmp_path, capsys):
        raw = {
            "sweep_variable": "snr_pu_db",
            "grid": [20.0],
            "schemes": ["ocr"],
            "n_trials": 200,
            "seed": 3,
            "scenario": {"m_subcarriers": 16, "l_su": 5, "vc_indices": [0, 8]},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        out_path = tmp_path / "out.csv"
        rc = cli_main(["sweep", "--config", str(cfg_path), "--out", str(out_path)])
        assert rc == 0
        assert out_path.exists()
        manifest = json.loads((tmp_path / "out.csv.manifest.json").read_text())
        assert manifest["config"]["seed"] == 3
        assert "grid_points" in manifest
