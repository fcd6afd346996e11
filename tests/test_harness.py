"""Harness tests: configuration validation, sweep reproducibility, CSV
round trip and the CLI surface."""

import json

import numpy as np
import pytest

from convsup.cli import main as cli_main
from convsup.harness import (ScenarioSpec, SweepConfig, build_scenario,
                             emit_csv, evaluate_scheme, resolve_d12, run_sweep,
                             stx_position, validate_suite)
from convsup.spectral import build_spectral_context, build_vc_layout


def small_config(**overrides):
    base = dict(sweep_variable="snr_pu_db", grid=(15.0, 20.0),
                schemes=("proposed_with_vcs", "ocr"), csit=False,
                n_trials=400, seed=123,
                scenario=ScenarioSpec(m_subcarriers=16, l_su=5,
                                      vc_indices=(0, 8)))
    base.update(overrides)
    return SweepConfig(**base)


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

    def test_thread_count_does_not_change_results(self):
        cfg = small_config()
        rows_a, _ = run_sweep(cfg, threads=1)
        rows_b, _ = run_sweep(cfg, threads=3)
        assert rows_a == rows_b

    def test_ocr_rows_report_direct_capacity(self):
        cfg = small_config()
        rows, _ = run_sweep(cfg)
        ocr = [r for r in rows if r["scheme"] == "ocr"]
        for row in ocr:
            assert row["delta_c_pu"] == 0.0
            assert row["p_out"] == 0.0

    def test_zero_power_secondary_has_no_effect(self):
        ctx = build_spectral_context(16, 5)
        layout = build_vc_layout(ctx, (0, 8))
        scenario = build_scenario(0.3, 1e-12, 20.0, "pu")
        rep = evaluate_scheme("proposed_with_vcs", scenario, layout, False,
                              200, np.random.default_rng(0))
        assert rep.delta_c_pu == pytest.approx(0.0, abs=1e-9)

    def test_infeasible_layout_aborts_with_diagnostic(self):
        with pytest.raises(ValueError, match="l_su"):
            small_config(scenario=ScenarioSpec(m_subcarriers=16, l_su=1,
                                               vc_indices=(0, 4, 8))).scenario.build()


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
        report = validate_suite(seed=1, trials=3000, n_frames=20,
                                search_points=20_000)
        rendered = report.render()
        assert report.ok, rendered
        names = {c.name for c in report.checks}
        assert {"frequency_equivalence", "special_functions",
                "outage_closed_form", "waterfilling",
                "pu_budget_monotonicity", "noise_path_identity"} <= names
        gate = [c for c in report.checks if c.name == "monotonicity_hypothesis_gate"]
        assert gate[0].status == "SKIP"
        assert "PASS" in rendered


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
            reports[scheme] = evaluate_scheme(
                scheme, scenario, layout, False, 30_000,
                np.random.default_rng((ratio, snr, i).__hash__() % 2**32))
        for hi, lo in (("proposed_with_vcs", "proposed_without_vcs"),
                       ("proposed_without_vcs", "nocr")):
            a, b = reports[hi], reports[lo]
            band = 3.0 * np.hypot(a.std_err["c_su_lower"], b.std_err["c_su_lower"])
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
    ], ids=["unknown-scenario-key", "missing-sweep-variable", "nan-eta",
            "missing-file", "missing-grid", "unknown-config-key", "nan-grid"])
    def test_sweep_rejects_bad_config(self, tmp_path, capsys, change, names):
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
