"""Output-correctness gates of the benchmark workloads.

Sweep rows are checked against closed forms computed here from first
principles (scipy special functions and the README reference geometry, not
convsup's own code) and against stored reference answers (reference.json).
The validate report must show every check at its expected status.

Each function returns ``(attempted, problems)``: ``attempted`` counts rows
or checks, ``problems`` lists one message per failed row or check.
"""

from __future__ import annotations

import csv
import io
import math
import re

from scipy import special

LOG2E = 1.0 / math.log(2.0)
SIGMAS = 5.0  # Monte Carlo agreement, in combined standard errors
STDERR_GROWTH = 1.25  # largest allowed stderr, as a share of the reference's
CLOSED_FORM_RTOL = 1e-9

# README reference layout: primary Tx and Rx one unit apart, secondary Rx
# above their midpoint, secondary Tx on a 60-degree ray from the primary Tx.
_PTX, _PRX, _SRX = (-0.5, 0.0), (0.5, 0.0), (0.0, 2.0)
_STX_ANGLE = math.pi / 3

VALIDATE_EXPECTED = {
    "spectral_consistency": "PASS",
    "frequency_equivalence": "PASS",
    "noise_path_identity": "PASS",
    "cp_condition_tightness": "PASS",
    "special_functions": "PASS",
    "outage_closed_form": "PASS",
    "waterfilling": "PASS",
    "pu_budget_monotonicity": "PASS",
    "monotonicity_hypothesis_gate": "SKIP",
    "channel_statistics": "PASS",
    "product_density_ks": "PASS",
    "power_accounting": "PASS",
    "precoder_structure": "PASS",
}
_CHECK_LINE = re.compile(r"^\[(PASS|FAIL|SKIP)\s*\] (\w+): ")

NUMERIC_COLUMNS = ("sweep_var", "c_pu_lower", "c_pu_direct", "delta_c_pu",
                   "c_su_lower", "p_out", "stderr_c_pu_lower",
                   "stderr_delta_c_pu", "stderr_c_su_lower")


def psi(a: float) -> float:
    """E[ln(1 + a u)] for a unit exponential u: exp(1/a) E1(1/a)."""
    return math.exp(1.0 / a) * float(special.exp1(1.0 / a))


def closed_forms(scenario: dict, snr_pu_db: float) -> dict:
    """Primary direct rate, primary outage and the orthogonal-access rate at
    one grid point of a primary-SNR sweep."""
    if scenario["d12_ref"] != "d13" or scenario["snr_ref"] != "pu":
        raise ValueError("closed forms cover primary-SNR sweeps with d12_ref 'd13'")
    eta = scenario["eta"]
    d12 = scenario["d12_ratio"] * math.dist(_PTX, _PRX)
    stx = (_PTX[0] + d12 * math.cos(_STX_ANGLE), _PTX[1] + d12 * math.sin(_STX_ANGLE))
    s12 = d12 ** -eta
    s13 = math.dist(_PTX, _PRX) ** -eta
    s24 = math.dist(stx, _SRX) ** -eta
    noise = 10.0 ** (-snr_pu_db / 10.0)  # P_pu = 1, one noise level everywhere
    m = scenario["m_subcarriers"]
    m_vc = len(scenario["vc_indices"])
    kappa = math.sqrt(s13 / s12)
    g_ocr = scenario["power_ratio"] / m_vc
    return {
        "c_pu_direct": (m - m_vc) * LOG2E / m * psi(s13 / noise),
        "p_out": 1.0 - 2.0 * kappa * float(special.k1(2.0 * kappa)),
        "c_su_ocr": m_vc * LOG2E / m * psi(s24 * g_ocr / noise),
    }


def _close(value: float, expected: float) -> bool:
    return abs(value - expected) <= CLOSED_FORM_RTOL * max(abs(expected), 1e-12)


def check_sweep(csv_text: str, sweep: dict, n_trials: int, reference: dict):
    """Gate one sweep CSV.  Returns ``(attempted, problems, max_stderr)``."""
    expected = {f"{float(v):g}/{s}" for v in sweep["grid"] for s in sweep["schemes"]}
    rows = {}
    problems = []
    for row in csv.DictReader(io.StringIO(csv_text)):
        key = f"{float(row['sweep_var']):g}/{row['scheme']}"
        if key in rows or key not in expected:
            problems.append(f"{key}: unexpected or repeated row")
        rows[key] = row
    problems += [f"{key}: row missing" for key in sorted(expected - rows.keys())]

    n_ref = reference["n_trials"]
    max_stderr = 0.0
    for key, row in sorted(rows.items()):
        if key not in expected:
            continue
        vals = {c: float(row[c]) for c in NUMERIC_COLUMNS}
        if not all(math.isfinite(v) for v in vals.values()):
            problems.append(f"{key}: non-finite value")
            continue
        max_stderr = max(max_stderr, vals["stderr_c_pu_lower"], vals["stderr_c_su_lower"])
        bad = []
        if int(row["n_trials"]) != n_trials:
            bad.append(f"n_trials {row['n_trials']} != {n_trials}")
        cf = closed_forms(sweep["scenario"], vals["sweep_var"])
        if not _close(vals["c_pu_direct"], cf["c_pu_direct"]):
            bad.append(f"c_pu_direct {vals['c_pu_direct']!r} != {cf['c_pu_direct']!r}")
        p_out = 0.0 if row["scheme"] == "ocr" else cf["p_out"]
        if not _close(vals["p_out"], p_out):
            bad.append(f"p_out {vals['p_out']!r} != {p_out!r}")
        if (row["scheme"] == "ocr" and abs(vals["c_su_lower"] - cf["c_su_ocr"])
                > SIGMAS * vals["stderr_c_su_lower"]):
            bad.append(f"ocr c_su_lower {vals['c_su_lower']!r} vs closed form "
                       f"{cf['c_su_ocr']!r}")
        ref = reference["rows"][key]
        for q in ("c_pu_lower", "c_su_lower"):
            se, ref_se = vals[f"stderr_{q}"], ref[f"stderr_{q}"]
            if abs(vals[q] - ref[q]) > SIGMAS * math.hypot(se, ref_se) + 1e-12 * abs(ref[q]):
                bad.append(f"{q} {vals[q]!r} vs reference {ref[q]!r} "
                           f"(combined stderr {math.hypot(se, ref_se):.3g})")
            allowed = STDERR_GROWTH * ref_se * math.sqrt(n_ref / n_trials)
            if se > allowed + 1e-15:
                bad.append(f"stderr_{q} {se:.3g} above {allowed:.3g}")
        if bad:
            problems.append(f"{key}: " + "; ".join(bad))
    return len(expected), problems, max_stderr


def check_validate(report: str, rc: int):
    """Gate one ``convsup validate`` report.  Returns ``(attempted, problems)``."""
    seen = {}
    for line in report.splitlines():
        match = _CHECK_LINE.match(line)
        if match:
            seen[match.group(2)] = match.group(1)
    problems = [f"{name}: {seen.get(name, 'missing')}, expected {status}"
                for name, status in VALIDATE_EXPECTED.items()
                if seen.get(name) != status]
    problems += [f"{name}: unexpected check" for name in seen.keys() - VALIDATE_EXPECTED.keys()]
    if rc != 0 and not problems:
        problems.append(f"validate exited {rc} with every check as expected")
    return len(VALIDATE_EXPECTED), problems
