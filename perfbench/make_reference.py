"""Regenerate perfbench/reference.json, the stored sweep answers that the
correctness gate compares every benchmark sweep against.

Each sweep workload is run once through the CLI at REFERENCE_TRIALS trials
on REFERENCE_SEED, a seed distinct from the default workload seed so that
the reference is an independent sample.  Run from the repository root:

    python3 perfbench/make_reference.py

It takes a few minutes on 2 cores.  Regenerate only when the answer of the
program is meant to change; a faster program must pass against the stored
file unchanged.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
from pathlib import Path

from run import ROOT, WORK, load_workloads, sweep_config

REFERENCE_SEED = 99991
REFERENCE_TRIALS = 200_000
OUT = Path(__file__).resolve().parent / "reference.json"


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from convsup import cli

    spec = load_workloads()
    reference = {"seed": REFERENCE_SEED, "n_trials": REFERENCE_TRIALS, "workloads": {}}
    tmp = WORK / "reference"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    for name, wl in spec["workloads"].items():
        if wl["command"] != "sweep":
            continue
        cfg_path = tmp / f"{name}.json"
        out = tmp / f"{name}.csv"
        cfg = sweep_config(spec, wl, REFERENCE_SEED, REFERENCE_TRIALS)
        cfg_path.write_text(json.dumps(cfg))
        rc = cli.main(["sweep", "--config", str(cfg_path), "--out", str(out),
                       "--threads", "2"])
        if rc != 0:
            print(f"{name}: sweep exited {rc}", file=sys.stderr)
            return 1
        with open(out, newline="") as fh:
            reference["workloads"][name] = {
                f"{float(r['sweep_var']):g}/{r['scheme']}": {
                    k: float(r[k]) for k in ("c_pu_lower", "stderr_c_pu_lower",
                                             "c_su_lower", "stderr_c_su_lower")}
                for r in csv.DictReader(fh)}
    OUT.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
