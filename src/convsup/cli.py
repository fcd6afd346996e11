"""Batch command-line interface.

Subcommands: ``sweep`` runs a JSON-configured Monte Carlo sweep and writes a
CSV plus a JSON manifest; ``validate`` runs the oracle/invariant suite;
``psi`` and ``outage`` evaluate the scalar closed forms for scripting.
Exit code is nonzero when validation fails or a sweep aborts.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .capacity import outage_closed_form
from .capacity import psi as psi_fn
from .harness import SweepConfig, emit_csv, run_sweep, validate_suite


def _cmd_sweep(args) -> int:
    try:
        cfg = SweepConfig.from_json(args.config)
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)
        if args.trials is not None:
            cfg = dataclasses.replace(cfg, n_trials=args.trials)
        rows, manifest = run_sweep(cfg, threads=args.threads)
    except (OSError, ValueError) as exc:
        print(f"sweep aborted: {exc}", file=sys.stderr)
        return 2
    emit_csv(rows, args.out)
    manifest_path = str(args.out) + ".manifest.json"
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    print(f"wrote {len(rows)} rows to {args.out} (manifest: {manifest_path})")
    return 0


def _cmd_validate(args) -> int:
    report = validate_suite(seed=args.seed, trials=args.trials,
                            n_frames=args.frames)
    print(report.render())
    return 0 if report.ok else 1


def _cmd_psi(args) -> int:
    try:
        value = psi_fn(args.a)
    except ValueError as exc:
        print(f"psi: {exc}", file=sys.stderr)
        return 2
    print(f"{value:.17e}")
    return 0


def _cmd_outage(args) -> int:
    try:
        p = outage_closed_form(args.kappa)
    except ValueError as exc:
        print(f"outage: {exc}", file=sys.stderr)
        return 2
    print(f"{p:.17e}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convsup",
        description="Spectrum-sharing capacity sweeps for a relayed OFDM link")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a configured Monte Carlo sweep")
    p_sweep.add_argument("--config", required=True, help="JSON sweep configuration")
    p_sweep.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_sweep.add_argument("--trials", type=int, default=None, help="override trial count")
    p_sweep.add_argument("--out", default="sweep.csv", help="output CSV path")
    p_sweep.add_argument("--threads", type=int, default=1, help="worker threads")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_val = sub.add_parser("validate", help="run every oracle and invariant check")
    p_val.add_argument("--seed", type=int, default=20260809)
    p_val.add_argument("--trials", type=int, default=100_000)
    p_val.add_argument("--frames", type=int, default=1000,
                       help="frames for the chain-equivalence oracle")
    p_val.set_defaults(func=_cmd_validate)

    p_psi = sub.add_parser("psi", help="evaluate E[ln(1 + A u)], u unit exponential")
    p_psi.add_argument("a", type=float, help="positive scale A")
    p_psi.set_defaults(func=_cmd_psi)

    p_out = sub.add_parser("outage", help="closed-form primary outage probability")
    p_out.add_argument("kappa", type=float,
                       help="(sigma13/sigma12)*(sigma_v2/sigma_v3)")
    p_out.set_defaults(func=_cmd_outage)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
