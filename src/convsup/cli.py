"""Batch command-line interface.

Subcommands: ``sweep`` runs a JSON-configured rate sweep (quadrature where
exact, Monte Carlo elsewhere) and writes a CSV plus a JSON manifest; ``validate`` runs the oracle/invariant suite;
``psi`` and ``outage`` evaluate the scalar closed forms for scripting.
Exit code is nonzero when validation fails or a sweep aborts.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .capacity import outage_closed_form
from .capacity import psi as psi_fn
from .harness import SweepConfig, emit_csv, run_sweep
from .validation import validate_suite


def _check_output_dir(out) -> None:
    """Raise ``OSError`` naming the directory of ``out`` when it is missing
    or not writable, so that a sweep does not run only to fail at the end."""
    directory = os.path.dirname(os.fspath(out)) or "."
    if not os.path.isdir(directory):
        raise OSError(f"output directory {directory!r} does not exist")
    if not os.access(directory, os.W_OK):
        raise OSError(f"output directory {directory!r} is not writable")


def _cmd_sweep(args) -> int:
    try:
        cfg = SweepConfig.from_json(args.config)
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)
        if args.trials is not None:
            cfg = dataclasses.replace(cfg, n_trials=args.trials)
        _check_output_dir(args.out)
        rows, manifest = run_sweep(cfg, threads=args.threads)
    except (OSError, ValueError) as exc:
        print(f"sweep aborted: {exc}", file=sys.stderr)
        return 2
    manifest_path = str(args.out) + ".manifest.json"
    target = args.out
    try:
        emit_csv(rows, target)
        target = manifest_path
        with open(target, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
    except OSError as exc:
        if target == manifest_path:  # a CSV without its manifest is no result
            os.remove(args.out)
        print(f"sweep aborted: cannot write {target}: {exc.strerror or exc}",
              file=sys.stderr)
        return 2
    print(f"wrote {len(rows)} rows to {args.out} (manifest: {manifest_path})")
    return 0


def _cmd_validate(args) -> int:
    try:
        report = validate_suite(**{name: getattr(args, name) for name in
                                   ("seed", "trials", "n_frames") if name in args})
    except ValueError as exc:
        print(f"validate aborted: {exc}", file=sys.stderr)
        return 2
    print(report.render())
    # stdout stays the same bytes for a seed and sizes; times vary per run
    for check in report.checks:
        print(f"{check.name}: {check.seconds:.2f} s", file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_closed_form(args) -> int:
    """``psi`` or ``outage``: the closed form at the one argument."""
    try:
        value = args.closed_form(args.x)
    except ValueError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    print(f"{value:.17e}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convsup",
        description="Spectrum-sharing capacity sweeps for a relayed OFDM link")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a configured rate sweep")
    p_sweep.add_argument("--config", required=True, help="JSON sweep configuration")
    p_sweep.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_sweep.add_argument("--trials", type=int, default=None, help="override trial count")
    p_sweep.add_argument("--out", default="sweep.csv", help="output CSV path")
    p_sweep.add_argument("--threads", type=int, default=1,
                         help="worker processes, at most one per task and per available CPU")
    p_sweep.set_defaults(func=_cmd_sweep)

    # an option left out is not passed on, so validate_suite's default holds
    p_val = sub.add_parser("validate", help="run every oracle and invariant check",
                           argument_default=argparse.SUPPRESS)
    p_val.add_argument("--seed", type=int)
    p_val.add_argument("--trials", type=int)
    p_val.add_argument("--frames", dest="n_frames", type=int,
                       help="frames for the chain-equivalence oracle")
    p_val.set_defaults(func=_cmd_validate)

    p_psi = sub.add_parser("psi", help="evaluate E[ln(1 + A u)], u unit exponential")
    p_psi.add_argument("x", metavar="a", type=float, help="positive scale A")
    p_psi.set_defaults(func=_cmd_closed_form, closed_form=psi_fn)

    p_out = sub.add_parser("outage", help="closed-form primary outage probability")
    p_out.add_argument("x", metavar="kappa", type=float,
                       help="(sigma13/sigma12)*(sigma_v2/sigma_v3)")
    p_out.set_defaults(func=_cmd_closed_form, closed_form=outage_closed_form)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
