"""convsup benchmark: end-to-end and per-layer metrics of two CLI workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload {sweep_csit,validate}
                             [--seed N] [--seconds S] [--trace 0|1]

Every measurement starts a fresh interpreter (child.py) that imports
``convsup.cli`` from ``src/`` and calls ``cli.main`` with the generated
config and flags, with the BLAS thread pools pinned to one thread.

``--trace 0`` measures the program in pairs with a frozen copy of it
(``frozen/convsup``, the program as it was when the benchmark was defined)
on the same input for about ``--seconds``, and reports the end-to-end
metrics of BENCHMARK.json.  A time is the median over the pairs of the
program's time over the frozen copy's, times the frozen copy's time on the
machine where the benchmark was defined (``frozen_s`` in workloads.json):
the speed of a shared host changes by tens of percent within minutes, and
the pairing cancels that.  ``--trace 1`` runs the workload once untraced
and twice traced, checks that tracing changes no output byte and that the
work counts repeat exactly, and reports the per-layer metrics.  Every
output of the program is gated for correctness (gates.py); a failed gate
makes the run exit 1.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
FROZEN = HERE / "frozen"
CHILD_TIMEOUT_S = 60
SETUP_SAMPLES = 5
NORMALISED = ("run_s", "cpu_s", "setup_s")
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark could not measure: a child failed or timed out."""


def load_workloads() -> dict:
    with open(HERE / "workloads.json") as fh:
        return json.load(fh)


def sweep_config(spec: dict, workload: dict, seed: int, n_trials: int) -> dict:
    """The JSON config ``convsup sweep`` reads for one sweep workload."""
    return {**spec["sweep"], "csit": workload["csit"], "n_trials": n_trials,
            "seed": seed}


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return [float(v) for v in fh.read().split()[:3]]
    except OSError:
        return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


class Runner:
    """Starts children for one workload and keeps their files in ``run_dir``."""

    def __init__(self, run_dir: Path, cli_argv):
        self.run_dir = run_dir
        self.cli_argv = cli_argv
        self.env = {**os.environ, **PINNED_ENV}
        self.n = 0

    def child(self, measure=True, trace=False, frozen=False) -> dict:
        """Run one child; ``measure=False`` only imports the program and
        ``frozen=True`` runs the frozen copy instead of ``src/``."""
        return self.side_by_side([dict(measure=measure, trace=trace, frozen=frozen)])[0]

    def side_by_side(self, children, cpus=None) -> list:
        """Run children at the same time, each with the keyword arguments of
        ``child``; with ``cpus``, child i is pinned to CPU ``cpus[i]``."""
        launched = []
        try:
            for i, kw in enumerate(children):
                launched.append(self._launch(cpu=None if cpus is None else cpus[i], **kw))
            return [self._collect(*c) for c in launched]
        finally:
            for c in launched:
                if c[1].poll() is None:
                    c[1].kill()
                c[1].wait()

    def _launch(self, measure, trace, frozen, cpu):
        tag = f"{'frozen' if frozen else 'child'}{self.n}"
        self.n += 1
        out = self.run_dir / f"{tag}.csv"
        argv = None
        if measure:
            argv = [str(out) if a == "{out}" else a for a in self.cli_argv]
        spec = {"src": str(FROZEN if frozen else ROOT / "src"), "argv": argv, "trace": trace,
                "spans": str(self.run_dir / f"{tag}.spans.npz"),
                "result": str(self.run_dir / f"{tag}.json")}
        spec_path = self.run_dir / f"{tag}.spec.json"
        spec_path.write_text(json.dumps(spec))
        pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
        with open(self.run_dir / f"{tag}.log", "w") as log:
            t_launch = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
            proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(spec_path)],
                                    env=self.env, cwd=ROOT, stdout=log,
                                    stderr=subprocess.STDOUT, preexec_fn=pin)
        return tag, proc, spec, out, t_launch, _loadavg()

    def _collect(self, tag, proc, spec, out, t_launch, load_before) -> dict:
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{tag} did not finish in {CHILD_TIMEOUT_S} s") from exc
        wall_s = (time.clock_gettime_ns(time.CLOCK_MONOTONIC) - t_launch) / 1e9
        if proc.returncode != 0:
            log = (self.run_dir / f"{tag}.log").read_text()
            raise BenchError(f"{tag} exited {proc.returncode}: {log.strip()[-2000:]}")
        with open(spec["result"]) as fh:
            result = json.load(fh)
        result.update(tag=tag, wall_s=wall_s, load_before=load_before,
                      load_after=_loadavg(),
                      setup_s=(result["imported_ns"] - t_launch) / 1e9)
        if spec["argv"] is not None and out.exists():
            result["csv"] = out.read_text()
        return result


def _output(sample: dict) -> str:
    """The program output that tracing must leave byte-identical."""
    return sample.get("csv", sample["stdout"])


def _gate(spec: dict, workload: dict, name: str):
    """Return the correctness gate of one workload's samples, which maps a
    sample to ``(attempted, problems, max_stderr or None)``."""
    import gates

    if workload["command"] == "validate":
        return lambda s: (*gates.check_validate(s["stdout"], s["rc"]), None)
    with open(HERE / "reference.json") as fh:
        ref = json.load(fh)
    reference = {"n_trials": ref["n_trials"], "rows": ref["workloads"][name]}
    # a failed sweep writes no CSV, so every row counts as missing
    return lambda s: gates.check_sweep(s.get("csv", ""), spec["sweep"],
                                       workload["n_trials"], reference)


def timed_run(runner: Runner, seconds: float, threads: int,
              frozen_s: dict) -> tuple[list, dict]:
    """Run the program and the frozen copy in pairs while the next pair still
    fits in ``seconds``; returns the pairs of samples and the metrics.

    A single-threaded workload runs the two side by side, each pinned to its
    own CPU and swapping CPUs every pair, so both see the same moment of a
    shared host and each CPU serves both equally.  A multi-threaded one
    runs them one after the other in ABBA order.
    """
    allowed = sorted(os.sched_getaffinity(0))

    def pair(i: int, program: dict, frozen: dict) -> tuple:
        """One (program, frozen) pair of samples."""
        if threads == 1 and len(allowed) >= 2:
            cpus = allowed[:2] if i % 2 == 0 else allowed[1::-1]
            return tuple(runner.side_by_side([program, frozen], cpus))
        if i % 2 == 0:
            f = runner.child(**frozen)
            return runner.child(**program), f
        p = runner.child(**program)
        return p, runner.child(**frozen)

    run = dict(measure=True, trace=False)
    load = dict(measure=False, trace=False)
    start = _now()
    # warm-up, used only for set-up: compile both copies' bytecode and let
    # one full run fault in the memory and page cache the workload uses
    setup_pairs = [pair(0, dict(run, frozen=False), dict(load, frozen=True))]
    pairs, longest = [], 0.0
    while True:
        t0 = _now()
        pairs.append(pair(len(pairs), dict(run, frozen=False), dict(run, frozen=True)))
        longest = max(longest, _now() - t0)
        if _now() - start + longest > seconds:
            break
    setup_pairs += pairs
    while len(setup_pairs) < SETUP_SAMPLES:
        setup_pairs.append(pair(len(setup_pairs), dict(load, frozen=False),
                                dict(load, frozen=True)))
    setups = [(p["setup_s"], f["setup_s"]) for p, f in setup_pairs]
    samples = [p for p, _ in pairs]
    ratios = {
        "run_s": [p["run_s"] / f["run_s"] for p, f in pairs],
        "cpu_s": [p["cpu_s"] / f["cpu_s"] for p, f in pairs],
        "setup_s": [p / f for p, f in setups],
    }
    metrics = {key: frozen_s[key] * statistics.median(ratios[key]) for key in NORMALISED}
    metrics["peak_rss_mib"] = statistics.median(s["peak_rss_mib"] for s in samples)
    # the measured times behind the ratios, printed but not declared
    runs = [s["run_s"] for s in samples]
    metrics.update({
        "pairs": len(pairs),
        "program.run_s": statistics.median(runs),
        "program.run_s_max": max(runs),
        "program.setup_s": statistics.median(p for p, _ in setups),
        "frozen.run_s": statistics.median(f["run_s"] for _, f in pairs),
        "frozen.cpu_s": statistics.median(f["cpu_s"] for _, f in pairs),
        "frozen.setup_s": statistics.median(f for _, f in setups),
    })
    return pairs, metrics


def traced_run(runner: Runner, threads: int) -> tuple[list, dict, dict]:
    """One untraced and two traced runs of the same input; also returns the
    trace consistency checks, by description, with their outcome."""
    import layers

    plain = runner.child()
    traced = [runner.child(trace=True) for _ in range(2)]
    analysed = [layers.analyze(runner.run_dir / f"{s['tag']}.spans.npz",
                               s["run_start_ns"], s["run_end_ns"], threads)
                for s in traced]
    checks = {
        "tracing leaves the program output byte-identical":
            all(_output(s) == _output(plain) for s in traced),
        "work counts repeat exactly between two traced runs":
            analysed[0][1] == analysed[1][1],
    }
    metrics = {}
    for key, value in analysed[0][0].items():
        values = [a[0][key] for a in analysed]
        metrics[key] = (statistics.median_low(values) if isinstance(value, int)
                        else statistics.median(values))
    metrics["trace.overhead_frac"] = (statistics.median(s["run_s"] for s in traced)
                                      / plain["run_s"] - 1.0)
    return [plain, *traced], metrics, checks


def environment(sample: dict) -> dict:
    return {"python": sample["python"], "numpy": sample["numpy"], "scipy": sample["scipy"],
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
            "platform": platform.platform(), "child_env": sample["blas_threads"]}


def main(argv=None) -> int:
    spec = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec["workloads"]))
    parser.add_argument("--seed", type=int, default=spec["default_seed"])
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "convsup" / "cli.py").is_file():
        print(f"no convsup source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    name, workload = args.workload, spec["workloads"][args.workload]
    run_dir = WORK / name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    if workload["command"] == "sweep":
        cfg_path = run_dir / "config.json"
        cfg_path.write_text(json.dumps(sweep_config(spec, workload, args.seed,
                                                    workload["n_trials"]), indent=1))
        cli_argv = ["sweep", "--config", str(cfg_path), "--out", "{out}",
                    "--threads", str(workload["threads"])]
    else:
        cli_argv = ["validate", "--seed", str(workload["seed"]),
                    "--trials", str(workload["trials"]), "--frames", str(workload["frames"])]
    runner = Runner(run_dir, cli_argv)

    try:
        if args.trace:
            frozen = []
            samples, metrics, checks = traced_run(runner, workload["threads"])
        else:
            pairs, metrics = timed_run(runner, args.seconds, workload["threads"],
                                       workload["frozen_s"])
            samples, frozen, checks = [p for p, _ in pairs], [f for _, f in pairs], {}
    except (BenchError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    problems = [desc for desc, ok in checks.items() if not ok]
    attempted, failed, max_stderr = len(checks), len(problems), None
    gate = _gate(spec, workload, name)
    for s in samples:
        n, bad, se = gate(s)
        attempted, failed = attempted + n, failed + len(bad)
        problems += [f"{s['tag']}: {p}" for p in bad]
        if se is not None:
            max_stderr = se if max_stderr is None else max(max_stderr, se)

    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"benchmark failed: metrics not measured: {missing}", file=sys.stderr)
        return 2
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    env = {**environment(samples[0]), "loadavg_before_after": [samples[0]["load_before"],
                                                               samples[-1]["load_after"]]}
    for s in samples + frozen:
        for key in ("csv", "stdout", "imported_ns", "python", "numpy", "scipy",
                    "blas_threads"):
            s.pop(key, None)
    record = {"workload": name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "config": cli_argv, "environment": env,
              "samples": samples, "frozen_samples": frozen, "max_stderr": max_stderr, "problems": problems,
              "all_metrics": metrics, "result": result}
    (run_dir / f"result-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print(f"workload {name}  seed {args.seed}  trace {args.trace}  runs {len(samples)}")
    print("environment " + json.dumps(env))
    for m in declared:
        print(f"  {m['name']:<44} {metrics[m['name']]:>14.6g} {m['unit']}")
    names = {m["name"] for m in declared}
    for key, value in metrics.items():
        if key not in names:
            print(f"  {key:<44} {value:>14.6g} (not declared)")
    if max_stderr is not None:
        print(f"  {'max_stderr':<44} {max_stderr:>14.6g} bits/s/Hz")
    print(f"  {'ops':<44} {attempted:>14d} count")
    print(f"  {'failed_ops':<44} {failed:>14d} count")
    for p in problems:
        print(f"FAILED: {p}")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
