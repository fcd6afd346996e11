"""One benchmark measurement in a fresh interpreter.

Usage: python3 perfbench/child.py SPEC.json

SPEC holds ``src`` (the checkout's source directory), ``argv`` (the
``convsup`` command line, or null to measure the import only), ``trace``,
``spans`` (where a traced run writes its spans) and ``result`` (where this
process writes its measurements as JSON).  Only the standard library is
imported before ``convsup.cli``, so the import time the parent derives from
``imported_ns`` is the program's own set-up.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time


def _now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    src = os.path.realpath(spec["src"])
    sys.path.insert(0, src)
    from convsup import cli
    imported_ns = _now_ns()
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"convsup.cli came from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    import numpy
    import scipy
    result = {"imported_ns": imported_ns, "numpy": numpy.__version__,
              "scipy": scipy.__version__,
              "python": sys.version.split()[0],
              "blas_threads": {k: os.environ.get(k) for k in
                               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                "MKL_NUM_THREADS")}}
    if spec["argv"] is not None:
        tracer = None
        if spec["trace"]:
            import spans
            tracer = spans.Tracer()
            spans.install(tracer)
        out = io.StringIO()
        cpu0 = _cpu_s()
        t0 = _now_ns()
        with contextlib.redirect_stdout(out):
            rc = cli.main(spec["argv"])
        t1 = _now_ns()
        result.update(rc=rc, run_start_ns=t0, run_end_ns=t1, run_s=(t1 - t0) / 1e9,
                      cpu_s=_cpu_s() - cpu0, stdout=out.getvalue())
        if tracer is not None:
            tracer.save(spec["spans"])
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
