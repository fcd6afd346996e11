"""Per-layer metrics from the spans of one traced run.

Self time is charged on the wall clock.  On each thread the innermost open
span owns the time, so a span's share is its duration minus the part its
children cover on the same thread, and the two sweep workers never cover
each other's spans.  Where k threads are inside spans at the same instant,
each owner gets 1/k of that wall time.  The self times of all spans plus
``harness.unattributed_s`` (the wall time inside the run when no thread is
in a span) therefore add up to the traced ``run_s`` exactly, on one thread
or several.  ``busy_s`` is a name's inclusive duration summed over its calls
and threads.
"""

from __future__ import annotations

import numpy as np

# columns of the span records written by spans.Tracer.save
ID, NAME, PARENT, TASK, THREAD, START, END, COUNT = range(8)
ROLLUP_LAYERS = ("harness", "capacity", "precoding", "channel", "rng",
                 "transceiver", "spectral")
TASK_SPAN = "harness.evaluate_scheme"


def _self_times(start, end, parent, thread):
    """Wall-clock self time of every span (seconds, same units as inputs)."""
    n = start.size
    depth = np.zeros(n, dtype=np.int64)
    up = parent.copy()
    while np.any(up >= 0):
        has = up >= 0
        depth += has
        up = np.where(has, parent[np.maximum(up, 0)], -1)

    # A start hands the thread to the span; an end hands it back to the
    # parent.  At equal times ends come first, deepest first, then starts,
    # shallowest first, which is the order the calls happened in.
    times = np.concatenate([start, end])
    owner = np.concatenate([np.arange(n), parent])
    threads = np.concatenate([thread, thread])
    kind = np.concatenate([np.ones(n, dtype=np.int64), np.zeros(n, dtype=np.int64)])
    tie = np.concatenate([depth, -depth])
    order = np.lexsort((tie, kind, times, threads))
    times, owner, threads = times[order], owner[order], threads[order]
    keep = (threads[:-1] == threads[1:]) & (owner[:-1] >= 0)
    seg_t0, seg_t1, seg_owner = times[:-1][keep], times[1:][keep], owner[:-1][keep]

    edges = np.concatenate([seg_t0, seg_t1])
    step = np.concatenate([np.ones(seg_t0.size), -np.ones(seg_t1.size)])
    by_time = np.argsort(edges, kind="stable")
    edges = edges[by_time]
    active = np.cumsum(step[by_time])[:-1]
    rate = np.where(active > 0, 1.0 / np.maximum(active, 1.0), 0.0)
    wall = np.concatenate([[0.0], np.cumsum(np.diff(edges) * rate)])
    share = (wall[np.searchsorted(edges, seg_t1)]
             - wall[np.searchsorted(edges, seg_t0)])
    return np.bincount(seg_owner, weights=share, minlength=n)


def analyze(path, run_start_ns: int, run_end_ns: int, threads: int):
    """Return ``(metrics, counts)`` for one traced run.

    ``metrics`` maps ``<module>.<function>.<stat>`` and the rollups to
    numbers; ``counts`` maps each span name to ``[calls, work]``, which must
    repeat exactly between two traced runs of the same input.
    """
    with np.load(path) as data:
        names = [str(n) for n in data["names"]]
        count_stats = [str(s) for s in data["count_stats"]]
        spans = data["spans"]
    spans = spans[np.argsort(spans[:, ID])]
    n = spans.shape[0]
    if not np.array_equal(spans[:, ID], np.arange(n)):
        raise ValueError("span ids are not contiguous: spans were lost")
    if n and (spans[:, START].min() < run_start_ns or spans[:, END].max() > run_end_ns):
        raise ValueError("a span lies outside the timed run")
    name_id, parent, thread = spans[:, NAME], spans[:, PARENT], spans[:, THREAD]
    start = (spans[:, START] - run_start_ns) / 1e9
    end = (spans[:, END] - run_start_ns) / 1e9
    run_s = (run_end_ns - run_start_ns) / 1e9

    span_self = _self_times(start, end, parent, thread)
    k = len(names)
    calls = np.bincount(name_id, minlength=k)
    busy = np.bincount(name_id, weights=end - start, minlength=k)
    self_s = np.bincount(name_id, weights=span_self, minlength=k)
    work = np.bincount(name_id, weights=spans[:, COUNT], minlength=k)

    metrics = {}
    counts = {}
    for i, name in enumerate(names):
        metrics[f"{name}.calls"] = int(calls[i])
        metrics[f"{name}.self_s"] = float(self_s[i])
        metrics[f"{name}.busy_s"] = float(busy[i])
        counts[name] = [int(calls[i])]
        if count_stats[i]:
            metrics[f"{name}.{count_stats[i]}"] = int(work[i])
            counts[name].append(int(work[i]))
    for layer in ROLLUP_LAYERS:
        metrics[f"{layer}.self_s"] = float(sum(
            self_s[i] for i, name in enumerate(names) if name.split(".")[0] == layer))
    metrics["harness.unattributed_s"] = run_s - float(span_self.sum())

    task = names.index(TASK_SPAN)
    durations = (end - start)[name_id == task]
    metrics[f"{TASK_SPAN}.p50_s"] = float(np.median(durations)) if durations.size else 0.0
    metrics[f"{TASK_SPAN}.tail_s"] = float(durations.max()) if durations.size else 0.0
    metrics["harness.thread_busy_frac"] = float(busy[task]) / (run_s * threads)
    metrics["trace.run_s"] = run_s
    metrics["trace.spans"] = n
    return metrics, counts
