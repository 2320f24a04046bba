"""Pure helpers of the perfbench harness: percentiles, open-loop latency
accounting, adjusted Rand index, span self times and the result line.

Kept free of I/O so test_helpers.py can check them directly.
"""

import json
import math
import re
from collections import Counter, defaultdict

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# A percentile is reported only when at least this many samples lie beyond it.
MIN_TAIL_SAMPLES = 10


def median(values):
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def percentile(values, q):
    """Nearest-rank q-th percentile, refused when fewer than
    MIN_TAIL_SAMPLES samples lie beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{q} of {n} samples has {n - rank} beyond it; "
            f"need {MIN_TAIL_SAMPLES}")
    return ordered[rank - 1]


def open_loop_latencies(records):
    """Splits open-loop records (due_ns, sent_ns, answered_ns, status, ...)
    into latencies of ok answers and generator lateness, both in ms.

    Latency runs from the time a request was due, not from when it was
    actually sent: a stalled generator or connection delays every request
    scheduled behind the stall, and that wait is part of what users see.
    """
    latencies, lateness = [], []
    for due, sent, answered, status, *_rest in records:
        lateness.append((sent - due) / 1e6)
        if status == 0 and answered >= 0:
            latencies.append((answered - due) / 1e6)
    return latencies, lateness


def backlog_growing(samples, allowed):
    """True when the outstanding-request count kept growing: the median of
    the last quarter of samples exceeds both `allowed` and the largest
    sample of the first quarter."""
    if len(samples) < 8:
        return False
    quarter = len(samples) // 4
    return median(samples[-quarter:]) > max(allowed, max(samples[:quarter]))


def adjusted_rand_index(a, b):
    """Adjusted Rand index of two labelings of the same items (Hubert and
    Arabie); 1.0 for identical partitions under any relabelling."""
    if len(a) != len(b):
        raise ValueError("labelings differ in length")
    n = len(a)
    if n < 2:
        return 1.0

    def pairs(k):
        return k * (k - 1) / 2.0

    joint = sum(pairs(c) for c in Counter(zip(a, b)).values())
    rows = sum(pairs(c) for c in Counter(a).values())
    cols = sum(pairs(c) for c in Counter(b).values())
    expected = rows * cols / pairs(n)
    maximum = 0.5 * (rows + cols)
    if maximum == expected:
        return 1.0
    return (joint - expected) / (maximum - expected)


def mean_subsample_ari(items):
    """Mean over subsamples of the ARI of served labels against reference
    labels. `items` are (subsample, served, reference) triples; subsample -1
    marks an item outside every subsample."""
    served, reference = defaultdict(list), defaultdict(list)
    for group, label, truth in items:
        if group >= 0:
            served[group].append(label)
            reference[group].append(truth)
    if not served:
        raise ValueError("no item lies in a subsample")
    return sum(adjusted_rand_index(served[g], reference[g])
               for g in served) / len(served)


def self_times(spans):
    """Total self time per span name. Each span is [name, start, end,
    parent-index]; self time is its duration minus its children's."""
    child_time = defaultdict(float)
    for _name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = defaultdict(float)
    for i, (name, start, end, _parent) in enumerate(spans):
        totals[name] += (end - start) - child_time[i]
    return dict(totals)


def durations(spans, name):
    return [end - start for n, start, end, _parent in spans if n == name]


def unattributed(wall_s, spans):
    """Wall time not covered by any top-level span."""
    return wall_s - sum(end - start for _n, start, end, parent in spans
                        if parent < 0)


def result_line(correct, attempted, failed, metrics):
    """The benchmark's last stdout line. `metrics` maps name -> (value,
    unit)."""
    for name in metrics:
        if not METRIC_NAME.fullmatch(name):
            raise ValueError(f"bad metric name {name!r}")
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })
