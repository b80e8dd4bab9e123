"""Statistics for the city benchmark: percentiles with the sample-count rule,
aggregation over rounds, and self time from a span tree."""

import math
import statistics

# Percentiles a tail can be reported at, highest first. A tail is the highest
# of these that has at least TAIL_MIN_BEYOND samples beyond it.
TAIL_LADDER = (99.0, 90.0, 50.0)
TAIL_MIN_BEYOND = 10


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list (q in [0, 100])."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(n):
    """The highest ladder percentile with TAIL_MIN_BEYOND samples beyond it
    among n samples; the median when even that has too few."""
    for q in TAIL_LADDER:
        if n * (100.0 - q) >= TAIL_MIN_BEYOND * 100.0:
            return q
    return 50.0


def summarize(values, tail_q=None):
    """p50 and the tail of a sample set: {'n', 'p50', 'tail_q', 'tail'}. The
    tail is at tail_q, or by the sample-count rule when it is None."""
    s = sorted(values)
    q = tail_percentile(len(s)) if tail_q is None else tail_q
    return {"n": len(s), "p50": percentile(s, 50.0), "tail_q": q,
            "tail": percentile(s, q)}


def aggregate_rounds(per_round, pick=statistics.median):
    """`pick` over rounds of each metric.

    per_round is a list of {metric: value} dicts, one per round; a metric
    missing from a round is aggregated over the rounds that have it."""
    names = []
    for r in per_round:
        for name in r:
            if name not in names:
                names.append(name)
    return {name: pick([r[name] for r in per_round if name in r])
            for name in names}


def covered_length(parent, children):
    """Length of the part of [parent.start, parent.end) that the union of the
    children's intervals covers. Spans are (start, end) pairs."""
    start, end = parent
    clipped = sorted((max(s, start), min(e, end)) for s, e in children)
    covered = 0
    cur_s = cur_e = None
    for s, e in clipped:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                covered += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        covered += cur_e - cur_s
    return covered


def self_times(trace_spans):
    """Self time of each span of one trace.

    trace_spans is a list of (name, parent_name, start, end); a span's
    children are the spans whose parent_name is its name. Returns a list of
    (name, self_time): the span's duration minus the part its children
    cover."""
    children = {}
    for name, parent, start, end in trace_spans:
        children.setdefault(parent, []).append((start, end))
    out = []
    for name, _parent, start, end in trace_spans:
        duration = max(0, end - start)
        covered = covered_length((start, end), children.get(name, []))
        out.append((name, duration - covered))
    return out


def layer_of(span_name):
    """The layer a span's self time is charged to: its name's prefix."""
    return span_name.split(".", 1)[0]
