"""The benchmark's arithmetic: order statistics, the cache hit ratio, span
self time, and the reduction of a driver result to named metrics.

Pure functions over plain lists and dicts, so test_stats.py can check each
one by hand.
"""

import math
import statistics


def median(values):
    """Median of a non-empty sequence."""
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def percentile(values, p):
    """The p-th percentile (0 <= p <= 100), interpolating linearly between
    the closest ranks; one value is its own percentile."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0 <= p <= 100:
        raise ValueError("percentile outside [0, 100]")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def quartiles(values):
    """(Q1, Q2, Q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median (0 for a constant)."""
    q1, _, q3 = quartiles(values)
    m = median(values)
    if m == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(m)


def hit_ratio(hits, misses):
    """(hits / (hits + misses), hits + misses): the ratio with its base."""
    if hits < 0 or misses < 0:
        raise ValueError("negative hit or miss count")
    base = hits + misses
    if base == 0:
        raise ValueError("hit ratio over no cache-eligible operations")
    return hits / base, base


def geomean_of_medians(classes):
    """Geometric mean over classes of each class's median: one figure for a
    metric measured on several shapes, insensitive to how many samples
    each class has."""
    meds = [median(c) for c in classes if c]
    if not meds or min(meds) <= 0:
        raise ValueError("geometric mean needs positive class medians")
    return math.exp(sum(math.log(m) for m in meds) / len(meds))


def self_times(spans):
    """Self time of every span: its duration minus the durations of its
    direct children.  `spans` are dicts with id, parent and dur."""
    child_time = {}
    for s in spans:
        if s["parent"] >= 0:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["dur"]
    return {s["id"]: s["dur"] - child_time.get(s["id"], 0.0) for s in spans}


def layer_self_times(spans):
    """Self time summed per layer (a span's layer prefixes its name)."""
    own = self_times(spans)
    out = {}
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + own[s["id"]]
    return out


def chrome_spans(trace):
    """The spans of a Chrome trace-event document written by the driver,
    in seconds."""
    return [
        {
            "name": e["name"],
            "id": e["args"]["id"],
            "parent": e["args"]["parent"],
            "run": e["args"]["run"],
            "dur": e["dur"] / 1e6,
        }
        for e in trace["traceEvents"]
        if e.get("ph") == "X"
    ]


def metric_value(name, sink):
    """One metric from a driver sink ({"samples": ..., "exact": ...}).

    An exact count is reported as is; "<m>@<class>" samples reduce as the
    geometric mean of class medians; "<m>.pNN" is the NN-th percentile of
    the samples of <m>; any other sample list reduces to its median.
    Returns None when the sink has no data for the name.
    """
    samples, exact = sink["samples"], sink["exact"]
    if name in exact:
        return exact[name]
    classes = [v for k, v in sorted(samples.items()) if k.startswith(name + "@")]
    if classes:
        return geomean_of_medians(classes)
    if samples.get(name):
        return median(samples[name])
    base, _, tail = name.rpartition(".")
    if tail[:1] == "p" and tail[1:].isdigit() and samples.get(base):
        return percentile(samples[base], int(tail[1:]))
    return None


def layer_metric_value(name, sink, layer_self):
    """A per-layer metric: the sink rule, plus the hit ratio and its base
    from the summed serve hits and misses, and self_s.<layer> from spans."""
    if name.startswith("self_s."):
        return layer_self.get(name[len("self_s."):])
    if name in ("serve.hit_ratio", "serve.hit_base"):
        hits = sum(sink["samples"].get("serve.hits", []))
        misses = sum(sink["samples"].get("serve.misses", []))
        ratio, base = hit_ratio(hits, misses)
        return ratio if name == "serve.hit_ratio" else base
    return metric_value(name, sink)
