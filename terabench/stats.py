"""Statistics and the result schema of the benchmark.

Kept free of I/O so the self-tests (test_terabench.py) can check them
directly.
"""

import math
import statistics

# Percentiles a tail is reported at, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 75.0)


def median(values):
    """Median of a non-empty sequence."""
    if not values:
        raise ValueError("median of an empty sample")
    return statistics.median(values)


def quartiles(values):
    """(Q1, Q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def percentile(values, p):
    """The p-th percentile by linear interpolation between order
    statistics (numpy's default method)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    s = sorted(values)
    pos = (len(s) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def tail_percentile(n):
    """Highest reported percentile with at least ten of n samples beyond
    it, or None when there are too few samples for any."""
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            return p
    return None


def summarize(values):
    """Median, quartiles, tail percentile and count of one sample."""
    out = {"count": len(values), "median": median(values)}
    out["q1"], out["q3"] = quartiles(values)
    p = tail_percentile(len(values))
    if p is not None:
        out["tail_pct"] = p
        out["tail"] = percentile(values, p)
    return out


RESULT_KEYS = ("correct", "attempted", "failed", "metrics")


def make_result(correct, attempted, failed, metrics):
    """The last line of a run: metrics is {name: (value, unit)}."""
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(v), "unit": u}
                    for k, (v, u) in metrics.items()},
    }


def validate_result(doc, expected_metrics):
    """Problems with a result object against the schema; empty if none.
    expected_metrics maps each metric name to its unit."""
    problems = []
    if not isinstance(doc, dict) or tuple(sorted(doc)) != tuple(
            sorted(RESULT_KEYS)):
        return ["result keys must be exactly %s" % (RESULT_KEYS,)]
    if not isinstance(doc["correct"], bool):
        problems.append("correct must be a bool")
    for k in ("attempted", "failed"):
        if not isinstance(doc[k], int) or isinstance(doc[k], bool):
            problems.append("%s must be an integer" % k)
    if isinstance(doc["attempted"], int) and doc["attempted"] < 1:
        problems.append("attempted must be at least 1")
    metrics = doc["metrics"]
    if not isinstance(metrics, dict):
        return problems + ["metrics must be an object"]
    if set(metrics) != set(expected_metrics):
        problems.append("metrics %s, expected %s" %
                        (sorted(metrics), sorted(expected_metrics)))
    for name, m in metrics.items():
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            problems.append("%s must have exactly value and unit" % name)
            continue
        v = m["value"]
        if not isinstance(v, (int, float)) or isinstance(v, bool) or \
                not math.isfinite(v):
            problems.append("%s value must be a finite number" % name)
        if name in expected_metrics and m["unit"] != expected_metrics[name]:
            problems.append("%s unit %r, expected %r" %
                            (name, m["unit"], expected_metrics[name]))
    return problems
