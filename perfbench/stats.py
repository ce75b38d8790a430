"""Statistics of hgm_perfbench results.

Every figure the benchmark reports goes through these functions: the
median and quartiles of a metric's runs, the tail of a latency sample,
the share of failed operations, and the rule a later change must meet to
claim a gain over its parent.  perfbench/test_stats.py tests them.
"""

import statistics

# Samples a tail must have beyond it, and the percentiles it is kept in.
MIN_BEYOND = 10
FLOOR_PERCENTILE = 50
CAP_PERCENTILE = 99


def median(values):
    """Median of a non-empty sequence."""
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def quartiles(values):
    """(q1, q2, q3) exactly as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        raise ValueError("quartiles need at least two samples")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _rank(percentile, n):
    """Index of the sample at `percentile` of n: ceil(p n / 100) - 1."""
    return -(-percentile * n // 100) - 1


def tail(values):
    """The highest percentile with at least ten samples beyond it, kept
    between the median and p99.

    Returns (value, percentile, samples beyond it).  In ascending order
    the sample at index i is at percentile 100 * (i + 1) / n and has
    n - 1 - i samples beyond it; the rule's sample is at index n - 11.
    Below 20 samples that index sits under the median, so the median is
    taken and the report says how few samples lie beyond it: so few long
    operations have no tail to measure, and their p90 would be the
    second-highest sample, set by whatever else the host ran just then.
    Above 1 100 samples it is capped at p99: past that, a handful of rare
    events (a request queued behind two cold mines instead of one) decide
    the value run by run.
    """
    if not values:
        raise ValueError("tail of no samples")
    ordered = sorted(values)
    n = len(ordered)
    i = min(max(n - 1 - MIN_BEYOND, _rank(FLOOR_PERCENTILE, n)),
            _rank(CAP_PERCENTILE, n))
    return ordered[i], 100.0 * (i + 1) / n, n - 1 - i


def failed_share(failed, attempted):
    """Failed checks, sheds and error responses over attempted operations."""
    if attempted < 1:
        raise ValueError("no operations attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted


def _sign(better):
    if better == "lower":
        return 1.0
    if better == "higher":
        return -1.0
    raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")


def win_rule(parent, change, better):
    """Whether paired runs let a change claim a gain over its parent.

    parent[i] and change[i] are one pair of runs of one metric.  The change
    wins a pair when it reads better; ties count for neither side.  A gain
    is claimed only when the change wins at least nine tenths of all pairs
    and the medians differ, in the change's favour, by more than the
    parent's own spread (the distance between its quartiles).
    """
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need at least two pairs of runs")
    sign = _sign(better)
    wins = sum(1 for p, c in zip(parent, change) if (p - c) * sign > 0)
    q1, _, q3 = quartiles(parent)
    gain = (median(parent) - median(change)) * sign
    claimed = wins * 10 >= 9 * len(parent) and gain > q3 - q1
    return {"wins": wins, "pairs": len(parent), "gain": gain, "claimed": claimed}
