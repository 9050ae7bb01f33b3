"""Summaries of repeated measurements."""

import statistics

# A tail percentile is reported only when at least this many samples lie
# beyond it; otherwise it would be one or two samples dressed up as a tail.
MIN_TAIL_SAMPLES = 10
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def tail_percentile(n):
    """The highest percentile with MIN_TAIL_SAMPLES samples beyond it, or
    None when n is too small for any."""
    for p in TAIL_PERCENTILES:
        if round(n * (100.0 - p) / 100.0, 6) >= MIN_TAIL_SAMPLES:
            return p
    return None


def percentile(values, p):
    """Linear-interpolated percentile p (0..100) of values."""
    s = sorted(values)
    if not s:
        raise ValueError("percentile of no values")
    k = (len(s) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def summarize(values):
    """Median, sample count and, when the count allows, a tail percentile."""
    out = {"median": statistics.median(values), "n": len(values)}
    p = tail_percentile(len(values))
    if p is not None:
        out["p%g" % p] = percentile(values, p)
    return out


def quartile_spread(values):
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
