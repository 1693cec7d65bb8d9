"""Arithmetic of the layered host-time benchmark (see METHOD.md).

Pure functions over the raw samples the driver prints: medians and
quartiles, the percentile rule, per-layer shares and their residual,
and the correctness gate (verify flags plus simulated signatures).
test_metrics.py checks every rule here.
"""

import math
import statistics

# A percentile is reported only with at least this many samples beyond
# it; otherwise the tail figure falls back to the maximum.
MIN_BEYOND = 10


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, q2, q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, _, q3 = quartiles(values)
    return (q3 - q1) / median(values)


def samples_beyond(n, q):
    """Samples strictly above the nearest-rank q-percentile of n."""
    return n - math.ceil(q * n)


def percentile_allowed(n, q):
    return n > 0 and samples_beyond(n, q) >= MIN_BEYOND


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail(values, q):
    """(value, exact): the q-percentile when allowed, else the maximum."""
    if percentile_allowed(len(values), q):
        return nearest_rank(values, q), True
    return max(values), False


def share(count, unit_ns, run_seconds):
    """Share of run time a layer holds: count x unit cost / run time."""
    return count * unit_ns * 1e-9 / run_seconds


def residual(shares):
    """What the named shares leave unattributed."""
    return 1.0 - sum(shares)


def ratio(num, den):
    return num / den if den else 0.0


def check_simulation(name, verified, sig, expected):
    """Problems with one simulation: failed verify or a signature that
    differs from the recorded one (a missing record also fails)."""
    problems = []
    if not verified:
        problems.append(f"{name}: verify() returned false")
    want = expected.get(name)
    if want is None:
        problems.append(f"{name}: no recorded signature")
    elif list(sig) != list(want):
        problems.append(f"{name}: signature {list(sig)} != recorded {want}")
    return problems


def fail_frac(failed, attempted):
    return failed / attempted if attempted else 1.0
