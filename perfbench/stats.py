"""The percentile rule of job_tail_s."""

TAIL_SAMPLES_ABOVE = 10


def tail(latencies):
    """Latency at the highest percentile that keeps ten samples above it.

    Returns (value, percentile, samples above).  The percentile is the share
    of samples at or below the value.  With ten samples or fewer no such
    percentile exists; the smallest sample is returned with every other
    sample counted above it, so the caller can print the shortfall.
    """
    ordered = sorted(latencies)
    i = max(len(ordered) - TAIL_SAMPLES_ABOVE - 1, 0)
    return ordered[i], 100.0 * (i + 1) / len(ordered), len(ordered) - 1 - i
