"""Summary statistics for the cvewb benchmark.

No I/O: run.py feeds these the raw samples the harness writes, and
test_benchstats.py pins their rules.

Rules (see README.md):
  * A timing is reported as a median plus the highest percentile that has
    at least MIN_TAIL samples beyond it, with its sample count.
  * A tail over a load in slices is the median over the slices of each
    slice's tail, each supported by its own sample count: a stall lands in
    one slice's tail, and the median of several slices does not rest on
    one stall's length.
  * A failed or refused operation misses every latency limit: its sample is
    +infinity, or the client's timeout where a finite number must be
    printed.  It still counts as attempted.
"""

import math

MIN_TAIL = 10
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 50.0)

# Marker the harness writes for a failed operation's latency (any negative
# sample is one).
FAILED = -1


def samples_with_failures(raw, failed_as=math.inf):
    """Harness samples -> floats, with each FAILED marker as `failed_as`."""
    return [failed_as if v < 0 else float(v) for v in raw]


def failures(raw):
    """How many of the harness samples are failed operations."""
    return sum(1 for v in raw if v < 0)


def rank(n, p):
    """1-based nearest rank of the p-th percentile of n samples.  The
    epsilon keeps float error (99.9 / 100 * 10000 = 9990.000000000002)
    from bumping the rank."""
    return max(1, math.ceil(p / 100.0 * n - 1e-9))


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it.  +infinity sorts last."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[rank(len(values), p) - 1]


def median(values):
    """The 50th nearest-rank percentile (an actual sample, never a mean of
    two, so a failure at the middle shows as +infinity)."""
    return percentile(values, 50.0)


def beyond(n, p):
    """Samples that lie beyond the p-th percentile of n samples."""
    return n - rank(n, p)


def highest_supported(n):
    """The highest of PERCENTILES with at least MIN_TAIL samples beyond it,
    or None when even the median is unsupported."""
    for p in PERCENTILES:
        if beyond(n, p) >= MIN_TAIL:
            return p
    return None


def tail(values, p=99.0):
    """The p-th percentile, required to be supported by the sample count."""
    if beyond(len(values), p) < MIN_TAIL:
        raise ValueError(
            "p%g needs %d samples beyond it; %d samples give %d"
            % (p, MIN_TAIL, len(values), beyond(len(values), p)))
    return percentile(values, p)


def median_of_tails(slices, p=99.0):
    """The median over slices of each slice's p-th percentile; every slice
    must support it on its own."""
    return median([tail(values, p) for values in slices])


def describe_slices(slices):
    """Sample counts of a tail taken per slice."""
    return "median of %d slice p99s, n=%s" % (
        len(slices), "+".join(str(len(values)) for values in slices))


def describe(values):
    """Sample count and the highest percentile the count supports."""
    p = highest_supported(len(values))
    return "n=%d, supports p%s" % (len(values), "%g" % p if p is not None else "-none-")


class OpCounter:
    """Attempted and failed operations per class."""

    def __init__(self):
        self.classes = {}

    def add(self, name, attempted, failed=0):
        if failed > attempted:
            raise ValueError("%s: %d failed of %d attempted" % (name, failed, attempted))
        a, f = self.classes.get(name, (0, 0))
        self.classes[name] = (a + attempted, f + failed)

    def add_samples(self, name, raw):
        """One operation per harness sample; FAILED markers count as failed."""
        self.add(name, len(raw), failures(raw))

    @property
    def attempted(self):
        return sum(a for a, _ in self.classes.values())

    @property
    def failed(self):
        return sum(f for _, f in self.classes.values())
