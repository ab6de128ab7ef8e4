"""Percentiles, failure accounting and the reference clock of the
benchmark."""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import List, Sequence


def percentile(values: Sequence[float], q: int) -> float:
    """The q-th percentile, 1 <= q <= 99, interpolated between nearest ranks.

    Uses the inclusive method, so percentile(v, 50) is the median and the
    result never leaves [min(v), max(v)].
    """
    if not 1 <= q <= 99:
        raise ValueError(f"percentile {q} is outside 1..99")
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


@dataclass
class Outcome:
    """One unit of a workload: its ops, the seconds of its timed call, and
    what the checks found.

    ``failed`` counts failed ops; one message may stand for many of them,
    as when a whole census comes out with the wrong count.
    """

    ops: int
    seconds: float
    failed: int = 0
    messages: List[str] = field(default_factory=list)
    checks_run: int = 0


class Tally:
    """Attempted and failed ops over a run, with the first few failures."""

    KEEP = 20

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checks_run = 0
        self.messages: List[str] = []

    def add(self, outcome: Outcome) -> None:
        failed = outcome.failed or (1 if outcome.messages else 0)
        self.attempted += outcome.ops
        self.failed += min(failed, outcome.ops)
        self.checks_run += outcome.checks_run
        self.messages.extend(outcome.messages[: self.KEEP - len(self.messages)])

    def fail(self, message: str) -> None:
        """A failure of the run as a whole, such as a count that differs
        between two passes over the same inputs."""
        self.failed += 1
        self.attempted = max(self.attempted, self.failed)
        if len(self.messages) < self.KEEP:
            self.messages.append(message)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# About the reference work's time on an idle core of the machine this
# benchmark was tuned on (Intel Xeon, 2.0 GHz, CPython 3.11.7).
REFERENCE_S = 0.004
CALIBRATE_EVERY_S = 0.1
# Reference time spent per second of calls, so that a long call is scaled
# by a reading long enough to be steady.
REFERENCE_SHARE = 0.02


def reference_work() -> list:
    """Fixed pure-Python work of the package's kind: small tuples, dicts,
    frozensets and comparisons."""
    counts: dict = {}
    for i in range(3000):
        key = (i % 7, i % 11, i % 13)
        counts[key] = counts.get(key, 0) + 1
        if len(frozenset(key)) > 2 and key < (5, 5, 5):
            counts[key] += sum(x for x in key if x & 1)
    return sorted(counts.items())


def reference_seconds(at_least: float = 0.0) -> float:
    """Mean time of the reference work, run three times or more, until
    ``at_least`` seconds have passed."""
    start = time.perf_counter()
    runs = 0
    while runs < 3 or time.perf_counter() - start < at_least:
        reference_work()
        runs += 1
    return (time.perf_counter() - start) / runs


class ReferenceClock:
    """Scales the times of timed calls to the machine at rest.

    After every CALIBRATE_EVERY_S of timed calls it times the reference
    work, and multiplies each call's seconds by REFERENCE_S over the mean
    reference time just before and just after the call.  Load from other
    tenants of the machine slows the calls and the reference work alike, so
    the scaled time drifts much less from run to run than the raw time.
    """

    def __init__(self) -> None:
        self.before = reference_seconds()
        self.pending: List[Outcome] = []
        self.pending_s = 0.0

    def add(self, outcome: Outcome) -> None:
        self.pending.append(outcome)
        self.pending_s += outcome.seconds
        if self.pending_s >= CALIBRATE_EVERY_S:
            self.flush()

    def flush(self) -> None:
        if not self.pending:
            return
        after = reference_seconds(REFERENCE_SHARE * self.pending_s)
        scale = REFERENCE_S / ((self.before + after) / 2)
        for outcome in self.pending:
            outcome.seconds *= scale
        self.before, self.pending, self.pending_s = after, [], 0.0
