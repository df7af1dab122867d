"""What a measurement is stored in, and how two of them become one.

Every sink behind the observer seam keeps the same few things: numbers
that add, samples of a level, durations worth a quantile, and bounded
lists of records.  They are defined here, once each, with the one
function that records into them and the one that folds two together:

* a **counter** is a ``dict`` value: ``counts[key] += n`` records,
  :func:`add_counts` folds;
* a **gauge** is a :class:`Gauge` ``(n, sum, min, max)``:
  :meth:`Store.gauge` records a sample, :meth:`Gauge.fold` folds — the
  only place a minimum or maximum is updated;
* a **digest** is a :class:`Histogram` of log₂-µs buckets:
  :func:`log2_us_bucket` turns a duration into its bucket (once — the
  bucket, not the duration, is handed to every digest that wants it),
  :meth:`Histogram.add_bucket` is the only bucket addition, and
  :meth:`Histogram.fold` / :meth:`Histogram.quantile` sit on it;
* a **log** is a :class:`Log`: a list that stores a prefix and counts
  the rest, :meth:`Log.admit` being the only place that decides whether
  there is room;
* a **sample** is a :class:`Sample`: a list that stores a stride sample
  of keyed records and counts the rest, :meth:`Sample.admit` deciding
  on the way in and :meth:`Sample.fold` on a merge.

A :class:`Store` holds one of each cell kind per string key — a timeline
window, or a whole-run fold of them.  All folds are associative and
commutative over exact values; float sums are added in call order, so a
caller that needs byte-stable output folds in a fixed order (hooks in
arrival order, children in rank order).  Everything here pickles as it
is, so a snapshot carries these objects themselves
(docs/observability.md, "What is stored, and how it merges").
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import NamedTuple

__all__ = ["log2_us_bucket", "add_counts", "Gauge", "Histogram", "Store",
           "Log", "Sample"]


def log2_us_bucket(seconds: float) -> int:
    """Log₂ microsecond bucket of a duration: ``b`` covers
    ``(2**(b-1), 2**b]`` µs, bucket 0 everything at or below 1 µs."""
    us = seconds * 1e6
    return 0 if us <= 1.0 else int(math.ceil(math.log2(us)))


def add_counts(into: dict, counts: dict) -> None:
    """Fold the counters ``counts`` into ``into``, key by key."""
    for key, n in counts.items():
        into[key] = into.get(key, 0) + n


class Gauge(NamedTuple):
    """A sampled level, folded: how many samples, their sum, the extremes."""

    n: int
    sum: float
    min: float
    max: float

    def fold(self, other: "Gauge") -> "Gauge":
        return Gauge(self.n + other.n, self.sum + other.sum,
                     min(self.min, other.min), max(self.max, other.max))

    @property
    def mean(self) -> float:
        return self.sum / self.n


class Histogram:
    """Log₂-bucketed duration digest (microsecond scale).

    Bucket ``b`` counts durations in ``(2**(b-1), 2**b]`` microseconds;
    bucket 0 collects everything at or below 1 µs.  Log buckets keep the
    digest tiny while separating the decades that matter (an uncontended
    acquire, a contended wait, a descheduled process), and two digests
    fold by bucket addition, so quantiles survive any merge order.
    """

    __slots__ = ("counts",)

    def __init__(self, counts: dict[int, int] | None = None) -> None:
        self.counts: dict[int, int] = dict(counts or {})

    def add_bucket(self, bucket: int, n: int = 1) -> None:
        """Count ``n`` durations of :func:`log2_us_bucket` ``bucket``."""
        self.counts[bucket] = self.counts.get(bucket, 0) + n

    def fold(self, other: "Histogram") -> None:
        for bucket, n in other.counts.items():
            self.add_bucket(bucket, n)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile, in seconds.

        Returns the bucket's upper bound (``2**b`` µs), i.e. a
        conservative estimate with the digest's native resolution.
        """
        total = self.total
        if total == 0:
            return 0.0
        rank = max(1, math.ceil(q * total))
        seen = 0
        for b in sorted(self.counts):
            seen += self.counts[b]
            if seen >= rank:
                return (2 ** b) * 1e-6
        return (2 ** max(self.counts)) * 1e-6  # pragma: no cover - defensive

    def buckets(self) -> list[tuple[str, int]]:
        """Sorted ``(upper-bound label, count)`` pairs."""
        out = []
        for b in sorted(self.counts):
            us = 2 ** b
            label = f"≤{us}µs" if us < 1000 else f"≤{us / 1000:g}ms"
            out.append((label, self.counts[b]))
        return out

    def __eq__(self, other: object) -> bool:
        """Equal digests count the same durations in the same buckets."""
        if not isinstance(other, Histogram):
            return NotImplemented
        return self.counts == other.counts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({dict(sorted(self.counts.items()))})"


class Store:
    """Counters, gauges and digests under string keys.

    ``counters[key] += n`` and ``digests[key].add_bucket(b)`` record in
    place (both dicts create their cell on first use); gauges record
    through :meth:`gauge`.
    """

    __slots__ = ("counters", "gauges", "digests")

    def __init__(self) -> None:
        self.counters: dict[str, float] = defaultdict(int)
        self.gauges: dict[str, Gauge] = {}
        self.digests: dict[str, Histogram] = defaultdict(Histogram)

    def gauge(self, key: str, value: float) -> None:
        """Record one sample of gauge ``key``."""
        self.fold_gauge(key, Gauge(1, value, value, value))

    def fold_gauge(self, key: str, cell: Gauge) -> None:
        mine = self.gauges.get(key)
        self.gauges[key] = cell if mine is None else mine.fold(cell)

    def fold(self, other: "Store") -> None:
        add_counts(self.counters, other.counters)
        for key, cell in other.gauges.items():
            self.fold_gauge(key, cell)
        for key, digest in other.digests.items():
            self.digests[key].fold(digest)


class Log(list):
    """A list that stores a prefix of what it is offered and counts the rest.

    The first :attr:`limit` records are kept; :attr:`total` counts every
    record offered and :attr:`dropped` those not stored, so
    ``total == len(log) + dropped`` always holds and a truncated log is
    never silently read as complete.  Offer a record with::

        if log.admit():
            log.append(make_record())

    so that a record past the bound is never built.
    """

    def __init__(self, limit: int) -> None:
        super().__init__()
        self.limit = limit
        self.total = 0
        self.dropped = 0

    def admit(self, n: int = 1) -> int:
        """Book ``n`` offered records; returns how many of them fit."""
        fit = max(0, min(n, self.limit - len(self)))
        self.total += n
        self.dropped += n - fit
        return fit

    def fold(self, other: "Log") -> None:
        """Append ``other``'s records while there is room; its drops and
        whatever does not fit are counted as dropped here."""
        self.extend(other[:self.admit(len(other))])
        self.total += other.dropped
        self.dropped += other.dropped


class Sample(list):
    """A list that stores a stride sample of keyed records and counts
    the rest.

    Records sharing a key, ``key(record)``, are kept or dropped
    together: those kept have a key that is a multiple of
    :attr:`stride`, which starts at 1 and doubles (the stored records
    pruned to it) whenever one more would pass :attr:`limit`.  So the
    stored set depends on what was offered, not on the order of offers
    or folds.  Key 0 survives every stride: offered more than ``limit``
    of it, the sample keeps just those, past the bound.
    ``total == len(sample) + dropped`` always holds.  Offer with::

        if sample.admit(k):
            sample.append(make_record(k))
    """

    def __init__(self, limit: int, key) -> None:
        super().__init__()
        self.limit = limit
        self.key = key
        self.stride = 1
        self.total = 0
        self.dropped = 0

    def admit(self, k: int) -> bool:
        """Book one offered record of key ``k``; whether it is kept."""
        self.total += 1
        while k % self.stride == 0:
            if len(self) < self.limit or not (k or any(map(self.key, self))):
                return True
            self._prune(self.stride * 2)
        self.dropped += 1
        return False

    def fold(self, other: "Sample") -> None:
        """Keep the sample of both: pruned to the coarser stride, then
        thinned further while over the bound."""
        self.total += other.total
        self.dropped += other.dropped
        self.extend(other)
        self._prune(max(self.stride, other.stride))
        while len(self) > self.limit and any(map(self.key, self)):
            self._prune(self.stride * 2)

    def _prune(self, stride: int) -> None:
        self.stride = stride
        kept = [r for r in self if self.key(r) % stride == 0]
        self.dropped += len(self) - len(kept)
        self[:] = kept
