"""Distribution statistics: equi-width and equi-depth histograms, MCVs.

Section 5 of the paper notes that the uniformity assumption is only needed
for *join* columns — "we can use data distribution information for local
predicate selectivities".  These histogram classes provide that distribution
information: given a constant-local predicate ``col op c`` they estimate the
fraction of rows satisfying it, which the local-selectivity module prefers
over the plain uniformity estimate whenever a histogram is present.

Both histogram flavours answer the same queries:

* :meth:`fraction` — fraction of rows satisfying ``op value``;
* :meth:`fraction_between` — fraction in a closed/open interval, used when
  the tightest pair of range predicates is combined per [16].

Equi-width histograms split the value range into equal-width buckets (cheap
to build, weak on skew); equi-depth histograms (Piatetsky-Shapiro & Connell
[10]; Muralikrishna & DeWitt [8]) place an equal number of rows in each
bucket, which bounds the error under skew.  A most-common-values list gives
exact equality selectivities for heavy hitters, mirroring what modern
optimizers (and Starburst's statistics) keep.
"""

from __future__ import annotations

import bisect
import operator
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate, compress, repeat
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from ..errors import CatalogError
from ..sql.predicates import Op

__all__ = [
    "Histogram",
    "EquiWidthHistogram",
    "EquiDepthHistogram",
    "MostCommonValues",
    "build_equi_width",
    "build_equi_depth",
    "build_mcv",
]

Number = Union[int, float]


class Histogram:
    """Interface shared by the histogram implementations."""

    total: int

    def fraction(self, op: Op, value: Number) -> float:
        """Estimated fraction of rows whose column satisfies ``op value``."""
        raise NotImplementedError

    def fraction_between(
        self,
        low: Optional[Number],
        high: Optional[Number],
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> float:
        """Estimated fraction of rows with values inside an interval.

        ``None`` bounds are unbounded on that side.  The default
        implementation composes :meth:`_cumulative` calls; concrete classes
        only implement the cumulative distribution.
        """
        upper = 1.0 if high is None else self._cumulative(high, high_inclusive)
        lower = 0.0 if low is None else self._cumulative(low, not low_inclusive)
        return _clamp(upper - lower)

    def _cumulative(self, value: Number, inclusive: bool) -> float:
        """Fraction of rows with column value < (or <=) ``value``."""
        raise NotImplementedError


def _clamp(x: float) -> float:
    return min(1.0, max(0.0, x))


@dataclass(frozen=True)
class EquiWidthHistogram(Histogram):
    """Equal-width buckets over ``[low, high]`` with exact per-bucket counts.

    Attributes:
        low: Minimum observed value.
        high: Maximum observed value.
        counts: Rows per bucket, left to right.
        total: Total number of rows summarized.
        distinct_per_bucket: Distinct values per bucket (for equality
            estimates inside a bucket); optional.
    """

    low: Number
    high: Number
    counts: Tuple[int, ...]
    total: int
    distinct_per_bucket: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.total < 0 or any(c < 0 for c in self.counts):
            raise CatalogError("histogram counts must be non-negative")
        if self.counts and sum(self.counts) != self.total:
            raise CatalogError(
                f"bucket counts sum to {sum(self.counts)}, expected {self.total}"
            )
        if self.high < self.low:
            raise CatalogError("histogram high bound below low bound")

    @property
    def bucket_width(self) -> float:
        if not self.counts:
            return 0.0
        span = float(self.high) - float(self.low)
        return span / len(self.counts) if span > 0 else 0.0

    def _cumulative(self, value: Number, inclusive: bool) -> float:
        if self.total == 0 or not self.counts:
            return 0.0
        if value < self.low or (value == self.low and not inclusive):
            return 0.0
        if value > self.high or (value == self.high and inclusive):
            return 1.0
        width = self.bucket_width
        if width == 0.0:
            # Degenerate single-value domain.
            return 1.0 if (value > self.low or inclusive) else 0.0
        offset = (float(value) - float(self.low)) / width
        bucket = min(int(offset), len(self.counts) - 1)
        rows_before = sum(self.counts[:bucket])
        within = (offset - bucket) * self.counts[bucket]
        return _clamp((rows_before + within) / self.total)

    def fraction(self, op: Op, value: Number) -> float:
        return _fraction_from_cumulative(self, op, value)

    def equality_fraction(self, value: Number) -> float:
        """Equality estimate: bucket density divided by bucket distincts."""
        if self.total == 0 or not self.counts:
            return 0.0
        if value < self.low or value > self.high:
            return 0.0
        width = self.bucket_width
        if width == 0.0:
            return 1.0 if value == self.low else 0.0
        bucket = min(int((float(value) - float(self.low)) / width), len(self.counts) - 1)
        count = self.counts[bucket]
        if count == 0:
            return 0.0
        if self.distinct_per_bucket and self.distinct_per_bucket[bucket] > 0:
            return count / self.total / self.distinct_per_bucket[bucket]
        return count / self.total / max(1.0, width)


@dataclass(frozen=True)
class EquiDepthHistogram(Histogram):
    """Equal-depth (equal-height) buckets: boundaries chosen from quantiles.

    ``boundaries`` has ``len(counts) + 1`` entries; bucket *i* covers the
    half-open interval ``[boundaries[i], boundaries[i+1])`` except the last
    bucket, which is closed on the right.
    """

    boundaries: Tuple[Number, ...]
    counts: Tuple[int, ...]
    total: int

    def __post_init__(self) -> None:
        if len(self.boundaries) != len(self.counts) + 1:
            raise CatalogError(
                "equi-depth histogram needs len(counts)+1 boundaries; got "
                f"{len(self.boundaries)} boundaries for {len(self.counts)} buckets"
            )
        if list(self.boundaries) != sorted(self.boundaries):
            raise CatalogError("equi-depth boundaries must be non-decreasing")
        if self.counts and sum(self.counts) != self.total:
            raise CatalogError(
                f"bucket counts sum to {sum(self.counts)}, expected {self.total}"
            )

    @property
    def low(self) -> Number:
        return self.boundaries[0]

    @property
    def high(self) -> Number:
        return self.boundaries[-1]

    def _cumulative(self, value: Number, inclusive: bool) -> float:
        if self.total == 0 or not self.counts:
            return 0.0
        if value < self.low or (value == self.low and not inclusive):
            return 0.0
        if value > self.high or (value == self.high and inclusive):
            return 1.0
        # Find the bucket containing `value`.
        index = bisect.bisect_right(self.boundaries, value) - 1
        index = min(max(index, 0), len(self.counts) - 1)
        rows_before = sum(self.counts[:index])
        left = float(self.boundaries[index])
        right = float(self.boundaries[index + 1])
        if right > left:
            within = (float(value) - left) / (right - left) * self.counts[index]
        else:
            # Zero-width bucket: all-or-nothing depending on inclusivity.
            within = self.counts[index] if inclusive else 0.0
        return _clamp((rows_before + within) / self.total)

    def fraction(self, op: Op, value: Number) -> float:
        return _fraction_from_cumulative(self, op, value)


@dataclass(frozen=True)
class MostCommonValues:
    """Exact frequencies for the heaviest values of a column.

    ``entries`` maps value -> row count; ``total`` is the table row count.
    Equality predicates on a listed value get an exact selectivity, which is
    where skewed (e.g. Zipf) columns benefit the most.
    """

    entries: Dict[Union[int, float, str], int] = field(default_factory=dict)
    total: int = 0

    def covers(self, value: Union[int, float, str]) -> bool:
        return value in self.entries

    def equality_fraction(self, value: Union[int, float, str]) -> Optional[float]:
        if self.total <= 0:
            return None
        count = self.entries.get(value)
        if count is None:
            return None
        return count / self.total

    @property
    def covered_fraction(self) -> float:
        """Fraction of all rows accounted for by the listed values."""
        if self.total <= 0:
            return 0.0
        return _clamp(sum(self.entries.values()) / self.total)


def _fraction_from_cumulative(hist: Histogram, op: Op, value: Number) -> float:
    if op is Op.EQ:
        if isinstance(hist, EquiWidthHistogram):
            return hist.equality_fraction(value)
        below_or_equal = hist._cumulative(value, inclusive=True)
        below = hist._cumulative(value, inclusive=False)
        return _clamp(below_or_equal - below)
    if op is Op.NE:
        return _clamp(1.0 - _fraction_from_cumulative(hist, Op.EQ, value))
    if op is Op.LT:
        return hist._cumulative(value, inclusive=False)
    if op is Op.LE:
        return hist._cumulative(value, inclusive=True)
    if op is Op.GT:
        return _clamp(1.0 - hist._cumulative(value, inclusive=True))
    return _clamp(1.0 - hist._cumulative(value, inclusive=False))


def build_equi_width(
    values: Sequence[Number], buckets: int = 10
) -> Optional[EquiWidthHistogram]:
    """Build an equi-width histogram from raw column values.

    Returns ``None`` for an empty column (no meaningful histogram exists).

    Raises:
        CatalogError: when ``buckets`` is not at least 1.
    """
    return _equi_width_from_counts(Counter(values), len(values), buckets)


def build_equi_depth(
    values: Sequence[Number], buckets: int = 10
) -> Optional[EquiDepthHistogram]:
    """Build an equi-depth histogram from raw column values.

    Returns ``None`` for an empty column.

    Raises:
        CatalogError: when ``buckets`` is not at least 1.
    """
    return _equi_depth_from_counts(Counter(values), len(values), buckets)


def build_mcv(values: Sequence[Union[int, float, str]], k: int = 10) -> MostCommonValues:
    """Collect the ``k`` most common values with exact counts.

    Raises:
        CatalogError: when ``k`` is not at least 1.
    """
    return _mcv_from_counts(Counter(values), len(values), k)


# The builders below read a column's frequency map (value -> row count, in
# first-seen order, as ``collections.Counter`` builds it) instead of its
# values, so ANALYZE counts each column once and derives every summary
# from the distinct values.  Equal values of different types (``1`` and
# ``1.0``) share one key, the first seen.


def _equi_width_from_counts(
    counts: Mapping[Number, int], total: int, buckets: int
) -> Optional[EquiWidthHistogram]:
    """An equi-width histogram from a frequency map over ``total`` rows.

    Raises:
        CatalogError: when ``buckets`` is not at least 1.
    """
    if buckets <= 0:
        raise CatalogError("histogram needs at least one bucket")
    if not total:
        return None
    low = min(counts)
    high = max(counts)
    if high == low:
        return EquiWidthHistogram(low, high, (total,), total, (1,))
    origin = float(low)
    width = (float(high) - origin) / buckets
    last = buckets - 1
    bucket_counts = [0] * buckets
    bucket_distinct = [0] * buckets
    for value, count in counts.items():
        index = min(int((float(value) - origin) / width), last)
        bucket_counts[index] += count
        bucket_distinct[index] += 1
    return EquiWidthHistogram(
        low, high, tuple(bucket_counts), total, tuple(bucket_distinct)
    )


def _equi_depth_from_counts(
    counts: Mapping[Number, int], total: int, buckets: int
) -> Optional[EquiDepthHistogram]:
    """An equi-depth histogram from a frequency map over ``total`` rows.

    Bucket ends are the same quantile positions a sort of all ``total``
    values would slice at; the value at sorted position ``p`` is the first
    sorted distinct value whose cumulative count exceeds ``p``.

    Raises:
        CatalogError: when ``buckets`` is not at least 1.
    """
    if buckets <= 0:
        raise CatalogError("histogram needs at least one bucket")
    if not total:
        return None
    ordered = sorted(counts)
    cumulative = list(accumulate(map(counts.__getitem__, ordered)))
    buckets = min(buckets, total)
    depth = total / buckets
    boundaries: List[Number] = [ordered[0]]
    bucket_counts: List[int] = []
    start = 0
    for i in range(1, buckets):
        end = max(int(round(i * depth)), start)  # guard against rounding collapse
        bucket_counts.append(end - start)
        boundaries.append(ordered[bisect.bisect_right(cumulative, min(end, total - 1))])
        start = end
    bucket_counts.append(total - start)
    boundaries.append(ordered[-1])
    return EquiDepthHistogram(tuple(boundaries), tuple(bucket_counts), total)


def _mcv_from_counts(
    counts: Mapping[Union[int, float, str], int], total: int, k: int
) -> MostCommonValues:
    """The ``k`` most frequent values of a frequency map over ``total`` rows.

    Ties in count break on ``str(value)``, then on first-seen order.

    Raises:
        CatalogError: when ``k`` is not at least 1.
    """
    if k <= 0:
        raise CatalogError("MCV list needs k >= 1")
    items: Iterable[Tuple[Union[int, float, str], int]] = counts.items()
    if len(counts) > k:
        # Only values at least as frequent as the k-th largest count can
        # make the list; sort just those.
        threshold = sorted(counts.values(), reverse=True)[k - 1]
        items = compress(items, map(operator.ge, counts.values(), repeat(threshold)))
    top = sorted(items, key=lambda item: (-item[1], str(item[0])))[:k]
    return MostCommonValues(dict(top), total)
