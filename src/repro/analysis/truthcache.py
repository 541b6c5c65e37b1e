"""Ground-truth result cache keyed by database content and query text.

Every accuracy study in this repository compares estimates against
*executed* ground truth, and the studies overlap heavily: the prefix-query
analysis executes each join prefix once per algorithm sweep, sensitivity
studies re-execute the same query against the same data under perturbed
*statistics* (the data never changes), and repeated benchmark runs execute
identical plans again and again.  A ground truth is a pure function of
``(database content, query)``, so it is safe to cache — provided the key
really captures both.

* **Database side** — :meth:`Database.fingerprint
  <repro.storage.database.Database.fingerprint>`: a content digest over
  every table's name, schema, and rows.  Appending a single row changes
  the fingerprint, so stale entries are never served; they simply stop
  being reachable and age out of the LRU.
* **Query side** — :func:`canonical_query_text`: a normalized rendering
  that is invariant under FROM-clause order, predicate order, and
  predicate operand orientation, so ``R1 ⋈ R2`` and ``R2 ⋈ R1`` share one
  entry.

Entries are *digest-verified on read*: each stored count carries a
content digest over its key and value, recomputed and compared on every
hit.  A tampered or bit-rotted entry therefore surfaces as a counted
miss (``stats.corruptions``) and is dropped — the cache can serve stale
*nothing*, but never a wrong ground truth.

The module-level :data:`DEFAULT_TRUTH_CACHE` is what
:func:`repro.analysis.truth.true_join_size` uses unless told otherwise;
pass ``cache=None`` there to force re-execution.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..sql.query import Query
from ..storage.database import Database

__all__ = [
    "DEFAULT_TRUTH_CACHE",
    "TruthCache",
    "TruthCacheStats",
    "canonical_query_text",
]


def _entry_digest(key: Tuple[str, str], count: int) -> str:
    """Content digest binding a cached count to its key."""
    digest = hashlib.blake2b(digest_size=16)
    digest.update(key[0].encode("utf-8"))
    digest.update(b"|")
    digest.update(key[1].encode("utf-8"))
    digest.update(b"|")
    digest.update(str(count).encode("ascii"))
    return digest.hexdigest()


def canonical_query_text(query: Query) -> str:
    """A normalized query rendering for cache keying.

    Two queries over the same tables with the same predicate conjunction
    produce the same text regardless of FROM-clause order or predicate
    order (predicates are already canonicalized operand-wise by
    :meth:`ComparisonPredicate.canonical` at query construction).  The
    projection is *excluded*: the cache stores join cardinalities, which
    are projection-independent.
    """
    tables = sorted(f"{t}={query.base_table(t)}" for t in query.tables)
    predicates = sorted(str(p) for p in query.predicates)
    return f"FROM {','.join(tables)} WHERE {' AND '.join(predicates)}"


@dataclass
class TruthCacheStats:
    """Observability counters for one cache instance.

    ``corruptions`` counts entries whose digest verification failed on
    read; each such lookup is also counted as a miss (the caller
    re-executes), never as an eviction (capacity was not the cause).
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    corruptions: int = 0

    @property
    def lookups(self) -> int:  # els: quantity=count
        return self.hits + self.misses

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.corruptions = 0

    def to_dict(self) -> Dict[str, int]:
        """A JSON-friendly view (used by the ``bench`` report writer)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "corruptions": self.corruptions,
            "lookups": self.lookups,
        }


class TruthCache:
    """An LRU cache of executed join cardinalities.

    Keys are ``(database fingerprint, canonical query text)``; values are
    exact result counts.  The cache never invalidates eagerly — a changed
    database simply produces a different fingerprint, and untouched
    entries are evicted least-recently-used once ``max_entries`` is
    reached.

    Thread-safe: every access to the LRU map and the counters happens
    under one internal lock, so the cache can back a threaded service (or
    a thread pool inside one harness worker) without torn LRU state or
    lost counter increments.  Fingerprinting and digest arithmetic stay
    outside the critical section — only the map/stats mutation is
    serialized.
    """

    def __init__(self, max_entries: int = 4096) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self._max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple[str, str], Tuple[int, str]]" = (
            OrderedDict()
        )  # els: guarded_by=_lock
        self.stats = TruthCacheStats()  # els: guarded_by=_lock

    def __len__(self) -> int:
        return len(self._entries)

    def key(self, database: Database, query: Query) -> Tuple[str, str]:
        """The cache key for one (database, query) pair."""
        return (database.fingerprint(), canonical_query_text(query))

    def get(self, database: Database, query: Query) -> Optional[int]:
        """The cached count, or ``None`` on a miss (counted either way).

        Every hit is digest-verified: an entry whose stored digest no
        longer matches its key and count is dropped and reported as a
        miss (and counted in ``stats.corruptions``), so corruption can
        cost a re-execution but never a wrong ground truth.
        """
        key = self.key(database, query)  # fingerprint outside the lock
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            count, stored_digest = entry
            if stored_digest != _entry_digest(key, count):
                self._entries.pop(key, None)
                self.stats.corruptions += 1
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return count

    def put(self, database: Database, query: Query, count: int) -> None:
        """Store an executed count, evicting the LRU entry when full."""
        key = self.key(database, query)  # fingerprint outside the lock
        value = int(count)
        digest = _entry_digest(key, value)
        with self._lock:
            self._entries[key] = (value, digest)
            self._entries.move_to_end(key)
            while len(self._entries) > self._max_entries:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def corrupt(self, database: Database, query: Query) -> bool:
        """Deliberately tamper with one entry (test hook).

        Flips the stored count without refreshing the digest, simulating
        bit rot or a torn write.  Returns whether an entry was present to
        corrupt.  Production code never calls this; the tests use it to
        prove the digest-verification path end to end.
        """
        key = self.key(database, query)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return False
            count, stored_digest = entry
            self._entries[key] = (count + 1, stored_digest)
            return True

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        with self._lock:
            self._entries.clear()
            self.stats.reset()


#: The process-wide default cache used by :func:`repro.analysis.truth.true_join_size`.
DEFAULT_TRUTH_CACHE = TruthCache()
