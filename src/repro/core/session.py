"""Per-user session state.

When a user submits a query the QR2 web service creates a session whose main
job is the *user-level cache*: every tuple the service has seen while
answering this user's queries is retained so that

* subsequent Get-Next calls can start from a good candidate without asking the
  web database again, and
* tuples already returned to the user are never returned twice.

The session also carries the emitted result history (the "top-h so far"), the
pending queue used to emit tied tuples one at a time, and the per-request
statistics shown in the UI's statistics panel.

Session candidates
------------------
Each (query, ranking, key column) stream that asks for cached candidates
gets a *view*: the matching, unemitted seen tuples sorted by the Get-Next
tie-break ``(score, str(key))``.  ``remember`` and ``mark_emitted`` only mark
the keys they touch as stale in every live view; the next call re-filters and
re-scores just those keys and answers the head past the frontier with a
bisection.  A call therefore costs O(new tuples + returned head), not O(seen),
and every seen tuple is scored once per view.  Views are dropped when a new
request starts.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left, bisect_right, insort
from collections import deque
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Deque, Dict, Hashable, Iterable, List, Mapping, Optional, Set, Tuple

from repro.core.functions import UserRankingFunction
from repro.core.stats import RerankStatistics
from repro.webdb.query import SearchQuery

Row = Dict[str, object]

#: View entry: (score, str(key), arrival index, key).  The arrival index (the
#: key's position in the seen cache) orders keys whose strings collide the
#: way a stable sort over the seen cache would, and keeps entries distinct.
_Entry = Tuple[float, str, int, object]
_score_of = itemgetter(0)


class _CandidateView:
    """Matching, unemitted seen tuples of one stream, best first."""

    __slots__ = ("entries", "by_key", "stale")

    def __init__(self, stale: Iterable[object]) -> None:
        self.entries: List[_Entry] = []
        self.by_key: Dict[object, _Entry] = {}
        #: Keys remembered or emitted since the last refresh.
        self.stale: Set[object] = set(stale)

    def refresh(
        self,
        seen: Mapping[object, Row],
        arrival: Mapping[object, int],
        emitted: Set[object],
        query: SearchQuery,
        ranking: UserRankingFunction,
    ) -> None:
        """Retire the stale keys' old entries and score their current rows."""
        entries, by_key = self.entries, self.by_key
        fresh: List[_Entry] = []
        for key in self.stale:
            old = by_key.pop(key, None)
            if old is not None:
                del entries[bisect_left(entries, old)]
            if key in emitted:
                continue
            row = seen[key]
            if not query.matches(row):
                continue
            score = ranking.score(row)
            if score != score:  # NaN passes no frontier
                continue
            entry = (score, str(key), arrival[key], key)
            by_key[key] = entry
            fresh.append(entry)
        self.stale.clear()
        # A few new entries go in by bisection; a first build or a large
        # batch is cheaper appended and re-sorted in one pass.
        if len(fresh) <= len(entries) // 16:
            for entry in fresh:
                insort(entries, entry)
        else:
            entries.extend(fresh)
            entries.sort()

    def head(self, frontier_score: float, strict: bool, limit: Optional[int]) -> List[_Entry]:
        """Entries scoring at or (``strict``) beyond ``frontier_score``."""
        bisect = bisect_right if strict else bisect_left
        start = bisect(self.entries, frontier_score, key=_score_of)
        stop = len(self.entries) if limit is None else start + limit
        return self.entries[start:stop]


@dataclass
class Session:
    """State retained between Get-Next calls of one user request."""

    session_id: str
    created_at: float = field(default_factory=time.time)

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        self._seen_tuples: Dict[object, Row] = {}
        self._arrival: Dict[object, int] = {}
        self._views: Dict[Hashable, _CandidateView] = {}
        self._emitted_keys: List[object] = []
        self._emitted_set: set = set()
        self._pending: Deque[Row] = deque()
        self.statistics = RerankStatistics()
        #: Monotonic, so a wall-clock step cannot age or rejuvenate a session.
        self.last_touched = time.monotonic()

    # ------------------------------------------------------------------ #
    # Seen-tuple cache
    # ------------------------------------------------------------------ #
    def remember(self, rows: Iterable[Mapping[str, object]], key_column: str) -> int:
        """Add rows to the seen-tuple cache; returns how many were new."""
        added = 0
        changed = []
        with self._lock:
            seen = self._seen_tuples
            for row in rows:
                key = row[key_column]
                old = seen.get(key)
                if old is None:
                    added += 1
                    self._arrival[key] = len(self._arrival)
                    changed.append(key)
                elif old != row:
                    changed.append(key)
                seen[key] = dict(row)
            for view in self._views.values():
                view.stale.update(changed)
            self.last_touched = time.monotonic()
        return added

    def seen_count(self) -> int:
        """Number of distinct tuples in the cache."""
        with self._lock:
            return len(self._seen_tuples)

    def cached_rows(self) -> List[Row]:
        """Copy of every cached tuple."""
        with self._lock:
            return [dict(row) for row in self._seen_tuples.values()]

    def cached_candidates(
        self,
        query: SearchQuery,
        ranking: UserRankingFunction,
        frontier_score: float,
        key_column: str,
        *,
        limit: Optional[int] = None,
        strict: bool = False,
    ) -> List[Row]:
        """Cached tuples that match ``query``, have not been emitted, and score
        at or beyond ``frontier_score`` (strictly beyond when ``strict``),
        best first under ``(score, str(key))``; at most ``limit`` of them.

        These seed the best-known candidate before any external query is
        issued — the acceleration the paper attributes to the session cache.
        The answer comes from the stream's incremental view (see the module
        docstring); a ranking without a canonical key gets a throwaway view.
        """
        try:
            view_key: Optional[Hashable] = (
                query.canonical_key(), ranking.canonical_key(), key_column
            )
        except NotImplementedError:
            view_key = None
        with self._lock:
            view = self._views.get(view_key) if view_key is not None else None
            if view is None:
                view = _CandidateView(self._seen_tuples)
                if view_key is not None:
                    self._views[view_key] = view
            try:
                view.refresh(
                    self._seen_tuples, self._arrival, self._emitted_set, query, ranking
                )
            except BaseException:
                # A half-applied refresh would lose stale keys; rebuild next time.
                self._views.pop(view_key, None)
                raise
            seen = self._seen_tuples
            return [
                dict(seen[entry[3]])
                for entry in view.head(frontier_score, strict, limit)
            ]

    # ------------------------------------------------------------------ #
    # Emission history
    # ------------------------------------------------------------------ #
    def mark_emitted(self, row: Mapping[str, object], key_column: str) -> None:
        """Record that ``row`` has been returned to the user."""
        key = row[key_column]
        with self._lock:
            self._emitted_keys.append(key)
            self._emitted_set.add(key)
            if key not in self._seen_tuples:
                self._arrival[key] = len(self._arrival)
            self._seen_tuples[key] = dict(row)
            for view in self._views.values():
                view.stale.add(key)
            self.last_touched = time.monotonic()

    def emitted_keys(self) -> List[object]:
        """Keys of the tuples already returned, in emission order."""
        with self._lock:
            return list(self._emitted_keys)

    def emitted_key_set(self) -> set:
        """Copy of the emitted keys as a set (O(1) membership for dedup)."""
        with self._lock:
            return set(self._emitted_set)

    def has_emitted(self, key: object) -> bool:
        """True when a tuple with ``key`` was already returned to the user —
        the per-user dedup check replayed feed rows go through."""
        with self._lock:
            return key in self._emitted_set

    def emitted_count(self) -> int:
        """Number of tuples returned so far (the ``h`` of top-h)."""
        with self._lock:
            return len(self._emitted_keys)

    # ------------------------------------------------------------------ #
    # Pending queue (tied tuples of the current value/score group)
    # ------------------------------------------------------------------ #
    def push_pending(self, rows: Iterable[Mapping[str, object]]) -> None:
        """Queue rows that are known to be the next ones to emit."""
        with self._lock:
            self._pending.extend(dict(row) for row in rows)

    def pop_pending(self) -> Optional[Row]:
        """Pop the next queued row, or ``None``."""
        with self._lock:
            if not self._pending:
                return None
            return self._pending.popleft()

    def pending_count(self) -> int:
        """Number of queued rows."""
        with self._lock:
            return len(self._pending)

    def clear_pending(self) -> None:
        """Drop the pending queue (used when the ranking function changes)."""
        with self._lock:
            self._pending.clear()

    # ------------------------------------------------------------------ #
    def reset_for_new_request(self) -> None:
        """Start a new reranking request within the same user session.

        The seen-tuple cache is retained (that is the whole point of the
        session variable), but the emission history, the pending queue, and
        the per-request statistics start fresh: the new request has its own
        notion of "top-h so far" and its own statistics panel.
        """
        with self._lock:
            self._emitted_keys.clear()
            self._emitted_set.clear()
            self._pending.clear()
            self._views.clear()
            self.statistics = RerankStatistics()
            self.last_touched = time.monotonic()

    # ------------------------------------------------------------------ #
    def touch(self) -> None:
        """Refresh the idle timer."""
        with self._lock:
            self.last_touched = time.monotonic()

    def idle_seconds(self) -> float:
        """Seconds since the session was last used."""
        with self._lock:
            return time.monotonic() - self.last_touched

    def describe(self) -> Dict[str, object]:
        """Summary used by the service layer."""
        with self._lock:
            return {
                "session_id": self.session_id,
                "seen_tuples": len(self._seen_tuples),
                "emitted": len(self._emitted_keys),
                "pending": len(self._pending),
                "idle_seconds": time.monotonic() - self.last_touched,
            }
