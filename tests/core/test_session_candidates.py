"""The session's incremental candidate views against the full-scan oracle.

``Session.cached_candidates`` keeps one sorted view per (query, ranking, key
column) stream and re-scores only the tuples remembered or emitted since the
stream's last call.  Its answer must always equal the plain definition: scan
every seen tuple, keep the unemitted ones that match the query and reach the
frontier, and sort them by ``(score, str(key))``.
"""

from __future__ import annotations

import math
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.functions import (
    LinearRankingFunction,
    SingleAttributeRanking,
    UserRankingFunction,
)
from repro.core.normalization import MinMaxNormalizer
from repro.core.session import Session
from repro.webdb.query import SearchQuery

KEY = "id"


def full_scan_candidates(session, query, ranking, frontier_score, key_column, strict=False):
    """The O(seen) definition: every seen tuple filtered, scored and sorted."""
    emitted = session.emitted_key_set()
    candidates = []
    for row in session.cached_rows():
        if row[key_column] in emitted or not query.matches(row):
            continue
        score = ranking.score(row)
        if score > frontier_score or (not strict and score == frontier_score):
            candidates.append(row)
    candidates.sort(key=ranking.sort_key(key_column))
    return candidates


class OpaqueRanking(UserRankingFunction):
    """A ranking without a canonical key: it never shares a view."""

    @property
    def attributes(self):
        return ("price", "carat")

    def score(self, row):
        return float(row["price"]) - 2.0 * float(row["carat"])

    def weight(self, attribute):
        return 1.0 if attribute == "price" else -2.0

    def describe(self):
        return "opaque"


class CountingRanking(SingleAttributeRanking):
    """Counts score() calls; shares the canonical key of its parent class."""

    def __init__(self, attribute, ascending=True):
        super().__init__(attribute, ascending)
        self.calls = 0

    def score(self, row):
        self.calls += 1
        return super().score(row)


NORMALIZER = MinMaxNormalizer({"price": (2.0, 8.0), "carat": (1.0, 1.0)})


def _streams():
    """Fresh (query, ranking) objects per call: equal canonical keys must
    land on the same view."""
    return [
        (SearchQuery.everything(), SingleAttributeRanking("price", ascending=False)),
        (
            SearchQuery.build(ranges={"carat": (0.0, 2.0)}),
            LinearRankingFunction({"price": 1.0, "carat": -0.5}, normalizer=NORMALIZER),
        ),
        (SearchQuery.build(ranges={"price": (1.0, 9.0)}), OpaqueRanking()),
    ]


# Keys 3 and "3" collide under str(): their order must follow arrival.
keys = st.sampled_from(["a", "b", "c", "d", "e", "f", 3, "3"])
values = st.sampled_from([0, 1.0, 2.5, 4, 5.0, 7.5, 10.0])


@st.composite
def rows(draw):
    return {KEY: draw(keys), "price": draw(values), "carat": draw(st.sampled_from([0.5, 1, 1.5, 3.0]))}


operations = st.one_of(
    st.tuples(st.just("remember"), st.lists(rows(), max_size=6)),
    st.tuples(st.just("emit"), rows()),
    st.tuples(st.just("emit_seen"), st.integers(min_value=0, max_value=50)),
    st.tuples(st.just("touch_unchanged"), st.integers(min_value=0, max_value=50)),
    st.tuples(st.just("reset")),
    st.tuples(
        st.just("ask"),
        st.integers(min_value=0, max_value=2),
        st.one_of(
            st.just(-math.inf),
            st.sampled_from([-10.0, -5.0, 0.0, 0.25, 1.0, 5.0, 10.0]),
            st.integers(min_value=0, max_value=50),  # an existing score: exact tie
        ),
        st.booleans(),
        st.sampled_from([None, 1, 2]),
    ),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(operations, max_size=40))
def test_incremental_candidates_match_full_scan(ops):
    session = Session("oracle")
    for op in ops:
        kind = op[0]
        seen = session.cached_rows()
        if kind == "remember":
            session.remember(op[1], KEY)
        elif kind == "emit":
            session.mark_emitted(op[1], KEY)
        elif kind == "emit_seen" and seen:
            session.mark_emitted(seen[op[1] % len(seen)], KEY)
        elif kind == "touch_unchanged" and seen:
            session.remember([seen[op[1] % len(seen)]], KEY)
        elif kind == "reset":
            session.reset_for_new_request()
        elif kind == "ask":
            _, stream, frontier, strict, limit = op
            query, ranking = _streams()[stream]
            if isinstance(frontier, int):
                if not seen:
                    continue
                frontier = ranking.score(seen[frontier % len(seen)])
            got = session.cached_candidates(
                query, ranking, frontier, KEY, limit=limit, strict=strict
            )
            expected = full_scan_candidates(session, query, ranking, frontier, KEY, strict)
            if limit is not None:
                expected = expected[:limit]
            assert got == expected


def test_positional_call_returns_every_candidate():
    session = Session("s")
    session.remember([{KEY: k, "price": p} for k, p in [("a", 3), ("b", 1), ("c", 2)]], KEY)
    ranking = SingleAttributeRanking("price")
    got = session.cached_candidates(SearchQuery.everything(), ranking, 1.5, KEY)
    assert [row[KEY] for row in got] == ["c", "a"]


def test_each_tuple_is_scored_once_per_view():
    session = Session("s")
    query = SearchQuery.everything()
    ranking = CountingRanking("price")
    batch = [{KEY: f"k{i}", "price": float(i % 7)} for i in range(50)]
    session.remember(batch, KEY)
    head = session.cached_candidates(query, ranking, -math.inf, KEY, limit=1)
    assert ranking.calls == 50

    session.remember(batch, KEY)  # unchanged values: nothing to rescore
    session.cached_candidates(query, ranking, -math.inf, KEY, limit=1)
    assert ranking.calls == 50

    session.mark_emitted(head[0], KEY)  # retired, not rescored
    session.remember([{KEY: "k1", "price": 100.0}], KEY)  # one changed row
    again = session.cached_candidates(query, ranking, -math.inf, KEY, limit=1)
    assert ranking.calls == 51
    assert again[0][KEY] != head[0][KEY]


def test_views_are_dropped_with_the_request():
    session = Session("s")
    ranking = CountingRanking("price")
    session.remember([{KEY: "a", "price": 1.0}], KEY)
    session.cached_candidates(SearchQuery.everything(), ranking, -math.inf, KEY)
    session.reset_for_new_request()
    session.cached_candidates(SearchQuery.everything(), ranking, -math.inf, KEY)
    assert ranking.calls == 2  # rebuilt from the retained seen-tuple cache


def test_keys_with_equal_strings_keep_arrival_order():
    ranking = SingleAttributeRanking("price")
    for first, second in ((3, "3"), ("3", 3)):
        session = Session("s")
        session.remember([{KEY: first, "price": 1.0}, {KEY: "z", "price": 0.5}], KEY)
        session.cached_candidates(SearchQuery.everything(), ranking, -math.inf, KEY)
        session.remember([{KEY: second, "price": 1.0}, {KEY: first, "price": 1.0}], KEY)
        got = session.cached_candidates(SearchQuery.everything(), ranking, 0.5, KEY, strict=True)
        assert [row[KEY] for row in got] == [first, second]


def test_a_failed_refresh_is_not_half_applied():
    session = Session("s")
    ranking = SingleAttributeRanking("price")
    query = SearchQuery.everything()
    session.remember([{KEY: "a", "price": 1.0}], KEY)
    session.cached_candidates(query, ranking, -math.inf, KEY)
    session.remember([{KEY: "b", "price": 2.0}, {KEY: "c", "price": "n/a"}], KEY)
    for _ in range(2):  # the unscorable row fails every call, never vanishes
        with pytest.raises(ValueError):
            session.cached_candidates(query, ranking, -math.inf, KEY)
    session.remember([{KEY: "c", "price": 0.5}], KEY)
    got = session.cached_candidates(query, ranking, -math.inf, KEY)
    assert [row[KEY] for row in got] == ["c", "a", "b"]


def test_concurrent_remember_emit_and_ask_keep_the_view_consistent():
    session = Session("s")
    ranking = SingleAttributeRanking("price")
    query = SearchQuery.everything()
    errors = []

    def worker(offset):
        try:
            for i in range(200):
                key = f"k{(offset * 37 + i) % 120}"
                session.remember([{KEY: key, "price": float((i * 7 + offset) % 23)}], KEY)
                if i % 5 == 0:
                    session.mark_emitted({KEY: key, "price": float(i % 23)}, KEY)
                session.cached_candidates(query, ranking, float(i % 11), KEY, limit=3)
        except Exception as error:  # surfaced by the assertion below
            errors.append(error)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(n,)) for n in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    for frontier in (-math.inf, 5.0, 11.0):
        got = session.cached_candidates(query, ranking, frontier, KEY)
        assert got == full_scan_candidates(session, query, ranking, frontier, KEY)
