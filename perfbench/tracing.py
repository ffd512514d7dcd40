"""Run-time spans around each layer's public entry points.

The tracer wraps methods on the program's classes for the duration of the
traced run and restores them afterwards; nothing under ``src/`` is edited.
Every span records its name, start, end, parent span and request id; spans
stay in memory and are written out when the run ends.  A span's *self* time
is its duration minus the time its child spans cover (the run is one thread,
so children nest strictly inside their parent).
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.functions import LinearRankingFunction, SingleAttributeRanking
from repro.core.getnext import GetNextStream
from repro.core.normalization import MinMaxNormalizer
from repro.core.parallel import QueryEngine
from repro.core.reranker import QueryReranker
from repro.core.session import Session
from repro.service.app import QR2Service
from repro.service.httpapp import QR2HttpApplication
from repro.service.warming import FeedWarmer
from repro.webdb.cache import QueryResultCache
from repro.webdb.database import HiddenWebDatabase
from repro.webdb.federation import FederatedInterface
from repro.webdb.interface import Outcome

from harness import queries_issued

_MISSING = object()


class Tracer:
    """Span recorder plus the counters the wrappers collect."""

    def __init__(self) -> None:
        #: [name, start, end, parent index (-1 for a root), request id]
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.request_id = 0
        #: ids of the databases that are a source's own interface (unsharded);
        #: every other database is a shard behind a federation.
        self.source_databases: set = set()
        self.service: Optional[QR2Service] = None
        #: Layer counter deltas (from snapshot()/describe()) over traced rounds.
        self.layers: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._installed: List[Tuple[type, str, object]] = []

    # ------------------------------------------------------------------ #
    def _patch(self, cls: type, method: str, make: Callable) -> None:
        original = cls.__dict__.get(method, _MISSING)
        setattr(cls, method, make(getattr(cls, method)))
        self._installed.append((cls, method, original))

    def span(self, cls: type, method: str, name: str, before=None, after=None) -> None:
        """Record a span around ``cls.method``.  ``before(obj, args)`` returns
        a state passed to ``after(state, obj, args, result)``."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def make(function):
            def traced(obj, *args, **kwargs):
                state = before(obj, args) if before is not None else None
                index = len(spans)
                spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.request_id])
                stack.append(index)
                try:
                    result = function(obj, *args, **kwargs)
                finally:
                    stack.pop()
                    spans[index][2] = clock()
                if after is not None:
                    after(state, obj, args, result)
                return result

            return traced

        self._patch(cls, method, make)

    def count(self, cls: type, method: str, counter: str) -> None:
        """Count calls of ``cls.method`` without a span (hot scalar calls)."""
        counters = self.counters

        def make(function):
            def counted(obj, *args, **kwargs):
                counters[counter] += 1
                return function(obj, *args, **kwargs)

            return counted

        self._patch(cls, method, make)

    def uninstall(self) -> None:
        """Restore every wrapped method (idempotent)."""
        while self._installed:
            cls, method, original = self._installed.pop()
            if original is _MISSING:
                delattr(cls, method)
            else:
                setattr(cls, method, original)

    # ------------------------------------------------------------------ #
    def span_totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for index, (name, start, end, _parent, _) in enumerate(self.spans):
            entry = totals[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
        return dict(totals)

    def root_seconds(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for name, start, end, parent, request in self.spans:
                handle.write(
                    json.dumps({"name": name, "start": start, "end": end, "parent": parent, "request": request})
                )
                handle.write("\n")


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap each layer's public entry points (the ledger's boundaries)."""
    c = tracer.counters

    tracer.span(QR2HttpApplication, "handle", "service.httpapp")
    tracer.span(QR2Service, "submit_query", "service.app")
    tracer.span(QR2Service, "get_next_page", "service.app")

    def delta_before(service, args):
        cache = service.registry.get(args[0]).reranker.result_cache
        return cache, (len(cache) if cache is not None else 0)

    def delta_after(state, service, args, summary):
        cache, before = state
        c["delta.applies"] += 1
        c["delta.cache_before"] += before
        c["delta.cache_after"] += len(cache) if cache is not None else 0
        c["delta.feeds_retired"] += int(summary["feeds_retired"])
        c["delta.regions_retired"] += int(summary["regions_retired"])

    tracer.span(QR2Service, "apply_delta", "webdb.delta", delta_before, delta_after)

    def rerank_after(state, reranker, args, stream):
        c["reranker.calls"] += 1

    tracer.span(QueryReranker, "rerank", "core.reranker", after=rerank_after)
    tracer.span(GetNextStream, "next_page", "core.getnext")

    def candidates_before(session, args):
        return session.seen_count()

    def candidates_after(examined, session, args, rows):
        c["session.rows_examined"] += examined
        c["session.candidates_returned"] += len(rows)

    tracer.span(Session, "cached_candidates", "core.session", candidates_before, candidates_after)

    def group_after(state, engine, args, results):
        c["parallel.groups"] += 1
        c["parallel.queries"] += len(args[0])

    tracer.span(QueryEngine, "search_group", "core.parallel", after=group_after)
    tracer.span(QueryResultCache, "probe", "webdb.cache")
    tracer.span(QueryResultCache, "fetch_many", "webdb.cache")

    def scatter_after(state, federation, args, result):
        c["source.span_queries"] += 1
        c["source.simulated_s"] += result.elapsed_seconds

    tracer.span(FederatedInterface, "search", "webdb.federation", after=scatter_after)
    tracer.span(FederatedInterface, "search_many", "webdb.federation")

    def database_after(state, database, args, results):
        if not isinstance(results, list):
            results = [results]
        source_level = id(database) in tracer.source_databases
        for result in results:
            c["database.queries"] += 1
            c["database.rows"] += len(result.rows)
            if result.outcome is Outcome.OVERFLOW:
                c["database.overflow"] += 1
            if source_level:
                c["source.span_queries"] += 1
                c["source.simulated_s"] += result.elapsed_seconds

    tracer.span(HiddenWebDatabase, "search", "webdb.database", after=database_after)
    tracer.span(HiddenWebDatabase, "search_many", "webdb.database", after=database_after)

    def warm_before(warmer, args):
        return queries_issued(tracer.service)

    def warm_after(before, warmer, args, result):
        c["warming.ext_queries"] += queries_issued(tracer.service) - before
        c["warming.pages"] += result["warmed_pages"]

    tracer.span(FeedWarmer, "warm_once", "service.warming", warm_before, warm_after)

    tracer.count(LinearRankingFunction, "score", "functions.score_calls")
    tracer.count(SingleAttributeRanking, "score", "functions.score_calls")
    tracer.count(MinMaxNormalizer, "normalize", "normalization.normalize_calls")


def layer_snapshot(service: QR2Service) -> Dict[str, float]:
    """Cumulative counters from each layer's public snapshot()/describe()."""
    out: Dict[str, float] = defaultdict(float)
    caches = {}
    for name in service.registry.names():
        source = service.registry.get(name)
        reranker = source.reranker
        out["source.queries_issued"] += source.interface.queries_issued()
        if reranker.result_cache is not None:
            caches[id(reranker.result_cache)] = reranker.result_cache
        if reranker.feed_store is not None:
            feed = reranker.feed_store.snapshot()
            for key in ("created", "followers", "replayed_tuples", "leader_advances"):
                out[f"feed.{key}"] += feed[key]
            out["feed.retired"] += sum(
                feed[key] for key in ("invalidations", "delta_invalidations", "evictions", "expirations")
            )
        dense = reranker.dense_index.describe()
        out["dense.regions"] += dense["regions"]
        out["dense.hits"] += dense["hits"]
        federation = reranker.federation
        if federation is not None:
            described = federation.describe()
            out["federation.scatters"] += described["scatter_queries"]
            out["federation.shard_queries"] += described["shard_queries"]
            out["federation.fanout_total"] += described["fan_out"]["total"]
            out["federation.shard_db_queries"] += sum(
                shard.queries_issued() for shard in federation.shards
            )
            resilience = described["resilience"] or {}
            out["resilience.retries"] += resilience.get("retries", 0)
            out["resilience.breaker_opens"] += resilience.get("breaker_opens", 0)
    for cache in caches.values():
        snap = cache.snapshot()
        for key in ("hits", "misses", "contained", "coalesced", "evictions"):
            out[f"cache.{key}"] += snap[key]
    return out


@contextmanager
def layer_deltas(tracer: Tracer, service: QR2Service):
    """Fold the layers' counter deltas over the block into the tracer."""
    tracer.service = service
    tracer.source_databases = {
        id(interface)
        for interface in (service.registry.get(name).interface for name in service.registry.names())
        if isinstance(interface, HiddenWebDatabase)
    }
    before = layer_snapshot(service)
    yield
    after = layer_snapshot(service)
    for key in set(after) | set(before):
        tracer.layers[key] += after.get(key, 0.0) - before.get(key, 0.0)


@contextmanager
def spans(tracer: Tracer):
    """Wrap every layer for the block; the program is restored afterwards."""
    install_layer_spans(tracer)
    try:
        yield
    finally:
        tracer.uninstall()


def ratio(numerator: float, denominator: float, empty: float = 0.0) -> float:
    return numerator / denominator if denominator else empty


#: Per-layer metrics and their units, in report order.
LEDGER_UNITS = {
    "service.httpapp.self_ms_per_req": "ms",
    "service.app.self_ms_per_page": "ms",
    "service.app.degraded_pages": "count",
    "core.reranker.rerank_ms": "ms",
    "core.reranker.calls": "count",
    "core.feed.follower_share": "share",
    "core.feed.replayed_tuples": "count",
    "core.feed.leader_advances": "count",
    "core.feed.retired": "count",
    "core.getnext.self_ms_per_page": "ms",
    "core.session.candidates_calls": "count",
    "core.session.candidates_ms": "ms",
    "core.session.rows_examined": "count",
    "core.session.useful_ratio": "share",
    "core.functions.score_calls_per_page": "count",
    "core.normalization.normalize_calls_per_page": "count",
    "core.parallel.groups": "count",
    "core.parallel.queries_per_group": "count",
    "core.parallel.self_ms": "ms",
    "core.dense_index.regions_built": "count",
    "core.dense_index.hits": "count",
    "webdb.cache.hit_rate": "share",
    "webdb.cache.contained": "count",
    "webdb.cache.coalesced": "count",
    "webdb.cache.evictions": "count",
    "webdb.cache.ms": "ms",
    "webdb.federation.self_share": "share",
    "webdb.federation.shard_queries": "count",
    "webdb.federation.fanout_mean": "count",
    "webdb.resilience.retries": "count",
    "webdb.resilience.breaker_opens": "count",
    "webdb.database.queries": "count",
    "webdb.database.engine_ms": "ms",
    "webdb.database.overflow_share": "share",
    "webdb.database.rows_per_query": "count",
    "webdb.database.simulated_s_per_page": "s",
    "webdb.delta.apply_share": "share",
    "webdb.delta.cache_survival": "share",
    "webdb.delta.feeds_retired": "count",
    "webdb.delta.regions_retired": "count",
    "service.warming.share": "share",
    "service.warming.ext_queries": "count",
    "service.warming.pages": "count",
    "trace.pages_per_s": "1/s",
    "trace.untraced_pages_per_s": "1/s",
    "trace.overhead": "share",
    "trace.self_coverage": "share",
    "trace.spans": "count",
    "reconcile.mismatches": "count",
}


def ledger(tracer: Tracer, untraced, traced) -> Tuple[Dict[str, dict], Dict[str, object]]:
    """Per-layer metrics of the traced rounds, the tracing overhead against
    the same rounds untraced, and the counter reconciliation."""
    totals = tracer.span_totals()
    c, layers = tracer.counters, tracer.layers

    def calls(name: str) -> float:
        return totals.get(name, {}).get("calls", 0)

    def ms(name: str, kind: str = "self_s") -> float:
        return totals.get(name, {}).get(kind, 0.0) * 1000.0

    pages = sum(r.user_pages for r in traced)
    wall = sum(r.timed_seconds for r in traced)
    untraced_wall = sum(r.timed_seconds for r in untraced)
    self_total = sum(entry["self_s"] for entry in totals.values())
    lookups = sum(layers[f"cache.{key}"] for key in ("hits", "contained", "coalesced", "misses"))
    pairs = {
        "span-counted source queries vs sum of queries_issued()": (
            c["source.span_queries"], layers["source.queries_issued"]),
        "federation shard_queries vs sum of per-shard queries_issued()": (
            layers["federation.shard_queries"], layers["federation.shard_db_queries"]),
        "feed creations + followers vs QueryReranker.rerank calls": (
            layers["feed.created"] + layers["feed.followers"], c["reranker.calls"]),
    }
    mismatches = sum(1 for left, right in pairs.values() if left != right)
    values = {
        "service.httpapp.self_ms_per_req": ratio(ms("service.httpapp"), calls("service.httpapp")),
        "service.app.self_ms_per_page": ratio(ms("service.app"), calls("service.app")),
        "service.app.degraded_pages": sum(r.degraded_pages for r in traced),
        "core.reranker.rerank_ms": ms("core.reranker", "total_s"),
        "core.reranker.calls": c["reranker.calls"],
        "core.feed.follower_share": ratio(layers["feed.followers"], layers["feed.created"] + layers["feed.followers"]),
        "core.feed.replayed_tuples": layers["feed.replayed_tuples"],
        "core.feed.leader_advances": layers["feed.leader_advances"],
        "core.feed.retired": layers["feed.retired"],
        "core.getnext.self_ms_per_page": ratio(ms("core.getnext"), calls("core.getnext")),
        "core.session.candidates_calls": calls("core.session"),
        "core.session.candidates_ms": ms("core.session", "total_s"),
        "core.session.rows_examined": c["session.rows_examined"],
        "core.session.useful_ratio": ratio(c["session.candidates_returned"], c["session.rows_examined"]),
        "core.functions.score_calls_per_page": ratio(c["functions.score_calls"], pages),
        "core.normalization.normalize_calls_per_page": ratio(c["normalization.normalize_calls"], pages),
        "core.parallel.groups": c["parallel.groups"],
        "core.parallel.queries_per_group": ratio(c["parallel.queries"], c["parallel.groups"]),
        "core.parallel.self_ms": ms("core.parallel"),
        "core.dense_index.regions_built": layers["dense.regions"],
        "core.dense_index.hits": layers["dense.hits"],
        "webdb.cache.hit_rate": ratio(lookups - layers["cache.misses"], lookups),
        "webdb.cache.contained": layers["cache.contained"],
        "webdb.cache.coalesced": layers["cache.coalesced"],
        "webdb.cache.evictions": layers["cache.evictions"],
        "webdb.cache.ms": ms("webdb.cache"),
        "webdb.federation.self_share": ratio(ms("webdb.federation") / 1000.0, wall),
        "webdb.federation.shard_queries": layers["federation.shard_queries"],
        "webdb.federation.fanout_mean": ratio(layers["federation.fanout_total"], layers["federation.scatters"]),
        "webdb.resilience.retries": layers["resilience.retries"],
        "webdb.resilience.breaker_opens": layers["resilience.breaker_opens"],
        "webdb.database.queries": c["database.queries"],
        "webdb.database.engine_ms": ms("webdb.database"),
        "webdb.database.overflow_share": ratio(c["database.overflow"], c["database.queries"]),
        "webdb.database.rows_per_query": ratio(c["database.rows"], c["database.queries"]),
        "webdb.database.simulated_s_per_page": ratio(c["source.simulated_s"], pages),
        "webdb.delta.apply_share": ratio(ms("webdb.delta", "total_s") / 1000.0, wall),
        # With no delta applied nothing was retired: everything survived.
        "webdb.delta.cache_survival": ratio(c["delta.cache_after"], c["delta.cache_before"], empty=1.0),
        "webdb.delta.feeds_retired": c["delta.feeds_retired"],
        "webdb.delta.regions_retired": c["delta.regions_retired"],
        "service.warming.share": ratio(ms("service.warming", "total_s") / 1000.0, wall),
        "service.warming.ext_queries": c["warming.ext_queries"],
        "service.warming.pages": c["warming.pages"],
        "trace.pages_per_s": ratio(pages, wall),
        "trace.untraced_pages_per_s": ratio(sum(r.user_pages for r in untraced), untraced_wall),
        "trace.overhead": ratio(wall, untraced_wall) - 1.0,
        "trace.self_coverage": ratio(self_total, wall),
        "trace.spans": len(tracer.spans),
        "reconcile.mismatches": mismatches,
    }
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in LEDGER_UNITS.items()}
    details: Dict[str, object] = {
        "reconcile": {label: {"left": left, "right": right, "agree": left == right} for label, (left, right) in pairs.items()},
        "spans": {name: {"calls": entry["calls"], "total_ms": entry["total_s"] * 1000.0, "self_ms": entry["self_s"] * 1000.0}
                  for name, entry in sorted(totals.items(), key=lambda item: -item[1]["self_s"])},
        "traced_wall_s": wall,
        "root_span_s": tracer.root_seconds(),
        "self_sum_s": self_total,
        "user_pages": pages,
    }
    return metrics, details
