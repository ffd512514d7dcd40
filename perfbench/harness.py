"""Closed-loop client, oracle gate and end-to-end metrics of the benchmark.

The client replays a round's events through
``QR2HttpApplication.handle`` in process, one request in flight.  The timed
window is the sum of the wall time spent inside the program's calls
(``handle``, ``apply_delta``, ``warm_once``); request building, response
decoding, the oracle check and the host-speed probes (``hostspeed``) run
outside it.
"""

from __future__ import annotations

import gc
import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import hostspeed

from repro.config import DatabaseConfig, ServiceConfig
from repro.dataset.diamonds import DiamondCatalogConfig
from repro.dataset.housing import HousingCatalogConfig
from repro.httpsim.messages import HttpRequest
from repro.service.app import QR2Service
from repro.service.httpapp import QR2HttpApplication
from repro.service.sliders import ranking_from_sliders
from repro.service.sources import build_default_registry
from repro.webdb.query import SearchQuery

from workloads import CATALOG_SIZE, Churn, UserSession, Workload, churn_delta, template_key

Row = Dict[str, object]

#: Percentiles a tail may be reported at, highest first.
TAIL_CANDIDATES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0)


def build_service(workload: Workload) -> Tuple[QR2HttpApplication, QR2Service]:
    """A service ready for its first request (catalogs, registry, indexes)."""
    database = DatabaseConfig(system_k=10, latency_seconds=1.0, latency_sleep=False)
    if workload.shards > 1:
        database = database.with_shards(workload.shards)
    config = ServiceConfig(database=database)
    registry = build_default_registry(
        diamond_config=DiamondCatalogConfig(size=CATALOG_SIZE),
        housing_config=HousingCatalogConfig(size=CATALOG_SIZE),
        database_config=config.database,
        rerank_config=config.rerank,
    )
    service = QR2Service(registry=registry, config=config)
    return QR2HttpApplication(service), service


def timed_setup(workload: Workload) -> Tuple[float, QR2HttpApplication, QR2Service]:
    """Build a service after a full collection; returns its build seconds."""
    gc.collect()
    started = time.perf_counter()
    app, service = build_service(workload)
    return time.perf_counter() - started, app, service


def probed_setup(workload: Workload) -> Tuple[float, float, QR2HttpApplication, QR2Service]:
    """``timed_setup`` between host-speed probes: ``(raw seconds, scaled
    seconds, app, service)``."""
    gc.collect()
    before = hostspeed.probes(hostspeed.SETUP_PROBES)
    elapsed, app, service = timed_setup(workload)
    after = hostspeed.probes(hostspeed.SETUP_PROBES)
    return elapsed, elapsed * hostspeed.setup_scale(before, after), app, service


def queries_issued(service: QR2Service) -> int:
    """External top-k queries seen at the sources' public interfaces (a
    federation counts one per logical scatter)."""
    registry = service.registry
    return sum(registry.get(name).interface.queries_issued() for name in registry.names())


@dataclass
class RoundResult:
    """Everything one round measured."""

    timed_seconds: float = 0.0
    #: ``timed_seconds`` and page latencies scaled to the reference host
    #: speed (``hostspeed``); filled only when the replay probed.
    scaled_seconds: float = 0.0
    first_page_scaled_ms: List[float] = field(default_factory=list)
    next_page_scaled_ms: List[float] = field(default_factory=list)
    probe_seconds: List[float] = field(default_factory=list)
    user_pages: int = 0
    attempted: int = 0
    failed: int = 0
    ext_queries: int = 0
    first_page_ms: List[float] = field(default_factory=list)
    next_page_ms: List[float] = field(default_factory=list)
    delta_ms: List[float] = field(default_factory=list)
    mismatched_pages: int = 0
    tie_reordered_pages: int = 0
    degraded_pages: int = 0
    http_errors: int = 0
    digest: str = ""


class Oracle:
    """Brute-force ground truth per (template, catalog version).

    The truth is the source's ``true_ranking`` over the catalog as it stands
    when the session ends; deltas only happen between sessions, so that is
    the catalog the whole session saw.  A served page is correct when its
    rows are distinct matching tuples with their current values and their
    scores equal the true score sequence at those positions.  Exact score
    ties may come in any order (the contract the unit tests' ground-truth
    helper checks too); a correct page whose tie order differs from
    ``true_ranking``'s key tie-break is counted apart, as a finding."""

    def __init__(self, service: QR2Service) -> None:
        self._service = service
        self._memo: Dict[Tuple, Tuple[List[Row], List[float], Dict[object, Tuple[Row, float]]]] = {}
        self.version = 0

    def _truth(self, session: UserSession):
        template = session.template
        memo_key = (self.version, template_key(template), session.pages)
        truth = self._memo.get(memo_key)
        if truth is None:
            source = self._service.registry.get(template.source)
            ranges = (template.filters or {}).get("ranges", {})
            query = SearchQuery.build(ranges={k: (float(v[0]), float(v[1])) for k, v in ranges.items()})
            ranking = ranking_from_sliders(template.sliders, source.schema)
            ranked = source.interface.true_ranking(query, ranking.score)
            scores = [ranking.score(row) for row in ranked]
            limit = session.pages * template.page_size
            # A row ranked past the limit can only be served correctly as an
            # exact tie of the last true score, so only those rows join it.
            keep = min(limit, len(ranked))
            while 0 < keep < len(ranked) and scores[keep] == scores[limit - 1]:
                keep += 1
            columns = source.result_columns
            # Round-trip through JSON so values compare exactly as served.
            projected = json.loads(
                json.dumps([{name: row[name] for name in columns} for row in ranked[:keep]])
            )
            key = source.schema.key
            by_key = {row[key]: (row, score) for row, score in zip(projected, scores)}
            truth = (projected[:limit], scores[:limit], by_key)
            self._memo[memo_key] = truth
        return truth

    def check(self, session: UserSession, rows: List[Row]) -> Tuple[int, int]:
        """``(wrong pages, correct pages whose tie order differs from the
        key tie-break)`` for one session's concatenated rows."""
        expected, scores, by_key = self._truth(session)
        size = session.template.page_size
        wrong = reordered = 0
        seen: set = set()
        for start in range(0, max(len(rows), len(expected)), size):
            served, truth = rows[start:start + size], expected[start:start + size]
            ok = len(served) == len(truth)
            for offset, row in enumerate(served):
                entry = by_key.get(row.get("id"))
                ok = ok and entry is not None and entry[0] == row and row["id"] not in seen
                ok = ok and offset < len(truth) and entry[1] == scores[start + offset]
                seen.add(row.get("id"))
            if not ok:
                wrong += 1
            elif served != truth:
                reordered += 1
        return wrong, reordered


class Replay:
    """A closed-loop client over one service: plays events one request at a
    time and checks every finished session against the oracle.

    A failed request ends its session; ``failed`` counts non-2xx responses
    plus pages the oracle rejects, ``attempted`` the requests sent.  With a
    ``speed`` track, a host-speed probe runs between calls whenever
    ``hostspeed.PROBE_EVERY_S`` of program time has passed, and every timed
    call is also reported scaled to the reference speed."""

    def __init__(self, app: QR2HttpApplication, service: QR2Service, tracer=None,
                 speed: Optional[hostspeed.SpeedTrack] = None) -> None:
        self._app = app
        self._service = service
        self._tracer = tracer
        self._speed = speed
        self._oracle = Oracle(service)
        self._digest = hashlib.sha256()
        self._queries_before = queries_issued(service)
        #: (seconds, probe tag) of every timed call, and of every page with
        #: whether it was a first page.
        self._timed: List[Tuple[float, int]] = []
        self._pages: List[Tuple[bool, float, int]] = []
        self.result = RoundResult()

    def _timed_call(self, elapsed: float) -> int:
        """Account ``elapsed`` program seconds; returns their probe tag."""
        self.result.timed_seconds += elapsed
        if self._speed is None:
            return 0
        tag = self._speed.tag()
        self._timed.append((elapsed, tag))
        self._speed.after(elapsed)
        return tag

    def _call(self, path: str, payload: Dict[str, object]):
        request = HttpRequest.post_json(path, payload)
        if self._tracer is not None:
            self._tracer.request_id += 1
        started = time.perf_counter()
        response = self._app.handle(request)
        elapsed = time.perf_counter() - started
        tag = self._timed_call(elapsed)
        self.result.attempted += 1
        if not response.ok:
            self.result.failed += 1
            self.result.http_errors += 1
            return None, elapsed, tag
        return response.json(), elapsed, tag

    def play(self, event) -> None:
        result = self.result
        if isinstance(event, Churn):
            if self._tracer is not None:
                self._tracer.request_id += 1
            self._timed_call(_churn(result, self._service, event))
            self._oracle.version += 1
            return
        created, _, _ = self._call("/qr2/sessions", {})
        if created is None:
            return
        session_id = created["session_id"]
        rows: List[Row] = []
        page, elapsed, tag = self._call("/qr2/query", event.template.submit_payload(session_id))
        served = 0
        while page is not None:
            served += 1
            (result.first_page_ms if served == 1 else result.next_page_ms).append(elapsed * 1000.0)
            self._pages.append((served == 1, elapsed, tag))
            rows.extend(page["rows"])
            result.degraded_pages += bool(page["degraded"])
            self._digest.update(
                json.dumps(
                    {"page": page["page"], "rows": page["rows"], "exhausted": page["exhausted"]},
                    sort_keys=True,
                ).encode()
            )
            if served == event.pages:
                break
            page, elapsed, tag = self._call("/qr2/next", {"session_id": session_id})
        result.user_pages += served
        if served == event.pages:
            wrong, reordered = self._oracle.check(event, rows)
            result.mismatched_pages += wrong
            result.tie_reordered_pages += reordered
            result.failed += wrong

    def finish(self) -> RoundResult:
        result = self.result
        result.ext_queries = queries_issued(self._service) - self._queries_before
        result.digest = self._digest.hexdigest()
        if self._speed is not None:
            scale = self._speed.scale
            result.probe_seconds = list(self._speed.samples)
            result.scaled_seconds = sum(seconds * scale(tag) for seconds, tag in self._timed)
            for first, seconds, tag in self._pages:
                scaled = (result.first_page_scaled_ms if first else result.next_page_scaled_ms)
                scaled.append(seconds * scale(tag) * 1000.0)
        return result


def run_round(events, app: QR2HttpApplication, service: QR2Service) -> RoundResult:
    """Replay ``events`` closed-loop on one service, probing host speed."""
    replay = Replay(app, service, speed=hostspeed.SpeedTrack())
    for event in events:
        replay.play(event)
    return replay.finish()


def _churn(result: RoundResult, service: QR2Service, event: Churn) -> float:
    """Apply one seeded delta and one warming pass; both are in the timed
    window (returns its seconds), drawing the delta's rows is not."""
    source = service.registry.get(event.source)
    rows = source.interface.all_matches(SearchQuery.build())
    upserts, deletes = churn_delta(
        rows, source.schema.domain_bounds("price"), source.schema.key, event.seed
    )
    started = time.perf_counter()
    service.apply_delta(event.source, upserts=upserts, deletes=deletes)
    applied = time.perf_counter()
    service.warmer.warm_once()
    finished = time.perf_counter()
    result.delta_ms.append((applied - started) * 1000.0)
    return finished - started


def tail_percentile(samples: int) -> Optional[float]:
    """Highest candidate percentile with at least 10 samples beyond it."""
    for q in TAIL_CANDIDATES:
        if samples * (1.0 - q / 100.0) >= 10.0:
            return q
    return None
