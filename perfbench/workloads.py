"""Seeded workload generation for the QR2 request-path benchmark.

A run of one workload is a fixed number of *rounds*.  Each round builds a
fresh service and replays one generated event list against it with a single
closed-loop client (one request in flight).  Every round of a run draws its
own requests from ``(seed, round)``, so one run averages over several
independent draws of the query mix, and the same seed always replays the
same requests.  The program only ever sees the generated requests.

Three workloads, each chosen to load different layers (see README.md):

* ``zipf_shared``   – Zipf(1.1) over 32 distinct queries; the head is shared,
  so the rerank feed and the result cache do most of the work.
* ``unique_deep``   – every session a distinct query, paged 10 pages deep;
  no feed sharing, the session cache and scorer dominate, and the external
  queries of a round exceed the result cache's capacity.
* ``sharded_churn`` – the ``zipf_shared`` mix over 4 rank shards per source,
  with a catalog delta and a warming pass after every 32 sessions.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple, Union

from repro.workloads.loadgen import (
    QueryTemplate,
    ZipfSampler,
    ZipfWorkloadConfig,
    build_query_templates,
)

SOURCES = ("bluenile", "zillow")
PAGE_SIZE = 10
CATALOG_SIZE = 2000
#: The 32 distinct queries of the Zipf mix: per source, how many rank on
#: one, two and three sliders.
ZIPF_MIX = {1: 5, 2: 5, 3: 6}
ZIPF_EXPONENT = 1.1
CHURN_EVERY = 32
#: Share of a source's rows one delta reprices, and the price step.
REPRICE_SHARE = 0.005
REPRICE_STEP = 0.02


@dataclass(frozen=True)
class UserSession:
    """One simulated user: create a session, submit, then page ``next_pages``."""

    template: QueryTemplate
    next_pages: int

    @property
    def pages(self) -> int:
        return 1 + self.next_pages


@dataclass(frozen=True)
class Churn:
    """A catalog write: reprice and delete rows of ``source`` (rows drawn from
    ``seed`` against the catalog as it stands), then one warming pass."""

    source: str
    seed: int


Event = Union[UserSession, Churn]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload."""

    name: str
    shards: int
    sessions_per_round: int
    #: Nominal wall seconds of one round, oracle included, on a 2-core x86
    #: box; ``--seconds`` divided by it fixes the round count, so the amount
    #: of work (and every count) depends only on the arguments.
    round_seconds: float

    def rounds_for(self, seconds: float) -> int:
        return max(1, int(round(seconds / self.round_seconds)))

    def events(self, seed: int, round_index: int) -> List[Event]:
        round_seed = _round_seed(seed, round_index)
        if self.name == "unique_deep":
            return _unique_deep(round_seed, self.sessions_per_round)
        if self.name == "zipf_shared":
            return list(_zipf_sessions(round_seed, round_seed, self.sessions_per_round))
        # sharded_churn: a fixed query population per round index, so the
        # seed draws only the arrivals and the deltas' rows.  After every delta
        # the hottest feeds are led again, which multiplies the cost of the
        # few head templates; drawn per seed, they alone moved the run's
        # ext_queries_per_page by a fifth between seeds.
        sessions = _zipf_sessions(_round_seed(0, round_index), round_seed, self.sessions_per_round)
        # Deltas alternate between the sources, starting from a different
        # one each round, so every round writes to each source equally often.
        events: List[Event] = []
        rng = random.Random(round_seed ^ 0x5EED)
        for index, session in enumerate(sessions, start=1):
            events.append(session)
            if index % CHURN_EVERY == 0:
                source = SOURCES[(round_index + index // CHURN_EVERY) % len(SOURCES)]
                events.append(Churn(source, rng.getrandbits(32)))
        return events


def _round_seed(seed: int, round_index: int) -> int:
    return (seed * 1_000_003 + round_index * 7919) % (2**31)


def _zipf_sessions(template_seed: int, draw_seed: int, sessions: int) -> List[UserSession]:
    """``sessions`` users over 32 distinct queries (drawn from
    ``template_seed``) with Zipf(1.1) popularity (``loadgen.ZipfSampler``
    seeded from ``draw_seed``, as ``build_zipf_trace`` assigns them); each
    submits and pages twice."""
    templates = stratified_templates(template_seed, ZIPF_MIX)
    sampler = ZipfSampler(len(templates), ZIPF_EXPONENT, draw_seed + 1)
    return [UserSession(templates[sampler.draw()], 2) for _ in range(sessions)]


def _unique_deep(seed: int, sessions: int) -> List[UserSession]:
    """``sessions`` distinct queries, each paged 10 pages deep."""
    per_dims = sessions // (len(SOURCES) * 3)
    templates = stratified_templates(seed, {1: per_dims, 2: per_dims, 3: per_dims})
    return [UserSession(template, 9) for template in templates]


def stratified_templates(seed: int, per_source: Mapping[int, int]) -> List[QueryTemplate]:
    """Distinct (source, sliders, filter) templates in a fixed mix.

    Templates come from ``build_query_templates``; duplicates (same feed) are
    dropped.  Each source gets ``per_source[n]`` templates ranking on ``n``
    sliders: a request's cost is set mostly by how many attributes it ranks
    on, so a fixed mix keeps one seed's inputs comparable with another's,
    while the seed still picks every attribute, weight and filter."""
    strata: Dict[Tuple[str, int], List[QueryTemplate]] = {
        (source, dims): [] for source in SOURCES for dims in per_source
    }
    seen: set = set()
    batch = 0
    while any(len(strata[(source, dims)]) < per_source[dims] for source, dims in strata):
        config = ZipfWorkloadConfig(distinct_queries=64, page_size=PAGE_SIZE, seed=seed + batch)
        for template in build_query_templates(config):
            key = template_key(template)
            bucket = strata.get((template.source, len(template.sliders)))
            if bucket is not None and key not in seen and len(bucket) < per_source[len(template.sliders)]:
                seen.add(key)
                bucket.append(template)
        batch += 1
    rng = random.Random(seed)
    for bucket in strata.values():
        rng.shuffle(bucket)
    # Interleave the strata in a fixed order, so Zipf rank r always falls on
    # the same stratum and only the template within it depends on the seed.
    return [
        template
        for group in itertools.zip_longest(*strata.values())
        for template in group
        if template is not None
    ]


def template_key(template: QueryTemplate) -> Tuple:
    """Identity of a template's feed: source, ranking and filter.  One
    non-zero slider ranks by that attribute alone, so only its sign counts."""
    filters = template.filters or {}
    ranges = filters.get("ranges", {}) if isinstance(filters, Mapping) else {}
    sliders = tuple(sorted(template.sliders.items()))
    if len(sliders) == 1:
        sliders = ((sliders[0][0], sliders[0][1] > 0),)
    return (
        template.source,
        sliders,
        tuple(sorted((name, tuple(bounds)) for name, bounds in ranges.items())),
    )


def churn_delta(
    rows: List[Dict[str, object]], price_bounds: Tuple[float, float], key: str, seed: int
) -> Tuple[List[Dict[str, object]], List[object]]:
    """Reprice ~0.5 % of ``rows`` by ±2 % (clamped to the price domain) and
    delete one other row; deterministic in ``seed`` and the row set."""
    rng = random.Random(seed)
    ordered = sorted(rows, key=lambda row: str(row[key]))
    count = max(1, int(round(len(ordered) * REPRICE_SHARE)))
    picked = rng.sample(ordered, count + 1)
    lower, upper = price_bounds
    upserts = []
    for row in picked[:count]:
        step = REPRICE_STEP if rng.random() < 0.5 else -REPRICE_STEP
        repriced = dict(row)
        repriced["price"] = min(upper, max(lower, round(float(row["price"]) * (1.0 + step), 2)))
        upserts.append(repriced)
    return upserts, [picked[count][key]]


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="zipf_shared",
            shards=1,
            sessions_per_round=1024,
            round_seconds=6.0,
        ),
        Workload(
            name="unique_deep",
            shards=1,
            sessions_per_round=84,
            round_seconds=20.0,
        ),
        Workload(
            name="sharded_churn",
            shards=4,
            sessions_per_round=192,
            round_seconds=10.0,
        ),
    )
}
