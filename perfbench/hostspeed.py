"""Host-speed reference: a fixed pure-Python probe timed between requests.

The benchmark's host is a shared VM whose CPU speed switches between two
levels about 1.7x apart, and a level can hold for seconds or for minutes
(see STABILITY.md).  Raw wall times of the same work then differ by that
much between runs.  The probe below is a fixed piece of interpreter work —
JSON encode and decode, a regular-expression scan, a heap selection, a
keyed sort and string formatting over its own small documents — that
imports nothing from the program, so no change to the program changes the
work it does; only the host's speed changes its time.  The replay times it
every ``PROBE_EVERY_S`` of program work, and each program time is scaled by
``REFERENCE_PROBE_S / (median probe time around it)``: the time the same
work would have taken on a host where the probe takes
``REFERENCE_PROBE_S``.  Both raw and scaled times are reported; the scaled
ones are the gated metrics.
"""

from __future__ import annotations

import gc
import heapq
import json
import random
import re
import statistics
import time
from typing import List

#: The probe's nominal duration: roughly its median time between requests
#: on the 2-core x86 VM the bounds were set on (0.41-0.77 ms as that host's
#: speed switched), so scaled times read close to raw ones there.
REFERENCE_PROBE_S = 0.0005
#: Program seconds between two probes (about 2 % extra wall time).
PROBE_EVERY_S = 0.03
#: Probes on each side of a measurement whose median sets its scale.
WINDOW = 4
#: Probes taken around one service build.
SETUP_PROBES = 5

# The mix runs many different C paths of the interpreter, as serving a page
# does.  Over 60 replays of one fixed 384-session zipf_shared round while the
# host switched, the round's next-page p50 spread 47 % (q3 - q1 over the
# median); divided by this probe's median time in the round, 12 %; divided
# by an L1-resident loop of dict lookups and calls, 17 %; divided by a scan
# over a 12 MB table, 31 %.
_rng = random.Random(7)
_DOCUMENT = {
    "page": 3,
    "rows": [
        {"id": index, "price": _rng.random() * 1000.0, "name": f"item-{index}", "tags": ["a", "b"]}
        for index in range(40)
    ],
}
_TEXT = " ".join(f"key{index}={_rng.random():.4f}" for index in range(200))
_PAIR = re.compile(r"key(\d+)=([0-9.]+)")


def _probe_work() -> int:
    encoded = json.dumps(_DOCUMENT, sort_keys=True)
    decoded = json.loads(encoded)
    pairs = [(int(key), float(value)) for key, value in _PAIR.findall(_TEXT)]
    lowest = heapq.nsmallest(10, pairs, key=lambda pair: pair[1])
    ranked = sorted(decoded["rows"], key=lambda row: (row["price"], row["id"]))
    lines = ["{id}:{price:.2f}:{name}".format(**row) for row in ranked[:20]]
    return len(encoded) + sum(key for key, _ in lowest) + sum(map(len, lines))


_EXPECTED = _probe_work()


def probe() -> float:
    """Seconds one probe takes now (collector off, so no collection of the
    program's heap lands inside it)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        result = _probe_work()
        elapsed = time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()
    if result != _EXPECTED:
        raise AssertionError("host-speed probe computed a different result")
    return elapsed


class SpeedTrack:
    """Probe times taken in order, and the scale each measurement gets.

    A measurement is tagged with the number of probes taken before it
    ended; its scale uses the ``2 * WINDOW + 1`` probes nearest that point."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._since = 0.0

    def tag(self) -> int:
        return len(self.samples)

    def after(self, program_seconds: float) -> None:
        """Count ``program_seconds`` of program work; probe when due."""
        self._since += program_seconds
        if self._since >= PROBE_EVERY_S or not self.samples:
            self.samples.append(probe())
            self._since = 0.0

    def scale(self, tag: int) -> float:
        count = len(self.samples)
        if count == 0:
            raise ValueError("no probe was taken")
        centre = min(max(tag, 0), count - 1)
        window = self.samples[max(0, centre - WINDOW):centre + WINDOW + 1]
        return REFERENCE_PROBE_S / statistics.median(window)


def setup_scale(before: List[float], after: List[float]) -> float:
    """Scale of a build timed between ``before`` and ``after`` probes."""
    return REFERENCE_PROBE_S / statistics.median(before + after)


def probes(count: int) -> List[float]:
    return [probe() for _ in range(count)]
