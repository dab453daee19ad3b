"""Scale measured times to a host of fixed speed.

The benchmark runs on a few cores of a shared host whose speed moves by up
to half from one second or minute to the next, and the guest cannot see
why (no steal time, no hardware counters). A fixed piece of reference work,
timed next to the workload, moves with it. So the workload runs in spans
(a slice of SLICE_S of the closed loop, or one build of its world), the
reference is timed between spans, and each span gets the factor

    REFERENCE_S / (mean of the reference times just before and after it)

which reads its times as they would be on a host where the reference takes
REFERENCE_S. A ``Scale`` is the time-weighted mean of these factors over a
phase of the run; every time the phase measured (rates, percentiles, the
median build) is multiplied by it. One factor per phase, not per sample,
keeps the reference's own noise out of the percentiles' tails.

The reference mixes what abd's decisions spend their time on: interpreted
dict and list work, Ed25519 verification and SHA-256. It calls nothing in
``abd``, so a change to abd moves the scaled times and leaves the reference
alone. Unscaled figures are printed beside the scaled ones.
"""
from __future__ import annotations

import gc
import hashlib
import statistics
import time

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

# Nominal time of one reference pass, a typical figure on the 2-CPU shared
# Xeon host of baseline.json (its passes took 5-16 ms as its load changed).
# It is only a unit, but changing it rescales every figure against the
# baseline.
REFERENCE_S = 0.0085
SLICE_S = 1.0
PASSES = 3

_KEY = Ed25519PrivateKey.from_private_bytes(bytes(range(32)))
_PUBLIC = _KEY.public_key()
_MESSAGE = bytes(range(200))
_SIGNATURE = _KEY.sign(_MESSAGE)


def _work() -> int:
    table: dict[int, int] = {}
    for i in range(20000):
        table[i % 997] = table.get(i % 997, 0) + i
    ordered = sorted(table.items(), key=lambda item: item[1])
    for _ in range(20):
        _PUBLIC.verify(_SIGNATURE, _MESSAGE)
    digest = _MESSAGE
    for _ in range(50):
        digest = hashlib.sha256(digest).digest()
    return len(ordered) + digest[0]


def reference_s() -> float:
    """Median wall time of PASSES reference passes, so one preemption does
    not decide it. The cyclic collector is held off so that the size of the
    workload's heap does not leak into the figure."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(PASSES):
            start = time.perf_counter()
            _work()
            times.append(time.perf_counter() - start)
        return statistics.median(times)
    finally:
        if enabled:
            gc.enable()


class Scale:
    """Time-weighted mean factor over the spans passed to ``add``. Times the
    reference once on creation and once after each span."""

    def __init__(self) -> None:
        self._before = reference_s()
        self._weighted = 0.0
        self._seconds = 0.0

    def add(self, seconds: float) -> None:
        """Count a span of ``seconds`` that just ended."""
        after = reference_s()
        self._weighted += seconds * REFERENCE_S / ((self._before + after) / 2)
        self._seconds += seconds
        self._before = after

    @property
    def value(self) -> float:
        return self._weighted / self._seconds if self._seconds else 1.0
