"""How fast this host is right now, from a fixed reference workload.

A shared host's speed swings by tens of percent from one second to the
next and drifts over minutes; the swings reach the serving and release
paths alike, so a run that lands in a slow phase reads as a regression.
:meth:`HostReference.probe` times a small fixed workload of the same kind
the program does (interpreter loops, dict building, JSON encoding and
decoding) and returns ``probe_s / REFERENCE_S``: about 1 on this host at
its usual speed, above 1 while it runs slow.  Multiplying a throughput by
the factor (dividing a time by it) reports it at the usual speed.

Measured over one-second slices of the serving phases on a 2-vCPU host,
the probe's time correlates with the phase's throughput at r ≈ -0.75,
and scaling by it halves the slice-to-slice spread.  The probe is code
of the benchmark, not of the program, so a change to the program moves
the scaled figure exactly as it moves the raw one.
"""

from __future__ import annotations

import json
import statistics
import time

__all__ = ["REFERENCE_S", "HostReference"]

#: Seconds one probe takes on a 2-vCPU host at its usual speed.
REFERENCE_S = 0.025

_LOOP = 100_000


class HostReference:
    """A fixed workload, timed on demand; keeps every factor it returned."""

    def __init__(self):
        self._docs = [
            {
                "provider_id": i,
                "cell": 613 * i,
                "technology": 50,
                "score": i / 7,
                "state": "TX",
            }
            for i in range(2000)
        ]
        self.factors: list[float] = []

    def probe(self) -> float:
        """Slowdown factor: probe time ÷ ``REFERENCE_S``."""
        start = time.perf_counter()
        x = 0
        for i in range(_LOOP):
            x += i * i % 7
        json.loads(json.dumps(self._docs))
        json.loads(json.dumps(self._docs))
        factor = (time.perf_counter() - start) / REFERENCE_S
        self.factors.append(factor)
        return factor

    def median_s(self) -> float:
        """Median probe time in seconds over the factors returned so far."""
        return statistics.median(self.factors) * REFERENCE_S
