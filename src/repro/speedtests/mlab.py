"""MLab NDT7 test rows (simulated).

Unlike Ookla's aggregated tiles, every NDT7 test is public as an individual
row carrying the client's ASN and an IP-geolocation estimate with an
accuracy radius.  The generative model: subscribers of a provider run NDT7
tests from truly-served locations; each test is stamped with one of the
provider's ASNs and a geolocation fix drawn from
:class:`~repro.speedtests.geolocation.GeolocationModel`.

Tests from providers with no ASN of their own (single-homed small ISPs)
appear under their upstream transit ASN — exactly the ambiguity the
paper's crosswalk has to live with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fcc.bdc import AvailabilityTable
from repro.fcc.fabric import Fabric
from repro.speedtests.geolocation import GeolocationModel
from repro.utils.rng import stream_rng

__all__ = ["MLabConfig", "MLabTest", "generate_mlab_tests", "mlab_columns"]


@dataclass(frozen=True)
class MLabTest:
    """One NDT7 test row (public fields only)."""

    test_id: int
    asn: int
    lat: float
    lng: float
    accuracy_radius_m: float
    download_mbps: float
    upload_mbps: float
    latency_ms: float


def mlab_columns(tests: list[MLabTest], *names: str) -> list[np.ndarray]:
    """One array per named :class:`MLabTest` field, in test order
    (``asn`` as int64, every other field as float64)."""
    return [
        np.fromiter(
            (getattr(t, name) for t in tests),
            np.int64 if name == "asn" else np.float64,
            len(tests),
        )
        for name in names
    ]


@dataclass(frozen=True)
class MLabConfig:
    """Knobs for the NDT7 generator."""

    #: Mean tests per truly-served BSL-claim over the window.
    tests_per_served_claim: float = 0.05
    #: Cap on tests per provider (the real dataset is long-tailed but the
    #: biggest eyeball networks dominate; this keeps generation bounded).
    max_tests_per_provider: int = 20000
    #: Fraction of advertised speed a typical NDT7 run achieves.
    achieved_speed_fraction: float = 0.5

    def validate(self) -> "MLabConfig":
        if self.tests_per_served_claim <= 0:
            raise ValueError("tests_per_served_claim must be > 0")
        return self


def generate_mlab_tests(
    fabric: Fabric,
    table: AvailabilityTable,
    provider_asns: dict[int, tuple[int, ...]],
    config: MLabConfig | None = None,
    geolocation: GeolocationModel | None = None,
    seed: int = 0,
) -> list[MLabTest]:
    """Generate NDT7 rows for providers with known ASN ownership.

    ``provider_asns`` is the *ground-truth* ownership map produced by the
    WHOIS registry simulator (providers without ASNs are absent or mapped
    to their transit ASN).
    """
    config = (config or MLabConfig()).validate()
    geolocation = geolocation or GeolocationModel()
    tests: list[MLabTest] = []
    test_id = 0
    served = table.truly_served

    for pid, asns in sorted(provider_asns.items()):
        if not asns:
            continue
        rng = stream_rng(seed, "mlab", pid)
        rows = np.where((table.provider_id == pid) & served)[0]
        if rows.size == 0:
            continue
        n_tests = min(
            int(rng.poisson(config.tests_per_served_claim * rows.size)),
            config.max_tests_per_provider,
        )
        if n_tests == 0:
            continue
        chosen = rng.choice(rows, size=n_tests, replace=True)
        for row in chosen:
            bsl = int(table.bsl_id[row])
            true_lat = float(fabric.lats[bsl])
            true_lng = float(fabric.lngs[bsl])
            fix = geolocation.sample(rng, true_lat, true_lng)
            advertised = float(table.max_download_mbps[row])
            down = advertised * config.achieved_speed_fraction * float(rng.uniform(0.4, 1.1))
            up = float(table.max_upload_mbps[row]) * config.achieved_speed_fraction * float(
                rng.uniform(0.4, 1.1)
            )
            latency = float(rng.uniform(8, 60))
            tests.append(
                MLabTest(
                    test_id=test_id,
                    asn=int(asns[int(rng.integers(len(asns)))]),
                    lat=fix.lat,
                    lng=fix.lng,
                    accuracy_radius_m=fix.accuracy_radius_m,
                    download_mbps=down,
                    upload_mbps=up,
                    latency_ms=latency,
                )
            )
            test_id += 1
    return tests
