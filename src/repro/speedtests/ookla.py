"""Ookla Open Data Initiative (simulated): quarterly quadkey-tile aggregates.

Ookla's public dataset aggregates precise-GPS speed tests into zoom-16
Web Mercator tiles, reporting per-tile test counts, unique device counts,
mean throughputs, and mean latency — with no provider attribution.  The
generative model:

* tests originate at BSLs that are *truly served* by at least one
  terrestrial provider (people run speed tests on connections they have);
* participation is self-selected: per-location test intensity is Poisson,
  scaled up in denser (town) cells — matching the known urban skew of
  crowdsourced data;
* a small background of tests appears in unserved areas (mobile devices,
  satellite links), keeping the signal realistically imperfect;
* throughputs track advertised tiers with in-home degradation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fcc.bdc import AvailabilityTable
from repro.fcc.fabric import Fabric
from repro.geo.quadkey import latlng_to_quadkey_vec
from repro.geo.reproject import OoklaTileAggregate
from repro.utils.rng import stream_rng

__all__ = ["OoklaConfig", "generate_ookla_tiles"]


@dataclass(frozen=True)
class OoklaConfig:
    """Knobs for the Ookla open-data generator."""

    #: Mean devices running tests per truly-served BSL over the window.
    devices_per_served_bsl: float = 1.3
    #: Mean tests each participating device runs.
    tests_per_device: float = 2.2
    #: Mean devices per *unserved* BSL (mobile/satellite background noise).
    background_devices_per_bsl: float = 0.03
    #: Multiplier on participation in dense cells (urban skew).
    density_boost: float = 1.5
    #: BSL count per cell above which the density boost applies.
    density_threshold: int = 8
    #: Fraction of advertised speed a typical in-home test achieves.
    achieved_speed_fraction: float = 0.6

    def validate(self) -> "OoklaConfig":
        if self.devices_per_served_bsl <= 0:
            raise ValueError("devices_per_served_bsl must be > 0")
        if not 0 < self.achieved_speed_fraction <= 1:
            raise ValueError("achieved_speed_fraction must be in (0, 1]")
        return self


def _served_speed_by_bsl(table: AvailabilityTable, n_bsl: int) -> np.ndarray:
    """Max advertised download (Mbps) among truly-served claims per BSL.

    0 for a BSL with no truly-served claim above 0 Mbps; such a BSL does
    not count as served.
    """
    speeds = np.zeros(n_bsl)
    served = table.truly_served
    np.fmax.at(speeds, table.bsl_id[served], table.max_download_mbps[served])
    return speeds


def generate_ookla_tiles(
    fabric: Fabric,
    table: AvailabilityTable,
    config: OoklaConfig | None = None,
    seed: int = 0,
) -> list[OoklaTileAggregate]:
    """Generate one reporting window of Ookla tile aggregates."""
    config = (config or OoklaConfig()).validate()
    rng = stream_rng(seed, "ookla")
    speed = _served_speed_by_bsl(table, len(fabric))
    served_mask = speed > 0.0

    # Per-cell density boost.
    dense = fabric.bsl_counts_in_cells(fabric.cells) >= config.density_threshold

    lam = np.where(served_mask, config.devices_per_served_bsl, config.background_devices_per_bsl)
    lam = lam * np.where(dense, config.density_boost, 1.0)
    devices = rng.poisson(lam)
    active = np.where(devices > 0)[0]
    tiles = latlng_to_quadkey_vec(fabric.lats[active], fabric.lngs[active])

    # Aggregate per quadkey tile.
    by_tile: dict[str, dict[str, float]] = {}
    for tile, n_devices, served, mbps in zip(
        tiles,
        devices[active].tolist(),
        served_mask[active].tolist(),
        speed[active].tolist(),
    ):
        tests = int(n_devices + rng.poisson(config.tests_per_device * n_devices))
        base = mbps if served else float(rng.uniform(5, 60))
        achieved_down = base * config.achieved_speed_fraction * float(rng.uniform(0.5, 1.2))
        achieved_up = achieved_down * float(rng.uniform(0.1, 0.8))
        latency = float(rng.uniform(8, 45)) if served else float(rng.uniform(30, 120))
        agg = by_tile.setdefault(
            tile, {"tests": 0.0, "devices": 0.0, "down": 0.0, "up": 0.0, "lat": 0.0}
        )
        weight = tests
        prev = agg["tests"]
        agg["tests"] += tests
        agg["devices"] += n_devices
        # Running weighted means for throughput/latency.
        total = prev + weight
        if total > 0:
            agg["down"] += (achieved_down * 1000.0 - agg["down"]) * weight / total
            agg["up"] += (achieved_up * 1000.0 - agg["up"]) * weight / total
            agg["lat"] += (latency - agg["lat"]) * weight / total

    return [
        OoklaTileAggregate(
            quadkey=tile,
            tests=int(vals["tests"]),
            devices=int(vals["devices"]),
            avg_download_kbps=float(vals["down"]),
            avg_upload_kbps=float(vals["up"]),
            avg_latency_ms=float(vals["lat"]),
        )
        for tile, vals in sorted(by_tile.items())
    ]
