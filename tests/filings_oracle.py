"""Scalar reference for :func:`repro.fcc.bdc.generate_filings`.

This is the per-provider, per-footprint, per-cell loop the columnar
kernel replaced, kept as its test oracle.  It reads the Fabric only
through its raw ``cells`` / ``state_idx`` columns (its own cell -> rows
grouping), so it does not share the kernel's cell-sorted layout.
"""

import numpy as np

from repro.fcc.bdc import AvailabilityTable
from repro.fcc.states import STATES
from repro.utils.rng import stream_rng


def scalar_filings(
    fabric, universe, seed=0, claim_fraction_range=(0.55, 0.95)
) -> AvailabilityTable:
    by_cell: dict[int, list[int]] = {}
    for row, cell in enumerate(fabric.cells.tolist()):
        by_cell.setdefault(cell, []).append(row)
    cols: dict[str, list[np.ndarray]] = {
        "provider_id": [], "bsl_id": [], "technology": [], "cell": [],
        "state_idx": [], "down": [], "up": [], "lowlat": [], "served": [],
    }
    state_index = {s.abbr: i for i, s in enumerate(STATES)}
    for provider in universe.providers:
        rng = stream_rng(seed, "filings", provider.provider_id)
        claim_fraction = float(rng.uniform(*claim_fraction_range))
        for (pid, state, tech), fp in universe.footprints.items():
            if pid != provider.provider_id:
                continue
            tier = provider.tier_for(tech)
            filing_state = state_index[state]
            for cell in sorted(fp.claimed_cells):
                rows = np.array(by_cell.get(cell, []), dtype=np.int64)
                # Hex cells can straddle state borders; a filing only covers
                # the BSLs in the filing's own state.
                rows = rows[fabric.state_idx[rows] == filing_state]
                if rows.size == 0:
                    continue
                take = max(1, int(round(claim_fraction * rows.size)))
                chosen = (
                    rows
                    if take >= rows.size
                    else rng.choice(rows, size=take, replace=False)
                )
                n = chosen.size
                served = cell in fp.true_cells
                cols["provider_id"].append(np.full(n, pid, dtype=np.int64))
                cols["bsl_id"].append(chosen.astype(np.int64))
                cols["technology"].append(np.full(n, tech, dtype=np.int16))
                cols["cell"].append(np.full(n, cell, dtype=np.uint64))
                cols["state_idx"].append(fabric.state_idx[chosen].astype(np.int16))
                cols["down"].append(np.full(n, tier.max_download_mbps))
                cols["up"].append(np.full(n, tier.max_upload_mbps))
                cols["lowlat"].append(np.full(n, tier.low_latency, dtype=bool))
                cols["served"].append(np.full(n, served, dtype=bool))

    def _cat(name, dtype):
        if not cols[name]:
            return np.empty(0, dtype=dtype)
        return np.concatenate(cols[name]).astype(dtype)

    return AvailabilityTable(
        provider_id=_cat("provider_id", np.int64),
        bsl_id=_cat("bsl_id", np.int64),
        technology=_cat("technology", np.int16),
        cell=_cat("cell", np.uint64),
        state_idx=_cat("state_idx", np.int16),
        max_download_mbps=_cat("down", np.float64),
        max_upload_mbps=_cat("up", np.float64),
        low_latency=_cat("lowlat", bool),
        truly_served=_cat("served", bool),
    )
