"""Tests for BDC filings and the availability table."""

import numpy as np
import pytest

from repro.fcc.bdc import NBM_SPEED_FLOORS, generate_filings


def test_filings_nonempty(small_filings):
    assert len(small_filings) > 1000


def test_truly_served_consistent_with_footprints(small_filings, small_universe):
    # Rows in overclaimed hexes must be marked unserved and vice versa.
    idx = np.random.default_rng(0).choice(len(small_filings), 300, replace=False)
    for row in idx:
        pid = int(small_filings.provider_id[row])
        tech = int(small_filings.technology[row])
        cell = int(small_filings.cell[row])
        state = small_filings.state_abbr(row)
        fp = small_universe.footprint(pid, state, tech)
        assert fp is not None
        assert cell in fp.claimed_cells
        assert bool(small_filings.truly_served[row]) == (cell in fp.true_cells)


def test_published_speed_floors(small_filings):
    down = small_filings.published_download()
    up = small_filings.published_upload()
    assert not ((down > 0) & (down < NBM_SPEED_FLOORS[0])).any()
    assert not ((up > 0) & (up < NBM_SPEED_FLOORS[1])).any()


def test_claims_unique_per_bsl_provider_tech(small_filings):
    keys = np.stack(
        [small_filings.provider_id, small_filings.bsl_id, small_filings.technology]
    )
    # View rows as tuples and check uniqueness.
    uniq = {tuple(keys[:, i]) for i in range(keys.shape[1])}
    assert len(uniq) == len(small_filings)


def test_unique_claims_hex_level(small_filings):
    claims = small_filings.columnar().keys()
    assert len(claims) < len(small_filings)
    assert all(len(k) == 3 for k in claims)


def test_rows_for_claim_roundtrip(small_filings):
    claims = small_filings.columnar().keys()
    key = claims[len(claims) // 2]
    rows = small_filings.rows_for_claim(key)
    assert rows.size >= 1
    assert (small_filings.provider_id[rows] == key[0]).all()
    assert (small_filings.cell[rows] == np.uint64(key[1])).all()
    assert (small_filings.technology[rows] == key[2]).all()


def test_provider_location_counts(small_filings, small_universe):
    counts = small_filings.provider_location_counts()
    assert sum(counts.values()) == len(small_filings)
    majors = {p.provider_id for p in small_universe.majors}
    major_median = np.median([counts.get(pid, 0) for pid in majors])
    locals_ = [
        counts.get(p.provider_id, 0)
        for p in small_universe.terrestrial
        if p.size_class == "local"
    ]
    assert major_median > np.median(locals_)


def test_subset_filters_rows(small_filings):
    mask = small_filings.technology == 50
    sub = small_filings.subset(mask)
    assert len(sub) == int(mask.sum())
    if len(sub):
        assert (sub.technology == 50).all()


def test_determinism(small_fabric, small_universe):
    a = generate_filings(small_fabric, small_universe, seed=5)
    b = generate_filings(small_fabric, small_universe, seed=5)
    np.testing.assert_array_equal(a.bsl_id, b.bsl_id)
    np.testing.assert_array_equal(a.truly_served, b.truly_served)
