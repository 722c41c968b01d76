"""Property tests: the columnar claim store vs. the dict-based reference.

The columnar path (``AvailabilityTable.columnar()`` + vectorized
``positions`` lookups) must agree *exactly* with the per-key dict path
(``FeatureBuilder._precompute_claim_attrs``) on randomized tables,
including keys absent from the table.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from labels_oracle import unique_claims

from repro.fcc.bdc import AvailabilityTable
from repro.features.vectorize import FeatureBuilder


def _random_table(draw) -> AvailabilityTable:
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Small key universes force plenty of per-claim aggregation.
    provider_id = rng.integers(1, 6, size=n).astype(np.int64)
    cell = rng.integers(2**63, 2**63 + 8, size=n, dtype=np.uint64)
    technology = rng.choice([10, 40, 50], size=n).astype(np.int16)
    return AvailabilityTable(
        provider_id=provider_id,
        bsl_id=np.arange(n, dtype=np.int64),
        technology=technology,
        cell=cell,
        state_idx=np.zeros(n, dtype=np.int16),
        max_download_mbps=rng.choice([0.0, 5.0, 25.0, 100.0, 940.0], size=n),
        max_upload_mbps=rng.choice([0.0, 0.5, 3.0, 20.0, 35.0], size=n),
        low_latency=rng.random(n) < 0.5,
        truly_served=rng.random(n) < 0.5,
    )


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_columnar_aggregates_match_dict_path(data):
    table = _random_table(data.draw)
    columns = table.columnar()
    reference = FeatureBuilder._precompute_claim_attrs(table)

    assert len(columns) == len(reference)
    for row in range(len(columns)):
        key = columns.key_at(row)
        count, down, up, lowlat = reference[key]
        assert int(columns.claimed_count[row]) == count
        assert float(columns.max_download_mbps[row]) == down
        assert float(columns.max_upload_mbps[row]) == up
        assert bool(columns.low_latency[row]) == lowlat


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_columnar_positions_match_dict_lookups(data):
    table = _random_table(data.draw)
    columns = table.columnar()
    reference = FeatureBuilder._precompute_claim_attrs(table)

    # Query a mix of present keys and near-miss absent keys (unknown
    # provider / cell / technology components and combinations).
    m = data.draw(st.integers(1, 40))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    q_provider = rng.integers(1, 8, size=m).astype(np.int64)  # 6,7 never filed
    q_cell = rng.integers(2**63, 2**63 + 10, size=m, dtype=np.uint64)
    q_tech = rng.choice([10, 40, 50, 60], size=m).astype(np.int64)

    pos = columns.positions(q_provider, q_cell, q_tech)
    for i in range(m):
        key = (int(q_provider[i]), int(q_cell[i]), int(q_tech[i]))
        if key in reference:
            row = int(pos[i])
            assert row >= 0
            assert columns.key_at(row) == key
        else:
            assert pos[i] == -1


def test_columnar_is_cached(small_filings):
    assert small_filings.columnar() is small_filings.columnar()


def test_columnar_matches_unique_claims_order(small_filings):
    columns = small_filings.columnar()
    claims = unique_claims(small_filings)
    assert len(columns) == len(claims)
    assert [columns.key_at(i) for i in range(len(columns))] == claims
    assert columns.keys() == claims
