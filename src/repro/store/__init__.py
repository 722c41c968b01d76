"""National-shard claim store: one mmap claim table with a per-state
partition, and streaming BDC ingestion.

==============================  ==============================================
Module                          Responsibility
==============================  ==============================================
:mod:`repro.store.sharded`      :class:`ShardedClaimColumns` — per-state
                                row ranges over one claim table, persisted
                                as one raw-mmap :mod:`repro.utils.persist`
                                bundle (one file per column)
:mod:`repro.store.ingest`       streaming BDC-CSV ingestion with validation,
                                a rejected-rows sidecar, and exact
                                round-tripping
==============================  ==============================================

Score stores are built in process (:meth:`ClaimScoreStore.build`) and
saved per state with :meth:`ClaimScoreStore.save_sharded`.  The
subsystem's defining invariant — proven by the property-test layer in
``tests/test_store_sharded.py`` — is that per-state scoring, lookup, and
pagination are *bitwise-identical* to the monolithic
:class:`~repro.serve.store.ClaimScoreStore` path.
"""

from repro.store.ingest import (
    BDC_CSV_FIELDS,
    IngestResult,
    ingest_csv,
    write_bdc_csv,
)
from repro.store.sharded import ShardedClaimColumns

__all__ = [
    "BDC_CSV_FIELDS",
    "IngestResult",
    "ShardedClaimColumns",
    "ingest_csv",
    "write_bdc_csv",
]
