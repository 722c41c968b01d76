"""Streaming BDC-CSV ingestion into a sharded claim store.

Real NBM tooling consumes one BDC availability CSV per state (the
``fetch_fcc.py`` shape: provider id, state, H3 cell, technology code,
location count, advertised speeds, latency flag).  This module reads
that format in bounded chunks, validates and normalizes every row, and
commits the survivors as a :class:`~repro.store.sharded.ShardedClaimColumns`
bundle:

* **Streaming parse** — rows are buffered and converted into compact
  structured-array segments every ``chunk_rows`` rows, so
  Python-object overhead stays bounded by the chunk regardless of input
  size (the columnar segments themselves grow with the data; spilling
  them to disk is the follow-on for multi-GB releases).
* **Validation** — unknown states or technology codes, unparseable
  cells, non-numeric or non-finite speeds, sub-1 location counts, and
  short/truncated lines are *rejected, never ingested*: each lands in a
  ``rejected-*.csv`` sidecar with its source file, line number, and
  reason.  Speeds are normalized through the NBM publication floors
  (:data:`repro.fcc.bdc.NBM_SPEED_FLOORS`).
* **Duplicate keys** — a composite key ``(provider, cell, technology)``
  may appear once nationally; later occurrences (by source order),
  including cross-state re-filings that would route to *different*
  shards, are rejected to the sidecar naming the first occurrence.
* **Crash safety** — nothing under ``root`` changes until every source
  is parsed and deduplicated; the commit is
  :meth:`ShardedClaimColumns.save`'s atomic generation-plus-manifest
  protocol, so a killed ingest leaves the previous manifest pointing
  only at the previous run's complete bundle.

The round-trip contract (property-tested):
``ClaimColumns -> write_bdc_csv -> ingest_csv -> to_claims`` is
bitwise-exact, including float speeds (written with ``repr``) and the
monolithic lexicographic row order.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from repro.fcc.bdc import NBM_SPEED_FLOORS, ClaimColumns
from repro.fcc.providers import TECHNOLOGY_CODES
from repro.fcc.states import STATES
from repro.obs.metrics import get_metrics
from repro.store.sharded import ShardedClaimColumns, _resolve_state_map
from repro.utils.persist import fsync_dir

__all__ = ["write_bdc_csv", "ingest_csv", "IngestResult", "BDC_CSV_FIELDS"]

#: Column order of the BDC-shaped availability CSV this module speaks.
BDC_CSV_FIELDS = (
    "provider_id",
    "state_usps",
    "h3_res8_id",
    "technology",
    "location_count",
    "max_advertised_download_speed",
    "max_advertised_upload_speed",
    "low_latency",
)

_STATE_INDEX = {s.abbr: i for i, s in enumerate(STATES)}
_TECH_CODES = frozenset(int(c) for c in TECHNOLOGY_CODES)
_LOW_LATENCY = {"0": False, "1": True, "false": False, "true": True}

#: Parsed-row record: the eight claim columns plus reject bookkeeping.
_ROW_DTYPE = np.dtype(
    [
        ("provider_id", np.int64),
        ("cell", np.uint64),
        ("technology", np.int16),
        ("claimed_count", np.int64),
        ("max_download_mbps", np.float64),
        ("max_upload_mbps", np.float64),
        ("low_latency", np.bool_),
        ("state_idx", np.int16),
        ("source_ord", np.int32),
        ("line", np.int64),
    ]
)


def write_bdc_csv(claims: ClaimColumns, path: str, rows=None) -> str:
    """Export claims as a BDC-shaped availability CSV.

    ``rows`` restricts the export to a row subset (monolithic indices).
    Cells render as 16-digit hex (the BDC ``h3_res8_id`` convention) and
    floats with ``repr`` so :func:`ingest_csv` round-trips them exactly.
    """
    if rows is None:
        rows = np.arange(len(claims))
    rows = np.asarray(rows, dtype=np.int64)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(BDC_CSV_FIELDS)
        for r in rows:
            r = int(r)
            writer.writerow(
                (
                    int(claims.provider_id[r]),
                    STATES[int(claims.state_idx[r])].abbr,
                    f"{int(claims.cell[r]):016x}",
                    int(claims.technology[r]),
                    int(claims.claimed_count[r]),
                    repr(float(claims.max_download_mbps[r])),
                    repr(float(claims.max_upload_mbps[r])),
                    "1" if claims.low_latency[r] else "0",
                )
            )
    return path


@dataclass
class IngestResult:
    """Outcome of one :func:`ingest_csv` run."""

    root: str
    n_read: int
    n_ingested: int
    n_rejected: int
    rejected_path: str | None
    per_shard: dict[str, dict] = field(default_factory=dict)
    reject_reasons: dict[str, int] = field(default_factory=dict)

    def load(self, mmap: bool = True) -> ShardedClaimColumns:
        return ShardedClaimColumns.load(self.root, mmap=mmap)


class _Rejects:
    """Accumulates rejected rows and renders the sidecar CSV."""

    def __init__(self):
        self.rows: list[tuple[str, int, str, str]] = []
        self.reasons: dict[str, int] = {}

    def add(self, source: str, line: int, reason: str, raw: str = "") -> None:
        self.rows.append((source, int(line), reason, raw))
        label = reason.split(":")[0]
        self.reasons[label] = self.reasons.get(label, 0) + 1

    def __len__(self) -> int:
        return len(self.rows)

    def render(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(("source", "line", "reason", "raw"))
        for row in sorted(self.rows):
            writer.writerow(row)
        return out.getvalue()


def _parse_row(fields: list[str], parsed: list, rejects: _Rejects,
               source: str, line: int, source_ord: int) -> None:
    if len(fields) != len(BDC_CSV_FIELDS):
        rejects.add(
            source, line,
            f"wrong field count: expected {len(BDC_CSV_FIELDS)}, "
            f"got {len(fields)} (truncated or malformed line)",
            ",".join(fields),
        )
        return
    raw = ",".join(fields)
    (pid_s, state_s, cell_s, tech_s, count_s, down_s, up_s, lowlat_s) = fields
    try:
        pid = int(pid_s)
        if pid < 0:
            raise ValueError
    except ValueError:
        rejects.add(source, line, f"bad provider_id: {pid_s!r}", raw)
        return
    state_idx = _STATE_INDEX.get(state_s.strip().upper())
    if state_idx is None:
        rejects.add(source, line, f"unknown state: {state_s!r}", raw)
        return
    try:
        cell = int(cell_s, 16)
        if not 0 <= cell < 2**64:
            raise ValueError
    except ValueError:
        rejects.add(source, line, f"bad h3 cell id: {cell_s!r}", raw)
        return
    try:
        tech = int(tech_s)
    except ValueError:
        tech = None
    if tech not in _TECH_CODES:
        rejects.add(source, line, f"unknown technology code: {tech_s!r}", raw)
        return
    try:
        count = int(count_s)
        if count < 1:
            raise ValueError
    except ValueError:
        rejects.add(source, line, f"bad location count: {count_s!r}", raw)
        return
    try:
        down = float(down_s)
        up = float(up_s)
        if not (math.isfinite(down) and math.isfinite(up)) or down < 0 or up < 0:
            raise ValueError
    except ValueError:
        rejects.add(
            source, line, f"bad advertised speed: {down_s!r}/{up_s!r}", raw
        )
        return
    lowlat = _LOW_LATENCY.get(lowlat_s.strip().lower())
    if lowlat is None:
        rejects.add(source, line, f"bad low_latency flag: {lowlat_s!r}", raw)
        return
    # NBM publication floors (sub-floor speeds are published as 0).
    if down < NBM_SPEED_FLOORS[0]:
        down = 0.0
    if up < NBM_SPEED_FLOORS[1]:
        up = 0.0
    parsed.append(
        (pid, cell, tech, count, down, up, lowlat, state_idx, source_ord, line)
    )


def _open_source(source, ordinal: int):
    """(label, line-iterable, closer) for a path or file-like source."""
    if isinstance(source, (str, os.PathLike)):
        fh = open(source, encoding="utf-8", newline="")
        return os.path.basename(str(source)), fh, fh.close
    label = getattr(source, "name", None) or f"source-{ordinal}"
    return str(label), source, lambda: None


def ingest_csv(
    sources,
    root: str,
    shards=None,
    chunk_rows: int = 65_536,
) -> IngestResult:
    """Ingest BDC-shaped CSVs into a sharded claim bundle at ``root``.

    ``sources`` is an iterable of file paths and/or file-like objects
    (each must start with the :data:`BDC_CSV_FIELDS` header).  See the
    module docstring for validation, duplicate, and crash-safety
    semantics.
    """
    if chunk_rows < 1:
        raise ValueError("chunk_rows must be >= 1")
    ingest_start = time.perf_counter()
    state_map = _resolve_state_map(shards)
    rejects = _Rejects()
    segments: list[np.ndarray] = []
    buffer: list[tuple] = []
    n_read = 0

    def _flush() -> None:
        if buffer:
            segments.append(np.array(buffer, dtype=_ROW_DTYPE))
            buffer.clear()

    source_labels: list[str] = []
    for source_ord, source in enumerate(sources):
        label, lines, close = _open_source(source, source_ord)
        source_labels.append(label)
        try:
            reader = csv.reader(lines)
            header = next(reader, None)
            if header is None or tuple(header) != BDC_CSV_FIELDS:
                raise ValueError(
                    f"source {label!r} does not start with the BDC header "
                    f"{','.join(BDC_CSV_FIELDS)!r}"
                )
            for fields in reader:
                n_read += 1
                _parse_row(
                    fields, buffer, rejects, label, reader.line_num, source_ord
                )
                if len(buffer) >= chunk_rows:
                    _flush()
        finally:
            close()
    _flush()

    # One global sort by key then source order: the first occurrence of
    # every composite key leads its run (keys are unique *nationally*, so
    # cross-state re-filings are duplicates too), and the survivors are
    # already in the canonical (provider, cell, technology) row order.
    data = np.concatenate(segments) if segments else np.empty(0, _ROW_DTYPE)
    data = data[
        np.lexsort(
            (
                data["line"],
                data["source_ord"],
                data["technology"],
                data["cell"],
                data["provider_id"],
            )
        )
    ]
    keys = data[["provider_id", "cell", "technology"]]
    dup_follows = keys[1:] == keys[:-1]
    keep = np.r_[True, ~dup_follows] if data.size else np.ones(0, dtype=bool)
    if dup_follows.any():
        # First index of each duplicate's run, for the reject message:
        # propagate the last run-start index forward (run starts are
        # strictly increasing, so a running max carries them).
        run_first = np.maximum.accumulate(
            np.where(keep, np.arange(data.size), 0)
        )
        for j in np.flatnonzero(~keep):
            dup, first = data[j], data[run_first[j]]
            rejects.add(
                source_labels[int(dup["source_ord"])],
                int(dup["line"]),
                "duplicate claim key: "
                f"({int(dup['provider_id'])}, {int(dup['cell'])}, "
                f"{int(dup['technology'])}) first seen at "
                f"{source_labels[int(first['source_ord'])]} line "
                f"{int(first['line'])}",
            )
    data = data[keep]
    claims = ClaimColumns.from_arrays(
        {col: data[col] for col, _ in ClaimColumns.EXPORT_FIELDS}
    )
    sharded = ShardedClaimColumns.from_claims(claims, shards=state_map)
    n_total = len(claims)
    per_shard_stats: dict[str, dict] = {}
    for name in sharded.shard_names:
        rows = sharded.global_rows(name)
        per_shard_stats[name] = {
            "n_rows": int(rows.size),
            "states": sorted(
                STATES[i].abbr
                for i in np.unique(claims.state_idx[rows]).astype(int)
            ),
        }

    # Commit: sidecar first (content-addressed, unreferenced until the
    # manifest lands), then the atomic generation + manifest replace.
    rejected_rel = None
    if len(rejects):
        content = rejects.render()
        digest = hashlib.sha256(content.encode("utf-8")).hexdigest()[:12]
        rejected_rel = f"rejected-{digest}.csv"
        os.makedirs(root, exist_ok=True)
        # fsync before the manifest commit references this file: the
        # manifest's durability protocol (``repro.utils.persist.write``)
        # only helps if the sidecar it points at cannot itself be
        # empty/torn after a crash.
        with open(
            os.path.join(root, rejected_rel), "w", encoding="utf-8", newline=""
        ) as fh:
            fh.write(content)
            fh.flush()
            os.fsync(fh.fileno())
        fsync_dir(root)
    stats = {
        "rows_read": int(n_read),
        "rows_ingested": int(n_total),
        "rows_rejected": len(rejects),
        "reject_reasons": dict(sorted(rejects.reasons.items())),
        "sources": source_labels,
        "chunk_rows": int(chunk_rows),
        "rejected": rejected_rel,
        "per_shard": per_shard_stats,
    }
    sharded.save(root, extra_manifest={"ingest": stats})
    # Process-wide ingestion telemetry: rows by outcome, rejects by
    # reason family, and the run's wall time (rows/s = read / seconds).
    metrics = get_metrics()
    metrics.counter("ingest_rows_total", outcome="read").inc(int(n_read))
    metrics.counter("ingest_rows_total", outcome="ingested").inc(int(n_total))
    metrics.counter("ingest_rows_total", outcome="rejected").inc(len(rejects))
    for reason, count in rejects.reasons.items():
        metrics.counter("ingest_rejected_total", reason=reason).inc(int(count))
    metrics.histogram("ingest_seconds").observe(
        time.perf_counter() - ingest_start
    )
    # Sidecars from superseded runs are garbage once the manifest moves on.
    for entry in os.listdir(root):
        if (
            entry.startswith("rejected-")
            and entry.endswith(".csv")
            and entry != rejected_rel
        ):
            os.unlink(os.path.join(root, entry))
    return IngestResult(
        root=root,
        n_read=int(n_read),
        n_ingested=int(n_total),
        n_rejected=len(rejects),
        rejected_path=(
            os.path.join(root, rejected_rel) if rejected_rel else None
        ),
        per_shard=per_shard_stats,
        reject_reasons=dict(rejects.reasons),
    )
