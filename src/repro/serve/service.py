"""The audit-service facade: query methods over a model registry.

:class:`AuditService` is the object the HTTP layer (and any embedding
application) talks to.  Since the v2 redesign it no longer holds a
single global ``(classifier, store)`` pair: it binds through a
:class:`~repro.serve.registry.ModelRegistry` of named, immutable
:class:`~repro.serve.registry.ModelVersion` entries, each bundling

* a :class:`~repro.serve.store.ClaimScoreStore` answering precomputed
  lookups, percentiles, and filtered top-k / paginated suspicion queries;
* that version's own :class:`~repro.serve.batcher.MicroBatcher`
  coalescing concurrent single-claim requests — both precomputed lookups
  and *cold* requests (hypothetical filings absent from the store) —
  into one vectorized batch per flush;
* optionally, the live classifier + feature builder, which enable the
  cold path and the labelled slice reports of :mod:`repro.core.reports`.

Every query method snapshots one version (the registry default, or an
explicit ``version=`` name) and serves entirely from it, so responses
stay internally consistent across :meth:`activate` hot-swaps.

A service can be constructed four ways: :meth:`from_model` (live model,
builds the store), the plain constructor (pre-built store),
:meth:`from_artifacts` (a bundle directory written by :meth:`save` —
standalone serving with no world in memory), or :meth:`from_registry`
(a pre-populated multi-version registry).
"""

from __future__ import annotations

import os

import numpy as np

from repro.fcc.states import STATES
from repro.serve.artifacts import save_model_artifacts
from repro.serve.registry import (
    MODEL_SUBDIR,
    STORE_SUBDIR,
    ModelRegistry,
    ModelVersion,
    state_index,
)
from repro.serve.store import ClaimScoreStore

__all__ = ["AuditService"]

#: Name given to the version registered by the single-store constructors.
DEFAULT_VERSION = "default"


class AuditService:
    """Queryable claim-audit service over a registry of score stores."""

    def __init__(
        self,
        store: ClaimScoreStore | None = None,
        classifier=None,
        builder=None,
        model=None,
        threshold: float = 0.5,
        max_batch: int | None = None,
        max_delay_s: float | None = None,
        cache_size: int | None = None,
        registry: ModelRegistry | None = None,
        version_name: str | None = None,
        enrichment=None,
    ):
        self.threshold = float(threshold)
        # Service-level (not per-version): the measured-truth join is an
        # attribute of the world the claims came from, shared by every
        # version serving those claims.  Optional — without it the
        # priority surface degrades to its suspicion-only composite.
        self.enrichment = enrichment
        self._priority_cache: dict[tuple[str, str], object] = {}
        batcher_config = {
            key: value
            for key, value in (
                ("max_batch", max_batch),
                ("max_delay_s", max_delay_s),
                ("cache_size", cache_size),
            )
            if value is not None
        }
        if registry is not None:
            if store is not None:
                raise ValueError("pass either a store or a registry, not both")
            if batcher_config or version_name is not None or any(
                x is not None for x in (classifier, builder, model)
            ):
                # Silently dropping these would leave the caller believing
                # they configured something they did not.
                raise ValueError(
                    "store/classifier/builder/model, batcher settings, and "
                    "version_name apply only when the service builds its "
                    "own registry; configure them on the ModelRegistry "
                    "and its versions instead"
                )
            self.registry = registry
        else:
            if store is None:
                raise ValueError("an AuditService needs a store or a registry")
            self.registry = ModelRegistry(**batcher_config)
            self.registry.add(
                version_name if version_name is not None else DEFAULT_VERSION,
                store,
                classifier=classifier,
                builder=builder,
                model=model,
            )

    # -- construction -------------------------------------------------------

    @classmethod
    def from_model(cls, model, store: ClaimScoreStore | None = None, **kwargs):
        """Build a service from a fitted :class:`NBMIntegrityModel`.

        Scores every distinct claim of the model's builder up front
        (unless a pre-built ``store`` is given).
        """
        if store is None:
            store = ClaimScoreStore.build(model.classifier, model.builder)
        return cls(
            store,
            classifier=model.classifier,
            builder=model.builder,
            model=model,
            **kwargs,
        )

    @classmethod
    def from_artifacts(cls, path: str, builder=None, **kwargs):
        """Load a standalone service from a bundle directory.

        The bundle must contain both the model artifacts and the saved
        score store (written by :meth:`save`).  ``builder``, when given a
        compatible live :class:`FeatureBuilder`, is re-warmed from the
        bundle's encoder state and enables cold-path scoring.
        """
        registry = ModelRegistry(
            **{
                k: kwargs.pop(k)
                for k in ("max_batch", "max_delay_s", "cache_size")
                if k in kwargs
            }
        )
        registry.load(
            kwargs.pop("version_name", DEFAULT_VERSION), path, builder=builder
        )
        return cls(registry=registry, **kwargs)

    @classmethod
    def from_registry(cls, registry: ModelRegistry, **kwargs):
        """Bind a service to a pre-populated multi-version registry."""
        return cls(registry=registry, **kwargs)

    def save(self, path: str, feature_names=None) -> str:
        """Persist the default version into directory ``path``: a model
        artifact bundle (``model/``) and a single-shard score-store
        bundle (``store/``), both crash-safe :mod:`repro.utils.persist`
        bundles."""
        version = self.registry.default
        if version.classifier is None:
            raise RuntimeError("service has no classifier to save")
        if feature_names is None and version.builder is not None:
            feature_names = version.builder.feature_names
        save_model_artifacts(
            os.path.join(path, MODEL_SUBDIR),
            version.classifier,
            feature_names=feature_names,
            builder=version.builder,
        )
        version.store.save_sharded(os.path.join(path, STORE_SUBDIR), shards=1)
        return path

    # -- version management --------------------------------------------------

    def add_version(
        self,
        name: str,
        store: ClaimScoreStore,
        classifier=None,
        builder=None,
        model=None,
        default: bool | None = None,
        fault_plan=None,
        breaker=None,
    ) -> ModelVersion:
        """Register another named (model, store) version."""
        return self.registry.add(
            name,
            store,
            classifier=classifier,
            builder=builder,
            model=model,
            default=default,
            fault_plan=fault_plan,
            breaker=breaker,
        )

    def activate(self, name: str) -> ModelVersion:
        """Atomically hot-swap the default version (see the registry docs)."""
        return self.registry.activate(name)

    def _resolve(self, version: str | None) -> ModelVersion:
        return self.registry.resolve(version)

    # -- default-version views (back-compat with the single-store facade) ----

    @property
    def store(self) -> ClaimScoreStore:
        return self.registry.default.store

    @property
    def classifier(self):
        return self.registry.default.classifier

    @property
    def builder(self):
        return self.registry.default.builder

    @property
    def model(self):
        return self.registry.default.model

    @property
    def batcher(self):
        return self.registry.default.batcher

    # -- single-claim path (micro-batched) ----------------------------------

    def score_claim_async(
        self,
        provider_id: int,
        cell: int,
        technology: int,
        state: str | None = None,
        version: str | None = None,
        deadline=None,
    ):
        """Enqueue one claim lookup; returns a Future resolving to the
        score record (or ``None`` for an unknown claim with no ``state``).

        Requests from concurrent callers coalesce into one vectorized
        batch per flush of the resolved version's batcher.  ``state``
        marks the request *cold-capable*: a claim absent from the store
        is then scored live as a hypothetical filing (requires a
        classifier and builder).
        """
        return self._resolve(version).score_claim_async(
            provider_id, cell, technology, state, deadline=deadline
        )

    def score_claim(
        self,
        provider_id: int,
        cell: int,
        technology: int,
        state: str | None = None,
        version: str | None = None,
        deadline=None,
    ) -> dict | None:
        """Synchronous :meth:`score_claim_async` (submits, flushes, waits)."""
        return self._resolve(version).score_claim(
            provider_id, cell, technology, state, deadline=deadline
        )

    # -- bulk path (direct, no queue) ---------------------------------------

    def score_claims(
        self, provider_id, cell, technology, version: str | None = None
    ) -> list[dict | None]:
        """Score a batch of claim keys in one vectorized store lookup.

        ``None`` marks keys absent from the store (bulk calls do not take
        the cold path — use :meth:`score_claim` with ``state`` for
        hypotheticals).
        """
        return self._resolve(version).score_claims(provider_id, cell, technology)

    # -- top-k, pagination, and summaries ------------------------------------

    def top_suspicious(
        self,
        k: int = 10,
        provider_id: int | None = None,
        state: str | None = None,
        technology: int | None = None,
        cell: int | None = None,
        version: str | None = None,
    ) -> list[dict]:
        """The k most suspicious claims matching the filters, as records."""
        store = self._resolve(version).store
        rows = store.top_suspicious(
            k=k,
            provider_id=provider_id,
            state_idx=state_index(state) if state is not None else None,
            technology=technology,
            cell=cell,
        )
        return store.records(rows)

    def _summary(self, store, mask: np.ndarray, head: dict, top_k: int) -> dict:
        n = int(np.count_nonzero(mask))
        if n == 0:
            return {**head, "n_claims": 0}
        scores = store.score[mask]
        top_rows = store.sus_order[mask[store.sus_order]][:top_k]
        return {
            **head,
            "n_claims": n,
            "mean_score": float(scores.mean()),
            "median_score": float(np.median(scores)),
            "max_score": float(scores.max()),
            "suspicious_share": float((scores >= self.threshold).mean()),
            "top_claims": store.records(top_rows),
        }

    def provider_summary(
        self, provider_id: int, top_k: int = 5, version: str | None = None
    ) -> dict:
        """Score profile of one provider's claims (threshold-based mix)."""
        store = self._resolve(version).store
        mask = store.claims.provider_id == np.int64(provider_id)
        return self._summary(store, mask, {"provider_id": int(provider_id)}, top_k)

    def state_summary(
        self, state: str, top_k: int = 5, version: str | None = None
    ) -> dict:
        """Score profile of one state's claims."""
        idx = state_index(state)
        store = self._resolve(version).store
        mask = store.claims.state_idx == np.int16(idx)
        return self._summary(store, mask, {"state": STATES[idx].abbr}, top_k)

    # -- audit-priority surface (repro.enrich.priority) -----------------------

    def priority_table(self, version: str | None = None):
        """The audit-priority table for a version's store, built lazily.

        Materialized once per (version, store etag) — a hot-swap or
        rebuild invalidates the cached table automatically because the
        new store carries a new etag.
        """
        resolved = self._resolve(version)
        store = resolved.store
        key = (resolved.name, store.etag)
        table = self._priority_cache.get(key)
        if table is None:
            from repro.enrich.priority import build_priority

            table = build_priority(store, enrichment=self.enrichment)
            self._priority_cache = {key: table}
        return table

    def priority_page(
        self,
        after_rank: int = 0,
        limit: int = 100,
        state: str | None = None,
        version: str | None = None,
    ) -> tuple[list[dict], int | None, int]:
        """One page of the descending audit-priority walk.

        Returns ``(records, next_rank, total)`` exactly like the store's
        suspicion pagination, with ranks in the unfiltered priority
        order.
        """
        table = self.priority_table(version)
        state_idx = state_index(state) if state is not None else None
        return table.page(
            after_rank=after_rank, limit=limit, state_idx=state_idx
        )

    # -- labelled reports (reuse repro.core.reports) ------------------------

    def slice_report(self, observations, slice_name: str, **kwargs):
        """Outcome-mix report for labelled observations (paper Tables 7–8).

        Delegates to :func:`repro.core.reports.slice_report`; requires the
        service to have been built :meth:`from_model` (labels and fresh
        vectorization need the live model + builder).
        """
        if self.model is None:
            raise RuntimeError(
                "labelled slice reports require a service built from_model()"
            )
        from repro.core.reports import slice_report as _slice_report

        return _slice_report(self.model, observations, slice_name, **kwargs)

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        self.registry.close()
