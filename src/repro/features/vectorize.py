"""Observation vectorization (paper Table 4).

Each (provider, cell, technology) observation becomes a float vector:

========================  =====================================================
Feature                   Vectorization
========================  =====================================================
Max advertised speeds     max reported download/upload in the cell (NBM floors)
Low latency               0/1 flag
State                     one-hot over 56 states/territories
Location centroid         cell centroid latitude and longitude
Location claims           claimed BSLs / total BSLs in the cell
Methodology               hashed-n-gram embedding of the filing methodology
Ookla tests               unique devices per location in the cell
MLab tests                attributed test count for (provider, cell)
Technology                one-hot over BDC technology codes
========================  =====================================================

Speed-test attributes deliberately exclude measured throughput — the paper
avoids comparing in-home test results against advertised maxima, using the
*presence* of tests instead.

Batched vectorization is columnar end to end: observations are transposed
into parallel arrays once (:func:`repro.dataset.observations.observation_columns`
— the only remaining per-observation Python loop, pure attribute
extraction), and every lookup that used to be a ``dict`` probe per row is
a fancy-indexed gather over a columnar store:

=======================  =====================================================
Lookup                   Columnar source
=======================  =====================================================
Claim attributes         :meth:`repro.fcc.bdc.AvailabilityTable.columnar`
                         (:class:`~repro.fcc.bdc.ClaimColumns.positions` +
                         gathers; tier fallback per distinct missing
                         (provider, technology) pair)
BSLs per cell            :meth:`repro.fcc.fabric.Fabric.bsl_counts_in_cells`
Ookla coverage scores    sorted cell/score arrays built at construction
MLab test counts         :meth:`repro.dataset.likely_served.MLabLocalization.provider_test_counts`
State / technology       ``index_array`` on the one-hot encoders
Centroids, embeddings    one cached lookup per *distinct* cell / provider
=======================  =====================================================

:meth:`FeatureBuilder.vectorize` fills a preallocated ``(n, d)`` matrix by
slice assignment from those gathers; :meth:`FeatureBuilder.vectorize_one`
keeps the row-at-a-time construction as the readable reference, and a
regression test asserts both agree bitwise.
"""

from __future__ import annotations

import numpy as np

from repro.dataset.likely_served import MLabLocalization
from repro.dataset.observations import Observation, observation_columns
from repro.enrich.overstatement import (
    BASE_FEATURE_SET_VERSION,
    ENRICHED_FEATURE_SET_VERSION,
    Enrichment,
)
from repro.fcc.bdc import AvailabilityTable, ClaimKey
from repro.fcc.fabric import Fabric
from repro.fcc.providers import ProviderUniverse
from repro.features.embedding import TextEmbedder
from repro.features.encoders import StateOneHot, TechnologyOneHot
from repro.geo import hexgrid
from repro.utils.indexing import ColumnIndex

__all__ = ["FeatureBuilder", "CORE_FEATURES"]

#: Names of the scalar (non-one-hot, non-embedding) features, in order.
CORE_FEATURES = (
    "Max Adv. DL Speed (Mbps)",
    "Max Adv. UL Speed (Mbps)",
    "Low Latency",
    "H3 Centroid Lat",
    "H3 Centroid Lng",
    "Location Claims Pct",
    "Ookla (Dev/Loc)",
    "MLab Test Counts",
)


class FeatureBuilder:
    """Precomputes per-claim attributes and vectorizes observations."""

    def __init__(
        self,
        fabric: Fabric,
        universe: ProviderUniverse,
        table: AvailabilityTable,
        coverage_scores: dict[int, float],
        localization: MLabLocalization,
        embedding_dim: int = 32,
        enrichment: Enrichment | None = None,
    ):
        self.fabric = fabric
        self.universe = universe
        self.coverage_scores = coverage_scores
        self.localization = localization
        self.enrichment = enrichment
        self.embedder = TextEmbedder(dim=embedding_dim)
        self._state_encoder = StateOneHot()
        self._tech_encoder = TechnologyOneHot()
        # The filing table rolls up to its hex-level claims.
        self._claims = table.columnar()
        # Scalar-path dict view of the same aggregates, built lazily on
        # first vectorize_one/_claim_scalars use so batch-only consumers
        # never pay the per-claim Python loop (the independent reference
        # aggregation lives on in :meth:`_precompute_claim_attrs` for the
        # equivalence tests).
        self._claim_attrs_cache: (
            dict[ClaimKey, tuple[int, float, float, bool]] | None
        ) = None
        # Enrichment feature block per claim-table row, computed lazily on
        # the first enriched batch: the block is a pure elementwise
        # function of the claim row, so batches gather cached rows instead
        # of re-running the truth-map and challenge joins every call.
        self._enrich_rows: np.ndarray | None = None
        # Coverage scores as a columnar (cell -> score) table.
        cov_cells = np.fromiter(
            coverage_scores.keys(), dtype=np.uint64, count=len(coverage_scores)
        )
        self._cov_index = ColumnIndex(cov_cells)
        self._cov_values = np.fromiter(
            coverage_scores.values(), dtype=np.float64, count=len(coverage_scores)
        )
        self._embeddings: dict[int, np.ndarray] = {}
        self._centroids: dict[int, tuple[float, float]] = {}

    # -- precomputation -----------------------------------------------------

    @staticmethod
    def _precompute_claim_attrs(
        table: AvailabilityTable,
    ) -> dict[ClaimKey, tuple[int, float, float, bool]]:
        """(claimed BSLs, max down, max up, low latency) per hex claim."""
        keys = table.claim_keys()
        uniq, inverse = np.unique(keys, return_inverse=True)
        n = uniq.size
        counts = np.bincount(inverse, minlength=n)
        down = np.zeros(n)
        up = np.zeros(n)
        lowlat = np.zeros(n, dtype=bool)
        np.maximum.at(down, inverse, table.published_download())
        np.maximum.at(up, inverse, table.published_upload())
        np.logical_or.at(lowlat, inverse, table.low_latency)
        out: dict[ClaimKey, tuple[int, float, float, bool]] = {}
        for i, k in enumerate(uniq):
            key = (int(k["provider_id"]), int(k["cell"]), int(k["technology"]))
            out[key] = (int(counts[i]), float(down[i]), float(up[i]), bool(lowlat[i]))
        return out

    def _embedding_for(self, provider_id: int) -> np.ndarray:
        emb = self._embeddings.get(provider_id)
        if emb is None:
            provider = self.universe.provider(provider_id)
            emb = self.embedder.embed(provider.methodology_text)
            self._embeddings[provider_id] = emb
        return emb

    def _centroid(self, cell: int) -> tuple[float, float]:
        point = self._centroids.get(cell)
        if point is None:
            point = hexgrid.cell_to_latlng(cell)
            self._centroids[cell] = point
        return point

    # -- public API -----------------------------------------------------------

    @property
    def feature_names(self) -> list[str]:
        names = (
            list(CORE_FEATURES)
            + self._state_encoder.feature_names
            + self._tech_encoder.feature_names
            + [f"Methodology_Emb_{i}" for i in range(self.embedder.dim)]
        )
        if self.enrichment is not None:
            names += list(self.enrichment.feature_names)
        return names

    @property
    def n_features(self) -> int:
        return (
            len(CORE_FEATURES)
            + self._state_encoder.dim
            + self._tech_encoder.dim
            + self.embedder.dim
            + (self.enrichment.dim if self.enrichment is not None else 0)
        )

    @property
    def feature_set_version(self) -> int:
        """Version stamped into encoder manifests (base = 1, enriched = 2).

        Persisted artifacts refuse to restore across a mismatch: a model
        trained on the enriched feature block must never score through a
        base builder, and vice versa.
        """
        return (
            ENRICHED_FEATURE_SET_VERSION
            if self.enrichment is not None
            else BASE_FEATURE_SET_VERSION
        )

    def vectorize_one(self, obs: Observation) -> np.ndarray:
        """Vectorize a single observation (see module docstring)."""
        n_claimed, down, up, lowlat = self._claim_scalars(obs)
        n_bsl = self.fabric.bsl_count_in_cell(obs.cell)
        claims_pct = n_claimed / n_bsl if n_bsl else 0.0
        lat, lng = self._centroid(obs.cell)
        core = np.array(
            [
                down,
                up,
                1.0 if lowlat else 0.0,
                lat,
                lng,
                claims_pct,
                self.coverage_scores.get(obs.cell, 0.0),
                float(self.localization.provider_test_count(obs.provider_id, obs.cell)),
            ]
        )
        parts = [
            core,
            self._state_encoder.encode(obs.state),
            self._tech_encoder.encode(obs.technology),
            self._embedding_for(obs.provider_id),
        ]
        if self.enrichment is not None:
            # Length-1-batch call into the same columnar path, so the
            # row-at-a-time reference stays bitwise-equal to vectorize.
            parts.append(
                self.enrichment.feature_columns(
                    np.array([obs.provider_id], dtype=np.int64),
                    np.array([obs.cell], dtype=np.uint64),
                    np.array([down], dtype=np.float64),
                    np.array([up], dtype=np.float64),
                )[0]
            )
        return np.concatenate(parts)

    @property
    def _claim_attrs(self) -> dict[ClaimKey, tuple[int, float, float, bool]]:
        if self._claim_attrs_cache is None:
            claims = self._claims
            self._claim_attrs_cache = {
                claims.key_at(i): (
                    int(claims.claimed_count[i]),
                    float(claims.max_download_mbps[i]),
                    float(claims.max_upload_mbps[i]),
                    bool(claims.low_latency[i]),
                )
                for i in range(len(claims))
            }
        return self._claim_attrs_cache

    def _claim_scalars(
        self, obs: Observation
    ) -> tuple[int, float, float, bool]:
        """(claimed BSLs, max down, max up, low latency) with tier fallback."""
        attrs = self._claim_attrs.get(obs.claim_key)
        if attrs is not None:
            return attrs
        # Claim absent from the filing table (e.g., probing a hypothetical
        # claim): fall back to provider tier attributes.
        provider = self.universe.provider(obs.provider_id)
        try:
            tier = provider.tier_for(obs.technology)
            return 0, tier.max_download_mbps, tier.max_upload_mbps, tier.low_latency
        except KeyError:
            return 0, 0.0, 0.0, False

    def _claim_columns(
        self, provider_id: np.ndarray, cell: np.ndarray, technology: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Batched :meth:`_claim_scalars`: (count, down, up, lowlat, pos).

        Claims present in the filing table resolve through one vectorized
        :meth:`~repro.fcc.bdc.ClaimColumns.positions` lookup (``pos`` is
        that lookup's result, ``-1`` = absent); absent ones fall back to
        provider tier attributes, computed once per distinct missing
        (provider, technology) pair.
        """
        claims = self._claims
        pos = claims.positions(provider_id, cell, technology)
        found = pos >= 0
        safe = np.where(found, pos, 0)
        n_claimed = np.where(found, claims.claimed_count[safe], 0)
        down = np.where(found, claims.max_download_mbps[safe], 0.0)
        up = np.where(found, claims.max_upload_mbps[safe], 0.0)
        lowlat = np.where(found, claims.low_latency[safe], False)
        if not found.all():
            miss = np.where(~found)[0]
            pairs = np.stack(
                [provider_id[miss], technology[miss]], axis=1
            ).astype(np.int64)
            uniq_pairs, inv = np.unique(pairs, axis=0, return_inverse=True)
            fb = np.empty((uniq_pairs.shape[0], 3))
            for j, (pid, tech) in enumerate(uniq_pairs):
                provider = self.universe.provider(int(pid))
                try:
                    tier = provider.tier_for(int(tech))
                    fb[j] = (
                        tier.max_download_mbps,
                        tier.max_upload_mbps,
                        float(tier.low_latency),
                    )
                except KeyError:
                    fb[j] = (0.0, 0.0, 0.0)
            down[miss] = fb[inv, 0]
            up[miss] = fb[inv, 1]
            lowlat[miss] = fb[inv, 2] != 0.0
        return n_claimed, down, up, lowlat, pos

    @property
    def claims(self):
        """The columnar claim store backing this builder (frozen arrays).

        The distinct hex-level claims of the filing table —
        :class:`repro.fcc.bdc.ClaimColumns` — which the serve layer
        enumerates to precompute every claim's score.
        """
        return self._claims

    def vectorize(self, observations: list[Observation]) -> np.ndarray:
        """Vectorize a list of observations into an (n, d) matrix.

        Columnar fast path: equivalent to stacking
        :meth:`vectorize_one` rows, but transposes the batch once
        (:func:`~repro.dataset.observations.observation_columns`) and
        delegates to :meth:`vectorize_columns`.
        """
        if not observations:
            return np.empty((0, self.n_features))
        return self.vectorize_columns(observation_columns(observations))

    def vectorize_columns(self, cols) -> np.ndarray:
        """Vectorize an :class:`~repro.dataset.observations.ObservationColumns`
        batch into an (n, d) matrix.

        The all-array entry point: consumers that already hold parallel
        claim arrays (the serve layer's score store above all) skip
        ``Observation`` object materialization entirely and fill a
        preallocated matrix from vectorized gathers (see module
        docstring).
        """
        n = len(cols)
        if n == 0:
            return np.empty((0, self.n_features))
        n_core = len(CORE_FEATURES)
        state_off = n_core
        tech_off = state_off + self._state_encoder.dim
        emb_off = tech_off + self._tech_encoder.dim
        X = np.zeros((n, self.n_features))

        n_claimed, down, up, lowlat, claim_pos = self._claim_columns(
            cols.provider_id, cols.cell, cols.technology
        )
        X[:, 0] = down
        X[:, 1] = up
        X[:, 2] = lowlat.astype(np.float64)

        # Claims percentage: claimed BSLs over Fabric BSLs in the cell.
        n_bsl = self.fabric.bsl_counts_in_cells(cols.cell)
        with np.errstate(divide="ignore", invalid="ignore"):
            X[:, 5] = np.where(
                n_bsl > 0, n_claimed / n_bsl.astype(np.float64), 0.0
            )

        # Ookla coverage scores: one vectorized (cell -> score) lookup.
        if self._cov_values.size:
            cov_pos = self._cov_index.positions(cols.cell)
            cov_found = cov_pos >= 0
            X[:, 6] = np.where(
                cov_found, self._cov_values[np.where(cov_found, cov_pos, 0)], 0.0
            )

        # MLab test counts: one two-column index lookup.
        X[:, 7] = self.localization.provider_test_counts(
            cols.provider_id, cols.cell
        ).astype(np.float64)

        # Centroids: one lookup per distinct cell, broadcast back to rows.
        uniq_cells, cell_inv = np.unique(cols.cell, return_inverse=True)
        centroids = np.array([self._centroid(int(c)) for c in uniq_cells])
        X[:, 3] = centroids[cell_inv, 0]
        X[:, 4] = centroids[cell_inv, 1]

        rows = np.arange(n)
        X[rows, state_off + self._state_encoder.index_array(cols.state)] = 1.0
        X[rows, tech_off + self._tech_encoder.index_array(cols.technology)] = 1.0

        # Embeddings: one (cached) embed per distinct provider.
        uniq_providers, provider_inv = np.unique(
            cols.provider_id, return_inverse=True
        )
        embeddings = np.vstack(
            [self._embedding_for(int(p)) for p in uniq_providers]
        )
        emb_end = emb_off + self.embedder.dim
        X[:, emb_off:emb_end] = embeddings[provider_inv]

        if self.enrichment is not None:
            # Rows backed by a filing-table claim gather the per-claim
            # cached block (the block is elementwise in the claim row, so
            # the gather is bitwise-identical to recomputing); only
            # hypothetical claims run the joins.
            found = claim_pos >= 0
            block = self._enrichment_rows()[np.where(found, claim_pos, 0)]
            if not found.all():
                miss = np.flatnonzero(~found)
                block[miss] = self.enrichment.feature_columns(
                    cols.provider_id[miss], cols.cell[miss], down[miss], up[miss]
                )
            X[:, emb_end:] = block
        return X

    def _enrichment_rows(self) -> np.ndarray:
        """The (n_claims, enrichment.dim) block for every claim-table row."""
        if self._enrich_rows is None:
            claims = self._claims
            self._enrich_rows = self.enrichment.feature_columns(
                claims.provider_id,
                claims.cell,
                claims.max_download_mbps,
                claims.max_upload_mbps,
            )
        return self._enrich_rows

    def labels(self, observations: list[Observation]) -> np.ndarray:
        """Binary label vector (1 = unserved/suspicious)."""
        return np.fromiter(
            (obs.unserved for obs in observations),
            dtype=np.int64,
            count=len(observations),
        )

    # -- persistence ----------------------------------------------------------

    def export_encoder_state(self) -> tuple[dict, dict[str, np.ndarray]]:
        """Encoder/embedding state as (JSON-safe manifest, array payload).

        Captures everything vectorization derives from *fitted or cached*
        state rather than the live world: the embedder spec, the one-hot
        category orders, and the provider-embedding / cell-centroid caches
        as parallel arrays.  :meth:`restore_encoder_state` on a compatible
        builder reinstates the caches so vectorization of previously-seen
        providers/cells is reproduced without recomputation (and bitwise
        identical — both caches are deterministic).
        """
        manifest = {
            "embedder": self.embedder.spec(),
            "feature_set_version": self.feature_set_version,
            "state_categories": list(self._state_encoder.categories),
            "technology_categories": [
                int(c) for c in self._tech_encoder.categories
            ],
        }
        emb_ids = np.fromiter(
            self._embeddings.keys(), dtype=np.int64, count=len(self._embeddings)
        )
        emb_matrix = (
            np.vstack([self._embeddings[int(p)] for p in emb_ids])
            if emb_ids.size
            else np.empty((0, self.embedder.dim))
        )
        cen_cells = np.fromiter(
            self._centroids.keys(), dtype=np.uint64, count=len(self._centroids)
        )
        cen_latlng = (
            np.array([self._centroids[int(c)] for c in cen_cells])
            if cen_cells.size
            else np.empty((0, 2))
        )
        arrays = {
            "embedding_provider_ids": emb_ids,
            "embedding_matrix": emb_matrix,
            "centroid_cells": cen_cells,
            "centroid_latlng": cen_latlng,
        }
        return manifest, arrays

    def restore_encoder_state(
        self, manifest: dict, arrays: dict[str, np.ndarray]
    ) -> None:
        """Reinstate caches exported by :meth:`export_encoder_state`.

        Raises ``ValueError`` when the stored embedder spec or category
        orders disagree with this builder's — restored caches would then
        silently produce different feature columns.
        """
        if manifest["embedder"] != self.embedder.spec():
            raise ValueError(
                f"stored embedder spec {manifest['embedder']} does not match "
                f"this builder's {self.embedder.spec()}"
            )
        # Manifests written before the enrichment layer carry no version
        # stamp and are by construction base-feature (version 1).
        stored_version = int(manifest.get("feature_set_version", 1))
        if stored_version != self.feature_set_version:
            raise ValueError(
                f"stored feature-set version {stored_version} does not match "
                f"this builder's {self.feature_set_version} — a model "
                "trained on one feature set cannot score through the other"
            )
        if tuple(manifest["state_categories"]) != self._state_encoder.categories:
            raise ValueError("stored state categories do not match this builder")
        if (
            tuple(manifest["technology_categories"])
            != self._tech_encoder.categories
        ):
            raise ValueError(
                "stored technology categories do not match this builder"
            )
        emb_ids = np.asarray(arrays["embedding_provider_ids"], dtype=np.int64)
        emb_matrix = np.asarray(arrays["embedding_matrix"], dtype=np.float64)
        if emb_matrix.shape != (emb_ids.size, self.embedder.dim):
            raise ValueError(
                f"embedding matrix must be ({emb_ids.size}, "
                f"{self.embedder.dim}), got {emb_matrix.shape}"
            )
        for i, pid in enumerate(emb_ids):
            self._embeddings[int(pid)] = emb_matrix[i].copy()
        cen_cells = np.asarray(arrays["centroid_cells"], dtype=np.uint64)
        cen_latlng = np.asarray(arrays["centroid_latlng"], dtype=np.float64)
        if cen_latlng.shape != (cen_cells.size, 2):
            raise ValueError(
                f"centroid array must be ({cen_cells.size}, 2), "
                f"got {cen_latlng.shape}"
            )
        for i, cell in enumerate(cen_cells):
            self._centroids[int(cell)] = (
                float(cen_latlng[i, 0]),
                float(cen_latlng[i, 1]),
            )
