"""The release path, run end to end through the public entry points.

One *release* is what a new BDC filing cycle costs before its map can be
served: simulate the world (``build_world``), attribute MLab tests and
build the truth map (``enrichment_from_world``), label
(``build_dataset``), featurize (``make_feature_builder``), train the GBDT
(``NBMIntegrityModel.fit``), score every claim (``ClaimScoreStore.build``),
write the bundle (``save_sharded``), map it back (``load_sharded``) and
evaluate on the holdout.  :func:`run_release` times exactly that sequence;
:func:`install_layer_spans` wraps the layer functions underneath it for
the traced run, and :func:`layer_metrics` turns the recorded spans into
per-layer self times and counts.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import time
from dataclasses import dataclass, replace

from spans import Tracer, self_times

import repro.core.pipeline as pipeline
import repro.dataset.likely_served as likely_served
import repro.enrich as enrich
import repro.enrich.truthmap as truthmap
from repro.core import NBMIntegrityModel, small, tiny
from repro.dataset import random_observation_split
from repro.dataset.observations import LabelledDataset
from repro.enrich import ChallengeJoin
from repro.features.vectorize import FeatureBuilder
from repro.ml.gbdt import GradientBoostedClassifier
from repro.ml.tree import FlatEnsemble, HistogramBinner
from repro.serve.store import ClaimScoreStore

__all__ = [
    "AUC_FLOOR",
    "Release",
    "install_layer_spans",
    "layer_metrics",
    "release_checks",
    "run_release",
    "world_config",
]

#: Holdout AUC below this fails the release (the tiny worlds score ~0.99).
AUC_FLOOR = 0.9

# World scales: (preset, BSLs per million, providers, MLab tests per
# served claim).  Each keeps the shape its workload is chosen for (see
# README.md) at a size where several releases fit in one measured run:
# ``dense`` is tiny() at default MLab density, where attribution is most of
# the release; ``sparse`` is small() with few tests, where FCC simulation,
# labelling, GBDT and store scoring dominate.
_SCALES = {
    "dense": (tiny, 12, 22, None),
    "sparse": (small, 40, 30, 0.0005),
}


def world_config(scale: str, seed: int, shrink: float = 1.0):
    """The scenario config of one world scale.

    ``shrink`` multiplies the BSL density (tests use ~0.25 for a
    seconds-long world through the same code).
    """
    preset, locations_per_million, n_providers, mlab_density = _SCALES[scale]
    cfg = preset(seed)
    cfg = replace(
        cfg,
        fabric=replace(
            cfg.fabric,
            locations_per_million=max(1, round(locations_per_million * shrink)),
        ),
        providers=replace(cfg.providers, n_providers=n_providers),
    )
    if mlab_density is not None:
        cfg = replace(
            cfg, mlab=replace(cfg.mlab, tests_per_served_claim=mlab_density)
        )
    return cfg


@dataclass
class Release:
    """Everything one release produced, plus its wall time."""

    wall_s: float
    world: object
    enrichment: object
    dataset: LabelledDataset
    split: object
    model: NBMIntegrityModel
    built_etag: str
    store: ClaimScoreStore
    bundle_path: str
    auc: float


def run_release(cfg, bundle_path: str, tracer: Tracer | None = None) -> Release:
    """Config to a store loaded back from disk, then the holdout AUC.

    With a ``tracer`` every step is a span under one ``release`` root.
    """
    span = tracer.span if tracer is not None else _no_span
    if os.path.exists(bundle_path):
        shutil.rmtree(bundle_path)
    start = time.perf_counter()
    with span("release"):
        with span("core.build_world"):
            world = pipeline.build_world(cfg)
        with span("core.enrichment"):
            enrichment = pipeline.enrichment_from_world(world)
        with span("core.build_dataset"):
            dataset = pipeline.build_dataset(world)
        with span("dataset.split"):
            split = random_observation_split(dataset, test_fraction=0.1, seed=1)
        with span("features.builder"):
            builder = pipeline.make_feature_builder(world, enrichment=enrichment)
        with span("core.fit"):
            model = NBMIntegrityModel(builder, params=cfg.model)
            model.fit(dataset, split.train_idx)
        with span("store.score_build"):
            built = ClaimScoreStore.build(model.classifier, builder)
        with span("store.save"):
            built.save_sharded(bundle_path)
        with span("store.load"):
            store = ClaimScoreStore.load_sharded(bundle_path, mmap=True)
        with span("core.evaluate"):
            auc = model.evaluate(dataset, split).auc
    return Release(
        wall_s=time.perf_counter() - start,
        world=world,
        enrichment=enrichment,
        dataset=dataset,
        split=split,
        model=model,
        built_etag=built.etag,
        store=store,
        bundle_path=bundle_path,
        auc=float(auc),
    )


def _no_span(_name):
    return contextlib.nullcontext()


def release_checks(release: Release) -> list[str]:
    """The release's correctness gates; returns the failures, if any."""
    failures = []
    if release.store.etag != release.built_etag:
        failures.append(
            f"loaded etag {release.store.etag} != built {release.built_etag}"
        )
    tm = release.enrichment.truthmap
    counts = release.world.localization.test_counts
    if len(tm) != len(counts):
        failures.append(
            f"truth map has {len(tm)} tiles, localization {len(counts)} keys"
        )
    else:
        bad = sum(
            counts.get((int(p), int(c))) != int(n)
            for p, c, n in zip(tm.provider_id, tm.cell, tm.n_tests)
        )
        if bad:
            failures.append(f"{bad} truth-map tiles disagree with test_counts")
    if not release.auc >= AUC_FLOOR:
        failures.append(f"holdout AUC {release.auc:.4f} < {AUC_FLOOR}")
    return failures


def _radius_cells(args, kwargs, result):
    return len(result)


def _rows(args, kwargs, result):
    return result.shape[0]


#: (owner, attribute, span name, work counter) for every layer function
#: the release reaches.  Module-level functions are wrapped in the module
#: whose globals their caller reads them from.
_LAYER_FUNCTIONS = [
    (pipeline, "generate_fabric", "fcc.fabric", None),
    (pipeline, "generate_providers", "fcc.providers", None),
    (pipeline, "generate_filings", "fcc.filings", None),
    (pipeline, "simulate_challenges", "fcc.challenges", None),
    (pipeline, "build_release_timeline", "fcc.timeline", None),
    (pipeline, "infer_unarchived_changes", "fcc.timeline", None),
    (pipeline, "build_provider_id_table", "asn.crosswalk", None),
    (pipeline, "build_whois_registry", "asn.crosswalk", None),
    (pipeline, "match_providers_to_asns", "asn.crosswalk", None),
    (pipeline, "generate_ookla_tiles", "speedtests.ookla", None),
    (pipeline, "reproject_tiles", "speedtests.ookla", None),
    (pipeline, "service_coverage_scores", "speedtests.ookla", None),
    (pipeline, "generate_mlab_tests", "speedtests.mlab_generate", None),
    (pipeline, "localize_mlab_tests", "dataset.localize", None),
    (likely_served, "cells_within_radius", "geo.radius", _radius_cells),
    (truthmap, "cells_within_radius", "geo.radius", _radius_cells),
    (enrich, "build_truth_map", "enrich.truthmap", None),
    (ChallengeJoin, "from_records", "enrich.challenge_join", None),
    (pipeline, "build_labelled_dataset", "dataset.label", None),
    (pipeline, "balance_dataset", "dataset.label", None),
    (pipeline, "_claim_states", "dataset.label", None),
    (LabelledDataset, "filter", "dataset.label", None),
    (FeatureBuilder, "labels", "dataset.label", None),
    (FeatureBuilder, "vectorize", "features.vectorize", _rows),
    (FeatureBuilder, "vectorize_columns", "features.vectorize_columns", _rows),
    (GradientBoostedClassifier, "fit", "ml.gbdt_fit", None),
    (HistogramBinner, "transform", "ml.binner_transform", None),
    (GradientBoostedClassifier, "predict_margin", "ml.predict_margin", None),
    (FlatEnsemble, "predict_margin", "ml.predict_margin", None),
]


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap every layer function; undo with ``tracer.restore()``."""
    for owner, attr, name, count in _LAYER_FUNCTIONS:
        tracer.wrap(owner, attr, name, count=count)


#: Per-layer ``_s`` metric -> the span names whose self times it sums.
_SELF_TIME_METRICS = {
    "fcc.fabric_s": ("fcc.fabric",),
    "fcc.providers_s": ("fcc.providers",),
    "fcc.filings_s": ("fcc.filings",),
    "fcc.challenges_s": ("fcc.challenges",),
    "fcc.timeline_s": ("fcc.timeline",),
    "asn.crosswalk_s": ("asn.crosswalk",),
    "speedtests.ookla_s": ("speedtests.ookla",),
    "speedtests.mlab_generate_s": ("speedtests.mlab_generate",),
    "geo.radius_s": ("geo.radius",),
    "dataset.localize_s": ("dataset.localize",),
    "dataset.label_s": ("dataset.label", "dataset.split"),
    "enrich.truthmap_s": ("enrich.truthmap",),
    "enrich.challenge_join_s": ("enrich.challenge_join",),
    "features.builder_s": ("features.builder",),
    "features.vectorize_s": ("features.vectorize",),
    "features.vectorize_columns_s": ("features.vectorize_columns",),
    "ml.gbdt_fit_s": ("ml.gbdt_fit",),
    "ml.binner_transform_s": ("ml.binner_transform",),
    "ml.predict_margin_s": ("ml.predict_margin",),
    "store.score_build_s": ("store.score_build",),
    "store.save_s": ("store.save",),
    "store.load_s": ("store.load",),
    "core.glue_s": (
        "core.build_world",
        "core.enrichment",
        "core.build_dataset",
        "core.fit",
        "core.evaluate",
    ),
}


def layer_metrics(tracer: Tracer, release: Release) -> dict[str, float]:
    """Per-layer self times and counts of one traced release.

    Every span is covered by exactly one ``_s`` metric or is the
    ``release`` root, whose self time is the unaccounted remainder; the
    caller checks that the sum reconciles with the root's duration.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    by_name: dict[str, float] = {}
    inclusive: dict[str, float] = {}
    for s, own in zip(spans, selfs):
        by_name[s.name] = by_name.get(s.name, 0.0) + own
        inclusive[s.name] = inclusive.get(s.name, 0.0) + s.duration
    (root,) = [i for i, s in enumerate(spans) if s.parent < 0]
    wall = spans[root].duration
    covered = {n for names in _SELF_TIME_METRICS.values() for n in names}
    stray = set(by_name) - covered - {"release"}
    if stray:
        raise RuntimeError(f"spans not mapped to a layer metric: {sorted(stray)}")

    def work(name: str, parent: str | None = None) -> float:
        return sum(
            s.work
            for s in spans
            if s.name == name
            and (
                parent is None
                or (s.parent >= 0 and spans[s.parent].name == parent)
            )
        )

    out = {
        metric: sum(by_name.get(n, 0.0) for n in names)
        for metric, names in _SELF_TIME_METRICS.items()
    }
    world = release.world
    loc = world.localization
    # Claimed (provider, cell) hits over the candidate cells the
    # localization pass examined (its own radius queries only).
    hits = sum(loc.test_counts.values())
    localize_cells = work("geo.radius", parent="dataset.localize")
    out.update(
        {
            "fcc.claims": float(len(release.store)),
            "speedtests.mlab_tests": float(len(world.mlab_tests)),
            "geo.radius_calls": float(
                sum(1 for s in spans if s.name == "geo.radius")
            ),
            "geo.radius_cells": work("geo.radius"),
            "dataset.localize_tests_kept": float(
                len(world.mlab_tests)
                - loc.n_dropped_radius
                - loc.n_dropped_unattributed
            ),
            "dataset.localize_pairs": float(len(loc.test_counts)),
            "dataset.localize_hit_ratio": (
                hits / localize_cells if localize_cells else 0.0
            ),
            "dataset.observations": float(len(release.dataset)),
            "enrich.truthmap_tiles": float(len(release.enrichment.truthmap)),
            # Attribution = both passes over the tests, radius queries
            # included (inclusive, not self, time).
            "enrich.attribution_share": (
                inclusive.get("dataset.localize", 0.0)
                + inclusive.get("enrich.truthmap", 0.0)
            )
            / wall,
            "features.rows": work("features.vectorize")
            + work("features.vectorize_columns"),
            "ml.trees": float(len(release.model.classifier.trees)),
            "store.bundle_bytes": float(_tree_bytes(release.bundle_path)),
            "release.traced_s": wall,
            "release.unaccounted_frac": selfs[root] / wall,
        }
    )
    return out


def _tree_bytes(path: str) -> int:
    total = 0
    for dirpath, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total
