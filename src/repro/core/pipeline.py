"""End-to-end pipeline: simulate the world, derive the labelled dataset.

``build_world`` runs the full data-generation chain the paper assembles
from public sources:

    Fabric -> providers -> BDC filings -> challenges -> NBM releases
           -> FRN table -> WHOIS registry -> ASN crosswalk
           -> Ookla tiles -> hex re-projection -> coverage scores
           -> MLab tests -> attribution + localization

``build_dataset`` then assembles the labelled observations (challenges +
changes + synthetic likely-served, balanced per provider/state), and
``make_feature_builder`` wires up Table-4 vectorization over the
filings' columnar claim store.

``docs/ARCHITECTURE.md`` (repo root) expands this chain into a
module-by-module map, including the columnar-store and binned-inference
layers underneath feature building and scoring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.asn.matching import CrosswalkResult, match_providers_to_asns
from repro.asn.whois import WhoisRegistry, build_whois_registry
from repro.core.config import ScenarioConfig
from repro.dataset.balance import balance_dataset
from repro.dataset.labeling import LabelingInputs, _claim_states, build_labelled_dataset
from repro.dataset.likely_served import (
    MLabLocalization,
    localize_mlab_tests,
    service_coverage_scores,
)
from repro.dataset.observations import LabelledDataset
from repro.fcc.bdc import AvailabilityTable, ClaimKey, generate_filings
from repro.fcc.challenges import ChallengeRecord, simulate_challenges
from repro.fcc.fabric import Fabric, generate_fabric
from repro.fcc.frn import ProviderIDTable, build_provider_id_table
from repro.fcc.providers import ProviderUniverse, generate_providers
from repro.fcc.releases import (
    ReleaseTimeline,
    build_release_timeline,
    infer_unarchived_changes,
)
from repro.features.vectorize import FeatureBuilder
from repro.geo.reproject import HexAggregate, OoklaTileAggregate, reproject_tiles
from repro.obs.metrics import get_metrics
from repro.speedtests.mlab import MLabTest, generate_mlab_tests
from repro.speedtests.ookla import generate_ookla_tiles

__all__ = [
    "PipelineHooks",
    "SimulationWorld",
    "build_world",
    "build_dataset",
    "make_feature_builder",
    "enrichment_from_world",
]


@dataclass(frozen=True)
class PipelineHooks:
    """Stage hooks into :func:`build_world` — the scenario-mutator surface.

    Each hook runs immediately after its stage produces an artifact and
    may either mutate that artifact in place and return ``None``, or
    return a replacement.  Downstream stages (challenges, Ookla tiles,
    MLab tests, labels, ...) all consume the hooked artifact, so a
    mutation propagates through the whole simulated world exactly as a
    real filing pathology would propagate through the real data chain.

    The scenario registry (:mod:`repro.scenarios`) builds adversarial
    worlds exclusively through these hooks; the Jefferson County Cable
    case study's ``mutate_universe`` is the ``post_universe`` special
    case kept as a convenience parameter on :func:`build_world`.
    """

    #: ``(fabric, universe) -> ProviderUniverse | None`` — after provider
    #: generation, before filings (add providers, rewrite footprints).
    post_universe: Callable | None = None
    #: ``(fabric, universe, table) -> AvailabilityTable | None`` — after
    #: filing generation, before challenges and crowdsource signals.
    post_filings: Callable | None = None
    #: ``(table, universe, challenges) -> list[ChallengeRecord] | None``
    #: — after the challenge simulation, before the release timeline.
    post_challenges: Callable | None = None
    #: ``(table, challenges, timeline) -> ReleaseTimeline | None`` —
    #: after release-timeline assembly, before map-diff change inference.
    post_timeline: Callable | None = None


def _apply_hook(hook, artifact, *args):
    """Run one stage hook; a ``None`` return keeps the (mutated) artifact."""
    if hook is None:
        return artifact
    replacement = hook(*args, artifact)
    return artifact if replacement is None else replacement


@dataclass
class SimulationWorld:
    """Every artifact of one simulated BDC cycle."""

    config: ScenarioConfig
    fabric: Fabric
    universe: ProviderUniverse
    table: AvailabilityTable
    challenges: list[ChallengeRecord]
    timeline: ReleaseTimeline
    changes: frozenset[ClaimKey]
    provider_table: ProviderIDTable
    registry: WhoisRegistry
    crosswalk: CrosswalkResult
    ookla_tiles: list[OoklaTileAggregate]
    hex_aggregates: dict[int, HexAggregate]
    mlab_tests: list[MLabTest]
    coverage_scores: dict[int, float]
    localization: MLabLocalization

    def labeling_inputs(self) -> LabelingInputs:
        return LabelingInputs(
            table=self.table,
            challenges=self.challenges,
            changes=self.changes,
            coverage_scores=self.coverage_scores,
            localization=self.localization,
        )


def build_world(
    config: ScenarioConfig,
    mutate_universe=None,
    hooks: PipelineHooks | None = None,
) -> SimulationWorld:
    """Run the full simulation chain for a scenario.

    ``mutate_universe(fabric, universe)``, when given, runs after provider
    generation and before filings — the hook the Jefferson County Cable
    case study uses to inject its deliberately-overclaiming provider.
    ``hooks`` generalizes it to every pipeline stage
    (:class:`PipelineHooks`); ``mutate_universe`` runs before
    ``hooks.post_universe`` when both are given.
    """
    seed = config.seed
    hooks = hooks or PipelineHooks()

    # Per-stage wall-time telemetry in the process-wide registry: every
    # stage (and the hooks riding its seam) lands in one histogram
    # labelled by stage name, so slow-world diagnoses don't need a
    # profiler run.
    def _stage(name: str):
        return get_metrics().histogram("pipeline_stage_seconds", stage=name).time()

    with _stage("fabric"):
        fabric = generate_fabric(config.fabric, seed=seed)
    with _stage("providers"):
        universe = generate_providers(fabric, config.providers, seed=seed)
        if mutate_universe is not None:
            mutate_universe(fabric, universe)
        universe = _apply_hook(hooks.post_universe, universe, fabric)
    with _stage("filings"):
        table = generate_filings(fabric, universe, seed=seed)
        table = _apply_hook(hooks.post_filings, table, fabric, universe)
    with _stage("challenges"):
        challenges = simulate_challenges(
            table, universe, config.challenges, seed=seed
        )
        challenges = _apply_hook(hooks.post_challenges, challenges, table, universe)
    with _stage("timeline"):
        timeline = build_release_timeline(
            table, universe, challenges,
            n_minor_releases=config.challenges.n_minor_releases, seed=seed,
        )
        timeline = _apply_hook(hooks.post_timeline, timeline, table, challenges)
        changes = infer_unarchived_changes(timeline, challenges)
    with _stage("whois"):
        provider_table = build_provider_id_table(universe, seed=seed)
        registry = build_whois_registry(universe, config.whois, seed=seed)
        crosswalk = match_providers_to_asns(provider_table, registry)

    with _stage("ookla"):
        ookla_tiles = generate_ookla_tiles(fabric, table, config.ookla, seed=seed)
        hex_aggregates = reproject_tiles(
            ookla_tiles, res=fabric.config.hex_resolution
        )
        coverage_scores = service_coverage_scores(fabric, hex_aggregates)

    with _stage("mlab"):
        routing = {pid: registry.routing_asns(pid) for pid in registry.ownership}
        mlab_tests = generate_mlab_tests(
            fabric, table, routing, config.mlab, seed=seed
        )
        claimed_by_provider = {
            p.provider_id: universe.claimed_cells(p.provider_id)
            for p in universe.providers
        }
        localization = localize_mlab_tests(
            mlab_tests,
            crosswalk,
            claimed_by_provider,
            res=fabric.config.hex_resolution,
        )
    return SimulationWorld(
        config=config,
        fabric=fabric,
        universe=universe,
        table=table,
        challenges=challenges,
        timeline=timeline,
        changes=changes,
        provider_table=provider_table,
        registry=registry,
        crosswalk=crosswalk,
        ookla_tiles=ookla_tiles,
        hex_aggregates=hex_aggregates,
        mlab_tests=mlab_tests,
        coverage_scores=coverage_scores,
        localization=localization,
    )


def build_dataset(
    world: SimulationWorld,
    use_challenges: bool = True,
    use_changes: bool = True,
    use_synthetic: bool = True,
    balance: bool = True,
    exclude_satellite: bool = True,
) -> LabelledDataset:
    """Assemble the labelled dataset (Fig. 7's ablation toggles included).

    With ``balance=True`` (the paper's configuration), synthetic
    likely-served labels are added per provider/state to offset the
    unserved-heavy challenge and change labels; ``use_synthetic`` then
    controls whether synthetic candidates are available at all.
    ``exclude_satellite`` drops claims from non-terrestrial providers, as
    the paper does (GSO satellite claims blanket the country and carry no
    integrity signal).
    """
    inputs = world.labeling_inputs()
    base = build_labelled_dataset(
        inputs,
        use_challenges=use_challenges,
        use_changes=use_changes,
        use_synthetic=False,
        coverage_threshold=world.config.coverage_threshold,
    )
    if use_synthetic and balance:
        dataset = balance_dataset(
            base,
            world.table,
            world.coverage_scores,
            world.localization,
            _claim_states(world.table),
            coverage_threshold=world.config.coverage_threshold,
        )
    elif use_synthetic:
        dataset = build_labelled_dataset(
            inputs,
            use_challenges=use_challenges,
            use_changes=use_changes,
            use_synthetic=True,
            coverage_threshold=world.config.coverage_threshold,
        )
    else:
        dataset = base
    if exclude_satellite:
        satellite = {
            p.provider_id for p in world.universe.providers if p.is_satellite
        }
        dataset = dataset.filter(lambda obs: obs.provider_id not in satellite)
    return dataset


def make_feature_builder(
    world: SimulationWorld, enrichment=None
) -> FeatureBuilder:
    """Wire the Table-4 feature builder for a world.

    The returned builder vectorizes observation batches columnarly (one
    preallocated matrix, grouped centroid/embedding fills) — the intended
    entry point for model training and batch scoring alike.  Passing an
    :class:`repro.enrich.Enrichment` (see :func:`enrichment_from_world`)
    appends the measured-truth feature block and bumps the builder's
    feature-set version.
    """
    return FeatureBuilder(
        fabric=world.fabric,
        universe=world.universe,
        table=world.table,
        coverage_scores=world.coverage_scores,
        localization=world.localization,
        embedding_dim=world.config.embedding_dim,
        enrichment=enrichment,
    )


def enrichment_from_world(world: SimulationWorld):
    """Build the measured-truth enrichment join for a simulated world.

    Reduces the world's MLab attribution (``world.localization``, computed
    once in :func:`build_world`) to per-(provider, cell) measured-speed
    tiles, and joins the simulated challenge outcomes at the same grain.
    """
    from repro.enrich import ChallengeJoin, Enrichment, build_truth_map

    truthmap = build_truth_map(world.localization)
    challenges = ChallengeJoin.from_records(world.challenges)
    return Enrichment(truthmap, challenges=challenges)
