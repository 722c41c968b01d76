"""The adversarial scenario mutators (one per documented claim pathology).

Every scenario is a seeded function ``(config, intensity) -> ScenarioWorld``
registered under a stable name.  Mutations run inside
:func:`repro.core.pipeline.build_world` through
:class:`~repro.core.pipeline.PipelineHooks`, so each pathology propagates
through the *entire* simulated data chain: injected claims draw (or fail
to draw) challenges, shape the release timeline, and leave the
crowdsource-absence fingerprints (no Ookla devices, no attributed MLab
tests) that make them detectable — exactly as in the real NBM.

Scenario catalogue
------------------

==============================  ==============================================
Name                            Pathology
==============================  ==============================================
``blanket_dsl_overclaim``       a DSL incumbent blankets whole states with
                                copper claims far beyond its plant
``satellite_everywhere``        a terrestrial ISP files a GSO-satellite-style
                                "everywhere" blanket with no plant at all
``stale_release_carryover``     quiet removals are suppressed: stale
                                overclaims survive every minor release
``phantom_provider``            a provider with zero true footprint files
                                fiber claims around real towns
``border_hex_spillover``        buffered footprints spill one hex ring past
                                every provider's true service edge
``challenge_suppressed_state``  top campaign states file no challenges, so
                                their overclaims carry no labels
``duplicate_frn_filing``        one operator files twice under two FRNs,
                                doubling its (over)claims
``speed_tier_inflation``        marketing-driven filings: absurd advertised
                                tiers plus a buffered footprint
``consultant_template_epidemic`` many small ISPs file word-identical
                                consultant text plus buffered overclaims
``overclaim_surge``             every terrestrial provider's overclaim rate
                                surges at once (the worst-map regime)
``speed_overstatement_gradient`` fast-tier claims spread over cells served
                                only by slow plant — just the measured-speed
                                enrichment sees the gap
``challenge_validated_overclaim`` overclaims into a provider's own served
                                cells, later conceded under challenge — the
                                challenge-join features carry the signal
==============================  ==============================================

All randomness is drawn from ``stream_rng(config.seed, "scenario", name,
...)`` so a scenario world is bitwise-reproducible from (config, name,
intensity) alone — the property the committed golden metrics rely on.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.config import ScenarioConfig
from repro.core.pipeline import PipelineHooks, SimulationWorld, build_world
from repro.fcc.bdc import AvailabilityTable, ClaimKey
from repro.fcc.challenges import ChallengeOutcome, ChallengeReason, ChallengeRecord
from repro.fcc.providers import (
    FootprintPair,
    Methodology,
    Provider,
    ProviderUniverse,
    ServiceTier,
    methodology_text,
)
from repro.fcc.releases import ReleaseTimeline, RemovalCause
from repro.fcc.states import STATES, challenge_weights
from repro.geo import hexgrid
from repro.scenarios.registry import ScenarioWorld, register
from repro.utils.rng import stream_rng

__all__ = [
    "SATELLITE_EVERYWHERE_PID",
    "PHANTOM_PROVIDER_PID",
    "DUPLICATE_FRN_PID",
]

#: Provider ids of scenario-injected providers (kept clear of both the
#: generated id range and the JCC case study's 999_999).
SATELLITE_EVERYWHERE_PID = 999_101
PHANTOM_PROVIDER_PID = 999_102
DUPLICATE_FRN_PID = 999_103


# -- shared helpers ----------------------------------------------------------


def _rng(config: ScenarioConfig, name: str, *parts):
    return stream_rng(config.seed, "scenario", name, *parts)


def _sample_cells(rng, cells, count: int) -> set[int]:
    """Deterministically sample ``count`` cells from an iterable of ints."""
    arr = sorted(int(c) for c in cells)
    if count >= len(arr):
        return set(arr)
    if count <= 0:
        return set()
    idx = rng.choice(len(arr), size=count, replace=False)
    return {arr[i] for i in idx}


def _extend_claimed(
    universe: ProviderUniverse,
    key: tuple[int, str, int],
    extra: set[int],
) -> None:
    """Grow one footprint's *claimed* cells (true cells untouched)."""
    fp = universe.footprints[key]
    universe.footprints[key] = FootprintPair(
        fp.true_cells, frozenset(fp.claimed_cells | extra)
    )


def _occupied_cells(fabric, abbr: str, cache: dict) -> set[int]:
    """Occupied cells of one state, memoized per mutator invocation."""
    occupied = cache.get(abbr)
    if occupied is None:
        occupied = set(fabric.cells_in_state(abbr))
        cache[abbr] = occupied
    return occupied


def _ring_candidates(
    fabric, abbr: str, fp: FootprintPair, occupied_cache: dict
) -> set[int]:
    """Occupied in-state cells one hex ring beyond a claimed footprint."""
    occupied = _occupied_cells(fabric, abbr, occupied_cache)
    claimed = np.fromiter(fp.claimed_cells, dtype=np.uint64, count=len(fp.claimed_cells))
    _, ring = hexgrid.grid_disk_vec(claimed, 1)
    return occupied.intersection(ring.tolist()) - fp.claimed_cells


def _claim_truth(table: AvailabilityTable) -> tuple[list[ClaimKey], np.ndarray, np.ndarray]:
    """Distinct claims with overclaim truth and state index."""
    claims = table.columnar()
    return claims.keys(), ~table.truly_served[table.claim_first_rows()], claims.state_idx


def _materialized(world: SimulationWorld, keys) -> frozenset[ClaimKey]:
    """Restrict candidate injected keys to claims present in the table."""
    keys = sorted(set(keys))
    if not keys:
        return frozenset()
    claims = world.table.columnar()
    pos = claims.positions(
        np.array([k[0] for k in keys], dtype=np.int64),
        np.array([k[1] for k in keys], dtype=np.uint64),
        np.array([k[2] for k in keys], dtype=np.int64),
    )
    return frozenset(k for k, p in zip(keys, pos) if p >= 0)


def _world(
    name: str,
    config: ScenarioConfig,
    intensity: float,
    hooks: PipelineHooks,
    candidates: list[ClaimKey],
    targets: set[int],
    notes: dict | None = None,
) -> ScenarioWorld:
    world = build_world(config, hooks=hooks)
    return ScenarioWorld(
        name=name,
        world=world,
        injected_keys=_materialized(world, candidates),
        target_provider_ids=frozenset(targets),
        intensity=intensity,
        notes=notes or {},
    )


def _scale(intensity: float, n: int, fraction: float = 1.0) -> int:
    return int(round(intensity * fraction * n))


# -- filing-side scenarios ---------------------------------------------------


@register(
    "blanket_dsl_overclaim",
    description=(
        "A copper incumbent blankets each of its states with DSL claims "
        "far beyond its true plant (the Form-477 census-block habit at "
        "its worst)."
    ),
    auc_floor=0.80,
    min_separation=10.0,
    tags=("filing",),
)
def blanket_dsl_overclaim(config: ScenarioConfig, intensity: float = 1.0) -> ScenarioWorld:
    candidates: list[ClaimKey] = []
    targets: set[int] = set()
    rng = _rng(config, "blanket_dsl_overclaim")

    def post_universe(fabric, universe):
        dsl_keys = [k for k in universe.footprints if k[2] == 10]
        if not dsl_keys:
            raise RuntimeError("no DSL footprints in this world; enlarge the scenario")
        # The incumbent with the widest copper plant files the blanket.
        totals: dict[int, int] = {}
        for pid, _abbr, _tech in dsl_keys:
            totals[pid] = totals.get(pid, 0) + len(
                universe.footprints[(pid, _abbr, 10)].true_cells
            )
        target = min(p for p, t in totals.items() if t == max(totals.values()))
        targets.add(target)
        # Blanket the provider's biggest copper states (capped at four so
        # a national incumbent doesn't swamp the whole filing table).
        keys = sorted(
            (k for k in dsl_keys if k[0] == target),
            key=lambda k: (-len(universe.footprints[k].true_cells), k),
        )[:4]
        for key in sorted(keys):
            _pid, abbr, _tech = key
            occupied = set(fabric.cells_in_state(abbr))
            extra_pool = occupied - universe.footprints[key].claimed_cells
            extra = _sample_cells(rng, extra_pool, _scale(intensity, len(extra_pool)))
            _extend_claimed(universe, key, extra)
            candidates.extend((target, cell, 10) for cell in extra)

    return _world(
        "blanket_dsl_overclaim",
        config,
        intensity,
        PipelineHooks(post_universe=post_universe),
        candidates,
        targets,
    )


@register(
    "satellite_everywhere",
    description=(
        "A terrestrial ISP files a GSO-satellite-style blanket — every "
        "occupied cell of several states — with no plant behind it."
    ),
    auc_floor=0.80,
    min_separation=10.0,
    tags=("filing", "new-provider"),
)
def satellite_everywhere(config: ScenarioConfig, intensity: float = 1.0) -> ScenarioWorld:
    candidates: list[ClaimKey] = []

    def post_universe(fabric, universe):
        by_size = sorted(
            (s.abbr for s in STATES if fabric.cells_in_state(s.abbr)),
            key=lambda a: (-len(fabric.cells_in_state(a)), a),
        )
        n_states = max(1, _scale(intensity, 6, 1.0))
        chosen = by_size[:n_states]
        tier = ServiceTier(
            technology=60, max_download_mbps=100.0, max_upload_mbps=12.0, low_latency=False
        )
        name = "Everywhere Broadband Inc"
        provider = Provider(
            provider_id=SATELLITE_EVERYWHERE_PID,
            name=name,
            brand_name="Everywhere Broadband",
            holding_company=name,
            size_class="local",  # *not* a real satellite operator
            states=tuple(chosen),
            tiers=(tier,),
            methodology=Methodology.CENSUS_BLOCKS,
            methodology_text=methodology_text(Methodology.CENSUS_BLOCKS, name),
            overclaim_rate=1.0,
            concede_propensity=0.9,
            self_correction_rate=0.0,
            frns=(39_999_101,),
            contact_email="noc@everywherebroadband.com",
            email_domain="everywherebroadband.com",
            hq_address="1 Blanket Way, Springfield, TX 75001",
            hq_state=chosen[0],
        )
        footprints = {}
        for abbr in chosen:
            cells = frozenset(int(c) for c in fabric.cells_in_state(abbr))
            footprints[(abbr, 60)] = FootprintPair(frozenset(), cells)
            candidates.extend((SATELLITE_EVERYWHERE_PID, cell, 60) for cell in cells)
        universe.add_provider(provider, footprints)

    return _world(
        "satellite_everywhere",
        config,
        intensity,
        PipelineHooks(post_universe=post_universe),
        candidates,
        {SATELLITE_EVERYWHERE_PID},
    )


@register(
    "phantom_provider",
    description=(
        "A provider with zero true footprint files fiber claims around "
        "real towns in two states — plant that simply does not exist."
    ),
    auc_floor=0.80,
    min_separation=10.0,
    tags=("filing", "new-provider"),
)
def phantom_provider(config: ScenarioConfig, intensity: float = 1.0) -> ScenarioWorld:
    candidates: list[ClaimKey] = []
    rng = _rng(config, "phantom_provider")

    def post_universe(fabric, universe):
        ranked = sorted(
            (s.abbr for s in STATES if fabric.towns_in_state(s.abbr)),
            key=lambda a: (-len(fabric.towns_in_state(a)), a),
        )
        chosen = ranked[:2]
        tier = ServiceTier(
            technology=50, max_download_mbps=940.0, max_upload_mbps=940.0, low_latency=True
        )
        name = "Lightspeed Fiber Holdings LLC"
        provider = Provider(
            provider_id=PHANTOM_PROVIDER_PID,
            name=name,
            brand_name="Lightspeed Fiber",
            holding_company=name,
            size_class="local",
            states=tuple(chosen),
            tiers=(tier,),
            methodology=Methodology.INFRASTRUCTURE_MAPS,
            methodology_text=methodology_text(Methodology.INFRASTRUCTURE_MAPS, name),
            overclaim_rate=1.0,
            concede_propensity=0.1,
            self_correction_rate=0.0,
            frns=(39_999_102,),
            contact_email="noc@lightspeedfiber.com",
            email_domain="lightspeedfiber.com",
            hq_address="500 Commerce Boulevard, Springfield, DE 19901",
            hq_state=chosen[0],
        )
        res = fabric.config.hex_resolution
        footprints = {}
        for abbr in chosen:
            towns = sorted(
                fabric.towns_in_state(abbr), key=lambda t: -t.weight
            )[:3]
            occupied = set(fabric.cells_in_state(abbr))
            centers = hexgrid.latlng_to_cell_vec(
                [t.lat for t in towns], [t.lng for t in towns], res
            )
            cells = occupied.intersection(hexgrid.grid_disk_vec(centers, 5)[1].tolist())
            cells = _sample_cells(rng, cells, _scale(intensity, len(cells)))
            footprints[(abbr, 50)] = FootprintPair(frozenset(), frozenset(cells))
            candidates.extend((PHANTOM_PROVIDER_PID, cell, 50) for cell in cells)
        universe.add_provider(provider, footprints)

    return _world(
        "phantom_provider",
        config,
        intensity,
        PipelineHooks(post_universe=post_universe),
        candidates,
        {PHANTOM_PROVIDER_PID},
    )


@register(
    "border_hex_spillover",
    description=(
        "Every terrestrial footprint spills one hex ring past its true "
        "edge — the universal sloppy-buffer / propagation-margin error."
    ),
    auc_floor=0.60,
    min_separation=5.0,
    tags=("filing", "global"),
)
def border_hex_spillover(config: ScenarioConfig, intensity: float = 1.0) -> ScenarioWorld:
    candidates: list[ClaimKey] = []
    targets: set[int] = set()
    rng = _rng(config, "border_hex_spillover")

    def post_universe(fabric, universe):
        occupied_cache: dict[str, set[int]] = {}
        for key in sorted(universe.footprints):
            pid, abbr, tech = key
            if tech == 60:
                continue
            fp = universe.footprints[key]
            ring = _ring_candidates(fabric, abbr, fp, occupied_cache)
            extra = _sample_cells(
                rng, ring, _scale(intensity, len(ring), fraction=0.5)
            )
            if not extra:
                continue
            _extend_claimed(universe, key, extra)
            targets.add(pid)
            candidates.extend((pid, cell, tech) for cell in extra)

    return _world(
        "border_hex_spillover",
        config,
        intensity,
        PipelineHooks(post_universe=post_universe),
        candidates,
        targets,
    )


@register(
    "duplicate_frn_filing",
    description=(
        "One operator files the same footprint twice under a second FRN "
        "— affiliated-entity double filing, overclaims included."
    ),
    auc_floor=0.60,
    min_separation=5.0,
    tags=("filing", "new-provider"),
)
def duplicate_frn_filing(config: ScenarioConfig, intensity: float = 1.0) -> ScenarioWorld:
    candidates: list[ClaimKey] = []

    def post_universe(fabric, universe):
        overclaims: dict[int, int] = {}
        for (pid, _abbr, tech), fp in universe.footprints.items():
            if tech == 60:
                continue
            overclaims[pid] = overclaims.get(pid, 0) + len(fp.overclaimed_cells)
        donor_id = min(p for p, n in overclaims.items() if n == max(overclaims.values()))
        donor = universe.provider(donor_id)
        clone = replace(
            donor,
            provider_id=DUPLICATE_FRN_PID,
            frns=(39_999_103,),
        )
        keys = sorted(
            (abbr, tech)
            for (pid, abbr, tech) in universe.footprints
            if pid == donor_id
        )
        keep = keys[: max(1, _scale(intensity, len(keys)))]
        footprints = {}
        for abbr, tech in keep:
            fp = universe.footprints[(donor_id, abbr, tech)]
            footprints[(abbr, tech)] = fp
            candidates.extend(
                (DUPLICATE_FRN_PID, cell, tech) for cell in fp.overclaimed_cells
            )
        universe.add_provider(clone, footprints)

    return _world(
        "duplicate_frn_filing",
        config,
        intensity,
        PipelineHooks(post_universe=post_universe),
        candidates,
        {DUPLICATE_FRN_PID},
    )


@register(
    "speed_tier_inflation",
    description=(
        "Marketing-driven filings: a few small ISPs advertise absurd "
        "gigabit-symmetric tiers on legacy plant while buffering their "
        "footprints outward."
    ),
    auc_floor=0.60,
    min_separation=5.0,
    tags=("filing",),
)
def speed_tier_inflation(config: ScenarioConfig, intensity: float = 1.0) -> ScenarioWorld:
    candidates: list[ClaimKey] = []
    targets: set[int] = set()
    rng = _rng(config, "speed_tier_inflation")

    def post_universe(fabric, universe):
        def _true_total(p):
            return sum(
                len(fp.true_cells)
                for (pid, _a, _t), fp in universe.footprints.items()
                if pid == p.provider_id
            )

        locals_ = sorted(
            (
                p
                for p in universe.providers
                if p.size_class == "local" and any(t.technology in (10, 70, 71) for t in p.tiers)
            ),
            key=lambda p: (-_true_total(p), p.provider_id),
        )
        chosen = locals_[: max(1, _scale(intensity, 3))]
        occupied_cache: dict[str, set[int]] = {}
        for provider in chosen:
            targets.add(provider.provider_id)
            inflated = tuple(
                tier
                if tier.technology == 60
                else ServiceTier(tier.technology, 2000.0, 2000.0, True)
                for tier in provider.tiers
            )
            universe.replace_provider(replace(provider, tiers=inflated))
            for key in sorted(
                k for k in universe.footprints if k[0] == provider.provider_id
            ):
                _pid, abbr, tech = key
                if tech == 60:
                    continue
                occupied = _occupied_cells(fabric, abbr, occupied_cache)
                fp = universe.footprints[key]
                pool = occupied - fp.claimed_cells
                # The marketing footprint grows with the marketing tier:
                # roughly double the plant's true extent gets claimed.
                extra = _sample_cells(
                    rng, pool, _scale(intensity, len(fp.true_cells), fraction=1.0)
                )
                _extend_claimed(universe, key, extra)
                candidates.extend((provider.provider_id, cell, tech) for cell in extra)

    return _world(
        "speed_tier_inflation",
        config,
        intensity,
        PipelineHooks(post_universe=post_universe),
        candidates,
        targets,
        notes={"inflated_download_mbps": 2000.0},
    )


@register(
    "consultant_template_epidemic",
    description=(
        "A consultant's word-identical methodology text spreads across "
        "many small ISPs, each arriving with a freshly buffered footprint."
    ),
    auc_floor=0.60,
    min_separation=5.0,
    tags=("filing", "methodology"),
)
def consultant_template_epidemic(
    config: ScenarioConfig, intensity: float = 1.0
) -> ScenarioWorld:
    candidates: list[ClaimKey] = []
    targets: set[int] = set()
    rng = _rng(config, "consultant_template_epidemic")

    def post_universe(fabric, universe):
        locals_ = sorted(
            (p for p in universe.providers if p.size_class == "local"),
            key=lambda p: p.provider_id,
        )
        chosen = locals_[: max(2, _scale(intensity, 6))]
        occupied_cache: dict[str, set[int]] = {}
        template = methodology_text(Methodology.CONSULTANT_TEMPLATE, "")
        for provider in chosen:
            targets.add(provider.provider_id)
            universe.replace_provider(
                replace(
                    provider,
                    methodology=Methodology.CONSULTANT_TEMPLATE,
                    methodology_text=template,
                )
            )
            for key in sorted(
                k for k in universe.footprints if k[0] == provider.provider_id
            ):
                _pid, abbr, tech = key
                if tech == 60:
                    continue
                occupied = _occupied_cells(fabric, abbr, occupied_cache)
                fp = universe.footprints[key]
                pool = occupied - fp.claimed_cells
                # The consultant's buffer roughly half-again the plant.
                extra = _sample_cells(
                    rng, pool, _scale(intensity, len(fp.true_cells), fraction=0.5)
                )
                _extend_claimed(universe, key, extra)
                candidates.extend((provider.provider_id, cell, tech) for cell in extra)

    return _world(
        "consultant_template_epidemic",
        config,
        intensity,
        PipelineHooks(post_universe=post_universe),
        candidates,
        targets,
    )


@register(
    "overclaim_surge",
    description=(
        "Every terrestrial provider's overclaiming surges at once — the "
        "worst-map regime an auditor could face."
    ),
    auc_floor=0.60,
    min_separation=5.0,
    tags=("filing", "global"),
)
def overclaim_surge(config: ScenarioConfig, intensity: float = 1.0) -> ScenarioWorld:
    candidates: list[ClaimKey] = []
    targets: set[int] = set()
    rng = _rng(config, "overclaim_surge")

    def post_universe(fabric, universe):
        occupied_cache: dict[str, set[int]] = {}
        for key in sorted(universe.footprints):
            pid, abbr, tech = key
            if tech == 60:
                continue
            fp = universe.footprints[key]
            occupied = _occupied_cells(fabric, abbr, occupied_cache)
            pool = occupied - fp.claimed_cells
            extra = _sample_cells(
                rng, pool, _scale(intensity, len(fp.true_cells), fraction=0.35)
            )
            if not extra:
                continue
            _extend_claimed(universe, key, extra)
            targets.add(pid)
            candidates.extend((pid, cell, tech) for cell in extra)

    return _world(
        "overclaim_surge",
        config,
        intensity,
        PipelineHooks(post_universe=post_universe),
        candidates,
        targets,
    )


# -- challenge- and release-side scenarios -----------------------------------


@register(
    "challenge_suppressed_state",
    description=(
        "The loudest campaign states go silent: no challenges are filed "
        "there, so their overclaims never earn labels — the model must "
        "flag them from features alone."
    ),
    auc_floor=0.60,
    min_separation=5.0,
    tags=("challenge",),
)
def challenge_suppressed_state(
    config: ScenarioConfig, intensity: float = 1.0
) -> ScenarioWorld:
    suppressed: list[str] = []
    candidates: list[ClaimKey] = []
    targets: set[int] = set()

    def post_challenges(table, universe, challenges):
        weights = challenge_weights()
        by_weight = sorted(
            {r.state for r in challenges}, key=lambda a: (-weights[a], a)
        )
        n = max(1, _scale(intensity, 2))
        suppressed.extend(by_weight[:n])
        claims, overclaimed, state_idx = _claim_truth(table)
        abbrs = {i for i, s in enumerate(STATES) if s.abbr in suppressed}
        for claim, bad, sidx in zip(claims, overclaimed, state_idx):
            if bad and int(sidx) in abbrs:
                candidates.append(claim)
                targets.add(claim[0])
        return [r for r in challenges if r.state not in suppressed]

    return _world(
        "challenge_suppressed_state",
        config,
        intensity,
        PipelineHooks(post_challenges=post_challenges),
        candidates,
        targets,
        notes={"suppressed_states": suppressed},
    )


@register(
    "stale_release_carryover",
    description=(
        "Quiet removals never happen: overclaims that FCC quality checks "
        "or self-audits would have silently withdrawn survive every "
        "minor release (and the change-label source dries up)."
    ),
    auc_floor=0.55,
    min_separation=3.0,
    tags=("release",),
)
def stale_release_carryover(
    config: ScenarioConfig, intensity: float = 1.0
) -> ScenarioWorld:
    candidates: list[ClaimKey] = []
    targets: set[int] = set()
    rng = _rng(config, "stale_release_carryover")

    def post_timeline(table, challenges, timeline):
        quiet = [
            e for e in timeline.removals if e.cause != RemovalCause.PUBLIC_CHALLENGE
        ]
        keep_mask = rng.random(len(quiet)) >= intensity
        kept = [e for e, keep in zip(quiet, keep_mask) if keep]
        for event, keep in zip(quiet, keep_mask):
            if not keep:
                candidates.append(event.claim)
                targets.add(event.claim[0])
        removals = [
            e for e in timeline.removals if e.cause == RemovalCause.PUBLIC_CHALLENGE
        ] + kept
        return ReleaseTimeline(
            initial_claims=timeline.initial_claims,
            removals=removals,
            n_minor_releases=timeline.n_minor_releases,
        )

    return _world(
        "stale_release_carryover",
        config,
        intensity,
        PipelineHooks(post_timeline=post_timeline),
        candidates,
        targets,
    )


# -- measured-truth (enriched) scenarios --------------------------------------


@register(
    "speed_overstatement_gradient",
    description=(
        "Multi-tier providers extend their fast tech's claimed footprint "
        "over cells only their slow plant truly serves.  The claims are "
        "indistinguishable from the provider's legitimate fast filings "
        "in every base feature — only the measured-truth overstatement "
        "gradient exposes the gap between the 500+ Mbps claim and the "
        "~10 Mbps the plant actually delivers there."
    ),
    auc_floor=0.72,
    min_separation=10.0,
    tags=("filing", "enriched"),
    min_enrichment_margin=0.02,
)
def speed_overstatement_gradient(
    config: ScenarioConfig, intensity: float = 1.0
) -> ScenarioWorld:
    candidates: list[ClaimKey] = []
    targets: set[int] = set()
    claim_state: dict[ClaimKey, str] = {}
    rng = _rng(config, "speed_overstatement_gradient")

    def post_universe(fabric, universe):
        # Each chosen provider already sells a fast tier (cable/fiber-class
        # speeds) alongside a slow one, and quietly extends the *fast*
        # tech's claimed footprint over cells only its slow plant truly
        # serves.  The injected claims share provider, technology, and
        # advertised speeds with thousands of that provider's legitimate
        # filings — and their cells have devices and attributed tests —
        # so no base feature separates them.  Only the measured-truth
        # tiles (~10 Mbps medians under a 500+ Mbps claim) carry the
        # gradient.
        expansions = []  # (pool_size, pid, fast_key, pool)
        for provider in universe.providers:
            pid = provider.provider_id
            fast_techs = {
                t.technology
                for t in provider.tiers
                if t.technology != 60 and t.max_download_mbps >= 300.0
            }
            slow_techs = {
                t.technology
                for t in provider.tiers
                if t.technology != 60 and t.max_download_mbps <= 100.0
            }
            if not fast_techs or not slow_techs:
                continue
            for key in sorted(k for k in universe.footprints if k[0] == pid):
                _pid, abbr, tech = key
                if tech not in fast_techs:
                    continue
                slow_served: set[int] = set()
                for s_tech in slow_techs:
                    fp = universe.footprints.get((pid, abbr, s_tech))
                    if fp is not None:
                        slow_served |= set(fp.true_cells)
                pool = slow_served - universe.footprints[key].claimed_cells
                if pool:
                    expansions.append((len(pool), pid, key, pool))
        expansions.sort(key=lambda e: (-e[0], e[1], e[2]))
        budget = max(50, _scale(intensity, 2500))
        for _size, pid, key, pool in expansions:
            if budget <= 0:
                break
            extra = _sample_cells(
                rng, pool, min(budget, _scale(intensity, len(pool)))
            )
            if not extra:
                continue
            budget -= len(extra)
            _extend_claimed(universe, key, extra)
            targets.add(pid)
            _pid, abbr, tech = key
            for cell in extra:
                claim = (pid, cell, tech)
                candidates.append(claim)
                claim_state[claim] = abbr

    def post_challenges(table, universe, challenges):
        # Subscribers on the slow plant notice the fast-tier claim: a
        # speed-challenge wave hits a fifth of the extended filings.
        # The rest stay unlabelled — the model has to carry the measured
        # gradient from the challenged fifth to the quiet majority.
        keys = sorted(set(candidates))
        if not keys:
            return challenges
        claims = table.columnar()
        pos = claims.positions(
            np.array([k[0] for k in keys], dtype=np.int64),
            np.array([k[1] for k in keys], dtype=np.uint64),
            np.array([k[2] for k in keys], dtype=np.int64),
        )
        materialized = [k for k, p in zip(keys, pos) if p >= 0]
        next_id = max((r.challenge_id for r in challenges), default=0) + 1
        appended = []
        for claim in materialized:
            if rng.random() >= 0.2:
                continue
            pid, cell, tech = claim
            conceded = bool(rng.random() < 0.75)
            appended.append(
                ChallengeRecord(
                    challenge_id=next_id,
                    provider_id=pid,
                    cell=cell,
                    technology=tech,
                    state=claim_state[claim],
                    n_bsls=int(rng.integers(1, 4)),
                    reason=ChallengeReason.SPEEDS_UNAVAILABLE,
                    outcome=(
                        ChallengeOutcome.PROVIDER_CONCEDED
                        if conceded
                        else ChallengeOutcome.FCC_UPHELD
                    ),
                    fcc_adjudicated=not conceded,
                    resolved_release=int(
                        rng.integers(1, 5) if conceded else rng.integers(8, 15)
                    ),
                    major_release=0,
                )
            )
            next_id += 1
        return list(challenges) + appended

    return _world(
        "speed_overstatement_gradient",
        config,
        intensity,
        PipelineHooks(post_universe=post_universe, post_challenges=post_challenges),
        candidates,
        targets,
    )


@register(
    "challenge_validated_overclaim",
    description=(
        "Multi-technology providers quietly extend one technology's "
        "claimed footprint into cells their other plant already serves, "
        "then concede when challenged.  The cells look served to every "
        "base feature; the conceded/upheld challenge records joined by "
        "the enrichment layer are the only durable fingerprint."
    ),
    auc_floor=0.70,
    min_separation=10.0,
    tags=("filing", "challenge", "enriched"),
    min_enrichment_margin=0.08,
)
def challenge_validated_overclaim(
    config: ScenarioConfig, intensity: float = 1.0
) -> ScenarioWorld:
    candidates: list[ClaimKey] = []
    targets: set[int] = set()
    claim_state: dict[ClaimKey, str] = {}
    rng = _rng(config, "challenge_validated_overclaim")

    def post_universe(fabric, universe):
        multi = sorted(
            {
                pid
                for (pid, _a, _t) in universe.footprints
                if len({t for (p, _s, t) in universe.footprints if p == pid and t != 60})
                >= 2
            }
        )
        chosen = multi[: max(2, _scale(intensity, 6))]
        for pid in chosen:
            keys = sorted(
                k for k in universe.footprints if k[0] == pid and k[2] != 60
            )
            for key in keys:
                _pid, abbr, tech = key
                # Cells the provider truly serves through *other* plant in
                # the same state but has never claimed under this tech.
                served_elsewhere: set[int] = set()
                for other in keys:
                    if other[1] == abbr and other[2] != tech:
                        served_elsewhere |= set(universe.footprints[other].true_cells)
                pool = served_elsewhere - universe.footprints[key].claimed_cells
                extra = _sample_cells(
                    rng, pool, _scale(intensity, len(pool), fraction=0.75)
                )
                if not extra:
                    continue
                _extend_claimed(universe, key, extra)
                targets.add(pid)
                for cell in extra:
                    claim = (pid, cell, tech)
                    candidates.append(claim)
                    claim_state[claim] = abbr

    def post_challenges(table, universe, challenges):
        keys = sorted(set(candidates))
        if not keys:
            return challenges
        claims = table.columnar()
        pos = claims.positions(
            np.array([k[0] for k in keys], dtype=np.int64),
            np.array([k[1] for k in keys], dtype=np.uint64),
            np.array([k[2] for k in keys], dtype=np.int64),
        )
        materialized = [k for k, p in zip(keys, pos) if p >= 0]
        next_id = max((r.challenge_id for r in challenges), default=0) + 1
        appended = []
        for claim in materialized:
            pid, cell, tech = claim
            conceded = bool(rng.random() < 0.7)
            outcome = (
                ChallengeOutcome.PROVIDER_CONCEDED
                if conceded
                else ChallengeOutcome.FCC_UPHELD
            )
            appended.append(
                ChallengeRecord(
                    challenge_id=next_id,
                    provider_id=pid,
                    cell=cell,
                    technology=tech,
                    state=claim_state[claim],
                    n_bsls=int(rng.integers(1, 4)),
                    reason=(
                        ChallengeReason.TECHNOLOGY_UNAVAILABLE
                        if rng.random() < 0.55
                        else ChallengeReason.SPEEDS_UNAVAILABLE
                    ),
                    outcome=outcome,
                    fcc_adjudicated=not conceded,
                    resolved_release=int(rng.integers(1, 5) if conceded else rng.integers(8, 15)),
                    major_release=0,
                )
            )
            next_id += 1
        return list(challenges) + appended

    return _world(
        "challenge_validated_overclaim",
        config,
        intensity,
        PipelineHooks(post_universe=post_universe, post_challenges=post_challenges),
        candidates,
        targets,
    )
