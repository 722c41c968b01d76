"""The Jefferson County Cable case study (paper §6.3, Fig. 8).

Jefferson County Cable, an Ohio cable ISP, *intentionally* overclaimed a
contiguous region west of its real service area in its initial BDC filing
to keep a planned expansion market ineligible for BEAD funding, and was
fined by the FCC.  The paper shows its model — trained with every state
bordering JCC's service area held out — flags exactly that western region
as suspicious.

This module injects a JCC-like provider into the simulation: a small Ohio
cable operator whose claimed footprint includes a deliberate, contiguous
western block it does not serve.  The case study trains on all states
except Ohio and its neighbours and reports how much of the fabricated
region (vs the genuine service area) the model flags.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import ScenarioConfig, tiny
from repro.core.model import NBMIntegrityModel
from repro.core.pipeline import build_dataset, build_world, make_feature_builder
from repro.dataset.observations import LabelSource, Observation
from repro.dataset.splits import state_holdout_split
from repro.fcc.providers import (
    FootprintPair,
    Methodology,
    Provider,
    ServiceTier,
    methodology_text,
)
from repro.fcc.states import state_by_abbr, states_adjacent_to
from repro.geo import destination_point, hexgrid
from repro.utils.rng import stream_rng

__all__ = ["JCC_PROVIDER_ID", "JCCCaseStudyResult", "inject_jcc", "run_jcc_case_study"]

JCC_PROVIDER_ID = 999_999
_JCC_NAME = "Jefferson County Cable TV Inc"


def inject_jcc(fabric, universe, seed: int = 0) -> None:
    """Add the JCC-like provider to a universe (build_world hook).

    The provider serves a genuine disk around an Ohio town and claims an
    additional contiguous disk displaced ~8 km to the *west* — the
    deliberate misrepresentation.
    """
    rng = stream_rng(seed, "jcc")
    towns = fabric.towns_in_state("OH")
    if not towns:
        raise RuntimeError("no Ohio towns in fabric; enlarge the scenario")
    # Anchor at a mid-sized town away from the state's western border so
    # the fake region stays inside Ohio.
    ohio = state_by_abbr("OH")
    candidates = [t for t in towns if t.lng > (ohio.lng_min + ohio.lng_max) / 2]
    if not candidates:
        candidates = towns
    # JCC's genuine market is a real, well-populated community: anchor at
    # the largest eastern town so its service area carries the test density
    # an operating cable system produces.
    anchor = max(candidates, key=lambda t: t.weight)

    res = fabric.config.hex_resolution
    occupied = set(fabric.cells_in_state("OH"))
    anchor_cell = hexgrid.latlng_to_cell(anchor.lat, anchor.lng, res)
    true_cells = occupied.intersection(hexgrid.grid_disk_vec([anchor_cell], 5)[1].tolist())

    # The fabricated claim covered a real-but-*unserved* community to the
    # west — JCC's goal was to keep that market ineligible for BEAD funding,
    # which only matters where nobody provides service.  Prefer the nearby
    # western town with the least existing coverage.
    served_by_any: set[int] = set()
    for (pid, abbr, tech), fp in universe.footprints.items():
        if abbr == "OH" and tech != 60:
            served_by_any.update(fp.true_cells)
    west_lat, west_lng = destination_point(anchor.lat, anchor.lng, 270.0, 10_000.0)
    others = [t for t in towns if (t.lat, t.lng) != (anchor.lat, anchor.lng)]

    # Near and unserved is best: score each town by its distance to the
    # western point minus the unserved fraction of the occupied cells in
    # its 4-disk (every town's disk in one vectorized expansion).
    lats = np.array([t.lat for t in others])
    lngs = np.array([t.lng for t in others])
    rows, disks = hexgrid.grid_disk_vec(hexgrid.latlng_to_cell_vec(lats, lngs, res), 4)
    occupied_arr = np.fromiter(occupied, dtype=np.uint64, count=len(occupied))
    served_arr = np.fromiter(served_by_any, dtype=np.uint64, count=len(served_by_any))
    in_disk = np.isin(disks, occupied_arr)
    unserved = in_disk & ~np.isin(disks, served_arr)
    n_disk = np.bincount(rows[in_disk], minlength=len(others))
    n_unserved = np.bincount(rows[unserved], minlength=len(others))
    unserved_frac = np.divide(
        n_unserved, n_disk, out=np.zeros(len(others)), where=n_disk > 0
    )
    distance = np.abs(lats - west_lat) + np.abs(lngs - west_lng)
    target = others[int(np.argmin(distance - unserved_frac))]
    fake_center = hexgrid.latlng_to_cell(target.lat, target.lng, res)
    region = occupied.intersection(
        hexgrid.grid_disk_vec([fake_center], 4)[1].tolist()
    ) - true_cells

    tier = ServiceTier(technology=40, max_download_mbps=400.0, max_upload_mbps=20.0, low_latency=True)
    provider = Provider(
        provider_id=JCC_PROVIDER_ID,
        name=_JCC_NAME,
        brand_name="Jefferson County Cable",
        holding_company=_JCC_NAME,
        size_class="local",
        states=("OH",),
        tiers=(tier,),
        # JCC's misrepresentation was deliberate: the filing looked like an
        # ordinary infrastructure-based methodology (the lie was in the data,
        # not the method description).
        methodology=Methodology.INFRASTRUCTURE_MAPS,
        methodology_text=methodology_text(Methodology.INFRASTRUCTURE_MAPS, _JCC_NAME),
        overclaim_rate=len(region) / max(1, len(region) + len(true_cells)),
        concede_propensity=0.2,  # JCC contested; enforcement came later
        self_correction_rate=0.0,
        frns=(19_999_999,),
        contact_email="office@jeffersoncountycable.com",
        email_domain="jeffersoncountycable.com",
        hq_address="101 Main Street, Springfield, OH 43952",
        hq_state="OH",
    )
    universe.add_provider(
        provider,
        {("OH", 40): FootprintPair(frozenset(true_cells), frozenset(true_cells | region))},
    )


@dataclass
class JCCCaseStudyResult:
    """Model outputs over JCC's claimed footprint (paper Fig. 8)."""

    provider_id: int
    holdout_states: tuple[str, ...]
    #: cell -> P(suspicious) over the fabricated western region.
    region_scores: dict[int, float]
    #: cell -> P(suspicious) over the genuine service area.
    true_scores: dict[int, float]
    threshold: float

    @property
    def separation_auc(self) -> float:
        """AUC of fabricated-vs-genuine cells under the model's scores.

        The quantitative form of Fig. 8: 1.0 means the model perfectly
        ranks every fabricated cell above every genuine cell.
        """
        from repro.ml.metrics import roc_auc_score

        if not self.region_scores or not self.true_scores:
            return 0.0
        y = [1] * len(self.region_scores) + [0] * len(self.true_scores)
        s = list(self.region_scores.values()) + list(self.true_scores.values())
        return roc_auc_score(np.array(y), np.array(s))

    @property
    def detection_rate(self) -> float:
        """Fraction of the fabricated region flagged suspicious."""
        if not self.region_scores:
            return 0.0
        flagged = sum(1 for s in self.region_scores.values() if s >= self.threshold)
        return flagged / len(self.region_scores)

    @property
    def false_alarm_rate(self) -> float:
        """Fraction of the genuine service area flagged suspicious."""
        if not self.true_scores:
            return 0.0
        flagged = sum(1 for s in self.true_scores.values() if s >= self.threshold)
        return flagged / len(self.true_scores)

    def render_map(self, columns: int = 8) -> str:
        """Text rendering of per-cell verdicts, west-to-east."""
        rows = []
        for label, scores in (("fabricated", self.region_scores), ("genuine", self.true_scores)):
            ordered = sorted(
                scores.items(), key=lambda kv: hexgrid.cell_to_latlng(kv[0])[1]
            )
            marks = [
                ("X" if score >= self.threshold else ".") for _, score in ordered
            ]
            lines = [
                "".join(marks[i : i + columns]) for i in range(0, len(marks), columns)
            ]
            rows.append(f"{label} region (X = flagged suspicious):")
            rows.extend("  " + line for line in lines)
        return "\n".join(rows)


def run_jcc_case_study(
    config: ScenarioConfig | None = None, threshold: float | None = None
) -> JCCCaseStudyResult:
    """Build a world containing JCC, train with OH+neighbours held out,
    and score JCC's claims (paper §6.3).

    ``threshold=None`` picks the midpoint between the two regions' mean
    scores — probability calibration shifts with simulation scale, but the
    paper's result is about *contrast*: the fabricated west scores far
    above the genuine service area.
    """
    from dataclasses import replace

    config = config or tiny()
    # JCC must be reachable through the ASN crosswalk for its genuine area
    # to accumulate MLab evidence (the real JCC's subscribers ran tests
    # throughout the paper's 12-month window — the boosted per-claim test
    # rate stands in for that longer aggregation period).
    config = replace(
        config,
        whois=replace(
            config.whois,
            force_asn_provider_ids=tuple(config.whois.force_asn_provider_ids)
            + (JCC_PROVIDER_ID,),
        ),
        mlab=replace(config.mlab, tests_per_served_claim=max(0.3, config.mlab.tests_per_served_claim)),
    )
    world = build_world(
        config, mutate_universe=lambda fabric, universe: inject_jcc(fabric, universe, config.seed)
    )
    dataset = build_dataset(world)
    holdout = tuple(["OH"] + states_adjacent_to("OH"))
    present = dataset.states()
    usable_holdout = tuple(s for s in holdout if s in present)
    split = state_holdout_split(dataset, usable_holdout)

    builder = make_feature_builder(world)
    model = NBMIntegrityModel(builder, params=config.model).fit(dataset, split.train_idx)

    fp = world.universe.footprint(JCC_PROVIDER_ID, "OH", 40)
    region = sorted(fp.claimed_cells - fp.true_cells)
    genuine = sorted(fp.true_cells)

    def _score(cells: list[int]) -> dict[int, float]:
        observations = [
            Observation(
                provider_id=JCC_PROVIDER_ID,
                cell=cell,
                technology=40,
                state="OH",
                unserved=0,
                source=LabelSource.SYNTHETIC,
            )
            for cell in cells
        ]
        if not observations:
            return {}
        scores = model.predict_proba(observations)
        return {cell: float(s) for cell, s in zip(cells, scores)}

    region_scores = _score(region)
    true_scores = _score(genuine)
    if threshold is None:
        means = []
        for scores in (region_scores, true_scores):
            if scores:
                means.append(float(np.mean(list(scores.values()))))
        threshold = float(np.mean(means)) if means else 0.5
    return JCCCaseStudyResult(
        provider_id=JCC_PROVIDER_ID,
        holdout_states=usable_holdout,
        region_scores=region_scores,
        true_scores=true_scores,
        threshold=threshold,
    )
