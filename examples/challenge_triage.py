"""Challenge triage: rank a state's claims by predicted challenge success.

The paper's intended application: a state broadband office with a limited
challenge budget wants to know *which* provider claims in its state are
most likely to fail if challenged.  This script trains the model with the
target state held out (it has never seen labels from there) and prints the
most suspicious claims with their locations:

    python examples/challenge_triage.py [STATE]
"""

import sys

from repro.core import NBMIntegrityModel, build_dataset, build_world, make_feature_builder, tiny
from repro.dataset import LabelSource, Observation, state_holdout_split
from repro.fcc import TECHNOLOGY_NAMES
from repro.geo import cell_to_latlng
from repro.utils import format_table


def main(state: str = "GA") -> None:
    state = state.upper()
    world = build_world(tiny(seed=7))
    dataset = build_dataset(world)
    if state not in dataset.states():
        raise SystemExit(f"no labelled observations in {state}; try another state")

    split = state_holdout_split(dataset, (state,))
    builder = make_feature_builder(world)
    model = NBMIntegrityModel(builder, params=world.config.model)
    model.fit(dataset, split.train_idx)

    # Score *every* claim the NBM records in the state, labelled or not.
    satellite = {p.provider_id for p in world.universe.providers if p.is_satellite}
    claims = [
        key
        for key in world.table.columnar().keys()
        if key[0] not in satellite
        and world.fabric.state_of_cell(key[1]) == state
    ]
    observations = [
        Observation(pid, cell, tech, state, 0, LabelSource.SYNTHETIC)
        for pid, cell, tech in claims
    ]
    scores = model.predict_proba(observations)

    ranked = sorted(zip(scores, claims), key=lambda pair: -pair[0])[:15]
    rows = []
    for score, (pid, cell, tech) in ranked:
        provider = world.universe.provider(pid)
        lat, lng = cell_to_latlng(cell)
        rows.append(
            [provider.brand_name[:26], TECHNOLOGY_NAMES[tech], f"{lat:.3f},{lng:.3f}", score]
        )
    print(
        format_table(
            ["Provider", "Technology", "Cell centroid", "P(fails challenge)"],
            rows,
            floatfmt=".3f",
            title=f"Most suspicious NBM claims in {state} "
                  f"({len(claims):,} claims scored; model never saw {state} labels)",
        )
    )


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "GA")
