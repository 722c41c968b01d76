"""Score-store fingerprint: built store margins hash to committed digests.

``tests/test_tree_fingerprint.py`` pins the trees and
``tests/test_scenarios_e2e.py`` checks that the binned store equals the
float one, but nothing pinned the margins a store build writes: a change
to the scoring path that moved every margin the same way in both paths
would pass.  This test hashes the margin bytes, dtype and shape, plus
the store etag, of two builds on the tiny(7) world:

* ``base`` — the session ``tiny_score_store`` (Table-4 features);
* ``enriched`` — a feature-set v2 model (measured-truth enrichment),
  trained on the same split as the end-to-end benchmark trains its
  model, scored over every claim.

Both must also equal ``ClaimScoreStore.build(..., binned=False)`` — the
float traversal — bit for bit.  The digests were recorded before the
store was scored in the ensemble's threshold space; a change that claims
to keep every margin bitwise identical must keep them.
"""

import hashlib

import numpy as np
import pytest

from repro.serve import ClaimScoreStore

EXPECTED_DIGESTS = {
    "base": "68d80e22edb5b93f37b0612a6fae0df6557a3dbe5b5418f68254972922e5fbb9",
    "enriched": "6862229052b3888e7164cf98a039e947aea769baa7700c8e6138ba127bd85be5",
}


def store_fingerprint(store: ClaimScoreStore) -> str:
    """SHA-256 over the margin array (dtype, shape, bytes) and the etag."""
    margin = np.ascontiguousarray(store.margin)
    h = hashlib.sha256()
    h.update(f"margin:{margin.dtype.str}:{margin.shape}".encode())
    h.update(margin.tobytes())
    h.update(store.etag.encode())
    return h.hexdigest()


@pytest.fixture(scope="module")
def enriched_build(tiny_world, tiny_dataset):
    from repro.core import (
        NBMIntegrityModel,
        enrichment_from_world,
        make_feature_builder,
    )
    from repro.dataset import random_observation_split

    builder = make_feature_builder(
        tiny_world, enrichment=enrichment_from_world(tiny_world)
    )
    split = random_observation_split(tiny_dataset, test_fraction=0.1, seed=1)
    model = NBMIntegrityModel(builder, params=tiny_world.config.model).fit(
        tiny_dataset, split.train_idx
    )
    return model.classifier, builder


def test_base_store_matches_committed_fingerprint(
    tiny_model, tiny_builder, tiny_score_store
):
    assert store_fingerprint(tiny_score_store) == EXPECTED_DIGESTS["base"]
    model, _ = tiny_model
    ref = ClaimScoreStore.build(model.classifier, tiny_builder, binned=False)
    np.testing.assert_array_equal(ref.margin, tiny_score_store.margin)


def test_enriched_store_matches_committed_fingerprint(enriched_build):
    classifier, builder = enriched_build
    assert builder.feature_set_version == 2
    store = ClaimScoreStore.build(classifier, builder)
    assert store_fingerprint(store) == EXPECTED_DIGESTS["enriched"]
    ref = ClaimScoreStore.build(classifier, builder, binned=False)
    np.testing.assert_array_equal(ref.margin, store.margin)
