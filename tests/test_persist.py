"""One bundle primitive, four artifact kinds: the shared persistence contract.

Every persisted artifact — sharded claim columns, the score store riding
on them, the truth map and model artifacts — goes through
:mod:`repro.utils.persist`.  These tests hold all four kinds (the
score store in both its single-shard and its default per-state layout)
to the same contract on small synthetic inputs:

* a damaged bundle is refused: foreign kind, future or previous schema,
  dtype drift and a missing file on load, a flipped byte on ``verify``;
* a writer killed after any ``np.save``, ``os.fsync`` or ``os.replace``
  step leaves the previously committed bundle readable bitwise (or no
  bundle at all on a fresh root), never a mix of two saves;
* every data file and the tmp manifest are fsynced before the manifest
  rename, and the directory entry after it.
"""

import functools
import itertools
import json
import os
import stat
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from conftest import make_random_claims
from repro.enrich import TruthMap
from repro.ml.gbdt import GBDTParams, GradientBoostedClassifier
from repro.serve.artifacts import load_model_artifacts, save_model_artifacts
from repro.serve.store import ClaimScoreStore
from repro.store import ShardedClaimColumns
from repro.utils import persist

# -- four kinds on synthetic inputs ---------------------------------------------


@functools.lru_cache(maxsize=None)
def _claims(variant: int):
    return make_random_claims(100 + variant, n=150)


@functools.lru_cache(maxsize=None)
def _store(variant: int) -> ClaimScoreStore:
    claims = _claims(variant)
    margin = np.random.default_rng(variant).normal(size=len(claims))
    return ClaimScoreStore(claims, margin)


@functools.lru_cache(maxsize=None)
def _truthmap(variant: int) -> TruthMap:
    rng = np.random.default_rng(variant)
    n = 60
    speeds = rng.uniform(1.0, 900.0, (4, n))
    speeds[:, rng.random(n) < 0.2] = np.nan  # unmeasured directions
    return TruthMap.from_arrays(
        {
            "provider_id": np.repeat(np.arange(6), n // 6),
            "cell": np.arange(n, dtype=np.uint64) * 7 + variant,
            "median_down": speeds[0],
            "p90_down": speeds[1],
            "median_up": speeds[2],
            "p90_up": speeds[3],
            "n_tests": rng.integers(1, 9, n),
        }
    )


@functools.lru_cache(maxsize=None)
def _model(variant: int) -> GradientBoostedClassifier:
    rng = np.random.default_rng(variant)
    X = rng.normal(size=(120, 4))
    y = (X[:, 0] + rng.normal(scale=0.5, size=120) > 0).astype(float)
    return GradientBoostedClassifier(GBDTParams(n_estimators=3, max_depth=3)).fit(
        X, y
    )


@dataclass(frozen=True)
class Kind:
    make: Callable[[int], object]
    save: Callable[[object, str], object]
    load: Callable[[str], object]


KINDS = {
    "sharded": Kind(
        lambda v: ShardedClaimColumns.from_claims(_claims(v), shards=2),
        lambda obj, root: obj.save(root),
        ShardedClaimColumns.load,
    ),
    "store": Kind(
        _store,
        lambda obj, root: obj.save_sharded(root, shards=1),
        ClaimScoreStore.load_sharded,
    ),
    # The default per-state layout: what a release publishes.
    "store_per_state": Kind(
        _store,
        lambda obj, root: obj.save_sharded(root),
        ClaimScoreStore.load_sharded,
    ),
    "truthmap": Kind(_truthmap, lambda obj, root: obj.save(root), TruthMap.load),
    "model": Kind(
        _model,
        lambda obj, root: save_model_artifacts(root, obj),
        load_model_artifacts,
    ),
}


def _committed(root) -> dict:
    """Every array of the committed bundle as (dtype, shape, bytes)."""
    kind = persist.read_manifest(root)["kind"]
    return {
        key: (arr.dtype.str, arr.shape, arr.tobytes())
        for key, arr in persist.read(root, kind).arrays.items()
    }


def _saved(kind: str, variant: int, root) -> str:
    root = str(root)
    KINDS[kind].save(KINDS[kind].make(variant), root)
    return root


def _file(root, key=None) -> str:
    files = persist.read_manifest(root)["files"]
    return os.path.join(root, files[key or sorted(files)[0]]["path"])


# -- damaged bundles are refused ------------------------------------------------


def _foreign_kind(kind, root):
    _saved("model" if kind == "truthmap" else "truthmap", 0, root)


def _schema_shifted(kind, root, by):
    _saved(kind, 0, root)
    path = os.path.join(root, persist.MANIFEST_NAME)
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    manifest["schema"] = persist.SCHEMA + by
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)


def _future_schema(kind, root):
    _schema_shifted(kind, root, +1)


def _old_schema(kind, root):
    """A bundle from the previous layout is refused, never misread."""
    _schema_shifted(kind, root, -1)


def _dtype_drift(kind, root):
    _saved(kind, 0, root)
    path = _file(root)
    arr = np.load(path)
    np.save(path, arr.astype(np.float32 if arr.dtype != np.float32 else np.int64))


def _flipped_byte(kind, root):
    _saved(kind, 0, root)
    path = _file(root)
    with open(path, "r+b") as fh:
        fh.seek(-1, os.SEEK_END)
        byte = fh.read(1)
        fh.seek(-1, os.SEEK_END)
        fh.write(bytes([byte[0] ^ 0xFF]))


def _missing_file(kind, root):
    _saved(kind, 0, root)
    os.unlink(_file(root))


#: damage -> (the kind's load, persist.verify): ``None`` = succeeds,
#: ``(error, match)`` = raises; load does not hash, so a flipped payload
#: byte is verify's to catch and load is not asked.
_MISSING = (FileNotFoundError, None)
DAMAGE = {
    "foreign_kind": (_foreign_kind, (ValueError, "kind"), None),
    "future_schema": (_future_schema, (ValueError, "schema"), (ValueError, "schema")),
    "old_schema": (_old_schema, (ValueError, "schema"), (ValueError, "schema")),
    "dtype_drift": (_dtype_drift, (ValueError, "dtype"), (ValueError, "hash")),
    "flipped_byte": (_flipped_byte, "not asked", (ValueError, "hash")),
    "missing_file": (_missing_file, _MISSING, _MISSING),
}


def _expect(outcome, call, root):
    if outcome is None:
        call(root)
    else:
        error, match = outcome
        with pytest.raises(error, match=match):
            call(root)


@pytest.mark.parametrize(
    "kind,damage",
    list(itertools.product(KINDS, DAMAGE)),
    ids=[f"{k}-{d}" for k, d in itertools.product(KINDS, DAMAGE)],
)
def test_damaged_bundle_is_refused(kind, damage, tmp_path):
    """Load refuses what it can see cheaply (kind, schema, dtype, a
    missing file); ``verify`` re-hashes and catches the rest."""
    root = str(tmp_path / "bundle")
    apply, on_load, on_verify = DAMAGE[damage]
    apply(kind, root)
    if on_load != "not asked":
        _expect(on_load, KINDS[kind].load, root)
    _expect(on_verify, persist.verify, root)


# -- crash points -----------------------------------------------------------------


class _Killed(BaseException):
    """A simulated kill: not an ``Exception``, so no handler swallows it."""


def _save_killed_after(kind: str, variant: int, root: str, n: int):
    """Save, killing the writer right after its ``n``-th durability step
    (an ``np.save``, ``os.fsync`` or ``os.replace``).  Returns the steps
    taken, or ``None`` when the save finished first."""
    steps = []

    def step(real, name):
        def wrapper(*args, **kwargs):
            out = real(*args, **kwargs)
            steps.append(name)
            if len(steps) == n:
                raise _Killed
            return out

        return wrapper

    obj = KINDS[kind].make(variant)
    with pytest.MonkeyPatch.context() as m:
        for owner, name in ((np, "save"), (os, "fsync"), (os, "replace")):
            m.setattr(owner, name, step(getattr(owner, name), name))
        try:
            KINDS[kind].save(obj, root)
        except _Killed:
            return steps
    return None


@pytest.mark.parametrize("kind", KINDS)
def test_killed_writer_leaves_the_last_commit(kind, tmp_path):
    old = _committed(_saved(kind, 0, tmp_path / "ref-old"))
    new = _committed(_saved(kind, 1, tmp_path / "ref-new"))
    assert old != new
    for n in itertools.count(1):
        fresh = str(tmp_path / f"fresh-{n}")
        steps = _save_killed_after(kind, 1, fresh, n)
        if steps is None:
            break
        populated = _saved(kind, 0, tmp_path / f"populated-{n}")
        assert _save_killed_after(kind, 1, populated, n) == steps
        if "replace" in steps:  # killed after the commit point
            assert _committed(fresh) == new
            assert _committed(populated) == new
        else:
            with pytest.raises(FileNotFoundError):
                KINDS[kind].load(fresh)
            assert _committed(populated) == old
        KINDS[kind].load(populated)
        persist.verify(populated)
        # The next save recovers and collects the torn generation.
        _saved(kind, 1, populated)
        assert _committed(populated) == new
        assert len([d for d in os.listdir(populated) if d.startswith("data-")]) == 1
    # Every file's np.save and fsync was a crash point, plus the commit.
    n_files = len(persist.read_manifest(fresh)["files"])
    assert n - 1 >= 2 * n_files + 3


@pytest.mark.parametrize("kind", KINDS)
def test_commit_fsyncs_every_file_before_the_rename(kind, tmp_path, monkeypatch):
    """The rename is the commit point: every data file and the tmp
    manifest must be on disk before ``os.replace``, and the directory
    entry after it, or a crash can surface a committed but torn bundle."""
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def spy_fsync(fd):
        st = os.fstat(fd)
        what = "dir" if stat.S_ISDIR(st.st_mode) else "file"
        events.append((what, (st.st_dev, st.st_ino)))
        real_fsync(fd)

    def spy_replace(src, dst):
        events.append(("replace", os.path.basename(dst)))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", spy_fsync)
    monkeypatch.setattr(os, "replace", spy_replace)
    root = _saved(kind, 0, tmp_path / "bundle")
    monkeypatch.undo()

    def ident(*parts):
        st = os.stat(os.path.join(root, *parts))
        return st.st_dev, st.st_ino

    commit = events.index(("replace", persist.MANIFEST_NAME))
    before, after = events[:commit], events[commit + 1 :]
    manifest = persist.read_manifest(root)
    for meta in manifest["files"].values():
        assert ("file", ident(meta["path"])) in before, meta["path"]
    # rename keeps the inode: the tmp manifest's contents were synced
    assert ("file", ident(persist.MANIFEST_NAME)) in before
    assert ("dir", ident(manifest["generation"])) in before
    assert ("dir", ident()) in before  # tmp entry durable pre-rename
    assert ("dir", ident()) in after  # the rename itself durable
    assert _committed(root) == _committed(_saved(kind, 0, tmp_path / "again"))


# -- the primitive's own guards -------------------------------------------------


@pytest.mark.parametrize("key", ["../escape", "/abs", "a//b", ".hidden", "a b"])
def test_write_refuses_unsafe_array_keys(key, tmp_path):
    with pytest.raises(ValueError, match="safe relative name"):
        persist.write(str(tmp_path), "test", {key: np.zeros(1)})
    assert not os.listdir(tmp_path)


def test_write_refuses_reserved_manifest_keys(tmp_path):
    with pytest.raises(ValueError, match="reserved"):
        persist.write(str(tmp_path), "test", {"a": np.zeros(1)}, {"files": {}})


def test_mmap_read_maps_every_array_and_keeps_scalars(tmp_path):
    arrays = {"grp/vec": np.arange(5.0), "scalar": np.float64(2.5)}
    persist.write(str(tmp_path), "test", arrays, {"note": "x"})
    bundle = persist.read(str(tmp_path), "test", mmap=True)
    assert bundle.manifest["note"] == "x"
    assert isinstance(bundle.arrays["grp/vec"], np.memmap)
    assert bundle.group("grp").keys() == {"vec"}
    assert bundle.arrays["scalar"].shape == () and float(bundle.arrays["scalar"]) == 2.5
