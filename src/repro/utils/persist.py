"""One crash-safe bundle format for every persisted artifact.

Every artifact this package saves — sharded claim columns (and the score
store riding on them), the truth map, model artifacts and frozen feature
tables — is a *bundle*: a set of named NumPy arrays plus a little JSON
metadata, written by :func:`write` and opened by :func:`read`.

Layout on disk (all paths relative to the bundle root)::

    root/
      manifest.json               <- always the last file written
      data-00000003/              <- one generation per write()
        <key>.npy                 <- one raw .npy per array; keys may be
                                     grouped, e.g. shards/ca/cell.npy or
                                     encoder/embedding_matrix.npy

The manifest records the schema, the artifact ``kind``, the generation,
and per array its path, SHA-256, dtype and shape; kind-specific metadata
sits beside those keys at the top level.

Crash safety: a write fills a fresh generation directory, fsyncs every
data file and directory in it, then commits the manifest (tmp file,
fsync, directory fsync, ``os.replace``, directory fsync) and only then
removes superseded generations.  A writer killed at any step leaves the
previous manifest pointing at the previous — complete — generation, so
a reader sees the old bundle or the new one, never a mix.

:func:`read` checks kind, schema, dtype and shape but hashes nothing, so
an ``mmap=True`` open pages in no array bytes; :func:`verify` re-hashes a
bundle of any kind against its manifest.  This module imports only NumPy
and the standard library, so any layer can persist through it.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MANIFEST_NAME",
    "SCHEMA",
    "Bundle",
    "fsync_dir",
    "read",
    "read_manifest",
    "verify",
    "write",
]

MANIFEST_NAME = "manifest.json"

#: Bundle layout version, shared by every kind; bump on layout changes.
SCHEMA = 2

_RESERVED = ("schema", "kind", "generation", "files")

#: Array keys: ``/``-separated path components of safe filename chars.
_KEY_RE = re.compile(
    r"[A-Za-z0-9_-][A-Za-z0-9_.-]*(?:/[A-Za-z0-9_-][A-Za-z0-9_.-]*)*"
)


@dataclass(frozen=True)
class Bundle:
    """An opened bundle: its manifest and every array by key."""

    manifest: dict
    arrays: dict[str, np.ndarray]

    def group(self, prefix: str) -> dict[str, np.ndarray]:
        """Arrays under ``prefix/``, keyed by the rest of their key."""
        head = prefix + "/"
        return {
            key[len(head):]: arr
            for key, arr in self.arrays.items()
            if key.startswith(head)
        }


def _sha256_file(path: str, fsync: bool = False) -> str:
    digest = hashlib.sha256()
    with open(path, "r+b" if fsync else "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
        if fsync:
            os.fsync(fh.fileno())
    return digest.hexdigest()


def fsync_dir(path: str) -> None:
    """fsync a directory so renames/creates inside it are durable.

    Platforms that cannot open a directory for fsync (Windows) get the
    old best-effort behaviour instead of an error.
    """
    try:
        fd = os.open(path, os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
    except OSError:  # pragma: no cover - non-POSIX fallback
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - filesystems without dir fsync
        pass
    finally:
        os.close(fd)


def _next_generation(root: str) -> str:
    ordinals = [0]
    for entry in os.listdir(root):
        if entry.startswith("data-"):
            try:
                ordinals.append(int(entry[5:]))
            except ValueError:
                continue
    return f"data-{max(ordinals) + 1:08d}"


def write(
    root: str, kind: str, arrays: dict[str, np.ndarray], meta: dict | None = None
) -> str:
    """Write ``arrays`` (plus top-level ``meta``) as a ``kind`` bundle.

    Crash-safe: see the module docstring.  Returns ``root``.
    """
    meta = meta or {}
    reserved = sorted(set(meta) & set(_RESERVED))
    if reserved:
        raise ValueError(f"manifest keys {reserved} are reserved")
    for key in arrays:
        if not _KEY_RE.fullmatch(key):
            raise ValueError(f"array key {key!r} is not a safe relative name")
    os.makedirs(root, exist_ok=True)
    generation = _next_generation(root)
    os.makedirs(os.path.join(root, generation))
    files = {}
    dirs = {generation}
    for key, arr in arrays.items():
        arr = np.asarray(arr, order="C")
        rel = f"{generation}/{key}.npy"
        parent = rel.rsplit("/", 1)[0]
        while parent not in dirs:
            dirs.add(parent)
            parent = parent.rsplit("/", 1)[0]
        target = os.path.join(root, rel)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        np.save(target, arr, allow_pickle=False)
        files[key] = {
            "path": rel,
            "dtype": str(arr.dtype),
            "shape": list(arr.shape),
        }
    # Hash and fsync only once every file is written: the first fsync's
    # journal commit then carries most of the data, so the rest are cheap.
    for entry in files.values():
        path = os.path.join(root, entry["path"])
        entry["sha256"] = _sha256_file(path, fsync=True)
    # Deepest first, so every new entry is durable before its parent's.
    for rel in sorted(dirs, key=lambda d: d.count("/"), reverse=True):
        fsync_dir(os.path.join(root, rel))
    manifest = {
        "schema": SCHEMA,
        "kind": kind,
        "generation": generation,
        "files": files,
        **meta,
    }
    # The rename is the commit point: the tmp file's contents must reach
    # disk before it and the directory entry after it, or a crash can
    # surface a committed but empty/torn manifest over intact data.
    tmp = os.path.join(root, MANIFEST_NAME + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
        fh.flush()
        os.fsync(fh.fileno())
    fsync_dir(root)
    os.replace(tmp, os.path.join(root, MANIFEST_NAME))
    fsync_dir(root)
    for entry in os.listdir(root):
        if entry.startswith("data-") and entry != generation:
            shutil.rmtree(os.path.join(root, entry), ignore_errors=True)
    return root


def read_manifest(root: str, kind: str | None = None) -> dict:
    """The committed manifest at ``root``; schema (and ``kind``) checked."""
    path = os.path.join(root, MANIFEST_NAME)
    if not os.path.exists(path):
        raise FileNotFoundError(f"no {kind or 'bundle'} manifest at {path}")
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    if kind is not None and manifest.get("kind") != kind:
        raise ValueError(
            f"artifact kind {manifest.get('kind')!r} is not {kind!r}"
        )
    if manifest.get("schema") != SCHEMA:
        raise ValueError(
            f"bundle schema {manifest.get('schema')!r} is not supported "
            f"(expected {SCHEMA})"
        )
    return manifest


def read(root: str, kind: str, mmap: bool = False) -> Bundle:
    """Open a ``kind`` bundle; ``mmap=True`` maps every array read-only.

    Checks kind, schema, and every array's dtype and shape against the
    manifest; raises ``FileNotFoundError`` for a missing manifest or
    array file.  No array is hashed (that is :func:`verify`'s job), so a
    mapped open touches no data pages.
    """
    manifest = read_manifest(root, kind)
    mode = "r" if mmap else None
    arrays = {}
    for key, meta in manifest["files"].items():
        arr = np.load(
            os.path.join(root, meta["path"]), mmap_mode=mode, allow_pickle=False
        )
        if str(arr.dtype) != meta["dtype"] or list(arr.shape) != meta["shape"]:
            raise ValueError(
                f"{kind} array {key!r} is {arr.dtype}{list(arr.shape)}, "
                f"manifest says dtype {meta['dtype']}{meta['shape']}"
            )
        arrays[key] = arr
    return Bundle(manifest, arrays)


def verify(root: str) -> int:
    """Re-hash every array file of a bundle (any kind) against its manifest.

    Returns the number of files checked; raises ``ValueError`` on the
    first content mismatch and ``FileNotFoundError`` for a file the
    manifest promises but the bundle lacks.
    """
    manifest = read_manifest(root)
    for meta in manifest["files"].values():
        path = os.path.join(root, meta["path"])
        if not os.path.exists(path):
            raise FileNotFoundError(f"bundle at {root} is missing {meta['path']}")
        digest = _sha256_file(path)
        if digest != meta["sha256"]:
            raise ValueError(
                f"content hash mismatch for {meta['path']}: "
                f"manifest {meta['sha256'][:12]}…, file {digest[:12]}…"
            )
    return len(manifest["files"])
