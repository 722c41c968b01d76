"""Docs smoke for CI: files exist, links resolve, modules are documented.

Seven checks:

1. the top-level docs exist;
2. every markdown link in ``README.md``, ``ROADMAP.md``, and
   ``docs/*.md`` with a *local* target (no URL scheme) resolves to a
   real file or directory relative to the linking document — anchors
   (``file.md#section``) are checked against the file only;
3. every public module under ``src/repro`` (non-underscore ``.py``
   files) is mentioned by name somewhere in the combined docs, and every
   *package* (directory with an ``__init__.py``) is mentioned by its
   full dotted name (``repro.enrich``), so new subsystems cannot land
   undocumented;
4. every HTTP route pattern registered in ``repro.serve.http`` (scanned
   textually, so this script stays dependency-free for the CI docs job)
   appears in the combined docs — a new endpoint cannot land without an
   API-reference entry;
5. every top-level section of the committed ``BENCH_perf.json`` is
   mentioned by name in the combined docs — a new benchmark cannot land
   without its schema documented (``docs/PERFORMANCE.md`` is where they
   belong);
6. every metric and span name declared in ``repro.obs.catalog`` (parsed
   with ``ast.literal_eval``, no imports) appears in the combined docs —
   ``docs/OBSERVABILITY.md`` is the catalog's reference;
7. every literal metric registration (``.counter("..." ...)``) and span
   site (``span("...")``) in ``src/repro`` uses a cataloged name, so an
   uncataloged series cannot land even before the runtime check trips.

Run::

    python tools/check_docs.py
"""

from __future__ import annotations

import ast
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

REQUIRED = [
    "README.md",
    os.path.join("docs", "ARCHITECTURE.md"),
    os.path.join("docs", "OBSERVABILITY.md"),
    os.path.join("docs", "PERFORMANCE.md"),
    os.path.join("docs", "TESTING.md"),
    "ROADMAP.md",
]

#: Inline markdown links: [text](target)
_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

_SCHEME_RE = re.compile(r"^[a-zA-Z][a-zA-Z0-9+.-]*:")


SRC_ROOT = os.path.join(REPO_ROOT, "src", "repro")


def _module_names() -> list[str]:
    """Dotted names of every public module under ``src/repro``."""
    out = []
    for dirpath, dirnames, filenames in os.walk(SRC_ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("__"))
        for name in sorted(filenames):
            if name.endswith(".py") and not name.startswith("_"):
                rel = os.path.relpath(os.path.join(dirpath, name), SRC_ROOT)
                out.append("repro." + rel[:-3].replace(os.sep, "."))
    return out


def _undocumented_modules(docs_text: str) -> list[str]:
    """Public modules whose name never appears in the combined docs."""
    missing = []
    for module in _module_names():
        basename = module.rsplit(".", 1)[-1]
        if not re.search(rf"\b{re.escape(basename)}\b", docs_text):
            missing.append(module)
    return missing


def _package_names() -> list[str]:
    """Dotted names of every package under ``src/repro``."""
    out = ["repro"]
    for dirpath, dirnames, _filenames in os.walk(SRC_ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("__"))
        for name in dirnames:
            if os.path.exists(os.path.join(dirpath, name, "__init__.py")):
                rel = os.path.relpath(os.path.join(dirpath, name), SRC_ROOT)
                out.append("repro." + rel.replace(os.sep, "."))
    return sorted(out)


def _undocumented_packages(docs_text: str) -> list[str]:
    """Packages whose *dotted* name never appears in the combined docs.

    Module basenames can collide with prose words; the dotted form
    (``repro.enrich``) is unambiguous, so a whole new subsystem package
    must be introduced by name, not just have its files mentioned.
    """
    return [
        package
        for package in _package_names()
        if not re.search(rf"\b{re.escape(package)}\b", docs_text)
    ]


#: Route patterns inside router.add("METHOD", "/path", ...) calls.
_ROUTE_RE = re.compile(
    r"""router\.add\(\s*\n?\s*["'](?:GET|POST)["'],\s*\n?\s*["']([^"']+)["']"""
)

_HTTP_MODULE = os.path.join(SRC_ROOT, "serve", "http.py")


def _route_patterns() -> list[str]:
    """Every route pattern registered by the serve HTTP module."""
    if not os.path.exists(_HTTP_MODULE):
        return []
    text = open(_HTTP_MODULE, encoding="utf-8").read()
    return sorted(set(_ROUTE_RE.findall(text)))


def _undocumented_routes(docs_text: str) -> list[str]:
    """Registered routes whose pattern never appears in the docs."""
    return [p for p in _route_patterns() if p not in docs_text]


_CATALOG_MODULE = os.path.join(SRC_ROOT, "obs", "catalog.py")

#: Literal metric registrations: registry.counter("name", ...) etc.
_METRIC_CALL_RE = re.compile(
    r"""\.(?:counter|gauge|histogram)\(\s*["']([a-z0-9_]+)["']"""
)

#: Literal span sites: span("name", ...), obs_span("name", ...) — calls
#: passing a variable don't match (the runtime catalog check covers those).
_SPAN_CALL_RE = re.compile(r"""span\(\s*["']([a-z0-9_]+)["']""")


def _obs_catalogs() -> tuple[dict, dict]:
    """``(METRIC_CATALOG, SPAN_CATALOG)`` parsed without importing repro.

    The catalog module keeps both as plain literals exactly so this
    script can read them with ``ast.literal_eval`` in the
    dependency-free CI docs job.
    """
    if not os.path.exists(_CATALOG_MODULE):
        return {}, {}
    tree = ast.parse(open(_CATALOG_MODULE, encoding="utf-8").read())
    found = {}
    for node in tree.body:
        targets = []
        if isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        for name in targets:
            if name in ("METRIC_CATALOG", "SPAN_CATALOG") and node.value:
                found[name] = ast.literal_eval(node.value)
    return found.get("METRIC_CATALOG", {}), found.get("SPAN_CATALOG", {})


def _undocumented_obs_names(docs_text: str) -> list[str]:
    """Cataloged metric/span names never mentioned in the docs."""
    metrics, spans = _obs_catalogs()
    return [
        name
        for name in sorted(metrics) + sorted(spans)
        if not re.search(rf"\b{re.escape(name)}\b", docs_text)
    ]


def _uncataloged_registrations() -> list[str]:
    """Metric/span names registered in ``src/repro`` but not cataloged."""
    metrics, spans = _obs_catalogs()
    problems = []
    for dirpath, dirnames, filenames in os.walk(SRC_ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("__"))
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            rel = os.path.relpath(path, REPO_ROOT)
            text = open(path, encoding="utf-8").read()
            for name in _METRIC_CALL_RE.findall(text):
                if name not in metrics:
                    problems.append(f"{rel}: metric {name!r}")
            for name in _SPAN_CALL_RE.findall(text):
                if name not in spans:
                    problems.append(f"{rel}: span {name!r}")
    return problems


_BENCH_JSON = os.path.join(REPO_ROOT, "BENCH_perf.json")


def _bench_sections() -> list[str]:
    """Top-level section names of the committed benchmark baseline."""
    if not os.path.exists(_BENCH_JSON):
        return []
    import json

    with open(_BENCH_JSON, encoding="utf-8") as fh:
        return sorted(json.load(fh))


def _undocumented_bench_sections(docs_text: str) -> list[str]:
    """Baseline sections whose name never appears in the docs."""
    return [
        s
        for s in _bench_sections()
        if not re.search(rf"\b{re.escape(s)}\b", docs_text)
    ]


def _doc_files() -> list[str]:
    docs = [os.path.join(REPO_ROOT, "README.md"), os.path.join(REPO_ROOT, "ROADMAP.md")]
    docs_dir = os.path.join(REPO_ROOT, "docs")
    if os.path.isdir(docs_dir):
        for name in sorted(os.listdir(docs_dir)):
            if name.endswith(".md"):
                docs.append(os.path.join(docs_dir, name))
    return [d for d in docs if os.path.exists(d)]


def main() -> int:
    problems: list[str] = []
    for rel in REQUIRED:
        if not os.path.exists(os.path.join(REPO_ROOT, rel)):
            problems.append(f"missing required doc: {rel}")

    n_links = 0
    docs_text = []
    for doc in _doc_files():
        base = os.path.dirname(doc)
        rel_doc = os.path.relpath(doc, REPO_ROOT)
        text = open(doc, encoding="utf-8").read()
        docs_text.append(text)
        for target in _LINK_RE.findall(text):
            if _SCHEME_RE.match(target) or target.startswith("#"):
                continue  # external URL or intra-document anchor
            path = target.split("#", 1)[0]
            n_links += 1
            resolved = os.path.normpath(os.path.join(base, path))
            if not os.path.exists(resolved):
                problems.append(f"{rel_doc}: broken link -> {target}")

    combined = "\n".join(docs_text)
    n_modules = len(_module_names())
    for module in _undocumented_modules(combined):
        problems.append(
            f"module {module} is not mentioned in README.md/ROADMAP.md/docs/*.md"
        )

    n_packages = len(_package_names())
    for package in _undocumented_packages(combined):
        problems.append(
            f"package {package} is not mentioned by dotted name in "
            "README.md/ROADMAP.md/docs/*.md"
        )

    n_routes = len(_route_patterns())
    for pattern in _undocumented_routes(combined):
        problems.append(
            f"HTTP route {pattern} is not documented in "
            "README.md/ROADMAP.md/docs/*.md"
        )

    n_sections = len(_bench_sections())
    for section in _undocumented_bench_sections(combined):
        problems.append(
            f"BENCH_perf.json section {section!r} is not documented in "
            "README.md/ROADMAP.md/docs/*.md (describe its schema in "
            "docs/PERFORMANCE.md)"
        )

    obs_metrics, obs_spans = _obs_catalogs()
    n_obs = len(obs_metrics) + len(obs_spans)
    for name in _undocumented_obs_names(combined):
        problems.append(
            f"obs catalog entry {name!r} is not documented (add it to the "
            "docs/OBSERVABILITY.md catalog tables)"
        )
    for site in _uncataloged_registrations():
        problems.append(
            f"{site} is registered in src/ but not declared in "
            "repro.obs.catalog"
        )

    if problems:
        for p in problems:
            print(f"FAIL {p}")
        return 1
    print(
        f"docs ok: {len(REQUIRED)} required files, {n_links} local links "
        f"resolve, {n_modules} public modules and {n_packages} packages "
        f"documented, "
        f"{n_routes} HTTP routes documented, "
        f"{n_sections} bench sections documented, "
        f"{n_obs} obs catalog entries documented and consistent"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
