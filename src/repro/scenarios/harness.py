"""End-to-end invariant harness over the scenario registry.

For every named scenario the harness runs the complete production path —
mutated world → labelled dataset → columnar features → GBDT →
:class:`~repro.serve.store.ClaimScoreStore` →
:class:`~repro.serve.service.AuditService` — and measures it against the
scenario's ground-truth injected-claim mask.  Two kinds of checks come
out of a run:

**Metamorphic invariants** (:func:`check_invariants`):

1. the binned route-word inference path used by the store is bitwise
   equal to the float path *on the scenario world* (not just the happy
   path the perf suite exercises);
2. scenario AUC — store margin against the injected mask — clears the
   scenario's registered floor;
3. injected claims sit measurably above clean claims on the percentile
   scale (separation floor per scenario);
4. **monotonicity**: scoring the scenario world with a *fixed* reference
   classifier (the baseline model), the targeted providers' mean
   suspicion percentile must not drop below their baseline-world value —
   injecting more overclaims for a provider must never make it look
   cleaner (``intensity_sweep`` extends this across intensities);
5. the :class:`AuditService` read path agrees with the store record for
   injected claims, and filtered top-k output is sorted by suspicion.

**Golden metrics** (:class:`ScenarioMetrics`): the per-scenario numbers
committed under ``tests/goldens/`` and refreshed by
``tools/refresh_goldens.py``; see :mod:`repro.scenarios.goldens` for the
tolerance contract.

Everything is seeded, so two consecutive runs of the harness produce
identical metrics — the seed-stability regression test pins that
property for :func:`repro.core.pipeline.build_world` itself.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import asdict, dataclass

import numpy as np

from repro.core.config import ScenarioConfig
from repro.core.model import NBMIntegrityModel
from repro.core.pipeline import (
    SimulationWorld,
    build_dataset,
    build_world,
    enrichment_from_world,
    make_feature_builder,
)
from repro.dataset.splits import Split, random_observation_split
from repro.fcc.fabric import FabricConfig
from repro.fcc.providers import ProviderConfig
from repro.ml.gbdt import GBDTParams
from repro.ml.metrics import roc_auc_score
from repro.scenarios import registry
from repro.scenarios.registry import ScenarioSpec, ScenarioWorld
from repro.serve.service import AuditService
from repro.serve.store import ClaimScoreStore

__all__ = [
    "scenario_default_config",
    "HarnessBaseline",
    "ScenarioMetrics",
    "ScenarioRun",
    "build_baseline",
    "run_scenario",
    "run_suite",
    "check_invariants",
    "check_fault_invariants",
    "check_pool_fault_invariants",
    "intensity_sweep",
]

#: Tolerance (percentile points) on the cross-world monotonicity check.
MONOTONICITY_TOL = 2.0


def scenario_default_config(seed: int = 7) -> ScenarioConfig:
    """The harness scale: smaller than ``tiny`` so a full scenario sweep
    (one world build + train + two score stores per scenario) stays
    test-suite-affordable, while keeping every marginal the paper's
    presets preserve."""
    return ScenarioConfig(
        seed=seed,
        fabric=FabricConfig(locations_per_million=60),
        providers=ProviderConfig(n_providers=28),
        model=GBDTParams(n_estimators=40, max_depth=4, learning_rate=0.25),
        embedding_dim=16,
    )


@dataclass
class HarnessBaseline:
    """The unmutated reference world and its trained model + store."""

    config: ScenarioConfig
    world: SimulationWorld
    dataset: object
    split: Split
    builder: object
    model: NBMIntegrityModel
    store: ClaimScoreStore


@dataclass(frozen=True)
class ScenarioMetrics:
    """One scenario's end-to-end numbers (the golden-file payload)."""

    name: str
    intensity: float
    n_claims: int
    n_injected: int
    n_observations: int
    #: AUC of the scenario-trained store's margins vs. the injected mask.
    auc_injected: float
    #: Same AUC under the fixed baseline classifier (reference scoring).
    ref_auc_injected: float
    mean_injected_percentile: float
    mean_clean_percentile: float
    percentile_separation: float
    #: Targeted providers' mean percentile under the *fixed* reference
    #: classifier, on the scenario world vs. on the baseline world
    #: (``baseline_target_mean_percentile`` is None for providers the
    #: scenario created from nothing).
    ref_target_mean_percentile: float
    baseline_target_mean_percentile: float | None
    binned_equals_float: bool
    #: Store-build throughput (claims scored per second; not goldened).
    claims_per_s: float
    #: "enriched" scenarios only: AUC of a base-feature control model
    #: trained on the same scenario world, and the margin the enrichment
    #: block adds over it (``auc_injected - base_auc_injected``).  None
    #: for base-feature scenarios — and *omitted* from :meth:`as_dict`,
    #: so pre-enrichment golden entries compare unchanged.
    base_auc_injected: float | None = None
    enrichment_margin: float | None = None

    def as_dict(self) -> dict:
        doc = asdict(self)
        for optional in ("base_auc_injected", "enrichment_margin"):
            if doc[optional] is None:
                del doc[optional]
        return doc


@dataclass
class ScenarioRun:
    """Everything one scenario run produced."""

    scenario: ScenarioWorld
    spec: ScenarioSpec
    builder: object
    model: NBMIntegrityModel
    store: ClaimScoreStore
    #: Scenario claims scored by the fixed baseline classifier.
    ref_store: ClaimScoreStore
    service: AuditService
    mask: np.ndarray
    metrics: ScenarioMetrics


def build_baseline(config: ScenarioConfig | None = None) -> HarnessBaseline:
    """Build and train the unmutated reference world once."""
    config = config or scenario_default_config()
    world = build_world(config)
    dataset = build_dataset(world)
    builder = make_feature_builder(world)
    split = random_observation_split(dataset, seed=1)
    model = NBMIntegrityModel(builder, params=config.model).fit(
        dataset, split.train_idx
    )
    store = ClaimScoreStore.build(model.classifier, builder)
    return HarnessBaseline(
        config=config,
        world=world,
        dataset=dataset,
        split=split,
        builder=builder,
        model=model,
        store=store,
    )


def _provider_mean_percentile(store: ClaimScoreStore, provider_ids) -> float | None:
    mask = np.isin(store.claims.provider_id, np.array(sorted(provider_ids), dtype=np.int64))
    if not mask.any():
        return None
    return float(store.percentile[mask].mean())


def run_scenario(
    name: str, baseline: HarnessBaseline, intensity: float = 1.0
) -> ScenarioRun:
    """Run one scenario end to end: world → dataset → GBDT → store → service."""
    spec = registry.get(name)
    scenario = registry.build_scenario(name, baseline.config, intensity)
    world = scenario.world
    dataset = build_dataset(world)
    # "enriched" scenarios train on the measured-truth feature block; the
    # fixed-reference scoring (and the base-feature control model) go
    # through a plain base builder — the baseline classifier was trained
    # on base features and must never see the wider matrix.
    enriched = "enriched" in spec.tags
    enrichment = enrichment_from_world(world) if enriched else None
    builder = make_feature_builder(world, enrichment=enrichment)
    base_builder = make_feature_builder(world) if enriched else builder
    split = random_observation_split(dataset, seed=1)
    model = NBMIntegrityModel(builder, params=baseline.config.model).fit(
        dataset, split.train_idx
    )
    t0 = time.perf_counter()
    store = ClaimScoreStore.build(model.classifier, builder)
    build_s = time.perf_counter() - t0
    ref_store = ClaimScoreStore.build(baseline.model.classifier, base_builder)
    service = AuditService(
        store,
        classifier=model.classifier,
        builder=builder,
        model=model,
        enrichment=enrichment,
    )

    mask = scenario.injected_mask()
    labels = mask.astype(np.int64)
    both_classes = 0 < int(mask.sum()) < mask.size
    auc = roc_auc_score(labels, store.margin) if both_classes else float("nan")
    ref_auc = roc_auc_score(labels, ref_store.margin) if both_classes else float("nan")
    # The same blocked scorer, routed through the float traversal — any
    # divergence from the binned production path fails the invariant.
    float_store = ClaimScoreStore.build(model.classifier, builder, binned=False)
    binned_ok = bool(np.array_equal(store.margin, float_store.margin))
    ref_target = _provider_mean_percentile(ref_store, scenario.target_provider_ids)
    baseline_target = _provider_mean_percentile(
        baseline.store, scenario.target_provider_ids
    )
    base_auc = None
    enrichment_margin = None
    if enriched and both_classes:
        # The control: the same GBDT recipe on the same scenario world,
        # minus the enrichment block.  The margin this leaves proves the
        # enriched features add separation the base set cannot achieve.
        base_model = NBMIntegrityModel(
            base_builder, params=baseline.config.model
        ).fit(dataset, split.train_idx)
        base_store = ClaimScoreStore.build(base_model.classifier, base_builder)
        base_auc = float(roc_auc_score(labels, base_store.margin))
        enrichment_margin = float(auc) - base_auc
    metrics = ScenarioMetrics(
        name=name,
        intensity=float(intensity),
        n_claims=len(store),
        n_injected=int(mask.sum()),
        n_observations=len(dataset),
        auc_injected=float(auc),
        ref_auc_injected=float(ref_auc),
        mean_injected_percentile=float(store.percentile[mask].mean()) if mask.any() else float("nan"),
        mean_clean_percentile=float(store.percentile[~mask].mean()) if (~mask).any() else float("nan"),
        percentile_separation=float(
            store.percentile[mask].mean() - store.percentile[~mask].mean()
        )
        if both_classes
        else float("nan"),
        ref_target_mean_percentile=float(ref_target) if ref_target is not None else float("nan"),
        baseline_target_mean_percentile=baseline_target,
        binned_equals_float=binned_ok,
        claims_per_s=float(len(store) / build_s) if build_s > 0 else float("inf"),
        base_auc_injected=base_auc,
        enrichment_margin=enrichment_margin,
    )
    return ScenarioRun(
        scenario=scenario,
        spec=spec,
        builder=builder,
        model=model,
        store=store,
        ref_store=ref_store,
        service=service,
        mask=mask,
        metrics=metrics,
    )


def check_invariants(run: ScenarioRun, baseline: HarnessBaseline) -> list[str]:
    """Every violated invariant as a human-readable message (empty = pass)."""
    failures: list[str] = []
    m = run.metrics
    spec = run.spec
    if m.n_injected == 0:
        failures.append("scenario injected no claims that materialized")
        return failures
    if not m.binned_equals_float:
        failures.append("binned store margins differ from the float path")
    if not m.auc_injected >= spec.auc_floor:
        failures.append(
            f"scenario AUC {m.auc_injected:.3f} below floor {spec.auc_floor:.2f}"
        )
    if not m.percentile_separation >= spec.min_separation:
        failures.append(
            f"percentile separation {m.percentile_separation:.1f} below "
            f"floor {spec.min_separation:.1f}"
        )
    if spec.min_enrichment_margin is not None:
        if m.enrichment_margin is None:
            failures.append(
                "scenario declares min_enrichment_margin but the run "
                "produced no enrichment margin (missing 'enriched' tag?)"
            )
        elif not m.enrichment_margin >= spec.min_enrichment_margin:
            failures.append(
                f"enrichment margin {m.enrichment_margin:.3f} "
                f"(AUC {m.auc_injected:.3f} enriched vs "
                f"{m.base_auc_injected:.3f} base) below floor "
                f"{spec.min_enrichment_margin:.2f}"
            )
    if m.baseline_target_mean_percentile is not None:
        if m.ref_target_mean_percentile < (
            m.baseline_target_mean_percentile - MONOTONICITY_TOL
        ):
            failures.append(
                "monotonicity violated: target providers' mean percentile "
                f"dropped from {m.baseline_target_mean_percentile:.1f} "
                f"(baseline) to {m.ref_target_mean_percentile:.1f} (scenario) "
                "under the fixed reference classifier"
            )
    else:
        # A provider invented by the scenario has no baseline footprint to
        # compare against (and may copy a legitimate one, as the duplicate
        # FRN does); its *injected* claims must land in the suspicious half.
        if m.mean_injected_percentile < 50.0:
            failures.append(
                "injected claims' mean percentile "
                f"{m.mean_injected_percentile:.1f} is below the median"
            )
    failures.extend(_service_consistency(run))
    return failures


def _service_consistency(run: ScenarioRun, sample: int = 5) -> list[str]:
    """The serving read path must agree with the store on injected claims.

    Checked twice: directly against the :class:`AuditService` facade, and
    over the wire — a live HTTP server walked with the typed
    :class:`~repro.client.AuditClient` — so every scenario sweep
    exercises the full v2 surface (router, schemas, pagination, batch
    scoring), not just the in-process facade.
    """
    failures: list[str] = []
    rows = np.nonzero(run.mask)[0][:sample]
    for row in rows:
        key = run.store.claims.key_at(int(row))
        record = run.service.score_claim(*key)
        if record is None:
            failures.append(f"service returned no record for injected claim {key}")
            continue
        if record["margin"] != float(run.store.margin[row]):
            failures.append(f"service margin mismatch for injected claim {key}")
    top = run.service.top_suspicious(k=min(10, len(run.store)))
    scores = [r["score"] for r in top]
    if scores != sorted(scores, reverse=True):
        failures.append("top_suspicious output is not sorted by score")
    failures.extend(_http_consistency(run, rows))
    return failures


def _http_consistency(run: ScenarioRun, rows: np.ndarray) -> list[str]:
    """Drive the v2 HTTP API + client SDK against the scenario store."""
    import threading

    from repro.client import AuditClient
    from repro.serve.http import make_server

    failures: list[str] = []
    store = run.store
    server = make_server(run.service)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    client = AuditClient(f"http://127.0.0.1:{server.server_address[1]}")
    try:
        keys = [store.claims.key_at(int(row)) for row in rows]
        for row, key in zip(rows, keys):
            record = client.get_claim(*key)
            if record is None or record.margin != float(store.margin[row]):
                failures.append(
                    f"v2 claim endpoint disagrees with the store for {key}"
                )
        page = client.page_claims(limit=min(10, len(store)))
        expected = [float(store.margin[r]) for r in store.sus_order[: len(page.items)]]
        if [r.margin for r in page.items] != expected:
            failures.append(
                "v2 paginated list disagrees with the store's suspicion order"
            )
        if keys:
            response = client.batch_score(keys)
            batch_margins = [
                None if r is None else r.margin for r in response.results
            ]
            if batch_margins != [float(store.margin[r]) for r in rows]:
                failures.append(
                    "v2 batch scoring disagrees with the store margins"
                )
    finally:
        client.close()
        server.shutdown()
        server.server_close()
    return failures


class _ResponseOracle:
    """The one judge of chaos-run responses, for a server or a pool.

    Drives a read mix (one precomputed claim, one page of the suspicion
    walk, one batch) at ``127.0.0.1:port`` and classifies every
    response.  ``versions`` maps each served version name to its
    :class:`ClaimScoreStore` (the same claims under different margins).
    ``cold_key``, when given, rides as the batch's last key: a claim
    absent from the store, scored live as a hypothetical filing.

    An outcome passes only if it is one of:

    * **correct** — a 200 whose precomputed values match the store of
      exactly the version named in its envelope (never a mix);
    * **shed** — a 408, 429 or 503 carrying ``Retry-After``;
    * **degraded** — a 200 batch with ``"degraded": true`` whose only
      null slot is the cold key.

    Anything else is recorded in :attr:`failures` (capped at 20).
    """

    def __init__(self, port: int, versions: dict, cold_key: dict | None = None):
        self.port = port
        self.versions = versions
        self.cold_key = cold_key
        store = next(iter(versions.values()))
        self.rows = [int(r) for r in np.linspace(0, len(store) - 1, 8).astype(int)]
        self.keys = [store.claims.key_at(r) for r in self.rows]
        claims = [
            {"provider_id": int(p), "cell": int(c), "technology": int(t)}
            for p, c, t in self.keys
        ]
        if cold_key is not None:
            claims.append(cold_key)
        self.batch_body = json.dumps({"claims": claims}).encode()
        self.failures: list[str] = []
        self._lock = threading.Lock()

    def fail(self, message: str) -> None:
        with self._lock:
            if len(self.failures) < 20:
                self.failures.append(message)

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)

    def request(self, conn, method: str, path: str, body: bytes | None = None):
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        raw = response.read()
        if response.will_close:
            conn.close()
        try:
            doc = json.loads(raw) if raw else None
        except json.JSONDecodeError:
            doc = None
        return response.status, dict(response.getheaders()), doc

    def judge(self, status: int, headers: dict, doc, where: str):
        """The store of the version a 200 claims to serve, or ``None``
        once a non-200 (shed or failure) or unknown version is judged."""
        if status in (408, 429, 503):
            if headers.get("Retry-After") is None:
                self.fail(f"{where}: {status} response without Retry-After")
            return None
        if status != 200:
            self.fail(f"{where}: unexpected status {status} ({doc})")
            return None
        version = doc.get("model_version") if isinstance(doc, dict) else None
        store = self.versions.get(version)
        if store is None:
            self.fail(f"{where}: 200 without a known model version ({doc})")
        return store

    def read_once(self, conn, i: int) -> None:
        """One claim read, one page read and one batch, each judged."""
        row = self.rows[i % len(self.rows)]
        p, c, t = self.keys[i % len(self.keys)]
        status, headers, doc = self.request(
            conn, "GET", f"/v2/claims/{int(p)}/{int(c)}/{int(t)}"
        )
        store = self.judge(status, headers, doc, "claim")
        if store is not None and doc["record"]["margin"] != float(store.margin[row]):
            self.fail(f"claim: margin does not match version {doc['model_version']!r}")
        status, headers, doc = self.request(conn, "GET", "/v2/claims?limit=5")
        store = self.judge(status, headers, doc, "page")
        if store is not None:
            expected = [float(store.margin[r]) for r in store.sus_order[:5]]
            if [r["margin"] for r in doc["items"]] != expected:
                self.fail(f"page: items mix versions under {doc['model_version']!r}")
        status, headers, doc = self.request(
            conn, "POST", "/v2/claims:batchScore", self.batch_body
        )
        store = self.judge(status, headers, doc, "batch")
        if store is None:
            return
        results = doc["results"]
        for j, result in enumerate(results[: len(self.keys)]):
            if result is None:
                self.fail("batch: precomputed slot came back null")
            elif result["margin"] != float(store.margin[self.rows[j]]):
                self.fail(
                    "batch: precomputed slot does not match version "
                    f"{doc['model_version']!r}"
                )
        cold_null = self.cold_key is not None and results[-1] is None
        if cold_null and not doc.get("degraded"):
            self.fail("batch: cold slot null without degraded: true")

    def reader(self, iterations: int) -> None:
        """``iterations`` rounds of :meth:`read_once` on one keep-alive
        connection; a connection dropped under load (shed hygiene, a
        killed worker) is reopened, not counted as a failure."""
        conn = self.connect()
        try:
            for i in range(iterations):
                try:
                    self.read_once(conn, i)
                except (http.client.HTTPException, OSError):
                    conn.close()
                    conn = self.connect()
        finally:
            conn.close()


def _chaos_resilience():
    """The tight admission gate and short deadlines both chaos runs use."""
    from repro.serve.resilience import ResilienceConfig

    return ResilienceConfig(
        max_concurrent=2,
        max_queue=2,
        max_queue_wait_s=0.05,
        default_deadline_s=2.0,
        socket_timeout_s=5.0,
        retry_after_s=1.0,
    )


def _run_threads(targets) -> None:
    threads = [threading.Thread(target=t) for t in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def check_fault_invariants(
    store: ClaimScoreStore,
    classifier=None,
    builder=None,
    plan_name: str = "cold_flaky",
    iterations: int = 25,
    n_readers: int = 3,
    n_swaps: int = 20,
) -> list[str]:
    """The resilience invariant, end to end over the wire.

    Serves ``store`` (plus a sign-flipped shadow version) through a live
    HTTP server configured with a **deterministic fault plan** at every
    serving seam, a hair-trigger circuit breaker, a tight admission gate,
    and short deadlines — while reader threads hammer the data routes and
    a swapper thread flips the default version back and forth.  Every
    response must pass :class:`_ResponseOracle` (correct for exactly one
    version, shed with ``Retry-After``, or degraded).

    Returns violated invariants as messages (empty = pass).
    """
    from repro.serve.http import make_server
    from repro.serve.registry import ModelRegistry
    from repro.serve.resilience import CircuitBreaker, chaos_plan

    flipped = ClaimScoreStore(store.claims, -store.margin)
    versions = {"default": store, "flipped": flipped}
    plans = {name: chaos_plan(plan_name) for name in versions}
    registry_ = ModelRegistry(max_delay_s=0.0005, cache_size=0)
    for name, version_store in versions.items():
        registry_.add(
            name,
            version_store,
            classifier=classifier,
            builder=builder,
            fault_plan=plans[name],
            breaker=CircuitBreaker(failure_threshold=2, reset_after_s=0.05),
        )
    registry_.activate("default")
    service = AuditService.from_registry(registry_)
    server = make_server(service, resilience=_chaos_resilience())
    threading.Thread(target=server.serve_forever, daemon=True).start()

    # One cold-capable key: a technology no claim uses at the first
    # probe's cell, scored as a hypothetical.
    cold_key = None
    if classifier is not None and builder is not None:
        pid, cell, _tech = store.claims.key_at(0)
        for tech in (10, 40, 50, 70, 71):
            pos = store.positions(
                np.array([pid]), np.array([cell], dtype=np.uint64), np.array([tech])
            )
            if pos[0] < 0:
                cold_key = {
                    "provider_id": int(pid),
                    "cell": int(cell),
                    "technology": int(tech),
                    "state": str(store.record(0)["state"]),
                }
                break
    oracle = _ResponseOracle(server.server_address[1], versions, cold_key)

    def swapper() -> None:
        conn = oracle.connect()
        try:
            for i in range(n_swaps):
                target = "flipped" if i % 2 == 0 else "default"
                try:
                    status, _headers, doc = oracle.request(
                        conn, "POST", f"/v2/models/{target}:activate"
                    )
                    if status != 200:
                        oracle.fail(f"activate: unexpected status {status} ({doc})")
                except (http.client.HTTPException, OSError):
                    conn.close()
                    conn = oracle.connect()
        finally:
            conn.close()

    try:
        _run_threads(
            [lambda: oracle.reader(iterations)] * n_readers + [swapper]
        )
    finally:
        server.shutdown()
        server.server_close()
        service.close()

    failures = oracle.failures
    fired = sum(
        seam["fired"] for plan in plans.values() for seam in plan.counts().values()
    )
    if fired == 0:
        failures.append(
            f"fault plan {plan_name!r} never fired — the chaos run was vacuous"
        )
    return failures


def check_pool_fault_invariants(
    store: ClaimScoreStore,
    workdir: str,
    plan_name: str = "store_read_flaky",
    n_workers: int = 2,
    iterations: int = 15,
    n_readers: int = 3,
    n_swaps: int = 8,
    n_kills: int = 2,
) -> list[str]:
    """The resilience invariant under a *multi-process* fleet.

    :func:`check_fault_invariants` hammers one process; this serves
    ``store`` (plus a sign-flipped shadow version) through a live
    :class:`~repro.serve.workers.WorkerPool` — every worker running the
    chaos plan at its serving seams under a tight admission gate — while
    reader threads hammer the data routes, a swapper drives fleet-wide
    two-phase swaps, and a killer SIGKILLs live workers mid-traffic.

    Invariants, on top of every response passing
    :class:`_ResponseOracle`:

    * a swap either commits on every worker or aborts on all of them —
      an abort caused by a mid-swap worker death is acceptable, a mixed
      response is not;
    * every killed worker is respawned (the pool's restart counter
      moves and the fleet answers with ``n_workers`` pids again), and
      the respawn serves the *current* default;
    * the chaos plans actually fired inside the workers (reported over
      the control pipes — a fault plan's counters cannot cross a
      process boundary on their own).

    Returns violated invariants as messages (empty = pass).
    """
    import os as _os
    import signal as _signal

    from repro.serve.workers import WorkerPool, WorkerVersionSpec

    flipped = ClaimScoreStore(store.claims, -store.margin)
    versions = {"default": store, "flipped": flipped}
    specs = []
    for name, version_store in versions.items():
        path = _os.path.join(workdir, f"pool-{name}")
        version_store.save_sharded(path, shards=1)
        specs.append(WorkerVersionSpec(name=name, path=path, chaos_plan=plan_name))
    pool = WorkerPool(specs, n_workers=n_workers, resilience=_chaos_resilience())
    pool.start()
    oracle = _ResponseOracle(pool.port, versions)

    def swapper() -> None:
        for i in range(n_swaps):
            target = "flipped" if i % 2 == 0 else "default"
            try:
                pool.activate(target)
            except RuntimeError:
                # A worker died mid-stage: the two-phase protocol aborts
                # with the fleet untouched — acceptable under kill churn.
                pass
            time.sleep(0.01)

    def killer() -> None:
        for _ in range(n_kills):
            time.sleep(0.15)
            pids = pool.worker_pids()
            if not pids:
                continue
            try:
                _os.kill(pids[0], _signal.SIGKILL)
            except ProcessLookupError:
                pass

    failures = oracle.failures
    try:
        _run_threads(
            [lambda: oracle.reader(iterations)] * n_readers + [swapper, killer]
        )
        # Respawn: every kill must be healed — the restart counter moved
        # and the fleet answers with a full complement again.  The
        # monitor detects deaths asynchronously, so wait for it.
        restart_counter = pool.metrics.counter("pool_worker_restarts_total")
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if (
                restart_counter.value >= n_kills
                and len(pool.ping()) == n_workers
            ):
                break
            time.sleep(0.05)
        if restart_counter.value < n_kills:
            failures.append(
                f"only {restart_counter.value} worker respawns observed "
                f"for {n_kills} kills"
            )
        if len(pool.ping()) != n_workers:
            failures.append(
                "fleet never returned to full strength after kill churn"
            )
        # Post-churn coherence: one more fleet swap commits cleanly and
        # every worker serves the committed default.
        try:
            pool.activate("default")
        except RuntimeError as exc:
            failures.append(f"post-churn swap failed: {exc}")
        else:
            for desc in pool.describe():
                if desc["default"] != "default":
                    failures.append(
                        f"worker {desc['index']} serves {desc['default']!r} "
                        "after the post-churn swap"
                    )
        # Vacuousness check: the plans must verifiably fire *inside* the
        # workers.  Counts die with a killed process, so drive a little
        # fresh (still judged) traffic at the healed fleet first.
        oracle.reader(2 * n_workers)
        fired = sum(
            seam["fired"]
            for seams in pool.chaos_counts().values()
            for seam in seams.values()
        )
        if fired == 0:
            failures.append(
                f"fault plan {plan_name!r} never fired in any worker — "
                "the chaos run was vacuous"
            )
    finally:
        pool.stop()
    return failures


def run_suite(
    baseline: HarnessBaseline,
    names: list[str] | None = None,
    intensity: float = 1.0,
) -> dict[str, ScenarioRun]:
    """Run (a subset of) the registry; returns runs keyed by scenario name."""
    out: dict[str, ScenarioRun] = {}
    for name in names if names is not None else registry.names():
        out[name] = run_scenario(name, baseline, intensity)
    return out


def intensity_sweep(
    name: str,
    baseline: HarnessBaseline,
    intensities: tuple[float, ...] = (0.5, 1.0),
) -> list[ScenarioMetrics]:
    """The metamorphic sweep behind invariant 4: as a scenario's intensity
    rises, the targeted providers' mean suspicion percentile under the
    fixed reference classifier must be non-decreasing (within tolerance)."""
    runs = [run_scenario(name, baseline, i) for i in sorted(intensities)]
    return [r.metrics for r in runs]
