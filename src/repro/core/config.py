"""Scenario configuration: one object wiring every subsystem's knobs.

Presets trade scale for runtime; all of them preserve the paper's
documented marginals (Table 2/3 outcome mixes, Fig. 2 concentration,
Fig. 9 density), which are scale-invariant by construction.

* :func:`tiny` — unit-test scale, seconds end-to-end.
* :func:`small` — the default benchmark scale, a couple of minutes.
* :func:`paper` — the full 2,156-provider scale of the paper (hours).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fcc.challenges import ChallengeConfig
from repro.fcc.fabric import FabricConfig
from repro.fcc.providers import ProviderConfig
from repro.asn.whois import WhoisConfig
from repro.ml.gbdt import GBDTParams
from repro.speedtests.mlab import MLabConfig
from repro.speedtests.ookla import OoklaConfig

__all__ = ["ScenarioConfig", "tiny", "small", "paper"]


@dataclass(frozen=True)
class ScenarioConfig:
    """Every knob of the end-to-end reproduction."""

    seed: int = 0
    fabric: FabricConfig = field(default_factory=FabricConfig)
    providers: ProviderConfig = field(default_factory=ProviderConfig)
    challenges: ChallengeConfig = field(default_factory=ChallengeConfig)
    whois: WhoisConfig = field(default_factory=WhoisConfig)
    ookla: OoklaConfig = field(default_factory=OoklaConfig)
    mlab: MLabConfig = field(default_factory=MLabConfig)
    model: GBDTParams = field(default_factory=lambda: GBDTParams(
        n_estimators=120, max_depth=6, learning_rate=0.15
    ))
    #: Methodology-embedding dimension (paper: 384 via S-BERT; smaller
    #: dimensions keep small-scale feature matrices manageable without
    #: changing which texts collide).
    embedding_dim: int = 32
    #: Ookla devices/BSL threshold for likely-served cells (paper: 1.0).
    coverage_threshold: float = 1.0


def tiny(seed: int = 0) -> ScenarioConfig:
    """Unit-test scale: ~60 providers on a sparse fabric."""
    return ScenarioConfig(
        seed=seed,
        fabric=FabricConfig(locations_per_million=150),
        providers=ProviderConfig(n_providers=60),
        model=GBDTParams(n_estimators=60, max_depth=5, learning_rate=0.2),
        embedding_dim=16,
    )


def small(seed: int = 0) -> ScenarioConfig:
    """Benchmark scale (the configuration EXPERIMENTS.md reports)."""
    return ScenarioConfig(
        seed=seed,
        fabric=FabricConfig(locations_per_million=400),
        providers=ProviderConfig(n_providers=220),
        embedding_dim=32,
    )


def paper(seed: int = 0) -> ScenarioConfig:
    """Full paper scale: 2,156 providers, S-BERT-sized embeddings."""
    return ScenarioConfig(
        seed=seed,
        fabric=FabricConfig(locations_per_million=1500),
        providers=ProviderConfig(n_providers=2156),
        model=GBDTParams(n_estimators=300, max_depth=7, learning_rate=0.1),
        embedding_dim=384,
    )
