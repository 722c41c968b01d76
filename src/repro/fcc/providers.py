"""Internet service providers: identities, footprints, and claim strategies.

Each simulated provider carries everything the downstream pipeline touches:

* an FCC-style identity (Provider ID, FRNs, legal name, brand, contact
  email/address) used by the ASN-crosswalk matching;
* per-(state, technology) *true* and *claimed* hex footprints.  The gap
  between the two is the provider's **overclaim** — the quantity the
  paper's model learns to detect;
* a BDC *methodology*: how the provider decided what to report.  The
  paper found methodologies ranged from subscriber addresses to outright
  disallowed census-block reporting, with blocks of small ISPs filing
  word-for-word identical consultant-written text.  Overclaim rates here
  are driven by methodology, which is what makes the methodology-text
  embedding an informative feature;
* service attributes per technology (advertised speeds, latency class).

Generation is deterministic given a seed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.fcc.fabric import Fabric
from repro.fcc.states import STATES, StateInfo, state_by_abbr
from repro.geo import hexgrid
from repro.utils.rng import stream_rng

__all__ = [
    "TECHNOLOGY_CODES",
    "TECHNOLOGY_NAMES",
    "Methodology",
    "ServiceTier",
    "Provider",
    "FootprintPair",
    "ProviderConfig",
    "ProviderUniverse",
    "generate_providers",
    "methodology_text",
]

#: FCC BDC technology codes used in this reproduction.
TECHNOLOGY_CODES = (10, 40, 50, 60, 70, 71)
TECHNOLOGY_NAMES = {
    10: "Copper",
    40: "Cable",
    50: "Fiber",
    60: "GSO Satellite",
    70: "Unlicensed Fixed Wireless",
    71: "Licensed Fixed Wireless",
}

#: The eight large terrestrial ISPs the paper evaluates individually
#: (Figure 6), with their filing brand names and primary technologies.
MAJOR_ISPS = (
    ("Comcast Corporation", "Xfinity", (40,)),
    ("Charter Communications", "Spectrum", (40,)),
    ("AT&T Services Inc", "AT&T", (50, 10)),
    ("Verizon Communications", "Verizon Fios", (50, 10)),
    ("T-Mobile US", "T-Mobile Home Internet", (71,)),
    ("Lumen Technologies", "CenturyLink", (50, 10)),
    ("Frontier Communications", "Frontier", (50, 10)),
    ("United States Cellular Corporation", "US Cellular", (71, 70)),
)


class Methodology(enum.Enum):
    """How a provider generated its BDC availability list."""

    SUBSCRIBER_ADDRESSES = "subscriber_addresses"
    INFRASTRUCTURE_MAPS = "infrastructure_maps"
    PROPAGATION_MODEL = "propagation_model"
    CENSUS_BLOCKS = "census_blocks"
    CONSULTANT_TEMPLATE = "consultant_template"


#: Overclaim-rate ranges by methodology: the fraction of a provider's
#: claimed hexes they do not actually serve.  Census-block reporting (a
#: Form-477 habit the BDC explicitly disallows) produces the heaviest
#: overstatement; subscriber-address lists the lightest.
_OVERCLAIM_RANGES = {
    Methodology.SUBSCRIBER_ADDRESSES: (0.02, 0.10),
    Methodology.INFRASTRUCTURE_MAPS: (0.06, 0.16),
    Methodology.PROPAGATION_MODEL: (0.15, 0.35),
    Methodology.CENSUS_BLOCKS: (0.30, 0.50),
    Methodology.CONSULTANT_TEMPLATE: (0.10, 0.28),
}

_METHODOLOGY_TEMPLATES = {
    Methodology.SUBSCRIBER_ADDRESSES: (
        "{name} reports broadband serviceable locations based on our active "
        "subscriber billing records and service-order database. A location is "
        "reported as served where we have an existing customer or have "
        "completed a standard installation within ten business days in the "
        "prior reporting period."
    ),
    Methodology.INFRASTRUCTURE_MAPS: (
        "{name} determines availability from engineering records of our "
        "outside plant, including fiber routes, splice cases, and cabinet "
        "serving areas maintained in our GIS system. Locations within a "
        "standard drop length of distribution plant are reported as served."
    ),
    Methodology.PROPAGATION_MODEL: (
        "{name} models coverage for fixed wireless service using a terrain "
        "aware RF propagation study calibrated with drive test data. "
        "Locations with predicted signal strength sufficient to deliver the "
        "advertised speed tier are reported as serviceable."
    ),
    Methodology.CENSUS_BLOCKS: (
        "{name} reports service availability for all locations within census "
        "blocks where the company has any existing plant or customers, "
        "consistent with our previous FCC Form 477 filings."
    ),
    Methodology.CONSULTANT_TEMPLATE: (
        "This filing was prepared on behalf of the provider by its "
        "consultant. Serviceable locations were identified by buffering "
        "network infrastructure supplied by the provider and intersecting "
        "the resulting polygons with the Broadband Serviceable Location "
        "Fabric, then reviewed by provider staff for accuracy prior to "
        "submission."
    ),
}


def methodology_text(method: Methodology, provider_name: str) -> str:
    """The free-text methodology a provider files with the BDC.

    Consultant-template filings are word-for-word identical across
    providers (the paper observed this for consultant-prepared filings);
    all other methodologies mention the provider by name.
    """
    template = _METHODOLOGY_TEMPLATES[method]
    if method is Methodology.CONSULTANT_TEMPLATE:
        return template
    return template.format(name=provider_name)


@dataclass(frozen=True)
class ServiceTier:
    """Advertised service for one technology."""

    technology: int
    max_download_mbps: float
    max_upload_mbps: float
    low_latency: bool


@dataclass(frozen=True)
class FootprintPair:
    """True vs claimed hex cells for one (provider, state, technology)."""

    true_cells: frozenset[int]
    claimed_cells: frozenset[int]

    @property
    def overclaimed_cells(self) -> frozenset[int]:
        return self.claimed_cells - self.true_cells

    @property
    def overclaim_fraction(self) -> float:
        if not self.claimed_cells:
            return 0.0
        return len(self.overclaimed_cells) / len(self.claimed_cells)


@dataclass(frozen=True)
class Provider:
    """One ISP participating in the BDC."""

    provider_id: int
    name: str
    brand_name: str
    holding_company: str
    size_class: str  # 'national' | 'regional' | 'local' | 'satellite'
    states: tuple[str, ...]
    tiers: tuple[ServiceTier, ...]
    methodology: Methodology
    methodology_text: str
    overclaim_rate: float
    #: Probability the provider concedes a valid challenge rather than
    #: disputing it (drives Table 2's outcome mix).
    concede_propensity: float
    #: Probability the provider runs an internal audit that removes
    #: overclaimed locations in a minor NBM update (the paper's
    #: "non-archived changes").
    self_correction_rate: float
    frns: tuple[int, ...]
    contact_email: str
    email_domain: str
    hq_address: str
    hq_state: str

    @property
    def technologies(self) -> tuple[int, ...]:
        return tuple(t.technology for t in self.tiers)

    @property
    def is_satellite(self) -> bool:
        return self.size_class == "satellite"

    def tier_for(self, technology: int) -> ServiceTier:
        for tier in self.tiers:
            if tier.technology == technology:
                return tier
        raise KeyError(f"provider {self.provider_id} has no technology {technology}")


@dataclass(frozen=True)
class ProviderConfig:
    """Knobs controlling the provider universe."""

    n_providers: int = 220
    n_satellite: int = 3
    regional_fraction: float = 0.22
    #: States a regional provider operates in.
    regional_states: tuple[int, int] = (2, 6)
    #: Anchor towns per state for local / regional / national providers.
    anchors_local: tuple[int, int] = (1, 4)
    anchors_regional: tuple[int, int] = (2, 7)
    anchors_national_fraction: float = 0.45
    #: Footprint disk radius (hexes) by technology code.
    radius_by_tech: dict[int, tuple[int, int]] = field(
        default_factory=lambda: {
            10: (4, 9),
            40: (3, 8),
            50: (2, 6),
            70: (6, 13),
            71: (6, 13),
        }
    )
    #: Extra rings beyond the true footprint that overclaims may extend into.
    overclaim_extra_rings: int = 3

    def validate(self) -> "ProviderConfig":
        if self.n_providers < len(MAJOR_ISPS) + self.n_satellite + 5:
            raise ValueError(
                "n_providers too small to hold majors, satellites, and a tail"
            )
        if not 0.0 <= self.regional_fraction <= 1.0:
            raise ValueError("regional_fraction must be in [0, 1]")
        return self


_NAME_ADJECTIVES = (
    "Valley", "Prairie", "Summit", "Pioneer", "Heartland", "Lakeside",
    "Bluegrass", "Cascade", "Canyon", "Harbor", "Redwood", "Mesa",
    "Frontier", "Golden", "Granite", "Juniper", "Keystone", "Liberty",
    "Meadow", "Northern", "Ozark", "Piedmont", "Ridgeline", "Sierra",
    "Timber", "Tristate", "Wildcat", "Windmill", "Yellowstone", "Zephyr",
)
_NAME_NOUNS = (
    "Telecom", "Communications", "Cable", "Fiber", "Broadband", "Wireless",
    "Networks", "Cooperative", "Telephone Company", "Internet",
)
_SUFFIXES = ("Inc", "LLC", "Co", "")


def _company_name(rng: np.random.Generator) -> str:
    adj = _NAME_ADJECTIVES[int(rng.integers(len(_NAME_ADJECTIVES)))]
    noun = _NAME_NOUNS[int(rng.integers(len(_NAME_NOUNS)))]
    suffix = _SUFFIXES[int(rng.integers(len(_SUFFIXES)))]
    name = f"{adj} {noun}"
    return f"{name} {suffix}".strip()


def _email_domain(name: str) -> str:
    stem = "".join(
        ch for ch in name.lower() if ch.isalnum()
    )
    for junk in ("inc", "llc", "co"):
        if stem.endswith(junk):
            stem = stem[: -len(junk)]
    return f"{stem[:24]}.com"


_STREET_NAMES = (
    "Main Street", "Oak Avenue", "Maple Drive", "2nd Street", "Commerce Boulevard",
    "Industrial Parkway", "Telegraph Road", "Depot Street", "Highway 30",
    "County Road 12",
)


def _street_address(rng: np.random.Generator, state: str) -> str:
    number = int(rng.integers(100, 9900))
    street = _STREET_NAMES[int(rng.integers(len(_STREET_NAMES)))]
    zip5 = int(rng.integers(10000, 99999))
    return f"{number} {street}, Springfield, {state} {zip5}"


def _speed_tier(rng: np.random.Generator, technology: int) -> ServiceTier:
    """Draw a realistic advertised tier for a technology."""
    if technology == 50:  # fiber
        down = float(rng.choice([300, 500, 940, 1000, 2000], p=[0.1, 0.15, 0.3, 0.35, 0.1]))
        up = down
        low_latency = True
    elif technology == 40:  # cable / DOCSIS
        down = float(rng.choice([200, 400, 800, 1200], p=[0.15, 0.25, 0.3, 0.3]))
        up = float(rng.choice([10, 20, 35, 50], p=[0.2, 0.35, 0.3, 0.15]))
        low_latency = True
    elif technology == 10:  # copper / DSL
        down = float(rng.choice([10, 25, 50, 100], p=[0.25, 0.35, 0.25, 0.15]))
        up = max(1.0, down / 8.0)
        low_latency = bool(rng.random() < 0.8)
    elif technology in (70, 71):  # fixed wireless
        down = float(rng.choice([25, 50, 100, 200], p=[0.25, 0.35, 0.3, 0.1]))
        up = float(rng.choice([5, 10, 20], p=[0.4, 0.4, 0.2]))
        low_latency = bool(rng.random() < 0.9)
    elif technology == 60:  # GSO satellite
        down, up, low_latency = 100.0, 12.0, False
    else:
        raise ValueError(f"unknown technology code {technology}")
    return ServiceTier(technology, down, up, low_latency)


class ProviderUniverse:
    """All providers plus their per-(state, technology) footprints."""

    def __init__(
        self,
        providers: list[Provider],
        footprints: dict[tuple[int, str, int], FootprintPair],
        config: ProviderConfig,
    ):
        self.providers = providers
        self.footprints = footprints
        self.config = config
        self._by_id = {p.provider_id: p for p in providers}

    def __len__(self) -> int:
        return len(self.providers)

    def add_provider(
        self,
        provider: Provider,
        footprints: dict[tuple[str, int], FootprintPair],
    ) -> None:
        """Register an externally-constructed provider (case studies).

        ``footprints`` is keyed by (state, technology).
        """
        if provider.provider_id in self._by_id:
            raise ValueError(f"provider_id {provider.provider_id} already exists")
        self.providers.append(provider)
        self._by_id[provider.provider_id] = provider
        for (state, tech), fp in footprints.items():
            self.footprints[(provider.provider_id, state.upper(), tech)] = fp

    def replace_provider(self, provider: Provider) -> None:
        """Swap an existing provider's record (scenario mutators).

        Footprints are keyed by provider id and untouched; the provider's
        identity fields, tiers, and methodology take effect everywhere
        downstream of the swap.
        """
        if provider.provider_id not in self._by_id:
            raise KeyError(f"unknown provider_id {provider.provider_id}")
        for i, existing in enumerate(self.providers):
            if existing.provider_id == provider.provider_id:
                self.providers[i] = provider
                break
        self._by_id[provider.provider_id] = provider

    def provider(self, provider_id: int) -> Provider:
        try:
            return self._by_id[provider_id]
        except KeyError:
            raise KeyError(f"unknown provider_id {provider_id}") from None

    @property
    def terrestrial(self) -> list[Provider]:
        return [p for p in self.providers if not p.is_satellite]

    @property
    def majors(self) -> list[Provider]:
        """The eight national terrestrial ISPs (paper Fig. 6)."""
        return [p for p in self.providers if p.size_class == "national"]

    def footprint(
        self, provider_id: int, state: str, technology: int
    ) -> FootprintPair | None:
        return self.footprints.get((provider_id, state.upper(), technology))

    def footprints_for_provider(
        self, provider_id: int
    ) -> dict[tuple[str, int], FootprintPair]:
        return {
            (state, tech): fp
            for (pid, state, tech), fp in self.footprints.items()
            if pid == provider_id
        }

    def claimed_cells(self, provider_id: int) -> set[int]:
        """Union of claimed cells across states/technologies."""
        cells: set[int] = set()
        for (pid, _, _), fp in self.footprints.items():
            if pid == provider_id:
                cells.update(fp.claimed_cells)
        return cells


def _anchor_cells(fabric: Fabric, anchors: list[tuple[float, float]]) -> np.ndarray:
    """The hex cell of every anchor town, in one vectorized conversion."""
    lats, lngs = np.array(anchors, dtype=np.float64).reshape(-1, 2).T
    return hexgrid.latlng_to_cell_vec(lats, lngs, fabric.config.hex_resolution)


def _disk_footprint(
    fabric: Fabric,
    state: StateInfo,
    anchors: list[tuple[float, float]],
    radius: int,
    occupied: set[int],
) -> set[int]:
    """Occupied cells within ``radius`` rings of any anchor town."""
    _, disks = hexgrid.grid_disk_vec(_anchor_cells(fabric, anchors), radius)
    return occupied.intersection(disks.tolist())


def _overclaim_cells(
    rng: np.random.Generator,
    fabric: Fabric,
    anchors: list[tuple[float, float]],
    true_cells: set[int],
    occupied: set[int],
    overclaim_rate: float,
    served_by_any: set[int] | None = None,
    served_penalty: float = 15.0,
) -> set[int]:
    """Sample occupied cells beyond the true footprint to overclaim.

    Overclaims are drawn from the occupied cells *nearest* the genuine
    service area — where a sloppy buffer, a stale propagation study, or a
    census-block boundary would place them (typically the next hamlet
    over).  Cells already served by some other provider are strongly
    deprioritized: the overclaims that matter (and that get challenged)
    are the ones rendering genuinely-unserved communities ineligible for
    funding.  A distance jitter keeps the boundary ragged.
    """
    candidates = np.array(sorted(occupied - true_cells), dtype=np.uint64)
    if candidates.size == 0 or not true_cells:
        return set()
    target = int(round(overclaim_rate / max(1e-9, 1.0 - overclaim_rate) * len(true_cells)))
    target = min(target, candidates.size)
    if target == 0:
        return set()
    # Hex distance to the nearest anchor: one (candidate, anchor) matrix.
    _, q, r = hexgrid.cells_to_axial_vec(candidates)
    _, anchor_q, anchor_r = hexgrid.cells_to_axial_vec(_anchor_cells(fabric, anchors))
    dq, dr = q[:, None] - anchor_q, r[:, None] - anchor_r
    hops = (np.abs(dq) + np.abs(dr) + np.abs(dq + dr)) // 2
    dist = hops.astype(np.float64).min(axis=1, initial=np.inf)
    if served_by_any:
        served = np.fromiter(served_by_any, dtype=np.uint64, count=len(served_by_any))
        dist = dist + served_penalty * np.isin(candidates, served)
    jitter = rng.exponential(scale=max(2.0, 0.15 * float(np.median(dist))), size=dist.size)
    order = np.argsort(dist + jitter)
    return {int(candidates[i]) for i in order[:target]}


def generate_providers(
    fabric: Fabric,
    config: ProviderConfig | None = None,
    seed: int = 0,
) -> ProviderUniverse:
    """Generate the provider universe over a Fabric."""
    config = (config or ProviderConfig()).validate()
    providers: list[Provider] = []
    footprints: dict[tuple[int, str, int], FootprintPair] = {}
    id_rng = stream_rng(seed, "providers", "ids")
    next_provider_id = 100000
    next_frn = 10_000_000

    occupied_by_state: dict[str, set[int]] = {
        s.abbr: set(fabric.cells_in_state(s.abbr)) for s in STATES
    }
    states_with_towns = [s for s in STATES if fabric.towns_in_state(s.abbr)]

    def _make_identity(rng, name, size_class):
        nonlocal next_provider_id, next_frn
        provider_id = next_provider_id
        next_provider_id += int(id_rng.integers(1, 9))
        n_frn = 1 if size_class in ("local",) else int(rng.integers(1, 4))
        frns = tuple(range(next_frn, next_frn + n_frn))
        next_frn += n_frn + int(id_rng.integers(1, 5))
        domain = _email_domain(name)
        email = f"noc@{domain}"
        return provider_id, frns, email, domain

    # Overclaim placement needs to know which cells *anyone* genuinely
    # serves, so footprints build in two passes: true service areas for all
    # providers first, then overclaims preferring unserved cells.
    pending_overclaims: list[tuple[int, str, int, list, float]] = []

    def _build_footprints(rng, provider_id, state_abbrs, tiers, method, overclaim_rate):
        for abbr in state_abbrs:
            state = state_by_abbr(abbr)
            towns = fabric.towns_in_state(abbr)
            if not towns:
                continue
            occupied = occupied_by_state[abbr]
            for tier in tiers:
                tech = tier.technology
                if tech == 60:
                    # GSO satellite: claims essentially every location.
                    footprints[(provider_id, abbr, tech)] = FootprintPair(
                        frozenset(occupied), frozenset(occupied)
                    )
                    continue
                lo, hi = config.radius_by_tech[tech]
                radius = int(rng.integers(lo, hi + 1))
                anchors = _pick_anchors(rng, towns, providers_size_class[provider_id], config)
                true_cells = _disk_footprint(fabric, state, anchors, radius, occupied)
                if not true_cells:
                    continue
                footprints[(provider_id, abbr, tech)] = FootprintPair(
                    frozenset(true_cells), frozenset(true_cells)
                )
                if overclaim_rate > 0:
                    pending_overclaims.append(
                        (provider_id, abbr, tech, anchors, overclaim_rate)
                    )

    providers_size_class: dict[int, str] = {}

    # --- the eight national terrestrial ISPs -------------------------------
    for name, brand, techs in MAJOR_ISPS:
        rng = stream_rng(seed, "providers", name)
        provider_id, frns, email, domain = _make_identity(rng, name, "national")
        providers_size_class[provider_id] = "national"
        n_states = int(rng.integers(18, 40))
        idx = rng.choice(len(states_with_towns), size=n_states, replace=False)
        state_abbrs = tuple(states_with_towns[i].abbr for i in idx)
        tiers = tuple(_speed_tier(rng, t) for t in techs)
        method = (
            Methodology.INFRASTRUCTURE_MAPS
            if 50 in techs or 40 in techs
            else Methodology.PROPAGATION_MODEL
        )
        lo, hi = _OVERCLAIM_RANGES[method]
        overclaim_rate = float(rng.uniform(lo, (lo + hi) / 2.0))
        provider = Provider(
            provider_id=provider_id,
            name=name,
            brand_name=brand,
            holding_company=name,
            size_class="national",
            states=state_abbrs,
            tiers=tiers,
            methodology=method,
            methodology_text=methodology_text(method, name),
            overclaim_rate=overclaim_rate,
            concede_propensity=float(rng.uniform(0.5, 0.75)),
            self_correction_rate=float(rng.uniform(0.15, 0.4)),
            frns=frns,
            contact_email=email,
            email_domain=domain,
            hq_address=_street_address(rng, state_abbrs[0]),
            hq_state=state_abbrs[0],
        )
        providers.append(provider)
        _build_footprints(rng, provider_id, state_abbrs, tiers, method, overclaim_rate)

    # --- satellite providers ------------------------------------------------
    for i in range(config.n_satellite):
        rng = stream_rng(seed, "providers", "satellite", i)
        name = f"SkyLink Satellite {i + 1} Inc"
        provider_id, frns, email, domain = _make_identity(rng, name, "satellite")
        providers_size_class[provider_id] = "satellite"
        tiers = (_speed_tier(rng, 60),)
        state_abbrs = tuple(s.abbr for s in states_with_towns)
        method = Methodology.PROPAGATION_MODEL
        provider = Provider(
            provider_id=provider_id,
            name=name,
            brand_name=name.replace(" Inc", ""),
            holding_company=name,
            size_class="satellite",
            states=state_abbrs,
            tiers=tiers,
            methodology=method,
            methodology_text=methodology_text(method, name),
            overclaim_rate=0.0,
            concede_propensity=0.5,
            self_correction_rate=0.0,
            frns=frns,
            contact_email=email,
            email_domain=domain,
            hq_address=_street_address(rng, "CO"),
            hq_state="CO",
        )
        providers.append(provider)
        _build_footprints(rng, provider_id, state_abbrs, tiers, method, 0.0)

    # --- regional and local providers --------------------------------------
    n_rest = config.n_providers - len(providers)
    methods = list(Methodology)
    for i in range(n_rest):
        rng = stream_rng(seed, "providers", "tail", i)
        name = _company_name(rng)
        is_regional = rng.random() < config.regional_fraction
        size_class = "regional" if is_regional else "local"
        provider_id, frns, email, domain = _make_identity(rng, name, size_class)
        providers_size_class[provider_id] = size_class
        if is_regional:
            k = int(rng.integers(*config.regional_states))
            home = states_with_towns[int(rng.integers(len(states_with_towns)))]
            # Regionals cluster geographically: home state plus nearby ones.
            neighbors = sorted(
                states_with_towns,
                key=lambda s: abs(s.center[0] - home.center[0])
                + abs(s.center[1] - home.center[1]),
            )[: max(k, 1)]
            state_abbrs = tuple(s.abbr for s in neighbors)
        else:
            home = states_with_towns[int(rng.integers(len(states_with_towns)))]
            state_abbrs = (home.abbr,)
        n_tech = int(rng.integers(1, 3))
        tech_pool = [10, 40, 50, 70, 71]
        tech_weights = np.array([0.2, 0.18, 0.27, 0.2, 0.15])
        techs = rng.choice(tech_pool, size=n_tech, replace=False, p=tech_weights)
        tiers = tuple(_speed_tier(rng, int(t)) for t in sorted(techs))
        method = methods[int(rng.choice(len(methods), p=[0.3, 0.2, 0.2, 0.12, 0.18]))]
        lo, hi = _OVERCLAIM_RANGES[method]
        overclaim_rate = float(rng.uniform(lo, hi))
        provider = Provider(
            provider_id=provider_id,
            name=name,
            brand_name=name.replace(" Inc", "").replace(" LLC", ""),
            holding_company=name,
            size_class=size_class,
            states=state_abbrs,
            tiers=tiers,
            methodology=method,
            methodology_text=methodology_text(method, name),
            overclaim_rate=overclaim_rate,
            concede_propensity=float(rng.uniform(0.35, 0.8)),
            self_correction_rate=float(rng.uniform(0.1, 0.55)),
            frns=frns,
            contact_email=email,
            email_domain=domain,
            hq_address=_street_address(rng, state_abbrs[0]),
            hq_state=state_abbrs[0],
        )
        providers.append(provider)
        _build_footprints(rng, provider_id, state_abbrs, tiers, method, overclaim_rate)

    # Pass 2: place overclaims now that every genuine service area is known,
    # preferring cells no terrestrial provider actually serves.
    served_by_any: dict[str, set[int]] = {}
    for (pid, abbr, tech), fp in footprints.items():
        if tech == 60:
            continue
        served_by_any.setdefault(abbr, set()).update(fp.true_cells)
    for pid, abbr, tech, anchors, overclaim_rate in pending_overclaims:
        rng = stream_rng(seed, "overclaim", pid, abbr, tech)
        fp = footprints[(pid, abbr, tech)]
        over = _overclaim_cells(
            rng,
            fabric,
            anchors,
            set(fp.true_cells),
            occupied_by_state[abbr],
            overclaim_rate,
            served_by_any=served_by_any.get(abbr),
        )
        footprints[(pid, abbr, tech)] = FootprintPair(
            fp.true_cells, frozenset(fp.true_cells | over)
        )

    return ProviderUniverse(providers, footprints, config)


def _pick_anchors(
    rng: np.random.Generator,
    towns,
    size_class: str,
    config: ProviderConfig,
) -> list[tuple[float, float]]:
    """Choose the towns a provider's network radiates from in one state."""
    weights = np.array([t.weight for t in towns])
    weights = weights / weights.sum()
    if size_class == "national":
        n = max(1, int(round(config.anchors_national_fraction * len(towns))))
    elif size_class == "regional":
        lo, hi = config.anchors_regional
        n = int(rng.integers(lo, hi + 1))
    else:
        lo, hi = config.anchors_local
        n = int(rng.integers(lo, hi + 1))
    n = min(n, len(towns))
    idx = rng.choice(len(towns), size=n, replace=False, p=weights)
    return [(towns[i].lat, towns[i].lng) for i in idx]
