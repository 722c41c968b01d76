"""US states and territories: geometry, population, and challenge intensity.

The BDC simulator needs, for each of the 56 states/territories that appear
in the National Broadband Map: an approximate geographic extent (for
synthesizing Broadband Serviceable Locations), a population weight (for
sizing the Fabric), and a *challenge intensity* reflecting the paper's
Figure 2 — challenge volume was dominated by a handful of states whose
broadband offices ran organized campaigns (Nebraska ran the largest; a
Virginia campaign raised the state's BEAD allocation by $250M).

Extents are coarse bounding boxes — the simulation needs plausible
geography (areas, neighbor relationships, shared longitudes), not exact
borders.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["StateInfo", "STATES", "state_by_abbr", "contiguous_states", "challenge_weights"]


@dataclass(frozen=True)
class StateInfo:
    """Static attributes of one state or territory."""

    abbr: str
    name: str
    fips: str
    lat_min: float
    lat_max: float
    lng_min: float
    lng_max: float
    population_m: float
    #: Relative weight of BDC challenge activity (paper Fig. 2): a few state
    #: broadband offices ran large campaigns, most states filed almost none.
    challenge_weight: float

    @property
    def center(self) -> tuple[float, float]:
        return (
            (self.lat_min + self.lat_max) / 2.0,
            (self.lng_min + self.lng_max) / 2.0,
        )


def _s(abbr, name, fips, lat0, lat1, lng0, lng1, pop, cw) -> StateInfo:
    return StateInfo(abbr, name, fips, lat0, lat1, lng0, lng1, pop, cw)


#: All 56 states/territories in the NBM.  Challenge weights: the ten
#: campaign states carry ~90 % of the mass (Nebraska the largest), matching
#: the distribution in the paper's Figure 2.
STATES: tuple[StateInfo, ...] = (
    _s("AL", "Alabama", "01", 30.2, 35.0, -88.5, -85.0, 5.0, 0.133),
    _s("AK", "Alaska", "02", 55.0, 68.0, -165.0, -131.0, 0.7, 0.2),
    _s("AZ", "Arizona", "04", 31.3, 37.0, -114.8, -109.0, 7.2, 0.167),
    _s("AR", "Arkansas", "05", 33.0, 36.5, -94.6, -89.6, 3.0, 0.1),
    _s("CA", "California", "06", 32.5, 42.0, -124.4, -114.1, 39.5, 0.3),
    _s("CO", "Colorado", "08", 37.0, 41.0, -109.1, -102.0, 5.8, 0.2),
    _s("CT", "Connecticut", "09", 41.0, 42.1, -73.7, -71.8, 3.6, 0.067),
    _s("DE", "Delaware", "10", 38.5, 39.8, -75.8, -75.0, 1.0, 0.1),
    _s("DC", "District of Columbia", "11", 38.8, 39.0, -77.1, -76.9, 0.7, 0.05),
    _s("FL", "Florida", "12", 25.0, 31.0, -87.6, -80.0, 21.5, 0.4),
    _s("GA", "Georgia", "13", 30.4, 35.0, -85.6, -80.8, 10.7, 0.333),
    _s("HI", "Hawaii", "15", 18.9, 22.2, -160.2, -154.8, 1.5, 0.1),
    _s("ID", "Idaho", "16", 42.0, 49.0, -117.2, -111.0, 1.8, 0.4),
    _s("IL", "Illinois", "17", 37.0, 42.5, -91.5, -87.5, 12.8, 0.267),
    _s("IN", "Indiana", "18", 37.8, 41.8, -88.1, -84.8, 6.8, 0.3),
    _s("IA", "Iowa", "19", 40.4, 43.5, -96.6, -90.1, 3.2, 0.167),
    _s("KS", "Kansas", "20", 37.0, 40.0, -102.1, -94.6, 2.9, 0.133),
    _s("KY", "Kentucky", "21", 36.5, 39.1, -89.6, -82.0, 4.5, 0.2),
    _s("LA", "Louisiana", "22", 29.0, 33.0, -94.0, -89.0, 4.7, 0.167),
    _s("ME", "Maine", "23", 43.1, 47.5, -71.1, -66.9, 1.4, 0.3),
    _s("MD", "Maryland", "24", 37.9, 39.7, -79.5, -75.0, 6.2, 0.1),
    _s("MA", "Massachusetts", "25", 41.2, 42.9, -73.5, -69.9, 7.0, 0.1),
    _s("MI", "Michigan", "26", 41.7, 47.5, -90.4, -82.4, 10.1, 12.0),
    _s("MN", "Minnesota", "27", 43.5, 49.4, -97.2, -89.5, 5.7, 9.0),
    _s("MS", "Mississippi", "28", 30.2, 35.0, -91.7, -88.1, 3.0, 0.1),
    _s("MO", "Missouri", "29", 36.0, 40.6, -95.8, -89.1, 6.2, 0.233),
    _s("MT", "Montana", "30", 44.4, 49.0, -116.0, -104.0, 1.1, 0.3),
    _s("NE", "Nebraska", "31", 40.0, 43.0, -104.1, -95.3, 2.0, 30.0),
    _s("NV", "Nevada", "32", 35.0, 42.0, -120.0, -114.0, 3.1, 0.1),
    _s("NH", "New Hampshire", "33", 42.7, 45.3, -72.6, -70.6, 1.4, 0.2),
    _s("NJ", "New Jersey", "34", 38.9, 41.4, -75.6, -73.9, 9.3, 0.1),
    _s("NM", "New Mexico", "35", 31.3, 37.0, -109.1, -103.0, 2.1, 0.133),
    _s("NY", "New York", "36", 40.5, 45.0, -79.8, -71.9, 20.2, 14.0),
    _s("NC", "North Carolina", "37", 33.8, 36.6, -84.3, -75.5, 10.4, 8.0),
    _s("ND", "North Dakota", "38", 45.9, 49.0, -104.1, -96.6, 0.8, 0.2),
    _s("OH", "Ohio", "39", 38.4, 42.0, -84.8, -80.5, 11.8, 11.0),
    _s("OK", "Oklahoma", "40", 33.6, 37.0, -103.0, -94.4, 4.0, 0.167),
    _s("OR", "Oregon", "41", 42.0, 46.3, -124.6, -116.5, 4.2, 0.167),
    _s("PA", "Pennsylvania", "42", 39.7, 42.3, -80.5, -74.7, 13.0, 9.0),
    _s("RI", "Rhode Island", "44", 41.1, 42.0, -71.9, -71.1, 1.1, 0.1),
    _s("SC", "South Carolina", "45", 32.0, 35.2, -83.4, -78.5, 5.1, 0.2),
    _s("SD", "South Dakota", "46", 42.5, 45.9, -104.1, -96.4, 0.9, 0.2),
    _s("TN", "Tennessee", "47", 35.0, 36.7, -90.3, -81.6, 6.9, 0.233),
    _s("TX", "Texas", "48", 25.8, 36.5, -106.6, -93.5, 29.1, 0.5),
    _s("UT", "Utah", "49", 37.0, 42.0, -114.1, -109.0, 3.3, 0.133),
    _s("VT", "Vermont", "50", 42.7, 45.0, -73.4, -71.5, 0.6, 0.2),
    _s("VA", "Virginia", "51", 36.5, 39.5, -83.7, -75.2, 8.6, 18.0),
    _s("WA", "Washington", "53", 45.5, 49.0, -124.8, -116.9, 7.7, 7.0),
    _s("WV", "West Virginia", "54", 37.2, 40.6, -82.6, -77.7, 1.8, 0.133),
    _s("WI", "Wisconsin", "55", 42.5, 47.1, -92.9, -86.8, 5.9, 8.0),
    _s("WY", "Wyoming", "56", 41.0, 45.0, -111.1, -104.1, 0.6, 0.2),
    _s("PR", "Puerto Rico", "72", 17.9, 18.5, -67.3, -65.6, 3.3, 0.1),
    _s("GU", "Guam", "66", 13.2, 13.7, 144.6, 145.0, 0.17, 0.02),
    _s("VI", "U.S. Virgin Islands", "78", 17.7, 18.4, -65.1, -64.6, 0.1, 0.02),
    _s("AS", "American Samoa", "60", -14.4, -14.2, -170.9, -170.5, 0.05, 0.01),
    _s("MP", "Northern Mariana Islands", "69", 14.9, 15.3, 145.6, 145.8, 0.05, 0.01),
)

_BY_ABBR = {s.abbr: s for s in STATES}


def state_by_abbr(abbr: str) -> StateInfo:
    """Look up a state by its two-letter abbreviation.

    >>> state_by_abbr("NE").name
    'Nebraska'
    """
    try:
        return _BY_ABBR[abbr.upper()]
    except KeyError:
        raise KeyError(f"unknown state abbreviation {abbr!r}") from None


def contiguous_states() -> tuple[StateInfo, ...]:
    """The 48 contiguous states plus DC (excludes AK, HI, territories)."""
    excluded = {"AK", "HI", "PR", "GU", "VI", "AS", "MP"}
    return tuple(s for s in STATES if s.abbr not in excluded)


def challenge_weights() -> dict[str, float]:
    """Normalized challenge-intensity weights per state (sums to 1)."""
    total = sum(s.challenge_weight for s in STATES)
    return {s.abbr: s.challenge_weight / total for s in STATES}


def states_adjacent_to(abbr: str, max_gap_deg: float = 0.5) -> list[str]:
    """States whose bounding boxes touch (or nearly touch) a state's box.

    Used by the Jefferson County Cable case study, which holds out all
    states bordering the provider's service area.
    """
    target = state_by_abbr(abbr)
    out = []
    for s in STATES:
        if s.abbr == target.abbr:
            continue
        lat_gap = max(
            s.lat_min - target.lat_max, target.lat_min - s.lat_max
        )
        lng_gap = max(
            s.lng_min - target.lng_max, target.lng_min - s.lng_max
        )
        if lat_gap <= max_gap_deg and lng_gap <= max_gap_deg:
            out.append(s.abbr)
    return out
