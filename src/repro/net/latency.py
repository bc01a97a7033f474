"""Inter-region WAN latency model.

The paper emulates latencies among 14 AWS regions on four continents,
following the Red Belly blockchain evaluation [27], and assigns nodes to
regions at random.  We reproduce the methodology: the 14 regions below
are the classic AWS regions; pairwise one-way latency is derived from
great-circle distance at an effective signal speed plus a fixed routing
overhead, which lands within a few milliseconds of published
inter-region measurements (e.g. ~35 ms one-way Virginia↔Ireland,
~70 ms one-way Virginia↔Tokyo).

Each delivery samples small multiplicative jitter so message orderings
are not artificially synchronized.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Sequence, Tuple

# (name, latitude, longitude) of the 14 AWS regions used by Red Belly.
REGIONS: Tuple[Tuple[str, float, float], ...] = (
    ("us-east-1", 38.9, -77.0),       # N. Virginia
    ("us-east-2", 40.0, -83.0),       # Ohio
    ("us-west-1", 37.4, -122.0),      # N. California
    ("us-west-2", 45.9, -119.2),      # Oregon
    ("ca-central-1", 45.5, -73.6),    # Montreal
    ("sa-east-1", -23.5, -46.6),      # São Paulo
    ("eu-west-1", 53.3, -6.3),        # Ireland
    ("eu-west-2", 51.5, -0.1),        # London
    ("eu-central-1", 50.1, 8.7),      # Frankfurt
    ("ap-south-1", 19.1, 72.9),       # Mumbai
    ("ap-southeast-1", 1.3, 103.8),   # Singapore
    ("ap-southeast-2", -33.9, 151.2), # Sydney
    ("ap-northeast-1", 35.7, 139.7),  # Tokyo
    ("ap-northeast-2", 37.6, 127.0),  # Seoul
)

_EARTH_RADIUS_KM = 6371.0
# Light in fiber is ~200,000 km/s; real routes are not great circles, so
# an effective 170,000 km/s with a 4 ms fixed overhead fits measurements.
_EFFECTIVE_KM_PER_S = 170_000.0
_FIXED_OVERHEAD_S = 0.004
_INTRA_REGION_S = 0.0006
_JITTER_SIGMA = 0.06


def _great_circle_km(a: Tuple[float, float], b: Tuple[float, float]) -> float:
    lat1, lon1 = math.radians(a[0]), math.radians(a[1])
    lat2, lon2 = math.radians(b[0]), math.radians(b[1])
    h = (
        math.sin((lat2 - lat1) / 2) ** 2
        + math.cos(lat1) * math.cos(lat2) * math.sin((lon2 - lon1) / 2) ** 2
    )
    return 2 * _EARTH_RADIUS_KM * math.asin(math.sqrt(h))


class LatencyModel:
    """One-way message latency between region-assigned nodes."""

    def __init__(self):
        self._names = [name for name, _lat, _lon in REGIONS]
        self._base: Dict[Tuple[str, str], float] = {}
        coords = {name: (lat, lon) for name, lat, lon in REGIONS}
        for src in self._names:
            for dst in self._names:
                if src == dst:
                    self._base[(src, dst)] = _INTRA_REGION_S
                else:
                    distance = _great_circle_km(coords[src], coords[dst])
                    self._base[(src, dst)] = (
                        distance / _EFFECTIVE_KM_PER_S + _FIXED_OVERHEAD_S
                    )

    @property
    def region_names(self) -> Sequence[str]:
        return tuple(self._names)

    def base_latency(self, src_region: str, dst_region: str) -> float:
        """Deterministic one-way latency in seconds (no jitter)."""
        return self._base[(src_region, dst_region)]

    def sample(self, src_region: str, dst_region: str, rng: random.Random) -> float:
        """One-way latency with multiplicative log-normal jitter."""
        base = self._base[(src_region, dst_region)]
        return base * rng.lognormvariate(0.0, _JITTER_SIGMA)

    def assign_regions(self, count: int, rng: random.Random) -> Sequence[str]:
        """Randomly allocate ``count`` nodes to regions (paper Section VI)."""
        return tuple(rng.choice(self._names) for _ in range(count))
