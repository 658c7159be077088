"""Workload inputs, generated from the benchmark seed.

The program under test only ever sees what these functions return:
campaign run seeds, and the serve request sequence.  The exhibits
workload takes no seeded input; every exhibit runs at its paper size
and paper seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

DEFAULT_SEED = 1

# ----------------------------------------------------------------------
# campaign
# ----------------------------------------------------------------------
#: (scheme, vdd, runs per pass) on the FFT-64 under the worst-case
#: Eq. 5 law: Table 2's 290 kHz minima for SECDED and OCEAN, and the
#: campaign exhibit's 0.40 V stress point, where unprotected runs crash
#: or corrupt silently.
CAMPAIGN_POINTS: Tuple[Tuple[str, float, int], ...] = (
    ("secded", 0.44, 8),
    ("ocean", 0.33, 8),
    ("none", 0.40, 16),
)
CAMPAIGN_FFT = 64

#: Warm-latency samples after each cold pass: each opens a fresh
#: ``ResultStore`` on the pass's file and re-answers all of its points.
CAMPAIGN_WARM_PER_PASS = 48


def campaign_seed_bases(seed: int, passes: int) -> List[int]:
    """``seed_base`` of each pass; run ``i`` of a point uses base + i."""
    rng = random.Random(f"campaign:{seed}")
    return [rng.randrange(1, 2**31) for _ in range(passes)]


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
SERVE_VDDS = (0.24, 0.25, 0.26, 0.27, 0.28, 0.29, 0.30)
SERVE_RUNS = 16
SERVE_LANES = 16
SERVE_FFT = 64

#: Requests per new grid: one new grid, then three repeats of earlier
#: grids, so three quarters of the requests are answered by the store.
SERVE_BLOCK = 4

#: Kinds of the new grids, cycled: (scheme, points not seen before).
#: OCEAN grids with two new points cost ~1.2 s, the others 0.3-0.6 s;
#: six of every eight new grids are the former, so the cold median
#: stays well inside one cost mode whatever prefix of the cycle a run
#: completes.
NEW_GRID_CYCLE: Tuple[Tuple[str, int], ...] = (
    ("ocean", 2), ("ocean", 2), ("secded", 2), ("ocean", 2),
    ("ocean", 1), ("ocean", 2), ("ocean", 2), ("ocean", 2),
)

#: The traced serve run replays this many requests of the sequence.
SERVE_TRACE_REQUESTS = 24


@dataclass(frozen=True)
class ServeRequest:
    """One ``/curve`` query of the closed-loop client."""

    scheme: str
    vdds: Tuple[float, ...]
    seed: int
    new_points: int  # points no earlier request asked for

    def spec(self) -> Dict[str, object]:
        return {
            "scheme": self.scheme,
            "vdds": list(self.vdds),
            "runs": SERVE_RUNS,
            "seed": self.seed,
            "lanes": SERVE_LANES,
            "fft": SERVE_FFT,
        }

    def points(self) -> List[Tuple[str, int, float]]:
        return [(self.scheme, self.seed, vdd) for vdd in self.vdds]


def serve_requests(seed: int, count: int) -> List[ServeRequest]:
    """The first ``count`` requests of the seed's request sequence."""
    rng = random.Random(f"serve:{seed}")
    grids: List[ServeRequest] = []
    seen: set = set()
    used_seeds: set = set()
    out: List[ServeRequest] = []
    for index in range(count):
        if index % SERVE_BLOCK:
            repeat = rng.choice(grids)
            out.append(ServeRequest(repeat.scheme, repeat.vdds, repeat.seed, 0))
            continue
        scheme, new = NEW_GRID_CYCLE[(index // SERVE_BLOCK) % len(NEW_GRID_CYCLE)]
        request = None
        if new == 1:
            request = _shared_grid(rng, scheme, grids, seen)
        if request is None:
            run_seed = rng.randrange(1000, 2**31)
            while run_seed in used_seeds:
                run_seed = rng.randrange(1000, 2**31)
            used_seeds.add(run_seed)
            vdds = tuple(sorted(rng.sample(SERVE_VDDS, 2)))
            request = ServeRequest(scheme, vdds, run_seed, 2)
        seen.update(request.points())
        grids.append(request)
        out.append(request)
    return out


def _shared_grid(rng, scheme, grids, seen):
    """A grid with one point of an earlier grid and one new point."""
    bases = [grid for grid in grids if grid.scheme == scheme]
    rng.shuffle(bases)
    for base in bases:
        fresh = [v for v in SERVE_VDDS if (scheme, base.seed, v) not in seen]
        if fresh:
            shared = rng.choice(base.vdds)
            vdds = tuple(sorted((shared, rng.choice(fresh))))
            return ServeRequest(scheme, vdds, base.seed, 1)
    return None
