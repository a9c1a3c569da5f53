"""Highway scenario synthesis.

The generated geometry is a straight two-direction highway segment with a
roadside base station: the BS sits at (0, -bs_offset) and vehicles are placed
uniformly along x within +/- coverage_radius, one fixed lane y-offset per
travel direction, headings restricted to 0 (towards +x) or pi.  All draws
come from the seeded portable generator in `rng`, in a pinned per-vehicle
order (direction, x, speed), so a spec with the same seed reproduces the same
scenario on any platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import Xoshiro256StarStar
from .service import Period

#: Sanity cap on configured vehicle speeds (m/s); speed sweeps stay below it.
SPEED_LIMIT = 60.0


@dataclass(frozen=True, eq=False)
class Scenario:
    """Base station, fleet motion and the scheduling period they share.

    `motion` holds one (x, y, vx, vy) row per vehicle at the period start, in
    vehicle-id order, and `bs` the base station's (x, y, 0, 0) row; both are
    made read-only.  A link's relative motion (`service.unit_service_batch`)
    is the difference of its ends' rows.
    """

    bs: np.ndarray
    motion: np.ndarray
    period: Period

    def __post_init__(self):
        self.bs.flags.writeable = False
        self.motion.flags.writeable = False

    @property
    def n(self) -> int:
        return len(self.motion)

    def held_still(self) -> Scenario:
        """The same fleet parked at its start positions, over a 1 s period.

        Every link is static, so its service amounts are the instantaneous
        rates at the period start: irrs's rate tables are its service tables.
        """
        motion = self.motion.copy()
        motion[:, 2:] = 0.0
        return Scenario(self.bs, motion, Period(1.0))


@dataclass(frozen=True)
class ScenarioSpec:
    """Parameters of the random highway generator; fully determined by `seed`."""

    n_vehicles: int
    seed: int
    coverage_radius: float = 500.0  # m
    bs_offset: float = 15.0  # m, distance of the BS from the road
    lane_offsets: tuple[float, float] = (1.75, 5.25)  # m, one lane per direction
    speed_range: tuple[float, float] = (4.0, 35.0)  # m/s; (v, v) pins the speed
    period_duration: float = 5.0  # s

    def __post_init__(self):
        if self.n_vehicles < 0:
            raise ValueError(f"n_vehicles must be >= 0, got {self.n_vehicles}")
        for name in ("coverage_radius", "bs_offset", "period_duration"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not all(math.isfinite(y) for y in self.lane_offsets):
            raise ValueError(f"lane_offsets must be finite, got {self.lane_offsets}")
        if self.coverage_radius <= 0:
            raise ValueError(f"coverage_radius must be positive, got {self.coverage_radius}")
        lo, hi = self.speed_range
        if not (0.0 <= lo <= hi <= SPEED_LIMIT):
            raise ValueError(
                f"speed range must satisfy 0 <= min <= max <= {SPEED_LIMIT}, got {self.speed_range}"
            )
        if len(self.lane_offsets) != 2:
            raise ValueError("lane_offsets needs exactly one offset per direction")


def generate(spec: ScenarioSpec) -> Scenario:
    """Draw a scenario from the spec; same spec (and seed) -> identical motion bytes.

    The 3N uniforms are drawn in one call, and row i reads draws 3i..3i+2 as
    its (direction, x, speed).  The columns take the scalar draws' IEEE
    steps: ``lo + (hi - lo) * u``, then ``speed * cos(heading)`` and
    ``speed * sin(heading)`` with the heading's cosine and sine from `math`.
    """
    u = Xoshiro256StarStar(spec.seed).uniforms(3 * spec.n_vehicles).reshape(-1, 3)
    forward = u[:, 0] < 0.5
    x_lo, x_hi = -spec.coverage_radius, spec.coverage_radius
    lo, hi = spec.speed_range
    speed = lo + (hi - lo) * u[:, 2]
    motion = np.empty((spec.n_vehicles, 4))
    motion[:, 0] = x_lo + (x_hi - x_lo) * u[:, 1]
    motion[:, 1] = np.where(forward, *spec.lane_offsets)
    # sin(pi) is 1.2e-16, not 0: a backward vehicle keeps that tiny vy
    motion[:, 2] = speed * np.where(forward, math.cos(0.0), math.cos(math.pi))
    motion[:, 3] = speed * np.where(forward, math.sin(0.0), math.sin(math.pi))
    return Scenario(
        bs=np.array([0.0, -spec.bs_offset, 0.0, 0.0]),
        motion=motion,
        period=Period(spec.period_duration),
    )
