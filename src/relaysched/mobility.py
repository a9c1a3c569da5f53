"""Vehicle kinematics: node states at the period start and their motion rows.

Vehicles are modelled with a constant speed and heading over one scheduling
period; positions at an offset ``dt`` from the period start follow
``(x + v*dt*cos(heading), y + v*dt*sin(heading))``.  `motion_rows` packs each
node's position and velocity into one (x, y, vx, vy) row, from which the
quadrature layer derives every link's distance over the period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class VehicleState:
    """Position, speed and heading of one vehicle at the period start.

    heading is in radians measured from the +x axis; speed is in m/s.
    """

    id: int
    x: float
    y: float
    speed: float
    heading: float

    def __post_init__(self):
        for name in ("x", "y", "speed", "heading"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"vehicle {self.id}: non-finite {name}={v!r}")
        if self.speed < 0:
            raise ValueError(f"vehicle {self.id}: negative speed {self.speed}")

    @property
    def velocity(self) -> tuple[float, float]:
        return self.speed * math.cos(self.heading), self.speed * math.sin(self.heading)


@dataclass(frozen=True)
class BasePosition:
    """Roadside base-station coordinates in meters."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite base position ({self.x!r}, {self.y!r})")

    @property
    def velocity(self) -> tuple[float, float]:
        return 0.0, 0.0


def motion_rows(nodes) -> np.ndarray:
    """(N, 4) rows of (x, y, vx, vy) at the period start, one per vehicle or base station.

    A link's relative motion (`service.unit_service_batch`) is the difference of its ends' rows.
    """
    return np.array([(v.x, v.y, *v.velocity) for v in nodes], dtype=float).reshape(-1, 4)
