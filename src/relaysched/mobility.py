"""Vehicle kinematics: straight-line trajectories and time-dependent distances.

Vehicles are modelled with a constant speed and heading over one scheduling
period; positions at an offset ``dt`` from the period start follow
``(x + v*dt*cos(heading), y + v*dt*sin(heading))``.  All distance helpers
accept either a scalar offset or a numpy array of offsets and broadcast
accordingly, which is what the quadrature layer relies on.
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


def _check_dt(dt):
    arr = np.asarray(dt, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite time offset")
    if np.any(arr < 0):
        raise ValueError("negative time offset")
    return arr


def predict_position(v: VehicleState, dt):
    """Position of `v` after `dt` seconds of straight constant-speed motion."""
    t = _check_dt(dt)
    vx, vy = v.velocity
    return v.x + vx * t, v.y + vy * t


def distance_to_bs(v: VehicleState, bs: BasePosition, dt):
    """Euclidean distance between the vehicle at offset `dt` and the BS."""
    x, y = predict_position(v, dt)
    return np.hypot(x - bs.x, y - bs.y)


def distance_between(a: VehicleState, b: VehicleState, dt):
    """Euclidean distance between two vehicles at offset `dt`."""
    xa, ya = predict_position(a, dt)
    xb, yb = predict_position(b, dt)
    return np.hypot(xa - xb, ya - yb)
