"""Highway scenario synthesis and on-disk scenario files.

The generated geometry is a straight two-direction highway segment with a
roadside base station: the BS sits at (0, -bs_offset) and vehicles are placed
uniformly along x within +/- coverage_radius, one fixed lane y-offset per
travel direction, headings restricted to 0 (towards +x) or pi.  All draws
come from the seeded portable generator in `rng`, in a pinned per-vehicle
order (direction, x, speed), so a spec with the same seed reproduces the same
scenario on any platform.

Scenario files are JSON with units embedded in the field names:

    {"bs": {"x_m": 0.0, "y_m": -15.0},
     "period": {"duration_s": 5.0},
     "vehicles": [{"id": 0, "x_m": ..., "y_m": ..., "speed_mps": ...,
                   "heading_rad": ...}, ...]}

Vehicle states are those at the period start.  Files from older versions
also carry `period.t_start_s`; loading ignores it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .mobility import BasePosition, VehicleState, motion_rows
from .rng import Xoshiro256StarStar
from .service import Period

#: Sanity cap on configured vehicle speeds (m/s); speed sweeps stay below it.
SPEED_LIMIT = 60.0


class ScenarioFormatError(ValueError):
    """A scenario file could not be parsed or failed validation."""


@dataclass(frozen=True)
class Scenario:
    """Base station, vehicle fleet and the scheduling period they share."""

    bs: BasePosition
    vehicles: tuple[VehicleState, ...]
    period: Period

    def __post_init__(self):
        ids = [v.id for v in self.vehicles]
        if ids != list(range(len(ids))):
            raise ValueError(f"vehicle ids must be 0..{len(ids) - 1} in order, got {ids}")

    @property
    def n(self) -> int:
        return len(self.vehicles)

    @cached_property
    def motion(self) -> np.ndarray:
        """The vehicles' (N, 4) `motion_rows`, built once per scenario and read-only."""
        rows = motion_rows(self.vehicles)
        rows.flags.writeable = False
        return rows


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
        rng_range = self.speed_range
        if isinstance(rng_range, (int, float)):
            rng_range = (float(rng_range), float(rng_range))
            object.__setattr__(self, "speed_range", rng_range)
        lo, hi = rng_range
        if not (0.0 <= lo <= hi <= SPEED_LIMIT):
            raise ValueError(
                f"speed range must satisfy 0 <= min <= max <= {SPEED_LIMIT}, got {rng_range}"
            )
        if len(self.lane_offsets) != 2:
            raise ValueError("lane_offsets needs exactly one offset per direction")


def generate(spec: ScenarioSpec) -> Scenario:
    """Draw a scenario from the spec; same spec (and seed) -> identical scenario."""
    gen = Xoshiro256StarStar(spec.seed)
    lo, hi = spec.speed_range
    vehicles = []
    for i in range(spec.n_vehicles):
        forward = gen.random() < 0.5
        x = gen.uniform(-spec.coverage_radius, spec.coverage_radius)
        speed = gen.uniform(lo, hi)
        heading = 0.0 if forward else math.pi
        y = spec.lane_offsets[0] if forward else spec.lane_offsets[1]
        vehicles.append(VehicleState(id=i, x=x, y=y, speed=speed, heading=heading))
    return Scenario(
        bs=BasePosition(0.0, -spec.bs_offset),
        vehicles=tuple(vehicles),
        period=Period(spec.period_duration),
    )


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    doc = {
        "bs": {"x_m": scenario.bs.x, "y_m": scenario.bs.y},
        "period": {"duration_s": scenario.period.duration},
        "vehicles": [
            {
                "id": v.id,
                "x_m": v.x,
                "y_m": v.y,
                "speed_mps": v.speed,
                "heading_rad": v.heading,
            }
            for v in scenario.vehicles
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _require(doc: dict, key: str, context: str):
    if not isinstance(doc, dict) or key not in doc:
        raise ScenarioFormatError(f"{context}: missing field {key!r}")
    return doc[key]


def _number(doc: dict, key: str, context: str) -> float:
    value = _require(doc, key, context)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ScenarioFormatError(f"{context}.{key}: expected a number, got {value!r}")
    return float(value)


def load_scenario(path: str | Path) -> Scenario:
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(f"{path}: not valid JSON ({exc})") from None
    bs_doc = _require(doc, "bs", "scenario")
    period_doc = _require(doc, "period", "scenario")
    vehicles_doc = _require(doc, "vehicles", "scenario")
    if not isinstance(vehicles_doc, list):
        raise ScenarioFormatError("scenario.vehicles: expected a list")
    vehicles = []
    for k, vdoc in enumerate(vehicles_doc):
        ctx = f"vehicles[{k}]"
        vid = _require(vdoc, "id", ctx)
        if not isinstance(vid, int) or isinstance(vid, bool):
            raise ScenarioFormatError(f"{ctx}.id: expected an integer, got {vid!r}")
        try:
            vehicles.append(
                VehicleState(
                    id=vid,
                    x=_number(vdoc, "x_m", ctx),
                    y=_number(vdoc, "y_m", ctx),
                    speed=_number(vdoc, "speed_mps", ctx),
                    heading=_number(vdoc, "heading_rad", ctx),
                )
            )
        except ValueError as exc:
            raise ScenarioFormatError(f"{ctx}: {exc}") from None
    vehicles.sort(key=lambda v: v.id)
    try:
        return Scenario(
            bs=BasePosition(_number(bs_doc, "x_m", "bs"), _number(bs_doc, "y_m", "bs")),
            vehicles=tuple(vehicles),
            period=Period(_number(period_doc, "duration_s", "period")),
        )
    except ValueError as exc:
        raise ScenarioFormatError(str(exc)) from None
