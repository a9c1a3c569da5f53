"""Reference implementations the tests compare the package against.

None of these run in a trial: each is the plain, slow or scalar form of
something the package computes faster, kept here as an oracle.

* `Xoshiro256StarStar`: the scalar xoshiro256** generator, the tests' RNG
  and the reference whose draws `rng.uniforms` must reproduce bit for bit;
  `dispatches_x86_v4` names the numpy SIMD level a run's bits belong to.
* `Vehicle` records, their motion rows and `scenario_of`, which builds a
  `Scenario` from hand-placed vehicles; `generated_vehicles` replays
  `generate`'s draws into records.
* Trajectories and distances of single vehicles at a time offset, and the
  scalar per-link rates built on them (the dense-trapezoid quadrature
  references).  The rates write the path loss out in dB on distance
  (`db_rate`), not through the package's `unit_rate`, so they check it
  rather than repeat it.
* `brute_force_assignment`: the assignment optimum by enumeration.
* `search_plan`: one table's msrs search plan, bounded on its own, as the
  search did before plans were computed for many tables at once.
* `pairs_respect_direct_order` and `aided_are_weakest`: structural
  predicates on schedules.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from relaysched.assignment import Assignment, BenefitMatrix, _check_tall
from relaysched.channel import PathLossModel, RadioConfig, rb_share
from relaysched.rng import _UNIT, _s1_run, _scramble, split_seeds
from relaysched.scenario import Scenario, ScenarioSpec
from relaysched.scheduler import Schedule
from relaysched.service import Period

# --- random numbers and SIMD dispatch -----------------------------------------


class Xoshiro256StarStar:
    """xoshiro256** generator, seeded through splitmix64 as its authors advise."""

    def __init__(self, seed: int):
        self._s = split_seeds(seed, 4)

    def next_u64s(self, count: int) -> list[int]:
        """The stream's next `count` 64-bit words."""
        s1s, self._s = _s1_run(self._s, count)
        return [_scramble(s1) for s1 in s1s]

    def next_u64(self) -> int:
        return self.next_u64s(1)[0]

    def random(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * _UNIT

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()


def dispatches_x86_v4() -> bool:
    """Whether numpy runs its X86_V4 (AVX-512) kernels in this process."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        return False
    return bool(__cpu_features__.get("X86_V4"))


# --- vehicles and scenarios ---------------------------------------------------


@dataclass(frozen=True)
class Vehicle:
    """One node at the period start: position (m), speed (m/s), heading (rad from +x)."""

    id: int
    x: float
    y: float
    speed: float
    heading: float

    @property
    def velocity(self) -> tuple[float, float]:
        return self.speed * math.cos(self.heading), self.speed * math.sin(self.heading)


def base_station(x: float, y: float) -> Vehicle:
    """A base station: a node that never moves (its id is not read)."""
    return Vehicle(-1, x, y, 0.0, 0.0)


def motion_rows(nodes) -> np.ndarray:
    """(N, 4) rows of (x, y, vx, vy) at the period start, one per node."""
    return np.array([(v.x, v.y, *v.velocity) for v in nodes], dtype=float).reshape(-1, 4)


def scenario_of(vehicles, bs=base_station(0.0, -15.0), duration=5.0) -> Scenario:
    """The scenario of hand-placed vehicles, listed in id order."""
    return Scenario(motion_rows([bs])[0], motion_rows(vehicles), Period(duration))


def generated_vehicles(spec: ScenarioSpec) -> list[Vehicle]:
    """`generate(spec)`'s fleet as records, drawn in the same pinned order (direction, x, speed)."""
    gen = Xoshiro256StarStar(spec.seed)
    fleet = []
    for i in range(spec.n_vehicles):
        forward = gen.random() < 0.5
        x = gen.uniform(-spec.coverage_radius, spec.coverage_radius)
        speed = gen.uniform(*spec.speed_range)
        y = spec.lane_offsets[0] if forward else spec.lane_offsets[1]
        fleet.append(Vehicle(i, x, y, speed, 0.0 if forward else math.pi))
    return fleet


# --- trajectories and distances ---------------------------------------------


def _check_dt(dt):
    arr = np.asarray(dt, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite time offset")
    if np.any(arr < 0):
        raise ValueError("negative time offset")
    return arr


def predict_position(v: Vehicle, dt):
    """Position of `v` after `dt` seconds of straight constant-speed motion."""
    t = _check_dt(dt)
    vx, vy = v.velocity
    return v.x + vx * t, v.y + vy * t


def distance_to_bs(v: Vehicle, bs: Vehicle, dt):
    """Euclidean distance between the vehicle at offset `dt` and the BS."""
    x, y = predict_position(v, dt)
    return np.hypot(x - bs.x, y - bs.y)


def distance_between(a: Vehicle, b: Vehicle, dt):
    """Euclidean distance between two vehicles at offset `dt`."""
    xa, ya = predict_position(a, dt)
    xb, yb = predict_position(b, dt)
    return np.hypot(xa - xb, ya - yb)


# --- scalar per-link rates ----------------------------------------------------


def db_rate(model: PathLossModel, p_tx_dbm: float, noise_dbm: float, d):
    """Per-RB rate log2(1 + SNR) at distance `d`, with the path loss and SNR in dB."""
    loss = model.reference_loss + model.slope * np.log10(
        np.maximum(d, model.min_distance) / model.distance_divisor
    )
    return np.log2(1.0 + 10.0 ** ((p_tx_dbm - noise_dbm - loss) / 10.0))


def rate_v2i(v: Vehicle, bs: Vehicle, cfg: RadioConfig, n_total: int, dt):
    """Downlink rate of vehicle `v` when `n_total` vehicles share the cellular RBs."""
    share = rb_share(cfg.k_lte, n_total)
    if share == 0:
        return np.zeros_like(np.asarray(dt, dtype=float))[()]
    d = distance_to_bs(v, bs, dt)
    return share * db_rate(cfg.v2i_model, cfg.p_bs_per_rb, cfg.noise_v2i_per_rb, d)


def rate_v2v(tx: Vehicle, rx: Vehicle, cfg: RadioConfig, n_av: int, dt):
    """Relay-to-vehicle rate when `n_av` aided vehicles share the short-range RBs."""
    share = rb_share(cfg.k_dsrc, n_av)
    if share == 0:
        return np.zeros_like(np.asarray(dt, dtype=float))[()]
    d = distance_between(tx, rx, dt)
    return share * db_rate(cfg.v2v_model, cfg.p_vn_per_rb, cfg.noise_v2v_per_rb, d)


# --- assignment by enumeration ----------------------------------------------

_BRUTE_FORCE_CAP = 8  # factorial enumeration beyond this is pointless


def brute_force_assignment(w: BenefitMatrix, cap: int = _BRUTE_FORCE_CAP) -> Assignment:
    """Exact maximum by enumerating row arrangements; test oracle for the solver."""
    _check_tall(w)
    if w.rows > cap:
        raise ValueError(f"refusing brute-force enumeration over {w.rows} rows (cap {cap})")
    values = w.values.tolist()
    best = -1.0
    best_perm = None
    for perm in itertools.permutations(range(w.rows), w.cols):
        s = 0.0
        for c, r in enumerate(perm):
            s += values[r][c]
        if s > best:
            best = s
            best_perm = perm
    return Assignment(dict(enumerate(best_perm)), best)


# --- one table's search plan -----------------------------------------------


def search_plan(tables) -> tuple[list[int], list[tuple]]:
    """The `plan` that `plan_searches([tables])` stores, computed alone with 1-D and 2-D arrays.

    The vehicles by descending direct amount (ties by id), and every aided
    count as (bound, n_av, share-level block), best bound first.  The
    counts of one V2V RB share take their two-hop amounts from one block,
    whose column maxima grow one row per smaller count.
    """
    n, k = tables.n, tables.k_dsrc
    rows = np.argsort(-tables.v2i, kind="stable")[:, None]
    cap = min(n // 2, k)
    block = tables.v2v(rows, rows[n - cap:, 0])
    direct = tables.v2i[rows]
    kept = np.concatenate(([0.0], np.cumsum(direct)))
    counts = []
    share = 0
    for n_av in range(cap, 0, -1):
        if k // n_av != share:
            share = k // n_av
            first = k // (share + 1) + 1
            w = tables.two_hop(block[: n - first, cap - n_av:], direct[: n - first], n_av)
            peak = w[: n - n_av].max(axis=0)
        else:
            np.maximum(peak, w[n - n_av - 1], out=peak)
        counts.append((kept[n - n_av] + peak[-n_av:].sum(), n_av, w))
    counts.sort(key=lambda c: (-c[0], c[1]))
    return rows[:, 0].tolist(), counts


# --- schedule predicates ------------------------------------------------------


def pairs_respect_direct_order(schedule: Schedule, per_vehicle, tol: float = 1e-9) -> bool:
    """True when no aided vehicle has a larger direct amount than its own relay."""
    return all(
        per_vehicle[j] <= per_vehicle[i] + tol * max(1.0, abs(per_vehicle[i]))
        for j, i in schedule.pairing.items()
    )


def aided_are_weakest(schedule: Schedule, per_vehicle, tol: float = 1e-9) -> bool:
    """True when every aided vehicle's direct amount is below everyone else's.

    This is the structural mark of the sort-then-select pipeline: the aided
    set is exactly the tail of the direct-amount ordering (up to ties).
    """
    others = [i for i in range(len(per_vehicle)) if i not in schedule.av_set]
    if not schedule.av_set or not others:
        return True
    worst_kept = min(per_vehicle[i] for i in others)
    best_aided = max(per_vehicle[j] for j in schedule.av_set)
    return best_aided <= worst_kept + tol * max(1.0, abs(worst_kept))
