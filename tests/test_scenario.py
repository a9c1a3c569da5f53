from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from oracles import generated_vehicles, motion_rows, predict_position

from relaysched.scenario import ScenarioSpec, generate
from relaysched.service import Period


class TestGenerate:
    def test_same_seed_identical(self):
        spec = ScenarioSpec(n_vehicles=30, seed=99)
        assert generate(spec).motion.tobytes() == generate(spec).motion.tobytes()

    def test_different_seed_differs(self):
        a = generate(ScenarioSpec(n_vehicles=10, seed=1))
        b = generate(ScenarioSpec(n_vehicles=10, seed=2))
        assert a.motion.tobytes() != b.motion.tobytes()

    def test_empty_fleet(self):
        sc = generate(ScenarioSpec(n_vehicles=0, seed=1))
        assert sc.n == 0 and sc.motion.shape == (0, 4)

    def test_geometry_and_ranges(self):
        sc = generate(ScenarioSpec(n_vehicles=1000, seed=4))
        assert sc.n == 1000 and sc.motion.shape == (1000, 4)
        assert sc.bs.tolist() == [0.0, -15.0, 0.0, 0.0]
        x, y, vx, vy = sc.motion.T
        assert ((-500.0 <= x) & (x <= 500.0)).all()
        assert ((4.0 <= abs(vx)) & (abs(vx) <= 35.0)).all()
        forward = vx > 0
        assert (y == np.where(forward, 1.75, 5.25)).all()
        assert (vy[forward] == 0.0).all()

    def test_backward_rows_keep_sin_pi(self):
        # heading pi gives vx = -speed and vy = speed * sin(pi), 1.2e-16 * speed, not 0
        spec = ScenarioSpec(n_vehicles=200, seed=3)
        motion = generate(spec).motion
        backward = [v for v in generated_vehicles(spec) if v.heading == math.pi]
        assert len(backward) > 50
        for v in backward:
            _, _, vx, vy = motion[v.id]
            assert vx == -v.speed and vy == v.speed * math.sin(math.pi) != 0.0

    def test_pinned_bits(self):
        # every pinned output rests on these bytes; sha256 of the little-endian rows
        motion = generate(ScenarioSpec(n_vehicles=100, seed=7)).motion
        digest = hashlib.sha256(motion.astype("<f8").tobytes()).hexdigest()
        assert digest == "9f33329ebf897c2a5777cceeb97aa70ce39b1569da4d9f8cf089e2bd04c9deb4"

    @pytest.mark.parametrize("n", [0, 1, 12, 100, 171, 342])
    def test_rows_of_the_drawn_records(self, n):
        for seed in range(20):
            spec = ScenarioSpec(n_vehicles=n, seed=seed)
            want = motion_rows(generated_vehicles(spec))
            sc = generate(spec)
            assert sc.motion.tobytes() == want.tobytes()
            # held still: the same base station and positions, no velocity, 1 s
            still = sc.held_still()
            want[:, 2:] = 0.0
            assert still.bs is sc.bs and still.motion.tobytes() == want.tobytes()
            assert still.period == Period(1.0) and sc.period == Period(spec.period_duration)

    def test_read_only(self):
        sc = generate(ScenarioSpec(n_vehicles=3, seed=1))
        for rows in (sc.motion, sc.bs, sc.held_still().motion, sc.held_still().bs):
            with pytest.raises(ValueError, match="read-only"):
                rows[0] = 1.0

    def test_uniformity_sanity(self):
        sc = generate(ScenarioSpec(n_vehicles=100_000, seed=8))
        xs = sc.motion[:, 0].tolist()
        speeds = np.abs(sc.motion[:, 2]).tolist()
        assert abs(sum(xs) / len(xs)) <= 0.01 * 500.0
        mid = (4.0 + 35.0) / 2.0
        assert abs(sum(speeds) / len(speeds) - mid) <= 0.01 * mid

    def test_fixed_speed(self):
        sc = generate(ScenarioSpec(n_vehicles=20, seed=3, speed_range=(12.0, 12.0)))
        assert (abs(sc.motion[:, 2]) == 12.0).all()

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ScenarioSpec(n_vehicles=-1, seed=0)
        with pytest.raises(ValueError):
            ScenarioSpec(n_vehicles=1, seed=0, coverage_radius=0.0)
        with pytest.raises(ValueError):
            ScenarioSpec(n_vehicles=1, seed=0, speed_range=(10.0, 5.0))
        with pytest.raises(ValueError):
            ScenarioSpec(n_vehicles=1, seed=0, speed_range=(0.0, 1000.0))

    @pytest.mark.parametrize("field, value", [
        ("coverage_radius", math.inf), ("coverage_radius", math.nan), ("bs_offset", math.nan),
        ("bs_offset", -math.inf), ("period_duration", math.inf), ("period_duration", math.nan),
        ("lane_offsets", (1.75, math.nan)), ("lane_offsets", (math.inf, 5.25)),
    ])
    def test_rejects_non_finite_geometry(self, field, value):
        # an infinite radius used to reach the vehicles as x = nan
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            ScenarioSpec(n_vehicles=1, seed=0, **{field: value})


class TestWindow:
    @pytest.mark.parametrize("n", [0, 12, 100, 200])
    @pytest.mark.parametrize("duration", [5.0, 20.0])
    def test_window_at_zero_keeps_the_motion_bytes(self, n, duration):
        # x + 0.0 * v is x, so the whole period's window is the scenario itself
        for seed in range(10):
            sc = generate(ScenarioSpec(n_vehicles=n, seed=seed, period_duration=duration))
            win = sc.window(0.0, duration)
            assert win.bs is sc.bs and win.period == sc.period
            assert win.motion.tobytes() == sc.motion.tobytes()

    @pytest.mark.parametrize("start, duration", [(2.5, 2.5), (0.37, 3.1), (5.0, 1.0)])
    def test_positions_advance_along_the_velocities(self, start, duration):
        spec = ScenarioSpec(n_vehicles=40, seed=5)
        win = generate(spec).window(start, duration)
        fleet = generated_vehicles(spec)
        want = motion_rows(fleet)
        want[:, :2] = [predict_position(v, start) for v in fleet]
        assert win.motion.tobytes() == want.tobytes()
        assert win.period == Period(duration)

    def test_scenario_unchanged_and_window_read_only(self):
        sc = generate(ScenarioSpec(n_vehicles=30, seed=2))
        before = sc.motion.tobytes(), sc.bs.tobytes(), sc.period
        win = sc.window(1.5, 2.0)
        assert (sc.motion.tobytes(), sc.bs.tobytes(), sc.period) == before
        assert win.motion is not sc.motion and not np.shares_memory(win.motion, sc.motion)
        for rows in (win.motion, win.bs, win.held_still().motion):
            with pytest.raises(ValueError, match="read-only"):
                rows[0] = 1.0

    @pytest.mark.parametrize("start", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_start(self, start):
        sc = generate(ScenarioSpec(n_vehicles=3, seed=1))
        with pytest.raises(ValueError, match="^window start must be finite"):
            sc.window(start, 1.0)

    @pytest.mark.parametrize("duration", [0.0, -1.0, math.nan, math.inf])
    def test_period_checks_the_duration(self, duration):
        with pytest.raises(ValueError):
            generate(ScenarioSpec(n_vehicles=3, seed=1)).window(1.0, duration)
