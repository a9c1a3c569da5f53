from __future__ import annotations

import math

import numpy as np
import pytest
from oracles import (
    Vehicle,
    Xoshiro256StarStar,
    base_station,
    distance_between,
    distance_to_bs,
    predict_position,
)



def vehicle(x, y, speed, heading, vid=0):
    return Vehicle(id=vid, x=x, y=y, speed=speed, heading=heading)


class TestPredictPosition:
    def test_motion_along_x(self):
        assert predict_position(vehicle(0, 0, 10, 0), 2.0) == (20.0, 0.0)

    def test_zero_dt_is_identity(self):
        v = vehicle(12.5, -3.0, 33.0, 1.2)
        assert predict_position(v, 0.0) == (v.x, v.y)

    def test_motion_along_y(self):
        x, y = predict_position(vehicle(0, 0, 5, math.pi / 2), 3.0)
        assert abs(x - 0.0) < 1e-12
        assert abs(y - 15.0) < 1e-12

    def test_array_dt(self):
        x, y = predict_position(vehicle(0, 0, 10, 0), np.array([0.0, 1.0, 2.0]))
        assert np.allclose(x, [0, 10, 20]) and np.allclose(y, 0)

    def test_rejects_negative_or_nonfinite_dt(self):
        with pytest.raises(ValueError):
            predict_position(vehicle(0, 0, 1, 0), -1.0)
        with pytest.raises(ValueError):
            predict_position(vehicle(0, 0, 1, 0), float("nan"))


class TestDistances:
    def test_pythagoras_static(self, bs):
        v = vehicle(100, 0, 0, 0)
        for dt in (0.0, 1.0, 7.3):
            assert distance_to_bs(v, bs, dt) == pytest.approx(math.sqrt(10225), abs=1e-12)

    def test_colocated_is_zero(self):
        assert distance_to_bs(vehicle(0, -15, 0, 0), base_station(0, -15), 0.0) == 0.0

    def test_moving_toward_then_past(self, bs):
        # after 2 s at 10 m/s along x the vehicle sits at (20, 0); BS at (0, -15)
        assert distance_to_bs(vehicle(0, 0, 10, 0), bs, 2.0) == pytest.approx(25.0, abs=1e-12)

    def test_identical_states(self):
        a = vehicle(5, 5, 20, math.pi, vid=0)
        b = vehicle(5, 5, 20, math.pi, vid=1)
        for dt in (0.0, 3.0):
            assert distance_between(a, b, dt) == 0.0

    def test_same_velocity_preserves_gap(self):
        a = vehicle(0, 0, 10, 0, vid=0)
        b = vehicle(100, 0, 10, 0, vid=1)
        for dt in (0.0, 1.5, 9.0):
            assert distance_between(a, b, dt) == pytest.approx(100.0, abs=1e-12)

    def test_opposing_traffic(self):
        a = vehicle(0, 0, 10, 0, vid=0)
        b = vehicle(100, 0, 10, math.pi, vid=1)
        assert distance_between(a, b, 2.0) == pytest.approx(60.0, abs=1e-12)


class TestProperties:
    def test_translation_invariance(self):
        gen = Xoshiro256StarStar(5)
        for _ in range(50):
            ax, ay = gen.uniform(-500, 500), gen.uniform(-10, 10)
            sx, sy = gen.uniform(-1e4, 1e4), gen.uniform(-1e4, 1e4)
            speed, heading = gen.uniform(0, 35), gen.uniform(0, 2 * math.pi)
            dt = gen.uniform(0, 10)
            v = vehicle(ax, ay, speed, heading)
            v_shift = vehicle(ax + sx, ay + sy, speed, heading)
            base = base_station(gen.uniform(-100, 100), -15.0)
            base_shift = base_station(base.x + sx, base.y + sy)
            d0 = distance_to_bs(v, base, dt)
            d1 = distance_to_bs(v_shift, base_shift, dt)
            assert d1 == pytest.approx(d0, rel=1e-9)

    def test_distance_symmetry(self):
        gen = Xoshiro256StarStar(6)
        for _ in range(50):
            a = vehicle(gen.uniform(-500, 500), 1.75, gen.uniform(0, 35),
                        gen.uniform(0, 2 * math.pi), vid=0)
            b = vehicle(gen.uniform(-500, 500), 5.25, gen.uniform(0, 35),
                        gen.uniform(0, 2 * math.pi), vid=1)
            dt = gen.uniform(0, 10)
            assert distance_between(a, b, dt) == distance_between(b, a, dt)

    def test_zero_speed_constant_distance(self, bs):
        v = vehicle(123.0, 1.75, 0.0, 0.7)
        d = [float(distance_to_bs(v, bs, dt)) for dt in (0.0, 2.0, 50.0)]
        assert d[0] == d[1] == d[2]
