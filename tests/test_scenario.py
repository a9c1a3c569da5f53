from __future__ import annotations

import json
import math

import pytest

from relaysched.scenario import (
    Scenario,
    ScenarioFormatError,
    ScenarioSpec,
    generate,
    load_scenario,
    save_scenario,
)


class TestGenerate:
    def test_same_seed_identical(self):
        spec = ScenarioSpec(n_vehicles=30, seed=99)
        assert generate(spec) == generate(spec)

    def test_different_seed_differs(self):
        a = generate(ScenarioSpec(n_vehicles=10, seed=1))
        b = generate(ScenarioSpec(n_vehicles=10, seed=2))
        assert a != b

    def test_empty_fleet(self):
        sc = generate(ScenarioSpec(n_vehicles=0, seed=1))
        assert sc.n == 0 and sc.vehicles == ()

    def test_geometry_and_ranges(self):
        spec = ScenarioSpec(n_vehicles=1000, seed=4)
        sc = generate(spec)
        assert [v.id for v in sc.vehicles] == list(range(1000))
        assert sc.bs.x == 0.0 and sc.bs.y == -15.0
        for v in sc.vehicles:
            assert -500.0 <= v.x <= 500.0
            assert 4.0 <= v.speed <= 35.0
            assert v.heading in (0.0, math.pi)
            assert v.y == (1.75 if v.heading == 0.0 else 5.25)

    def test_uniformity_sanity(self):
        sc = generate(ScenarioSpec(n_vehicles=100_000, seed=8))
        xs = [v.x for v in sc.vehicles]
        speeds = [v.speed for v in sc.vehicles]
        assert abs(sum(xs) / len(xs)) <= 0.01 * 500.0
        mid = (4.0 + 35.0) / 2.0
        assert abs(sum(speeds) / len(speeds) - mid) <= 0.01 * mid

    def test_fixed_speed(self):
        sc = generate(ScenarioSpec(n_vehicles=20, seed=3, speed_range=(12.0, 12.0)))
        assert all(v.speed == 12.0 for v in sc.vehicles)

    def test_scalar_speed_normalized(self):
        spec = ScenarioSpec(n_vehicles=1, seed=1, speed_range=9.0)
        assert spec.speed_range == (9.0, 9.0)

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


class TestSerialization:
    def test_round_trip_exact(self, tmp_path):
        sc = generate(ScenarioSpec(n_vehicles=25, seed=17))
        path = tmp_path / "scenario.json"
        save_scenario(sc, path)
        assert load_scenario(path) == sc

    def test_saved_period_is_duration_only(self, tmp_path):
        path = tmp_path / "scenario.json"
        save_scenario(generate(ScenarioSpec(n_vehicles=2, seed=3, period_duration=7.5)), path)
        assert json.loads(path.read_text(encoding="utf-8"))["period"] == {"duration_s": 7.5}

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ScenarioFormatError, match="JSON"):
            load_scenario(path)

    def test_missing_field_reports_context(self, tmp_path):
        doc = {"bs": {"x_m": 0.0, "y_m": -15.0},
               "period": {"duration_s": 5.0},
               "vehicles": [{"id": 0, "x_m": 1.0, "y_m": 2.0, "speed_mps": 3.0}]}
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ScenarioFormatError, match=r"vehicles\[0\].*heading_rad"):
            load_scenario(path)

    def test_type_error_reports_field(self, tmp_path):
        doc = {"bs": {"x_m": "zero", "y_m": -15.0},
               "period": {"duration_s": 5.0},
               "vehicles": []}
        path = tmp_path / "badtype.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ScenarioFormatError, match="bs.x_m"):
            load_scenario(path)

    def test_hand_written_fixture(self, tmp_path):
        # written by an older version: `t_start_s` is read and ignored
        doc = {
            "bs": {"x_m": 0.0, "y_m": -15.0},
            "period": {"t_start_s": 0.0, "duration_s": 5.0},
            "vehicles": [
                {"id": 1, "x_m": 80.0, "y_m": 5.25, "speed_mps": 20.0, "heading_rad": math.pi},
                {"id": 0, "x_m": -120.5, "y_m": 1.75, "speed_mps": 10.0, "heading_rad": 0.0},
            ],
        }
        path = tmp_path / "two.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        sc = load_scenario(path)  # out-of-order ids get sorted
        assert sc.n == 2
        assert sc.vehicles[0].x == -120.5 and sc.vehicles[1].x == 80.0
        assert sc.period.duration == 5.0

    def test_invalid_vehicle_rejected(self, tmp_path):
        doc = {
            "bs": {"x_m": 0.0, "y_m": -15.0},
            "period": {"duration_s": 5.0},
            "vehicles": [
                {"id": 0, "x_m": 0.0, "y_m": 0.0, "speed_mps": -4.0, "heading_rad": 0.0}
            ],
        }
        path = tmp_path / "negspeed.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ScenarioFormatError, match="speed"):
            load_scenario(path)

    def test_duplicate_ids_rejected(self, tmp_path):
        doc = {
            "bs": {"x_m": 0.0, "y_m": -15.0},
            "period": {"duration_s": 5.0},
            "vehicles": [
                {"id": 0, "x_m": 0.0, "y_m": 0.0, "speed_mps": 4.0, "heading_rad": 0.0},
                {"id": 0, "x_m": 1.0, "y_m": 0.0, "speed_mps": 4.0, "heading_rad": 0.0},
            ],
        }
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ScenarioFormatError, match="ids"):
            load_scenario(path)


class TestScenarioType:
    def test_rejects_noncontiguous_ids(self):
        from relaysched.mobility import BasePosition, VehicleState
        from relaysched.service import Period

        with pytest.raises(ValueError, match="ids"):
            Scenario(
                bs=BasePosition(0, 0),
                vehicles=(VehicleState(id=3, x=0, y=0, speed=0, heading=0),),
                period=Period(5.0),
            )
