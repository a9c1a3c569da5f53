from __future__ import annotations

import concurrent.futures
import importlib
import json
import math
import os
import platform
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import relaysched.experiments as experiments_module
import relaysched.scheduler as scheduler_module
from relaysched.experiments import (
    CHUNK_TRIALS,
    DEFAULT_N_VALUES,
    DEFAULT_SPEED_VALUES,
    POLICIES,
    ExperimentConfig,
    MetricsRow,
    _run_chunk,
    cmd_run,
    cmd_sweep_n,
    cmd_sweep_speed,
    config_echo,
    config_from_doc,
    rows_to_csv,
    summarize,
    write_outputs,
)
from relaysched.rng import split_seeds
from relaysched.scheduler import validate_schedule
from relaysched.service import Period, QuadratureSpec


GOLDEN = Path(__file__).parent / "data"


def readme_config_example() -> dict:
    """The JSON block of the README's "Config file" section."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Config file\n", 1)[1]
    return json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])


# every leaf key of the config format, each away from its default
EVERY_KEY_DOC = {
    "scenario": {"n_vehicles": 30, "coverage_radius_m": 400.0, "bs_offset_m": 20.0,
                 "lane_offsets_m": [2.0, 6.0], "speed_range_mps": [10.0, 30.0]},
    "period": {"duration_s": 4.0},
    "radio": {"k_lte": 100, "k_dsrc": 20, "p_bs_total_dbm": 46.0, "p_bs_per_rb_dbm": 25.0,
              "p_vn_per_rb_dbm": 23.0, "noise_v2i_per_rb_dbm": -100.0,
              "noise_v2v_per_rb_dbm": -110.0,
              "v2i_path_loss": {"reference_loss_db": 128.0, "slope_db_per_decade": 37.0,
                                "distance_divisor_m": 900.0, "min_distance_m": 2.0},
              "v2v_path_loss": {"reference_loss_db": 44.0, "slope_db_per_decade": 27.0,
                                "distance_divisor_m": 3.0, "min_distance_m": 1.5}},
    "quadrature": {"relative_tolerance": 1e-7, "max_refinements": 10},
    "run": {"seed": 11, "trials": 3, "policies": ["noncoop", "msrs"], "oracle_cap": 10,
            "workers": 2},
    "sweep": {"n_values": [10, 30], "speed_values": [5.0, 15.0]},
}


def hexed(x):
    return "" if x is None else float.hex(x)


def small_config(**kw):
    base = dict(seed=5, trials=2, n_vehicles=6, policies=("msrs", "noncoop"))
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfig:
    def test_defaults(self):
        cfg = config_from_doc({})
        assert cfg.n_vehicles == 100
        assert cfg.trials == 200
        assert cfg.n_values == DEFAULT_N_VALUES
        assert cfg.speed_values == DEFAULT_SPEED_VALUES
        assert cfg.radio.k_lte == 222

    def test_file_values_and_overrides(self):
        doc = {
            "scenario": {"n_vehicles": 40, "speed_range_mps": 12},
            "radio": {"k_dsrc": 50, "p_bs_total_dbm": 46.0},
            "quadrature": {"relative_tolerance": 1e-8},
            "run": {"trials": 7, "policies": ["msrs"], "seed": 3},
            "sweep": {"n_values": [10, 20]},
        }
        cfg = config_from_doc(doc)
        assert cfg.n_vehicles == 40
        assert cfg.speed_range == (12.0, 12.0)
        assert cfg.radio.k_dsrc == 50
        assert cfg.radio.p_bs_per_rb == pytest.approx(46.0 - 10 * math.log10(222))
        assert cfg.quad.relative_tolerance == 1e-8
        assert cfg.trials == 7 and cfg.seed == 3
        assert cfg.n_values == (10, 20)
        overridden = config_from_doc(doc, {"trials": 2, "seed": 9})
        assert overridden.trials == 2 and overridden.seed == 9

    def test_per_rb_power_wins_over_total(self):
        cfg = config_from_doc({"radio": {"p_bs_per_rb_dbm": 20.0, "p_bs_total_dbm": 52.0}})
        assert cfg.radio.p_bs_per_rb == 20.0

    def test_path_loss_override(self):
        cfg = config_from_doc({"radio": {"v2v_path_loss": {"slope_db_per_decade": 30.0}}})
        assert cfg.radio.v2v_model.slope == 30.0
        assert cfg.radio.v2v_model.reference_loss == 43.9  # untouched fields keep defaults

    def test_every_documented_key_at_its_default(self):
        # the README's config example, plus the per-RB power, resolves to the defaults
        doc = readme_config_example()
        assert config_from_doc(doc) == config_from_doc({})
        default_per_rb = config_from_doc({}).radio.p_bs_per_rb
        doc["radio"]["p_bs_per_rb_dbm"] = default_per_rb
        assert config_from_doc(doc) == config_from_doc({})

    @pytest.mark.parametrize("name, doc", [
        ("config_echo_seed7.json", {"run": {"seed": 7}}),
        ("config_echo_every_key.json", EVERY_KEY_DOC),
    ], ids=["defaults", "every-key"])
    def test_config_echo_matches_recorded_bytes(self, name, doc):
        # pins every default and every key -> field mapping; the per-RB power
        # hides p_bs_total_dbm in the second, which test_file_values_and_overrides reads
        want = (GOLDEN / name).read_text(encoding="utf-8")
        assert config_echo(config_from_doc(doc)) == want

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"run": {"trials": "7"}}, "'run.trials' must be an integer, got \"7\""),
            ({"run": {"workers": "2"}}, "'run.workers' must be an integer"),
            ({"quadrature": {"max_refinements": 12.0}},
             "'quadrature.max_refinements' must be an integer, got 12.0"),
            ({"sweep": {"n_values": 20}}, "'sweep.n_values' must be a list, got 20"),
            ({"scenario": {"n_vehicles": 2.5}}, "'scenario.n_vehicles' must be an integer"),
            ({"radio": {"k_dsrc": 2.5}}, "'radio.k_dsrc' must be an integer"),
            ({"scenario": {"n_vehicles": True}}, "'scenario.n_vehicles' must be an integer, got true"),
            ({"run": {"policies": "msrs"}}, "'run.policies' must be a list, got \"msrs\""),
            ({"run": {"seed": 7.0}}, "'run.seed' must be an integer or null"),
            ({"radio": {"v2i_path_loss": {"slope_db_per_decade": False}}},
             "'radio.v2i_path_loss.slope_db_per_decade' must be a number"),
            ({"scenario": {"speed_range_mps": "fast"}},
             "'scenario.speed_range_mps' must be a list or a number"),
        ],
    )
    def test_rejects_wrong_json_kind(self, doc, message):
        with pytest.raises(ValueError, match=f"^config key {re.escape(message)}"):
            config_from_doc(doc)

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"sweep": {"n_values": [20, 2.5]}}, "'sweep.n_values[1]' must be an integer, got 2.5"),
            ({"sweep": {"speed_values": [4, True]}}, "'sweep.speed_values[1]' must be a number, got true"),
            ({"scenario": {"lane_offsets_m": ["a", 2]}},
             "'scenario.lane_offsets_m[0]' must be a number, got \"a\""),
            ({"scenario": {"lane_offsets_m": [1.75]}},
             "'scenario.lane_offsets_m' must hold 2 items, got [1.75]"),
            ({"scenario": {"speed_range_mps": [4, 20, 35]}},
             "'scenario.speed_range_mps' must hold 2 items, got [4, 20, 35]"),
            ({"run": {"policies": ["msrs", 3]}}, "'run.policies[1]' must be a string, got 3"),
        ],
    )
    def test_rejects_wrong_list_items(self, doc, message):
        # items are checked against the field's annotation (tuple[int, ...], tuple[float, float])
        with pytest.raises(ValueError, match=f"^config key {re.escape(message)}$"):
            config_from_doc(doc)

    def test_accepts_integer_items_for_numbers(self):
        cfg = config_from_doc({"scenario": {"lane_offsets_m": [2, 5.5], "speed_range_mps": [4, 35]},
                               "sweep": {"n_values": [20], "speed_values": [5, 20.5]}})
        assert cfg.lane_offsets == (2, 5.5) and cfg.speed_range == (4, 35)
        assert cfg.n_values == (20,) and cfg.speed_values == (5, 20.5)

    def test_rejects_non_finite_quadrature_tolerance(self):
        # json.loads reads NaN and Infinity; with a NaN tolerance no link could converge
        for text in ("NaN", "Infinity"):
            doc = json.loads('{"quadrature": {"relative_tolerance": %s}}' % text)
            with pytest.raises(ValueError, match="relative_tolerance must be positive and finite"):
                config_from_doc(doc)

    @pytest.mark.parametrize("k_lte", [0, -3])
    def test_rejects_non_positive_k_lte(self, k_lte):
        # the count is checked before the BS power is split over it
        with pytest.raises(ValueError, match="^resource-block counts must be >= 1$"):
            config_from_doc({"radio": {"k_lte": k_lte}})

    @pytest.mark.parametrize(
        "doc, path",
        [
            ({"quadrature": {"max_refinement": 0}}, "quadrature.max_refinement"),
            ({"period": {"duration_s": 5.0, "t_start_s": 2.0}}, "period.t_start_s"),
            ({"radio": {"v2v_path_loss": {"slope": 30.0}}}, "radio.v2v_path_loss.slope"),
            ({"runs": {"trials": 3}}, "runs"),
        ],
    )
    def test_rejects_unknown_keys(self, doc, path):
        with pytest.raises(ValueError, match=f"unknown config key '{path}'"):
            config_from_doc(doc)

    def test_rejects_retired_initial_subintervals(self):
        # the Simpson rule's starting grid; each piece now starts as one Gauss-Kronrod panel
        with pytest.raises(ValueError, match="^unknown config key 'quadrature.initial_subintervals'; "
                                             "expected one of relative_tolerance, max_refinements$"):
            config_from_doc({"quadrature": {"initial_subintervals": 16}})

    def test_rejects_section_that_is_not_an_object(self):
        with pytest.raises(ValueError, match="'scenario' must be an object"):
            config_from_doc({"scenario": 12})

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="polic"):
            ExperimentConfig(seed=1, policies=("msrs", "magic"))

    def test_rejects_duplicate_policies(self):
        # a repeated policy used to write each of its rows twice and count
        # them twice in summary.csv's `trials`
        with pytest.raises(ValueError, match=r"^policies listed more than once: \['msrs'\]$"):
            ExperimentConfig(seed=1, policies=("msrs", "msrs", "noncoop"))
        with pytest.raises(ValueError, match=r"more than once: \['irrs', 'noncoop'\]$"):
            config_from_doc({"run": {"policies": ["noncoop", "irrs", "noncoop", "irrs"]}})

    def test_rejects_bad_trials(self):
        with pytest.raises(ValueError):
            ExperimentConfig(seed=1, trials=0)

    def test_rejects_negative_oracle_cap(self):
        with pytest.raises(ValueError, match="^oracle_cap must be >= 0, got -5$"):
            ExperimentConfig(seed=1, oracle_cap=-5)
        assert ExperimentConfig(seed=1, oracle_cap=0).oracle_cap == 0

    def test_rejects_seed_outside_64_bits(self):
        # seeds are read modulo 2**64, so -1 and 2**64 would alias 2**64 - 1 and 0
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match=rf"^seed must be in 0\.\.2\*\*64-1, got {seed}$"):
                ExperimentConfig(seed=seed)
        with pytest.raises(ValueError, match="got -1$"):
            config_from_doc({"run": {"seed": -1}})
        assert ExperimentConfig(seed=0).seed == 0
        assert ExperimentConfig(seed=2**64 - 1).seed == 2**64 - 1

    def test_rejects_bad_sweep_points(self):
        # a bad point fails when the config is built, before any trial runs
        with pytest.raises(ValueError, match="^n_vehicles must be >= 0, got -1$"):
            ExperimentConfig(seed=1, n_values=(20, -1))
        with pytest.raises(ValueError, match=r"^speed range must satisfy .* got \(70.0, 70.0\)$"):
            ExperimentConfig(seed=1, speed_values=(10.0, 70.0))


class TestCmdRun:
    def test_requires_seed(self):
        with pytest.raises(ValueError, match="seed"):
            cmd_run(ExperimentConfig(seed=None, trials=1))

    def test_dominance_rows(self):
        rows = cmd_run(small_config(n_vehicles=2, trials=1))
        assert len(rows) == 2
        by_policy = {r.policy: r for r in rows}
        assert by_policy["msrs"].total_service >= by_policy["noncoop"].total_service

    def test_oracle_loss_ratio(self):
        rows = cmd_run(small_config(policies=("msrs", "noncoop", "optimal"), trials=3))
        opt_rows = [r for r in rows if r.policy == "optimal"]
        assert all(r.loss_ratio == 0.0 for r in opt_rows)
        others = [r for r in rows if r.policy != "optimal"]
        assert all(r.loss_ratio is not None and 0.0 <= r.loss_ratio <= 1.0 for r in others)
        # the service-driven policy finds the exact optimum on at least one small instance
        assert any(r.loss_ratio == 0.0 for r in rows if r.policy == "msrs")

    def test_oracle_refusal_above_cap(self):
        rows = cmd_run(small_config(n_vehicles=14, trials=1,
                                    policies=("msrs", "optimal"), oracle_cap=12))
        opt = [r for r in rows if r.policy == "optimal"][0]
        assert opt.total_service is None and "refused" in opt.note
        msrs = [r for r in rows if r.policy == "msrs"][0]
        assert msrs.total_service is not None and msrs.loss_ratio is None

    def test_no_direct_rbs_noted_on_every_row(self):
        # 30 vehicles share 10 cellular RBs: every direct share and every total is 0
        cfg = config_from_doc({
            "scenario": {"n_vehicles": 30},
            "radio": {"k_lte": 10},
            "run": {"seed": 3, "trials": 2,
                    "policies": ["msrs", "irrs", "noncoop", "optimal"]},
        })
        rows = cmd_run(cfg)
        starved = "no direct RBs: n_vehicles=30 exceeds k_lte=10"
        assert len(rows) == 8 and all(r.note.endswith(starved) for r in rows)
        assert all(r.total_service == 0.0 for r in rows if r.policy != "optimal")
        opt = [r for r in rows if r.policy == "optimal"]
        assert all(r.note == f"refused: n_vehicles=30 exceeds oracle cap 12; {starved}" for r in opt)
        assert f",{starved}\n" in rows_to_csv(rows)
        # a fleet the cellular RBs can serve carries no note
        assert all(r.note == "" for r in cmd_run(small_config(trials=1)))

    def test_rows_sorted_by_policy_then_seed(self):
        rows = cmd_run(small_config(trials=4))
        assert [(r.policy, r.seed) for r in rows] == sorted((r.policy, r.seed) for r in rows)

    def test_unconverged_quadrature_noted_on_every_row(self):
        # a tolerance near the rounding error and no bisection budget: the
        # pieces whose K15 and G7 do not agree to 1e-15 stay unconverged
        cfg = config_from_doc({
            "scenario": {"n_vehicles": 6},
            "quadrature": {"relative_tolerance": 1e-15, "max_refinements": 0},
            "run": {"seed": 3, "trials": 2,
                    "policies": ["msrs", "irrs", "noncoop", "optimal"]},
        })
        rows = cmd_run(cfg)
        # of each trial's 6 direct links and 15 pairs (the oracle integrates all)
        assert len(rows) == 8
        notes = {seed: {r.note for r in rows if r.seed == seed} for seed in {r.seed for r in rows}}
        assert sorted(note for trial in notes.values() for note in trial) == [
            "quadrature not converged on 7 links", "quadrature not converged on 8 links"]


class TestGoldenMetrics:
    @pytest.mark.parametrize("name,n_vehicles,policies", [
        ("metrics_seed7_n40.csv", 40, ["msrs", "irrs", "noncoop"]),
        ("metrics_seed7_n10_optimal.csv", 10, ["msrs", "irrs", "noncoop", "optimal"]),
    ], ids=["n40", "n10-optimal"])
    def test_schedules_match_recorded_run(self, name, n_vehicles, policies):
        # `run --seed 7 --trials 3 --n <N>`: every non-float column exactly, and
        # the totals to rel 1e-9, so a changed schedule fails and a last-bit
        # libm difference does not
        cfg = config_from_doc({"scenario": {"n_vehicles": n_vehicles},
                               "run": {"seed": 7, "trials": 3, "policies": policies}})
        got = rows_to_csv(cmd_run(cfg)).splitlines()
        want = (GOLDEN / name).read_text(encoding="utf-8").splitlines()
        assert got[0] == want[0] and len(got) == len(want)
        header = want[0].split(",")
        floats = {header.index("total_service"), header.index("loss_ratio")}
        for got_row, want_row in zip(got[1:], want[1:]):
            g, w = got_row.split(","), want_row.split(",")
            assert len(g) == len(w)
            for k, (a, b) in enumerate(zip(g, w)):
                if k in floats and b:
                    assert float(a) == pytest.approx(float(b), rel=1e-9), want_row
                else:
                    assert a == b, want_row

    @pytest.mark.parametrize("name,n_vehicles,trials,policies", [
        ("totals_seed7_n100.csv", 100, 20, ["msrs", "irrs", "noncoop"]),
        ("totals_seed7_n12_optimal.csv", 12, 40, ["msrs", "irrs", "noncoop", "optimal"]),
    ], ids=["n100", "n12-optimal"])
    def test_exact_totals(self, name, n_vehicles, trials, policies):
        # `run --seed 7 --trials <T> --n <N>`: every total and loss ratio to
        # the bit, as float.hex, which the 12 significant digits of the CSVs
        # cannot show
        cfg = config_from_doc({"scenario": {"n_vehicles": n_vehicles},
                               "run": {"seed": 7, "trials": trials, "policies": policies}})
        got = [f"{r.policy},{r.seed},{hexed(r.total_service)},{hexed(r.loss_ratio)}"
               for r in cmd_run(cfg)]
        want = (GOLDEN / name).read_text(encoding="utf-8").splitlines()
        assert want[0] == "policy,seed,total_service_hex,loss_ratio_hex"
        assert got == want[1:]

    def test_default_point_bytes(self, tmp_path):
        # `run --seed 7 --trials 20 --n 100`, the paper's default point: both
        # files to the byte, so any drift in a total shows
        cfg = config_from_doc({"scenario": {"n_vehicles": 100}, "run": {"seed": 7, "trials": 20}})
        write_outputs(cmd_run(cfg), cfg, tmp_path)
        for name in ("metrics", "summary"):
            got = (tmp_path / f"{name}.csv").read_bytes()
            assert got == (GOLDEN / f"{name}_seed7_n100.csv").read_bytes(), name


class TestSweeps:
    def test_single_point_sweep_equals_run(self):
        cfg = small_config(trials=3)
        run_rows = cmd_run(cfg)
        sweep_rows = cmd_sweep_n(ExperimentConfig(
            seed=cfg.seed, trials=3, n_vehicles=99, policies=cfg.policies,
            n_values=(cfg.n_vehicles,),
        ))
        assert [(r.policy, r.seed, r.total_service) for r in run_rows] == [
            (r.policy, r.seed, r.total_service) for r in sweep_rows
        ]

    def test_two_seed_average_is_hand_mean(self):
        cfg = small_config(trials=2, policies=("noncoop",))
        rows = cmd_run(cfg)
        summary = summarize(rows)
        lines = summary.strip().split("\n")
        assert len(lines) == 2
        exact_mean = (rows[0].total_service + rows[1].total_service) / 2
        assert lines[1].split(",")[-1] == format(exact_mean, ".12g")

    @pytest.mark.parametrize("totals,mean", [((0.1, 0.2, 0.3), "0.2"), ((1.0, 1e100, -1e100), "0")],
                             ids=["tenths", "cancelling"])
    def test_summary_means_add_in_seed_order(self, totals, mean):
        # the totals are added in seed order from 0.0, as Python 3.11's sum()
        # did; 3.12's compensated sum() would give 1.0 for the cancelling
        # ones, and 0.6 rather than 0.6000000000000001 for the tenths
        rows = [MetricsRow("msrs", seed, 3, (4.0, 4.0), total) for seed, total in enumerate(totals)]
        assert summarize(rows[::-1]).splitlines()[1] == f"msrs,3,4,4,3,{mean}"

    def test_speed_sweep_points(self):
        cfg = small_config(trials=1, policies=("msrs",), speed_values=(5.0, 25.0))
        rows = cmd_sweep_speed(cfg)
        assert sorted({r.speed_range for r in rows}) == [(5.0, 5.0), (25.0, 25.0)]

    def test_static_fleet_equalizes_policies(self):
        cfg = small_config(trials=2, policies=("msrs", "irrs"), speed_values=(0.0,),
                           n_vehicles=8)
        rows = cmd_sweep_speed(cfg)
        msrs = sorted(r.total_service for r in rows if r.policy == "msrs")
        irrs = sorted(r.total_service for r in rows if r.policy == "irrs")
        assert msrs == pytest.approx(irrs, rel=1e-12)


class TestDeterminism:
    def test_csv_identical_across_runs_and_workers(self):
        cfg = small_config(trials=2, n_vehicles=8, policies=("msrs", "irrs"))
        first = rows_to_csv(cmd_run(cfg))
        second = rows_to_csv(cmd_run(cfg))
        assert first == second
        import dataclasses

        parallel = rows_to_csv(cmd_run(dataclasses.replace(cfg, workers=2)))
        assert parallel == first

    def test_csv_float_format(self):
        rows = cmd_run(small_config(trials=1, policies=("noncoop",)))
        body = rows_to_csv(rows).strip().split("\n")[1]
        total_text = body.split(",")[5]
        assert float(total_text) == pytest.approx(rows[0].total_service, rel=1e-11)
        assert len(total_text.replace(".", "").replace("-", "").lstrip("0")) <= 13


class TestChunks:
    """Trials run in chunks that share their kernel calls; no result depends on the chunks."""

    ALL = ("msrs", "irrs", "noncoop", "optimal")

    @staticmethod
    def results(rows):
        return {(r.policy, r.seed): (hexed(r.total_service), hexed(r.loss_ratio), r.note)
                for r in rows}

    @pytest.mark.parametrize("n_vehicles,policies", [
        (12, ALL), (40, ("msrs", "irrs", "noncoop")), (100, ("msrs", "irrs", "noncoop")),
    ], ids=["n12-optimal", "n40", "n100"])
    def test_trial_results_do_not_depend_on_the_chunk(self, n_vehicles, policies):
        # 3 trials are one short chunk; of 11 trials, the same first 3 seeds
        # run in a full chunk of 8.  At N=100 two search blocks share a kernel
        # call, so the third trial's blocks go alone in the short chunk and
        # with the fourth trial's in the full one
        cfg = ExperimentConfig(seed=5, trials=3, n_vehicles=n_vehicles, policies=policies)
        short = self.results(cmd_run(cfg))
        full = self.results(cmd_run(ExperimentConfig(seed=5, trials=11, n_vehicles=n_vehicles,
                                                     policies=policies)))
        assert CHUNK_TRIALS == 8 and len(short) == 3 * len(policies)
        assert short == {key: full[key] for key in short}

    def test_partial_last_chunk_bytes_across_workers(self, tmp_path):
        # 19 trials are chunks of 8, 8 and 3; config_echo.json records the
        # worker count and is otherwise the same
        cfg = ExperimentConfig(seed=6, trials=19, n_vehicles=12, policies=self.ALL)
        write_outputs(cmd_run(cfg), cfg, tmp_path / "w1")
        parallel = ExperimentConfig(seed=6, trials=19, n_vehicles=12, policies=self.ALL, workers=2)
        write_outputs(cmd_run(parallel), parallel, tmp_path / "w2")
        for name in ("metrics.csv", "summary.csv"):
            assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w2" / name).read_bytes()
        echo = (tmp_path / "w1" / "config_echo.json").read_text(encoding="utf-8")
        assert '"workers": 1' in echo
        assert (echo.replace('"workers": 1', '"workers": 2')
                == (tmp_path / "w2" / "config_echo.json").read_text(encoding="utf-8"))

    def test_mixed_chunk(self, cfg, monkeypatch):
        # 9 trials at N = 0, 0, 0, 10, 10, 10, 14, 14 | 14, oracle cap 12, and
        # no bisection, so some links of each fleet stay unconverged
        real = scheduler_module.unit_service_batch
        calls, rate_calls = [], []

        def counting(motions, model, p_tx, noise, period, *args, **kwargs):
            call = ("v2i" if model == cfg.v2i_model else "v2v", len(motions))
            if period == Period(1.0):  # a held-still fleet's: its rate tables'
                assert not motions[:, 2:].any()
                rate_calls.append(call)
            else:
                calls.append(call)
            return real(motions, model, p_tx, noise, period, *args, **kwargs)

        monkeypatch.setattr(scheduler_module, "unit_service_batch", counting)
        config = ExperimentConfig(seed=4, trials=3, n_values=(0, 10, 14), policies=self.ALL,
                                  quad=QuadratureSpec(max_refinements=0))
        rows = cmd_sweep_n(config)
        # one direct-link call per chunk; the chunk's one pairs call holds the
        # 3 x 45 pairs of the N=10 trials; one more holds the msrs blocks of
        # the refused N=14 trials, 7 x 7 + 21 pairs each
        assert calls == [("v2i", 58), ("v2v", 135), ("v2v", 140),
                         ("v2i", 14), ("v2v", 70)]
        # the rate tables: one direct-rate call per chunk, then one for the
        # irrs blocks, 5 x 5 + 10 rate pairs at N=10 and 7 x 7 + 21 at N=14
        assert rate_calls == [("v2i", 58), ("v2v", 3 * 35 + 2 * 70), ("v2i", 14), ("v2v", 70)]
        refused = [r for r in rows if r.policy == "optimal" and r.n_vehicles == 14]
        assert len(refused) == 3 and all(r.total_service is None for r in refused)
        assert all(r.note.startswith("refused: n_vehicles=14 exceeds oracle cap 12; ")
                   for r in refused)
        # each trial's notes count its own links only: the same as run alone
        notes = {}
        for seed, n in zip(split_seeds(4, 9), (0, 0, 0, 10, 10, 10, 14, 14, 14)):
            alone = {r.policy: r.note for r in _run_chunk((config, [(seed, n, None)]))}
            assert alone == {r.policy: r.note for r in rows if r.seed == seed}
            notes[seed] = alone["msrs"]
        assert len({note for note in notes.values() if note}) > 2

    @pytest.mark.parametrize("n_vehicles,policies", [
        (12, ALL), (100, ("msrs", "irrs", "noncoop")), (200, ("msrs", "irrs", "noncoop")),
    ], ids=["n12-optimal", "n100", "n200"])
    def test_searches_find_their_blocks_filled(self, monkeypatch, n_vehicles, policies):
        # the chunk integrates every msrs and irrs search block before any
        # policy runs, so neither search makes a kernel call.  irrs scores its
        # pairing on the service tables, and integrates only those pairs of it
        # that lie outside the msrs block (some at N=200, none with the oracle)
        real = scheduler_module.unit_service_batch
        running, calls, scored = [None], [], []

        def counting(motions, model, p_tx, noise, period, *args, **kwargs):
            if running[0] is not None:
                calls.append((running[0], period))
            return real(motions, model, p_tx, noise, period, *args, **kwargs)

        def watched(name, solve):
            def run(tables, *rest):
                unknown = np.isnan(tables.v2v_unit)
                running[0] = name
                try:
                    sched = solve(tables, *rest)
                finally:
                    running[0] = None
                scored.append((sched.pairing, set(zip(*np.nonzero(unknown & ~np.isnan(tables.v2v_unit))))))
                return sched
            return run

        monkeypatch.setattr(scheduler_module, "unit_service_batch", counting)
        for name in ("msrs", "irrs", "noncoop"):
            solve = f"solve_{'noncooperative' if name == 'noncoop' else name}"
            monkeypatch.setattr(experiments_module, solve, watched(name, getattr(experiments_module, solve)))
        config = ExperimentConfig(seed=1, n_vehicles=n_vehicles, policies=policies)
        rows = _run_chunk((config, [(seed, None, None) for seed in range(8)]))
        assert len(scored) == 8 * 3 and all(r.total_service is not None for r in rows)
        assert all(name == "irrs" and period == Period(5.0) for name, period in calls)
        for pairing, integrated in scored:
            assert integrated <= {p for a, r in pairing.items() for p in ((a, r), (r, a))}
        if "optimal" in policies:
            assert calls == []

    @pytest.mark.parametrize("policies", [("msrs", "noncoop"), ("optimal", "noncoop", "msrs")])
    def test_rate_tables_only_for_irrs(self, monkeypatch, policies):
        real = scheduler_module.unit_service_batch
        rate_calls = []

        def counting(motions, model, p_tx, noise, period, *args, **kwargs):
            if period == Period(1.0):  # a held-still fleet's: its rate tables'
                rate_calls.append(len(motions))
            return real(motions, model, p_tx, noise, period, *args, **kwargs)

        monkeypatch.setattr(scheduler_module, "unit_service_batch", counting)
        without = self.results(cmd_run(ExperimentConfig(seed=4, trials=3, n_vehicles=10,
                                                        policies=policies)))
        assert rate_calls == []
        with_irrs = self.results(cmd_run(ExperimentConfig(seed=4, trials=3, n_vehicles=10,
                                                          policies=policies + ("irrs",))))
        assert rate_calls[0] == 30  # the chunk's direct rates
        assert without == {key: with_irrs[key] for key in without}

    def test_never_more_workers_than_chunks(self, monkeypatch):
        # a process pool forks all its workers at its first submit; this one
        # records its size and maps in this process
        sizes = []

        class InProcess:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        # the runner imports the pool from concurrent.futures only when it needs one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcess)
        one = rows_to_csv(cmd_run(small_config(trials=1, workers=64)))
        assert one == rows_to_csv(cmd_run(small_config(trials=1)))
        cmd_run(small_config(trials=19, workers=2))  # chunks of 8, 8 and 3
        cmd_run(small_config(trials=19, workers=64))
        assert sizes == [1, 2, 3]

    @pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                        reason="counts the page faults of glibc's heap on Linux")
    @pytest.mark.parametrize("trials", [
        # the runner: glibc used to trim the heap top after each kernel call,
        # and the next call faulted the pages in again, about 87 per trial
        "from relaysched.experiments import ExperimentConfig, cmd_run\n"
        "def trials(seed):\n"
        "    cmd_run(ExperimentConfig(seed=seed, trials=4, n_vehicles=100))\n",
        # tables built without the runner: about 100 per trial when only the
        # runner fixed the heap thresholds, not the kernel's import
        "from relaysched.channel import default_radio_config\n"
        "from relaysched.scenario import ScenarioSpec, generate\n"
        "from relaysched.scheduler import build_chunk_tables, solve_irrs, solve_msrs\n"
        "def trials(seed):\n"
        "    fleets = [generate(ScenarioSpec(n_vehicles=100, seed=4 * seed + k))\n"
        "              for k in range(4)]\n"
        "    cfg = default_radio_config()\n"
        "    tables = build_chunk_tables(fleets, cfg)\n"
        "    rates = build_chunk_tables([sc.held_still() for sc in fleets], cfg)\n"
        "    for table, rate in zip(tables, rates):\n"
        "        solve_msrs(table)\n"
        "        solve_irrs(table, rate)\n",
    ], ids=["runner", "no-runner"])
    def test_trials_keep_their_heap_pages(self, trials):
        # `trials(seed)` runs 4 N=100 trials; a child process with none of
        # the variables that tune glibc's malloc runs a warm-up round, then 8
        script = trials + (
            "import resource\n"
            "trials(0)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "for k in range(8):\n"
            "    trials(1 + k)\n"
            "print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 32)\n"
        )
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("MALLOC_") and key != "GLIBC_TUNABLES"}
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (str(Path(experiments_module.__file__).parents[1]), env.get("PYTHONPATH"))))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, check=True)
        assert float(done.stdout) < 5


class TestBenchmarkTracer:
    """The benchmark's tracer wraps the policies by name in `experiments` and reads `args[0].n`."""

    def test_captures_every_policy_schedule(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
        tracer = importlib.import_module("tracing").Tracer(capture_schedules=True)
        tracer.install()
        try:
            cmd_run(ExperimentConfig(seed=7, trials=3, n_vehicles=12, policies=POLICIES))
        finally:
            tracer.uninstall()
        names = ("solve_msrs", "solve_irrs", "solve_noncooperative", "solve_optimal_bruteforce")
        assert Counter(name for name, _, _ in tracer.schedules) == dict.fromkeys(names, 3)
        for _, n, schedule in tracer.schedules:
            assert n == 12
            validate_schedule(schedule, n)
        # the search counter reads the fleet size off the first argument too
        searches = [s for s in tracer.spans if s.name in ("solve_msrs", "solve_irrs")]
        assert len(searches) == 6 and all(s.counts == {"n_av_candidates": 6} for s in searches)
