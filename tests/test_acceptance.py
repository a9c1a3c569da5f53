"""Acceptance suite: every criterion at its stated tolerance and time budget.

Each test prints one PASS/FAIL line (visible with `pytest -s`); assertions
carry the same detail so a plain run reports failures fully.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from oracles import (
    Vehicle,
    Xoshiro256StarStar,
    aided_are_weakest,
    brute_force_assignment,
    dispatches_x86_v4,
    motion_rows,
    pairs_respect_direct_order,
    rate_v2i,
    rate_v2v,
)

import relaysched
from relaysched.assignment import BenefitMatrix, solve_max_assignment
from relaysched.channel import rb_share
from relaysched.scenario import ScenarioSpec, generate
from relaysched.scheduler import (
    build_chunk_tables,
    solve_irrs,
    solve_msrs,
    solve_noncooperative,
    solve_optimal_bruteforce,
    validate_schedule,
)
from relaysched.service import unit_service_batch

REFERENCE = [
    [2, 3, 0, 1],
    [3, 2, 3, 6],
    [4, 0, 3, 0],
    [5, 2, 4, 6],
    [1, 0, 0, 2],
]


def report(number: int, name: str, ok: bool, detail: str) -> str:
    line = f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


@pytest.fixture(scope="session")
def small_fleet_study(cfg):
    """Criteria 3 and 4 share this: 200 seeds x N in {6, 8, 10} with the oracle."""
    t0 = time.perf_counter()
    records = []
    for n in (6, 8, 10):
        for seed in range(200):
            sc = generate(ScenarioSpec(n_vehicles=n, seed=seed))
            tables = build_chunk_tables([sc], cfg)[0]
            msrs = solve_msrs(tables)
            noncoop = solve_noncooperative(tables)
            opt = solve_optimal_bruteforce(tables)
            records.append({
                "n": n, "seed": seed, "tables": tables, "scenario": sc,
                "msrs": msrs, "noncoop": noncoop, "opt": opt,
                "loss": (opt.total_service - msrs.total_service) / opt.total_service,
            })
    return {"records": records, "elapsed": time.perf_counter() - t0}


class TestCriterion1ReferencePairing:
    def test_reference_pairing(self):
        w = BenefitMatrix(REFERENCE)
        solve_max_assignment(w)  # warm-up
        best = math.inf
        for _ in range(5):
            t0 = time.perf_counter()
            got = solve_max_assignment(w)
            best = min(best, time.perf_counter() - t0)
        ok = (
            got.total == 17.0
            and got.match == {0: 3, 1: 0, 2: 2, 3: 1}
            and 4 not in got.match.values()
            and best < 1e-3
        )
        line = report(1, "reference pairing", ok,
                      f"total={got.total} match={got.match} solve={best * 1e6:.0f}us")
        assert got.total == 17.0, line
        assert got.match == {0: 3, 1: 0, 2: 2, 3: 1}, line
        assert 4 not in got.match.values(), line  # fifth candidate stays a common vehicle
        assert best < 1e-3, line


class TestCriterion2AssignmentOracle:
    def test_oracle_equivalence(self):
        t0 = time.perf_counter()
        gen = Xoshiro256StarStar(2024)
        worst_real = 0.0
        int_exact = True
        for size in range(1, 8):
            for k in range(1000):
                integer = k < 500
                if integer:
                    vals = [[float(int(gen.random() * 12)) for _ in range(size)]
                            for _ in range(size)]
                else:
                    vals = [[gen.random() * 12 for _ in range(size)] for _ in range(size)]
                w = BenefitMatrix(vals)
                fast = solve_max_assignment(w)
                slow = brute_force_assignment(w)
                if integer:
                    int_exact &= fast.total == slow.total
                else:
                    worst_real = max(worst_real, abs(fast.total - slow.total)
                                     / max(1.0, abs(slow.total)))
        elapsed = time.perf_counter() - t0
        ok = int_exact and worst_real <= 1e-9 and elapsed < 30.0
        line = report(2, "assignment oracle", ok,
                      f"7000 matrices, int exact={int_exact}, "
                      f"worst real gap={worst_real:.2e}, {elapsed:.1f}s")
        assert int_exact, line
        assert worst_real <= 1e-9, line
        assert elapsed < 30.0, line


class TestCriterion3NearOptimality:
    def test_loss_ratio_suite(self, small_fleet_study):
        records = small_fleet_study["records"]
        elapsed = small_fleet_study["elapsed"]
        detail = []
        ok = elapsed < 600.0
        for n in (6, 8, 10):
            losses = np.array([r["loss"] for r in records if r["n"] == n])
            frac = float(np.mean(losses <= 0.05))
            med = float(np.median(losses))
            detail.append(f"N={n}: <=5% on {frac:.1%}, median {med:.4%}")
            ok &= frac >= 0.95 and med <= 0.01
        line = report(3, "near-optimality vs oracle", ok,
                      "; ".join(detail) + f"; {elapsed:.0f}s")
        for n in (6, 8, 10):
            losses = np.array([r["loss"] for r in records if r["n"] == n])
            assert float(np.mean(losses <= 0.05)) >= 0.95, line
            assert float(np.median(losses)) <= 0.01, line
        assert elapsed < 600.0, line


class TestCriterion4Dominance:
    def test_dominance_and_structure(self, small_fleet_study, cfg):
        records = small_fleet_study["records"]
        dominance = structure = ordering = True
        for r in records:
            opt, msrs, noncoop = r["opt"], r["msrs"], r["noncoop"]
            dominance &= opt.total_service >= msrs.total_service >= noncoop.total_service
            for sched in (opt, msrs, noncoop):
                validate_schedule(sched, r["n"])
            per_vehicle = r["tables"].v2i
            ordering &= pairs_respect_direct_order(opt, per_vehicle)
            ordering &= pairs_respect_direct_order(msrs, per_vehicle)
            ordering &= aided_are_weakest(msrs, per_vehicle)
        ok = dominance and structure and ordering
        line = report(4, "dominance and invariants", ok,
                      f"{len(records)} instances; dominance={dominance}, "
                      f"pair ordering={ordering}")
        assert dominance, line
        assert ordering, line


class TestCriterion5CooperativeGain:
    def test_mean_gain_at_n100(self, cfg):
        t0 = time.perf_counter()
        msrs_totals, noncoop_totals = [], []
        for seed in range(200):
            sc = generate(ScenarioSpec(n_vehicles=100, seed=seed))
            tables = build_chunk_tables([sc], cfg)[0]
            msrs_totals.append(solve_msrs(tables).total_service)
            noncoop_totals.append(solve_noncooperative(tables).total_service)
        elapsed = time.perf_counter() - t0
        mean_msrs = sum(msrs_totals) / len(msrs_totals)
        mean_noncoop = sum(noncoop_totals) / len(noncoop_totals)
        gain = mean_msrs / mean_noncoop
        ok = gain >= 1.05 and elapsed < 300.0
        line = report(5, "cooperative gain at N=100", ok,
                      f"mean ratio {gain:.4f} over 200 seeds; {elapsed:.0f}s")
        assert gain >= 1.05, line
        assert elapsed < 300.0, line


class TestCriterion6SpeedTrend:
    def test_msrs_beats_irrs_and_gap_grows(self, cfg):
        t0 = time.perf_counter()
        gaps = {}
        for speed in (10.0, 20.0, 30.0):
            msrs_totals, irrs_totals = [], []
            for seed in range(500):
                sc = generate(ScenarioSpec(n_vehicles=50, seed=seed,
                                           speed_range=(speed, speed)))
                tables = build_chunk_tables([sc], cfg)[0]
                msrs_totals.append(solve_msrs(tables).total_service)
                rates = build_chunk_tables([sc.held_still()], cfg)[0]
                irrs_totals.append(solve_irrs(tables, rates).total_service)
            mean_msrs = sum(msrs_totals) / len(msrs_totals)
            mean_irrs = sum(irrs_totals) / len(irrs_totals)
            gaps[speed] = (mean_msrs - mean_irrs) / mean_irrs
        elapsed = time.perf_counter() - t0
        ok = all(g > 0 for g in gaps.values()) and gaps[30.0] >= gaps[10.0] and elapsed < 900.0
        line = report(6, "speed trend vs rate-based baseline", ok,
                      ", ".join(f"{s:g} m/s: {g:.4%}" for s, g in gaps.items())
                      + f"; {elapsed:.0f}s")
        for speed, gap in gaps.items():
            assert gap > 0, f"{line} (speed {speed})"
        assert gaps[30.0] >= gaps[10.0], line
        assert elapsed < 900.0, line


class TestCriterion7Quadrature:
    def test_stationary_and_trapezoid(self, cfg, bs, period, quad):
        t0 = time.perf_counter()

        def services(links, model, p_tx_dbm, noise_dbm, share):
            motions = motion_rows([a for a, _ in links]) - motion_rows([b for _, b in links])
            vals, converged = unit_service_batch(motions, model, p_tx_dbm, noise_dbm, period, quad)
            assert converged.all(), "quadrature left links unconverged"
            return share * vals

        def v2i(vehicles):
            return services([(v, bs) for v in vehicles], cfg.v2i_model, cfg.p_bs_per_rb,
                            cfg.noise_v2i_per_rb, rb_share(cfg.k_lte, 20))

        parked = Vehicle(id=0, x=200.0, y=1.75, speed=0.0, heading=0.0)
        (s,) = v2i([parked])
        expected = period.duration * float(rate_v2i(parked, bs, cfg, 20, 0.0))
        static_err = abs(s - expected) / expected

        gen = Xoshiro256StarStar(555)
        direct, relay = [], []
        for k in range(100):
            v = Vehicle(id=0, x=gen.uniform(-450, 450), y=1.75,
                        speed=gen.uniform(4, 35),
                        heading=0.0 if gen.random() < 0.5 else math.pi)
            if k % 2 == 0:
                direct.append(v)
            else:
                rx = Vehicle(id=1, x=gen.uniform(-450, 450), y=5.25,
                             speed=gen.uniform(4, 35),
                             heading=0.0 if gen.random() < 0.5 else math.pi)
                relay.append((v, rx))
        t = np.linspace(0.0, period.duration, 10_000)
        worst = 0.0
        for v, got in zip(direct, v2i(direct)):
            dense = float(np.trapezoid(rate_v2i(v, bs, cfg, 20, t), t))
            worst = max(worst, abs(got - dense) / dense)
        relay_services = services(relay, cfg.v2v_model, cfg.p_vn_per_rb,
                                  cfg.noise_v2v_per_rb, rb_share(cfg.k_dsrc, 5))
        for (tx, rx), got in zip(relay, relay_services):
            dense = float(np.trapezoid(rate_v2v(tx, rx, cfg, 5, t), t))
            worst = max(worst, abs(got - dense) / dense)
        elapsed = time.perf_counter() - t0
        ok = static_err <= 1e-9 and worst <= 1e-5 and elapsed < 30.0
        line = report(7, "quadrature accuracy", ok,
                      f"stationary rel err {static_err:.2e}, "
                      f"worst vs 10^4-point trapezoid {worst:.2e}; {elapsed:.0f}s")
        assert static_err <= 1e-9, line
        assert worst <= 1e-5, line
        assert elapsed < 30.0, line


class TestCriterion8Determinism:
    def test_sweep_speed_bytes_identical(self, tmp_path):
        t0 = time.perf_counter()
        args = [sys.executable, "-m", "relaysched.cli", "sweep-speed",
                "--seed", "20", "--trials", "3", "--n", "10",
                "--policies", "msrs,irrs,noncoop", "--speed-values", "5,20,35"]
        # the child imports the package from where this process found it
        src = str(Path(relaysched.__file__).parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        ra = subprocess.run(args + ["--out", str(out_a)], capture_output=True, text=True, env=env)
        rb = subprocess.run(args + ["--workers", "2", "--out", str(out_b)],
                            capture_output=True, text=True, env=env)
        assert ra.returncode == 0, ra.stderr
        assert rb.returncode == 0, rb.stderr
        same_metrics = (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()
        same_summary = (out_a / "summary.csv").read_bytes() == (out_b / "summary.csv").read_bytes()
        elapsed = time.perf_counter() - t0
        ok = same_metrics and same_summary and elapsed < 120.0
        # output bits hold within one numpy SIMD dispatch level, so the line names it
        line = report(8, "byte-identical sweep output", ok,
                      f"metrics identical={same_metrics}, summary identical={same_summary}; "
                      f"x86_v4={dispatches_x86_v4()}; {elapsed:.0f}s")
        assert same_metrics, line
        assert same_summary, line
        assert elapsed < 120.0, line
