from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from oracles import (
    Vehicle,
    Xoshiro256StarStar,
    db_rate,
    dispatches_x86_v4,
    generated_vehicles,
    motion_rows,
    rate_v2i,
    rate_v2v,
    scenario_of,
)

import relaysched
import relaysched.experiments as experiments_module
import relaysched.service as service_module
from relaysched.channel import RadioConfig, default_radio_config, rb_share, unit_rate
from relaysched.experiments import ExperimentConfig, cmd_run
from relaysched.scenario import Scenario, ScenarioSpec, generate
from relaysched.scheduler import ServiceTables, build_chunk_tables, require_every_pair
from relaysched.service import (
    Period,
    QuadratureSpec,
    unit_service_batch,
    _ABS_FLOOR,
    _QK15,
    _ROW_ADDS_FROM,
    _node_sum,
    _pieces,
)


def trapezoid_oracle(rate_fn, period: Period, points: int = 10_000) -> float:
    """Dense uniform trapezoid rule, independent of the Gauss-Kronrod implementation."""
    t = np.linspace(0.0, period.duration, points)
    return float(np.trapezoid(rate_fn(t), t))


def v2i_services(vehicles, bs, cfg, n_total, period, quad=QuadratureSpec()):
    """Direct service amounts of `vehicles` when `n_total` vehicles share the cellular RBs."""
    motions = motion_rows(vehicles) - motion_rows([bs])
    vals, converged = unit_service_batch(
        motions, cfg.v2i_model, cfg.p_bs_per_rb, cfg.noise_v2i_per_rb, period, quad
    )
    assert converged.all()
    return rb_share(cfg.k_lte, n_total) * vals


def v2v_services(links, cfg, n_av, period, quad=QuadratureSpec()):
    """Relay-link service amounts of (tx, rx) pairs when `n_av` aided vehicles share the V2V RBs."""
    motions = motion_rows([tx for tx, _ in links]) - motion_rows([rx for _, rx in links])
    vals, converged = unit_service_batch(
        motions, cfg.v2v_model, cfg.p_vn_per_rb, cfg.noise_v2v_per_rb, period, quad
    )
    assert converged.all()
    return rb_share(cfg.k_dsrc, n_av) * vals


def recursive_service_batch(motions, model, p_tx_dbm, noise_dbm, period, quad):
    """Recursive K15/G7 bisection, one panel at a time: the reference oracle.

    Same pieces, nodes and acceptance test as `unit_service_batch`: a panel
    whose Kronrod and Gauss estimates disagree is halved, down to the
    refinement cap, and its value is its left half's plus its right half's.
    A link sums its pieces in order.
    """
    static = ~motions[:, 2:].any(axis=1)
    values = np.zeros(len(motions))
    converged = np.ones(len(motions), dtype=bool)
    ax, ay = motions[static, 0], motions[static, 1]
    values[static] = period.duration * unit_rate(model, p_tx_dbm, noise_dbm, ax * ax + ay * ay)
    link, pieces, scale = _pieces(motions[~static], model.min_distance, period.duration)
    if link is None:  # one piece per link
        link = range(len(pieces))

    def panel(lo, width, s, c, scale, level):
        cosh = np.cosh(width * _QK15[0:1] + lo)
        sc = s * cosh
        f = unit_rate(model, p_tx_dbm, noise_dbm, sc * sc - c) * cosh
        kronrod = (f * _QK15[1]).sum(axis=1)[0] * (width * scale)
        gauss = (f * _QK15[2]).sum(axis=1)[0] * (width * scale)
        if abs(kronrod - gauss) <= quad.relative_tolerance * max(abs(kronrod), _ABS_FLOOR):
            return kronrod, True
        if level == quad.max_refinements:
            return kronrod, False
        left, left_ok = panel(lo, width / 2, s, c, scale, level + 1)
        right, right_ok = panel(lo + width / 2, width / 2, s, c, scale, level + 1)
        return left + right, left_ok and right_ok

    moving = np.flatnonzero(~static)
    for k, (lo, width, s, c), h in zip(link, pieces, scale):
        value, ok = panel(lo, width, s, c, h, 0)
        values[moving[k]] += value
        converged[moving[k]] &= ok
    return values, converged


def reference_service(row, model, p_tx_dbm, noise_dbm, duration):
    """scipy's adaptive quadrature in t, given the closest approach and the clamp crossings.

    The rate is the dB expression on distance, not the package's `unit_rate`.
    """
    integrate = pytest.importorskip("scipy.integrate")
    ax, ay, bx, by = (float(c) for c in row)
    speed2 = bx * bx + by * by
    points = set()
    if speed2 > 0:
        t_star = -(ax * bx + ay * by) / speed2
        d_min = abs(ax * by - ay * bx) / math.sqrt(speed2)
        half = math.sqrt(max(model.min_distance**2 - d_min**2, 0.0) / speed2)
        points = {t for t in (t_star - half, t_star, t_star + half) if 0.0 < t < duration}
    value, _ = integrate.quad(
        lambda t: float(db_rate(model, p_tx_dbm, noise_dbm, math.hypot(ax + bx * t, ay + by * t))),
        0.0, duration, points=sorted(points) or None, epsrel=1e-13, epsabs=0.0, limit=500,
    )
    return value


def close_pass():
    """Fast opposing vehicles passing 3.5 m apart: a rate peak 0.05 s wide at t* = 1.43 s."""
    tx = Vehicle(id=0, x=-50.0, y=1.75, speed=35.0, heading=0.0)
    rx = Vehicle(id=1, x=50.0, y=5.25, speed=35.0, heading=math.pi)
    return tx, rx


def overtake():
    """A same-lane overtake at t* = 2.5 s: distance passes through 0 and is clamped to 1 m."""
    tx = Vehicle(id=0, x=-30.0, y=1.75, speed=20.0, heading=0.0)
    rx = Vehicle(id=1, x=0.0, y=1.75, speed=8.0, heading=0.0)
    return tx, rx


class TestIntegrateRate:
    def test_exact_on_constants(self, bs, cfg):
        # a parked vehicle has a constant rate, integrated in closed form
        parked = Vehicle(id=0, x=150.0, y=1.75, speed=0.0, heading=0.0)
        period = Period(7.0)
        (s,) = v2i_services([parked], bs, cfg, 1, period)
        assert s == pytest.approx(7.0 * float(rate_v2i(parked, bs, cfg, 1, 0.0)), rel=1e-12)

    def test_zero_rate(self, bs, cfg, period, quad):
        # the SNR underflows 1 + snr == 1, so the integrand is exactly zero
        parked = Vehicle(id=0, x=150.0, y=1.75, speed=0.0, heading=0.0)
        vals, converged = unit_service_batch(
            motion_rows([parked]) - motion_rows([bs]), cfg.v2i_model, -400.0,
            cfg.noise_v2i_per_rb, period, quad,
        )
        assert converged.all() and vals[0] == 0.0

    def test_nonconverged_flag(self, cfg, period):
        # the close pass with no refinement budget
        tx, rx = close_pass()
        spec = QuadratureSpec(max_refinements=0)
        vals, converged = unit_service_batch(
            motion_rows([tx]) - motion_rows([rx]), cfg.v2v_model, cfg.p_vn_per_rb,
            cfg.noise_v2v_per_rb, period, spec,
        )
        assert not converged.any()
        assert vals[0] > 0.0  # the last estimate is still returned

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="max_refinements"):
            QuadratureSpec(max_refinements=-1)
        with pytest.raises(ValueError):
            QuadratureSpec(relative_tolerance=0.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="relative_tolerance"):
                QuadratureSpec(relative_tolerance=bad)
        with pytest.raises(ValueError):
            Period(0.0)


class TestServiceV2I:
    def test_stationary_is_duration_times_rate(self, bs, cfg, period, quad):
        v = Vehicle(id=0, x=150.0, y=1.75, speed=0.0, heading=0.0)
        (s,) = v2i_services([v], bs, cfg, 10, period, quad)
        assert s == pytest.approx(period.duration * float(rate_v2i(v, bs, cfg, 10, 0.0)), rel=1e-9)

    def test_zero_share(self):
        # more vehicles than cellular RBs: nobody gets a direct share
        cfg = default_radio_config(k_lte=2)
        tables = build_chunk_tables([generate(ScenarioSpec(n_vehicles=3, seed=1))], cfg)[0]
        assert tables.v2i.shape == (3,) and not tables.v2i.any()

    def test_symmetric_crossing_doubles_half_period(self, bs, cfg, quad):
        # closest approach exactly at mid-period: the full integral is twice the half one
        duration, speed = 8.0, 20.0
        v = Vehicle(id=0, x=-speed * duration / 2.0, y=1.75, speed=speed, heading=0.0)
        (full,) = v2i_services([v], bs, cfg, 10, Period(duration), quad)
        (half,) = v2i_services([v], bs, cfg, 10, Period(duration / 2.0), quad)
        assert full == pytest.approx(2.0 * half, rel=1e-5)


class TestServiceV2V:
    def test_constant_gap(self, cfg, period, quad):
        tx = Vehicle(id=0, x=0.0, y=1.75, speed=20.0, heading=0.0)
        rx = Vehicle(id=1, x=30.0, y=1.75, speed=20.0, heading=0.0)
        (s,) = v2v_services([(tx, rx)], cfg, 5, period, quad)
        assert s == pytest.approx(period.duration * float(rate_v2v(tx, rx, cfg, 5, 0.0)), rel=1e-9)

    def test_zero_share(self, cfg):
        # more aided vehicles than V2V RBs: the relay hop carries nothing
        tables = ServiceTables(np.array([4.0, 1.0]), np.array([[0.0, 2.0], [2.0, 0.0]]), cfg.k_dsrc)
        assert tables.benefit(0, 1, cfg.k_dsrc) == 2.0
        assert tables.benefit(0, 1, cfg.k_dsrc + 1) == 0.0

    def test_opposing_vehicles_vs_trapezoid(self, period, quad):
        cfg = RadioConfig(k_lte=222, k_dsrc=25, p_bs_per_rb=29.0, p_vn_per_rb=20.0,
                          noise_v2i_per_rb=-112.0, noise_v2v_per_rb=-112.0)
        tx = Vehicle(id=0, x=-20.0, y=1.75, speed=15.0, heading=0.0)
        rx = Vehicle(id=1, x=40.0, y=5.25, speed=15.0, heading=math.pi)
        (s,) = v2v_services([(tx, rx)], cfg, 5, period, quad)
        dense = trapezoid_oracle(lambda t: rate_v2v(tx, rx, cfg, 5, t), period)
        assert s == pytest.approx(dense, rel=1e-5)


class TestTwoHop:
    @pytest.mark.parametrize("a,b,want", [(3.0, 5.0, 3.0), (0.0, 4.0, 0.0), (7.2, 7.2, 7.2)])
    def test_min_of_amounts(self, a, b, want):
        # relay-link amount a, relay's direct amount b; one V2V RB so no share scaling
        tables = ServiceTables(np.array([b, 0.0]), np.array([[0.0, a], [a, 0.0]]), 1)
        assert tables.benefit(0, 1, 1) == want


class TestOracleProperties:
    def test_random_links_match_trapezoid(self, bs, cfg, period, quad):
        gen = Xoshiro256StarStar(17)
        direct, relay = [], []
        for k in range(100):
            x = gen.uniform(-450, 450)
            speed = gen.uniform(4, 35)
            heading = 0.0 if gen.random() < 0.5 else math.pi
            v = Vehicle(id=0, x=x, y=1.75, speed=speed, heading=heading)
            if k % 2 == 0:
                direct.append(v)
            else:
                rx = Vehicle(id=1, x=gen.uniform(-450, 450), y=5.25,
                             speed=gen.uniform(4, 35),
                             heading=0.0 if gen.random() < 0.5 else math.pi)
                relay.append((v, rx))
        for v, s in zip(direct, v2i_services(direct, bs, cfg, 20, period, quad)):
            dense = trapezoid_oracle(lambda t: rate_v2i(v, bs, cfg, 20, t), period)
            assert s == pytest.approx(dense, rel=1e-5)
        for (tx, rx), s in zip(relay, v2v_services(relay, cfg, 5, period, quad)):
            dense = trapezoid_oracle(lambda t: rate_v2v(tx, rx, cfg, 5, t), period)
            assert s == pytest.approx(dense, rel=1e-5)

    def test_period_additivity(self, bs, cfg, quad):
        # [0, 6 s] against [0, 3 s] plus the same trajectory's [3 s, 6 s]
        sc = scenario_of([Vehicle(id=0, x=-100.0, y=1.75, speed=25.0, heading=0.0)], bs, 6.0)
        full, first, second = tables_of([sc, sc.window(0.0, 3.0), sc.window(3.0, 3.0)], cfg, quad)
        assert full.v2i[0] == pytest.approx(first.v2i[0] + second.v2i[0], rel=2e-6)

    def test_nonnegative(self, bs, cfg, period, quad):
        gen = Xoshiro256StarStar(23)
        vehicles = [
            Vehicle(id=0, x=gen.uniform(-500, 500), y=1.75,
                    speed=gen.uniform(0, 35), heading=0.0)
            for _ in range(20)
        ]
        assert np.all(v2i_services(vehicles, bs, cfg, 50, period, quad) >= 0.0)


class TestBatchIntegrator:
    def test_matches_scalar_services(self, bs, cfg, period, quad):
        # a link's value does not depend on which other links share its batch, to
        # the bit: demand-driven service tables integrate pairs in varying batches
        gen = Xoshiro256StarStar(31)
        vehicles = [
            Vehicle(id=i, x=gen.uniform(-450, 450), y=1.75,
                    speed=gen.uniform(4, 35),
                    heading=0.0 if gen.random() < 0.5 else math.pi)
            for i in range(12)
        ]
        together = v2i_services(vehicles, bs, cfg, 1, period, quad)
        for v, got in zip(vehicles, together):
            (alone,) = v2i_services([v], bs, cfg, 1, period, quad)
            assert got == alone

    def test_empty_batch(self, cfg, period, quad):
        for motions in (np.zeros((0, 4)), []):
            vals, converged = unit_service_batch(
                motions, cfg.v2i_model, cfg.p_bs_per_rb, cfg.noise_v2i_per_rb, period, quad
            )
            assert vals.shape == (0,) and converged.shape == (0,)

    @pytest.mark.parametrize("duration", [1.0, 5.0])
    def test_static_links_take_the_closed_form_in_any_batch(self, cfg, monkeypatch, duration):
        # parked pairs, one of them co-located, as a held-still fleet's
        # tables ask for them: a batch of them alone, or an empty one, skips
        # the quadrature; inside a batch with moving links they keep the bits
        gen = Xoshiro256StarStar(53)
        parked = [Vehicle(k, gen.uniform(-450, 450), 1.75, 0.0, 0.0) for k in range(6)]
        parked.append(Vehicle(6, parked[0].x, parked[0].y, 0.0, 0.0))
        static = relative_rows(list(itertools.combinations(parked, 2)))
        moving = relative_rows([close_pass(), overtake()])
        link = (cfg.v2v_model, cfg.p_vn_per_rb, cfg.noise_v2v_per_rb, Period(duration))
        ax, ay = static[:, 0], static[:, 1]
        want = duration * unit_rate(*link[:3], ax * ax + ay * ay)
        mixed, mixed_ok = unit_service_batch(np.concatenate([moving[:1], static, moving[1:]]), *link)

        def no_quadrature(*args):
            raise AssertionError("a batch without moving links reached the quadrature")

        monkeypatch.setattr(service_module, "_pieces", no_quadrature)
        alone, alone_ok = unit_service_batch(static, *link)
        empty, empty_ok = unit_service_batch(static[:0], *link)
        assert alone.tobytes() == want.tobytes() == mixed[1:-1].tobytes()
        assert empty.dtype == alone.dtype and empty.shape == empty_ok.shape == (0,)
        assert alone_ok.all() and mixed_ok.all()


def kronrod_args(cfg, period, max_refinements, links=31):
    """Kernel arguments over a parked link, `links` seeded passing links, and
    the close pass and the overtake both ways, at a 1e-14 tolerance.

    The links have one to three pieces and stop bisecting at different
    depths; every one meets the default 1e-6 within one bisection, so the
    tight tolerance spreads them.
    """
    gen = Xoshiro256StarStar(43)
    pairs = [(Vehicle(0, 120.0, 1.75, 0.0, 0.0), Vehicle(1, 180.0, 5.25, 0.0, 0.0))]
    for k in range(links - 1):
        tx = Vehicle(0, gen.uniform(-450, 450), 1.75, gen.uniform(4, 35), 0.0)
        rx = Vehicle(1, gen.uniform(-450, 450), 5.25, gen.uniform(4, 35), math.pi)
        pairs.append((tx, rx))
    for tx, rx in (close_pass(), overtake()):
        pairs += [(tx, rx), (rx, tx)]
    quad = QuadratureSpec(relative_tolerance=1e-14, max_refinements=max_refinements)
    return (relative_rows(pairs), cfg.v2v_model, cfg.p_vn_per_rb, cfg.noise_v2v_per_rb, period,
            quad)


class TestAdaptiveKronrod:
    @pytest.mark.parametrize("max_refinements", [0, 3, 12])
    def test_matches_recursive_oracle(self, cfg, period, max_refinements):
        args = kronrod_args(cfg, period, max_refinements)
        got, got_ok = unit_service_batch(*args)
        want, want_ok = recursive_service_batch(*args)
        assert np.array_equal(got, want) and np.array_equal(got_ok, want_ok)
        if max_refinements == 12:
            assert got_ok.all()
        else:
            assert got_ok.any() and not got_ok.all()

    @pytest.mark.parametrize("batch", ["v2i", "static", "failing"])
    def test_shortcut_batches_match_recursive_oracle(self, bs, cfg, period, batch):
        # the kernel skips the static rates when no link is static, the clamp
        # cuts when no link is clamped, and the failure flags when no panel
        # fails at the last level; batches that take each shortcut keep the bits
        gen = Xoshiro256StarStar(47)
        fleet = [Vehicle(k, gen.uniform(-450, 450), 1.75 if k % 2 else 5.25, gen.uniform(4, 35),
                         0.0 if k % 2 else math.pi) for k in range(12)]
        v2i = (cfg.v2i_model, cfg.p_bs_per_rb, cfg.noise_v2i_per_rb)
        if batch == "static":
            # parked vehicles' pairs, one of them co-located
            parked = [Vehicle(v.id, v.x, v.y, 0.0, 0.0) for v in fleet]
            parked.append(Vehicle(12, parked[0].x, parked[0].y, 0.0, 0.0))
            motions = relative_rows(list(itertools.combinations(parked, 2)))
            assert not motions[:, 2:].any()
            args = (motions, cfg.v2v_model, cfg.p_vn_per_rb, cfg.noise_v2v_per_rb, period,
                    QuadratureSpec())
        else:
            motions = motion_rows(fleet) - motion_rows([bs])
            assert motions[:, 2:].any(axis=1).all()
            assert _pieces(motions, cfg.v2i_model.min_distance, period.duration)[0] is None
            quad = (QuadratureSpec(relative_tolerance=1e-14) if batch == "v2i"
                    else QuadratureSpec(relative_tolerance=1e-300, max_refinements=0))
            args = (motions, *v2i, period, quad)
        got, got_ok = unit_service_batch(*args)
        want, want_ok = recursive_service_batch(*args)
        assert got.tobytes() == want.tobytes() and np.array_equal(got_ok, want_ok)
        # at 1e-300 only a panel whose K15 and G7 agree to the bit converges
        assert not got_ok.all() if batch == "failing" else got_ok.all()

    @pytest.mark.parametrize("links, max_refinements", [
        ([close_pass], 3), ([close_pass, overtake], 1),
    ], ids=["close-pass", "close-pass+overtake"])
    def test_node_count_at_the_cap(self, cfg, period, monkeypatch, links, max_refinements):
        # a piece whose panels all fail down to the cap r evaluates the 15
        # nodes of each of its 2**(r + 1) - 1 panels once: the close pass is
        # one such piece, the overtake two, around its clamped span.  A
        # tolerance of 1e-300 is met only by estimates that agree to the bit.
        # The clamped span, a constant rate times cosh(u) on an interval
        # symmetric about u = 0, is one panel whose K15 and G7 do agree
        real = service_module.unit_rate
        nodes = []

        def counting(model, p_tx_dbm, noise_dbm, d2, out=None):
            nodes.append(np.size(d2))
            return real(model, p_tx_dbm, noise_dbm, d2, out=out)

        monkeypatch.setattr(service_module, "unit_rate", counting)
        pairs = [link() for link in links]
        quad = QuadratureSpec(relative_tolerance=1e-300, max_refinements=max_refinements)
        _, converged = unit_service_batch(
            relative_rows(pairs), cfg.v2v_model, cfg.p_vn_per_rb, cfg.noise_v2v_per_rb, period, quad,
        )
        assert not converged.any()
        failing, clamped = 1 + 2 * (overtake in links), overtake in links
        assert sum(nodes) == 15 * (failing * (2 ** (max_refinements + 1) - 1) + clamped)

    @pytest.mark.parametrize("panels", [1, _ROW_ADDS_FROM - 1, _ROW_ADDS_FROM, 3000])
    def test_node_sum_is_numpys_pairwise_order(self, panels):
        # both forms, on values spread over 40 decades with zeros among them
        gen = np.random.default_rng(panels)
        f = gen.random((15, panels)) * 10.0 ** gen.integers(-20, 20, (15, panels))
        f[gen.random((15, panels)) < 0.1] = 0.0
        assert _node_sum(f).tobytes() == f.T.copy().sum(axis=1).tobytes()


class TestHeapPages:
    """Importing the kernel's module fixes glibc's heap thresholds, and nothing where it cannot."""

    @pytest.mark.parametrize("libc, failure", [
        ("", TypeError),  # Windows: CDLL(None) fails on its name
        ("glibc", OSError),
        ("glibc", AttributeError),  # a C library without mallopt
    ], ids=["off-glibc", "no-library", "no-mallopt"])
    def test_runs_where_mallopt_is_missing(self, monkeypatch, libc, failure):
        opened = []

        def missing(name):
            opened.append(name)
            raise failure("no mallopt")

        monkeypatch.setattr(platform, "libc_ver", lambda *args, **kwargs: (libc, ""))
        monkeypatch.setattr(service_module.ctypes, "CDLL", missing)
        assert service_module._keep_heap_pages() is None
        assert opened == ([None] if libc == "glibc" else [])


def dispatch_report() -> dict:
    """What the dispatch-level test compares between two processes.

    `kernel`: per refinement cap, whether the kernel equals the recursive
    oracle to the bit on the `kronrod_args` links, and then on a batch
    large enough for `_node_sum` to add rows.  `pairings`: the msrs
    and irrs pairings of `run --seed 7 --trials 4 --n 100`, in call order.
    `generate`: the sha256 of a 600-word fleet's motion, drawn through the
    integer ufuncs of `rng.uniforms` (two table blocks).
    """
    cfg, period = default_radio_config(), Period(5.0)
    kernel = []
    for max_refinements, links in ((0, 31), (3, 31), (12, 31), (12, _ROW_ADDS_FROM + 40)):
        args = kronrod_args(cfg, period, max_refinements, links)
        got, got_ok = unit_service_batch(*args)
        want, want_ok = recursive_service_batch(*args)
        kernel.append(got.tobytes() == want.tobytes() and np.array_equal(got_ok, want_ok))
    pairings = []

    def recording(solve):
        def solve_and_record(*args):
            schedule = solve(*args)
            pairings.append([solve.__name__, sorted(schedule.pairing.items())])
            return schedule
        return solve_and_record

    real = experiments_module.solve_msrs, experiments_module.solve_irrs
    experiments_module.solve_msrs, experiments_module.solve_irrs = map(recording, real)
    try:
        cmd_run(ExperimentConfig(seed=7, trials=4, n_vehicles=100, workers=1))
    finally:
        experiments_module.solve_msrs, experiments_module.solve_irrs = real
    motion = generate(ScenarioSpec(n_vehicles=200, seed=7)).motion
    return {"x86_v4": dispatches_x86_v4(), "kernel": kernel,
            "pairings": json.loads(json.dumps(pairings)),
            "generate": hashlib.sha256(motion.astype("<f8").tobytes()).hexdigest()}


class TestDispatchLevel:
    """The kernel's pairwise sums and the fleet draws do not depend on numpy's SIMD level."""

    @pytest.mark.skipif(not dispatches_x86_v4(), reason="numpy does not dispatch X86_V4 here")
    def test_without_avx512_matches_this_process(self):
        # a child process runs as on an AVX2-only CPU; the package and the
        # test modules come from where this process found them
        paths = [str(Path(relaysched.__file__).parents[1]), str(Path(__file__).parent),
                 os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths)),
               "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
        code = "import json, test_service; print(json.dumps(test_service.dispatch_report()))"
        child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                               env=env, timeout=300)
        assert child.returncode == 0, child.stderr
        got = json.loads(child.stdout.splitlines()[-1])
        want = dispatch_report()
        assert want["x86_v4"] and not got["x86_v4"]
        assert got["kernel"] == want["kernel"] == [True] * 4
        assert got["pairings"] == want["pairings"] and len(want["pairings"]) == 8
        assert got["generate"] == want["generate"]


def tables_of(scenarios, cfg, quad):
    """The service tables of scenarios of any periods, one each, every V2V pair integrated."""
    tables = [t for sc in scenarios for t in build_chunk_tables([sc], cfg, quad)]
    require_every_pair(tables)
    assert all(t.unconverged == 0 and not np.isnan(t.v2v_unit).any() for t in tables)
    return tables


def relative_rows(pairs):
    return motion_rows([tx for tx, _ in pairs]) - motion_rows([rx for _, rx in pairs])


# Relative-motion rows (ax, ay, bx, by) of V2V links over a 5 s period, named
# by what makes them hard; t* is the closest approach, d_min its distance.
HARD_V2V_ROWS = {
    "overtake d_min=0": [(-30.0, 0.0, 12.0, 0.0), (-100.0, 0.0, 31.0, 0.0)],
    "overtake d_min=0.5": [(-30.0, 0.5, 12.0, 0.0)],
    "overtake d_min=0.999": [(-30.0, 0.999, 12.0, 0.0)],
    "t* at 0": [(0.0, 3.5, 70.0, 0.0), (0.0, 0.5, 20.0, 0.0)],
    "t* at D": [(-350.0, 3.5, 70.0, 0.0), (-100.0, 0.0, 20.0, 0.0)],
    # before the period, after it, and after it with the first clamp crossing inside
    "t* outside": [(70.0, 3.5, 70.0, 0.0), (-560.0, 3.5, 70.0, 0.0), (-100.3, 0.2, 20.0, 0.0)],
    # radial (t* = 1e8 s or 5e11 s away), perpendicular, and inside the clamp
    "near-static": [(100.0, 0.0, 1e-6, 0.0), (500.0, 0.0, 1e-9, 0.0), (0.0, 100.0, 1e-6, 0.0),
                    (0.0, 0.5, 1e-6, 0.0)],
}


class TestTightReference:
    """Every link within the configured 1e-6 of scipy's quadrature at epsrel 1e-13.

    The reference integrates in t with the closest approach and the clamp
    crossings as breakpoints.  Uniform doubling in t ended off by up to 1.6e-5
    on 10 of the close-pass links of the seed-7 N=100 scenario.
    """

    def check(self, motions, model, p_tx_dbm, noise_dbm, period):
        vals, converged = unit_service_batch(motions, model, p_tx_dbm, noise_dbm, period)
        assert converged.all()
        for row, got in zip(motions, vals):
            want = reference_service(row, model, p_tx_dbm, noise_dbm, period.duration)
            assert got == pytest.approx(want, rel=1e-6), tuple(row)

    @pytest.mark.parametrize("name", list(HARD_V2V_ROWS))
    def test_hard_v2v_links(self, cfg, period, name):
        self.check(np.array(HARD_V2V_ROWS[name]), cfg.v2v_model, cfg.p_vn_per_rb,
                   cfg.noise_v2v_per_rb, period)

    def test_opposite_lane_passes(self, cfg, period):
        # 3.5 m apart at closing speeds from 39 to 70 m/s, both link directions
        pairs = []
        for speed, t_star in ((35.0, 1.43), (20.0, 2.5), (4.0, 4.0)):
            tx = Vehicle(0, -50.0, 1.75, 35.0, 0.0)
            rx = Vehicle(1, -50.0 + (35.0 + speed) * t_star, 5.25, speed, math.pi)
            pairs += [(tx, rx), (rx, tx)]
        self.check(relative_rows(pairs), cfg.v2v_model, cfg.p_vn_per_rb,
                   cfg.noise_v2v_per_rb, period)

    def test_v2i_passes(self, bs, cfg, period):
        # past the base station at the period's middle, start and end, and far out
        vehicles = [Vehicle(0, -87.5, 1.75, 35.0, 0.0), Vehicle(0, -10.0, 1.75, 4.0, 0.0),
                    Vehicle(0, 0.0, 5.25, 20.0, math.pi), Vehicle(0, 100.0, 5.25, 20.0, math.pi),
                    Vehicle(0, -480.0, 5.25, 35.0, 0.0)]
        self.check(motion_rows(vehicles) - motion_rows([bs]), cfg.v2i_model, cfg.p_bs_per_rb,
                   cfg.noise_v2i_per_rb, period)

    def test_close_passes_of_a_seed7_fleet(self, cfg):
        # every pair of the N=100 seed-7 scenario that comes within 5 m during the period
        scenario = generate(ScenarioSpec(n_vehicles=100, seed=7))
        state = scenario.motion
        i, j = np.triu_indices(scenario.n, 1)
        motions = state[i] - state[j]
        a, b = motions[:, :2], motions[:, 2:]
        speed2 = (b * b).sum(axis=1)
        t_star = -(a * b).sum(axis=1) / np.where(speed2 > 0, speed2, 1.0)
        t = np.clip(t_star, 0.0, scenario.period.duration)[:, None]
        close = motions[np.hypot(*(a + b * t).T) <= 5.0]
        assert len(close) > 500
        self.check(close, cfg.v2v_model, cfg.p_vn_per_rb, cfg.noise_v2v_per_rb, scenario.period)


class TestPeriodAdditivity:
    @pytest.mark.parametrize("link", [close_pass, overtake], ids=["close-pass", "overtake"])
    def test_split_at_closest_approach(self, cfg, quad, link):
        # [0, D] against [0, t*] plus [t*, D]: each part has its closest
        # approach, and for the overtake a clamp crossing, at an end
        tx, rx = link()
        ax, ay, bx, by = relative_rows([(tx, rx)])[0]
        t_star = -(ax * bx + ay * by) / (bx * bx + by * by)
        assert 0.0 < t_star < 5.0

        sc = scenario_of([tx, rx])
        full, first, second = tables_of([sc, sc.window(0.0, t_star), sc.window(t_star, 5.0 - t_star)],
                                        cfg, quad)
        assert full.v2v(0, 1) == pytest.approx(first.v2v(0, 1) + second.v2v(0, 1), rel=1e-6)
        np.testing.assert_allclose(first.v2i + second.v2i, full.v2i, rtol=1e-6, atol=0.0)


def reversed_in_time(sc: Scenario) -> Scenario:
    """`sc`'s fleet traversed backwards: from the period's end, with every velocity negated."""
    end = sc.window(sc.period.duration, sc.period.duration)
    motion = end.motion.copy()
    motion[:, 2:] *= -1.0
    return Scenario(end.bs, motion, end.period)


class TestWindowTables:
    """`Scenario.window` through the service tables, every direct and V2V entry."""

    @pytest.mark.parametrize("duration", [5.0, 20.0])
    @pytest.mark.parametrize("n", [100, 200])
    def test_generated_fleets_add_over_a_split_period(self, cfg, quad, n, duration):
        # the worst entry seen on such fleets was 4.2e-8 relative
        a = 0.37 * duration
        for seed in (7, 8):
            sc = generate(ScenarioSpec(n_vehicles=n, seed=seed, period_duration=duration))
            full, first, second = tables_of(
                [sc, sc.window(0.0, a), sc.window(a, duration - a)], cfg, quad)
            np.testing.assert_allclose(first.v2i + second.v2i, full.v2i, rtol=1e-7, atol=0.0)
            np.testing.assert_allclose(first.v2v_unit + second.v2v_unit, full.v2v_unit,
                                       rtol=1e-7, atol=0.0)

    @pytest.mark.parametrize("duration", [5.0, 20.0])
    @pytest.mark.parametrize("n", [100, 200])
    def test_generated_fleets_reversed_in_time(self, cfg, quad, n, duration):
        # each link's rate is integrated over the same path, backwards
        sc = generate(ScenarioSpec(n_vehicles=n, seed=7, period_duration=duration))
        forward, backward = tables_of([sc, reversed_in_time(sc)], cfg, quad)
        np.testing.assert_allclose(backward.v2i, forward.v2i, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(backward.v2v_unit, forward.v2v_unit, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("n", [40, 100])
    def test_midpoint_fleet_held_still_gives_the_midpoint_rates(self, bs, cfg, quad, n):
        # a mid-period rate table is the window at D / 2, parked for 1 s
        dt = 10.0
        for seed in range(3):
            spec = ScenarioSpec(n_vehicles=n, seed=seed, period_duration=2 * dt)
            (mid,) = tables_of([generate(spec).window(dt, 1.0).held_still()], cfg, quad)
            fleet = generated_vehicles(spec)
            want = [rate_v2i(v, bs, cfg, n, dt) for v in fleet]
            np.testing.assert_allclose(mid.v2i, want, rtol=1e-12, atol=0.0)
            i, j = np.triu_indices(n, 1)
            want = [rate_v2v(fleet[a], fleet[b], cfg, 1, dt) for a, b in zip(i, j)]
            np.testing.assert_allclose(rb_share(cfg.k_dsrc, 1) * mid.v2v(i, j), want,
                                       rtol=1e-12, atol=0.0)
