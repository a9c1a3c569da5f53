from __future__ import annotations

import math

import numpy as np
import pytest

import relaysched.service as service_module
from relaysched.channel import (
    RadioConfig,
    default_radio_config,
    rate_v2i,
    rate_v2v,
    rb_share,
    unit_rate,
)
from relaysched.mobility import VehicleState, motion_rows
from relaysched.rng import Xoshiro256StarStar
from relaysched.scenario import ScenarioSpec, generate
from relaysched.scheduler import ServiceTables, build_service_tables
from relaysched.service import (
    Period,
    QuadratureSpec,
    unit_service_batch,
    _ABS_FLOOR,
    _simpson,
)


def trapezoid_oracle(rate_fn, period: Period, points: int = 10_000) -> float:
    """Dense uniform trapezoid rule, independent of the Simpson implementation."""
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


def reevaluating_service_batch(motions, model, p_tx_dbm, noise_dbm, period, quad):
    """Refinement that re-evaluates every node of each doubled grid: the reference oracle."""
    values = np.zeros(len(motions))
    converged = np.zeros(len(motions), dtype=bool)

    def eval_batch(rows, m):
        t = np.linspace(0.0, period.duration, m + 1)
        d = np.hypot(rows[:, 0:1] + rows[:, 2:3] * t, rows[:, 1:2] + rows[:, 3:4] * t)
        return _simpson(unit_rate(model, p_tx_dbm, noise_dbm, d), period.duration / m)

    active = np.arange(len(motions))
    m = quad.initial_subintervals
    est = eval_batch(motions, m)
    for _ in range(quad.max_refinements):
        m *= 2
        new = eval_batch(motions[active], m)
        ok = np.abs(new - est) <= quad.relative_tolerance * np.maximum(np.abs(new), _ABS_FLOOR)
        values[active[ok]] = new[ok]
        converged[active[ok]] = True
        active = active[~ok]
        if active.size == 0:
            return values, converged
        est = new[~ok]
    values[active] = est
    return values, converged


def close_pass():
    """Fast opposing vehicles passing 3.5 m apart: the hardest link to integrate."""
    tx = VehicleState(id=0, x=-50.0, y=1.75, speed=35.0, heading=0.0)
    rx = VehicleState(id=1, x=50.0, y=5.25, speed=35.0, heading=math.pi)
    return tx, rx


class TestIntegrateRate:
    def test_exact_on_constants(self, bs, cfg):
        # a parked vehicle has a constant rate: Simpson is exact from the first estimate
        parked = VehicleState(id=0, x=150.0, y=1.75, speed=0.0, heading=0.0)
        period = Period(7.0)
        (s,) = v2i_services([parked], bs, cfg, 1, period)
        assert s == pytest.approx(7.0 * float(rate_v2i(parked, bs, cfg, 1, 0.0)), rel=1e-12)

    def test_zero_rate(self, bs, cfg, period, quad):
        # the SNR underflows 1 + snr == 1, so the integrand is exactly zero
        parked = VehicleState(id=0, x=150.0, y=1.75, speed=0.0, heading=0.0)
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
        with pytest.raises(ValueError):
            QuadratureSpec(initial_subintervals=3)
        with pytest.raises(ValueError):
            QuadratureSpec(relative_tolerance=0.0)
        with pytest.raises(ValueError):
            Period(0.0)


class TestServiceV2I:
    def test_stationary_is_duration_times_rate(self, bs, cfg, period, quad):
        v = VehicleState(id=0, x=150.0, y=1.75, speed=0.0, heading=0.0)
        (s,) = v2i_services([v], bs, cfg, 10, period, quad)
        assert s == pytest.approx(period.duration * float(rate_v2i(v, bs, cfg, 10, 0.0)), rel=1e-9)

    def test_zero_share(self):
        # more vehicles than cellular RBs: nobody gets a direct share
        cfg = default_radio_config(k_lte=2)
        tables = build_service_tables(generate(ScenarioSpec(n_vehicles=3, seed=1)), cfg)
        assert tables.v2i.shape == (3,) and not tables.v2i.any()

    def test_symmetric_crossing_doubles_half_period(self, bs, cfg, quad):
        # closest approach exactly at mid-period: the full integral is twice the half one
        duration, speed = 8.0, 20.0
        v = VehicleState(id=0, x=-speed * duration / 2.0, y=1.75, speed=speed, heading=0.0)
        (full,) = v2i_services([v], bs, cfg, 10, Period(duration), quad)
        (half,) = v2i_services([v], bs, cfg, 10, Period(duration / 2.0), quad)
        assert full == pytest.approx(2.0 * half, rel=1e-5)


class TestServiceV2V:
    def test_constant_gap(self, cfg, period, quad):
        tx = VehicleState(id=0, x=0.0, y=1.75, speed=20.0, heading=0.0)
        rx = VehicleState(id=1, x=30.0, y=1.75, speed=20.0, heading=0.0)
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
        tx = VehicleState(id=0, x=-20.0, y=1.75, speed=15.0, heading=0.0)
        rx = VehicleState(id=1, x=40.0, y=5.25, speed=15.0, heading=math.pi)
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
            v = VehicleState(id=0, x=x, y=1.75, speed=speed, heading=heading)
            if k % 2 == 0:
                direct.append(v)
            else:
                rx = VehicleState(id=1, x=gen.uniform(-450, 450), y=5.25,
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
        v = VehicleState(id=0, x=-100.0, y=1.75, speed=25.0, heading=0.0)
        (s_full,) = v2i_services([v], bs, cfg, 10, Period(6.0), quad)
        (s_a,) = v2i_services([v], bs, cfg, 10, Period(3.0), quad)
        # second half: same trajectory advanced 3 s
        x3, y3 = v.x + 3.0 * v.speed, v.y
        v3 = VehicleState(id=0, x=x3, y=y3, speed=v.speed, heading=v.heading)
        (s_b,) = v2i_services([v3], bs, cfg, 10, Period(3.0), quad)
        assert s_full == pytest.approx(s_a + s_b, rel=2e-6)

    def test_nonnegative(self, bs, cfg, period, quad):
        gen = Xoshiro256StarStar(23)
        vehicles = [
            VehicleState(id=0, x=gen.uniform(-500, 500), y=1.75,
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
            VehicleState(id=i, x=gen.uniform(-450, 450), y=1.75,
                         speed=gen.uniform(4, 35),
                         heading=0.0 if gen.random() < 0.5 else math.pi)
            for i in range(12)
        ]
        together = v2i_services(vehicles, bs, cfg, 1, period, quad)
        for v, got in zip(vehicles, together):
            (alone,) = v2i_services([v], bs, cfg, 1, period, quad)
            assert got == alone

    def test_empty_batch(self, cfg, period, quad):
        vals, converged = unit_service_batch(
            np.zeros((0, 4)), cfg.v2i_model, cfg.p_bs_per_rb, cfg.noise_v2i_per_rb, period, quad
        )
        assert vals.shape == (0,) and converged.shape == (0,)


class TestNodeReuse:
    @pytest.mark.parametrize("max_refinements", [0, 3, 12])
    def test_matches_reevaluating_refinement(self, cfg, period, max_refinements):
        # parked, passing and 3.5 m close-passing links converge after different doublings
        gen = Xoshiro256StarStar(43)
        links = [(VehicleState(0, 120.0, 1.75, 0.0, 0.0), VehicleState(1, 180.0, 5.25, 0.0, 0.0))]
        for k in range(30):
            tx = VehicleState(0, gen.uniform(-450, 450), 1.75, gen.uniform(4, 35), 0.0)
            rx = VehicleState(1, gen.uniform(-450, 450), 5.25, gen.uniform(4, 35), math.pi)
            links.append((tx, rx))
        tx, rx = close_pass()
        links += [(tx, rx), (rx, tx)]
        motions = motion_rows([a for a, _ in links]) - motion_rows([b for _, b in links])
        quad = QuadratureSpec(max_refinements=max_refinements)
        args = (motions, cfg.v2v_model, cfg.p_vn_per_rb, cfg.noise_v2v_per_rb, period, quad)
        got, got_ok = unit_service_batch(*args)
        want, want_ok = reevaluating_service_batch(*args)
        assert np.array_equal(got, want) and np.array_equal(got_ok, want_ok)
        if max_refinements == 12:
            assert got_ok.all()
        if max_refinements == 3:
            assert got_ok.any() and not got_ok.all()

    def test_each_node_evaluated_once(self, cfg, period, monkeypatch):
        # one link that uses every refinement evaluates the m0 * 2**r + 1 nodes of its finest grid
        real = service_module.unit_rate
        nodes = []

        def counting(model, p_tx_dbm, noise_dbm, d):
            nodes.append(np.size(d))
            return real(model, p_tx_dbm, noise_dbm, d)

        monkeypatch.setattr(service_module, "unit_rate", counting)
        tx, rx = close_pass()
        quad = QuadratureSpec(initial_subintervals=16, max_refinements=4)
        _, converged = unit_service_batch(
            motion_rows([tx]) - motion_rows([rx]), cfg.v2v_model, cfg.p_vn_per_rb,
            cfg.noise_v2v_per_rb, period, quad,
        )
        assert not converged.any()
        assert sum(nodes) == 16 * 2**4 + 1
