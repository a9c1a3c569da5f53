from __future__ import annotations

import itertools
import math
import time
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    Vehicle,
    aided_are_weakest,
    generated_vehicles,
    motion_rows,
    pairs_respect_direct_order,
    rate_v2i,
    rate_v2v,
    scenario_of,
)

import relaysched.assignment as assignment_module
import relaysched.scheduler as scheduler_module
from relaysched.assignment import BenefitMatrix
from relaysched.channel import default_radio_config, rb_share, unit_rate
from relaysched.experiments import ExperimentConfig, _run_chunk
from relaysched.scenario import Scenario, ScenarioSpec, generate
from relaysched.scheduler import (
    InvalidScheduleError,
    Schedule,
    ServiceTables,
    build_chunk_tables,
    require_every_pair,
    require_search_blocks,
    solve_irrs,
    solve_msrs,
    solve_noncooperative,
    solve_optimal_bruteforce,
    validate_schedule,
    _left_sum,
    _partition_total,
)
from relaysched.service import Period, QuadratureSpec, unit_service_batch


def unit_service(a, b, model, p_tx_dbm, noise_dbm, period):
    """Per-RB service of the single link between `a` and `b`, integrated on its own."""
    vals, converged = unit_service_batch(
        motion_rows([a]) - motion_rows([b]), model, p_tx_dbm, noise_dbm, period
    )
    assert converged.all()
    return float(vals[0])


def edge_relay_pair(speed=0.0):
    # vehicle 0 is poorly served at the cell edge; vehicle 1 sits a little
    # closer to the BS and close enough to 0 for a strong V2V link, so the
    # two-hop path beats 0's direct service
    return scenario_of(
        [
            Vehicle(id=0, x=495.0, y=1.75, speed=speed, heading=math.pi),
            Vehicle(id=1, x=460.0, y=1.75, speed=speed, heading=math.pi),
        ]
    )


def heuristics(sc, cfg, tables):
    """The msrs, irrs and noncoop schedules of `sc`, whose service tables are `tables`."""
    return [solve_msrs(tables), solve_irrs(tables, build_chunk_tables([sc.held_still()], cfg)[0]),
            solve_noncooperative(tables)]


class TestValidateSchedule:
    def test_accepts_valid(self):
        s = Schedule({1: 0}, 0.0)
        assert (s.av_set, s.rv_set, s.n_av) == ({1}, {0}, 1)
        validate_schedule(s, 3)
        validate_schedule(Schedule(), 0)

    @pytest.mark.parametrize("pairing", [{1: 3}, {3: 1}, {-1: 0}, {0: -1}],
                             ids=["relay-past-n", "aided-past-n", "aided-negative", "relay-negative"])
    def test_rejects_id_out_of_range(self, pairing):
        with pytest.raises(InvalidScheduleError, match="ids must lie in 0..2"):
            validate_schedule(Schedule(pairing), 3)

    def test_rejects_bad_partition(self):
        # a vehicle both aided and a relay: its own relay, or another's
        for pairing in ({1: 1}, {1: 0, 0: 2}):
            with pytest.raises(InvalidScheduleError, match="both aided and a relay"):
                validate_schedule(Schedule(pairing), 3)

    def test_rejects_unbalanced(self):
        # one relay serving two aided vehicles
        with pytest.raises(InvalidScheduleError, match="relay cannot serve two"):
            validate_schedule(Schedule({1: 0, 2: 0}), 3)

    def test_rejects_oversized_av_set(self):
        # n_av = 2 > 3/2 needs four distinct ids among three, so every such
        # pairing breaks one of the checks above
        for pairing in ({0: 2, 1: 3}, {0: 2, 1: 2}, {0: 1, 1: 2}):
            with pytest.raises(InvalidScheduleError):
                validate_schedule(Schedule(pairing), 3)


class TestEvaluateSchedule:
    def test_all_cv_is_direct_sum(self, cfg):
        sc = generate(ScenarioSpec(n_vehicles=5, seed=9))
        tables = build_chunk_tables([sc], cfg)[0]
        s = Schedule()
        validate_schedule(s, sc.n)
        got = _partition_total(tables, s.pairing)
        assert got == sum(float(x) for x in tables.v2i)

    def test_hand_built_sum(self, cfg):
        # relay 0 (direct 6) serves vehicle 1; CVs 2 and 3 contribute 4 + 6;
        # the pair's relay-link amount is 4, so the total is 10 + 6 + 4 = 20
        share = cfg.k_dsrc  # one aided vehicle -> full V2V pool
        unit = np.zeros((4, 4))
        unit[0, 1] = unit[1, 0] = 4.0 / share
        tables = ServiceTables(np.array([6.0, 1.0, 4.0, 6.0]), unit, cfg.k_dsrc)
        s = Schedule({1: 0})
        validate_schedule(s, 4)
        assert _partition_total(tables, s.pairing) == pytest.approx(20.0, rel=1e-12)

    def test_sums_add_left_to_right(self):
        # from 0.0 and in id order, the bits of Python 3.11's sum(); 3.12's
        # compensated sum() gives 0.6 for the tenths and 1.0 for the others
        tenths = ServiceTables(np.array([0.1, 0.2, 0.3]), np.zeros((3, 3)), 25)
        assert tenths.direct_sum(()).hex() == ((0.1 + 0.2) + 0.3).hex() == (0.6000000000000001).hex()
        assert tenths.direct_sum({1}) == 0.1 + 0.3 and tenths.direct_sum({0: 1, 2: 1}) == 0.2
        cancelling = ServiceTables(np.array([1.0, 1e100, -1e100]), np.zeros((3, 3)), 25)
        assert cancelling.direct_sum(()) == 0.0 and cancelling.direct_sum({1}) == -1e100 + 1.0
        assert _left_sum(np.array([0.1, 0.2, 0.3])).hex() == (0.6000000000000001).hex()
        assert _left_sum(np.array([])) == 0.0
        assert type(_partition_total(ServiceTables(np.array([]), np.zeros((0, 0)), 25), {})) is float

    def test_invalid_schedule_rejected(self):
        # vehicle 0 is both aided and its own relay
        bad = Schedule({0: 0})
        with pytest.raises(InvalidScheduleError):
            validate_schedule(bad, 3)

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_reevaluation_is_bitwise(self, cfg, seed):
        sc = generate(ScenarioSpec(n_vehicles=9, seed=seed))
        tables = build_chunk_tables([sc], cfg)[0]
        for sched in heuristics(sc, cfg, tables) + [solve_optimal_bruteforce(tables)]:
            validate_schedule(sched, sc.n)
            again = _partition_total(tables, sched.pairing)
            assert again == sched.total_service
            fresh = build_chunk_tables([sc], cfg)[0]  # tables rebuilt from scratch
            assert _partition_total(fresh, sched.pairing) == sched.total_service


class TestServiceTables:
    def test_two_hop_matches_scalar_services(self, cfg, bs):
        # each link integrated on its own, then the RB shares and the min rule applied
        spec = ScenarioSpec(n_vehicles=6, seed=21)
        sc, fleet = generate(spec), generated_vehicles(spec)
        tables = build_chunk_tables([sc], cfg)[0]
        for n_av in (1, 2, 3):
            for i in range(6):
                direct = rb_share(cfg.k_lte, 6) * unit_service(
                    fleet[i], bs, cfg.v2i_model, cfg.p_bs_per_rb,
                    cfg.noise_v2i_per_rb, sc.period,
                )
                for j in range(6):
                    if i == j:
                        continue
                    relay = rb_share(cfg.k_dsrc, n_av) * unit_service(
                        fleet[i], fleet[j], cfg.v2v_model, cfg.p_vn_per_rb,
                        cfg.noise_v2v_per_rb, sc.period,
                    )
                    want = min(relay, direct)
                    assert tables.benefit(i, j, n_av) == pytest.approx(want, rel=1e-9)

    def test_v2i_column_matches_scalar(self, cfg, bs):
        spec = ScenarioSpec(n_vehicles=7, seed=22)
        sc = generate(spec)
        tables = build_chunk_tables([sc], cfg)[0]
        for i, v in enumerate(generated_vehicles(spec)):
            want = rb_share(cfg.k_lte, 7) * unit_service(
                v, bs, cfg.v2i_model, cfg.p_bs_per_rb, cfg.noise_v2i_per_rb, sc.period
            )
            assert tables.v2i[i] == pytest.approx(want, rel=1e-9)

    def test_rate_tables_match_channel(self, cfg, bs):
        spec = ScenarioSpec(n_vehicles=6, seed=23)
        fleet = generated_vehicles(spec)
        rt = build_chunk_tables([generate(spec).held_still()], cfg)[0]
        rt.v2v(np.arange(6)[:, None], np.arange(6))
        for i, v in enumerate(fleet):
            assert rt.v2i[i] == pytest.approx(float(rate_v2i(v, bs, cfg, 6, 0.0)), rel=1e-12)
        for i in range(6):
            for j in range(i + 1, 6):
                got = cfg.k_dsrc * rt.v2v_unit[i, j]
                want = float(rate_v2v(fleet[i], fleet[j], cfg, 1, 0.0))
                assert got == pytest.approx(want, rel=1e-12)


class TestDemandDrivenTables:
    @pytest.fixture
    def counted(self, monkeypatch):
        """Rows of every `unit_service_batch` call the scheduler makes: service, rate.

        The rate tables' calls are those of a held-still fleet: the 1 s
        period, and static rows only.  The tests here use other periods for
        their service tables.
        """
        real = scheduler_module.unit_service_batch
        service, rate = [], []

        def counting(motions, model, p_tx, noise, period, *args, **kwargs):
            if period == Period(1.0):
                assert not motions[:, 2:].any()
                rate.append(len(motions))
            else:
                service.append(len(motions))
            return real(motions, model, p_tx, noise, period, *args, **kwargs)

        monkeypatch.setattr(scheduler_module, "unit_service_batch", counting)
        return service, rate

    @pytest.fixture
    def links(self, counted):
        """Rows of every service-table call."""
        return counted[0]

    @pytest.fixture
    def rate_links(self, counted):
        """Rows of every rate-table call."""
        return counted[1]

    def test_msrs_integrates_only_pairs_with_the_weakest(self, cfg, links):
        # N direct links, the cap weakest against the rest, and the pairs among them
        n, cap = 100, 25
        sc = generate(ScenarioSpec(n_vehicles=n, seed=7))
        tables = build_chunk_tables([sc], cfg)[0]
        assert sum(links) == n
        solve_msrs(tables)
        assert sum(links) == n + cap * (n - cap) + cap * (cap - 1) // 2 == 2275
        assert np.isnan(tables.v2v_unit).sum() == n * (n - 1) - 2 * (2275 - n)

    def test_noncooperative_integrates_direct_links_only(self, cfg, links):
        sc = generate(ScenarioSpec(n_vehicles=40, seed=8))
        solve_noncooperative(build_chunk_tables([sc], cfg)[0])
        assert sum(links) == 40

    def test_bruteforce_integrates_every_pair(self, cfg, links):
        sc = generate(ScenarioSpec(n_vehicles=12, seed=9))
        solve_optimal_bruteforce(build_chunk_tables([sc], cfg)[0])
        assert sum(links) == 12 + 12 * 11 // 2 == 78

    def test_oracle_trial_integrates_every_pair_in_one_call(self, links, rate_links):
        # a chunk of 8 oracle trials integrates its 8 x 12 direct links in one
        # call and its 8 x 66 pairs in one more, before any policy runs; the
        # policies then find every pair in their service tables.  The rate
        # tables take the chunk's 96 direct rates in one call, and the 8 irrs
        # blocks' 6 x 6 + 15 pairs in one more.  Each trial's rows keep the
        # config order
        config = ExperimentConfig(seed=1, trials=8, n_vehicles=12,
                                  policies=("msrs", "irrs", "noncoop", "optimal"))
        rows = _run_chunk((config, [(seed, None, None) for seed in range(9, 17)]))
        assert links == [96, 528]
        assert rate_links == [96, 408]
        assert [r.policy for r in rows] == list(config.policies) * 8
        assert [r.seed for r in rows[::4]] == list(range(9, 17))
        assert all(r.total_service is not None for r in rows)

    def test_chunk_tables_equal_tables_built_alone(self, cfg, links, rate_links):
        # one call for the chunk's 9 direct links and one for its 10 + 6
        # pairs; each table holds the bits its scenario gets alone.  So does
        # each rate table, built from the fleets held still
        fleets = [generate(ScenarioSpec(n_vehicles=n, seed=s)) for n, s in ((5, 1), (0, 2), (4, 3))]
        for scs, calls in ((fleets, links), ([sc.held_still() for sc in fleets], rate_links)):
            chunk = build_chunk_tables(scs, cfg)
            require_every_pair(chunk)
            assert calls == [9, 16]
            for sc, tables in zip(scs, chunk):
                alone = build_chunk_tables([sc], cfg)[0]
                every = np.arange(sc.n)
                alone.v2v(every[:, None], every)
                assert np.array_equal(tables.v2i, alone.v2i)
                assert np.array_equal(tables.v2v_unit, alone.v2v_unit)
            # tables built apart share equal links, so they fill together
            apart = [build_chunk_tables([sc], cfg)[0] for sc in scs]
            require_every_pair(apart)
            assert calls[-1] == 16
            for tables, got in zip(chunk, apart):
                assert got.v2v_unit.tobytes() == tables.v2v_unit.tobytes()
            # tables of another period, radio or quadrature do not
            for other in (build_chunk_tables([generate(ScenarioSpec(5, seed=1, period_duration=4.0))],
                                             cfg)[0],
                          build_chunk_tables(scs[:1], default_radio_config(p_vn_per_rb_dbm=23.0))[0],
                          build_chunk_tables(scs[:1], cfg, QuadratureSpec(max_refinements=3))[0]):
                with pytest.raises(ValueError, match="share one V2V link"):
                    require_every_pair([chunk[0], other])
            with pytest.raises(ValueError, match="share one period"):
                build_chunk_tables([scs[0], generate(ScenarioSpec(3, seed=4, period_duration=4.0))],
                                   cfg)

    def test_fill_calls_keep_to_the_link_budget(self, cfg, links, monkeypatch):
        # search blocks of 2175 links at N=100, 51 at N=12, 4675 at N=200 and
        # 590 at N=40 go into kernel calls whole and in table order while a
        # call stays within the budget; a block past it takes a call alone.
        # Each table holds the bits of its own msrs search's reads
        sizes = (100, 100, 100, 12, 200, 40)
        fleets = [generate(ScenarioSpec(n_vehicles=n, seed=s)) for s, n in enumerate(sizes)]
        tables = build_chunk_tables(fleets, cfg)
        require_search_blocks(tables)
        assert scheduler_module._CALL_LINKS == 5000
        assert links == [sum(sizes), 2 * 2175, 2175 + 51, 4675, 590]
        for sc, filled in zip(fleets, tables):
            alone = build_chunk_tables([sc], cfg)[0]
            assert solve_msrs(filled) == solve_msrs(alone)
            assert filled.v2v_unit.tobytes() == alone.v2v_unit.tobytes()
        # every pair of two N=100 fleets: 4950 each, one call each
        del links[:]
        require_every_pair(build_chunk_tables(fleets[:2], cfg))
        assert links == [200, 4950, 4950]
        # under a budget of 100 links: 66 + 66 do not fit, and 190 goes alone
        monkeypatch.setattr(scheduler_module, "_CALL_LINKS", 100)
        del links[:]
        small = [generate(ScenarioSpec(n_vehicles=n, seed=s)) for s, n in enumerate((12, 12, 20, 3, 3))]
        require_every_pair(build_chunk_tables(small, cfg))
        assert links == [50, 66, 66, 190, 6]

    def test_refused_oracle_leaves_the_pairs_lazy(self, links, rate_links):
        # above the cap the oracle integrates nothing, so msrs requires only
        # its block and the V2V table is never complete; irrs's rate tables
        # take their 20 direct rates and then only its block's 10 x 10 + 45
        config = ExperimentConfig(seed=1, trials=1, n_vehicles=20, oracle_cap=12,
                                  policies=("optimal", "msrs", "irrs", "noncoop"))
        rows = _run_chunk((config, [(9, None, None)]))
        assert links[0] == 20 and 190 not in links and sum(links[1:]) < 190
        assert rate_links == [20, 145]
        assert rows[0].policy == "optimal" and rows[0].note.startswith("refused")

    def test_pairs_outside_the_msrs_block(self, cfg):
        # the strongest vehicles aided by the next strongest: msrs never needs these pairs
        n = 20
        sc = generate(ScenarioSpec(n_vehicles=n, seed=41))
        tables = build_chunk_tables([sc], cfg)[0]
        solve_msrs(tables)
        order = sorted(range(n), key=lambda i: (-tables.v2i[i], i))
        aided, relays = order[:3], order[3:6]
        block = tables.v2v_unit[np.ix_(relays, aided)]
        assert np.isnan(block).all()
        with pytest.raises(ValueError, match="finite"):
            BenefitMatrix(block)

        sched = Schedule(dict(zip(aided, relays)))
        full = build_chunk_tables([sc], cfg)[0]
        full.v2v(np.arange(n)[:, None], np.arange(n))
        assert not np.isnan(full.v2v_unit).any()
        validate_schedule(sched, n)
        got = _partition_total(tables, sched.pairing)
        assert got == _partition_total(full, sched.pairing)
        # scoring integrated the pairing's own pairs and nothing else
        assert np.array_equal(tables.v2v_unit[relays, aided], full.v2v_unit[relays, aided])
        assert np.isnan(tables.v2v_unit[np.ix_(relays, aided)]).sum() == 6

    def test_reads_integrate_only_the_pairs_read(self, cfg, links):
        # a fresh lazy table read outside the msrs block: the 6 strongest
        # vehicles against the 3 strongest, so the diagonal and both
        # orientations of the pairs among the 3 are read too; the 12 unknown
        # pairs take one call, and every value read is the filled table's
        n = 20
        sc = generate(ScenarioSpec(n_vehicles=n, seed=41))
        tables, full = build_chunk_tables([sc, sc], cfg)
        require_every_pair([full])
        order = sorted(range(n), key=lambda i: (-tables.v2i[i], i))
        rows, cols = np.array(order[:6])[:, None], np.array(order[:3])
        assert links == [2 * n, n * (n - 1) // 2]
        got = tables.benefit(rows, cols, 3)
        assert links[2:] == [3 + 3 * 3]
        assert np.isfinite(got).all()
        assert got.tobytes() == full.benefit(rows, cols, 3).tobytes()
        assert np.count_nonzero(~np.isnan(tables.v2v_unit)) == n + 2 * 12
        # read again, or through the other orientation: nothing left to integrate
        for r, c in ((rows, cols), (cols[:, None], rows[:, 0])):
            assert tables.v2v(r, c).tobytes() == full.v2v_unit[r, c].tobytes()
        assert links[2:] == [12]

    def test_rate_tables_fill_on_demand(self, cfg, links, rate_links):
        n = 6
        sc = generate(ScenarioSpec(n_vehicles=n, seed=10))
        rt = build_chunk_tables([sc.held_still()], cfg)[0]
        assert rate_links == [n]
        assert np.isnan(rt.v2v_unit[~np.eye(n, dtype=bool)]).all()
        assert (np.diag(rt.v2v_unit) == 0.0).all()
        rt.v2v(np.arange(n)[:, None], np.arange(n))
        assert rate_links == [n, n * (n - 1) // 2]
        # the dense table at the period start, every pair at once
        state = sc.motion
        gap = state[:, None, :2] - state[None, :, :2]
        dense = unit_rate(cfg.v2v_model, cfg.p_vn_per_rb, cfg.noise_v2v_per_rb,
                          gap[..., 0] ** 2 + gap[..., 1] ** 2)
        np.fill_diagonal(dense, 0.0)
        assert np.array_equal(rt.v2v_unit, dense)
        assert not links and rt.unconverged == 0

    def test_require_computes_each_unknown_pair_once(self, cfg, monkeypatch):
        # a partly filled table and a read shaped like the msrs block: all
        # vehicles against 8 of them, so the pairs among the 8 come in both
        # orientations; three of the four known pairs lie in the read
        n = 30
        sc = generate(ScenarioSpec(n_vehicles=n, seed=12))
        tables = build_chunk_tables([sc], cfg)[0]
        real = scheduler_module.unit_service_batch
        calls = []

        def recording(motions, *link):
            calls.append(motions)
            values, _ = real(motions, *link)
            return values, np.zeros(len(values), dtype=bool)  # every link unconverged

        monkeypatch.setattr(scheduler_module, "unit_service_batch", recording)
        order = np.random.default_rng(5).permutation(n)
        weak = order[-8:]
        known = [(order[0], weak[0]), (weak[2], weak[1]), (weak[5], order[3]), (7, 19)]
        tables.v2v([r for r, _ in known], [c for _, c in known])
        assert len(calls) == 1 and len(calls[0]) == 4 and tables.unconverged == 4

        tables.v2v(order[:, None], weak)
        want = sorted({(min(r, c), max(r, c)) for r in order.tolist() for c in weak.tolist()
                       if r != c} - {(min(r, c), max(r, c)) for r, c in known})
        i, j = (np.array(x) for x in zip(*want))
        # each unknown unordered pair once, lower id first, ascending (i, j)
        assert len(calls) == 2
        assert calls[1].tobytes() == (sc.motion[i] - sc.motion[j]).tobytes()
        assert tables.unconverged == 4 + len(want) == 4 + 8 * 7 // 2 + 8 * 22 - 3
        tables.v2v(weak[:, None], order)
        assert len(calls) == 2

        monkeypatch.setattr(scheduler_module, "unit_service_batch", real)
        filled = build_chunk_tables([sc], cfg)[0]
        require_every_pair([filled])
        asked = ~np.isnan(tables.v2v_unit)
        assert asked.sum() == n + 2 * (4 + len(want))
        assert tables.v2v_unit[asked].tobytes() == filled.v2v_unit[asked].tobytes()
        every = np.arange(n)
        tables.v2v(every[:, None], every)
        assert tables.v2v_unit.tobytes() == filled.v2v_unit.tobytes()


class TestMsrs:
    def test_single_vehicle(self, cfg):
        sc = generate(ScenarioSpec(n_vehicles=1, seed=1))
        tables = build_chunk_tables([sc], cfg)[0]
        sched = solve_msrs(tables)
        assert sched.n_av == 0 and sched.pairing == {}
        assert sched.total_service == float(tables.v2i[0])

    def test_empty_scenario(self, cfg):
        sc = generate(ScenarioSpec(n_vehicles=0, seed=1))
        sched = solve_msrs(build_chunk_tables([sc], cfg)[0])
        assert sched.n_av == 0 and sched.total_service == 0.0

    def test_cell_edge_pair_gets_relayed(self, cfg):
        tables = build_chunk_tables([edge_relay_pair()], cfg)[0]
        sched = solve_msrs(tables)
        opt = solve_optimal_bruteforce(tables)
        assert sched.n_av == 1 and sched.pairing == {0: 1}
        assert sched.total_service == opt.total_service
        assert sched.total_service > solve_noncooperative(tables).total_service

    @pytest.mark.parametrize("seed", range(12))
    def test_near_optimal_small_fleets(self, cfg, seed):
        sc = generate(ScenarioSpec(n_vehicles=6, seed=seed))
        tables = build_chunk_tables([sc], cfg)[0]
        msrs = solve_msrs(tables)
        opt = solve_optimal_bruteforce(tables)
        assert (opt.total_service - msrs.total_service) / opt.total_service <= 0.05

    @pytest.mark.parametrize("seed", range(8))
    def test_structural_invariants(self, cfg, seed):
        sc = generate(ScenarioSpec(n_vehicles=11, seed=100 + seed))
        tables = build_chunk_tables([sc], cfg)[0]
        for sched in heuristics(sc, cfg, tables):
            validate_schedule(sched, sc.n)
        msrs = solve_msrs(tables)
        assert aided_are_weakest(msrs, tables.v2i)
        assert pairs_respect_direct_order(msrs, tables.v2i)

    @pytest.mark.parametrize("seed", range(8))
    def test_dominance_chain(self, cfg, seed):
        sc = generate(ScenarioSpec(n_vehicles=8, seed=200 + seed))
        tables = build_chunk_tables([sc], cfg)[0]
        opt = solve_optimal_bruteforce(tables)
        msrs = solve_msrs(tables)
        noncoop = solve_noncooperative(tables)
        assert opt.total_service >= msrs.total_service >= noncoop.total_service
        assert pairs_respect_direct_order(opt, tables.v2i)

    def test_aided_count_capped_at_k_dsrc(self, monkeypatch):
        # more vehicles than cellular RBs: every direct amount is 0, so no
        # partition beats all-direct and the prune never fires; past k_dsrc
        # aided vehicles the V2V share is 0 too, so those counts are not tried
        cfg = default_radio_config(k_lte=10, k_dsrc=3)
        sc = generate(ScenarioSpec(n_vehicles=30, seed=4))
        tables = build_chunk_tables([sc], cfg)[0]
        assert not tables.v2i.any()
        real_solve = scheduler_module.solve_max_assignment
        solves = []

        def counting(w):
            solves.append(w.cols)
            return real_solve(w)

        monkeypatch.setattr(scheduler_module, "solve_max_assignment", counting)
        sched = solve_msrs(tables)
        assert 0 < len(solves) <= cfg.k_dsrc
        assert sched.n_av == 0 and sched.pairing == {}
        assert sched.total_service == 0.0


class TestAssignmentSolves:
    def test_prune_keeps_msrs_solve_count(self, monkeypatch, cfg):
        # N=100, seed 7: n_av = 5 has the largest column-maxima bound, and
        # its total beats every other count's bound, so it is the only solve
        # (the ascending search solved n_av = 1..5)
        real_solve = scheduler_module.solve_max_assignment
        cols = []

        def counting(w):
            cols.append(w.cols)
            return real_solve(w)

        monkeypatch.setattr(scheduler_module, "solve_max_assignment", counting)
        sc = generate(ScenarioSpec(n_vehicles=100, seed=7))
        solve_msrs(build_chunk_tables([sc], cfg)[0])
        assert cols == [5]

    def test_one_dual_solve_per_assignment(self, monkeypatch, cfg):
        # ties are decided on the dual's tight edges, with no re-solves
        solves = []
        real_rect = assignment_module._rect_min_assign

        def counting_rect(cost):
            solves.append(cost.shape)
            return real_rect(cost)

        real_solve = scheduler_module.solve_max_assignment
        needing_solve = []

        def counting_solve(w):
            if w.cols and not np.all(w.values == w.values.flat[0]):
                needing_solve.append(w.values.shape)
            return real_solve(w)

        monkeypatch.setattr(assignment_module, "_rect_min_assign", counting_rect)
        monkeypatch.setattr(scheduler_module, "solve_max_assignment", counting_solve)
        sc = generate(ScenarioSpec(n_vehicles=200, seed=9))
        tables = build_chunk_tables([sc], cfg)[0]
        solve_msrs(tables)
        solve_irrs(tables, build_chunk_tables([sc.held_still()], cfg)[0])
        assert len(needing_solve) >= 2
        assert solves == needing_solve

    def test_one_two_hop_block_per_share_level(self, monkeypatch, cfg):
        # N=100, k_dsrc=25: the 25 counts fall into 9 V2V share levels
        # (25 // n_av = 1, 2, 3, 4, 5, 6, 8, 12, 25), and each level takes
        # its two-hop amounts once, over the rows of its smallest count and
        # the columns of its largest; scoring a pairing reads 1-D pairs
        real = ServiceTables.two_hop
        blocks = []

        def counting(self, unit, direct, n_av):
            if np.ndim(unit) == 2:
                blocks.append((n_av, np.shape(unit)))
            return real(self, unit, direct, n_av)

        monkeypatch.setattr(ServiceTables, "two_hop", counting)
        sc = generate(ScenarioSpec(n_vehicles=100, seed=7))
        solve_msrs(build_chunk_tables([sc], cfg)[0])
        last = [25, 12, 8, 6, 5, 4, 3, 2, 1]
        first = [13, 9, 7, 6, 5, 4, 3, 2, 1]
        assert blocks == [(m, (100 - f, m)) for m, f in zip(last, first)]


def ascending_partition(tables, solved):
    """The aided-count search as an ascending loop; appends each solved n_av to `solved`.

    Reference for the best-first search: every count is bounded in turn and
    solved unless its bound cannot beat the best total so far, and only a
    strictly larger total replaces the incumbent.
    """
    n = tables.n
    order = sorted(range(n), key=lambda i: (-tables.v2i[i], i))
    cap = min(n // 2, tables.k_dsrc)
    rows = np.array(order, dtype=int)[:, None]
    tables.v2v(rows, order[n - cap:])
    kept = np.concatenate(([0.0], np.cumsum(tables.v2i[order])))
    best = Schedule({}, _partition_total(tables, {}))
    for n_av in range(1, cap + 1):
        avs = order[n - n_av:]
        w = tables.benefit(rows[: n - n_av], avs, n_av)
        bound = kept[n - n_av] + w.max(axis=0).sum()
        if bound + 1e-9 * (1.0 + abs(bound)) <= best.total_service:
            continue
        solved.append(n_av)
        match = assignment_module.solve_max_assignment(BenefitMatrix(w)).match
        pairing = {avs[c]: order[r] for c, r in match.items()}
        total = _partition_total(tables, pairing)
        if total > best.total_service:
            best = Schedule(pairing, total)
    return best


def per_count_bounds(tables):
    """Every count's (bound, n_av, benefit matrix), best bound first, each gathered on its own.

    Reference for the share-level blocks: a count's matrix is gathered from
    the tables, and its bound is its own column maxima's sum.
    """
    n = tables.n
    order = sorted(range(n), key=lambda i: (-tables.v2i[i], i))
    cap = min(n // 2, tables.k_dsrc)
    rows = np.array(order, dtype=int)[:, None]
    tables.v2v(rows, order[n - cap:])
    kept = np.concatenate(([0.0], np.cumsum(tables.v2i[order])))
    counts = []
    for n_av in range(1, cap + 1):
        w = tables.benefit(rows[: n - n_av], order[n - n_av:], n_av)
        counts.append((kept[n - n_av] + w.max(axis=0).sum(), n_av, w))
    counts.sort(key=lambda c: (-c[0], c[1]))
    return order, counts


def per_count_partition(tables, solved):
    """The best-first search over `per_count_bounds`.

    Reference for the search: the same bounds, solve order and schedule;
    appends each solved benefit matrix to `solved`.
    """
    n = tables.n
    order, counts = per_count_bounds(tables)
    best = Schedule({}, _partition_total(tables, {}))
    for bound, n_av, w in counts:
        if bound + 1e-9 * (1.0 + abs(bound)) <= best.total_service:
            break
        solved.append(w)
        avs = order[n - n_av:]
        match = assignment_module.solve_max_assignment(BenefitMatrix(w)).match
        pairing = {avs[c]: order[r] for c, r in match.items()}
        total = _partition_total(tables, pairing)
        if total > best.total_service or (total == best.total_service and n_av < best.n_av):
            best = Schedule(pairing, total)
    return best


def best_first_partition(tables, matrices=None):
    """`solve_msrs(tables)` and the n_av of each of its solves, in order.

    Appends each solved benefit matrix to `matrices` when it is given.
    """
    solved = []
    real_solve = scheduler_module.solve_max_assignment

    def counting(w):
        solved.append(w.cols)
        if matrices is not None:
            matrices.append(w.values)
        return real_solve(w)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scheduler_module, "solve_max_assignment", counting)
        return solve_msrs(tables), solved


class TestBestFirstSearch:
    @settings(max_examples=50, derandomize=True, deadline=None, database=None)
    @given(n=st.integers(0, 60), seed=st.integers(0, 2**32 - 1),
           k_dsrc=st.sampled_from([1, 3, 25, 200]), data=st.data())
    def test_same_schedule_as_ascending_search(self, n, seed, k_dsrc, data):
        # k_lte = n - 1 leaves no direct RBs (every bound 0, nothing pruned);
        # k_lte = n leaves one RB each
        k_lte = data.draw(st.sampled_from([222, max(n, 1), max(n - 1, 1)]))
        cfg = default_radio_config(k_lte=k_lte, k_dsrc=k_dsrc)
        sc = generate(ScenarioSpec(n_vehicles=n, seed=seed))
        for tables in (build_chunk_tables([sc], cfg)[0], build_chunk_tables([sc.held_still()], cfg)[0]):
            reference_solved = []
            want = ascending_partition(tables, reference_solved)
            matrices = []
            got, solved = best_first_partition(tables, matrices)
            assert got == want and repr(got.total_service) == repr(want.total_service)
            assert len(set(solved)) == len(solved)
            assert set(solved) <= set(reference_solved)
            # the one-block matrices carry the per-count gathers' bits, so
            # the bounds and the solve order are the same too
            per_count = []
            assert per_count_partition(tables, per_count) == got
            assert len(matrices) == len(per_count)
            for a, b in zip(matrices, per_count):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("n", [100, 200])
    @pytest.mark.parametrize("k_dsrc", [7, 25, 200])
    def test_same_bounds_and_matrices_as_per_count_gathers_at_scale(self, n, k_dsrc):
        # share levels of uneven length: at k_dsrc = 7 the counts 4..7 share
        # one level, at 25 the counts 13..25, and at 200 the levels hold
        # from one count to 34 (N=200: 67..100).  A search that never prunes
        # and solves trivially visits every count, so every bound and every
        # matrix is compared.  Then the real search is compared too
        cfg = default_radio_config(k_dsrc=k_dsrc)
        sc = generate(ScenarioSpec(n_vehicles=n, seed=n + k_dsrc))
        for tables in (build_chunk_tables([sc], cfg)[0], build_chunk_tables([sc.held_still()], cfg)[0]):
            _, counts = per_count_bounds(tables)
            bounds, matrices = [], []

            def visit(bound, incumbent):
                bounds.append(float(bound).hex())
                return True

            def first_rows(w):
                matrices.append(w.values)
                return assignment_module.Assignment({c: c for c in range(w.cols)})

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(scheduler_module, "_can_beat", visit)
                mp.setattr(scheduler_module, "solve_max_assignment", first_rows)
                solve_msrs(tables)
            assert bounds == [float(b).hex() for b, _, _ in counts]
            assert len(matrices) == len(counts) == min(n // 2, k_dsrc)
            for a, (_, _, b) in zip(matrices, counts):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()

            matrices = []
            got, _ = best_first_partition(tables, matrices)
            per_count = []
            want = per_count_partition(tables, per_count)
            assert got == want and repr(got.total_service) == repr(want.total_service)
            assert [m.shape for m in matrices] == [m.shape for m in per_count]
            for a, b in zip(matrices, per_count):
                assert a.tobytes() == b.tobytes()

    def test_equal_totals_keep_the_smaller_count(self):
        # k_dsrc = 2: one aided vehicle gets 2 V2V RBs, two get 1 each.
        # n_av = 1 aids vehicle 3 through relay 0: 8 + 6 + 1 + min(2*2, 8) = 19.
        # n_av = 2 aids 2 and 3: 8 + 6 + min(3, 6) + min(2, 8) = 19, but its
        # column maxima (3.5 from relay 0 to vehicle 2, and 2) bound it at
        # 19.5, so it is solved first and the equal n_av = 1 total must win
        unit = np.zeros((4, 4))
        for i, j, u in ((0, 3, 2.0), (1, 2, 3.0), (0, 2, 3.5)):
            unit[i, j] = unit[j, i] = u
        tables = ServiceTables(np.array([8.0, 6.0, 1.0, 0.0]), unit, k_dsrc=2)
        got, solved = best_first_partition(tables)
        assert solved == [2, 1]
        assert got == Schedule({3: 0}, 19.0)
        reference_solved = []
        assert ascending_partition(tables, reference_solved) == got
        assert reference_solved == [1, 2]


class TestIrrs:
    def test_static_fleet_matches_msrs(self, cfg):
        for seed in (1, 2, 3):
            sc = generate(ScenarioSpec(n_vehicles=9, seed=seed, speed_range=(0.0, 0.0)))
            tables = build_chunk_tables([sc], cfg)[0]
            msrs = solve_msrs(tables)
            irrs = solve_irrs(tables, build_chunk_tables([sc.held_still()], cfg)[0])
            assert irrs.av_set == msrs.av_set and irrs.pairing == msrs.pairing
            assert irrs.total_service == msrs.total_service

    def test_static_cell_edge_pairing(self, cfg):
        sc = edge_relay_pair(speed=0.0)
        tables = build_chunk_tables([sc], cfg)[0]
        irrs = solve_irrs(tables, build_chunk_tables([sc.held_still()], cfg)[0])
        assert irrs.pairing == solve_msrs(tables).pairing == {0: 1}


class TestNoncooperative:
    def test_matches_all_cv_evaluation(self, cfg):
        sc = generate(ScenarioSpec(n_vehicles=6, seed=31))
        tables = build_chunk_tables([sc], cfg)[0]
        sched = solve_noncooperative(tables)
        manual = Schedule()
        validate_schedule(manual, sc.n)
        assert sched.total_service == _partition_total(tables, manual.pairing)

    def test_single_vehicle_equals_msrs(self, cfg):
        tables = build_chunk_tables([generate(ScenarioSpec(n_vehicles=1, seed=5))], cfg)[0]
        assert solve_noncooperative(tables) == solve_msrs(tables)


class TestBruteForce:
    def test_cap_refusal(self, cfg):
        tables = build_chunk_tables([generate(ScenarioSpec(n_vehicles=13, seed=1))], cfg)[0]
        with pytest.raises(ValueError) as exc:
            solve_optimal_bruteforce(tables)
        assert str(exc.value) == "refusing exhaustive search for 13 vehicles; cap is 12"

    def test_single_vehicle_matches_msrs(self, cfg):
        tables = build_chunk_tables([generate(ScenarioSpec(n_vehicles=1, seed=6))], cfg)[0]
        assert solve_optimal_bruteforce(tables) == solve_msrs(tables)

    def test_symmetric_pair_stays_direct(self, cfg):
        # equidistant, equally served: relaying can only forfeit one direct share
        sc = scenario_of(
            [
                Vehicle(id=0, x=-100.0, y=1.75, speed=0.0, heading=0.0),
                Vehicle(id=1, x=100.0, y=1.75, speed=0.0, heading=0.0),
            ]
        )
        opt = solve_optimal_bruteforce(build_chunk_tables([sc], cfg)[0])
        assert opt.n_av == 0


def enumerated_optimum(tables, starts=None, passed=None):
    """Exact optimum with every aided set through the per-set bound, one set at a time.

    The oracle for `solve_optimal_bruteforce`'s screened search: the same
    bound, pairing loops and summation order.  `starts`, when given, receives
    the incumbent total at the start of each aided count, and `passed` each
    aided set whose bound beats the incumbent, in the order they are met.
    """
    n = tables.n
    every = np.arange(n)
    tables.v2v(every[:, None], every)
    ids = list(range(n))
    best_total = _partition_total(tables, {})
    best_pairing: dict[int, int] = {}
    for n_av in range(1, min(n // 2, tables.k_dsrc) + 1):
        if starts is not None:
            starts.append(best_total)
        w = tables.benefit(every[:, None], every, n_av).tolist()
        for av in itertools.combinations(ids, n_av):
            av_set = set(av)
            direct = tables.direct_sum(av_set)
            rest = [i for i in ids if i not in av_set]
            bound = direct + sum(max(w[r][a] for r in rest) for a in av)
            if bound <= best_total:
                continue
            if passed is not None:
                passed.append(av)
            for rvs in itertools.combinations(rest, n_av):
                for perm in itertools.permutations(rvs):
                    relay = 0.0
                    for r, a in zip(perm, av):
                        relay += w[r][a]
                    total = direct + relay
                    if total > best_total:
                        best_total = total
                        best_pairing = {a: r for r, a in zip(perm, av)}
    return Schedule(best_pairing, best_total)


def assert_same_optimum(sc, cfg):
    tables = build_chunk_tables([sc], cfg)[0]
    got = solve_optimal_bruteforce(tables)
    want = enumerated_optimum(tables)
    assert got == want
    assert repr(got.total_service) == repr(want.total_service)
    return got


def parked(positions):
    return scenario_of(
        Vehicle(id=i, x=x, y=y, speed=0.0, heading=0.0) for i, (x, y) in enumerate(positions)
    )


class TestBruteForceOracle:
    @pytest.mark.parametrize("n", range(13))
    def test_matches_per_set_enumeration(self, cfg, n):
        for seed in (1, 2, 3):
            assert_same_optimum(generate(ScenarioSpec(n_vehicles=n, seed=seed)), cfg)

    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_parked_mirror_symmetric_fleet(self, cfg, n):
        # mirror images about the BS tie on every direct and relay amount
        xs = [60.0 + 390.0 * k / (n // 2) for k in range(n // 2)]
        positions = [(sign * x, 1.75) for x in xs for sign in (-1.0, 1.0)]
        assert_same_optimum(parked(positions), cfg)

    def test_shared_positions(self, cfg):
        # pairs and a triple on one spot: their links all clamp to the same 1 m
        spots = [-480.0, -480.0, -200.0, -200.0, 90.0, 350.0, 350.0, 350.0, 470.0, 470.0]
        assert_same_optimum(parked((x, 5.25) for x in spots), cfg)
        assert_same_optimum(parked([(400.0, 1.75)] * 9), cfg)

    def test_no_direct_rbs(self):
        # k_lte < N: every direct amount is 0, so every bound ties the incumbent 0
        cfg = default_radio_config(k_lte=10)
        sc = generate(ScenarioSpec(n_vehicles=12, seed=5))
        assert not build_chunk_tables([sc], cfg)[0].v2i.any()
        opt = assert_same_optimum(sc, cfg)
        assert opt.n_av == 0 and opt.total_service == 0.0

    @pytest.mark.parametrize("k_dsrc", [1, 2, 5])
    def test_aided_cap_binds(self, k_dsrc):
        cfg = default_radio_config(k_dsrc=k_dsrc)
        for seed in (6, 7):
            opt = assert_same_optimum(generate(ScenarioSpec(n_vehicles=12, seed=seed)), cfg)
            assert opt.n_av <= k_dsrc

    def test_many_aided_vehicles(self):
        # a wide V2V pool makes 4 aided vehicles optimal, so the incumbent
        # rises across aided counts before the per-set bound meets the larger ones
        cfg = default_radio_config(k_dsrc=200)
        for seed in (1, 2, 3, 4):
            opt = assert_same_optimum(generate(ScenarioSpec(n_vehicles=10, seed=seed)), cfg)
            assert opt.n_av == 4

    @pytest.mark.parametrize(
        "radio, n, seed",
        [({}, 12, 1), ({"k_dsrc": 200}, 10, 1), ({"k_lte": 10}, 12, 5)],
        ids=["default", "wide-v2v", "no-direct-rbs"],
    )
    def test_screen_leaves_only_sets_that_can_win(self, monkeypatch, radio, n, seed):
        # only aided sets whose per-set bound beats the running incumbent have
        # their pairings enumerated, the same sets in the same order as when
        # every count is visited: a count the count bound skips holds no set
        # that passes.  With default radios that is 2 of the 2 509 aided sets,
        # with a wide V2V pool 137 of 637; with no direct RBs every bound ties
        # the incumbent 0, so no set is enumerated
        cfg = default_radio_config(**radio)
        sc = generate(ScenarioSpec(n_vehicles=n, seed=seed))
        tables = build_chunk_tables([sc], cfg)[0]
        want = []
        enumerated_optimum(tables, passed=want)
        got = []

        def combinations(pool, r):
            # the relay pools are the only pools smaller than the fleet
            if len(pool) < n:
                got.append(tuple(i for i in range(n) if i not in pool))
            return itertools.combinations(pool, r)

        monkeypatch.setattr(
            scheduler_module,
            "itertools",
            types.SimpleNamespace(combinations=combinations, permutations=itertools.permutations),
        )
        solve_optimal_bruteforce(tables)
        assert got == want
        if radio.get("k_lte") == 10:
            assert got == []
        else:
            every_set = sum(math.comb(n, n_av) for n_av in range(1, n // 2 + 1))
            assert 0 < len(got) < every_set

    @pytest.mark.parametrize(
        "radio, n, seed, every_count",
        [({}, 12, 1, False), ({"k_dsrc": 200}, 10, 1, True), ({"k_lte": 10}, 12, 5, True)],
        ids=["default", "wide-v2v", "no-direct-rbs"],
    )
    def test_count_bound_skips_only_counts_that_cannot_win(
        self, monkeypatch, radio, n, seed, every_count
    ):
        # a count is kept exactly when the direct total plus its n_av largest
        # gains (a column's largest benefit over its direct amount), plus the
        # margin, beats the incumbent at the start of the count; every aided
        # set of a kept count, and none of a skipped one, then reaches
        # `direct_sum` in lexicographic order, after the one all-direct call.
        # With default radios the top counts are skipped; with a wide V2V
        # pool every count can win; with no direct RBs every bound ties the
        # incumbent 0, so the margin lets every count through
        cfg = default_radio_config(**radio)
        sc = generate(ScenarioSpec(n_vehicles=n, seed=seed))
        tables = build_chunk_tables([sc], cfg)[0]
        starts = []
        enumerated_optimum(tables, starts)
        every = np.arange(n)
        v2i = tables.v2i.tolist()
        can_win = []
        for n_av, incumbent in enumerate(starts, start=1):
            w = tables.benefit(every[:, None], every, n_av).tolist()
            gains = sorted(max(w[r][a] for r in range(n)) - v2i[a] for a in range(n))
            bound = tables.direct_sum(set()) + sum(gains[n - n_av:])
            if bound + 1e-9 * (1.0 + abs(bound)) > incumbent:
                can_win.append(n_av)
        calls = []
        real = ServiceTables.direct_sum

        def counting(self, aided):
            calls.append(tuple(sorted(aided)))
            return real(self, aided)

        monkeypatch.setattr(ServiceTables, "direct_sum", counting)
        solve_optimal_bruteforce(tables)
        assert calls == [()] + [
            av for n_av in can_win for av in itertools.combinations(range(n), n_av)
        ]
        if every_count:
            assert can_win == list(range(1, len(starts) + 1))
        else:
            assert can_win[-1] < len(starts)

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(
        n=st.integers(0, 10),
        seed=st.integers(0, 2**32 - 1),
        k_dsrc=st.sampled_from([1, 3, 25, 200]),
    )
    def test_matches_unpruned_enumerator(self, n, seed, k_dsrc):
        sc = generate(ScenarioSpec(n_vehicles=n, seed=seed))
        assert_same_optimum(sc, default_radio_config(k_dsrc=k_dsrc))

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(n=st.integers(0, 10), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_dominance_and_relabelling(self, cfg, n, seed, data):
        sc = generate(ScenarioSpec(n_vehicles=n, seed=seed))
        tables = build_chunk_tables([sc], cfg)[0]
        opt = solve_optimal_bruteforce(tables)
        msrs = solve_msrs(tables)
        noncoop = solve_noncooperative(tables)
        assert opt.total_service >= msrs.total_service >= noncoop.total_service
        # neither the optimum nor msrs depends on which id each vehicle carries
        order = data.draw(st.permutations(range(n)))
        relabelled = Scenario(sc.bs, sc.motion[list(order)], sc.period)
        again = solve_optimal_bruteforce(build_chunk_tables([relabelled], cfg)[0])
        assert again.total_service == pytest.approx(opt.total_service, rel=1e-12)
        assert_msrs_relabels(relabelled, order, msrs, cfg)

    @pytest.mark.parametrize("n", [40, 100])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_msrs_relabelling_at_scale(self, cfg, n, seed):
        sc = generate(ScenarioSpec(n_vehicles=n, seed=seed))
        order = np.random.default_rng(seed).permutation(n).tolist()
        relabelled = Scenario(sc.bs, sc.motion[order], sc.period)
        msrs = solve_msrs(build_chunk_tables([sc], cfg)[0])
        assert_msrs_relabels(relabelled, order, msrs, cfg)


def assert_msrs_relabels(relabelled, order, msrs, cfg):
    """msrs on `relabelled`, whose vehicle k is `msrs`'s vehicle order[k], pairs the same vehicles."""
    again = solve_msrs(build_chunk_tables([relabelled], cfg)[0])
    assert {order[a]: order[r] for a, r in again.pairing.items()} == msrs.pairing
    assert again.total_service == pytest.approx(msrs.total_service, rel=1e-12)


class TestScalingBenchmark:
    def test_pipeline_scales_politely(self, cfg):
        # benchmark, not an assertion on the exponent: print per-size timings
        timings = {}
        for n in (25, 50, 100, 200):
            sc = generate(ScenarioSpec(n_vehicles=n, seed=77))
            tables = build_chunk_tables([sc], cfg)[0]
            t0 = time.perf_counter()
            solve_msrs(tables)
            timings[n] = time.perf_counter() - t0
        print("msrs solve seconds by fleet size:", {n: f"{t:.4f}" for n, t in timings.items()})
        assert timings[200] < 5.0  # sanity only; the real bound is the acceptance budget
