"""Scheduling policies for the relay-aided vehicular downlink.

A schedule partitions the fleet into relays (RV), aided vehicles (AV) and
common vehicles (CV), with a one-to-one pairing of relays to aided vehicles.
Relays and common vehicles receive their direct downlink service; each aided
vehicle receives the two-hop service of its relay pair (the weaker of the
relay's downlink amount and the relay-to-vehicle amount).  That objective is
written once, on `ServiceTables`: `direct_sum` for the vehicles that are not
aided and `two_hop` (read through `benefit`) for the pairs.  Every policy
searches or scores with it.  Service and rate tables alike compute a V2V pair
only when a policy first requires it, unless `require_every_pair` has
computed every pair of several tables in one kernel call beforehand.
Four policies are provided, each called as `(scenario, cfg, tables=None)`:

* `solve_msrs`            -- service-integral driven: sort by direct service,
                             take the weakest vehicles as aided, pair them
                             against the rest with the assignment solver, and
                             search the aided-vehicle count for the best total:
                             counts are solved best bound first, until no
                             bound can beat the best total; among equal
                             totals the smallest count wins.
* `solve_irrs`            -- the identical pipeline driven by instantaneous
                             rates at the period start; the returned schedule
                             is still scored by service integrals.
* `solve_noncooperative`  -- everyone talks to the BS directly.
* `solve_optimal_bruteforce` -- exact maximizer over all partitions and
                             pairings: a bound per aided count skips the
                             counts that cannot beat the incumbent, a bound
                             per aided set skips the sets that cannot, and
                             the rest have their pairings enumerated; only
                             viable at small fleet sizes, used as the oracle.

The sort-select-pair pipeline costs O(N^3 log N) in the fleet size, but the
bound order leaves about two assignment solves per search on fleets of
20 to 200 vehicles.  A search gathers one N x min(N/2, k_dsrc) block of V2V
amounts, and every count's benefit matrix is a view of it.  The
oracle visits every aided set of each count its count bound keeps: with
default radios usually only the 12 sets of n_av = 1 at N=12, but up to
2 509 sets, a number that about doubles with every vehicle (hence the cap).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .assignment import BenefitMatrix, solve_max_assignment
from .channel import RadioConfig, rate_two_hop, rb_share, unit_rate
from .scenario import Scenario
from .service import QuadratureSpec, unit_service_batch

BRUTE_FORCE_VEHICLE_CAP = 12


class InvalidScheduleError(ValueError):
    """A schedule violates the partition, size or pairing constraints."""


@dataclass(frozen=True)
class Schedule:
    """A vehicle partition plus relay pairing and its evaluated total service."""

    av_set: frozenset[int]
    rv_set: frozenset[int]
    cv_set: frozenset[int]
    pairing: dict[int, int] = field(default_factory=dict)  # aided id -> relay id
    n_av: int = 0
    total_service: float = 0.0


def validate_schedule(schedule: Schedule, n_vehicles: int) -> None:
    """Raise InvalidScheduleError unless the schedule is structurally sound."""
    av, rv, cv = schedule.av_set, schedule.rv_set, schedule.cv_set
    everyone = set(range(n_vehicles))
    if av | rv | cv != everyone or len(av) + len(rv) + len(cv) != n_vehicles:
        raise InvalidScheduleError("AV/RV/CV sets must partition the vehicle ids")
    if len(av) != len(rv) or schedule.n_av != len(av):
        raise InvalidScheduleError(
            f"need as many relays as aided vehicles, got {len(rv)} vs {len(av)}"
        )
    if schedule.n_av > n_vehicles // 2:
        raise InvalidScheduleError(f"n_av={schedule.n_av} exceeds floor(N/2)")
    if set(schedule.pairing) != av or set(schedule.pairing.values()) != rv:
        raise InvalidScheduleError("pairing must be a bijection from AV set onto RV set")
    if len(set(schedule.pairing.values())) != len(schedule.pairing):
        raise InvalidScheduleError("a relay cannot serve two aided vehicles")


@dataclass
class ServiceTables:
    """Per-vehicle direct amounts and per-pair unit amounts for one scenario.

    `v2i[i]` is vehicle i's direct downlink amount with the RB share for the
    full fleet already applied.  `v2v_unit[i, j]` is the relay link's per-RB
    amount between i and j (symmetric); the aided-count-dependent RB share
    multiplies it on demand, so one table serves every candidate n_av.  The
    same structure holds instantaneous rates when built by
    `build_rate_tables`.

    Both builders fill V2V pairs on first use: an entry nobody has asked for
    yet holds NaN (the diagonal holds 0).  `require(rows, cols)` computes the
    missing entries among the given pairs and stores them on both sides; a
    reader that skips it gets NaN, which `BenefitMatrix` rejects.
    `v2v_kernel` computes them: a function `motions -> (values, converged)`
    over (P, 4) relative-motion rows, each the difference of two rows of
    `motion`, the scenario's vehicle rows.  Without it the table is dense and
    `require` does nothing.  `unconverged` counts this table's computed links
    whose quadrature hit its refinement cap.
    """

    v2i: np.ndarray
    v2v_unit: np.ndarray
    k_dsrc: int
    motion: np.ndarray | None = field(default=None, repr=False, compare=False)
    v2v_kernel: Callable | None = field(default=None, repr=False, compare=False)
    unconverged: int = 0

    def require(self, rows, cols) -> None:
        """Compute the unknown V2V entries among broadcastable index arrays `rows` x `cols`."""
        if self.v2v_kernel is None:
            return
        missing = np.isnan(self.v2v_unit[rows, cols])
        if not missing.any():
            return
        rows = np.broadcast_to(rows, missing.shape)[missing]
        cols = np.broadcast_to(cols, missing.shape)[missing]
        # one entry per unordered pair, lower id first as in the motion rows,
        # in ascending (i, j) order
        mark = np.zeros(self.v2v_unit.shape, dtype=bool)
        mark[np.minimum(rows, cols), np.maximum(rows, cols)] = True
        i, j = np.nonzero(mark)
        self._store(i, j, *self.v2v_kernel(self.motion[i] - self.motion[j]))

    def _store(self, i, j, values, converged) -> None:
        self.v2v_unit[i, j] = values
        self.v2v_unit[j, i] = values
        self.unconverged += int(np.count_nonzero(~converged))

    def two_hop(self, unit, direct, n_av: int) -> np.ndarray:
        """Two-hop amounts of relays with direct amounts `direct` over per-RB V2V amounts `unit`.

        n_av aided vehicles share the V2V RBs; the arrays broadcast.
        """
        return rate_two_hop(rb_share(self.k_dsrc, n_av) * unit, direct)

    def benefit(self, rows, cols, n_av: int) -> np.ndarray:
        """Two-hop amounts of relays `rows` serving aided `cols` when n_av share the V2V RBs.

        The index arrays broadcast; their V2V entries must have been required.
        """
        return self.two_hop(self.v2v_unit[rows, cols], self.v2i[rows], n_av)

    def direct_sum(self, aided: set) -> float:
        """Direct amounts of every vehicle not in the set `aided`, summed in ascending id order."""
        return sum(x for i, x in enumerate(self.v2i.tolist()) if i not in aided)


def require_every_pair(tables: list[ServiceTables]) -> None:
    """Compute every unknown V2V entry of several tables in one kernel call.

    The tables must share one `v2v_kernel`, as the tables of one
    `build_chunk_tables` call do.  Their links are stacked table by table,
    each table's in ascending (i, j) order, and each table keeps its own
    values and counts only its own links in `unconverged`; a link's value
    does not depend on its batch, so a table reads the same amounts as its
    own `require` would give.
    """
    tables = [t for t in tables if t.v2v_kernel is not None]
    if not tables:
        return
    kernel = tables[0].v2v_kernel
    if any(t.v2v_kernel is not kernel for t in tables):
        raise ValueError("tables filled together must share one V2V kernel")
    # the unknown entries above the diagonal, in ascending (i, j) order
    pairs = [np.nonzero(np.triu(np.isnan(t.v2v_unit))) for t in tables]
    sizes = [len(i) for i, _ in pairs]
    if not sum(sizes):
        return
    values, converged = kernel(np.concatenate(
        [t.motion[i] - t.motion[j] for t, (i, j) in zip(tables, pairs)]))
    ends = np.cumsum(sizes)[:-1]
    for t, (i, j), vals, ok in zip(tables, pairs, np.split(values, ends),
                                   np.split(converged, ends)):
        t._store(i, j, vals, ok)


def _unknown_pairs(n: int) -> np.ndarray:
    """An n x n V2V table with every off-diagonal entry still to be required."""
    v2v_unit = np.full((n, n), np.nan)
    np.fill_diagonal(v2v_unit, 0.0)
    return v2v_unit


def build_chunk_tables(
    scenarios: list[Scenario], cfg: RadioConfig, quad: QuadratureSpec = QuadratureSpec()
) -> list[ServiceTables]:
    """Service-integral tables of scenarios that share one period, one per scenario.

    Every direct link of every scenario is integrated now, in one
    `unit_service_batch` call; V2V pairs wait for `require`, or for
    `require_every_pair` over any of the returned tables, which share one
    kernel.  A link's value does not depend on its batch, so each table is
    the one its scenario would get alone.
    """
    if not scenarios:
        return []
    period = scenarios[0].period
    if any(sc.period != period for sc in scenarios):
        raise ValueError("a chunk's scenarios must share one period")
    link = (cfg.v2v_model, cfg.p_vn_per_rb, cfg.noise_v2v_per_rb, period, quad)

    def v2v_kernel(motions):
        # the module global is looked up per call, so a wrapper installed on
        # it sees every integrated pair
        return unit_service_batch(motions, *link)

    sizes = [sc.n for sc in scenarios]
    unit_bs, converged = np.zeros(0), np.ones(0, dtype=bool)
    if sum(sizes):
        unit_bs, converged = unit_service_batch(
            np.concatenate([sc.motion - sc.bs for sc in scenarios]),
            cfg.v2i_model, cfg.p_bs_per_rb, cfg.noise_v2i_per_rb, period, quad,
        )
    ends = np.cumsum(sizes)[:-1]
    return [
        ServiceTables(rb_share(cfg.k_lte, sc.n) * unit if sc.n else unit, _unknown_pairs(sc.n),
                      cfg.k_dsrc, sc.motion, v2v_kernel, int(np.count_nonzero(~ok)))
        for sc, unit, ok in zip(scenarios, np.split(unit_bs, ends), np.split(converged, ends))
    ]


def build_service_tables(
    scenario: Scenario, cfg: RadioConfig, quad: QuadratureSpec = QuadratureSpec()
) -> ServiceTables:
    """Service-integral tables: direct links integrated now, V2V pairs on `require`."""
    return build_chunk_tables([scenario], cfg, quad)[0]


def build_rate_tables(scenario: Scenario, cfg: RadioConfig) -> ServiceTables:
    """Instantaneous-rate tables at the period start (dt = 0), V2V rates on `require`."""
    n = scenario.n
    x, y = (scenario.motion - scenario.bs)[:, :2].T
    v2i = unit_rate(cfg.v2i_model, cfg.p_bs_per_rb, cfg.noise_v2i_per_rb, x * x + y * y)

    def v2v_kernel(motions):
        x, y = motions[:, 0], motions[:, 1]
        rates = unit_rate(cfg.v2v_model, cfg.p_vn_per_rb, cfg.noise_v2v_per_rb, x * x + y * y)
        return rates, np.ones(len(rates), dtype=bool)

    return ServiceTables(rb_share(cfg.k_lte, n) * v2i if n else v2i, _unknown_pairs(n),
                         cfg.k_dsrc, scenario.motion, v2v_kernel)


def _partition_total(tables: ServiceTables, av_ids, pairing: dict[int, int]) -> float:
    """Objective value of a partition: direct amounts plus paired two-hop amounts.

    Summation order is pinned (ascending ids, direct part then relay part) so
    that every policy and re-evaluation reproduces identical floats.
    """
    av_set = set(av_ids)
    direct = tables.direct_sum(av_set)
    if not av_set:
        return direct
    aided = sorted(av_set)
    relays = [pairing[j] for j in aided]
    tables.require(relays, aided)
    return direct + sum(tables.benefit(relays, aided, len(aided)).tolist())


def _schedule_from_parts(n: int, av_ids, pairing: dict[int, int], total: float) -> Schedule:
    av = frozenset(av_ids)
    rv = frozenset(pairing.values())
    cv = frozenset(range(n)) - av - rv
    return Schedule(av, rv, cv, dict(pairing), len(av), float(total))


def _aided_cap(n: int, k_dsrc: int) -> int:
    """Largest aided count worth trying.

    Past k_dsrc the V2V RB share is 0, so relaying adds nothing while the aided
    vehicles lose their direct service: such a partition can only tie with or
    lose to the all-direct one.
    """
    return min(n // 2, k_dsrc)


def _can_beat(bound: float, incumbent: float) -> bool:
    """Whether an upper bound leaves room to beat the incumbent total.

    The margin covers the roundoff between a bound and the totals it bounds,
    which are summed in other orders; a NaN bound is never pruned.
    """
    return not bound + 1e-9 * (1.0 + abs(bound)) <= incumbent


def _best_partition(tables: ServiceTables):
    """Search the aided-vehicle count; returns (total, av_ids, pairing).

    For each count n_av the n_av weakest vehicles are aided and paired with
    relays among the rest; rows that win no aided vehicle stay common vehicles.
    The counts are solved best bound first, so the search stops at the first
    count whose bound cannot beat the best total.  The largest total wins,
    the smallest n_av among equal totals.
    """
    n = tables.v2i.shape[0]
    # descending direct amount, ties by ascending id
    order = sorted(range(n), key=lambda i: (-tables.v2i[i], i))
    cap = _aided_cap(n, tables.k_dsrc)
    rows = np.array(order, dtype=int)[:, None]
    # every candidate count pairs all vehicles against the `cap` weakest at most;
    # count n_av reads the block's first n - n_av rows and last n_av columns
    tables.require(rows, order[n - cap:])
    block = tables.v2v_unit[rows, order[n - cap:]]
    direct = tables.v2i[rows]
    # kept[k]: the summed direct amounts of the k strongest vehicles
    kept = np.concatenate(([0.0], np.cumsum(tables.v2i[order])))
    counts = []
    for n_av in range(1, cap + 1):
        w = tables.two_hop(block[: n - n_av, cap - n_av:], direct[: n - n_av], n_av)
        # column maxima bound the matching
        counts.append((kept[n - n_av] + w.max(axis=0).sum(), n_av, w))
    counts.sort(key=lambda c: (-c[0], c[1]))
    best = (_partition_total(tables, (), {}), (), {})
    for bound, n_av, w in counts:
        # the incumbent only rises and the bounds only fall, so no later count
        # can win either
        if not _can_beat(bound, best[0]):
            break
        avs = order[n - n_av:]
        solved = solve_max_assignment(BenefitMatrix(w))
        pairing = {avs[c]: order[r] for c, r in solved.match.items()}
        total = _partition_total(tables, avs, pairing)
        if total > best[0] or (total == best[0] and n_av < len(best[1])):
            best = (total, tuple(avs), pairing)
    return best


def solve_msrs(
    scenario: Scenario, cfg: RadioConfig, tables: ServiceTables | None = None
) -> Schedule:
    """Service-integral-driven schedule (sort, select, pair, search the AV count)."""
    if tables is None:
        tables = build_service_tables(scenario, cfg)
    total, av_ids, pairing = _best_partition(tables)
    return _schedule_from_parts(scenario.n, av_ids, pairing, total)


def solve_irrs(
    scenario: Scenario, cfg: RadioConfig, tables: ServiceTables | None = None
) -> Schedule:
    """Rate-driven schedule: decisions use period-start rates, scoring uses integrals.

    The pipeline is identical to `solve_msrs` but every decision quantity is
    the instantaneous rate at the period start.  The chosen structure is then
    evaluated with mobile-service integrals so totals are comparable across
    policies.
    """
    _, av_ids, pairing = _best_partition(build_rate_tables(scenario, cfg))
    if tables is None:
        tables = build_service_tables(scenario, cfg)
    total = _partition_total(tables, av_ids, pairing)
    return _schedule_from_parts(scenario.n, av_ids, pairing, total)


def solve_noncooperative(
    scenario: Scenario, cfg: RadioConfig, tables: ServiceTables | None = None
) -> Schedule:
    """Everyone direct to the BS; no relaying, no V2V resource use."""
    if tables is None:
        tables = build_service_tables(scenario, cfg)
    total = _partition_total(tables, (), {})
    return _schedule_from_parts(scenario.n, (), {}, total)


def solve_optimal_bruteforce(
    scenario: Scenario,
    cfg: RadioConfig,
    tables: ServiceTables | None = None,
    cap: int = BRUTE_FORCE_VEHICLE_CAP,
) -> Schedule:
    """Exact optimum over every partition and pairing.

    The aided counts are visited in ascending order.  A count is skipped
    when the direct total plus its n_av largest gains cannot beat the
    incumbent, a vehicle's gain being its largest benefit as an aided vehicle
    minus its direct amount: every aided set of the count totals at most
    that.  Each of the C(N, n_av) aided sets of every other count, in
    lexicographic order, is bounded by its direct amounts plus each aided
    vehicle's largest benefit from a relay outside the set, and only a set
    whose bound beats the incumbent has its pairings enumerated.  With
    default radios the count bound usually leaves the 12 sets of n_av = 1
    at N=12, about 0.3 ms per fleet on a 2-vCPU Xeon once its V2V amounts
    are integrated, not ~3.6 million candidate schedules.  The cap bounds
    the sets a kept count visits, whose number about doubles per vehicle.
    """
    n = scenario.n
    if n > cap:
        raise ValueError(f"refusing exhaustive search for {n} vehicles; cap is {cap}")
    if tables is None:
        tables = build_service_tables(scenario, cfg)
    every = np.arange(n)
    tables.require(every[:, None], every)
    ids = list(range(n))

    total_direct = _partition_total(tables, (), {})
    best_total = total_direct
    best_av: tuple = ()
    best_pairing: dict[int, int] = {}
    for n_av in range(1, _aided_cap(n, tables.k_dsrc) + 1):
        w_arr = tables.benefit(every[:, None], every, n_av)
        # an aided vehicle gains at most its column maximum over its direct
        # amount, so the n_av largest gains bound every set of this count
        gain = np.sort(w_arr.max(axis=0) - tables.v2i)
        if not _can_beat(total_direct + gain[n - n_av:].sum(), best_total):
            continue
        w = w_arr.tolist()
        for av in itertools.combinations(ids, n_av):
            av_set = set(av)
            direct = tables.direct_sum(av_set)
            rest = [i for i in ids if i not in av_set]
            bound = direct + sum(max(w[r][a] for r in rest) for a in av)
            if bound <= best_total:
                continue
            for rvs in itertools.combinations(rest, n_av):
                for perm in itertools.permutations(rvs):
                    relay = 0.0
                    for r, a in zip(perm, av):
                        relay += w[r][a]
                    total = direct + relay
                    if total > best_total:
                        best_total = total
                        best_av = av
                        best_pairing = {a: r for r, a in zip(perm, av)}
    return _schedule_from_parts(n, best_av, best_pairing, best_total)
