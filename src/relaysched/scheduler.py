"""Scheduling policies for the relay-aided vehicular downlink.

A schedule is a one-to-one pairing of aided vehicles (AV) to relays (RV);
every other vehicle is a common vehicle (CV).
Relays and common vehicles receive their direct downlink service; each aided
vehicle receives the two-hop service of its relay pair (the weaker of the
relay's downlink amount and the relay-to-vehicle amount).  That objective is
written once, on `ServiceTables`: `direct_sum` for the vehicles that are not
aided and `two_hop` (read through `benefit`) for the pairs.  Every policy
searches or scores with it.  Service and rate tables alike compute a V2V pair
only when a policy first requires it, unless `require_every_pair` has
computed every pair of several tables in one kernel call beforehand.
Four policies are provided, each a function of a scenario's service tables
(`build_service_tables`); irrs also takes its rate tables (`build_rate_tables`):

* `solve_msrs`            -- service-integral driven: sort by direct service,
                             take the weakest vehicles as aided, pair them
                             against the rest with the assignment solver, and
                             search the aided-vehicle count for the best total:
                             counts are solved best bound first, until no
                             bound can beat the best total; among equal
                             totals the smallest count wins.
* `solve_irrs`            -- the identical pipeline driven by instantaneous
                             rates at the period start; the returned schedule
                             is still scored by the service tables.
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
amounts.  The counts that share one V2V RB share (9 levels at k_dsrc = 25)
share one two-hop block cut from it, whose column maxima grow one row per
count, and every count's benefit matrix is a view of its level's block.  The
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
    """A relay pairing and its evaluated total service.

    The aided vehicles are the pairing's keys, the relays its values, and
    every other vehicle is a common vehicle.
    """

    pairing: dict[int, int] = field(default_factory=dict)  # aided id -> relay id
    total_service: float = 0.0

    @property
    def av_set(self) -> frozenset[int]:
        return frozenset(self.pairing)

    @property
    def rv_set(self) -> frozenset[int]:
        return frozenset(self.pairing.values())

    @property
    def n_av(self) -> int:
        return len(self.pairing)


def validate_schedule(schedule: Schedule, n_vehicles: int) -> None:
    """Raise InvalidScheduleError unless the pairing is sound for vehicles 0..n_vehicles-1.

    Once every id is in range, no relay serves two aided vehicles and no
    vehicle is both aided and a relay, the pairs hold 2 n_av distinct ids,
    so n_av <= N/2 follows.
    """
    av, rv = schedule.av_set, schedule.rv_set
    if not all(0 <= i < n_vehicles for i in av | rv):
        raise InvalidScheduleError(f"vehicle ids must lie in 0..{n_vehicles - 1}")
    if len(rv) != len(av):
        raise InvalidScheduleError("a relay cannot serve two aided vehicles")
    if av & rv:
        raise InvalidScheduleError("a vehicle cannot be both aided and a relay")


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

    @property
    def n(self) -> int:
        return len(self.v2i)

    def require(self, rows, cols) -> None:
        """Compute the unknown V2V entries among broadcastable index arrays `rows` x `cols`."""
        if self.v2v_kernel is None:
            return
        missing = np.isnan(self.v2v_unit[rows, cols])
        if not missing.any():
            return
        n = self.n
        # one flat key i * N + j per pair, lower id first as in the motion
        # rows; a flat mark drops the repeats and orders them ascending
        keys = (np.minimum(rows, cols) * n + np.maximum(rows, cols))[missing]
        mark = np.zeros(n * n, dtype=bool)
        mark[keys] = True
        i, j = np.divmod(np.flatnonzero(mark), n)
        self._store(i, j, *self.v2v_kernel(self._motions(i, j)))

    def _motions(self, i, j) -> np.ndarray:
        """Relative-motion rows of the pairs (i, j), the kernel's input."""
        return self.motion.take(i, 0) - self.motion.take(j, 0)

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

    def direct_sum(self, aided) -> float:
        """Direct amounts of every vehicle not aided, summed in ascending id order.

        `aided` holds the aided ids: a pairing (its keys) or a set.
        """
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
        [t._motions(i, j) for t, (i, j) in zip(tables, pairs)]))
    ends = np.cumsum(sizes)[:-1]
    for t, (i, j), vals, ok in zip(tables, pairs, np.split(values, ends),
                                   np.split(converged, ends)):
        t._store(i, j, vals, ok)


def _lazy_tables(unit, motion, cfg: RadioConfig, v2v_kernel, unconverged: int = 0) -> ServiceTables:
    """One fleet's tables: per-RB direct amounts times its cellular RB share, V2V pairs unknown."""
    n = len(unit)
    v2v_unit = np.full((n, n), np.nan)
    np.fill_diagonal(v2v_unit, 0.0)
    return ServiceTables(rb_share(cfg.k_lte, n) * unit if n else unit, v2v_unit, cfg.k_dsrc,
                         motion, v2v_kernel, unconverged)


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
        _lazy_tables(unit, sc.motion, cfg, v2v_kernel, int(np.count_nonzero(~ok)))
        for sc, unit, ok in zip(scenarios, np.split(unit_bs, ends), np.split(converged, ends))
    ]


def build_service_tables(
    scenario: Scenario, cfg: RadioConfig, quad: QuadratureSpec = QuadratureSpec()
) -> ServiceTables:
    """Service-integral tables: direct links integrated now, V2V pairs on `require`."""
    return build_chunk_tables([scenario], cfg, quad)[0]


def build_rate_tables(scenario: Scenario, cfg: RadioConfig) -> ServiceTables:
    """Instantaneous-rate tables at the period start (dt = 0), V2V rates on `require`."""
    x, y = (scenario.motion - scenario.bs)[:, :2].T
    v2i = unit_rate(cfg.v2i_model, cfg.p_bs_per_rb, cfg.noise_v2i_per_rb, x * x + y * y)

    def v2v_kernel(motions):
        x, y = motions[:, 0], motions[:, 1]
        rates = unit_rate(cfg.v2v_model, cfg.p_vn_per_rb, cfg.noise_v2v_per_rb, x * x + y * y)
        return rates, np.ones(len(rates), dtype=bool)

    return _lazy_tables(v2i, scenario.motion, cfg, v2v_kernel)


def _partition_total(tables: ServiceTables, pairing: dict[int, int]) -> float:
    """Objective value of a pairing: direct amounts plus paired two-hop amounts.

    Summation order is pinned (ascending ids, direct part then relay part) so
    that every policy and re-evaluation reproduces identical floats.
    """
    direct = float(tables.direct_sum(pairing))
    if not pairing:
        return direct
    aided = sorted(pairing)
    relays = [pairing[j] for j in aided]
    tables.require(relays, aided)
    return direct + sum(tables.benefit(relays, aided, len(aided)).tolist())


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


def solve_msrs(tables: ServiceTables) -> Schedule:
    """Service-integral-driven schedule: sort, select, pair, search the AV count.

    For each count n_av the n_av weakest vehicles are aided and paired with
    relays among the rest; rows that win no aided vehicle stay common vehicles.
    The counts are solved best bound first, so the search stops at the first
    count whose bound cannot beat the best total.  The largest total wins,
    the smallest n_av among equal totals.
    """
    n = tables.n
    # descending direct amount, ties by ascending id
    v2i = tables.v2i.tolist()
    order = sorted(range(n), key=lambda i: (-v2i[i], i))
    cap = _aided_cap(n, tables.k_dsrc)
    rows = np.array(order, dtype=int)[:, None]
    # every candidate count pairs all vehicles against the `cap` weakest at most;
    # count n_av reads the block's first n - n_av rows and last n_av columns
    tables.require(rows, rows[n - cap:, 0])
    block = tables.v2v_unit[rows, rows[n - cap:, 0]]
    direct = tables.v2i[rows]
    # kept[k]: the summed direct amounts of the k strongest vehicles
    kept = np.concatenate(([0.0], np.cumsum(direct)))
    counts = []
    k, share = tables.k_dsrc, 0
    for n_av in range(cap, 0, -1):
        if k // n_av != share:
            # the counts first..n_av share one V2V RB share and so one
            # two-hop block: the rows of count first, the columns of n_av
            share = k // n_av
            first = k // (share + 1) + 1
            w = tables.two_hop(block[: n - first, cap - n_av:], direct[: n - first], n_av)
            # column maxima bound the matching
            peak = w[: n - n_av].max(axis=0)
        else:
            # one more row for each smaller count of the level
            np.maximum(peak, w[n - n_av - 1], out=peak)
        counts.append((kept[n - n_av] + peak[-n_av:].sum(), n_av, w))
    counts.sort(key=lambda c: (-c[0], c[1]))
    best = Schedule({}, _partition_total(tables, {}))
    for bound, n_av, w in counts:
        # the incumbent only rises and the bounds only fall, so no later count
        # can win either
        if not _can_beat(bound, best.total_service):
            break
        avs = order[n - n_av:]
        solved = solve_max_assignment(BenefitMatrix(w[: n - n_av, -n_av:]))
        pairing = {avs[c]: order[r] for c, r in solved.match.items()}
        total = _partition_total(tables, pairing)
        if total > best.total_service or (total == best.total_service and n_av < best.n_av):
            best = Schedule(pairing, total)
    return best


def solve_irrs(tables: ServiceTables, rates: ServiceTables) -> Schedule:
    """Rate-driven schedule: decisions use the period-start `rates`, scoring uses `tables`.

    The pipeline is identical to `solve_msrs` but every decision quantity is
    the instantaneous rate at the period start (`build_rate_tables`).  The
    chosen pairing is then scored with the mobile-service tables so totals
    are comparable across policies.
    """
    pairing = solve_msrs(rates).pairing
    return Schedule(pairing, _partition_total(tables, pairing))


def solve_noncooperative(tables: ServiceTables) -> Schedule:
    """Everyone direct to the BS; no relaying, no V2V resource use."""
    return Schedule({}, _partition_total(tables, {}))


def solve_optimal_bruteforce(tables: ServiceTables, cap: int = BRUTE_FORCE_VEHICLE_CAP) -> Schedule:
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
    n = tables.n
    if n > cap:
        raise ValueError(f"refusing exhaustive search for {n} vehicles; cap is {cap}")
    every = np.arange(n)
    tables.require(every[:, None], every)
    ids = list(range(n))

    best_total = total_direct = _partition_total(tables, {})
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
                        best_pairing = {a: r for r, a in zip(perm, av)}
    return Schedule(best_pairing, best_total)
