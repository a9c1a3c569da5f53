"""Scheduling policies for the relay-aided vehicular downlink.

A schedule is a one-to-one pairing of aided vehicles (AV) to relays (RV);
every other vehicle is a common vehicle (CV).
Relays and common vehicles receive their direct downlink service; each aided
vehicle receives the two-hop service of its relay pair (the weaker of the
relay's downlink amount and the relay-to-vehicle amount).  That objective is
written once, on `ServiceTables`: `direct_sum` for the vehicles that are not
aided and `two_hop` (read through `benefit`) for the pairs.  Every policy
searches or scores with it.  The tables have one reader of V2V amounts,
`v2v`, which integrates a pair when a policy first reads it, unless
`require_every_pair` (every pair) or `plan_searches` (each msrs search
block) has computed it beforehand for several tables in shared kernel
calls of at most about 5000 links.
Four policies are provided, each a function of a scenario's service tables
(`build_chunk_tables`).  irrs also takes rate tables: the service tables
of `Scenario.held_still()`, whose links are static over a 1 s period, so
each amount is the link's instantaneous rate at the period start:

* `solve_msrs`            -- service-integral driven: sort by direct service,
                             take the weakest vehicles as aided, pair them
                             against the rest with the assignment solver, and
                             search the aided-vehicle count for the best total:
                             counts are solved best bound first, until no
                             bound can beat the best total; among equal
                             totals the smallest count wins.  With no direct
                             amounts the all-direct schedule wins unsolved.
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

The sort-select-pair pipeline costs O(N^3 log N) in the fleet size while
N/2 <= k_dsrc, where the aided cap grows with N.  Above that the cap stays
k_dsrc, and each layer (block integration, plan, assignment search) grows
about linearly in N.  The bound order leaves about two assignment solves
per search on fleets of 20 to 200 vehicles.  A search reads one N x min(N/2, k_dsrc) block of V2V
amounts (`_search_block`: 2175 distinct links at N=100) and searches by its
table's plan: the vehicle order, the bound of every aided count and the
benefit matrices.  `plan_searches` integrates the blocks of a whole chunk
of trials in shared kernel calls, then plans them in array calls shared by
the tables of one fleet size and k_dsrc, and stores each plan on its table;
a search on a table without one plans it alone.  The counts that share one
V2V RB share (9 levels at k_dsrc = 25) share one two-hop block cut from the
stacked blocks, whose column maxima grow one row per count, and every
count's benefit matrix is a view of its level's block.  The
oracle visits every aided set of each count its count bound keeps: with
default radios usually only the 12 sets of n_av = 1 at N=12, but up to
2 509 sets, a number that about doubles with every vehicle (hence the cap).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .assignment import BenefitMatrix, solve_max_assignment
from .channel import RadioConfig, rate_two_hop, rb_share
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
    full fleet already applied.  `v2v(rows, cols)` reads the relay links'
    per-RB amounts between the pairs `rows` x `cols` (symmetric); the
    aided-count-dependent RB share multiplies them on demand, so one table
    serves every candidate n_av.  Built from `Scenario.held_still()`, the
    same tables hold instantaneous rates.

    V2V pairs are integrated on first read: `v2v_unit` holds NaN for a pair
    nobody has read yet (the diagonal holds 0), and `v2v` computes the
    missing entries among the pairs it reads, stores them on both sides and
    returns them; `require_every_pair` and `plan_searches` compute them
    ahead of the reads for several tables at once.  `link` holds the
    V2V arguments of `unit_service_batch` after the motion rows; each pair's
    row is the difference of two rows of `motion`, the scenario's vehicle
    rows.  Without it the table is dense.
    `unconverged` counts this table's computed links whose quadrature hit
    its refinement cap.  `plan` is the table's msrs search plan, once
    `plan_searches` or a search has made it.
    """

    v2i: np.ndarray
    v2v_unit: np.ndarray
    k_dsrc: int
    motion: np.ndarray | None = field(default=None, repr=False, compare=False)
    link: tuple | None = field(default=None, repr=False, compare=False)
    unconverged: int = 0
    plan: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def n(self) -> int:
        return len(self.v2i)

    def v2v(self, rows, cols) -> np.ndarray:
        """Per-RB V2V amounts of the pairs `rows` x `cols`, integrating the missing ones first.

        The index arrays broadcast, as in `v2v_unit[rows, cols]`.
        """
        _fill([(self, rows, cols)])
        return self.v2v_unit[rows, cols]

    def two_hop(self, unit, direct, n_av: int) -> np.ndarray:
        """Two-hop amounts of relays with direct amounts `direct` over per-RB V2V amounts `unit`.

        n_av aided vehicles share the V2V RBs; the arrays broadcast.
        """
        return rate_two_hop(rb_share(self.k_dsrc, n_av) * unit, direct)

    def benefit(self, rows, cols, n_av: int) -> np.ndarray:
        """Two-hop amounts of relays `rows` serving aided `cols` when n_av share the V2V RBs.

        The index arrays broadcast.
        """
        return self.two_hop(self.v2v(rows, cols), self.v2i[rows], n_av)

    def direct_sum(self, aided) -> float:
        """Direct amounts of every vehicle not aided, summed in ascending id order.

        `aided` holds the aided ids: a pairing (its keys) or a set.  An
        aided vehicle adds 0.0, which leaves every partial sum as it is.
        """
        kept = self.v2i.copy()
        kept[list(aided)] = 0.0
        return _left_sum(kept)


#: Most links `_fill` puts into one kernel call, whole tables at a time; a
#: table whose missing links alone are more goes into a call of its own.
#: Two N=100 search blocks (2 x 2175 links) share a call.  Past the budget
#: a call's arrays grow with its links: a chunk of 8 such blocks in one call
#: raised a run's peak memory by about a fifth, and saved no more time.
_CALL_LINKS = 5000


def _fill(requests) -> None:
    """Compute the missing V2V entries among the requested pairs, in shared kernel calls.

    Each request is (table, rows, cols): broadcastable index arrays of
    pairs, whose NaN entries are the missing ones.  Each table's missing
    pairs are stacked in ascending (i, j) order, i < j, after the previous
    table's.  A call takes the next tables while they share its table's
    `link` and its links stay within `_CALL_LINKS`.  `requests` may be an
    iterator, so only the pending call's pairs are held; a dense table (no
    `link`) or one with nothing missing adds no link, and when nothing is
    missing no kernel call is made.  A link's value does not depend on its
    batch, so a table holds the same amounts as its own reads would give.
    """
    call, links = [], 0
    for t, rows, cols in requests:
        if t.link is None:
            continue
        missing = np.isnan(t.v2v_unit[rows, cols])
        if not missing.any():
            continue
        n = t.n
        # one flat key i * N + j per pair, lower id first as in the motion
        # rows; a flat mark drops the repeats and orders them ascending
        mark = np.zeros(n * n, dtype=bool)
        mark[(np.minimum(rows, cols) * n + np.maximum(rows, cols))[missing]] = True
        keys = np.flatnonzero(mark)
        if call and (t.link != call[0][0].link or links + len(keys) > _CALL_LINKS):
            _integrate(call)
            call, links = [], 0
        call.append((t, keys))
        links += len(keys)
    if call:
        _integrate(call)


def _integrate(call) -> None:
    """One kernel call for the pairs (table, flat keys) of `call`, stored on both sides of each table.

    Each table counts only its own links in `unconverged`.
    """
    call = [(t, *np.divmod(keys, t.n)) for t, keys in call]
    # the module global is looked up per call, so a wrapper installed on it
    # sees every integrated pair
    values, converged = unit_service_batch(
        np.concatenate([t.motion.take(i, 0) - t.motion.take(j, 0) for t, i, j in call]),
        *call[0][0].link)
    start = 0
    for t, i, j in call:
        end = start + len(i)
        t.v2v_unit[i, j] = t.v2v_unit[j, i] = values[start:end]
        t.unconverged += int(np.count_nonzero(~converged[start:end]))
        start = end


def require_every_pair(tables: list[ServiceTables]) -> None:
    """Compute every unknown V2V entry of several tables in shared kernel calls."""
    _fill((t, np.arange(t.n)[:, None], np.arange(t.n)) for t in tables)


def build_chunk_tables(
    scenarios: list[Scenario], cfg: RadioConfig, quad: QuadratureSpec = QuadratureSpec()
) -> list[ServiceTables]:
    """Service-integral tables of scenarios that share one period, one per scenario.

    Every direct link of every scenario is integrated now, in one
    `unit_service_batch` call; V2V pairs wait for a read, or for
    `require_every_pair` or `plan_searches` over any of the returned tables,
    which share one `link`.  A link's value does not depend on its
    batch, so each table is the one its scenario would get alone.
    """
    if not scenarios:
        return []
    period = scenarios[0].period
    if any(sc.period != period for sc in scenarios):
        raise ValueError("a chunk's scenarios must share one period")
    link = (cfg.v2v_model, cfg.p_vn_per_rb, cfg.noise_v2v_per_rb, period, quad)
    unit_bs, converged = unit_service_batch(
        np.concatenate([sc.motion - sc.bs for sc in scenarios]),
        cfg.v2i_model, cfg.p_bs_per_rb, cfg.noise_v2i_per_rb, period, quad,
    )
    ends = np.cumsum([sc.n for sc in scenarios])[:-1]
    tables = []
    for sc, unit, ok in zip(scenarios, np.split(unit_bs, ends), np.split(converged, ends)):
        # per-RB direct amounts times the fleet's cellular RB share, V2V pairs unknown
        v2v_unit = np.full((sc.n, sc.n), np.nan)
        np.fill_diagonal(v2v_unit, 0.0)
        tables.append(ServiceTables(rb_share(cfg.k_lte, sc.n) * unit if sc.n else unit, v2v_unit,
                                    cfg.k_dsrc, sc.motion, link, int(np.count_nonzero(~ok))))
    return tables


def _left_sum(values: np.ndarray) -> float:
    """Sum of a float array added left to right, from 0.0.

    These are the bits of Python 3.11's `sum` of the same floats; from
    Python 3.12 on, `sum` compensates its roundoff and can give others.
    `np.add.accumulate` adds in order, unlike the pairwise `np.sum`.
    """
    return float(np.add.accumulate(values)[-1]) if len(values) else 0.0


def _search_order(v2i: np.ndarray) -> np.ndarray:
    """Vehicles by descending direct amount, ties by ascending id, along the last axis."""
    return np.argsort(-v2i, axis=-1, kind="stable")


def _search_block(tables: ServiceTables, order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of the V2V block an msrs search on `tables` reads.

    The rows are every vehicle in `_search_order`, as an (N, 1) column; the
    columns are the last `cap` of them, the weakest.  Every candidate count
    pairs all vehicles against the `cap` weakest at most: count n_av reads
    the block's first N - n_av rows and last n_av columns.
    """
    return order[:, None], order[tables.n - _aided_cap(tables.n, tables.k_dsrc):]


def _partition_total(tables: ServiceTables, pairing: dict[int, int]) -> float:
    """Objective value of a pairing: direct amounts plus paired two-hop amounts.

    Summation order is pinned (ascending ids, direct part then relay part) so
    that every policy and re-evaluation reproduces identical floats.
    """
    direct = tables.direct_sum(pairing)
    if not pairing:
        return direct
    aided = sorted(pairing)
    # index arrays, so that `benefit`'s mask, read and direct amounts do not
    # each convert a list
    relays = np.array([pairing[j] for j in aided])
    return direct + _left_sum(tables.benefit(relays, np.array(aided), len(aided)))


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


def plan_searches(tables: list[ServiceTables]) -> None:
    """Plan the msrs search of each of several tables, in shared kernel and array calls.

    A plan is (order, counts): `order` lists the vehicles by descending
    direct amount, ties by ascending id, and `counts` holds each aided count
    as (bound, n_av, benefit), best bound first and the smaller count first
    among equal bounds.  `benefit` is the two-hop block of the count's share
    level, whose first N - n_av rows and last n_av columns are the count's
    benefit matrix (`order`'s rows against its weakest vehicles), and
    `bound` is the direct amounts of the N - n_av strongest vehicles plus
    that matrix's column maxima.  The missing entries of every table's
    search block (`_search_block`) are integrated first, in shared kernel
    calls in the order the tables are given.  Then the tables of one
    (N, k_dsrc) are planned together, each step one array call over the
    stacked tables, and each plan is stored on its table as `plan`.  A plan
    does not depend on the tables planned with it.  A table with no direct
    amounts is neither filled nor planned: `solve_msrs` needs no plan there.
    """
    planned = [t for t in tables if t.v2i.any()]
    _fill((t, *_search_block(t, _search_order(t.v2i))) for t in planned)
    groups: dict[tuple[int, int], list[ServiceTables]] = {}
    for t in planned:
        groups.setdefault((t.n, t.k_dsrc), []).append(t)
    for group in groups.values():
        for t, plan in zip(group, _plan_group(group)):
            t.plan = plan


def _stack(arrays: list[np.ndarray]) -> np.ndarray:
    """The arrays stacked on a new first axis; one array becomes a view, not a copy."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def _plan_group(group: list[ServiceTables]) -> list[tuple[list[int], list[tuple]]]:
    """The plans of B tables of one fleet size and one k_dsrc, from (B, ...) arrays."""
    n, k = group[0].n, group[0].k_dsrc
    cap = _aided_cap(n, k)
    v2i = _stack([t.v2i for t in group])
    order = _search_order(v2i)
    direct = v2i[np.arange(len(group))[:, None], order][:, :, None]
    block = _stack([t.v2v(*_search_block(t, rows)) for t, rows in zip(group, order)])
    # sums[i]: each table's column maxima summed over count cap - i's columns
    sums = np.empty((cap, len(group)))
    levels, level_of = [], []
    share = 0
    for n_av in range(cap, 0, -1):
        if k // n_av != share:
            # the counts first..n_av share one V2V RB share and so one
            # two-hop block: the rows of count first, the columns of n_av
            share = k // n_av
            first = k // (share + 1) + 1
            w = group[0].two_hop(block[:, : n - first, cap - n_av:], direct[:, : n - first], n_av)
            levels.append(w)
            # column maxima bound the matching
            peak = np.maximum.reduce(w[:, : n - n_av], axis=1)
        else:
            # one more row for each smaller count of the level
            np.maximum(peak, w[:, n - n_av - 1], out=peak)
        np.add.reduce(peak[:, -n_av:], axis=1, out=sums[cap - n_av])
        level_of.append(len(levels) - 1)
    # count n_av's bound adds the direct amounts of the N - n_av strongest
    # vehicles, the running sum's entry N - n_av - 1
    bounds = np.cumsum(direct[:, :, 0], axis=1)[:, n - cap - 1:n - 1] + sums.T
    plans = []
    for t, (rows, row_bounds) in enumerate(zip(order.tolist(), bounds.tolist())):
        mine = [w[t] for w in levels]
        counts = [(bound, cap - i, mine[level])
                  for i, (bound, level) in enumerate(zip(row_bounds, level_of))]
        counts.sort(key=lambda count: (-count[0], count[1]))
        plans.append((rows, counts))
    return plans


def solve_msrs(tables: ServiceTables) -> Schedule:
    """Service-integral-driven schedule: sort, select, pair, search the AV count.

    For each count n_av the n_av weakest vehicles are aided and paired with
    relays among the rest; rows that win no aided vehicle stay common vehicles.
    The counts are solved best bound first, so the search stops at the first
    count whose bound cannot beat the best total.  The largest total wins,
    the smallest n_av among equal totals.  The search follows `tables.plan`,
    which `plan_searches([tables])` makes first if the tables have none.
    When every direct amount is 0 no total can beat the all-direct 0, and
    ties keep the smaller count, so the search returns the all-direct
    schedule without planning or solving.
    """
    best = Schedule({}, _partition_total(tables, {}))
    if not tables.v2i.any():
        return best
    if tables.plan is None:
        plan_searches([tables])
    order, counts = tables.plan
    n = tables.n
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
    the instantaneous rate at the period start (the service tables of
    `Scenario.held_still()`, searched by their own plan).  The chosen
    pairing is then scored with the mobile-service tables so totals are
    comparable across policies.
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
    unit = tables.v2v(np.arange(n)[:, None], np.arange(n))
    ids = list(range(n))

    best_total = total_direct = _partition_total(tables, {})
    best_pairing: dict[int, int] = {}
    for n_av in range(1, _aided_cap(n, tables.k_dsrc) + 1):
        w_arr = tables.two_hop(unit, tables.v2i[:, None], n_av)
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
            most = 0.0  # each aided vehicle's largest benefit, added in order
            for a in av:
                most += max(w[r][a] for r in rest)
            bound = direct + most
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
