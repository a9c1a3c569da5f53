"""Scheduling policies for the relay-aided vehicular downlink.

A schedule is a one-to-one pairing of aided vehicles (AV) to relays (RV);
every other vehicle is a common vehicle (CV).
Relays and common vehicles receive their direct downlink service; each aided
vehicle receives the two-hop service of its relay pair (the weaker of the
relay's downlink amount and the relay-to-vehicle amount).  That objective is
written once, on `ServiceTables`: `direct_sum` for the vehicles that are not
aided and `two_hop` (read through `benefit`) for the pairs.  Every policy
searches or scores with it.  V2V amounts are integrated on first need,
in kernel calls that several tables share (`_in_calls`, at most about
5000 links each): a policy's read through `v2v` integrates the pairs it
finds missing, `require_every_pair` every pair of several tables, and
`plan_searches` the missing entries of each msrs search block, which it
reads once and fills along with the table.
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
                             the rest have their pairings scored; only
                             viable at small fleet sizes, used as the oracle.

The sort-select-pair pipeline costs O(N^3 log N) in the fleet size while
N/2 <= k_dsrc, where the aided cap grows with N.  Above that the cap stays
k_dsrc, and each layer (block integration, plan, assignment search) grows
about linearly in N.  The bound order leaves about two assignment solves
per search on fleets of 20 to 200 vehicles.  A search's plan reads one
N x min(N/2, k_dsrc) block of V2V amounts (`_gather_search_block`: 2175
distinct links at N=100), and the search reads none: it follows the
plan's vehicle order and count bounds, and scores each solved count from
its benefit matrix.  `plan_searches` gathers the blocks of a whole chunk
of trials once each, integrates their missing entries in shared kernel
calls, then plans them in array calls shared by the tables of one fleet
size and k_dsrc, and stores each plan on its table; a search on a table
without one plans it alone.  The counts that share one
V2V RB share (9 levels at k_dsrc = 25) share one two-hop block cut from the
stacked blocks, whose column maxima grow one row per count, and every
count's benefit matrix is a view of its level's block.  The
oracle visits every aided set of each count its count bound keeps: with
default radios usually only the 12 sets of n_av = 1 at N=12, but up to
2 509 sets, a number that about doubles with every vehicle (hence the cap).
It visits them in array passes over cached templates of a count's sets
and of a set's pairings, in a plain enumeration's order: about 0.07 ms
per N=12 fleet with default radios, 0.6 ms at k_dsrc 100 and 20 ms at
k_dsrc 200, where every count can win and many sets have their pairings
scored.
"""

from __future__ import annotations

import functools
import itertools
import math
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
    for several tables at once.  `link` holds the
    V2V arguments of `unit_service_batch` after the motion rows; each pair's
    row is the difference of two rows of `motion`, the scenario's vehicle
    rows.  Without it the table is dense.
    `unconverged` counts this table's computed links whose quadrature hit
    its refinement cap.  `plan` is the table's msrs search plan, once
    `plan_searches` or a search has made it; while `plan_searches` runs,
    it holds the table's (order, search block) instead.
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

        The index arrays broadcast, as in `v2v_unit[rows, cols]`.  The pairs
        are gathered once, and again only after missing ones were integrated.
        """
        got = self.v2v_unit[rows, cols]
        if np.isnan(got).any():
            _fill([(self, rows, cols)])
            got = self.v2v_unit[rows, cols]
        return got

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
    pairs, whose NaN entries are the missing ones.  `_in_calls` integrates
    each table's missing pairs in ascending (i, j) order, i < j.
    `requests` may be an iterator; a dense table (no `link`) or one with
    nothing missing adds no link.
    """
    def pending():
        for t, rows, cols in requests:
            missing = np.isnan(t.v2v_unit[rows, cols])
            if t.link is not None and missing.any():
                # one flat key i * N + j per pair, lower id first as in the
                # motion rows; a flat mark drops the repeats and orders them
                n = t.n
                mark = np.zeros(n * n, dtype=bool)
                mark[(np.minimum(rows, cols) * n + np.maximum(rows, cols))[missing]] = True
                yield (t, *np.divmod(np.flatnonzero(mark), n), None)

    _in_calls(pending())


def _in_calls(pending) -> None:
    """Integrate pending (table, i, j, into) pairs in shared kernel calls, in the order given.

    A call takes the next tables while they share its first table's `link`
    and its links stay within `_CALL_LINKS`.  `pending` may be an iterator,
    so only the pending call's pairs are held; when nothing is pending no
    kernel call is made.  A link's value does not depend on its batch, so
    a table holds the same amounts as its own reads would give.
    """
    call, links = [], 0
    for t, i, j, into in pending:
        if call and (t.link != call[0][0].link or links + len(i) > _CALL_LINKS):
            _integrate(call)
            call, links = [], 0
        call.append((t, i, j, into))
        links += len(i)
    if call:
        _integrate(call)


def _integrate(call) -> None:
    """One kernel call for the pairs (table, i, j, into) of `call`, stored on both sides.

    `into` is None or (block, mask): the values are also written to the
    mask's entries of the block, in the pairs' order.  Each table counts
    only its own links in `unconverged`.
    """
    # the module global is looked up per call, so a wrapper installed on it
    # sees every integrated pair
    values, converged = unit_service_batch(
        np.concatenate([t.motion.take(i, 0) - t.motion.take(j, 0) for t, i, j, _ in call]),
        *call[0][0].link)
    start = 0
    for t, i, j, into in call:
        end = start + len(i)
        t.v2v_unit[i, j] = t.v2v_unit[j, i] = values[start:end]
        if into is not None:
            block, mask = into
            block[mask] = values[start:end]
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
    that matrix's column maxima.  Each table's search block is read once
    (`_gather_search_block`), and its NaN entries are integrated into the
    table and the block, in shared kernel calls in the order the tables are
    given; a block is read only when the fill reaches its table, so the
    blocks of later tables are not held through earlier calls.  Then the
    tables of one (N, k_dsrc) are planned together from their blocks, each
    step one array call over the stacked tables, and each plan is stored on
    its table as `plan`.  A plan does not depend on the tables planned with
    it.  A table with no direct amounts is neither filled nor planned:
    `solve_msrs` needs no plan there.
    """
    planned = [t for t in tables if t.v2i.any()]
    _in_calls(filter(None, map(_gather_search_block, planned)))
    groups: dict[tuple[int, int], list[ServiceTables]] = {}
    for t in planned:
        groups.setdefault((t.n, t.k_dsrc), []).append(t)
    for group in groups.values():
        for t, plan in zip(group, _plan_group(group)):
            t.plan = plan


def _gather_search_block(t: ServiceTables):
    """Read `t`'s msrs search block once, hold it in `t.plan`, and return its missing pairs.

    The block's rows are every vehicle in `_search_order`, its columns the
    last `cap` of them, the weakest: count n_av reads its first N - n_av
    rows and last n_av columns.  `t.plan` holds (order, block) until
    `_plan_group` plans from it.  The missing pairs are returned as
    `_in_calls` takes them, with the block as their `into`, or None when
    none is missing.  The weak corner, the last `cap` rows, holds
    (weak a, weak b) twice, so only its upper triangle adds pairs.
    """
    n, order = t.n, _search_order(t.v2i)
    cap = _aided_cap(n, t.k_dsrc)
    weak = order[n - cap:]
    block = t.v2v_unit.take(weak, 1).take(order, 0)
    t.plan = (order, block)
    missing = np.isnan(block)
    missing[n - cap:][_weak_corner(cap)] = False
    if t.link is None or not missing.any():
        return None
    flat = missing.ravel()
    i, j = order.repeat(cap)[flat], np.tile(weak, n)[flat]
    return t, np.minimum(i, j), np.maximum(i, j), (block, missing)


@functools.lru_cache(maxsize=32)
def _weak_corner(cap: int) -> np.ndarray:
    """The cap x cap mask of a search block's repeated weak pairs: the lower triangle and diagonal.

    Read-only, shared by every table of that cap.
    """
    tri = np.tri(cap, dtype=bool)
    tri.flags.writeable = False
    return tri


def _stack(arrays: list[np.ndarray]) -> np.ndarray:
    """The arrays stacked on a new first axis; one array becomes a view, not a copy."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def _plan_group(group: list[ServiceTables]) -> list[tuple[list[int], list[tuple]]]:
    """The plans of B tables of one fleet size and one k_dsrc, from (B, ...) arrays.

    Each table's `plan` holds its (order, search block), filled but for the
    weak corner's lower triangle, which is mirrored here; no V2V amount is
    read from the tables.
    """
    n, k = group[0].n, group[0].k_dsrc
    cap = _aided_cap(n, k)
    v2i = _stack([t.v2i for t in group])
    order = _stack([t.plan[0] for t in group])
    direct = v2i[np.arange(len(group))[:, None], order][:, :, None]
    block = _stack([t.plan[1] for t in group])
    corner = block[:, n - cap:]
    np.copyto(corner, corner.transpose(0, 2, 1), where=np.isnan(corner))
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
    A count's total is its direct sum plus the matched entries of its
    benefit matrix, added in aided-id order: the bits of `_partition_total`,
    with no V2V read.
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
        matrix = w[: n - n_av, -n_av:]
        match = solve_max_assignment(BenefitMatrix(matrix)).match
        pairing = {avs[c]: order[r] for c, r in match.items()}
        cols = sorted(match, key=avs.__getitem__)
        total = tables.direct_sum(pairing) + _left_sum(matrix[[match[c] for c in cols], cols])
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


#: Most aided sets, and most pairings of one aided set, that one array pass
#: of `solve_optimal_bruteforce` holds.  N <= 12 fits one pass per kept
#: count (at most 924 sets) and one per scored set (at most 2 520 pairings).
_ORACLE_ROWS = 4096


def solve_optimal_bruteforce(tables: ServiceTables, cap: int = BRUTE_FORCE_VEHICLE_CAP) -> Schedule:
    """Exact optimum over every partition and pairing.

    The aided counts are visited in ascending order.  A count is skipped
    when the direct total plus its n_av largest gains cannot beat the
    incumbent, a vehicle's gain being its largest benefit as an aided vehicle
    minus its direct amount: every aided set of the count totals at most
    that.  Each of the C(N, n_av) aided sets of every other count, in
    lexicographic order, is bounded by its direct amounts plus each aided
    vehicle's largest benefit from a relay outside the set, and only a set
    whose bound beats the incumbent has its pairings scored.  With
    default radios the count bound usually leaves the 12 sets of n_av = 1
    at N=12, about 0.07 ms per fleet on a 2-vCPU Xeon once its V2V amounts
    are integrated, not ~3.6 million candidate schedules.  The cap bounds
    the sets a kept count visits, whose number about doubles per vehicle.

    The work is three array passes in the order of a plain enumeration
    (sets, then for each set its relay combinations and their
    permutations), with its sums and its strictly-greater updates, so
    equal totals keep the first schedule met: every count's two-hop table
    and bound at once; a kept count's sets, `_ORACLE_ROWS` at a time from
    the template `_aided_sets`, each with its direct sum (`direct_sum`'s
    bits) and bound; and each set whose bound beats the incumbent, its
    pairings `_ORACLE_ROWS` at a time from the template `_pairings`, the
    relay part added in aided order from 0.0 (`_score_pairings`).  A NaN
    amount makes its bounds NaN, which let their sets through, and a NaN
    total is never strictly greater, so it is never taken.  One pass holds
    at most `_ORACLE_ROWS` sets or pairings, and the template caches at
    most 32 passes each, whatever the cap.
    """
    n = tables.n
    if n > cap:
        raise ValueError(f"refusing exhaustive search for {n} vehicles; cap is {cap}")
    unit = tables.v2v(np.arange(n)[:, None], np.arange(n))
    v2i = tables.v2i
    best_total = total_direct = _partition_total(tables, {})
    best_pairing: dict[int, int] = {}
    top = _aided_cap(n, tables.k_dsrc)
    if not top:
        return Schedule(best_pairing, best_total)
    # w[n_av - 1][r, a]: `two_hop` of relay r serving aided a, every count at once
    shares = np.array([rb_share(tables.k_dsrc, n_av) for n_av in range(1, top + 1)], dtype=float)
    w_all = rate_two_hop(shares[:, None, None] * unit, v2i[:, None])
    # an aided vehicle gains at most its column maximum over its direct
    # amount, so the direct total plus the n_av largest gains, added in
    # ascending order, bound every set of a count
    gains = np.sort(w_all.max(axis=1) - v2i, axis=1)
    largest = np.arange(n) >= n - np.arange(1, top + 1)[:, None]
    count_bounds = (total_direct + np.add.accumulate(np.where(largest, gains, 0.0), axis=1)[:, -1]).tolist()
    for n_av, w, count_bound in zip(range(1, top + 1), w_all, count_bounds):
        if not _can_beat(count_bound, best_total):
            continue
        for start in range(0, math.comb(n, n_av), _ORACLE_ROWS):
            aided, rest, is_aided, cells = _aided_sets(n, n_av, start, _ORACLE_ROWS)
            direct = np.add.accumulate(np.where(is_aided, 0.0, v2i), axis=1)[:, -1]
            # block[s, i, k]: relay rest[s, i] serving aided[s, k]
            block = w.take(cells)
            most = np.zeros(len(aided))  # each aided vehicle's largest benefit, added in order
            for peak in block.max(axis=1).T:
                most += peak
            bound = direct + most
            # the incumbent only rises, so a set it stops now stays stopped
            for s in (~(bound <= best_total)).nonzero()[0].tolist():
                if bound[s] <= best_total:
                    continue
                found = _score_pairings(aided[s], rest[s], block[s], direct[s], best_total)
                if found is not None:
                    best_total, best_pairing = found
    return Schedule(best_pairing, best_total)


@functools.lru_cache(maxsize=32)
def _aided_sets(n: int, n_av: int, start: int, rows: int):
    """Aided sets `start` to `start + rows` of n_av among n vehicles, in lexicographic order.

    Returns (aided, rest, is_aided, cells): each set's aided ids and the
    other ids, both ascending, a mark of its aided ids over all n, and the
    flat N x N positions of (rest[i], aided[k]) as cells[s, i, k].  The
    arrays are read-only, shared by every caller.
    """
    sets = itertools.islice(itertools.combinations(range(n), n_av), start, start + rows)
    aided = np.array(list(sets), dtype=np.intp).reshape(-1, n_av)
    is_aided = np.zeros((len(aided), n), dtype=bool)
    np.put_along_axis(is_aided, aided, True, axis=1)
    rest = np.nonzero(~is_aided)[1].reshape(len(aided), n - n_av)
    cells = rest[:, :, None] * n + aided[:, None, :]
    for a in (aided, rest, is_aided, cells):
        a.flags.writeable = False
    return aided, rest, is_aided, cells


def _score_pairings(aided, rest, block, direct, incumbent):
    """The first best pairing of one aided set, if its total beats `incumbent`: (total, pairing).

    `aided` and `rest` hold the set's aided and other ids, ascending,
    `block` the two-hop amounts of `rest` serving `aided`, and `direct` the
    set's direct sum.  The pairings are scored `_ORACLE_ROWS` at a time
    from `_pairings`, each total its relay part added in aided order from
    0.0, then added to `direct`; the incumbent rises to every strictly
    greater total, so of equal totals the first met wins.  Returns None
    when no total beats `incumbent`.
    """
    m, n_av = block.shape
    found = None
    for first in range(0, math.perm(m, n_av), _ORACLE_ROWS):
        picks = _pairings(m, n_av, first, _ORACLE_ROWS)
        vals = block.take(picks)
        relay = 0.0 + vals[0]
        for v in vals[1:]:
            relay += v
        total = direct + relay
        better = (total > incumbent).nonzero()[0]
        if len(better):
            p = better[total[better].argmax()]
            incumbent = float(total[p])
            found = incumbent, dict(zip(aided.tolist(), rest[picks[:, p] // n_av].tolist()))
    return found


@functools.lru_cache(maxsize=32)
def _pairings(m: int, n_av: int, start: int, rows: int) -> np.ndarray:
    """Pairings `start` to `start + rows` of n_av aided vehicles with relays among m.

    The pairings come as a plain enumeration meets them: each combination of
    relay positions in lexicographic order, then its permutations, the k-th
    relay serving the k-th aided vehicle.  Column p holds pairing p as
    flat positions in an (m, n_av) block of relays against aided vehicles,
    row k the k-th aided vehicle's entry.  Read-only, shared by every caller.
    """
    each = itertools.chain.from_iterable(
        map(itertools.permutations, itertools.combinations(range(m), n_av)))
    relays = np.array(list(itertools.islice(each, start, start + rows)), dtype=np.intp)
    picks = (relays.reshape(-1, n_av) * n_av + np.arange(n_av)).T.copy()
    picks.flags.writeable = False
    return picks
