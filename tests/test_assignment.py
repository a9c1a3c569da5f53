from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import brute_force_assignment

import relaysched.assignment as assignment_module
import relaysched.scheduler as scheduler_module
from relaysched.assignment import (
    BenefitMatrix,
    _canonical_match,
    _rect_min_assign,
    solve_max_assignment,
)
from relaysched.channel import default_radio_config
from relaysched.experiments import ExperimentConfig, cmd_sweep_n
from relaysched.rng import Xoshiro256StarStar
from relaysched.scenario import ScenarioSpec, generate
from relaysched.scheduler import build_chunk_tables, solve_irrs, solve_msrs

# known-answer case: five candidate relays, four aided vehicles
REFERENCE = [
    [2, 3, 0, 1],
    [3, 2, 3, 6],
    [4, 0, 3, 0],
    [5, 2, 4, 6],
    [1, 0, 0, 2],
]


def random_matrix(gen: Xoshiro256StarStar, size: int, integer: bool) -> BenefitMatrix:
    if integer:
        vals = [[float(int(gen.random() * 10)) for _ in range(size)] for _ in range(size)]
    else:
        vals = [[gen.random() * 10 for _ in range(size)] for _ in range(size)]
    return BenefitMatrix(vals)


class TestBenefitMatrix:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            BenefitMatrix([[1.0, -0.5], [0.0, 2.0]])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            BenefitMatrix([[1.0, float("inf")], [0.0, 2.0]])


class TestSolver:
    def test_reference_case(self):
        got = solve_max_assignment(BenefitMatrix(REFERENCE))
        assert got.total == 17.0
        assert got.match == {0: 3, 1: 0, 2: 2, 3: 1}
        # the fifth candidate row wins no column
        assert 4 not in got.match.values()

    def test_1x1(self):
        got = solve_max_assignment(BenefitMatrix([[4.25]]))
        assert got.total == 4.25 and got.match == {0: 0}

    def test_dominant_diagonal(self):
        vals = np.full((4, 4), 0.1)
        np.fill_diagonal(vals, 9.0)
        got = solve_max_assignment(BenefitMatrix(vals))
        assert got.match == {0: 0, 1: 1, 2: 2, 3: 3}
        assert got.total == pytest.approx(36.0, rel=1e-12)

    def test_wide_rejected(self):
        # more aided vehicles than relay candidates cannot all be served
        wide = BenefitMatrix(np.asarray(REFERENCE, dtype=float).T)
        with pytest.raises(ValueError, match="more columns than rows"):
            solve_max_assignment(wide)
        with pytest.raises(ValueError, match="more columns than rows"):
            brute_force_assignment(wide)

    def test_no_columns(self):
        w = BenefitMatrix(np.zeros((3, 0)))
        for solver in (solve_max_assignment, brute_force_assignment):
            got = solver(w)
            assert got.match == {} and got.total == 0.0

    def test_deterministic(self):
        gen = Xoshiro256StarStar(3)
        for _ in range(20):
            w = random_matrix(gen, 6, integer=True)
            first = solve_max_assignment(w)
            again = solve_max_assignment(w)
            assert first.match == again.match and first.total == again.total


class TestBruteForce:
    def test_2x2(self):
        got = brute_force_assignment(BenefitMatrix([[1.0, 2.0], [3.0, 4.0]]))
        assert got.total == 5.0  # 1+4 beats 2+3

    def test_all_equal(self):
        got = brute_force_assignment(BenefitMatrix(np.full((3, 3), 2.5)))
        assert got.total == pytest.approx(7.5, rel=1e-12)

    def test_cap_refusal(self):
        with pytest.raises(ValueError, match="cap"):
            brute_force_assignment(BenefitMatrix(np.zeros((9, 9))))


class TestOracleEquivalence:
    @pytest.mark.parametrize("integer", [True, False])
    def test_matches_brute_force(self, integer):
        gen = Xoshiro256StarStar(11 if integer else 13)
        for _ in range(40):
            size = 1 + int(gen.random() * 7)
            w = random_matrix(gen, size, integer)
            fast = solve_max_assignment(w)
            slow = brute_force_assignment(w)
            assert len(set(fast.match.values())) == size  # distinct rows
            assert fast.total == pytest.approx(float(w.values[[fast.match[c] for c in range(size)], range(size)].sum()), rel=1e-12)
            if integer:
                assert fast.total == slow.total
            else:
                assert fast.total == pytest.approx(slow.total, rel=1e-9)

    def test_rectangles_match_brute_force(self):
        gen = Xoshiro256StarStar(19)
        for _ in range(40):
            cols = 1 + int(gen.random() * 4)
            rows = cols + int(gen.random() * 3)
            vals = [[float(int(gen.random() * 8)) for _ in range(cols)] for _ in range(rows)]
            w = BenefitMatrix(vals)
            fast = solve_max_assignment(w)
            slow = brute_force_assignment(w)
            assert fast.total == slow.total


class TestInvariants:
    def test_constant_shift_raises_total_by_n_times_c(self):
        gen = Xoshiro256StarStar(29)
        for _ in range(20):
            size = 2 + int(gen.random() * 5)
            w = random_matrix(gen, size, integer=True)
            base = solve_max_assignment(w)
            shift = 7.0
            shifted = BenefitMatrix(w.values + shift)
            moved = solve_max_assignment(shifted)
            assert moved.total == base.total + size * shift
            # the original optimum stays optimal after the shift
            shifted_total_of_base = sum(
                float(shifted.values[r, c]) for c, r in base.match.items()
            )
            assert shifted_total_of_base == pytest.approx(moved.total, rel=1e-12)

    def test_row_permutation_equivariance(self):
        gen = Xoshiro256StarStar(37)
        for _ in range(20):
            size = 2 + int(gen.random() * 5)
            w = random_matrix(gen, size, integer=False)  # continuous entries: no ties
            base = solve_max_assignment(w)
            perm = list(range(size))
            # Fisher-Yates with the portable generator
            for i in range(size - 1, 0, -1):
                j = int(gen.random() * (i + 1))
                perm[i], perm[j] = perm[j], perm[i]
            permuted = BenefitMatrix(w.values[perm, :])
            moved = solve_max_assignment(permuted)
            assert moved.total == pytest.approx(base.total, rel=1e-12)
            inverse = {orig: new for new, orig in enumerate(perm)}
            assert {c: inverse[r] for c, r in base.match.items()} == moved.match

    def test_canonical_tie_break_is_column_wise_largest_row(self):
        # exhaustively compare against enumeration on tie-heavy small matrices
        gen = Xoshiro256StarStar(41)
        for _ in range(60):
            cols = 1 + int(gen.random() * 3)
            rows = cols + int(gen.random() * 3)
            vals = np.array(
                [[float(int(gen.random() * 4)) for _ in range(cols)] for _ in range(rows)]
            )
            got = solve_max_assignment(BenefitMatrix(vals))
            best = -1.0
            optima = []
            for perm in itertools.permutations(range(rows), cols):
                s = sum(vals[perm[k], k] for k in range(cols))
                if s > best + 1e-12:
                    best, optima = s, [perm]
                elif abs(s - best) <= 1e-12:
                    optima.append(perm)
            expected = max(optima)  # tuple order == column-ascending, larger row preferred
            assert got.total == best
            assert tuple(got.match[c] for c in range(cols)) == expected


# --- reference tie-break: re-solve the remaining assignment per candidate row ---

def _max_assign(w: np.ndarray):
    """Max-benefit counterpart of `_rect_min_assign` via the max-minus conversion."""
    if w.shape[1] == 0:
        return 0.0, np.zeros(0, dtype=int)
    cost = float(w.max()) - w
    row_for_col, _, _ = _rect_min_assign(cost)
    total = 0.0
    for c in range(w.shape[1]):
        total += w[row_for_col[c], c]
    return total, row_for_col


def resolving_canonical_match(w: np.ndarray) -> np.ndarray:
    """The tie rule decided by sub-solves: for each column in ascending order,
    try its higher tight rows from the top and keep the first whose best
    completion of the remaining columns still reaches the optimal total."""
    n_rows, n_cols = w.shape
    if n_cols == 0:
        return np.zeros(0, dtype=int)
    if np.all(w == w.flat[0]):
        return np.arange(n_rows - 1, n_rows - 1 - n_cols, -1)
    peak = float(w.max())
    cost = peak - w
    match, u, v = _rect_min_assign(cost)
    eps = 1e-9 * (1.0 + abs(peak))
    fixed = np.zeros(n_rows, dtype=bool)
    for c in range(n_cols):
        cur_row = int(match[c])
        tight = np.abs(cost[:, c] - u[c] - v) <= eps
        higher = [r for r in np.where(tight & ~fixed)[0][::-1] if r > cur_row]
        if higher:
            rem_opt = sum(w[match[k], k] for k in range(c, n_cols))
            rest_cols = list(range(c + 1, n_cols))
            for r in higher:
                rows_left = [j for j in range(n_rows) if not fixed[j] and j != r]
                sub = w[np.ix_(rows_left, rest_cols)]
                sub_total, sub_match = _max_assign(sub)
                if w[r, c] + sub_total >= rem_opt - eps:
                    match[c] = r
                    for i, k in enumerate(rest_cols):
                        match[k] = rows_left[sub_match[i]]
                    break
        fixed[match[c]] = True
    return match


def tie_heavy_matrix(rng: np.random.Generator, rows: int, cols: int, kind: str) -> np.ndarray:
    if kind == "integer":
        return rng.integers(0, 5, size=(rows, cols)).astype(float)
    if kind == "clamped integer":
        a = rng.integers(0, 8, size=(rows, cols))
        return np.minimum(a, rng.integers(0, 6, size=rows)[:, None]).astype(float)
    # clamped float: a relay whose direct amount binds repeats it along its row
    return np.minimum(rng.random((rows, cols)) * 10.0, rng.random(rows)[:, None] * 6.0)


@pytest.fixture(scope="module")
def scheduler_matrices():
    """Every benefit matrix msrs and irrs solve on one N=200 scenario."""
    captured = []
    real_solve = scheduler_module.solve_max_assignment

    def capturing(w):
        captured.append(w.values.copy())
        return real_solve(w)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scheduler_module, "solve_max_assignment", capturing)
        cfg = default_radio_config()
        sc = generate(ScenarioSpec(n_vehicles=200, seed=5))
        tables = build_chunk_tables([sc], cfg)[0]
        solve_msrs(tables)
        solve_irrs(tables, build_chunk_tables([sc.held_still()], cfg)[0])
    return captured


class TestTieBreakAgainstResolving:
    @pytest.mark.parametrize("kind", ["integer", "clamped integer", "clamped float"])
    def test_small_matrices(self, kind):
        rng = np.random.default_rng(43)
        for rows in range(1, 10):
            for cols in range(rows + 1):
                for _ in range(6):
                    w = tie_heavy_matrix(rng, rows, cols, kind)
                    assert np.array_equal(_canonical_match(w), resolving_canonical_match(w)), w

    def test_clamped_float_175x25(self):
        rng = np.random.default_rng(47)
        for _ in range(4):
            w = np.minimum(rng.random((175, 25)) * 10.0, rng.random(175)[:, None] * 3.0)
            assert np.array_equal(_canonical_match(w), resolving_canonical_match(w))

    def test_scheduler_matrices_at_n200(self, scheduler_matrices):
        assert len(scheduler_matrices) >= 2
        for w in scheduler_matrices:
            assert np.array_equal(_canonical_match(w), resolving_canonical_match(w))


# --- reference solver: a dense shortest-augmenting-path search with boolean masks ---

def masked_rect_min_assign(cost: np.ndarray):
    """Dense counterpart of `_rect_min_assign`: every step relaxes all R rows with masks."""
    n_rows, n_cols = cost.shape
    u = np.zeros(n_cols)
    v = np.zeros(n_rows + 1)  # index n_rows is the virtual root row
    owner = np.full(n_rows + 1, -1, dtype=int)  # column currently matched to each row
    for c in range(n_cols):
        owner[n_rows] = c
        j0 = n_rows
        minv = np.full(n_rows, np.inf)
        way = np.full(n_rows, n_rows, dtype=int)
        used = np.zeros(n_rows + 1, dtype=bool)
        while True:
            used[j0] = True
            c0 = owner[j0]
            cur = cost[:, c0] - u[c0] - v[:n_rows]
            better = (~used[:n_rows]) & (cur < minv)
            minv[better] = cur[better]
            way[better] = j0
            masked = np.where(used[:n_rows], np.inf, minv)
            j1 = int(np.argmin(masked))
            delta = masked[j1]
            used_rows = used[:n_rows]
            u[owner[:n_rows][used_rows]] += delta
            if used[n_rows]:
                u[owner[n_rows]] += delta
            v[:n_rows][used_rows] -= delta
            minv[~used_rows] -= delta
            j0 = j1
            if owner[j0] == -1:
                break
        while j0 != n_rows:
            j1 = way[j0]
            owner[j0] = owner[j1]
            j0 = j1
    row_for_col = np.empty(n_cols, dtype=int)
    for j in range(n_rows):
        if owner[j] >= 0:
            row_for_col[owner[j]] = j
    return row_for_col, u, v[:n_rows]


def assert_dual_contract(w: np.ndarray):
    """`_rect_min_assign` meets its contract on `w` and leads to the reference's canonical matching."""
    peak = float(w.max())
    cost = peak - w
    n_rows, n_cols = cost.shape
    eps = 1e-9 * (1.0 + abs(peak))  # `_canonical_match`'s tightness tolerance
    match, u, v = _rect_min_assign(cost)
    ref_match = masked_rect_min_assign(cost)[0]
    cols = np.arange(n_cols)
    assert len(set(match.tolist())) == n_cols, w
    assert abs(cost[match, cols].sum() - cost[ref_match, cols].sum()) <= eps * n_cols, w
    reduced = cost - u - v[:, None]
    assert reduced.min() >= -eps, w
    assert np.abs(reduced[match, cols]).max() <= eps, w
    # a row never matched was never settled, so its potential is untouched
    never = np.setdiff1d(np.arange(n_rows), match)
    assert np.all(v[never] == 0.0) and np.all(v <= 0.0), w
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(assignment_module, "_rect_min_assign", masked_rect_min_assign)
        ref_canonical = _canonical_match(w)
    assert np.array_equal(_canonical_match(w), ref_canonical), w


@pytest.fixture(scope="module")
def sweep_matrices():
    """Every benefit matrix msrs and irrs solve on a seed-7 sweep over N = 20, 40, ..., 200."""
    captured = []
    real_solve = scheduler_module.solve_max_assignment

    def capturing(w):
        captured.append(w.values.copy())
        return real_solve(w)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scheduler_module, "solve_max_assignment", capturing)
        cmd_sweep_n(ExperimentConfig(seed=7, trials=3, policies=("msrs", "irrs")))
    return captured


@st.composite
def tie_heavy_rectangles(draw):
    rows = draw(st.integers(1, 9))
    cols = draw(st.integers(1, rows))
    kind = draw(st.sampled_from(["integer", "clamped integer", "float"]))
    if kind == "float":
        cell = st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False)
    else:
        cell = st.integers(0, 6).map(float)
    vals = np.array(draw(st.lists(cell, min_size=rows * cols, max_size=rows * cols)))
    vals = vals.reshape(rows, cols)
    if kind == "clamped integer":
        caps = draw(st.lists(st.integers(0, 6), min_size=rows, max_size=rows))
        vals = np.minimum(vals, np.array(caps, dtype=float)[:, None])
    return vals


class TestDualSolveAgainstMasked:
    def test_sweep_matrices(self, sweep_matrices):
        solved = [w for w in sweep_matrices if not np.all(w == w.flat[0])]
        assert len(solved) >= 100
        for w in solved:
            assert_dual_contract(w)

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(tie_heavy_rectangles())
    def test_small_rectangles(self, w):
        assert_dual_contract(w)

    def test_wide_magnitude_floats(self):
        # entries over many binades make the potentials round differently in
        # the two solvers; the tolerance must absorb it
        rng = np.random.default_rng(59)
        for _ in range(1000):
            rows = int(rng.integers(2, 10))
            cols = int(rng.integers(2, rows + 1))
            assert_dual_contract(np.exp(rng.normal(0.0, 3.0, (rows, cols))))

    def test_clamped_two_hop_rectangles(self):
        # min(s * B, D): the floored V2V share scales the unit amounts and each
        # relay's direct amount clamps its row, as in `ServiceTables.two_hop`
        rng = np.random.default_rng(61)
        for _ in range(60):
            cols = int(rng.integers(1, 26))
            rows = int(rng.integers(cols, 201))
            share = 25 // cols
            unit = rng.random((rows, cols)) * rng.choice([0.1, 1.0, 10.0])
            direct = rng.random(rows) * rng.choice([0.5, 3.0, 30.0])
            assert_dual_contract(np.minimum(share * unit, direct[:, None]))


@st.composite
def clamped_integer_matrices(draw):
    rows = draw(st.integers(1, 7))
    cols = draw(st.integers(0, rows))
    entries = st.lists(st.integers(0, 6), min_size=rows * cols, max_size=rows * cols)
    caps = st.lists(st.integers(0, 6), min_size=rows, max_size=rows)
    vals = np.array(draw(entries), dtype=float).reshape(rows, cols)
    return np.minimum(vals, np.array(draw(caps), dtype=float)[:, None])


class TestTieBreakProperties:
    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(clamped_integer_matrices())
    def test_lexicographically_largest_optimum(self, vals):
        rows, cols = vals.shape
        totals = {perm: sum(vals[r, c] for c, r in enumerate(perm))
                  for perm in itertools.permutations(range(rows), cols)}
        best = max(totals.values())
        got = solve_max_assignment(BenefitMatrix(vals))
        assert tuple(got.match[c] for c in range(cols)) == max(
            perm for perm, t in totals.items() if t == best
        )
        assert got.total == brute_force_assignment(BenefitMatrix(vals)).total


class TestScipyDifferential:
    def test_totals_match_linear_sum_assignment(self):
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(53)
        shapes = [(200, 25), (175, 25), (60, 30), (40, 40), (12, 9), (9, 1)]
        for rows, cols in shapes:
            for kind in ("plain", "clamped"):
                w = rng.random((rows, cols)) * 10.0
                if kind == "clamped":
                    w = np.minimum(w, rng.random(rows)[:, None] * 6.0)
                got = solve_max_assignment(BenefitMatrix(w))
                r_idx, c_idx = optimize.linear_sum_assignment(w, maximize=True)
                assert got.total == pytest.approx(float(w[r_idx, c_idx].sum()), rel=1e-12)
