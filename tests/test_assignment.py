from __future__ import annotations

import itertools

import numpy as np
import pytest

from relaysched.assignment import (
    BenefitMatrix,
    brute_force_assignment,
    solve_max_assignment,
)
from relaysched.rng import Xoshiro256StarStar

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
