"""Maximum-total-benefit one-to-one assignment on benefit matrices.

Rows are candidate relays, columns are aided vehicles; entries are two-hop
service amounts.  Every column is matched to a distinct row, so a matrix may
have more rows than columns (rows left unmatched receive no aided vehicle)
but not more columns than rows.  The solver converts benefit maximization to
cost minimization by subtracting every entry from the global maximum, then
runs a potentials-based shortest-augmenting-path method for rectangular
matrices (O(R*C^2), Kuhn-Munkres family; Crouse, IEEE TAES 2016).  The
search is sparse: a row never matched keeps potential 0, so a column's
cheapest free row is a cached argmin of its costs, and each Dijkstra step
relaxes only the at most C matched rows, in plain floats.

Tie-breaking is deterministic: among equal-total matchings the solver returns
the one that, scanning columns in ascending order, pairs each column with the
largest-index row still compatible with optimality.  Ties are decided on the
tight-edge graph of the solver's dual solution, with no further assignment
solve: each candidate row takes one alternating-cycle search, through a slack
vertex that holds the free rows and may take any droppable row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class BenefitMatrix:
    """Non-negative, finite R x C benefit matrix."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise ValueError(f"benefit matrix must be 2-D, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("benefit matrix entries must be finite")
        if values.size and values.min() < 0:
            raise ValueError("benefit matrix entries must be non-negative")
        object.__setattr__(self, "values", values)

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class Assignment:
    """Chosen row per column, plus the total benefit of the selection."""

    match: dict[int, int] = field(default_factory=dict)
    total: float = 0.0


def _check_tall(w: BenefitMatrix) -> None:
    if w.cols > w.rows:
        raise ValueError(f"cannot match {w.rows}x{w.cols}: more columns than rows")


def _rect_min_assign(cost: np.ndarray):
    """Min-cost matching of every column to a distinct row; cost is (R, C), R >= C.

    Returns (row_for_col, u, v): the matching and the dual potentials, with
    cost[j, c] - u[c] - v[j] >= 0 everywhere, == 0 on matched pairs, and v <= 0.

    Each column is added by one Dijkstra search over the rows.  A row's
    potential only falls when a search settles it, and a search settles only
    matched rows (reaching a free row ends it), so a row never matched keeps
    v = 0.  The cheapest free row of a column is then its cheapest free cost
    entry, cached per column and looked up again only when that row is
    matched.  So each step relaxes just the matched, unsettled rows, in plain
    floats on absolute labels d: row r reached from column k, whose label is
    d[k], gets d[k] + cost[r, k] - u[k] - v[r].  A free row wins ties and ends
    the search at its label D; then every column the search visited gains
    D - d[k] in u, and every row it settled loses D - d[r] in v.
    """
    n_rows, n_cols = cost.shape
    free_t = cost.T.copy()  # free_t[k, r]: cost of free row r for column k, inf once r is matched
    free_row = [-1] * n_cols  # cached argmin of free_t[k]; -1 when not yet known
    free_cost = [0.0] * n_cols
    cost_of = [None] * n_rows  # a matched row's costs as a list
    u = [0.0] * n_cols
    v = [0.0] * n_rows
    owner = [-1] * n_rows  # column matched to each row
    way = [-1] * n_rows  # row whose column reached each row, -1 for the new column
    matched = []
    for c in range(n_cols):
        label = dict.fromkeys(matched, np.inf)  # the matched rows not yet settled
        settled = []
        k, d_k, via = c, 0.0, -1  # expand column k, reached with label d_k through row via
        end_d = np.inf
        while True:
            base = d_k - u[k]
            if free_row[k] < 0:
                r = free_row[k] = int(free_t[k].argmin())
                free_cost[k] = float(free_t[k, r])
            if base + free_cost[k] < end_d:
                end, end_d, end_via = free_row[k], base + free_cost[k], via
            nxt, nxt_d = -1, end_d
            for r, d in label.items():
                x = base + cost_of[r][k] - v[r]
                if x < d:
                    label[r] = d = x
                    way[r] = via
                if d < nxt_d:
                    nxt, nxt_d = r, d
            if nxt < 0:
                break
            del label[nxt]
            settled.append((nxt, nxt_d))
            k, d_k, via = owner[nxt], nxt_d, nxt
        u[c] += end_d
        for r, d in settled:
            u[owner[r]] += end_d - d
            v[r] -= end_d - d
        r, via = end, end_via
        while via >= 0:  # each row on the path takes the column it was reached from
            owner[r] = owner[via]
            r, via = via, way[via]
        owner[r] = c
        matched.append(end)
        cost_of[end] = cost[end].tolist()
        free_t[:, end] = np.inf
        for k in range(n_cols):
            if free_row[k] == end:
                free_row[k] = -1
    row_for_col = np.empty(n_cols, dtype=int)
    for r in matched:
        row_for_col[owner[r]] = r
    return row_for_col, np.array(u), np.array(v)


def _try_move(c, r, match, owner, fixed, rows_of, droppable) -> bool:
    """Give column c the higher row r if an optimal matching keeps the fixed rows.

    A slack vertex, numbered len(match), holds every free row and may take
    any droppable row that a column holds, so every optimal matching is
    perfect and two of them differ by alternating cycles.  Column c leaves
    its row r0 for r, so r's holder must take another row, and so on along
    tight edges, until some vertex takes r0.  One breadth-first search finds
    such a cycle; on success each vertex on it takes the row it reached.
    """
    r0, slack = match[c], len(match)
    came = {r: c}  # row -> the vertex that takes it
    start = owner[r] if owner[r] >= 0 else slack
    gave = {start: r}  # vertex -> the row it gives up
    queue = [start]
    for a in queue:  # grows while it is scanned
        for y in rows_of[a] if a < slack else [y for y in match if droppable[y]]:
            if y in came or fixed[y]:
                continue
            came[y] = a
            if y == r0:
                while y != r:  # each vertex takes the row it reached, giving up its own
                    a = came[y]
                    if a < slack:
                        match[a], owner[y] = y, a
                    else:
                        owner[y] = -1
                    y = gave[a]
                match[c], owner[r] = r, c
                return True
            holder = owner[y] if owner[y] >= 0 else slack
            if holder not in gave:
                gave[holder] = y
                queue.append(holder)
    return False


def _canonical_match(w: np.ndarray) -> np.ndarray:
    """Optimal matching of all columns of rectangular `w` (R >= C), canonical ties.

    Scans columns in ascending order and keeps, for each, the largest-index
    row that still permits an optimal completion.  By complementary slackness
    a matching of every column is optimal exactly when it uses only tight
    edges of the dual solution and covers every row with a negative
    potential.  So each tie is decided on the tight-edge graph, with no
    further assignment solve, by one alternating-cycle search per candidate
    row, through a slack vertex that holds the free rows and may take any
    droppable (non-negative potential) row.
    """
    n_rows, n_cols = w.shape
    if n_cols == 0:
        return np.zeros(0, dtype=int)
    peak = float(w.max())
    cost = peak - w
    match, u, v = _rect_min_assign(cost)
    eps = 1e-9 * (1.0 + abs(peak))
    tight = np.abs(cost - u - v[:, None]) <= eps
    if not (tight & (np.arange(n_rows)[:, None] > match)).any():
        return match  # no column has a higher tight row: already canonical
    rows_of = [[] for _ in range(n_cols)]
    for r, c in zip(*(a.tolist() for a in np.nonzero(tight))):
        rows_of[c].append(r)
    droppable = (v >= -eps).tolist()  # rows an optimal matching may leave unmatched
    match = match.tolist()
    owner = [-1] * n_rows
    for c, r in enumerate(match):
        owner[r] = c
    fixed = [False] * n_rows
    for c in range(n_cols):
        for r in reversed(rows_of[c]):
            if r <= match[c]:
                break
            if not fixed[r] and _try_move(c, r, match, owner, fixed, rows_of, droppable):
                break
        fixed[match[c]] = True
    return np.array(match)


def solve_max_assignment(w: BenefitMatrix) -> Assignment:
    """Matching of maximal total benefit that gives every column its own row."""
    _check_tall(w)
    match = _canonical_match(w.values)
    total = 0.0
    out = {}
    for c in range(w.cols):
        out[c] = int(match[c])
        total += w.values[match[c], c]
    return Assignment(out, float(total))
