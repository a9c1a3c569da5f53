"""Mobile service amounts: time integrals of link rates over one scheduling period.

The service amount of a link is the integral of its instantaneous achievable
rate over the scheduling period, i.e. the most data the physical layer could
move across that link while the schedule is held.

Under straight-line motion a link's distance is d(t) = |a + b*t|.  Its rate
peaks at the closest approach t* = -a.b/|b|**2, in a bump about d_min/|b|
wide (0.05 s for two vehicles passing 3.5 m apart at 35 m/s each), and has
a kink wherever d crosses the path-loss model's `min_distance` L, below which
distance is clamped.  Uniform nodes in t must resolve both, so each link is
integrated in the variable u of t = t* + (s/|b|)*sinh(u), s = max(d_min, L),
centred on its closest approach (t* need not lie in the period).  There
d(u) = hypot(d_min, s*sinh(u)), which is d_min*cosh(u) when d_min >= L, and
dt = (s/|b|)*cosh(u) du: the bump spreads over about one unit of u, the
classic treatment of nearly singular integrands.

When d_min < L, as for a same-lane overtake, which passes through or right
beside the other vehicle, distance is clamped to L while d < L.  The u-range
is then split where d crosses L, at u = +-asinh(sqrt(L**2 - d_min**2)/L), and
the clamped span between is its own piece, so every piece is smooth.  A link
with b = 0 (parked, or both ends with one velocity) has a constant rate, and
its service is D*rate(|a|**2) in closed form.

Each piece starts as one panel, integrated with QUADPACK's 15-node
Gauss-Kronrod rule.  A panel whose Kronrod estimate and the 7-node Gauss
estimate embedded in it disagree by more than the tolerance is bisected in
u, and its value is its halves' sum.  A `run --seed 7 --n 100` trial takes
16.4 rate evaluations per link.  A link's value is its pieces summed in
order of u.

The kernel holds each level's panels node-major: the integrand at the 15
nodes of P panels is a (15, P) array, so every operation runs along
contiguous rows of length P.  Its two (15, P) arrays are views of a buffer
each thread keeps across calls, of at most 8192 panels (about 2 MB).
Under glibc's default thresholds, fresh arrays of that size (260 KB each for
an N=100 msrs block) are mmapped, go back to the OS when a call ends, and
the next call page-faults them in again.  The batch harness also fixes those
thresholds (`experiments._keep_heap_pages`), so that the kernel's smaller
temporaries keep their heap pages between calls too.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .channel import PathLossModel, unit_rate

_ABS_FLOOR = 1e-30  # guards the relative convergence test for all-zero integrands


@dataclass(frozen=True)
class Period:
    """One scheduling period: its length in seconds, from the vehicles' start states."""

    duration: float

    def __post_init__(self):
        if not math.isfinite(self.duration):
            raise ValueError("non-finite period")
        if self.duration <= 0:
            raise ValueError(f"period duration must be positive, got {self.duration}")


@dataclass(frozen=True)
class QuadratureSpec:
    """Adaptive Gauss-Kronrod policy: panel agreement tolerance and bisection depth."""

    relative_tolerance: float = 1e-6
    max_refinements: int = 12

    def __post_init__(self):
        if not (math.isfinite(self.relative_tolerance) and self.relative_tolerance > 0):
            raise ValueError(f"relative_tolerance must be positive and finite, "
                             f"got {self.relative_tolerance}")
        if self.max_refinements < 0:
            raise ValueError("max_refinements must be >= 0")


# QUADPACK's qk15 (Piessens, de Doncker-Kapenga, Ueberhuber and Kahaner,
# QUADPACK, Springer 1983): the 15-node Kronrod rule on [-1, 1], from the end
# node to the centre, and the weights of the 7-node Gauss rule embedded in
# it, 0 at the nodes Gauss does not use.
_XGK = np.array([0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
                 0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
                 0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
                 0.207784955007898467600689403773245, 0.0])
_WGK = np.array([0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
                 0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
                 0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
                 0.204432940075298892414161999234649, 0.209482141084727828012999174891714])
_WG = np.array([0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
                0.0, 0.381830050505118944950369775488975, 0.0, 0.417959183673469387755102040816327])
# rows: the 15 nodes in ascending order, Kronrod weights, Gauss weights, all mapped to [0, 1]
_QK15 = 0.5 * np.stack([1.0 + np.concatenate([-_XGK, _XGK[-2::-1]]),
                        np.concatenate([_WGK, _WGK[-2::-1]]),
                        np.concatenate([_WG, _WG[-2::-1]])])
_NODES, _KRONROD, _GAUSS = _QK15[:, :, None]  # (15, 1) columns, broadcast along the panels

_WORKSPACE_PANELS = 8192  # two (15, P) float arrays: about 2 MB per thread
_workspace = threading.local()
_ROW_ADDS_FROM = 256  # panels from which `_node_sum` adds rows


def _node_arrays(panels: int) -> np.ndarray:
    """Two contiguous (15, `panels`) float arrays for one level's node values.

    Up to `_WORKSPACE_PANELS` panels they are views of a buffer this thread
    keeps across calls.  Under glibc's default thresholds, fresh temporaries
    of this size are handed back to the OS by malloc when a call ends, and
    every call would page-fault them in again.  A larger level gets fresh
    arrays.  The views must not outlive the level that takes them.
    """
    if panels > _WORKSPACE_PANELS:
        return np.empty((2, 15, panels))
    buffer = getattr(_workspace, "buffer", None)
    if buffer is None:
        buffer = _workspace.buffer = np.empty(2 * 15 * _WORKSPACE_PANELS)
    return buffer[:2 * 15 * panels].reshape(2, 15, panels)


def _node_sum(f: np.ndarray) -> np.ndarray:
    """Sums of the 15 rows of `f`, in the order numpy's pairwise sum takes a length-15 axis.

    That is ((f0 + f1) + (f2 + f3)) + ((f4 + f5) + (f6 + f7)), then f8 to
    f14 one at a time: the bits of `f.T.copy().sum(axis=1)`.  Below about
    250 columns that one reduce is the faster form; above, 14 adds along
    contiguous rows are (2-vCPU Xeon, numpy 2.4).
    """
    if f.shape[1] < _ROW_ADDS_FROM:
        return f.T.copy().sum(axis=1)
    total = f[0] + f[1]
    total += f[2] + f[3]
    right = f[4] + f[5]
    right += f[6] + f[7]
    total += right
    for row in f[8:]:
        total += row
    return total


def _asinh_step(x: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """asinh(x + dx) - asinh(x) for dx > 0, without cancellation.

    It is asinh(y*sqrt(1 + x*x) - x*sqrt(1 + y*y)) with y = x + dx.  When x
    and y share a sign, as for a link whose closest approach lies far outside
    the period, the two terms nearly cancel, and the argument is taken in the
    equal form dx*(x + y) / (y*sqrt(1 + x*x) + x*sqrt(1 + y*y)).
    """
    y = x + dx
    sx, sy = np.sqrt(1.0 + x * x), np.sqrt(1.0 + y * y)
    arg = y * sx - x * sy
    np.divide(dx * (x + y), y * sx + x * sy, out=arg, where=x * y > 0)
    return np.arcsinh(arg)


def _pieces(motions: np.ndarray, min_distance: float, duration: float):
    """Smooth pieces of moving links in their closest-approach variable u.

    `motions` are (ax, ay, bx, by) rows with |b| > 0.  Returns `link`, the row
    of `motions` each piece belongs to (a link's pieces come in ascending u),
    (P, 4) rows of (u_lo, u_width, s, s**2 - d_min**2), the transpose of a
    contiguous (4, P) array, and `scale` = s/|b|,
    so that dt = scale*cosh(u) du.  A link that never comes within
    `min_distance` is one piece, and `link` is then None: piece k is link k.
    """
    ax, ay, bx, by = np.ascontiguousarray(motions.T)
    speed = np.hypot(bx, by)
    d_min = np.abs(ax * by - ay * bx) / speed
    s = np.maximum(d_min, min_distance)
    x0 = (ax * bx + ay * by) / (speed * s)  # sinh(u) at t = 0
    lo = np.arcsinh(x0)
    widths = _asinh_step(x0, duration * speed / s)
    link = None
    clamped = np.flatnonzero(d_min < min_distance)
    if len(clamped):
        # d crosses L at u = -uc and +uc, which cut a clamped link into up to
        # three pieces: before, between and after; empty ones are dropped
        u0, width = lo[clamped], widths[clamped]
        uc = np.arcsinh(np.sqrt(min_distance**2 - d_min[clamped] ** 2) / min_distance)
        cut1 = np.clip(-uc - u0, 0.0, width)
        cut2 = np.clip(uc - u0, 0.0, width)
        lo, widths = lo.copy(), widths.copy()
        lo[clamped] += cut2
        widths[clamped] -= cut2
        widths = np.concatenate([cut1, cut2 - cut1, widths])
        keep = np.flatnonzero(widths > 0)
        link = np.concatenate([clamped, clamped, np.arange(len(motions))])[keep]
        lo = np.concatenate([u0, u0 + cut1, lo])[keep]
        widths = widths[keep]
        s, d_min, speed = s[link], d_min[link], speed[link]
    # s*s - d_min*d_min rounds to at most fl(s*s) <= fl((s*cosh)**2), so d**2 >= 0
    rows = np.stack([lo, widths, s, s * s - d_min * d_min])
    return link, rows.T, s / speed


def unit_service_batch(
    motions: np.ndarray,
    model: PathLossModel,
    p_tx_dbm: float,
    noise_dbm: float,
    period: Period,
    quad: QuadratureSpec = QuadratureSpec(),
) -> tuple[np.ndarray, np.ndarray]:
    """Per-RB service integrals for many links at once.

    `motions` is (P, 4): rows of (ax, ay, bx, by) relative-motion coefficients,
    so that d(t) = |(ax + bx*t, ay + by*t)|, one per link: the difference of
    its two ends' rows in `Scenario.motion` (or `Scenario.bs`).  Returns
    (values, converged) arrays of length P.  A link with b = 0 has a constant
    rate: its value is the period times that rate, and it counts as
    converged.  A moving link is cut into one to three smooth pieces in its
    closest-approach variable (see the module docstring).  Each piece starts
    as one panel, which gets the 15-node Kronrod estimate K15 and the
    embedded 7-node Gauss estimate G7.
    A panel is accepted when |K15 - G7| is within `quad.relative_tolerance`
    of |K15|; otherwise it is bisected in u and both halves are integrated
    again, at most `quad.max_refinements` levels deep.  A panel that fails
    at the last level keeps its K15, and its link is flagged False in
    `converged`.  A bisected panel's value is its left half's plus its
    right half's, so each piece is summed along its own bisection tree, and
    a link's value does not depend on the other links of its batch.

    A call costs about 80 us on 12 V2I links and 1 ms on the 2175 V2V links
    of an N=100 msrs block (2-vCPU Xeon, numpy 2.4).  A small call is
    mostly numpy's fixed cost per array operation, so the bookkeeping that
    a batch does not need is skipped: the quadrature when no link moves (an
    empty batch, or a held-still fleet's), the static-link rate when no link
    is static, the clamp cuts when no link comes within `min_distance`
    (every V2I batch), and the failed-panel flags when every panel
    converged.  Every value still takes the same arithmetic in the same
    order, so the results are the same bits either way.  Callers should
    batch what they can.
    """
    motions = np.asarray(motions, dtype=float).reshape(-1, 4)
    duration = period.duration
    # no link moves, or there is none (per column, count_nonzero is the cheapest test)
    if not (np.count_nonzero(motions[:, 2]) or np.count_nonzero(motions[:, 3])):
        ax, ay = motions[:, 0], motions[:, 1]
        return (duration * unit_rate(model, p_tx_dbm, noise_dbm, ax * ax + ay * ay),
                np.ones(len(motions), dtype=bool))
    moving = None  # every link moves
    static = (motions[:, 2] == 0) & (motions[:, 3] == 0)
    if static.any():
        moving = np.flatnonzero(~static)
        values = np.zeros(len(motions))
        # the static links alone take the closed form above
        values[static] = unit_service_batch(motions[static], model, p_tx_dbm, noise_dbm, period)[0]
        motions = motions[moving]
    link, pieces, scale = _pieces(motions, model.min_distance, duration)

    # Level by level: `panels` holds this level's panels node-major, as
    # rows (u_lo, u_width, s, s**2 - d_min**2) whose columns are laid out
    # as the pieces are, and `owner` their pieces (None at level 0, where
    # panel k is piece k).  A split panel's halves come next level as two
    # adjacent columns, left then right.  The node values are (15, P), so
    # every operation runs along contiguous P-long rows.  The weighted sums
    # take numpy's pairwise order (`_node_sum`), not a matrix product, whose
    # blocking could depend on the batch.
    panels, owner = pieces.T, None
    levels = []
    for level in range(quad.max_refinements + 1):
        lo, width, s, c = panels
        cosh, f = _node_arrays(panels.shape[1])
        # f = rate * cosh(u) at the nodes of each panel's u-range; the rate
        # takes d**2 = d_min**2 + (s*sinh(u))**2 = (s*cosh(u))**2 - (s**2 - d_min**2)
        np.multiply(width, _NODES, out=cosh)
        cosh += lo
        np.cosh(cosh, out=cosh)
        np.multiply(s, cosh, out=f)
        f *= f
        f -= c
        unit_rate(model, p_tx_dbm, noise_dbm, f, out=f)
        f *= cosh
        h = width * (scale if owner is None else scale[owner])  # dt/du's constant factor
        # the weighted node values go where cosh was
        kronrod = _node_sum(np.multiply(f, _KRONROD, out=cosh)) * h
        gauss = _node_sum(np.multiply(f, _GAUSS, out=cosh)) * h
        tol = quad.relative_tolerance * np.maximum(np.abs(kronrod), _ABS_FLOOR)
        split = ~(np.abs(kronrod - gauss) <= tol)
        levels.append((kronrod, split))
        if level == quad.max_refinements or not split.any():
            break
        owner = np.flatnonzero(split) if owner is None else owner[split]
        panels, owner = np.repeat(panels[:, split], 2, axis=1), np.repeat(owner, 2)
        panels[1] *= 0.5
        panels[0, 1::2] += panels[1, 1::2]

    # what still fails at the last level keeps its K15; then fold the halves
    # back into their panels, deepest level first
    piece_values = levels[-1][0]
    for kronrod, parent_split in reversed(levels[:-1]):
        kronrod[parent_split] = piece_values[0::2] + piece_values[1::2]
        piece_values = kronrod

    # bincount adds each link's pieces in order of u, from 0.0, so a link's
    # value does not depend on its batch; a link of one piece is that piece's
    # value, which is never -0.0
    if link is not None:
        piece_values = np.bincount(link, piece_values, minlength=len(motions))
    if moving is None:
        values = piece_values
    else:
        values[moving] = piece_values
    converged = np.ones(len(values), dtype=bool)
    if split.any():  # the panels that still fail at the last level flag their links
        failed = np.flatnonzero(split) if owner is None else owner[split]
        if link is not None:
            failed = link[failed]
        converged[failed if moving is None else moving[failed]] = False
    return values, converged
