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
its service is D*rate(|a|) in closed form.

Each piece is integrated by composite Simpson with interval doubling; a
link's value is its pieces summed in order of u.
"""

from __future__ import annotations

import math
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
    """Composite-Simpson refinement policy; subintervals count per piece of a link."""

    initial_subintervals: int = 16
    relative_tolerance: float = 1e-6
    max_refinements: int = 12

    def __post_init__(self):
        if self.initial_subintervals < 2 or self.initial_subintervals % 2:
            raise ValueError("initial_subintervals must be even and >= 2")
        if not (math.isfinite(self.relative_tolerance) and self.relative_tolerance > 0):
            raise ValueError(f"relative_tolerance must be positive and finite, "
                             f"got {self.relative_tolerance}")
        if self.max_refinements < 0:
            raise ValueError("max_refinements must be >= 0")


def _simpson(f: np.ndarray, h: np.ndarray):
    # composite Simpson weights over pre-evaluated nodes; f is (P, m+1), one row per piece
    return (h / 3.0) * (
        f[..., 0]
        + f[..., -1]
        + 4.0 * f[..., 1:-1:2].sum(axis=-1)
        + 2.0 * f[..., 2:-1:2].sum(axis=-1)
    )


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
    (P, 4) rows of (u_lo, u_width, s, s**2 - d_min**2), and `scale` = s/|b|,
    so that dt = scale*cosh(u) du.
    """
    ax, ay, bx, by = motions.T
    speed = np.hypot(bx, by)
    d_min = np.abs(ax * by - ay * bx) / speed
    s = np.maximum(d_min, min_distance)
    x0 = (ax * bx + ay * by) / (speed * s)  # sinh(u) at t = 0
    u0 = np.arcsinh(x0)
    width = _asinh_step(x0, duration * speed / s)
    # d crosses L at u = -uc and +uc; a link that never falls below L gets
    # both crossings at -inf, so that its two first pieces are empty
    clamped = d_min < min_distance
    uc = np.arcsinh(np.sqrt(np.maximum(min_distance**2 - d_min**2, 0.0)) / min_distance)
    cut1 = np.clip(np.where(clamped, -uc, -np.inf) - u0, 0.0, width)
    cut2 = np.clip(np.where(clamped, uc, -np.inf) - u0, 0.0, width)
    widths = np.concatenate([cut1, cut2 - cut1, width - cut2])
    keep = np.flatnonzero(widths > 0)
    link = keep % len(motions)
    lo = np.concatenate([u0, u0 + cut1, u0 + cut2])[keep]
    # s*s - d_min*d_min rounds to at most fl(s*s) <= fl((s*cosh)**2), so d**2 >= 0
    s, d_min = s[link], d_min[link]
    rows = np.stack([lo, widths[keep], s, s * s - d_min * d_min], axis=1)
    return link, rows, s / speed[link]


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
    the link's two `mobility.motion_rows`.  Returns (values, converged) arrays
    of length P.  A link with b = 0 has a constant rate: its value is the
    period times that rate, and it counts as converged.  A moving link is cut
    into one to three smooth pieces in its closest-approach variable (see the
    module docstring).  Each piece starts
    from `quad.initial_subintervals` subintervals, doubled until two
    successive Simpson estimates agree to the requested relative tolerance;
    a piece that reaches the refinement cap first keeps its last estimate,
    and its link is flagged False in `converged`.  Every node is evaluated
    once: a refinement adds only the midpoints of the previous grid.  A
    link's value does not depend on the other links of its batch.
    """
    motions = np.asarray(motions, dtype=float).reshape(-1, 4)
    duration = period.duration
    static = (motions[:, 2] == 0) & (motions[:, 3] == 0)
    moving = ~static
    values = np.zeros(len(motions))
    values[static] = duration * unit_rate(
        model, p_tx_dbm, noise_dbm, np.hypot(motions[static, 0], motions[static, 1])
    )
    link, pieces, scale = _pieces(motions[moving], model.min_distance, duration)

    def integrand(rows: np.ndarray, x: np.ndarray) -> np.ndarray:
        # rate * cosh(u) at fractions x of each piece's u-range, where
        # d**2 = d_min**2 + (s*sinh(u))**2 = (s*cosh(u))**2 - (s**2 - d_min**2)
        cosh = rows[:, 1:2] * x
        cosh += rows[:, 0:1]
        np.cosh(cosh, out=cosh)
        d = rows[:, 2:3] * cosh
        d *= d
        d -= rows[:, 3:4]
        np.sqrt(d, out=d)
        rate = unit_rate(model, p_tx_dbm, noise_dbm, d)
        rate *= cosh
        return rate

    # Each doubling evaluates only the new odd nodes: the even fractions of
    # linspace(0, 1, 2m+1) are bitwise those of linspace(0, 1, m+1), so the
    # previous row `f` is reused as is and every estimate matches a full
    # re-evaluation exactly.
    piece_values = np.zeros(len(pieces))
    piece_ok = np.zeros(len(pieces), dtype=bool)
    active = np.arange(len(pieces))
    step = pieces[:, 1] * scale  # Simpson's h is step/m, dt/du's constant factor included
    m = quad.initial_subintervals
    f = integrand(pieces, np.linspace(0.0, 1.0, m + 1))
    est = _simpson(f, step / m)
    for _ in range(quad.max_refinements):
        if active.size == 0:
            break
        m *= 2
        g = np.empty((active.size, m + 1))
        g[:, ::2] = f
        g[:, 1::2] = integrand(pieces[active], np.linspace(0.0, 1.0, m + 1)[1::2])
        new = _simpson(g, step[active] / m)
        ok = np.abs(new - est) <= quad.relative_tolerance * np.maximum(np.abs(new), _ABS_FLOOR)
        done = active[ok]
        piece_values[done] = new[ok]
        piece_ok[done] = True
        active = active[~ok]
        est = new[~ok]
        f = g[~ok]
    piece_values[active] = est

    # bincount adds each link's pieces in order of u, from 0.0, so a link's
    # value does not depend on its batch
    n_moving = int(np.count_nonzero(moving))
    converged = np.ones(len(motions), dtype=bool)
    values[moving] = np.bincount(link, piece_values, minlength=n_moving)
    converged[moving] = np.bincount(link, ~piece_ok, minlength=n_moving) == 0
    return values, converged
