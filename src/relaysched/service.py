"""Mobile service amounts: time integrals of link rates over one scheduling period.

The service amount of a link is the integral of its instantaneous achievable
rate over the scheduling period, i.e. the most data the physical layer could
move across that link while the schedule is held.  Integrands here are smooth
(a log of a rational function of t**2), so a composite Simpson rule with
interval doubling converges in a handful of refinements.
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
    """Composite-Simpson refinement policy."""

    initial_subintervals: int = 16
    relative_tolerance: float = 1e-6
    max_refinements: int = 12

    def __post_init__(self):
        if self.initial_subintervals < 2 or self.initial_subintervals % 2:
            raise ValueError("initial_subintervals must be even and >= 2")
        if self.relative_tolerance <= 0:
            raise ValueError("relative_tolerance must be positive")
        if self.max_refinements < 0:
            raise ValueError("max_refinements must be >= 0")


def _simpson(f: np.ndarray, h: float):
    # composite Simpson weights over pre-evaluated nodes; f is (P, m+1), one row per link
    return (h / 3.0) * (
        f[..., 0]
        + f[..., -1]
        + 4.0 * f[..., 1:-1:2].sum(axis=-1)
        + 2.0 * f[..., 2:-1:2].sum(axis=-1)
    )


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
    the link's two `mobility.motion_rows`.  Returns (values,
    converged) arrays of length P.  Each link's subintervals are doubled until
    two successive Simpson estimates agree to the requested relative
    tolerance; a link that reaches the refinement cap first keeps its last
    estimate and is flagged False in `converged`.  Every node is evaluated
    once: a refinement adds only the midpoints of the previous grid.  A
    link's value does not depend on the other links of its batch.
    """
    motions = np.asarray(motions, dtype=float)
    n_links = motions.shape[0]
    values = np.zeros(n_links)
    converged = np.zeros(n_links, dtype=bool)
    if n_links == 0:
        return values, converged

    def rates(rows: np.ndarray, t: np.ndarray) -> np.ndarray:
        d = np.hypot(
            rows[:, 0:1] + rows[:, 2:3] * t,
            rows[:, 1:2] + rows[:, 3:4] * t,
        )
        return unit_rate(model, p_tx_dbm, noise_dbm, d)

    # Each doubling evaluates only the new odd nodes: the even nodes of
    # linspace(0, D, 2m+1) are bitwise those of linspace(0, D, m+1), so the
    # previous row `f` is reused as is and every estimate matches a full
    # re-evaluation exactly.
    active = np.arange(n_links)
    m = quad.initial_subintervals
    f = rates(motions, np.linspace(0.0, period.duration, m + 1))
    est = _simpson(f, period.duration / m)
    for _ in range(quad.max_refinements):
        m *= 2
        g = np.empty((active.size, m + 1))
        g[:, ::2] = f
        g[:, 1::2] = rates(motions[active], np.linspace(0.0, period.duration, m + 1)[1::2])
        new = _simpson(g, period.duration / m)
        ok = np.abs(new - est) <= quad.relative_tolerance * np.maximum(np.abs(new), _ABS_FLOOR)
        done = active[ok]
        values[done] = new[ok]
        converged[done] = True
        active = active[~ok]
        if active.size == 0:
            return values, converged
        est = new[~ok]
        f = g[~ok]
    values[active] = est
    return values, converged
