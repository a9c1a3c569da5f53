"""Spans and counts around relaysched's public names, installed from outside the package.

Each wrapped name is replaced in the module namespace that calls it, so every
call a trial makes passes through the wrapper.  A name that a refactor has
removed is recorded as absent and its metrics read 0; the run goes on.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field

# (module, name) pairs the traced run wraps, each in the namespace of its caller.
WRAPPED = (
    ("relaysched.experiments", "generate"),
    ("relaysched.experiments", "build_service_tables"),
    ("relaysched.experiments", "solve_msrs"),
    ("relaysched.experiments", "solve_irrs"),
    ("relaysched.experiments", "solve_noncooperative"),
    ("relaysched.experiments", "solve_optimal_bruteforce"),
    ("relaysched.scheduler", "unit_service_batch"),
    ("relaysched.scheduler", "build_rate_tables"),
    ("relaysched.scheduler", "solve_max_assignment"),
    ("relaysched.scheduler", "pad_to_square"),
)


@dataclass
class Span:
    """One call of a wrapped name; `trial` is the scenario seed of its trial."""

    name: str
    trial: int | None
    parent: str | None
    start: float
    end: float = 0.0
    child_s: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_s


def _service_counts(args, kwargs, result) -> dict[str, int]:
    values, converged = result
    return {"links": len(values), "nonconverged": int(len(converged) - converged.sum())}


def _search_counts(args, kwargs, result) -> dict[str, int]:
    # the aided-count search considers n_av = 1 .. floor(N/2) beyond the all-direct case
    scenario = args[0] if args else kwargs["scenario"]
    return {"n_av_candidates": scenario.n // 2}


COUNTERS = {
    "unit_service_batch": _service_counts,
    "solve_msrs": _search_counts,
    "solve_irrs": _search_counts,
}


class Tracer:
    """Keeps spans in memory while installed; `trials` holds one span per trial.

    A trial starts when `generate` is called and ends when the next one starts
    or when the batch ends (`end_batch`).  Trials run one after another in one
    process, so that interval is exactly the trial's work.
    """

    def __init__(self, capture_schedules: bool = False):
        self.spans: list[Span] = []
        self.trials: list[Span] = []
        self.absent: list[str] = []
        self.schedules: list[tuple[str, int, object]] = []
        self._capture = capture_schedules
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        self.absent = []
        for modname, name in WRAPPED:
            module = importlib.import_module(modname)
            fn = getattr(module, name, None)
            if fn is None:
                self.absent.append(f"{modname}.{name}")
                continue
            self._saved.append((module, name, fn))
            setattr(module, name, self._wrap(name, fn))

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()

    def end_batch(self, now: float | None = None) -> None:
        if self.trials and not self.trials[-1].end:
            self.trials[-1].end = time.perf_counter() if now is None else now

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            now = time.perf_counter()
            if name == "generate":
                self.end_batch(now)
                spec = args[0] if args else kwargs["spec"]
                self.trials.append(Span("trial", spec.seed, None, now))
            trial = self.trials[-1].trial if self.trials else None
            parent = self._stack[-1] if self._stack else None
            span = Span(name, trial, parent.name if parent else None, now)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.child_s += span.seconds
                self.spans.append(span)
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            if self._capture and name.startswith("solve_") and name != "solve_max_assignment":
                scenario = args[0] if args else kwargs["scenario"]
                self.schedules.append((name, scenario.n, result))
            return result

        return wrapper
