"""Batch experiment harness: seeded trials, sweeps, metrics and CSV/JSON output.

A run is fully determined by its config (including the master seed): per-trial
seeds are derived from the master seed with splitmix64 in a fixed order, and
rows are sorted by (policy, seed) before emission.  Trials run in chunks of
`CHUNK_TRIALS`: a chunk generates its scenarios and builds, in shared kernel
calls, only the table sets its requested policies read; then each trial runs
those policies on its tables, one row per policy.  Neither the chunks nor
worker processes change anything but wall time, never results or output bytes.

Outputs per run directory:

* ``metrics.csv``     -- one row per (policy, trial); deterministic bytes.
* ``summary.csv``     -- exact arithmetic means per (policy, sweep point).
* ``config_echo.json``-- the resolved config, for provenance; deterministic.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from contextlib import suppress
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from .channel import PathLossModel, RadioConfig, default_radio_config
from .rng import split_seeds
from .scenario import ScenarioSpec, generate
from .scheduler import (
    BRUTE_FORCE_VEHICLE_CAP,
    ServiceTables,
    build_chunk_tables,
    plan_searches,
    require_every_pair,
    solve_irrs,
    solve_msrs,
    solve_noncooperative,
    solve_optimal_bruteforce,
    validate_schedule,
)
from .service import Period, QuadratureSpec

POLICIES = ("msrs", "irrs", "noncoop", "optimal")

DEFAULT_N_VALUES = tuple(range(20, 201, 20))
DEFAULT_SPEED_VALUES = tuple(float(s) for s in range(4, 45, 4))


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; resolved from defaults, config file and CLI flags.

    The scenario defaults are `ScenarioSpec`'s and the oracle cap is the
    scheduler's.  Lists, as a config document holds them, become tuples.
    """

    seed: int | None = None
    trials: int = 200
    policies: tuple[str, ...] = ("msrs", "irrs", "noncoop")
    n_vehicles: int = 100
    coverage_radius: float = ScenarioSpec.coverage_radius
    bs_offset: float = ScenarioSpec.bs_offset
    lane_offsets: tuple[float, float] = ScenarioSpec.lane_offsets
    speed_range: tuple[float, float] | float = ScenarioSpec.speed_range  # a number pins the speed
    period_duration: float = ScenarioSpec.period_duration
    radio: RadioConfig = field(default_factory=default_radio_config)
    quad: QuadratureSpec = field(default_factory=QuadratureSpec)
    oracle_cap: int = BRUTE_FORCE_VEHICLE_CAP
    workers: int = 1
    n_values: tuple[int, ...] = DEFAULT_N_VALUES
    speed_values: tuple[float, ...] = DEFAULT_SPEED_VALUES

    def __post_init__(self):
        if isinstance(self.speed_range, (int, float)):
            object.__setattr__(self, "speed_range", (float(self.speed_range),) * 2)
        for f in fields(self):
            if isinstance(getattr(self, f.name), list):
                object.__setattr__(self, f.name, tuple(getattr(self, f.name)))
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        for name in ("policies", "n_values", "speed_values"):
            if not getattr(self, name):
                raise ValueError(f"{name} must not be empty")
        unknown = [p for p in self.policies if p not in POLICIES]
        if unknown:
            raise ValueError(f"unknown policies {unknown}; choose from {POLICIES}")
        repeated = sorted({p for p in self.policies if self.policies.count(p) > 1})
        if repeated:
            raise ValueError(f"policies listed more than once: {repeated}")
        if self.seed is not None and not 0 <= self.seed < 2**64:
            # split_seeds reads the seed modulo 2**64, so one outside would alias one inside
            raise ValueError(f"seed must be in 0..2**64-1, got {self.seed}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.oracle_cap < 0:
            raise ValueError(f"oracle_cap must be >= 0, got {self.oracle_cap}")
        # the scenario fields and sweep points fail where the config is read, not in a trial
        self.scenario_spec(seed=0)
        for n in self.n_values:
            self.scenario_spec(seed=0, n_vehicles=n)
        for s in self.speed_values:
            self.scenario_spec(seed=0, speed_range=(s, s))
        Period(self.period_duration)

    def scenario_spec(self, seed: int, n_vehicles: int | None = None,
                      speed_range: tuple[float, float] | None = None) -> ScenarioSpec:
        return ScenarioSpec(
            n_vehicles=self.n_vehicles if n_vehicles is None else n_vehicles,
            seed=seed,
            coverage_radius=self.coverage_radius,
            bs_offset=self.bs_offset,
            lane_offsets=self.lane_offsets,
            speed_range=self.speed_range if speed_range is None else speed_range,
            period_duration=self.period_duration,
        )


@dataclass(frozen=True)
class MetricsRow:
    """One policy's outcome on one trial scenario."""

    policy: str
    seed: int
    n_vehicles: int
    speed_range: tuple[float, float]
    total_service: float | None
    loss_ratio: float | None = None
    note: str = ""


def load_config_file(path: str | Path) -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValueError(f"{path}: cannot read config file ({exc.strerror})") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not valid UTF-8 ({exc.reason} at byte {exc.start})") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: config root must be an object")
    return doc


# The JSON kind of each annotated type a config value or list item can have:
# its name in error messages and the decoded types it admits.  A bool is
# none of them.
_KINDS = {int: ("an integer", int), float: ("a number", (int, float)), str: ("a string", str),
          tuple: ("a list", list), type(None): ("null", type(None))}


def _check_kind(path: str, value, hint) -> None:
    """Raise ValueError naming `path` unless the decoded JSON `value` fits annotation `hint`.

    A list must also have the tuple's length, if it is fixed, and items of
    its item type; an item's path is its list's path plus `[index]`.
    """
    options = get_args(hint) if get_origin(hint) is UnionType else (hint,)
    for option in options:
        origin = get_origin(option) or option
        if isinstance(value, bool) or not isinstance(value, _KINDS[origin][1]):
            continue
        if origin is tuple:
            items = get_args(option)
            if items[-1] is not Ellipsis and len(value) != len(items):
                raise ValueError(f"config key {path!r} must hold {len(items)} items, "
                                 f"got {json.dumps(value)}")
            for k, item in enumerate(value):
                _check_kind(f"{path}[{k}]", item, items[0 if items[-1] is Ellipsis else k])
        return
    kind = " or ".join(_KINDS[get_origin(h) or h][0] for h in options)
    raise ValueError(f"config key {path!r} must be {kind}, got {json.dumps(value)}")


def _leaves(target, names=None, owner=None) -> dict:
    """Config keys read into `target`: JSON key -> (target, field, annotation).

    `names` maps JSON keys to fields, or lists fields read under their own
    names; by default every annotated field or parameter of `target`.  The
    annotation is the field's on `owner` (default `target`).
    """
    hints = get_type_hints(owner or target)
    hints.pop("return", None)
    names = list(hints) if names is None else names
    if not isinstance(names, dict):
        names = {name: name for name in names}
    return {key: (target, name, hints[name]) for key, name in names.items()}


_PATH_LOSS_FIELDS = {"reference_loss_db": "reference_loss", "slope_db_per_decade": "slope",
                     "distance_divisor_m": "distance_divisor", "min_distance_m": "min_distance"}

# The config document format: a section maps to its own table, a leaf to the
# (target, field, annotation) it is read into.  Radio leaves are the parameters
# of `default_radio_config`, except the per-RB power, which replaces the split
# of the total; path-loss leaves replace fields of the radio's two models.
_CONFIG_KEYS = {
    "scenario": _leaves(ExperimentConfig, {
        "n_vehicles": "n_vehicles", "coverage_radius_m": "coverage_radius",
        "bs_offset_m": "bs_offset", "lane_offsets_m": "lane_offsets",
        "speed_range_mps": "speed_range"}),
    "period": _leaves(ExperimentConfig, {"duration_s": "period_duration"}),
    "radio": {
        **_leaves(default_radio_config),
        **_leaves(RadioConfig, {"p_bs_per_rb_dbm": "p_bs_per_rb"}),
        "v2i_path_loss": _leaves("v2i_model", _PATH_LOSS_FIELDS, PathLossModel),
        "v2v_path_loss": _leaves("v2v_model", _PATH_LOSS_FIELDS, PathLossModel),
    },
    "quadrature": _leaves(QuadratureSpec),
    "run": _leaves(ExperimentConfig, ("seed", "trials", "policies", "oracle_cap", "workers")),
    "sweep": _leaves(ExperimentConfig, ("n_values", "speed_values")),
}


def _read(doc: dict, keys: dict, values: dict, prefix: str = "") -> None:
    """Check `doc` against the table `keys`, and put each leaf in values[target][field]."""
    for key, value in doc.items():
        path = prefix + key
        if key not in keys:
            raise ValueError(f"unknown config key {path!r}; expected one of {', '.join(keys)}")
        if isinstance(keys[key], dict):
            if not isinstance(value, dict):
                raise ValueError(f"config key {path!r} must be an object")
            _read(value, keys[key], values, path + ".")
            continue
        target, name, hint = keys[key]
        _check_kind(path, value, hint)
        values[target][name] = value


def config_from_doc(doc: dict, overrides: dict | None = None) -> ExperimentConfig:
    """Build a config from a parsed JSON document; `overrides` wins over the file.

    A key the document format does not define, or a value of the wrong JSON
    kind, raises ValueError naming its dotted path, so a misspelled or
    retired key cannot fall back to a default.
    """
    values = defaultdict(dict)
    _read(doc, _CONFIG_KEYS, values)
    radio = default_radio_config(**values[default_radio_config])
    radio = replace(radio, **values[RadioConfig], **{
        model: replace(getattr(radio, model), **values[model]) for model in ("v2i_model", "v2v_model")
    })
    cfg = ExperimentConfig(**values[ExperimentConfig], radio=radio,
                           quad=QuadratureSpec(**values[QuadratureSpec]))
    return replace(cfg, **overrides) if overrides else cfg


#: Trials per chunk.  A chunk's direct links take one kernel call, their rates
#: one more, and its trials' V2V pairs and search blocks share a few more;
#: worker pools map whole chunks, so both paths run the same chunks.
CHUNK_TRIALS = 8


def _run_chunk(args) -> list[MetricsRow]:
    """Consecutive trials, each (seed, n_vehicles, speed_range), sharing kernel and array calls.

    Module-level so worker pools can pickle it.  After the chunk's scenarios,
    one `build_chunk_tables` call integrates every direct link of the chunk,
    and only when irrs is requested does a second one build its rate tables
    (the fleets held still).  Only when `optimal` is requested does
    `require_every_pair` integrate every V2V pair of the trials within the
    oracle cap.  Last, one `plan_searches` call plans every search the
    trials will run: msrs's on the service tables, when msrs is requested,
    and irrs's on the rate tables.  It reads each search's V2V block once
    and integrates the block's missing pairs, in kernel calls of at most
    about 5000 links that the tables share.  A search then reads no V2V
    amount: it scores each count from its benefit matrix.  irrs's score on
    the service tables may still integrate pairs of its pairing outside the
    msrs block.  A link's value does not depend on its batch, nor a plan on
    the tables planned with it, so neither do rows.
    """
    config, trials = args
    specs = [config.scenario_spec(*trial) for trial in trials]
    scenarios = [generate(spec) for spec in specs]
    tables = build_chunk_tables(scenarios, config.radio, quad=config.quad)
    rates = []
    if "irrs" in config.policies:
        rates = build_chunk_tables([sc.held_still() for sc in scenarios], config.radio)
    oracle_cap = config.oracle_cap if "optimal" in config.policies else -1
    require_every_pair([t for t in tables if t.n <= oracle_cap])
    plan_searches((tables if "msrs" in config.policies else []) + rates)
    return [row for trial in zip(specs, tables, rates or [None] * len(trials))
            for row in _run_trial(config, *trial)]


def _run_trial(config: ExperimentConfig, spec: ScenarioSpec, tables: ServiceTables,
               rates: ServiceTables | None) -> list[MetricsRow]:
    """All requested policies on one trial's tables, in the config's policy order.

    Each policy takes the service tables as its first positional argument,
    where `perfbench/tracing.py` reads the fleet size; irrs also decides on
    `rates`.  msrs and irrs search by the plans their chunk stored on the
    tables.  The notes every row shares are read after the policies, whose
    V2V reads can add to `tables.unconverged`.
    """
    n = tables.n
    runs, opt = [], None
    for policy in config.policies:
        note = ""
        if policy == "msrs":
            sched = solve_msrs(tables)
        elif policy == "irrs":
            sched = solve_irrs(tables, rates)
        elif policy == "noncoop":
            sched = solve_noncooperative(tables)
        elif n <= config.oracle_cap:
            sched = opt = solve_optimal_bruteforce(tables, cap=config.oracle_cap)
        else:
            sched, note = None, f"refused: n_vehicles={n} exceeds oracle cap {config.oracle_cap}"
        runs.append((policy, sched, note))

    # with more vehicles than cellular RBs every direct share, and so every total, is 0
    k_lte = config.radio.k_lte
    shared = (f"no direct RBs: n_vehicles={n} exceeds k_lte={k_lte}" if n > k_lte else "",
              f"quadrature not converged on {tables.unconverged} links" if tables.unconverged else "")
    rows = []
    for policy, sched, note in runs:
        total = loss = None
        if sched is not None:
            validate_schedule(sched, n)
            total = sched.total_service
            if opt is not None and opt.total_service > 0:
                loss = (opt.total_service - total) / opt.total_service
        rows.append(MetricsRow(policy, spec.seed, n, spec.speed_range, total, loss,
                               "; ".join(filter(None, (note, *shared)))))
    return rows


def master_seed(config: ExperimentConfig) -> int:
    """The config's master seed; ValueError when it has none."""
    if config.seed is None:
        raise ValueError("a master seed is required (wall-clock seeding is not supported)")
    return config.seed


def _run_points(config: ExperimentConfig, points: list[tuple[int | None, tuple | None]]) -> list[MetricsRow]:
    """Run `config.trials` seeded trials at every (n_vehicles, speed_range) point."""
    seeds = split_seeds(master_seed(config), len(points) * config.trials)
    trials = []
    for p, (n_vehicles, speed_range) in enumerate(points):
        for k in range(config.trials):
            trials.append((seeds[p * config.trials + k], n_vehicles, speed_range))
    chunks = [(config, trials[k:k + CHUNK_TRIALS]) for k in range(0, len(trials), CHUNK_TRIALS)]
    if config.workers == 1:
        results = [_run_chunk(chunk) for chunk in chunks]
    else:
        from concurrent.futures import ProcessPoolExecutor  # imported only for a pool

        # a pool forks all its workers at its first submit, so no more than there are chunks
        with ProcessPoolExecutor(max_workers=min(config.workers, len(chunks))) as pool:
            results = list(pool.map(_run_chunk, chunks))
    rows = [row for chunk_rows in results for row in chunk_rows]
    rows.sort(key=lambda r: (r.policy, r.seed))
    return rows


def cmd_run(config: ExperimentConfig) -> list[MetricsRow]:
    """Trials at the configured single (n_vehicles, speed) point."""
    return _run_points(config, [(None, None)])


def cmd_sweep_n(config: ExperimentConfig) -> list[MetricsRow]:
    """Trials at each fleet size in `config.n_values`."""
    return _run_points(config, [(n, None) for n in config.n_values])


def cmd_sweep_speed(config: ExperimentConfig) -> list[MetricsRow]:
    """Trials at each fixed speed in `config.speed_values`."""
    return _run_points(config, [(None, (s, s)) for s in config.speed_values])


def _fmt(x: float | None) -> str:
    return "" if x is None else format(float(x), ".12g")


CSV_HEADER = "policy,seed,n_vehicles,speed_min_mps,speed_max_mps,total_service,loss_ratio,note"


def rows_to_csv(rows: list[MetricsRow]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                [
                    r.policy,
                    str(r.seed),
                    str(r.n_vehicles),
                    _fmt(r.speed_range[0]),
                    _fmt(r.speed_range[1]),
                    _fmt(r.total_service),
                    _fmt(r.loss_ratio),
                    r.note,
                ]
            )
        )
    return "\n".join(lines) + "\n"


SUMMARY_HEADER = "policy,n_vehicles,speed_min_mps,speed_max_mps,trials,mean_total_service"


def summarize(rows: list[MetricsRow]) -> str:
    """Means per (policy, point); arithmetic means of the per-trial totals."""
    groups: dict[tuple, list[MetricsRow]] = {}
    for r in rows:
        if r.total_service is None:
            continue
        groups.setdefault((r.policy, r.n_vehicles, r.speed_range), []).append(r)
    lines = [SUMMARY_HEADER]
    for key in sorted(groups):
        policy, n_vehicles, speed_range = key
        members = sorted(groups[key], key=lambda r: r.seed)
        total = 0.0  # added in seed order, as Python 3.11's `sum` did (3.12's compensates)
        for m in members:
            total += m.total_service
        mean = total / len(members)
        lines.append(
            ",".join(
                [
                    policy,
                    str(n_vehicles),
                    _fmt(speed_range[0]),
                    _fmt(speed_range[1]),
                    str(len(members)),
                    _fmt(mean),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def config_echo(config: ExperimentConfig) -> str:
    from relaysched import __version__

    doc = asdict(config)
    doc["package_version"] = __version__
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_outputs(rows: list[MetricsRow], config: ExperimentConfig, out_dir: str | Path) -> None:
    """Write metrics.csv, summary.csv and config_echo.json into out_dir: all three or none.

    Each file is written under a temporary name first, and all three are
    renamed into place only once every write has succeeded.  On an OSError
    the temporaries and any file already renamed are removed, and the error
    is raised again naming the output, not its temporary.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    texts = {"metrics.csv": rows_to_csv(rows), "summary.csv": summarize(rows),
             "config_echo.json": config_echo(config)}
    made = []  # every path this call may have created
    try:
        for name, text in texts.items():
            made.append(out / f".{name}.tmp")
            made[-1].write_text(text, encoding="utf-8")
        for name in texts:
            os.replace(out / f".{name}.tmp", out / name)
            made.append(out / name)
    except OSError as exc:
        for path in made:
            with suppress(OSError):
                path.unlink()
        if exc.filename is not None:
            exc.filename = str(out / name)
        raise
