"""Workload definitions and the batch call every measurement goes through.

A batch is one call of a public entry point (`experiments.cmd_run` or
`experiments.cmd_sweep_n`) followed by `experiments.write_outputs`, with one
worker in this process.  Inputs come only from the seed the batch is given.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_FILE = HERE / "reference.json"

# The reference batch: the quality metrics and the recorded summary means
# come from it, whatever --seed a run is given.
REFERENCE_SEED = 7
# Quadrature is converged to 1e-6 per link; 1e-5 on the means leaves room for
# a different but equally accurate integrator and catches a coarser one.
RELATIVE_TOLERANCE = 1e-5
# Not used while writing a change; confirms a claimed gain afterwards.
HELD_OUT_SEED = 104729

# Relative slack on msrs >= noncoop and optimal >= msrs: the policies sum the
# same terms in different orders, so an optimum found by both may differ in
# the last bits.
ORDER_SLACK = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # name of the entry point in relaysched.experiments
    doc: dict  # relaysched config document, as a --config file would hold it
    batches: int  # distinct batches in a run's set, each from its own seed
    batch_trials: int  # trials per point in one batch
    reference_trials: int  # trials per point in the fixed reference batch


_POLICIES = ["msrs", "irrs", "noncoop"]

WORKLOADS = {
    w.name: w
    for w in (
        Workload("run-n100", "cmd_run",
                 {"scenario": {"n_vehicles": 100}, "run": {"policies": _POLICIES, "workers": 1}},
                 batches=8, batch_trials=4, reference_trials=20),
        Workload("sweep-n", "cmd_sweep_n",
                 {"run": {"policies": _POLICIES, "workers": 1},
                  "sweep": {"n_values": list(range(20, 201, 20))}},
                 batches=3, batch_trials=1, reference_trials=1),
        Workload("oracle-n12", "cmd_run",
                 {"scenario": {"n_vehicles": 12},
                  "run": {"policies": _POLICIES + ["optimal"], "oracle_cap": 12, "workers": 1}},
                 batches=12, batch_trials=8, reference_trials=40),
    )
}

# The optimum exists only up to the oracle cap, so the loss against it is
# always measured on this workload's reference batch.
ORACLE_WORKLOAD = "oracle-n12"


def load_relaysched():
    """Import relaysched from this checkout's `src/`; exit 2 if it is not there."""
    src = ROOT / "src"
    if not (src / "relaysched" / "__init__.py").is_file():
        print(f"perfbench: no relaysched sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import relaysched.experiments as experiments

    if Path(experiments.__file__).resolve().parents[1] != src:
        print(f"perfbench: relaysched imported from {experiments.__file__}, not {src}",
              file=sys.stderr)
        raise SystemExit(2)
    return experiments


def batch_seed(seed: int, batch: int) -> int:
    """Master seed of the batch-th batch of a run started with `seed`."""
    return 1_000_003 * seed + batch


def resolve_config(experiments, workload: Workload, seed: int, trials: int):
    return experiments.config_from_doc(workload.doc, {"seed": seed, "trials": trials})


def run_batch(experiments, workload: Workload, seed: int, trials: int, out_dir: Path):
    """One batch; returns (rows, trials run, batch seconds, write_outputs seconds)."""
    config = resolve_config(experiments, workload, seed, trials)
    entry = getattr(experiments, workload.command)
    t0 = time.perf_counter()
    rows = entry(config)
    t1 = time.perf_counter()
    with contextlib.redirect_stderr(io.StringIO()):  # drop the per-policy [timing] lines
        experiments.write_outputs(rows, config, out_dir)
    t2 = time.perf_counter()
    return rows, len({r.seed for r in rows}), t2 - t0, t2 - t1


def order_checks(rows) -> tuple[int, list[str]]:
    """msrs >= noncoop on every trial, and optimal >= msrs where the oracle ran."""
    by_trial: dict[int, dict[str, float]] = {}
    for r in rows:
        if r.total_service is not None:
            by_trial.setdefault(r.seed, {})[r.policy] = r.total_service
    attempted, failures = 0, []
    for seed, tot in sorted(by_trial.items()):
        for high, low in (("msrs", "noncoop"), ("optimal", "msrs")):
            if high in tot and low in tot:
                attempted += 1
                if tot[high] < tot[low] * (1.0 - ORDER_SLACK):
                    failures.append(f"trial {seed}: {high} {tot[high]!r} < {low} {tot[low]!r}")
    return attempted, failures


def quality(rows) -> dict[str, float]:
    """Mean-total ratios of msrs to noncoop and irrs, and msrs's mean loss to the optimum."""
    means: dict[str, list[float]] = {}
    losses = []
    for r in rows:
        if r.total_service is not None:
            means.setdefault(r.policy, []).append(r.total_service)
        if r.policy == "msrs" and r.loss_ratio is not None:
            losses.append(r.loss_ratio)
    mean = {p: sum(v) / len(v) for p, v in means.items()}
    out = {}
    if "noncoop" in mean:
        out["msrs_gain_pct"] = 100.0 * (mean["msrs"] / mean["noncoop"] - 1.0)
    if "irrs" in mean:
        out["msrs_over_irrs_pct"] = 100.0 * (mean["msrs"] / mean["irrs"] - 1.0)
    if losses:
        out["msrs_loss_pct"] = 100.0 * sum(losses) / len(losses)
    return out


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


def compare_summary(name: str, got: str, ref: dict) -> tuple[int, list[str]]:
    """One check per reference summary row: same key columns, mean within tolerance."""
    want = ref["summaries"][name]
    have = {line.rsplit(",", 1)[0]: line.rsplit(",", 1)[1] for line in got.splitlines()[1:]}
    failures = []
    for line in want[1:]:
        key, mean = line.rsplit(",", 1)
        if key not in have:
            failures.append(f"{name}: summary row {key!r} missing")
            continue
        a, b = float(have[key]), float(mean)
        if abs(a - b) > ref["relative_tolerance"] * abs(b):
            failures.append(f"{name}: {key} mean {a!r}, reference {b!r}")
    if len(have) != len(want) - 1:
        failures.append(f"{name}: {len(have)} summary rows, reference has {len(want) - 1}")
    return len(want) - 1, failures


def machine_record() -> dict:
    import numpy

    cpu = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpu": cpu or platform.processor(),
            "python": platform.python_version(), "numpy": numpy.__version__}
