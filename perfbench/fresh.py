"""Work that must start from a fresh interpreter; run.py starts it as a child process.

    python3 perfbench/fresh.py setup <workload>
        import relaysched and resolve the workload's config, nothing more
        (run.py times this from process start to exit: `setup_s`).
    python3 perfbench/fresh.py reference <workload> <out_dir>
        run the workload's fixed reference batch, plus the oracle reference
        batch when the workload has no oracle, with every schedule captured
        and checked; print one JSON object with the outputs, the checks and
        this process's peak resident memory (`peak_rss_mb`).
    python3 perfbench/fresh.py record
        rewrite reference.json from the reference batches at this commit.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

from tracing import Tracer
from workloads import (
    HELD_OUT_SEED,
    ORACLE_WORKLOAD,
    REFERENCE_FILE,
    REFERENCE_SEED,
    RELATIVE_TOLERANCE,
    ROOT,
    WORKLOADS,
    load_relaysched,
    order_checks,
    quality,
    resolve_config,
    run_batch,
)


def setup(name: str) -> None:
    experiments = load_relaysched()
    resolve_config(experiments, WORKLOADS[name], REFERENCE_SEED, WORKLOADS[name].reference_trials)


def reference(name: str, out_dir: Path) -> dict:
    experiments = load_relaysched()
    from relaysched.scheduler import InvalidScheduleError, validate_schedule

    names = [name] if name == ORACLE_WORKLOAD else [name, ORACLE_WORKLOAD]
    tracer = Tracer(capture_schedules=True)
    tracer.install()
    summaries, order_attempted, order_failures, qual = {}, 0, [], {}
    try:
        for wname in names:
            wl = WORKLOADS[wname]
            rows, *_ = run_batch(experiments, wl, REFERENCE_SEED, wl.reference_trials,
                                 out_dir / wname)
            summaries[wname] = (out_dir / wname / "summary.csv").read_text(encoding="utf-8")
            attempted, failures = order_checks(rows)
            order_attempted += attempted
            order_failures += failures
            q = quality(rows)
            if wname == name:
                qual.update(msrs_gain_pct=q["msrs_gain_pct"],
                            msrs_over_irrs_pct=q["msrs_over_irrs_pct"])
            if wname == ORACLE_WORKLOAD:
                qual["msrs_loss_pct"] = q["msrs_loss_pct"]
    finally:
        tracer.uninstall()

    invalid = []
    for solver, n, schedule in tracer.schedules:
        try:
            validate_schedule(schedule, n)
        except InvalidScheduleError as exc:
            invalid.append(f"{solver} (n={n}): {exc}")
    service = [s for s in tracer.spans if s.name == "unit_service_batch"]
    return {
        "summaries": summaries,
        "quality": qual,
        "order_attempted": order_attempted,
        "order_failures": order_failures,
        "schedules": len(tracer.schedules),
        "invalid_schedules": invalid,
        "service_calls": len(service),
        "nonconverged_calls": sum(1 for s in service if s.counts.get("nonconverged")),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def record() -> None:
    out = ROOT / ".perfbench_out" / "record"
    summaries = {}
    for name in WORKLOADS:
        summaries[name] = reference(name, out)["summaries"][name].splitlines()
    doc = {
        "seed": REFERENCE_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "relative_tolerance": RELATIVE_TOLERANCE,
        "summaries": summaries,
    }
    REFERENCE_FILE.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    mode = sys.argv[1] if len(sys.argv) > 1 else ""
    if mode == "setup" and len(sys.argv) == 3:
        setup(sys.argv[2])
    elif mode == "reference" and len(sys.argv) == 4:
        print(json.dumps(reference(sys.argv[2], Path(sys.argv[3]))))
    elif mode == "record" and len(sys.argv) == 2:
        record()
    else:
        print(__doc__, file=sys.stderr)
        raise SystemExit(2)
