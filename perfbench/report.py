"""Print every metric of every workload with its unit, plus a machine record.

    python3 perfbench/report.py [--seed 7] [--seconds 10] [--workload NAME ...]

Runs perfbench/run.py once untraced and once traced per workload, each in its
own process, and prints one line per metric, the output checks, and the
tracing overhead (traced against untraced trials/s on the same inputs).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from workloads import HERE, ROOT, WORKLOADS, machine_record

RUN_TIMEOUT_S = 300


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} (trace {trace}) failed:\n{proc.stderr}")
    for line in proc.stderr.splitlines():
        if "FAILED" in line or "absent" in line:
            print(f"  {workload}: {line}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args()

    print("machine", json.dumps(machine_record()))
    for workload in args.workload or list(WORKLOADS):
        for trace in (0, 1):
            got = run(workload, args.seed, args.seconds, trace)
            ratio = got["failed"] / got["attempted"]
            print(f"{workload} trace={trace} seed={args.seed}: correct={got['correct']} "
                  f"checks {got['failed']}/{got['attempted']} failed (fail_ratio {ratio:g})")
            for name, m in got["metrics"].items():
                print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
