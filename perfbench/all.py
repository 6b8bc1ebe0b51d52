"""Run every workload in BENCHMARK.json, untraced then traced, one at a time.

    python3 perfbench/all.py --seed N > FILE

Each run is its own `perfbench/run.py` process, for BENCHMARK.json's
run_seconds, so each measures its own import and set-up.  Prints every metric
with its unit per workload, then one JSON object holding every run's result
and report as the last line, so two commits compare as a diff of two files.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 600


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args(argv)
    seconds = bench["run_seconds"]

    runs = []
    failed = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            report = json.loads(lines[-2].removeprefix("report "))
            failed += result["failed"] + (not result["correct"])
            print(f"== {workload} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, m in result["metrics"].items():
                print(f"   {name} = {m['value']!r} {m['unit']}")
            runs.append({"workload": workload, "trace": trace, "result": result,
                         "report": report})

    print(json.dumps({"seed": args.seed, "seconds": seconds, "runs": runs}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
