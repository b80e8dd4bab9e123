#!/usr/bin/env python3
"""Compares a perfbench run against the committed BENCH_city.json.

    python3 perfbench/run.py --workload camera_inference --seed 7 \\
        --seconds 20 --trace 0 > run.txt
    python3 scripts/bench_compare.py --workload camera_inference run.txt

The input is perfbench/run.py's output (its last line is the JSON result).
An untraced run is compared, metric by metric, with the median of the
committed change runs of the same workload, and a metric worse by more than
perfbench's bound (0.25, relative) is marked WORSE; the exit status is 1 if
any is. A traced run is compared with the committed traced run and only
prints its deltas: per-layer metrics carry no bound. Both files are read as
they are; nothing is written.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASELINE = ROOT / "BENCH_city.json"
BOUND = 0.25  # perfbench's bound on every end-to-end metric


def result_line(text):
    for line in reversed(text.splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    sys.exit("bench_compare: no JSON result line in the input")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("run", help="perfbench/run.py output")
    parser.add_argument("--workload", required=True,
                        choices=("city_ingest", "camera_inference",
                                 "dashboard_reads"))
    args = parser.parse_args()

    run = result_line(Path(args.run).read_text())
    baseline = json.loads(BASELINE.read_text())
    metrics = {k: v["value"] for k, v in run["metrics"].items()}
    traced = "p50_ms" not in metrics
    if traced:
        ref = baseline["traced"].get(args.workload)
        if ref is None:
            sys.exit(f"bench_compare: no traced {args.workload} run in "
                     f"{BASELINE.name}")
        ref = ref["change"]
    else:
        ref = baseline["untraced"][args.workload]["change"]["median"]

    print(f"# against {BASELINE.name} (the change on top of "
          f"{baseline['env']['git_sha'][:12]}), "
          f"{'traced, no bound' if traced else f'bound {BOUND:g}'}")
    print(f"# run: correct={run['correct']} attempted={run['attempted']} "
          f"failed={run['failed']}")
    failing = not run["correct"] or run["failed"] > 0
    for name in sorted(set(metrics) & set(ref)):
        base, new = ref[name], metrics[name]
        # Every end-to-end metric (the only ones bounded) is lower-better.
        change = (new - base) / abs(base) if base else 0.0
        mark = ""
        if not traced and change > BOUND:
            mark = "  WORSE"
            failing = True
        print(f"{name:40s} {base:12.6g} -> {new:12.6g}  {change * 100:+7.1f}%"
              f"{mark}")
    for name in sorted(set(ref) - set(metrics)):
        print(f"{name:40s} missing from the run")
    sys.exit(1 if failing and not traced else 0)


if __name__ == "__main__":
    main()
