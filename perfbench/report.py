#!/usr/bin/env python3
"""Print every metric of every workload by name and unit.

    python3 perfbench/report.py [--seed N] [--seconds S] [WORKLOAD ...]

Runs perfbench/run.py for each workload twice: untraced, for the
end-to-end metrics, and traced, for the per-layer metrics. Each per-layer
metric is printed with the end-to-end metric and workload it should move.
Exits 1 when any run has failed instances (failed_frac > 0) or is not
correct.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# per-layer metric prefix -> what it should move (shares from ROADMAP item 1
# and scratch profiles of the seed commit)
MOVES = {
    "graphs.gen": "instances_per_s on recon-trials (~6%); on the unlisted recon-large"
                  " workload, instances_per_s and peak_rss_mb (~60%)",
    "graphs.enum": "instances_per_s on exhaustive (units c, d)",
    "schemes.build": "instance_p50_s on recon-trials (~22%)",
    "schemes.mean_query_size": "instance_p50_s on recon-trials",
    "schemes.queries": "instance_p50_s on recon-trials",
    "schemes.check": "instances_per_s on exhaustive (unit c)",
    "schemes.duality": "instances_per_s on exhaustive (unit c)",
    "coverfree.check": "instances_per_s on exhaustive (units a, c)",
    "coverfree.build": "instances_per_s on exhaustive (units a, b)",
    "coverfree.cff_accept_rate": "instances_per_s on exhaustive (units a, b)",
    "oracle.errors": "failed_frac on every workload",
    "oracle": "instance_p50_s on recon-trials (~50%), exhaustive (unit b), recon-large (~18%)",
    "reconstruct.decode": "instance_p50_s on recon-trials (~16%), recon-large (~12%)",
    "reconstruct.missed_edges": "failed_frac; must stay 0",
    "reconstruct": "pair_accuracy and exact_match_rate",
    "lowerbounds": "instances_per_s on exhaustive (unit d)",
    "trace": "quality of the traced run; must stay below 0.1",
}


def moves(metric: str) -> str:
    for prefix in sorted(MOVES, key=len, reverse=True):
        if metric.startswith(prefix):
            return MOVES[prefix]
    return ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    bad = False
    for name in names:
        print(f"== {name} (seed {args.seed}, {seconds} s per run)")
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                print(f"  run failed with exit code {proc.returncode}")
                bad = True
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            record = json.loads(
                (HERE / "results" / f"{name}-trace{trace}.json").read_text()
            )["record"]
            print(f"  {'per-layer, traced' if trace else 'end-to-end, untraced'}:"
                  f" attempted {record['attempted']}, failed_frac {record['failed_frac']},"
                  f" correct {result['correct']}")
            if not trace:
                exact = record["exact_match_rate"]
                print(f"    exact_match_rate = {exact} ratio")
                print(f"    failed_frac = {record['failed_frac']} ratio")
                print(f"    instance_p{record['instance_tail_level']:g}_s ="
                      f" {record['instance_tail_s']} s (scaled; {record['attempted']} samples)")
                print(f"    reference digests/verdicts: {record['reference_match']} match,"
                      f" {record['reference_differ']} differ,"
                      f" {record['reference_unrecorded']} unrecorded")
            for metric, m in result["metrics"].items():
                hint = moves(metric) if trace else ""
                print(f"    {metric} = {m['value']:.6g} {m['unit']}"
                      + (f"   -> {hint}" if hint else ""))
            bad |= record["failed_frac"] > 0 or not result["correct"]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
