"""Run workloads over several seeds, one run at a time, and summarise.

    python3 bench/repeat.py --seeds 1-10 --seconds 15
    python3 bench/repeat.py --workloads train_b16 --seeds 1-5

For each workload and metric it prints the median, the quartiles as
``statistics.quantiles(n=4)`` gives them, and the spread (Q3 - Q1) /
median next to the metric's bound from BENCHMARK.json.  Runs are
untraced, sequential subprocesses of bench/run.py, each waited for; each
run's full record is in bench/out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import quartile_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    print("| workload | metric | unit | median | Q1 | Q3 | spread | bound |")
    print("|---|---|---|---|---|---|---|---|")
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            res = run_once(workload, seed, args.seconds)
            if not res["correct"]:
                print(f"{workload} seed {seed}: incorrect, {res['failed']} of "
                      f"{res['attempted']} failed", file=sys.stderr)
            results.append(res)
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = quartile_spread(values) if med else float("nan")
            else:
                q1 = q3 = med
                spread = float("nan")
            bound = bounds.get(name)
            print(f"| {workload} | {name} | {first['unit']} | {med:.6g} | "
                  f"{q1:.6g} | {q3:.6g} | {spread:.4f} | "
                  f"{'' if bound is None else bound} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
