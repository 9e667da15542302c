#!/usr/bin/env python3
"""Steadiness check: two sets of runs of every workload, started apart in time.

    python3 bench/steady.py --runs 10 --gap 60

Each set runs every workload once per seed (set A on seeds 1..runs, set B on the next
``runs`` seeds), each run in its own process, with BENCHMARK.json's command (which
runs for ``run_seconds``). For every end-to-end metric it prints each set's median and
quartile spread ((q3 - q1) / median, from ``statistics.quantiles(n=4)``), the move of
set B's median against set A's (positive when B is worse), and the metric's bound. A
spread above its bound, or a move of either sign larger than it, is marked, setup_s
included.
The share of failed operations must be the same in both sets. The raw results go to
bench/out/steady.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_set(spec: dict, seeds: list[int]) -> dict:
    """workload -> list of result objects, one per seed; workloads interleave per seed."""
    results = {w["name"]: [] for w in spec["workloads"]}
    for seed in seeds:
        for name in results:
            cmd = [sys.executable, *spec["command"][1:], "--workload", name, "--seed", str(seed),
                   "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            results[name].append(res)
            print(f"  seed {seed:3d} {name:16s} failed {res['failed']}/{res['attempted']}", flush=True)
    return results


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def report(spec: dict, a: dict, b: dict) -> bool:
    ok = True
    print(f"\n{'workload':16s} {'metric':17s} {'median A':>12s} {'median B':>12s} "
          f"{'spread A':>9s} {'spread B':>9s} {'B worse':>8s} {'bound':>6s}")
    for name in a:
        for m in spec["end_to_end"]:
            key, bound = m["name"], m["bound"]
            va = [r["metrics"][key]["value"] for r in a[name]]
            vb = [r["metrics"][key]["value"] for r in b[name]]
            ma, mb = statistics.median(va), statistics.median(vb)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            sa, sb = spread(va), spread(vb)
            flags = []
            if max(sa, sb) > bound:
                flags.append("SPREAD")
            if abs(worse) > bound:
                flags.append("MOVED")
            ok = ok and not flags
            print(f"{name:16s} {key:17s} {ma:>12.6g} {mb:>12.6g} {sa:>9.3%} {sb:>9.3%} "
                  f"{worse:>8.2%} {bound:>6.0%} {' '.join(flags)}")
        share = [sum(r["failed"] for r in s[name]) / sum(r["attempted"] for r in s[name]) for s in (a, b)]
        if share[0] != share[1]:
            ok = False
            print(f"{name:16s} failed share differs: {share[0]} vs {share[1]}")
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10, help="runs per workload in each set")
    ap.add_argument("--gap", type=float, default=60.0, help="seconds between the two sets")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sets = []
    for k in range(2):
        if k:
            time.sleep(args.gap)
        seeds = list(range(1 + k * args.runs, 1 + (k + 1) * args.runs))
        print(f"set {'AB'[k]}: seeds {seeds[0]}..{seeds[-1]}, started {time.strftime('%H:%M:%S')}", flush=True)
        sets.append(run_set(spec, seeds))
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps({"A": sets[0], "B": sets[1]}) + "\n")
    ok = report(spec, *sets)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
