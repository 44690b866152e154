"""Steadiness check: two sets of runs of one workload, alternated.

Run from the repository root::

    python3 replaybench/steady.py --workload short-flows --runs 10

Runs ``run.py --trace 0`` for BENCHMARK.json's ``run_seconds`` as
A1 B1 A2 B2 ...; set A uses seeds 1, 2, ... and set B the same
offsets from 1001, so the comparison carries seed-to-seed as well as
run-to-run spread.  For each end-to-end metric of BENCHMARK.json it
prints each set's median and quartiles, the spread ((q3 - q1) /
median, quartiles as ``statistics.quantiles(values, n=4)`` gives
them) and the gap between the medians in the metric's worse
direction, against the metric's bound.  The summary is also written
to ``.replaybench/steady-<workload>.json``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: First seed of each set.
SET_SEEDS = {"A": 1, "B": 1001}


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"run failed ({proc.returncode}):\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = time.perf_counter() - t0
    return result


def summarize(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    sets: dict = {name: [] for name in SET_SEEDS}
    for i in range(args.runs):
        for name in sets:
            seed = SET_SEEDS[name] + i
            res = run_once(args.workload, seed, seconds)
            sets[name].append(res)
            print(f"{name}{i + 1} seed {seed}: {res['elapsed_s']:.1f}s "
                  f"attempted {res['attempted']} failed {res['failed']} "
                  + " ".join(f"{k}={v['value']:.6g}"
                             for k, v in res["metrics"].items()),
                  file=sys.stderr, flush=True)
    summary = {"workload": args.workload, "runs": args.runs,
               "seconds": seconds, "results": sets, "metrics": {}}
    ok = True
    print(f"{args.workload}: {args.runs} runs per set, {seconds}s each")
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        row = {}
        for set_name, results in sets.items():
            row[set_name] = summarize(
                [r["metrics"][name]["value"] for r in results]
            )
        line = f"  {name:<18} bound {bound:.2f}"
        for set_name, s in row.items():
            line += (f" | {set_name} {s['median']:.6g} "
                     f"[{s['q1']:.6g}, {s['q3']:.6g}] spread {s['spread']:.3f}")
        a, b = row["A"]["median"], row["B"]["median"]
        gap = (b - a) / a if metric["better"] == "lower" else (a - b) / a
        line += f" | gap {gap:+.3f}"
        metric_ok = gap <= bound
        spreads = [s["spread"] for s in row.values()]
        if name != "setup_s" and max(spreads) > bound:
            metric_ok = False
        row["gap"] = gap
        ok = ok and metric_ok
        line += "  ok" if metric_ok else "  OVER"
        summary["metrics"][name] = row
        print(line)
    shares = {k: sorted({r["failed"] / r["attempted"] for r in v})
              for k, v in sets.items()}
    print(f"  failed share per set: {shares}")
    if len({tuple(v) for v in shares.values()}) != 1 or any(
        len(v) != 1 for v in shares.values()
    ):
        ok = False
    summary["failed_share"] = shares
    summary["ok"] = ok
    os.makedirs(os.path.join(ROOT, ".replaybench"), exist_ok=True)
    with open(os.path.join(ROOT, ".replaybench",
                           f"steady-{args.workload}.json"), "w") as f:
        json.dump(summary, f, indent=2)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
