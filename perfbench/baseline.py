#!/usr/bin/env python3
"""Runs the benchmark several times per workload and summarizes it.

Each workload runs once per seed with --trace 0, then once with --trace 1.
For every metric the summary gives the median, the quartiles and the
spread (the distance between the quartiles as a share of the median).
Run from the repository root:

    python3 perfbench/baseline.py --runs 10 --out perfbench/baseline.json
    python3 perfbench/baseline.py --workloads serve --runs 5 --first-seed 100
"""
import argparse
import json
import statistics
import subprocess
import sys


def run(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited {p.returncode}: {p.stderr[-2000:]}")
    host = next((json.loads(l.split(" host ", 1)[1]) for l in lines if ": host {" in l), None)
    return json.loads(lines[-1]), host


def summarize(results):
    out = {}
    for name in sorted(results[0]["metrics"]):
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q = statistics.quantiles(values, n=4) if len(values) > 1 else [med, med, med]
        out[name] = {"unit": results[0]["metrics"][name]["unit"], "median": med, "q1": q[0], "q3": q[2],
                     "spread": (q[2] - q[0]) / med if med else None, "values": values}
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="grid4,sweep1,serve")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=json.load(open("BENCHMARK.json"))["run_seconds"])
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    report = {"command": " ".join(sys.argv), "run_seconds": args.seconds, "workloads": {}}
    for w in args.workloads.split(","):
        seeds = list(range(args.first_seed, args.first_seed + args.runs))
        untraced, hosts = [], []
        for s in seeds:
            res, host = run(w, s, args.seconds, 0)
            untraced.append(res)
            hosts.append(host)
            print(w, s, json.dumps(res), flush=True)
        traced, _ = run(w, seeds[0], args.seconds, 1)
        summary = summarize(untraced)
        for name, m in summary.items():
            print(f"{w} {name}: median {m['median']:.6g} {m['unit']}, spread {m['spread']:.4f}", flush=True)
        report["workloads"][w] = {
            "seeds": seeds,
            "host": hosts[0],
            "calibration_ns": [h["calibration_ns"] for h in hosts],
            "correct": all(r["correct"] for r in untraced) and traced["correct"],
            "attempted": sum(r["attempted"] for r in untraced),
            "failed": sum(r["failed"] for r in untraced),
            "end_to_end": summary,
            "traced": traced["metrics"],
        }
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
