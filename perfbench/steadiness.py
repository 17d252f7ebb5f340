#!/usr/bin/env python3
"""Steadiness check for the campaign benchmark.

    python3 perfbench/steadiness.py [--runs N] [--sets S] [--gap SECONDS]
                                    [--workloads a,b] [--seconds S] [--trace 0|1]
                                    [--seed-base N] [--json OUT]

Run from the root of a checkout. Runs every workload N times per set, run r
with seed seed_base + 4096*r, and the workload order reversed on every other
run. (Experiment i of a list draws from campaign_seed XOR i, so seeds that
differ only in their low bits draw the same faults in another order.) S sets
are taken, with --gap seconds of pause between them. For each workload and
metric it prints the median and quartiles of every set (Python's
statistics.quantiles(values, n=4)), the interquartile range as a share of the
median, and how far each set's median moved from the first.
A metric is flagged when its spread, or its move between sets, exceeds its
bound in BENCHMARK.json (the spread of setup_s is reported, not gated); a
spread above a third of the bound is marked as a warning. It also checks
that every run passed its output checks, that the share of failed
experiments is identical across sets, and that runs with the same seed give
identical record digests. Exits 1 if anything is flagged.
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


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"steadiness: {workload} seed {seed} exited {p.returncode}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    digest = ref = None
    for line in p.stderr.splitlines():
        if line.startswith("digest "):
            digest = line.split(" records=")[1].split()[0]
        elif line.startswith("info ") and "host.ref_mops=" in line:
            ref = float(line.split("host.ref_mops=")[1].split()[0])
    result["host.ref_mops"] = ref
    return result, digest


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--gap", type=float, default=0.0, help="pause between sets, seconds")
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seed-base", type=int, default=1000)
    ap.add_argument("--json", help="write every run's result to this file")
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    metrics = bench["per_layer" if args.trace else "end_to_end"]

    runs = {w: [[] for _ in range(args.sets)] for w in workloads}
    digests = {}
    problems = []
    for s in range(args.sets):
        if s and args.gap:
            time.sleep(args.gap)
        for r in range(args.runs):
            order = workloads if r % 2 == 0 else workloads[::-1]
            for w in order:
                seed = args.seed_base + 4096 * r
                result, digest = run_once(w, seed, args.seconds, args.trace)
                runs[w][s].append(result)
                if not result["correct"]:
                    problems.append(f"{w} seed {seed}: output checks failed")
                if digest and digests.setdefault((w, seed), digest) != digest:
                    problems.append(f"{w} seed {seed}: record digest differs between runs")
                print(f"set {s} run {r} {w} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                    + f", host.ref_mops={result['host.ref_mops']}", flush=True)

    print()
    for w in workloads:
        shares = {sum(x["failed"] for x in rs) / sum(x["attempted"] for x in rs)
                  for rs in runs[w]}
        if len(shares) > 1:
            problems.append(f"{w}: failed share differs between sets: {sorted(shares)}")
        for m in metrics:
            name, bound = m["name"], m.get("bound")
            line = f"{w:14s} {name:28s}"
            first = None
            for s, rs in enumerate(runs[w]):
                values = [x["metrics"][name]["value"] for x in rs]
                med, q1, q3, iqr = spread(values)
                line += f" | set{s} med {med:.4g} q1 {q1:.4g} q3 {q3:.4g} iqr {100 * iqr:.1f}%"
                flag = ""
                if bound is not None and name != "setup_s":
                    if iqr > bound:
                        flag = " SPREAD>BOUND"
                        problems.append(f"{w} {name} set {s}: spread {iqr:.3f} > bound {bound}")
                    elif iqr > bound / 3:
                        flag = " (spread>bound/3)"
                if first is None:
                    first = med
                else:
                    worse = (med - first) / first if m["better"] == "lower" else (first - med) / first
                    line += f" move {100 * worse:+.1f}%"
                    if bound is not None and worse > bound:
                        flag += " MOVE>BOUND"
                        problems.append(f"{w} {name} set {s}: median worse by {worse:.3f} > {bound}")
                line += flag
            print(line + (f" | bound {bound}" if bound is not None else ""))
        refs = [statistics.median(x["host.ref_mops"] for x in rs) for rs in runs[w]]
        print(f"{w:14s} {'host.ref_mops':28s} | " + " | ".join(
            f"set{s} med {r:.4g}" for s, r in enumerate(refs)))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(runs, f, indent=1)
    for p in problems:
        print("FLAG:", p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
