#!/usr/bin/env python3
"""Steadiness tool: runs every workload many times and reports the spread.

    python3 repobench/steady.py [--runs 10] [--seeds 1,2,...] [--workloads a,b]
                                [--seconds S] [--trace 0|1]

Runs each workload --runs times (default 10), each run with the next seed of
--seeds (default 1..runs), alternating the order of the workloads between
passes (forward, then reversed) so that a slow drift of the host does not
always land on the same workload. For each workload and metric it prints the
median, the first and third quartiles (statistics.quantiles(values, n=4)),
the spread (Q3 - Q1) / median, the bound from BENCHMARK.json, and a suggested
bound: three and a half times the largest spread seen across workloads,
rounded up to a hundredth, within [0.05, 0.25]; setup_s is always given the
largest bound. It also checks that every run of a workload failed the same
share of its operations.

The raw values are written fresh to .bench_out/steady.json. Exit code 0 when
every spread except setup_s's is below a third of its bound, 1 otherwise.
"""
import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def host_fingerprint():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "kernel": platform.release(), "python": platform.python_version()}


def run_once(command, workload, seed, seconds, trace):
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seeds", default="",
                        help="comma-separated seeds (default 1..runs)")
    parser.add_argument("--workloads", default="",
                        help="comma-separated (default: all in BENCHMARK.json)")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    seeds = ([int(s) for s in args.seeds.split(",")] if args.seeds
             else list(range(1, args.runs + 1)))
    if len(seeds) < args.runs:
        raise SystemExit("need at least --runs seeds")
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    defs = bench["per_layer"] if args.trace else bench["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in defs}

    runs = {w: [] for w in workloads}
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            r = run_once(bench["command"], w, seeds[i], args.seconds, args.trace)
            runs[w].append(r)
            print(f"pass {i + 1}/{args.runs} {w} seed {seeds[i]}: "
                  f"{r['wall_s']:.1f}s wall, correct={r['correct']}, "
                  f"failed {r['failed']}/{r['attempted']}", flush=True)

    report = {"host": host_fingerprint(), "seeds": seeds[:args.runs],
              "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    worst = {}
    ok = True
    rows = []
    for w in workloads:
        shares = {r["failed"] / r["attempted"] for r in runs[w]}
        if len(shares) != 1 or not all(r["correct"] for r in runs[w]):
            ok = False
            print(f"{w}: failed shares {sorted(shares)}, correct "
                  f"{[r['correct'] for r in runs[w]]}")
        stats = {}
        for m in defs:
            values = [r["metrics"][m["name"]]["value"] for r in runs[w]]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            stats[m["name"]] = {"values": values, "median": med, "q1": q1,
                                "q3": q3, "spread": spread}
            worst[m["name"]] = max(worst.get(m["name"], 0.0), spread)
            bound = bounds[m["name"]]
            steady = bound is None or m["name"] == "setup_s" or spread < bound / 3
            ok = ok and steady
            rows.append((w, m["name"], m["unit"], med, q1, q3, spread, bound,
                         "" if steady else "  <-- above bound/3"))
        report["workloads"][w] = {
            "failed_shares": sorted(shares),
            "wall_s": [r["wall_s"] for r in runs[w]],
            "metrics": stats}

    print(f"\nhost: {json.dumps(report['host'])}")
    print(f"seeds: {report['seeds']}, {args.seconds}s per run\n")
    print("| workload | metric | unit | median | Q1 | Q3 | spread | bound |")
    print("|---|---|---|---|---|---|---|---|")
    for w, name, unit, med, q1, q3, spread, bound, flag in rows:
        print(f"| {w} | {name} | {unit} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
              f"{spread:.4f} | {bound if bound is not None else '-'} |{flag}")
    if not args.trace:
        print("\nsuggested bounds (3.5 x worst spread, within [0.05, 0.25]):")
        for name, spread in worst.items():
            suggested = (0.25 if name == "setup_s" else
                         min(0.25, max(0.05, math.ceil(spread * 350) / 100)))
            print(f"  {name}: worst spread {spread:.4f} -> {suggested}")

    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out", "steady.json"), "w") as f:
        json.dump(report, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
