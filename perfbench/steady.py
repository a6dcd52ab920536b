#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and report how steady it is.

Run from the repository root:

    python3 perfbench/steady.py --runs 10 --out report.md --json batch1.jsonl
    python3 perfbench/steady.py --compare batch1.jsonl batch2.jsonl

For every workload in BENCHMARK.json (or those named with --workloads)
it runs `perfbench/run.py --trace 0` once per seed, seeds 1..runs, and
reports each end-to-end metric's median, first and third quartile
(statistics.quantiles, n=4), the spread (Q3 - Q1) / median, and the
metric's bound from BENCHMARK.json, and the spread the time metrics
would have without the host-speed scaling (NOTES.md). Runs whose result
is not correct are listed. --compare checks two batches against each
other: how far each metric's median moved, against its bound.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=200)
    wall = time.time() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    m = re.search(r"host probe median .* \(scale ([0-9.]+)\)", proc.stderr)
    return json.loads(lines[-1]), wall, float(m.group(1)) if m else 1.0


def unscaled(name, value, scale):
    """Undoes the host-speed scaling of a time metric."""
    if name == "req_per_s":
        return value * scale
    if name == "setup_s" or name.startswith("ns_per_req."):
        return value / scale
    return value


def spread(vals):
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return q1, q3, (q3 - q1) / statistics.median(vals)


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--out", help="markdown report to append to (also printed)")
    ap.add_argument("--json", help="JSON-lines file to append every run's result to")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"),
                    help="compare the medians of two --json files instead of running")
    args = ap.parse_args()
    if args.compare:
        compare(bench, *args.compare)
        return

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = [f"## Steadiness: {args.runs} runs per workload, seeds {args.first_seed}.."
           f"{args.first_seed + args.runs - 1}, --seconds {args.seconds}", "",
           f"Started {time.strftime('%Y-%m-%d %H:%M:%S UTC', time.gmtime())}.", ""]
    emit(out, args.out)
    for workload in args.workloads.split(","):
        out = []
        results, walls, scales, bad = [], [], [], []
        for i in range(args.runs):
            seed = args.first_seed + i
            res, wall, scale = run_once(workload, seed, args.seconds)
            results.append(res)
            walls.append(wall)
            scales.append(scale)
            if not res["correct"] or res["failed"]:
                bad.append(seed)
            if args.json:
                with open(args.json, "a") as f:
                    f.write(json.dumps({"workload": workload, "seed": seed, "wall_s": wall,
                                        "scale": scale, "result": res}) + "\n")
            print(f"{workload} seed {seed}: {wall:.1f} s, correct={res['correct']}", file=sys.stderr)
        out.append(f"### {workload}")
        out.append("")
        out.append(f"Wall time per run: median {statistics.median(walls):.1f} s, max {max(walls):.1f} s. "
                   f"Runs not correct: {bad or 'none'}.")
        out.append("")
        out.append(f"Host-speed scale per run: {', '.join(f'{s:.3f}' for s in scales)}.")
        out.append("")
        out.append("| metric | median | Q1 | Q3 | spread | bound | spread / bound | unscaled spread |")
        out.append("|---|---|---|---|---|---|---|---|")
        for name in bounds:
            vals = [r["metrics"][name]["value"] for r in results]
            raw = [unscaled(name, v, s) for v, s in zip(vals, scales)]
            q1, q3, sp = spread(vals)
            out.append(f"| {name} | {statistics.median(vals):.6g} | {q1:.6g} | {q3:.6g} | {sp:.3f} | "
                       f"{bounds[name]} | {sp / bounds[name]:.2f} | {spread(raw)[2]:.3f} |")
        out.append("")
        emit(out, args.out)


def emit(lines, path):
    text = "\n".join(lines) + "\n"
    print(text, flush=True)
    if path:
        with open(path, "a") as f:
            f.write(text)


def compare(bench, first, second):
    """Prints, per workload and end-to-end metric, how far the second
    batch's median moved from the first's, as a share of the first, and
    whether a worsening stays within the metric's bound."""
    def load(path):
        runs = {}
        for line in open(path):
            r = json.loads(line)
            runs.setdefault(r["workload"], []).append(r["result"]["metrics"])
        return runs
    a, b = load(first), load(second)
    print("| workload | metric | first median | second median | change | worse by | bound | within |")
    print("|---|---|---|---|---|---|---|---|")
    for workload in a:
        for m in bench["end_to_end"]:
            name = m["name"]
            ma = statistics.median(r[name]["value"] for r in a[workload])
            mb = statistics.median(r[name]["value"] for r in b[workload])
            change = (mb - ma) / ma
            worse = change if m["better"] == "lower" else -change
            print(f"| {workload} | {name} | {ma:.6g} | {mb:.6g} | {change:+.3f} | {max(worse, 0):.3f} | "
                  f"{m['bound']} | {'yes' if worse <= m['bound'] else 'NO'} |")


if __name__ == "__main__":
    main()
