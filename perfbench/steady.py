#!/usr/bin/env python3
"""Steadiness report for the benchmark.

Runs `perfbench/run.py` several times per workload, each run with its
own seed, and prints every end-to-end metric's median and quartiles
(Python's statistics.quantiles(values, n=4)) with the interquartile
spread as a share of the median, next to the metric's bound from
BENCHMARK.json, and the same figures for the host yardstick (reported,
not gated), so host drift shows beside them. Run from the root of a
Cayman checkout:

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --workloads fleet --runs 5 --first-seed 100
    python3 perfbench/steady.py --determinism

--determinism instead makes two traced runs of one seed per workload
and checks that the deterministic per-layer values repeat exactly
across them. (Each traced run itself checks that one and two worker
domains give the same reports and counters.)
"""

import argparse
import json
import re
import statistics
import subprocess
import sys

DETERMINISTIC = [
    "quality.speedup_geomean", "quality.area_saving_pct", "sim.instrs",
    "analysis.regions", "hls.points", "core.select.visited",
    "core.select.pruned", "core.select.frontier", "fleet.kernels",
    "fleet.clusters", "fleet.accels", "rtl.kernels", "rtl.lint_findings",
    "rtl.mismatches",
]


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(spec, workload, seed, trace):
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        tail = "\n".join(out.stderr.strip().splitlines()[-10:])
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}\n{tail}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        print(f"  {workload} seed {seed}: {result['failed']} of "
              f"{result['attempted']} checks failed", flush=True)
    for line in lines:
        m = re.search(r"host yardstick: ([0-9.]+) Minstr/s", line)
        if m:
            result["yardstick"] = float(m.group(1))
    return result


def quartile_line(name, vs, bound):
    q1, q2, q3 = statistics.quantiles(vs, n=4)
    spread = (q3 - q1) / abs(q2) if q2 else 0.0
    verdict = "" if bound is None else (
        f"  bound {bound:.2f}  {'ok' if spread < bound / 3 else 'WIDE'}")
    print(f"  {name:24s} median {q2:12.6g}  q1 {q1:12.6g}  "
          f"q3 {q3:12.6g}  spread {spread:6.3f}{verdict}", flush=True)
    return spread


def steadiness(spec, workloads, runs, first_seed):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    within = True
    for w in workloads:
        values = {name: [] for name in bounds}
        yardstick = []
        for k in range(runs):
            r = run_once(spec, w, first_seed + k, 0)
            for name in bounds:
                values[name].append(r["metrics"][name]["value"])
            yardstick.append(r.get("yardstick", float("nan")))
            print(f"  {w} seed {first_seed + k}: " + "  ".join(
                f"{name} {values[name][-1]:.6g}" for name in bounds)
                + f"  yardstick {yardstick[-1]:.4g}", flush=True)
        print(f"== {w}: {runs} runs, seeds {first_seed}..{first_seed + runs - 1}")
        for name, vs in values.items():
            spread = quartile_line(name, vs, bounds[name])
            within = within and spread <= bounds[name]
        quartile_line("host yardstick Minstr/s", yardstick, None)
    return within


def determinism(spec, workloads, seed):
    same = True
    for w in workloads:
        if w == "serve":
            continue  # its counts depend on how many requests completed
        seen = {}
        failed = attempted = 0
        for _ in range(2):
            r = run_once(spec, w, seed, 1)
            failed += r["failed"]
            attempted += r["attempted"]
            for n in DETERMINISTIC:
                seen.setdefault(n, set()).add(r["metrics"][n]["value"])
        diff = {n: sorted(v) for n, v in seen.items() if len(v) > 1}
        print(f"== {w}: deterministic values "
              f"{'repeat exactly' if not diff else 'DIFFER'} across runs; "
              f"{failed} of {attempted} checks failed", flush=True)
        for n, v in diff.items():
            print(f"  {n}: {v}")
        same = same and not diff and not failed
    return same


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--determinism", action="store_true")
    a = ap.parse_args()
    workloads = a.workloads.split(",")
    if a.determinism:
        return 0 if determinism(spec, workloads, a.first_seed) else 1
    return 0 if steadiness(spec, workloads, a.runs, a.first_seed) else 1


if __name__ == "__main__":
    sys.exit(main())
