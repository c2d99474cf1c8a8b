#!/usr/bin/env python3
"""A/B check of the benchmark declared in BENCHMARK.json: base against head.

Builds fidesbench in a base tree and in the head tree, runs interleaved
base/head pairs of every declared workload (untraced, the same seed on
both sides of a pair, alternating which side runs first), prints each
end-to-end metric's base and head medians with quartiles, and exits 1
when a head median is worse than the base median by more than that
metric's `bound` (a fraction of the base median), when a head run fails
its own checks, or when head fails a larger share of operations.

    python3 ci/bench_ab.py --base origin/main --pairs 5 --seconds 8

`--base` is a git revision, exported with `git archive` under
`.bench_build/`, or a directory that already holds a source tree.
`--head` is the tree under test (default: this repository). Each side
builds into its own `fidesbench/target` and keeps its run data in its
own `.bench_data/`.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def export_tree(rev, dest):
    """Writes the files of `rev` to `dest`, replacing what was there."""
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        sys.exit(f"bench_ab: git archive {rev} failed")
    return dest


def build(tree):
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "fidesbench/Cargo.toml"],
        cwd=tree, check=True)


def run_once(command, tree, workload, seed, seconds):
    """One untraced run; returns its result line, or None if it printed none."""
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(runs, end_to_end):
    """Prints one workload's table; returns the reasons it fails, if any."""
    problems = []
    for side in ("base", "head"):
        for seed, r in runs[side]:
            if r is None or not r.get("correct"):
                problems.append(f"{side} seed {seed}: run failed its checks: {r}")
    if any(p.startswith("base") for p in problems):
        return problems
    share = {}
    for side in ("base", "head"):
        failed = sum(r["failed"] for _, r in runs[side])
        attempted = sum(r["attempted"] for _, r in runs[side])
        share[side] = failed / max(attempted, 1)
        print(f"  {side}: {failed} of {attempted} operations failed")
    if share["head"] > share["base"]:
        problems.append(f"head fails {share['head']:.4%} of operations, base {share['base']:.4%}")
    print(f"  {'metric':<14} {'base median [q1, q3]':>30} {'head median [q1, q3]':>30}"
          f" {'change':>8} {'bound':>6} {'won':>5}")
    for m in end_to_end:
        name, lower, bound = m["name"], m["better"] == "lower", m["bound"]
        base = [r["metrics"][name]["value"] for _, r in runs["base"]]
        head = [r["metrics"][name]["value"] for _, r in runs["head"]]
        (bq1, bmed, bq3), (hq1, hmed, hq3) = quartiles(base), quartiles(head)
        change = (hmed - bmed) / bmed if bmed else 0.0
        worse = change > bound if lower else change < -bound
        won = sum((h < b) if lower else (h > b) for b, h in zip(base, head))
        print(f"  {name:<14} {bmed:>12.4g} [{bq1:>7.4g}, {bq3:>7.4g}]"
              f" {hmed:>12.4g} [{hq1:>7.4g}, {hq3:>7.4g}]"
              f" {change:>+8.1%} {bound:>6.0%} {won:>2}/{len(head):<2}"
              f"{'  WORSE' if worse else ''}")
        if worse:
            problems.append(f"{name}: head median {hmed:.4g} vs base {bmed:.4g} "
                            f"({change:+.1%}, bound {bound:.0%})")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision or source tree")
    parser.add_argument("--head", default=ROOT, help="source tree under test")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=int, default=8)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args()

    head = os.path.abspath(args.head)
    with open(os.path.join(head, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if os.path.isdir(args.base):
        base = os.path.abspath(args.base)
    else:
        base = export_tree(args.base, os.path.join(ROOT, ".bench_build", "ab-base"))
    trees = {"base": base, "head": head}
    for tree in trees.values():
        build(tree)

    failures = []
    for workload in (w["name"] for w in bench["workloads"]):
        runs = {"base": [], "head": []}
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                r = run_once(bench["command"], trees[side], workload, seed, args.seconds)
                runs[side].append((seed, r))
        print(f"{workload}: {args.pairs} pairs of {args.seconds} s, "
              f"seeds {args.seed}-{args.seed + args.pairs - 1}")
        problems = compare(runs, bench["end_to_end"])
        failures += [f"{workload}: {p}" for p in problems]
    if failures:
        print("FAIL\n" + "\n".join(failures))
        sys.exit(1)
    print("PASS: no end-to-end metric worse than its bound")


if __name__ == "__main__":
    main()
