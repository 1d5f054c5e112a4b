#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, with medians, quartiles
and pair wins per end-to-end metric.

    python3 scripts/bench_pairs.py --parent REV [--change REV]
        [--workload divisors [verify-sweep ...]] [--pairs 10] [--seed 24000]

Each revision is written with ``git archive`` into ``parent`` and
``change`` under one temporary directory, two paths of equal length,
because ``peak_rss_mb`` moves with the length of the checkout's path.
Pair i runs ``perfbench/run.py --workload W --seed SEED+i`` once in each
checkout, at run.py's own fixed run length, the parent first in even pairs
and the change first in odd ones, so a drift in machine speed over the
session falls on both sides.  Several workloads run one after another,
each with its own pairs and seeds, against the same two checkouts, and
each gets its own summary block, so one invocation shows a claimed gain
beside the rows that must not move.  Each run writes its result file
into its own checkout; this script writes nothing under the repository's
``perfbench/``.  A run whose output differs from the golden files stops
the script, and each pair prints the failed jobs of both sides, so a
change with wrong output or more failures cannot show as a gain.  The
change is HEAD by default; an uncommitted tree can be measured through the
commit ``git stash create`` prints.

For every metric of ``BENCHMARK.json``'s ``end_to_end`` list it prints the
median and quartiles of each side, the ratio of the medians, and the pairs
the change wins in the metric's better direction.  A gain counts when the
change wins at least nine of ten pairs and the difference of the medians
exceeds the parent's interquartile range.  Each pair also prints, per side,
the key of the job at the tail rank of every untraced pass, read from the
result file that run.py writes and ranked by run.py's own ``tail``, and the
summary counts those keys per side, so a change in ``job_tail_s`` can be
traced to the jobs that sit at that rank.  The same is printed and counted
for the job at the median rank of every untraced pass (the lower median of
its job times), the draws behind ``job_p50_s``.
"""

import argparse
import collections
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
RANKS = ("tail", "median")


def checkout(rev, path):
    os.makedirs(path)
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", path], input=archive, check=True)


def load_tail():
    """run.py's ``tail``, the rank rule behind ``job_tail_s``."""
    spec = importlib.util.spec_from_file_location(
        "bench_run", os.path.join(ROOT, "perfbench", "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.tail


def run_once(path, workload, seed, tail):
    """(failed jobs, metrics {name: value}, {rank: keys}) of one run.py
    invocation in ``path``, with one key per untraced pass from its result
    file for the ranks "tail" and "median"; RuntimeError if its output
    differs from the golden files."""
    out = subprocess.run(
        [sys.executable, os.path.join(path, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed)],
        cwd=path, check=True, capture_output=True, text=True).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{path}: seed {seed}: output differs from the "
                           "golden files")
    marker = "result file:"
    rel = next(line.split(marker, 1)[1].strip() for line in lines
               if line.strip().startswith(marker))
    with open(os.path.join(path, rel), encoding="utf-8") as fh:
        passes = json.load(fh)["passes"]
    keys = {rank: [] for rank in RANKS}
    for p in passes:
        if not p["traced"]:
            times = [seconds for _, seconds, _ in p["jobs"]]
            for rank, at in zip(RANKS, (tail(times)[0],
                                        statistics.median_low(times))):
                keys[rank].append(next(key for key, seconds, _ in p["jobs"]
                                       if seconds == at))
    return result["failed"], {k: v["value"]
                              for k, v in result["metrics"].items()}, keys


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(runs, metrics):
    """One row per metric: (name, better, parent q1/med/q3, change
    q1/med/q3, ratio of medians, wins, pairs, whether the medians differ
    by more than the parent's interquartile range)."""
    rows = []
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        a = [r[name] for r in runs["parent"]]
        b = [r[name] for r in runs["change"]]
        wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        pa, pb = quartiles(a), quartiles(b)
        ratio = pb[1] / pa[1] if pa[1] else float("nan")
        rows.append((name, m["better"], pa, pb, ratio, wins, len(a),
                     abs(pb[1] - pa[1]) > pa[2] - pa[0]))
    return rows


def run_pairs(workload, args, paths, metrics, tail):
    """(runs, rank keys) of ``args.pairs`` alternating pairs of one
    workload, printing one line per pair."""
    rank_keys = {(side, rank): collections.Counter()
                 for side in SIDES for rank in RANKS}
    runs = {side: [] for side in SIDES}
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        failed, keys = {}, {}
        for side in order:
            failed[side], metrics_i, keys[side] = run_once(
                paths[side], workload, args.seed + i, tail)
            runs[side].append(metrics_i)
            for rank in RANKS:
                rank_keys[side, rank].update(keys[side][rank])
        print(f"{workload} pair {i + 1}/{args.pairs} (seed {args.seed + i}, "
              f"{order[0]} first): failed {failed['parent']} -> "
              f"{failed['change']}  " + "  ".join(
                  f"{m['name']} {runs['parent'][-1][m['name']]:.4g} -> "
                  f"{runs['change'][-1][m['name']]:.4g}"
                  for m in metrics) + "".join(
                  f"  {rank} keys {','.join(keys['parent'][rank])} -> "
                  f"{','.join(keys['change'][rank])}" for rank in RANKS),
              flush=True)
    return runs, rank_keys


def print_summary(workload, args, runs, rank_keys, metrics):
    rows = summarize(runs, metrics)
    print(f"\n{workload}: {args.pairs} alternating pairs, parent "
          f"{args.parent}, change {args.change}, seeds {args.seed}.."
          f"{args.seed + args.pairs - 1}")
    print(f"{'metric':12s} {'better':6s} {'parent q1/med/q3':>30s} "
          f"{'change q1/med/q3':>30s} {'ratio':>7s} {'wins':>6s} beyond_iqr")
    for name, better, pa, pb, ratio, wins, n, beyond in rows:
        print(f"{name:12s} {better:6s} "
              f"{'/'.join(f'{x:.4g}' for x in pa):>30s} "
              f"{'/'.join(f'{x:.4g}' for x in pb):>30s} "
              f"{ratio:7.3f} {wins:>3d}/{n:<2d} {beyond}")
    for rank in RANKS:
        for side in SIDES:
            print(f"{rank} keys, {side}: " + " ".join(
                f"{key} x{count}"
                for key, count in rank_keys[side, rank].most_common()))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="git revision")
    ap.add_argument("--change", default="HEAD", help="git revision")
    ap.add_argument("--workload", nargs="+", default=["divisors"])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=24000)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    tail = load_tail()
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        paths = {side: os.path.join(tmp, side) for side in SIDES}
        for side, rev in zip(SIDES, (args.parent, args.change)):
            checkout(rev, paths[side])
        results = [(w, *run_pairs(w, args, paths, metrics, tail))
                   for w in args.workload]
    for workload, runs, rank_keys in results:
        print_summary(workload, args, runs, rank_keys, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
