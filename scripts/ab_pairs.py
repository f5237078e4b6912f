"""Alternating A/B pairs of the benchmark: a parent revision against the
checkout.

Usage (from the repository root):

    python3 scripts/ab_pairs.py --parent REV --workload NAME \\
        [--pairs 10] [--seconds 20] [--seed N]

REV, a commit or a tree, is unpacked with ``git archive`` into a temporary
directory (no worktree).  Each pair runs ``perfbench/run.py --trace 0`` once in each tree,
the parent first in even pairs and the checkout first in odd ones, on a
fresh seed per pair (N, N + 1, ...; random unless given).  Only the
benchmark's output is read: the last line of its stdout, one JSON object.
The checkout gets nothing but the ignored ``.perfbench/`` results.

Prints every run with its job count (the benchmark's ``jobs = N count``
line), then each side's median and quartiles for every end-to-end metric
and for the job count, and the number of pairs whose ``wall_s`` the
checkout won (lower; ties count for neither side).  A ``peak_rss_mb``
that moves with the job count moved with the runner, not the program.
Exits 1 if any run fails or reports ``correct: false``.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def unpack(rev: str, into: str):
    """The tree of ``rev`` under ``into``, by ``git archive``."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", into], input=archive, check=True)


def run(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``tree``: its JSON line, with the
    run's job count as ``jobs``, or ``{"correct": False}`` when it exits
    without one."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"run in {tree} (seed {seed}) gave no result: "
              f"{done.stderr.strip()}", file=sys.stderr)
        return {"correct": False}
    jobs = [int(line.split()[2]) for line in lines
            if line.startswith("jobs = ")]
    return dict(result, jobs=jobs[0] if jobs else None)


def spread(values: list) -> str:
    """Median and quartiles (the median alone of one value)."""
    if len(values) < 2:
        return f"median {values[0]:.6g}"
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (f"median {q2:.6g}  quartiles {q1:.6g} .. {q3:.6g}  "
            f"IQR {q3 - q1:.3g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git commit or tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int,
                        default=random.SystemRandom().randrange(10 ** 6))
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    scratch = tempfile.mkdtemp(prefix="ab-pairs-")
    try:
        unpack(args.parent, scratch)
        trees = {"parent": scratch, "change": ROOT}
        runs = {"parent": [], "change": []}
        for k in range(args.pairs):
            seed = args.seed + k
            order = ("parent", "change")[::1 if k % 2 == 0 else -1]
            for side in order:
                runs[side].append(run(trees[side], args.workload, seed,
                                      args.seconds))
            got = {side: (runs[side][-1].get("metrics", {})
                          .get("wall_s", {}).get("value"),
                          runs[side][-1].get("jobs")) for side in order}
            print(f"pair {k}: seed {seed}, {order[0]} first, wall_s "
                  + ", ".join(f"{side} {wall} ({jobs} jobs)"
                              for side, (wall, jobs) in sorted(
                                  got.items(), reverse=True)),
                  flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    correct = all(r.get("correct") is True for side in runs.values()
                  for r in side)
    if not correct:
        print("error: a run failed or reported correct: false",
              file=sys.stderr)
        return 1
    last = args.seed + args.pairs - 1
    print(f"workload {args.workload}, {args.pairs} pairs of "
          f"{args.seconds:g} s, seeds {args.seed}..{last}, parent "
          f"{args.parent}")
    for name in runs["parent"][0]["metrics"]:
        for side in ("parent", "change"):
            values = [r["metrics"][name]["value"] for r in runs[side]]
            unit = runs[side][0]["metrics"][name]["unit"]
            print(f"{name} ({unit}) {side}: {spread(values)}")
    for side in ("parent", "change"):
        jobs = [r["jobs"] for r in runs[side] if r["jobs"] is not None]
        if jobs:
            print(f"jobs (count) {side}: {spread(jobs)}")
    wall = {side: [r["metrics"]["wall_s"]["value"] for r in runs[side]]
            for side in runs}
    wins = sum(c < p for p, c in zip(wall["parent"], wall["change"]))
    print(f"wall_s: the change won {wins} of {args.pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
