"""Self-test of the benchmark; exits 0 when every check holds.

Usage (from the repository root): python3 perfbench/selftest.py

1. A tiny-size pass of each workload, untraced and traced, prints every
   metric by name with its unit; the names and units must match
   BENCHMARK.json and the outputs must pass the gate.
2. The correctness gate must pass on a profile job's own outputs and fire
   when one value or flag in the benchmark's copy of them is perturbed.
3. In a directory holding only BENCHMARK.json and the benchmark, the run
   must exit non-zero without printing a result.
"""
from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys

import numpy as np

import gate
import run
import workloads

def tiny_passes(bench, expect):
    declared = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    named = {w["name"] for w in bench["workloads"]}
    expect(named == set(workloads.WORKLOADS),
           "BENCHMARK.json names every workload")
    for name, spec in workloads.TINY.items():
        for trace in (0, 1):
            line, details = run.measure(name, spec, 11, 0, trace)
            print(f"-- {name} trace={trace}")
            run.report(details)
            print(json.dumps(line))
            expect(sorted(line) == ["attempted", "correct", "failed",
                                    "metrics"], f"{name}/{trace} result keys")
            units = {m: v["unit"] for m, v in line["metrics"].items()}
            expect(units == declared[trace],
                   f"{name}/{trace} metrics match BENCHMARK.json")
            expect(line["correct"] and line["failed"] == 0,
                   f"{name}/{trace} outputs pass the gate")


def _rewrite(src, dst, row, col, change):
    with open(src, newline="") as handle:
        rows = list(csv.reader(handle))
    rows[row][col] = change(rows[row][col])
    with open(dst, "w", newline="") as handle:
        csv.writer(handle).writerows(rows)


def gate_fires(scratch, expect):
    spec = workloads.TINY["profile_cloud2d"]
    job_dir = os.path.join(scratch, "gate")
    os.makedirs(job_dir)
    coords, values = workloads.make_cloud(spec, 5, 0)
    ids = workloads.point_ids(len(values))
    workloads.write_cloud(os.path.join(job_dir, "input.csv"), coords, values)
    argv, outputs = workloads.job_argv(spec, 5, job_dir)
    result = run.run_job(job_dir, argv)
    expect(result is not None and result["rc"] == 0, "tiny profile job runs")
    radii = workloads.radii(spec)
    # a point whose largest ball holds a pair, so every column is non-zero
    sizes = workloads.ball_sizes(coords, float(radii[0]))
    i = int(np.argmax(sizes))
    args = (coords, values, ids, radii, spec["tail"], [i])
    expect(gate.check_profile(*args, outputs["profile"],
                              outputs["summary"]) == [],
           "gate passes the program's own outputs")
    copy = os.path.join(job_dir, "copy.csv")
    row = 1 + i * len(radii)
    for col, label in ((2, "lip_upper"), (6, "loc")):
        _rewrite(outputs["profile"], copy, row, col,
                 lambda t: repr(float(t) * (1 + 1e-6)))
        expect(gate.check_profile(*args, copy, outputs["summary"]) != [],
               f"gate fires on a perturbed {label} value")
    _rewrite(outputs["summary"], copy, 1 + i, 1,
             lambda t: repr(float(t) * (1 + 1e-6) + 1e-12))
    expect(gate.check_profile(*args, outputs["profile"], copy) != [],
           "gate fires on a perturbed lip_hat")
    _rewrite(outputs["summary"], copy, 1 + i, 4,
             lambda t: "0" if t == "1" else "1")
    expect(gate.check_profile(*args, outputs["profile"], copy) != [],
           "gate fires on a flipped unresolved flag")


def refuses_without_program(scratch, expect):
    bare = os.path.join(scratch, "bare")
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "check_all",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170)
    expect(done.returncode != 0 and "{" not in done.stdout,
           "run without the program exits non-zero and prints no result")


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    failures = []

    def expect(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    scratch = os.path.join(run.OUT, f"selftest-{os.getpid()}")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    try:
        tiny_passes(bench, expect)
        gate_fires(scratch, expect)
        refuses_without_program(scratch, expect)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
