"""Benchmark workloads: the inputs each job gets, made from the run seed.

A profile job gets its own point cloud, drawn from ``(seed, job index)``, so
the same seed always yields the same sequence of inputs.  A check job gets
the seed itself as the harness seed.
"""
from __future__ import annotations

import csv
import os

import numpy as np


def _cloud2d(rng, n):
    xy = rng.uniform(0.0, 1.0, size=(n, 2))
    x, y = xy[:, 0], xy[:, 1]
    return xy, np.sin(3.0 * x) * np.cos(2.0 * y) + np.abs(x - 0.5)


def _line1d(rng, n):
    u = np.sort(rng.uniform(-1.0, 1.0, size=n))
    return u[:, None], np.sqrt(np.abs(u)) + 0.1 * np.sin(20.0 * u)


MAKERS = {"cloud2d": _cloud2d, "line1d": _line1d}

#: full-size workloads, as named in BENCHMARK.json
WORKLOADS = {
    # balls of up to ~200 points: the pair supremum over a ball
    # (scales.loc_lip_r -> metric.cross) dominates
    "profile_cloud2d": {"kind": "profile", "cloud": "cloud2d", "n": 1200,
                        "rmax": 0.25, "q": 0.5, "steps": 5, "tail": 3},
    # balls of at most ~80 points: many small calls, the per-point sorted
    # scan and the distance rows dominate
    "profile_line1d": {"kind": "profile", "cloud": "line1d", "n": 4000,
                       "rmax": 0.02, "q": 0.5, "steps": 8, "tail": 3},
    # every check suite; the only workload that reaches envelopes,
    # setclass and the fine zoo builds
    "check_all": {"kind": "check", "suite": "all", "random_spaces": None},
}

#: the same workloads shrunk to a second or two, for the self-test
TINY = {
    "profile_cloud2d": dict(WORKLOADS["profile_cloud2d"], n=150),
    "profile_line1d": dict(WORKLOADS["profile_line1d"], n=300, rmax=0.2),
    "check_all": {"kind": "check", "suite": "frechet,bhmv,oracle_equiv",
                  "random_spaces": 3},
}


def make_cloud(spec, seed, job):
    """(coords, values) of the point cloud for one profile job."""
    rng = np.random.default_rng([seed, job])
    return MAKERS[spec["cloud"]](rng, spec["n"])


def point_ids(n):
    return [f"p{i:05d}" for i in range(n)]


def write_cloud(path, coords, values):
    """Point-cloud CSV in the program's input format; floats round-trip."""
    with open(path, "w", newline="") as handle:
        w = csv.writer(handle)
        w.writerow(["id"] + [f"x{k + 1}" for k in range(coords.shape[1])]
                   + ["val"])
        for pid, c, v in zip(point_ids(len(values)), coords, values):
            w.writerow([pid] + [repr(float(t)) for t in c] + [repr(float(v))])


def radii(spec):
    """The radius grid exactly as the program builds it."""
    return spec["rmax"] * spec["q"] ** np.arange(spec["steps"])


def job_argv(spec, seed, job_dir):
    """CLI arguments of one job, and the output files it writes."""
    if spec["kind"] == "profile":
        out = os.path.join(job_dir, "profile.csv")
        argv = ["profile", "--input", os.path.join(job_dir, "input.csv"),
                "--rmax", repr(spec["rmax"]), "--q", repr(spec["q"]),
                "--steps", str(spec["steps"]), "--tail", str(spec["tail"]),
                "--out", out]
        return argv, {"profile": out,
                      "summary": os.path.join(job_dir, "profile.summary.csv")}
    report = os.path.join(job_dir, "report.json")
    argv = ["check", "--suite", spec["suite"], "--seed", str(seed),
            "--report", report]
    if spec["random_spaces"] is not None:
        argv += ["--random-spaces", str(spec["random_spaces"])]
    return argv, {"report": report}


def ball_sizes(coords, r):
    """Open-ball size (centre included) of every point at radius r."""
    counts = np.empty(len(coords), dtype=np.int64)
    for s in range(0, len(coords), 256):
        diff = coords[s:s + 256, None, :] - coords[None, :, :]
        d = np.sqrt(np.sum(diff * diff, axis=-1))
        counts[s:s + 256] = np.count_nonzero(d < r, axis=1)
    return counts
