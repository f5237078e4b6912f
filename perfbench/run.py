"""lipderiv benchmark: timed CLI jobs, correctness gate, per-layer trace.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in ``workloads.py`` and described in BENCHMARK.json.
Each job is one call of ``lipderiv.cli.main`` in a fresh single-threaded
Python process (``job.py``): one client, one job at a time, closed loop.
A run starts jobs while one more of median length still ends within
``--seconds``, and runs at least one.

With ``--trace 0`` the run reports end-to-end metrics: ``wall_s`` (median
wall time around ``cli.main``), ``setup_s`` (median time to import lipderiv
in a fresh process, over several import-only probes and every job) and
``peak_rss_mb`` (the highest peak RSS of the run's job processes; a job's
peak depends on its input's allocation pattern, so the maximum is steadier
than a median).  Failed operations are counted in ``attempted`` / ``failed``
and printed as ``failed_frac``; that share is 0 on a correct program, so it
gets no relative bound of its own.

With ``--trace 1`` each input runs twice, untraced and traced; the traced job
wraps the layers from outside (``spans.py``) and the run reports per-layer
counts and times (medians over traced jobs) and ``trace.overhead_s``, the
median of traced minus untraced wall time.

Every job is gated: profile outputs against a by-definition oracle on sampled
points (``gate.py``), check reports by their failing checks, and a traced
job's outputs must hash equal to its untraced twin.  The last stdout line is
one JSON object; details (environment, per-job input properties, output
sha256 digests) go to ``.perfbench/results/``.  Exit status is 0 only when
every operation succeeded and every output was correct.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import gate
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")

#: set in every job's environment so numpy's BLAS/OpenMP stay on one thread
THREAD_VARS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1", "BLIS_NUM_THREADS": "1",
               "VECLIB_MAXIMUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}
SETUP_PROBES = 11         # import-only processes per untraced run
GATE_POINTS = 20          # oracle-checked points per profile job
JOB_TIMEOUT_S = 170

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

SUITE_NAMES = ("chain", "plus_variant", "frechet", "c1_identity",
               "separation", "gamma_lipschitz", "lipnorm", "segment_chain",
               "bhmv", "envelope", "openness", "semicontinuity",
               "level_sets", "setclass", "oracle_equiv")

#: traced boundary -> the per-layer fields reported for it
LAYERS = (
    ("metric.cross", ("calls", "s")),
    ("scales.value_cross", ("s",)),
    ("scales.loc_lip_r", ("calls", "s", "self_s")),
    ("metric.dist_row", ("calls", "s")),
    ("metric.ball_indices", ("calls", "s")),
    ("metric.nearest_neighbor_distance", ("calls",)),
    ("scales.value_dist_from", ("calls",)),
    ("scales.scale_profile", ("s", "self_s")),
    ("envelopes.baire_upper", ("calls", "s")),
    ("envelopes.baire_lower", ("calls", "s")),
    ("envelopes.usc_defect", ("calls", "s")),
    ("envelopes.lsc_defect", ("calls", "s")),
    ("setclass.apply_ops", ("calls", "s")),
    ("setclass.verify_family_identity", ("calls", "s")),
    ("setclass.check_duality_props", ("calls", "s")),
    ("setclass.check_sup_inf_props", ("calls", "s")),
    ("zoo.make_zoo", ("calls", "s")),
    *((f"harness.suite.{name}", ("s",)) for name in SUITE_NAMES),
    ("io.load_sampled_map", ("s",)),
    ("io.save_profile", ("s",)),
    ("io.save_summary", ("s",)),
    ("io.save_report", ("s",)),
)
FIELD_UNITS = {"calls": "count", "s": "s", "self_s": "s"}


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for span, fields in LAYERS:
        for field in fields:
            units[f"{span}.{field}"] = FIELD_UNITS[field]
        if span == "metric.cross":
            units["metric.cross.elems"] = "count"
    units["trace.overhead_s"] = "s"
    return units


def layer_values(job):
    """Per-layer metrics of one traced job's span totals."""
    totals = job["layers"]
    out = {}
    for span, fields in LAYERS:
        calls, total, own = totals.get(span, (0, 0.0, 0.0))
        for field, value in zip(("calls", "s", "self_s"),
                                (calls, total, own)):
            if field in fields:
                out[f"{span}.{field}"] = value
        if span == "metric.cross":
            out["metric.cross.elems"] = job["cross_elems"]
    return out


# ---------------------------------------------------------------------------
# environment and job processes


def environment():
    def git_sha():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=20)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    def cpu_model():
        try:
            with open("/proc/cpuinfo") as handle:
                for line in handle:
                    if line.startswith("model name"):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or None

    def src_sha256():
        digest = hashlib.sha256()
        src = os.path.join(ROOT, "src")
        for dirpath, dirnames, filenames in sorted(os.walk(src)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, src).encode())
                    digest.update(file_sha256(path).encode())
        return digest.hexdigest()

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {"git_sha": git_sha(), "src_sha256": src_sha256(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy_version, "nproc": os.cpu_count(),
            "cpu_model": cpu_model(), "thread_vars": THREAD_VARS}


def file_sha256(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def child_env():
    env = dict(os.environ, **THREAD_VARS, PYTHONHASHSEED="0")
    for name in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE", "PYTHONSTARTUP"):
        env.pop(name, None)
    return env


def run_job(job_dir, argv, trace=False, job_id=0, tag="job"):
    """Run job.py once; its measurement dict, or None if the process failed."""
    spec = {"argv": argv, "trace": trace, "job": job_id,
            "spans": os.path.join(job_dir, f"{tag}.spans.npz"),
            "result": os.path.join(job_dir, f"{tag}.result.json")}
    spec_path = os.path.join(job_dir, f"{tag}.spec.json")
    with open(spec_path, "w") as handle:
        json.dump(spec, handle)
    with open(os.path.join(job_dir, f"{tag}.log"), "w") as log:
        try:
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "job.py"), spec_path],
                cwd=ROOT, env=child_env(), stdout=log,
                stderr=subprocess.STDOUT, timeout=JOB_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None
    if done.returncode != 0:
        return None
    with open(spec["result"]) as handle:
        result = json.load(handle)
    result["spans"] = spec["spans"]
    return result


def setup_probes(work):
    """Import-only probes after one untimed warm-up import (bytecode)."""
    probe_dir = os.path.join(work, "probes")
    os.makedirs(probe_dir)
    run_job(probe_dir, None, tag="warmup")
    times = []
    for k in range(SETUP_PROBES):
        res = run_job(probe_dir, None, tag=f"probe{k}")
        if res is not None:
            times.append(res["setup_s"])
    return times


# ---------------------------------------------------------------------------
# one job of each kind: run, gate, record


def profile_job(spec, seed, k, job_dir, trace):
    coords, values = workloads.make_cloud(spec, seed, k)
    ids = workloads.point_ids(len(values))
    workloads.write_cloud(os.path.join(job_dir, "input.csv"), coords, values)
    argv, outputs = workloads.job_argv(spec, seed, job_dir)
    record = {"job": k, "attempted": 1, "failed": 0, "problems": []}
    runs = run_pair(job_dir, argv, outputs, trace, k, record)
    if runs is None:
        return record, runs
    radii = workloads.radii(spec)
    rng = np.random.default_rng([seed, k, 1])
    points = sorted(rng.choice(len(ids), size=min(GATE_POINTS, len(ids)),
                               replace=False).tolist())
    bad = gate.check_profile(coords, values, ids, radii, spec["tail"],
                             points, outputs["profile"], outputs["summary"])
    if bad:
        record["failed"] = 1
        record["problems"] += bad[:5]
    unresolved, divergent = gate.summary_flags(outputs["summary"])
    sizes = {r: workloads.ball_sizes(coords, r)
             for r in (float(radii[0]), float(radii[-1]))}
    record["input"] = {
        "n": len(ids),
        "ball_mean_rmax": float(np.mean(sizes[float(radii[0])])),
        "ball_max_rmax": int(np.max(sizes[float(radii[0])])),
        "ball_mean_rmin": float(np.mean(sizes[float(radii[-1])])),
        "ball_max_rmin": int(np.max(sizes[float(radii[-1])])),
        "unresolved_share": unresolved, "divergent_count": divergent}
    return record, runs


def check_job(spec, seed, k, job_dir, trace):
    argv, outputs = workloads.job_argv(spec, seed, job_dir)
    record = {"job": k, "attempted": 1, "failed": 0, "problems": []}
    runs = run_pair(job_dir, argv, outputs, trace, k, record)
    if runs is None:
        return record, runs
    checks, failed, overall = gate.check_report(outputs["report"])
    record["attempted"], record["failed"] = checks, failed
    if failed:
        record["problems"].append(f"{failed} failing checks")
    if runs[0]["rc"] != (0 if overall == "pass" else 1):
        record["failed"] += 1
        record["problems"].append(f"exit {runs[0]['rc']} with {overall}")
    record["input"] = {"checks": checks, "harness_seed": seed}
    return record, runs


def run_pair(job_dir, argv, outputs, trace, k, record):
    """The untraced job, then (tracing on) its traced twin on the same input.

    Returns [untraced] or [untraced, traced] measurements, or None when a
    process failed.  Fills in the output digests and marks the record failed
    on a non-zero exit or a traced output that differs from the untraced one.
    """
    plain = run_job(job_dir, argv, job_id=k)
    # a check job exits 1 when a check fails, and still writes its report
    ok_codes = (0, 1) if "report" in outputs else (0,)
    if plain is None or plain["rc"] not in ok_codes:
        record["failed"] = 1
        record["problems"].append(
            "job process failed" if plain is None else f"exit {plain['rc']}")
        return None
    record["sha256"] = {name: file_sha256(path)
                        for name, path in outputs.items()}
    runs = [plain]
    if trace:
        traced = run_job(job_dir, argv, trace=True, job_id=k, tag="traced")
        if traced is None:
            record["failed"] = 1
            record["problems"].append("traced job process failed")
            return None
        digests = {name: file_sha256(path) for name, path in outputs.items()}
        if digests != record["sha256"]:
            record["failed"] = 1
            record["problems"].append("traced outputs differ from untraced")
        runs.append(traced)
    record["wall_s"] = [r["wall_s"] for r in runs]
    record["cpu_s"] = [r["cpu_s"] for r in runs]
    record["peak_rss_mb"] = [r["peak_rss_mb"] for r in runs]
    return runs


# ---------------------------------------------------------------------------
# a whole run


def upper_percentile(samples):
    """(percentile, value) with exactly 10 samples above it, or None."""
    n = len(samples)
    if n < 20:
        return None
    return math.floor(100 * (n - 10) / n), sorted(samples)[n - 11]


def measure(name, spec, seed, seconds, trace):
    """Run the workload for `seconds`; returns (result line, details)."""
    work = os.path.join(OUT, "work", f"{name}-seed{seed}-trace{trace}-"
                                     f"{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    one_job = profile_job if spec["kind"] == "profile" else check_job
    try:
        setups = [] if trace else setup_probes(work)
        records, runs = [], []
        start = time.perf_counter()
        k, spent = 0, []
        # start another job only if one more (of median length) still ends
        # within the measuring time
        while k == 0 or (time.perf_counter() - start
                         + statistics.median(spent) <= seconds):
            began = time.perf_counter()
            job_dir = os.path.join(work, f"job{k}")
            os.makedirs(job_dir)
            record, job_runs = one_job(spec, seed, k, job_dir, trace)
            records.append(record)
            if job_runs is not None:
                runs.append(job_runs)
                if trace:
                    keep = os.path.join(OUT, "results",
                                        f"{name}-seed{seed}-job{k}.spans.npz")
                    os.makedirs(os.path.dirname(keep), exist_ok=True)
                    shutil.move(job_runs[1]["spans"], keep)
                    record["spans"] = os.path.relpath(keep, ROOT)
            shutil.rmtree(job_dir)
            spent.append(time.perf_counter() - began)
            k += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not runs:
        return None, {"jobs": records}

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    walls = [pair[0]["wall_s"] for pair in runs]
    details = {"workload": name, "seed": seed, "seconds": seconds,
               "trace": trace, "environment": environment(),
               "jobs": records, "failed_frac": failed / attempted,
               "wall_samples": len(walls)}
    if trace:
        units = per_layer_units()
        per_job = [layer_values(pair[1]) for pair in runs]
        values = {m: statistics.median(job[m] for job in per_job)
                  for m in units if m != "trace.overhead_s"}
        values["trace.overhead_s"] = statistics.median(
            pair[1]["wall_s"] - pair[0]["wall_s"] for pair in runs)
        details["traced_wall_s"] = statistics.median(
            pair[1]["wall_s"] for pair in runs)
    else:
        units = dict(END_TO_END)
        setups += [pair[0]["setup_s"] for pair in runs]
        values = {"wall_s": statistics.median(walls),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": max(pair[0]["peak_rss_mb"]
                                     for pair in runs)}
        details["setup_samples"] = len(setups)
        top = upper_percentile(walls)
        if top is not None:
            details[f"wall_p{top[0]}_s"] = top[1]
    details["wall_median_s"] = statistics.median(walls)
    metrics = {m: {"value": values[m], "unit": units[m]} for m in units}
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    details["metrics"] = metrics
    return line, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "lipderiv", "cli.py")):
        print(f"error: no lipderiv sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    line, details = measure(args.workload, workloads.WORKLOADS[args.workload],
                            args.seed, args.seconds, args.trace)
    if line is None:
        print("error: no job completed: "
              + "; ".join(p for r in details["jobs"] for p in r["problems"]),
              file=sys.stderr)
        return 1
    results = os.path.join(OUT, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{args.workload}-seed{args.seed}-"
                                    f"trace{args.trace}.json"), "w") as handle:
        json.dump(details, handle, indent=1)
    report(details)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def report(details):
    """Human-readable lines: every metric by name with its unit."""
    for name, m in details["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_frac = {details['failed_frac']:.6g} 1")
    print(f"jobs = {details['wall_samples']} count")
    for key, value in details.items():
        if key.startswith("wall_p"):
            print(f"{key} = {value:.6g} s")
    for record in details["jobs"]:
        for problem in record["problems"]:
            print(f"job {record['job']}: {problem}")


if __name__ == "__main__":
    sys.exit(main())
