"""One benchmark job, in a fresh process: import lipderiv, call cli.main once.

Usage: python3 perfbench/job.py SPEC.json

SPEC holds ``argv`` (CLI arguments, or null to time the import only),
``trace`` (wrap the layers and record spans), ``spans`` (where to write them),
``job`` (job id) and ``result`` (where to write this job's measurements).
"""
from __future__ import annotations

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(spec_path):
    with open(spec_path) as handle:
        spec = json.load(handle)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    t0 = time.perf_counter()
    from lipderiv import cli
    out = {"setup_s": time.perf_counter() - t0}
    if spec["argv"] is not None:
        tracer = None
        if spec["trace"]:
            import spans
            from lipderiv.harness import SUITE_NAMES
            tracer = spans.Tracer()
            spans.install(tracer, SUITE_NAMES)
        t1 = time.perf_counter()
        try:
            rc = cli.main(spec["argv"])
        except SystemExit as exc:          # argparse rejected the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
        out["wall_s"] = time.perf_counter() - t1
        out["rc"] = rc
        if tracer is not None:
            out["layers"] = tracer.totals()
            out["cross_elems"] = tracer.cross_elems
            tracer.save(spec["spans"], spec["job"])
    usage = resource.getrusage(resource.RUSAGE_SELF)
    out["cpu_s"] = usage.ru_utime + usage.ru_stime
    out["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    with open(spec["result"], "w") as handle:
        json.dump(out, handle)


if __name__ == "__main__":
    main(sys.argv[1])
