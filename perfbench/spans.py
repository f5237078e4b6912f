"""Spans recorded around calls into the program's layers, from outside.

``install`` wraps public functions and methods of the lipderiv modules.  A
method is replaced on its class; a function is replaced on every lipderiv
module that bound it by name (``harness`` imports ``loc_lip_r`` directly, for
instance), so calls made inside the library are traced too.  Each call adds
one span: name, start, end and parent span, all kept in flat in-memory
arrays and written out once, when the job ends.
"""
from __future__ import annotations

import dataclasses
import functools
import sys
import time
from array import array

import numpy as np

#: (module, class or None, attribute) of every traced boundary
TARGETS = (
    ("metric", "FiniteMetricSpace", "cross"),
    ("metric", "FiniteMetricSpace", "dist_row"),
    ("metric", "FiniteMetricSpace", "ball_indices"),
    ("metric", "FiniteMetricSpace", "nearest_neighbor_distance"),
    ("scales", "SampledMap", "value_cross"),
    ("scales", "SampledMap", "value_dist_from"),
    ("scales", None, "loc_lip_r"),
    ("scales", None, "scale_profile"),
    ("envelopes", None, "baire_upper"),
    ("envelopes", None, "baire_lower"),
    ("envelopes", None, "usc_defect"),
    ("envelopes", None, "lsc_defect"),
    ("setclass", None, "apply_ops"),
    ("setclass", None, "verify_family_identity"),
    ("setclass", None, "check_duality_props"),
    ("setclass", None, "check_sup_inf_props"),
    ("zoo", None, "make_zoo"),
    ("io", None, "load_sampled_map"),
    ("io", None, "save_profile"),
    ("io", None, "save_summary"),
    ("io", None, "save_report"),
)


class Tracer:
    """Flat span store; spans[k] = (name id, start, end, parent index)."""

    def __init__(self):
        self.names = []
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.stack = []
        self.cross_elems = 0

    def intern(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name, fn):
        nid = self.intern(name)
        name_ids, starts, ends = self.name_ids, self.starts, self.ends
        parents, stack, clock = self.parents, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            k = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(k)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[k] = clock()
                stack.pop()
        return traced

    def span(self, name, fn, *args):
        """Call fn(*args) inside one span of the given name."""
        return self.wrap(name, fn)(*args)

    def arrays(self):
        return (np.array(self.name_ids, dtype=np.int64),
                np.array(self.starts, dtype=float),
                np.array(self.ends, dtype=float),
                np.array(self.parents, dtype=np.int64))

    def totals(self):
        """name -> (calls, total seconds, self seconds).

        Self time is a span's duration minus the durations of its direct
        children; calls on one thread nest, so children never overlap.
        """
        ids, starts, ends, parents = self.arrays()
        dur = ends - starts
        child = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=dur, minlength=k)
        own = np.bincount(ids, weights=dur - child, minlength=k)
        return {name: (int(calls[j]), float(total[j]), float(own[j]))
                for j, name in enumerate(self.names)}

    def save(self, path, job_id):
        ids, starts, ends, parents = self.arrays()
        np.savez_compressed(path, name=ids, start=starts, end=ends,
                            parent=parents,
                            job=np.full(len(ids), job_id),
                            names=np.array(self.names))


def _rebind(original, replacement):
    """Point every lipderiv module binding of `original` at `replacement`."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "lipderiv" or mod_name.startswith("lipderiv."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)


def install(tracer, suite_names):
    """Wrap every target in TARGETS, and split run_suite per suite name."""
    for mod_name, cls_name, attr in TARGETS:
        mod = sys.modules[f"lipderiv.{mod_name}"]
        name = f"{mod_name}.{attr}"
        if cls_name is not None:
            cls = getattr(mod, cls_name)
            fn = tracer.wrap(name, vars(cls)[attr])
            if attr == "cross":
                fn = _counting_cross(tracer, fn)
            setattr(cls, attr, fn)
        else:
            original = getattr(mod, attr)
            _rebind(original, tracer.wrap(name, original))

    harness = sys.modules["lipderiv.harness"]
    run_suite = harness.run_suite

    @functools.wraps(run_suite)
    def split_run_suite(config):
        # one run_suite call per suite, each in its own span; suites reseed
        # their own generator and results are sorted by name, so the merged
        # list equals that of a single call
        names = suite_names if "all" in config.suite else config.suite
        results = []
        for suite in names:
            one = dataclasses.replace(config, suite=(suite,))
            results.extend(tracer.span(f"harness.suite.{suite}", run_suite,
                                       one))
        return sorted(results, key=lambda r: r.name)

    _rebind(run_suite, split_run_suite)


def _counting_cross(tracer, traced_cross):
    @functools.wraps(traced_cross)
    def cross(self, rows, cols):
        tracer.cross_elems += np.size(rows) * np.size(cols)
        return traced_cross(self, rows, cols)
    return cross
