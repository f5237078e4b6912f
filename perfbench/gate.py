"""Correctness gate: profile outputs recomputed by definition; check reports.

The oracle here shares no code with the program.  For each sampled point it
takes plain numpy distance rows and evaluates every functional straight from
its definition (maxima over the open or closed ball, minima over candidate
scales, the pair supremum over the open ball) at every radius, then the
summary estimates and flags.  Values must agree with the program's CSVs to a
relative 1e-9, the tolerance of the program's own oracle gate; flags must be
equal.
"""
from __future__ import annotations

import csv
import json

import numpy as np

REL_TOL = 1e-9
#: the program's documented divergence threshold: the little estimates of the
#: tail window grow monotonically toward small radii and more than double
DIVERGENCE_FACTOR = 2.0
COLUMNS = ("lip_upper", "lip_upper_closed", "big_below", "little_below",
           "loc")


def _close(a, b):
    return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _dist(coords, i):
    diff = coords - coords[i]
    return np.sqrt(np.sum(diff * diff, axis=-1))


def _max_or_zero(x):
    return float(np.max(x)) if x.size else 0.0


def _pair_sup(coords, values):
    """Largest |f(a) - f(b)| / d(a, b) over pairs of distinct points."""
    if len(values) < 2:
        return 0.0
    diff = coords[:, None, :] - coords[None, :, :]
    D = np.sqrt(np.sum(diff * diff, axis=-1))
    V = np.abs(values[:, None] - values[None, :])
    keep = D > 0
    return _max_or_zero(V[keep] / D[keep])


def _nearest_scale_inf(d, dv, r):
    """min over distinct distances s < r of max{dv : 0 < d <= s} / s."""
    cand = np.unique(d[(d > 0) & (d < r)])
    if cand.size == 0:
        return 0.0
    held = (d[None, :] > 0) & (d[None, :] <= cand[:, None])
    return float(np.min(np.max(np.where(held, dv, -np.inf), axis=1) / cand))


def point_oracle(coords, values, i, radii, tail):
    """Every profile value and summary field of point i, by definition."""
    d = _dist(coords, i)
    dv = np.abs(values - values[i])
    rows = []
    for r in radii:
        open_ = (d > 0) & (d < r)
        closed = (d > 0) & (d <= r)
        # little: inf over scales s in (d1, r) of max{dv : 0 < d < s} / s;
        # the infimum sits at a distance in (d1, r) or at s -> r
        little = 0.0
        if np.any(open_):
            d1 = np.min(d[open_])
            cand = np.append(np.unique(d[open_ & (d > d1)]), r)
            held = (d[None, :] > 0) & (d[None, :] < cand[:, None])
            little = float(np.min(
                np.max(np.where(held, dv, -np.inf), axis=1) / cand))
        ball = d < r
        rows.append({
            "lip_upper": _max_or_zero(dv[open_]) / r,
            "lip_upper_closed": _max_or_zero(dv[closed]) / r,
            "big_below": _max_or_zero(dv[open_] / d[open_]),
            "little_below": little,
            "loc": _pair_sup(coords[ball], values[ball]),
        })
    pos = d[d > 0]
    d1 = float(np.min(pos)) if pos.size else np.inf
    r_small = float(radii[-1])
    resolved = [float(r) for r in radii if d1 < r]
    series = np.array([_nearest_scale_inf(d, dv, float(r))
                       for r in radii[-tail:]])
    summary = {
        "lip_hat": _nearest_scale_inf(d, dv, r_small),
        "big_hat": rows[-1]["big_below"],
        "loc_hat": rows[radii.tolist().index(min(resolved))]["loc"]
        if resolved else 0.0,
        "unresolved": d1 >= r_small,
        "divergent": bool(series[-1] > 0 and np.all(np.diff(series) >= 0)
                          and series[-1] > DIVERGENCE_FACTOR * series[0]),
    }
    return rows, summary


def _read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def check_profile(coords, values, ids, radii, tail, points, profile_csv,
                  summary_csv):
    """Mismatches between the program's profile outputs and the oracle.

    Returns a list of human-readable mismatch strings (empty when correct).
    """
    prof = _read_csv(profile_csv)
    summ = _read_csv(summary_csv)
    bad = []
    if prof[0] != ["point", "radius", *COLUMNS]:
        return [f"profile header {prof[0]}"]
    if summ[0] != ["point", "lip_hat", "big_hat", "loc_hat", "unresolved",
                   "divergent"]:
        return [f"summary header {summ[0]}"]
    k = len(radii)
    if len(prof) != 1 + k * len(ids) or len(summ) != 1 + len(ids):
        return ["output row count"]
    for i in points:
        rows, summary = point_oracle(coords, values, i, radii, tail)
        for ri, want in enumerate(rows):
            line = prof[1 + i * k + ri]
            if line[0] != ids[i] or not _close(float(line[1]), radii[ri]):
                bad.append(f"{ids[i]} radius row {ri}: {line[:2]}")
                continue
            for col, text in zip(COLUMNS, line[2:]):
                if not _close(float(text), want[col]):
                    bad.append(f"{ids[i]} r={float(radii[ri])!r} {col}: "
                               f"got {text}, want {want[col]!r}")
        line = summ[1 + i]
        if line[0] != ids[i]:
            bad.append(f"summary row {i} is {line[0]}")
            continue
        for col, text in zip(("lip_hat", "big_hat", "loc_hat"), line[1:4]):
            if not _close(float(text), summary[col]):
                bad.append(f"{ids[i]} {col}: got {text}, "
                           f"want {summary[col]!r}")
        for col, text in zip(("unresolved", "divergent"), line[4:6]):
            if text != str(int(summary[col])):
                bad.append(f"{ids[i]} {col}: got {text}, "
                           f"want {int(summary[col])}")
    return bad


def summary_flags(summary_csv):
    """(share of unresolved points, count of divergent points)."""
    rows = _read_csv(summary_csv)[1:]
    unresolved = sum(r[4] == "1" for r in rows)
    divergent = sum(r[5] == "1" for r in rows)
    return unresolved / max(len(rows), 1), divergent


def check_report(report_json):
    """(checks run, checks failed, overall verdict) of a check report."""
    with open(report_json) as handle:
        doc = json.load(handle)
    checks = doc["checks"]
    failed = sum(c["status"] == "fail" for c in checks)
    return len(checks), failed, doc["overall"]
