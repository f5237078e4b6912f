"""CSV/text serialization for spaces, fields, profiles and reports.

All floating-point output uses 17 significant digits so that identical runs
produce byte-identical files; files are written atomically (temp + rename),
a CSV file in chunks of ``CHUNK_POINTS`` points.  CSV lines come from the
one ``csv`` writer ``_LINE``, but a profile row fills a ``"%.17g"`` template
and sends only its id through ``_LINE``.  A summary and forked profile slabs
are formatted before they are written, other files chunk by chunk as written.
"""
from __future__ import annotations

import csv
import json
import math
import os
import tempfile
from types import SimpleNamespace

import numpy as np

from .errors import InputError
from .envelopes import ScalarField
from .metric import FiniteMetricSpace
from .scales import PROFILE_COLUMNS, SampledMap, ScaleProfile


def fmt_float(x) -> str:
    """17 significant digits; ``inf`` and ``-inf`` for the infinities."""
    return "%.17g" % float(x)


def parse_float(s: str, where: str = "value") -> float:
    try:
        x = float(s)
    except ValueError:
        raise InputError(f"malformed {where}: {s!r}") from None
    if math.isnan(x):
        raise InputError(f"NaN is not a valid {where}")
    return x


def fmt_id(point) -> str:
    if isinstance(point, tuple):
        return ";".join(fmt_float(c) for c in point)
    if isinstance(point, (float, np.floating)):
        return fmt_float(point)
    return str(point)


def atomic_write(path: str, chunks):
    """Write ``chunks``, one text or an iterable of texts, to a temporary
    file beside ``path`` and rename it there; on any error the temporary
    file is removed and ``path`` is left as it was."""
    if isinstance(chunks, str):
        chunks = (chunks,)
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
        try:
            with os.fdopen(fd, "w") as handle:
                handle.writelines(chunks)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        # strerror, not the message: that names the random temporary file
        reason = exc.strerror or exc
        raise InputError(f"cannot write {path}: {reason}") from None


def check_writable(path: str) -> str:
    """The output path, rejected unless its directory exists and is
    writable, so that a command can fail before it computes anything."""
    directory = os.path.dirname(os.path.abspath(path))
    if not os.access(directory, os.W_OK | os.X_OK):
        raise InputError(f"cannot write {path}: no writable directory "
                         f"{directory}")
    return path


def _read_rows(path: str):
    try:
        with open(path, newline="") as handle:
            return list(csv.reader(handle))
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def load_point_cloud(path: str):
    """Read `id,x1,...,xn[,val...]` CSV; returns (ids, coords, values).

    coords is an (n_points, n_dims) array; values is None, a vector (single
    val column) or a matrix (val1..valm columns).
    """
    rows = _read_rows(path)
    if not rows or [c.strip() for c in rows[0][:1]] != ["id"]:
        raise InputError(f"{path}: expected an 'id,...' header")
    header = [c.strip() for c in rows[0]]
    coord_cols = [i for i, c in enumerate(header) if c.startswith("x")]
    val_cols = [i for i, c in enumerate(header) if c.startswith("val")]
    extra = [c for i, c in enumerate(header[1:], start=1)
             if i not in coord_cols and i not in val_cols]
    if extra:
        raise InputError(f"{path}: unknown columns {extra}")
    if not coord_cols:
        raise InputError(f"{path}: no coordinate columns")
    ids, coords, values = [], [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(header):
            raise InputError(f"{path}: row {lineno} has {len(row)} fields, "
                             f"expected {len(header)}")
        ids.append(row[0].strip())
        coords.append([parse_float(row[i], f"coordinate at row {lineno}")
                       for i in coord_cols])
        if val_cols:
            values.append([parse_float(row[i], f"value at row {lineno}")
                           for i in val_cols])
    if not ids:
        raise InputError(f"{path}: no data rows")
    if len(set(ids)) != len(ids):
        raise InputError(f"{path}: duplicate point ids")
    coords = np.asarray(coords, dtype=float)
    vals = None
    if val_cols:
        vals = np.asarray(values, dtype=float)
        if vals.shape[1] == 1:
            vals = vals[:, 0]
    return ids, coords, vals


def save_point_cloud(path: str, ids, coords, values=None):
    coords = np.asarray(coords, dtype=float)
    coords = coords[:, None] if coords.ndim == 1 else coords
    if coords.ndim != 2 or len(coords) != len(ids):
        raise InputError("one coordinate row per id required")
    header = ["id"] + [f"x{k + 1}" for k in range(coords.shape[1])]
    cells = coords
    if values is not None:
        values = np.asarray(values, dtype=float)
        if values.ndim == 1:
            header += ["val"]
        else:
            header += [f"val{k + 1}" for k in range(values.shape[1])]
        cells = np.column_stack([coords, values])
    _save_lines(path, header, len(ids), lambda i: [
        fmt_id(ids[i]), *map(fmt_float, cells[i].tolist())])


#: every accepted metric name: the bare name, or the name with its own
#: order as a suffix
_METRICS = {"euclidean": 2.0, "euclidean-2": 2.0, "manhattan": 1.0,
            "manhattan-1": 1.0, "chebyshev": np.inf, "chebyshev-inf": np.inf}


def metric_order(name: str) -> float:
    """Resolve a metric name like 'euclidean' or 'euclidean-2',
    case-insensitively, to a p-norm; ``InputError`` for anything else."""
    try:
        return _METRICS[name.lower()]
    except (AttributeError, KeyError):
        raise InputError(f"unknown metric {name!r}") from None


def _reject_conflicting_duplicates(path: str, ids, coords, values):
    """Points at equal coordinates must carry equal values.

    Such points are one point of the metric space, so differing values there
    describe no function; equal values are a harmless repeat.
    """
    order = np.lexsort(coords.T[::-1])
    c, v = coords[order], values[order].reshape(len(order), -1)
    clash = np.flatnonzero(np.all(c[1:] == c[:-1], axis=1)
                           & np.any(v[1:] != v[:-1], axis=1))
    if clash.size:
        a, b = sorted(order[clash[0]:clash[0] + 2])
        raise InputError(f"{path}: points {ids[a]!r} and {ids[b]!r} share "
                         f"coordinates but have different values")


def load_sampled_map(path: str, metric: str = "euclidean") -> SampledMap:
    """Point-cloud CSV with value columns, as a map on an embedded space."""
    ids, coords, values = load_point_cloud(path)
    if values is None:
        raise InputError(f"{path}: no value columns")
    _reject_conflicting_duplicates(path, ids, coords, values)
    space = FiniteMetricSpace(ids, coords=coords, p=metric_order(metric))
    if values.ndim == 1:
        return SampledMap.real(space, values)
    return SampledMap.vector(space, values, p=2.0)


def save_scalar_field(path: str, field: ScalarField):
    ids, values = field.space.ids, field.values
    _save_lines(path, ["id", "value"], len(ids),
                lambda i: [fmt_id(ids[i]), fmt_float(values[i])])


#: points whose rows a writer formats and writes at once
CHUNK_POINTS = 4096

PROFILE_HEADER = ",".join(("point", "radius") + PROFILE_COLUMNS) + "\r\n"
SUMMARY_HEADER = "point,lip_hat,big_hat,loc_hat,unresolved,divergent\r\n"

#: ``writerow`` returns what ``write`` returns: here the line itself
_LINE = csv.writer(SimpleNamespace(write=str))


def profile_rows(profile: ScaleProfile, start=0, stop=None) -> list:
    """The text of each point of ``profile.points[start:stop]``: one row
    per radius with the five functional columns, from one row template of
    ``fmt_float``'s ``"%.17g"``.  Only the id is ``csv``-quoted, once per
    point, as the first of two cells (a lone empty cell is quoted), less
    the ``",\r\n"`` after it."""
    template = "%s,%s" + ",%.17g" * len(PROFILE_COLUMNS) + "\r\n"
    radii = [fmt_float(r) for r in profile.radii]
    cells = np.stack([profile.table[c][start:stop] for c in PROFILE_COLUMNS],
                     -1).tolist()
    texts = []
    for point, rows in zip(profile.points[start:stop], cells):
        pid = _LINE.writerow([fmt_id(point), ""])[:-3]
        texts.append("".join([template % (pid, r, *c)
                              for r, c in zip(radii, rows)]))
    return texts


def summary_rows(summaries) -> list:
    """The row of each ``PointSummary``: limit estimates and flags."""
    return [_LINE.writerow([fmt_id(s.point), fmt_float(s.lip_hat),
                            fmt_float(s.big_hat), fmt_float(s.loc_hat),
                            int(s.unresolved), int(s.divergent)])
            for s in summaries]


def _chunks(header: str, count: int, texts):
    """``header``, then the joined ``texts(start, stop)`` of each run of
    ``CHUNK_POINTS`` of the ``count`` points, made as they are written."""
    yield header
    for start in range(0, count, CHUNK_POINTS):
        yield "".join(texts(start, start + CHUNK_POINTS))


def save_rows(path: str, header: str, texts: list):
    """``header`` and the per-point ``texts``, in point order."""
    atomic_write(path, _chunks(header, len(texts),
                               lambda start, stop: texts[start:stop]))


def _save_lines(path: str, header: list, count: int, cells):
    """The CSV line of ``header``, then that of ``cells(i)`` for each of
    the ``count`` points, formatted as it is written."""
    def texts(start, stop):
        return [_LINE.writerow(cells(i))
                for i in range(start, min(stop, count))]
    atomic_write(path, _chunks(_LINE.writerow(header), count, texts))


def save_profile(path: str, profile: ScaleProfile):
    """One row per (point, radius) (``profile_rows``), formatted as it is
    written."""
    atomic_write(path, _chunks(PROFILE_HEADER, len(profile.points),
                               lambda start, stop: profile_rows(
                                   profile, start, stop)))


def save_summary(path: str, profile: ScaleProfile):
    """Per-point limit estimates and flags (``summary_rows``)."""
    save_rows(path, SUMMARY_HEADER, summary_rows(profile.summaries))


def check_gamma(gamma: float) -> float:
    """The level-set threshold, rejected unless finite."""
    if not math.isfinite(gamma):
        raise InputError("set threshold gamma must be finite")
    return gamma


def save_set_flags(path: str, summaries, gamma: float):
    """Per-point threshold membership flags for the three estimates of a
    ``PointSummary`` list (``scale_summaries``)."""
    check_gamma(gamma)

    def cells(i):
        s = summaries[i]
        le = [int(v <= gamma) for v in (s.lip_hat, s.big_hat, s.loc_hat)]
        return [fmt_id(s.point), *le, *(1 - b for b in le)]
    _save_lines(path, ["point", "lip_le_gamma", "big_le_gamma",
                       "loc_le_gamma", "lip_gt_gamma", "big_gt_gamma",
                       "loc_gt_gamma"], len(summaries), cells)


def report_document(results) -> dict:
    ok = all(r.passed for r in results)
    return {"overall": "pass" if ok else "fail",
            "checks": [r.to_dict() for r in results]}


def save_report(path: str, results):
    atomic_write(path, json.dumps(_json_ready(report_document(results)),
                                  indent=2, allow_nan=False, default=str)
                 + "\n")


def _json_ready(obj):
    """``obj`` with numpy scalars and arrays as Python values and each
    non-finite float as the string ``inf``, ``-inf`` or ``nan``, so that
    strict JSON readers accept the report."""
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (np.ndarray, np.floating, np.integer)):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return fmt_float(obj)
    return obj


def summary_table(results) -> str:
    """Human-readable fixed-width listing of check results."""
    width = max([len(r.name) for r in results], default=4)
    lines = [f"{'name'.ljust(width)}  status   discrepancy    tolerance"]
    for r in results:
        lines.append(f"{r.name.ljust(width)}  {r.status:<8} "
                     f"{r.discrepancy:<13.6g}  {r.tolerance:.6g}")
    ok = all(r.passed for r in results)
    lines.append(f"overall: {'pass' if ok else 'fail'}")
    return "\n".join(lines)
