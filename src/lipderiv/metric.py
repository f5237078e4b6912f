"""Finite metric spaces, interval unions and linear maps.

Everything here is immutable after construction and safe to share between
threads; all functions are pure.
"""
from __future__ import annotations

import numpy as np

from .errors import InputError

#: absolute tolerance for metric-axiom validation
METRIC_TOL = 1e-12


def _norm(diff: np.ndarray, p: float) -> np.ndarray:
    """p-norm along the last axis, p in {1, 2, inf}."""
    if p == 2:
        return np.sqrt(np.sum(diff * diff, axis=-1))
    if p == 1:
        return np.sum(np.abs(diff), axis=-1)
    if p == np.inf:
        return np.max(np.abs(diff), axis=-1)
    raise InputError(f"unsupported norm order {p!r}")


def _block(a: np.ndarray, b: np.ndarray, p: float) -> np.ndarray:
    """Block of p-norm distances between the rows of a and the rows of b.

    Equal bit for bit to ``_norm(a[:, None, :] - b[None, :, :], p)``: numpy
    sums a last axis of fewer than 8 terms sequentially, so accumulating one
    2-d block per coordinate in that order gives the same floats without the
    3-d intermediate; a running maximum is exact in any order.  From 8
    coordinates numpy switches to pairwise summation, so the broadcast is
    kept there.
    """
    if not 0 < a.shape[1] < 8 or p not in (1, 2, np.inf):
        return _norm(a[:, None, :] - b[None, :, :], p)
    acc = np.maximum if p == np.inf else np.add
    out = None
    for ak, bk in zip(a.T, b.T):
        t = np.subtract.outer(ak, bk)
        if p == 2:
            np.multiply(t, t, out=t)
        else:
            np.abs(t, out=t)
        out = t if out is None else acc(out, t, out=out)
    return np.sqrt(out, out=out) if p == 2 else out


class FiniteMetricSpace:
    """A finite set of points with pairwise distances.

    Backed either by a dense distance table or by an embedding in R^n with a
    p-norm (distances computed on demand).  Point identifiers are arbitrary
    hashables, stored in a fixed order.
    """

    def __init__(self, ids, table=None, coords=None, p=2.0):
        self.ids = list(ids)
        self._index = {pid: i for i, pid in enumerate(self.ids)}
        if len(self._index) != len(self.ids):
            raise InputError("duplicate point identifiers")
        self.p = float(p)
        if coords is not None:
            coords = np.atleast_2d(np.asarray(coords, dtype=float))
            if coords.shape[0] != len(self.ids):
                raise InputError("one coordinate row per point required")
            if not np.all(np.isfinite(coords)):
                raise InputError("coordinates must be finite (no NaN or inf)")
        self.coords = coords
        if table is not None:
            table = np.asarray(table, dtype=float)
            if table.shape != (len(self.ids), len(self.ids)):
                raise InputError("distance table must be square over the ids")
        self.table = table
        if table is None and coords is None:
            raise InputError("need a distance table or an embedding")

    @classmethod
    def from_coords(cls, ids, coords, p=2.0):
        return cls(ids, coords=coords, p=p)

    @classmethod
    def from_table(cls, ids, table):
        return cls(ids, table=table)

    @classmethod
    def discrete(cls, ids):
        n = len(list(ids))
        table = np.ones((n, n)) - np.eye(n)
        return cls(ids, table=table)

    @classmethod
    def grid1d(cls, a, b, spacing):
        """Uniform 1-d grid on [a, b]; ids are the coordinates."""
        m = int(round((b - a) / spacing))
        xs = a + spacing * np.arange(m + 1)
        return cls(list(xs), coords=xs[:, None], p=2.0)

    @property
    def n(self) -> int:
        return len(self.ids)

    def index(self, point) -> int:
        try:
            return self._index[point]
        except KeyError:
            raise InputError(f"unknown point id {point!r}") from None

    def dist_row(self, i: int) -> np.ndarray:
        """Distances from point index i to every point."""
        if self.table is not None:
            return self.table[i]
        return _norm(self.coords - self.coords[i], self.p)

    def dist(self, i: int, j: int) -> float:
        return float(self.dist_row(i)[j])

    def pairwise(self, idx) -> np.ndarray:
        """Distance submatrix over the given point indices."""
        idx = np.asarray(idx, dtype=int)
        if self.table is not None:
            return self.table[np.ix_(idx, idx)]
        c = self.coords[idx]
        return _block(c, c, self.p)

    def cross(self, rows, cols) -> np.ndarray:
        """Distance block between two index lists."""
        rows = np.asarray(rows, dtype=int)
        cols = np.asarray(cols, dtype=int)
        if self.table is not None:
            return self.table[np.ix_(rows, cols)]
        return _block(self.coords[rows], self.coords[cols], self.p)

    def ball_indices(self, i: int, r: float, closed: bool = False) -> np.ndarray:
        d = self.dist_row(i)
        mask = d <= r if closed else d < r
        return np.flatnonzero(mask)

    def diameter(self) -> float:
        return max(float(np.max(self.dist_row(i))) for i in range(self.n))

    def nearest_neighbor_distance(self, i: int) -> float:
        d = self.dist_row(i)
        pos = d[d > 0]
        return float(np.min(pos)) if pos.size else np.inf

    def resolution(self) -> float:
        """Smallest nearest-neighbor distance over all points."""
        return min(self.nearest_neighbor_distance(i) for i in range(self.n))


def validate_metric(space: FiniteMetricSpace, tol: float = METRIC_TOL) -> list:
    """Check the metric axioms; returns a list of violations (empty iff valid).

    Each violation is a dict with an ``axiom`` tag, a ``witness`` tuple of
    point ids and the offending ``amount``.
    """
    report = []
    n = space.n
    rows = np.vstack([space.dist_row(i) for i in range(n)])
    if np.any(np.isnan(rows)):
        raise InputError("distance table has missing entries")
    for i in range(n):
        if abs(rows[i, i]) > tol:
            report.append({"axiom": "identity", "witness": (space.ids[i],),
                           "amount": float(rows[i, i])})
    bad = np.argwhere(np.abs(rows - rows.T) > tol)
    for i, j in bad:
        if i < j:
            report.append({"axiom": "symmetry",
                           "witness": (space.ids[i], space.ids[j]),
                           "amount": float(rows[i, j] - rows[j, i])})
    off = ~np.eye(n, dtype=bool)
    for i, j in np.argwhere((rows <= tol) & off):
        if i < j:
            report.append({"axiom": "positivity",
                           "witness": (space.ids[i], space.ids[j]),
                           "amount": float(rows[i, j])})
    for k in range(n):
        slack = rows - (rows[:, k][:, None] + rows[k][None, :])
        for i, j in np.argwhere(slack > tol):
            report.append({"axiom": "triangle",
                           "witness": (space.ids[i], space.ids[k], space.ids[j]),
                           "amount": float(slack[i, j])})
    if space.table is not None and space.coords is not None:
        for i in range(n):
            emb = _norm(space.coords - space.coords[i], space.p)
            for j in np.flatnonzero(np.abs(emb - space.table[i]) > tol):
                report.append({"axiom": "embedding",
                               "witness": (space.ids[i], space.ids[j]),
                               "amount": float(emb[j] - space.table[i, j])})
    return report


def ball(space: FiniteMetricSpace, x, r: float, closed: bool = False) -> set:
    """Open (default) or closed metric ball around x; always contains x."""
    if r <= 0:
        raise InputError("ball radius must be positive")
    i = space.index(x)
    idx = space.ball_indices(i, r, closed=closed)
    return {space.ids[j] for j in idx} | {x}


def resolution_isolated(space: FiniteMetricSpace, h: float) -> set:
    """Points with no other sample point strictly within distance h."""
    if h <= 0:
        raise InputError("h must be positive")
    return {space.ids[i] for i in range(space.n)
            if space.nearest_neighbor_distance(i) >= h}


class IntervalUnion:
    """A finite union of closed real intervals, kept normalized.

    Normalization sorts the intervals and merges any that overlap or touch,
    so the stored intervals are pairwise disjoint.
    """

    def __init__(self, intervals=()):
        merged = []
        for a, b in sorted((float(a), float(b)) for a, b in intervals):
            if b < a:
                raise InputError(f"interval [{a}, {b}] has negative length")
            if merged and a <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], b)
            else:
                merged.append([a, b])
        self.intervals = tuple((a, b) for a, b in merged)

    def measure(self) -> float:
        return float(sum(b - a for a, b in self.intervals))

    def intersect(self, lo: float, hi: float) -> "IntervalUnion":
        """Intersection with the closed interval [lo, hi]."""
        if hi < lo:
            lo, hi = hi, lo
        out = []
        for a, b in self.intervals:
            a2, b2 = max(a, lo), min(b, hi)
            if a2 <= b2:
                out.append((a2, b2))
        return IntervalUnion(out)

    def union(self, other: "IntervalUnion") -> "IntervalUnion":
        return IntervalUnion(self.intervals + other.intervals)

    def contains(self, x: float) -> bool:
        return any(a <= x <= b for a, b in self.intervals)

    def distance_to(self, x: float) -> float:
        if not self.intervals:
            return np.inf
        return min(max(a - x, 0.0, x - b) for a, b in self.intervals)

    def __eq__(self, other):
        return isinstance(other, IntervalUnion) and self.intervals == other.intervals

    def __hash__(self):
        return hash(self.intervals)

    def __repr__(self):
        return f"IntervalUnion({list(self.intervals)!r})"


class LinearMapSpec:
    """An m x n real matrix viewed as a linear map between normed spaces."""

    def __init__(self, matrix, domain_p=2.0, codomain_p=2.0):
        self.matrix = np.asarray(matrix, dtype=float)
        if self.matrix.ndim != 2:
            raise InputError("matrix must be two-dimensional")
        if not np.all(np.isfinite(self.matrix)):
            raise InputError("matrix entries must be finite")
        self.domain_p = float(domain_p)
        self.codomain_p = float(codomain_p)

    @property
    def shape(self):
        return self.matrix.shape

    def apply(self, vectors: np.ndarray) -> np.ndarray:
        return np.asarray(vectors) @ self.matrix.T


def operator_norm(A: LinearMapSpec, sphere_samples: int = 10000, seed: int = 0) -> float:
    """Lower bound on the operator norm via unit-vector sampling.

    The domain-norm unit sphere is sampled with a seeded generator; the
    coordinate axis vectors are always part of the sample, which makes the
    result exact for diagonal matrices under the Euclidean norm.
    """
    m, n = A.shape
    if n == 0:
        raise InputError("zero-dimensional domain")
    if sphere_samples < 1:
        raise InputError("sphere_samples must be >= 1")
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((sphere_samples, n))
    dirs = np.vstack([np.eye(n), -np.eye(n), dirs])
    norms = _norm(dirs, A.domain_p)
    keep = norms > 0
    unit = dirs[keep] / norms[keep][:, None]
    return float(np.max(_norm(A.apply(unit), A.codomain_p)))
