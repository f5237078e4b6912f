"""Finite metric spaces, interval unions and linear maps.

Everything here is immutable after construction and safe to share between
threads; all functions are pure.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import InputError

#: most elements a distance, quotient or gather block may hold
BLOCK_ELEMS = 1 << 18

#: the p-norm orders that ``_norm`` computes
NORMS = (1.0, 2.0, np.inf)


def _norm(diff: np.ndarray, p: float) -> np.ndarray:
    """p-norm along the last axis, p in {1, 2, inf}."""
    if p == 2:
        return np.sqrt(np.sum(diff * diff, axis=-1))
    if p == 1:
        return np.sum(np.abs(diff), axis=-1)
    if p == np.inf:
        return np.max(np.abs(diff), axis=-1)
    raise InputError(f"unsupported norm order {p!r}")


def _dist(a: np.ndarray, b: np.ndarray, p: float) -> np.ndarray:
    """p-norm distances between the broadcast vectors (along the last axis)
    of ``a`` and ``b``, p in {1, 2, inf}: the one place where a coordinate
    or value difference is normed.

    Equal bit for bit to ``_norm(a - b, p)``: numpy sums a last axis of
    fewer than 8 terms sequentially, so adding the terms one coordinate at
    a time, in that order and in place, gives the same floats without the
    intermediate of every difference; a running maximum is exact in any
    order.  From 8 coordinates numpy sums pairwise, so the broadcast is
    kept there.  A difference and its negation have the same absolute value
    and square, and each entry depends on its own pair only, so a row, a
    block, an entry of either and a single pair give a pair one float, in
    either orientation.
    """
    dim = a.shape[-1]
    if not 0 < dim < 8 or p not in NORMS:
        return _norm(a - b, p)
    # the first term keeps its axis of one, so that a single pair is an
    # array too and every later step can write in place
    out = np.subtract(a[..., :1], b[..., :1])[..., 0]
    t = np.empty_like(out) if dim > 1 else None
    for k in range(dim):
        term = out if k == 0 else np.subtract(a[..., k], b[..., k], out=t)
        if p == 2:
            np.multiply(term, term, out=term)
        else:
            np.abs(term, out=term)
        if k:
            (np.maximum if p == np.inf else np.add)(out, t, out=out)
    return np.sqrt(out, out=out) if p == 2 else out


def _gather(x: np.ndarray, index) -> np.ndarray:
    """The rows ``index`` (an index array, or a slice) of ``x``: ``take``
    gathers rows faster than fancy indexing does."""
    return x[index] if isinstance(index, slice) else x.take(index, axis=0)


class FiniteMetricSpace:
    """A finite set of points with pairwise distances.

    Backed either by a dense distance table or by an embedding in R^n with a
    p-norm (distances computed on demand), never both; p must be in
    ``NORMS``.  A table must be square, nonnegative (no NaN), zero on the
    diagonal and symmetric bit for bit.  Point identifiers are arbitrary
    hashables, stored in a fixed order.
    """

    def __init__(self, ids, table=None, coords=None, p=2.0):
        self.ids = list(ids)
        self._index = {pid: i for i, pid in enumerate(self.ids)}
        if len(self._index) != len(self.ids):
            raise InputError("duplicate point identifiers")
        if p not in NORMS:
            raise InputError(f"unsupported norm order {p!r}")
        self.p = float(p)
        if (table is None) == (coords is None):
            raise InputError("need a distance table or an embedding, not both")
        if coords is not None:
            coords = np.atleast_2d(np.asarray(coords, dtype=float))
            if coords.shape[0] != len(self.ids):
                raise InputError("one coordinate row per point required")
            if not np.all(np.isfinite(coords)):
                raise InputError("coordinates must be finite (no NaN or inf)")
        else:
            table = np.asarray(table, dtype=float)
            if table.shape != (len(self.ids), len(self.ids)):
                raise InputError("distance table must be square over the ids")
            if not np.all(table >= 0):
                raise InputError("distances must be nonnegative (no NaN)")
            if np.any(np.diagonal(table)):
                raise InputError("a point's distance to itself must be 0")
            if not np.array_equal(table, table.T):
                raise InputError("distance table must be symmetric")
        self.coords = coords
        self.table = table

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

    def pair_dist(self, rows, cols) -> np.ndarray:
        """The distances between the points ``rows`` and ``cols``, two
        broadcastable index arrays (or ``cols`` a slice): entries of the
        table, or ``_dist`` of the coordinates, gathered once per index."""
        if self.table is not None:
            return self.table[rows, cols]
        return _dist(_gather(self.coords, rows),
                     _gather(self.coords, cols), self.p)

    def dist_row(self, i: int) -> np.ndarray:
        """Distances from point index i to every point."""
        return self.pair_dist(i, slice(None))

    def cross(self, rows, cols) -> np.ndarray:
        """Distance block between two index lists."""
        return self.pair_dist(np.asarray(rows, dtype=int)[:, None], cols)

    def grid_cells(self, idx, side: float, cap: int) -> np.ndarray:
        """A cell number per point index of ``idx`` on a coordinate-backed
        space, 0 up to at most ``cap - 1``: the cells of a grid whose side
        is ``side``, doubled until the points meet at most ``cap`` cells.
        A key is clipped to +-2**52, so a coordinate over a side that
        overflows still gives a cell, and a side of inf puts every point
        in one."""
        coords = self.coords[np.asarray(idx, dtype=int)]
        side = max(float(side), float(np.finfo(float).smallest_subnormal))
        while True:
            with np.errstate(over="ignore"):
                key = np.floor(np.clip(coords / side, -2.0 ** 52, 2.0 ** 52))
            # + 0.0 makes a key of -0.0 the key 0.0
            _, cell = np.unique(key + 0.0, axis=0, return_inverse=True)
            # the inverse is 1-d or (n, 1), as numpy versions differ
            cell = cell.reshape(-1)
            if cell.max(initial=0) < cap:
                return cell
            side *= 2.0

    def ball_indices(self, i: int, r: float, closed: bool = False) -> np.ndarray:
        d = self.dist_row(i)
        mask = d <= r if closed else d < r
        return np.flatnonzero(mask)

    @cached_property
    def line_order(self):
        """Stable sort order of the coordinate of a coordinate-backed space
        with one coordinate; None on every other space."""
        if self.table is not None or self.coords.shape[1] != 1:
            return None
        return np.argsort(self.coords[:, 0], kind="stable")

    @cached_property
    def _line_coord(self):
        """The coordinate of a ``line_order`` space in sorted order."""
        return self.coords[self.line_order, 0]

    def line_dist(self, a, b):
        """The ``dist_row`` floats between the points at sorted positions
        ``a`` and ``b`` (broadcast) of a ``line_order`` space, in either
        order: ``|x_b - x_a|`` (p = 1, inf) or ``sqrt((x_b - x_a)**2)`` (p =
        2), each step rounded and monotone, so the distance never falls as
        ``b`` moves away from ``a``: each ball is a run of sorted positions."""
        return self.pair_dist(self.line_order[a], self.line_order[b])

    def line_windows(self, r, closed: bool = False, at=None):
        """Ball windows of the points of a ``line_order`` space.

        Returns ``(lo, hi)`` over sorted positions: ``line_order[lo[k]:hi[k]]``
        is the open ball ``d < r`` (closed: ``d <= r``) around the point at
        sorted position ``at[k]`` (every position, in order, by default),
        with ``d`` the exact ``dist_row`` floats.  ``r`` is a scalar or one
        radius per position.

        The ball is a run of sorted positions (see ``line_dist``).
        ``searchsorted`` of ``x_a - r`` and ``x_a + r`` guesses its ends; an
        end is kept where the exact test holds there and fails one position
        outside, and elsewhere bisection on those same floats finds it, also
        for coincident points and for gaps that underflow to distance 0.
        """
        n = self.n
        c = self._line_coord
        at = np.arange(n) if at is None else np.asarray(at, dtype=np.intp)
        r = np.broadcast_to(np.asarray(r, dtype=float), at.shape)
        x = c[at]

        def inside(b):
            d = self.line_dist(at, b)
            return d <= r if closed else d < r

        def first(pred, lo, hi, guess):
            # smallest b in [lo, hi) with pred(b), or hi; pred is false then
            # true along [lo, hi).  The answer is below the guess where pred
            # holds one before it, else the guess where pred holds there (or
            # it is hi), else above it; bisect on that side
            hit = (guess == hi) | pred(np.minimum(guess, n - 1))
            before = (guess > lo) & pred(np.maximum(guess - 1, 0))
            lo = np.select([before, hit], [lo, guess], guess + 1)
            hi = np.select([before, hit], [guess - 1, guess], hi)
            active = lo < hi
            while np.any(active):
                mid = (lo + hi) // 2
                hit = pred(np.where(active, mid, 0))
                hi = np.where(active & hit, mid, hi)
                lo = np.where(active & ~hit, mid + 1, lo)
                active = lo < hi
            return lo

        left, right = ("left", "right") if closed else ("right", "left")
        lo = first(inside, np.zeros(at.size, dtype=np.intp), at + 1,
                   np.clip(c.searchsorted(x - r, left), 0, at + 1))
        hi = first(lambda b: ~inside(b), at + 1, np.full(at.size, n),
                   np.clip(c.searchsorted(x + r, right), at + 1, n))
        return lo, hi

    def ball_rows(self, r, idx=None, closed=False, punctured=False, cost=3):
        """The balls ``B(x_i, r)`` of the points ``i`` of ``idx`` (every
        point, in index order, by default), in padded blocks.

        Yields ``(rows, cols, D, valid)``: ``rows`` is a slice of ``idx``;
        row ``k`` of ``cols`` lists the point indices of the ball of
        ``idx[rows][k]`` first and padding after them, ``valid`` marks the
        ball's entries and ``D`` holds their exact ``dist_row`` floats;
        padding entries hold no meaning.  The ball is ``d < r`` (closed:
        ``d <= r``), less the points at distance 0 when ``punctured``; ``r``
        is a scalar or one radius per entry of ``idx``.  Every row has at
        least one column.

        On a ``line_order`` space a row is the window of sorted positions
        that ``line_windows`` finds, less the run at distance 0 when
        punctured.  On other spaces it is a ``cross`` block against every
        point, masked and compacted so that the entries come first, in index
        order.  A block holds ``BLOCK_ELEMS // (cost * width)`` rows, at
        least one, where ``width`` is the widest row (every point off a
        line): ``cost`` arrays of a block's shape fit in ``BLOCK_ELEMS``.
        """
        n = self.n
        idx = np.arange(n) if idx is None else np.asarray(idx, dtype=int)
        r = np.broadcast_to(np.asarray(r, dtype=float), idx.shape)
        order = self.line_order
        if order is None:
            step = max(1, BLOCK_ELEMS // (cost * max(n, 1)))
            every = np.arange(n)
            for s in range(0, idx.size, step):
                rows = slice(s, s + step)
                D = self.cross(idx[rows], every)
                inside = D <= r[rows, None] if closed else D < r[rows, None]
                if punctured:
                    inside &= D > 0
                width = max(1, int(np.max(np.count_nonzero(inside, axis=1))))
                cols = np.argsort(~inside, axis=1, kind="stable")[:, :width]
                yield (rows, cols, np.take_along_axis(D, cols, axis=1),
                       np.take_along_axis(inside, cols, axis=1))
            return
        rank = np.empty(n, dtype=int)
        rank[order] = np.arange(n)
        a = rank[idx]
        lo, hi = self.line_windows(r, closed, at=a)
        m = hi - lo
        if punctured:
            # entry j at or past the zero run skips over it
            lo0, hi0 = self.line_windows(0.0, True, at=a)
            left, skip = lo0 - lo, hi0 - lo0
            m -= skip
        step = max(1, BLOCK_ELEMS // (cost * max(1, int(m.max(initial=0)))))
        for s in range(0, idx.size, step):
            rows = slice(s, s + step)
            j = np.arange(max(1, int(np.max(m[rows]))))
            b = lo[rows, None] + j
            if punctured:
                b += np.where(j >= left[rows, None], skip[rows, None], 0)
            np.minimum(b, n - 1, out=b)
            D = self.line_dist(a[rows, None], b)
            yield rows, order[b], D, j < m[rows, None]

    def nearest_neighbors(self):
        """``(d1, j)``: the nearest positive distance of every point, and the
        first index among the points at that distance; inf and -1 where no
        point lies at a finite positive distance."""
        n = self.n
        r = np.inf
        order = self.line_order
        if order is not None:
            # the nearest positive distance on a line is that of an outer
            # neighbour of the run at distance 0, so the closed ball of that
            # radius holds that run and the points at that distance only
            lo0, hi0 = self.line_windows(0.0, closed=True)
            at = np.arange(n)
            left = self.line_dist(at, np.maximum(lo0 - 1, 0))
            right = self.line_dist(at, np.minimum(hi0, n - 1))
            r = np.empty(n)
            r[order] = np.minimum(np.where(lo0 > 0, left, np.inf),
                                  np.where(hi0 < n, right, np.inf))
        d1, j = np.full(n, np.inf), np.full(n, -1)
        for rows, cols, D, valid in self.ball_rows(r, closed=True):
            valid &= D > 0
            near = np.min(D, axis=1, where=valid, initial=np.inf)
            first = np.min(np.where(valid & (D == near[:, None]), cols, n),
                           axis=1)
            d1[rows] = near
            j[rows] = np.where(np.isinf(near), -1, first)
        return d1, j

    def diameter(self) -> float:
        """Largest distance: on a ``line_order`` space that of the first and
        last sorted points (see ``line_dist``: no distance is larger),
        else from ``cross`` row blocks against every point; four arrays of a
        block's shape fit in ``BLOCK_ELEMS`` (one row when a row exceeds it)."""
        if self.line_order is not None and self.n:
            return float(self.line_dist(0, self.n - 1))
        every = np.arange(self.n)
        step = max(1, BLOCK_ELEMS // (4 * max(self.n, 1)))
        return max((float(np.max(self.cross(every[s:s + step], every)))
                    for s in range(0, self.n, step)), default=0.0)

    def nearest_neighbor_distance(self, i: int) -> float:
        d = self.dist_row(i)
        return float(np.min(d, where=d > 0, initial=np.inf))

    def resolution(self) -> float:
        """Smallest nearest-neighbor distance over all points."""
        return float(np.min(self.nearest_neighbors()[0]))


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

    def intersect_measures(self, lo, hi) -> np.ndarray:
        """``intersect(lo[k], hi[k]).measure()`` for every k, as one array.

        Each stored interval adds ``b2 - a2`` where its clip [a2, b2] to
        [lo, hi] is not empty, in interval order from 0.0, as ``measure``'s
        ``sum`` adds them: the clips of disjoint sorted intervals are
        disjoint and sorted, so ``intersect`` merges none of them, and
        adding a length to 0.0 or 0.0 to a sum changes no float.  So every
        float equals the scalar one.
        """
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        lo, hi = np.where(hi < lo, hi, lo), np.where(hi < lo, lo, hi)
        total = np.zeros(np.broadcast(lo, hi).shape)
        # as silent as Python floats on inf - inf and overflow
        with np.errstate(over="ignore", invalid="ignore"):
            for a, b in self.intervals:
                a2, b2 = np.maximum(a, lo), np.minimum(b, hi)
                total += np.where(a2 <= b2, b2 - a2, 0.0)
        return total

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
