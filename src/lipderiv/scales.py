"""Scale-indexed Lipschitz functionals on sampled maps.

All suprema/infima are computed exactly on the finite sample; the only
approximations live in the per-point limit estimates of a scale profile.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .metric import (BLOCK_ELEMS, FiniteMetricSpace, _block, _norm,
                     validate_metric)

#: total tail-growth factor driving the divergence flag (see RadiusGrid docs)
DIVERGENCE_FACTOR = 2.0


class SampledMap:
    """A function sampled on a finite metric space.

    The codomain metric is either the real absolute difference (scalar
    values), a p-norm on R^m (vector values), or an explicit table of value
    distances indexed like the domain.
    """

    def __init__(self, domain: FiniteMetricSpace, values=None, codomain_p=None,
                 value_table=None, validate_table=True):
        self.domain = domain
        self.value_table = None
        self.codomain_p = codomain_p
        if value_table is not None:
            value_table = np.asarray(value_table, dtype=float)
            if value_table.shape != (domain.n, domain.n):
                raise InputError("value-distance table must match the domain")
            if np.any(np.isnan(value_table)):
                raise InputError("NaN is not a valid value distance")
            if validate_table:
                probe = FiniteMetricSpace(list(range(domain.n)), table=value_table)
                bad = [v for v in validate_metric(probe)
                       if v["axiom"] in ("identity", "symmetry", "triangle")]
                if bad:
                    raise InputError(f"codomain distances violate {bad[0]['axiom']}")
            self.value_table = value_table
            self.values = None
            return
        values = np.asarray(values, dtype=float)
        if values.shape[0] != domain.n:
            raise InputError("one value per domain point required")
        if not np.all(np.isfinite(values)):
            raise InputError("values must be finite (no NaN or inf)")
        self.values = values

    @classmethod
    def real(cls, domain, values):
        return cls(domain, values=np.asarray(values, dtype=float).reshape(-1))

    @classmethod
    def vector(cls, domain, values, p=2.0):
        return cls(domain, values=np.atleast_2d(values), codomain_p=p)

    def value_dist_from(self, i: int) -> np.ndarray:
        """|f(u) - f(x_i)|_Y for every sample point u."""
        if self.value_table is not None:
            return self.value_table[i]
        if self.values.ndim == 1:
            return np.abs(self.values - self.values[i])
        return _norm(self.values - self.values[i], self.codomain_p)

    def value_cross(self, rows, cols) -> np.ndarray:
        rows = np.asarray(rows, dtype=int)
        cols = np.asarray(cols, dtype=int)
        if self.value_table is not None:
            return self.value_table[np.ix_(rows, cols)]
        a, b = self.values[rows], self.values[cols]
        if self.values.ndim == 1:
            return np.abs(a[:, None] - b[None, :])
        return _block(a, b, self.codomain_p)

    def value_pairs(self, rows, cols) -> np.ndarray:
        """``value_cross`` entry by entry: |f(rows[k]) - f(cols[k])|_Y over
        two index arrays of one shape, with the same floats."""
        if self.value_table is not None:
            return self.value_table[rows, cols]
        a, b = self.values[rows], self.values[cols]
        if self.values.ndim == 1:
            return np.abs(a - b)
        return _norm(a - b, self.codomain_p)


@dataclass(frozen=True)
class RadiusGrid:
    """Geometric radius grid r_k = r_max * q**k, k = 0..steps-1.

    ``tail_window`` radii at the small end feed the limit estimates and the
    divergence flag.  The flag fires when the tail of the pointwise little
    estimates increases monotonically as r shrinks and grows overall by more
    than ``divergence_factor``; the stated per-step reading of that factor
    would never fire for square-root cusps on geometric grids, so the total
    tail growth is used instead.
    """
    r_max: float
    q: float = 0.5
    steps: int = 8
    tail_window: int = 3
    divergence_factor: float = DIVERGENCE_FACTOR

    def __post_init__(self):
        if not 0 < self.r_max < np.inf:
            raise InputError("r_max must be positive and finite")
        if not (0.0 < self.q < 1.0):
            raise InputError("q must lie in (0, 1)")
        if self.steps < 1:
            raise InputError("steps must be >= 1")
        if not (1 <= self.tail_window <= self.steps):
            raise InputError("tail_window must be in [1, steps]")

    @property
    def radii(self) -> np.ndarray:
        return self.r_max * self.q ** np.arange(self.steps)


class _PointScan:
    """Every sort-based functional of one point, for a whole radius array.

    The positive distances from the point up to ``reach`` are sorted once
    and their ties collapsed into ``dd``; ``run[j]`` is the largest value
    increment over the closed ball of radius ``dd[j]``.  A query counts the
    breakpoints ``dd`` below each radius with ``searchsorted`` and reads a
    running maximum or a prefix minimum at that count, built over the
    breakpoints below the largest radius only.  Maxima and minima are exact,
    so every value equals the by-definition one over the same increments;
    a radius up to ``reach`` sees every increment it would see without the
    limit.  A point with no neighbour at positive distance gets 0 from every
    functional.  It stays beside ``scan_field`` for one-point queries, where
    a call costs about 14 times less (0.1 ms against 1.4 ms on a line of
    3,143 points).
    """

    def __init__(self, f: SampledMap, i: int, reach: float = np.inf):
        d = f.domain.dist_row(i)
        dv = f.value_dist_from(i)
        keep = (d > 0) & (d <= reach)
        d, dv = d[keep], dv[keep]
        order = np.argsort(d, kind="stable")
        self._d, self._dv = d[order], dv[order]
        # the last entry of each distinct distance
        self._last = np.flatnonzero(
            np.append(np.diff(self._d) > 0, self._d.size > 0))
        self.dd = self._d[self._last]
        self.run = np.maximum.accumulate(self._dv)[self._last]
        # indexed by the breakpoint count k; k = 0 is the empty ball
        self._run0 = np.concatenate(([0.0], self.run))

    @property
    def d1(self) -> float:
        """Nearest positive distance within reach (inf if there is none)."""
        return float(self.dd[0]) if self.dd.size else np.inf

    def _below(self, radii):
        """Breakpoints below each radius, and the largest of these counts."""
        k = np.searchsorted(self.dd, radii)
        return k, int(k.max(initial=0))

    def lip_upper(self, radii):
        return self._run0[np.searchsorted(self.dd, radii)] / radii

    def lip_upper_closed(self, radii):
        return self._run0[np.searchsorted(self.dd, radii, "right")] / radii

    def big_below(self, radii):
        k, m = self._below(radii)
        raw = self._last[m - 1] + 1 if m else 0
        ratio = np.maximum.accumulate(self._dv[:raw] / self._d[:raw])
        return np.concatenate(([0.0], ratio[self._last[:m]]))[k]

    def little_below(self, radii):
        k, m = self._below(radii)
        # entry k: min over j < k - 1 of run[j] / dd[j + 1], the infimum of
        # the open-ball functional on the segment (dd[j], dd[j + 1]]
        gaps = self.run[:max(m - 1, 0)] / self.dd[1:m]
        inner = np.concatenate(([np.inf, np.inf], np.minimum.accumulate(gaps)))
        return np.minimum(inner[k], self._run0[k] / radii)

    def nearest_scale_inf(self, radii):
        k, m = self._below(radii)
        ratio = np.minimum.accumulate(self.run[:m] / self.dd[:m])
        return np.concatenate(([0.0], ratio))[k]


#: the profile columns the sorted scan answers, by method name
_SCAN_COLUMNS = ("lip_upper", "lip_upper_closed", "big_below", "little_below")

#: everything ``scan_field`` answers per point and radius
_FIELD_KINDS = _SCAN_COLUMNS + ("nearest_scale_inf",)


def scan_field(f: SampledMap, radii, idx=None) -> dict:
    """The sorted-scan functionals of many points for a whole radius array.

    Returns ``{kind: array (points, radii)}`` for every ``_FIELD_KINDS``
    method, plus ``"d1"``, one value per point; each equals what
    ``_PointScan(f, i, reach=max(radii))`` gives for the point indices ``i``
    of ``idx`` (every point, in index order, by default).

    A point's row holds the ``dist_row`` floats of its closed punctured ball
    of radius the reach (``FiniteMetricSpace.ball_rows``) and their
    ``value_dist_from`` floats (the point as the row of ``value_pairs``),
    padded with distance inf after its entries; the rows are sorted by
    distance.  Along a row a running max of the value distances, a running
    max of the quotients and running minima over the last entry of each tie
    group give every functional at the count of entries below (or up to)
    each radius, which is always the last entry of a tie group.

    Why this is exact: every value read is a max or min over the same
    ``(d, dv)`` floats and the same quotients of them that ``_PointScan``
    takes, over the same set of entries (all entries up to the end of a tie
    group), and max and min do not depend on order, so the sort order
    within ties cannot change it.  Blocks are sized for 8 arrays of their
    shape per value coordinate of vector values.
    """
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    if not np.all(radii > 0):
        raise InputError("radii must be positive")
    sp = f.domain
    idx = np.arange(sp.n) if idx is None else np.asarray(idx, dtype=int)
    out = {kind: np.empty((idx.size, radii.size)) for kind in _FIELD_KINDS}
    out["d1"] = np.full(idx.size, np.inf)
    vector = f.values is not None and f.values.ndim == 2
    cost = 8 * (f.values.shape[1] if vector else 1)
    for rows, cols, D, valid in sp.ball_rows(float(np.max(radii)), idx,
                                             closed=True, punctured=True,
                                             cost=cost):
        V = f.value_pairs(np.broadcast_to(idx[rows, None], cols.shape), cols)
        _read_rows(np.where(valid, D, np.inf), V,
                   np.count_nonzero(valid, axis=1), radii,
                   {k: v[rows] for k, v in out.items()})
    return out


def _read_rows(D, V, m, radii, out):
    """Fill ``out`` (views of ``scan_field``'s arrays) from padded rows of
    distances ``D`` and value distances ``V``; row p holds ``m[p]`` entries,
    then distance inf."""
    # stable, so the padding stays after entries at distance inf
    ranked = np.argsort(D, axis=1, kind="stable")
    D = np.take_along_axis(D, ranked, axis=1)
    V = np.take_along_axis(V, ranked, axis=1)
    rows = np.arange(D.shape[0])
    last = np.zeros(D.shape, dtype=bool)
    last[:, :-1] = D[:, 1:] > D[:, :-1]
    last[rows, np.maximum(m - 1, 0)] = True
    # entries from m on are padding: whatever they hold is never read
    with np.errstate(divide="ignore", invalid="ignore"):
        run = np.maximum.accumulate(V, axis=1)
        big = np.maximum.accumulate(V / D, axis=1)
        near = np.minimum.accumulate(np.where(last, run / D, np.inf), axis=1)
        # run over a tie group against the next group's distance
        gaps = np.full(D.shape, np.inf)
        gaps[:, :-1] = np.where(last[:, :-1], run[:, :-1] / D[:, 1:], np.inf)
        np.minimum.accumulate(gaps, axis=1, out=gaps)
    for ri, r in enumerate(radii):
        k = np.minimum(np.count_nonzero(D < r, axis=1), m)
        kc = np.minimum(np.count_nonzero(D <= r, axis=1), m)
        at = np.maximum(k - 1, 0)
        top = np.where(k > 0, run[rows, at], 0.0) / r
        out["lip_upper"][:, ri] = top
        out["lip_upper_closed"][:, ri] = np.where(
            kc > 0, run[rows, np.maximum(kc - 1, 0)], 0.0) / r
        out["big_below"][:, ri] = np.where(k > 0, big[rows, at], 0.0)
        out["nearest_scale_inf"][:, ri] = np.where(k > 0, near[rows, at], 0.0)
        inner = np.where(k > 1, gaps[rows, np.maximum(k - 2, 0)], np.inf)
        out["little_below"][:, ri] = np.minimum(inner, top)
    out["d1"][:] = np.where(m > 0, D[:, 0], np.inf)


def _scan(f: SampledMap, x, r: float) -> _PointScan:
    if r <= 0:
        raise InputError("r must be positive")
    return _PointScan(f, f.domain.index(x))


def lip_upper_r(f: SampledMap, x, r: float) -> float:
    """sup over the open ball B(x, r) of |f(u)-f(x)| / r (sup empty = 0)."""
    return float(_scan(f, x, r).lip_upper(r))


def lip_upper_r_closed(f: SampledMap, x, r: float) -> float:
    """Closed-ball variant of lip_upper_r."""
    return float(_scan(f, x, r).lip_upper_closed(r))


def big_lip_below_r(f: SampledMap, x, r: float) -> float:
    """sup over 0 < d(u,x) < r of the difference quotient |f(u)-f(x)|/d(u,x)."""
    return float(_scan(f, x, r).big_below(r))


def little_lip_below_r(f: SampledMap, x, r: float) -> float:
    """Exact infimum of lip_upper over scales in (d_1, r).

    d_1 is the nearest-neighbor distance of x; scales below d_1 carry no
    sample information and would collapse the infimum to 0, so they are
    excluded.  Returns 0 when x has no neighbor within r (unresolved).
    """
    return float(_scan(f, x, r).little_below(r))


def nearest_scale_infimum(f: SampledMap, x, r: float) -> float:
    """min over distinct neighbor distances d_k < r of M_k / d_k, where M_k is
    the max value increment over the closed ball of radius d_k.

    This is the profile's little-derivative estimate: unlike the exact sampled
    infimum it evaluates each scale at its attained neighbor distance, so it
    converges to |f'| on uniform samples of C1 functions.  Returns 0 when x
    has no neighbor within r.
    """
    return float(_scan(f, x, r).nearest_scale_inf(r))


def loc_lip_r(f: SampledMap, x, r: float) -> float:
    """Lipschitz constant of f restricted to the open ball B(x, r)."""
    if r <= 0:
        raise InputError("r must be positive")
    i = f.domain.index(x)
    idx = f.domain.ball_indices(i, r)
    return _pair_sup(f, idx)


def _pair_sup(f: SampledMap, idx) -> float:
    idx = np.asarray(idx, dtype=int)
    m = idx.size
    if m < 2:
        return 0.0
    best = 0.0
    # upper-triangle row blocks: rows idx[s:s + step] against the columns
    # idx[s:], so each pair is computed once, row before column, and no
    # block holds more than BLOCK_ELEMS elements
    step = max(1, min(128, BLOCK_ELEMS // m))
    for s in range(0, m - 1, step):
        rows, cols = idx[s:s + step], idx[s:]
        D = f.domain.cross(rows, cols)
        V = f.value_cross(rows, cols)
        # keep strictly-upper pairs only
        mask = np.arange(cols.size)[None, :] > np.arange(rows.size)[:, None]
        mask &= D > 0
        # pairs at distance 0 divide to inf/NaN and are masked out of the max
        with np.errstate(divide="ignore", invalid="ignore"):
            Q = np.divide(V, D, out=V)
        best = max(best, float(np.max(Q, where=mask, initial=0.0)))
    return best


def loc_field(f: SampledMap, r: float, idx=None) -> np.ndarray:
    """``loc_lip_r(f, x_i, r)`` at the point indices ``i`` of ``idx``, in
    the order given, repeats allowed (every point, in index order, by
    default).

    On a ``line_order`` domain the open balls are windows of sorted
    positions.  ``Q[s, k]`` is the quotient of the pair at sorted positions
    s and s + k, its value distance taken row before column by index as in
    ``_pair_sup`` and pairs at distance 0 left out; ``R`` is its running
    maximum along k.  The pairs of the window [lo, hi) are the triangle
    lo <= s < t <= e = hi - 1, and their maximum is the maximum over s of
    ``R[s, e - s]``.  Max is exact, so every value equals ``_pair_sup`` over
    the same ball.  Windows are found for the requested points only, and
    only the band rows s that some window reads (lo <= s < hi - 1) are
    built.  Those rows are taken in blocks of ``BLOCK_ELEMS // (8 width)``,
    and each point reads the rows of a block that its window meets: a band
    block then holds at most 1/8 of ``BLOCK_ELEMS`` elements and a gather
    block at most 3/4 (3/8 over every point; windows wider than
    ``BLOCK_ELEMS / 8`` get one band row per block).  Other domains use
    ``_pair_sup`` point by point.
    """
    if r <= 0:
        raise InputError("r must be positive")
    sp = f.domain
    n = sp.n
    idx = np.arange(n) if idx is None else np.asarray(idx, dtype=int)
    order = sp.line_order
    if order is None:
        return np.array([_pair_sup(f, sp.ball_indices(i, r)) for i in idx],
                        dtype=float)
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    # each distinct point once, by sorted position; only windows holding a
    # pair read any row
    at, inverse = np.unique(rank[idx], return_inverse=True)
    lo, hi = sp.line_windows(r, at=at)
    best = np.zeros(at.size)
    reads = np.flatnonzero(hi - lo >= 2)
    if reads.size == 0:
        return best[inverse]
    lo, hi = lo[reads], hi[reads]
    width = int(np.max(hi - lo))
    # the band rows the windows read, ascending; window p reads the run
    # rows[pos[p]:pos[p] + cnt[p]], which is lo[p] .. hi[p] - 2
    edges = np.zeros(n, dtype=np.intp)
    np.add.at(edges, lo, 1)
    np.add.at(edges, hi - 1, -1)
    rows = np.flatnonzero(np.cumsum(edges) > 0)
    pos = np.searchsorted(rows, lo)
    cnt = hi - 1 - lo
    c = sp.coords[order, 0]
    k = np.arange(1, width)
    step = max(1, BLOCK_ELEMS // (8 * width))
    span = min(step, width - 1)
    for c0 in range(0, rows.size, step):
        s = rows[c0:c0 + step, None]
        c1 = c0 + s.shape[0]
        t = s + k
        keep = t < n
        np.minimum(t, n - 1, out=t)
        D = _norm((c[t] - c[s])[..., None], sp.p)
        keep &= D > 0
        i, j = order[s], order[t]
        V = f.value_pairs(np.minimum(i, j), np.maximum(i, j))
        with np.errstate(divide="ignore", invalid="ignore"):
            Q = np.divide(V, D, out=V)
        R = np.maximum.accumulate(np.where(keep, Q, 0.0), axis=1)
        # the windows that meet rows c0 .. c1 - 1 of the run start before
        # c1 and at most width - 2 rows before c0; pos ascends, because lo
        # never decreases along the sorted order (see ``line_windows``)
        a = np.arange(np.searchsorted(pos, c0 - width + 2),
                      np.searchsorted(pos, c1))
        first = np.maximum(pos[a], c0)[:, None] + np.arange(span)
        ok = first < np.minimum(pos[a] + cnt[a], c1)[:, None]
        np.minimum(first, c1 - 1, out=first)
        # row s of the window [lo, hi) is read at column hi - 2 - s
        cols = np.maximum(hi[a, None] - 2 - rows[first], 0)
        got = np.max(R[first - c0, cols], axis=1, where=ok, initial=0.0)
        best[reads[a]] = np.maximum(best[reads[a]], got)
    return best[inverse]


def _row_extremes(f: SampledMap):
    """``(lip_norm(f), diameter, resolution)`` from row blocks of all
    ordered pairs.

    Rows ``i`` of a block against every point ``j`` hold the ``cross`` and
    ``value_cross`` floats of the pair (i, j), which are the ``dist_row``
    and ``value_dist_from`` floats of row i (a difference and its negation
    round to the same magnitude).  A block holds at most
    ``BLOCK_ELEMS // 4`` pairs (one row when a row alone exceeds it), so its
    distances, value distances and their two temporaries fit in
    ``BLOCK_ELEMS``.  Max and min are exact, so the result equals the one
    of a loop over the rows.
    """
    sp = f.domain
    every = np.arange(sp.n)
    step = max(1, BLOCK_ELEMS // (4 * max(sp.n, 1)))
    norm, diam, resolution = 0.0, 0.0, np.inf
    for s in range(0, sp.n, step):
        rows = every[s:s + step]
        D = sp.cross(rows, every)
        V = f.value_cross(rows, every)
        mask = D > 0
        diam = max(diam, float(np.max(D)))
        resolution = min(resolution,
                         float(np.min(D, where=mask, initial=np.inf)))
        # pairs at distance 0 divide to inf/NaN and are masked out of the max
        with np.errstate(divide="ignore", invalid="ignore"):
            Q = np.divide(V, D, out=V)
        norm = max(norm, float(np.max(Q, where=mask, initial=0.0)))
    return norm, diam, resolution


def lip_norm(f: SampledMap) -> float:
    """Supremum of difference quotients over all pairs of distinct points."""
    return _row_extremes(f)[0]


def point_scale_values(f: SampledMap, x, radii) -> dict:
    """All five scale functionals of one point on an array of radii."""
    radii = np.asarray(radii, dtype=float)
    if np.any(radii <= 0):
        raise InputError("radii must be positive")
    scan = _PointScan(f, f.domain.index(x))
    out = {name: getattr(scan, name)(radii) for name in _SCAN_COLUMNS}
    out["loc"] = np.array([loc_lip_r(f, x, float(r)) for r in radii])
    return out


@dataclass
class PointSummary:
    point: object
    lip_hat: float
    big_hat: float
    loc_hat: float
    unresolved: bool
    divergent: bool
    liminf_surrogate: float | None = None


@dataclass
class ScaleProfile:
    """Per-point, per-radius scale functionals with limit estimates."""
    points: list
    radii: np.ndarray
    table: dict                      # name -> (n_points, n_radii) array
    summaries: list = field(default_factory=list)


def _resolved(d1, radii) -> np.ndarray:
    """Per point, the index of the smallest radius above its nearest
    positive distance ``d1``, or -1 (radii shrink along the array)."""
    hit = d1[:, None] < radii
    return np.where(np.any(hit, axis=1),
                    radii.size - 1 - np.argmax(hit[:, ::-1], axis=1), -1)


def _summaries(points, grid: RadiusGrid, d1, series, big, loc_at,
               surrogate=None) -> list:
    """The limit estimates of every point from its scan readings.

    Per point p: ``d1[p]`` is its nearest positive distance, ``series[p]``
    its nearest-scale infima on the tail window, ``big[p]`` its big
    functional at the smallest radius and ``surrogate[p]`` (if given) its
    open-ball functional on the tail window.  ``loc_at(p, k)`` returns the
    local functional at ``grid.radii[k]``; it is asked once per point, at
    the smallest radius whose ball holds a neighbour.
    """
    radii = grid.radii
    resolved = _resolved(d1, radii)
    # divergence: the little estimates along the tail keep growing as the
    # radius shrinks and more than double overall (radii shrink along the
    # array, so growth toward small scales means a nondecreasing series)
    divergent = ((series[:, -1] > 0)
                 & np.all(np.diff(series, axis=1) >= 0, axis=1)
                 & (series[:, -1] > grid.divergence_factor * series[:, 0]))
    unresolved = d1 >= radii[-1]
    out = []
    for p, x in enumerate(points):
        k = int(resolved[p])
        out.append(PointSummary(
            x, float(series[p, -1]), float(big[p]),
            float(loc_at(p, k)) if k >= 0 else 0.0, bool(unresolved[p]),
            bool(divergent[p]),
            None if surrogate is None else float(np.min(surrogate[p]))))
    return out


def scale_profile(f: SampledMap, grid: RadiusGrid, points=None,
                  liminf_surrogate: bool = False) -> ScaleProfile:
    """Evaluate all scale functionals on the radius grid.

    Limit estimates per point: the big estimate is the exact big functional at
    the smallest radius, the little estimate is the nearest-scale infimum at
    the smallest radius, and the local estimate is the local functional at the
    smallest radius whose ball is resolved (contains a neighbor).

    ``liminf_surrogate`` additionally reports min over the tail window of the
    raw open-ball functional (off by default).
    """
    radii = grid.radii
    if points is None:
        points = list(f.domain.ids)
    table = {k: np.zeros((len(points), len(radii)))
             for k in _SCAN_COLUMNS + ("loc",)}
    tail = radii[-grid.tail_window:]
    d1 = np.empty(len(points))
    series = np.empty((len(points), tail.size))
    for pi, x in enumerate(points):
        scan = _PointScan(f, f.domain.index(x))
        for name in _SCAN_COLUMNS:
            table[name][pi] = getattr(scan, name)(radii)
        for r_i, r in enumerate(radii):
            table["loc"][pi, r_i] = loc_lip_r(f, x, float(r))
        d1[pi] = scan.d1
        series[pi] = scan.nearest_scale_inf(tail)
    surrogate = table["lip_upper"][:, -tail.size:]
    summaries = _summaries(points, grid, d1, series, table["big_below"][:, -1],
                           lambda p, k: table["loc"][p, k],
                           surrogate if liminf_surrogate else None)
    return ScaleProfile(list(points), radii, table, summaries)


def scale_summaries(f: SampledMap, grid: RadiusGrid, points=None,
                    liminf_surrogate: bool = False) -> list:
    """The ``PointSummary`` list of ``scale_profile``, without its table.

    One ``scan_field`` over the points, reaching the largest radius, and one
    ``loc_field`` per distinct smallest resolved radius, over the points
    resolved there.
    """
    radii = grid.radii
    if points is None:
        points = list(f.domain.ids)
    idx = np.array([f.domain.index(x) for x in points], dtype=int)
    scan = scan_field(f, radii, idx)
    resolved = _resolved(scan["d1"], radii)
    loc = np.zeros(idx.size)
    for k in np.unique(resolved[resolved >= 0]):
        at = np.flatnonzero(resolved == k)
        loc[at] = loc_field(f, float(radii[k]), idx[at])
    tail = slice(radii.size - grid.tail_window, None)
    return _summaries(
        points, grid, scan["d1"], scan["nearest_scale_inf"][:, tail],
        scan["big_below"][:, -1], lambda p, k: loc[p],
        scan["lip_upper"][:, tail] if liminf_surrogate else None)
