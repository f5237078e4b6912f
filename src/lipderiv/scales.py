"""Scale-indexed Lipschitz functionals on sampled maps.

All suprema/infima are computed exactly on the finite sample; the only
approximations live in the per-point limit estimates of a scale profile.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from math import isqrt

import numpy as np

from .errors import InputError
from .metric import BLOCK_ELEMS, NORMS, FiniteMetricSpace, _dist, _gather

#: total tail-growth factor driving the divergence flag (see RadiusGrid docs)
DIVERGENCE_FACTOR = 2.0


class SampledMap:
    """A function sampled on a finite metric space.

    ``values`` holds one value per domain point: a 1-d array of reals,
    whose codomain metric is the absolute difference, or a 2-d array of
    vectors in R^m, whose codomain metric is the ``codomain_p``-norm, p in
    ``NORMS``.  Anything else raises ``InputError``.
    """

    def __init__(self, domain: FiniteMetricSpace, values=None, codomain_p=None):
        values = np.asarray(values, dtype=float)
        if values.ndim not in (1, 2) or values.shape[0] != domain.n:
            raise InputError("one real or vector value per domain point "
                             "required")
        if values.ndim == 2 and codomain_p not in NORMS:
            raise InputError(f"unsupported norm order {codomain_p!r}")
        if not np.all(np.isfinite(values)):
            raise InputError("values must be finite (no NaN or inf)")
        self.domain = domain
        self.values = values
        self.codomain_p = codomain_p
        # the values as vectors, and their norm: a real value is a vector of
        # one component, whose absolute difference every norm gives
        real = values.ndim == 1
        self._vectors = values[:, None] if real else values
        self._vector_p = 1.0 if real else codomain_p

    @classmethod
    def real(cls, domain, values):
        return cls(domain, values=np.asarray(values, dtype=float).reshape(-1))

    @classmethod
    def vector(cls, domain, values, p=2.0):
        return cls(domain, values=np.atleast_2d(values), codomain_p=p)

    def value_pairs(self, rows, cols) -> np.ndarray:
        """|f(u) - f(v)|_Y between the points ``rows`` and ``cols``, two
        broadcastable index arrays (or ``cols`` a slice): ``_dist`` of the
        value vectors, gathered once per index."""
        v = self._vectors
        return _dist(_gather(v, rows), _gather(v, cols), self._vector_p)

    def value_dist_from(self, i: int) -> np.ndarray:
        """|f(u) - f(x_i)|_Y for every sample point u."""
        return self.value_pairs(i, slice(None))

    def value_cross(self, rows, cols) -> np.ndarray:
        """Value-distance block between two index lists."""
        return self.value_pairs(np.asarray(rows, dtype=int)[:, None], cols)


@dataclass(frozen=True)
class RadiusGrid:
    """Geometric radius grid r_k = r_max * q**k, k = 0..steps-1.

    ``tail_window`` radii at the small end feed the limit estimates and the
    divergence flag.  The flag fires when the tail of the pointwise little
    estimates increases monotonically as r shrinks and grows overall by more
    than ``DIVERGENCE_FACTOR``; the stated per-step reading of that factor
    would never fire for square-root cusps on geometric grids, so the total
    tail growth is used instead.
    """
    r_max: float
    q: float = 0.5
    steps: int = 8
    tail_window: int = 3

    def __post_init__(self):
        if not 0 < self.r_max < np.inf:
            raise InputError("r_max must be positive and finite")
        if not (0.0 < self.q < 1.0):
            raise InputError("q must lie in (0, 1)")
        if self.steps < 1:
            raise InputError("steps must be >= 1")
        if not (1 <= self.tail_window <= self.steps):
            raise InputError("tail_window must be in [1, steps]")
        # the smallest radius as one float, before any array of `steps`
        try:
            smallest = self.r_max * self.q ** (self.steps - 1)
        except OverflowError:          # steps - 1 does not fit a float
            smallest = 0.0
        if not smallest > 0:
            raise InputError("steps too large: the smallest radius "
                             "r_max * q**(steps-1) underflows to 0")
        # one radius per step: no grid longer than a block is built
        if self.steps > BLOCK_ELEMS:
            raise InputError("steps too large: a grid holds at most "
                             f"{BLOCK_ELEMS} radii")

    @property
    def radii(self) -> np.ndarray:
        return self.r_max * self.q ** np.arange(self.steps)


#: the profile columns the sorted scan answers
_SCAN_COLUMNS = ("lip_upper", "lip_upper_closed", "big_below", "little_below")

#: the columns of a profile: the scan's, then the local functional
PROFILE_COLUMNS = _SCAN_COLUMNS + ("loc",)

#: everything ``scan_field`` answers per point and radius
_FIELD_KINDS = _SCAN_COLUMNS + ("nearest_scale_inf",)


def _positive(radii) -> np.ndarray:
    """``radii`` as a 1-d float array; ``InputError`` unless it holds a
    radius and every radius is > 0 (a NaN radius is not)."""
    radii = np.array(radii, dtype=float, ndmin=1)
    if radii.size == 0:
        raise InputError("at least one radius required")
    if not (radii > 0).all():
        raise InputError("radii must be positive")
    return radii


def _one_radius(r) -> np.ndarray:
    """``_positive`` of a scalar radius; ``InputError`` for an array."""
    if np.ndim(r) != 0:
        raise InputError("one radius required, not an array")
    return _positive(r)


def scan_field(f: SampledMap, radii, idx=None) -> dict:
    """The sorted-scan functionals of many points for a whole radius array.

    Returns ``{kind: array (points, radii)}`` for every ``_FIELD_KINDS``
    kind, plus ``"d1"``, one value per point, for the point indices ``i`` of
    ``idx`` (every point, in index order, by default).  Each value equals,
    bit for bit, its definition over the points u at positive distance from
    ``x_i`` (a max over no points is 0): ``lip_upper`` is the largest
    ``|f(u) - f(x_i)|`` over d(u, x_i) < r, divided by r
    (``lip_upper_closed``: over d <= r); ``big_below`` the largest quotient
    at d < r; ``little_below`` the smallest ``lip_upper`` over the neighbour
    distances in (d1, r) and r itself, 0 with no neighbour below r;
    ``nearest_scale_inf`` the smallest ``lip_upper_closed`` over the
    neighbour distances below r; ``d1`` the nearest positive distance up to
    the reach ``max(radii)`` (inf if there is none).

    A point's row holds the ``dist_row`` floats of its closed punctured ball
    of radius the reach (``FiniteMetricSpace.ball_rows``) and their
    ``value_dist_from`` floats, padded with distance inf after its entries;
    the rows are sorted by distance.  Along a row a running max of the value
    distances, a running max of the quotients and running minima over the
    last entry of each tie group give every functional at the count of
    entries below (or up to) each radius, which is always the last entry of
    a tie group.

    Why this is exact: every value read is a max or min over the same
    ``(d, dv)`` floats and the same quotients of them that the definition
    takes, over the same set of entries (all entries up to the end of a tie
    group), and max and min do not depend on order, so the sort order
    within ties cannot change it.  Blocks are sized for 8 arrays of their
    shape per value coordinate of vector values; the counts per radius add
    one byte per entry and radius.
    """
    radii = _positive(radii)
    sp = f.domain
    idx = np.arange(sp.n) if idx is None else np.asarray(idx, dtype=int)
    out = {kind: np.empty((idx.size, radii.size)) for kind in _FIELD_KINDS}
    out["d1"] = np.full(idx.size, np.inf)
    cost = 8 * f._vectors.shape[1]
    for rows, cols, D, valid in sp.ball_rows(float(np.max(radii)), idx,
                                             closed=True, punctured=True,
                                             cost=cost):
        V = f.value_pairs(idx[rows, None], cols)
        _read_rows(np.where(valid, D, np.inf), V,
                   np.count_nonzero(valid, axis=1), radii,
                   {k: v[rows] for k, v in out.items()})
    return out


def _read_rows(D, V, m, radii, out):
    """Fill ``out`` (views of ``scan_field``'s arrays) from padded rows of
    distances ``D`` and value distances ``V``; row p holds ``m[p]`` entries,
    then distance inf.  A quotient that overflows reads inf, without a
    warning."""
    rows = np.arange(D.shape[0])[:, None]
    # stable, so the padding stays after entries at distance inf
    ranked = np.argsort(D, axis=1, kind="stable")
    D, V = D[rows, ranked], V[rows, ranked]
    # the last entry of each tie group; padding at distance inf follows
    # the entries, and no count reads past an entry at distance inf
    last = np.ones(D.shape, dtype=bool)
    last[:, :-1] = D[:, 1:] > D[:, :-1]
    # column c of run, big, near and gaps reads the first c entries of a
    # row (0 or inf for none); entries from m on are padding and never read
    run, big, near = np.zeros((3, D.shape[0], D.shape[1] + 1))
    gaps = np.full(run.shape, np.inf)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.maximum.accumulate(V, axis=1, out=run[:, 1:])
        np.maximum.accumulate(V / D, axis=1, out=big[:, 1:])
        np.minimum.accumulate(np.where(last, run[:, 1:] / D, np.inf), axis=1,
                              out=near[:, 1:])
        # run up to the end of a tie group against the next group's
        # distance, two columns on: count k reads the groups that end
        # before entry k - 1
        gaps[:, 2:] = np.where(last[:, :-1], run[:, 1:-1] / D[:, 1:], np.inf)
        np.minimum.accumulate(gaps, axis=1, out=gaps)
    # entries below (up to) each radius, which end a tie group; padding is
    # never below a radius, but up to an infinite one
    # summed along the contiguous last axis
    k = np.sum(D[:, None, :] < radii[:, None], axis=2)
    kc = np.minimum(np.sum(D[:, None, :] <= radii[:, None], axis=2),
                    m[:, None])
    top = run[rows, k] / radii
    out["lip_upper"][:] = top
    out["lip_upper_closed"][:] = run[rows, kc] / radii
    out["big_below"][:] = big[rows, k]
    out["nearest_scale_inf"][:] = near[rows, k]
    out["little_below"][:] = np.minimum(gaps[rows, k], top)
    # a row without entries is all padding
    out["d1"][:] = D[:, 0]


def _scan(f: SampledMap, x, r: float, kind: str) -> float:
    scan = scan_field(f, _one_radius(r), [f.domain.index(x)])
    return float(scan[kind][0, 0])


def lip_upper_r(f: SampledMap, x, r: float) -> float:
    """sup over the open ball B(x, r) of |f(u)-f(x)| / r (sup empty = 0)."""
    return _scan(f, x, r, "lip_upper")


def lip_upper_r_closed(f: SampledMap, x, r: float) -> float:
    """Closed-ball variant of lip_upper_r."""
    return _scan(f, x, r, "lip_upper_closed")


def big_lip_below_r(f: SampledMap, x, r: float) -> float:
    """sup over 0 < d(u,x) < r of the difference quotient |f(u)-f(x)|/d(u,x)."""
    return _scan(f, x, r, "big_below")


def little_lip_below_r(f: SampledMap, x, r: float) -> float:
    """Exact infimum of lip_upper over scales in (d_1, r).

    d_1 is the nearest-neighbor distance of x; scales below d_1 carry no
    sample information and would collapse the infimum to 0, so they are
    excluded.  Returns 0 when x has no neighbor within r (unresolved).
    """
    return _scan(f, x, r, "little_below")


def nearest_scale_infimum(f: SampledMap, x, r: float) -> float:
    """min over distinct neighbor distances d_k < r of M_k / d_k, where M_k is
    the max value increment over the closed ball of radius d_k.

    This is the profile's little-derivative estimate: unlike the exact sampled
    infimum it evaluates each scale at its attained neighbor distance, so it
    converges to |f'| on uniform samples of C1 functions.  Returns 0 when x
    has no neighbor within r.
    """
    return _scan(f, x, r, "nearest_scale_inf")


def loc_lip_r(f: SampledMap, x, r: float) -> float:
    """Lipschitz constant of f restricted to the open ball B(x, r): one
    ``_loc_table`` centre."""
    return float(_loc_table(f, [f.domain.index(x)], _one_radius(r))[0, 0])


def _loc_radii(f: SampledMap, i: int, radii: np.ndarray) -> np.ndarray:
    """``loc_lip_r`` of point index ``i`` at each of the positive ``radii``
    from one ``dist_row`` and one ``_pair_sup`` triangle per radius: the
    part of the largest ball below a radius holds the ascending indices
    that ``ball_indices(i, r)`` gives.  ``scale_profile`` reads it on
    lines."""
    d = f.domain.dist_row(i)
    ball = np.flatnonzero(d < radii.max())
    return np.array([_pair_sup(f, ball[d[ball] < r]) for r in radii.tolist()])


def _quotients(V: np.ndarray, D: np.ndarray) -> np.ndarray:
    """The pair quotients ``V / D`` of value distances and distances, in
    place in ``V``: 0 for a pair at distance 0, which has no quotient, inf
    for a quotient that overflows, without a warning, and NaN kept for
    inf / inf (both floats overflowed)."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        Q = np.divide(V, D, out=V)
    np.copyto(Q, 0.0, where=D == 0)
    return Q


def _quotient_rows(f: SampledMap, idx: np.ndarray):
    """Upper-triangle row blocks of the pair quotients of the points
    ``idx``: yields ``(s, Q)`` where ``Q[a, b]`` is the ``_quotients``
    entry of the pair ``(idx[s + a], idx[s + b])`` for ``b > a``, and 0
    elsewhere.  Rows ``idx[s:s + step]`` meet the columns ``idx[s:]``, so
    each pair is computed once, and two arrays of a block's shape fit in
    ``BLOCK_ELEMS`` (one row when a row alone exceeds it)."""
    m = idx.size
    step = max(1, min(128, BLOCK_ELEMS // (2 * max(m, 1))))
    for s in range(0, m - 1, step):
        rows, cols = idx[s:s + step], idx[s:]
        Q = _quotients(f.value_cross(rows, cols), f.domain.cross(rows, cols))
        np.copyto(Q, 0.0, where=np.tri(rows.size, cols.size, dtype=bool))
        yield s, Q


def _pair_sup(f: SampledMap, idx) -> float:
    # np.maximum keeps a NaN quotient (inf / inf, both floats overflowed),
    # whichever block holds it, as the 1-d band and ``_loc_table`` do
    best = 0.0
    for _, Q in _quotient_rows(f, np.asarray(idx, dtype=int)):
        best = np.maximum(best, Q.max())
    return float(best)


def _cell_pair_max(f: SampledMap, pts, cell, a, b, level, m):
    """``m`` maxima of the quotients over the pairs of points ``pts``
    (ascending by their ``cell``) with one point in cell ``a[k]`` and one
    in cell ``b[k]`` for some k, pairs at distance 0 left out (0 over no
    pair): the pair of positions u and v in ``pts`` counts in the first
    ``min(level[u], level[v])`` of them.  The pairs go in blocks of at most
    ``BLOCK_ELEMS`` elements per array."""
    sp = f.domain
    sa = np.searchsorted(cell, a)
    na = np.searchsorted(cell, a, side="right") - sa
    sb = np.searchsorted(cell, b)
    nb = np.searchsorted(cell, b, side="right") - sb
    size = na * nb
    ends = np.cumsum(size)
    width = max(sp.coords.shape[1], f._vectors.shape[1])
    step = max(1, BLOCK_ELEMS // width)
    best = np.zeros(m)
    for k0 in range(0, int(ends[-1]), step):
        k = np.arange(k0, min(k0 + step, int(ends[-1])))
        pair = np.searchsorted(ends, k, side="right")
        local = k - (ends[pair] - size[pair])
        u = sa[pair] + local // nb[pair]
        v = sb[pair] + local % nb[pair]
        both = np.minimum(level[u], level[v])
        u, v = pts[u], pts[v]
        Q = _quotients(f.value_pairs(u, v), sp.pair_dist(u, v))
        for j in range(m):
            best[j] = np.maximum(best[j], np.max(Q, where=both > j,
                                                 initial=0.0))
    return best


def _shared_table(f: SampledMap, centres, free, radii, out):
    """Among the point indices ``centres[k]`` with ``free[k]``, find those
    whose balls of radius ``max(radii)`` exceed ``isqrt(BLOCK_ELEMS)``
    points, and join the balls that share a point into clusters.  For each
    cluster of two or more balls, fill the ``_loc_table`` rows ``out[k]``
    of every free centre whose ball lies in the union of the cluster from
    one table T of cell-pair maxima over that union (see ``_loc_table``).
    Returns the mask of the rows filled."""
    sp = f.domain
    reach = float(radii.max())
    cap = isqrt(BLOCK_ELEMS)
    clusters = []       # (union of the balls, number of balls); disjoint
    for c in centres[free].tolist():
        shared = sp.dist_row(c) < reach
        if np.count_nonzero(shared) <= cap:
            continue
        balls = 1
        for j in reversed([j for j, (u, _) in enumerate(clusters)
                           if np.any(u & shared)]):
            u, m = clusters.pop(j)
            shared |= u
            balls += m
        clusters.append((shared, balls))
    filled = np.zeros(len(centres), dtype=bool)
    for shared, balls in clusters:
        if balls > 1:
            _table_rows(f, centres, free, shared, radii, out, filled)
    return filled


def _table_rows(f: SampledMap, centres, free, shared, radii, out, filled):
    """Fill ``out[k]`` and set ``filled[k]`` for every free centre whose
    ball of radius ``max(radii)`` lies in the points of the mask
    ``shared``, from one table of cell-pair maxima over those points."""
    sp = f.domain
    reach = float(radii.max())
    union = np.flatnonzero(shared)
    cell = sp.grid_cells(union, 0.2 * reach, isqrt(BLOCK_ELEMS))
    by_cell = np.argsort(cell, kind="stable")
    U, cell = union[by_cell], cell[by_cell]
    starts = np.flatnonzero(np.diff(cell, prepend=-1))
    T = np.zeros((starts.size, starts.size))
    for s, Q in _quotient_rows(f, U):
        # row cells of the block, then column cells from s on
        rc, cc = cell[s:s + Q.shape[0]], cell[s:]
        rb = np.flatnonzero(np.diff(rc, prepend=-1))
        cb = np.flatnonzero(np.diff(cc, prepend=-1))
        M = np.maximum.reduceat(np.maximum.reduceat(Q, cb, axis=1), rb, axis=0)
        at = np.ix_(rc[rb], cc[cb])
        T[at] = np.maximum(T[at], M)
    T = np.maximum(T, T.T)
    # radii from the largest: a cell or a point inside the balls of the
    # first m of them has level m
    order = np.argsort(-radii, kind="stable")
    desc = radii[order]
    # a ball holds its centre, so only the centres in the union can lie in it
    for k in np.flatnonzero(free & shared[centres]):
        row = sp.dist_row(centres[k])
        if np.any((row < reach) & ~shared):
            continue
        filled[k] = True
        d = row[U]
        near = np.minimum.reduceat(d, starts)
        far = np.maximum.reduceat(d, starts)
        # the cells that meet this centre's largest ball, and their table
        cells = np.flatnonzero(near < reach)
        Tc = T[np.ix_(cells, cells)]
        inside = np.searchsorted(-desc, -far[cells])
        meets = np.searchsorted(-desc, -near[cells])
        both_in = np.minimum.outer(inside, inside)
        both_meet = np.minimum.outer(meets, meets)
        top = np.zeros(desc.size)
        read = np.zeros(Tc.shape, dtype=bool)
        for j in range(desc.size):
            top[j] = np.max(Tc, where=both_in > j, initial=0.0)
            read |= (both_meet > j) & (both_in <= j) & ~(Tc <= top[j])
        if read.any():
            a, b = np.nonzero(np.triu(read))
            ball = d < reach
            level = np.searchsorted(-desc, -d[ball])
            top = np.maximum(top, _cell_pair_max(
                f, U[ball], cell[ball], cells[a], cells[b], level, desc.size))
        out[k, order] = top


def _loc_table(f: SampledMap, idx, radii: np.ndarray) -> np.ndarray:
    """``loc_lip_r(f, x_i, r)`` at the point indices ``i`` of ``idx``
    (repeats allowed) and each of the positive ``radii``, as an
    ``(idx, radii)`` array.

    Centres go in groups whose balls of radius the reach ``max(radii)``
    overlap.  The first centre not yet in a group is the seed; the other
    free centres within twice the reach of it join, nearest to the seed
    first, while the union U of the group's balls holds at most
    ``isqrt(BLOCK_ELEMS)`` points.  The seed always joins, so one ball
    alone may exceed that.  U is sorted by distance to the seed and its
    ``_quotient_rows`` are computed once.  A centre's ball, in its own
    distance order, is a list P of positions in U, and its ball of radius r
    is the first c of them, c the count of distances below r: its pair
    supremum is the largest entry of ``Q[P[:c]][:, P[:c]]``, which holds
    every pair of that ball in both orientations, one of them as its
    quotient and the other as 0 (0 for c < 2).  The seed's P is the start
    of U, so it reads the row blocks as they come.  The other members read
    the stored U x U array Q, which a group of one never builds, made
    symmetric once as ``Q + Q.T``, with the row bounds ``Q.max(axis=1)``
    over all of U.  A member's ball of the largest radius is all of P: it
    reads the row of P with the largest bound, restricted to P, and then
    one gather of the rows of P whose bound is not at most that maximum.
    Its smaller balls come from one gather of the longest prefix of P that
    a smaller ball holds.

    On a space with coordinates, the first seed whose ball alone exceeds
    the cap makes the call look, with one ``dist_row`` per centre, for
    the other centres not yet read whose balls do, and join those balls
    that share a point into clusters (``_shared_table``).  The centres of
    a cluster of two or more balls, and every other centre not yet read
    whose ball lies in the cluster's union, are read from one shared table
    of that union; calls whose balls fit the groups never look.  The
    union is bucketed into grid cells (``grid_cells``: the side
    is a fifth of the reach, coarser when more than ``isqrt(BLOCK_ELEMS)``
    cells meet the balls), and T[A, B] is the largest quotient over every
    pair of points with one in cell A and one in cell B, from the
    ``_quotient_rows`` of the union sorted by cell (0 over no pair; a pair
    at distance 0 gives 0).  For a centre and a radius r, a cell whose
    largest ``dist_row`` float from the centre is below r lies inside the
    ball, and L, the largest T over pairs of inside cells, is the quotient
    of a pair of the ball.  The other pairs of the ball lie in cell pairs
    that meet the ball and have a cell not inside; of these, the cell
    pairs with ``~(T <= L)`` at some radius are read point by point, once
    for all radii (``_cell_pair_max``), and a pair counts at the radii
    whose ball holds both its points.  The other centres form groups as
    above.  A ball alone in its cluster and a one-point query never build
    the table, nor does a distance table, which has no coordinates to
    bucket.  Q, T, a gather and a block of point pairs hold at most
    ``BLOCK_ELEMS`` elements each.

    Why this is exact: a pair has one ``_quotients`` float on every path
    (see ``_dist``; tables are symmetric by construction), every ball is
    the set ``ball_indices`` gives from the same ``dist_row`` floats, and
    max does not depend on order; it keeps a NaN quotient on every path, as
    ``_pair_sup`` does.  ``Q + Q.T`` adds 0 to each quotient, which leaves
    a finite float, inf and NaN as they are.  A row's bound is a maximum over a superset of the row's
    entries in P, so a row whose bound is at most a maximum already read
    holds nothing larger there; a NaN in the row makes its bound NaN, and
    ``NaN <= x`` is false, so that row is read and the NaN kept.

    The shared table is exact for the same reasons.  T[A, B] takes every
    pair of its two cells, none dropped by a distance threshold such as
    twice the reach (computed distances need not obey the triangle
    inequality), so it bounds every pair between A and B, and a cell pair
    with ``T <= L`` holds nothing above L.  A NaN quotient
    makes its T NaN: L is NaN when both its cells are inside, and
    otherwise ``NaN <= L`` is false, so its cell pair is read and the NaN
    kept.  Each pair read counts only at the radii whose ball holds both
    its points, by the same ``dist_row`` floats, and every pair of a ball
    that is neither under L nor in a cell pair with ``T <= L`` lies in a
    cell pair read at that radius.
    """
    sp = f.domain
    centres, inverse = np.unique(np.asarray(idx, dtype=int),
                                 return_inverse=True)
    out = np.zeros((centres.size, radii.size))
    reach = float(radii.max())
    cap = isqrt(BLOCK_ELEMS)
    free = np.ones(centres.size, dtype=bool)
    # the shared table is looked for once, at the first oversized seed
    look = sp.table is None and centres.size > 1
    pos = np.empty(sp.n, dtype=np.intp)
    for seed in range(centres.size):
        if not free[seed]:
            continue
        d0 = sp.dist_row(centres[seed])
        union = d0 < reach
        oversized = np.count_nonzero(union) > cap
        if look and oversized:
            look = False
            free &= ~_shared_table(f, centres, free, radii, out)
            if not free[seed]:
                continue
        free[seed] = False
        group = []
        if not oversized:
            near = np.flatnonzero(free & (d0[centres] < 2 * reach))
            for k in near[np.argsort(d0[centres[near]], kind="stable")]:
                d = sp.dist_row(centres[k])
                inside = d < reach
                both = union | inside
                if np.count_nonzero(both) > cap:
                    break
                union = both
                free[k] = False
                # the ball in its own distance order, and those distances
                ball = np.flatnonzero(inside)
                ball = ball[np.argsort(d[ball], kind="stable")]
                group.append((k, ball, d[ball]))
        U = np.flatnonzero(union)
        U = U[np.argsort(d0[U], kind="stable")]
        pos[U] = np.arange(U.size)
        Q = np.zeros((U.size, U.size)) if group else None
        counts = np.searchsorted(d0[U], radii).tolist()
        for s, block in _quotient_rows(f, U):
            if Q is not None:
                Q[s:s + block.shape[0], s:] = block
            for j, c in enumerate(counts):
                if c - s >= 2:
                    out[seed, j] = np.maximum(out[seed, j],
                                              block[:c - s, :c - s].max())
        if group:
            # each pair holds its quotient in one orientation and 0 in the
            # other, so the sum is exact
            Q += Q.T
            bound = Q.max(axis=1)
        for k, ball, d in group:
            P = pos[ball]
            counts = np.searchsorted(d, radii)
            # the whole ball: the row with the largest bound, then the rows
            # whose bound is not at most that (a NaN bound is always read)
            ub = bound[P]
            top = Q[P[np.argmax(ub)], P].max()
            rest = P[~(ub <= top)]
            if rest.size:
                top = np.maximum(top, Q[rest][:, P].max())
            c2 = counts.max(initial=0, where=counts < P.size)
            M = Q[P[:c2]][:, P[:c2]]
            out[k] = [top if c == P.size else M[:c, :c].max() if c >= 2
                      else 0.0 for c in counts.tolist()]
    return out[inverse]


def loc_field(f: SampledMap, r: float, idx=None) -> np.ndarray:
    """``loc_lip_r(f, x_i, r)`` at the point indices ``i`` of ``idx``, in
    the order given, repeats allowed (every point, in index order, by
    default).

    On a ``line_order`` domain the open balls are windows of sorted
    positions.  ``Q[s, k]`` is the quotient of the pair at sorted positions
    s and s + k, pairs at distance 0 left out; ``R`` is its running
    maximum along k.  The pairs of the window [lo, hi) are the triangle
    lo <= s < t <= e = hi - 1, and their maximum is the maximum over s of
    ``R[s, e - s]``.  Max is exact, so every value equals ``_pair_sup`` over
    the same ball.  Windows are found for the requested points only, and
    only the band rows s that some window reads (lo <= s < hi - 1) are
    built.  Those rows are taken in blocks of ``BLOCK_ELEMS // (8 width)``,
    and each point reads the rows of a block that its window meets: a band
    block then holds at most 1/8 of ``BLOCK_ELEMS`` elements and a gather
    block at most 3/4 (3/8 over every point; windows wider than
    ``BLOCK_ELEMS / 8`` get one band row per block).  Other domains read
    the one-radius ``_loc_table``, one quotient block per group of nearby
    centres.
    """
    radii = _one_radius(r)
    sp = f.domain
    n = sp.n
    idx = np.arange(n) if idx is None else np.asarray(idx, dtype=int)
    order = sp.line_order
    if order is None:
        return _loc_table(f, idx, radii)[:, 0]
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
    k = np.arange(1, width)
    step = max(1, BLOCK_ELEMS // (8 * width))
    span = min(step, width - 1)
    for c0 in range(0, rows.size, step):
        s = rows[c0:c0 + step, None]
        c1 = c0 + s.shape[0]
        t = s + k
        past = t >= n
        np.minimum(t, n - 1, out=t)
        Q = _quotients(f.value_pairs(order[s], order[t]), sp.line_dist(s, t))
        Q[past] = 0.0
        R = np.maximum.accumulate(Q, axis=1)
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


def lip_norm(f: SampledMap) -> float:
    """Supremum of difference quotients over all pairs of distinct points:
    ``_pair_sup`` over every point."""
    return _pair_sup(f, np.arange(f.domain.n))


def point_scale_values(f: SampledMap, x, radii) -> dict:
    """All five scale functionals of one point on an array of radii."""
    radii, i = _positive(radii), f.domain.index(x)
    cols = scan_field(f, radii, [i])
    cols["loc"] = _loc_table(f, [i], radii)
    return {k: cols[k][0] for k in PROFILE_COLUMNS}


@dataclass
class PointSummary:
    point: object
    lip_hat: float
    big_hat: float
    loc_hat: float
    unresolved: bool
    divergent: bool


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


def _point_indices(f: SampledMap, points):
    """The points (every id by default) and their indices."""
    if points is None:
        points = list(f.domain.ids)
    return list(points), np.array([f.domain.index(x) for x in points],
                                  dtype=int)


def _summaries(points, grid: RadiusGrid, scan, loc_hat) -> list:
    """The limit estimates of every point from its ``scan_field`` readings
    and its local functional ``loc_hat[p]`` at the smallest radius whose
    ball holds a neighbour (0 where there is none)."""
    radii = grid.radii
    tail = slice(radii.size - grid.tail_window, None)
    series = scan["nearest_scale_inf"][:, tail]
    # divergence: the little estimates along the tail keep growing as the
    # radius shrinks and more than double overall (radii shrink along the
    # array, so growth toward small scales means a nondecreasing series)
    divergent = ((series[:, -1] > 0)
                 & np.all(np.diff(series, axis=1) >= 0, axis=1)
                 & (series[:, -1] > DIVERGENCE_FACTOR * series[:, 0]))
    unresolved = scan["d1"] >= radii[-1]
    return [PointSummary(
        x, float(series[p, -1]), float(scan["big_below"][p, -1]),
        float(loc_hat[p]), bool(unresolved[p]), bool(divergent[p]))
        for p, x in enumerate(points)]


def _columns(f: SampledMap, radii: np.ndarray, idx: np.ndarray,
             seconds: dict) -> dict:
    """The ``scan_field`` readings of the points ``idx`` and their ``loc``
    table under ``"loc"``; ``seconds`` gets the wall times of the
    ``"scan"`` and the ``"loc"`` stage."""
    t0 = time.perf_counter()
    cols = scan_field(f, radii, idx)
    t1 = time.perf_counter()
    if f.domain.line_order is None:
        cols["loc"] = _loc_table(f, idx, radii)
    else:
        # lines keep one triangle per point and radius, in process, until
        # the benchmark reads each job's own peak memory (ROADMAP item 1):
        # a faster line profile runs more jobs, and its inherited peak
        # reads higher.  The 1-d band of ROADMAP item 2 then replaces this
        cols["loc"] = np.reshape(
            [_loc_radii(f, i, radii) for i in idx.tolist()],
            (idx.size, radii.size))
    seconds.update(scan=t1 - t0, loc=time.perf_counter() - t1)
    return cols


def scale_profile(f: SampledMap, grid: RadiusGrid, points=None,
                  seconds=None) -> ScaleProfile:
    """Evaluate all scale functionals on the radius grid.

    Limit estimates per point: the big estimate is the exact big functional at
    the smallest radius, the little estimate is the nearest-scale infimum at
    the smallest radius, and the local estimate is the local functional at the
    smallest radius whose ball is resolved (contains a neighbor).

    The scan columns come from one ``scan_field`` over the points.  The
    ``loc`` column comes from one ``_loc_table`` over the points, which
    computes the pair quotients of a neighbourhood of centres once for all
    of them, or, on a ``line_order`` domain, from one ``_loc_radii`` per
    point.  A ``seconds`` dict gets the wall times of the ``"scan"`` and
    the ``"loc"`` stage.

    No float depends on which other points are in ``points``: every scan
    value is read from its own point's row, whichever rows share a block,
    and each centre's ``loc`` is exact whatever other centres share its
    group (see ``_loc_table``).  So the profiles of slabs of the points
    are, row for row, the profile of all of them.
    """
    points, idx = _point_indices(f, points)
    radii = grid.radii
    cols = _columns(f, radii, idx, {} if seconds is None else seconds)
    resolved = _resolved(cols["d1"], radii)
    loc_hat = np.where(resolved >= 0,
                       cols["loc"][np.arange(idx.size), resolved], 0.0)
    return ScaleProfile(points, radii, {k: cols[k] for k in PROFILE_COLUMNS},
                        _summaries(points, grid, cols, loc_hat))


def scale_summaries(f: SampledMap, grid: RadiusGrid, points=None,
                    seconds=None) -> list:
    """The ``PointSummary`` list of ``scale_profile``, without its table.

    One ``scan_field`` over the points, reaching the largest radius, and one
    ``loc_field`` per distinct smallest resolved radius, over the points
    resolved there.  A ``seconds`` dict gets the wall times of the
    ``"scan"`` and the ``"loc"`` stage.
    """
    t0 = time.perf_counter()
    points, idx = _point_indices(f, points)
    scan = scan_field(f, grid.radii, idx)
    resolved = _resolved(scan["d1"], grid.radii)
    t1 = time.perf_counter()
    loc_hat = np.zeros(idx.size)
    for k in np.unique(resolved[resolved >= 0]):
        at = np.flatnonzero(resolved == k)
        loc_hat[at] = loc_field(f, float(grid.radii[k]), idx[at])
    if seconds is not None:
        seconds.update(scan=t1 - t0, loc=time.perf_counter() - t1)
    return _summaries(points, grid, scan, loc_hat)
