"""Whole-field ball kernels against their definitions.

``ball_rows`` gives the balls of many points at once; ``scan_field``, the
envelopes, the defects and the nearest-neighbour pass read it, and
``line_windows`` and ``loc_field`` read balls on one-coordinate domains as
windows of the sorted coordinate; ``lip_norm`` and ``diameter`` take the
pair extremes from row blocks of all pairs.  Each must give
exactly (``==``) what the per-point computation over full distance rows
gives, written out here loop by loop or, for the scan, evaluated by
definition (``test_point_kernel.assert_scan_row_is_definition``).
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lipderiv import (FiniteMetricSpace, RadiusGrid, SampledMap, ScalarField,
                      baire_lower, baire_upper, lip_norm, loc_field, loc_lip_r,
                      lsc_defect, scale_profile, scale_summaries, scan_field,
                      usc_defect)
from lipderiv import metric, scales
from lipderiv.harness import _cell_oscillation
from lipderiv.metric import BLOCK_ELEMS
from test_point_kernel import assert_scan_row_is_definition

NORMS = (1.0, 2.0, np.inf)

#: coordinates on a quarter lattice (ties, equidistant neighbours, radii
#: equal to sample distances), free floats, and gaps that square to 0
COORD = st.one_of(st.integers(-8, 8).map(lambda k: k / 4.0),
                  st.floats(-2.0, 2.0, allow_nan=False),
                  st.sampled_from([1e-170, 2e-170, -3e-170]))


#: coordinates whose differences (and squares) overflow to inf
HUGE = st.sampled_from([1e200, -1e200, 1.5e308, -1.5e308])


@st.composite
def line_spaces(draw, max_size=12, coord=COORD):
    coords = draw(st.lists(coord, min_size=1, max_size=max_size))
    n = len(coords)
    # ids in an order unrelated to the coordinate
    ids = draw(st.permutations([f"p{k}" for k in range(n)]))
    p = draw(st.sampled_from(NORMS))
    return FiniteMetricSpace(ids, coords=np.array(coords)[:, None], p=p)


def radius(draw, space):
    """A sample distance, a free radius, or one above the diameter."""
    d = np.concatenate([space.dist_row(i) for i in range(space.n)])
    choices = [float(v) for v in d if v > 0]
    kind = draw(st.sampled_from(("sample", "free", "huge")))
    if kind == "sample" and choices:
        return draw(st.sampled_from(choices))
    if kind == "huge":
        return 2.0 * space.diameter() + 1.0
    return draw(st.floats(1e-3, 5.0))


def map_on(draw, space):
    """Scalar values or vector values."""
    n = space.n
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        return SampledMap.real(space, rng.integers(-3, 4, n) * 0.5)
    return SampledMap.vector(space, rng.standard_normal((n, 3)),
                             p=draw(st.sampled_from(NORMS)))


@st.composite
def maps(draw):
    space = draw(line_spaces())
    return map_on(draw, space), radius(draw, space)


def windows_by_definition(space, r, closed):
    order = space.line_order
    balls = []
    for i in order:
        d = space.dist_row(i)[order]
        balls.append(np.flatnonzero(d <= r if closed else d < r))
    return balls


@given(line_spaces(), st.data())
@settings(max_examples=200, deadline=None)
def test_windows_are_the_balls(space, data):
    r = radius(data.draw, space)
    for closed in (False, True):
        lo, hi = space.line_windows(r, closed=closed)
        for a, ball in enumerate(windows_by_definition(space, r, closed)):
            assert np.array_equal(np.arange(lo[a], hi[a]), ball)
    lo, hi = space.line_windows(0.0, closed=True)
    for a, ball in enumerate(windows_by_definition(space, 0.0, True)):
        assert np.array_equal(np.arange(lo[a], hi[a]), ball)


@given(line_spaces(max_size=16), st.data())
@settings(max_examples=150, deadline=None)
def test_windows_at_positions_with_their_own_radii(space, data):
    # per-position radii: 0, sample distances (1e-170 gaps and the 0 of
    # coincident points among them), free radii and one above the diameter
    order = space.line_order
    rows = {a: space.dist_row(order[a])[order] for a in range(space.n)}
    radii = st.one_of(st.just(0.0), st.sampled_from(
        np.concatenate(list(rows.values())).tolist()),
        st.floats(1e-3, 5.0), st.just(2.0 * space.diameter() + 1.0))
    at = np.array(data.draw(st.lists(st.integers(0, space.n - 1),
                                     max_size=space.n)), dtype=np.intp)
    r = np.array([data.draw(radii) for _ in at])
    for closed in (False, True):
        lo, hi = space.line_windows(r, closed=closed, at=at)
        for k, a in enumerate(at.tolist()):
            d = rows[a]
            ball = np.flatnonzero(d <= r[k] if closed else d < r[k])
            assert np.array_equal(np.arange(lo[k], hi[k]), ball), (a, r[k])


@st.composite
def any_spaces(draw, max_size=10):
    """A line, a plane, a table of plane distances or a table of line
    distances, on points from ``COORD`` (coincident points and 1e-170 gaps
    among them)."""
    coords = np.array(draw(st.lists(st.tuples(COORD, COORD), min_size=1,
                                    max_size=max_size)))
    n = coords.shape[0]
    p = draw(st.sampled_from(NORMS))
    kind = draw(st.sampled_from(("line", "plane", "table", "line_table")))
    if kind in ("line", "line_table"):
        coords = coords[:, :1]
    space = FiniteMetricSpace(range(n), coords=coords, p=p)
    if kind in ("line", "plane"):
        return space
    return FiniteMetricSpace(
        range(n), table=np.vstack([space.dist_row(i) for i in range(n)]))


def assert_ball_rows_are_balls(space, r, idx, closed, punctured):
    points = np.arange(space.n) if idx is None else np.asarray(idx, int)
    radii = np.broadcast_to(r, points.shape)
    covered = []
    for rows, cols, D, valid in space.ball_rows(r, idx, closed, punctured):
        assert cols.shape == D.shape == valid.shape and cols.shape[1] >= 1
        covered.extend(range(points.size)[rows])
        for k, i in enumerate(points[rows]):
            m = int(np.count_nonzero(valid[k]))
            assert valid[k, :m].all()
            ball = space.ball_indices(i, radii[rows][k], closed=closed)
            if punctured:
                ball = ball[space.dist_row(i)[ball] > 0]
            assert sorted(cols[k, :m].tolist()) == ball.tolist()
            assert D[k, :m].tolist() == space.dist_row(i)[cols[k, :m]].tolist()
    assert covered == list(range(points.size))


@given(any_spaces(), st.booleans(), st.booleans(), st.booleans(),
       st.booleans(), st.data())
@settings(max_examples=400, deadline=None)
def test_ball_rows_are_ball_indices(space, closed, punctured, per_point,
                                    subset, data):
    idx = None
    if subset:
        idx = data.draw(st.lists(st.integers(0, space.n - 1),
                                 max_size=2 * space.n))
    size = space.n if idx is None else len(idx)
    if per_point:
        r = np.array([radius(data.draw, space) for _ in range(size)])
    else:
        r = radius(data.draw, space)
    assert_ball_rows_are_balls(space, r, idx, closed, punctured)


def test_ball_rows_blocks_stay_within_budget(monkeypatch):
    rng = np.random.default_rng(9)
    xs = rng.permutation(np.sort(rng.random(1500)))
    xs[:40] = xs[40:80]                               # coincident points
    line = FiniteMetricSpace(range(1500), coords=xs[:, None])
    plane = FiniteMetricSpace(range(700), coords=rng.random((700, 2)))
    budget = {}
    blocks = []
    ball_rows, cross = FiniteMetricSpace.ball_rows, FiniteMetricSpace.cross

    def spy_rows(self, *args, cost=3, **kwargs):
        budget["cost"] = cost
        for block in ball_rows(self, *args, cost=cost, **kwargs):
            cols = block[1]
            blocks.append(cost)
            assert cols.shape[0] == 1 or cols.size * cost <= BLOCK_ELEMS
            yield block

    def spy_cross(self, rows, cols):
        assert len(rows) == 1 or len(rows) * len(cols) * budget["cost"] <= (
            BLOCK_ELEMS)
        return cross(self, rows, cols)

    monkeypatch.setattr(FiniteMetricSpace, "ball_rows", spy_rows)
    monkeypatch.setattr(FiniteMetricSpace, "cross", spy_cross)
    for space, r in ((line, 0.2), (plane, 0.3)):
        x = space.coords[:, 0]
        g = ScalarField(space, np.sin(9.0 * x))
        # (cost, fewest blocks, run); a line's nearest-neighbour rows hold
        # a few entries and fit in one block
        runs = (
            (8, 2, lambda: scan_field(SampledMap.real(space, g.values), [r])),
            (24, 2, lambda: scan_field(SampledMap.vector(
                space, np.column_stack([x, x * x, g.values])), [r, r / 4])),
            (3, 2, lambda: baire_upper(g, r)),
            (3, 2, lambda: usc_defect(g, r)),
            (3, 1 if space is line else 2, space.nearest_neighbors),
        )
        for cost, fewest, run in runs:
            blocks.clear()
            run()
            assert len(blocks) >= fewest
            assert set(blocks) == {cost}


@st.composite
def loc_requests(draw):
    """A map, a radius and every point (None) or point indices: unsorted,
    repeated or none."""
    f, r = draw(maps())
    idx = draw(st.none() | st.lists(st.integers(0, f.domain.n - 1),
                                    max_size=2 * f.domain.n))
    return f, r, idx


@given(loc_requests())
@settings(max_examples=400, deadline=None)
def test_loc_field_equals_per_point_loc(case):
    f, r, idx = case
    points = range(f.domain.n) if idx is None else idx
    expected = [loc_lip_r(f, f.domain.ids[i], r) for i in points]
    assert loc_field(f, r, idx).tolist() == expected


@pytest.mark.parametrize("n", [1, 2])
def test_loc_field_on_one_and_two_points(n):
    space = FiniteMetricSpace(range(n), coords=np.arange(n, 0, -1.0)[:, None])
    f = SampledMap.real(space, np.arange(n) * 3.0)
    for r in (0.5, 1.0, 1.5, 10.0):
        assert loc_field(f, r).tolist() == [loc_lip_r(f, x, r)
                                            for x in space.ids]


def test_loc_field_band_over_several_blocks():
    # windows of ~600 points cut the band into row blocks of
    # BLOCK_ELEMS // (8 * width) rows; the steepest pair sits on a block edge
    rng = np.random.default_rng(5)
    xs = rng.permutation(np.sort(rng.random(1500)))
    vals = np.sin(9.0 * xs)
    space = FiniteMetricSpace(range(1500), coords=xs[:, None])
    lo, hi = space.line_windows(0.2)
    width = int(np.max(hi - lo))
    step = BLOCK_ELEMS // (8 * width)
    assert 1500 // step >= 5
    ranked = np.sort(xs)
    edge = ranked[2 * step - 1], ranked[2 * step]
    vals[xs == edge[1]] += 0.5
    f = SampledMap.real(space, vals)
    got = loc_field(f, 0.2)
    probe = set(range(0, 1500, 37)) | {int(np.flatnonzero(xs == edge[0])[0])}
    for i in sorted(probe):
        assert got[i] == loc_lip_r(f, i, 0.2), i
    up = baire_upper(ScalarField(space, vals), 0.2)
    for i in sorted(probe):
        assert up.values[i] == np.max(vals[space.dist_row(i) < 0.2])


def test_loc_field_fallback_on_tables_and_planes():
    rng = np.random.default_rng(2)
    coords = rng.random((30, 2))
    coords[7] = coords[3]
    plane = FiniteMetricSpace(range(30), coords=coords)
    d = np.vstack([plane.dist_row(i) for i in range(30)])
    table = FiniteMetricSpace(range(30), table=d)
    line_table = FiniteMetricSpace(
        range(30), table=np.abs(coords[:, :1] - coords[:, 0]))
    for space in (plane, table, line_table):
        assert space.line_order is None
        f = SampledMap.real(space, rng.standard_normal(30))
        for r in (0.1, 0.4, 3.0):
            assert loc_field(f, r).tolist() == [loc_lip_r(f, x, r)
                                                for x in space.ids]
            for idx in ([29, 7, 3, 3, 0], []):
                assert loc_field(f, r, idx).tolist() == [loc_lip_r(f, i, r)
                                                         for i in idx]


def test_loc_field_at_points_over_several_blocks():
    # scattered requested points leave gaps in the band rows; the rows that
    # are built span several blocks
    rng = np.random.default_rng(4)
    xs = rng.permutation(np.sort(rng.random(1500)))
    xs[:40] = xs[40:80]                               # coincident points
    space = FiniteMetricSpace(range(1500), coords=xs[:, None])
    f = SampledMap.real(space, np.sin(9.0 * xs))
    lo, hi = space.line_windows(0.2)
    assert 1500 // (BLOCK_ELEMS // (8 * int(np.max(hi - lo)))) >= 5
    for idx in ([1400, 3, 3, 700, 41, 81, 1400], list(range(1499, 0, -97)),
                list(range(0, 1500, 3)), []):
        assert loc_field(f, 0.2, idx).tolist() == [loc_lip_r(f, i, 0.2)
                                                   for i in idx]
        assert loc_field(f, 0.01, idx).tolist() == [loc_lip_r(f, i, 0.01)
                                                    for i in idx]


def pair_extremes(f):
    """``(lip_norm, diameter, resolution)`` as the library gives them."""
    return lip_norm(f), f.domain.diameter(), f.domain.resolution()


def pair_extremes_by_rows(f):
    """``(lip_norm, diameter, resolution)`` row by row over full rows; the
    quotients of row i over the columns j > i, so each pair is taken once,
    lower index as the row."""
    n = f.domain.n
    norm, diam, resolution = 0.0, 0.0, np.inf
    for i in range(n):
        d = f.domain.dist_row(i)
        dv = f.value_dist_from(i)
        diam = max(diam, float(np.max(d)))
        pos = d > 0
        if np.any(pos):
            resolution = min(resolution, float(np.min(d[pos])))
        later = pos & (np.arange(n) > i)
        if np.any(later):
            norm = max(norm, float(np.max(dv[later] / d[later])))
    return norm, diam, resolution


@given(any_spaces(), st.data())
@settings(max_examples=300, deadline=None)
def test_pair_extremes_equal_the_row_loop(space, data):
    f = map_on(data.draw, space)
    assert pair_extremes(f) == pair_extremes_by_rows(f)


@given(line_spaces())
@settings(max_examples=300, deadline=None)
def test_line_diameter_is_the_cross_maximum(space):
    # the first and last sorted points; coincident points and 1e-170 gaps
    # (distance 0 under p = 2) among them
    every = np.arange(space.n)
    assert space.line_order is not None
    assert space.diameter() == float(np.max(space.cross(every, every)))


@given(line_spaces(coord=COORD | HUGE))
@settings(max_examples=300, deadline=None)
def test_line_dist_is_the_distance_row(space):
    # in either order, bit for bit: coincident points, 1e-170 gaps
    # (distance 0 under p = 2) and distances that overflow to inf
    order, pos = space.line_order, np.arange(space.n)
    with np.errstate(over="ignore"):
        rows = np.array([space.dist_row(i)[order] for i in order])
        ab = space.line_dist(pos[:, None], pos)
        ba = space.line_dist(pos, pos[:, None])
        diameter = space.diameter()
    assert ab.tobytes() == rows.tobytes()
    assert ba.tobytes() == rows.tobytes()
    assert diameter == np.max(rows)


def test_pair_extremes_on_one_point():
    space = FiniteMetricSpace(["a"], coords=[[0.5]])
    for f in (SampledMap.real(space, [2.0]),
              SampledMap.vector(space, [[1.0, 2.0]], p=np.inf)):
        assert pair_extremes(f) == (0.0, 0.0, np.inf)
        assert pair_extremes(f) == pair_extremes_by_rows(f)


def budget_cloud(n):
    rng = np.random.default_rng(n)
    coords = rng.integers(0, 6, (n, 2)) * 0.5         # coincident points
    space = FiniteMetricSpace(range(n), coords=coords, p=1.0)
    return SampledMap.vector(space, rng.standard_normal((n, 2)))


def spy_cross(monkeypatch, arrays, budget):
    """Record the shape of every ``cross`` block and check that ``arrays``
    arrays of its shape fit in ``budget`` (or that it is one row)."""
    shapes = []
    cross = FiniteMetricSpace.cross

    def spy(self, rows, cols):
        shapes.append((len(rows), len(cols)))
        assert len(rows) == 1 or arrays * len(rows) * len(cols) <= budget
        return cross(self, rows, cols)

    monkeypatch.setattr(FiniteMetricSpace, "cross", spy)
    return shapes


@pytest.mark.parametrize("n, step", [(30, 2), (100, 1)])
def test_pair_extremes_blocks_stay_within_budget(monkeypatch, n, step):
    # four arrays of a block's shape within 256 elements: blocks of two
    # rows of 30 points, and one row per block when four rows of 100 points
    # alone exceed it
    monkeypatch.setattr(metric, "BLOCK_ELEMS", 256)
    f = budget_cloud(n)
    shapes = spy_cross(monkeypatch, 4, 256)
    got = f.domain.diameter()
    assert shapes == [(step, n)] * (n // step)
    monkeypatch.undo()
    assert got == pair_extremes_by_rows(f)[1]


@pytest.mark.parametrize("n, step", [(30, 4), (100, 1)])
def test_pair_sup_over_every_point_stays_within_budget(monkeypatch, n, step):
    # two arrays of a block's shape within 256 elements: upper-triangle
    # blocks of four rows of 30 points, and one row per block when two rows
    # of 100 points alone exceed it
    monkeypatch.setattr(scales, "BLOCK_ELEMS", 256)
    f = budget_cloud(n)
    shapes = spy_cross(monkeypatch, 2, 256)
    got = lip_norm(f)
    assert shapes == [(min(step, n - s), n - s)
                      for s in range(0, n - 1, step)]
    monkeypatch.undo()
    assert got == pair_extremes_by_rows(f)[0]


@given(any_spaces(), st.data())
@settings(max_examples=200, deadline=None)
def test_lip_norm_is_loc_over_a_ball_holding_every_point(space, data):
    f = map_on(data.draw, space)
    diam = space.diameter()
    r = data.draw(st.one_of(st.just(np.inf),
                            st.floats(1e-3, 5.0).map(lambda t: diam + t)))
    for x in space.ids:
        assert lip_norm(f) == loc_lip_r(f, x, r)


def assert_scan_field_is_definition(f, radii, idx=None):
    got = scan_field(f, radii, idx)
    points = range(f.domain.n) if idx is None else idx
    assert got["d1"].shape == (len(points),)
    for row, i in enumerate(points):
        assert_scan_row_is_definition(f, got, row, i, radii)


@st.composite
def scan_cases(draw):
    """A map on a line space, up to four radii (sample distances among
    them, so one of them may be the reach) and every point or a subset."""
    space = draw(line_spaces())
    radii = [radius(draw, space) for _ in range(draw(st.integers(1, 4)))]
    idx = None
    if draw(st.booleans()):
        idx = draw(st.lists(st.integers(0, space.n - 1), max_size=space.n))
    return map_on(draw, space), radii, idx


@given(scan_cases())
@settings(max_examples=400, deadline=None)
def test_scan_field_equals_definition(case):
    assert_scan_field_is_definition(*case)


@pytest.mark.parametrize("n", [1, 2])
def test_scan_field_on_one_and_two_points(n):
    space = FiniteMetricSpace(range(n), coords=np.arange(n, 0, -1.0)[:, None])
    f = SampledMap.real(space, np.arange(n) * 3.0)
    for radii in ([0.5], [1.0], [10.0, 1.0, 0.5]):
        assert_scan_field_is_definition(f, radii)


def test_scan_field_rows_over_several_blocks(monkeypatch):
    # windows of ~600 points give blocks of BLOCK_ELEMS // (8 * 600) rows,
    # and a third of that with three value coordinates
    rng = np.random.default_rng(6)
    xs = rng.permutation(np.sort(rng.random(1500)))
    xs[:40] = xs[40:80]                               # coincident points
    space = FiniteMetricSpace(range(1500), coords=xs[:, None])
    sizes = []
    read_rows = scales._read_rows

    def spy(D, V, *args):
        sizes.append(max(D.size, V.size))
        read_rows(D, V, *args)

    monkeypatch.setattr(scales, "_read_rows", spy)
    probe = sorted(set(range(0, 1500, 29)) | set(range(30, 45)))
    for f in (SampledMap.real(space, np.sin(9.0 * xs)),
              SampledMap.vector(space, np.column_stack(
                  [np.sin(9.0 * xs), xs, xs * xs]), p=1.0)):
        sizes.clear()
        radii = [0.2, 0.05, 0.0125]
        got = scan_field(f, radii)
        assert len(sizes) >= 5 and max(sizes) <= BLOCK_ELEMS
        for i in probe:
            assert_scan_row_is_definition(f, got, i, i, radii)


@pytest.mark.parametrize("cap", [64, 8])
def test_scan_field_one_row_blocks_and_wide_rows(monkeypatch, cap):
    # a cap of 64 leaves one row per block; at 8 the rows of up to 20
    # entries exceed it and still go one row per block
    monkeypatch.setattr(metric, "BLOCK_ELEMS", cap)
    blocks = []
    read_rows = scales._read_rows
    monkeypatch.setattr(scales, "_read_rows", lambda D, *args: (
        blocks.append(D.shape), read_rows(D, *args)))
    rng = np.random.default_rng(8)
    xs = rng.integers(0, 40, 60) / 4.0
    space = FiniteMetricSpace(range(60), coords=xs[:, None], p=np.inf)
    f = SampledMap.real(space, rng.standard_normal(60))
    assert_scan_field_is_definition(f, [2.5, 1.0, 0.25])
    assert_scan_field_is_definition(f, [2.5], idx=[59, 3, 3, 17])
    assert len(blocks) == 64 and {rows for rows, _ in blocks} == {1}


def test_scan_field_fallback_on_tables_and_planes():
    rng = np.random.default_rng(3)
    coords = rng.integers(0, 5, (30, 2)) * 0.25       # ties and coincidences
    plane = FiniteMetricSpace(range(30), coords=coords)
    d = np.vstack([plane.dist_row(i) for i in range(30)])
    table = FiniteMetricSpace(range(30), table=d)
    line_table = FiniteMetricSpace(
        range(30), table=np.abs(coords[:, :1] - coords[:, 0]))
    for space in (plane, table, line_table):
        assert space.line_order is None
        f = SampledMap.real(space, rng.standard_normal(30))
        assert_scan_field_is_definition(f, [1.5, 0.5, 0.25])
        assert_scan_field_is_definition(f, [0.5], idx=[4, 0])


@st.composite
def line_grids(draw):
    steps = draw(st.integers(1, 5))
    return RadiusGrid(draw(st.sampled_from([0.25, 0.5, 1.0, 4.0])),
                      draw(st.sampled_from([0.3, 0.5, 0.75])), steps,
                      draw(st.integers(1, steps)))


@given(line_spaces(), line_grids(), st.booleans(), st.data())
@settings(max_examples=200, deadline=None)
def test_summaries_equal_profile_summaries_on_lines(space, grid, subset,
                                                    data):
    f = map_on(data.draw, space)
    points = space.ids[::-2] if subset else None
    assert (scale_summaries(f, grid, points=points)
            == scale_profile(f, grid, points=points).summaries)


def reduce_by_definition(g, h, pick, punctured):
    """pick over the (punctured) open ball of each point; None when empty."""
    sp = g.space
    out = []
    for i in range(sp.n):
        d = sp.dist_row(i)
        members = [g.values[j] for j in range(sp.n)
                   if d[j] < h and (d[j] > 0 or not punctured)]
        out.append(pick(members) if members else None)
    return out


def envelopes_by_definition(g, h):
    up = reduce_by_definition(g, h, max, False)
    down = reduce_by_definition(g, h, min, False)
    sup = reduce_by_definition(g, h, max, True)
    inf = reduce_by_definition(g, h, min, True)

    def defect(gap):
        return 0.0 if gap is None or np.isnan(gap) else max(0.0, gap)

    with np.errstate(invalid="ignore"):
        return {
            baire_upper: [g.values[i] if v is None else v
                          for i, v in enumerate(up)],
            baire_lower: [g.values[i] if v is None else v
                          for i, v in enumerate(down)],
            usc_defect: [defect(None if v is None else v - g.values[i])
                         for i, v in enumerate(sup)],
            lsc_defect: [defect(None if v is None else g.values[i] - v)
                         for i, v in enumerate(inf)],
        }


def oscillation_by_definition(g):
    worst = 0.0
    for i in range(g.space.n):
        d = g.space.dist_row(i)
        pos = [j for j in range(g.space.n) if d[j] > 0]
        if not pos:
            continue
        nearest = min(d[j] for j in pos)
        j = next(j for j in pos if d[j] == nearest)
        with np.errstate(invalid="ignore"):
            diff = abs(g.values[i] - g.values[j])
        if np.isfinite(diff):
            worst = max(worst, float(diff))
    return worst


FIELD_VALUE = st.one_of(st.integers(-3, 3).map(float),
                        st.sampled_from([np.inf, -np.inf]))


@given(line_spaces(), st.data())
@settings(max_examples=200, deadline=None)
def test_envelopes_and_oscillation_equal_definition(space, data):
    values = data.draw(st.lists(FIELD_VALUE, min_size=space.n,
                                max_size=space.n))
    g = ScalarField(space, values)
    h = radius(data.draw, space)
    for op, expected in envelopes_by_definition(g, h).items():
        assert op(g, h).values.tolist() == expected, op.__name__
    assert _cell_oscillation(g) == oscillation_by_definition(g)


def test_envelopes_and_oscillation_fallback():
    rng = np.random.default_rng(4)
    coords = rng.integers(0, 4, (25, 2)) * 0.5       # ties and coincidences
    plane = FiniteMetricSpace(range(25), coords=coords)
    table = FiniteMetricSpace(
        range(25), table=np.vstack([plane.dist_row(i) for i in range(25)]))
    values = rng.integers(-2, 3, 25).astype(float)
    values[[3, 11]] = np.inf
    values[5] = -np.inf
    for space in (plane, table):
        g = ScalarField(space, values)
        for h in (0.5, 0.8, 2.0):
            for op, expected in envelopes_by_definition(g, h).items():
                assert op(g, h).values.tolist() == expected
        assert _cell_oscillation(g) == oscillation_by_definition(g)


@given(st.one_of(line_spaces(), any_spaces()))
@settings(max_examples=200, deadline=None)
def test_nearest_neighbours_and_resolution(space):
    d1, j = space.nearest_neighbors()
    nearest = []
    for i in range(space.n):
        d = space.dist_row(i)
        pos = d > 0
        nearest.append(float(np.min(d, where=pos, initial=np.inf)))
        assert d1[i] == space.nearest_neighbor_distance(i) == nearest[i]
        want = int(np.argmin(np.where(pos, d, np.inf))) if np.any(pos) else -1
        assert j[i] == want
    assert space.resolution() == min(nearest)
