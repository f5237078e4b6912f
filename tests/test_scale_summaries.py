"""Summary estimates without the profile table, and the reach-limited scan.

``scale_summaries`` reads every estimate from one scan per point, limited to
the largest radius, plus one local functional; ``scan_field`` answers every
radius up to its reach exactly as the definition over the whole distance
row does; the pair supremum walks upper-triangle row blocks.  Each is
compared with ``==`` against the computation it replaces or against the
definition.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lipderiv import (FiniteMetricSpace, PointSummary, RadiusGrid,
                      SampledMap, big_lip_below_r, lip_norm, loc_lip_r, nearest_scale_infimum, scale_profile,
                      scale_summaries, scan_field)
from lipderiv.harness import derivative_fields
from lipderiv import scales
from lipderiv.scales import _pair_sup
from lipderiv.zoo import make_entry
from test_point_kernel import assert_scan_row_is_definition


@st.composite
def sampled_maps(draw):
    """Small real or vector maps on a coarse lattice: tied distances,
    coincident points, one-point clouds."""
    n = draw(st.integers(1, 9))
    dim = draw(st.integers(1, 2))
    lattice = st.integers(-3, 3)
    coords = np.array([[draw(lattice) for _ in range(dim)]
                       for _ in range(n)], dtype=float) * 0.5
    p = draw(st.sampled_from([1.0, 2.0, np.inf]))
    space = FiniteMetricSpace(list(range(n)), coords=coords, p=p)
    value = st.floats(-4.0, 4.0, allow_nan=False)
    if draw(st.booleans()):
        return SampledMap.real(space, [draw(value) for _ in range(n)])
    values = [[draw(value), draw(value)] for _ in range(n)]
    codomain_p = draw(st.sampled_from([1.0, 2.0]))
    return SampledMap.vector(space, values, p=codomain_p)


@st.composite
def grids(draw):
    steps = draw(st.integers(1, 5))
    # tail_window == steps is drawn as often as all smaller windows together
    tail = steps if draw(st.booleans()) else draw(st.integers(1, steps))
    return RadiusGrid(draw(st.sampled_from([0.25, 0.5, 1.0, 1.5, 4.0])),
                      draw(st.sampled_from([0.3, 0.5, 0.75])), steps, tail)


def summary_by_definition(f, grid, x):
    """A point's summary from the one-radius functionals, as the profile
    computed it before the two shared a summary helper."""
    radii = [float(r) for r in grid.radii]
    r_small, tail = radii[-1], radii[-grid.tail_window:]
    d1 = f.domain.nearest_neighbor_distance(f.domain.index(x))
    resolved = [r for r in radii if d1 < r]
    series = [nearest_scale_infimum(f, x, r) for r in tail]
    divergent = bool(series[-1] > 0
                     and all(b >= a for a, b in zip(series, series[1:]))
                     and series[-1] > scales.DIVERGENCE_FACTOR * series[0])
    return PointSummary(
        x, nearest_scale_infimum(f, x, r_small),
        big_lip_below_r(f, x, r_small),
        loc_lip_r(f, x, min(resolved)) if resolved else 0.0,
        d1 >= r_small, divergent)


@settings(max_examples=200, deadline=None)
@given(sampled_maps(), grids(), st.booleans())
def test_summaries_equal_profile_summaries(f, grid, subset):
    points = f.domain.ids[::2] if subset else None
    prof = scale_profile(f, grid, points=points)
    got = scale_summaries(f, grid, points=points)
    assert got == prof.summaries
    assert got == [summary_by_definition(f, grid, x) for x in prof.points]


@pytest.mark.parametrize("coords, values", [
    ([[0.5, 0.5]], [1.0]),                          # a one-point cloud
    ([[0.0, 0.0], [0.0, 0.0]], [1.0, 3.0]),         # only coincident points
    ([[0.0, 0.0], [0.0, 0.0], [0.5, 0.0]], [1.0, 3.0, 2.0]),
    # one steep step: the open-ball functional is smallest at large radii
    ([[0.0], [0.5], [1.0], [1.5]], [0.0, 1.0, 1.0, 1.0]),
])
@pytest.mark.parametrize("grid", [RadiusGrid(1.0, 0.5, 3, 3),
                                  RadiusGrid(0.6, 0.5, 4, 1),
                                  RadiusGrid(4.0, 0.5, 3, 1)])
def test_summaries_small_clouds(coords, values, grid):
    f = SampledMap.real(FiniteMetricSpace(range(len(values)), coords=coords),
                        values)
    got = scale_summaries(f, grid)
    assert got == scale_profile(f, grid).summaries
    assert got == [summary_by_definition(f, grid, x) for x in f.domain.ids]


@settings(max_examples=150, deadline=None)
@given(sampled_maps(), st.floats(0.1, 3.0))
def test_reach_limited_scan_equals_unrestricted(f, reach_float):
    for i in range(f.domain.n):
        d = f.domain.dist_row(i)
        pos = np.unique(d[d > 0])
        # reach on a sample distance (ties at the limit) and off the lattice
        reaches = [pos[len(pos) // 2]] if pos.size else []
        for reach in reaches + [reach_float]:
            inside = pos[pos <= reach]
            radii = np.concatenate([inside, inside * 0.999, [reach]])
            assert_scan_row_is_definition(f, scan_field(f, radii, [i]), 0, i,
                                          radii.tolist())


def py_norm(diff, p):
    """p-norm of a sequence of floats, accumulated left to right."""
    acc = 0.0
    for t in diff:
        if p == 2:
            acc += t * t
        elif p == 1:
            acc += abs(t)
        else:
            acc = max(acc, abs(t))
    return math.sqrt(acc) if p == 2 else acc


def pair_sup_by_definition(coords, p, value_dist, idx):
    """max |f(a) - f(b)| / d(a, b) over pairs a before b in idx, d > 0."""
    pts = [[float(t) for t in coords[j]] for j in idx]
    best = 0.0
    for a in range(len(idx)):
        for b in range(a + 1, len(idx)):
            dist = py_norm([u - v for u, v in zip(pts[a], pts[b])], p)
            if dist > 0:
                best = max(best, value_dist(idx[a], idx[b]) / dist)
    return best


def planted_cloud(seed, n=450):
    """Uniform 2-d cloud in which some points repeat others' coordinates
    with other values."""
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0.0, 1.0, size=(n, 2))
    twins = rng.choice(n, size=12, replace=False)
    coords[twins[6:]] = coords[twins[:6]]
    return rng, coords, rng.normal(size=n)


def by_kind(kind, coords, values, p):
    """A map of the given codomain kind, and its value distance by
    definition."""
    space = FiniteMetricSpace(list(range(len(coords))), coords=coords, p=p)
    if kind == "real":
        return SampledMap.real(space, values), (
            lambda a, b: abs(float(values[a]) - float(values[b])))
    vec = np.column_stack([values, np.roll(values, 1)])
    return SampledMap.vector(space, vec, p=2.0), (
        lambda a, b: py_norm([float(u - v) for u, v in
                              zip(vec[a], vec[b])], 2.0))


@pytest.mark.parametrize("kind", ["real", "vector"])
@pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
def test_pair_sup_equals_definition_on_balls(kind, p):
    rng, coords, values = planted_cloud(3)
    f, value_dist = by_kind(kind, coords, values, p)
    sizes = []
    for target in (129, 257, 400):
        i = int(rng.integers(0, len(coords)))
        row = np.sort(f.domain.dist_row(i))
        idx = f.domain.ball_indices(i, float(row[target]))
        sizes.append(idx.size)
        assert _pair_sup(f, idx) == pair_sup_by_definition(
            coords, p, value_dist, idx)
    assert min(sizes) >= 129 and max(sizes) <= 400


@pytest.mark.parametrize("m, a, b", [
    (129, 127, 128),           # across the first block boundary
    (129, 0, 128),             # first row, last column
    (256, 200, 201),           # inside the second block
    (257, 255, 256),           # the last pair, alone in its block
    (400, 384, 399),           # both in the last block
])
def test_pair_sup_finds_planted_steepest_pair(m, a, b):
    rng, coords, values = planted_cloud(5)
    idx = np.sort(rng.choice(len(coords), size=m, replace=False))
    coords[idx[b]] = coords[idx[a]] + 1e-6
    values[idx[b]] = values[idx[a]] + 1.0
    f, value_dist = by_kind("real", coords, values, 2.0)
    want = pair_sup_by_definition(coords, 2.0, value_dist, idx)
    # the planted pair is the steepest one
    assert want == value_dist(idx[a], idx[b]) / py_norm(
        coords[idx[a]] - coords[idx[b]], 2.0)
    assert _pair_sup(f, idx) == want


def test_derivative_fields_equal_one_radius_functionals():
    f = make_entry("sqrt_abs", 0.05).map
    little, big, loc = derivative_fields(f, 0.12, 0.3)
    for i, x in enumerate(f.domain.ids):
        assert little.values[i] == nearest_scale_infimum(f, x, 0.12)
        assert big.values[i] == big_lip_below_r(f, x, 0.12)
        assert loc.values[i] == loc_lip_r(f, x, 0.3)


@pytest.mark.parametrize("name", ["sin", "sqrt_abs", "linear_shear",
                                  "two_point_discrete"])
def test_pair_extremes(name):
    # the extremes over all pairs: each pair once, lower index as the row
    f = make_entry(name, 0.05).map
    everything = np.arange(f.domain.n)
    D = f.domain.cross(everything, everything)
    V = f.value_cross(everything, everything)
    pos = D > 0
    upper = pos & np.triu(np.ones(D.shape, dtype=bool), 1)
    want = (float(np.max(V[upper] / D[upper])), float(np.max(D)),
            float(np.min(D[pos])))
    assert (lip_norm(f), f.domain.diameter(), f.domain.resolution()) == want
