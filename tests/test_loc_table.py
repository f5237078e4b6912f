"""The grouped local-functional kernel against per-point triangles.

``_loc_table`` computes the pair quotients of a group of nearby centres
once and reads every centre's balls from them.  Each entry must equal
(``==``) ``_loc_radii``, one triangle per point and radius, and the
largest quotient over the pairs of the ball written out pair by pair
(``test_loc_column.loc_by_definition``), whatever the grouping:
``BLOCK_ELEMS`` is patched down so that centres split across groups and
single balls exceed the cap on their own.
"""
import os
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lipderiv import (FiniteMetricSpace, RadiusGrid, SampledMap, loc_field,
                      scale_profile)
from lipderiv import scales
from lipderiv.io import load_sampled_map
from test_line_windows import any_spaces, map_on
from test_loc_column import loc_by_definition, radii_for

DATA = os.path.join(os.path.dirname(__file__), "data")


@st.composite
def table_cases(draw):
    """A map on a line, a plane or a table, radii in any order with
    repeats, centres in any order with repeats, and a block budget small
    enough to split the centres into groups of one to a few points."""
    space = draw(any_spaces())
    f = map_on(draw, space)
    radii = np.array(radii_for(draw, space))
    idx = draw(st.lists(st.integers(0, space.n - 1), min_size=1,
                        max_size=2 * space.n))
    budget = draw(st.sampled_from([1, 4, 9, 16, 36, 1 << 18]))
    return f, idx, radii, budget


@given(table_cases())
@settings(max_examples=300, deadline=None)
def test_loc_table_equals_per_point_triangles(case):
    f, idx, radii, budget = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scales, "BLOCK_ELEMS", budget)
        got = scales._loc_table(f, idx, radii)
    assert got.shape == (len(idx), radii.size)
    for row, i in enumerate(idx):
        assert got[row].tolist() == scales._loc_radii(f, i, radii).tolist()
        assert got[row].tolist() == [loc_by_definition(f, i, r)
                                     for r in radii.tolist()]


def spy_groups(monkeypatch):
    """Record the size of every point set whose quotients are computed."""
    sizes = []
    rows = scales._quotient_rows

    def spy(f, idx):
        sizes.append(idx.size)
        return rows(f, idx)

    monkeypatch.setattr(scales, "_quotient_rows", spy)
    return sizes


@pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
def test_groups_split_and_oversized_balls(monkeypatch, p):
    # a dense patch whose balls exceed the cap of isqrt(64) = 8 points on
    # their own, and a sparse band where several centres share a group
    rng = np.random.default_rng(5)
    coords = np.vstack([0.05 * rng.random((20, 2)),
                        rng.random((60, 2)) * [4.0, 0.1] + [1.0, 0.0]])
    coords[25] = coords[3]                     # a coincident pair
    space = FiniteMetricSpace(range(80), coords=coords, p=p)
    f = SampledMap.vector(space, rng.standard_normal((80, 2)), p=p)
    radii = np.array([0.06, 0.3, 0.12, 0.3])
    idx = np.concatenate([rng.permutation(80), [7, 3, 50]])
    monkeypatch.setattr(scales, "BLOCK_ELEMS", 64)
    sizes = spy_groups(monkeypatch)
    got = scales._loc_table(f, idx, radii)
    groups = len(sizes)
    assert 1 < groups < 80
    assert max(sizes) > isqrt(64)
    for row, i in enumerate(idx.tolist()):
        assert got[row].tolist() == scales._loc_radii(f, i, radii).tolist()
    monkeypatch.undo()
    # the unpatched kernel, through the public wrappers
    assert loc_field(f, 0.12, idx).tolist() == got[:, 2].tolist()


def count_cross(monkeypatch):
    """Count the elements of every ``cross`` block."""
    elems = [0]
    cross = FiniteMetricSpace.cross

    def spy(self, rows, cols):
        elems[0] += np.size(rows) * np.size(cols)
        return cross(self, rows, cols)

    monkeypatch.setattr(FiniteMetricSpace, "cross", spy)
    return elems


def test_loc_column_computes_fewer_quotients(monkeypatch):
    # the fixture cloud's loc column: one block per group of centres
    # against one triangle per point and radius
    f = load_sampled_map(os.path.join(DATA, "cloud2d.csv"), "euclidean")
    radii = RadiusGrid(0.25, 0.5, 4, 3).radii
    idx = np.arange(f.domain.n)
    elems = count_cross(monkeypatch)
    per_point = np.array([scales._loc_radii(f, i, radii) for i in idx])
    triangles, elems[0] = elems[0], 0
    grouped = scales._loc_table(f, idx, radii)
    assert np.array_equal(grouped, per_point)
    assert 0 < elems[0] < triangles / 2
    elems[0] = 0
    column = scale_profile(f, RadiusGrid(0.25, 0.5, 4, 3)).table["loc"]
    assert np.array_equal(column, per_point)
    # the profile's own cross blocks also hold the scan's ball rows
    assert elems[0] < triangles / 2


def test_overflowed_quotient_reads_nan_on_every_path():
    # the pair (1, 2) lies in every ball of radius 1e155, and both its
    # distance and its value increment overflow to inf: each path reads
    # the NaN quotient there, whether a centre is a seed or a member and
    # whichever block holds it; the balls of radius 2 do not hold it
    coords = np.array([[0.0, 0.0], [-1.2e154, 0.0], [1.2e154, 0.0],
                       [1.0, 0.0], [2.0, 0.0]])
    vals = np.array([0.0, -1.7e308, 1.7e308, 5.0, 0.0])
    f = SampledMap.real(FiniteMetricSpace(range(5), coords=coords), vals)
    radii = np.array([1e155, 2.0])
    with np.errstate(over="ignore"):
        got = scales._loc_table(f, [0, 3, 4], radii)
        for row, i in enumerate([0, 3, 4]):
            want = scales._loc_radii(f, i, radii)
            assert np.isnan(got[row, 0]) and np.isnan(want[0])
            assert got[row, 1] == want[1] == loc_by_definition(f, i, 2.0)
