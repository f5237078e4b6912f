"""The local functional over a radius array against its definition.

``scale_profile``'s ``loc`` column, ``point_scale_values``' ``loc`` and
``loc_lip_r`` read every radius of a point from one distance row.  Each
value must equal (``==``) the largest quotient over the pairs of
``ball_indices(i, r)``, each pair taken once with the lower index as the
row, written out here pair row by pair row.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lipderiv import RadiusGrid, loc_lip_r, point_scale_values, scale_profile
from test_line_windows import any_spaces, map_on, radius


def loc_by_definition(f, i, r):
    """max ``value_dist_from(u)[v] / dist_row(u)[v]`` over u < v in the ball
    ``d(x_i, .) < r`` with ``d(u, v) > 0`` (0 over no pair).  The fold is
    ``np.maximum``, so a NaN quotient (inf / inf, both overflowed) makes the
    result NaN, as in every kernel."""
    ball = f.domain.ball_indices(i, r)
    best = 0.0
    for a, u in enumerate(ball.tolist()):
        later = ball[a + 1:]
        d = f.domain.dist_row(u)[later]
        dv = f.value_dist_from(u)[later]
        pos = d > 0
        if np.any(pos):
            with np.errstate(over="ignore", invalid="ignore"):
                best = float(np.maximum(best, np.max(dv[pos] / d[pos])))
    return best


def radii_for(draw, space):
    """Sample distances, free radii, radii above the diameter and below the
    nearest positive distance, in any order, some repeated."""
    radii = [radius(draw, space) for _ in range(draw(st.integers(1, 4)))]
    below = 0.5 * space.resolution()
    if 0 < below < np.inf:
        radii += draw(st.lists(st.just(below), max_size=1))
    radii += draw(st.lists(st.sampled_from(radii), max_size=2))
    return draw(st.permutations(radii))


@st.composite
def loc_cases(draw):
    """A map on a line, a plane or a table (coincident points and 1e-170
    gaps among them) with scalar values, vector values or a table of value
    distances."""
    space = draw(any_spaces())
    return map_on(draw, space), radii_for(draw, space)


@given(loc_cases())
@settings(max_examples=300, deadline=None)
def test_point_loc_equals_definition(case):
    f, radii = case
    for i, x in enumerate(f.domain.ids):
        want = [loc_by_definition(f, i, r) for r in radii]
        assert point_scale_values(f, x, radii)["loc"].tolist() == want
        assert [loc_lip_r(f, x, r) for r in radii] == want


@given(loc_cases(), st.data())
@settings(max_examples=200, deadline=None)
def test_profile_loc_column_equals_definition(case, data):
    f, radii = case
    grid = RadiusGrid(max(radii), data.draw(st.sampled_from([0.5, 0.3])),
                      data.draw(st.integers(1, 4)), 1)
    ids = f.domain.ids
    # every point by default, or points in any order, some repeated
    points = data.draw(st.none() | st.lists(st.sampled_from(ids),
                                            min_size=1, max_size=2 * len(ids)))
    prof = scale_profile(f, grid, points)
    loc = prof.table["loc"]
    assert loc.shape == (len(prof.points), grid.steps)
    for row, x in enumerate(prof.points):
        i = f.domain.index(x)
        assert loc[row].tolist() == [loc_by_definition(f, i, r)
                                     for r in grid.radii.tolist()]
