import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lipderiv import metric
from lipderiv import (FiniteMetricSpace, InputError, IntervalUnion,
                      LinearMapSpec, ball, operator_norm,
                      resolution_isolated)


def test_norms():
    sp1 = FiniteMetricSpace([0, 1], coords=[[0.0, 0.0], [3.0, 4.0]], p=1.0)
    sp2 = FiniteMetricSpace([0, 1], coords=[[0.0, 0.0], [3.0, 4.0]], p=2.0)
    spi = FiniteMetricSpace([0, 1], coords=[[0.0, 0.0], [3.0, 4.0]], p=np.inf)
    assert sp1.dist_row(0)[1] == 7.0
    assert sp2.dist_row(0)[1] == 5.0
    assert spi.dist_row(0)[1] == 4.0


def test_duplicate_ids_rejected():
    with pytest.raises(InputError):
        FiniteMetricSpace(["a", "a"], coords=[[0.0], [1.0]])


def test_unknown_point():
    sp = FiniteMetricSpace.grid1d(0, 1, 0.5)
    with pytest.raises(InputError):
        sp.index("nope")


def assert_metric_axioms(sp):
    """Distances of sp are positive between distinct points and satisfy
    the triangle inequality to 1e-12."""
    n = len(sp.ids)
    every = np.arange(n)
    d = sp.cross(every, every)
    assert np.all(d[~np.eye(n, dtype=bool)] > 0)
    # d[i, j] <= d[i, k] + d[k, j], indexed [i, k, j]
    assert np.all(d[:, None, :] <= d[:, :, None] + d[None, :, :] + 1e-12)


def test_validate_metric_on_embedding_is_clean():
    rng = np.random.default_rng(0)
    sp = FiniteMetricSpace(range(10), coords=rng.normal(size=(10, 3)))
    assert_metric_axioms(sp)


def metric_table(n=5, seed=0):
    """Distances between random vectors in R^3, and the vectors."""
    g = np.random.default_rng(seed).standard_normal((n, 3))
    return metric._block(g, g, 2.0), g


def test_table_rejected_one_ulp_from_symmetric():
    table, _ = metric_table()
    FiniteMetricSpace(range(5), table=table)
    table[1, 3] = np.nextafter(table[1, 3], np.inf)
    with pytest.raises(InputError, match="symmetric"):
        FiniteMetricSpace(range(5), table=table)


@pytest.mark.parametrize("entry", [np.nan, -1.0, -5e-324])
def test_table_rejected_with_nan_or_negative_entry(entry):
    table, _ = metric_table()
    table[0, 4] = table[4, 0] = entry
    with pytest.raises(InputError, match="nonnegative"):
        FiniteMetricSpace(range(5), table=table)


@pytest.mark.parametrize("entry", [5e-324, 0.1, 1.0, np.inf])
def test_table_rejected_with_nonzero_diagonal(entry):
    table, _ = metric_table()
    table[2, 2] = entry
    with pytest.raises(InputError, match="itself"):
        FiniteMetricSpace(range(5), table=table)


def test_table_rejected_beside_coordinates_or_not_square():
    table, g = metric_table()
    with pytest.raises(InputError, match="not both"):
        FiniteMetricSpace(range(5), table=table, coords=g)
    with pytest.raises(InputError, match="square"):
        FiniteMetricSpace(range(5), table=table[:, :4])
    with pytest.raises(InputError, match="square"):
        FiniteMetricSpace(range(4), table=table)


@given(st.integers(2, 12), st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_embedded_spaces_always_valid(n, seed):
    rng = np.random.default_rng(seed)
    p = rng.choice([1.0, 2.0, np.inf])
    sp = FiniteMetricSpace(range(n), coords=rng.uniform(-1, 1, (n, 2)), p=p)
    assert_metric_axioms(sp)


def test_ball_open_vs_closed():
    sp = FiniteMetricSpace.grid1d(0.0, 1.0, 0.25)
    x = sp.ids[2]          # 0.5
    assert ball(sp, x, 0.25) == {x}
    closed = ball(sp, x, 0.25, closed=True)
    assert len(closed) == 3
    with pytest.raises(InputError):
        ball(sp, x, 0.0)


@pytest.mark.parametrize("r", [math.nan, 0.0, -1.0])
def test_ball_and_isolated_reject_non_positive_radii(r):
    sp = FiniteMetricSpace.grid1d(0.0, 2.0, 1.0)
    with pytest.raises(InputError):
        ball(sp, 1.0, r)
    with pytest.raises(InputError):
        resolution_isolated(sp, r)


def test_resolution_and_isolated():
    sp = FiniteMetricSpace(range(3), coords=[[0.0], [0.1], [5.0]])
    assert sp.resolution() == pytest.approx(0.1)
    assert resolution_isolated(sp, 1.0) == {2}
    assert resolution_isolated(sp, 0.2) == {2}
    assert resolution_isolated(sp, 0.05) == {0, 1, 2}


def test_cross_matches_pairwise():
    rng = np.random.default_rng(3)
    sp = FiniteMetricSpace(range(6), coords=rng.normal(size=(6, 2)))
    idx = [1, 3, 4]
    np.testing.assert_allclose(sp.cross(idx, idx),
                               [sp.dist_row(i)[idx] for i in idx])


def test_interval_union_normalizes_and_measures():
    E = IntervalUnion([(2.0, 3.0), (0.0, 1.0), (0.5, 1.5)])
    assert E.intervals == ((0.0, 1.5), (2.0, 3.0))
    assert E.measure() == 2.5
    assert E.contains(1.5) and not E.contains(1.75)
    assert E.distance_to(1.75) == pytest.approx(0.25)
    assert E.intersect(1.0, 2.5).measure() == pytest.approx(1.0)
    assert IntervalUnion([]).measure() == 0.0
    assert IntervalUnion([]).distance_to(0.0) == math.inf
    with pytest.raises(InputError):
        IntervalUnion([(1.0, 0.0)])


def test_interval_union_ops():
    a = IntervalUnion([(0.0, 1.0)])
    b = IntervalUnion([(0.5, 2.0)])
    assert a.union(b) == IntervalUnion([(0.0, 2.0)])
    assert a.intersect(2.0, 0.25).measure() == pytest.approx(0.75)


def test_operator_norm_diag_exact():
    A = LinearMapSpec([[2.0, 0.0], [0.0, 1.0]])
    assert operator_norm(A) == 2.0


def test_operator_norm_rotation():
    c, s = math.cos(0.5), math.sin(0.5)
    A = LinearMapSpec([[c, -s], [s, c]])
    assert operator_norm(A, sphere_samples=5000) == pytest.approx(1.0, abs=1e-9)


def test_operator_norm_is_lower_bound():
    rng = np.random.default_rng(1)
    for _ in range(20):
        M = rng.normal(size=(2, 2))
        got = operator_norm(LinearMapSpec(M), sphere_samples=4000)
        exact = float(np.linalg.norm(M, 2))
        assert got <= exact + 1e-12
        assert got >= 0.99 * exact


def test_linear_map_spec_validation():
    with pytest.raises(InputError):
        LinearMapSpec([1.0, 2.0])
    with pytest.raises(InputError):
        LinearMapSpec([[math.nan, 0.0], [0.0, 1.0]])


#: endpoints that make empty, touching and zero-length clips likely, with
#: the extremes of the float range near +-1e300 and 1e-300
_ENDPOINT = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0, 1e-300, -1e-300, 1e300,
                     -1e300]),
    st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False))


@given(st.lists(st.tuples(_ENDPOINT, _ENDPOINT), max_size=5),
       st.lists(st.tuples(_ENDPOINT, _ENDPOINT), min_size=1, max_size=8))
@settings(max_examples=300, deadline=None)
def test_intersect_measures_equal_scalar_measures_bit_for_bit(spans, ends):
    """One vector pass gives every float of intersect(a, b).measure(): empty
    unions, touching and zero-length intervals, swapped endpoints and
    endpoints outside E included."""
    E = IntervalUnion([sorted(s) for s in spans])
    lo, hi = np.array(ends).T
    got = E.intersect_measures(lo, hi)
    want = np.array([E.intersect(a, b).measure() for a, b in ends])
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
