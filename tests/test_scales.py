import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lipderiv import (FiniteMetricSpace, InputError, RadiusGrid, SampledMap,
                      big_lip_below_r, lip_norm, lip_upper_r,
                      lip_upper_r_closed, little_lip_below_r, loc_field,
                      loc_lip_r, nearest_scale_infimum, point_scale_values,
                      scale_profile, scan_field)


def line_map(xs, values):
    sp = FiniteMetricSpace(list(xs), coords=np.asarray(xs, float)[:, None])
    return SampledMap.real(sp, values)


def random_case(seed, n=10):
    rng = np.random.default_rng(seed)
    sp = FiniteMetricSpace(range(n), coords=rng.uniform(-1, 1, (n, 2)))
    return SampledMap.real(sp, rng.normal(size=n))


def test_lip_upper_open_ball():
    xs = [-0.9, -0.5, 0.0, 0.5, 0.9]
    f = line_map(xs, xs)
    assert lip_upper_r(f, 0.0, 1.0) == pytest.approx(0.9)
    # u = 0.9 excluded from the open ball of radius 0.9, included in closed
    assert lip_upper_r(f, 0.0, 0.9) == pytest.approx(0.5 / 0.9)
    assert lip_upper_r_closed(f, 0.0, 0.9) == pytest.approx(1.0)


def test_discrete_two_point():
    sp = FiniteMetricSpace.discrete(["a", "b"])
    f = SampledMap.real(sp, [0.0, 1.0])
    assert lip_upper_r(f, "a", 1.0) == 0.0          # open ball is {a}
    assert lip_upper_r_closed(f, "a", 1.0) == 1.0
    assert lip_norm(f) == 1.0
    # every point is isolated at radius 1: all derivatives vanish
    assert big_lip_below_r(f, "a", 1.0) == 0.0
    assert little_lip_below_r(f, "a", 1.0) == 0.0
    assert loc_lip_r(f, "a", 1.0) == 0.0


def test_big_below_quadratic():
    xs = [-0.9, -0.5, -0.1, 0.0, 0.1, 0.5, 0.9]
    f = line_map(xs, [u * u for u in xs])
    assert big_lip_below_r(f, 0.0, 1.0) == pytest.approx(0.9)


def test_little_breakpoint_hand_scan():
    # neighbors at distances (0.25, 0.5, 1.0) with increments (0.25, 0.25, 1.0):
    # the last segment (0.5, 1.0] gives M/rho = 0.25/1.0
    f = line_map([0.0, 0.25, 0.5, 1.0], [0.0, 0.25, 0.25, 1.0])
    assert little_lip_below_r(f, 0.0, 1.0) == pytest.approx(0.25)


def test_loc_pairwise():
    xs = [-0.5, -0.1, 0.0, 0.1, 0.5]
    f = line_map(xs, [abs(u) for u in xs])
    assert loc_lip_r(f, 0.0, 1.0) == pytest.approx(1.0)   # pair (0.1, 0.5)


def test_lip_norm_affine():
    xs = [-1.0, -0.3, 0.2, 1.0]
    f = line_map(xs, [3.0 * u for u in xs])
    assert lip_norm(f) == pytest.approx(3.0)
    assert lip_norm(line_map(xs, [7.0] * 4)) == 0.0
    assert lip_norm(line_map([0.0, 2.0], [0.0, 1.0])) == pytest.approx(0.5)


def test_positive_radius_required():
    # a NaN radius fails ``r <= 0`` as well as ``r > 0``
    xs = [0.0, 1.0, 2.0, 3.0, 4.0]
    f = line_map(xs, [x * x for x in xs])
    for r in (np.nan, 0.0, -1.0):
        for op in (lip_upper_r, lip_upper_r_closed, big_lip_below_r,
                   little_lip_below_r, loc_lip_r, nearest_scale_infimum):
            with pytest.raises(InputError):
                op(f, 2.0, r)
        with pytest.raises(InputError):
            point_scale_values(f, 2.0, [1.0, r])
        with pytest.raises(InputError):
            loc_field(f, r, [2])
        with pytest.raises(InputError):
            scan_field(f, [1.0, r], [2])


def test_radius_grid_validation():
    g = RadiusGrid(0.5, 0.5, 4, 2)
    np.testing.assert_allclose(g.radii, [0.5, 0.25, 0.125, 0.0625])
    for bad in (dict(r_max=-1.0), dict(q=1.5), dict(steps=0),
                dict(tail_window=9)):
        with pytest.raises(InputError):
            RadiusGrid(**{**dict(r_max=0.5, q=0.5, steps=4, tail_window=2),
                          **bad})


def test_radius_grid_rejects_underflow():
    # 0.5**1074 is the smallest positive float; 0.5**1075 rounds to 0
    assert RadiusGrid(1.0, 0.5, 1075, 3).radii[-1] == 0.5 ** 1074
    for steps in (1076, 10**18, 10**400):
        with pytest.raises(InputError, match="underflows"):
            RadiusGrid(1.0, 0.5, steps, 3)


def test_radius_grid_holds_at_most_a_block_of_radii():
    from lipderiv.metric import BLOCK_ELEMS
    assert RadiusGrid(1.0, 0.9999, BLOCK_ELEMS, 3).radii.size == BLOCK_ELEMS
    for steps in (BLOCK_ELEMS + 1, 10**12):
        with pytest.raises(InputError, match="at most"):
            RadiusGrid(0.5, 0.9999999999999999, steps, 3)


def test_map_shape_and_norm_order_checked_at_construction():
    sp = FiniteMetricSpace.grid1d(0.0, 1.0, 0.5)
    with pytest.raises(InputError):
        SampledMap(sp)
    for values, p in [(5.0, None), (np.zeros((3, 2, 1)), 2.0),
                      (np.zeros(2), None), (np.zeros((3, 2)), None),
                      (np.zeros((3, 2)), 3.0), (np.zeros((3, 2)), np.nan)]:
        with pytest.raises(InputError):
            SampledMap(sp, values, p)
    for p in (0.5, 3.0, np.nan, "2"):
        with pytest.raises(InputError, match="norm order"):
            FiniteMetricSpace(range(3), coords=np.zeros((3, 1)), p=p)


@given(st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_chain_inequality_exact(seed):
    f = random_case(seed)
    rng = np.random.default_rng(seed + 1)
    for _ in range(4):
        x = f.domain.ids[int(rng.integers(0, f.domain.n))]
        r = float(rng.uniform(0.05, 3.0))
        little = little_lip_below_r(f, x, r)
        big = big_lip_below_r(f, x, r)
        assert little <= big <= loc_lip_r(f, x, r)
        assert loc_lip_r(f, x, r) <= lip_norm(f)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_monotonicity_in_r(seed):
    f = random_case(seed)
    x = f.domain.ids[0]
    radii = np.sort(np.random.default_rng(seed).uniform(0.05, 3.0, size=6))
    big = [big_lip_below_r(f, x, float(r)) for r in radii]
    little = [little_lip_below_r(f, x, float(r)) for r in radii]
    loc = [loc_lip_r(f, x, float(r)) for r in radii]
    assert all(a <= b for a, b in zip(big, big[1:]))
    assert all(a <= b for a, b in zip(loc, loc[1:]))
    resolved = [v for v in little if v > 0]
    assert all(a >= b for a, b in zip(resolved, resolved[1:]))


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_plus_variant_sweep_matches_big(seed):
    # sup over sampled scales of the closed-ball functional = ratio formula
    f = random_case(seed)
    i = 0
    x = f.domain.ids[i]
    d = np.sort(f.domain.dist_row(i))
    d = d[d > 0]
    r = float(d[-1]) * 1.01
    sweep = max(lip_upper_r_closed(f, x, float(dk)) for dk in d[d < r])
    assert sweep == pytest.approx(big_lip_below_r(f, x, r), abs=1e-12)


def test_profile_constant_all_zero():
    f = line_map(np.linspace(0, 1, 21), np.zeros(21))
    prof = scale_profile(f, RadiusGrid(0.5, 0.5, 5, 3))
    for arr in prof.table.values():
        assert np.all(arr == 0.0)
    assert all(s.lip_hat == s.big_hat == s.loc_hat == 0.0
               for s in prof.summaries)
    assert not any(s.divergent for s in prof.summaries)


def test_profile_quadratic_limit_estimates():
    xs = np.linspace(0.0, 2.0, 2001)
    f = line_map(xs, xs * xs)
    prof = scale_profile(f, RadiusGrid(0.5, 0.5, 8, 3), points=[xs[1000]])
    s = prof.summaries[0]
    assert 1.98 <= s.lip_hat <= 2.02
    assert 1.98 <= s.big_hat <= 2.02
    assert not s.unresolved


def test_profile_sqrt_divergence_flag():
    xs = np.arange(-1.0, 1.0 + 5e-4, 1e-3)
    f = line_map(xs, np.sqrt(np.abs(xs)))
    x0 = xs[np.argmin(np.abs(xs))]
    prof = scale_profile(f, RadiusGrid(0.5, 0.5, 8, 3), points=[x0])
    s = prof.summaries[0]
    assert s.divergent
    assert s.big_hat > 10.0


def test_profile_unresolved_flag():
    f = line_map([0.0, 10.0], [0.0, 1.0])
    prof = scale_profile(f, RadiusGrid(1.0, 0.5, 3, 2))
    assert all(s.unresolved for s in prof.summaries)
    assert all(s.lip_hat == 0.0 for s in prof.summaries)


def test_vector_codomain():
    sp = FiniteMetricSpace.grid1d(0.0, 1.0, 0.25)
    vals = np.column_stack([np.array(sp.ids) * 3.0, np.zeros(sp.n)])
    f = SampledMap.vector(sp, vals, p=2.0)
    assert lip_norm(f) == pytest.approx(3.0)
