"""The distance-block kernel and the pair supremum against their definitions.

Every assertion is exact (``np.array_equal`` / ``==``): the kernel may only
change how a block is computed, never a float in it.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lipderiv import FiniteMetricSpace, InputError, SampledMap
from lipderiv.cli import main
from lipderiv.metric import _block, _norm
from lipderiv.scales import loc_lip_r

NORMS = (1.0, 2.0, np.inf)
DIMS = (1, 2, 3, 7, 8, 9)


def by_definition(a, b, p):
    return _norm(a[:, None, :] - b[None, :, :], p)


def pair_sup_by_definition(domain, values, idx):
    """max |f(u)-f(v)| / d(u,v) over index pairs u < v in idx with d > 0."""
    best = 0.0
    c, v = domain.coords[idx], values[idx]
    for i in range(idx.size - 1):
        d = _norm(c[i] - c[i + 1:], domain.p)
        q = np.abs(v[i] - v[i + 1:])[d > 0] / d[d > 0]
        if q.size:
            best = max(best, float(np.max(q)))
    return best


@pytest.mark.parametrize("p", NORMS)
@pytest.mark.parametrize("dim", DIMS)
def test_blocks_match_definition(p, dim):
    rng = np.random.default_rng(dim)
    scales = 10.0 ** rng.integers(-6, 6, 40)[:, None]
    coords = rng.standard_normal((40, dim)) * scales
    coords[5] = coords[9]                      # a zero-distance pair
    rows, cols = np.arange(0, 40, 3), np.arange(1, 40, 2)
    a, b = coords[rows], coords[cols]
    assert np.array_equal(_block(a, b, p), by_definition(a, b, p))

    space = FiniteMetricSpace(range(40), coords=coords, p=p)
    assert np.array_equal(space.cross(rows, cols), by_definition(a, b, p))
    assert np.array_equal(space.cross(rows, rows), by_definition(a, a, p))

    f = SampledMap.vector(space, coords[::-1] * 3.0, p=p)
    va, vb = f.values[rows], f.values[cols]
    assert np.array_equal(f.value_cross(rows, cols), by_definition(va, vb, p))


@st.composite
def coordinate_sets(draw):
    """1-9 points with 1-9 coordinates each: seeded normal floats of mixed
    scales, lattice values, 1e-170 multiples (squares that underflow) and
    values near 1e308 (differences that overflow), with coincident
    points."""
    n, dim = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    coords = (rng.standard_normal((n, dim))
              * 10.0 ** rng.integers(-3, 4, (n, 1)))
    special = {"lattice": 0.5 * rng.integers(-3, 4, (n, dim)),
               "tiny": 1e-170 * rng.integers(-3, 4, (n, dim)),
               "huge": rng.choice([-1.7e308, -9e307, 9e307, 1.7e308],
                                  (n, dim))}
    kinds = draw(st.lists(st.sampled_from(["normal", "normal", *special]),
                          min_size=n * dim, max_size=n * dim))
    for kind, values in special.items():
        mask = (np.array(kinds) == kind).reshape(n, dim)
        coords[mask] = values[mask]
    for k in draw(st.lists(st.integers(1, n - 1), max_size=2)) if n > 1 else ():
        coords[k] = coords[k - 1]
    return coords, draw(st.sampled_from(NORMS))


@settings(max_examples=300, deadline=None)
@given(coordinate_sets())
def test_dist_row_is_the_norm_of_the_differences(case):
    # bit for bit, also across the switch to pairwise summation at 8
    # coordinates and where a difference overflows to inf
    coords, p = case
    space = FiniteMetricSpace(range(len(coords)), coords=coords, p=p)
    every = np.arange(space.n)
    with np.errstate(over="ignore", under="ignore"):
        for i in range(space.n):
            row = space.dist_row(i)
            assert np.array_equal(row, _norm(coords - coords[i], p))
            assert np.array_equal(row, space.cross([i], every)[0])


def test_table_backed_blocks_read_the_table():
    rng = np.random.default_rng(3)
    coords = rng.random((12, 2))
    table = by_definition(coords, coords, 2.0)
    space = FiniteMetricSpace(range(12), table=table)
    vals = rng.random(12)
    f = SampledMap.real(space, vals)
    rows, cols = [0, 4, 7], [1, 2, 7, 11]
    assert np.array_equal(space.cross(rows, cols), table[np.ix_(rows, cols)])
    assert np.array_equal(space.cross(rows, rows), table[np.ix_(rows, rows)])
    embedded = FiniteMetricSpace(range(12), coords=coords)
    assert loc_lip_r(f, 4, 0.6) == pair_sup_by_definition(
        embedded, vals, space.ball_indices(4, 0.6))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_loc_skips_coincident_points(seed):
    rng = np.random.default_rng(seed)
    coords = rng.random((80, 2))
    coords[40:50] = coords[:10]                # distinct ids, same place
    vals = rng.standard_normal(80)             # and different values
    space = FiniteMetricSpace(range(80), coords=coords)
    f = SampledMap.real(space, vals)
    for x, r in [(0, 0.3), (3, 0.5), (45, 2.0)]:
        got = loc_lip_r(f, x, r)
        assert np.isfinite(got)
        assert got == pair_sup_by_definition(space, vals,
                                             space.ball_indices(x, r))


def test_loc_row_blocking_over_several_blocks():
    # a ball of 2900 points is cut into row blocks of
    # BLOCK_ELEMS // 2900 = 2**18 // 2900 = 90 rows; the steepest pair
    # (2895, 2896) sits in the short last block, rows 2880 to 2899
    rng = np.random.default_rng(11)
    xs = np.sort(rng.random(2900))
    vals = np.sin(7.0 * xs)
    vals[2896:] += 1.0
    space = FiniteMetricSpace(range(2900), coords=xs[:, None])
    f = SampledMap.real(space, vals)
    idx = space.ball_indices(0, 2.0)
    assert idx.size == 2900
    assert loc_lip_r(f, 0, 2.0) == pair_sup_by_definition(space, vals, idx)


def test_nan_inputs_rejected():
    with pytest.raises(InputError):
        FiniteMetricSpace([0, 1], coords=[[0.0], [np.nan]])
    space = FiniteMetricSpace.grid1d(0.0, 1.0, 0.5)
    with pytest.raises(InputError):
        SampledMap.real(space, [0.0, np.nan, 1.0])
    with pytest.raises(InputError):
        SampledMap.vector(space, [[0.0, 1.0], [np.nan, 0.0], [1.0, 1.0]])


@pytest.mark.parametrize("row", ["p1,nan,0.5,1.0", "p1,0.5,0.5,nan",
                                 "p1,inf,0.5,1.0", "p1,0.5,0.5,-inf"])
def test_cli_profile_rejects_nan(tmp_path, capsys, row):
    src = tmp_path / "cloud.csv"
    src.write_text("id,x1,x2,val\np0,0.0,0.0,0.0\n" + row + "\n"
                   "p2,1.0,0.0,2.0\n")
    code = main(["profile", "--input", str(src), "--rmax", "0.5",
                 "--out", str(tmp_path / "prof.csv")])
    assert code == 2
    assert "error:" in capsys.readouterr().err
