"""The sorted-scan kernel against by-definition evaluations.

Every sort-based functional is answered by one scan of a point's row over a
whole radius array: a row of ``scan_field``, for one point or many.  Maxima
and minima are exact, so each value must equal, bit for bit, a per-radius
evaluation written straight from the definition, and a one-point
``scan_field`` call must equal the row of the same point in the whole field.
"""
import hashlib
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lipderiv import (FiniteMetricSpace, RadiusGrid, SampledMap,
                      big_lip_below_r, lip_upper_r, lip_upper_r_closed,
                      little_lip_below_r, nearest_scale_infimum,
                      point_scale_values, scale_profile, scan_field)
from lipderiv.cli import main

DATA = os.path.join(os.path.dirname(__file__), "data")

KINDS = ("lip_upper", "lip_upper_closed", "big_below", "little_below",
         "nearest_scale_inf")


def by_definition(d, dv, r):
    """The five functionals of one point at one radius, from the definition.

    ``d`` and ``dv`` are the distances and value increments from the point
    to every sample point.
    """
    pos = d > 0

    def upper(rho, closed=False):
        ball = pos & ((d <= rho) if closed else (d < rho))
        return np.max(dv[ball]) / rho if np.any(ball) else 0.0

    out = {"lip_upper": upper(r), "lip_upper_closed": upper(r, closed=True)}
    inside = pos & (d < r)
    if not np.any(inside):
        return dict(out, big_below=0.0, little_below=0.0,
                    nearest_scale_inf=0.0)
    # the open-ball functional is constant in M on each segment between
    # neighbour distances, so its infimum over (d1, r) is attained at the
    # right end of a segment, or approached at r.  Row j of ``below`` and
    # ``upto`` is the open and the closed ball of radius rho[j] < r, which
    # holds points inside only; each ball read holds a point and dv >= 0,
    # so a max from 0 is the max over it
    d_in, dv_in = d[inside], dv[inside]
    rho = np.unique(d_in)
    below = d_in < rho[:, None]
    upto = d_in <= rho[:, None]
    opened = np.max(np.where(below[1:], dv_in, 0.0), axis=1) / rho[1:]
    nearest = np.max(np.where(upto, dv_in, 0.0), axis=1) / rho
    return dict(out, big_below=np.max(dv_in / d_in),
                little_below=min(np.min(opened, initial=np.inf), upper(r)),
                nearest_scale_inf=np.min(nearest))


def assert_scan_row_is_definition(f, got, row, i, radii):
    """Row ``row`` of the ``scan_field`` readings ``got`` is point ``i``:
    every kind at every radius by definition, and ``d1`` the nearest
    positive distance up to the largest radius."""
    d, dv = f.domain.dist_row(i), f.value_dist_from(i)
    for ri, r in enumerate(radii):
        want = by_definition(d, dv, r)
        for kind in KINDS:
            assert got[kind][row, ri] == want[kind], (kind, i, r)
    near = d[(d > 0) & (d <= max(radii))]
    assert got["d1"][row] == (np.min(near) if near.size else np.inf)


@st.composite
def sampled_maps(draw):
    """Small maps on a coarse lattice: tied distances, coincident points."""
    n = draw(st.integers(1, 9))
    dim = draw(st.integers(1, 2))
    lattice = st.integers(-3, 3)
    coords = np.array([[draw(lattice) for _ in range(dim)]
                       for _ in range(n)], dtype=float) * 0.5
    p = draw(st.sampled_from([1.0, 2.0, np.inf]))
    values = [draw(st.floats(-4.0, 4.0, allow_nan=False)) for _ in range(n)]
    space = FiniteMetricSpace(list(range(n)), coords=coords, p=p)
    extra = draw(st.lists(st.floats(1e-3, 5.0), max_size=3))
    return SampledMap.real(space, values), extra


@settings(max_examples=150, deadline=None)
@given(sampled_maps())
def test_kernel_equals_definition(case):
    f, extra = case
    for i in range(f.domain.n):
        d = f.domain.dist_row(i)
        dv = f.value_dist_from(i)
        # radii equal to every sample distance, between them and beyond
        pos = np.unique(d[d > 0])
        radii = np.concatenate([pos, pos * 1.5, extra, [0.25, 10.0]])
        scan = scan_field(f, radii, [i])
        got = {kind: scan[kind][0].tolist() for kind in KINDS}
        assert scan["d1"][0] == (pos[0] if pos.size else np.inf)
        for k, r in enumerate(radii.tolist()):
            want = by_definition(d, dv, r)
            for kind in KINDS:
                assert got[kind][k] == want[kind], (kind, i, r)
        x = f.domain.ids[i]
        values = point_scale_values(f, x, radii)
        for kind in ("lip_upper", "lip_upper_closed", "big_below",
                     "little_below"):
            assert values[kind].tolist() == got[kind]
        # the public one-radius functionals, at the nearest neighbour
        # distance (or the first extra radius) and beyond every sample
        for r in radii[[0, -1]].tolist():
            want = by_definition(d, dv, r)
            assert lip_upper_r(f, x, r) == want["lip_upper"]
            assert lip_upper_r_closed(f, x, r) == want["lip_upper_closed"]
            assert big_lip_below_r(f, x, r) == want["big_below"]
            assert little_lip_below_r(f, x, r) == want["little_below"]
            assert (nearest_scale_infimum(f, x, r)
                    == want["nearest_scale_inf"])


@settings(max_examples=100, deadline=None)
@given(sampled_maps(), st.lists(st.one_of(st.floats(1e-3, 5.0),
                                          st.sampled_from([0.5, 1.0, 1.5])),
                                min_size=1, max_size=4))
def test_point_scan_is_a_scan_field_row(case, radii):
    # radii on lattice distances put ties at the reach; radii below every
    # distance leave a point with an empty row.  A point's row alone is
    # padded to its own width, and in the whole field to the widest row of
    # its block: the two must agree whichever block the row lands in
    f, _ = case
    radii = np.array(radii)
    field = scan_field(f, radii)
    for i in range(f.domain.n):
        row = scan_field(f, radii, [i])
        for kind in KINDS:
            assert row[kind][0].tolist() == field[kind][i].tolist(), kind
        assert row["d1"][0] == field["d1"][i]


@pytest.mark.parametrize("coords, values", [
    ([[0.5, 0.5]], [1.0]),                          # a one-point cloud
    ([[0.0, 0.0], [0.0, 0.0]], [1.0, 3.0]),         # only coincident points
])
def test_point_without_neighbour(coords, values):
    space = FiniteMetricSpace(range(len(values)), coords=coords)
    f = SampledMap.real(space, values)
    radii = np.array([0.5, 0.25])
    scan = scan_field(f, radii, [0])
    for kind in KINDS:
        assert scan[kind][0].tolist() == [0.0, 0.0]
    assert scan["d1"][0] == np.inf
    prof = scale_profile(f, RadiusGrid(0.5, 0.5, 2, 2))
    for column in prof.table.values():
        assert not np.any(column)
    for s in prof.summaries:
        assert (s.lip_hat, s.big_hat, s.loc_hat) == (0.0, 0.0, 0.0)
        assert s.unresolved and not s.divergent


def test_cli_profile_one_row(tmp_path):
    src = tmp_path / "one_row.csv"
    src.write_text("id,x1,x2,val\np0,0.5,0.5,1.0\n")
    out = tmp_path / "o.csv"
    assert main(["profile", "--input", str(src), "--rmax", "0.5",
                 "--out", str(out)]) == 0
    summary = (tmp_path / "o.summary.csv").read_text().splitlines()
    assert summary[1] == "p0,0,0,0,1,0"


# sha256 of `lipderiv profile` on the committed fixture clouds, recorded
# before the scan was vectorised over the radius array; the Manhattan and
# Chebyshev ones before the loc column took one quotient block per group of
# centres
GOLDEN = {
    ("cloud2d", "4", "euclidean"): (
        "a85e462c5f44930f128498f12d9223a863db0608d4b0e5067be941ca0428af9e",
        "ef4a776c1dab4226bcd17a19e61aebad4ed5738fafcbc4dd56cf1fe43f690d34"),
    ("cloud2d", "4", "manhattan"): (
        "fc9e0657f8516b767e860dcf583d90fd76af6420fb9320a5558fb1631e898c88",
        "95771bc3cd85d2998544803353e1f62fcc24a9edf5e3d1fdd0328ed3482a8fc3"),
    ("cloud2d", "4", "chebyshev"): (
        "2404a30a3c4ac0863d36919356a352721b826ecee0ec9a131c7b997e39264756",
        "410491f67a2bce7d23c4f71751878dd651fed6fc14df4cbf55e028351a2916cb"),
    ("line1d", "7", "euclidean"): (
        "f73fefecedad32cf5b01e3c4f3eb2780511531bac3c7a79034b28fd05f0ef6b6",
        "d33600c7b800d02b595b92b30128f5e200d202158eadaeabe603ea8c436ef527"),
}


@pytest.mark.parametrize("cloud, steps, metric", [
    pytest.param(*key, id="-".join(key[:2] if key[2] == "euclidean" else key))
    for key in sorted(GOLDEN)])
def test_profile_golden_digests(tmp_path, cloud, steps, metric):
    out = tmp_path / "profile.csv"
    assert main(["profile", "--input", os.path.join(DATA, f"{cloud}.csv"),
                 "--metric", metric, "--rmax", "0.25", "--q", "0.5",
                 "--steps", steps, "--tail", "3", "--out", str(out)]) == 0
    digests = tuple(hashlib.sha256(path.read_bytes()).hexdigest()
                    for path in (out, tmp_path / "profile.summary.csv"))
    assert digests == GOLDEN[(cloud, steps, metric)]

# the same for perfbench's 1,200-point cloud at seed 7, job 0, recorded
# before each member read its largest ball through row bounds
GOLDEN_BENCHMARK_SCALE = (
    "e57e891bad3a0fa8ca949cf346ea367c74fc966ba830ab24b9b5628b4696709b",
    "f6537296198956e0398b400687fff8b65d5b4da183c4854104745fb53003993d")


def test_profile_golden_digest_at_benchmark_scale(tmp_path):
    # 1,200 points in the unit square: about 12 loc groups of about 100
    # members, whose largest balls hold about 190 points, where the
    # fixture cloud's hold about 30
    rng = np.random.default_rng([7, 0])
    xy = rng.uniform(0.0, 1.0, size=(1200, 2))
    x, y = xy[:, 0], xy[:, 1]
    val = np.sin(3.0 * x) * np.cos(2.0 * y) + np.abs(x - 0.5)
    src = tmp_path / "cloud.csv"
    src.write_text("id,x1,x2,val\n" + "".join(
        f"p{i:05d},{a!r},{b!r},{v!r}\n"
        for i, (a, b, v) in enumerate(zip(x.tolist(), y.tolist(),
                                          val.tolist()))))
    out = tmp_path / "profile.csv"
    assert main(["profile", "--input", str(src), "--rmax", "0.25",
                 "--q", "0.5", "--steps", "5", "--tail", "3",
                 "--out", str(out)]) == 0
    digests = tuple(hashlib.sha256(path.read_bytes()).hexdigest()
                    for path in (out, tmp_path / "profile.summary.csv"))
    assert digests == GOLDEN_BENCHMARK_SCALE
