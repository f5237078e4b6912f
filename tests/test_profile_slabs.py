"""scale_profile split into slabs of points, computed in forked workers.

Off a line, ``scale_profile(..., workers=k)`` cuts the points into k slabs
along the first coordinate, each computed by a forked child.  Every table
entry and every summary must equal the in-process profile bit for bit.
The forked path is forced with 2 and 3 parts, so it runs on a one-CPU
machine too, and no child may outlive a test.
"""
import os

import numpy as np
import pytest

from lipderiv import FiniteMetricSpace, RadiusGrid, SampledMap, scale_profile
from lipderiv import cli, scales, workers

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="the platform cannot fork")

GRID = RadiusGrid(0.6, 0.5, 4, 3)


@pytest.fixture(autouse=True)
def no_child_outlives_the_test():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The number of ``os.fork`` calls made while the test runs."""
    count = []
    fork = os.fork

    def counted():
        count.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return count


def cloud(seed, n, dim, p=2.0, width=None):
    """A map on a coarse lattice, so that distances tie and some points
    coincide (with their own values); vector values of ``width``."""
    rng = np.random.default_rng(seed)
    coords = rng.integers(0, 6, size=(n, dim)) * 0.25
    space = FiniteMetricSpace([f"p{i}" for i in range(n)], coords=coords,
                              p=p)
    if width is None:
        return SampledMap.real(space, rng.normal(size=n))
    return SampledMap.vector(space, rng.normal(size=(n, width)), p=p)


def assert_same_profile(got, want):
    assert got.points == want.points
    assert got.table.keys() == want.table.keys()
    for name, column in want.table.items():
        assert got.table[name].shape == column.shape
        assert got.table[name].tobytes() == column.tobytes(), name
    assert got.summaries == want.summaries


@pytest.mark.parametrize("parts", [2, 3])
@pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
@pytest.mark.parametrize("dim,width", [(2, None), (3, None), (2, 2),
                                       (3, 3)])
def test_forked_profile_equals_in_process(forks, p, dim, width, parts):
    f = cloud(parts * 10 + dim, 70, dim, p, width)
    want = scale_profile(f, GRID)
    assert forks == []
    affinity = getattr(os, "sched_getaffinity", lambda pid: None)
    before = affinity(0)
    assert_same_profile(scale_profile(f, GRID, workers=parts), want)
    assert len(forks) == parts
    # only the children are pinned
    assert affinity(0) == before


def test_repeated_points_and_more_parts_than_points(forks):
    f = cloud(5, 40, 2)
    ids = f.domain.ids
    points = [ids[7], ids[3], ids[7], ids[30], ids[3], ids[0]]
    want = scale_profile(f, GRID, points=points)
    assert_same_profile(scale_profile(f, GRID, points=points, workers=3),
                        want)
    # two points make at most two slabs
    assert_same_profile(scale_profile(f, GRID, points=points[:2], workers=3),
                        scale_profile(f, GRID, points=points[:2]))
    assert len(forks) == 3 + 2


def test_unpinned_where_affinity_cannot_be_set(forks, monkeypatch):
    f = cloud(6, 50, 2, np.inf)
    want = scale_profile(f, GRID)
    monkeypatch.delattr(os, "sched_setaffinity", raising=False)
    assert_same_profile(scale_profile(f, GRID, workers=2), want)
    assert len(forks) == 2


def test_distance_table_splits_in_index_order(forks):
    f = cloud(8, 30, 2, 1.0)
    rows = np.vstack([f.domain.dist_row(i) for i in range(f.domain.n)])
    table = FiniteMetricSpace(f.domain.ids, table=rows)
    g = SampledMap.real(table, f.values)
    assert_same_profile(scale_profile(g, GRID, workers=3),
                        scale_profile(g, GRID))
    assert len(forks) == 3


def test_a_line_stays_in_process_and_splits_exactly(forks):
    f = cloud(9, 60, 1)
    want = scale_profile(f, GRID)
    assert_same_profile(scale_profile(f, GRID, workers=3), want)
    assert forks == []
    # the split itself is exact on a line's columns too
    idx = np.arange(f.domain.n)
    split = scales._forked_columns(f, GRID.radii, idx, 3, {})
    whole = scales._columns(f, GRID.radii, idx, {})
    assert split.keys() == whole.keys()
    for name, column in whole.items():
        assert split[name].tobytes() == column.tobytes(), name
    assert len(forks) == 3


def test_one_worker_never_forks(forks):
    f = cloud(10, 30, 2)
    scale_profile(f, GRID, workers=1)
    assert forks == []


def planted(monkeypatch):
    """``_loc_table`` raises in the forked children only."""
    parent, loc_table = os.getpid(), scales._loc_table

    def loc(*args):
        if os.getpid() != parent:
            raise RuntimeError("planted")
        return loc_table(*args)

    monkeypatch.setattr(scales, "_loc_table", loc)


def test_a_failing_parent_slab_reaps_its_children(monkeypatch):
    planted(monkeypatch)
    with pytest.raises(RuntimeError, match="planted"):
        scale_profile(cloud(11, 40, 2), GRID, workers=3)


def write_input(tmp_path, n=60):
    rng = np.random.default_rng(12)
    path = tmp_path / "plane.csv"
    rows = ["id,x1,x2,val"] + [f"p{i},{x!r},{y!r},{v!r}" for i, (x, y, v)
                               in enumerate(rng.random((n, 3)).tolist())]
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def profile_argv(src, out, *flags):
    return ["profile", "--input", src, "--rmax", "0.5", "--steps", "3",
            "--out", str(out), *flags]


def test_cli_failing_worker_is_an_internal_error(tmp_path, capsys,
                                                 monkeypatch):
    src = write_input(tmp_path)
    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    planted(monkeypatch)
    out = tmp_path / "o.csv"
    assert cli.main(profile_argv(src, out)) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError: planted\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plane.csv"]


def test_cli_forked_profile_keeps_bytes_and_stages(tmp_path, capsys,
                                                   monkeypatch, forks):
    src = write_input(tmp_path)
    outputs = []
    for n_cpus in (1, 2):
        monkeypatch.setattr(workers, "usable_cpus", lambda: n_cpus)
        out = tmp_path / f"cpus{n_cpus}.csv"
        assert cli.main(profile_argv(src, out, "--timings")) == 0
        outputs.append([out.read_bytes(),
                        (tmp_path / f"cpus{n_cpus}.summary.csv").read_bytes()])
        *stages, total = capsys.readouterr().err.splitlines()
        assert [line.split(":")[0] for line in stages] == [
            f"stage {name}" for name in ("load", "scan", "loc", "write")]
        assert total.startswith("total: ")
    assert outputs[0] == outputs[1]
    assert len(forks) == 2
