"""``lipderiv profile`` split into slabs of points on forked workers.

Off a line, ``profile`` cuts the points into one slab per usable CPU along
the first coordinate.  Each forked child profiles its slab and formats its
rows, and the parent puts the rows back in point order and writes them in
chunks.  Both files must equal, byte for byte, the one-CPU run and a
reference that formats every row with ``csv.writer`` into one string.  The
forked path is forced by setting ``workers.usable_cpus`` to 2 or 3, so it
runs on a one-CPU machine too, and no child may outlive a test.
"""
import csv
import io
import os

import numpy as np
import pytest

from lipderiv import RadiusGrid, ScaleProfile, scale_profile
from lipderiv import cli, scales, workers
from lipderiv import io as lio
from lipderiv.scales import PointSummary

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="the platform cannot fork")

GRID = RadiusGrid(0.6, 0.5, 4, 3)

METRICS = {1.0: "manhattan", 2.0: "euclidean", np.inf: "chebyshev"}


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


def cloud(seed, n, dim, width=None):
    """``(ids, coords, values)`` on a coarse lattice, so that distances tie
    and some points coincide; values of ``width`` (None: real) are a
    function of the coordinates, so coincident points share them."""
    rng = np.random.default_rng(seed)
    coords = rng.integers(0, 6, size=(n, dim)) * 0.25
    w = rng.normal(size=(dim,) if width is None else (dim, width))
    return [f"p{i}" for i in range(n)], coords, np.sin(coords @ w)


def write_input(tmp_path, data, name="in.csv"):
    path = str(tmp_path / name)
    lio.save_point_cloud(path, *data)
    return path


def profile_argv(src, out, *flags, rmax="0.6", steps="4"):
    return ["profile", "--input", src, "--rmax", rmax, "--q", "0.5",
            "--steps", steps, "--tail", "3", "--out", str(out), *flags]


def run_profile(monkeypatch, tmp_path, src, cpus, *flags):
    """The bytes of the profile and the summary that ``profile`` writes on
    ``cpus`` usable CPUs."""
    monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
    out = tmp_path / f"cpus{cpus}.csv"
    assert cli.main(profile_argv(src, out, *flags)) == 0
    return (out.read_bytes(),
            (tmp_path / f"cpus{cpus}.summary.csv").read_bytes())


def one_string(profile):
    """The profile and summary bytes as one ``csv.writer`` row of formatted
    cells per (point, radius), and per point, each file one string."""
    texts = []
    for header, rows in (
            (["point", "radius", *lio.PROFILE_COLUMNS],
             ([lio.fmt_id(x), lio.fmt_float(r)]
              + [lio.fmt_float(profile.table[c][p, k])
                 for c in lio.PROFILE_COLUMNS]
              for p, x in enumerate(profile.points)
              for k, r in enumerate(profile.radii))),
            (["point", "lip_hat", "big_hat", "loc_hat", "unresolved",
              "divergent"],
             ([lio.fmt_id(s.point), lio.fmt_float(s.lip_hat),
               lio.fmt_float(s.big_hat), lio.fmt_float(s.loc_hat),
               int(s.unresolved), int(s.divergent)]
              for s in profile.summaries))):
        out = io.StringIO()
        w = csv.writer(out)
        w.writerow(header)
        w.writerows(rows)
        texts.append(out.getvalue().encode())
    return tuple(texts)


def reference(src, metric="euclidean", grid=GRID):
    """``one_string`` of the in-process profile of the input file."""
    return one_string(scale_profile(lio.load_sampled_map(src, metric), grid))


@pytest.mark.parametrize("parts", [2, 3])
@pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
@pytest.mark.parametrize("dim,width", [(2, None), (3, None), (2, 2),
                                       (3, 3)])
def test_forked_profile_equals_in_process(tmp_path, monkeypatch, forks, p,
                                          dim, width, parts):
    src = write_input(tmp_path, cloud(parts * 10 + dim, 70, dim, width))
    metric = ("--metric", METRICS[p])
    want = run_profile(monkeypatch, tmp_path, src, 1, *metric)
    assert forks == []
    assert want == reference(src, METRICS[p])
    affinity = getattr(os, "sched_getaffinity", lambda pid: None)
    before = affinity(0)
    assert run_profile(monkeypatch, tmp_path, src, parts, *metric) == want
    assert len(forks) == parts
    # only the children are pinned
    assert affinity(0) == before


def test_repeated_points_and_more_parts_than_points(tmp_path, monkeypatch,
                                                    forks):
    ids, coords, values = cloud(5, 40, 2)
    # ten copies of each of four points, under their own ids
    coords, values = coords[np.arange(40) % 4], values[np.arange(40) % 4]
    src = write_input(tmp_path, (ids, coords, values))
    want = run_profile(monkeypatch, tmp_path, src, 1)
    assert run_profile(monkeypatch, tmp_path, src, 3) == want
    # two points make at most two slabs
    two = write_input(tmp_path, (ids[:2], coords[:2], values[:2]), "two.csv")
    want = run_profile(monkeypatch, tmp_path, two, 1)
    assert run_profile(monkeypatch, tmp_path, two, 3) == want
    assert len(forks) == 3 + 2


def test_unpinned_where_affinity_cannot_be_set(tmp_path, monkeypatch, forks):
    src = write_input(tmp_path, cloud(6, 50, 2))
    want = reference(src, "chebyshev")
    monkeypatch.delattr(os, "sched_setaffinity", raising=False)
    assert run_profile(monkeypatch, tmp_path, src, 2,
                       "--metric", "chebyshev") == want
    assert len(forks) == 2


def test_a_line_stays_in_process_and_splits_exactly(tmp_path, monkeypatch,
                                                    forks):
    data = cloud(9, 60, 1)
    src = write_input(tmp_path, data)
    assert run_profile(monkeypatch, tmp_path, src, 3) == reference(src)
    assert forks == []
    # the split itself is exact on a line's rows too
    f = lio.load_sampled_map(src)
    whole = scale_profile(f, GRID)
    order = f.domain.coords[:, 0].argsort(kind="stable")
    rows = {}
    for slab in np.array_split(order, 3):
        part = scale_profile(f, GRID, [f.domain.ids[i] for i in slab])
        rows.update(zip(slab.tolist(), lio.profile_rows(part)))
        assert part.summaries == [whole.summaries[i] for i in slab]
    assert [rows[i] for i in range(f.domain.n)] == lio.profile_rows(whole)


def test_one_worker_never_forks(tmp_path, monkeypatch, forks):
    src = write_input(tmp_path, cloud(10, 30, 2))
    run_profile(monkeypatch, tmp_path, src, 1)
    assert forks == []


def planted(monkeypatch):
    """``_loc_table`` raises in the forked children only."""
    parent, loc_table = os.getpid(), scales._loc_table

    def loc(*args):
        if os.getpid() != parent:
            raise RuntimeError("planted")
        return loc_table(*args)

    monkeypatch.setattr(scales, "_loc_table", loc)


def test_a_failing_parent_slab_reaps_its_children(tmp_path, monkeypatch,
                                                  forks):
    src = write_input(tmp_path, cloud(11, 40, 2))
    monkeypatch.setattr(workers, "usable_cpus", lambda: 3)
    planted(monkeypatch)
    assert cli.main(profile_argv(src, tmp_path / "o.csv")) == 3
    assert len(forks) == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv"]


def test_cli_failing_worker_is_an_internal_error(tmp_path, capsys,
                                                 monkeypatch):
    src = write_input(tmp_path, cloud(12, 60, 2))
    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    planted(monkeypatch)
    out = tmp_path / "o.csv"
    assert cli.main(profile_argv(src, out)) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError: planted\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv"]


def test_cli_forked_profile_keeps_bytes_and_stages(tmp_path, capsys,
                                                   monkeypatch, forks):
    rng = np.random.default_rng(12)
    src = write_input(tmp_path, ([f"p{i}" for i in range(60)],
                                 rng.random((60, 2)), rng.random(60)))
    outputs = []
    for n_cpus in (1, 2):
        outputs.append(run_profile(monkeypatch, tmp_path, src, n_cpus,
                                   "--timings"))
        *stages, total = capsys.readouterr().err.splitlines()
        assert [line.split(":")[0] for line in stages] == [
            f"stage {name}" for name in ("load", "scan", "loc", "write")]
        assert total.startswith("total: ")
    assert outputs[0] == outputs[1]
    assert len(forks) == 2


#: ids that need csv quoting: a comma, a quote and an empty id
QUOTED = ["a,b", 'say "hi"', ""]


@pytest.mark.parametrize("n", [0, 1, lio.CHUNK_POINTS + 1])
def test_chunked_writers_equal_one_string(tmp_path, n):
    rng = np.random.default_rng(n)
    ids = (QUOTED + [f"p{i}" for i in range(n)])[:n]
    radii = np.array([0.5, 0.25, 0.125])
    table = {c: rng.standard_normal((n, radii.size)) * 10.0 ** rng.integers(
        -300, 300, (n, radii.size)) for c in lio.PROFILE_COLUMNS}
    table["loc"][:, 0] = np.inf
    summaries = [PointSummary(x, *rng.standard_normal(3),
                              *rng.integers(0, 2, 2).astype(bool))
                 for x in ids]
    profile = ScaleProfile(ids, radii, table, summaries)
    want = one_string(profile)
    lio.save_profile(str(tmp_path / "o.csv"), profile)
    lio.save_summary(str(tmp_path / "s.csv"), profile)
    assert ((tmp_path / "o.csv").read_bytes(),
            (tmp_path / "s.csv").read_bytes()) == want
    # the writer of the forked slabs' rows
    lio.save_rows(str(tmp_path / "r.csv"), lio.PROFILE_HEADER,
                  lio.profile_rows(profile))
    assert (tmp_path / "r.csv").read_bytes() == want[0]


@pytest.mark.parametrize("parts", [1, 2, 3])
def test_slabs_with_quoted_ids_equal_one_string(tmp_path, monkeypatch, forks,
                                                parts):
    ids, coords, values = cloud(13, 50, 2)
    src = write_input(tmp_path, (QUOTED + ids[len(QUOTED):], coords, values))
    assert run_profile(monkeypatch, tmp_path, src, parts) == reference(src)
    assert len(forks) == (parts if parts > 1 else 0)


def test_a_failing_chunk_iterator_keeps_the_old_file(tmp_path):
    path = tmp_path / "o.csv"
    path.write_text("old\n")

    def chunks():
        yield "new,"
        raise RuntimeError("planted")

    with pytest.raises(RuntimeError, match="planted"):
        lio.atomic_write(str(path), chunks())
    assert path.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["o.csv"]
