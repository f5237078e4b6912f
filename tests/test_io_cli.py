import csv
import io
import json
import logging
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lipderiv import (FiniteMetricSpace, InputError, RadiusGrid, SampledMap,
                      ScalarField, ScaleProfile, scale_profile)
from lipderiv import cli
from lipderiv import io as lio
from lipderiv.cli import main
from lipderiv.harness import CheckResult
from lipderiv.scales import PointSummary


def test_fmt_float():
    assert lio.fmt_float(math.inf) == "inf"
    assert lio.fmt_float(-math.inf) == "-inf"
    assert lio.fmt_float(0.1) == "0.10000000000000001"
    assert lio.parse_float("inf") == math.inf
    with pytest.raises(InputError):
        lio.parse_float("nan")
    with pytest.raises(InputError):
        lio.parse_float("abc")


def test_point_cloud_roundtrip(tmp_path):
    path = str(tmp_path / "cloud.csv")
    coords = np.array([[0.0, 1.0], [2.0, 3.0]])
    lio.save_point_cloud(path, ["p0", "p1"], coords, np.array([5.0, 7.0]))
    ids, got, vals = lio.load_point_cloud(path)
    assert ids == ["p0", "p1"]
    np.testing.assert_array_equal(got, coords)
    np.testing.assert_array_equal(vals, [5.0, 7.0])


def test_point_cloud_vector_values(tmp_path):
    path = str(tmp_path / "cloud.csv")
    lio.save_point_cloud(path, ["a"], [[1.0]], np.array([[2.0, 3.0]]))
    with open(path) as fh:
        assert fh.readline().strip() == "id,x1,val1,val2"
    f = lio.load_sampled_map(path)
    assert f.values.shape == (1, 2)


def test_point_cloud_of_a_flat_line(tmp_path):
    # one coordinate per id, given flat: a line, written as x1
    path = str(tmp_path / "line.csv")
    lio.save_point_cloud(path, ["a", "b", "c"], [0.0, 0.5, 1.0],
                         [1.0, 2.0, 3.0])
    with open(path) as fh:
        assert fh.readline().strip() == "id,x1,val"
    ids, got, vals = lio.load_point_cloud(path)
    assert ids == ["a", "b", "c"]
    np.testing.assert_array_equal(got, [[0.0], [0.5], [1.0]])
    np.testing.assert_array_equal(vals, [1.0, 2.0, 3.0])
    for coords in ([0.0, 0.5], [[0.0], [0.5]], [[[0.0]], [[0.5]], [[1.0]]]):
        with pytest.raises(InputError, match="one coordinate row per id"):
            lio.save_point_cloud(str(tmp_path / "bad.csv"), ["a", "b", "c"],
                                 coords)
    assert not (tmp_path / "bad.csv").exists()


def test_point_cloud_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("foo,bar\n1,2\n")
    with pytest.raises(InputError):
        lio.load_point_cloud(str(p))
    p.write_text("id,x1\np0,1\np0,2\n")
    with pytest.raises(InputError):
        lio.load_point_cloud(str(p))
    p.write_text("id,x1,val\np0,1\n")
    with pytest.raises(InputError):
        lio.load_point_cloud(str(p))
    with pytest.raises(InputError):
        lio.load_point_cloud(str(tmp_path / "missing.csv"))


def test_metric_order():
    assert lio.metric_order("euclidean") == 2.0
    assert lio.metric_order("euclidean-2") == 2.0
    assert lio.metric_order("manhattan") == 1.0
    assert lio.metric_order("chebyshev") == math.inf
    with pytest.raises(InputError):
        lio.metric_order("hamming")
    # any case, and a suffix only when it is the name's own order
    assert lio.metric_order("MANHATTAN-1") == 1.0
    assert lio.metric_order("Chebyshev-INF") == math.inf
    for bad in ("manhattan-2", "chebyshev-2", "euclidean-inf", 2.0, None):
        with pytest.raises(InputError):
            lio.metric_order(bad)


def test_scalar_field_roundtrip(tmp_path):
    sp = FiniteMetricSpace.grid1d(0.0, 1.0, 0.5)
    field = ScalarField(sp, [1.0, math.inf, -2.0])
    path = str(tmp_path / "field.csv")
    lio.save_scalar_field(path, field)
    assert (Path(path).read_bytes()
            == b"id,value\r\n0,1\r\n0.5,inf\r\n1,-2\r\n")


#: ids that need csv quoting: a comma, a quote and an empty id
QUOTED = ["a,b", 'say "hi"', ""]


def one_string(header, rows) -> bytes:
    """``header`` and ``rows`` through one ``csv.writer`` into one string."""
    out = io.StringIO()
    w = csv.writer(out)
    w.writerow(header)
    w.writerows(rows)
    return out.getvalue().encode()


@pytest.fixture
def chunk_counts(monkeypatch):
    """The number of chunks of each ``atomic_write`` call, which must get
    an iterator of chunks, not one joined string."""
    counts, write = [], lio.atomic_write

    def counted(path, chunks):
        assert not isinstance(chunks, str)
        chunks = list(chunks)
        counts.append(len(chunks))
        write(path, chunks)

    monkeypatch.setattr(lio, "atomic_write", counted)
    return counts


@pytest.mark.parametrize("n", [0, 1, lio.CHUNK_POINTS + 1])
@pytest.mark.parametrize("width", [None, 0, 1, 2])
def test_row_writers_equal_one_string(tmp_path, chunk_counts, n, width):
    """The point cloud (no values, 1-d values, one and two value columns),
    scalar field and set flag writers give the bytes of one ``csv.writer``
    string, in chunks of ``CHUNK_POINTS`` points."""
    rng = np.random.default_rng(n)
    ids = (QUOTED + [f"p{i}" for i in range(n)])[:n]
    coords = rng.standard_normal((n, 2)) * 10.0 ** rng.integers(-300, 300,
                                                                (n, 2))
    values = rng.standard_normal((n, width) if width else n)
    values.reshape(-1)[:2] = [np.inf, -np.inf][:values.size]
    values = None if width == 0 else values
    header = ["id", "x1", "x2"] + ({None: ["val"], 0: [], 1: ["val1"],
                                    2: ["val1", "val2"]}[width])
    rows = [[lio.fmt_id(x)] + [lio.fmt_float(c) for c in coords[i]]
            + ([] if values is None
               else [lio.fmt_float(v) for v in np.atleast_1d(values[i])])
            for i, x in enumerate(ids)]
    path = tmp_path / "cloud.csv"
    lio.save_point_cloud(str(path), ids, coords, values)
    assert path.read_bytes() == one_string(header, rows)
    chunks = 1 + -(-n // lio.CHUNK_POINTS)
    assert chunk_counts == [chunks]
    if width is not None:
        return
    field = ScalarField(FiniteMetricSpace(ids, coords=coords), values)
    lio.save_scalar_field(str(path), field)
    assert path.read_bytes() == one_string(
        ["id", "value"], [[lio.fmt_id(x), lio.fmt_float(v)]
                          for x, v in zip(ids, values)])
    # estimates on both sides of gamma, at it and infinite
    gamma = 0.5
    hats = rng.choice([-np.inf, 0.0, gamma, 1.0, np.inf], (n, 3))
    summaries = [PointSummary(x, *h, False, False)
                 for x, h in zip(ids, hats)]
    lio.save_set_flags(str(path), summaries, gamma)
    assert path.read_bytes() == one_string(
        ["point", "lip_le_gamma", "big_le_gamma", "loc_le_gamma",
         "lip_gt_gamma", "big_gt_gamma", "loc_gt_gamma"],
        [[lio.fmt_id(x)] + [int(v <= gamma) for v in h]
         + [int(v > gamma) for v in h] for x, h in zip(ids, hats)])
    assert chunk_counts == [chunks] * 3


def profile_fixture():
    sp = FiniteMetricSpace.grid1d(0.0, 1.0, 0.25)
    f = SampledMap.real(sp, [abs(x - 0.5) for x in sp.ids])
    return scale_profile(f, RadiusGrid(0.6, 0.5, 3, 2))


def test_profile_csv_schema(tmp_path):
    prof = profile_fixture()
    path = str(tmp_path / "prof.csv")
    lio.save_profile(path, prof)
    lines = Path(path).read_text().splitlines()
    assert lines[0] == ("point,radius,lip_upper,lip_upper_closed,"
                        "big_below,little_below,loc")
    assert len(lines) == 1 + len(prof.points) * len(prof.radii)
    spath = str(tmp_path / "summary.csv")
    lio.save_summary(spath, prof)
    header = Path(spath).read_text().splitlines()[0]
    assert header == "point,lip_hat,big_hat,loc_hat,unresolved,divergent"


def fmt_float_by_cases(x):
    """17 significant digits, with the infinities spelled out by hand."""
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return "%.17g" % x


def save_profile_by_rows(path, profile):
    """The profile writer as one ``csv.writer`` row of formatted cells per
    (point, radius): the reference for ``save_profile``'s bytes."""
    out = io.StringIO()
    w = csv.writer(out)
    w.writerow(["point", "radius"] + list(lio.PROFILE_COLUMNS))
    for pi, point in enumerate(profile.points):
        for ri, r in enumerate(profile.radii):
            w.writerow([lio.fmt_id(point), fmt_float_by_cases(r)]
                       + [fmt_float_by_cases(profile.table[c][pi, ri])
                          for c in lio.PROFILE_COLUMNS])
    lio.atomic_write(path, out.getvalue())


def assert_profile_bytes(tmp_path, profile):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    lio.save_profile(str(got), profile)
    save_profile_by_rows(str(want), profile)
    assert got.read_bytes() == want.read_bytes()


#: ids that need quoting, an empty id, tuple and float ids
QUOTED_IDS = ["a,b", 'say "hi"', "", "two\nlines", "cr\r", " pad ", "p0",
              (0.5, -math.inf, 1e-300), (-0.0,), 0.1]


def test_profile_writer_matches_csv_rows(tmp_path):
    rng = np.random.default_rng(0)
    radii = np.array([0.25, 0.1, 5e-324, 1e308])
    shape = (len(QUOTED_IDS), radii.size)
    table = {c: rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300,
                                                                   shape)
             for c in lio.PROFILE_COLUMNS}
    planted = np.array([math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
                        1e308, -1e308, 0.1, 1.0 / 3.0])
    for k, c in enumerate(lio.PROFILE_COLUMNS):
        table[c].reshape(-1)[:planted.size] = np.roll(planted, k)
    prof = ScaleProfile(QUOTED_IDS, radii, table)
    assert_profile_bytes(tmp_path, prof)
    text = (tmp_path / "got.csv").read_bytes().decode()
    for cell in ("inf", "-inf", "-0", "4.9406564584124654e-324", "1e+308"):
        assert f",{cell}," in text or f",{cell}\r\n" in text, cell
    assert '\r\n"a,b",0.25,' in text and '\r\n"say ""hi""",' in text
    assert "\r\n,0.25," in text


CELL = st.one_of(st.floats(allow_nan=False),
                 st.sampled_from([math.inf, -math.inf, -0.0, 5e-324]))


@given(st.lists(st.one_of(st.text(alphabet='ab,"\r\n ;'),
                          st.tuples(CELL, CELL)),
                min_size=0, max_size=4, unique=True),
       st.lists(st.floats(1e-300, 1e300), min_size=1, max_size=3),
       st.data())
@settings(max_examples=100, deadline=None)
def test_profile_writer_matches_csv_rows_on_any_cells(tmp_path_factory, ids,
                                                      radii, data):
    shape = (len(ids), len(radii))
    table = {c: np.array(data.draw(st.lists(CELL, min_size=shape[0] * shape[1],
                                            max_size=shape[0] * shape[1])),
                         dtype=float).reshape(shape)
             for c in lio.PROFILE_COLUMNS}
    prof = ScaleProfile(ids, np.array(radii), table)
    assert_profile_bytes(tmp_path_factory.mktemp("writer"), prof)


def test_set_flags_csv(tmp_path):
    prof = profile_fixture()
    path = str(tmp_path / "sets.csv")
    lio.save_set_flags(path, prof.summaries, 0.5)
    rows = Path(path).read_text().splitlines()
    assert rows[0].startswith("point,lip_le_gamma")
    # flags are complementary 0/1 per estimate
    for row in rows[1:]:
        cells = row.split(",")[1:]
        assert [int(c) for c in cells[:3]] == [1 - int(c) for c in cells[3:]]


# CLI ------------------------------------------------------------------------


def write_cloud(tmp_path):
    path = str(tmp_path / "in.csv")
    xs = np.linspace(-1, 1, 41)
    lio.save_point_cloud(path, [f"p{i}" for i in range(41)], xs[:, None],
                         np.abs(xs))
    return path


def test_cli_profile(tmp_path, capsys):
    src = write_cloud(tmp_path)
    out = str(tmp_path / "prof.csv")
    code = main(["profile", "--input", src, "--rmax", "0.5", "--steps", "4",
                 "--out", out])
    assert code == 0
    lines = Path(out).read_text().splitlines()
    assert len(lines) == 1 + 41 * 4
    assert (tmp_path / "prof.summary.csv").exists()


def test_cli_profile_missing_input(tmp_path, capsys):
    code = main(["profile", "--input", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_cli_envelope(tmp_path):
    src = write_cloud(tmp_path)
    out = str(tmp_path / "env.csv")
    assert main(["envelope", "--input", src, "--h", "0.2",
                 "--out", out]) == 0
    assert (tmp_path / "env.lower.csv").exists()
    # h at or below the input resolution is a config error
    assert main(["envelope", "--input", src, "--h", "0.01",
                 "--out", out]) == 2


def test_cli_sets_requires_gamma(tmp_path):
    src = write_cloud(tmp_path)
    out = str(tmp_path / "sets.csv")
    assert main(["sets", "--input", src, "--out", out]) == 2
    assert main(["sets", "--input", src, "--gamma", "0.5", "--rmax", "0.3",
                 "--out", out]) == 0
    assert Path(out).read_text().startswith("point,")


def test_cli_zoo_export(tmp_path):
    out = str(tmp_path / "zoo.csv")
    assert main(["zoo", "export", "--entry", "abs", "--resolution", "0.1",
                 "--out", out]) == 0
    ids, coords, vals = lio.load_point_cloud(out)
    assert len(ids) == 21
    assert vals is not None
    assert main(["zoo", "export", "--entry", "nope", "--resolution", "0.1",
                 "--out", out]) == 2


def test_report_with_non_finite_numbers_is_strict_json(tmp_path):
    results = [CheckResult("x", "fail", discrepancy=math.inf,
                           tolerance=np.float64(math.nan),
                           witness={"value": np.float64(-math.inf),
                                    "radii": np.array([0.5, math.inf]),
                                    "pair": (np.int64(3), -math.inf)})]
    path = tmp_path / "rep.json"
    lio.save_report(str(path), results)

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    check = json.loads(path.read_text(), parse_constant=reject)["checks"][0]
    assert (check["discrepancy"], check["tolerance"]) == ("inf", "nan")
    assert check["witness"] == {"value": "-inf", "radii": [0.5, "inf"],
                                "pair": [3, "-inf"]}


def test_cli_check_exit_codes(tmp_path, capsys):
    report = str(tmp_path / "rep.json")
    assert main(["check", "--suite", "bhmv", "--report", report]) == 0
    doc = json.loads(Path(report).read_text())
    assert doc["overall"] == "pass"
    assert {c["name"] for c in doc["checks"]} == {
        "bhmv/empty", "bhmv/full", "bhmv/two_blocks"}
    out = capsys.readouterr().out
    assert "overall: pass" in out
    # injected fault must flip the exit code
    assert main(["check", "--suite", "chain", "--random-spaces", "2",
                 "--zoo-resolution", "0.05", "--inject-fault", "chain"]) == 1
    assert main(["check", "--suite", "doesnotexist"]) == 2
    assert main(["check", "--suite", "openness", "--random-spaces", "2",
                 "--zoo-resolution", "0.05", "--inject-fault",
                 "openness"]) == 1


def test_cli_internal_error_is_one_line_and_exit_3(monkeypatch, capsys):
    def crash(args):
        raise ZeroDivisionError("planted\nin check")

    monkeypatch.setattr(cli, "cmd_check", crash)
    assert main(["check", "--suite", "bhmv"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: ZeroDivisionError: planted in check\n"
    assert main(["-v", "check", "--suite", "bhmv"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last):\n")
    assert "in crash" in err
    assert err.endswith("\ninternal error: ZeroDivisionError: planted in "
                        "check\n")


@pytest.mark.parametrize("verbose", [[], ["-v"]])
def test_cli_input_error_and_failing_check_keep_their_codes(
        monkeypatch, capsys, verbose):
    assert main(verbose + ["check", "--suite", "chain", "--random-spaces",
                           "2", "--zoo-resolution", "0.05",
                           "--inject-fault", "chain"]) == 1
    assert "internal error" not in capsys.readouterr().err

    def refuse(args):
        raise InputError("planted")

    monkeypatch.setattr(cli, "cmd_check", refuse)
    assert main(verbose + ["check"]) == 2
    assert capsys.readouterr().err == "error: planted\n"


def test_cli_check_timings(tmp_path, capsys):
    suites = ["bhmv", "frechet", "separation"]
    runs = []
    for flags in ([], ["--timings"]):
        report = tmp_path / f"rep{len(flags)}.json"
        assert main(["check", "--suite", ",".join(suites), "--seed", "3",
                     "--random-spaces", "2", "--report", str(report)]
                    + flags) == 0
        captured = capsys.readouterr()
        runs.append((captured.out, report.read_bytes(), captured.err))
    (table, report, quiet), (timed_table, timed_report, timings) = runs
    assert (timed_table, timed_report) == (table, report)
    assert quiet == ""
    *per_suite, total = timings.splitlines()
    assert sorted(line.split(":")[0] for line in per_suite) == [
        f"suite {name}" for name in sorted(suites)]
    assert total.startswith("total: ")
    assert logging.getLogger("lipderiv").handlers == []


@pytest.mark.parametrize("command, outputs", [
    (["profile"], ("o.csv", "o.summary.csv")),
    (["sets", "--gamma", "1"], ("o.csv",)),
])
def test_cli_stage_timings(tmp_path, capsys, command, outputs):
    # a 2-d cloud and a line: the grouped and the 1-d loc paths
    rng = np.random.default_rng(4)
    plane = str(tmp_path / "plane.csv")
    lio.save_point_cloud(plane, [f"p{i}" for i in range(60)],
                         rng.random((60, 2)), rng.random(60))
    for src in (plane, write_cloud(tmp_path)):
        runs = []
        for flags in ([], ["--timings"]):
            run = tmp_path / f"run{len(flags)}"
            run.mkdir(exist_ok=True)
            assert main(command + ["--input", src, "--rmax", "0.5",
                                   "--steps", "3", "--out",
                                   str(run / "o.csv")] + flags) == 0
            captured = capsys.readouterr()
            runs.append(([(run / name).read_bytes() for name in outputs],
                         captured.out, captured.err))
        (files, out, quiet), (timed_files, timed_out, timings) = runs
        assert (timed_files, timed_out) == (files, out)
        assert quiet == ""
        *stages, total = timings.splitlines()
        assert [line.split(":")[0] for line in stages] == [
            f"stage {name}" for name in ("load", "scan", "loc", "write")]
        assert total.startswith("total: ")
        assert logging.getLogger("lipderiv").handlers == []


def test_cli_refuses_a_grid_longer_than_a_block(tmp_path, capsys,
                                                 monkeypatch):
    # q just below 1 keeps the smallest radius positive, so only the bound
    # on steps stops a grid of 8 TB; nothing is loaded or computed
    import tracemalloc
    monkeypatch.setattr(cli, "scale_profile", refuse)
    monkeypatch.setattr(lio, "load_sampled_map", refuse)
    tracemalloc.start()
    try:
        code = main(["profile", "--input", write_cloud(tmp_path), "--rmax",
                     "0.5", "--q", "0.9999999999999999", "--steps",
                     str(10**12), "--out", str(tmp_path / "o.csv")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "steps too large" in capsys.readouterr().err
    assert peak < 1 << 20
    assert not (tmp_path / "o.csv").exists()


def test_cli_config_file_and_override(tmp_path):
    src = write_cloud(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rmax": 0.5, "steps": 2}))
    out = str(tmp_path / "prof.csv")
    # config supplies rmax/steps; the flag overrides steps
    assert main(["--config", str(cfg), "profile", "--input", src,
                 "--steps", "3", "--out", out]) == 0
    lines = Path(out).read_text().splitlines()
    assert len(lines) == 1 + 41 * 3
    radii = {row.split(",")[1] for row in lines[1:]}
    assert lio.fmt_float(0.5) in radii
    bad = tmp_path / "bad.json"
    bad.write_text("[1,2]")
    assert main(["--config", str(bad), "profile", "--input", src,
                 "--out", out]) == 2


def profile_bytes(tmp_path, name, args, config=None):
    """The profile CSV of ``write_cloud`` under ``args`` and an optional
    config object, or None when the run exits 2."""
    argv = ["profile", "--input", write_cloud(tmp_path), "--rmax", "0.5"]
    if config is not None:
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(config))
        argv = ["--config", str(cfg)] + argv
    out = tmp_path / f"{name}.csv"
    code = main(argv + args + ["--out", str(out)])
    assert code in (0, 2)
    assert out.exists() == (code == 0)
    return out.read_bytes() if code == 0 else None


@pytest.mark.parametrize("metric", ["manhattan-2", "euclidean-1",
                                    "chebyshev-2", "euclidean-", "-2",
                                    "euclidean-2-2", "manhattan-1.0"])
def test_cli_metric_suffix_other_than_its_order(tmp_path, capsys, metric):
    assert profile_bytes(tmp_path, "out", ["--metric", metric]) is None
    assert "unknown metric" in capsys.readouterr().err


@pytest.mark.parametrize("value", [2, 2.0, None, True, ["euclidean"],
                                   {"euclidean": 2}])
def test_cli_config_metric_not_a_string(tmp_path, capsys, value):
    assert profile_bytes(tmp_path, "out", [], {"metric": value}) is None
    assert "unknown metric" in capsys.readouterr().err


@pytest.mark.parametrize("config", [
    {"steps": True, "tail": 1}, {"steps": False}, {"steps": 2.7},
    {"tail": True}, {"tail": 1.5}, {"steps": math.inf}, {"steps": math.nan},
    {"steps": "2.7"},
])
def test_cli_config_integer_options_not_coerced(tmp_path, capsys, config):
    assert profile_bytes(tmp_path, "out", [], config) is None
    assert "bad value for" in capsys.readouterr().err


@pytest.mark.parametrize("config", [{"seed": True}, {"seed": 7.5},
                                    {"random_spaces": False},
                                    {"random_spaces": 2.5}])
def test_cli_check_config_integer_options_not_coerced(tmp_path, capsys,
                                                      config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(config, suite="bhmv")))
    report = tmp_path / "report.json"
    assert main(["--config", str(cfg), "check", "--report",
                 str(report)]) == 2
    assert "bad value for" in capsys.readouterr().err
    assert not report.exists()


def test_cli_config_integral_numbers_and_strings_accepted(tmp_path):
    want = profile_bytes(tmp_path, "flag", ["--steps", "3", "--tail", "2"])
    assert want is not None
    for steps, tail in [(3, 2), (3.0, 2.0), ("3", "2")]:
        assert profile_bytes(tmp_path, "cfg", [],
                             {"steps": steps, "tail": tail}) == want


def test_point_cloud_without_data_rows(tmp_path, capsys):
    p = tmp_path / "header_only.csv"
    p.write_text("id,x1,x2,val\n")
    with pytest.raises(InputError, match="no data rows"):
        lio.load_point_cloud(str(p))
    assert main(["profile", "--input", str(p), "--rmax", "0.5",
                 "--out", str(tmp_path / "o.csv")]) == 2
    assert "no data rows" in capsys.readouterr().err


def test_infinite_values_and_coordinates_rejected():
    with pytest.raises(InputError):
        FiniteMetricSpace([0, 1], coords=[[0.0], [math.inf]])
    space = FiniteMetricSpace.grid1d(0.0, 1.0, 0.5)
    with pytest.raises(InputError):
        SampledMap.real(space, [0.0, math.inf, 1.0])
    with pytest.raises(InputError):
        SampledMap.vector(space, [[0.0, 1.0], [-math.inf, 0.0], [1.0, 1.0]])
    # scalar fields keep their infinite values
    assert ScalarField(space, [0.0, math.inf, -math.inf]).values[1] == math.inf


@pytest.mark.parametrize("suite", [",", "", " , "])
def test_cli_check_empty_suite_selection(tmp_path, capsys, suite):
    report = tmp_path / "rep.json"
    assert main(["check", "--suite", suite, "--report", str(report)]) == 2
    assert "no suite selected" in capsys.readouterr().err
    assert not report.exists()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suite": suite}))
    assert main(["--config", str(cfg), "check"]) == 2


@pytest.mark.parametrize("suite", [["bhmv"], 3, {"bhmv": 1}, None, True])
def test_cli_check_config_suite_not_a_string(tmp_path, capsys, suite):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suite": suite}))
    report = tmp_path / "rep.json"
    assert main(["--config", str(cfg), "check", "--report",
                 str(report)]) == 2
    assert "bad value for suite" in capsys.readouterr().err
    assert not report.exists()
    # a --suite flag overrides the config value
    assert main(["--config", str(cfg), "check", "--suite", "bhmv"]) == 0


def refuse_to_run(monkeypatch):
    """Make every input read and every suite run fail the test."""
    for module, name in ((cli, "run_suite"), (lio, "load_sampled_map"),
                         (lio, "_read_rows")):
        monkeypatch.setattr(module, name, refuse)


@pytest.mark.parametrize("key,argv", [
    # 0 would name standard input (fd 0), and 5 or 1 an open descriptor
    ("input", ["profile", "--rmax", "0.5", "--out", "{out}"]),
    ("out", ["profile", "--input", "{src}", "--rmax", "0.5"]),
    ("report", ["check", "--suite", "bhmv"]),
], ids=["input", "out", "report"])
@pytest.mark.parametrize("value", [0, 5, 1.5, True, ["o.csv"]])
def test_cli_config_path_not_a_string(tmp_path, capsys, monkeypatch, key,
                                      argv, value):
    src = write_cloud(tmp_path)
    refuse_to_run(monkeypatch)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    out = tmp_path / "o.csv"
    argv = [a.format(src=src, out=out) for a in argv]
    assert main(["--config", str(cfg)] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"bad value for {key}: {value!r} (expected a path)" in captured.err
    assert not out.exists()


def test_cli_check_config_inject_fault_is_validated(tmp_path, capsys,
                                                    monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"inject_fault": "openness"}))
    # a known name from the config forces its failure, as the flag does
    assert main(["--config", str(cfg), "check", "--suite", "openness",
                 "--random-spaces", "2", "--zoo-resolution", "0.05"]) == 1
    capsys.readouterr()
    refuse_to_run(monkeypatch)
    for value in ("bogus", "Chain", "", 1, ["chain"]):
        cfg.write_text(json.dumps({"inject_fault": value}))
        assert main(["--config", str(cfg), "check", "--suite",
                     "chain"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"bad value for inject_fault: {value!r} (expected one of "
                "chain, openness)") in captured.err
    # the flag takes the same choices
    with pytest.raises(SystemExit) as exc:
        main(["check", "--suite", "chain", "--inject-fault", "bogus"])
    assert exc.value.code == 2
    assert cli.build_parser().parse_args(
        ["check", "--inject-fault", "openness"]).inject_fault == "openness"


def test_cli_check_negative_random_spaces(capsys):
    assert main(["check", "--suite", "oracle_equiv",
                 "--random-spaces", "-1"]) == 2
    assert "random_spaces" in capsys.readouterr().err


@pytest.mark.parametrize("how", ["flag", "config"])
def test_cli_check_negative_seed(tmp_path, capsys, monkeypatch, how):
    """A negative seed is an input error before the zoo is built or any
    suite runs, not numpy's ``ValueError`` from inside a suite."""
    def no_zoo(resolution):
        raise AssertionError("the zoo was built")

    monkeypatch.setattr("lipderiv.harness.make_zoo", no_zoo)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": -1}))
    report = tmp_path / "report.json"
    argv = (["check", "--seed", "-1"] if how == "flag"
            else ["--config", str(cfg), "check"])
    assert main(argv + ["--suite", "bhmv", "--report", str(report)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: seed must be >= 0\n"
    assert captured.out == ""
    assert not report.exists()


def test_coincident_points_with_different_values(tmp_path, capsys):
    p = tmp_path / "clash.csv"
    p.write_text("id,x1,x2,val\na,0,0,0\nc,1,0,0\nb,0,0,1\n")
    with pytest.raises(InputError, match="'a' and 'b'"):
        lio.load_sampled_map(str(p))
    out = str(tmp_path / "o.csv")
    assert main(["profile", "--input", str(p), "--rmax", "0.5",
                 "--out", out]) == 2
    err = capsys.readouterr().err
    assert "'a'" in err and "'b'" in err
    assert main(["sets", "--input", str(p), "--rmax", "0.5", "--gamma", "1",
                 "--out", out]) == 2
    # vector values clash when any component differs
    v = tmp_path / "clash_vec.csv"
    v.write_text("id,x1,val1,val2\na,0,0,0\nb,0,0,1\n")
    with pytest.raises(InputError, match="'a' and 'b'"):
        lio.load_sampled_map(str(v))


def test_coincident_points_with_equal_values(tmp_path):
    p = tmp_path / "repeat.csv"
    p.write_text("id,x1,x2,val\na,0,0,2\nc,1,0,0\nb,-0.0,0,2\n")
    out = tmp_path / "o.csv"
    assert main(["profile", "--input", str(p), "--rmax", "0.5",
                 "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 3 * 8


@pytest.mark.parametrize("args, message", [
    (["profile", "--rmax", "nan"], "r_max"),
    (["profile", "--rmax", "inf"], "r_max"),
    (["sets", "--rmax", "0.3", "--gamma", "nan"], "gamma"),
    (["sets", "--rmax", "0.3", "--gamma", "inf"], "gamma"),
    (["sets", "--rmax", "0.3", "--gamma=-inf"], "gamma"),
    (["envelope", "--h", "nan"], "envelope scale"),
    (["envelope", "--h", "inf"], "envelope scale"),
])
def test_cli_non_finite_options(tmp_path, capsys, args, message):
    src = write_cloud(tmp_path)
    out = tmp_path / "out.csv"
    assert main(args + ["--input", src, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["zoo", "export", "--entry", "sin", "--resolution", "nan"],
    ["zoo", "export", "--entry", "sin", "--resolution", "inf"],
    ["check", "--suite", "bhmv", "--zoo-resolution", "nan"],
    ["check", "--suite", "bhmv", "--zoo-resolution", "inf"],
])
def test_cli_non_finite_resolution(tmp_path, capsys, args):
    out = tmp_path / "out.csv"
    if args[0] == "zoo":
        args = args + ["--out", str(out)]
    assert main(args) == 2
    assert "resolution must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


def test_cli_unwritable_output(tmp_path, capsys):
    src = write_cloud(tmp_path)
    missing = tmp_path / "no" / "such" / "dir"
    assert main(["profile", "--input", src, "--rmax", "0.5",
                 "--out", str(missing / "o.csv")]) == 2
    assert f"cannot write {missing / 'o.csv'}" in capsys.readouterr().err
    assert main(["check", "--suite", "bhmv",
                 "--report", str(missing / "r.json")]) == 2
    assert "cannot write" in capsys.readouterr().err
    # a directory in place of the file: the rename fails, the temporary
    # file is removed
    assert main(["profile", "--input", src, "--rmax", "0.5",
                 "--out", str(tmp_path)]) == 2
    assert "cannot write" in capsys.readouterr().err
    assert not list(tmp_path.glob(".tmp-*"))


def refuse(*args):
    raise AssertionError("computed before the inputs were checked")


@pytest.mark.parametrize("args", [
    ["check", "--suite", "bhmv", "--report", "{missing}/r.json"],
    ["profile", "--input", "{src}", "--out", "{missing}/o.csv"],
    ["sets", "--input", "{src}", "--gamma", "1", "--out", "{missing}/o.csv"],
    ["sets", "--input", "{src}", "--gamma", "1", "--out", "{file}/o.csv"],
    ["envelope", "--input", "{src}", "--h", "0.2", "--out",
     "{missing}/o.csv"],
    ["zoo", "export", "--entry", "sin", "--resolution", "0.1", "--out",
     "{missing}/o.csv"],
    ["sets", "--input", "{src}", "--gamma", "nan", "--out", "{out}"],
    ["sets", "--input", "{src}", "--gamma", "inf", "--out", "{out}"],
    ["envelope", "--input", "{src}", "--h", "nan", "--out", "{out}"],
    ["envelope", "--input", "{src}", "--h", "inf", "--out", "{out}"],
    ["envelope", "--input", "{src}", "--h", "0", "--out", "{out}"],
    # a grid too long to allocate is refused before its radii exist
    ["profile", "--input", "{src}", "--rmax", "0.5", "--steps",
     "1000000000000000000", "--out", "{out}"],
    ["sets", "--input", "{src}", "--gamma", "1", "--rmax", "0.5", "--steps",
     "1000000000000000000", "--out", "{out}"],
])
def test_cli_fails_before_computing(tmp_path, capsys, monkeypatch, args):
    for name in ("run_suite", "scale_profile", "scale_summaries",
                 "baire_upper", "make_entry"):
        monkeypatch.setattr(cli, name, refuse)
    monkeypatch.setattr(lio, "load_sampled_map", refuse)
    monkeypatch.setattr(lio, "load_point_cloud", refuse)
    src = write_cloud(tmp_path)
    names = dict(src=src, missing=tmp_path / "no" / "dir", file=src,
                 out=tmp_path / "o.csv")
    assert main([a.format(**names) for a in args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("cannot write" in captured.err
            or "gamma must be finite" in captured.err
            or "h must be positive and finite" in captured.err
            or "underflows" in captured.err)
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("command", [["profile"], ["sets", "--gamma", "1"]])
def test_cli_requires_rmax(tmp_path, capsys, monkeypatch, command):
    # r_max has no default: without the flag or a config value the command
    # exits 2 naming it before the input is read, and writes nothing
    src, out = write_cloud(tmp_path), tmp_path / "o.csv"
    argv = command + ["--input", src, "--out", str(out)]
    with monkeypatch.context() as m:
        m.setattr(lio, "load_sampled_map", refuse)
        assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: missing required option --rmax\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rmax": 0.5, "steps": 3}))
    assert main(["--config", str(cfg)] + argv) == 0
    assert out.exists()


def test_check_writable(tmp_path):
    assert lio.check_writable(str(tmp_path / "o.csv")) == str(
        tmp_path / "o.csv")
    (tmp_path / "f").write_text("")
    for parent in (tmp_path / "no", tmp_path / "f"):
        with pytest.raises(InputError, match="no writable directory"):
            lio.check_writable(str(parent / "o.csv"))
