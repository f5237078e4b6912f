import itertools
import json
import math
import re

import numpy as np
import pytest

from lipderiv import (FiniteMetricSpace, InputError, IntervalUnion,
                      LinearMapSpec, RadiusGrid, SampledMap, SuiteConfig,
                      check_bhmv_bound, check_chain, check_envelope_identity,
                      check_frechet, check_gamma_lipschitz, check_level_sets,
                      check_lipnorm_identity, check_openness_surrogate,
                      check_plus_variant, check_scale_oracles,
                      check_semicontinuity_fields, check_setclass_exhaustive,
                      check_summary_ordering, get_entry, lip_norm,
                      make_entry, make_zoo, nearest_scale_infimum,
                      overall_ok, run_suite)
from lipderiv import harness
from lipderiv.harness import random_map, random_space
from lipderiv.io import report_document


def sin_map(res=0.01):
    return get_entry(make_zoo(res), "sin").map


@pytest.mark.parametrize("gaps, want", [
    ([1.0, 3.0, 3.0, 2.0], (3.0, (1,))),             # ties: the first
    ([0.0, np.inf, np.nan], (np.inf, (1,))),         # NaN after an inf
    ([-1.0, np.nan], (np.inf, (1,))),                # NaN alone
    ([], (0.0, None)),
    ([[0.0, -2.0], [5.0, 5.0]], (5.0, (1, 0))),      # 2-d: unravelled
])
def test_worst_gap(gaps, want):
    worst, at = harness._worst(np.array(gaps, dtype=float))
    assert (worst, None if at is None else tuple(map(int, at))) == want


def test_chain_exact_zero():
    r = check_chain(sin_map(), RadiusGrid(0.3, 0.5, 4, 2))
    assert r.status == "pass"
    assert r.discrepancy == 0.0 and r.tolerance == 0.0


def test_chain_fault_injection():
    r = check_chain(sin_map(), RadiusGrid(0.3, 0.5, 4, 2), inject_fault=True)
    assert r.status == "fail"
    assert r.witness is not None and "point" in r.witness


def test_plus_variant_identity():
    rng = np.random.default_rng(5)
    for seed in range(10):
        sp = random_space(np.random.default_rng(seed), 9)
        f = random_map(rng, sp)
        r = check_plus_variant(f, sp.ids[0], 2.0)
        assert r.status in ("pass", "skipped")
        if r.status == "pass":
            assert r.discrepancy <= 1e-12


def test_plus_variant_skips_isolated():
    sp = FiniteMetricSpace(range(2), coords=[[0.0], [5.0]])
    f = SampledMap.real(sp, [0.0, 1.0])
    assert check_plus_variant(f, 0, 1.0).status == "skipped"


def test_frechet_diag():
    r = check_frechet(LinearMapSpec([[2.0, 0.0], [0.0, 1.0]]), (0.0, 0.0),
                      1e-2)
    assert r.status == "pass"
    assert r.witness["operator_norm"] == pytest.approx(2.0)


def test_gamma_lipschitz_directions():
    f = sin_map()
    grid = RadiusGrid(0.1, 0.5, 4, 2)
    r = check_gamma_lipschitz(f, 1.0, grid)
    assert r.status == "pass" and r.detail == "forward+backward"
    # gamma below the true constant: hypothesis fails both ways
    r2 = check_gamma_lipschitz(f, 0.5, grid)
    assert r2.status == "skipped"
    r3 = check_gamma_lipschitz(f, 1.0, grid, convex=False)
    assert r3.status == "skipped"


def test_gamma_forward_exact_at_lip_norm():
    rng = np.random.default_rng(11)
    sp = random_space(rng, 10)
    f = random_map(rng, sp)
    r = check_gamma_lipschitz(f, lip_norm(f), RadiusGrid(1.0, 0.5, 4, 2))
    assert r.status == "pass"
    assert r.discrepancy == 0.0


def test_lipnorm_identity():
    r = check_lipnorm_identity(sin_map(1e-3), RadiusGrid(0.016, 0.5, 3, 2))
    assert r.status == "pass"
    assert r.witness["lip_norm"] == pytest.approx(1.0, abs=1e-4)


def test_bhmv_bound_two_blocks():
    E = IntervalUnion([(0.0, 1.0), (2.0, 3.0)])
    r = check_bhmv_bound(E, (0.0, 3.0), 0.05)
    assert r.status == "pass"
    assert r.tolerance == 1e-12


def _bhmv_by_loops(E, f, resolution, tol=1e-12):
    """(worst gap, witness) of the bhmv check, one pair and one point at a
    time, through the scalar intersect().measure() and
    nearest_scale_infimum."""
    xs = [float(u) for u in f.domain.ids]
    worst, witness = 0.0, None
    for i, j in itertools.combinations(range(len(xs)), 2):
        mu = E.intersect(xs[i], xs[j]).measure()
        gap = abs(abs(f.values[j] - f.values[i]) - mu) - tol
        if gap > worst:
            worst, witness = gap, {"a": xs[i], "b": xs[j], "mu": mu}
    r_small = 2.0 * resolution
    for i, u in enumerate(xs):
        hat = nearest_scale_infimum(f, f.domain.ids[i], r_small)
        dist = E.distance_to(u)
        bound = 1.0 + tol if dist == 0.0 else (
            math.inf if dist <= r_small else tol)
        gap = hat - bound
        if gap > worst:
            worst, witness = gap, {"point": u, "little_hat": hat}
    return worst, witness


@pytest.mark.parametrize("plant", ["none", "pair", "point", "both"])
def test_bhmv_witness_equals_the_loops(monkeypatch, plant):
    """With values planted off the measure function, the vectorised check
    reports the gap and the witness the pair and point loops find first."""
    E = IntervalUnion([(0.0, 1.0), (2.0, 3.0)])
    f = harness.bhmv_map(E, (0.0, 3.0), 0.05)
    values = f.values.copy()
    if plant in ("pair", "both"):
        values *= 0.5               # slopes stay below 1: only pairs fail
    if plant in ("point", "both"):
        values[30:] += 0.5          # a jump at 1.5, far from E
    planted = SampledMap.real(f.domain, values)
    monkeypatch.setattr(harness, "bhmv_map", lambda *args: planted)
    r = check_bhmv_bound(E, (0.0, 3.0), 0.05)
    worst, witness = _bhmv_by_loops(E, planted, 0.05)
    assert r.status == ("pass" if plant == "none" else "fail")
    assert r.discrepancy == worst and r.witness == witness
    if plant == "pair":
        assert set(witness) == {"a", "b", "mu"}


def test_envelope_identity_quadratic():
    f = get_entry(make_zoo(2e-3), "square").map
    r = check_envelope_identity(f, 0.05, 2e-3)
    assert r.status == "pass"
    with pytest.raises(InputError):
        check_envelope_identity(f, 1e-4, 2e-3)


def test_openness_surrogate():
    f = sin_map()
    x0 = f.domain.ids[len(f.domain.ids) // 2]
    r = check_openness_surrogate(f, x0, 0.2, 10.0)
    assert r.status == "pass" and r.discrepancy == 0.0
    fault = check_openness_surrogate(f, x0, 0.2, 10.0, inject_fault=True)
    assert fault.status == "fail" and fault.witness is not None
    # precondition loc < gamma not met
    assert check_openness_surrogate(f, x0, 0.2, 0.0).status == "skipped"
    # an undecided (NaN) precondition fails
    assert check_openness_surrogate(f, x0, 0.2, np.nan).status == "fail"


def test_semicontinuity_skips_and_passes():
    zoo = make_zoo(2e-3)
    ok = check_semicontinuity_fields(get_entry(zoo, "sin"), 0.0999, 0.01)
    assert ok.status == "pass"
    sk = check_semicontinuity_fields(get_entry(zoo, "dyadic_staircase"),
                                     0.0999, 0.01)
    assert sk.status == "skipped"
    with pytest.raises(InputError):
        check_semicontinuity_fields(get_entry(zoo, "sin"), 0.1, 1e-5)


def test_level_sets_ordering_and_localization():
    e = get_entry(make_zoo(1e-3), "sqrt_abs")
    pts = [p for p in e.space.ids if abs(p) <= 0.1]
    r = check_level_sets(e, 25.0, RadiusGrid(0.05, 0.5, 4, 2), points=pts)
    assert r.status == "pass"
    assert r.detail.startswith("localized")


def test_ordering_checks_pass_on_no_points():
    e = make_entry("sin", 0.1)
    grid = RadiusGrid(0.3, 0.5, 3, 2)
    for r in (check_level_sets(e, 1.0, grid, points=[]),
              check_summary_ordering(e.map, grid, points=[])):
        assert r.status == "pass" and r.discrepancy == 0.0


def test_summary_ordering_random():
    rng = np.random.default_rng(2)
    for _ in range(5):
        sp = random_space(rng, 8)
        r = check_summary_ordering(random_map(rng, sp),
                                   RadiusGrid(1.5, 0.5, 4, 2))
        assert r.status == "pass" and r.discrepancy == 0.0


def test_scale_oracles_random():
    rng = np.random.default_rng(9)
    for _ in range(5):
        sp = random_space(rng, 10)
        r = check_scale_oracles(sp, rng.normal(size=10),
                                rng.uniform(0.3, 2.0, size=3))
        assert r.status == "pass", r.witness
        assert r.discrepancy <= 1e-9


def test_setclass_exhaustive_small():
    r = check_setclass_exhaustive(max_ground=3)
    assert r.status == "pass"


def test_setclass_exhaustive_sees_a_one_round_closure(monkeypatch):
    """Every topology is closed already, so only the comparison of the
    closures of general families with their definitions can see a closure
    that takes one round of pairwise operations and stops."""
    def one_round(masks, op):
        return set(masks) | {op(a, b) for a in masks for b in masks}

    monkeypatch.setattr(harness.setclass, "_closure", one_round)
    r = check_setclass_exhaustive(max_ground=3)
    assert r.status == "fail"
    assert all("closure" in f for f in r.witness["failures"])


def test_run_suite_unknown_and_empty():
    with pytest.raises(InputError):
        run_suite(SuiteConfig(suite=("nope",)))
    with pytest.raises(InputError, match="no suite selected"):
        run_suite(SuiteConfig(suite=()))
    with pytest.raises(InputError, match="random_spaces"):
        run_suite(SuiteConfig(suite=("oracle_equiv",), random_spaces=-1))
    assert overall_ok([])


@pytest.mark.parametrize("fault", ["chian", "Chain", "", 1])
def test_run_suite_unknown_fault(fault):
    """A fault name that names no fault would inject nothing, and every
    check would pass."""
    with pytest.raises(InputError, match=(
            f"bad value for inject_fault: {re.escape(repr(fault))} "
            r"\(expected one of chain, openness\)")):
        run_suite(SuiteConfig(suite=("chain",), inject_fault=fault))
    assert harness.FAULTS == ("chain", "openness")


def test_run_suite_negative_seed():
    with pytest.raises(InputError, match="seed must be >= 0"):
        run_suite(SuiteConfig(suite=("oracle_equiv",), seed=-1))


def test_run_suite_deterministic_report():
    cfg = dict(suite=("bhmv", "frechet"), seed=3, random_spaces=3)
    a = run_suite(SuiteConfig(**cfg))
    b = run_suite(SuiteConfig(**cfg))
    assert json.dumps(report_document(a)) == json.dumps(report_document(b))
    assert [r.name for r in a] == sorted(r.name for r in a)


def test_run_suite_fault_injection():
    res = run_suite(SuiteConfig(suite=("chain",), random_spaces=2,
                                inject_fault="chain"))
    assert not overall_ok(res)
    bad = [r for r in res if r.status == "fail"]
    assert all(r.witness is not None for r in bad)


def test_segment_chain_rule_affine():
    from lipderiv import check_segment_chain_rule
    e = get_entry(make_zoo(0.02), "linear_shear")
    slope = np.array([1.0, 2.0])
    f = SampledMap.real(e.space, e.space.coords @ slope)
    r = check_segment_chain_rule(f, lambda u: float(np.asarray(u) @ slope),
                                 e.point_near((-0.4, -0.4)),
                                 e.point_near((0.4, 0.4)), 0.05)
    assert r.status == "pass"
    with pytest.raises(InputError):
        check_segment_chain_rule(f, lambda u: 0.0, e.point_near((0.0, 0.0)),
                                 e.point_near((0.0, 0.0)), 0.05)


def test_segment_chain_skips_where_the_grid_is_coarser_than_the_scale():
    # the 2-d grid step 0.3 exceeds every matched scale r*|b-a| (about
    # 0.05), so each ball of big_lip_below_r would be empty
    res = run_suite(SuiteConfig(suite=("segment_chain",), zoo_resolution=0.3))
    assert [r.status for r in res] == ["skipped"] * 3
    assert all("matched scale" in r.detail for r in res)
    fine = run_suite(SuiteConfig(suite=("segment_chain",)))
    assert [r.status for r in fine] == ["pass"] * 3


def test_check_result_roundtrip():
    r = check_chain(sin_map(), RadiusGrid(0.3, 0.5, 3, 2))
    d = r.to_dict()
    assert d["name"] == "chain" and d["status"] == "pass"
    assert set(d) == {"name", "status", "discrepancy", "tolerance",
                      "witness", "detail"}
