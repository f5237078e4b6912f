import hashlib
import json
import math

import numpy as np
import pytest

from lipderiv import (InputError, RadiusGrid, get_entry, lip_norm, loc_lip_r,
                      make_entry, make_zoo, nearest_scale_infimum,
                      oracle_field, scale_profile)
from lipderiv.zoo import (DYADIC_BIG_AT_ZERO, DYADIC_LITTLE_AT_ZERO,
                          dyadic_staircase, oscillator, oscillator_slope)

ENTRY_NAMES = {
    "constant", "affine_slope3", "sin", "square", "cube", "abs", "sqrt_abs",
    "dyadic_staircase", "oscillator", "linear_diag21", "linear_rotation",
    "linear_shear", "two_point_discrete", "bhmv_measure",
}


@pytest.fixture(scope="module")
def zoo():
    return make_zoo(0.01)


def test_entry_names(zoo):
    assert {e.name for e in zoo} == ENTRY_NAMES
    with pytest.raises(InputError):
        get_entry(zoo, "missing")
    with pytest.raises(InputError):
        make_zoo(0.0)


def test_dyadic_staircase_values():
    assert dyadic_staircase(0.0) == 0.0
    assert dyadic_staircase(0.75) == 0.5
    assert dyadic_staircase(0.5) == 0.5
    assert dyadic_staircase(0.49) == 0.25
    assert dyadic_staircase(-0.3) == 0.25
    assert dyadic_staircase(2.0 ** -30) == 0.0      # truncated near 0


def test_oscillator_slope():
    assert oscillator(0.0) == 0.0
    u = 0.37
    h = 1e-7
    fd = (oscillator(u + h) - oscillator(u - h)) / (2 * h)
    assert fd == pytest.approx(oscillator_slope(u), abs=1e-5)


def test_affine_norm(zoo):
    e = get_entry(zoo, "affine_slope3")
    assert lip_norm(e.map) == pytest.approx(3.0)
    assert e.lip_norm_oracle == 3.0


def test_c1_oracles_track_derivative():
    zoo = make_zoo(1e-3)
    for name in ("sin", "square", "cube"):
        e = get_entry(zoo, name)
        for u in (0.3, 0.7):
            x = e.point_near(u)
            got = nearest_scale_infimum(e.map, x, 0.005)
            assert got == pytest.approx(e.lip_oracle(x), abs=0.02)


def test_abs_fields_constant(zoo):
    e = get_entry(zoo, "abs")
    x = e.point_near(0.0)
    assert e.lip_oracle(x) == 1.0
    assert nearest_scale_infimum(e.map, x, 0.05) == pytest.approx(1.0)
    assert loc_lip_r(e.map, x, 0.05) == pytest.approx(1.0)


def test_sqrt_oracle_infinite_at_origin(zoo):
    e = get_entry(zoo, "sqrt_abs")
    assert e.lip_oracle(0.0) == math.inf
    assert e.Lip_oracle(0.25) == pytest.approx(1.0)
    assert e.meta["infinite_big_set"] == (0.0,)


def test_dyadic_frozen_constants():
    assert DYADIC_LITTLE_AT_ZERO == 0.5
    assert DYADIC_BIG_AT_ZERO == 1.0
    e = get_entry(make_zoo(2.0 ** -10), "dyadic_staircase")
    prof = scale_profile(e.map, RadiusGrid(0.5, 0.5, 3, 2), points=[0.0])
    s = prof.summaries[0]
    assert s.lip_hat == pytest.approx(DYADIC_LITTLE_AT_ZERO, abs=0.05)
    assert s.big_hat == pytest.approx(DYADIC_BIG_AT_ZERO, abs=1e-12)


def test_oscillator_separation_at_origin():
    e = get_entry(make_zoo(5e-4), "oscillator")
    x = e.point_near(0.0)
    assert nearest_scale_infimum(e.map, x, 0.03) <= 0.05
    assert 0.85 <= loc_lip_r(e.map, x, 0.03) <= 1.05
    assert e.LLip_oracle(0.0) == 1.0
    assert e.lip_oracle(0.0) == 0.0


def test_linear_entries_operator_norm(zoo):
    phi = (1 + math.sqrt(5)) / 2
    for name, want in (("linear_diag21", 2.0), ("linear_rotation", 1.0),
                       ("linear_shear", phi)):
        e = get_entry(zoo, name)
        assert e.lip_norm_oracle == pytest.approx(want)
        assert lip_norm(e.map) == pytest.approx(want, rel=0.02)


def test_two_point_entry(zoo):
    e = get_entry(zoo, "two_point_discrete")
    assert e.lip_oracle("a") == 0.0
    assert lip_norm(e.map) == 1.0
    assert not e.convex


def test_bhmv_entry_values(zoo):
    e = get_entry(zoo, "bhmv_measure")
    E = e.meta["interval_union"]
    f = e.map
    # f(u) = measure([0,u] ∩ E): flat on the gap, slope 1 inside the blocks
    assert f.values[f.domain.index(e.point_near(1.5))] == pytest.approx(1.0)
    assert f.values[f.domain.index(e.point_near(3.0))] == pytest.approx(2.0)
    assert e.lip_oracle(0.5) == 1.0
    assert e.lip_oracle(1.5) == 0.0
    assert E.measure() == 2.0


def test_oracle_field(zoo):
    e = get_entry(zoo, "sqrt_abs")
    field = oracle_field(e, "Lip")
    assert field.value(0.0) == math.inf
    with pytest.raises(InputError):
        oracle_field(e, "nope")


def test_point_near(zoo):
    e = get_entry(zoo, "sin")
    assert e.point_near(1.004) == pytest.approx(1.0)
    lin = get_entry(zoo, "linear_shear")
    p = lin.point_near((0.11, -0.29))
    assert abs(p[0] - 0.11) <= lin.resolution / 2 + 1e-9
    assert abs(p[1] + 0.29) <= lin.resolution / 2 + 1e-9


def entry_bytes(e):
    """An entry's samples, flags, meta keys and oracle values, as JSON."""
    oracles = [[o(p) for p in e.space.ids]
               for o in (e.lip_oracle, e.Lip_oracle, e.LLip_oracle)]
    coords = None if e.space.coords is None else e.space.coords.tolist()
    values = None if e.map.values is None else e.map.values.tolist()
    omega = None if e.omega is None else [e.omega(h) for h in (0.0, 0.01, 0.5)]
    return json.dumps([e.name, e.resolution, e.space.p, e.space.ids, coords,
                       values, e.convex, e.continuous, e.c1,
                       e.lip_norm_oracle, sorted(e.meta), oracles,
                       omega]).encode()


# sha256 over make_zoo's entries, recorded when make_zoo built its list in
# one literal (the `zoo export` digests are in tests/data/goldens.json)
GOLDEN_ZOO = {
    0.02: "f9f81d7e4c6957e28d962bed6d098836688a527c61d456ff4c60ab89d8d2fd31",
    0.1: "6cb5a737dded805efb8430aa688cefe85f8b8404a580eb547b5ccc5acd267a90",
}


@pytest.mark.parametrize("res", sorted(GOLDEN_ZOO))
def test_make_zoo_golden_digest(res):
    h = hashlib.sha256()
    for e in make_zoo(res):
        h.update(entry_bytes(e))
    assert h.hexdigest() == GOLDEN_ZOO[res]


@pytest.mark.parametrize("res", sorted(GOLDEN_ZOO))
def test_make_entry_equals_zoo_entry(res):
    for e in make_zoo(res):
        assert entry_bytes(make_entry(e.name, res)) == entry_bytes(e)
    with pytest.raises(InputError, match="no zoo entry"):
        make_entry("missing", res)
    with pytest.raises(InputError, match="resolution"):
        make_entry("sin", 0.0)
