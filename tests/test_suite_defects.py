"""Each check suite fails on a planted defect in the code it checks.

Each test plants one defect with monkeypatch and runs one suite alone.
``workers.usable_cpus`` is set to 1, so the suite runs in this process,
where the defect is planted.  A name that ``harness`` imports by name is
patched there too.  The sorted-scan defects wrap ``scales._read_rows`` and
rewrite one kind of its output after the call.
"""
import dataclasses

import numpy as np
import pytest

from lipderiv import (IntervalUnion, SuiteConfig, envelopes, harness,
                      run_suite, scales, workers)


@pytest.fixture(autouse=True)
def in_process(monkeypatch):
    monkeypatch.setattr(workers, "usable_cpus", lambda: 1)


def failures(suite):
    results = run_suite(SuiteConfig(suite=(suite,)))
    return [r.name for r in results if r.status == "fail"]


def plant(monkeypatch, name, wrap, *modules):
    """Replace ``name`` in each of ``modules`` with ``wrap`` of the real
    one."""
    planted = wrap(getattr(modules[0], name))
    for module in modules:
        monkeypatch.setattr(module, name, planted)


def plant_in_scan(monkeypatch, rewrite):
    """Let ``rewrite(out)`` change the sorted scan's output arrays."""
    def wrap(real):
        def planted(D, V, m, radii, out):
            real(D, V, m, radii, out)
            rewrite(out)
        return planted
    plant(monkeypatch, "_read_rows", wrap, scales)


def scaled(real, factor=1.0 + 1e-6):
    return lambda *args, **kwargs: real(*args, **kwargs) * factor


def test_oracle_equiv_sees_a_scaled_local_table(monkeypatch):
    plant(monkeypatch, "_loc_table", scaled, scales)
    assert failures("oracle_equiv")


def test_openness_sees_a_scaled_local_field(monkeypatch):
    plant(monkeypatch, "loc_field", scaled, scales, harness)
    assert failures("openness")


def test_separation_sees_the_big_functional_as_the_little(monkeypatch):
    def rewrite(out):
        out["nearest_scale_inf"][:] = out["big_below"]
    plant_in_scan(monkeypatch, rewrite)
    assert failures("separation")


def test_bhmv_sees_scaled_pair_measures(monkeypatch):
    plant(monkeypatch, "intersect_measures", scaled, IntervalUnion)
    assert failures("bhmv")


def test_envelope_sees_an_upper_envelope_that_returns_its_field(monkeypatch):
    plant(monkeypatch, "baire_upper", lambda real: lambda g, h: g,
          envelopes, harness)
    assert failures("envelope")


def test_plus_variant_sees_the_open_ball_as_the_closed(monkeypatch):
    def rewrite(out):
        out["lip_upper_closed"][:] = out["lip_upper"]
    plant_in_scan(monkeypatch, rewrite)
    assert failures("plus_variant")


def test_segment_chain_sees_a_halved_big_functional(monkeypatch):
    def rewrite(out):
        out["big_below"][:] *= 0.5
    plant_in_scan(monkeypatch, rewrite)
    assert failures("segment_chain")


def test_chain_sees_a_shrunk_local_table(monkeypatch):
    plant(monkeypatch, "_loc_table", lambda real: scaled(real, 1.0 - 1e-6),
          scales)
    assert failures("chain")


def test_frechet_sees_the_codomain_norm_read_as_the_sup_norm(monkeypatch):
    plant(monkeypatch, "_dist",
          lambda real: lambda a, b, p: real(a, b, np.inf), scales)
    assert failures("frechet")


def test_c1_identity_sees_the_local_estimate_at_the_largest_radius(
        monkeypatch):
    plant(monkeypatch, "_resolved",
          lambda real: lambda d1, radii: np.minimum(real(d1, radii), 0),
          scales)
    assert failures("c1_identity")


def test_gamma_lipschitz_sees_an_inflated_lipschitz_norm(monkeypatch):
    plant(monkeypatch, "lip_norm", lambda real: scaled(real, 1.0 + 1e-2),
          scales, harness)
    assert failures("gamma_lipschitz")


def test_gamma_lipschitz_sees_an_inflated_little_field(monkeypatch):
    def rewrite(out):
        out["little_below"][:] *= 1.0 + 1e-6
    plant_in_scan(monkeypatch, rewrite)
    assert failures("gamma_lipschitz")


def test_lipnorm_sees_a_halved_lipschitz_norm(monkeypatch):
    plant(monkeypatch, "lip_norm", lambda real: scaled(real, 0.5), scales,
          harness)
    assert failures("lipnorm")


def test_level_sets_sees_a_shrunk_local_field(monkeypatch):
    plant(monkeypatch, "loc_field", lambda real: scaled(real, 1.0 - 1e-6),
          scales, harness)
    assert failures("level_sets")


def test_semicontinuity_sees_the_little_functional_as_the_upper(monkeypatch):
    def rewrite(out):
        out["little_below"][:] = out["lip_upper"]
    plant_in_scan(monkeypatch, rewrite)
    assert failures("semicontinuity")


def nan_at_0(real):
    """``real`` with entry 0 of its result set to NaN."""
    def planted(*args, **kwargs):
        out = real(*args, **kwargs)
        out[0] = np.nan
        return out
    return planted


def returns_nan(real):
    return lambda *args, **kwargs: np.nan


def test_oracle_equiv_sees_a_nan_local_field(monkeypatch):
    plant(monkeypatch, "loc_field", nan_at_0, harness)
    assert failures("oracle_equiv")


def test_openness_sees_a_nan_local_field(monkeypatch):
    plant(monkeypatch, "loc_field", nan_at_0, harness)
    assert failures("openness")


def test_openness_fails_on_a_nan_precondition(monkeypatch):
    plant(monkeypatch, "loc_lip_r", returns_nan, harness)
    results = run_suite(SuiteConfig(suite=("openness",)))
    assert results and all(r.status == "fail" for r in results)


def test_gamma_lipschitz_sees_a_nan_lipschitz_norm(monkeypatch):
    plant(monkeypatch, "lip_norm", returns_nan, harness)
    assert failures("gamma_lipschitz")


def test_c1_identity_sees_nan_summary_estimates(monkeypatch):
    def wrap(real):
        def planted(*args, **kwargs):
            return [dataclasses.replace(s, lip_hat=np.nan, big_hat=np.nan,
                                        loc_hat=np.nan)
                    for s in real(*args, **kwargs)]
        return planted
    plant(monkeypatch, "scale_summaries", wrap, harness)
    assert failures("c1_identity")


@pytest.mark.parametrize("suite", ["oracle_equiv", "plus_variant",
                                   "gamma_lipschitz", "bhmv", "c1_identity"])
def test_suites_see_nan_scan_values(monkeypatch, suite):
    def rewrite(out):
        for kind in ("little_below", "big_below", "nearest_scale_inf"):
            out[kind][0] = np.nan
    plant_in_scan(monkeypatch, rewrite)
    assert failures(suite)
