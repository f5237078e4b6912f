import functools
import itertools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lipderiv import (CapacityError, FiniteField, InputError, SetFamily,
                      all_topologies, apply_ops, check_duality_props,
                      check_sup_inf_props, complements, delta_closure,
                      is_A_lower_sc, is_A_upper_sc, random_topology,
                      sigma_closure, verify_family_identity)


def family(ground, *members):
    return SetFamily.from_sets(ground, members)


def test_members_roundtrip():
    F = family("abc", "", "a", "bc")
    assert F.members() == [frozenset(), {"a"}, {"b", "c"}]
    assert len(F) == 3
    assert F == SetFamily.from_sets("abc", ["bc", "a", ""])


def test_ground_validation():
    with pytest.raises(InputError):
        SetFamily("aa", [0])
    with pytest.raises(InputError):
        SetFamily("ab", [7])


def test_complements():
    F = family((1, 2, 3), (), (1,))
    assert complements(F) == family((1, 2, 3), (1, 2, 3), (2, 3))


def test_sigma_delta_closures():
    F = family("abc", "a", "b")
    assert sigma_closure(F) == family("abc", "a", "b", "ab")
    assert delta_closure(F) == family("abc", "a", "b", "")
    # closing twice changes nothing
    assert sigma_closure(sigma_closure(F)) == sigma_closure(F)


def test_apply_ops_order():
    F = family("ab", "a")
    assert apply_ops(F, "cs") == sigma_closure(complements(F))


def test_identities_on_small_families():
    rng = np.random.default_rng(0)
    ground = tuple(range(4))
    for _ in range(20):
        F = SetFamily(ground, rng.integers(0, 16, size=rng.integers(1, 6)))
        for ident in ("cdc=s", "sc=cd", "dc=cs"):
            holds, witness = verify_family_identity(F, ident)
            assert holds, (ident, witness)


def test_identity_errors():
    F = family("ab", "a")
    with pytest.raises(InputError):
        verify_family_identity(F, "nope")
    big = SetFamily(range(13), [0])
    with pytest.raises(CapacityError):
        verify_family_identity(big, "cdc=s")


def test_counterexample_reported():
    # break the closure identity check itself by comparing raw families
    F = family("ab", "a", "b")
    holds, diff = verify_family_identity(F, "cdc=s")
    assert holds and diff == []


def test_semicontinuity_wrt_topology():
    # on {0,1} with topology {∅, {0}, X}: f = 1 - indicator(0) is usc
    masks = {0b00, 0b01, 0b11}
    F = SetFamily((0, 1), masks)
    f = FiniteField((0, 1), [0.0, 1.0])
    assert is_A_upper_sc(f, F)          # {f < 1} = {0} ∈ F
    assert not is_A_lower_sc(f, F)      # {f > 0} = {1} ∉ F
    g = FiniteField((0, 1), [1.0, 0.0])
    assert is_A_lower_sc(g, F)
    assert not is_A_upper_sc(g, F)


def test_constant_field_both_sc():
    F = family("abc", "", "abc")
    f = FiniteField("abc", [2.0, 2.0, 2.0])
    assert is_A_upper_sc(f, F) and is_A_lower_sc(f, F)


def test_duality_props_report():
    F = SetFamily((0, 1), {0b00, 0b01, 0b11})
    f = FiniteField((0, 1), [0.0, math.inf])
    rep = check_duality_props(f, F)
    assert rep["all"]
    assert rep["plus_inf_level_in_sc"]


def test_duality_props_requires_hypothesis():
    F = SetFamily((0, 1, 2), {0b000, 0b111})
    f = FiniteField((0, 1, 2), [0.0, 1.0, 2.0])
    with pytest.raises(InputError):
        check_duality_props(f, F)


def test_sup_inf_props():
    F = SetFamily((0, 1), {0b00, 0b01, 0b11})
    fs = [FiniteField((0, 1), [0.0, 1.0]), FiniteField((0, 1), [-1.0, 2.0])]
    assert check_sup_inf_props(fs, F, "sup")
    gs = [FiniteField((0, 1), [1.0, 0.0])]
    assert check_sup_inf_props(gs, F, "inf")
    with pytest.raises(InputError):
        check_sup_inf_props(fs, F, "max")
    with pytest.raises(InputError):
        check_sup_inf_props([], F, "sup")


def test_topology_counts():
    # known counts of topologies on small finite sets
    assert len(all_topologies(1)) == 1
    assert len(all_topologies(2)) == 4
    assert len(all_topologies(3)) == 29
    assert len(all_topologies(4)) == 355
    with pytest.raises(CapacityError):
        all_topologies(5)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_random_topology_is_topology(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    masks = random_topology(n, rng)
    full = (1 << n) - 1
    assert 0 in masks and full in masks
    for a in masks:
        for b in masks:
            assert (a | b) in masks and (a & b) in masks


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_usc_fields_satisfy_duality_everywhere(seed):
    rng = np.random.default_rng(seed)
    n = 4
    F = SetFamily(tuple(range(n)), random_topology(n, rng))
    levels = [-math.inf, 0.0, 1.0, math.inf]
    vals = [levels[i] for i in rng.integers(0, 4, size=n)]
    f = FiniteField(tuple(range(n)), vals)
    if is_A_upper_sc(f, F) or is_A_lower_sc(f, F):
        assert check_duality_props(f, F)["all"]


def _unions(masks):
    """Every union of a nonempty subfamily: the sigma closure by definition."""
    return {functools.reduce(operator.or_, pick)
            for k in range(1, len(masks) + 1)
            for pick in itertools.combinations(sorted(masks), k)}


def _intersections(masks):
    return {functools.reduce(operator.and_, pick)
            for k in range(1, len(masks) + 1)
            for pick in itertools.combinations(sorted(masks), k)}


def _mask(values, hit):
    return sum(1 << i for i, v in enumerate(values) if hit(v))


#: one gamma inside every constancy region of the preimages of a field on
#: _LEVELS, open or closed, above or below
_GAMMAS = (-1.0, 0.0, 0.5, 1.0, 2.0)
_LEVELS = (-math.inf, 0.0, 1.0, math.inf)


def _sc_by_definition(values, masks, above):
    """Every strict super- (or sub-) level preimage over _GAMMAS is in masks."""
    return all(_mask(values, (lambda v: v > g) if above else
                     (lambda v: v < g)) in masks for g in _GAMMAS)


def _statements_by_definition(values, full, comp, sigma, delta, comp_sigma):
    """Each report entry of check_duality_props, read from the preimages and
    from the closures F_c, F_s, F_d and F_cs as defined, for an F-upper and
    for an F-lower sc field."""
    sigma_c = {full ^ m for m in sigma}
    plus, minus = (_mask(values, lambda v: v == s * math.inf)
                   for s in (1, -1))
    upper = {
        "closed_superlevels_in_c": all(
            _mask(values, lambda v: v >= g) in comp for g in _GAMMAS),
        "finite_part_in_s": full ^ plus in sigma,
        "plus_inf_level_in_sc": plus in sigma_c,
        "minus_inf_level_in_d": minus in delta,
        "lower_sc_wrt_cs": _sc_by_definition(values, comp_sigma, True),
    }
    lower = {
        "closed_sublevels_in_c": all(
            _mask(values, lambda v: v <= g) in comp for g in _GAMMAS),
        "finite_part_in_s": full ^ minus in sigma,
        "minus_inf_level_in_sc": minus in sigma_c,
        "plus_inf_level_in_d": plus in delta,
        "upper_sc_wrt_cs": _sc_by_definition(values, comp_sigma, False),
    }
    for report in (upper, lower):
        report["all"] = all(report.values())
    return upper, lower


@pytest.mark.parametrize("n", [1, 2, 3])
def test_duality_statements_equal_their_definitions(n):
    """Every topology on n <= 3 points and every field on _LEVELS: the report
    of an F-lower (F-upper) sc field carries the lower (upper) key names,
    each equal to its statement read from the definitions, and the sup / inf
    statements equal theirs."""
    ground = tuple(range(n))
    full = (1 << n) - 1
    value_lists = list(itertools.product(_LEVELS, repeat=n))
    lower_seen = 0
    for masks in all_topologies(n):
        F = SetFamily(ground, masks)
        comp = {full ^ m for m in masks}
        comp_sigma = _unions(comp)
        closures = (comp, _unions(masks), _intersections(masks), comp_sigma)
        uppers, lowers = [], []
        for values in value_lists:
            f = FiniteField(ground, values)
            is_upper = _sc_by_definition(values, masks, above=False)
            is_lower = _sc_by_definition(values, masks, above=True)
            assert is_A_upper_sc(f, F) == is_upper
            assert is_A_lower_sc(f, F) == is_lower
            upper, lower = _statements_by_definition(values, full, *closures)
            if is_upper:
                uppers.append(f)
                assert check_duality_props(f, F) == upper, (values, masks)
            elif is_lower:
                lower_seen += 1
                rep = check_duality_props(f, F)
                assert list(rep) == list(lower)
                assert rep == lower, (values, sorted(masks))
            else:
                with pytest.raises(InputError, match="neither"):
                    check_duality_props(f, F)
            if is_lower:
                lowers.append(f)
                # the inf of one field is the field
                assert check_sup_inf_props([f], F, "inf") == (
                    _sc_by_definition(values, comp_sigma, above=False))
            else:
                with pytest.raises(InputError, match="F-lower"):
                    check_sup_inf_props([f], F, "inf")
            if is_upper:
                assert check_sup_inf_props([f], F, "sup") == (
                    _sc_by_definition(values, comp_sigma, above=True))
        for fields, mode, above, agg in ((lowers, "inf", False, min),
                                         (uppers, "sup", True, max)):
            if fields:
                values = [agg(col) for col in zip(*(f.values.tolist()
                                                    for f in fields))]
                assert check_sup_inf_props(fields, F, mode) == (
                    _sc_by_definition(values, comp_sigma, above))
    # on one point every field is constant, so upper sc as well
    assert lower_seen > 0 or n == 1
