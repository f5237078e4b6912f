import functools
import itertools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lipderiv import (CapacityError, FieldBatch, FiniteField, InputError,
                      SetFamily, all_topologies, apply_ops,
                      check_duality_props, check_sup_inf_props, complements,
                      delta_closure, is_A_lower_sc, is_A_upper_sc,
                      random_topology, sc_table, sigma_closure,
                      verify_family_identity)
from lipderiv.setclass import _LOWER_KEYS, _UPPER_KEYS


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


def test_topologies_are_computed_once_per_n():
    for n, count in zip(range(1, 5), (1, 4, 29, 355)):
        first = all_topologies(n)
        assert isinstance(first, tuple) and len(first) == count
        assert all_topologies(n) is first


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


def every_small_family():
    """Every family of subsets of a ground set of 0 to 3 points."""
    for n in range(4):
        subsets = range(1 << n)
        for k in range(len(subsets) + 1):
            for masks in itertools.combinations(subsets, k):
                yield SetFamily(range(n), masks)


def seeded_families(count=120, seed=20, points=(4, 6)):
    """Families of 1 to 9 random subsets of a ground set of ``points[0]`` to
    ``points[1] - 1`` points."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(*points))
        size = int(rng.integers(1, 10))
        yield SetFamily(range(n), rng.integers(0, 1 << n, size=size).tolist())


def test_closures_equal_their_definition():
    families = list(every_small_family())
    assert len(families) == 2 + 4 + 16 + 256
    for F in families + list(seeded_families()):
        assert sigma_closure(F).masks == _unions(F.masks)
        assert delta_closure(F).masks == _intersections(F.masks)


#: every operator string the library and the check sweeps apply
_OPS_IN_USE = ("c", "s", "d", "sc", "cs", "cd", "dc", "cdc")


def test_ops_strings_equal_their_definition():
    """Every operator string in use, on every family of up to 3 points and
    on seeded families of 4 to 6 points, equals the composition of the
    definitions: complements, all unions and all intersections of
    non-empty subfamilies.  Each string takes at most one closure, so the
    subfamilies enumerated are those of F or of its complements."""
    by_op = {"s": _unions, "d": _intersections}
    families = list(every_small_family()) + list(
        seeded_families(seed=21, points=(4, 7)))
    for F in families:
        full = F.full_mask
        for ops in _OPS_IN_USE:
            masks = set(F.masks)
            for op in ops:
                masks = ({full ^ m for m in masks} if op == "c"
                         else by_op[op](masks))
            assert apply_ops(F, ops).masks == masks, (ops, sorted(F.masks))


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


def _topologies_by_brute_force(n):
    """Every family holding the empty and the whole set, in increasing
    candidate bits, kept when every pair of members is closed under union
    and intersection."""
    full = (1 << n) - 1
    inner = list(range(1, full))
    out = []
    for bits in range(1 << len(inner)):
        members = {0, full} | {inner[i] for i in range(len(inner))
                               if bits >> i & 1}
        if all(a | b in members and a & b in members
               for a, b in itertools.combinations(members, 2)):
            out.append(frozenset(members))
    return tuple(out)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_topologies_equal_brute_force_in_order(n):
    assert all_topologies(n) == _topologies_by_brute_force(n)


def _sc_families():
    """(ground, family) of every topology on at most 3 points and of seeded
    random topologies on 5 points."""
    for n in (1, 2, 3):
        for masks in all_topologies(n):
            yield tuple(range(n)), SetFamily(range(n), masks)
    rng = np.random.default_rng(5)
    for _ in range(40):
        yield tuple(range(5)), SetFamily(range(5), random_topology(5, rng))


def test_per_field_wrappers_equal_the_batched_kernel():
    """is_A_upper_sc, is_A_lower_sc and check_duality_props on one field
    give, key for key, what one sc_table call gives for every field: every
    field on _LEVELS up to 3 points, 64 seeded ones on 5."""
    value_lists = {n: list(itertools.product(_LEVELS, repeat=n))
                   for n in (1, 2, 3)}
    rng = np.random.default_rng(3)
    for ground, F in _sc_families():
        rows = value_lists.get(len(ground)) or [
            [_LEVELS[i] for i in rng.integers(0, 4, size=5)]
            for _ in range(64)]
        sc, holds = sc_table(FieldBatch(ground, rows), F)
        assert sc.shape == (2, len(rows)) and holds.shape == (5, len(rows))
        for k, values in enumerate(rows):
            f = FiniteField(ground, values)
            assert is_A_upper_sc(f, F) is bool(sc[0, k])
            assert is_A_lower_sc(f, F) is bool(sc[1, k])
            if not sc[:, k].any():
                with pytest.raises(InputError, match="neither"):
                    check_duality_props(f, F)
                continue
            keys = _UPPER_KEYS if sc[0, k] else _LOWER_KEYS
            expected = dict(zip(keys, holds[:, k].tolist()))
            expected["all"] = bool(holds[:, k].all())
            assert check_duality_props(f, F) == expected


def test_kernel_takes_one_family_per_field():
    pairs = list(_sc_families())[-40:]
    rng = np.random.default_rng(9)
    rows = [[_LEVELS[i] for i in rng.integers(0, 4, size=5)] for _ in pairs]
    families = [F for _, F in pairs]
    sc, holds = sc_table(FieldBatch(range(5), rows), families)
    for k, F in enumerate(families):
        one_sc, one_holds = sc_table(FieldBatch(range(5), rows[k:k + 1]), F)
        assert np.array_equal(sc[:, k], one_sc[:, 0])
        assert np.array_equal(holds[:, k], one_holds[:, 0])
    with pytest.raises(InputError, match="one per field"):
        sc_table(FieldBatch(range(5), rows), families[:2])


def test_batch_bitmaps_fold_the_field_masks():
    """The batch's required bitmaps, built from the definition: for f and for
    -f, the presence bitmaps of {i : v_i < gamma} at every finite value gamma
    and at gamma = inf, of their complements, and the +inf level mask."""
    for n in (0, 1, 2, 3, 7):
        rng = np.random.default_rng(n)
        levels = [-math.inf, -2.5, 0.0, 1.0, 3e17, math.inf]
        rows = [[levels[i] for i in rng.integers(0, 6, size=n)]
                for _ in range(30)]
        batch = FieldBatch(range(n), rows)
        full = (1 << n) - 1
        for k, values in enumerate(rows):
            for side, vs in enumerate((values, [-v for v in values])):
                gammas = {v for v in vs if math.isfinite(v)} | {math.inf}
                sublevels = {sum(1 << i for i, v in enumerate(vs) if v < g)
                             for g in gammas}
                assert int(batch.upper[side, k]) == sum(
                    1 << m for m in sublevels)
                assert int(batch.closed[side, k]) == sum(
                    1 << (full ^ m) for m in sublevels)
                assert int(batch.plus[side, k]) == sum(
                    1 << i for i, v in enumerate(vs) if v == math.inf)


def test_sublevels_above_a_huge_largest_value():
    # {f < gamma} = {0} for every gamma above 1e17: one above the largest
    # finite value, in floats, would be 1e17 itself
    f = FiniteField((0, 1), [1e17, math.inf])
    assert int(FieldBatch.of([f]).upper[0, 0]) >> 0b01 & 1
    assert not is_A_upper_sc(f, SetFamily((0, 1), {0b00, 0b11}))
    assert is_A_upper_sc(f, SetFamily((0, 1), {0b00, 0b01, 0b11}))


def test_batch_input_errors():
    with pytest.raises(InputError, match="at least one"):
        FieldBatch((0, 1), np.empty((0, 2)))
    with pytest.raises(InputError, match="one value per ground"):
        FieldBatch((0, 1), [[0.0, 1.0, 2.0]])
    with pytest.raises(InputError, match="NaN"):
        FieldBatch((0,), [[math.nan]])
    with pytest.raises(InputError, match="share one ground"):
        FieldBatch.of([FiniteField((0,), [1.0]), FiniteField((1,), [1.0])])
    with pytest.raises(InputError, match="share the ground"):
        sc_table(FieldBatch((0,), [[1.0]]), SetFamily((1,), [0]))
    with pytest.raises(CapacityError):
        is_A_upper_sc(FiniteField(range(13), np.zeros(13)),
                      SetFamily(range(13), [0]))
