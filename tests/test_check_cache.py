"""The check-only shortcuts against the computations they replace.

Set families memoise their closures; the separation checks read their
estimates from ``scale_summaries`` instead of a full profile.  Each must
give exactly what the uncached, by-definition or full-profile computation
gives.
"""
import itertools
import math

import numpy as np
import pytest

from lipderiv import (FiniteField, RadiusGrid, SetFamily, all_topologies,
                      apply_ops, is_A_lower_sc, is_A_upper_sc,
                      random_topology, scale_profile, scale_summaries)
from lipderiv import setclass
from lipderiv.zoo import make_entry

#: every operator string the library and the harness apply
OPS_IN_USE = ("c", "s", "d", "sc", "cs", "cd", "dc", "cdc")
LEVELS = (-math.inf, 0.0, 1.0, math.inf)
#: one gamma inside every constancy region of {f < gamma} and {f > gamma}
GAMMAS = (-1.0, 0.0, 0.5, 1.0, 2.0)


def families():
    """(ground, masks) of every topology with n <= 3 and of seeded random
    topologies on five points."""
    for n in (1, 2, 3):
        for masks in all_topologies(n):
            yield tuple(range(n)), masks
    rng = np.random.default_rng(11)
    for _ in range(40):
        yield tuple(range(5)), random_topology(5, rng)


def uncached(F, ops):
    for op in ops:
        F = setclass._OPS[op](F)
    return F


@pytest.mark.parametrize("order", [OPS_IN_USE, OPS_IN_USE[::-1]])
def test_apply_ops_equals_uncached_composition(order):
    for ground, masks in families():
        F = SetFamily(ground, masks)
        expected = {ops: uncached(SetFamily(ground, masks), ops)
                    for ops in order}
        first = {ops: apply_ops(F, ops) for ops in order}
        for ops in order:
            again = apply_ops(F, ops)
            assert first[ops] == expected[ops], (masks, ops)
            assert again == expected[ops], (masks, ops)
            assert again is first[ops]
        # the memo takes no part in equality or hashing
        fresh = SetFamily(ground, masks)
        assert F == fresh and hash(F) == hash(fresh)


def test_apply_ops_empty_string_is_identity():
    F = SetFamily((0, 1), [0, 1])
    assert apply_ops(F, "") is F


def by_definition(values, F, above):
    """Every strict sub- (or super-) level preimage over GAMMAS lies in F."""
    for g in GAMMAS:
        m = sum(1 << i for i, v in enumerate(values)
                if (v > g if above else v < g))
        if m not in F.masks:
            return False
    return True


def test_mask_semicontinuity_equals_definition():
    for n in (1, 2, 3):
        ground = tuple(range(n))
        fields = [FiniteField(ground, v)
                  for v in itertools.product(LEVELS, repeat=n)]
        for masks in all_topologies(n):
            F = SetFamily(ground, masks)
            for f in fields:
                assert is_A_upper_sc(f, F) == by_definition(
                    f.values, F, above=False), (f.values, sorted(masks))
                assert is_A_lower_sc(f, F) == by_definition(
                    f.values, F, above=True), (f.values, sorted(masks))


@pytest.mark.parametrize("entry", ["dyadic_staircase", "oscillator"])
def test_separation_summaries_equal_profile_summary(entry):
    f = make_entry(entry, 2.0 ** -10).map
    ids = f.domain.ids
    points = [0.0, ids[1], ids[len(ids) // 3], ids[-1]]
    for grid in (RadiusGrid(0.5, 0.5, 3, 2), RadiusGrid(0.1, 0.5, 5, 3),
                 RadiusGrid(0.02, 0.5, 1, 1)):
        assert (scale_summaries(f, grid, points=points)
                == scale_profile(f, grid, points=points).summaries)
