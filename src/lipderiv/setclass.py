"""Finite set-family algebra and semicontinuity relative to a family.

On a finite ground set, countable unions and intersections collapse to
finite ones, so the sigma/delta closures are fixpoints inside the power set
and every statement about them is exhaustively checkable.  Subsets are
represented as bitmasks over the ground tuple.
"""
from __future__ import annotations

import itertools
from functools import cached_property

import numpy as np

from .errors import CapacityError, InputError

#: exhaustive-regime limit on |ground|
MAX_GROUND = 12


class SetFamily:
    """A collection of subsets of a finite ground set.

    Families are immutable, so each one memoises the results of
    ``apply_ops`` on itself; the memo takes no part in equality or hashing.
    """

    def __init__(self, ground, masks):
        self.ground = tuple(ground)
        if len(set(self.ground)) != len(self.ground):
            raise InputError("ground elements must be distinct")
        full = (1 << len(self.ground)) - 1
        masks = frozenset(int(m) for m in masks)
        if any(m & ~full for m in masks):
            raise InputError("member subset escapes the ground set")
        self.masks = masks
        self._ops_memo = {}

    @classmethod
    def from_sets(cls, ground, members):
        ground = tuple(ground)
        pos = {e: i for i, e in enumerate(ground)}
        return cls(ground, [sum(1 << pos[e] for e in set(member))
                            for member in members])

    @property
    def full_mask(self) -> int:
        return (1 << len(self.ground)) - 1

    def members(self):
        """Members as frozensets in canonical (bitmask) order."""
        return [frozenset(e for i, e in enumerate(self.ground) if m >> i & 1)
                for m in sorted(self.masks)]

    def __eq__(self, other):
        return (isinstance(other, SetFamily) and self.ground == other.ground
                and self.masks == other.masks)

    def __hash__(self):
        return hash((self.ground, self.masks))

    def __len__(self):
        return len(self.masks)

    def __repr__(self):
        return f"SetFamily(ground={self.ground!r}, members={len(self.masks)})"


def complements(F: SetFamily) -> SetFamily:
    full = F.full_mask
    return SetFamily(F.ground, {full ^ m for m in F.masks})


def _closure(masks, op):
    out = set(masks)
    frontier = set(masks)
    while frontier:
        new = set()
        for a in frontier:
            for b in out:
                c = op(a, b)
                if c not in out and c not in new:
                    new.add(c)
        out |= new
        frontier = new
    return out


def sigma_closure(F: SetFamily) -> SetFamily:
    """Smallest superfamily closed under unions (finite fixpoint)."""
    return SetFamily(F.ground, _closure(F.masks, lambda a, b: a | b))


def delta_closure(F: SetFamily) -> SetFamily:
    """Smallest superfamily closed under intersections."""
    return SetFamily(F.ground, _closure(F.masks, lambda a, b: a & b))


_OPS = {"c": complements, "s": sigma_closure, "d": delta_closure}


def apply_ops(F: SetFamily, ops: str) -> SetFamily:
    """Apply a string of closure operators left to right, e.g. "cs", "cdc".

    Every prefix is memoised on F, so "c", "cd" and "cdc" share their work
    and a repeated call returns the family computed the first time.
    """
    memo = F._ops_memo
    G = memo.get(ops)
    if G is None:
        G = F
        for k, op in enumerate(ops, start=1):
            if ops[:k] not in memo:
                memo[ops[:k]] = _OPS[op](G)
            G = memo[ops[:k]]
    return G


#: the three subscript identities, as (left ops, right ops) pairs
FAMILY_IDENTITIES = {
    "cdc=s": ("cdc", "s"),
    "sc=cd": ("sc", "cd"),
    "dc=cs": ("dc", "cs"),
}


def verify_family_identity(F: SetFamily, identity: str):
    """Check one of the closure identities; returns (holds, counterexamples).

    Counterexamples are the members (as frozensets) in the symmetric
    difference of the two sides; empty on success.
    """
    if len(F.ground) > MAX_GROUND:
        raise CapacityError(f"ground set larger than {MAX_GROUND}")
    try:
        left_ops, right_ops = FAMILY_IDENTITIES[identity]
    except KeyError:
        raise InputError(f"unknown identity {identity!r}") from None
    left = apply_ops(F, left_ops)
    right = apply_ops(F, right_ops)
    if left == right:
        return True, []
    diff = SetFamily(F.ground, left.masks ^ right.masks)
    return False, diff.members()


def _bits(hit: np.ndarray) -> int:
    """The bitmask with bit i set where ``hit[i]``."""
    return sum(1 << i for i in hit.nonzero()[0].tolist())


class FiniteField:
    """An extended-real value per element of a finite ground set."""

    def __init__(self, ground, values):
        self.ground = tuple(ground)
        self.values = np.asarray(values, dtype=float).reshape(-1)
        if self.values.shape[0] != len(self.ground):
            raise InputError("one value per ground element required")
        if np.isnan(self.values).any():
            raise InputError("NaN is not a valid value")
        self._negation = None

    def sublevel_mask(self, gamma: float) -> int:
        """Bitmask of {x : f(x) < gamma}."""
        return _bits(self.values < gamma)

    def level_mask(self, value: float) -> int:
        return _bits(self.values == value)

    # Preimage masks, built once per field (its values are not to be changed
    # after construction); the lower side's are -f's: {f > g} = {-f < -g}.

    def __neg__(self) -> FiniteField:
        """-f, built once; -(-f) is f, so no field builds its masks twice."""
        if self._negation is None:
            self._negation = FiniteField(self.ground, -self.values)
            self._negation._negation = self
        return self._negation

    @cached_property
    def upper_masks(self) -> tuple:
        """Sublevel masks {f < gamma}, one gamma per constancy region: the
        finite values of f and one above the largest (0 if none is finite)."""
        finite = sorted(set(self.values[np.isfinite(self.values)].tolist()))
        gammas = finite + [finite[-1] + 1.0] if finite else [0.0]
        return tuple(self.sublevel_mask(g) for g in gammas)

    @cached_property
    def lower_masks(self) -> tuple:
        """Superlevel masks {f > gamma}: the sublevel masks of -f."""
        return (-self).upper_masks

    @cached_property
    def plus_inf_mask(self) -> int:
        return self.level_mask(np.inf)

    @cached_property
    def minus_inf_mask(self) -> int:
        return (-self).plus_inf_mask


def is_A_upper_sc(f: FiniteField, F: SetFamily) -> bool:
    """True iff every strict sublevel preimage of f belongs to F."""
    if f.ground != F.ground:
        raise InputError("field and family must share the ground set")
    return F.masks.issuperset(f.upper_masks)


def is_A_lower_sc(f: FiniteField, F: SetFamily) -> bool:
    """True iff -f is F-upper sc: every {f > g} = {-f < -g} lies in F."""
    if f.ground != F.ground:
        raise InputError("field and family must share the ground set")
    return F.masks.issuperset(f.lower_masks)


_UPPER_KEYS = ("closed_superlevels_in_c", "finite_part_in_s",
               "plus_inf_level_in_sc", "minus_inf_level_in_d",
               "lower_sc_wrt_cs")
_LOWER_KEYS = ("closed_sublevels_in_c", "finite_part_in_s",
               "minus_inf_level_in_sc", "plus_inf_level_in_d",
               "upper_sc_wrt_cs")


def check_duality_props(f: FiniteField, F: SetFamily) -> dict:
    """Conclusions that follow from f being F-upper (or F-lower) sc.

    For an F-upper sc field: (i) all closed superlevel preimages lie in F_c,
    (ii) the finite part lies in F_s and the +inf level in F_sc, (iii) the
    -inf level lies in F_d, (iv) f is F_cs-lower sc.  For an F-lower sc field
    they are checked on -f and reported under their duals' names (closed
    sublevels in F_c, ...).  Raises InputError when neither hypothesis holds.
    """
    keys = _UPPER_KEYS
    if not is_A_upper_sc(f, F):
        keys, f = _LOWER_KEYS, -f
        if not is_A_upper_sc(f, F):
            raise InputError(
                "field is neither F-upper nor F-lower semicontinuous")
    full = F.full_mask
    report = {
        keys[0]: apply_ops(F, "c").masks.issuperset(
            full ^ m for m in f.upper_masks),
        keys[1]: (full ^ f.plus_inf_mask) in apply_ops(F, "s").masks,
        keys[2]: f.plus_inf_mask in apply_ops(F, "sc").masks,
        keys[3]: f.minus_inf_mask in apply_ops(F, "d").masks,
        keys[4]: is_A_lower_sc(f, apply_ops(F, "cs"))}
    report["all"] = all(report.values())
    return report


def check_sup_inf_props(fs, F: SetFamily, mode: str) -> bool:
    """Pointwise sup of F-upper sc fields is F_cs-lower sc (mode="sup");
    pointwise inf of F-lower sc fields is F_cs-upper sc (mode="inf"), which
    is the sup statement on the negated fields, since min f = -max(-f)."""
    fs = list(fs)
    if not fs:
        raise InputError("need at least one field")
    if mode == "inf":
        fs = [-f for f in fs]
    elif mode != "sup":
        raise InputError("mode must be 'sup' or 'inf'")
    if not all(is_A_upper_sc(f, F) for f in fs):
        side = "upper" if mode == "sup" else "lower"
        raise InputError(f"every field must be F-{side} semicontinuous")
    # the sup is F_cs-lower sc iff -sup is F_cs-upper sc
    neg_sup = FiniteField(F.ground, -np.max([f.values for f in fs], axis=0))
    return is_A_upper_sc(neg_sup, apply_ops(F, "cs"))


def all_topologies(n: int):
    """All topologies on an n-element ground set {0..n-1}, as mask frozensets.

    Brute force over families containing the empty set and the whole set,
    filtered for closure under union and intersection; fine for n <= 4.
    """
    if n > 4:
        raise CapacityError("topology enumeration limited to n <= 4")
    full = (1 << n) - 1
    inner = [m for m in range(1, full)] if full else []
    topologies = []
    for bits in range(1 << len(inner)):
        members = {0, full} | {inner[i] for i in range(len(inner))
                               if bits >> i & 1}
        if all(a | b in members and a & b in members
               for a, b in itertools.combinations(members, 2)):
            topologies.append(frozenset(members))
    return topologies


def random_topology(n: int, rng) -> frozenset:
    """Topology generated by a few random subsets of {0..n-1}."""
    full = (1 << n) - 1
    gens = {0, full}
    for _ in range(rng.integers(1, 4)):
        gens.add(int(rng.integers(0, full + 1)))
    members = set(gens)
    changed = True
    while changed:
        changed = False
        for a, b in itertools.combinations(list(members), 2):
            for c in (a | b, a & b):
                if c not in members:
                    members.add(c)
                    changed = True
    return frozenset(members)
