"""Finite set-family algebra and semicontinuity relative to a family.

On a finite ground set, countable unions and intersections collapse to
finite ones, so the sigma/delta closures are fixpoints inside the power set
and every statement about them is exhaustively checkable.  Subsets are
represented as bitmasks over the ground tuple, and a collection of subsets
as a presence bitmap over those masks: bit m is set iff the subset with mask
m belongs to it.  A family's members, a field's required preimages and the
closures of a family are all presence bitmaps, so "every preimage of f lies
in F" is one ``and`` and "A lies in F" one shift.  ``sc_table`` reads them
for a whole ``FieldBatch`` of fields at once, and every semicontinuity
question below is a thin wrapper around it.
"""
from __future__ import annotations

import operator
from functools import cache, cached_property

import numpy as np

from .errors import CapacityError, InputError

#: exhaustive-regime limit on |ground|
MAX_GROUND = 12


def _presence(masks) -> int:
    """The presence bitmap of ``masks``: bit m is set iff m is among them."""
    bitmap = 0
    for m in masks:
        bitmap |= 1 << m
    return bitmap


class SetFamily:
    """A collection of subsets of a finite ground set.

    Families are immutable, so each one memoises the results of
    ``apply_ops`` on itself and its presence bitmap; neither takes part in
    equality or hashing.
    """

    def __init__(self, ground, masks):
        self.ground = tuple(ground)
        if len(set(self.ground)) != len(self.ground):
            raise InputError("ground elements must be distinct")
        masks = frozenset(map(int, masks))
        if masks and (min(masks) < 0 or max(masks) > self.full_mask):
            raise InputError("member subset escapes the ground set")
        self.masks = masks
        self._ops_memo = {}
        self._presence = None

    @classmethod
    def from_sets(cls, ground, members):
        ground = tuple(ground)
        pos = {e: i for i, e in enumerate(ground)}
        return cls(ground, [sum(1 << pos[e] for e in set(member))
                            for member in members])

    @property
    def full_mask(self) -> int:
        return (1 << len(self.ground)) - 1

    @property
    def presence(self) -> int:
        """Bit m set iff the subset with mask m is a member (built once)."""
        if self._presence is None:
            self._presence = _presence(self.masks)
        return self._presence

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
    """Close ``masks`` under a commutative, associative and idempotent op.

    One pass per generator: if ``out`` is closed, so is ``out`` with m, every
    op(m, x) for x in ``out`` and m itself, since op(m, x) op y = op(m, x op y)
    and op(m, x) op op(m, y) = op(m, x op y); a generator already in ``out``
    adds nothing.
    """
    out = set()
    for m in masks:
        if m not in out:
            out |= {m} | {op(m, x) for x in out}
    return out


def sigma_closure(F: SetFamily) -> SetFamily:
    """Smallest superfamily closed under unions (finite fixpoint)."""
    return SetFamily(F.ground, _closure(F.masks, operator.or_))


def delta_closure(F: SetFamily) -> SetFamily:
    """Smallest superfamily closed under intersections."""
    return SetFamily(F.ground, _closure(F.masks, operator.and_))


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
        finite values of f and inf, whose mask is every point but the +inf
        level."""
        finite = sorted(set(self.values[np.isfinite(self.values)].tolist()))
        return tuple(self.sublevel_mask(g) for g in finite + [np.inf])

    @cached_property
    def plus_inf_mask(self) -> int:
        return self.level_mask(np.inf)


class FieldBatch:
    """Fields on one ground set, one per row of ``values``, stacked for
    ``sc_table``.

    ``upper`` folds each field's open sublevel masks {f < gamma}, at every
    finite value gamma of f and at gamma = inf, into one presence bitmap;
    ``closed`` folds their complements, the closed superlevels {f >= gamma};
    ``plus`` is the +inf level mask.  Row 0 of each describes the fields and
    row 1 their negations, whose open sublevels are the fields' open
    superlevels {f > gamma}.  Bitmaps are ``uint64`` where 2^|ground| bits
    fit and Python ints (``object``) otherwise, so a ground of more than
    ``MAX_GROUND`` points raises ``CapacityError``.
    """

    def __init__(self, ground, values):
        self.ground = tuple(ground)
        n = len(self.ground)
        if n > MAX_GROUND:
            raise CapacityError(f"ground set larger than {MAX_GROUND}")
        self.values = np.asarray(values, dtype=float)
        if self.values.ndim != 2 or self.values.shape[1] != n:
            raise InputError("one value per ground element required")
        if not len(self):
            raise InputError("need at least one field")
        if np.isnan(self.values).any():
            raise InputError("NaN is not a valid value")
        dtype = np.uint64 if n <= 6 else object
        full, one = (np.array(x, dtype)[()] for x in ((1 << n) - 1, 1))
        weights = 1 << np.arange(n)
        sides = np.array((self.values, -self.values))
        self.plus = ((sides == np.inf) @ weights).astype(dtype)
        gammas = np.where(np.isfinite(sides), sides, np.inf)
        # {f < inf} is the complement of the +inf level
        masks = np.concatenate(
            (((sides[..., None, :] < gammas[..., None]) @ weights
              ).astype(dtype), (full ^ self.plus)[..., None]), axis=2)
        self.upper = np.bitwise_or.reduce(one << masks, axis=2)
        self.closed = np.bitwise_or.reduce(one << (full ^ masks), axis=2)

    @classmethod
    def of(cls, fields) -> FieldBatch:
        """The batch of ``FiniteField``s on one ground set, in order."""
        fields = list(fields)
        if not fields:
            raise InputError("need at least one field")
        ground = fields[0].ground
        if any(f.ground != ground for f in fields):
            raise InputError("fields must share one ground set")
        return cls(ground, [f.values for f in fields])

    def __len__(self):
        return self.values.shape[0]


def _within(required, presence):
    """Whether every bit of each ``required`` bitmap is set in ``presence``."""
    return (required & ~presence) == 0


def _member(masks, presence):
    """Whether the bit of each mask is set in ``presence``."""
    return ((presence >> masks) & 1) == 1


def sc_table(fields: FieldBatch, F, statements=True):
    """Semicontinuity of every field of a batch relative to F, and the
    duality statements of ``check_duality_props``, in a few bitmap
    operations for the whole batch.

    F is one family for every field, or a sequence of families, one per
    field.  Returns ``(sc, holds)``.  ``sc[0]`` says which fields are F-upper
    sc (every {f < gamma} is in F) and ``sc[1]`` which are F-lower sc (every
    {f > gamma} is).  ``holds`` has one row per statement, in the order of
    ``_UPPER_KEYS``: for an F-upper sc field the statement on f, for any
    other field its dual read on -f, in the order of ``_LOWER_KEYS``
    (meaningless unless the field is F-lower sc).  The closures of each
    family are taken once, through ``apply_ops``; with ``statements=False``
    they are not taken and ``holds`` is None.
    """
    families = [F] if isinstance(F, SetFamily) else list(F)
    if len(families) not in (1, len(fields)):
        raise InputError("need one family, or one per field")
    if any(G.ground != fields.ground for G in families):
        raise InputError("field and family must share the ground set")
    dtype = fields.upper.dtype

    def presence(ops):
        return np.array([apply_ops(G, ops).presence for G in families], dtype)

    sc = _within(fields.upper, presence(""))
    if not statements:
        return sc, None
    plus = fields.plus
    full = np.array((1 << len(fields.ground)) - 1, dtype)[()]
    holds = np.array([
        _within(fields.closed, presence("c")),
        _member(full ^ plus, presence("s")),
        _member(plus, presence("sc")),
        _member(plus[::-1], presence("d")),
        _within(fields.upper[::-1], presence("cs"))])
    return sc, np.where(sc[0], holds[:, 0], holds[:, 1])


def is_A_upper_sc(f: FiniteField, F: SetFamily) -> bool:
    """True iff every strict sublevel preimage of f belongs to F."""
    return bool(sc_table(FieldBatch.of([f]), F, statements=False)[0][0, 0])


def is_A_lower_sc(f: FiniteField, F: SetFamily) -> bool:
    """True iff -f is F-upper sc: every {f > g} = {-f < -g} lies in F."""
    return bool(sc_table(FieldBatch.of([f]), F, statements=False)[0][1, 0])


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
    sc, holds = sc_table(FieldBatch.of([f]), F)
    if not sc[:, 0].any():
        raise InputError("field is neither F-upper nor F-lower semicontinuous")
    keys = _UPPER_KEYS if sc[0, 0] else _LOWER_KEYS
    report = {key: bool(h) for key, h in zip(keys, holds[:, 0])}
    report["all"] = all(report.values())
    return report


def check_sup_inf_props(fs, F: SetFamily, mode: str) -> bool:
    """Pointwise sup of F-upper sc fields is F_cs-lower sc (mode="sup");
    pointwise inf of F-lower sc fields is F_cs-upper sc (mode="inf")."""
    fs = list(fs)
    if not fs:
        raise InputError("need at least one field")
    if mode not in ("sup", "inf"):
        raise InputError("mode must be 'sup' or 'inf'")
    batch = FieldBatch.of(fs)
    row = 0 if mode == "sup" else 1
    if not sc_table(batch, F, statements=False)[0][row].all():
        raise InputError(f"every field must be F-{('upper', 'lower')[row]} "
                         "semicontinuous")
    values = batch.values
    bound = values.max(axis=0) if mode == "sup" else values.min(axis=0)
    sc, _ = sc_table(FieldBatch(F.ground, bound[None]), apply_ops(F, "cs"),
                     statements=False)
    return bool(sc[1 - row, 0])


@cache
def all_topologies(n: int) -> tuple:
    """All topologies on an n-element ground set {0..n-1}, as a tuple of
    mask frozensets, computed once per n (later calls return that tuple).

    Every family holding the empty set and the whole set is a candidate:
    candidate ``bits`` holds the mask m + 1 for every bit m of ``bits``, and
    the tuple lists the topologies in increasing ``bits``.  All candidates
    are tested at once on a boolean presence array, one row per candidate,
    dropping the rows that some pair of members leaves unclosed under union
    or intersection; fine for n <= 4.
    """
    if n > 4:
        raise CapacityError("topology enumeration limited to n <= 4")
    full = (1 << n) - 1
    inner = np.arange(1, full)
    bits = np.arange(1 << inner.size)[:, None]
    present = np.ones((bits.shape[0], full + 1), dtype=bool)
    present[:, inner] = ((bits >> (inner - 1)) & 1) == 1
    # pairs with the empty or the whole set, or a member with itself, are
    # always closed
    for a in inner.tolist():
        for b in range(a + 1, full):
            open_pair = (present[:, a] & present[:, b]
                         & ~(present[:, a | b] & present[:, a & b]))
            present = present[~open_pair]
    return tuple(frozenset(np.flatnonzero(row).tolist()) for row in present)


def random_topology(n: int, rng) -> frozenset:
    """Topology generated by a few random subsets of {0..n-1}: the delta
    closure of their sigma closure, which is closed under unions too, since
    by distributivity a union of intersections of unions is an intersection
    of unions."""
    full = (1 << n) - 1
    gens = {0, full}
    for _ in range(rng.integers(1, 4)):
        gens.add(int(rng.integers(0, full + 1)))
    return frozenset(_closure(_closure(gens, operator.or_), operator.and_))
