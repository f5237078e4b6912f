"""Executable desk-scale verification of the library's structural claims.

Every check returns a CheckResult; run_suite collects them in canonical name
order so that identical configurations produce byte-identical reports.
Zero-tolerance checks are finite-data identities (max/min over the same
sample), not approximations.
"""
from __future__ import annotations

import itertools
import math
import os
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .envelopes import ScalarField, baire_upper, lsc_defect, usc_defect
from .errors import InputError
from .metric import (FiniteMetricSpace, IntervalUnion, LinearMapSpec,
                     operator_norm)
from .scales import (RadiusGrid, SampledMap, big_lip_below_r, lip_norm,
                     loc_field, loc_lip_r, scale_profile, scale_summaries,
                     scan_field)
from . import setclass, workers
from .setclass import SetFamily
from .zoo import ZooEntry, get_entry, make_entry, make_zoo


@dataclass
class CheckResult:
    name: str
    status: str                    # pass | fail | skipped
    discrepancy: float = 0.0
    tolerance: float = 0.0
    witness: dict | None = None
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status != "fail"

    def to_dict(self) -> dict:
        w = None
        if self.witness is not None:
            w = {k: (list(v) if isinstance(v, (tuple, list)) else v)
                 for k, v in self.witness.items()}
        return {"name": self.name, "status": self.status,
                "discrepancy": self.discrepancy, "tolerance": self.tolerance,
                "witness": w, "detail": self.detail}


def _result(name, ok, discrepancy, tolerance, witness=None, detail=""):
    status = "pass" if ok else "fail"
    return CheckResult(name, status, float(discrepancy), float(tolerance),
                       witness, detail)


def _worst(gaps):
    """The first largest entry of ``gaps``, a NaN read as +inf, and its
    ``np.unravel_index``; ``(0.0, None)`` when ``gaps`` is empty."""
    gaps = np.asarray(gaps, dtype=float)
    if gaps.size == 0:
        return 0.0, None
    gaps = np.where(np.isnan(gaps), np.inf, gaps)
    at = np.unravel_index(int(np.argmax(gaps)), gaps.shape)
    return float(gaps[at]), at


def _verdict(name, gaps, witness_at, limit=0.0, tolerance=None):
    """The result of a check that passes when the worst gap of ``gaps`` (by
    ``_worst``) is at most ``limit``: its discrepancy is that gap, at least
    0, and ``witness_at(index)`` of the gap, if positive, its witness.  The
    reported tolerance is ``limit`` unless ``tolerance`` is given."""
    worst, at = _worst(gaps)
    return _result(name, worst <= limit, max(worst, 0.0),
                   limit if tolerance is None else tolerance,
                   witness_at(at) if worst > 0 else None)


def random_space(rng, n_points, dim=2) -> FiniteMetricSpace:
    p = float(rng.choice([1.0, 2.0, np.inf]))
    coords = rng.uniform(-1.0, 1.0, size=(n_points, dim))
    return FiniteMetricSpace(list(range(n_points)), coords=coords, p=p)


def random_map(rng, space: FiniteMetricSpace) -> SampledMap:
    return SampledMap.real(space, rng.normal(size=space.n))


# ---------------------------------------------------------------------------
# individual checks


def _ordering(little, big, loc):
    """The gaps max(little - big, big - loc) of little <= big <= loc."""
    return np.maximum(little - big, big - loc)


def check_chain(f: SampledMap, grid: RadiusGrid, name="chain", points=None,
                inject_fault=False) -> CheckResult:
    """little <= big <= local at every (point, radius): exact on finite data."""
    prof = scale_profile(f, grid, points=points)
    little = prof.table["little_below"]
    big = prof.table["big_below"]
    loc = prof.table["loc"]
    if inject_fault:
        little = little.copy()
        little[0, 0] = big[0, 0] + 1.0
    return _verdict(name, _ordering(little, big, loc),
                    lambda at: {"point": prof.points[at[0]],
                                "radius": float(prof.radii[at[1]])})


def check_plus_variant(f: SampledMap, x, r: float,
                       name="plus_variant") -> CheckResult:
    """Open-ball sweep, closed-ball sweep and the ratio formula agree.

    The suprema over scales below r are reconstructed from open/closed-ball
    functional evaluations at the neighbor-distance breakpoints (the exact
    per-segment limits), independently of the ratio formula.
    """
    i = f.domain.index(x)
    d = f.domain.dist_row(i)
    d = np.unique(d[(d > 0) & (d < r)])
    if d.size == 0:
        return CheckResult(name, "skipped", detail="no neighbor within r")
    rho = d * (1.0 + 1e-9)
    scan = scan_field(f, np.concatenate([rho, d, [r]]), [i])
    alpha = float(np.max(scan["lip_upper"][0, :d.size] * rho / d))
    beta = float(np.max(scan["lip_upper_closed"][0, d.size:-1]))
    gamma = float(scan["big_below"][0, -1])
    worst, _ = _worst(np.abs([alpha - beta, beta - gamma, alpha - gamma]))
    tol = 1e-12
    return _result(name, worst <= tol, worst, tol,
                   {"point": x, "radius": float(r),
                    "alpha": alpha, "beta": beta, "gamma": gamma})


def linear_map_sample(A: LinearMapSpec, x0, resolution: float) -> SampledMap:
    """Grid sample of u -> A u on a ball of radius 25 resolutions around
    x0."""
    x0 = np.asarray(x0, dtype=float)
    n = A.shape[1]
    radius = 25.0 * resolution
    axis = np.arange(-radius, radius + resolution / 2, resolution)
    mesh = np.meshgrid(*([axis] * n), indexing="ij")
    offsets = np.column_stack([m.ravel() for m in mesh])
    offsets = offsets[np.linalg.norm(offsets, axis=1) <= radius + 1e-12]
    # snap the row nearest the origin to exact zeros so x0 itself is sampled
    offsets[np.argmin(np.linalg.norm(offsets, axis=1))] = 0.0
    coords = x0 + offsets
    ids = [tuple(float(c) for c in row) for row in coords]
    space = FiniteMetricSpace(ids, coords=coords, p=A.domain_p)
    return SampledMap.vector(space, A.apply(coords), p=A.codomain_p)


def check_frechet(A: LinearMapSpec, x0, resolution: float, name="frechet",
                  seed=0) -> CheckResult:
    """Big-derivative estimate of a linear map matches its operator norm."""
    f = linear_map_sample(A, x0, resolution)
    x0_id = tuple(float(c) for c in np.asarray(x0, dtype=float))
    r = 25.0 * resolution * 1.01
    big_hat = big_lip_below_r(f, x0_id, r)
    norm = operator_norm(A, sphere_samples=20000, seed=seed)
    gap = abs(big_hat - norm) / norm if norm > 0 else abs(big_hat)
    tol = 0.02
    return _result(name, gap <= tol, gap, tol,
                   {"big_hat": big_hat, "operator_norm": norm})


def check_gamma_lipschitz(f: SampledMap, gamma: float, grid: RadiusGrid,
                          name="gamma_lipschitz",
                          convex=True) -> CheckResult:
    """Both directions of the convex-domain characterization.

    Forward: pairwise gamma-Lipschitz data has little functional <= gamma at
    every scale (a finite-data identity, tolerance 0).  Backward: little
    functional <= gamma at the finest scale implies the pairwise bound up to
    a sub-resolution tolerance.
    """
    if not convex:
        return CheckResult(name, "skipped", detail="domain not flagged convex")
    norm = lip_norm(f)
    diam, resolution = f.domain.diameter(), f.domain.resolution()
    little = scan_field(f, grid.radii)["little_below"]
    # rounding allowance so e.g. exact-slope data is not pushed off the
    # hypothesis boundary by one ulp
    eps = 1e-12 * max(1.0, gamma, norm)
    finest_ok = bool(np.all(little[:, -1] <= gamma + eps))
    pair_tol = 2.0 * resolution / diam if diam > 0 else 0.0
    # a NaN on either side is a gap, not an unmet hypothesis
    gaps = [np.nan] if np.isnan(little).any() or np.isnan(norm) else []
    detail = []
    if norm <= gamma + eps:    # forward: exact up to the ulp allowance
        gaps.append(np.max(little) - gamma - eps)
        detail.append("forward")
    if finest_ok:          # backward: pairwise bound up to sub-resolution tol
        gaps.append(norm - gamma * (1.0 + pair_tol) - eps)
        detail.append("backward")
    if not gaps:
        return CheckResult(name, "skipped",
                           detail="hypothesis-not-met: little functional "
                                  "exceeds gamma at the finest scale")
    worst, _ = _worst([0.0] + gaps)     # 0 when no gap is positive
    return _result(name, worst <= 0.0, worst, pair_tol if finest_ok else 0.0,
                   {"gamma": gamma, "lip_norm": norm},
                   detail="+".join(detail))


def check_lipnorm_identity(f: SampledMap, grid: RadiusGrid,
                           name="lipnorm_identity") -> CheckResult:
    """Global Lipschitz constant vs the sup of pointwise little estimates."""
    norm = lip_norm(f)
    r_small = float(grid.radii[-1])
    hats = scan_field(f, r_small)["nearest_scale_inf"]
    sup_hat = float(np.max(hats))
    if norm == 0.0:
        return _result(name, sup_hat == 0.0, sup_hat, 0.0,
                       {"lip_norm": 0.0, "sup_little": sup_hat})
    gap = abs(norm - sup_hat) / norm
    tol = 0.05
    return _result(name, gap <= tol, gap, tol,
                   {"lip_norm": norm, "sup_little": sup_hat})


def check_segment_chain_rule(f: SampledMap, func, a, b, r: float,
                             name="segment_chain_rule") -> CheckResult:
    """Composition with the segment parametrization obeys the slope bound.

    g = f(T(u)) on a uniform grid of [0,1]; the little estimate of g at scale
    r is checked against |b-a| times the big functional of f at T(u) at the
    matched scale r*|b-a| (an upper bound for the little derivative of f).
    Skipped where the domain point nearest some evaluated T(u) has no
    neighbour within the matched scale: its ball is empty, and the big
    functional reads 0 there.
    """
    ia, ib = f.domain.index(a), f.domain.index(b)
    pa, pb = f.domain.coords[ia], f.domain.coords[ib]
    seg = pb - pa
    length = float(np.linalg.norm(seg))
    if length == 0.0:
        raise InputError("segment endpoints coincide")
    steps = 200
    us = np.linspace(0.0, 1.0, steps + 1)
    gspace = FiniteMetricSpace.grid1d(0.0, 1.0, 1.0 / steps)
    gvals = []
    for u in us:
        y = func(pa + u * seg)
        y = np.asarray(y, dtype=float)
        if y.ndim > 0 and y.size > 1:
            raise InputError("segment check needs a real-valued function")
        gvals.append(float(y))
    g = SampledMap.real(gspace, gvals)
    at = np.arange(0, steps + 1, 10)
    near = [int(np.argmin(np.linalg.norm(f.domain.coords - (pa + u * seg),
                                         axis=1))) for u in us[at]]
    scale = r * length
    big = scan_field(f, scale, near)
    # d1 is inf where no neighbour lies within the scale
    if np.any(big["d1"] >= scale):
        return CheckResult(name, "skipped",
                           detail=f"no neighbour within the matched scale "
                                  f"r*|b-a| = {scale:.4g}")
    lhs = scan_field(g, r, at)["nearest_scale_inf"][:, 0]
    rhs = length * big["big_below"][:, 0]
    tol = 0.05 * float(np.max(rhs)) + 2.0 * length / steps
    return _verdict(name, lhs - rhs,
                    lambda k: {"u": float(us[at][k]), "lhs": float(lhs[k]),
                               "rhs": float(rhs[k])}, limit=tol)


def bhmv_map(E: IntervalUnion, span, resolution: float) -> SampledMap:
    """f(u) = measure([span_lo, u] intersect E) on a uniform grid of span."""
    lo, hi = float(span[0]), float(span[1])
    space = FiniteMetricSpace.grid1d(lo, hi, resolution)
    values = [E.intersect(lo, float(u)).measure() for u in space.ids]
    return SampledMap.real(space, values)


def check_bhmv_bound(E: IntervalUnion, span, resolution: float,
                     name="bhmv") -> CheckResult:
    """|f(a)-f(b)| equals the measure of [a,b] within E, plus slope bounds.

    The values of f come from ``bhmv_map``'s scalar ``intersect().measure()``
    and the measures of all pairs from one ``E.intersect_measures`` call, so
    the check compares the two.  The little estimate at each point is
    bounded by 1 on E, by tol off the r_small-neighbourhood of E and not at
    all in between.  The witness is the first pair (in
    ``itertools.combinations`` order), then point, with the largest gap; an
    infinite estimate under an infinite bound is no gap, and a NaN gap
    fails.
    """
    tol = 1e-12
    f = bhmv_map(E, span, resolution)
    xs = np.array([float(u) for u in f.domain.ids])
    vals = f.values
    i, j = np.triu_indices(len(xs), 1)
    mu = E.intersect_measures(xs[i], xs[j])
    r_small = 2.0 * resolution
    hat = scan_field(f, r_small)["nearest_scale_inf"][:, 0]
    dist = np.array([E.distance_to(float(u)) for u in xs])
    bound = np.where(dist == 0.0, 1.0 + tol,
                     np.where(dist <= r_small, np.inf, tol))
    with np.errstate(invalid="ignore"):
        gaps = np.concatenate((
            np.abs(np.abs(vals[j] - vals[i]) - mu) - tol,
            np.where(np.isinf(hat) & np.isinf(bound), -np.inf, hat - bound)))

    def witness_at(at):
        k, = at
        if k < i.size:
            return {"a": xs[i[k]], "b": xs[j[k]], "mu": float(mu[k])}
        return {"point": float(xs[k - i.size]),
                "little_hat": float(hat[k - i.size])}
    return _verdict(name, gaps, witness_at, tolerance=tol)


def derivative_fields(f: SampledMap, r_fine: float, r_loc: float):
    """Pointwise little/big estimates at a fine scale and the local
    functional at scale r_loc, as scalar fields."""
    scan = scan_field(f, r_fine)
    sp = f.domain
    return (ScalarField(sp, scan["nearest_scale_inf"]),
            ScalarField(sp, scan["big_below"]),
            ScalarField(sp, loc_field(f, r_loc)))


def _cell_oscillation(g: ScalarField) -> float:
    """Largest finite |g(x) - g(y)| over each point x and its nearest
    neighbour y (the first index among the nearest)."""
    _, j = g.space.nearest_neighbors()
    has = j >= 0
    with np.errstate(invalid="ignore"):
        diff = np.abs(g.values[has] - g.values[j[has]])
    return float(np.max(diff, where=np.isfinite(diff), initial=0.0))


def check_envelope_identity(f: SampledMap, h: float, resolution: float,
                            name="envelope_identity") -> CheckResult:
    """Upper envelopes of the little/big fields match the local field.

    Fields approximating the little and big derivatives are computed at a
    fine scale (capped at h/2), their scale-h upper Baire envelopes are
    compared to the scale-h local field in sup distance.
    """
    if h <= resolution:
        raise InputError("envelope scale h must exceed the sample resolution")
    r_fine, rel_tol = min(h / 2.0, 2.5 * resolution), 0.05
    little_f, big_f, loc_f = derivative_fields(f, r_fine, h)
    env_little = baire_upper(little_f, h)
    env_big = baire_upper(big_f, h)
    tol = _cell_oscillation(loc_f) + rel_tol * float(np.max(loc_f.values))
    gaps = np.maximum(np.abs(env_little.values - loc_f.values),
                      np.abs(env_big.values - loc_f.values))
    worst, (i,) = _worst(gaps)
    return _result(name, worst <= tol, worst, tol,
                   {"point": f.domain.ids[i],
                    "envelope_little": float(env_little.values[i]),
                    "envelope_big": float(env_big.values[i]),
                    "local": float(loc_f.values[i])})


def check_openness_surrogate(f: SampledMap, x0, r: float, gamma: float,
                             name="openness", inject_fault=False) -> CheckResult:
    """Local functional at half scale never exceeds it at the center: exact."""
    base = loc_lip_r(f, x0, r)
    if base >= gamma:
        return CheckResult(name, "skipped",
                           detail="precondition loc < gamma not met")
    # a NaN precondition fails: every gap is NaN
    base = math.nan if math.isnan(gamma) else base
    ball = f.domain.ball_indices(f.domain.index(x0), r / 2.0)
    vals = loc_field(f, r / 2.0, ball)
    if inject_fault:
        vals[:1] = base + 1.0
    return _verdict(name, vals - base,
                    lambda k: {"x0": x0, "x": f.domain.ids[ball[k]],
                               "radius": float(r)})


def check_semicontinuity_fields(entry: ZooEntry, r: float, h: float,
                                name="semicontinuity") -> CheckResult:
    """usc/lsc defects of the derivative fields obey the modulus schedule."""
    if not entry.continuous:
        return CheckResult(name, "skipped", detail="discontinuous entry")
    if entry.omega is None:
        return CheckResult(name, "skipped", detail="no modulus oracle")
    if h < 2.0 * entry.resolution:
        raise InputError("h must be at least twice the sample resolution")
    f = entry.map
    scan = scan_field(f, r)
    little = scan["little_below"][:, 0].tolist()
    big = scan["big_below"][:, 0].tolist()
    loc = loc_field(f, r).tolist()
    sp = f.domain
    scale = max(1.0, float(np.max(np.abs(
        [v for v in little + big + loc if np.isfinite(v)] or [0.0]))))
    bound = float(entry.omega(h)) + 1e-9 * scale
    defects = {
        "usc_little": float(np.max(usc_defect(ScalarField(sp, little), h).values)),
        "lsc_big": float(np.max(lsc_defect(ScalarField(sp, big), h).values)),
        "usc_loc": float(np.max(usc_defect(ScalarField(sp, loc), h).values)),
    }
    worst, (k,) = _worst(list(defects.values()))
    return _result(name, worst <= bound, worst, bound,
                   {"kind": list(defects)[k], "h": h, "r": r},
                   detail=str(defects))


def _hats(summaries):
    """The lip_hat, big_hat and loc_hat arrays of a summary list."""
    return (np.array([s.lip_hat for s in summaries]),
            np.array([s.big_hat for s in summaries]),
            np.array([s.loc_hat for s in summaries]))


def check_summary_ordering(f: SampledMap, grid: RadiusGrid,
                           name="summary_ordering", points=None) -> CheckResult:
    """little <= big <= local on the per-point summary estimates: exact, so
    the thresholded level sets are nested for every gamma."""
    summaries = scale_summaries(f, grid, points=points)
    return _verdict(name, _ordering(*_hats(summaries)),
                    lambda at: {"point": summaries[at[0]].point})


def check_level_sets(entry: ZooEntry, gamma: float, grid: RadiusGrid,
                     name="level_sets", points=None) -> CheckResult:
    """Summary estimates are ordered little <= big <= local pointwise (so the
    thresholded sets are nested for every gamma), and for cusp entries the
    above-gamma set localizes around the genuine blow-up point."""
    summaries = scale_summaries(entry.map, grid, points=points)
    # an ordering failure has no witness
    out = _verdict(name, _ordering(*_hats(summaries)), lambda at: None)
    blow_up = entry.meta.get("infinite_big_set")
    # localization only makes sense when the sample can exhibit values above
    # gamma near the blow-up point and the smallest radius resolves the grid
    resolvable = (blow_up is not None
                  and gamma * gamma * entry.resolution < 1.0
                  and float(grid.radii[-1]) > entry.resolution)
    if out.passed and resolvable:
        radius = max(gamma ** -2 * 1.0001, 2.0 * entry.resolution)
        hot = [s.point for s in summaries if s.big_hat > gamma]
        contains = all(any(abs(p - q) <= entry.resolution / 2 for p in hot)
                       for q in blow_up)
        inside = all(min(abs(p - q) for q in blow_up) <= radius for p in hot)
        out.detail = (f"localized: above-gamma set size {len(hot)} "
                      f"within radius {radius:g}")
        if not (contains and inside):
            out.status, out.witness = "fail", {"gamma": gamma, "hot": hot[:8]}
    return out


# ---------------------------------------------------------------------------
# set-class sweeps


#: the field values of the set-class sweeps
_LEVELS = (-math.inf, 0.0, 1.0, math.inf)


#: every operator string that the set-class checks apply
_OPS_IN_USE = ("c", "s", "d", "sc", "cs", "cd", "dc", "cdc")


def _closures_by_definition(n: int) -> dict:
    """``{ops: table}`` for every string of ``_OPS_IN_USE``: ``table[p]`` is
    the presence bitmap of ``apply_ops(F, ops)`` for the family F on n points
    whose presence bitmap is p, read from the definitions alone.

    The complements of F are {full ^ m : m in F}; its sigma (delta) closure
    is the set of the unions (intersections) of its non-empty subfamilies,
    each (family, subfamily) pair enumerated.
    """
    full = (1 << n) - 1
    masks = np.arange(full + 1)
    fams = np.arange(1 << (full + 1))
    member = ((fams[:, None] >> masks) & 1) == 1
    comp = np.bitwise_or.reduce(np.where(member, 1 << (full ^ masks), 0),
                                axis=1)
    sub, fam = np.nonzero((fams[:, None] & ~fams) == 0)
    sub, fam = sub[sub > 0], fam[sub > 0]
    tables = {"c": comp}
    for op, ufunc, empty in (("s", np.bitwise_or, 0),
                             ("d", np.bitwise_and, full)):
        value = ufunc.reduce(np.where(member, masks, empty), axis=1)
        tables[op] = np.zeros_like(fams)
        np.bitwise_or.at(tables[op], fam, 1 << value[sub])
    out = {}
    for ops in _OPS_IN_USE:
        out[ops] = fams
        for op in ops:
            out[ops] = tables[op][out[ops]]
    return out


def _closure_failures(n: int) -> list:
    """Every family on n points whose ``apply_ops`` closures differ from
    their definitions, one entry per string."""
    failures = []
    expected = _closures_by_definition(n)
    for p in range(1 << (1 << n)):
        F = SetFamily(range(n), [m for m in range(1 << n) if p >> m & 1])
        for ops in _OPS_IN_USE:
            if setclass.apply_ops(F, ops).presence != expected[ops][p]:
                failures.append({"n": n, "closure": ops,
                                 "family": sorted(F.masks)})
    return failures


def check_setclass_exhaustive(max_ground=4, name="setclass/exhaustive",
                              rng=None) -> CheckResult:
    """Family identities plus the semicontinuity duality properties over every
    topology on grounds of size <= max_ground and all fields on ``_LEVELS``,
    and the closures of every family on at most 3 points (and at most
    max_ground) against their definitions.

    One ``setclass.sc_table`` call per topology answers every field; the
    sup (inf) statements of all topologies of one size are read from one
    more, on the sups of their F-upper sc fields (of -f for the F-lower sc
    ones) against the topologies' F_cs.
    """
    failures = []
    for n in range(min(max_ground, 3) + 1):
        failures += _closure_failures(n)
    for n in range(1, max_ground + 1):
        ground = tuple(range(n))
        values = np.array(list(itertools.product(_LEVELS, repeat=n)))
        fields = setclass.FieldBatch(ground, values)
        found = []              # failures per topology, in check order
        sups, of = [], []       # sup fields; (topology, failure, F_cs) each
        for t, masks in enumerate(setclass.all_topologies(n)):
            F = SetFamily(ground, masks)
            found.append([{"n": n, "identity": ident}
                          for ident in setclass.FAMILY_IDENTITIES
                          if not setclass.verify_family_identity(F, ident)[0]])
            sc, holds = setclass.sc_table(fields, F)
            upper, lower = np.flatnonzero(sc[0]), np.flatnonzero(sc[1])
            both = np.concatenate((upper, lower))
            for i in both[~holds[:, both].all(axis=0)]:
                found[t].append({"n": n, "field": list(values[i]),
                                 "family": sorted(masks)})
            picks = []
            if upper.size:
                picks.append((values[upper], "sup"))
            if lower.size:
                picks.append((-values[lower], "inf"))
            if rng is not None and upper.size >= 2:
                for _ in range(3):
                    pick = rng.choice(upper.size, size=2, replace=False)
                    picks.append((values[upper[pick]], "sup-pair"))
            for rows, prop in picks:
                sups.append(rows.max(axis=0))
                failure = {"n": n, "prop": prop}
                if prop != "sup-pair":
                    failure["family"] = sorted(masks)
                of.append((t, failure, setclass.apply_ops(F, "cs")))
        if sups:
            sc, _ = setclass.sc_table(setclass.FieldBatch(ground, sups),
                                      [cs for *_, cs in of], statements=False)
            for (t, failure, _), ok in zip(of, sc[1]):
                if not ok:
                    found[t].append(failure)
        failures += itertools.chain.from_iterable(found)
    return _result(name, not failures, float(len(failures)), 0.0,
                   {"failures": failures[:5]} if failures else None)


def check_setclass_random(seed=0, name="setclass/random") -> CheckResult:
    """Seeded identity and duality checks on 500 topologies of 5 points."""
    rng = np.random.default_rng(seed)
    n = 5
    ground = tuple(range(n))
    draws = []
    for _ in range(500):
        F = SetFamily(ground, setclass.random_topology(n, rng))
        ident = list(setclass.FAMILY_IDENTITIES)[int(rng.integers(0, 3))]
        vals = [_LEVELS[i] for i in rng.integers(0, len(_LEVELS), size=n)]
        draws.append((F, ident, vals))
    families = [F for F, _, _ in draws]
    values = np.array([vals for *_, vals in draws])
    sc, _ = setclass.sc_table(setclass.FieldBatch(ground, values), families,
                              statements=False)
    wrong = np.zeros(len(draws), dtype=bool)
    some = np.flatnonzero(sc.any(axis=0))
    if some.size:
        _, holds = setclass.sc_table(
            setclass.FieldBatch(ground, values[some]),
            [families[i] for i in some])
        wrong[some] = ~holds.all(axis=0)
    failures = []
    for (F, ident, vals), bad in zip(draws, wrong):
        if not setclass.verify_family_identity(F, ident)[0]:
            failures.append({"identity": ident})
        if bad:
            failures.append({"field": vals})
    return _result(name, not failures, float(len(failures)), 0.0,
                   {"failures": failures[:5]} if failures else None)


# ---------------------------------------------------------------------------
# brute-force oracle equivalence


def _brute_lip_upper(d, dv, rho, closed=False):
    mask = (d > 0) & ((d <= rho) if closed else (d < rho))
    return float(np.max(dv[mask]) / rho) if np.any(mask) else 0.0


def _brute_sweep(d, dv, rhos):
    """Open-ball functional straight from the definition on a scale array."""
    rhos = np.asarray(rhos, dtype=float)
    mask = (d[:, None] > 0) & (d[:, None] < rhos[None, :])
    tops = np.max(np.where(mask, dv[:, None], 0.0), axis=0)
    return tops / rhos


def check_scale_oracles(space: FiniteMetricSpace, values, radii,
                        name="oracle_equiv") -> CheckResult:
    """Every scale functional vs direct-definition enumeration.

    The little/big functionals are compared against min/max of the open-ball
    functional over a dense scale grid enriched with the neighbor distances
    (and points just above them), evaluated straight from the definition.
    The library side of the whole space is one ``scan_field`` call and one
    ``loc_field`` call per radius.
    """
    tol, rho_grid = 1e-9, 2000
    f = SampledMap.real(space, values)
    radii = np.asarray(radii, dtype=float)
    field = scan_field(f, radii)
    field["loc"] = np.column_stack([loc_field(f, r) for r in radii.tolist()])
    dist = [space.dist_row(i) for i in range(space.n)]
    compared = []       # (witness, got, want) in check order
    for i, x in enumerate(space.ids):
        d = dist[i]
        dv = f.value_dist_from(i)
        pos = np.sort(d[d > 0])
        scanned = {kind: v[i].tolist() for kind, v in field.items()}
        for ri, r in enumerate(radii.tolist()):
            checks = {
                "lip_upper": (scanned["lip_upper"][ri],
                              _brute_lip_upper(d, dv, r)),
                "lip_upper_closed": (scanned["lip_upper_closed"][ri],
                                     _brute_lip_upper(d, dv, r, closed=True)),
            }
            mask = (d > 0) & (d < r)
            brute_big = float(np.max(dv[mask] / d[mask])) if np.any(mask) else 0.0
            checks["big_below"] = (scanned["big_below"][ri], brute_big)
            inside = pos[pos < r]
            if inside.size:
                d1 = float(inside[0])
                cand = np.concatenate([
                    np.linspace(d1, r, rho_grid)[1:],
                    inside[inside > d1], [r]])
                cand = cand[cand > d1]
                sweep = _brute_sweep(d, dv, cand)
                brute_little = float(np.min(sweep))
                cand_up = np.concatenate([inside * (1 + 1e-12),
                                          np.linspace(1e-9, r, 200)])
                cand_up = cand_up[(cand_up > 0) & (cand_up < r * (1 + 1e-12))]
                brute_big_sweep = float(np.max(_brute_sweep(d, dv, cand_up)))
                checks["little_below"] = (scanned["little_below"][ri],
                                          brute_little)
                checks["big_sweep"] = (scanned["big_below"][ri], brute_big_sweep)
            else:
                checks["little_below"] = (scanned["little_below"][ri], 0.0)
            idx = np.flatnonzero(d < r)
            brute_loc = 0.0
            for a, b in itertools.combinations(idx, 2):
                dd = float(dist[a][b])
                brute_loc = max(brute_loc, abs(values[a] - values[b]) / dd)
            checks["loc"] = (scanned["loc"][ri], brute_loc)
            compared += [({"point": x, "radius": r, "kind": kind, "got": got,
                           "want": want}, got, want)
                         for kind, (got, want) in checks.items()]
    brute_norm = 0.0
    for a, b in itertools.combinations(range(space.n), 2):
        brute_norm = max(brute_norm,
                         abs(values[a] - values[b]) / float(dist[a][b]))
    compared.append(({"kind": "lip_norm"}, lip_norm(f), brute_norm))
    witnesses, got, want = zip(*compared)
    with np.errstate(invalid="ignore"):
        gaps = np.abs(np.subtract(got, want))
    return _verdict(name, gaps, lambda at: witnesses[at[0]], limit=tol)


# ---------------------------------------------------------------------------
# suite runner


@dataclass
class SuiteConfig:
    seed: int = 7
    suite: tuple = ("all",)
    inject_fault: str | None = None
    zoo_resolution: float = 0.02
    random_spaces: int = 50


def _entry_points(entry: ZooEntry, rng):
    cap = 80
    ids = list(entry.space.ids)
    if len(ids) <= cap:
        return ids
    pick = rng.choice(len(ids), size=cap, replace=False)
    return [ids[i] for i in sorted(pick)]


def _suite_chain(cfg, rng, entries):
    grid = RadiusGrid(0.3, 0.5, 5, 3)
    out = []
    for e in entries:
        pts = _entry_points(e, rng)
        fault = cfg.inject_fault == "chain" and e.name == "sin"
        out.append(check_chain(e.map, grid, name=f"chain/zoo:{e.name}",
                               points=pts, inject_fault=fault))
    for k in range(cfg.random_spaces):
        sp = random_space(rng, int(rng.integers(4, 13)))
        out.append(check_chain(random_map(rng, sp), RadiusGrid(1.5, 0.5, 5, 3),
                               name=f"chain/random:{k:03d}"))
    return out


def _suite_plus_variant(cfg, rng, entries):
    out = []
    for k in range(100):
        sp = random_space(rng, 8)
        f = random_map(rng, sp)
        i = int(rng.integers(0, sp.n))
        x = sp.ids[i]
        # keep the scale above the nearest-neighbor distance so the sweep
        # always has breakpoints to compare
        r = float(max(rng.uniform(0.3, 2.5),
                      1.5 * sp.nearest_neighbor_distance(i)))
        out.append(check_plus_variant(f, x, r, name=f"plus_variant/{k:03d}"))
    e = get_entry(entries, "affine_slope3")
    out.append(check_plus_variant(e.map, e.point_near(0.1), 0.3,
                                  name="plus_variant/zoo:affine"))
    return out


FRECHET_CASES = {
    "diag": ([[2.0, 0.0], [0.0, 1.0]], (0.3, -0.7)),
    "rotation": ([[math.cos(0.5), -math.sin(0.5)],
                  [math.sin(0.5), math.cos(0.5)]], (0.0, 0.0)),
    "shear": ([[1.0, 1.0], [0.0, 1.0]], (0.1, 0.2)),
}


def _suite_frechet(cfg, rng, entries):
    return [check_frechet(LinearMapSpec(mat), x0, 1e-2,
                          name=f"frechet/{label}", seed=cfg.seed)
            for label, (mat, x0) in FRECHET_CASES.items()]


def c1_identity_check(entry: ZooEntry, name) -> CheckResult:
    """Summary estimates vs |f'| within 2% relative plus 2x resolution."""
    res, rel_tol = entry.resolution, 0.02
    grid = RadiusGrid(32 * res, 0.5, 5, 3)
    margin = grid.r_max
    coords = entry.space.coords[:, 0]
    lo, hi = float(np.min(coords)) + margin, float(np.max(coords)) - margin
    pts = [p for p in entry.space.ids if lo <= p <= hi]
    summaries = scale_summaries(entry.map, grid, points=pts)
    target = np.array([entry.Lip_oracle(s.point) for s in summaries])[:, None]
    got = np.column_stack(_hats(summaries))    # little, big, local per point
    gaps = np.abs(got - target) - (rel_tol * target + 2.0 * res)
    return _verdict(name, gaps,
                    lambda at: {"point": summaries[at[0]].point,
                                "kind": ("little", "big", "local")[at[1]],
                                "got": float(got[at]),
                                "target": float(target[at[0], 0])},
                    tolerance=rel_tol)


def _suite_c1(cfg, rng, entries):
    return [c1_identity_check(make_entry(n, 1e-3), name=f"c1_identity/{n}")
            for n in ("sin", "square")]


def separation_checks() -> list:
    """Dyadic staircase and the quadratic oscillator at the origin."""
    out = []
    dy = make_entry("dyadic_staircase", 2.0 ** -14).map
    # the two summary estimates at the smallest radius of the grid
    # 0.5 * 0.5**k, k < 3, which need no local functional
    scan = scan_field(dy, 0.125, [dy.domain.index(0.0)])
    lip_hat = float(scan["nearest_scale_inf"][0, 0])
    big_hat = float(scan["big_below"][0, 0])
    ok = 0.45 <= lip_hat <= 0.55 and 0.95 <= big_hat <= 1.05
    out.append(_result("separation/dyadic", ok,
                       max(abs(lip_hat - 0.5), abs(big_hat - 1.0)), 0.05,
                       {"lip_hat": lip_hat, "big_hat": big_hat}))
    osc = make_entry("oscillator", 2.5e-4)
    s, = scale_summaries(osc.map, RadiusGrid(0.02, 0.5, 1, 1), points=[0.0])
    ok = s.lip_hat <= 0.05 and 0.9 <= s.loc_hat <= 1.05
    out.append(_result("separation/oscillator", ok,
                       max(s.lip_hat, abs(s.loc_hat - 1.0)), 0.1,
                       {"lip_hat": s.lip_hat, "loc_hat": s.loc_hat}))
    return out


def _suite_separation(cfg, rng, entries):
    return separation_checks()


def _suite_gamma(cfg, rng, entries):
    grid = RadiusGrid(0.064, 0.5, 5, 3)
    return [check_gamma_lipschitz(make_entry(entry_name, 1e-3).map, gamma,
                                  grid, name=f"gamma_lipschitz/{entry_name}")
            for entry_name, gamma in (("sin", 1.0), ("affine_slope3", 3.0),
                                      ("constant", 0.0),
                                      ("bhmv_measure", 1.0),
                                      ("sqrt_abs", 1.0))]


def _suite_lipnorm(cfg, rng, entries):
    grid = RadiusGrid(0.016, 0.5, 3, 2)
    return [check_lipnorm_identity(make_entry(n, 1e-3).map, grid,
                                   name=f"lipnorm_identity/{n}")
            for n in ("sin", "affine_slope3", "constant")]


def _suite_segment(cfg, rng, entries):
    out = []
    e = get_entry(entries, "linear_shear")
    proj = lambda u: float(np.asarray(u)[1])
    planar = SampledMap.real(e.space, e.space.coords[:, 1])
    out.append(check_segment_chain_rule(
        planar, proj, e.point_near((-0.4, -0.3)), e.point_near((0.4, 0.3)),
        0.05, name="segment_chain_rule/planar_projection"))
    slope = np.array([2.0, -1.0])
    aff = SampledMap.real(e.space, e.space.coords @ slope)
    out.append(check_segment_chain_rule(
        aff, lambda u: float(np.asarray(u) @ slope),
        e.point_near((-0.4, -0.2)), e.point_near((0.4, 0.2)),
        0.05, name="segment_chain_rule/affine"))
    const = SampledMap.real(e.space, np.zeros(e.space.n))
    out.append(check_segment_chain_rule(
        const, lambda u: 0.0, e.point_near((-0.3, 0.3)),
        e.point_near((0.3, -0.3)), 0.05,
        name="segment_chain_rule/constant"))
    return out


def _suite_bhmv(cfg, rng, entries):
    cases = {
        "two_blocks": IntervalUnion([(0.0, 1.0), (2.0, 3.0)]),
        "empty": IntervalUnion([]),
        "full": IntervalUnion([(0.0, 3.0)]),
    }
    return [check_bhmv_bound(E, (0.0, 3.0), 0.02, name=f"bhmv/{label}")
            for label, E in cases.items()]


def _suite_envelope(cfg, rng, entries):
    return [check_envelope_identity(make_entry(n, 1e-3).map, 0.05, 1e-3,
                                    name=f"envelope_identity/{n}")
            for n in ("constant", "affine_slope3", "sin", "square", "abs",
                      "oscillator")]


def _suite_openness(cfg, rng, entries):
    out = []
    for e in entries:
        if e.space.n < 3:
            continue
        x0 = e.space.ids[e.space.n // 2]
        r = 0.3
        gamma = loc_lip_r(e.map, x0, r) + 1.0
        fault = cfg.inject_fault == "openness" and e.name == "sin"
        out.append(check_openness_surrogate(
            e.map, x0, r, gamma, name=f"openness/zoo:{e.name}",
            inject_fault=fault))
    for k in range(cfg.random_spaces):
        sp = random_space(rng, 12)
        f = random_map(rng, sp)
        x0 = sp.ids[int(rng.integers(0, sp.n))]
        r = float(rng.uniform(0.5, 2.0))
        out.append(check_openness_surrogate(
            f, x0, r, loc_lip_r(f, x0, r) + 1.0,
            name=f"openness/random:{k:03d}"))
    return out


def _suite_semicontinuity(cfg, rng, entries):
    coarse = make_zoo(2e-3)
    out = []
    # scale radius chosen off the sample lattice: a grid-aligned open-ball
    # boundary would flicker between points under floating-point rounding
    for e in coarse:
        out.append(check_semicontinuity_fields(
            e, r=0.0999, h=0.01, name=f"semicontinuity/{e.name}"))
    return out


def _suite_level_sets(cfg, rng, entries):
    out = []
    grid = RadiusGrid(0.02, 0.5, 4, 2)
    e = make_entry("sqrt_abs", 1e-4)
    pts = [p for p in e.space.ids if abs(p) <= 0.02]
    out.append(check_level_sets(e, 99.5, grid, name="level_sets/sqrt_abs",
                                points=pts))
    coarse_grid = RadiusGrid(0.3, 0.5, 5, 3)
    for e in entries:
        pts = _entry_points(e, rng)
        out.append(check_level_sets(e, 10.0, coarse_grid,
                                    name=f"level_sets/zoo:{e.name}",
                                    points=pts))
    for k in range(cfg.random_spaces):
        sp = random_space(rng, int(rng.integers(4, 13)))
        out.append(check_summary_ordering(
            random_map(rng, sp), RadiusGrid(1.5, 0.5, 5, 3),
            name=f"level_sets/random:{k:03d}"))
    return out


def _suite_setclass(cfg, rng, entries):
    return [check_setclass_exhaustive(rng=rng),
            check_setclass_random(seed=cfg.seed)]


def _suite_oracle_equiv(cfg, rng, entries):
    out = []
    for k in range(cfg.random_spaces):
        sp = random_space(rng, int(rng.integers(3, 13)))
        vals = rng.normal(size=sp.n)
        radii = rng.uniform(0.2, 2.5, size=3)
        out.append(check_scale_oracles(sp, vals, radii,
                                       name=f"oracle_equiv/{k:03d}"))
    return out


_SUITES = {
    "chain": _suite_chain,
    "plus_variant": _suite_plus_variant,
    "frechet": _suite_frechet,
    "c1_identity": _suite_c1,
    "separation": _suite_separation,
    "gamma_lipschitz": _suite_gamma,
    "lipnorm": _suite_lipnorm,
    "segment_chain": _suite_segment,
    "bhmv": _suite_bhmv,
    "envelope": _suite_envelope,
    "openness": _suite_openness,
    "semicontinuity": _suite_semicontinuity,
    "level_sets": _suite_level_sets,
    "setclass": _suite_setclass,
    "oracle_equiv": _suite_oracle_equiv,
}

#: the suites in run order; perfbench imports it to trace one span per suite
SUITE_NAMES = tuple(_SUITES)


def _timed_suite(config, entries, name):
    """(wall seconds, results) of one suite; an ``InputError`` inside it
    becomes the one failed result ``<name>/input``."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    try:
        results = _SUITES[name](config, rng, entries)
    except InputError as exc:
        results = [CheckResult(f"{name}/input", "fail", detail=str(exc))]
    return time.perf_counter() - t0, results


def run_suite(config: SuiteConfig) -> list:
    """Run the configured check suites; results sorted by canonical name.

    Each selected suite runs once.  The zoo is built once here.  With two
    or more selected suites and CPUs, the suites run on forked workers
    (``workers.fork_map``), one per CPU up to one per suite, which inherit
    the config and the zoo rather than receive them pickled; otherwise
    they run in this process.  Each suite's wall time, measured where it
    ran, and the total are logged at INFO.
    """
    t0 = time.perf_counter()
    names = config.suite
    if not names:
        raise InputError("no suite selected")
    unknown = [n for n in names if n != "all" and n not in _SUITES]
    if unknown:
        raise InputError(f"unknown suite(s): {unknown}")
    if "all" in names:
        names = SUITE_NAMES
    if config.random_spaces < 0:
        raise InputError("random_spaces must be >= 0")
    if config.seed < 0:
        raise InputError("seed must be >= 0")
    # SUITE_NAMES order puts the longest suite, chain, first
    names = sorted(dict.fromkeys(names), key=SUITE_NAMES.index)
    entries = make_zoo(config.zoo_resolution)
    # logging is imported here: at module level it would slow every import
    # of lipderiv
    import logging
    n_workers = min(len(names), workers.usable_cpus())
    outcomes = workers.fork_map(partial(_timed_suite, config, entries),
                                names, n_workers)
    where = (f"on {n_workers} forked workers"
             if n_workers >= 2 and hasattr(os, "fork") else "in process")
    log = logging.getLogger(__name__)
    results = []
    for name, (seconds, suite_results) in zip(names, outcomes):
        log.info("suite %s: %.3f s", name, seconds)
        results.extend(suite_results)
    log.info("total: %.3f s, %d suite(s) %s",
             time.perf_counter() - t0, len(names), where)
    return sorted(results, key=lambda r: r.name)


def overall_ok(results) -> bool:
    return all(r.passed for r in results)
