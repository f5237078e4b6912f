"""Test functions with known Lipschitz-derivative oracles.

Each entry samples an analytic function on a grid and carries per-point
oracle values of the little, big and local derivatives, used by the check
harness and the acceptance suite.  The dyadic-staircase oracle constants were
frozen from the brute-force radius scan in scripts/dyadic_oracle_scan.py.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .envelopes import ScalarField
from .metric import FiniteMetricSpace, IntervalUnion
from .scales import SampledMap

#: frozen output of scripts/dyadic_oracle_scan.py
DYADIC_LITTLE_AT_ZERO = 0.5
DYADIC_BIG_AT_ZERO = 1.0

#: dyadic staircase is flattened to 0 below this level
DYADIC_TRUNCATION = 2.0 ** -20

#: 2-d entries cap their grid step to keep pair scans tractable
MIN_STEP_2D = 0.02


def dyadic_staircase(u: float) -> float:
    """2**-n on 2**-n <= |u| < 2**-(n-1)... doubling steps toward 0."""
    a = abs(u)
    if a < DYADIC_TRUNCATION:
        return 0.0
    mant, e = math.frexp(a)        # a = mant * 2**e, mant in [0.5, 1)
    return 2.0 ** (e - 1)


def _dyadic_boundary(u: float) -> bool:
    a = abs(u)
    if a < DYADIC_TRUNCATION:
        return False
    return math.frexp(a)[0] == 0.5


def oscillator(u: float) -> float:
    return 0.0 if u == 0.0 else u * u * math.sin(1.0 / u)


def oscillator_slope(u: float) -> float:
    if u == 0.0:
        return 0.0
    return 2.0 * u * math.sin(1.0 / u) - math.cos(1.0 / u)


@dataclass
class ZooEntry:
    name: str
    map: SampledMap
    resolution: float
    func: object = None            # analytic callable, scalar or vector input
    lip_oracle: object = None      # callables point-id -> extended real
    Lip_oracle: object = None
    LLip_oracle: object = None
    lip_norm_oracle: float = None
    convex: bool = True
    continuous: bool = True
    c1: bool = False
    omega: object = None           # h -> modulus bound for derivative fields
    meta: dict = field(default_factory=dict)

    @property
    def space(self) -> FiniteMetricSpace:
        return self.map.domain

    def point_near(self, u):
        """Closest sampled point id to the coordinate u."""
        c = self.space.coords
        u = np.atleast_1d(np.asarray(u, dtype=float))
        i = int(np.argmin(np.sum((c - u) ** 2, axis=1)))
        return self.space.ids[i]


def _oracles(oracle):
    """One formula as the little, big and local oracle keywords."""
    return dict(lip_oracle=oracle, Lip_oracle=oracle, LLip_oracle=oracle)


def _entry_1d(name, func, a, b, res, **kw):
    space = FiniteMetricSpace.grid1d(a, b, res)
    values = np.array([func(float(x)) for x in space.ids])
    return ZooEntry(name, SampledMap.real(space, values), res, func=func, **kw)


def _entry_linear(name, matrix, res):
    step = max(res, MIN_STEP_2D)
    axis = np.arange(-0.5, 0.5 + step / 2, step)
    xs, ys = np.meshgrid(axis, axis)
    coords = np.column_stack([xs.ravel(), ys.ravel()])
    ids = [(float(x), float(y)) for x, y in coords]
    space = FiniteMetricSpace(ids, coords=coords, p=2.0)
    A = np.asarray(matrix, dtype=float)
    values = coords @ A.T
    nrm = float(np.linalg.norm(A, 2))
    return ZooEntry(
        name, SampledMap.vector(space, values, p=2.0), step,
        func=lambda u: A @ np.asarray(u, dtype=float),
        **_oracles(lambda p: nrm), lip_norm_oracle=nrm,
        convex=True, continuous=True, c1=True,
        meta={"group": "linear", "matrix": A, "operator_norm": nrm})


def _bhmv_entry(name, res):
    E = IntervalUnion([(0.0, 1.0), (2.0, 3.0)])
    f = lambda u: E.intersect(0.0, float(u)).measure()
    entry = _entry_1d(
        name, f, 0.0, 3.0, res,
        **_oracles(lambda u: 1.0 if E.distance_to(u) == 0 else 0.0),
        lip_norm_oracle=1.0, convex=True, continuous=True,
        meta={"group": "bhmv", "interval_union": E})
    return entry


def _dyadic_field(which):
    def oracle(u):
        if u == 0.0:
            return {"lip": DYADIC_LITTLE_AT_ZERO,
                    "Lip": DYADIC_BIG_AT_ZERO,
                    "LLip": math.inf}[which]
        if _dyadic_boundary(u):
            return math.inf
        return 0.0
    return oracle


def _two_point_entry(name):
    space = FiniteMetricSpace.discrete(["a", "b"])
    # every point of a discrete space is isolated: all derivatives vanish
    return ZooEntry(
        name, SampledMap.real(space, [0.0, 1.0]), 1.0,
        **_oracles(lambda p: 0.0), lip_norm_oracle=1.0,
        convex=False, continuous=True, meta={"group": "discrete"})


#: every standard entry in zoo order, as name -> builder(name, resolution)
_BUILDERS = {
    "constant": lambda name, res: _entry_1d(
        name, lambda u: 1.0, -1.0, 1.0, res,
        **_oracles(lambda u: 0.0), lip_norm_oracle=0.0,
        c1=True, omega=lambda h: 0.0, meta={"group": "affine"}),
    "affine_slope3": lambda name, res: _entry_1d(
        name, lambda u: 3.0 * u, -1.0, 1.0, res,
        **_oracles(lambda u: 3.0), lip_norm_oracle=3.0,
        c1=True, omega=lambda h: 0.0, meta={"group": "affine"}),
    "sin": lambda name, res: _entry_1d(
        name, math.sin, 0.0, math.pi, res,
        **_oracles(lambda u: abs(math.cos(u))), lip_norm_oracle=1.0,
        c1=True, omega=lambda h: h,
        meta={"group": "c1", "max_second_derivative": 1.0}),
    "square": lambda name, res: _entry_1d(
        name, lambda u: u * u, 0.0, 2.0, res,
        **_oracles(lambda u: 2.0 * u), lip_norm_oracle=4.0,
        c1=True, omega=lambda h: 2.0 * h,
        meta={"group": "c1", "max_second_derivative": 2.0}),
    "cube": lambda name, res: _entry_1d(
        name, lambda u: u ** 3, -1.0, 1.0, res,
        **_oracles(lambda u: 3.0 * u * u), lip_norm_oracle=3.0,
        c1=True, omega=lambda h: 6.0 * h,
        meta={"group": "c1", "max_second_derivative": 6.0}),
    "abs": lambda name, res: _entry_1d(
        name, abs, -1.0, 1.0, res,
        **_oracles(lambda u: 1.0), lip_norm_oracle=1.0,
        omega=lambda h: h, meta={"group": "kink"}),
    "sqrt_abs": lambda name, res: _entry_1d(
        name, lambda u: math.sqrt(abs(u)), -1.0, 1.0, res,
        **_oracles(lambda u: math.inf if u == 0
                   else 0.5 / math.sqrt(abs(u))),
        lip_norm_oracle=math.inf,
        meta={"group": "cusp", "infinite_big_set": (0.0,)}),
    "dyadic_staircase": lambda name, res: _entry_1d(
        name, dyadic_staircase, -1.0, 1.0, res,
        lip_oracle=_dyadic_field("lip"),
        Lip_oracle=_dyadic_field("Lip"),
        LLip_oracle=_dyadic_field("LLip"),
        continuous=False, meta={"group": "separation"}),
    "oscillator": lambda name, res: _entry_1d(
        name, oscillator, -1.0, 1.0, res,
        lip_oracle=lambda u: abs(oscillator_slope(u)),
        Lip_oracle=lambda u: abs(oscillator_slope(u)),
        LLip_oracle=lambda u: 1.0 if u == 0
        else abs(oscillator_slope(u)),
        meta={"group": "separation"}),
    "linear_diag21": lambda name, res: _entry_linear(
        name, [[2.0, 0.0], [0.0, 1.0]], res),
    "linear_rotation": lambda name, res: _entry_linear(
        name,
        [[math.cos(0.5), -math.sin(0.5)],
         [math.sin(0.5), math.cos(0.5)]], res),
    "linear_shear": lambda name, res: _entry_linear(
        name, [[1.0, 1.0], [0.0, 1.0]], res),
    "two_point_discrete": lambda name, res: _two_point_entry(name),
    "bhmv_measure": _bhmv_entry,
}


def _resolution(resolution) -> float:
    if not 0 < resolution < math.inf:
        raise InputError("resolution must be positive and finite")
    return float(resolution)


def make_zoo(resolution: float) -> list:
    """Build the standard entry list at the given grid resolution."""
    res = _resolution(resolution)
    return [build(name, res) for name, build in _BUILDERS.items()]


def make_entry(name: str, resolution: float) -> ZooEntry:
    """Build one standard entry, equal to its ``make_zoo`` counterpart."""
    res = _resolution(resolution)
    if not isinstance(name, str) or name not in _BUILDERS:
        raise InputError(f"no zoo entry named {name!r}")
    return _BUILDERS[name](name, res)


def get_entry(entries, name: str) -> ZooEntry:
    for e in entries:
        if e.name == name:
            return e
    raise InputError(f"no zoo entry named {name!r}")


def oracle_field(entry: ZooEntry, which: str) -> ScalarField:
    """Analytic derivative field of an entry sampled on its own domain."""
    oracle = {"lip": entry.lip_oracle, "Lip": entry.Lip_oracle,
              "LLip": entry.LLip_oracle}.get(which)
    if oracle is None:
        raise InputError(f"entry {entry.name!r} has no {which!r} oracle")
    return ScalarField(entry.space,
                       [oracle(p) for p in entry.space.ids])
