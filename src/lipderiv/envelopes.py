"""Scale-h Baire envelopes and semicontinuity-defect diagnostics.

The envelopes are taken over metric balls at an explicit scale h; on a finite
sample the infimum over all scales degenerates to the field itself, so a
two-scale comparison is the meaningful surrogate of the continuum envelope.
"""
from __future__ import annotations

import numpy as np

from .errors import InputError
from .metric import FiniteMetricSpace


class ScalarField:
    """An extended-real value per point of a finite metric space.

    +inf and -inf are permitted, NaN is not.
    """

    def __init__(self, space: FiniteMetricSpace, values):
        values = np.asarray(values, dtype=float).reshape(-1)
        if values.shape[0] != space.n:
            raise InputError("one value per point required")
        if np.any(np.isnan(values)):
            raise InputError("NaN is not a valid field value")
        self.space = space
        self.values = values

    def value(self, point) -> float:
        return float(self.values[self.space.index(point)])

    def __neg__(self):
        return ScalarField(self.space, -self.values)


def check_scale(h: float) -> float:
    """The envelope scale, rejected unless positive and finite."""
    if not 0 < h < np.inf:
        raise InputError("envelope scale h must be positive and finite")
    return h


def _ball_max(g: ScalarField, h: float, punctured: bool):
    """Max of g over every open ball B(x, h), or over its punctured part
    0 < d(x, u) < h; -inf where that set is empty, which only a punctured
    ball can be."""
    check_scale(h)
    out = np.empty(g.space.n)
    for rows, cols, _, valid in g.space.ball_rows(h, punctured=punctured):
        out[rows] = np.maximum.reduce(g.values[cols], axis=1, where=valid,
                                      initial=-np.inf)
    return out


def baire_upper(g: ScalarField, h: float) -> ScalarField:
    """Pointwise max of g over the open ball B(x, h); >= g everywhere."""
    return ScalarField(g.space, _ball_max(g, h, punctured=False))


def baire_lower(g: ScalarField, h: float) -> ScalarField:
    """Pointwise min of g over the open ball B(x, h), that is -max(-g), exact
    float for float; <= g everywhere."""
    return -baire_upper(-g, h)


def usc_defect(g: ScalarField, h: float) -> ScalarField:
    """max(0, sup over the punctured ball - g(x)); 0 on empty punctured balls.

    Zero everywhere is the finite-scale signature of upper semicontinuity.
    A NaN gap (inf - inf, as where an empty ball meets g(x) = -inf) reads 0.
    """
    with np.errstate(invalid="ignore"):
        gap = _ball_max(g, h, punctured=True) - g.values
    return ScalarField(g.space,
                       np.maximum(np.where(np.isnan(gap), 0.0, gap), 0.0))


def lsc_defect(g: ScalarField, h: float) -> ScalarField:
    """Dual of usc_defect: max(0, g(x) - inf over the punctured ball), which
    is usc_defect of -g float for float, since g - m = (-m) - (-g)."""
    return usc_defect(-g, h)
