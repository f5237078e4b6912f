"""Scale-h Baire envelopes and semicontinuity-defect diagnostics.

The envelopes are taken over metric balls at an explicit scale h; on a finite
sample the infimum over all scales degenerates to the field itself, so a
two-scale comparison is the meaningful surrogate of the continuum envelope.
"""
from __future__ import annotations

import numpy as np

from .errors import InputError
from .metric import FiniteMetricSpace, window_reduce


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


def _check_scale(h: float):
    if not 0 < h < np.inf:
        raise InputError("envelope scale h must be positive and finite")


def _ball_reduce(g: ScalarField, h: float, ufunc, punctured: bool):
    """``ufunc`` (max or min) of g over every open ball B(x, h), or over its
    punctured part 0 < d(x, u) < h; NaN where that set is empty.

    On a ``line_order`` space the ball is a window of sorted positions and
    its points at distance 0 from x are an inner window; elsewhere each
    point reads its distance row.
    """
    _check_scale(h)
    sp, vals = g.space, g.values
    order = sp.line_order
    if order is None:
        out = np.full(sp.n, np.nan)
        for i in range(sp.n):
            d = sp.dist_row(i)
            mask = (d > 0) & (d < h) if punctured else d < h
            if np.any(mask):
                out[i] = ufunc.reduce(vals[mask])
        return out
    identity = -np.inf if ufunc is np.maximum else np.inf
    lo, hi = sp.line_windows(h)
    ranked = vals[order]
    if punctured:
        lo0, hi0 = sp.line_windows(0.0, closed=True)
        got = ufunc(window_reduce(ranked, lo, lo0, ufunc, identity),
                    window_reduce(ranked, hi0, hi, ufunc, identity))
        empty = (lo0 - lo) + (hi - hi0) == 0
    else:
        got = window_reduce(ranked, lo, hi, ufunc, identity)
        empty = hi == lo
    out = np.empty(sp.n)
    out[order] = np.where(empty, np.nan, got)
    return out


def _defect(gap: np.ndarray) -> np.ndarray:
    """max(0, gap), with 0 for empty punctured balls and inf - inf gaps."""
    return np.maximum(np.where(np.isnan(gap), 0.0, gap), 0.0)


def baire_upper(g: ScalarField, h: float) -> ScalarField:
    """Pointwise max of g over the open ball B(x, h); >= g everywhere."""
    top = _ball_reduce(g, h, np.maximum, punctured=False)
    return ScalarField(g.space, np.where(np.isnan(top), g.values, top))


def baire_lower(g: ScalarField, h: float) -> ScalarField:
    """Pointwise min of g over the open ball B(x, h); <= g everywhere."""
    bottom = _ball_reduce(g, h, np.minimum, punctured=False)
    return ScalarField(g.space, np.where(np.isnan(bottom), g.values, bottom))


def usc_defect(g: ScalarField, h: float) -> ScalarField:
    """max(0, sup over the punctured ball - g(x)); 0 on empty punctured balls.

    Zero everywhere is the finite-scale signature of upper semicontinuity.
    """
    with np.errstate(invalid="ignore"):
        gap = _ball_reduce(g, h, np.maximum, punctured=True) - g.values
    return ScalarField(g.space, _defect(gap))


def lsc_defect(g: ScalarField, h: float) -> ScalarField:
    """Dual of usc_defect: max(0, g(x) - inf over the punctured ball)."""
    with np.errstate(invalid="ignore"):
        gap = g.values - _ball_reduce(g, h, np.minimum, punctured=True)
    return ScalarField(g.space, _defect(gap))
