"""Accumulation primitives for the prefix/suffix passes.

The evaluators sum many products of probabilities; Neumaier's variant of
Kahan summation keeps the running error at a few ulp so that exact equality
cases survive checks at 1e-12 and tighter.  Those compensated passes are
the default of every row kernel (:data:`COMPENSATED`).  The search also
runs the kernels once with plain passes (:data:`PLAIN`: ``np.cumsum`` and
``ndarray.sum``), whose error it bounds a priori; see
:func:`opial.sharpness.search_counterexample`.

Every pass works row by row along the last axis, so a batch of equal-length
rows (zero-padded where the rows differ in length) is one call.  Neumaier's
compensation is a plain running sum of the TwoSum errors of a plain running
sum, so both sums are ``np.add.accumulate`` calls, which add strictly left
to right; each row is bit-identical to the scalar loop

    s = c = 0.0
    for v in row:
        t = s + v
        c += (s - t) + v if abs(s) >= abs(v) else (v - t) + s
        s = t

including signed zeros, because both running sums start from +0.0.  A zero
entry of either sign leaves both accumulators unchanged, so zero padding
before or after a row's entries does not change its result.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


def _rows(values) -> np.ndarray:
    """`values` as a float array with at least one axis."""
    vals = np.asarray(values, dtype=float)
    return vals.reshape(1) if vals.ndim == 0 else vals


def _neumaier(values) -> tuple[np.ndarray, np.ndarray]:
    """Exclusive compensated running sums and the totals, along the last axis.

    Returns ``(out, total)``: ``out[..., i]`` is the loop's ``s + c`` before
    entry ``i`` and ``total`` its ``s + c`` after the last entry.
    """
    vals = _rows(values)
    zero = np.zeros(vals.shape[:-1] + (1,))
    # Like the loop's Python floats, overflow to inf and NaN stays silent.
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.add.accumulate(np.concatenate((zero, vals), axis=-1), axis=-1)
        before, after = s[..., :-1], s[..., 1:]
        errors = np.where(
            np.abs(before) >= np.abs(vals), (before - after) + vals, (vals - after) + before
        )
        c = np.add.accumulate(np.concatenate((zero, errors), axis=-1), axis=-1)
        sums = s + c
    return sums[..., :-1], sums[..., -1]


def comp_sum(values):
    """Compensated sum along the last axis.

    A 1-d (or scalar) input gives a Python float; an input of shape
    ``(..., n)`` gives an array of shape ``(...)``.
    """
    total = _neumaier(values)[1]
    return float(total) if total.ndim == 0 else total


def prefix_exclusive(values) -> np.ndarray:
    """out[..., i] = values[..., 0] + ... + values[..., i-1]; out[..., 0] = 0."""
    return _neumaier(values)[0]


def suffix_exclusive(values) -> np.ndarray:
    """out[..., i] = values[..., i+1] + ... + values[..., -1]; out[..., -1] = 0."""
    return _neumaier(_rows(values)[..., ::-1])[0][..., ::-1]


# ---------------------------------------------------------------------------
# plain passes
# ---------------------------------------------------------------------------
#
# Each entry of a plain pass over n summands goes through at most n - 1
# roundings, in whatever order numpy adds them, so without underflow it
# lies within gamma_(n-1) times the sum of the summands' magnitudes of the
# exact sum, where gamma_k = k u / (1 - k u) and u is the unit roundoff
# (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3-4).  A
# compensated entry lies within (2 u + O(n u^2)) times that sum.  Overflow
# and NaN propagate with numpy's usual warnings.


def plain_sum(values):
    """Plain sum along the last axis, shaped as :func:`comp_sum`'s result."""
    total = _rows(values).sum(axis=-1)
    return float(total) if total.ndim == 0 else total


def plain_prefix(values) -> np.ndarray:
    """:func:`prefix_exclusive` by one ``np.cumsum``, without compensation."""
    vals = _rows(values)
    out = np.empty_like(vals)
    out[..., :1] = 0.0
    np.cumsum(vals[..., :-1], axis=-1, out=out[..., 1:])
    return out


def plain_suffix(values) -> np.ndarray:
    """:func:`suffix_exclusive` by one ``np.cumsum``, without compensation."""
    vals = _rows(values)
    out = np.empty_like(vals)
    out[..., -1:] = 0.0
    np.cumsum(vals[..., :0:-1], axis=-1, out=out[..., -2::-1])
    return out


@dataclass(frozen=True)
class Passes:
    """The three passes a row kernel reads, each along the last axis.

    ``prefix`` and ``suffix`` are the exclusive running sums and ``total``
    the sum.  A kernel takes them as its ``passes`` argument.
    """

    prefix: Callable
    suffix: Callable
    total: Callable


#: Neumaier's passes: the default of every kernel and of every report.
COMPENSATED = Passes(prefix_exclusive, suffix_exclusive, comp_sum)

#: Plain passes, for the search's filter only.
PLAIN = Passes(plain_prefix, plain_suffix, plain_sum)
