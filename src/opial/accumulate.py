"""Compensated accumulation primitives for the prefix/suffix passes.

The evaluators sum many products of probabilities; Neumaier's variant of
Kahan summation keeps the running error at a few ulp so that exact equality
cases survive checks at 1e-12 and tighter.

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

import numpy as np


def _neumaier(values) -> tuple[np.ndarray, np.ndarray]:
    """Exclusive compensated running sums and the totals, along the last axis.

    Returns ``(out, total)``: ``out[..., i]`` is the loop's ``s + c`` before
    entry ``i`` and ``total`` its ``s + c`` after the last entry.
    """
    vals = np.asarray(values, dtype=float)
    if vals.ndim == 0:
        vals = vals.reshape(1)
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
    vals = np.asarray(values, dtype=float)
    if vals.ndim == 0:
        vals = vals.reshape(1)
    return _neumaier(vals[..., ::-1])[0][..., ::-1]
