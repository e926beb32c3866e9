"""Accumulation primitives for the prefix/suffix passes.

The evaluators sum many products of probabilities; Neumaier's variant of
Kahan summation keeps the running error at a few ulp so that exact equality
cases survive checks at 1e-12 and tighter.  Those compensated passes are
the default of every row kernel (:data:`COMPENSATED`).  The search also
runs the kernels once with plain passes (:data:`PLAIN`: ``np.cumsum`` and
``ndarray.sum``), whose error it bounds a priori; see
:func:`opial.sharpness.search_counterexample`.

Every pass works row by row along the last axis, so a batch of equal-length
rows (zero-padded where the rows differ in length) is one call.  Each row is
bit-identical to the scalar loop

    s = c = 0.0
    for v in row:
        t = s + v
        c += (s - t) + v if abs(s) >= abs(v) else (v - t) + s
        s = t

Neumaier's compensation is a plain running sum of the rounding errors of a
plain running sum, so both sums are ``np.add.accumulate`` calls, which add
strictly left to right.  Between them, each step's error comes from Knuth's
branch-free TwoSum, ``b = t - s`` and ``e = (s - (t - b)) + (v - b)``: five
in-place ufuncs instead of the loop's two ``abs``, a compare, both branches
and a select.  While nothing overflows, the error of a floating-point
addition is itself a float, and both TwoSum and the loop's branch (Dekker's
Fast2Sum, larger operand first) compute it exactly, so the two agree bit for
bit.  An inf or NaN entry, a running sum that overflows, or a TwoSum step
that overflows makes that step's error, and so the row's error sum, inf or
NaN.  Only then are the errors recomputed by the loop's branch, so such
rows give the loop's inf and NaN too.  TwoSum alone would not: its
``t - s`` overflows where an entry lies within a rounding of the largest
float and the running sum has the other sign, although the sum and the
loop's error are finite.

Signed zeros: the running sum after the first entry is that entry, not
+0.0 plus it, so it holds -0.0 where the loop holds +0.0 while every entry
so far is -0.0.  There the error sum, which starts from +0.0 and adds only zeros,
is +0.0, so every output ``s + c`` is +0.0, as in the loop.  A zero entry
of either sign leaves both accumulators' values unchanged, so zero padding
before or after a row's entries does not change its result.

A pass allocates its buffers per call, ``s`` and ``c`` of width n + 1 and
one of width n, and never writes into its input.  A total reads only the
last column of ``s`` and ``c``: it adds no prefix array ``s + c``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


def _rows(values) -> np.ndarray:
    """`values` as a float array with at least one axis."""
    vals = np.asarray(values, dtype=float)
    return vals.reshape(1) if vals.ndim == 0 else vals


def _neumaier(vals: np.ndarray, total: bool) -> np.ndarray:
    """The loop's ``s + c`` along the last axis of `vals`.

    With `total` false, ``out[..., i]`` is its value before entry ``i``;
    with `total` true, the result is its value after the last entry.
    """
    shape = vals.shape[:-1] + (vals.shape[-1] + 1,)
    s, c = np.empty(shape), np.empty(shape)
    s[..., 0] = c[..., 0] = 0.0
    # Like the loop's Python floats, overflow to inf and NaN stays silent.
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.accumulate(vals, axis=-1, out=s[..., 1:])
        before, after, err = s[..., :-1], s[..., 1:], c[..., 1:]
        np.subtract(after, before, out=err)
        kept = after - err
        np.subtract(before, kept, out=kept)
        np.subtract(vals, err, out=err)
        err += kept
        np.add.accumulate(c, axis=-1, out=c)
        if not np.isfinite(c[..., -1]).all():
            # TwoSum's t - s can overflow where the loop's branch does not.
            err[...] = np.where(abs(before) >= abs(vals), (before - after) + vals, (vals - after) + before)
            np.add.accumulate(c, axis=-1, out=c)
        if total:
            return s[..., -1] + c[..., -1]
        return np.add(s, c, out=s)[..., :-1]


def comp_sum(values):
    """Compensated sum along the last axis.

    A 1-d (or scalar) input gives a Python float; an input of shape
    ``(..., n)`` gives an array of shape ``(...)``.
    """
    total = _neumaier(_rows(values), total=True)
    return float(total) if total.ndim == 0 else total


def prefix_exclusive(values) -> np.ndarray:
    """out[..., i] = values[..., 0] + ... + values[..., i-1]; out[..., 0] = 0."""
    return _neumaier(_rows(values), total=False)


def suffix_exclusive(values) -> np.ndarray:
    """out[..., i] = values[..., i+1] + ... + values[..., -1]; out[..., -1] = 0."""
    return _neumaier(_rows(values)[..., ::-1], total=False)[..., ::-1]


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


def half_tie(weighted, direction: str, passes: Passes = COMPENSATED, tie=0.5) -> np.ndarray:
    """The running sum of `weighted` strictly below (prefix) or strictly above
    (suffix) each entry, plus `tie` times the entry.

    At tie 1/2 on the masses this is the half-tie CDF F(x-) + p/2; on p psi
    it is the transform T- or T+.  On the counting law the discrete
    identities take tie 1 (o9-1, o9-2), 1/2 (o15) and 0 (o18).
    """
    if direction == "below":
        return passes.prefix(weighted) + tie * weighted
    if direction == "above":
        return passes.suffix(weighted) + tie * weighted
    raise ValueError(f"direction must be 'below' or 'above', got {direction!r}")
