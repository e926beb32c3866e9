"""Inequality functionals evaluated as explicit term triples.

Every evaluator works on a :class:`~opial.distributions.QuantizedModel` with
nodes ``x_1 < ... < x_m`` and masses ``p_i``, using prefix-sum recurrences
with compensated accumulation.  Results are exact for atomic distributions
and converge at first order under quantization refinement for continuous
ones.

Two tie conventions coexist deliberately.  The pairwise transforms weight the
event ``Y = X`` by one half, which symmetrizes the right-continuous CDF and
makes the first-order bounds exactly tight at constant functions even on
atoms.  The n-th order nested integral instead sums over strictly ordered
tuples with no tie weight, which is what makes atoms force strict inequality
in the n-th order bound.

Each functional's arithmetic lives in one ``*_rows`` kernel that works row
by row along the last axis: masses and node values of shape ``(..., m)``
give terms of shape ``(...)``.  A batch of models of different sizes is
zero-padded to a common length; a zero mass leaves every compensated pass
and sum unchanged (see :mod:`opial.accumulate`), so each row's terms are
bit-identical to evaluating that model alone.  The public evaluators are
their kernel applied to one model, followed by the report.

:data:`FUNCTIONALS` is the one table of the functional ids: each entry holds
the evaluator, the row kernel, the tight term, the required parameters, the
search's parameter draw and the quadratic form of the sharp-constant
engine, and the command line, the search and the refinement studies look
the id up there.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Literal

import numpy as np

from .accumulate import comp_sum, prefix_exclusive, suffix_exclusive
from .distributions import (
    Distribution,
    NodeFunction,
    QuantizedModel,
    conditional_truncate,
    make_uniform_interval,
    quantize,
)

#: Relative tolerance of the equality flag on reports.
EQUALITY_TOL = 1e-10

#: Relative tolerance on the zero-mean side condition.
ZERO_MEAN_TOL = 1e-10

#: Default quantization resolution where an operation needs one.
DEFAULT_RESOLUTION = 512

#: Cap on the nested-integral order; beyond this the values are rarely
#: distinguishable from 0 in double precision at moderate resolution.
ORDER_CAP = 6

INV_PI_SQ = 1.0 / math.pi**2

Direction = Literal["below", "above"]


class ZeroMeanError(ValueError):
    """Input violates the zero-mean side condition."""


@dataclass(frozen=True)
class IneqReport:
    """One evaluated inequality instance.

    ``terms`` holds the named sides (lhs, middle where defined, rhs, ...).
    ``slack`` is rhs minus the tightest left-hand term, ``ratio`` that term
    over rhs (0 when rhs is 0), and ``equality`` tests
    ``slack <= tol * max(1, |rhs|)``.  ``m`` is the quantization resolution
    and ``exact`` whether the model evaluated had no discretization error.
    """

    functional: str
    terms: dict[str, float]
    slack: float
    ratio: float
    equality: bool
    m: int
    exact: bool
    extras: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        doc = {
            "functional": self.functional,
            "terms": {k: float(v) for k, v in self.terms.items()},
            "slack": float(self.slack),
            "ratio": float(self.ratio),
            "equality": bool(self.equality),
            "m": int(self.m),
            "exact": bool(self.exact),
        }
        for key, value in self.extras.items():
            doc[key] = value
        return doc


def _build_report(
    functional: str,
    terms: dict,
    m: int,
    exact: bool,
    tol: float = EQUALITY_TOL,
    extras: dict | None = None,
) -> IneqReport:
    """Report of one instance, comparing the functional's tight term with rhs."""
    terms = {k: float(v) for k, v in terms.items()}
    tight = terms[FUNCTIONALS[functional].tight]
    rhs = terms["rhs"]
    slack = rhs - tight
    ratio = 0.0 if rhs == 0.0 else tight / rhs
    equality = slack <= tol * max(1.0, abs(rhs))
    return IneqReport(
        functional=functional,
        terms=terms,
        slack=slack,
        ratio=ratio,
        equality=equality,
        m=m,
        exact=exact,
        extras=extras or {},
    )


def _as_values(psi, model: QuantizedModel) -> np.ndarray:
    """Resolve a NodeFunction or raw vector against `model`."""
    if isinstance(psi, NodeFunction):
        return psi.resolve(model)
    vals = np.asarray(psi, dtype=float).ravel()
    if vals.size != model.node_count:
        raise ValueError(
            f"value vector has {vals.size} entries but the model has "
            f"{model.node_count} nodes"
        )
    return vals


def violates(slack, rhs, tol: float):
    """Whether a slack is a violation: slack < -tol * max(1, |rhs|), elementwise."""
    return slack < -tol * np.fmax(1.0, np.abs(rhs))


def zero_mean_values(p, vals: np.ndarray, project: bool) -> np.ndarray:
    """`vals` held to E psi = 0 under masses `p`: a mean above ZERO_MEAN_TOL
    relative to max(1, sqrt(E psi^2)) is removed with `project` and raises
    :class:`ZeroMeanError` without it."""
    mean = comp_sum(p * vals)
    scale = max(1.0, math.sqrt(comp_sum(p * vals * vals)))
    if abs(mean) <= ZERO_MEAN_TOL * scale:
        return vals
    if not project:
        raise ZeroMeanError(
            f"E psi = {mean!r} violates the zero-mean condition "
            f"(tolerance {ZERO_MEAN_TOL} relative); pass project=True (--project) to remove the mean"
        )
    return vals - mean


def _check_direction(direction: str) -> None:
    if direction not in ("below", "above"):
        raise ValueError(f"direction must be 'below' or 'above', got {direction!r}")


# ---------------------------------------------------------------------------
# first-order (pairwise) inequalities
# ---------------------------------------------------------------------------


def _half_tie(weighted: np.ndarray, direction: Direction) -> np.ndarray:
    if direction == "below":
        return prefix_exclusive(weighted) + 0.5 * weighted
    return suffix_exclusive(weighted) + 0.5 * weighted


def half_tie_transform(model: QuantizedModel, psi, direction: Direction = "below") -> np.ndarray:
    """Half-tie weighted conditional sums, one value per node.

    below:  T-_i = sum_{j<i} p_j psi_j + p_i psi_i / 2
    above:  T+_i = sum_{j>i} p_j psi_j + p_i psi_i / 2

    Computed by a single compensated forward (resp. backward) pass.
    """
    _check_direction(direction)
    return _half_tie(model.mass * _as_values(psi, model), direction)


def opial_rows(p, vals, direction: Direction = "below") -> dict:
    """Terms lhs, middle, rhs of :func:`opial_terms`, row by row."""
    t_signed = _half_tie(p * vals, direction)
    t_abs = _half_tie(p * np.abs(vals), direction)
    return {
        "lhs": comp_sum(p * np.abs(t_signed * vals)),
        "middle": comp_sum(p * np.abs(vals) * t_abs),
        "rhs": 0.5 * comp_sum(p * vals * vals),
    }


def opial_terms(
    model: QuantizedModel,
    psi,
    direction: Direction = "below",
    tol: float = EQUALITY_TOL,
) -> IneqReport:
    """First-order inequality chain lhs <= middle <= rhs.

    lhs    = E |T(X) psi(X)|          (T the half-tie transform of psi)
    middle = E |psi(X)| Tabs(X)       (Tabs the transform of |psi|)
    rhs    = E psi(X)^2 / 2

    Equality throughout iff psi is constant on the support.
    """
    _check_direction(direction)
    terms = opial_rows(model.mass, _as_values(psi, model), direction)
    return _build_report(
        "thm1-lower" if direction == "below" else "thm1-upper",
        terms,
        m=model.source_m,
        exact=model.is_exact,
        tol=tol,
    )


def corollary_rows(p_low, vals_low, p_up, vals_up) -> dict:
    """Terms of :func:`corollary_split`, row by row.

    Each row holds both conditional models on one node axis: ``p_low`` is
    the lower model's masses and zero elsewhere, ``p_up`` the upper model's
    masses and zero elsewhere, and the values are zero where their masses
    are.
    """
    low = opial_rows(p_low, vals_low, "below")
    up = opial_rows(p_up, vals_up, "above")
    return {key: low[key] + up[key] for key in ("lhs", "middle", "rhs")}


def split_at(dist: Distribution, psi, c: float, m: int):
    """``((q_low, vals_low), (q_up, vals_up), P(X <= c))``: the laws of X given
    X <= c and X > c, each quantized at `m` with psi on its nodes.

    Named node-function families are resolved against each conditional model
    (in particular cos_pi_F uses the conditional CDF); explicit value vectors
    align with the full support, the lower nodes then the upper, and therefore
    require an atomic distribution.
    """
    lower_dist, p_low = conditional_truncate(dist, c, "lower")
    upper_dist, _ = conditional_truncate(dist, c, "upper")
    q_low = quantize(lower_dist, m)
    q_up = quantize(upper_dist, m)
    if isinstance(psi, NodeFunction) and psi.kind != "values":
        return (q_low, psi.resolve(q_low)), (q_up, psi.resolve(q_up)), p_low
    # An explicit value vector is aligned to the full quantized support; it
    # can only be split at c when that support survives the split, i.e. for
    # purely atomic distributions.
    if dist.pieces:
        raise ValueError(
            "explicit value vectors cannot be split at c for distributions "
            "with continuous pieces; use a named node-function family"
        )
    full = quantize(dist, m)
    vals = _as_values(psi, full)
    return (q_low, vals[full.support <= c]), (q_up, vals[full.support > c]), p_low


def corollary_split(
    dist: Distribution,
    psi,
    c: float,
    m: int = DEFAULT_RESOLUTION,
    tol: float = EQUALITY_TOL,
) -> IneqReport:
    """Two-sided split at `c`: below-form on X <= c plus above-form on X > c.

    Each conditional law gets its own first-order evaluation; the right-hand
    side is E[psi^2 (1_{X<=c}/p + 1_{X>c}/(1-p))]/2 with p = P(X <= c).
    Equality iff psi is constant on each side separately.
    """
    (q_low, vals_low), (q_up, vals_up), p_low = split_at(dist, psi, c, m)
    after_low = np.zeros(q_up.node_count)
    before_up = np.zeros(q_low.node_count)
    terms = corollary_rows(
        np.concatenate((q_low.mass, after_low)),
        np.concatenate((vals_low, after_low)),
        np.concatenate((before_up, q_up.mass)),
        np.concatenate((before_up, vals_up)),
    )
    return _build_report(
        "corollary",
        terms,
        m=m,
        exact=q_low.is_exact and q_up.is_exact,
        tol=tol,
        extras={"c": float(c), "p_lower": float(p_low)},
    )


# ---------------------------------------------------------------------------
# n-th order inequality
# ---------------------------------------------------------------------------


def _nested_rows(p, vals, n) -> np.ndarray:
    """I_n row by row, with the order n given per row (or once for all)."""
    n = np.asarray(n)
    low, high = int(n.min()), int(n.max())
    if low < 1:
        raise ValueError(f"order n must be >= 1, got {low}")
    if high > ORDER_CAP:
        raise ValueError(f"order n={high} exceeds the cap {ORDER_CAP}")
    cur = i_n = vals
    for k in range(1, high + 1):
        cur = prefix_exclusive(p * cur)
        i_n = np.where(np.expand_dims(n >= k, -1), cur, i_n)
    return i_n


def nested_integral(model: QuantizedModel, psi, n: int) -> np.ndarray:
    """n-fold nested integral over strictly ordered arguments below each node.

    I_1(x_i) = sum_{x_j < x_i} p_j psi_j,
    I_k(x_i) = sum_{x_j < x_i} p_j I_{k-1}(x_j).

    Strict inequalities throughout: ties carry no weight here, unlike the
    half-tie transform.
    """
    return _nested_rows(model.mass, _as_values(psi, model), n)


def theorem2_rows(p, vals, n) -> dict:
    """Terms lhs, rhs of :func:`theorem2_terms`, row by row; `n` per row or once."""
    i_n = _nested_rows(p, vals, n)
    n = np.asarray(n)
    factorials = np.array([math.factorial(k + 1) for k in range(int(n.max()) + 1)], dtype=float)
    return {
        "lhs": comp_sum(p * np.abs(i_n * vals)),
        "rhs": comp_sum(p * vals * vals) / factorials[n],
    }


def theorem2_terms(
    model: QuantizedModel,
    psi,
    n: int,
    tol: float = EQUALITY_TOL,
) -> IneqReport:
    """n-th order form E|I_n(X) psi(X)| against rhs = E psi^2 / (n+1)!.

    The bound is proved, and sharp, for n = 1 only.  For n >= 2 it is
    false: on m equal atoms the top eigenvector of the symmetrized
    strict-order kernel gives lhs/rhs 1.0135 (m = 100) and 1.0350
    (m = 400) at n = 2, and 1.1116 and 1.1558 at n = 3.  The sharp
    constants are larger, c_2 = 0.173704134513449 and
    c_3 = (5 + 3 sqrt 5)/240; the report still states 1/(n+1)!, the limit
    of lhs/E psi^2 at constant psi on refining quantizations of continuous
    distributions.  On atomic inputs constant psi keeps lhs strictly below
    that limit.  Only at n = 1, where the bound is proved, does the report
    carry ``strict_for_atoms``: whether the model is atomic, in which case
    the strict-order argument makes the inequality strict.
    """
    terms = theorem2_rows(model.mass, _as_values(psi, model), n)
    extras = {"n": int(n)}
    if n == 1:
        extras["strict_for_atoms"] = bool(model.is_exact)
    return _build_report("thm2", terms, m=model.source_m, exact=model.is_exact, tol=tol, extras=extras)


# ---------------------------------------------------------------------------
# second-order inequality with atom corrections
# ---------------------------------------------------------------------------


def theorem3_rows(p, vals) -> dict:
    """Terms lhs, rhs of :func:`theorem3_terms`, row by row."""
    a = np.abs(vals)
    s1 = prefix_exclusive(p * a)
    j = prefix_exclusive(p * s1)
    jd = prefix_exclusive(p * p * a) + p * s1
    lhs = 6.0 * comp_sum(p * j * a) + 3.0 * comp_sum(p * jd * a)
    below = prefix_exclusive(p)
    above = suffix_exclusive(p)
    kernel = below * below + above * above + p * (below + above)
    return {"lhs": lhs, "rhs": 1.5 * comp_sum(p * vals * vals * kernel)}


def theorem3_terms(model: QuantizedModel, psi, tol: float = EQUALITY_TOL) -> IneqReport:
    """Second-order inequality that is sharp for atomic distributions too.

    With a = |psi| and the double sums

      J_i  = sum_{j<i} p_j sum_{k<j} p_k a_k,
      JD_i = sum_{j<i} p_j a_j (p_j + p_i),

    the left-hand side is lhs = 6 E(J(X) a(X)) + 3 E(JD(X) a(X)).  With
    Fbar(x) = F(x-) + p(x)/2 the half-tie CDF, C(X) the mass strictly below X
    and D(X) the mass strictly above, the inequality reads

      lhs <= (3/2) E(psi^2 (C(X)^2 + D(X)^2 + p(X) (C(X) + D(X)))),

    with equality iff |psi| is constant on the support.

    Proof.  Collecting the strictly ordered triples and the tie terms pair by
    pair gives the identity

      lhs = sum_{k<i} 6 p_i p_k (Fbar_i - Fbar_k) a_i a_k,

    and a_i a_k <= (a_i^2 + a_k^2) / 2 bounds it by
    sum_i p_i a_i^2 sum_k 3 p_k |Fbar_i - Fbar_k|, whose row sums are the
    bracket above.  Every pair weight is positive, so equality forces
    a_i = a_k throughout.  At constant psi the right-hand side coincides
    with E(psi^2 (1 - p(X)^2)), but for non-constant |psi| that simpler form
    is not a bound: masses (1/3, 1/3, 1/3) with |psi| = (1, 3/4, 1) give
    lhs 7/9 > 41/54.  Only the source paper's abstract is in this
    repository, so whether this is the paper's own form of the bound is not
    settled here.
    """
    terms = theorem3_rows(model.mass, _as_values(psi, model))
    return _build_report(
        "thm3",
        terms,
        m=model.source_m,
        exact=model.is_exact,
        tol=tol,
    )


# ---------------------------------------------------------------------------
# weighted inequalities
# ---------------------------------------------------------------------------


def weighted_rows(p, vals, chi, direction: Direction = "below") -> dict:
    """Terms of :func:`weighted_opial_terms`, row by row."""
    t_signed = _half_tie(p * vals, direction)
    t_abs = _half_tie(p * np.abs(vals), direction)
    lhs = comp_sum(p * np.abs(t_signed * vals) * chi)
    middle = comp_sum(p * np.abs(vals) * chi * t_abs)
    if direction == "below":
        near = prefix_exclusive(p)
        far = suffix_exclusive(p * chi) + 0.5 * p * chi
    else:
        near = suffix_exclusive(p)
        far = prefix_exclusive(p * chi) + 0.5 * p * chi
    rhs = 0.5 * comp_sum(p * vals * vals * (chi * (near + 0.5 * p) + far))
    monotone_bound = 0.5 * comp_sum(p * vals * vals * chi)
    return {"lhs": lhs, "middle": middle, "rhs": rhs, "monotone_bound": monotone_bound}


def weighted_opial_terms(
    model: QuantizedModel,
    psi,
    chi,
    direction: Direction = "below",
    tol: float = EQUALITY_TOL,
) -> IneqReport:
    """First-order inequality with a nonnegative weight chi on the outer node.

    For direction below,

      lhs    = E |T-(X) psi(X)| chi(X)
      middle = E |psi(X)| chi(X) Tabs-(X)
      rhs    = E psi^2(X) [chi(X)(C(X) + p(X)/2) + R(X)] / 2

    with C(X) the mass strictly below X and R(X) the half-tie weighted sum of
    chi strictly above X.  The direction 'above' mirrors everything.  When
    chi is monotone the right way (nonincreasing for below, nondecreasing for
    above) the simpler bound E psi^2 chi / 2 applies; it is emitted as
    ``monotone_bound`` with an applicability flag.
    """
    _check_direction(direction)
    vals = _as_values(psi, model)
    weights = _as_values(chi, model)
    if np.any(weights < 0.0):
        raise ValueError("weight chi must be nonnegative at all nodes")
    steps = np.diff(weights)
    monotone_ok = bool(np.all(steps <= 0.0) if direction == "below" else np.all(steps >= 0.0))
    return _build_report(
        "weighted-lower" if direction == "below" else "weighted-upper",
        weighted_rows(model.mass, vals, weights, direction),
        m=model.source_m,
        exact=model.is_exact,
        tol=tol,
        extras={"monotone_applicable": monotone_ok},
    )


@dataclass(frozen=True)
class TroyComparison:
    """Weighted bound comparison for chi(x) = x^p on uniform (0, 1).

    ``our_lhs``/``our_rhs`` come from the weighted evaluation (sharp: tight
    at constant psi); ``troy_rhs`` is the classical bound
    E psi^2 / (2 sqrt(p+1)), which constant psi does not attain for p > 0.
    """

    p_exp: float
    m: int
    our_lhs: float
    our_rhs: float
    troy_rhs: float

    def to_json_dict(self) -> dict:
        return {
            "functional": "troy",
            "p_exp": float(self.p_exp),
            "m": int(self.m),
            "our_lhs": float(self.our_lhs),
            "our_rhs": float(self.our_rhs),
            "troy_rhs": float(self.troy_rhs),
        }


def troy_comparison(p_exp: float, psi, m: int = DEFAULT_RESOLUTION) -> TroyComparison:
    """Evaluate both weighted bounds for chi(x) = x^p on uniform (0, 1)."""
    if p_exp <= -1.0:
        raise ValueError(f"weight exponent must exceed -1, got {p_exp}")
    model = quantize(make_uniform_interval(0.0, 1.0), m)
    chi = model.support ** p_exp
    vals = _as_values(psi, model)
    report = weighted_opial_terms(model, vals, chi, "below")
    troy_rhs = comp_sum(model.mass * vals * vals) / (2.0 * math.sqrt(p_exp + 1.0))
    return TroyComparison(
        p_exp=float(p_exp),
        m=m,
        our_lhs=report.terms["lhs"],
        our_rhs=report.terms["rhs"],
        troy_rhs=troy_rhs,
    )


# ---------------------------------------------------------------------------
# Wirtinger-type inequality
# ---------------------------------------------------------------------------


def wirtinger_rows(p, vals) -> dict:
    """Terms lhs, rhs of :func:`wirtinger_terms` for zero-mean rows."""
    low = prefix_exclusive(p * vals)
    return {"lhs": comp_sum(p * low * low), "rhs": INV_PI_SQ * comp_sum(p * vals * vals)}


def wirtinger_terms(
    model: QuantizedModel,
    psi,
    project: bool = False,
    tol: float = EQUALITY_TOL,
) -> IneqReport:
    """Wirtinger-type bound E (sum_{x_j<X} p_j psi_j)^2 <= E psi^2 / pi^2.

    Requires E psi = 0.  With ``project`` the mean is removed first;
    otherwise a violation raises :class:`ZeroMeanError`.

    The constant 1/pi^2 is sharp for absolutely continuous distributions,
    and it is the m -> infinity statement for their quantizations, not a
    bound on each of them: on m equal-mass nodes the best constant is
    1/pi^2 + 1/(12 m^2) + O(m^-4).  A near-extremal psi (such as cos(pi F))
    on a quantized model can therefore exceed the bound by about that margin
    and be reported violated.  On genuinely atomic input the report is
    flagged ``heuristic``, and the bound may fail by far more.
    """
    vals = zero_mean_values(model.mass, _as_values(psi, model), project)
    return _build_report(
        "wirtinger",
        wirtinger_rows(model.mass, vals),
        m=model.source_m,
        exact=model.is_exact,
        tol=tol,
        extras={"heuristic": bool(model.is_exact)},
    )


# ---------------------------------------------------------------------------
# discrete sequence identities
# ---------------------------------------------------------------------------


def o9_1_rows(a, n) -> dict:
    """Terms lhs, rhs of ``o9-1`` (:func:`discrete_identities`), row by row.

    `n` is each row's length N before its zero padding (or one length for
    all rows); the other three identity kernels take the same arguments.
    """
    return {"lhs": comp_sum(np.abs(a * (prefix_exclusive(a) + a))), "rhs": 0.5 * (n + 1) * comp_sum(a * a)}


def o9_2_rows(a, n) -> dict:
    """Terms lhs, rhs of ``o9-2``, row by row."""
    mags = np.abs(a)
    return {"lhs": comp_sum(mags * (prefix_exclusive(mags) + mags)), "rhs": 0.5 * (n + 1) * comp_sum(a * a)}


def o15_rows(a, n) -> dict:
    """Terms lhs, rhs of ``o15``, row by row."""
    return {"lhs": comp_sum(np.abs(a * (prefix_exclusive(a) + 0.5 * a))), "rhs": 0.25 * n * comp_sum(a * a)}


def o18_rows(a, n) -> dict:
    """Terms lhs, rhs of ``o18``, row by row."""
    return {"lhs": comp_sum(np.abs(a * prefix_exclusive(a))), "rhs": 0.5 * ((n + 1) // 2) * comp_sum(a * a)}


def discrete_identities(a, which: str, tol: float = EQUALITY_TOL) -> IneqReport:
    """Classical discrete inequalities, both sides evaluated literally.

    o9-1: sum_i |a_i sum_{j<=i} a_j|            <= (N+1)/2 sum a^2
    o9-2: sum_i sum_{j<=i} |a_i a_j|            <= (N+1)/2 sum a^2
    o15:  sum_i |a_i (sum_{j<i} a_j + a_i/2)|   <= N/4 sum a^2      (sum a = 0)
    o18:  sum_i |a_i sum_{j<i} a_j|             <= floor((N+1)/2)/2 sum a^2
                                                                    (sum a = 0)
    """
    if which not in DISCRETE_IDENTITY_IDS:
        raise ValueError(f"unknown discrete identity {which!r}; expected one of {DISCRETE_IDENTITY_IDS}")
    spec = FUNCTIONALS[which]
    arr = np.asarray(a, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("empty coefficient vector")
    if spec.zero_mean:
        total = comp_sum(arr)
        if abs(total) > ZERO_MEAN_TOL * max(1.0, comp_sum(np.abs(arr))):
            raise ZeroMeanError(f"{which} requires sum(a) = 0; got {total!r}")
    return _build_report(which, spec.rows(arr, arr.size), m=arr.size, exact=True, tol=tol)


def rtwo_rows(a, n) -> dict:
    """Terms lhs, rhs of :func:`rtwo_terms`, row by row.

    `n` is each row's length N before its zero padding (or one length for
    all rows).  The left side is the literal double sum
    6 sum_i a_i sum_{j<=i} (i-j) a_j, each sum taken left to right from 0:
    the inner sums of all i advance together, one index j at a time.
    """
    width = a.shape[-1]
    index = np.arange(width, dtype=float)
    inner = np.zeros(a.shape)
    for j in range(width):
        inner[..., j:] += (index[j:] - j) * a[..., j : j + 1]
    outer = np.concatenate((np.zeros(a.shape[:-1] + (1,)), a * inner), axis=-1)
    lhs = 6.0 * np.add.accumulate(outer, axis=-1)[..., -1]
    last = np.expand_dims(np.asarray(n, dtype=float) - 1.0, -1)  # N - 1
    above = last - index  # N - i for i counted from 1
    weights = index * index + above * above + last
    return {"lhs": lhs, "rhs": 1.5 * comp_sum(weights * a * a)}


def rtwo_terms(a, tol: float = EQUALITY_TOL) -> IneqReport:
    """Second-order discrete form on the integer support 1..N, a >= 0.

      6 sum_i sum_{j<=i} (i-j) a_i a_j
          <= (3/2) sum_i a_i^2 ((i-1)^2 + (N-i)^2 + N - 1),

    with i counted from 1 and equality iff a is constant (both sides are
    N (N^2 - 1) at a = 1).  This is the second-order functional on N equal
    atoms scaled by N^3 (C = (i-1)/N, D = (N-i)/N, p = 1/N), and it has the
    same proof: a_i a_j <= (a_i^2 + a_j^2) / 2 applied pair by pair.

    Requires a >= 0.  The left side is evaluated by the literal double sum
    so that the identity with the second-order functional on a uniform
    integer support is an actual cross-check rather than shared code.
    """
    arr = np.asarray(a, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("empty coefficient vector")
    if np.any(arr < 0.0):
        raise ValueError("rtwo expects nonnegative coefficients")
    return _build_report(
        "rtwo",
        rtwo_rows(arr, arr.size),
        m=arr.size,
        exact=True,
        tol=tol,
    )


# ---------------------------------------------------------------------------
# the functional table
# ---------------------------------------------------------------------------


def first_order_form(p, psi) -> np.ndarray:
    """K psi for the middle term's symmetric form p (T- + T+)(p psi) / 2.

    Both tie directions share it, and it has rank one: T- + T+ is the full
    sum, so psi^T K psi = (E psi)^2 / 2, largest at constant psi.
    """
    weighted = p * psi
    return 0.5 * p * (_half_tie(weighted, "below") + _half_tie(weighted, "above"))


def wirtinger_form(p, psi) -> np.ndarray:
    """K psi for the Wirtinger left side, K = A^T D A with A psi the strict prefix sums."""
    return p * suffix_exclusive(p * prefix_exclusive(p * psi))


@dataclass(frozen=True)
class QuadraticForm:
    """A tight term written as psi^T K psi, for the sharp-constant engine.

    ``matvec(p, psi)`` applies the symmetric K by the functional's own
    passes, and ``bound`` is the constant c of the stated bound
    psi^T K psi <= c E psi^2.
    """

    matvec: Callable
    bound: float


def pad_rows(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """`values` of shape (rows, width) with each row's entries past its size set to 0."""
    return np.where(np.arange(values.shape[-1]) < sizes[:, None], values, 0.0)


def _draw_nothing(rng, sizes, block):
    return block


def _draw_order(rng, sizes, block):
    return {**block, "n": rng.integers(1, 4, size=sizes.size)}


def _draw_weight(rng, sizes, block):
    return {**block, "chi": pad_rows(rng.uniform(0.0, 3.0, block["psi"].shape), sizes)}


def _draw_cut(rng, sizes, block):
    # The split point c is the support point `cut`, counted from 1.
    cut = rng.integers(1, sizes)
    return {**block, "c": block["support"][np.arange(sizes.size), cut - 1]}


def _draw_projected(rng, sizes, block):
    # psi less its compensated mean: E psi = 0 to a few ulp, as wirtinger requires.
    p, psi = block["mass"], block["psi"]
    return {**block, "psi": pad_rows(psi - comp_sum(p * psi)[:, None], sizes)}


def _draw_centred(rng, sizes, block):
    # One coefficient centres to 0: the size-1 rows are skipped.
    a = block["a"]
    return {**block, "a": pad_rows(a - (a.sum(axis=-1) / sizes)[:, None], sizes), "skip": sizes == 1}


def _draw_magnitudes(rng, sizes, block):
    return {**block, "a": np.abs(block["a"])}


def _nth_order_value(terms: dict, n: int) -> float:
    return terms["lhs"] * math.factorial(n + 1)


@dataclass(frozen=True)
class Functional:
    """Everything the library does with one functional id.

    ``evaluate(subject, psi, **params)`` is the public evaluator, whose
    subject is the ``input``: a quantized "model", a "distribution" that it
    splits at c, a coefficient "sequence" (called as ``evaluate(a)``) or the
    troy weight "exponent".  ``rows`` is its ``*_rows`` kernel (None: no
    search), ``tight`` the term compared with rhs, ``params`` the required
    ones among n, c, chi and p_exp, and ``draw(rng, sizes, block)`` the
    search's draw of them for a block of zero-padded rows of the given
    sizes.  It may also centre ``a`` or ``psi`` and mark rows to ``skip``:
    every row it leaves is a valid input of the evaluator.
    ``zero_mean`` requires psi (or the sequence) to have mean zero, ``form``
    is the tight term's quadratic form and ``study(terms, **params)`` the
    value a refinement study reads off the kernel's terms at constant psi,
    whose limit is 1.
    """

    input: str
    evaluate: Callable
    rows: Callable | None
    tight: str
    params: tuple[str, ...] = ()
    draw: Callable = _draw_nothing
    theorem_backed: bool = True
    zero_mean: bool = False
    form: QuadraticForm | None = None
    study: Callable | None = None

    @property
    def oracle_backed(self) -> bool:
        """Whether :mod:`opial.oracle` enumerates it (sequences are literal already)."""
        return self.input in ("model", "distribution")


def _first_order(direction: Direction) -> Functional:
    return Functional(
        "model",
        partial(opial_terms, direction=direction),
        partial(opial_rows, direction=direction),
        "middle",
        form=QuadraticForm(first_order_form, 0.5),
        study=lambda terms: terms["middle"] / terms["rhs"],
    )


def _weighted(direction: Direction) -> Functional:
    evaluate = partial(weighted_opial_terms, direction=direction)
    return Functional("model", evaluate, partial(weighted_rows, direction=direction), "middle", ("chi",), _draw_weight)


def _identity(which: str, rows: Callable, **options) -> Functional:
    return Functional("sequence", partial(discrete_identities, which=which), rows, "lhs", **options)


#: Functional id -> :class:`Functional`, in the order of the stable ids.
FUNCTIONALS = {
    "thm1-lower": _first_order("below"),
    "thm1-upper": _first_order("above"),
    "corollary": Functional("distribution", corollary_split, corollary_rows, "middle", ("c",), _draw_cut),
    "thm2": Functional(
        "model", theorem2_terms, theorem2_rows, "lhs", ("n",), _draw_order, study=_nth_order_value
    ),
    "thm3": Functional("model", theorem3_terms, theorem3_rows, "lhs"),
    "weighted-lower": _weighted("below"),
    "weighted-upper": _weighted("above"),
    "wirtinger": Functional(
        "model",
        wirtinger_terms,
        wirtinger_rows,
        "lhs",
        draw=_draw_projected,
        theorem_backed=False,
        zero_mean=True,
        form=QuadraticForm(wirtinger_form, INV_PI_SQ),
    ),
    "o9-1": _identity("o9-1", o9_1_rows),
    "o9-2": _identity("o9-2", o9_2_rows),
    "o15": _identity("o15", o15_rows, zero_mean=True, draw=_draw_centred),
    "o18": _identity("o18", o18_rows, zero_mean=True, draw=_draw_centred),
    "rtwo": Functional("sequence", rtwo_terms, rtwo_rows, "lhs", draw=_draw_magnitudes),
    "troy": Functional("exponent", troy_comparison, None, "our_lhs", ("p_exp",), theorem_backed=False),
}

#: Stable external functional identifiers.
FUNCTIONAL_IDS = tuple(FUNCTIONALS)

#: Functionals whose bound is a theorem on the searched input class.
THEOREM_BACKED_IDS = tuple(k for k, f in FUNCTIONALS.items() if f.theorem_backed)

#: Functionals with a randomized search: the theorem-backed ones, then the rest.
SEARCHABLE_IDS = THEOREM_BACKED_IDS + tuple(
    k for k, f in FUNCTIONALS.items() if f.rows is not None and not f.theorem_backed
)

#: The ids :func:`discrete_identities` evaluates.
DISCRETE_IDENTITY_IDS = tuple(
    k
    for k, f in FUNCTIONALS.items()
    if isinstance(f.evaluate, partial) and f.evaluate.func is discrete_identities
)
