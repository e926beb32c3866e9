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
give terms of shape ``(...)``.  The discrete identities are law kernels on
the counting law of 1..N, a unit mass on each point, where every product
with a mass is exact: ``o9-1``, ``o9-2``, ``o15`` and ``o18`` are one
first-order term each (:func:`identity_rows`, tie weight 1, 1, 1/2 and 0),
and ``rtwo`` is the second-order kernel :func:`theorem3_rows`.  A kernel
reads its sums through a ``passes`` argument, compensated by default
(:mod:`opial.accumulate`); only the search's filter passes the plain ones.
A batch of models of different sizes is zero-padded to a common length; a
zero mass leaves every compensated pass and sum unchanged (see
:mod:`opial.accumulate`), so each row's terms are bit-identical to
evaluating that model alone.  The public evaluators are their kernel
applied to one model, followed by the report.

:data:`FUNCTIONALS` is the one table of the functional ids: each entry holds
the evaluator, the row kernel, the tight term, the required parameters and
side conditions, which the search draws to, and the quadratic form of the
sharp-constant engine, and the command line, the search and the refinement studies look
the id up there.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Literal

import numpy as np

from .accumulate import COMPENSATED, Passes, comp_sum, half_tie, prefix_exclusive, suffix_exclusive
from .distributions import (
    MASS_TOL,
    Distribution,
    DistributionError,
    NodeFunction,
    QuantizedModel,
    make_uniform_interval,
    node_values,
    quantize,
)

#: Relative tolerance of the equality flag on reports.
EQUALITY_TOL = 1e-10

#: Relative tolerance on the zero-mean side condition.
ZERO_MEAN_TOL = 1e-10

#: Default quantization resolution where an operation needs one.
DEFAULT_RESOLUTION = 512

#: Cap on the nested-integral order.  It bounds two costs, not what a
#: double can hold (the sharp constant c_20 is about 1e-19, and 21! is
#: exact): the search filter's rounding margin K = (ORDER_CAP + 4)(width + 2)
#: (:func:`~opial.sharpness._margin`) and the oracle's (n + 1) m^(n+1)
#: summands (:mod:`opial.oracle`).
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
    ``|slack| <= tol * max(1, |rhs|)`` on both sides, so a violation is
    never an equality (the evaluators refuse a NaN tol).  ``m`` is the
    number of nodes evaluated: a model's node count (both halves' for the
    two-sided split), N for a coefficient sequence.  ``exact`` says
    whether the model evaluated had no discretization error.  The JSON
    report is these fields, with ``extras`` merged at the top level.
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
        doc = dict(vars(self))
        doc.update(doc.pop("extras"))
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
    if math.isnan(tol):
        raise ValueError("tol must not be NaN")
    terms = {k: float(v) for k, v in terms.items()}
    tight = terms[FUNCTIONALS[functional].tight]
    rhs = terms["rhs"]
    slack = rhs - tight
    ratio = 0.0 if rhs == 0.0 else tight / rhs
    # bool(): a numpy tol or is_exact would otherwise leave numpy bools in the report.
    equality = bool(abs(slack) <= tol * max(1.0, abs(rhs)))
    return IneqReport(
        functional=functional,
        terms=terms,
        slack=slack,
        ratio=ratio,
        equality=equality,
        m=m,
        exact=bool(exact),
        extras=extras or {},
    )


def _model_report(
    functional: str, model: QuantizedModel, vals, tol: float, extras: dict | None = None, **params
) -> IneqReport:
    """Report of the table's row kernel of `functional` on `model` at node values `vals`."""
    terms = FUNCTIONALS[functional].rows(model.mass, vals, **params)
    return _build_report(functional, terms, m=model.node_count, exact=model.is_exact, tol=tol, extras=extras)


def _as_values(psi, model: QuantizedModel) -> np.ndarray:
    """Resolve a NodeFunction or raw vector against `model`; a raw vector must be finite."""
    if isinstance(psi, NodeFunction):
        return psi.resolve(model)
    vals = node_values(psi, model)
    if not np.all(np.isfinite(vals)):
        raise ValueError("value vector must be finite")
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


#: Each direction's mirror: the weighted rhs sums chi on the far side.
_OTHER_SIDE = {"below": "above", "above": "below"}


def _check_direction(direction: str) -> None:
    if direction not in ("below", "above"):
        raise ValueError(f"direction must be 'below' or 'above', got {direction!r}")


# ---------------------------------------------------------------------------
# first-order (pairwise) inequalities
# ---------------------------------------------------------------------------


def _signed_term(p, vals, direction: Direction, passes: Passes = COMPENSATED, tie=0.5, chi=None):
    """E |T psi . psi| chi, with T psi the transform of psi at tie weight `tie`; chi None is the weight 1."""
    t_signed = half_tie(p * vals, direction, passes, tie)
    summands = p * np.abs(t_signed * vals)
    return passes.total(summands if chi is None else summands * chi)


def _magnitude_term(p, vals, direction: Direction, passes: Passes = COMPENSATED, tie=0.5, chi=None):
    """E |psi| chi . T|psi|, with T|psi| the transform of |psi| at tie weight `tie`; chi None is the weight 1."""
    weighted = p * np.abs(vals)
    outer = weighted if chi is None else weighted * chi
    return passes.total(outer * half_tie(weighted, direction, passes, tie))


def half_tie_transform(model: QuantizedModel, psi, direction: Direction = "below") -> np.ndarray:
    """Half-tie weighted conditional sums, one value per node.

    below:  T-_i = sum_{j<i} p_j psi_j + p_i psi_i / 2
    above:  T+_i = sum_{j>i} p_j psi_j + p_i psi_i / 2

    Computed by a single compensated forward (resp. backward) pass.
    """
    return half_tie(model.mass * _as_values(psi, model), direction)


def opial_rows(p, vals, direction: Direction = "below", passes: Passes = COMPENSATED) -> dict:
    """Terms lhs, middle, rhs of :func:`opial_terms`, row by row."""
    return {
        "lhs": _signed_term(p, vals, direction, passes),
        "middle": _magnitude_term(p, vals, direction, passes),
        "rhs": 0.5 * passes.total(p * vals * vals),
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
    functional = "thm1-lower" if direction == "below" else "thm1-upper"
    return _model_report(functional, model, _as_values(psi, model), tol)


def corollary_rows(p_low, vals_low, p_up, vals_up, passes: Passes = COMPENSATED) -> dict:
    """Terms of :func:`corollary_terms`, row by row.

    ``p_low, vals_low`` are the lower conditional model's masses and
    values, ``p_up, vals_up`` the upper one's; the two halves' lengths may
    differ.  The search's masked rows hold both halves on one shared node
    axis, zero masses and values outside each half.  While each half's
    running sums are finite, those zeros leave every pass unchanged and the
    terms equal the halves' alone.  A half whose total overflows makes a
    padded slot's term ``0 * inf``, so the shared axis can give NaN where
    the halves alone give inf.
    """
    low = opial_rows(p_low, vals_low, "below", passes)
    up = opial_rows(p_up, vals_up, "above", passes)
    return {key: low[key] + up[key] for key in ("lhs", "middle", "rhs")}


def corollary_terms(model: QuantizedModel, psi, c: float, tol: float = EQUALITY_TOL) -> IneqReport:
    """Two-sided split at `c`: below-form on X <= c plus above-form on X > c.

    The nodes at or below `c` and those above it are the two conditional
    laws, each side's masses divided by their compensated sum, and each
    gets its own first-order evaluation with psi resolved once on the whole
    `model`; the right-hand side is E[psi^2 (1_{X<=c}/p + 1_{X>c}/(1-p))]/2
    with p = P(X <= c), reported as ``p_lower``.  Equality iff psi is
    constant on each side separately.  A side of at most MASS_TOL
    probability, the lower one first, raises
    :class:`~opial.distributions.DistributionError` naming that side and
    its probability.
    """
    lower = model.support <= c
    p_low, p_up = model.mass[lower], model.mass[~lower]
    share_low, share_up = comp_sum(p_low), comp_sum(p_up)
    if min(share_low, share_up) <= MASS_TOL:
        side, share = ("<=", share_low) if share_low <= MASS_TOL else (">", share_up)
        raise DistributionError(f"conditioning on X {side} {c} leaves probability {share!r}")
    vals = _as_values(psi, model)
    terms = corollary_rows(p_low / share_low, vals[lower], p_up / share_up, vals[~lower])
    extras = {"c": float(c), "p_lower": share_low}
    return _build_report("corollary", terms, m=model.node_count, exact=model.is_exact, tol=tol, extras=extras)


def corollary_split(
    dist: Distribution,
    psi,
    c: float,
    m: int = DEFAULT_RESOLUTION,
    tol: float = EQUALITY_TOL,
) -> IneqReport:
    """:func:`corollary_terms` on `dist` quantized at `m` with its cut at `c`
    (:func:`~opial.distributions.quantize`): each side's nodes are those of
    its conditional law at `m`, and a value vector aligns with all of them."""
    return corollary_terms(quantize(dist, m, cut=c), psi, c, tol)


# ---------------------------------------------------------------------------
# n-th order inequality
# ---------------------------------------------------------------------------


def _nested_rows(p, vals, n, passes: Passes = COMPENSATED) -> np.ndarray:
    """I_n row by row, with the order n given per row (or once for all)."""
    n = np.asarray(n)
    low, high = int(n.min()), int(n.max())
    if low < 1:
        raise ValueError(f"order n must be >= 1, got {low}")
    if high > ORDER_CAP:
        raise ValueError(f"order n={high} exceeds the cap {ORDER_CAP}")
    cur = i_n = vals
    for k in range(1, high + 1):
        cur = passes.prefix(p * cur)
        i_n = cur if n.ndim == 0 else np.where(np.expand_dims(n >= k, -1), cur, i_n)
    return i_n


def nested_integral(model: QuantizedModel, psi, n: int) -> np.ndarray:
    """n-fold nested integral over strictly ordered arguments below each node.

    I_1(x_i) = sum_{x_j < x_i} p_j psi_j,
    I_k(x_i) = sum_{x_j < x_i} p_j I_{k-1}(x_j).

    Strict inequalities throughout: ties carry no weight here, unlike the
    half-tie transform.
    """
    return _nested_rows(model.mass, _as_values(psi, model), n)


def theorem2_rows(p, vals, n, passes: Passes = COMPENSATED) -> dict:
    """Terms lhs, rhs of :func:`theorem2_terms`, row by row; `n` per row or once."""
    i_n = _nested_rows(p, vals, n, passes)
    n = np.asarray(n)
    factorials = np.array([math.factorial(k + 1) for k in range(int(n.max()) + 1)], dtype=float)
    return {
        "lhs": passes.total(p * np.abs(i_n * vals)),
        "rhs": passes.total(p * vals * vals) / factorials[n],
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
    extras = {"n": int(n)}
    if n == 1:
        extras["strict_for_atoms"] = bool(model.is_exact)
    return _model_report("thm2", model, _as_values(psi, model), tol, extras, n=n)


# ---------------------------------------------------------------------------
# second-order inequality with atom corrections
# ---------------------------------------------------------------------------


def theorem3_rows(p, vals, passes: Passes = COMPENSATED) -> dict:
    """Terms lhs, rhs of :func:`theorem3_terms`, row by row."""
    a = np.abs(vals)
    s1 = passes.prefix(p * a)
    j = passes.prefix(p * s1)
    jd = passes.prefix(p * p * a) + p * s1
    lhs = 6.0 * passes.total(p * j * a) + 3.0 * passes.total(p * jd * a)
    below = passes.prefix(p)
    above = passes.suffix(p)
    kernel = below * below + above * above + p * (below + above)
    return {"lhs": lhs, "rhs": 1.5 * passes.total(p * vals * vals * kernel)}


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
    return _model_report("thm3", model, _as_values(psi, model), tol)


# ---------------------------------------------------------------------------
# weighted inequalities
# ---------------------------------------------------------------------------


def weighted_rows(p, vals, chi, direction: Direction = "below", passes: Passes = COMPENSATED) -> dict:
    """Terms of :func:`weighted_opial_terms`, row by row."""
    lhs = _signed_term(p, vals, direction, passes, chi=chi)
    middle = _magnitude_term(p, vals, direction, passes, chi=chi)
    near = half_tie(p, direction, passes)
    far = half_tie(p * chi, _OTHER_SIDE[direction], passes)
    squares = p * vals * vals
    rhs = 0.5 * passes.total(squares * (chi * near + far))
    monotone_bound = 0.5 * passes.total(squares * chi)
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
    if not np.all(weights >= 0.0):
        raise ValueError("weight chi must be nonnegative at all nodes")
    steps = np.diff(weights)
    monotone_ok = bool(np.all(steps <= 0.0) if direction == "below" else np.all(steps >= 0.0))
    functional = "weighted-lower" if direction == "below" else "weighted-upper"
    return _model_report(functional, model, vals, tol, {"monotone_applicable": monotone_ok}, chi=weights)


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
        return {"functional": "troy", **vars(self)}


def troy_comparison(p_exp: float, psi, m: int = DEFAULT_RESOLUTION) -> TroyComparison:
    """Evaluate both weighted bounds for chi(x) = x^p on uniform (0, 1)."""
    if not p_exp > -1.0:
        raise ValueError(f"weight exponent must exceed -1, got {p_exp}")
    model = quantize(make_uniform_interval(0.0, 1.0), m)
    chi = model.support ** p_exp
    vals = _as_values(psi, model)
    report = weighted_opial_terms(model, vals, chi, "below")
    troy_rhs = comp_sum(model.mass * vals * vals) / (2.0 * math.sqrt(p_exp + 1.0))
    return TroyComparison(
        p_exp=float(p_exp),
        m=model.node_count,
        our_lhs=report.terms["lhs"],
        our_rhs=report.terms["rhs"],
        troy_rhs=troy_rhs,
    )


# ---------------------------------------------------------------------------
# Wirtinger-type inequality
# ---------------------------------------------------------------------------


def wirtinger_rows(p, vals, passes: Passes = COMPENSATED) -> dict:
    """Terms lhs, rhs of :func:`wirtinger_terms` for zero-mean rows."""
    low = passes.prefix(p * vals)
    return {"lhs": passes.total(p * low * low), "rhs": INV_PI_SQ * passes.total(p * vals * vals)}


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
    return _model_report("wirtinger", model, vals, tol, {"heuristic": bool(model.is_exact)})


# ---------------------------------------------------------------------------
# discrete sequence identities
# ---------------------------------------------------------------------------


def identity_rows(p, a, term: Callable, tie: float, factor: Callable, passes: Passes = COMPENSATED) -> dict:
    """Terms lhs, rhs of a discrete identity (:func:`discrete_identities`), row by row.

    `p` is the counting law: a unit mass on each of a row's N coefficients
    (and 0 on its padding).  lhs is the first-order `term` (:func:`_signed_term`
    or :func:`_magnitude_term`) below, at tie weight `tie`, and rhs is
    ``factor(N) * sum a^2``.
    """
    return {"lhs": term(p, a, "below", passes, tie), "rhs": factor(passes.total(p)) * passes.total(p * a * a)}


def _sequence_report(which: str, a, tol: float) -> IneqReport:
    """Report of the table's row kernel of sequence functional `which` on the
    counting law of `a`, after the table's side conditions: `a` is a
    nonempty flat float vector, >= 0 where ``nonnegative`` is set, finite,
    and of zero sum where ``zero_mean`` is set."""
    spec = FUNCTIONALS[which]
    arr = np.asarray(a, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("empty coefficient vector")
    if spec.nonnegative and not np.all(arr >= 0.0):
        raise ValueError(f"{which} expects nonnegative coefficients")
    if not np.all(np.isfinite(arr)):
        raise ValueError("coefficients must be finite")
    if spec.zero_mean:
        total = comp_sum(arr)
        if abs(total) > ZERO_MEAN_TOL * max(1.0, comp_sum(np.abs(arr))):
            raise ZeroMeanError(f"{which} requires sum(a) = 0; got {total!r}")
    return _build_report(which, spec.rows(np.ones(arr.size), arr), m=arr.size, exact=True, tol=tol)


def discrete_identities(a, which: str, tol: float = EQUALITY_TOL) -> IneqReport:
    """Classical discrete inequalities on finite coefficients a_1..a_N.

    o9-1: sum_i |a_i sum_{j<=i} a_j|            <= (N+1)/2 sum a^2
    o9-2: sum_i sum_{j<=i} |a_i a_j|            <= (N+1)/2 sum a^2
    o15:  sum_i |a_i (sum_{j<i} a_j + a_i/2)|   <= N/4 sum a^2      (sum a = 0)
    o18:  sum_i |a_i sum_{j<i} a_j|             <= floor((N+1)/2)/2 sum a^2
                                                                    (sum a = 0)

    Each left side is a first-order term on the counting law of 1..N
    (:func:`identity_rows`): o9-1 and o15 are the signed term E|T a . a| at
    tie weight 1 and 1/2, o18 is it at tie 0 (thm2's left side at n = 1),
    and o9-2 is the magnitude term E|a| T|a| at tie 1.  Unit masses make
    every product with a mass exact.
    """
    if which not in DISCRETE_IDENTITY_IDS:
        raise ValueError(f"unknown discrete identity {which!r}; expected one of {DISCRETE_IDENTITY_IDS}")
    return _sequence_report(which, a, tol)


def rtwo_terms(a, tol: float = EQUALITY_TOL) -> IneqReport:
    """Second-order discrete form on the integer support 1..N, a >= 0.

      6 sum_i sum_{j<=i} (i-j) a_i a_j
          <= (3/2) sum_i a_i^2 ((i-1)^2 + (N-i)^2 + N - 1),

    with i counted from 1 and equality iff a is constant (both sides are
    N (N^2 - 1) at a = 1).  This is the second-order kernel
    :func:`theorem3_rows` on the counting law of 1..N, a unit mass on each
    point (C = i - 1, D = N - i, p = 1), and it has the same proof:
    a_i a_j <= (a_i^2 + a_j^2) / 2 applied pair by pair.

    Requires finite a >= 0.  The oracle's enumeration of the second-order
    form (:mod:`opial.oracle`) is its independent cross-check.
    """
    return _sequence_report("rtwo", a, tol)


# ---------------------------------------------------------------------------
# the functional table
# ---------------------------------------------------------------------------


def first_order_form(p, psi) -> np.ndarray:
    """K psi for the middle term's symmetric form p (T- + T+)(p psi) / 2.

    Both tie directions share it, and it has rank one: T- + T+ is the full
    sum, so psi^T K psi = (E psi)^2 / 2, largest at constant psi.
    """
    weighted = p * psi
    return 0.5 * p * (half_tie(weighted, "below") + half_tie(weighted, "above"))


def wirtinger_form(p, psi) -> np.ndarray:
    """K psi for the Wirtinger left side, K = A^T D A with A psi the strict prefix sums."""
    return p * suffix_exclusive(p * prefix_exclusive(p * psi))


@dataclass(frozen=True)
class QuadraticForm:
    """A tight term written as psi^T K psi, for the sharp-constant engine.

    ``matvec(p, psi)`` applies the symmetric K by the functional's own
    passes, and ``bound`` is the constant c of the stated bound
    psi^T K psi <= c E psi^2.  ``rank_one`` marks K = c p p^T, whose top
    eigenpair is known: c_m = c at constant psi, on every law.
    """

    matvec: Callable
    bound: float
    rank_one: bool = False


def _nth_order_value(terms: dict, n: int) -> float:
    return terms["lhs"] * math.factorial(n + 1)


@dataclass(frozen=True)
class Functional:
    """Everything the library does with one functional id.

    ``evaluate(subject, psi, **params)`` is the public evaluator, whose
    subject is the ``input``: a quantized "model" (the corollary's, cut at
    c by :func:`~opial.distributions.quantize`, which it splits there), a
    coefficient "sequence" (called as ``evaluate(a)``, its kernel's masses
    the counting law: 1 on each coefficient) or the troy weight
    "exponent".  ``rows`` is its ``*_rows`` kernel (None: no search),
    ``tight`` the term compared with rhs and ``params`` the required ones
    among n, c, chi and p_exp.  ``zero_mean`` requires psi
    (or the sequence) to have mean zero and ``nonnegative`` requires the
    sequence to be nonnegative: the search draws each id's params and meets
    these two side conditions (:func:`~opial.sharpness._draw_block`), and a
    sequence's evaluator checks them (:func:`_sequence_report`).
    ``form`` is the tight term's quadratic form and ``study(terms, **params)``
    the value a refinement study reads off the kernel's terms at constant
    psi, whose limit is 1.  ``sign_free`` marks a kernel whose tight term and
    rhs read psi only through |psi| and psi^2 (chi and rtwo's
    coefficients are nonnegative by contract), so that every summand in
    them is nonnegative: the search's plain evaluation of such a kernel
    bounds its own rounding error, with no second evaluation at |psi|.
    """

    input: str
    evaluate: Callable
    rows: Callable | None
    tight: str
    params: tuple[str, ...] = ()
    theorem_backed: bool = True
    zero_mean: bool = False
    nonnegative: bool = False
    form: QuadraticForm | None = None
    study: Callable | None = None
    sign_free: bool = False


def _first_order(direction: Direction) -> Functional:
    return Functional(
        "model",
        partial(opial_terms, direction=direction),
        partial(opial_rows, direction=direction),
        "middle",
        form=QuadraticForm(first_order_form, 0.5, rank_one=True),
        study=lambda terms: terms["middle"] / terms["rhs"],
        sign_free=True,
    )


def _weighted(direction: Direction) -> Functional:
    evaluate = partial(weighted_opial_terms, direction=direction)
    return Functional(
        "model", evaluate, partial(weighted_rows, direction=direction), "middle", ("chi",), sign_free=True
    )


def _identity(which: str, term: Callable, tie: float, factor: Callable, **options) -> Functional:
    rows = partial(identity_rows, term=term, tie=tie, factor=factor)
    return Functional("sequence", partial(discrete_identities, which=which), rows, "lhs", **options)


#: Functional id -> :class:`Functional`, in the order of the stable ids.
FUNCTIONALS = {
    "thm1-lower": _first_order("below"),
    "thm1-upper": _first_order("above"),
    "corollary": Functional("model", corollary_terms, corollary_rows, "middle", ("c",), sign_free=True),
    "thm2": Functional("model", theorem2_terms, theorem2_rows, "lhs", ("n",), study=_nth_order_value),
    "thm3": Functional("model", theorem3_terms, theorem3_rows, "lhs", sign_free=True),
    "weighted-lower": _weighted("below"),
    "weighted-upper": _weighted("above"),
    "wirtinger": Functional(
        "model",
        wirtinger_terms,
        wirtinger_rows,
        "lhs",
        theorem_backed=False,
        zero_mean=True,
        form=QuadraticForm(wirtinger_form, INV_PI_SQ),
    ),
    "o9-1": _identity("o9-1", _signed_term, 1.0, lambda n: 0.5 * (n + 1)),
    "o9-2": _identity("o9-2", _magnitude_term, 1.0, lambda n: 0.5 * (n + 1), sign_free=True),
    "o15": _identity("o15", _signed_term, 0.5, lambda n: 0.25 * n, zero_mean=True),
    "o18": _identity("o18", _signed_term, 0.0, lambda n: 0.5 * ((n + 1) // 2), zero_mean=True),
    "rtwo": Functional("sequence", rtwo_terms, theorem3_rows, "lhs", nonnegative=True, sign_free=True),
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
