"""Sharpness certification: extremal search and refinement studies.

The sharp constants 1/2 (first order), 1/4 (two-sided split), 1/(n+1)!
(n-th order) and 1/pi^2 (Wirtinger) are certified numerically in two ways:
by maximizing left/right ratios over the node function, and by driving
quantizations of uniform (0, 1) through increasing resolutions and watching
the ratios converge to the constants.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import functionals as fn
from .accumulate import comp_sum, prefix_exclusive, suffix_exclusive
from .distributions import (
    Distribution,
    QuantizedModel,
    make_uniform_interval,
    model_faults,
    quantize,
)

INV_PI_SQ = fn.INV_PI_SQ


class ConvergenceError(RuntimeError):
    """An iterative solver hit its iteration cap before converging."""


@dataclass(frozen=True)
class ExtremalResult:
    """Outcome of a ratio maximization.

    The trace records (iteration, ratio) pairs and is nondecreasing: only
    improving steps are ever accepted.
    """

    psi_star: np.ndarray
    ratio_star: float
    iterations: int
    converged: bool
    trace: tuple[tuple[int, float], ...]

    def to_json_dict(self) -> dict:
        return {
            "psi_star": [float(v) for v in self.psi_star],
            "ratio_star": float(self.ratio_star),
            "iterations": int(self.iterations),
            "converged": bool(self.converged),
            "trace": [[int(i), float(r)] for i, r in self.trace],
        }


def maximize_ratio_opial(
    model: QuantizedModel,
    direction: str = "below",
    tol: float = 1e-13,
    max_iter: int = 10_000,
) -> ExtremalResult:
    """Maximize middle/rhs of the first-order inequality over psi.

    The middle term depends on |psi| only and collapses to (E|psi|)^2 / 2,
    so the search runs over the nonnegative cone where the objective is the
    smooth quadratic ratio (E psi)^2 / E psi^2.  Coordinate ascent with the
    closed-form update psi_i <- E_{j != i}(psi^2) / E_{j != i}(psi) is used;
    every full sweep is accepted only if it improves the ratio.  The
    maximizer is the constant vector with ratio 1.
    """
    if direction not in ("below", "above"):
        raise ValueError(f"direction must be 'below' or 'above', got {direction!r}")
    p = np.asarray(model.mass, dtype=float)
    m = p.size

    def ratio_of(values: np.ndarray) -> float:
        s = comp_sum(p * values)
        q = comp_sum(p * values * values)
        return s * s / q

    if m == 1:
        psi = np.ones(1)
        return ExtremalResult(
            psi_star=psi,
            ratio_star=1.0,
            iterations=0,
            converged=True,
            trace=((0, 1.0),),
        )

    psi = np.linspace(1.0, 2.0, m)
    psi /= math.sqrt(comp_sum(p * psi * psi))
    ratio = ratio_of(psi)
    trace: list[tuple[int, float]] = [(0, ratio)]
    converged = False
    sweeps = 0
    p_list = p.tolist()
    for sweeps in range(1, max_iter + 1):
        candidate = psi.tolist()
        s = comp_sum(p * psi)
        q = comp_sum(p * psi * psi)
        for i in range(m):
            pi = p_list[i]
            old = candidate[i]
            rest_s = s - pi * old
            rest_q = q - pi * old * old
            if rest_s <= 0.0:
                continue
            new = rest_q / rest_s
            s = rest_s + pi * new
            q = rest_q + pi * new * new
            candidate[i] = new
        cand = np.asarray(candidate)
        cand /= math.sqrt(comp_sum(p * cand * cand))
        new_ratio = ratio_of(cand)
        if new_ratio <= ratio:
            converged = True
            break
        psi = cand
        trace.append((sweeps, new_ratio))
        if new_ratio - ratio <= tol * max(1.0, new_ratio) or new_ratio >= 1.0 - 1e-15:
            ratio = new_ratio
            converged = True
            break
        ratio = new_ratio
    return ExtremalResult(
        psi_star=psi,
        ratio_star=trace[-1][1],
        iterations=sweeps,
        converged=converged,
        trace=tuple(trace),
    )


@dataclass(frozen=True)
class WirtingerConstant:
    """Best Wirtinger constant on a quantized model.

    c_m is the maximum of lhs / E psi^2 over zero-mean psi; psi_star is the
    maximizer normalized to E psi^2 = 1; residual is the symmetric-space
    eigen residual at convergence.
    """

    c_m: float
    psi_star: np.ndarray
    iterations: int
    converged: bool
    residual: float
    trace: tuple[tuple[int, float], ...]

    def to_json_dict(self) -> dict:
        return {
            "c_m": float(self.c_m),
            "psi_star": [float(v) for v in self.psi_star],
            "iterations": int(self.iterations),
            "converged": bool(self.converged),
            "residual": float(self.residual),
            "trace": [[int(i), float(r)] for i, r in self.trace],
        }


def _apply_quadratic_form(p: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """M psi with M = A^T D A, A the strict-lower cumulative operator.

    Two linear passes: a forward prefix for A psi, then a backward suffix
    for the transpose.
    """
    lower = prefix_exclusive(p * psi)
    return p * suffix_exclusive(p * lower)


def rayleigh_best_constant(
    model: QuantizedModel,
    max_iter: int = 100_000,
    tol: float = 1e-12,
) -> WirtingerConstant:
    """Maximize psi^T M psi / psi^T D psi over the zero-mean subspace.

    Solved as a symmetric eigenproblem in phi = D^(1/2) psi by projected
    power iteration: the constant direction (phi parallel to sqrt(p)) is
    deflated by orthogonal projection at every step.  M is applied in O(m)
    as two prefix passes.  Raises :class:`ConvergenceError` at the iteration
    cap.
    """
    p = np.asarray(model.mass, dtype=float)
    m = p.size
    if m < 2:
        raise ValueError("the zero-mean subspace is trivial for a single node")
    sq = np.sqrt(p)
    s = sq  # unit vector: sum of masses is 1

    if m == 2:
        # One-dimensional zero-mean subspace; a single Rayleigh quotient.
        psi = np.array([p[1], -p[0]])
        num = comp_sum(p * prefix_exclusive(p * psi) ** 2)
        den = comp_sum(p * psi * psi)
        c = num / den
        psi_star = psi / math.sqrt(den)
        res = (_apply_quadratic_form(p, psi_star) - c * p * psi_star) / sq
        res = res - (s @ res) * s
        return WirtingerConstant(
            c_m=c,
            psi_star=psi_star,
            iterations=0,
            converged=True,
            residual=float(np.linalg.norm(res)),
            trace=((0, c),),
        )

    def apply_projected(phi: np.ndarray) -> np.ndarray:
        out = _apply_quadratic_form(p, phi / sq) / sq
        return out - (s @ out) * s

    phi = sq * np.cos(math.pi * model.midpoint_cdf())
    phi = phi - (s @ phi) * s
    norm = np.linalg.norm(phi)
    if norm == 0.0:
        phi = np.zeros(m)
        phi[0] = 1.0
        phi = phi - (s @ phi) * s
        norm = np.linalg.norm(phi)
    phi /= norm

    trace: list[tuple[int, float]] = []
    c_prev = -math.inf
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        w = apply_projected(phi)
        c = float(phi @ w)
        if c <= c_prev:
            # No further float-representable improvement.
            c = c_prev
            converged = True
            iterations -= 1
            break
        trace.append((iterations, c))
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            converged = True
            break
        phi = w / norm_w
        if c - c_prev <= tol * max(1.0, abs(c)) and iterations > 1:
            converged = True
            break
        c_prev = c
    if not converged:
        raise ConvergenceError(
            f"power iteration did not converge within {max_iter} iterations"
        )
    c_final = trace[-1][1]
    residual = float(np.linalg.norm(apply_projected(phi) - c_final * phi))
    psi_star = phi / sq
    den = comp_sum(p * psi_star * psi_star)
    psi_star = psi_star / math.sqrt(den)
    return WirtingerConstant(
        c_m=c_final,
        psi_star=psi_star,
        iterations=iterations,
        converged=True,
        residual=residual,
        trace=tuple(trace),
    )


def wirtinger_best_constant(m: int, max_iter: int = 100_000, tol: float = 1e-12) -> WirtingerConstant:
    """Best Wirtinger constant of uniform (0, 1) quantized at resolution m."""
    if m < 2:
        raise ValueError(f"need resolution m >= 2, got {m}")
    model = quantize(make_uniform_interval(0.0, 1.0), m)
    return rayleigh_best_constant(model, max_iter=max_iter, tol=tol)


# ---------------------------------------------------------------------------
# refinement studies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceRow:
    m: int
    value: float
    error: float
    order: float | None  # pairwise order against the previous grid


@dataclass(frozen=True)
class ConvergenceStudy:
    functional: str
    n: int | None
    rows: tuple[ConvergenceRow, ...]
    fitted_order: float | None  # least-squares slope over all positive errors

    def to_json_dict(self) -> dict:
        return {
            "functional": self.functional,
            "n": self.n,
            "rows": [
                {
                    "m": row.m,
                    "value": float(row.value),
                    "error": float(row.error),
                    "fitted_order": None if row.order is None else float(row.order),
                }
                for row in self.rows
            ],
            "fitted_order": None if self.fitted_order is None else float(self.fitted_order),
        }

    def to_csv_rows(self) -> list[list]:
        rows: list[list] = [["m", "value", "error", "fitted_order"]]
        for row in self.rows:
            rows.append(
                [
                    row.m,
                    repr(float(row.value)),
                    repr(float(row.error)),
                    "" if row.order is None else repr(float(row.order)),
                ]
            )
        return rows


def convergence_study(
    functional_id: str, grids: list[int], n: int | None = None
) -> ConvergenceStudy:
    """Refinement study on uniform (0, 1) with constant psi.

    thm1-*: reported ratio, exactly 1 at every resolution (half-tie
    weighting makes the discrete case tight).  thm2: lhs (n+1)!, which
    approaches 1 at first order in 1/m.  wirtinger: best constant c_m,
    which approaches 1/pi^2.
    """
    if not grids:
        raise ValueError("need at least one grid size")
    if any(b <= a for a, b in zip(grids, grids[1:])):
        raise ValueError(f"grid sizes must be strictly increasing, got {grids}")
    base = make_uniform_interval(0.0, 1.0)
    values: list[float] = []
    errors: list[float] = []
    for m in grids:
        if functional_id in ("thm1-lower", "thm1-upper"):
            model = quantize(base, m)
            psi = np.ones(model.node_count)
            direction = "below" if functional_id == "thm1-lower" else "above"
            report = fn.opial_terms(model, psi, direction)
            value = report.ratio
            error = abs(1.0 - value)
        elif functional_id == "thm2":
            if n is None:
                raise ValueError("thm2 study requires the order n")
            model = quantize(base, m)
            psi = np.ones(model.node_count)
            report = fn.theorem2_terms(model, psi, n)
            value = report.terms["lhs"] * math.factorial(n + 1)
            error = 1.0 - value
        elif functional_id == "wirtinger":
            value = wirtinger_best_constant(m).c_m
            error = abs(value - INV_PI_SQ)
        else:
            raise ValueError(f"no convergence study for functional {functional_id!r}")
        values.append(value)
        errors.append(error)

    rows: list[ConvergenceRow] = []
    for k, m in enumerate(grids):
        order = None
        if k > 0 and errors[k] > 0.0 and errors[k - 1] > 0.0:
            order = math.log(errors[k - 1] / errors[k]) / math.log(grids[k] / grids[k - 1])
        rows.append(ConvergenceRow(m=m, value=values[k], error=errors[k], order=order))

    positive = [(math.log(m), math.log(e)) for m, e in zip(grids, errors) if e > 0.0]
    fitted = None
    if len(positive) >= 2:
        xs = np.array([q[0] for q in positive])
        ys = np.array([q[1] for q in positive])
        slope = np.polyfit(xs, ys, 1)[0]
        fitted = -float(slope)
    return ConvergenceStudy(
        functional=functional_id, n=n, rows=tuple(rows), fitted_order=fitted
    )


# ---------------------------------------------------------------------------
# randomized counterexample search
# ---------------------------------------------------------------------------


#: Functionals whose bound is a theorem on the searched input class.
THEOREM_BACKED_IDS = (
    "thm1-lower",
    "thm1-upper",
    "corollary",
    "thm2",
    "thm3",
    "weighted-lower",
    "weighted-upper",
    "o9-1",
    "o9-2",
    "o15",
    "o18",
    "rtwo",
)

SEARCHABLE_IDS = THEOREM_BACKED_IDS + ("wirtinger",)


@dataclass(frozen=True)
class Violation:
    """A randomized instance whose slack fell below the tolerance."""

    functional: str
    trial: int
    seed: int
    slack: float
    heuristic: bool
    instance: dict

    def to_json_dict(self) -> dict:
        return {
            "functional": self.functional,
            "trial": self.trial,
            "seed": self.seed,
            "slack": float(self.slack),
            "heuristic": self.heuristic,
            "instance": self.instance,
        }


#: Trials in a search's first chunk.  Chunks double from here, so a search
#: that violates early (wirtinger) evaluates few trials past its violation.
FIRST_CHUNK_TRIALS = 32

#: Cap on a chunk's trials times m_max: the size of each zero-padded array.
CHUNK_ELEMENTS = 1 << 15

_DISCRETE_SEARCH_IDS = fn.DISCRETE_IDENTITY_IDS + ("rtwo",)

#: Searched functionals whose slack is rhs - middle; the others use rhs - lhs.
_MIDDLE_TIGHT_IDS = ("thm1-lower", "thm1-upper", "corollary", "weighted-lower", "weighted-upper")


def _draw_trial(functional_id: str, seed: int, trial: int, m_max: int) -> dict | None:
    """Trial `trial`'s instance, drawn from ``default_rng([seed, trial])``.

    Discrete forms get coefficients ``a`` (None for the size-1 trials that
    o15 and o18 skip); the others get an atomic model (``support``,
    ``mass``), node values ``psi`` and the functional's parameter (``n``,
    ``chi`` or the split index ``cut``).
    """
    rng = np.random.default_rng([seed, trial])
    if functional_id in _DISCRETE_SEARCH_IDS:
        size = int(rng.integers(1, m_max + 1))
        a = rng.standard_normal(size)
        if functional_id in ("o15", "o18"):
            if size == 1:
                return None
            a = a - a.mean()
        if functional_id == "rtwo":
            a = np.abs(a)
        return {"a": a}
    m = int(rng.integers(2, m_max + 1))
    gaps = rng.uniform(0.1, 1.0, m)
    support = np.cumsum(gaps) + rng.uniform(-3.0, 3.0)
    mass = rng.dirichlet(np.ones(m))
    # Floor the masses: Dirichlet draws can come out small enough to trip
    # the positive-mass and conditioning guards downstream.
    mass = np.maximum(mass, 1e-9)
    mass /= mass.sum()
    draw = {"support": support, "mass": mass, "psi": rng.standard_normal(m)}
    if functional_id == "thm2":
        draw["n"] = int(rng.integers(1, 4))
    elif functional_id in ("weighted-lower", "weighted-upper"):
        draw["chi"] = rng.uniform(0.0, 3.0, m)
    elif functional_id == "corollary":
        draw["cut"] = int(rng.integers(1, m))
    return draw


def _evaluate_trial(functional_id: str, draw: dict) -> tuple[fn.IneqReport, dict]:
    """One drawn trial through the public evaluators: its report and instance."""
    if "a" in draw:
        a = draw["a"]
        if functional_id == "rtwo":
            report = fn.rtwo_terms(a)
        else:
            report = fn.discrete_identities(a, functional_id)
        return report, {"a": [float(v) for v in a]}
    model = QuantizedModel(support=draw["support"], mass=draw["mass"], is_exact=True, source_m=1)
    psi = draw["psi"]
    instance = {
        "support": [float(v) for v in model.support],
        "mass": [float(v) for v in model.mass],
        "psi": [float(v) for v in psi],
    }
    if functional_id in ("thm1-lower", "thm1-upper"):
        direction = "below" if functional_id == "thm1-lower" else "above"
        report = fn.opial_terms(model, psi, direction)
    elif functional_id == "thm2":
        report = fn.theorem2_terms(model, psi, draw["n"])
        instance["n"] = draw["n"]
    elif functional_id == "thm3":
        report = fn.theorem3_terms(model, psi)
    elif functional_id in ("weighted-lower", "weighted-upper"):
        direction = "below" if functional_id == "weighted-lower" else "above"
        report = fn.weighted_opial_terms(model, psi, draw["chi"], direction)
        instance["chi"] = [float(v) for v in draw["chi"]]
    elif functional_id == "corollary":
        c = float(model.support[draw["cut"] - 1])
        dist = Distribution(atoms=tuple(zip(model.support, model.mass)))
        report = fn.corollary_split(dist, psi, c, m=1)
        instance["c"] = c
    else:  # wirtinger on atoms: heuristic class
        psi = psi - comp_sum(model.mass * psi)
        report = fn.wirtinger_terms(model, psi)
        instance["psi"] = [float(v) for v in psi]
    return report, instance


def _violates(slack, rhs, rel_tol: float):
    return slack < -rel_tol * np.fmax(1.0, np.abs(rhs))


def _pad(rows: list[np.ndarray], active: np.ndarray) -> np.ndarray:
    """Rows of different lengths, zero-padded to the shape of `active`."""
    out = np.zeros(active.shape)
    out[active] = np.concatenate(rows)
    return out


def _screen(functional_id: str, rows: list[dict], m_max: int):
    """Slack, rhs and model faults of drawn trials, by one kernel call.

    The draws are zero-padded to (trials, m_max) rows and evaluated by the
    functional's row kernel, whose rows are bit-identical to the public
    evaluators.  ``flagged`` marks the rows whose model fails an invariant
    (:func:`~opial.distributions.model_faults`), on which the public path
    raises.  The evaluators' other input checks cannot fail on the draws:
    chi, the rtwo coefficients and both conditional masses are positive by
    construction, and centred rows meet the zero-sum and zero-mean
    conditions to within a few ulp.
    """
    key = "a" if functional_id in _DISCRETE_SEARCH_IDS else "psi"
    sizes = np.array([d[key].size for d in rows])
    index = np.arange(m_max)
    active = index < sizes[:, None]
    if key == "a":
        a = _pad([d["a"] for d in rows], active)
        flagged = np.zeros(len(rows), dtype=bool)
        if functional_id == "rtwo":
            terms = fn.rtwo_rows(a, sizes)
        else:
            terms = fn.discrete_rows(a, sizes, functional_id)
    else:
        support = _pad([d["support"] for d in rows], active)
        p = _pad([d["mass"] for d in rows], active)
        psi = _pad([d["psi"] for d in rows], active)
        flagged = model_faults(support, p, sizes) != 0
        if functional_id in ("thm1-lower", "thm1-upper"):
            direction = "below" if functional_id == "thm1-lower" else "above"
            terms = fn.opial_rows(p, psi, direction)
        elif functional_id == "thm2":
            terms = fn.theorem2_rows(p, psi, np.array([d["n"] for d in rows]))
        elif functional_id == "thm3":
            terms = fn.theorem3_rows(p, psi)
        elif functional_id in ("weighted-lower", "weighted-upper"):
            direction = "below" if functional_id == "weighted-lower" else "above"
            chi = _pad([d["chi"] for d in rows], active)
            terms = fn.weighted_rows(p, psi, chi, direction)
        elif functional_id == "corollary":
            # The conditional laws of the public path, as masked rows of the
            # same nodes; their models' invariants follow from the full model's.
            lower = index < np.array([d["cut"] for d in rows])[:, None]
            upper = active & ~lower
            p_low = np.array([math.fsum(d["mass"][: d["cut"]]) for d in rows])[:, None]
            p_up = np.array([math.fsum(d["mass"][d["cut"] :]) for d in rows])[:, None]
            terms = fn.corollary_rows(
                np.where(lower, p / p_low, 0.0),
                np.where(lower, psi, 0.0),
                np.where(upper, p / p_up, 0.0),
                np.where(upper, psi, 0.0),
            )
        else:  # wirtinger, projected as in the public path
            psi = np.where(active, psi - comp_sum(p * psi)[:, None], 0.0)
            terms = fn.wirtinger_rows(p, psi)
    tight = terms["middle" if functional_id in _MIDDLE_TIGHT_IDS else "lhs"]
    return terms["rhs"] - tight, terms["rhs"], flagged


def search_counterexample(
    functional_id: str,
    trials: int,
    seed: int,
    m_max: int = 30,
    rel_tol: float = 1e-9,
) -> Violation | None:
    """Randomized search for slack < -rel_tol relative.

    Node functions are i.i.d. standard normal; distributions have random
    sorted supports and Dirichlet masses.  Trial t draws its instance from
    its own generator ``default_rng([seed, t])``, so trials are
    order-independent and reproducible.  Returns the violation of the
    lowest violating trial, or None.

    Trials run in chunks: FIRST_CHUNK_TRIALS at first, then twice as many
    each time, up to CHUNK_ELEMENTS / m_max.  A chunk's draws are
    zero-padded into (trials, m_max) arrays and screened by one call of
    the functional's row kernel in :mod:`opial.functionals`, whose rows are
    bit-identical to the public evaluators, together with the checks those
    evaluators make on their inputs.  The lowest screened trial is then
    evaluated again through the public evaluator, which builds the returned
    :class:`Violation`, or raises the error a trial-by-trial search would
    have raised there.  The result is the same as evaluating every trial
    through the public evaluators in order; only the cost differs.

    The Wirtinger bound is only a theorem for continuous distributions;
    searching it over atomic inputs is expected to surface (heuristic-class)
    violations, which callers should log rather than treat as failures.
    """
    if functional_id not in SEARCHABLE_IDS:
        raise ValueError(f"no randomized search for functional {functional_id!r}")
    if m_max < 2:
        raise ValueError("m_max must be at least 2")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    chunk_cap = max(1, CHUNK_ELEMENTS // m_max)
    chunk = min(FIRST_CHUNK_TRIALS, chunk_cap)
    start = 0
    while start < trials:
        stop = min(trials, start + chunk)
        draws = [_draw_trial(functional_id, seed, trial, m_max) for trial in range(start, stop)]
        kept = np.array([k for k, d in enumerate(draws) if d is not None], dtype=int)
        if kept.size:
            slack, rhs, flagged = _screen(functional_id, [draws[k] for k in kept], m_max)
            kept = kept[flagged | _violates(slack, rhs, rel_tol)]
        for k in kept:
            report, instance = _evaluate_trial(functional_id, draws[k])
            if _violates(report.slack, report.terms["rhs"], rel_tol):
                return Violation(
                    functional=functional_id,
                    trial=start + int(k),
                    seed=seed,
                    slack=report.slack,
                    heuristic=functional_id == "wirtinger",
                    instance=instance,
                )
        start = stop
        chunk = min(2 * chunk, chunk_cap)
    return None
