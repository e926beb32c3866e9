"""Sharpness certification: best constants, refinement studies, search.

The sharp constants 1/2 (first order) and 1/pi^2 (Wirtinger) are
certified numerically in two ways: by one power-iteration engine that
maximizes a functional's quadratic form over the node function
(:func:`rayleigh_best_constant`), and by driving quantizations of
uniform (0, 1) through increasing resolutions and watching the values
converge to the constants (:func:`convergence_study`).  The two-sided
split (``corollary``) has neither a quadratic form nor a study, so no
constant of it is certified here; its bound is only verified and
searched.  The n-th order
constant 1/(n+1)! is the limit at constant psi; it is a proved bound for
n = 1 only and is exceeded for n >= 2 (see
:func:`~opial.functionals.theorem2_terms`).  A
randomized search (:func:`search_counterexample`) looks for violations.
Each functional is looked up in :data:`~opial.functionals.FUNCTIONALS`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import functionals as fn
from .accumulate import comp_sum
from .distributions import (
    DEFAULT_MAX_NODES,
    MODEL_FAULTS,
    DistributionError,
    QuantizedModel,
    make_uniform_interval,
    model_faults,
    quantize,
)
from .functionals import SEARCHABLE_IDS, THEOREM_BACKED_IDS  # noqa: F401  (public here too)


class ConvergenceError(RuntimeError):
    """An iterative solver hit its iteration cap before converging."""


#: Cap on the power iteration's steps; past it the engine raises ConvergenceError.
MAX_ITER = 100_000

#: Relative rise of the Rayleigh quotient below which the power iteration stops.
EIGEN_TOL = 1e-12


@dataclass(frozen=True)
class BestConstant:
    """Best constant of a functional's quadratic form on a quantized model.

    c_m is the maximum of psi^T K psi / E psi^2, over zero-mean psi where
    the functional requires it; psi_star is the maximizer normalized to
    E psi^2 = 1; residual is the symmetric-space eigen residual at
    convergence; trace holds the quotient after each step.
    """

    functional: str
    c_m: float
    psi_star: np.ndarray
    iterations: int
    converged: bool
    residual: float
    trace: tuple[tuple[int, float], ...]

    @property
    def ratio_star(self) -> float:
        """c_m over the stated constant of the functional's bound."""
        return self.c_m / fn.FUNCTIONALS[self.functional].form.bound

    def to_json_dict(self) -> dict:
        """The ``sharpness`` report of every solved functional."""
        return {
            "c_m": float(self.c_m),
            "converged": bool(self.converged),
            "functional": self.functional,
            "iterations": int(self.iterations),
            "psi_star": self.psi_star.tolist(),
            "ratio_star": float(self.ratio_star),
            "residual": float(self.residual),
            "trace": [[int(i), float(c)] for i, c in self.trace],
        }


def rayleigh_best_constant(model: QuantizedModel, functional: str = "wirtinger") -> BestConstant:
    """Maximize psi^T K psi / psi^T D psi for the tight term K of `functional`.

    K is the functional's :class:`~opial.functionals.QuadraticForm`, applied
    in O(m) by its own prefix/suffix passes, and D = diag(p).  The problem is
    solved as a symmetric eigenproblem in phi = D^(1/2) psi by power
    iteration.  For a zero-mean functional (Wirtinger) the constant
    direction, phi parallel to sqrt(p), is deflated by orthogonal projection
    at every step and the iteration starts from cos(pi F); otherwise K is
    nonnegative, its top vector is positive (Perron-Frobenius) and the
    iteration starts from the positive 1 + F.  Neither start vector
    projects to zero: 1 + F > 0, and for m >= 2 cos(pi F) is strictly
    decreasing, so not constant.  Where only one direction is admissible
    (one node, or two nodes with zero mean) the iteration converges at its
    first step.
    Stops when the quotient rises by at most EIGEN_TOL relative or no
    longer rises; raises :class:`ConvergenceError` after MAX_ITER steps.
    """
    spec = fn.FUNCTIONALS.get(functional)
    if spec is None or spec.form is None:
        raise ValueError(f"no quadratic form for functional {functional!r}")
    matvec = spec.form.matvec
    deflate = spec.zero_mean
    p = np.asarray(model.mass, dtype=float)
    if deflate and p.size < 2:
        raise ValueError("the zero-mean subspace is trivial for a single node")
    sq = np.sqrt(p)
    s = sq  # unit vector: sum of masses is 1

    def project(v: np.ndarray) -> np.ndarray:
        return v - (s @ v) * s if deflate else v

    def apply(phi: np.ndarray) -> np.ndarray:
        return project(matvec(p, phi / sq) / sq)

    cdf = model.midpoint_cdf()
    phi = project(sq * (np.cos(math.pi * cdf) if deflate else 1.0 + cdf))
    phi /= np.linalg.norm(phi)

    trace: list[tuple[int, float]] = []
    c_prev = -math.inf
    converged = False
    iterations = 0
    for iterations in range(1, MAX_ITER + 1):
        w = apply(phi)
        c = float(phi @ w)
        if c <= c_prev:
            # No further float-representable improvement.
            converged = True
            iterations -= 1
            break
        trace.append((iterations, c))
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            converged = True
            break
        phi = w / norm_w
        if c - c_prev <= EIGEN_TOL * max(1.0, abs(c)) and iterations > 1:
            converged = True
            break
        c_prev = c
    if not converged:
        raise ConvergenceError(
            f"power iteration did not converge within {MAX_ITER} iterations"
        )
    c_final = trace[-1][1]
    residual = float(np.linalg.norm(apply(phi) - c_final * phi))
    psi_star = phi / sq
    den = comp_sum(p * psi_star * psi_star)
    psi_star = psi_star / math.sqrt(den)
    return BestConstant(
        functional=functional,
        c_m=c_final,
        psi_star=psi_star,
        iterations=iterations,
        converged=True,
        residual=residual,
        trace=tuple(trace),
    )


def wirtinger_best_constant(m: int) -> BestConstant:
    """Best Wirtinger constant of uniform (0, 1) quantized at resolution m."""
    return rayleigh_best_constant(quantize(make_uniform_interval(0.0, 1.0), m))


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
    """Refinement study on uniform (0, 1).

    A functional with a ``study`` in its table entry is evaluated at
    constant psi: thm1-* give the ratio middle/rhs, exactly 1 at every
    resolution (half-tie weighting makes the discrete case tight), and thm2
    gives lhs (n+1)!, which approaches 1 at first order in 1/m.  For thm2
    that limit is the constant-psi value 1/(n+1)!, not a sharp constant:
    it is a bound for n = 1 only (see
    :func:`~opial.functionals.theorem2_terms`).  One with
    only a quadratic form gives its best constant c_m: wirtinger, which
    approaches 1/pi^2.
    """
    if not grids:
        raise ValueError("need at least one grid size")
    if any(b <= a for a, b in zip(grids, grids[1:])):
        raise ValueError(f"grid sizes must be strictly increasing, got {grids}")
    spec = fn.FUNCTIONALS.get(functional_id)
    if spec is None or (spec.study is None and spec.form is None):
        raise ValueError(f"no convergence study for functional {functional_id!r}")
    params = {"n": n} if "n" in spec.params else {}
    if params and n is None:
        raise ValueError(f"{functional_id} study requires the order n")
    base = make_uniform_interval(0.0, 1.0)
    values: list[float] = []
    errors: list[float] = []
    for m in grids:
        model = quantize(base, m)
        if spec.study is not None:
            value = spec.study(spec.rows(model.mass, np.ones(model.node_count), **params), **params)
            limit = 1.0
        else:
            value = rayleigh_best_constant(model, functional_id).c_m
            limit = spec.form.bound
        values.append(value)
        errors.append(abs(value - limit))

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


#: Default maximum node count of a search trial (``search --m``).
DEFAULT_M_MAX = 30

#: Trials drawn from one generator: trial t is row t mod BLOCK_TRIALS of
#: block b = t // BLOCK_TRIALS, whose rows come from ``default_rng([seed, b])``.
BLOCK_TRIALS = 256

#: Cap on a block's trials times m_max: the size of each zero-padded array.
#: A block is cut to CHUNK_ELEMENTS // m_max trials where it would exceed it.
CHUNK_ELEMENTS = 1 << 15


def block_trials(m_max: int) -> int:
    """Trials per block of a search with at most `m_max` nodes per trial."""
    return max(1, min(BLOCK_TRIALS, CHUNK_ELEMENTS // m_max))


def _draw_block(functional_id: str, seed: int, block: int, m_max: int) -> dict:
    """Block `block`'s trials as zero-padded rows, from ``default_rng([seed, block])``.

    Sequence functionals get ``sizes`` from 1 to m_max and N(0,1)
    coefficients ``a``.  The others get ``sizes`` from 2 to m_max and an
    atomic model per row: ``support`` from uniform(0.1, 1) gaps after a
    uniform(-3, 3) offset, Dirichlet(1, ..., 1) ``mass`` (row-normalized
    standard exponentials, floored at 1e-9 and normalized again) and N(0,1)
    node values ``psi``.  Every draw is one call for the whole block, in
    that order, of shape (rows, m_max) or (rows,); entries past a row's
    size are 0.  The table's ``draw`` then adds the functional's parameter
    (``n``, ``chi``, or the split point ``c``: the support point of a
    uniform index from 1 to size - 1) or transforms ``a`` or ``psi`` (psi
    less its compensated mean for wirtinger), and marks the size-1 rows
    that o15 and o18 ``skip``.
    """
    spec = fn.FUNCTIONALS[functional_id]
    rng = np.random.default_rng([seed, block])
    rows = block_trials(m_max)
    shape = (rows, m_max)
    if spec.input == "sequence":
        sizes = rng.integers(1, m_max + 1, size=rows)
        a = fn.pad_rows(rng.standard_normal(shape), sizes)
        return spec.draw(rng, sizes, {"sizes": sizes, "a": a})
    sizes = rng.integers(2, m_max + 1, size=rows)
    gaps = rng.uniform(0.1, 1.0, shape)
    support = fn.pad_rows(np.cumsum(gaps, axis=1) + rng.uniform(-3.0, 3.0, rows)[:, None], sizes)
    mass = fn.pad_rows(rng.standard_exponential(shape), sizes)
    # Floor the masses: Dirichlet draws can come out small enough to trip
    # the positive-mass and conditioning guards downstream.
    mass = fn.pad_rows(np.maximum(mass / mass.sum(axis=1)[:, None], 1e-9), sizes)
    mass /= mass.sum(axis=1)[:, None]
    psi = fn.pad_rows(rng.standard_normal(shape), sizes)
    return spec.draw(rng, sizes, {"sizes": sizes, "support": support, "mass": mass, "psi": psi})


def _row(block: dict, k: int) -> dict:
    """Row `k` of a drawn block: its arrays cut to the row's size, its scalars."""
    size = block["sizes"][k]
    return {
        name: value[k, :size] if value.ndim == 2 else value[k]
        for name, value in block.items()
        if name not in ("sizes", "skip")
    }


def _screen(functional_id: str, block: dict):
    """Slack, rhs and model fault code of a block's rows, by one kernel call.

    The rows are evaluated by the functional's row kernel, whose rows are
    bit-identical to the public evaluators.  A nonzero fault code is the
    first invariant the row's model fails
    (:func:`~opial.distributions.model_faults`), on which the public path
    raises.  The evaluators' other input checks cannot fail on the draws:
    chi, the rtwo coefficients and both conditional masses are positive by
    construction, and the centred rows meet the zero-sum and zero-mean
    conditions to within a few ulp.
    """
    spec = fn.FUNCTIONALS[functional_id]
    sizes = block["sizes"]
    if spec.input == "sequence":
        terms = spec.rows(block["a"], sizes)
        return terms["rhs"] - terms[spec.tight], terms["rhs"], np.zeros(sizes.size, dtype=int)
    p, psi = block["mass"], block["psi"]
    faults = model_faults(block["support"], p, sizes)
    if spec.input == "distribution":
        # The conditional laws of the public path, X <= c and X > c, as
        # masked rows of the same nodes; their models' invariants follow
        # from the full model's.  Their masses are divided by the exact sums
        # the public path takes, listed row by row to keep few float objects
        # alive at once.
        active = np.arange(p.shape[-1]) < sizes[:, None]
        lower = active & (block["support"] <= block["c"][:, None])
        upper = active & ~lower
        shares = []
        for row, cut in zip(p, np.count_nonzero(lower, axis=1).tolist()):
            row = row.tolist()
            shares.append((math.fsum(row[:cut]), math.fsum(row[cut:])))
        p_low, p_up = np.array(shares).T
        terms = spec.rows(
            np.where(lower, p / p_low[:, None], 0.0),
            np.where(lower, psi, 0.0),
            np.where(upper, p / p_up[:, None], 0.0),
            np.where(upper, psi, 0.0),
        )
    else:
        terms = spec.rows(p, psi, **{name: block[name] for name in spec.params})
    return terms["rhs"] - terms[spec.tight], terms["rhs"], faults


def search_counterexample(
    functional_id: str,
    trials: int,
    seed: int,
    m_max: int = DEFAULT_M_MAX,
    rel_tol: float = fn.EQUALITY_TOL,
) -> Violation | None:
    """Randomized search for slack < -rel_tol relative.

    Node functions are i.i.d. standard normal; distributions have random
    sorted supports and Dirichlet masses.  Trials are drawn in blocks of
    B = ``block_trials(m_max)`` trials (BLOCK_TRIALS, fewer where that many
    rows of m_max would exceed CHUNK_ELEMENTS): trial t is row t mod B of
    block b = t // B, and block b is drawn from its own generator
    ``default_rng([seed, b])`` by a few vectorized calls
    (:func:`_draw_block`).  A result therefore depends only on the
    functional, the seed, the trial index and m_max, not on `trials`.
    Returns the violation of the lowest violating trial, or None.  Raises
    ValueError for an id without a search, m_max outside
    [2, DEFAULT_MAX_NODES] or trials < 1.

    Every drawn row is a valid input of the functional's public evaluator
    (the table's ``draw`` centres and splits it), and each block's
    zero-padded (B, m_max) arrays are screened by one call of the
    functional's row kernel in :mod:`opial.functionals`, whose rows are
    bit-identical to the public evaluators, together with the model checks
    those evaluators make (:func:`_screen`).  The screen is the only
    evaluation: the lowest listed trial of a block raises the
    :class:`~opial.distributions.DistributionError` its model would raise,
    or is returned with its screened slack and its row as the instance.
    The result is the same as evaluating every trial through the public
    evaluators in order; only the cost differs.  A trial costs a few
    microseconds at m_max = 30, most of it in the screen's compensated
    passes; a search shorter than one block still draws the whole block.

    The Wirtinger bound is only a theorem for continuous distributions;
    searching it over atomic inputs is expected to surface (heuristic-class)
    violations, which callers should log rather than treat as failures.
    """
    if functional_id not in SEARCHABLE_IDS:
        raise ValueError(f"no randomized search for functional {functional_id!r}")
    if m_max < 2:
        raise ValueError("m_max must be at least 2")
    if m_max > DEFAULT_MAX_NODES:
        raise ValueError(f"m_max must be at most {DEFAULT_MAX_NODES}, got {m_max}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    rows = block_trials(m_max)
    for block_index, start in enumerate(range(0, trials, rows)):
        drawn = _draw_block(functional_id, seed, block_index, m_max)
        block = {name: value[: trials - start] for name, value in drawn.items()}
        slack, rhs, faults = _screen(functional_id, block)
        listed = (faults != 0) | fn.violates(slack, rhs, rel_tol)
        if "skip" in block:
            listed &= ~block["skip"]
        if listed.any():
            k = int(listed.argmax())
            if faults[k]:
                raise DistributionError(MODEL_FAULTS[faults[k]])
            return Violation(
                functional=functional_id,
                trial=start + k,
                seed=seed,
                slack=float(slack[k]),
                heuristic=not fn.FUNCTIONALS[functional_id].theorem_backed,
                instance={name: value.tolist() for name, value in _row(block, k).items()},
            )
    return None
