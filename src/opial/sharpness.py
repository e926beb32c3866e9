"""Sharpness certification: best constants, refinement studies, search.

The sharp constants 1/2 (first order) and 1/pi^2 (Wirtinger) are
certified numerically in two ways: by one engine that maximizes a
functional's quadratic form over the node function
(:func:`rayleigh_best_constant`), and by driving quantizations of
uniform (0, 1) through increasing resolutions and watching the values
converge to the constants (:func:`convergence_study`).  The first-order
form has rank one, so the engine states its eigenpair (1/2 at constant
psi, on every law) and checks it by one residual pass; the Wirtinger
constant of a law is found by power iteration.  The two-sided
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
from .accumulate import COMPENSATED, PLAIN, comp_sum
from .distributions import DEFAULT_MAX_NODES, NodeFunction, QuantizedModel, make_uniform_interval, quantize
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
    E psi^2 = 1; residual is the symmetric-space eigen residual of
    (c_m, psi_star); trace holds (step, quotient) after each power step
    that raised the quotient, numbered from 1.  The trace is the solve's
    only record: iterations and converged are derived from it.  A
    rank-one form's pair is stated in closed form, not iterated: its
    trace is empty and psi_star is all ones.  psi_star is read-only.
    """

    functional: str
    c_m: float
    psi_star: np.ndarray
    residual: float
    trace: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        self.psi_star.setflags(write=False)

    @property
    def iterations(self) -> int:
        """Power steps recorded: one per trace entry, 0 in closed form."""
        return len(self.trace)

    @property
    def converged(self) -> bool:
        """Always True: a solve that does not converge raises ConvergenceError."""
        return True

    @property
    def ratio_star(self) -> float:
        """c_m over the stated constant of the functional's bound."""
        return self.c_m / fn.FUNCTIONALS[self.functional].form.bound

    def to_json_dict(self) -> dict:
        """The ``sharpness`` report of every solved functional: its fields
        and the three derived ones.  ``psi_star`` is the read-only array
        itself, not a copy; ``cli._json_text`` writes it as its ``tolist()``."""
        return {
            **vars(self),
            "converged": self.converged,
            "iterations": self.iterations,
            "ratio_star": self.ratio_star,
        }


def rayleigh_best_constant(model: QuantizedModel, functional: str = "wirtinger") -> BestConstant:
    """Maximize psi^T K psi / psi^T D psi for the tight term K of `functional`.

    K is the functional's :class:`~opial.functionals.QuadraticForm`, applied
    in O(m) by its own prefix/suffix passes, and D = diag(p).  The problem is
    the symmetric eigenproblem of B = D^(-1/2) K D^(-1/2) in
    phi = D^(1/2) psi.

    A rank-one form (thm1-*: K = p p^T / 2) is solved in closed form:
    B = c sqrt(p) sqrt(p)^T has the one nonzero eigenvalue c, its stated
    constant, at phi = sqrt(p), so c_m = c and psi_star = 1 on every law,
    with an empty trace (``iterations == 0``).  Its residual is still a
    certificate: one pass of the form at phi = sqrt(p), less c sqrt(p).

    Every other form is zero-mean (Wirtinger) and is solved by power
    iteration: the constant direction, phi parallel to sqrt(p), is deflated
    by orthogonal projection at every step, and the iteration starts from
    cos(pi F), which for m >= 2 is strictly decreasing, so it does not
    project to zero.  Where only one direction is admissible (two nodes)
    the iteration converges at its first step.  The trace is the loop's
    only state.  It stops when the quotient no longer rises (that step is
    not recorded), the iterate maps to zero, or, after step 1, the quotient
    rose by at most EIGEN_TOL relative; it raises
    :class:`ConvergenceError` after MAX_ITER steps.
    """
    spec = fn.FUNCTIONALS.get(functional)
    if spec is None or spec.form is None:
        raise ValueError(f"no quadratic form for functional {functional!r}")
    form = spec.form
    p = np.asarray(model.mass, dtype=float)
    sq = np.sqrt(p)
    if form.rank_one:
        psi_star = np.ones(p.size)
        residual = float(np.linalg.norm(form.matvec(p, psi_star) / sq - form.bound * sq))
        return BestConstant(
            functional=functional,
            c_m=form.bound,
            psi_star=psi_star,
            residual=residual,
            trace=(),
        )
    if p.size < 2:
        raise ValueError("the zero-mean subspace is trivial for a single node")

    def project(v: np.ndarray) -> np.ndarray:
        return v - (sq @ v) * sq  # sq is a unit vector: the masses sum to 1

    def apply(phi: np.ndarray) -> np.ndarray:
        return project(form.matvec(p, phi / sq) / sq)

    phi = project(sq * NodeFunction.cos_pi_cdf().resolve(model))
    phi /= np.linalg.norm(phi)

    # w is apply(phi) at every exit: the no-rise and zero-norm exits keep phi.
    w = apply(phi)
    trace: list[tuple[int, float]] = []
    for step in range(1, MAX_ITER + 1):
        c = float(phi @ w)
        if trace and c <= trace[-1][1]:
            break  # No further float-representable improvement.
        trace.append((step, c))
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            break
        phi = w / norm_w
        w = apply(phi)
        if step > 1 and c - trace[-2][1] <= EIGEN_TOL * max(1.0, abs(c)):
            break
    else:
        raise ConvergenceError(
            f"power iteration did not converge within {MAX_ITER} iterations"
        )
    c_final = trace[-1][1]
    residual = float(np.linalg.norm(w - c_final * phi))
    psi_star = phi / sq
    den = comp_sum(p * psi_star * psi_star)
    psi_star = psi_star / math.sqrt(den)
    return BestConstant(
        functional=functional,
        c_m=c_final,
        psi_star=psi_star,
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
    """One grid of a refinement study: the study's value at resolution m,
    its error against the limit and ``fitted_order``, the pairwise order
    against the previous grid (None on the first grid or a zero error)."""

    m: int
    value: float
    error: float
    fitted_order: float | None


@dataclass(frozen=True)
class ConvergenceStudy:
    functional: str
    n: int | None  # the order, for an id that takes one
    rows: tuple[ConvergenceRow, ...]
    fitted_order: float | None  # least-squares slope over all positive errors

    def to_json_dict(self) -> dict:
        return {**vars(self), "rows": [dict(vars(row)) for row in self.rows]}

    def to_csv_rows(self) -> list[list]:
        rows: list[list] = [["m", "value", "error", "fitted_order"]]
        for row in self.rows:
            order = "" if row.fitted_order is None else repr(row.fitted_order)
            rows.append([row.m, repr(row.value), repr(row.error), order])
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
    approaches 1/pi^2.  The study records `n` only for an id that takes an
    order (thm2); for the others it is None whatever was passed.
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
    rows: list[ConvergenceRow] = []
    for m in grids:
        model = quantize(base, m)
        if spec.study is not None:
            value = spec.study(spec.rows(model.mass, np.ones(model.node_count), **params), **params)
            limit = 1.0
        else:
            value = rayleigh_best_constant(model, functional_id).c_m
            limit = spec.form.bound
        error = abs(value - limit)
        order = None
        if rows and error > 0.0 and rows[-1].error > 0.0:
            order = math.log(rows[-1].error / error) / math.log(m / rows[-1].m)
        rows.append(ConvergenceRow(m=int(m), value=value, error=error, fitted_order=order))

    positive = [row for row in rows if row.error > 0.0]
    fitted = None
    if len(positive) >= 2:
        xs = np.array([math.log(row.m) for row in positive])
        ys = np.array([math.log(row.error) for row in positive])
        fitted = 0.0 - float(np.polyfit(xs, ys, 1)[0])  # +0.0, not -0.0, for a flat study
    return ConvergenceStudy(
        functional=functional_id, n=int(n) if params else None, rows=tuple(rows), fitted_order=fitted
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
        return dict(vars(self))


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

    Every functional gets ``sizes`` from 2 to m_max: one value is an
    equality case of every kernel.  A model functional then
    gets an atomic model per row: ``support`` the positions 1, ..., size,
    which take no draw, and Dirichlet(1, ..., 1) ``mass`` (row-normalized
    standard exponentials, floored at 1e-9 and normalized again); a
    sequence functional gets none, its masses the counting law.  No kernel
    reads a support value, and the corollary's split reads only their
    order, so random supports would test nothing more.  Every functional
    gets N(0,1) values ``psi``.  The values then meet the table's side
    conditions: a ``zero_mean`` sequence loses its mean over the row, a
    ``zero_mean`` psi loses its compensated mean under the row's masses,
    and a ``nonnegative`` sequence is taken in magnitude.  Last comes the
    parameter the table's ``params`` names: the order ``n`` from 1 to 3,
    the weight ``chi`` from uniform(0, 3), or the split point ``c``, a
    uniform index from 1 to size - 1, which is that atom's position.  Every
    draw is one call for the whole block, in that order, of shape
    (rows, m_max) or (rows,).  Entries past a row's size are 0, set by the
    row mask ``active``, which is built once per block and kept in it for
    :func:`_terms`.  Every row is a valid input of the functional's public
    evaluator, so the search checks no row.

    Each row's model meets the :class:`~opial.distributions.QuantizedModel`
    invariants by construction.  Its support is finite and strictly
    increasing: the exact integers 1, ..., size.  Its masses are positive:
    floored at 1e-9, then divided by their positive sum.  Their exact sum
    is within about w u of 1 for a row of w entries and the unit roundoff
    u (the normalizing sum is within (w - 1) u of exact in any summation
    order, and each quotient adds a relative u), which is within MASS_TOL
    up to w of about 9 000; numpy's pairwise row sum makes it O(log w) u
    at any width.
    """
    spec = fn.FUNCTIONALS[functional_id]
    rng = np.random.default_rng([seed, block])
    rows = block_trials(m_max)
    shape = (rows, m_max)
    sequence = spec.input == "sequence"
    sizes = rng.integers(2, m_max + 1, size=rows)
    active = np.arange(m_max) < sizes[:, None]
    drawn = {"sizes": sizes, "active": active}
    if not sequence:
        support = np.where(active, np.arange(1.0, m_max + 1.0), 0.0)
        mass = np.where(active, rng.standard_exponential(shape), 0.0)
        # Floor the masses: Dirichlet draws can come out small enough to trip
        # the positive-mass and conditioning guards downstream.
        mass = np.where(active, np.maximum(mass / mass.sum(axis=1)[:, None], 1e-9), 0.0)
        mass /= mass.sum(axis=1)[:, None]
        drawn.update(support=support, mass=mass)
    values = np.where(active, rng.standard_normal(shape), 0.0)
    if spec.zero_mean:
        # psi less its compensated mean has E psi = 0 to a few ulp, as wirtinger requires.
        mean = values.sum(axis=-1) / sizes if sequence else comp_sum(mass * values)
        values = np.where(active, values - mean[:, None], 0.0)
    drawn["psi"] = np.abs(values) if spec.nonnegative else values
    if "n" in spec.params:
        drawn["n"] = rng.integers(1, 4, size=rows)
    if "chi" in spec.params:
        drawn["chi"] = np.where(active, rng.uniform(0.0, 3.0, shape), 0.0)
    if "c" in spec.params:
        drawn["c"] = rng.integers(1, sizes).astype(float)
    return drawn


def _row(block: dict, k: int) -> dict:
    """Row `k` of a drawn block: its arrays cut to the row's size, its scalars."""
    size = block["sizes"][k]
    return {
        name: value[k, :size] if value.ndim == 2 else value[k]
        for name, value in block.items()
        if name not in ("sizes", "active")
    }


def _terms(spec: fn.Functional, block: dict, values: np.ndarray, passes) -> dict:
    """The row kernel's terms on a block by `passes`, with `values` as psi.

    A sequence row's masses are the counting law, 1 on each of its entries.
    The corollary's conditional laws, X <= c and X > c, are masked rows of
    the block's nodes, their masses divided by ``passes.total`` of each
    half's masked masses, as :func:`~opial.functionals.corollary_terms`
    divides them by their compensated sums; zeros outside a half add
    nothing to either sum.  Their models' invariants follow from the full
    model's.
    """
    if spec.input == "sequence":
        return spec.rows(block["active"] * 1.0, values, passes=passes)
    p = block["mass"]
    if "c" in spec.params:
        lower = block["support"] <= block["c"][:, None]
        args = []
        for half in (block["active"] & lower, block["active"] & ~lower):
            masses = np.where(half, p, 0.0)
            args += [masses / passes.total(masses)[:, None], np.where(half, values, 0.0)]
        return spec.rows(*args, passes=passes)
    return spec.rows(p, values, **{name: block[name] for name in spec.params}, passes=passes)


def _screen(functional_id: str, block: dict):
    """Slack and rhs of a block's rows, by one kernel call.

    The search calls it only on the rows its plain-pass filter leaves (see
    :func:`_cleared`); each row's result does not depend on the other rows.
    The rows are evaluated by :func:`_terms` with the kernels' default
    compensated passes, and the corollary's conditional masses are divided
    by their compensated sums, as the public path divides them: each row
    is bit-identical to the public evaluators.  No input check of the
    evaluators is made, and none can fail on the draws: the models meet
    their invariants by construction (see :func:`_draw_block`), chi, the
    rtwo coefficients and both conditional masses are positive, and the
    centred rows meet the zero-sum and zero-mean conditions to within a few
    ulp.
    """
    spec = fn.FUNCTIONALS[functional_id]
    terms = _terms(spec, block, block["psi"], COMPENSATED)
    return terms["rhs"] - terms[spec.tight], terms["rhs"]


def _margin(width: int) -> float:
    """2 gamma_K, the factor of the filter's error bounds on rows of `width` entries.

    gamma_K = K u / (1 - K u) for the unit roundoff u, and
    K = (ORDER_CAP + 4)(width + 2) bounds the roundings of every kernel.
    Counted along every path from an entry to a term, with one rounding per
    product and width - 1 per plain pass, the deepest kernel is thm2: at
    order n its lhs takes (n + 1)(width - 1) + 2 roundings.  The next
    deepest is the corollary's middle term, 4 width + 2, because the filter
    divides its masses by plain sums of width entries (the screen and the
    public path by compensated ones).  K exceeds every kernel's
    depth at n <= ORDER_CAP by more than 2 width + 8.  That covers
    Neumaier's passes, which are within a few roundings of exact at any
    length, and the handful of roundings in the slack and in the filter's
    own test.
    """
    ku = (fn.ORDER_CAP + 4) * (width + 2) * (np.finfo(float).eps / 2)
    return 2.0 * ku / (1.0 - ku)


def _plain_screen(functional_id: str, block: dict):
    """Plain slack, plain rhs and their error bounds on a block's rows.

    Returns ``(slack, rhs, slack_error, rhs_error)``: each row's compensated
    slack and rhs, the pair :func:`_screen` gives, lie within ``slack_error``
    and ``rhs_error`` of the plain ones.  The bounds are
    ``2 gamma_K (|tight~| + |rhs~|)`` and ``2 gamma_K |rhs~|``, where the
    tilde terms are the kernel's plain terms at |psi| and gamma_K is that
    of :func:`_margin`.  A ``sign_free`` kernel's plain terms are their own
    magnitudes, so it is evaluated once.  Both evaluations are
    :func:`_terms` with plain passes, which divides the corollary's
    conditional masses by plain sums.

    Why: each tight or rhs term is a tree of sums and products of the
    row's entries.  If every entry of it passes through at most d
    roundings, the computed term lies within gamma_d T-bar of the exact
    one, where T-bar is the same tree over the entries' magnitudes
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3); the
    plain and the compensated terms both do, and the plain term at |psi|
    lies within gamma_d T-bar of T-bar, so the two terms differ by at most
    2 gamma_d T-bar / (1 - gamma_d) <= 2 gamma_K T~.  The bound holds
    without overflow or underflow.  The draws keep every term far from
    both (masses of at least about 1e-9, node values from normal draws),
    and a term that overflows makes its bound inf or NaN.  Warnings are
    silenced here; a row the filter does not clear meets the screen's own.
    """
    spec = fn.FUNCTIONALS[functional_id]
    values = block["psi"]
    factor = _margin(values.shape[-1])
    with np.errstate(all="ignore"):
        terms = _terms(spec, block, values, PLAIN)
        tight, rhs = terms[spec.tight], terms["rhs"]
        if not spec.sign_free:
            terms = _terms(spec, block, np.abs(values), PLAIN)
        rhs_error = factor * np.abs(terms["rhs"])
        return rhs - tight, rhs, rhs_error + factor * np.abs(terms[spec.tight]), rhs_error


def _cleared(functional_id: str, block: dict, rel_tol: float) -> np.ndarray:
    """Rows that the screen provably does not find violating, from plain passes.

    A row is cleared when its plain slack less its error bound
    (:func:`_plain_screen`) exceeds the screen's threshold
    ``-rel_tol * max(1, |rhs|)`` for every rhs within its bound of the
    plain one: the bound is taken off |rhs| for rel_tol >= 0, where the
    threshold falls as |rhs| rises, and added for rel_tol < 0.  The
    comparison is ``>``, so a NaN row is never cleared.
    """
    slack, rhs, slack_error, rhs_error = _plain_screen(functional_id, block)
    with np.errstate(all="ignore"):
        worst_rhs = np.abs(rhs) - np.copysign(rhs_error, rel_tol)
        return slack - slack_error > -rel_tol * np.fmax(1.0, worst_rhs)


def search_counterexample(
    functional_id: str,
    trials: int,
    seed: int,
    m_max: int = DEFAULT_M_MAX,
    rel_tol: float = fn.EQUALITY_TOL,
) -> Violation | None:
    """Randomized search for slack < -rel_tol relative.

    Node functions are i.i.d. standard normal; distributions have
    Dirichlet masses on the positions 1, ..., size.  Trials are drawn in
    blocks of B = ``block_trials(m_max)`` trials (BLOCK_TRIALS, fewer where
    that many rows of m_max would exceed CHUNK_ELEMENTS): trial t is row
    t mod B of block b = t // B, and block b is drawn from its own generator
    ``default_rng([seed, b])`` by a few vectorized calls
    (:func:`_draw_block`).  A result therefore depends only on the
    functional, the seed, the trial index and m_max, not on `trials`.
    Returns the violation of the lowest violating trial, or None.  Raises
    ValueError for an id without a search, m_max outside
    [2, DEFAULT_MAX_NODES], trials < 1, seed < 0 or a NaN rel_tol (an
    infinite one is allowed).

    Every drawn row is a valid input of the functional's public evaluator:
    the draw meets the table's side conditions, and its models meet their
    invariants by construction (:func:`_draw_block`), so no row is checked.
    Each block's zero-padded (B, m_max) arrays first pass a filter: the
    functional's row kernel in :mod:`opial.functionals`, run with plain
    passes.  A row whose plain slack clears the threshold by more than a
    proved bound on its rounding error (:func:`_cleared`) cannot be listed
    by the compensated screen, and is dropped.  The rows not cleared are
    screened (:func:`_screen`): the same kernel arguments, built by
    :func:`_terms`, with the compensated passes and compensated conditional
    sums, whose rows are bit-identical to the public evaluators.  A row is
    listed when its screened slack violates the threshold, and the lowest
    listed trial is returned with its screened slack and its row as the
    instance.  The result is the same as evaluating every trial through
    the public evaluators in order; only the cost differs.  At the default
    tolerance the filter clears every row of a theorem-backed functional's
    draws, so a trial costs one plain kernel row, a few microseconds at
    m_max = 30.
    A search of T trials, fewer than one block, still draws the whole
    block, but filters and screens only its first T rows.

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
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if math.isnan(rel_tol):
        raise ValueError("rel_tol must not be NaN")
    spec = fn.FUNCTIONALS[functional_id]
    rows = block_trials(m_max)
    for block_index, start in enumerate(range(0, trials, rows)):
        drawn = _draw_block(functional_id, seed, block_index, m_max)
        block = {name: value[: trials - start] for name, value in drawn.items()}
        kept = np.flatnonzero(~_cleared(functional_id, block, rel_tol))
        if kept.size == 0:
            continue
        slack, rhs = _screen(functional_id, {name: value[kept] for name, value in block.items()})
        listed = fn.violates(slack, rhs, rel_tol)
        if listed.any():
            j = int(listed.argmax())
            k = int(kept[j])
            return Violation(
                functional=functional_id,
                trial=start + k,
                seed=int(seed),
                slack=float(slack[j]),
                heuristic=not spec.theorem_backed,
                instance={name: value.tolist() for name, value in _row(block, k).items()},
            )
    return None
