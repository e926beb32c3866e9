"""Brute-force enumeration oracles for the fast evaluators.

Every quantity here is recomputed by literal summation over index tuples
with explicit indicator weights and plain accumulation.  Nothing is shared
with :mod:`opial.functionals` (no prefix passes, no compensated sums), so
agreement between the two paths is evidence rather than tautology.

Costs are charged in summand evaluations, one per factor of a visited tuple,
against a configurable budget.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import product

import numpy as np

from .distributions import QuantizedModel

#: Default enumeration budget in summand evaluations.
DEFAULT_BUDGET = 10_000_000


class BudgetExceededError(RuntimeError):
    """Requested enumeration exceeds the summand budget."""


class OracleMismatchError(AssertionError):
    """An internal oracle consistency check failed."""


def _charge(cost: int, budget: int) -> None:
    if cost > budget:
        raise BudgetExceededError(
            f"enumeration needs {cost} summand evaluations, budget is {budget}"
        )


def _unpack(model: QuantizedModel, psi) -> tuple[list[float], list[float], list[float]]:
    x = [float(v) for v in model.support]
    p = [float(v) for v in model.mass]
    f = [float(v) for v in np.asarray(psi, dtype=float).ravel()]
    if len(f) != len(x):
        raise ValueError(f"psi has {len(f)} values for {len(x)} nodes")
    return x, p, f


def _w_below(xj: float, xi: float) -> float:
    if xj < xi:
        return 1.0
    if xj == xi:
        return 0.5
    return 0.0


def _w_above(xj: float, xi: float) -> float:
    if xj > xi:
        return 1.0
    if xj == xi:
        return 0.5
    return 0.0


def _enum_opial(x, p, f, w) -> dict[str, float]:
    m = len(x)
    lhs = 0.0
    middle = 0.0
    rhs = 0.0
    for i in range(m):
        inner = 0.0
        for j in range(m):
            inner += p[j] * f[j] * w(x[j], x[i])
            middle += p[i] * p[j] * abs(f[i] * f[j]) * w(x[j], x[i])
        lhs += p[i] * abs(inner * f[i])
        rhs += 0.5 * p[i] * f[i] * f[i]
    return {"lhs": lhs, "middle": middle, "rhs": rhs}


def _enum_weighted(x, p, f, g, w_dir, w_opp) -> dict[str, float]:
    m = len(x)
    lhs = 0.0
    middle = 0.0
    rhs = 0.0
    for i in range(m):
        inner = 0.0
        for j in range(m):
            wd = w_dir(x[j], x[i])
            inner += p[j] * f[j] * wd
            middle += p[i] * p[j] * abs(f[i] * f[j]) * g[i] * wd
            rhs += 0.5 * p[i] * p[j] * f[i] * f[i] * (
                g[i] * wd + g[j] * w_opp(x[j], x[i])
            )
        lhs += p[i] * abs(inner * f[i]) * g[i]
    return {"lhs": lhs, "middle": middle, "rhs": rhs}


def _enum_thm2(x, p, f, n: int) -> dict[str, float]:
    m = len(x)
    lhs = 0.0
    rhs = 0.0
    for i in range(m):
        inner = 0.0
        for tup in product(range(m), repeat=n):
            ok = True
            prev = x[i]
            # tuple positions run from the outermost level down to psi's argument
            for t in tup:
                if not x[t] < prev:
                    ok = False
                    break
                prev = x[t]
            if not ok:
                continue
            weight = 1.0
            for t in tup:
                weight *= p[t]
            inner += weight * f[tup[-1]]
        lhs += p[i] * abs(inner * f[i])
        rhs += p[i] * f[i] * f[i]
    return {"lhs": lhs, "rhs": rhs / math.factorial(n + 1)}


def _enum_thm3(x, p, f) -> dict[str, float]:
    m = len(x)
    # half-tie CDF at each node: mass strictly below plus half the tie
    fbar = []
    for i in range(m):
        acc = 0.0
        for j in range(m):
            acc += p[j] * _w_below(x[j], x[i])
        fbar.append(acc)
    lhs = 0.0
    rhs = 0.0
    for i in range(m):
        j_sum = 0.0
        jd_sum = 0.0
        for j in range(m):
            if x[j] < x[i]:
                jd_sum += p[j] * abs(f[j]) * (p[j] + p[i])
                for k in range(m):
                    if x[k] < x[j]:
                        j_sum += p[j] * p[k] * abs(f[k])
        lhs += p[i] * abs(f[i]) * (6.0 * j_sum + 3.0 * jd_sum)
        row = 0.0
        for k in range(m):
            row += 3.0 * p[i] * p[k] * abs(fbar[i] - fbar[k])
        rhs += f[i] * f[i] * row
    return {"lhs": lhs, "rhs": rhs}


def _enum_wirtinger(x, p, f) -> dict[str, float]:
    m = len(x)
    lhs = 0.0
    rhs = 0.0
    for i in range(m):
        inner = 0.0
        for j in range(m):
            if x[j] < x[i]:
                inner += p[j] * f[j]
        lhs += p[i] * inner * inner
        rhs += p[i] * f[i] * f[i]
    return {"lhs": lhs, "rhs": rhs / (math.pi * math.pi)}


def _enum_corollary(x, p, f, c: float) -> dict[str, float]:
    m = len(x)
    low = [i for i in range(m) if x[i] <= c]
    up = [i for i in range(m) if x[i] > c]
    p_low = 0.0
    for i in low:
        p_low += p[i]
    p_up = 0.0
    for i in up:
        p_up += p[i]
    if p_low <= 0.0 or p_up <= 0.0:
        raise ValueError(f"split at c={c} leaves an empty side")
    lhs = 0.0
    middle = 0.0
    rhs = 0.0
    for idx, weight_fn, side_mass in ((low, _w_below, p_low), (up, _w_above, p_up)):
        for i in idx:
            qi = p[i] / side_mass
            inner = 0.0
            for j in idx:
                qj = p[j] / side_mass
                wv = weight_fn(x[j], x[i])
                inner += qj * f[j] * wv
                middle += qi * qj * abs(f[i] * f[j]) * wv
            lhs += qi * abs(inner * f[i])
            rhs += 0.5 * qi * f[i] * f[i]
    return {"lhs": lhs, "middle": middle, "rhs": rhs}


#: Functional id -> (summand count for m nodes and order n, the arguments its
#: enumeration needs among g (the weight chi), n and c, the enumeration).
_ORACLES = {
    "thm1-lower": (lambda m, n: 2 * m * m, (), partial(_enum_opial, w=_w_below)),
    "thm1-upper": (lambda m, n: 2 * m * m, (), partial(_enum_opial, w=_w_above)),
    "weighted-lower": (
        lambda m, n: 3 * m * m,
        ("g",),
        partial(_enum_weighted, w_dir=_w_below, w_opp=_w_above),
    ),
    "weighted-upper": (
        lambda m, n: 3 * m * m,
        ("g",),
        partial(_enum_weighted, w_dir=_w_above, w_opp=_w_below),
    ),
    "thm2": (lambda m, n: (n + 1) * m ** (n + 1), ("n",), _enum_thm2),
    "thm3": (lambda m, n: 3 * m**3 + 5 * m * m, (), _enum_thm3),
    "wirtinger": (lambda m, n: 2 * m * m, (), _enum_wirtinger),
    "corollary": (lambda m, n: 4 * m * m, ("c",), _enum_corollary),
}

_NEEDS = {"g": "a weight chi", "n": "an order n >= 1", "c": "a split point c"}


def enumerate_functional(
    model: QuantizedModel,
    psi,
    chi=None,
    functional: str = "thm1-lower",
    n: int | None = None,
    c: float | None = None,
    budget: int = DEFAULT_BUDGET,
) -> dict[str, float]:
    """Evaluate a functional's terms by literal enumeration.

    Returns the same named terms as the corresponding fast operation.
    """
    x, p, f = _unpack(model, psi)
    m = len(x)
    if functional not in _ORACLES:
        raise ValueError(f"no enumeration oracle for functional {functional!r}")
    cost, needs, enumerate_ = _ORACLES[functional]
    given = {"g": chi, "n": None if n is None or n < 1 else n, "c": c}
    for name in needs:
        if given[name] is None:
            raise ValueError(f"{functional} requires {_NEEDS[name]}")
    if "g" in needs:
        given["g"] = [float(v) for v in np.asarray(chi, dtype=float).ravel()]
        if len(given["g"]) != m:
            raise ValueError(f"chi has {len(given['g'])} values for {m} nodes")
    _charge(cost(m, n), budget)
    return enumerate_(x, p, f, **{name: given[name] for name in needs})


@dataclass(frozen=True)
class PartitionMasses:
    """Masses of the order-region partition of triples under F x F x F.

    u: all three coordinates distinct; v1: smallest two tied; v2: largest two
    tied; w: all three equal.  They always sum to 1.
    """

    u: float
    v1: float
    v2: float
    w: float

    @property
    def total(self) -> float:
        return self.u + self.v1 + self.v2 + self.w

    def to_json_dict(self) -> dict:
        return {"u": self.u, "v1": self.v1, "v2": self.v2, "w": self.w, "total": self.total}


def _region_sums(x: list[float], p: list[float], f: list[float]) -> tuple[float, float, float, float]:
    """Sums of p_i p_j p_k |f_i f_k| over the triples (i, j, k) of each order
    region: all distinct, low tie, high tie and triple tie."""
    m = len(x)
    u = v1 = v2 = w = 0.0
    for i in range(m):
        for j in range(m):
            for k in range(m):
                q = p[i] * p[j] * p[k] * abs(f[i] * f[k])
                a, b, cc = x[i], x[j], x[k]
                if a == b == cc:
                    w += q
                elif a != b and b != cc and a != cc:
                    u += q
                else:
                    lo = min(a, b, cc)
                    if (a == lo) + (b == lo) + (cc == lo) == 2:
                        v1 += q
                    else:
                        v2 += q
    return u, v1, v2, w


def partition_masses(model: QuantizedModel, budget: int = DEFAULT_BUDGET) -> PartitionMasses:
    """Exact masses of the triple order regions by full enumeration."""
    x, p, f = _unpack(model, np.ones(model.node_count))
    _charge(3 * len(x) ** 3, budget)
    return PartitionMasses(*_region_sums(x, p, f))


@dataclass(frozen=True)
class Two3Decomposition:
    """The four order-region addends whose sum is (E|psi|)^2.

    Each field is the full integral of |psi(x_0) psi(x_2)| over one region of
    the triple partition (all distinct / low tie / high tie / triple tie), so
    the four add up to (E|psi|)^2 exactly.  When |psi| is constant each
    region integral collapses by exchangeability to 6x (resp. 3x, 3x, 1x)
    its canonical strictly-ordered representative, which is where the names
    come from; for non-constant psi the collapse does not hold, and assuming
    it would overstate the u/v terms.
    """

    u_term: float
    v1_term: float
    v2_term: float
    w_term: float
    expected: float

    @property
    def total(self) -> float:
        return self.u_term + self.v1_term + self.v2_term + self.w_term

    @property
    def rel_err(self) -> float:
        return abs(self.total - self.expected) / max(1.0, abs(self.expected))

    def to_json_dict(self) -> dict:
        return {
            "u_term": self.u_term,
            "v1_term": self.v1_term,
            "v2_term": self.v2_term,
            "w_term": self.w_term,
            "total": self.total,
            "expected": self.expected,
            "rel_err": self.rel_err,
        }


def check_two3_decomposition(
    model: QuantizedModel, psi, budget: int = DEFAULT_BUDGET, tol: float = 1e-12
) -> Two3Decomposition:
    """Enumerate the order-region decomposition of (E|psi|)^2 over triples.

    Raises :class:`OracleMismatchError` if the four addends fail to
    reconstruct (E|psi|)^2 within `tol` relative.
    """
    x, p, f = _unpack(model, psi)
    m = len(x)
    _charge(4 * m**3, budget)
    u_term, v1_term, v2_term, w_term = _region_sums(x, p, f)
    e_abs = 0.0
    for i in range(m):
        e_abs += p[i] * abs(f[i])
    expected = e_abs * e_abs
    result = Two3Decomposition(
        u_term=u_term,
        v1_term=v1_term,
        v2_term=v2_term,
        w_term=w_term,
        expected=expected,
    )
    if result.rel_err > tol:
        raise OracleMismatchError(
            f"order-region addends sum to {result.total!r}, expected {expected!r}"
        )
    return result
