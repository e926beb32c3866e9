"""Reference values computed apart from opial, for the correctness checks.

Nothing here calls into opial.  Quantized nodes are rebuilt from the piece
midpoints, prefix sums are plain `np.cumsum`, reductions are `math.fsum`,
the discrete identities are literal double sums over explicit index
matrices, and best Wirtinger constants come from a dense `eigvalsh`.
"""
from __future__ import annotations

import math

import numpy as np

#: Unit roundoff of float64.
U = 2.0**-53

#: Largest node count for which a dense eigenproblem is solved.
DENSE_MAX = 1200


def fsum(values) -> float:
    return math.fsum(np.asarray(values, dtype=float).ravel().tolist())


def below(values: np.ndarray) -> np.ndarray:
    """out[i] = values[0] + ... + values[i-1], by a plain cumsum."""
    out = np.zeros_like(values)
    np.cumsum(values[:-1], out=out[1:])
    return out


def above(values: np.ndarray) -> np.ndarray:
    """out[i] = values[i+1] + ... + values[-1], by a plain cumsum."""
    return below(values[::-1])[::-1]


def rounding_tol(nodes: int, passes: int, scale: float) -> float:
    """Absolute tolerance for a term built from `passes` nested plain cumsums.

    A plain cumsum of n terms errs by at most (n - 1) u times the sum of the
    magnitudes; `scale` bounds that sum for every term of an evaluation.
    """
    return 4.0 * (passes * nodes + 2) * U * scale


# ---------------------------------------------------------------------------
# quantized models and node functions
# ---------------------------------------------------------------------------


def nodes(spec: dict, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Support and masses of `spec` with each piece split into m midpoints."""
    locs = [np.array([x for x, _ in spec.get("atoms", [])], dtype=float)]
    masses = [np.array([p for _, p in spec.get("atoms", [])], dtype=float)]
    k = np.arange(1, m + 1, dtype=float)
    for pc in spec.get("pieces", []):
        lo, hi, w = pc["lo"], pc["hi"], pc["mass"]
        locs.append(lo + (hi - lo) * (k - 0.5) / m)
        masses.append(np.full(m, w / m))
    x = np.concatenate(locs)
    p = np.concatenate(masses)
    order = np.argsort(x, kind="stable")
    return x[order], p[order]


def conditional(spec: dict, c: float, side: str) -> dict:
    """Conditional law of X given X <= c (lower) or X > c (upper).

    Only splits at a point outside every piece are needed here.
    """
    keep = (lambda x: x <= c) if side == "lower" else (lambda x: x > c)
    atoms = [[x, p] for x, p in spec.get("atoms", []) if keep(x)]
    pieces = [pc for pc in spec.get("pieces", []) if keep(pc["lo"]) and keep(pc["hi"])]
    total = math.fsum([p for _, p in atoms] + [pc["mass"] for pc in pieces])
    return {
        "atoms": [[x, p / total] for x, p in atoms],
        "pieces": [{"lo": pc["lo"], "hi": pc["hi"], "mass": pc["mass"] / total} for pc in pieces],
    }


def node_function(spec, x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Values of a named node-function spec at the nodes."""
    kind = spec if isinstance(spec, str) else spec["kind"]
    if kind == "constant":
        level = 1.0 if isinstance(spec, str) else spec.get("level", 1.0)
        return np.full(x.size, float(level))
    if kind == "identity":
        return x.copy()
    if kind == "cos_pi_F":
        return np.cos(math.pi * (below(p) + 0.5 * p))
    if kind == "step":
        return np.where(x <= spec["threshold"], float(spec["low"]), float(spec["high"]))
    raise ValueError(f"no reference for node function {spec!r}")


# ---------------------------------------------------------------------------
# functionals, from the definitions in the opial docstrings
# ---------------------------------------------------------------------------


def _half_tie(p, f, direction):
    pf = p * f
    return (below(pf) if direction == "below" else above(pf)) + 0.5 * pf


def first_order(p, f, direction) -> dict:
    t = _half_tie(p, f, direction)
    t_abs = _half_tie(p, np.abs(f), direction)
    return {
        "lhs": fsum(p * np.abs(t * f)),
        "middle": fsum(p * np.abs(f) * t_abs),
        "rhs": 0.5 * fsum(p * f * f),
    }


def nth_order(p, f, n) -> dict:
    cur = f
    for _ in range(n):
        cur = below(p * cur)
    return {"lhs": fsum(p * np.abs(cur * f)), "rhs": fsum(p * f * f) / math.factorial(n + 1)}


def second_order(p, f) -> dict:
    """Left side by the pair form sum_{k<i} 6 p_i p_k (Fbar_i - Fbar_k) a_i a_k."""
    a = np.abs(f)
    c = below(p)
    d = above(p)
    fbar = c + 0.5 * p
    pair = fbar * below(p * a) - below(p * a * fbar)
    kernel = c * c + d * d + p * (c + d)
    return {"lhs": 6.0 * fsum(p * a * pair), "rhs": 1.5 * fsum(p * f * f * kernel)}


def weighted(p, f, g, direction) -> dict:
    t = _half_tie(p, f, direction)
    t_abs = _half_tie(p, np.abs(f), direction)
    near = below(p) if direction == "below" else above(p)
    far = _half_tie(p, g, "above" if direction == "below" else "below")
    return {
        "lhs": fsum(p * np.abs(t * f) * g),
        "middle": fsum(p * np.abs(f) * g * t_abs),
        "rhs": 0.5 * fsum(p * f * f * (g * (near + 0.5 * p) + far)),
        "monotone_bound": 0.5 * fsum(p * f * f * g),
    }


def wirtinger(p, f) -> dict:
    """Wirtinger terms of the mean-removed node function."""
    f = f - fsum(p * f)
    low = below(p * f)
    return {"lhs": fsum(p * low * low), "rhs": fsum(p * f * f) / math.pi**2}


# ---------------------------------------------------------------------------
# discrete sequence forms, by literal double sums
# ---------------------------------------------------------------------------


def discrete(a: np.ndarray, which: str) -> dict:
    n = a.size
    strict = np.tril(np.ones((n, n)), -1)  # strict[i, j] = 1 for j < i
    incl = strict + np.eye(n)
    sum_sq = fsum(a * a)
    if which == "o9-1":
        return {"lhs": fsum(np.abs(a * (incl @ a))), "rhs": 0.5 * (n + 1) * sum_sq}
    if which == "o9-2":
        return {"lhs": fsum(incl * np.outer(np.abs(a), np.abs(a))), "rhs": 0.5 * (n + 1) * sum_sq}
    if which == "o15":
        return {"lhs": fsum(np.abs(a * (strict @ a + 0.5 * a))), "rhs": 0.25 * n * sum_sq}
    if which == "o18":
        return {"lhs": fsum(np.abs(a * (strict @ a))), "rhs": 0.5 * ((n + 1) // 2) * sum_sq}
    if which == "rtwo":
        i = np.arange(1, n + 1, dtype=float)
        gap = np.maximum(i[:, None] - i[None, :], 0.0)  # (i - j) for j <= i
        weights = (i - 1) ** 2 + (n - i) ** 2 + n - 1
        return {"lhs": 6.0 * fsum(gap * np.outer(a, a)), "rhs": 1.5 * fsum(weights * a * a)}
    raise ValueError(f"no literal form for {which!r}")


# ---------------------------------------------------------------------------
# sharp constants
# ---------------------------------------------------------------------------


def wirtinger_constant_dense(p: np.ndarray) -> float:
    """Largest E(sum_{x_j<X} p_j psi_j)^2 / E psi^2 over zero-mean psi.

    In phi = sqrt(p) psi the numerator is |B phi|^2 with
    B[i, j] = sqrt(p_i p_j) for j < i, and zero mean is phi orthogonal to
    s = sqrt(p), a unit vector.  The constant is the top eigenvalue of
    (B P)^T (B P) with P the projector off s.
    """
    if p.size > DENSE_MAX:
        raise ValueError(f"{p.size} nodes exceed the dense limit {DENSE_MAX}")
    s = np.sqrt(p)
    b = np.tril(np.outer(s, s), -1)
    bp = b - np.outer(b @ s, s)
    return float(np.linalg.eigvalsh(bp.T @ bp)[-1])


def wirtinger_constant_asymptotic(m: int) -> tuple[float, float]:
    """1/pi^2 + 1/(12 m^2) for m equal masses, with an O(m^-4) allowance.

    The next term of the expansion is pi^2 / (240 m^4) < 0.05 / m^4.
    """
    return 1.0 / math.pi**2 + 1.0 / (12.0 * m * m), 0.05 / float(m) ** 4


def equal_mass_product(m: int, n: int) -> float:
    """prod_{k<=n} (1 - k/m): (n+1)! times the n-th order left side at psi = 1."""
    return math.prod(1.0 - k / m for k in range(1, n + 1))
