import ast
from pathlib import Path

import numpy as np
import pytest

from opial import (
    BudgetExceededError,
    check_two3_decomposition,
    enumerate_functional,
    make_discrete,
    make_uniform_interval,
    opial_terms,
    partition_masses,
    quantize,
    theorem2_terms,
    theorem3_terms,
    weighted_opial_terms,
    wirtinger_terms,
)
from opial import oracle
from opial.functionals import FUNCTIONAL_IDS

from conftest import random_atomic_model


def uniform_model(n):
    return quantize(make_discrete(range(1, n + 1), [1.0 / n] * n), 1)


def assert_terms_close(fast: dict, slow: dict, tol=1e-12):
    for key in set(fast) & set(slow):
        scale = max(1.0, abs(fast[key]), abs(slow[key]))
        assert abs(fast[key] - slow[key]) <= tol * scale, (key, fast[key], slow[key])


def hex_terms(terms: dict) -> dict:
    return {key: float(value).hex() for key, value in terms.items()}


# The first-order, weighted and corollary enumerations as they were written
# out separately, kept as references for the shared first-order one.


def _w_above_reference(xj: float, xi: float) -> float:
    if xj > xi:
        return 1.0
    if xj == xi:
        return 0.5
    return 0.0


def _opial_reference(x, p, f, w) -> dict[str, float]:
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


def _weighted_reference(x, p, f, g, w_dir, w_opp) -> dict[str, float]:
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


def _corollary_reference(x, p, f, c: float) -> dict[str, float]:
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
    for idx, weight_fn, side_mass in ((low, oracle._w_below, p_low), (up, _w_above_reference, p_up)):
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


class TestEnumerateFunctional:
    def test_thm1_example(self):
        q = uniform_model(3)
        psi = np.array([1.0, 2.0, 3.0])
        fast = opial_terms(q, psi).terms
        slow = enumerate_functional(q, psi, functional="thm1-lower")
        assert_terms_close(fast, slow)

    def test_thm2_27_triples(self):
        q = uniform_model(3)
        slow = enumerate_functional(q, np.ones(3), functional="thm2", n=2)
        assert slow["lhs"] == pytest.approx(1 / 27, rel=1e-14)

    def test_single_atom(self):
        q = uniform_model(1)
        psi = np.array([2.0])
        for functional, kwargs in (
            ("thm1-lower", {}),
            ("thm1-upper", {}),
            ("thm2", {"n": 2}),
            ("thm3", {}),
        ):
            slow = enumerate_functional(q, psi, functional=functional, **kwargs)
            if functional.startswith("thm1"):
                # the only pair is the tie: lhs = |psi * psi/2| * 1
                assert slow["lhs"] == pytest.approx(2.0)
            else:
                assert slow["lhs"] == 0.0

    def test_random_equivalence_battery(self, rng):
        for _ in range(60):
            q = random_atomic_model(rng, m_max=8)
            m = q.node_count
            psi = rng.standard_normal(m)
            chi = np.abs(rng.standard_normal(m))
            assert_terms_close(
                opial_terms(q, psi, "below").terms,
                enumerate_functional(q, psi, functional="thm1-lower"),
            )
            assert_terms_close(
                opial_terms(q, psi, "above").terms,
                enumerate_functional(q, psi, functional="thm1-upper"),
            )
            for n in (1, 2, 3):
                assert_terms_close(
                    theorem2_terms(q, psi, n).terms,
                    enumerate_functional(q, psi, functional="thm2", n=n),
                )
            assert_terms_close(
                theorem3_terms(q, psi).terms,
                enumerate_functional(q, psi, functional="thm3"),
            )
            for direction, fid in (("below", "weighted-lower"), ("above", "weighted-upper")):
                assert_terms_close(
                    weighted_opial_terms(q, psi, chi, direction).terms,
                    enumerate_functional(q, psi, chi=chi, functional=fid),
                )
            centered = psi - float(np.sum(q.mass * psi))
            assert_terms_close(
                wirtinger_terms(q, centered).terms,
                enumerate_functional(q, centered, functional="wirtinger"),
            )

    def test_corollary_equivalence(self, rng):
        from opial import Distribution, corollary_split

        for _ in range(40):
            q = random_atomic_model(rng, m_max=8, m_min=2)
            psi = rng.standard_normal(q.node_count)
            cut = int(rng.integers(1, q.node_count))
            c = float(q.support[cut - 1])
            dist = Distribution(atoms=tuple(zip(q.support, q.mass)))
            fast = corollary_split(dist, psi, c, m=1).terms
            slow = enumerate_functional(q, psi, functional="corollary", c=c)
            assert_terms_close(fast, slow)

    def test_first_order_enumerations_match_their_references(self):
        # thm1-* and weighted-* keep every bit of their former enumerations;
        # the corollary sums its two sides' terms, so only its rounding moves.
        rng = np.random.default_rng(20261019)
        below, above = oracle._w_below, _w_above_reference
        for _ in range(2000):
            q = random_atomic_model(rng, m_max=24)
            m = q.node_count
            psi = rng.standard_normal(m) * 10.0 ** rng.uniform(-5.0, 5.0)
            chi = rng.uniform(0.0, 3.0, m)
            x, p, f, g = q.support.tolist(), q.mass.tolist(), psi.tolist(), chi.tolist()
            references = {
                "thm1-lower": _opial_reference(x, p, f, below),
                "thm1-upper": _opial_reference(x, p, f, above),
                "weighted-lower": _weighted_reference(x, p, f, g, below, above),
                "weighted-upper": _weighted_reference(x, p, f, g, above, below),
            }
            for functional, want in references.items():
                got = enumerate_functional(q, psi, chi=chi, functional=functional)
                assert hex_terms(got) == hex_terms(want), functional
            if m > 1:
                c = float(q.support[rng.integers(0, m - 1)])
                want = _corollary_reference(x, p, f, c)
                got = enumerate_functional(q, psi, functional="corollary", c=c)
                assert set(got) == set(want)
                for key in want:
                    assert abs(got[key] - want[key]) <= 4e-15 * abs(want[key]), (key, got[key], want[key])

    def test_corollary_empty_side_rejected(self):
        q = uniform_model(3)
        for c in (3.0, 0.5, float("nan")):
            with pytest.raises(ValueError, match="empty side"):
                enumerate_functional(q, np.ones(3), functional="corollary", c=c)

    def test_budget_enforced(self):
        q = uniform_model(8)
        with pytest.raises(BudgetExceededError, match="budget"):
            enumerate_functional(q, np.ones(8), functional="thm2", n=3, budget=100)

    def test_missing_weight_rejected(self):
        q = uniform_model(3)
        with pytest.raises(ValueError, match="chi"):
            enumerate_functional(q, np.ones(3), functional="weighted-lower")

    def test_unknown_functional(self):
        q = uniform_model(3)
        with pytest.raises(ValueError, match="oracle"):
            enumerate_functional(q, np.ones(3), functional="o9-2")


class TestPartitionMasses:
    def test_two_point_uniform(self):
        parts = partition_masses(uniform_model(2))
        assert parts.u == 0.0
        assert parts.w == pytest.approx(0.25, abs=1e-15)
        assert parts.v1 + parts.v2 == pytest.approx(0.75, abs=1e-15)
        assert parts.v1 == pytest.approx(0.375, abs=1e-15)

    def test_three_point_uniform(self):
        parts = partition_masses(uniform_model(3))
        assert parts.u == pytest.approx(2 / 9, rel=1e-14)

    def test_total_is_one(self, rng):
        for _ in range(50):
            q = random_atomic_model(rng, m_max=10)
            parts = partition_masses(q)
            assert abs(parts.total - 1.0) <= 1e-12

    def test_quantized_continuous_tie_mass_bound(self):
        m = 200
        q = quantize(make_uniform_interval(0, 1), m)
        parts = partition_masses(q, budget=10**8)
        assert parts.v1 + parts.v2 + parts.w <= 3.0 / m + 1.0 / m**2

    def test_ties_vanish_under_refinement(self):
        previous = None
        for m in (10, 40, 160):
            q = quantize(make_uniform_interval(0, 1), m)
            parts = partition_masses(q, budget=10**8)
            tie_mass = parts.v1 + parts.v2 + parts.w
            if previous is not None:
                assert tie_mass < previous
            previous = tie_mass


class TestTwo3Decomposition:
    def test_constant_total_is_one(self):
        q = uniform_model(4)
        rec = check_two3_decomposition(q, np.ones(4))
        assert rec.total == pytest.approx(1.0, abs=1e-14)

    def test_two_point_w_term(self):
        rec = check_two3_decomposition(uniform_model(2), np.ones(2))
        assert rec.w_term == pytest.approx(0.25, abs=1e-15)

    def test_u_term_matches_nested_integral(self, rng):
        # for constant |psi| the all-distinct region collapses by
        # exchangeability to 6x the strictly ordered integral, which is
        # 3! x the second-order lhs; non-constant |psi| breaks the collapse
        for _ in range(30):
            q = random_atomic_model(rng, m_max=9)
            scale = float(rng.uniform(0.5, 2.0))
            psi = scale * rng.choice([-1.0, 1.0], q.node_count)
            rec = check_two3_decomposition(q, psi)
            lhs = theorem2_terms(q, np.abs(psi), 2).terms["lhs"]
            assert rec.u_term == pytest.approx(6.0 * lhs, rel=1e-11, abs=1e-14)

    def test_reconstructs_mean_square(self, rng):
        for _ in range(100):
            q = random_atomic_model(rng, m_max=10)
            psi = rng.standard_normal(q.node_count)
            rec = check_two3_decomposition(q, psi)
            assert rec.rel_err <= 1e-12


class TestBoundary:
    """The oracle shares no arithmetic with the fast path it checks."""

    SOURCE = Path(oracle.__file__)

    def tree(self):
        return ast.parse(self.SOURCE.read_text(encoding="utf-8"))

    def test_imports_nothing_from_the_fast_path(self):
        imported = set()
        for node in ast.walk(self.tree()):
            if isinstance(node, ast.ImportFrom):
                imported.add((node.module or "").split(".")[-1])
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[-1] for alias in node.names)
        assert imported.isdisjoint({"functionals", "accumulate", "sharpness"}), imported

    def test_oracles_cover_the_oracle_backed_ids(self):
        # The oracle's table is the one list of enumerated ids: the eight
        # law functionals, in the order of the stable ids.
        assert set(oracle.ORACLE_IDS) == {
            "thm1-lower", "thm1-upper", "weighted-lower", "weighted-upper",
            "thm2", "thm3", "wirtinger", "corollary",
        }
        assert oracle.ORACLE_IDS == tuple(k for k in FUNCTIONAL_IDS if k in oracle.ORACLE_IDS)
