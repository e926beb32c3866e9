import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opial import (
    Distribution,
    NodeFunction,
    QuantizedModel,
    ZeroMeanError,
    corollary_split,
    discrete_identities,
    half_tie_transform,
    make_discrete,
    make_uniform_interval,
    nested_integral,
    opial_terms,
    quantize,
    rtwo_terms,
    theorem2_terms,
    theorem3_terms,
    troy_comparison,
    weighted_opial_terms,
    wirtinger_terms,
)
from opial import functionals as fn
from opial.accumulate import comp_sum

from conftest import random_atomic_model


def uniform_model(n):
    return quantize(make_discrete(range(1, n + 1), [1.0 / n] * n), 1)


def rel_close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# half-tie transform
# ---------------------------------------------------------------------------


class TestHalfTieTransform:
    def test_two_point_constant(self):
        q = uniform_model(2)
        t = half_tie_transform(q, np.ones(2), "below")
        assert np.allclose(t, [0.25, 0.75], atol=1e-15)

    def test_three_point_ramp(self):
        q = uniform_model(3)
        t = half_tie_transform(q, np.array([1.0, 2.0, 3.0]), "below")
        assert np.allclose(t, [1 / 6, 4 / 6, 1.5], atol=1e-15)

    def test_below_plus_above_is_mean(self, rng):
        # T- + T+ = E psi at every node (ties get 1/2 + 1/2 = full weight)
        for _ in range(50):
            q = random_atomic_model(rng, m_max=30)
            psi = rng.standard_normal(q.node_count)
            below = half_tie_transform(q, psi, "below")
            above = half_tie_transform(q, psi, "above")
            mean = comp_sum(q.mass * psi)
            assert np.allclose(below + above, mean, atol=1e-13)

    def test_constant_sums_to_one(self, rng):
        q = random_atomic_model(rng, m_max=40)
        psi = np.ones(q.node_count)
        below = half_tie_transform(q, psi, "below")
        above = half_tie_transform(q, psi, "above")
        assert np.allclose(below + above, 1.0, atol=1e-14)

    def test_bad_direction(self):
        with pytest.raises(ValueError, match="direction"):
            half_tie_transform(uniform_model(2), np.ones(2), "sideways")


# ---------------------------------------------------------------------------
# first-order inequality
# ---------------------------------------------------------------------------


class TestOpialTerms:
    def test_constant_is_tight(self):
        for n in (1, 2, 5, 17):
            rep = opial_terms(uniform_model(n), np.ones(n))
            assert rep.terms["lhs"] == pytest.approx(0.5, abs=1e-14)
            assert rep.terms["middle"] == pytest.approx(0.5, abs=1e-14)
            assert rep.terms["rhs"] == pytest.approx(0.5, abs=1e-14)
            assert rep.equality

    def test_ramp_ratio(self):
        rep = opial_terms(uniform_model(3), np.array([1.0, 2.0, 3.0]))
        assert rep.ratio == pytest.approx(6 / 7, rel=1e-14)

    def test_ordering_chain_random(self, rng):
        for _ in range(1000):
            q = random_atomic_model(rng, m_max=50)
            psi = rng.standard_normal(q.node_count)
            for direction in ("below", "above"):
                rep = opial_terms(q, psi, direction)
                lhs, mid, rhs = rep.terms["lhs"], rep.terms["middle"], rep.terms["rhs"]
                scale = max(1.0, abs(rhs))
                assert mid - lhs >= -1e-10 * scale
                assert rhs - mid >= -1e-10 * scale

    def test_direction_symmetry_of_middle(self, rng):
        for _ in range(200):
            q = random_atomic_model(rng, m_max=40)
            psi = rng.standard_normal(q.node_count)
            below = opial_terms(q, psi, "below").terms["middle"]
            above = opial_terms(q, psi, "above").terms["middle"]
            assert rel_close(below, above, 1e-12)

    def test_constant_lhs_split_sums_to_one(self, rng):
        for _ in range(100):
            q = random_atomic_model(rng, m_max=30)
            psi = np.ones(q.node_count)
            total = (
                opial_terms(q, psi, "below").terms["lhs"]
                + opial_terms(q, psi, "above").terms["lhs"]
            )
            assert abs(total - 1.0) <= 1e-14

    def test_perturbed_constant_loses_equality(self):
        q = quantize(make_discrete([0, 1], [0.5, 0.5]), 1)
        rep = opial_terms(q, np.array([1.0, 1.0 + 1e-3]))
        assert rep.slack > 0.0
        assert not math.isclose(rep.ratio, 1.0, rel_tol=0, abs_tol=1e-9)

    def test_o9_2_from_middle_term(self, rng):
        # N^2 * middle = sum_i sum_{j<i} |a_i a_j| + sum a_i^2 / 2
        for _ in range(20):
            n = int(rng.integers(1, 12))
            a = rng.standard_normal(n)
            q = uniform_model(n)
            middle = opial_terms(q, a).terms["middle"]
            double = sum(
                abs(a[i] * a[j]) for i in range(n) for j in range(i)
            )
            assert rel_close(n * n * middle, double + 0.5 * np.sum(a * a), 1e-12)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        min_size=1,
        max_size=20,
    ),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_middle_term_closed_form(values, seed):
    # middle = (E|psi|)^2 / 2: the Cauchy-Schwarz pivot of the proof chain
    rng = np.random.default_rng(seed)
    m = len(values)
    mass = rng.dirichlet(np.ones(m))
    mass = np.maximum(mass, 1e-9)
    mass /= mass.sum()
    q_model = quantize(
        make_discrete(np.arange(m, dtype=float), mass), 1
    )
    psi = np.asarray(values)
    middle = opial_terms(q_model, psi).terms["middle"]
    closed = 0.5 * comp_sum(q_model.mass * np.abs(psi)) ** 2
    assert rel_close(middle, closed, 1e-12)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=-1000, max_value=1000, allow_nan=False).filter(
        lambda c: abs(c) > 1e-6
    )
)
def test_ratio_scale_invariance(c):
    q = uniform_model(7)
    psi = np.array([1.0, -2.0, 3.0, 0.5, -0.25, 4.0, 2.5])
    base = opial_terms(q, psi).ratio
    scaled = opial_terms(q, c * psi).ratio
    assert rel_close(base, scaled, 1e-12)


class TestRatioHomogeneity:
    def test_all_report_ratios_invariant_under_scaling(self, rng):
        for _ in range(20):
            q = random_atomic_model(rng, m_max=20, m_min=2)
            psi = rng.standard_normal(q.node_count)
            chi = np.abs(rng.standard_normal(q.node_count))
            c = float(rng.uniform(0.1, 50.0)) * float(rng.choice([-1.0, 1.0]))
            centered = psi - float(np.sum(q.mass * psi))
            reports = [
                (opial_terms(q, psi), opial_terms(q, c * psi)),
                (theorem2_terms(q, psi, 2), theorem2_terms(q, c * psi, 2)),
                (theorem3_terms(q, psi), theorem3_terms(q, c * psi)),
                (
                    weighted_opial_terms(q, psi, chi, "above"),
                    weighted_opial_terms(q, c * psi, chi, "above"),
                ),
                (wirtinger_terms(q, centered), wirtinger_terms(q, c * centered)),
            ]
            for base, scaled in reports:
                assert rel_close(base.ratio, scaled.ratio, 1e-12)


class TestAffineInvariance:
    def test_reports_unchanged_under_affine_support_maps(self, rng):
        for _ in range(25):
            q = random_atomic_model(rng, m_max=25, m_min=2)
            psi = rng.standard_normal(q.node_count)
            alpha = float(rng.uniform(0.1, 5.0))
            beta = float(rng.uniform(-10.0, 10.0))
            from opial import QuantizedModel

            mapped = QuantizedModel(
                support=alpha * q.support + beta,
                mass=q.mass,
                is_exact=q.is_exact,
                source_m=q.source_m,
            )
            pairs = [
                (opial_terms(q, psi), opial_terms(mapped, psi)),
                (theorem2_terms(q, psi, 2), theorem2_terms(mapped, psi, 2)),
                (theorem3_terms(q, psi), theorem3_terms(mapped, psi)),
            ]
            chi = rng.uniform(0, 2, q.node_count)
            pairs.append(
                (
                    weighted_opial_terms(q, psi, chi),
                    weighted_opial_terms(mapped, psi, chi),
                )
            )
            for a, b in pairs:
                for key in a.terms:
                    assert rel_close(a.terms[key], b.terms[key], 1e-12)


# ---------------------------------------------------------------------------
# two-sided split
# ---------------------------------------------------------------------------


class TestCorollarySplit:
    def test_uniform_constant_equality(self):
        d = make_uniform_interval(0, 1)
        rep = corollary_split(d, NodeFunction.constant(), 0.5, m=64)
        assert rep.terms["lhs"] == pytest.approx(1.0, abs=1e-13)
        assert rep.terms["rhs"] == pytest.approx(1.0, abs=1e-13)
        assert rep.equality

    def test_step_equality_with_different_constants(self):
        d = make_uniform_interval(0, 1)
        rep = corollary_split(d, NodeFunction.step(0.5, 1.0, -1.0), 0.5, m=64)
        assert rep.equality
        assert rep.terms["lhs"] == pytest.approx(rep.terms["rhs"], abs=1e-13)

    def test_matches_literal_split_formula(self, rng):
        # uniform on {1..N} split at K: both sides in closed form
        for _ in range(20):
            big_k = int(rng.integers(1, 8))
            n = big_k + int(rng.integers(1, 8))
            a = rng.standard_normal(n)
            d = make_discrete(range(1, n + 1), [1.0 / n] * n)
            rep = corollary_split(d, NodeFunction.of_values(a), float(big_k), m=1)
            lhs = sum(
                abs(a[i] * (a[: i + 1].sum() - 0.5 * a[i])) for i in range(big_k)
            ) / big_k**2
            lhs += sum(
                abs(a[i] * (a[i + 1 :].sum() + 0.5 * a[i]))
                for i in range(big_k, n)
            ) / (n - big_k) ** 2
            rhs = np.sum(a[:big_k] ** 2) / (2 * big_k) + np.sum(
                a[big_k:] ** 2
            ) / (2 * (n - big_k))
            assert rel_close(rep.terms["lhs"], lhs, 1e-12)
            assert rel_close(rep.terms["rhs"], rhs, 1e-12)

    def test_step_vector_is_tight_on_even_support(self):
        # a = (1,..,1,-1,..,-1) on {1..2K} split at K attains the bound
        for big_k in (1, 3, 8):
            n = 2 * big_k
            a = np.concatenate([np.ones(big_k), -np.ones(big_k)])
            d = make_discrete(range(1, n + 1), [1.0 / n] * n)
            rep = corollary_split(d, NodeFunction.of_values(a), float(big_k), m=1)
            assert rep.equality

    def test_values_split_requires_atomic(self):
        d = make_uniform_interval(0, 1)
        with pytest.raises(ValueError, match="value vectors"):
            corollary_split(d, NodeFunction.of_values([1.0] * 8), 0.5, m=8)

    def test_continuous_median_identity_closed_form(self):
        # uniform (0,1) split at the median with psi(x) = x: under refinement
        # lhs = middle -> 1/32 + 9/32 = 0.3125 and rhs -> 1/3
        # (conditional densities are 2 on each half; lower T-(x) = x^2,
        # upper T+(x) = 1 - x^2, both integrable in closed form)
        d = make_uniform_interval(0, 1)
        m = 4096
        rep = corollary_split(d, NodeFunction.identity(), 0.5, m=m)
        assert rep.terms["lhs"] == pytest.approx(0.3125, abs=2.0 / m)
        assert rep.terms["middle"] == pytest.approx(0.3125, abs=2.0 / m)
        assert rep.terms["rhs"] == pytest.approx(1 / 3, abs=2.0 / m)
        assert rep.extras["p_lower"] == pytest.approx(0.5, abs=1e-14)

    def test_degenerate_split_rejected(self):
        d = make_discrete([1, 2, 3], [1 / 3] * 3)
        with pytest.raises(Exception, match="probability"):
            corollary_split(d, NodeFunction.constant(), 0.5)


# ---------------------------------------------------------------------------
# n-th order
# ---------------------------------------------------------------------------


class TestNestedIntegral:
    def test_first_order_is_strict_prefix(self, rng):
        q = random_atomic_model(rng, m_max=20)
        psi = rng.standard_normal(q.node_count)
        i1 = nested_integral(q, psi, 1)
        strict = half_tie_transform(q, psi, "below") - 0.5 * q.mass * psi
        assert np.allclose(i1, strict, atol=1e-14)

    def test_uniform3_order2(self):
        i2 = nested_integral(uniform_model(3), np.ones(3), 2)
        assert np.allclose(i2, [0.0, 0.0, 1 / 9], atol=1e-15)

    def test_single_atom_vanishes(self):
        q = uniform_model(1)
        for n in (1, 2, 3):
            assert nested_integral(q, np.array([4.0]), n).tolist() == [0.0]

    def test_order_validated(self):
        q = uniform_model(3)
        with pytest.raises(ValueError):
            nested_integral(q, np.ones(3), 0)
        with pytest.raises(ValueError, match="cap"):
            nested_integral(q, np.ones(3), 7)


class TestTheorem2:
    def test_uniform3_strict(self):
        rep = theorem2_terms(uniform_model(3), np.ones(3), 2)
        assert rep.terms["lhs"] == pytest.approx(1 / 27, rel=1e-14)
        assert rep.terms["rhs"] == pytest.approx(1 / 6, rel=1e-14)
        assert rep.slack > 0 and not rep.equality

    def test_zero_function(self):
        rep = theorem2_terms(uniform_model(4), np.zeros(4), 2)
        assert rep.terms["lhs"] == 0.0 and rep.terms["rhs"] == 0.0
        assert rep.ratio == 0.0 and rep.equality

    def test_refined_continuous_value_closed_form(self):
        # equal-mass quantization gives lhs (n+1)! = prod_k (1 - k/m) exactly
        d = make_uniform_interval(0, 1)
        for m in (16, 64):
            q = quantize(d, m)
            for n in (1, 2, 3):
                rep = theorem2_terms(q, np.ones(m), n)
                value = rep.terms["lhs"] * math.factorial(n + 1)
                expected = math.prod(1.0 - k / m for k in range(1, n + 1))
                assert rel_close(value, expected, 1e-13)

    def test_atoms_force_strict_inequality(self):
        for m in range(1, 21):
            q = uniform_model(m)
            for n in (1, 2, 3):
                rep = theorem2_terms(q, np.ones(m), n)
                assert rep.slack > 0.0


# ---------------------------------------------------------------------------
# second order with atom corrections
# ---------------------------------------------------------------------------


class TestTheorem3:
    def test_two_point_equality(self):
        rep = theorem3_terms(uniform_model(2), np.ones(2))
        assert rep.terms["lhs"] == pytest.approx(0.75, abs=1e-15)
        assert rep.terms["rhs"] == pytest.approx(0.75, abs=1e-15)
        assert rep.equality

    def test_single_atom_zero(self):
        rep = theorem3_terms(uniform_model(1), np.array([3.0]))
        assert rep.terms["lhs"] == 0.0 and rep.terms["rhs"] == 0.0

    def test_constant_always_tight(self, rng):
        for _ in range(100):
            q = random_atomic_model(rng, m_max=30)
            rep = theorem3_terms(q, np.ones(q.node_count))
            assert rel_close(rep.terms["lhs"], rep.terms["rhs"], 1e-12)
            assert rep.equality

    def test_matches_integer_support_double_sum(self, rng):
        # the integer-support form is the N-atom functional rescaled by N^3
        for _ in range(30):
            n = int(rng.integers(1, 31))
            a = np.abs(rng.standard_normal(n))
            rep = theorem3_terms(uniform_model(n), a)
            rtwo = rtwo_terms(a)
            assert rel_close(n**3 * rep.terms["lhs"], rtwo.terms["lhs"], 1e-12)
            assert rel_close(n**3 * rep.terms["rhs"], rtwo.terms["rhs"], 1e-12)

    def test_rtwo_constant_equality(self):
        for n in (1, 2, 7, 30):
            rep = rtwo_terms(np.ones(n))
            assert rep.equality

    def test_rtwo_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            rtwo_terms(np.array([1.0, -1.0]))

    def test_three_atom_instance_holds(self):
        # |psi| = (1, 3/4, 1) on three equal atoms falsified E psi^2 (1 - p^2)
        a = np.array([1.0, 0.75, 1.0])
        rep = theorem3_terms(uniform_model(3), a)
        assert rep.terms["lhs"] == pytest.approx(7 / 9, rel=1e-14)
        assert rep.terms["rhs"] == pytest.approx(19 / 24, rel=1e-14)
        assert rep.slack > 0 and not rep.equality
        rtwo = rtwo_terms(a)
        assert rtwo.terms["lhs"] == pytest.approx(21.0, rel=1e-14)
        assert rtwo.terms["rhs"] == pytest.approx(171 / 8, rel=1e-14)
        assert rtwo.slack > 0

    def test_two_atom_search_instance_holds(self):
        # p1 p2 = 0.215 < 1/4: the counterexample search's first thm3 hit
        # under E psi^2 (1 - p^2)
        q = QuantizedModel(
            support=np.array([1.7275434320138103, 1.896537615723366]),
            mass=np.array([0.6868300366944551, 0.31316996330554503]),
            is_exact=True,
            source_m=1,
        )
        rep = theorem3_terms(q, np.array([-0.9558658353300341, -1.1532070319758827]))
        assert rep.slack > 1e-3

    def test_two_atom_rhs_closed_form(self, rng):
        # C = 0, D = p2 at the first atom and C = p1, D = 0 at the second
        for _ in range(50):
            q = random_atomic_model(rng, m_max=2, m_min=2)
            psi = rng.standard_normal(2)
            rep = theorem3_terms(q, psi)
            p1, p2 = q.mass
            expected = 1.5 * p1 * p2 * (psi[0] ** 2 + psi[1] ** 2)
            assert rel_close(rep.terms["rhs"], expected, 1e-14)
            assert rep.slack >= -1e-15


# ---------------------------------------------------------------------------
# weighted
# ---------------------------------------------------------------------------


class TestWeighted:
    def test_unit_weight_reduces_to_first_order(self, rng):
        for _ in range(100):
            q = random_atomic_model(rng, m_max=40)
            psi = rng.standard_normal(q.node_count)
            chi = np.ones(q.node_count)
            for direction in ("below", "above"):
                plain = opial_terms(q, psi, direction)
                weighted = weighted_opial_terms(q, psi, chi, direction)
                for key in ("lhs", "middle", "rhs"):
                    assert abs(weighted.terms[key] - plain.terms[key]) <= 1e-15 * max(
                        1.0, abs(plain.terms[key])
                    )

    def test_constant_psi_equality_any_weight(self, rng):
        for _ in range(100):
            q = random_atomic_model(rng, m_max=30)
            chi = rng.uniform(0.0, 5.0, q.node_count)
            for direction in ("below", "above"):
                rep = weighted_opial_terms(q, np.ones(q.node_count), chi, direction)
                assert rel_close(rep.terms["lhs"], rep.terms["rhs"], 1e-12)
                assert rep.equality

    def test_ordering_chain(self, rng):
        for _ in range(300):
            q = random_atomic_model(rng, m_max=40)
            psi = rng.standard_normal(q.node_count)
            chi = np.abs(rng.standard_normal(q.node_count))
            for direction in ("below", "above"):
                rep = weighted_opial_terms(q, psi, chi, direction)
                scale = max(1.0, abs(rep.terms["rhs"]))
                assert rep.terms["middle"] - rep.terms["lhs"] >= -1e-10 * scale
                assert rep.terms["rhs"] - rep.terms["middle"] >= -1e-10 * scale

    def test_monotone_bound_flag(self, rng):
        q = random_atomic_model(rng, m_max=20, m_min=3)
        m = q.node_count
        decreasing = np.linspace(2.0, 1.0, m)
        increasing = decreasing[::-1].copy()
        psi = rng.standard_normal(m)
        rep = weighted_opial_terms(q, psi, decreasing, "below")
        assert rep.extras["monotone_applicable"]
        assert rep.terms["rhs"] <= rep.terms["monotone_bound"] + 1e-12
        rep = weighted_opial_terms(q, psi, increasing, "below")
        assert not rep.extras["monotone_applicable"]
        rep = weighted_opial_terms(q, psi, increasing, "above")
        assert rep.extras["monotone_applicable"]
        assert rep.terms["rhs"] <= rep.terms["monotone_bound"] + 1e-12

    def test_negative_weight_rejected(self):
        q = uniform_model(3)
        with pytest.raises(ValueError, match="nonnegative"):
            weighted_opial_terms(q, np.ones(3), np.array([1.0, -0.1, 1.0]))

    def test_continuous_weight_upper_bound_display(self):
        # uniform (0, h): rhs -> E psi^2 {chi(x) x + int_x^h chi} / (2h)
        # under refinement, the distribution form of the weighted bound
        h = 2.0
        m = 2048
        q = quantize(make_uniform_interval(0.0, h), m)
        psi = q.support.copy()  # identity
        chi = q.support**2
        rep = weighted_opial_terms(q, psi, chi, "below")
        x = q.support
        exact_rhs = 0.5 * np.sum(
            q.mass * psi**2 * (chi * x + (h**3 - x**3) / 3.0) / h
        )
        assert rel_close(rep.terms["rhs"], exact_rhs, 5.0 / m)
        assert rep.terms["lhs"] <= rep.terms["rhs"]


class TestTroy:
    def test_identity_weight_zero_exponent(self):
        rec = troy_comparison(0.0, NodeFunction.identity(), m=4096)
        assert rec.our_lhs == pytest.approx(1 / 8, abs=2e-4)
        assert rec.troy_rhs == pytest.approx(1 / 6, abs=2e-4)
        assert rec.our_lhs < rec.troy_rhs

    def test_identity_weight_exponent_one(self):
        rec = troy_comparison(1.0, NodeFunction.identity(), m=4096)
        assert rec.our_lhs == pytest.approx(0.1, abs=2e-4)
        assert rec.troy_rhs == pytest.approx(1 / (6 * math.sqrt(2)), abs=2e-4)

    def test_constant_attains_our_bound(self):
        for p_exp in (0.0, 1.0, 3.0):
            rec = troy_comparison(p_exp, NodeFunction.constant(), m=512)
            assert rel_close(rec.our_lhs, rec.our_rhs, 1e-12)

    def test_exponent_validated(self):
        with pytest.raises(ValueError, match="-1"):
            troy_comparison(-1.0, NodeFunction.identity(), m=16)


# ---------------------------------------------------------------------------
# Wirtinger-type
# ---------------------------------------------------------------------------


class TestWirtinger:
    def test_cos_extremal_ratio_near_one(self):
        q = quantize(make_uniform_interval(0, 1), 2000)
        rep = wirtinger_terms(q, NodeFunction.cos_pi_cdf())
        assert abs(rep.ratio - 1.0) <= 1e-3

    def test_zero_function(self):
        q = uniform_model(3)
        rep = wirtinger_terms(q, np.zeros(3))
        assert rep.terms["lhs"] == 0.0 and rep.terms["rhs"] == 0.0

    def test_zero_mean_enforced(self):
        q = uniform_model(3)
        with pytest.raises(ZeroMeanError):
            wirtinger_terms(q, np.array([1.0, 2.0, 3.0]))

    def test_projection_flag(self):
        q = uniform_model(3)
        rep = wirtinger_terms(q, np.array([1.0, 2.0, 3.0]), project=True)
        projected = np.array([-1.0, 0.0, 1.0])
        expected = wirtinger_terms(q, projected)
        assert rel_close(rep.terms["lhs"], expected.terms["lhs"], 1e-13)
        assert rel_close(rep.terms["rhs"], expected.terms["rhs"], 1e-13)

    def test_atomic_inputs_flagged_heuristic(self):
        q = uniform_model(4)
        rep = wirtinger_terms(q, np.array([1.0, 1.0, -1.0, -1.0]))
        assert rep.extras["heuristic"]
        q2 = quantize(make_uniform_interval(0, 1), 64)
        rep2 = wirtinger_terms(q2, NodeFunction.cos_pi_cdf())
        assert not rep2.extras["heuristic"]

    def test_interval_scale_free(self):
        # the distribution form carries no units: (0, h) matches (0, 1);
        # converting to plain integrals multiplies both sides by h^3, which
        # is where the classical h^2/pi^2 constant comes from
        m = 256
        base = wirtinger_terms(
            quantize(make_uniform_interval(0, 1), m), NodeFunction.cos_pi_cdf()
        )
        for h in (2.0, 5.0):
            rep = wirtinger_terms(
                quantize(make_uniform_interval(0, h), m), NodeFunction.cos_pi_cdf()
            )
            assert rel_close(rep.terms["lhs"], base.terms["lhs"], 1e-14)
            assert rel_close(rep.terms["rhs"], base.terms["rhs"], 1e-14)


# ---------------------------------------------------------------------------
# discrete identities
# ---------------------------------------------------------------------------


class TestDiscreteIdentities:
    def test_o9_2_example(self):
        rep = discrete_identities(np.array([1.0, 2.0, 3.0]), "o9-2")
        assert rep.terms["lhs"] == pytest.approx(25.0, abs=1e-12)
        assert rep.terms["rhs"] == pytest.approx(28.0, abs=1e-12)

    def test_o9_1_example(self):
        # Signs cancel in the running sums: 1 + 2 + 6, where o9-2 gives 25.
        rep = discrete_identities(np.array([1.0, -2.0, 3.0]), "o9-1")
        assert rep.terms["lhs"] == 9.0 and rep.terms["rhs"] == 28.0

    def test_o9_2_equality_at_ones(self):
        for n in range(1, 31):
            rep = discrete_identities(np.ones(n), "o9-2")
            assert rep.equality

    def test_o9_1_equals_o9_2_on_magnitudes(self, rng):
        for _ in range(50):
            a = rng.standard_normal(int(rng.integers(1, 20)))
            lhs_abs = discrete_identities(np.abs(a), "o9-1").terms["lhs"]
            lhs_two = discrete_identities(a, "o9-2").terms["lhs"]
            assert rel_close(lhs_abs, lhs_two, 1e-12)

    def test_o15_even_step_equality(self):
        rep = discrete_identities(np.array([1.0, -1.0]), "o15")
        assert rep.terms["lhs"] == pytest.approx(1.0, abs=1e-15)
        assert rep.terms["rhs"] == pytest.approx(1.0, abs=1e-15)
        for big_k in range(1, 16):
            a = np.concatenate([np.ones(big_k), -np.ones(big_k)])
            assert discrete_identities(a, "o15").equality

    def test_o18_even_step_equality(self):
        rep = discrete_identities(np.array([1.0, -1.0]), "o18")
        assert rep.terms["lhs"] == pytest.approx(1.0, abs=1e-15)
        assert rep.terms["rhs"] == pytest.approx(1.0, abs=1e-15)
        for big_k in range(1, 16):
            a = np.concatenate([np.ones(big_k), -np.ones(big_k)])
            assert discrete_identities(a, "o18").equality

    @pytest.mark.parametrize("which, lhs, rhs", [("o15", 4.0, 4.5), ("o18", 5.0, 6.0)])
    def test_zero_sum_example(self, which, lhs, rhs):
        rep = discrete_identities(np.array([1.0, 1.0, -2.0]), which)
        assert (rep.terms["lhs"], rep.terms["rhs"]) == (lhs, rhs)

    def test_o15_holds_for_odd_lengths(self, rng):
        for _ in range(2000):
            n = int(rng.integers(0, 11)) * 2 + 1  # odd, <= 21
            a = rng.standard_normal(n)
            a -= a.mean()
            rep = discrete_identities(a, "o15")
            assert rep.slack >= -1e-10 * max(1.0, rep.terms["rhs"])

    def test_zero_sum_precondition(self):
        with pytest.raises(ZeroMeanError):
            discrete_identities(np.array([1.0, 1.0]), "o15")
        with pytest.raises(ZeroMeanError):
            discrete_identities(np.array([1.0, 1.0]), "o18")

    def test_unknown_identity(self):
        with pytest.raises(ValueError, match="identity"):
            discrete_identities(np.ones(3), "o99")

    @pytest.mark.parametrize("which", fn.DISCRETE_IDENTITY_IDS)
    def test_zero_sum_required_exactly_where_the_table_says(self, which):
        uncentred = np.array([1.0, 2.0, 4.0])
        if fn.FUNCTIONALS[which].zero_mean:
            with pytest.raises(ZeroMeanError, match=which):
                discrete_identities(uncentred, which)
        else:
            assert discrete_identities(uncentred, which).functional == which


# ---------------------------------------------------------------------------
# report container
# ---------------------------------------------------------------------------


class TestReport:
    def test_json_shape(self):
        rep = opial_terms(uniform_model(3), np.ones(3))
        doc = rep.to_json_dict()
        assert set(doc) == {
            "functional",
            "terms",
            "slack",
            "ratio",
            "equality",
            "m",
            "exact",
        }
        assert doc["functional"] == "thm1-lower"
        assert doc["exact"] is True

    def test_zero_rhs_ratio(self):
        rep = opial_terms(uniform_model(3), np.zeros(3))
        assert rep.ratio == 0.0 and rep.terms["rhs"] == 0.0


# ---------------------------------------------------------------------------
# row kernels on zero-padded batches, bit for bit against the evaluators
# ---------------------------------------------------------------------------


def bits(value):
    return np.asarray(value, dtype=float).reshape(-1).view(np.int64).tolist()


class TestRowKernels:
    """Each row of a padded batch equals its model's public report exactly."""

    WIDTH = 13

    def batch(self, rng, rows=24):
        models = [random_atomic_model(rng, m_max=self.WIDTH, m_min=2) for _ in range(rows)]
        sizes = np.array([q.node_count for q in models])
        active = np.arange(self.WIDTH) < sizes[:, None]
        psis = [rng.standard_normal(q.node_count) * 10.0 ** rng.uniform(-8, 8) for q in models]

        def pad(rows_):
            out = np.zeros(active.shape)
            out[active] = np.concatenate(rows_)
            return out

        return models, psis, pad, active, sizes

    def assert_rows(self, terms, reports):
        for r, report in enumerate(reports):
            for key, value in report.terms.items():
                assert bits(terms[key][r]) == bits(value), (r, key)

    #: Draws of each required parameter, for a model of m nodes.
    PARAMS = {
        "n": lambda rng, m: int(rng.integers(1, 5)),
        "chi": lambda rng, m: rng.uniform(0.0, 3.0, m),
    }

    @pytest.mark.parametrize(
        "functional", [k for k, f in fn.FUNCTIONALS.items() if f.rows is not None]
    )
    def test_row_kernel_matches_report(self, rng, functional):
        spec = fn.FUNCTIONALS[functional]
        models, psis, pad, active, sizes = self.batch(rng)
        if spec.input == "sequence":
            # The search's draw centres (o15, o18) or takes magnitudes (rtwo).
            drawn = spec.draw(rng, sizes, {"sizes": sizes, "a": pad(psis)})["a"]
            seqs = [row[:size] for row, size in zip(drawn, sizes)]
            self.assert_rows(spec.rows(drawn, sizes), [spec.evaluate(v) for v in seqs])
            return
        p, psi = pad([q.mass for q in models]), pad(psis)
        if spec.zero_mean:
            psis = [v - comp_sum(q.mass * v) for q, v in zip(models, psis)]
            psi = pad(psis)
        if spec.input == "distribution":
            cuts = np.array([int(rng.integers(1, q.node_count)) for q in models])
            lower = np.arange(self.WIDTH) < cuts[:, None]
            upper = active & ~lower
            share_low = np.array([math.fsum(q.mass[:k]) for q, k in zip(models, cuts)])[:, None]
            share_up = np.array([math.fsum(q.mass[k:]) for q, k in zip(models, cuts)])[:, None]
            terms = spec.rows(
                np.where(lower, p / share_low, 0.0),
                np.where(lower, psi, 0.0),
                np.where(upper, p / share_up, 0.0),
                np.where(upper, psi, 0.0),
            )
            reports = [
                spec.evaluate(
                    Distribution(atoms=tuple(zip(q.support, q.mass))), v, float(q.support[k - 1]), m=1
                )
                for q, v, k in zip(models, psis, cuts)
            ]
            self.assert_rows(terms, reports)
            return
        params = [
            {name: self.PARAMS[name](rng, q.node_count) for name in spec.params} for q in models
        ]
        batched = {
            name: pad([d[name] for d in params]) if name == "chi" else np.array([d[name] for d in params])
            for name in spec.params
        }
        self.assert_rows(
            spec.rows(p, psi, **batched),
            [spec.evaluate(q, v, **d) for q, v, d in zip(models, psis, params)],
        )


def test_derived_id_tuples_keep_their_order():
    # The benchmark seeds its searches by position in THEOREM_BACKED_IDS.
    assert fn.FUNCTIONAL_IDS == (
        "thm1-lower", "thm1-upper", "corollary", "thm2", "thm3", "weighted-lower",
        "weighted-upper", "wirtinger", "o9-1", "o9-2", "o15", "o18", "rtwo", "troy",
    )
    assert fn.THEOREM_BACKED_IDS == (
        "thm1-lower", "thm1-upper", "corollary", "thm2", "thm3", "weighted-lower",
        "weighted-upper", "o9-1", "o9-2", "o15", "o18", "rtwo",
    )
    assert fn.SEARCHABLE_IDS == fn.THEOREM_BACKED_IDS + ("wirtinger",)
    assert fn.DISCRETE_IDENTITY_IDS == ("o9-1", "o9-2", "o15", "o18")
