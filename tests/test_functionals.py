import json
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opial import (
    Distribution,
    DistributionError,
    NodeFunction,
    Piece,
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
from opial.accumulate import COMPENSATED, PLAIN, comp_sum, prefix_exclusive, suffix_exclusive
from opial.oracle import _enum_opial, _enum_thm3, _w_below

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


#: The distribution functionals: every term reads the masses in their order.
LAW_IDS = [k for k, f in fn.FUNCTIONALS.items() if f.input == "model"]


class TestOnlyTheOrderOfTheAtomsCounts:
    """A strictly increasing map of the support moves no bit of any term.

    The search puts its laws on the positions 1, ..., m because of this;
    it fails if a kernel or an evaluator starts reading support values.
    """

    MAPS = {
        "cubic": lambda x: 0.25 * x**3 + x - 11.0,
        "gaps": lambda x: np.cumsum(np.linspace(0.1, 1.0, x.size)) - 3.0,
    }

    @pytest.mark.parametrize("functional", LAW_IDS)
    def test_terms_are_bit_identical_on_mapped_supports(self, functional, rng):
        spec = fn.FUNCTIONALS[functional]
        for _ in range(20):
            m = int(rng.integers(2, 31))
            positions = np.arange(1.0, m + 1.0)
            mass = rng.standard_exponential(m)
            mass /= mass.sum()
            psi = rng.standard_normal(m)
            if spec.zero_mean:
                psi = psi - comp_sum(mass * psi)
            draws = {"n": int(rng.integers(1, fn.ORDER_CAP + 1)), "chi": rng.uniform(0.0, 3.0, m)}
            params = {name: draws[name] for name in spec.params if name in draws}
            cut = int(rng.integers(1, m))  # the corollary's split index
            results = []
            for support in [positions] + [g(positions) for g in self.MAPS.values()]:
                assert (np.diff(support) > 0.0).all()
                model = QuantizedModel(support=support, mass=mass, is_exact=True)
                if "c" in spec.params:
                    c = float(support[cut - 1])
                    report = spec.evaluate(model, psi, c)
                    lower = support <= c
                    halves = []
                    for half in (lower, ~lower):
                        halves += [mass[half] / comp_sum(mass[half]), psi[half]]
                    kernel = spec.rows(*halves)
                else:
                    report = spec.evaluate(model, psi, **params)
                    kernel = spec.rows(mass, psi, **params)
                doc = report.to_json_dict()
                doc.pop("c", None)  # the one extra that names a support point
                # json writes each float by repr: equal text is equal bits
                results.append((json.dumps(doc, sort_keys=True), bits(list(kernel.values()))))
            assert results[1:] == results[:1] * len(self.MAPS)


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

    @pytest.mark.parametrize("c", [0.3, 0.5, 1.5])
    def test_values_align_with_the_cut_model(self, c):
        # A law with pieces takes a value vector on the cut model's nodes:
        # the support there gives the identity family's report, bit for bit.
        d = Distribution(atoms=((1.5, 0.25), (2.0, 0.25)), pieces=(Piece(0.0, 1.0, 0.5),))
        q = quantize(d, 8, cut=c)
        rep = corollary_split(d, NodeFunction.of_values(q.support.tolist()), c, m=8)
        want = corollary_split(d, NodeFunction.identity(), c, m=8)
        assert repr(rep) == repr(want) == repr(fn.corollary_terms(q, q.support, c))
        with pytest.raises(ValueError, match=f"value vector has 8 entries but the model has {q.node_count} nodes"):
            corollary_split(d, NodeFunction.of_values([1.0] * 8), c, m=8)

    def test_split_reads_the_cdf_of_the_whole_law(self):
        # cos_pi_F is resolved once, on the cut model: the law's half-tie CDF.
        d = Distribution(atoms=((1.5, 0.25),), pieces=(Piece(0.0, 1.0, 0.75),))
        q = quantize(d, 16, cut=0.4)
        rep = corollary_split(d, NodeFunction.cos_pi_cdf(), 0.4, m=16)
        assert repr(rep) == repr(fn.corollary_terms(q, np.cos(math.pi * q.midpoint_cdf()), 0.4))

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

    @pytest.mark.parametrize("c, side", [(0.5, "<="), (3.0, ">"), (7.0, ">"), (math.nan, "<=")])
    def test_an_empty_side_is_named_with_its_mass(self, c, side):
        # Either side empty: the refusal names that side, X <= c or X > c,
        # and its probability, before psi is read.  A NaN c puts every node
        # above it, so the lower side is the empty one.
        q = uniform_model(3)
        lower = q.support <= c
        mass = comp_sum(q.mass[lower if side == "<=" else ~lower])
        assert mass == 0.0
        with pytest.raises(DistributionError, match=rf"^conditioning on X {side} {c} leaves probability {mass!r}$"):
            fn.corollary_terms(q, [1.0], c)

    def test_the_table_has_three_input_kinds(self):
        # The two-sided split is a model functional: it takes the cut model.
        assert {f.input for f in fn.FUNCTIONALS.values()} == {"model", "sequence", "exponent"}
        assert fn.FUNCTIONALS["corollary"].input == "model"


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

    @pytest.mark.parametrize("n, first_failing_m", [(2, 68), (3, 34), (4, 29)])
    def test_perron_psi_breaks_the_stated_constant(self, n, first_failing_m):
        # On m equal atoms p = 1/m with psi >= 0, lhs = psi' K psi for the
        # symmetrized strict-chain kernel K = p^(n+1) C(|i-k|-1, n-1) / 2, so
        # the top eigenvector of K / p maximizes lhs / E psi^2 at the top
        # eigenvalue.  (n+1)! times it exceeds 1 from the first failing m on:
        # the stated 1/(n+1)! is no bound there.  The check reads lhs, not the
        # report's ratio, so it holds whatever rhs the report states.
        # The law is built and quantized as the command line builds it: the
        # report's m is the atom count, not the resolution, and equality is
        # false on both sides of the threshold.
        for m, fails in ((first_failing_m - 1, False), (first_failing_m, True)):
            p = 1.0 / m
            gap = np.abs(np.subtract.outer(np.arange(m), np.arange(m)))
            chains = np.array([[math.comb(d - 1, n - 1) if d else 0 for d in row] for row in gap.tolist()])
            values, vectors = np.linalg.eigh(0.5 * p**n * chains)
            psi = np.abs(vectors[:, -1])
            q = quantize(make_discrete(np.arange(1.0, m + 1.0), np.full(m, p)), fn.DEFAULT_RESOLUTION)
            report = theorem2_terms(q, psi, n)
            value = report.terms["lhs"] * math.factorial(n + 1) / np.sum(q.mass * psi * psi)
            assert rel_close(value, math.factorial(n + 1) * values[-1], 1e-12)
            assert (value > 1.0) == fails, (m, value)
            assert report.m == m and report.equality is False


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

    def test_rtwo_rejects_nan(self):
        with pytest.raises(ValueError, match="nonnegative"):
            rtwo_terms(np.array([math.nan, 1.0]))

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

    def test_nan_weight_rejected(self):
        q = uniform_model(3)
        with pytest.raises(ValueError, match="must be finite"):
            weighted_opial_terms(q, np.ones(3), np.array([1.0, math.nan, 1.0]))

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


class TestOneDirectionRule:
    """Every row kernel takes its direction rule from ``accumulate.half_tie``."""

    KERNELS = {
        "opial_rows": lambda p, v, direction, passes: fn.opial_rows(p, v, direction, passes),
        "weighted_rows": lambda p, v, direction, passes: fn.weighted_rows(p, v, np.ones_like(p), direction, passes),
    }

    @pytest.mark.parametrize("passes", [COMPENSATED, PLAIN], ids=["compensated", "plain"])
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_row_kernels_refuse_an_unknown_direction(self, kernel, passes):
        p, v = np.full(3, 1.0 / 3.0), np.array([1.0, -2.0, 0.5])
        with pytest.raises(ValueError, match="direction must be 'below' or 'above', got 'sideways'"):
            self.KERNELS[kernel](p, v, "sideways", passes)

    @staticmethod
    def weighted_by_branches(p, vals, chi, direction, passes):
        """weighted_rows' rhs and monotone_bound as written before half_tie carried the direction."""
        if direction == "below":
            near = passes.prefix(p)
            far = passes.suffix(p * chi) + 0.5 * p * chi
        else:
            near = passes.suffix(p)
            far = passes.prefix(p * chi) + 0.5 * p * chi
        squares = p * vals * vals
        rhs = 0.5 * passes.total(squares * (chi * (near + 0.5 * p) + far))
        return rhs, 0.5 * passes.total(squares * chi)

    @pytest.mark.parametrize("passes", [COMPENSATED, PLAIN], ids=["compensated", "plain"])
    @pytest.mark.parametrize("direction", ["below", "above"])
    def test_weighted_rhs_is_bit_identical_to_the_branches(self, rng, direction, passes):
        # The search's masses: exponential draws floored at 1e-9; sparse
        # Dirichlet draws put many of them at that floor.
        rows, width = 64, 30
        sizes = rng.integers(1, width + 1, rows)
        active = np.arange(width) < sizes[:, None]
        concentration = np.where(np.arange(rows) % 2 == 0, 0.02, 1.0)[:, None]
        mass = rng.gamma(concentration, size=(rows, width)) * active
        mass = np.where(active, np.maximum(mass / mass.sum(axis=1)[:, None], 1e-9), 0.0)
        vals = np.where(active, rng.standard_normal((rows, width)) * 10.0 ** rng.uniform(-6, 6, (rows, 1)), 0.0)
        chi = np.where(active, rng.uniform(0.0, 3.0, (rows, width)), 0.0)
        got = fn.weighted_rows(mass, vals, chi, direction, passes)
        rhs, monotone_bound = self.weighted_by_branches(mass, vals, chi, direction, passes)
        assert bits(got["rhs"]) == bits(rhs)
        assert bits(got["monotone_bound"]) == bits(monotone_bound)
        for r in range(rows):
            one = fn.weighted_rows(mass[r, : sizes[r]], vals[r, : sizes[r]], chi[r, : sizes[r]], direction, passes)
            rhs_r, bound_r = self.weighted_by_branches(
                mass[r, : sizes[r]], vals[r, : sizes[r]], chi[r, : sizes[r]], direction, passes
            )
            assert (bits(one["rhs"]), bits(one["monotone_bound"])) == (bits(rhs_r), bits(bound_r)), r
        assert np.any(mass == 1e-9)

    def test_transform_is_the_strict_pass_plus_half_the_node(self, rng):
        q = random_atomic_model(rng, m_max=40, m_min=2)
        psi = rng.standard_normal(q.node_count)
        weighted = q.mass * psi
        assert bits(half_tie_transform(q, psi, "below")) == bits(prefix_exclusive(weighted) + 0.5 * weighted)
        assert bits(half_tie_transform(q, psi, "above")) == bits(suffix_exclusive(weighted) + 0.5 * weighted)


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
        with pytest.raises(ValueError, match="-1"):
            troy_comparison(math.nan, NodeFunction.identity(), m=16)


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

    def test_one_coefficient_is_an_equality(self, rng):
        # Why the search draws two or more values: one coefficient is an
        # equality case of every sequence kernel.  o15 and o18 take only
        # [0.0], the one coefficient of zero sum.
        for _ in range(200):
            a = np.array([rng.standard_normal() * 10.0 ** rng.uniform(-3.0, 3.0)])
            for which in ("o9-1", "o9-2"):
                assert discrete_identities(a, which).slack == 0.0
            assert rtwo_terms(np.abs(a)).slack == 0.0
        for which in ("o15", "o18"):
            assert discrete_identities(np.array([0.0]), which).slack == 0.0

    @pytest.mark.parametrize(
        "evaluate, error, message",
        [
            (lambda: discrete_identities([], "o9-1"), ValueError, "^empty coefficient vector$"),
            (lambda: discrete_identities([], "o15"), ValueError, "^empty coefficient vector$"),
            (lambda: rtwo_terms([]), ValueError, "^empty coefficient vector$"),
            (lambda: discrete_identities([], "o99"), ValueError, "^unknown discrete identity"),
            (lambda: rtwo_terms([-1.0, math.inf]), ValueError, "^rtwo expects nonnegative coefficients$"),
            (lambda: discrete_identities([math.inf, 1.0], "o15"), ValueError, "^coefficients must be finite$"),
            (lambda: discrete_identities([1.0, 1.0], "o18"), ZeroMeanError, "^o18 requires sum"),
        ],
        ids=["empty", "empty-zero-sum", "empty-rtwo", "unknown-first", "sign-before-finite",
             "finite-before-zero-sum", "zero-sum"],
    )
    def test_input_checks_in_their_order(self, evaluate, error, message):
        with pytest.raises(error, match=message):
            evaluate()

    def test_terms_match_the_oracle(self, rng):
        # The oracle shares no arithmetic with the kernels.  On unit masses at
        # 1..N its first-order form gives o9-1's lhs and o9-2's (its middle)
        # at full ties, o15's at half ties and o18's at strict order; its
        # second-order form gives both sides of rtwo.
        def full(xj, xi):
            return 1.0 if xj <= xi else 0.0

        def strict(xj, xi):
            return 1.0 if xj < xi else 0.0

        def close(value, reference):
            assert abs(value - reference) <= 1e-12 * max(1.0, abs(reference)), (value, reference)

        for _ in range(300):
            n = int(rng.integers(1, 41))
            a = rng.standard_normal(n) * 10.0 ** rng.uniform(0.0, 3.0)
            centred = a - a.mean()
            x, p = [float(i) for i in range(1, n + 1)], [1.0] * n
            squares, centred_squares = math.fsum(a * a), math.fsum(centred * centred)
            reports = {
                which: discrete_identities(centred if fn.FUNCTIONALS[which].zero_mean else a, which)
                for which in fn.DISCRETE_IDENTITY_IDS
            }
            full_ties = _enum_opial(x, p, a.tolist(), full)
            close(reports["o9-1"].terms["lhs"], full_ties["lhs"])
            close(reports["o9-2"].terms["lhs"], full_ties["middle"])
            close(reports["o15"].terms["lhs"], _enum_opial(x, p, centred.tolist(), _w_below)["lhs"])
            close(reports["o18"].terms["lhs"], _enum_opial(x, p, centred.tolist(), strict)["lhs"])
            close(reports["o9-1"].terms["rhs"], (n + 1) / 2 * squares)
            close(reports["o9-2"].terms["rhs"], (n + 1) / 2 * squares)
            close(reports["o15"].terms["rhs"], n / 4 * centred_squares)
            close(reports["o18"].terms["rhs"], ((n + 1) // 2) / 2 * centred_squares)
            rtwo, oracle = rtwo_terms(np.abs(a)), _enum_thm3(x, p, np.abs(a).tolist())
            close(rtwo.terms["lhs"], oracle["lhs"])
            close(rtwo.terms["rhs"], oracle["rhs"])

    @pytest.mark.parametrize("passes", [COMPENSATED, PLAIN], ids=["compensated", "plain"])
    @pytest.mark.parametrize("which", fn.DISCRETE_IDENTITY_IDS)
    def test_bit_identical_to_the_literal_kernels(self, which, passes):
        # Unit masses make every product with a mass exact, so the counting
        # law's terms are the literal sums bit for bit, padded rows included.
        rng = np.random.default_rng(21)
        sizes = rng.integers(1, 60, 2000)
        active = np.arange(59) < sizes[:, None]
        a = rng.standard_normal(active.shape) * 10.0 ** rng.uniform(-100.0, 100.0, active.shape)
        a[::7] = np.round(a[::7])
        a = np.where(active, a, 0.0)
        terms = fn.FUNCTIONALS[which].rows(active * 1.0, a, passes=passes)
        reference = LITERAL_IDENTITIES[which](a, sizes, passes)
        for key in ("lhs", "rhs"):
            assert bits(terms[key]) == bits(reference[key]), key

    def test_sequence_kernels_are_law_kernels(self):
        # An identity is a first-order term on the counting law, or the
        # second-order kernel: no literal identity kernel of its own.
        assert fn.FUNCTIONALS["rtwo"].rows is fn.theorem3_rows
        for which, spec in fn.FUNCTIONALS.items():
            if spec.input != "sequence" or spec.rows is fn.theorem3_rows:
                continue
            assert isinstance(spec.rows, partial) and spec.rows.func is fn.identity_rows, which
            assert spec.rows.keywords["tie"] in (0.0, 0.5, 1.0), which


def _o9_1_literal(a, n, passes):
    total = passes.total
    return {"lhs": total(np.abs(a * (passes.prefix(a) + a))), "rhs": 0.5 * (n + 1) * total(a * a)}


def _o9_2_literal(a, n, passes):
    mags = np.abs(a)
    total = passes.total
    return {"lhs": total(mags * (passes.prefix(mags) + mags)), "rhs": 0.5 * (n + 1) * total(a * a)}


def _o15_literal(a, n, passes):
    total = passes.total
    return {"lhs": total(np.abs(a * (passes.prefix(a) + 0.5 * a))), "rhs": 0.25 * n * total(a * a)}


def _o18_literal(a, n, passes):
    total = passes.total
    return {"lhs": total(np.abs(a * passes.prefix(a))), "rhs": 0.5 * ((n + 1) // 2) * total(a * a)}


#: The identities' literal sums on rows of coefficients `a` of lengths `n`
#: (zero-padded), the reference of the counting-law kernels.
LITERAL_IDENTITIES = {"o9-1": _o9_1_literal, "o9-2": _o9_2_literal, "o15": _o15_literal, "o18": _o18_literal}


# ---------------------------------------------------------------------------
# report container
# ---------------------------------------------------------------------------


#: The ids whose evaluator returns an IneqReport.
IDS_WITH_REPORTS = tuple(k for k in fn.FUNCTIONAL_IDS if k != "troy")

#: Resolution of the continuous pieces in NODE_CASES.
MIXTURE_M = 16

NINE_ATOMS = make_discrete(np.arange(9.0), [1.0 / 9] * 9)
TWENTY_NINE_ATOMS = make_discrete(np.arange(1.0, 30.0), [1.0 / 29] * 29)
MIXTURE = Distribution(
    atoms=((0.0, 0.2), (3.0, 0.2)), pieces=(Piece(1.0, 2.0, 0.3), Piece(4.0, 5.0, 0.3))
)

#: case -> (model builder, law, split point c, model nodes, nodes of the split at c).
#: The mixture's c = 1.5 cuts its first piece, so the split quantizes three pieces.
NODE_CASES = {
    "direct-9": (lambda: QuantizedModel(support=np.arange(9.0), mass=np.full(9, 1.0 / 9)), NINE_ATOMS, 3.5, 9, 9),
    "atoms-29": (lambda: quantize(TWENTY_NINE_ATOMS, fn.DEFAULT_RESOLUTION), TWENTY_NINE_ATOMS, 10.5, 29, 29),
    "mixture": (lambda: quantize(MIXTURE, MIXTURE_M), MIXTURE, 1.5, 2 + 2 * MIXTURE_M, 2 + 3 * MIXTURE_M),
}


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

    @pytest.mark.parametrize("case", sorted(NODE_CASES))
    @pytest.mark.parametrize("functional", IDS_WITH_REPORTS)
    def test_m_is_the_node_count(self, functional, case):
        # A report's m counts the nodes it evaluated: a directly built model
        # has no resolution, atoms ignore it, and a mixture has atoms plus m
        # nodes per piece.  The split evaluates both halves, N coefficients
        # stand for N nodes.
        make_model, dist, c, nodes, split_nodes = NODE_CASES[case]
        spec = fn.FUNCTIONALS[functional]
        cos = NodeFunction.cos_pi_cdf()
        if "c" in spec.params:
            report, expected = spec.evaluate(quantize(dist, MIXTURE_M, cut=c), cos, c), split_nodes
        elif spec.input == "sequence":
            a = np.cos(math.pi * (np.arange(nodes) + 0.5) / nodes)  # sums to 0
            report, expected = spec.evaluate(np.abs(a) if functional == "rtwo" else a), nodes
        else:
            values = {"n": 2, "chi": NodeFunction.constant()}
            options = {name: values[name] for name in spec.params}
            if spec.zero_mean:
                options["project"] = True
            report, expected = spec.evaluate(make_model(), cos, **options), nodes
        assert type(report.m) is int and report.m == expected
        assert report.to_json_dict()["m"] == expected

    def test_equality_is_false_on_a_violation(self):
        # equality is two-sided: a slack below -tol max(1, |rhs|) is a
        # violation, not an equality.  cos(pi F) on 512 equal cells exceeds
        # the continuum Wirtinger constant, and the Perron psi of 29 equal
        # atoms exceeds thm2's stated 1/5! (ROADMAP item 1).
        wirtinger = wirtinger_terms(quantize(make_uniform_interval(0, 1), 512), NodeFunction.cos_pi_cdf())
        assert wirtinger.ratio > 1.0 and wirtinger.equality is False
        m = 29
        gap = np.abs(np.subtract.outer(np.arange(m), np.arange(m)))
        chains = np.array([[math.comb(d - 1, 3) if d else 0 for d in row] for row in gap.tolist()])
        psi = np.abs(np.linalg.eigh(chains)[1][:, -1])
        thm2 = theorem2_terms(uniform_model(m), psi, 4)
        assert thm2.ratio > 1.0 and thm2.equality is False
        assert opial_terms(uniform_model(5), np.ones(5)).equality is True

    def test_numpy_scalars_are_cast_where_built(self):
        # A numpy tol and a numpy is_exact reach the report's fields; the
        # report casts them once, so its JSON holds Python bools.
        q = uniform_model(3)
        model = QuantizedModel(support=q.support, mass=q.mass, is_exact=np.bool_(True))
        report = opial_terms(model, np.ones(3), tol=np.float64(1e-10))
        doc = report.to_json_dict()
        assert type(doc["equality"]) is bool and type(doc["exact"]) is bool
        assert doc["equality"] is True and doc["exact"] is True

    def test_zero_rhs_ratio(self):
        rep = opial_terms(uniform_model(3), np.zeros(3))
        assert rep.ratio == 0.0 and rep.terms["rhs"] == 0.0

    @pytest.mark.parametrize(
        "evaluate",
        [
            lambda tol: opial_terms(uniform_model(3), np.ones(3), tol=tol),
            lambda tol: corollary_split(make_uniform_interval(0, 1), NodeFunction.constant(), 0.5, m=8, tol=tol),
            lambda tol: theorem2_terms(uniform_model(3), np.ones(3), 1, tol=tol),
            lambda tol: theorem3_terms(uniform_model(3), np.ones(3), tol=tol),
            lambda tol: weighted_opial_terms(uniform_model(3), np.ones(3), np.ones(3), tol=tol),
            lambda tol: wirtinger_terms(uniform_model(2), np.array([1.0, -1.0]), tol=tol),
            lambda tol: discrete_identities(np.array([1.0, -1.0]), "o15", tol=tol),
            lambda tol: rtwo_terms(np.ones(3), tol=tol),
        ],
        ids=["thm1", "corollary", "thm2", "thm3", "weighted", "wirtinger", "o15", "rtwo"],
    )
    def test_nan_tol_is_rejected(self, evaluate):
        # Every comparison with a NaN tol is false, so it would report no
        # equality even where the bound is one; an infinite tol is allowed.
        assert evaluate(math.inf).equality
        with pytest.raises(ValueError, match="tol must not be NaN"):
            evaluate(math.nan)

    @pytest.mark.parametrize(
        "evaluate",
        [
            lambda: opial_terms(uniform_model(2), np.array([math.nan, 1.0])),
            lambda: theorem2_terms(uniform_model(2), np.array([math.nan, 1.0]), 1),
            lambda: theorem3_terms(uniform_model(2), np.array([math.inf, 1.0])),
            lambda: wirtinger_terms(uniform_model(2), np.array([math.nan, 1.0]), project=True),
            lambda: weighted_opial_terms(uniform_model(2), np.ones(2), np.array([math.inf, 1.0])),
            lambda: troy_comparison(1.0, np.array([math.nan, 1.0]), m=2),
            lambda: half_tie_transform(uniform_model(2), np.array([math.nan, 1.0])),
            lambda: discrete_identities(np.array([math.nan, 1.0]), "o9-1"),
            lambda: discrete_identities(np.array([math.inf, 1.0]), "o9-2"),
            lambda: discrete_identities(np.array([math.nan, 1.0]), "o15"),
            lambda: discrete_identities(np.array([math.inf, -math.inf]), "o18"),
            lambda: rtwo_terms(np.array([math.inf, 1.0])),
        ],
        ids=["thm1", "thm2", "thm3", "wirtinger", "weighted-chi", "troy", "half-tie",
             "o9-1", "o9-2", "o15", "o18", "rtwo"],
    )
    def test_non_finite_values_are_rejected(self, evaluate):
        # A NaN or inf raw value would make NaN terms, reported as a
        # non-equality rather than refused.
        with pytest.raises(ValueError, match="must be finite"):
            evaluate()


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
            # The table's side conditions, met as the search meets them:
            # centred over the padded row (o15, o18), or in magnitude (rtwo).
            drawn = pad(psis)
            if spec.zero_mean:
                drawn = np.where(active, drawn - (drawn.sum(axis=-1) / sizes)[:, None], 0.0)
            if spec.nonnegative:
                drawn = np.abs(drawn)
            seqs = [row[:size] for row, size in zip(drawn, sizes)]
            self.assert_rows(spec.rows(active * 1.0, drawn), [spec.evaluate(v) for v in seqs])
            return
        p, psi = pad([q.mass for q in models]), pad(psis)
        if spec.zero_mean:
            psis = [v - comp_sum(q.mass * v) for q, v in zip(models, psis)]
            psi = pad(psis)
        if "c" in spec.params:
            cuts = np.array([int(rng.integers(1, q.node_count)) for q in models])
            lower = np.arange(self.WIDTH) < cuts[:, None]
            upper = active & ~lower
            share_low = np.array([comp_sum(q.mass[:k]) for q, k in zip(models, cuts)])[:, None]
            share_up = np.array([comp_sum(q.mass[k:]) for q, k in zip(models, cuts)])[:, None]
            terms = spec.rows(
                np.where(lower, p / share_low, 0.0),
                np.where(lower, psi, 0.0),
                np.where(upper, p / share_up, 0.0),
                np.where(upper, psi, 0.0),
            )
            reports = [spec.evaluate(q, v, float(q.support[k - 1])) for q, v, k in zip(models, psis, cuts)]
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
