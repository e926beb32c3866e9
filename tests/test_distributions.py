import math

import numpy as np
import pytest

from opial import (
    Distribution,
    DistributionError,
    NodeFunction,
    Piece,
    QuantizedModel,
    conditional_truncate,
    make_discrete,
    make_uniform_interval,
    quantize,
)

from opial.accumulate import comp_sum, prefix_exclusive
from opial.distributions import DEFAULT_MAX_NODES, MASS_TOL, NODE_FUNCTION_KINDS, node_values
from opial.functionals import opial_terms

from conftest import random_atomic_distribution, random_atomic_model, random_mixed_distribution


class TestMakeDiscrete:
    def test_uniform_on_three_points(self):
        d = make_discrete([1, 2, 3], [1 / 3, 1 / 3, 1 / 3])
        assert [x for x, _ in d.atoms] == [1.0, 2.0, 3.0]
        assert all(abs(p - 1 / 3) < 1e-15 for _, p in d.atoms)

    def test_single_atom(self):
        d = make_discrete([5], [1])
        assert d.point_mass(5) == 1.0
        assert d.cdf(5) == 1.0 and d.left_cdf(5) == 0.0

    def test_sorting(self):
        d = make_discrete([2, 1], [0.4, 0.6])
        assert d.atoms == ((1.0, 0.6), (2.0, 0.4))

    def test_duplicates_merged(self):
        d = make_discrete([1, 1, 2], [0.25, 0.25, 0.5])
        assert d.atoms == ((1.0, 0.5), (2.0, 0.5))

    def test_length_mismatch(self):
        with pytest.raises(DistributionError, match="points"):
            make_discrete([1, 2], [1.0])

    def test_negative_mass(self):
        with pytest.raises(DistributionError, match="negative"):
            make_discrete([1, 2], [1.5, -0.5])

    def test_total_off(self):
        with pytest.raises(DistributionError, match="total mass"):
            make_discrete([1, 2], [0.5, 0.6])

    def test_tolerance_edge_accepted(self):
        make_discrete([1, 2], [0.5, 0.499999999999])  # off by 1e-12 exactly


class TestUniformInterval:
    def test_cdf_midpoint(self):
        d = make_uniform_interval(0, 1)
        assert d.cdf(0.5) == pytest.approx(0.5, abs=1e-15)

    def test_endpoint(self):
        d = make_uniform_interval(0, 2)
        assert d.cdf(2) == 1.0

    def test_no_point_mass(self):
        d = make_uniform_interval(0, 1)
        for x in (0.0, 0.25, 0.5, 1.0):
            assert d.point_mass(x) == 0.0

    def test_rejects_empty_interval(self):
        with pytest.raises(DistributionError):
            make_uniform_interval(1, 1)


class TestCdf:
    def test_atomic_values(self):
        d = make_discrete([1, 2, 3], [1 / 3, 1 / 3, 1 / 3])
        assert d.cdf(2) == pytest.approx(2 / 3, abs=1e-15)
        assert d.left_cdf(2) == pytest.approx(1 / 3, abs=1e-15)
        assert d.point_mass(2) == pytest.approx(1 / 3, abs=1e-15)

    def test_uniform_interior(self):
        d = make_uniform_interval(0, 1)
        assert d.cdf(0.25) == pytest.approx(0.25, abs=1e-15)
        assert d.point_mass(0.25) == 0.0

    def test_mixture_half_atom_half_uniform(self):
        # 0.5 * delta_0 + 0.5 * U(0, 1); continuous part integrates density 0.5.
        d = Distribution(atoms=((0.0, 0.5),), pieces=(Piece(0.0, 1.0, 0.5),))
        assert d.cdf(0.0) == pytest.approx(0.5, abs=1e-15)
        assert d.left_cdf(0.0) == 0.0
        assert d.cdf(0.5) == pytest.approx(0.75, abs=1e-15)
        # quadrature oracle for the continuous part on [0, x]
        xs = np.linspace(0.0, 0.5, 100_001)
        integral = np.trapezoid(np.full_like(xs, 0.5), xs)
        assert d.cdf(0.5) == pytest.approx(0.5 + integral, abs=1e-9)

    def test_monotone_and_limits(self, rng):
        d = random_mixed_distribution(rng)
        xs = np.linspace(-10, 10, 400)
        vals = [d.cdf(x) for x in xs]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
        assert d.cdf(-1e9) == 0.0
        assert d.cdf(1e9) == pytest.approx(1.0, abs=1e-12)

    def test_cdf_decomposition(self, rng):
        for _ in range(25):
            d = random_mixed_distribution(rng)
            for x in rng.uniform(-5, 5, 10):
                assert d.cdf(x) == pytest.approx(
                    d.left_cdf(x) + d.point_mass(x), abs=1e-14
                )


def quantize_reference(dist, m):
    """Scalar reference for :func:`quantize`: one node at a time, as the loop it replaced."""
    locs = [x for x, _ in dist.atoms]
    masses = [p for _, p in dist.atoms]
    for pc in dist.pieces:
        width = pc.hi - pc.lo
        share = pc.mass / m
        for k in range(1, m + 1):
            locs.append(pc.lo + width * (k - 0.5) / m)
            masses.append(share)
    order = np.argsort(np.asarray(locs), kind="stable")
    return np.asarray(locs, dtype=float)[order], np.asarray(masses, dtype=float)[order]


class TestQuantize:
    @pytest.mark.parametrize("m", [1, 2, 3, 7, 100, 2048])
    def test_matches_scalar_reference_bit_for_bit(self, rng, m):
        for _ in range(40 if m < 2048 else 8):
            d = random_mixed_distribution(rng, max_parts=6)
            q = quantize(d, m)
            support, mass = quantize_reference(d, m)
            assert q.support.tobytes() == support.tobytes()
            assert q.mass.tobytes() == mass.tobytes()

    EDGE_LAWS = {
        "atoms at lo and hi": Distribution(
            atoms=((0.0, 0.2), (1.0, 0.3)), pieces=(Piece(0.0, 1.0, 0.5),)
        ),
        "touching pieces, atom at the shared end": Distribution(
            atoms=((1.0, 0.2),), pieces=(Piece(0.0, 1.0, 0.4), Piece(1.0, 2.5, 0.4))
        ),
        "atoms below every piece": Distribution(
            atoms=((-2.0, 0.2), (-1.0, 0.3)), pieces=(Piece(0.0, 1.0, 0.25), Piece(1.5, 2.0, 0.25))
        ),
        "atoms above every piece": Distribution(
            atoms=((3.0, 0.2), (4.0, 0.3)), pieces=(Piece(0.0, 1.0, 0.25), Piece(1.0, 2.0, 0.25))
        ),
        "touching pieces, atoms at every end": Distribution(
            atoms=((-1.0, 0.1), (0.0, 0.1), (1.0, 0.1), (2.0, 0.1), (3.0, 0.1)),
            pieces=(Piece(-1.0, 0.0, 0.1), Piece(0.0, 1.0, 0.1), Piece(2.0, 3.0, 0.3)),
        ),
        "5000 atoms": make_discrete(
            np.random.default_rng(5000).uniform(-5.0, 5.0, 5000),
            np.random.default_rng(5001).dirichlet(np.ones(5000)),
        ),
    }

    @pytest.mark.parametrize("m", [1, 2, 7, 1000])
    @pytest.mark.parametrize("law", sorted(EDGE_LAWS))
    def test_merge_boundaries_match_the_sorted_reference(self, law, m):
        d = self.EDGE_LAWS[law]
        q = quantize(d, m)
        support, mass = quantize_reference(d, m)
        assert q.support.tobytes() == support.tobytes()
        assert q.mass.tobytes() == mass.tobytes()

    @pytest.mark.parametrize("m", [1, 2, 7, 1000])
    def test_merge_of_random_touching_laws(self, rng, m):
        # Touching pieces with atoms on their ends, and atoms beyond them:
        # the cases that random_mixed_distribution never draws.
        for _ in range(30 if m < 1000 else 5):
            n = int(rng.integers(1, 6))
            ends = np.cumsum(rng.uniform(0.1, 1.0, n + 1))
            gaps = rng.random(n) < 0.5
            pieces = [(ends[i] + gaps[i] * 0.05, ends[i + 1]) for i in range(n)]
            points = [x for x in ends if rng.random() < 0.5] + [ends[0] - 1.0, ends[-1] + 1.0]
            w = rng.dirichlet(np.ones(n + len(points)))
            d = Distribution(
                atoms=tuple(zip(points, w[n:])),
                pieces=tuple(Piece(lo, hi, wi) for (lo, hi), wi in zip(pieces, w[:n])),
            )
            q = quantize(d, m)
            support, mass = quantize_reference(d, m)
            assert q.support.tobytes() == support.tobytes()
            assert q.mass.tobytes() == mass.tobytes()

    def test_atomic_pass_through(self, rng):
        d = make_discrete([1, 2, 3], [0.2, 0.3, 0.5])
        for m in (1, 7, 100):
            q = quantize(d, m)
            assert q.is_exact
            assert np.array_equal(q.support, [1, 2, 3])
            assert np.array_equal(q.mass, [0.2, 0.3, 0.5])

    def test_uniform_midpoints_m2(self):
        q = quantize(make_uniform_interval(0, 1), 2)
        assert not q.is_exact
        assert np.allclose(q.support, [0.25, 0.75], atol=1e-15)
        assert np.allclose(q.mass, [0.5, 0.5], atol=1e-15)

    def test_uniform_midpoints_m4(self):
        q = quantize(make_uniform_interval(0, 1), 4)
        assert np.allclose(q.support, [0.125, 0.375, 0.625, 0.875], atol=1e-15)
        assert np.allclose(q.mass, 0.25, atol=1e-15)

    def test_mass_conservation_random(self, rng):
        for _ in range(50):
            d = random_mixed_distribution(rng)
            for m in (1, 3, 17):
                q = quantize(d, m)
                assert abs(math.fsum(q.mass.tolist()) - 1.0) <= 1e-12

    def test_node_count_guard(self):
        d = make_uniform_interval(0, 1)
        with pytest.raises(DistributionError, match="nodes"):
            quantize(d, DEFAULT_MAX_NODES + 1)

    def test_an_atomic_law_takes_any_resolution(self):
        # Only pieces take nodes from m, so the node limit does not bound m
        # on an atomic law: a resolution whose midpoint run could not be
        # allocated still gives the m = 1 model, with or without a cut.
        d = make_discrete([0.0, 1.0, 2.0], [0.25, 0.5, 0.25])
        want = quantize(d, 1)
        for m in (10**12, 99_999_999_999):
            for cut in (None, 0.5, 1.0):
                q = quantize(d, m, cut=cut)
                assert q.is_exact
                assert q.support.tobytes() == want.support.tobytes()
                assert q.mass.tobytes() == want.mass.tobytes()

    def test_rejects_zero_resolution(self):
        with pytest.raises(ValueError):
            quantize(make_uniform_interval(0, 1), 0)

    def test_cdf_consistency_atomic(self, rng):
        # exact agreement between source CDF and quantized cumulative mass
        for _ in range(100):
            d = random_atomic_distribution(rng, m_max=20)
            q = quantize(d, 5)
            for x in rng.uniform(-5, 5, 5):
                assert abs(d.cdf(x) - math.fsum(q.mass[q.support <= x].tolist())) <= 1e-15
            for x, _ in d.atoms:
                assert abs(d.cdf(x) - math.fsum(q.mass[q.support <= x].tolist())) <= 1e-15

    @pytest.mark.parametrize("m", [1, 2, 7, 64])
    def test_cut_sides_are_the_conditional_models(self, rng, m):
        # A cut inside a piece, at an atom or in a gap: each side of the cut
        # model has its conditional law's nodes, bit for bit, and its masses
        # over their compensated sum are within 2 ulp of that law's masses.
        kinds = {"piece": 0, "atom": 0, "gap": 0}
        for _ in range(60):
            d = random_mixed_distribution(rng, max_parts=6)
            spans = sorted([(x, x) for x, _ in d.atoms] + [(pc.lo, pc.hi) for pc in d.pieces])
            points = {
                "piece": [pc.lo + (pc.hi - pc.lo) * u for pc in d.pieces for u in rng.uniform(0, 1, 2)],
                "atom": [x for x, _ in d.atoms],
                "gap": [(a[1] + b[0]) / 2 for a, b in zip(spans, spans[1:])],
            }
            for kind, cuts in points.items():
                for c in cuts:
                    if d.cdf(c) <= MASS_TOL or d.cdf(c) >= 1.0 - MASS_TOL:
                        continue
                    kinds[kind] += 1
                    q = quantize(d, m, cut=c)
                    assert q.is_exact == (not d.pieces)
                    lower = q.support <= c
                    for side, mask in (("lower", lower), ("upper", ~lower)):
                        want = quantize(conditional_truncate(d, c, side)[0], m)
                        assert q.support[mask].tobytes() == want.support.tobytes()
                        got = q.mass[mask] / comp_sum(q.mass[mask])
                        assert np.all(np.abs(got - want.mass) <= 2.0 * np.spacing(want.mass))
        assert min(kinds.values()) > 20

    @pytest.mark.parametrize("m", [1, 3, 16])
    def test_cut_outside_every_piece_is_no_cut(self, rng, m):
        # None, NaN, a piece end, an atom, a gap and a point beyond the
        # support leave the model as quantize(dist, m) gives it.
        for _ in range(40):
            d = random_mixed_distribution(rng, max_parts=6)
            spans = sorted([(x, x) for x, _ in d.atoms] + [(pc.lo, pc.hi) for pc in d.pieces])
            cuts = [None, math.nan, spans[0][0] - 1.0, spans[-1][1] + 1.0]
            cuts += [end for pc in d.pieces for end in (pc.lo, pc.hi)] + [x for x, _ in d.atoms]
            cuts += [(a[1] + b[0]) / 2 for a, b in zip(spans, spans[1:])]
            want = quantize(d, m)
            for c in cuts:
                q = quantize(d, m, cut=c)
                assert q.support.tobytes() == want.support.tobytes()
                assert q.mass.tobytes() == want.mass.tobytes()
                assert q.is_exact == want.is_exact

    def test_cut_inside_a_piece_adds_one_run(self):
        d = Distribution(atoms=((2.0, 0.5),), pieces=(Piece(0.0, 1.0, 0.5),))
        q = quantize(d, 4, cut=0.25)
        assert q.node_count == 1 + 2 * 4
        assert q.support.tolist() == [0.03125, 0.09375, 0.15625, 0.21875, 0.34375, 0.53125, 0.71875, 0.90625, 2.0]

    def test_refinement_sup_distance(self):
        # sup_x |cdf(x) - empirical cdf| is exactly 1/(2m) for uniform (0, 1)
        d = make_uniform_interval(0, 1)
        for m in (1, 2, 5, 16, 64):
            q = quantize(d, m)
            cum = np.cumsum(q.mass)
            sup = 0.0
            for i, x in enumerate(q.support):
                below = cum[i - 1] if i else 0.0
                sup = max(sup, abs(d.cdf(x) - below), abs(d.cdf(x) - cum[i]))
            assert abs(sup - 1.0 / (2 * m)) <= 1e-15


class TestConditionalTruncate:
    def test_uniform_interval_median(self):
        d = make_uniform_interval(0, 1)
        low, p = conditional_truncate(d, 0.5, "lower")
        assert p == pytest.approx(0.5, abs=1e-15)
        assert low.pieces[0].lo == 0.0 and low.pieces[0].hi == 0.5
        assert low.pieces[0].mass == pytest.approx(1.0, abs=1e-15)

    def test_discrete_split(self):
        d = make_discrete([1, 2, 3, 4], [0.25] * 4)
        low, p = conditional_truncate(d, 2, "lower")
        assert p == pytest.approx(0.5, abs=1e-15)
        assert [x for x, _ in low.atoms] == [1.0, 2.0]
        assert all(abs(q - 0.5) < 1e-14 for _, q in low.atoms)

    def test_empty_side_rejected(self):
        d = make_discrete([1, 2, 3], [1 / 3] * 3)
        with pytest.raises(DistributionError, match="probability"):
            conditional_truncate(d, 0.5, "lower")

    def test_upper_side(self):
        d = make_uniform_interval(0, 1)
        up, p = conditional_truncate(d, 0.25, "upper")
        assert p == pytest.approx(0.75, abs=1e-15)
        assert up.pieces[0].lo == 0.25 and up.pieces[0].hi == 1.0

    def test_atom_at_cut_goes_lower(self):
        d = make_discrete([1, 2], [0.5, 0.5])
        low, p = conditional_truncate(d, 1, "lower")
        assert p == pytest.approx(0.5)
        assert low.point_mass(1) == pytest.approx(1.0)

    def test_masses_renormalized(self, rng):
        for _ in range(20):
            d = random_mixed_distribution(rng)
            lo_supp = min(
                [x for x, _ in d.atoms] + [pc.lo for pc in d.pieces]
            )
            hi_supp = max(
                [x for x, _ in d.atoms] + [pc.hi for pc in d.pieces]
            )
            c = rng.uniform(lo_supp, hi_supp)
            p_low = d.cdf(c)
            if p_low < 1e-6 or p_low > 1 - 1e-6:
                continue
            low, p = conditional_truncate(d, c, "lower")
            up, q = conditional_truncate(d, c, "upper")
            assert p == pytest.approx(p_low, abs=1e-13)
            assert q == pytest.approx(1 - p_low, abs=1e-13)
            assert low.cdf(1e9) == pytest.approx(1.0, abs=1e-10)
            assert up.cdf(1e9) == pytest.approx(1.0, abs=1e-10)

    def test_one_cut_rule(self, rng):
        # cdf and both conditional laws cut the law the same way: at its
        # atoms, at piece ends, inside pieces, in gaps, outside the support
        # and at NaN, with atoms also sitting at piece ends.
        straddled = 0
        for _ in range(300):
            d = random_mixed_distribution(rng, max_parts=6)
            extra = [end for pc in d.pieces for end in (pc.lo, pc.hi) if rng.random() < 0.3]
            share = 0.2 if extra else 0.0
            d = Distribution(
                atoms=tuple((x, p * (1 - share)) for x, p in d.atoms) + tuple((x, share / len(extra)) for x in extra),
                pieces=tuple(Piece(pc.lo, pc.hi, pc.mass * (1 - share)) for pc in d.pieces),
            )
            spans = sorted([(x, x) for x, _ in d.atoms] + [(pc.lo, pc.hi) for pc in d.pieces])
            points = [x for x, _ in d.atoms] + [end for pc in d.pieces for end in (pc.lo, pc.hi)]
            points += [pc.lo + (pc.hi - pc.lo) * u for pc in d.pieces for u in rng.uniform(0, 1, 2)]
            points += [(a[1] + b[0]) / 2 for a, b in zip(spans, spans[1:])]
            points += [spans[0][0] - 1.0, spans[-1][1] + 1.0, math.nan]
            for c in points:
                try:
                    low, p = conditional_truncate(d, c, "lower")
                except DistributionError as err:
                    # The refusal names the side's mass, which is cdf(c).
                    assert str(err).endswith(f"leaves probability {d.cdf(c)!r}")
                    if math.isnan(c):
                        with pytest.raises(DistributionError, match="probability 0.0$"):
                            conditional_truncate(d, c, "upper")
                    continue
                assert p == d.cdf(c)
                up, q = conditional_truncate(d, c, "upper")
                assert [x for x, _ in low.atoms] == [x for x, _ in d.atoms if x <= c]
                assert [x for x, _ in low.atoms + up.atoms] == [x for x, _ in d.atoms]
                assert [(pc.lo, pc.hi) for pc in low.pieces] == [(pc.lo, min(pc.hi, c)) for pc in d.pieces if pc.lo < c]
                assert [(pc.lo, pc.hi) for pc in up.pieces] == [(max(pc.lo, c), pc.hi) for pc in d.pieces if pc.hi > c]
                for pc in d.pieces:
                    if pc.lo < c < pc.hi:
                        straddled += 1
                        cut = (c - pc.lo) / (pc.hi - pc.lo)
                        assert low.pieces[-1].mass * p == pytest.approx(pc.mass * cut, rel=1e-12)
                        assert up.pieces[0].mass * q == pytest.approx(pc.mass * (1 - cut), rel=1e-12)
        assert straddled > 100


class TestDistributionValidation:
    def test_overlapping_pieces_rejected(self):
        with pytest.raises(DistributionError, match="overlap"):
            Distribution(pieces=(Piece(0, 1, 0.5), Piece(0.5, 2, 0.5)))

    def test_atom_inside_piece_rejected(self):
        with pytest.raises(DistributionError, match="inside"):
            Distribution(atoms=((0.5, 0.5),), pieces=(Piece(0, 1, 0.5),))

    def test_overflowing_total_mass_rejected(self):
        with pytest.raises(DistributionError, match="total mass"):
            Distribution(atoms=((0.0, 1e308), (1.0, 1e308)))
        with pytest.raises(DistributionError, match="total mass"):
            Distribution(pieces=(Piece(0.0, 1.0, 1e308), Piece(1.0, 2.0, 1e308)))
        with pytest.raises(DistributionError, match="sum to 1"):
            QuantizedModel(support=[0.0, 1.0], mass=[1e308, 1e308])

    def test_atom_at_piece_endpoint_ok(self):
        Distribution(atoms=((0.0, 0.5),), pieces=(Piece(0, 1, 0.5),))

    @pytest.mark.parametrize(
        "spec, pointer",
        [
            ({"atoms": [[0, None], [1, 0.5]]}, "/atoms/0: mass"),
            ({"atoms": [[0.5, 0.5], [[1], 0.5]]}, "/atoms/1: location"),
            ({"pieces": [{"lo": 0, "hi": None, "mass": 1}]}, "/pieces/0: hi"),
            ({"pieces": [{"lo": 0, "hi": 1, "mass": 10**400}]}, "/pieces/0: mass"),
            ({"atoms": [[0, "0.5"], [1, 0.5]]}, "/atoms/0: mass"),
            ({"atoms": [["1", 1.0]]}, "/atoms/0: location"),
            ({"atoms": [[0, True]]}, "/atoms/0: mass"),
            ({"pieces": [{"lo": "0", "hi": 1, "mass": 1}]}, "/pieces/0: lo"),
        ],
    )
    def test_spec_non_number_named_by_pointer(self, spec, pointer):
        with pytest.raises(DistributionError, match=f"^{pointer} must be a number$"):
            Distribution.from_spec_dict(spec)

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"atoms": [[0, 0.5], [1, 0.5]], "extra": 3}, "distribution spec: unknown field 'extra'"),
            ({"atoms": [[0, "0.5"], [1, 0.5]], "extra": 3}, "distribution spec: unknown field 'extra'"),
            ({"pieces": [{"lo": 0, "hi": 1, "mass": 1, "width": 1}]}, "/pieces/0: unknown field 'width'"),
        ],
    )
    def test_spec_unknown_field_named(self, spec, message):
        with pytest.raises(DistributionError, match=f"^{message}$"):
            Distribution.from_spec_dict(spec)

    def test_spec_roundtrip_idempotent(self):
        spec = {
            "atoms": [[2.0, 0.25], [1.0, 0.25]],
            "pieces": [{"lo": 3.0, "hi": 4.0, "mass": 0.5}],
        }
        d1 = Distribution.from_spec_dict(spec)
        canon = d1.to_spec_dict()
        d2 = Distribution.from_spec_dict(canon)
        assert d2.to_spec_dict() == canon


class TestQuantizedModelValidation:
    def test_rejects_nonpositive_mass(self):
        from opial import QuantizedModel

        with pytest.raises(DistributionError, match="positive"):
            QuantizedModel(support=[1.0, 2.0], mass=[1.0, 0.0])

    def test_rejects_unsorted_support(self):
        from opial import QuantizedModel

        with pytest.raises(DistributionError, match="increasing"):
            QuantizedModel(support=[2.0, 1.0], mass=[0.5, 0.5])

    def test_rejects_bad_total(self):
        from opial import QuantizedModel

        with pytest.raises(DistributionError, match="sum"):
            QuantizedModel(support=[1.0, 2.0], mass=[0.5, 0.6])

    def test_arrays_read_only(self):
        from opial import QuantizedModel

        q = QuantizedModel(support=[1.0, 2.0], mass=[0.5, 0.5])
        with pytest.raises(ValueError):
            q.mass[0] = 0.3


def fsum_unnormalized(row) -> bool:
    """The mass check as one exact sum: the rule the batched decision keeps."""
    try:
        total = math.fsum(row)
    except OverflowError:
        total = math.inf
    return abs(total - 1.0) > MASS_TOL


def model_faults_reference(support, mass, sizes=None):
    """The first failed model invariant of each row, as a code indexing
    :data:`FAULT_MESSAGES`, by masked ``np.any(..., where=)`` reductions and
    ``np.select``: the reference for the model check."""
    rows, width = mass.shape
    if sizes is None:
        active = after_first = True
    else:
        active = np.arange(width) < np.asarray(sizes)[:, None]
        after_first = active[:, 1:]
    nonfinite = np.any(~(np.isfinite(support) & np.isfinite(mass)), axis=-1, where=active)
    unordered = np.any(support[:, 1:] <= support[:, :-1], axis=-1, where=after_first)
    nonpositive = np.any(mass <= 0.0, axis=-1, where=active)
    checked = ~(nonfinite | unordered | nonpositive)
    c = math.isqrt(max(width - 1, 0)) + 1
    k = -(-width // c)
    masses = np.zeros((rows, k * c))
    np.copyto(masses[:, :width], mass, where=active)
    with np.errstate(over="ignore", invalid="ignore"):
        total = masses.reshape(rows, k, c).sum(axis=-1).sum(axis=-1)
        margin = 2.0 * (k + c) * (np.finfo(float).eps / 2) * total
        off = np.abs(total - 1.0)
        unnormalized = checked & (off > MASS_TOL)
        near = checked & ~(np.abs(off - MASS_TOL) > margin)
    unnormalized[near] = [fsum_unnormalized(row) for row in masses[near].tolist()]
    return np.select([nonfinite, unordered, nonpositive, unnormalized], [1, 2, 3, 4], 0)


#: The model check's messages, in its order, indexed by the reference's codes; 0 is a valid model.
FAULT_MESSAGES = (
    None,
    "support and mass must be finite",
    "support must be strictly increasing",
    "all masses must be positive",
    "masses must sum to 1",
)


def model_error(support, mass):
    """The message :class:`QuantizedModel` raises on one model, or None."""
    try:
        QuantizedModel(support, mass)
    except DistributionError as err:
        return str(err)
    return None


def mixed_fault_batch(rng, rows, width):
    """Support, mass and sizes of `rows` models of up to `width` nodes, each
    row valid or broken in up to two ways at a random entry (which may lie
    past the row's size): NaN or +-inf, a tie, descending neighbours, a zero
    or negative mass, a sum exactly 1 or 0.5, 1 or 2 MASS_TOL off it, or an
    overflowing sum."""
    sizes = rng.integers(1, width + 1, size=rows)
    support = np.cumsum(rng.uniform(0.1, 1.0, (rows, width)), axis=1)
    mass = rng.uniform(0.5, 1.0, (rows, width))
    mass /= mass.sum(axis=1)[:, None]
    sums = [0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0]
    for r in range(rows):
        j = int(rng.integers(0, width))
        for kind in (r % 10, int(rng.integers(0, 30))):
            if kind == 0:
                (support if j % 2 else mass)[r, j] = [np.nan, np.inf, -np.inf][r % 3]
            elif kind == 1 and j:
                support[r, j] = support[r, j - 1]
            elif kind == 2 and j:
                support[r, j - 1], support[r, j] = support[r, j], support[r, j - 1]
            elif kind == 3:
                mass[r, j] = 0.0 if r % 2 else -mass[r, j]
            elif kind in (4, 5, 6, 7):
                # An exact sum of 1 over either the row's size or the whole
                # width, then moved by s MASS_TOL.
                size = int(sizes[r]) if kind % 2 else width
                mass[r] = 0.0
                mass[r, :size] = 2.0**-14
                mass[r, 0] = 1.0 - (size - 1) * 2.0**-14
                mass[r, 0] += sums[r % len(sums)] * MASS_TOL
            elif kind == 8:
                mass[r, j] = 1.7e308
                mass[r, (j + 1) % width] = 1.7e308
    return support, mass, sizes


class TestModelFaults:
    """The one-model check, reached through :class:`QuantizedModel`."""

    @pytest.mark.parametrize("width, rows", [(1, 1000), (2, 1000), (30, 1000), (8197, 60)])
    def test_codes_match_the_masked_reference(self, rng, width, rows):
        # Each row, whole or cut to its size, raises the message of the
        # reference's code, or nothing for code 0.
        support, mass, sizes = mixed_fault_batch(rng, rows, width)
        with np.errstate(all="ignore"):
            whole = model_faults_reference(support, mass)
            ragged = model_faults_reference(support, mass, sizes)
        for codes, cut in ((whole, np.full(rows, width)), (ragged, sizes)):
            got = [model_error(support[r, :size], mass[r, :size]) for r, size in enumerate(cut)]
            assert got == [FAULT_MESSAGES[code] for code in codes.tolist()]
            assert set(codes.tolist()) == ({0, 1, 3, 4} if width == 1 else {0, 1, 2, 3, 4})

    def rows_at_the_tolerance(self):
        """Rows whose exact totals lie on, and 1 and 2 ulp around, 1 +- MASS_TOL."""
        rows = []
        for edge in (1.0 + MASS_TOL, 1.0 - MASS_TOL):
            total = edge
            for _ in range(2):
                total = np.nextafter(total, 0.0)
            for _ in range(5):
                # exact splits of `total`: halvings, and a Sterbenz difference
                rows.append([total / 2, total / 4, total / 8, total / 8])
                rows.append([total - 0.5, 0.25, 0.125, 0.125])
                rows.append([0.125] * 4 + [total - 0.75, 0.125, 0.125])
                total = np.nextafter(total, 2.0)
        return rows

    def row_rounded_across_the_tolerance(self):
        """Positive masses whose rounded sums and exact sum fall on either side of 1 - MASS_TOL.

        `low` is the least double within MASS_TOL of 1 and `below` the one
        before it, whose last bit is even.  `below` plus half their gap ties
        to `below`, and the tiny third mass is lost, in a plain sum as in
        Neumaier's compensation, so both give `below` while the exact sum
        rounds up to `low`.
        """
        low = 1.0 - MASS_TOL
        while 1.0 - low > MASS_TOL:
            low = np.nextafter(low, 2.0)
        below = np.nextafter(low, 0.0)
        half = (low - below) / 2
        return [float(below), float(half), float(half) * 2.0**-60]

    def test_cheap_sum_and_fsum_differ_and_the_code_follows_fsum(self):
        row = self.row_rounded_across_the_tolerance()
        assert float(np.sum(row)) != math.fsum(row)
        assert comp_sum(np.array(row)) != math.fsum(row)
        assert abs(float(np.sum(row)) - 1.0) > MASS_TOL
        assert not fsum_unnormalized(row)
        assert model_error([0.0, 1.0, 2.0], row) is None

    def test_mass_decision_is_the_exact_sums(self, rng):
        rows = self.rows_at_the_tolerance() + [self.row_rounded_across_the_tolerance()]
        for _ in range(300):
            m = int(rng.integers(1, 40))
            mass = rng.dirichlet(np.ones(m)) * (1.0 + rng.uniform(-3.0, 3.0) * MASS_TOL)
            rows.append(mass.tolist())
        rows += [[1e308, 1e308], [1.7e308, 1e-300, 1.7e308], [5e-324, 1.0], [0.5, 0.5 + 2 * MASS_TOL]]
        want = [FAULT_MESSAGES[4] if fsum_unnormalized(row) else None for row in rows]
        assert [model_error(np.arange(len(row), dtype=float), row) for row in rows] == want
        assert None in want and FAULT_MESSAGES[4] in want
        edge = self.rows_at_the_tolerance()
        assert {fsum_unnormalized(row) for row in edge} == {True, False}

    @pytest.mark.parametrize("m", [1000, 8196, 8197, 65537])
    def test_long_rows_near_the_tolerance(self, rng, m):
        # 8197 and 65537 are one past a square, so the blocked sum pads them.
        mass = rng.uniform(0.5, 1.0, (6, m))
        mass /= mass.sum(axis=1)[:, None]
        mass *= 1.0 + MASS_TOL * np.array([-1.01, -0.99, 0.0, 0.99, 1.01, 1.0])[:, None]
        overflowing = np.full((2, m), 1e-9)
        overflowing[0, :2] = 1e308
        overflowing[1, -3:] = [1.7e308, 1e-300, 1.7e308]
        mass = np.vstack([mass, overflowing])
        support = np.arange(m, dtype=float)
        want = [4 if fsum_unnormalized(row) else 0 for row in mass.tolist()]
        assert want[:5] + want[6:] == [4, 0, 0, 0, 4, 4, 4]
        assert [model_error(support, row) for row in mass] == [FAULT_MESSAGES[code] for code in want]
        # The same rows, shortened: each keeps its first `size` entries.
        sizes = m - np.arange(mass.shape[0]) % 3
        rows = [row[:size] for row, size in zip(mass, sizes)]
        want = [FAULT_MESSAGES[4] if fsum_unnormalized(row.tolist()) else None for row in rows]
        assert [model_error(support[: row.size], row) for row in rows] == want

    def test_one_wide_row(self, rng):
        mass = rng.uniform(0.5, 1.0, 200_000)
        mass /= mass.sum()
        support = np.arange(mass.size, dtype=float)
        for scale in (-1.01, -0.99, 0.0, 0.99, 1.01):
            row = mass * (1.0 + scale * MASS_TOL)
            want = FAULT_MESSAGES[4] if fsum_unnormalized(row.tolist()) else None
            assert model_error(support, row) == want

    def test_rows_far_from_the_tolerance_skip_fsum(self, rng, monkeypatch):
        import opial.distributions as distributions

        summed = []
        monkeypatch.setattr(distributions, "_mass_total", lambda row: summed.append(row) or math.fsum(row))
        mass = rng.uniform(0.5, 1.0, (4, 8197))
        mass /= mass.sum(axis=1)[:, None]
        mass *= 1.0 + MASS_TOL * np.array([-10.0, 0.0, 0.5, 10.0])[:, None]
        support = np.arange(8197, dtype=float)
        unnormalized = FAULT_MESSAGES[4]
        assert [model_error(support, row) for row in mass] == [unnormalized, None, None, unnormalized]
        assert summed == []


class TestNodeFunction:
    def test_values_length_checked(self):
        q = quantize(make_discrete([1, 2, 3], [1 / 3] * 3), 1)
        f = NodeFunction.of_values([1.0, 2.0])
        with pytest.raises(ValueError, match="3 nodes"):
            f.resolve(q)

    def test_one_count_check_for_both_value_paths(self):
        q = quantize(make_discrete([1, 2, 3], [1 / 3] * 3), 1)
        message = "value vector has 2 entries but the model has 3 nodes"
        for call in (
            lambda: node_values([1.0, 2.0], q),
            lambda: NodeFunction.of_values([1.0, 2.0]).resolve(q),
            lambda: opial_terms(q, [1.0, 2.0]),
        ):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == message

    def test_node_values_flattens_to_floats(self):
        q = quantize(make_discrete([1, 2, 3, 4], [1 / 4] * 4), 1)
        vals = node_values([[1, 2], [3, 4]], q)
        assert vals.dtype == float and vals.tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_midpoint_cdf_is_the_strict_prefix_plus_half_the_mass(self, rng):
        for _ in range(50):
            q = random_atomic_model(rng, m_max=200)
            want = prefix_exclusive(q.mass) + 0.5 * q.mass
            assert q.midpoint_cdf().view(np.int64).tolist() == want.view(np.int64).tolist()

    def test_cos_pi_cdf_uses_midpoint(self):
        q = quantize(make_uniform_interval(0, 1), 4)
        vals = NodeFunction.cos_pi_cdf().resolve(q)
        expected = np.cos(np.pi * np.array([0.125, 0.375, 0.625, 0.875]))
        assert np.allclose(vals, expected, atol=1e-15)

    def test_step(self):
        q = quantize(make_uniform_interval(0, 1), 4)
        vals = NodeFunction.step(0.5, 1.0, -1.0).resolve(q)
        assert vals.tolist() == [1.0, 1.0, -1.0, -1.0]

    def test_identity(self):
        q = quantize(make_discrete([3, 7], [0.5, 0.5]), 1)
        assert NodeFunction.identity().resolve(q).tolist() == [3.0, 7.0]

    def test_spec_roundtrip(self):
        specs = {
            "constant": {"kind": "constant", "level": 2.0},
            "identity": {"kind": "identity"},
            "cos_pi_F": {"kind": "cos_pi_F"},
            "step": {"kind": "step", "threshold": 0.5, "low": 1.0, "high": -1.0},
            "values": {"kind": "values", "values": [1.0, 2.0]},
        }
        for kind in NODE_FUNCTION_KINDS:
            f = NodeFunction.from_spec(specs[kind])
            assert f.kind == kind
            assert f.to_spec() == specs[kind]
            assert NodeFunction.from_spec(f.to_spec()) == f

    @pytest.mark.parametrize("kind", ["spline", ["x"], {}, 1, None])
    def test_unknown_kind(self, kind):
        with pytest.raises(ValueError, match="unknown node-function kind"):
            NodeFunction.from_spec({"kind": kind})

    @pytest.mark.parametrize("name", ["constant", " identity ", "cos_pi_F"])
    def test_bare_names(self, name):
        assert NodeFunction.from_spec(name) == NodeFunction.from_spec({"kind": name.strip()})

    @pytest.mark.parametrize("name", ["step", "values", "spline"])
    def test_bare_name_needing_fields_is_unknown(self, name):
        with pytest.raises(ValueError, match=f"unknown node-function name '{name}'"):
            NodeFunction.from_spec(name)

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"kind": "step", "low": 1.0, "high": 0.0}, "step spec missing field 'threshold'"),
            ({"kind": "step", "threshold": None, "low": 1.0}, "step spec missing field 'high'"),
            ({"kind": "values"}, "values spec missing field 'values'"),
        ],
    )
    def test_missing_field_messages(self, spec, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            NodeFunction.from_spec(spec)

    @pytest.mark.parametrize(
        "spec, field",
        [
            ({"kind": "values", "values": 5}, "values"),
            ({"kind": "values", "values": "1234"}, "values"),
            ({"kind": "values", "values": [1.0, None]}, "values"),
            ({"kind": "constant", "level": None}, "level"),
            ({"kind": "constant", "level": [1]}, "level"),
            ({"kind": "step", "threshold": 0.5, "low": 1.0, "high": None}, "high"),
            ({"kind": "step", "threshold": 10**400, "low": 1.0, "high": 0.0}, "threshold"),
            ({"kind": "values", "values": ["1", "2", "3", "4"]}, "values"),
            ({"kind": "values", "values": [1.0, True]}, "values"),
            ({"kind": "constant", "level": "2.5"}, "level"),
            ({"kind": "constant", "level": False}, "level"),
            ({"kind": "step", "threshold": "0.5", "low": 1.0, "high": 0.0}, "threshold"),
        ],
    )
    def test_non_number_fields_named(self, spec, field):
        with pytest.raises(ValueError, match=f"node-function {field} must be"):
            NodeFunction.from_spec(spec)

    @pytest.mark.parametrize(
        "value, message",
        [
            (10**400, "node-function values must be a list of numbers"),
            (float("nan"), "node-function values must be finite"),
            (1e400, "node-function values must be finite"),
            ("3", "node-function values must be a list of numbers"),
            (True, "node-function values must be a list of numbers"),
        ],
    )
    def test_values_messages(self, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            NodeFunction.from_spec({"kind": "values", "values": [1.0, value, 2]})

    def test_values_converted_to_floats(self):
        from_spec = NodeFunction.from_spec({"kind": "values", "values": [1, 2.5, -3]})
        from_generator = NodeFunction.of_values(v for v in (1, 2.5, -3))
        for f in (from_spec, from_generator):
            assert f.values == (1.0, 2.5, -3.0)
            assert all(type(v) is float for v in f.values)
        assert from_spec == from_generator
        with pytest.raises(ValueError, match="^node-function values must be finite$"):
            NodeFunction.of_values(v for v in (1.0, float("inf")))

    WAYS_IN = pytest.mark.parametrize(
        "make",
        [
            lambda values: NodeFunction.of_values(values),
            lambda values: NodeFunction(kind="values", values=tuple(values)),
            lambda values: NodeFunction.from_spec({"kind": "values", "values": list(values)}),
        ],
        ids=["of_values", "constructor", "from_spec"],
    )

    @WAYS_IN
    def test_int_too_large_for_a_double_is_the_spec_error(self, make):
        # Every way in raises from_spec's ValueError, not float()'s OverflowError.
        with pytest.raises(ValueError, match="^node-function values must be a list of numbers$"):
            make([1, 10**400])

    @WAYS_IN
    @pytest.mark.parametrize(
        "values", [["1", "2"], [True, 2], [1.0, False], [None], [[1.0]], [1.0, "nan"]]
    )
    def test_non_numbers_are_the_spec_error(self, make, values):
        # float() would take a numeric string or a boolean; no way in does.
        with pytest.raises(ValueError, match="^node-function values must be a list of numbers$"):
            make(values)

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"kind": "constant", "level": "2.5", "bogus": 1}, "constant spec: unknown field 'bogus'"),
            ({"kind": "step", "threshold": 0, "low": 1, "high": 2, "level": 7}, "step spec: unknown field 'level'"),
            ({"kind": "identity", "values": [1.0]}, "identity spec: unknown field 'values'"),
        ],
    )
    def test_unknown_fields_named(self, spec, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            NodeFunction.from_spec(spec)
