import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_atomic_model

from opial import functionals as fn
from opial.accumulate import (
    COMPENSATED,
    PLAIN,
    Passes,
    comp_sum,
    half_tie,
    plain_prefix,
    plain_suffix,
    plain_sum,
    prefix_exclusive,
    suffix_exclusive,
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-1e12, max_value=1e12, allow_nan=False),
        min_size=0,
        max_size=50,
    )
)
def test_comp_sum_tracks_fsum(values):
    exact = math.fsum(values)
    assert comp_sum(values) == pytest.approx(exact, rel=1e-15, abs=1e-3)


def test_comp_sum_cancellation():
    # naive accumulation loses the tiny term entirely
    values = [1e16, 1.0, -1e16]
    assert comp_sum(values) == 1.0


def test_prefix_exclusive_shape():
    out = prefix_exclusive([1.0, 2.0, 3.0])
    assert out.tolist() == [0.0, 1.0, 3.0]


def test_suffix_exclusive_shape():
    out = suffix_exclusive([1.0, 2.0, 3.0])
    assert out.tolist() == [5.0, 3.0, 0.0]


def test_prefix_suffix_complement(rng):
    values = rng.standard_normal(40)
    total = comp_sum(values)
    recombined = prefix_exclusive(values) + suffix_exclusive(values) + values
    assert np.allclose(recombined, total, atol=1e-13)


def test_prefix_beats_naive_on_ill_conditioned():
    rng = np.random.default_rng(99)
    big = rng.uniform(1e9, 1e10, 500)
    small = rng.uniform(1e-6, 1e-5, 500)
    values = np.ravel(np.column_stack([big, -big])) + np.repeat(small, 2)[: 1000]
    exact = math.fsum(values.tolist())
    assert abs(comp_sum(values) - exact) <= 1e-9 * max(1.0, abs(exact))


# ---------------------------------------------------------------------------
# row-wise passes against the scalar Neumaier loop, bit for bit
# ---------------------------------------------------------------------------


def neumaier_prefix(values):
    """Scalar reference: exclusive running sums and the total, one loop."""
    out = []
    s = 0.0
    c = 0.0
    for v in [float(x) for x in values]:
        out.append(s + c)
        t = s + v
        if abs(s) >= abs(v):
            c += (s - t) + v
        else:
            c += (v - t) + s
        s = t
    return out, s + c


def bits(values):
    """Exact bit patterns, so that -0.0 and +0.0 differ."""
    return np.asarray(values, dtype=float).reshape(-1).view(np.int64).tolist()


def assert_rows_match_loop(rows):
    rows = np.asarray(rows, dtype=float)
    prefix = prefix_exclusive(rows)
    suffix = suffix_exclusive(rows)
    totals = comp_sum(rows)
    assert prefix.shape == suffix.shape == rows.shape
    assert np.shape(totals) == rows.shape[:-1]
    for index in np.ndindex(rows.shape[:-1]):
        row = rows[index]
        want_prefix, want_total = neumaier_prefix(row)
        want_suffix = neumaier_prefix(row[::-1])[0][::-1]
        assert bits(prefix[index]) == bits(want_prefix)
        assert bits(suffix[index]) == bits(want_suffix)
        assert bits([totals[index]]) == bits([want_total])


def spread_row(rng, n):
    """Random signs and magnitudes spanning 40 decades."""
    return rng.standard_normal(n) * 10.0 ** rng.uniform(-20.0, 20.0, n)


def test_rows_match_loop_over_forty_decades():
    rng = np.random.default_rng(404)
    for _ in range(300):
        row = spread_row(rng, int(rng.integers(0, 64)))
        assert_rows_match_loop(row[None, :])
        want_prefix, want_total = neumaier_prefix(row)
        assert bits(prefix_exclusive(row)) == bits(want_prefix)
        assert bits([comp_sum(row)]) == bits([want_total])
        assert type(comp_sum(row)) is float


def test_2d_and_3d_batches_match_loop():
    rng = np.random.default_rng(405)
    assert_rows_match_loop(spread_row(rng, 40 * 17).reshape(40, 17))
    assert_rows_match_loop(spread_row(rng, 3 * 5 * 9).reshape(3, 5, 9))


def test_zero_padding_leaves_each_row_unchanged():
    rng = np.random.default_rng(406)
    for _ in range(200):
        n = int(rng.integers(1, 30))
        row = spread_row(rng, n)
        lead, trail = (int(k) for k in rng.integers(0, 8, 2))
        sign = float(rng.choice([1.0, -1.0]))
        padded = np.concatenate((np.full(lead, sign * 0.0), row, np.full(trail, sign * 0.0)))
        assert_rows_match_loop(padded[None, :])
        want_prefix, want_total = neumaier_prefix(row)
        want_suffix = neumaier_prefix(row[::-1])[0][::-1]
        assert bits([comp_sum(padded)]) == bits([want_total])
        assert bits(prefix_exclusive(padded)[lead : lead + n]) == bits(want_prefix)
        assert bits(suffix_exclusive(padded)[lead : lead + n]) == bits(want_suffix)


def test_empty_single_and_signed_zero_inputs():
    assert comp_sum([]) == 0.0 and prefix_exclusive([]).shape == (0,)
    assert suffix_exclusive([]).shape == (0,)
    assert comp_sum(np.zeros((3, 0))).tolist() == [0.0, 0.0, 0.0]
    for row in ([2.5], [-0.0], [0.0], [-0.0, -0.0], [-0.0, 1.0, -1.0, -0.0], [1e308, 1e308, -1e308]):
        assert_rows_match_loop(np.asarray(row)[None, :])
        want_prefix, want_total = neumaier_prefix(row)
        assert bits(prefix_exclusive(row)) == bits(want_prefix)
        assert bits([comp_sum(row)]) == bits([want_total])
    assert comp_sum(3.0) == 3.0


def same_or_both_nan(got, want):
    """NaN exactly where `want` is NaN, and every other entry bit-identical."""
    got, want = np.asarray(got, dtype=float).reshape(-1), np.asarray(want, dtype=float).reshape(-1)
    nan = np.isnan(want)
    return np.array_equal(np.isnan(got), nan) and bits(got[~nan]) == bits(want[~nan])


def test_long_row_over_forty_decades_matches_loop():
    # One 8 196-node row: the shape of every pass on a large quantized model.
    row = spread_row(np.random.default_rng(408), 8196)
    assert_rows_match_loop(row[None, :])
    want_prefix, want_total = neumaier_prefix(row)
    assert bits(prefix_exclusive(row)) == bits(want_prefix)
    assert bits([comp_sum(row)]) == bits([want_total])


def test_views_and_read_only_inputs_match_loop_and_stay_unwritten(rng):
    block = spread_row(rng, 9 * 40).reshape(9, 40)
    model = random_atomic_model(rng, m_min=20, m_max=40)
    assert not model.mass.flags.writeable
    for view in (block[0, ::-1], block[1, ::2], block[:, 3], block[::-2, 5:], model.mass):
        before = view.copy()
        assert_rows_match_loop(np.atleast_2d(view))
        assert bits(view) == bits(before)


BIG = np.finfo(float).max

#: Rows whose running sum overflows mid-row, rows holding inf or NaN, and
#: rows next to the largest float, where Knuth's TwoSum overflows in ``t - s``
#: although the sum and the loop's error are finite.
NON_FINITE_ROWS = [
    [1e308, 1e308, -1e308, 2.0],
    [1.0, 1e308, 1e308, 3.0, -1e308],
    [-1e308, -1e308, 5.0],
    [1.0, np.inf, 2.0],
    [np.inf, -np.inf, 1.0],
    [-np.inf, 1.0, 2.0],
    [1.0, np.nan, 2.0],
    [np.nan],
    [8.096975377736175e307, -BIG, 1.0],
    [-8.811710735134989e307, BIG, 0.5],
    [1.0, BIG, -BIG, 1e-300],
    [BIG, -1.0, -BIG, 2.0],
]


@pytest.mark.parametrize("row", NON_FINITE_ROWS)
def test_overflow_inf_and_nan_rows_match_loop(row):
    want_prefix, want_total = neumaier_prefix(row)
    want_suffix = neumaier_prefix(row[::-1])[0][::-1]
    assert same_or_both_nan(prefix_exclusive(row), want_prefix)
    assert same_or_both_nan(suffix_exclusive(row), want_suffix)
    assert same_or_both_nan([comp_sum(row)], [want_total])
    # In a batch, a non-finite row changes no other row.
    finite = np.arange(1.0, len(row) + 1.0)
    batch = np.array([finite, row, finite[::-1]])
    assert same_or_both_nan(prefix_exclusive(batch)[1], want_prefix)
    assert same_or_both_nan(comp_sum(batch)[1:2], [want_total])
    assert bits(prefix_exclusive(batch)[0]) == bits(neumaier_prefix(finite)[0])
    assert bits(suffix_exclusive(batch)[2]) == bits(neumaier_prefix(finite)[0][::-1])


def test_overflowing_rows_raise_no_warning():
    # The passes are silent on overflow, like the loop's Python floats.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for values in ([1e308, 1e308, -1e308], [[1e308, 1e308, -1e308], [1.0, 2.0, 3.0]]):
            prefix_exclusive(values)
            suffix_exclusive(values)
            comp_sum(values)


def test_total_equals_the_prefix_paths_total():
    # comp_sum reads the last column only; the prefix pass over the row and
    # one more zero ends in the same total.
    rng = np.random.default_rng(409)
    for shape in ((8196,), (1, 8196), (256, 30), (3, 5, 9), (4, 0)):
        rows = spread_row(rng, math.prod(shape)).reshape(shape)
        padded = np.concatenate((rows, np.zeros(shape[:-1] + (1,))), axis=-1)
        assert bits(comp_sum(rows)) == bits(prefix_exclusive(padded)[..., -1])


# ---------------------------------------------------------------------------
# every model kernel on the scalar loop, bit for bit
# ---------------------------------------------------------------------------


def loop_rows(values):
    """The scalar loop on each row along the last axis: its exclusive sums, then its total."""
    vals = np.asarray(values, dtype=float)
    out = np.empty(vals.shape[:-1] + (vals.shape[-1] + 1,))
    for index in np.ndindex(vals.shape[:-1]):
        prefix, total = neumaier_prefix(vals[index])
        out[index] = prefix + [total]
    return out


def loop_total(values):
    total = loop_rows(values)[..., -1]
    return float(total) if total.ndim == 0 else total


#: The passes of the scalar loop, row by row.
LOOP = Passes(
    lambda values: loop_rows(values)[..., :-1],
    lambda values: loop_rows(np.asarray(values, dtype=float)[..., ::-1])[..., :-1][..., ::-1],
    loop_total,
)


def kernel_cases(p, vals, chi, orders):
    """(name, call) for every model kernel, `passes` left open."""
    half = vals.shape[-1] // 2
    cases = [
        ("opial-below", lambda passes: fn.opial_rows(p, vals, "below", passes)),
        ("opial-above", lambda passes: fn.opial_rows(p, vals, "above", passes)),
        (
            "corollary",
            lambda passes: fn.corollary_rows(p[..., :half], vals[..., :half], p[..., half:], vals[..., half:], passes),
        ),
        ("thm2-per-row", lambda passes: fn.theorem2_rows(p, vals, orders, passes)),
        ("thm3", lambda passes: fn.theorem3_rows(p, vals, passes)),
        ("weighted-below", lambda passes: fn.weighted_rows(p, vals, chi, "below", passes)),
        ("weighted-above", lambda passes: fn.weighted_rows(p, vals, chi, "above", passes)),
        ("wirtinger", lambda passes: fn.wirtinger_rows(p, vals, passes)),
    ]
    for n in range(1, fn.ORDER_CAP + 1):
        cases.append((f"thm2-n{n}", lambda passes, n=n: fn.theorem2_rows(p, vals, n, passes)))
    return cases


def assert_kernels_match_loop(p, vals, chi, orders):
    for name, call in kernel_cases(p, vals, chi, orders):
        got, want = call(COMPENSATED), call(LOOP)
        assert set(got) == set(want), name
        for key in want:
            assert np.shape(got[key]) == np.shape(want[key]), (name, key)
            assert bits(got[key]) == bits(want[key]), (name, key)


def test_no_weight_is_weight_one_bit_for_bit():
    # The unweighted kernels skip the product with chi, since x * 1.0 == x.
    rng = np.random.default_rng(412)
    p = rng.dirichlet(np.ones(50), 4)
    vals = rng.standard_normal((4, 50)) * 10.0 ** rng.uniform(-8.0, 8.0, (4, 50))
    for direction in ("below", "above"):
        plain = fn.opial_rows(p, vals, direction)
        weighted = fn.weighted_rows(p, vals, np.ones_like(p), direction)
        for key in ("lhs", "middle"):
            assert bits(plain[key]) == bits(weighted[key]), (direction, key)


def test_loop_passes_are_the_reference():
    row = [1.0, 1e16, -1e16, 3.0]
    assert LOOP.prefix(row).tolist() == neumaier_prefix(row)[0]
    assert LOOP.suffix(row).tolist() == neumaier_prefix(row[::-1])[0][::-1]
    assert LOOP.total(row) == neumaier_prefix(row)[1] == 4.0


def test_model_kernels_match_loop_on_rows():
    rng = np.random.default_rng(410)
    for _ in range(25):
        m = int(rng.integers(2, 40))
        p = rng.dirichlet(np.ones(m))
        vals = rng.standard_normal(m) * 10.0 ** rng.uniform(-3.0, 3.0, m)
        chi = rng.uniform(0.0, 3.0, m)
        assert_kernels_match_loop(p, vals, chi, int(rng.integers(1, fn.ORDER_CAP + 1)))


def test_model_kernels_match_loop_on_zero_padded_batches():
    rng = np.random.default_rng(411)
    rows, width = 12, 24
    sizes = rng.integers(2, width + 1, rows)
    active = np.arange(width) < sizes[:, None]
    p = np.where(active, rng.dirichlet(np.ones(width), rows), 0.0)
    vals = np.where(active, rng.standard_normal((rows, width)), 0.0)
    chi = np.where(active, rng.uniform(0.0, 3.0, (rows, width)), 0.0)
    assert_kernels_match_loop(p, vals, chi, rng.integers(1, fn.ORDER_CAP + 1, rows))


# ---------------------------------------------------------------------------
# plain passes, within the a-priori bound of the compensated ones
# ---------------------------------------------------------------------------


def gamma(k):
    """Higham's gamma_k = k u / (1 - k u), u the unit roundoff."""
    ku = k * np.finfo(float).eps / 2
    return ku / (1.0 - ku)


#: Finite floats of either sign spanning 60 decades, zeros included.
mixed_magnitudes = st.builds(
    lambda mantissa, exponent: mantissa * 10.0**exponent,
    st.floats(min_value=-1.0, max_value=1.0),
    st.integers(min_value=-30, max_value=30),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(mixed_magnitudes, min_size=0, max_size=80))
def test_plain_passes_within_gamma_n_of_compensated(values):
    x = np.asarray(values, dtype=float)
    bound = gamma(x.size) * math.fsum(np.abs(x).tolist())
    assert np.all(np.abs(plain_prefix(x) - prefix_exclusive(x)) <= bound)
    assert np.all(np.abs(plain_suffix(x) - suffix_exclusive(x)) <= bound)
    assert abs(plain_sum(x) - comp_sum(x)) <= bound


def test_plain_passes_shapes_and_exact_cases():
    assert plain_prefix([1.0, 2.0, 3.0]).tolist() == [0.0, 1.0, 3.0]
    assert plain_suffix([1.0, 2.0, 3.0]).tolist() == [5.0, 3.0, 0.0]
    assert plain_prefix([]).shape == plain_suffix([]).shape == (0,)
    assert plain_prefix(2.0).tolist() == plain_suffix(2.0).tolist() == [0.0]
    assert type(plain_sum([1.0, 2.0])) is float and plain_sum(np.zeros((3, 0))).tolist() == [0.0] * 3
    rows = spread_row(np.random.default_rng(407), 4 * 6).reshape(4, 6)
    for index in range(4):
        row = rows[index]
        assert plain_prefix(rows)[index].tolist() == plain_prefix(row).tolist()
        assert plain_suffix(rows)[index].tolist() == plain_suffix(row).tolist()
    assert plain_sum(rows).shape == (4,)


def test_pass_bundles():
    assert (COMPENSATED.prefix, COMPENSATED.suffix, COMPENSATED.total) == (
        prefix_exclusive,
        suffix_exclusive,
        comp_sum,
    )
    assert (PLAIN.prefix, PLAIN.suffix, PLAIN.total) == (plain_prefix, plain_suffix, plain_sum)


@pytest.mark.parametrize("passes", [COMPENSATED, PLAIN])
@pytest.mark.parametrize("tie", [0.0, 0.5, 1.0])
def test_half_tie_is_the_strict_pass_plus_the_tie(rng, passes, tie):
    weighted = rng.standard_normal((5, 17)) * 10.0 ** rng.uniform(-8, 8, (5, 17))
    below = passes.prefix(weighted) + tie * weighted
    above = passes.suffix(weighted) + tie * weighted
    assert half_tie(weighted, "below", passes, tie).tolist() == below.tolist()
    assert half_tie(weighted, "above", passes, tie).tolist() == above.tolist()


@pytest.mark.parametrize("direction", ["sideways", "Below", "", None])
def test_half_tie_refuses_an_unknown_direction(direction):
    with pytest.raises(ValueError, match=f"direction must be 'below' or 'above', got {direction!r}"):
        half_tie(np.ones(3), direction)
