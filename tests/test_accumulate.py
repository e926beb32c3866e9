import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opial.accumulate import (
    COMPENSATED,
    PLAIN,
    comp_sum,
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
