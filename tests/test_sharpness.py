import dataclasses
import json
import math

import numpy as np
import pytest

from opial import functionals as fn
from opial import sharpness
from opial import (
    Distribution,
    DistributionError,
    QuantizedModel,
    make_discrete,
    make_uniform_interval,
    quantize,
    rayleigh_best_constant,
    search_counterexample,
    wirtinger_best_constant,
)
from opial.functionals import INV_PI_SQ
from opial.accumulate import comp_sum
from opial.functionals import FUNCTIONALS, SEARCHABLE_IDS, THEOREM_BACKED_IDS
from opial.distributions import MASS_TOL
from opial.sharpness import (
    BLOCK_TRIALS,
    CHUNK_ELEMENTS,
    ConvergenceError,
    Violation,
    convergence_study,
)

from conftest import random_atomic_model


def uniform_model(n):
    return quantize(make_discrete(range(1, n + 1), [1.0 / n] * n), 1)


def first_order_ratio(model, functional="thm1-lower"):
    """Best middle/rhs ratio: the engine's constant over the stated 1/2."""
    result = rayleigh_best_constant(model, functional)
    return result, result.c_m / 0.5


class TestMaximizeRatioOpial:
    """The first-order ratio (E|psi|)^2 / E psi^2, maximized by the engine."""

    def test_uniform_ten_converges_to_constant(self):
        result, ratio = first_order_ratio(uniform_model(10))
        assert result.converged
        assert abs(ratio - 1.0) <= 1e-14
        psi = result.psi_star
        spread = (psi.max() - psi.min()) / psi.mean()
        assert spread <= 1e-12

    def test_single_atom_immediate(self):
        result, ratio = first_order_ratio(uniform_model(1))
        assert ratio == 1.0 and result.iterations == 1

    def test_skewed_two_atoms_maximizer_constant(self):
        model = quantize(make_discrete([0.0, 1.0], [0.9, 0.1]), 1)
        result, ratio = first_order_ratio(model)
        assert abs(ratio - 1.0) <= 1e-14
        psi = result.psi_star
        assert (psi.max() - psi.min()) / psi.mean() <= 1e-12
        # grid-search oracle over normalized 2-vectors
        best = 0.0
        p = model.mass
        for t in np.linspace(0.01, 0.99, 199):
            cand = np.array([t, 1 - t])
            best = max(best, np.sum(p * cand) ** 2 / np.sum(p * cand * cand))
        assert ratio >= best - 1e-12

    def test_trace_nondecreasing(self, rng):
        for _ in range(10):
            q = random_atomic_model(rng, m_max=20, m_min=2)
            result, ratio = first_order_ratio(q)
            values = [c for _, c in result.trace]
            assert all(b >= a for a, b in zip(values, values[1:]))
            assert abs(ratio - 1.0) <= 1e-14
            assert result.iterations <= 3

    def test_both_directions_agree(self, rng):
        # Both directions share one symmetric form, so the results are equal.
        q = random_atomic_model(rng, m_max=15, m_min=2)
        below, _ = first_order_ratio(q, "thm1-lower")
        above, _ = first_order_ratio(q, "thm1-upper")
        assert below.c_m == above.c_m
        assert np.array_equal(below.psi_star, above.psi_star)


def dense_form(functional, p):
    """K of the functional's tight term, built entrywise from its definition."""
    m = p.size
    if functional == "wirtinger":
        lower = np.tril(np.ones((m, m)), -1) * p[None, :]
        return lower.T @ np.diag(p) @ lower
    # middle = sum_i p_i a_i sum_j p_j a_j w_ij, w the half-tie indicator
    below = np.tril(np.ones((m, m)), -1) + 0.5 * np.eye(m)
    middle = np.diag(p) @ below @ np.diag(p)
    return (middle + middle.T) / 2


class TestWirtingerBestConstant:
    def test_two_node_closed_form(self):
        result = wirtinger_best_constant(2)
        assert result.c_m == pytest.approx(0.125, abs=1e-15)

    def test_converges_to_inverse_pi_squared(self):
        result = wirtinger_best_constant(1000)
        assert abs(result.c_m - INV_PI_SQ) <= 1e-3
        assert result.converged

    def test_error_decreases_over_grids(self):
        errors = [abs(wirtinger_best_constant(m).c_m - INV_PI_SQ) for m in (100, 400, 1600)]
        assert errors[0] > errors[1] > errors[2]

    def test_extremal_vector_matches_cosine(self):
        result = wirtinger_best_constant(1000)
        model = quantize(make_uniform_interval(0, 1), 1000)
        reference = np.cos(math.pi * model.midpoint_cdf())
        cos_sim = abs(result.psi_star @ reference) / (
            np.linalg.norm(result.psi_star) * np.linalg.norm(reference)
        )
        assert cos_sim >= 0.999

    def test_matches_dense_eigensolver(self, rng):
        solved = [k for k, f in FUNCTIONALS.items() if f.form is not None]
        assert set(solved) == {"thm1-lower", "thm1-upper", "wirtinger"}
        for functional in solved:
            for _ in range(8):
                q = random_atomic_model(rng, m_max=14, m_min=2)
                p = q.mass
                m = q.node_count
                sq = np.sqrt(p)
                sym = dense_form(functional, p) / sq[:, None] / sq[None, :]
                if FUNCTIONALS[functional].zero_mean:
                    proj = np.eye(m) - np.outer(sq, sq)
                    sym = proj @ sym @ proj
                dense = np.linalg.eigvalsh(sym)[-1]
                result = rayleigh_best_constant(q, functional)
                assert result.c_m == pytest.approx(dense, rel=1e-9, abs=1e-12), functional

    def test_eigen_residual(self):
        result = wirtinger_best_constant(500)
        model = quantize(make_uniform_interval(0, 1), 500)
        p = model.mass
        psi = result.psi_star
        lower = np.concatenate(([0.0], np.cumsum(p * psi)[:-1]))
        m_psi = p * np.concatenate((np.cumsum((p * lower)[::-1])[::-1][1:], [0.0]))
        residual = m_psi - result.c_m * p * psi
        sq = np.sqrt(p)
        residual_sym = residual / sq
        residual_sym -= (sq @ residual_sym) * sq
        assert np.linalg.norm(residual_sym) <= 1e-8 * np.linalg.norm(p * psi)

    def test_trace_nondecreasing(self):
        result = wirtinger_best_constant(300)
        values = [c for _, c in result.trace]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_zero_mean_requires_two_nodes(self):
        with pytest.raises(ValueError):
            wirtinger_best_constant(1)

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(sharpness, "MAX_ITER", 1)
        with pytest.raises(ConvergenceError):
            wirtinger_best_constant(800)

    def test_deterministic(self):
        a = wirtinger_best_constant(200)
        b = wirtinger_best_constant(200)
        assert a.c_m == b.c_m
        assert np.array_equal(a.psi_star, b.psi_star)
        assert a.trace == b.trace


class TestOneAdmissibleDirection:
    """One node for thm1-*, two for wirtinger: the iteration stops at once."""

    @pytest.mark.parametrize("functional", ["thm1-lower", "thm1-upper", "wirtinger"])
    def test_single_quotient(self, functional, rng):
        zero_mean = FUNCTIONALS[functional].zero_mean
        m = 2 if zero_mean else 1
        for _ in range(50):
            q = random_atomic_model(rng, m_max=m, m_min=m)
            p = q.mass
            psi = np.array([p[1], -p[0]]) if zero_mean else np.ones(1)
            want = psi @ dense_form(functional, p) @ psi / (p @ (psi * psi))
            result = rayleigh_best_constant(q, functional)
            assert result.c_m == pytest.approx(want, rel=1e-13, abs=0.0)
            assert result.converged and result.iterations <= 2
            assert result.residual <= 1e-15
            # The maximizer is the one direction, normalized to E psi^2 = 1.
            assert abs(result.psi_star @ (p * psi)) == pytest.approx(math.sqrt(p @ (psi * psi)), rel=1e-13)


class TestConvergenceStudy:
    def test_thm1_exact_at_every_resolution(self):
        study = convergence_study("thm1-lower", [4, 16, 64])
        for row in study.rows:
            assert abs(row.value - 1.0) <= 1e-14

    def test_thm2_first_order_convergence(self):
        study = convergence_study("thm2", [16, 64, 256, 1024], n=2)
        errors = [row.error for row in study.rows]
        assert errors[-1] <= errors[0] / 32.0
        assert 0.8 <= study.fitted_order <= 1.2
        # closed form: the value is prod_{k<=n} (1 - k/m)
        for row in study.rows:
            expected = (1 - 1 / row.m) * (1 - 2 / row.m)
            assert row.value == pytest.approx(expected, rel=1e-13)

    def test_wirtinger_errors_shrink(self):
        study = convergence_study("wirtinger", [100, 400])
        assert study.rows[1].error < study.rows[0].error
        assert study.rows[1].value == pytest.approx(INV_PI_SQ, abs=1e-3)

    def test_grids_validated(self):
        with pytest.raises(ValueError, match="increasing"):
            convergence_study("thm1-lower", [16, 8])
        with pytest.raises(ValueError, match="order n"):
            convergence_study("thm2", [16, 32])

    def test_csv_rows(self):
        study = convergence_study("thm2", [16, 64], n=1)
        rows = study.to_csv_rows()
        assert rows[0] == ["m", "value", "error", "fitted_order"]
        assert len(rows) == 3


class TestSearchCounterexample:
    def test_sound_functionals_find_nothing_quick(self):
        for functional in THEOREM_BACKED_IDS:
            assert search_counterexample(functional, trials=1500, seed=7, m_max=12) is None

    def test_wirtinger_on_atoms_is_heuristic(self):
        violation = search_counterexample("wirtinger", trials=500, seed=1, m_max=4)
        assert violation is not None
        assert violation.heuristic
        assert violation.slack < 0

    def test_deterministic_under_seed(self):
        a = search_counterexample("wirtinger", trials=300, seed=3, m_max=4)
        b = search_counterexample("wirtinger", trials=300, seed=3, m_max=4)
        assert a is not None and b is not None
        assert a.trial == b.trial and a.instance == b.instance

    def test_unknown_functional(self):
        with pytest.raises(ValueError, match="search"):
            search_counterexample("troy", trials=1, seed=0)

    def test_theorem_backed_list_shape(self):
        assert "wirtinger" not in THEOREM_BACKED_IDS
        assert "thm1-lower" in THEOREM_BACKED_IDS

    def test_trial_count_must_be_positive(self):
        for trials in (0, -5):
            with pytest.raises(ValueError, match="trials"):
                search_counterexample("thm1-lower", trials=trials, seed=0)


# ---------------------------------------------------------------------------
# the block stream against a trial-by-trial loop over the public evaluators
# ---------------------------------------------------------------------------


def pad(values, sizes):
    return np.where(np.arange(values.shape[1]) < sizes[:, None], values, 0.0)


def draw_block(functional, seed, block, m_max):
    """Block `block`'s arrays, drawn in the search's documented order."""
    rows = max(1, min(BLOCK_TRIALS, CHUNK_ELEMENTS // m_max))
    rng = np.random.default_rng([seed, block])
    shape = (rows, m_max)
    if functional in fn.DISCRETE_IDENTITY_IDS or functional == "rtwo":
        sizes = rng.integers(1, m_max + 1, size=rows)
        a = pad(rng.standard_normal(shape), sizes)
        if functional in ("o15", "o18"):
            # centred by the mean over the zero-padded row; size-1 rows skipped
            return {"sizes": sizes, "a": pad(a - (a.sum(axis=1) / sizes)[:, None], sizes), "skip": sizes == 1}
        return {"sizes": sizes, "a": np.abs(a) if functional == "rtwo" else a}
    sizes = rng.integers(2, m_max + 1, size=rows)
    gaps = rng.uniform(0.1, 1.0, shape)
    support = pad(np.cumsum(gaps, axis=1) + rng.uniform(-3.0, 3.0, rows)[:, None], sizes)
    exponentials = pad(rng.standard_exponential(shape), sizes)
    mass = pad(np.maximum(exponentials / exponentials.sum(axis=1)[:, None], 1e-9), sizes)
    mass /= mass.sum(axis=1)[:, None]
    psi = pad(rng.standard_normal(shape), sizes)
    block = {"sizes": sizes, "support": support, "mass": mass, "psi": psi}
    if functional == "thm2":
        block["n"] = rng.integers(1, 4, size=rows)
    elif functional in ("weighted-lower", "weighted-upper"):
        block["chi"] = pad(rng.uniform(0.0, 3.0, shape), sizes)
    elif functional == "corollary":
        # the support point of a split index drawn from 1 to size - 1
        cut = rng.integers(1, sizes)
        block["c"] = np.array([support[k, cut[k] - 1] for k in range(rows)])
    elif functional == "wirtinger":
        # psi less its compensated mean, taken over each unpadded row
        for k, size in enumerate(sizes):
            psi[k, :size] -= comp_sum(mass[k, :size] * psi[k, :size])
    return block


def block_rows(block):
    """One dict per row (None for a skipped one), its arrays views into the block."""
    out = []
    for k, size in enumerate(block["sizes"]):
        if "skip" in block and block["skip"][k]:
            out.append(None)
            continue
        out.append({
            name: value[k, :size] if value.ndim == 2 else value[k].item()
            for name, value in block.items()
            if name not in ("sizes", "skip")
        })
    return out


def draw_trials(functional, seed, trials, m_max, change=None):
    """The first `trials` rows of the stream, each passed through `change(trial, row)`."""
    rows = max(1, min(BLOCK_TRIALS, CHUNK_ELEMENTS // m_max))
    out = []
    for block in range(-(-trials // rows)):
        for k, row in enumerate(block_rows(draw_block(functional, seed, block, m_max))):
            if row is not None and change is not None:
                change(block * rows + k, row)
            out.append(row)
    return out[:trials]


def evaluate(functional, d):
    """One trial through its public evaluator: (report, instance)."""
    if "a" in d:
        a = d["a"]
        report = fn.rtwo_terms(a) if functional == "rtwo" else fn.discrete_identities(a, functional)
        return report, {"a": [float(v) for v in a]}
    model = QuantizedModel(support=d["support"], mass=d["mass"], is_exact=True, source_m=1)
    psi = d["psi"]
    instance = {
        "support": [float(v) for v in model.support],
        "mass": [float(v) for v in model.mass],
        "psi": [float(v) for v in psi],
    }
    if functional in ("thm1-lower", "thm1-upper"):
        direction = "below" if functional == "thm1-lower" else "above"
        report = fn.opial_terms(model, psi, direction)
    elif functional == "thm2":
        report = fn.theorem2_terms(model, psi, d["n"])
        instance["n"] = d["n"]
    elif functional == "thm3":
        report = fn.theorem3_terms(model, psi)
    elif functional in ("weighted-lower", "weighted-upper"):
        direction = "below" if functional == "weighted-lower" else "above"
        report = fn.weighted_opial_terms(model, psi, d["chi"], direction)
        instance["chi"] = [float(v) for v in d["chi"]]
    elif functional == "corollary":
        dist = Distribution(atoms=tuple(zip(model.support, model.mass)))
        report = fn.corollary_split(dist, psi, d["c"], m=1)
        instance["c"] = d["c"]
    else:
        report = fn.wirtinger_terms(model, psi)
    return report, instance


def loop_trials(functional, trials, seed, m_max, change=None):
    """Yield (trial, report, instance), each trial through the public evaluator."""
    for trial, d in enumerate(draw_trials(functional, seed, trials, m_max, change)):
        if d is not None:
            yield (trial, *evaluate(functional, d))


def loop_search(functional, trials, seed, m_max, change=None, rel_tol=fn.EQUALITY_TOL):
    """The search's contract: the first violating trial, in trial order."""
    for trial, report, instance in loop_trials(functional, trials, seed, m_max, change):
        if report.slack < -rel_tol * max(1.0, abs(report.terms["rhs"])):
            return Violation(functional, trial, seed, report.slack, functional == "wirtinger", instance)
    return None


def as_text(violation):
    return None if violation is None else json.dumps(violation.to_json_dict())


def patch_draws(monkeypatch, change):
    """Pass every row of the search's blocks through `change(trial, row)`.

    `row` holds views into the block, so the change edits the block the
    search screens.  Give :func:`loop_search` the same `change`.
    """
    original = sharpness._draw_block

    def draw(functional, seed, block, m_max):
        drawn = original(functional, seed, block, m_max)
        rows = sharpness.block_trials(m_max)
        for k in range(rows):
            change(block * rows + k, sharpness._row(drawn, k))
        return drawn

    monkeypatch.setattr(sharpness, "_draw_block", draw)


def refuse_evaluators(monkeypatch):
    """Make every public evaluator in the table raise: the search must not call one."""

    def refuse(*args, **kwargs):
        raise AssertionError("the search called a public evaluator")

    for name, spec in FUNCTIONALS.items():
        monkeypatch.setitem(FUNCTIONALS, name, dataclasses.replace(spec, evaluate=refuse))


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


class TestBlockStream:
    """The block draw: its documented order, its invariants, its independence of --trials."""

    @pytest.mark.parametrize("m_max", [2, 3, 30, 1000])
    @pytest.mark.parametrize("functional", SEARCHABLE_IDS)
    def test_follows_the_documented_order(self, functional, m_max):
        for block in (0, 3):
            got = sharpness._draw_block(functional, 17, block, m_max)
            want = draw_block(functional, 17, block, m_max)
            assert sorted(got) == sorted(want)
            for name in want:
                assert got[name].dtype == want[name].dtype, name
                assert got[name].tolist() == want[name].tolist(), name

    def test_block_size_is_cut_to_the_element_cap(self):
        assert sharpness.block_trials(2) == BLOCK_TRIALS
        assert sharpness.block_trials(30) == BLOCK_TRIALS
        assert BLOCK_TRIALS * 30 <= CHUNK_ELEMENTS
        assert sharpness.block_trials(1000) == CHUNK_ELEMENTS // 1000
        assert sharpness.block_trials(CHUNK_ELEMENTS + 1) == 1

    @pytest.mark.parametrize("m_max", [2, 3, 30, 1000])
    @pytest.mark.parametrize("functional", SEARCHABLE_IDS)
    def test_draw_invariants(self, functional, m_max):
        spec = FUNCTIONALS[functional]
        for block in range(3):
            drawn = sharpness._draw_block(functional, 5, block, m_max)
            sizes = drawn["sizes"]
            assert sizes.shape == (sharpness.block_trials(m_max),)
            low = 1 if spec.input == "sequence" else 2
            assert sizes.min() >= low and sizes.max() <= m_max
            active = np.arange(m_max) < sizes[:, None]
            for name, value in drawn.items():
                if value.ndim == 2:
                    assert value.shape == active.shape and not value[~active].any(), name
            for k, size in enumerate(sizes):
                row = sharpness._row(drawn, k)
                if spec.input == "sequence":
                    a = row["a"]
                    if functional in ("o15", "o18"):
                        assert drawn["skip"][k] == (size == 1)
                        assert abs(math.fsum(a)) <= 1e-14 * max(1.0, math.fsum(np.abs(a)))
                    if functional == "rtwo":
                        assert (a >= 0.0).all()
                    continue
                assert (row["mass"] > 0.0).all()
                assert abs(math.fsum(row["mass"]) - 1.0) <= MASS_TOL
                assert (np.diff(row["support"]) > 0.0).all()
                if functional == "thm2":
                    assert 1 <= row["n"] <= 3
                if "chi" in row:
                    assert ((row["chi"] >= 0.0) & (row["chi"] < 3.0)).all()
                if functional == "corollary":
                    assert row["c"] in row["support"][:-1]

    @pytest.mark.parametrize("functional", SEARCHABLE_IDS)
    def test_result_does_not_depend_on_the_trial_count(self, functional):
        # A threshold between the second and third lowest relative slack of
        # the first 40 trials makes one of them the first violation.
        seed, m_max = 3, 30
        rel = sorted(
            report.slack / max(1.0, abs(report.terms["rhs"]))
            for _, report, _ in loop_trials(functional, 40, seed, m_max)
        )
        rel_tol = -rel[2]
        short = search_counterexample(functional, 40, seed, m_max, rel_tol=rel_tol)
        long = search_counterexample(functional, 4000, seed, m_max, rel_tol=rel_tol)
        assert short is not None and short.trial < 40
        assert as_text(short) == as_text(long)
        assert as_text(short) == as_text(loop_search(functional, 40, seed, m_max, rel_tol=rel_tol))


class TestBatchedSearchMatchesLoop:
    @pytest.mark.parametrize("m_max", [2, 3, 30])
    @pytest.mark.parametrize("functional", SEARCHABLE_IDS)
    def test_same_result_as_trial_loop(self, functional, m_max):
        for seed in (0, 11, 2024):
            trials = sharpness.block_trials(m_max) + 7  # two blocks, the last one partial
            batched = search_counterexample(functional, trials=trials, seed=seed, m_max=m_max)
            looped = loop_search(functional, trials, seed, m_max)
            assert as_text(batched) == as_text(looped)

    @pytest.mark.parametrize("functional", SEARCHABLE_IDS)
    def test_same_trial_at_a_threshold_inside_the_slack_range(self, functional, monkeypatch):
        # A tolerance at the 5 % point of the trials' relative slacks makes a
        # few trials, spread over the blocks, fall below it, and puts one
        # trial exactly on it: a drift of one ulp there changes the result.
        # The search runs without the public evaluators: its screen alone
        # builds the result.
        trials, seed, m_max = BLOCK_TRIALS + 64, 7, 30
        rel = sorted(
            report.slack / max(1.0, abs(report.terms["rhs"]))
            for _, report, _ in loop_trials(functional, trials, seed, m_max)
        )
        rel_tol = -rel[len(rel) // 20]
        looped = loop_search(functional, trials, seed, m_max, rel_tol=rel_tol)
        refuse_evaluators(monkeypatch)
        batched = search_counterexample(functional, trials, seed, m_max, rel_tol=rel_tol)
        assert looped is not None
        assert as_text(batched) == as_text(looped)

    @pytest.mark.parametrize("m_max", [2, 3, 30])
    @pytest.mark.parametrize("functional", SEARCHABLE_IDS)
    def test_screen_slacks_are_the_evaluators_bit_for_bit(self, functional, m_max):
        drawn = sharpness._draw_block(functional, 8, 0, m_max)
        slack, rhs, flagged = sharpness._screen(functional, drawn)
        assert not flagged.any()
        skip = drawn.get("skip", np.zeros(slack.size, dtype=bool))
        kept = np.flatnonzero(~skip)
        assert kept.size > 0
        reports = [evaluate(functional, sharpness._row(drawn, k))[0] for k in kept]
        assert bits(slack[kept]) == bits([r.slack for r in reports])
        assert bits(rhs[kept]) == bits([r.terms["rhs"] for r in reports])

    @pytest.mark.parametrize("functional", ["o15", "o18"])
    def test_size_one_rows_are_skipped(self, functional):
        # With rel_tol = -1 every evaluated trial violates, so the result is
        # the first trial of size 2: the size-1 rows before it are skipped.
        found = []
        for seed in range(8):
            violation = search_counterexample(functional, 50, seed, 2, rel_tol=-1.0)
            assert len(violation.instance["a"]) == 2
            assert as_text(violation) == as_text(loop_search(functional, 50, seed, 2, rel_tol=-1.0))
            found.append(violation.trial)
        assert max(found) > 0

    def test_wirtinger_violates_in_first_block(self, monkeypatch):
        looped = loop_search("wirtinger", 200, 1, 4)
        refuse_evaluators(monkeypatch)
        violation = search_counterexample("wirtinger", trials=200, seed=1, m_max=4)
        assert violation is not None and violation.trial < BLOCK_TRIALS
        assert as_text(violation) == as_text(looped)

    def test_first_violation_in_second_block(self, monkeypatch):
        def quiet_first_block(trial, row):
            if trial < BLOCK_TRIALS:
                row["psi"][:] = 0.0  # slack 0: no violation

        patch_draws(monkeypatch, quiet_first_block)
        violation = search_counterexample("wirtinger", trials=600, seed=5, m_max=4)
        assert violation is not None
        assert BLOCK_TRIALS <= violation.trial < 2 * BLOCK_TRIALS
        assert as_text(violation) == as_text(loop_search("wirtinger", 600, 5, 4, quiet_first_block))

    #: A seed whose first wirtinger violation at m_max 4 has trials on both sides in its block.
    SEED = 6

    def _first_violation(self):
        violation = loop_search("wirtinger", 200, self.SEED, 4)
        assert violation is not None and 1 <= violation.trial < BLOCK_TRIALS - 1
        return violation.trial

    @pytest.mark.parametrize("offset", [-1, 1, BLOCK_TRIALS])
    def test_invalid_model_after_violation_is_not_reached(self, monkeypatch, offset):
        bad = self._first_violation() + offset

        def repeat_a_node(trial, row):
            if trial == bad:
                row["support"][1] = row["support"][0]

        patch_draws(monkeypatch, repeat_a_node)
        trials = 2 * BLOCK_TRIALS
        if offset < 0:
            with pytest.raises(DistributionError, match="strictly increasing"):
                loop_search("wirtinger", trials, self.SEED, 4, repeat_a_node)
            with pytest.raises(DistributionError, match="strictly increasing"):
                search_counterexample("wirtinger", trials=trials, seed=self.SEED, m_max=4)
        else:
            batched = search_counterexample("wirtinger", trials=trials, seed=self.SEED, m_max=4)
            assert batched is not None and batched.trial == bad - offset
            assert as_text(batched) == as_text(loop_search("wirtinger", trials, self.SEED, 4, repeat_a_node))

    def test_corollary_model_fault_raises_at_its_trial(self, monkeypatch):
        # Real draws cannot repeat a node (the gaps are at least 0.1); the
        # screen's model check raises what QuantizedModel raises on the row.
        bad = BLOCK_TRIALS + 5

        def repeat_a_node(trial, row):
            if trial == bad:
                row["support"][1] = row["support"][0]

        patch_draws(monkeypatch, repeat_a_node)
        assert search_counterexample("corollary", trials=bad, seed=3, m_max=30) is None
        with pytest.raises(DistributionError, match="strictly increasing"):
            loop_search("corollary", bad + 1, 3, 30, repeat_a_node)
        with pytest.raises(DistributionError, match="strictly increasing"):
            search_counterexample("corollary", trials=bad + 1, seed=3, m_max=30)
