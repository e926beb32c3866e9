"""Acceptance suite.

Runs every acceptance criterion at its stated tolerance and prints one
pass/fail line per criterion (visible with `pytest -rA` or `-s`).  Every
criterion is expected to pass.  Two of them check bounds that were
corrected once their earlier forms were found false:

* refinement bracket (criterion 3): the strict-order value of an m-cell
  equal-mass quantization is prod_{k<=n} (1 - k/m).  By the Weierstrass
  product inequality it is at least 1 - n(n+1)/(2m), and by Maclaurin's
  inequality equal masses maximize it over all m-node quantizations, so
  1 - n(n+1)/(2m) is the bracket that a correct program meets at every n;
* counterexample search (criterion 8): thm3 / rtwo bound their
  second-order left side, the pair form sum_{k<i} 6 p_i p_k
  (Fbar_i - Fbar_k) a_i a_k, by its symmetrized row sums.  The former right
  side E psi^2 (1 - p^2) matched the pair form only at constant |psi| and
  was falsified by masses (1/3, 1/3, 1/3) with |psi| = (1, 3/4, 1).
"""
import math
import time

import numpy as np
import pytest

from opial import (
    Distribution,
    NodeFunction,
    check_two3_decomposition,
    corollary_split,
    discrete_identities,
    enumerate_functional,
    make_uniform_interval,
    opial_terms,
    partition_masses,
    quantize,
    rtwo_terms,
    search_counterexample,
    theorem2_terms,
    theorem3_terms,
    troy_comparison,
    weighted_opial_terms,
    wirtinger_best_constant,
    wirtinger_terms,
)
from opial.functionals import INV_PI_SQ
from opial.sharpness import THEOREM_BACKED_IDS, convergence_study

from conftest import random_atomic_model


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {criterion}: {status}  {detail}".rstrip())
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_first_order_chain():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst_chain = math.inf
    worst_equality = 0.0
    for _ in range(10_000):
        model = random_atomic_model(rng, m_max=50)
        psi = rng.standard_normal(model.node_count)
        for direction in ("below", "above"):
            rep = opial_terms(model, psi, direction)
            lhs, mid, rhs = rep.terms["lhs"], rep.terms["middle"], rep.terms["rhs"]
            scale = max(1.0, abs(rhs))
            worst_chain = min(worst_chain, (mid - lhs) / scale, (rhs - mid) / scale)
            ones = opial_terms(model, np.ones(model.node_count), direction)
            gap = abs(ones.terms["rhs"] - ones.terms["middle"]) / max(
                1.0, ones.terms["rhs"]
            )
            worst_equality = max(worst_equality, gap)
    elapsed = time.monotonic() - start
    ok = worst_chain >= -1e-10 and worst_equality <= 1e-12 and elapsed < 30.0
    _report(
        "criterion 1 (first-order chain, 1e4 instances)",
        ok,
        f"min chain slack={worst_chain:.3e}, worst constant-psi gap={worst_equality:.3e}, "
        f"elapsed={elapsed:.1f}s",
    )


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(202)
    start = time.monotonic()
    worst = 0.0
    comparisons = 0

    def diff(fast: dict, slow: dict) -> float:
        gap = 0.0
        for key in set(fast) & set(slow):
            gap = max(
                gap,
                abs(fast[key] - slow[key]) / max(1.0, abs(fast[key]), abs(slow[key])),
            )
        return gap

    for _ in range(500):
        model = random_atomic_model(rng, m_max=8, m_min=2)
        m = model.node_count
        psi = rng.standard_normal(m)
        chi = np.abs(rng.standard_normal(m))
        pairs = [
            (opial_terms(model, psi, "below").terms,
             enumerate_functional(model, psi, functional="thm1-lower")),
            (opial_terms(model, psi, "above").terms,
             enumerate_functional(model, psi, functional="thm1-upper")),
            (theorem3_terms(model, psi).terms,
             enumerate_functional(model, psi, functional="thm3")),
            (weighted_opial_terms(model, psi, chi, "below").terms,
             enumerate_functional(model, psi, chi=chi, functional="weighted-lower")),
            (weighted_opial_terms(model, psi, chi, "above").terms,
             enumerate_functional(model, psi, chi=chi, functional="weighted-upper")),
        ]
        for n in (1, 2, 3):
            pairs.append(
                (theorem2_terms(model, psi, n).terms,
                 enumerate_functional(model, psi, functional="thm2", n=n))
            )
        cut = int(rng.integers(1, m))
        c = float(model.support[cut - 1])
        dist = Distribution(atoms=tuple(zip(model.support, model.mass)))
        pairs.append(
            (corollary_split(dist, psi, c, m=1).terms,
             enumerate_functional(model, psi, functional="corollary", c=c))
        )
        centered = psi - float(np.sum(model.mass * psi))
        pairs.append(
            (wirtinger_terms(model, centered).terms,
             enumerate_functional(model, centered, functional="wirtinger"))
        )
        for fast, slow in pairs:
            worst = max(worst, diff(fast, slow))
            comparisons += 1
    elapsed = time.monotonic() - start
    ok = worst <= 1e-12 and elapsed < 120.0
    _report(
        "criterion 2 (oracle equivalence, 500 instances)",
        ok,
        f"{comparisons} comparisons, worst rel err={worst:.3e}, elapsed={elapsed:.1f}s",
    )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_criterion_3_sharp_constant_refinement(n):
    grids = [64, 256, 1024]
    study = convergence_study("thm2", grids, n=n)
    rows = {row.m: row.value for row in study.rows}
    # Weierstrass: prod_{k<=n} (1 - k/m) >= 1 - n(n+1)/(2m), and equal
    # masses maximize the strict-order value, so this is the proved bracket.
    lower = {m: 1.0 - n * (n + 1) / (2.0 * m) - 1e-14 for m in grids}
    in_bracket = all(lower[m] <= rows[m] <= 1.0 + 1e-14 for m in grids)
    order_ok = study.fitted_order is not None and 0.8 <= study.fitted_order <= 1.2
    detail = (
        f"values={[f'{rows[m]:.6f}' for m in grids]}, "
        f"brackets={[f'[{lower[m]:.6f}, 1]' for m in grids]}, "
        f"fitted_order={study.fitted_order:.3f}"
    )
    _report(f"criterion 3 (thm2 refinement, n={n})", in_bracket and order_ok, detail)


def test_criterion_4_wirtinger_constant():
    best = wirtinger_best_constant(1000)
    err_1000 = abs(best.c_m - INV_PI_SQ)
    errors = [abs(wirtinger_best_constant(m).c_m - INV_PI_SQ) for m in (100, 400, 1600)]
    model = quantize(make_uniform_interval(0, 1), 1000)
    reference = np.cos(math.pi * model.midpoint_cdf())
    cos_sim = abs(best.psi_star @ reference) / (
        np.linalg.norm(best.psi_star) * np.linalg.norm(reference)
    )
    ok = (
        err_1000 <= 1e-3
        and errors[0] > errors[1] > errors[2]
        and cos_sim >= 0.999
    )
    _report(
        "criterion 4 (wirtinger constant)",
        ok,
        f"|c_1000 - 1/pi^2|={err_1000:.3e}, errors(100,400,1600)={[f'{e:.2e}' for e in errors]}, "
        f"cos_sim={cos_sim:.6f}",
    )


def test_criterion_5_discrete_identities():
    rng = np.random.default_rng(505)
    ok = True
    notes = []

    for n in range(1, 31):
        if not discrete_identities(np.ones(n), "o9-2").equality:
            ok = False
            notes.append(f"o9-2 not tight at N={n}")

    for big_k in range(1, 16):
        a = np.concatenate([np.ones(big_k), -np.ones(big_k)])
        for which in ("o15", "o18"):
            if not discrete_identities(a, which).equality:
                ok = False
                notes.append(f"{which} not tight at N={2 * big_k}")

    worst_o15 = math.inf
    for _ in range(10_000):
        n = 2 * int(rng.integers(0, 11)) + 1  # odd N <= 21
        a = rng.standard_normal(n)
        a -= a.mean()
        rep = discrete_identities(a, "o15")
        worst_o15 = min(worst_o15, rep.slack / max(1.0, rep.terms["rhs"]))
    if worst_o15 < -1e-10:
        ok = False
        notes.append(f"o15 violated for odd N: rel slack {worst_o15:.3e}")

    worst_identity = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 31))
        a = np.abs(rng.standard_normal(n))
        thm3 = theorem3_terms(
            quantize(
                Distribution(atoms=tuple((float(i), 1.0 / n) for i in range(1, n + 1))),
                1,
            ),
            a,
        )
        rtwo = rtwo_terms(a)
        for key in ("lhs", "rhs"):
            gap = abs(n**3 * thm3.terms[key] - rtwo.terms[key]) / max(
                1.0, abs(rtwo.terms[key])
            )
            worst_identity = max(worst_identity, gap)
    if worst_identity > 1e-12:
        ok = False
        notes.append(f"rtwo/thm3 identity off by {worst_identity:.3e}")

    _report(
        "criterion 5 (discrete identities)",
        ok,
        f"min o15 odd-N rel slack={worst_o15:.3e}, rtwo identity err={worst_identity:.3e}"
        + ("; " + "; ".join(notes) if notes else ""),
    )


def test_criterion_6_partition_decomposition():
    rng = np.random.default_rng(606)
    worst_total = 0.0
    worst_rec = 0.0
    for _ in range(200):
        model = random_atomic_model(rng, m_max=10)
        psi = rng.standard_normal(model.node_count)
        parts = partition_masses(model)
        worst_total = max(worst_total, abs(parts.total - 1.0))
        rec = check_two3_decomposition(model, psi, tol=1e-12)
        worst_rec = max(worst_rec, rec.rel_err)
    ok = worst_total <= 1e-12 and worst_rec <= 1e-12
    _report(
        "criterion 6 (order-region partition, 200 instances)",
        ok,
        f"worst |total-1|={worst_total:.3e}, worst reconstruction err={worst_rec:.3e}",
    )


def test_criterion_7_weighted_reductions():
    rng = np.random.default_rng(707)
    worst_reduction = 0.0
    for _ in range(200):
        model = random_atomic_model(rng, m_max=30)
        psi = rng.standard_normal(model.node_count)
        chi = np.ones(model.node_count)
        for direction in ("below", "above"):
            plain = opial_terms(model, psi, direction)
            weighted = weighted_opial_terms(model, psi, chi, direction)
            for key in ("lhs", "middle", "rhs"):
                gap = abs(weighted.terms[key] - plain.terms[key]) / max(
                    1.0, abs(plain.terms[key])
                )
                worst_reduction = max(worst_reduction, gap)

    ok = worst_reduction <= 1e-15
    notes = [f"chi=1 reduction err={worst_reduction:.2e}"]
    for p_exp in (0.0, 1.0, 3.0):
        identity = troy_comparison(p_exp, NodeFunction.identity(), m=4096)
        exact_lhs = 1.0 / (2.0 * (p_exp + 4.0))
        exact_troy = 1.0 / (6.0 * math.sqrt(p_exp + 1.0))
        gap_ok = (
            abs(identity.our_lhs - exact_lhs) <= 2e-3
            and exact_lhs < exact_troy
            and identity.our_lhs < identity.troy_rhs
        )
        constant = troy_comparison(p_exp, NodeFunction.constant(), m=4096)
        tight_ok = abs(constant.our_lhs - constant.our_rhs) <= 1e-12 * max(
            1.0, constant.our_rhs
        )
        if not (gap_ok and tight_ok):
            ok = False
        notes.append(
            f"p={p_exp:g}: lhs={identity.our_lhs:.6f} vs troy={identity.troy_rhs:.6f}"
            f" (gap {'ok' if gap_ok else 'BAD'}, tight {'ok' if tight_ok else 'BAD'})"
        )
    _report("criterion 7 (weighted reductions)", ok, "; ".join(notes))


def test_criterion_8_counterexample_search():
    start = time.monotonic()
    found = {}
    for functional in THEOREM_BACKED_IDS:
        violation = search_counterexample(functional, trials=100_000, seed=808, m_max=30)
        if violation is not None:
            found[functional] = violation
    elapsed = time.monotonic() - start
    ok = not found and elapsed < 600.0
    detail = f"{len(THEOREM_BACKED_IDS)} functionals, elapsed={elapsed:.0f}s"
    if found:
        parts = []
        for functional, violation in found.items():
            parts.append(
                f"{functional}: trial {violation.trial}, slack={violation.slack:.3e}, "
                f"instance={violation.instance}"
            )
        detail += "; violations found: " + " | ".join(parts)
    _report("criterion 8 (counterexample search)", ok, detail)
