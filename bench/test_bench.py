"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""
import copy
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import workloads as W  # noqa: E402
from opial import functionals as fn  # noqa: E402
from opial import sharpness  # noqa: E402

TINY = {
    "search": W.SearchSize(trials=15, check_instances=2),
    "verify-large": W.VerifySize(mixture_m=300, uniform_m=1500),
    "certify": W.CertifySize(
        mixtures=2, ascent_m=100, wirtinger_m=2000, thm2_grids=(100, 400, 1600),
        wirtinger_grids=(40, 160, 640, 2560), rayleigh_m=40,
    ),
}

FAULTS_BY_WORKLOAD = {
    "search": {"trials-negative"},
    "verify-large": {"psi-nan", "psi-huge", "tol-nan"},
    "certify": set(),
}

#: Per-layer metrics that stay 0 on a workload because it bypasses the layer.
BYPASSED = {
    "search": {"distributions.resolve_s", "sharpness.solver_iterations", "sharpness.solver_s"},
    "verify-large": {"sharpness.self_s", "sharpness.solver_iterations", "sharpness.solver_s"},
    "certify": {"distributions.resolve_s"},
}

#: Report fields the checks vouch for, perturbed one at a time.
CHECKED_FIELDS = ("terms", "our_lhs", "our_rhs", "troy_rhs", "rows", "c_m", "ratio_star")


def make(name, tmp_path, seed=5):
    return W.WORKLOADS[name](seed, str(tmp_path), TINY[name])


def one_round(workload):
    rounds = run.Rounds(workload)
    rounds.run(0.0)
    return workload.collect(rounds.library_results), rounds.failed


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    out = {}
    for name in W.WORKLOADS:
        workload = make(name, tmp_path_factory.mktemp(name))
        out[name] = (workload, *one_round(workload))
    return out


@pytest.mark.parametrize("name", list(W.WORKLOADS))
def test_checks_accept_true_results(tiny_runs, name):
    workload, results, failed = tiny_runs[name]
    assert failed == FAULTS_BY_WORKLOAD[name]
    assert workload.check(results, failed) == []


def _perturbations(doc, path=()):
    """Paths of the numeric leaves under the checked report fields."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            if path or key in CHECKED_FIELDS:
                yield from _perturbations(value, path + (key,))
    elif isinstance(doc, list):
        for index, value in enumerate(doc):
            yield from _perturbations(value, path + (index,))
    elif isinstance(doc, float) and path[-1] not in ("error", "fitted_order", "m"):
        yield path


def _perturbed(doc, path):
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] *= 1.0 + 1e-6
    return doc


@pytest.mark.parametrize("name", ["verify-large", "certify"])
def test_checks_reject_perturbed_reports(tiny_runs, name):
    workload, results, failed = tiny_runs[name]
    tried = 0
    for op_name, report in results.items():
        if op_name in failed:  # the checks speak only of operations that did not fail
            continue
        for path in _perturbations(report):
            bad = dict(results, **{op_name: _perturbed(report, path)})
            assert workload.check(bad, failed), f"{op_name} {path} perturbed by 1e-6 passed"
            tried += 1
    assert tried >= 10


def test_search_check_rejects_perturbed_terms(tiny_runs):
    workload, results, failed = tiny_runs["search"]
    instances = workload.instance_terms()
    for index, (label, fast, slow) in enumerate(instances):
        for key in set(fast) & set(slow):
            bad = list(instances)
            bad[index] = (label, {**fast, key: fast[key] * (1.0 + 1e-6)}, slow)
            workload.instance_terms = lambda bad=bad: bad
            assert workload.check(results, failed), f"{label} {key} perturbed by 1e-6 passed"
    del workload.instance_terms
    forged = copy.deepcopy(results)
    forged["thm1-lower"]["violation"] = {"trial": 0, "instance": {}}
    assert workload.check(forged, failed)


def test_search_trial_nodes_match_the_sampler(monkeypatch):
    seen = []
    original = fn.opial_terms

    def record(model, *args, **kwargs):
        seen.append(model.node_count)
        return original(model, *args, **kwargs)

    monkeypatch.setattr(fn, "opial_terms", record)
    sharpness.search_counterexample("thm1-lower", trials=40, seed=3)
    assert seen == W.search_trial_nodes("thm1-lower", 40, 3, 30)

    seen.clear()
    original_discrete = fn.discrete_identities

    def record_discrete(a, *args, **kwargs):
        seen.append(np.size(a))
        return original_discrete(a, *args, **kwargs)

    monkeypatch.setattr(fn, "discrete_identities", record_discrete)
    sharpness.search_counterexample("o15", trials=40, seed=3)
    assert seen == [n for n in W.search_trial_nodes("o15", 40, 3, 30) if n]


@pytest.mark.parametrize("name", list(W.WORKLOADS))
def test_result_format_and_layers(tmp_path, name):
    end_to_end, per_layer = run.metric_units("end_to_end"), run.metric_units("per_layer")
    (tmp_path / "plain").mkdir()
    workload = make(name, tmp_path / "plain")
    plain = run.measure(workload, 0.0, trace=False)
    assert plain["correct"] is True
    faults = len(FAULTS_BY_WORKLOAD[name])
    assert plain["failed"] * len(workload.ops) == faults * plain["attempted"]
    assert {k: v["unit"] for k, v in plain["metrics"].items()} == end_to_end
    assert all(v["value"] > 0 for v in plain["metrics"].values())

    (tmp_path / "traced").mkdir()
    traced = run.measure(make(name, tmp_path / "traced"), 0.0, trace=True)
    assert traced["correct"] is True
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == per_layer
    for key, entry in traced["metrics"].items():
        if key == "trace.overhead_s":
            continue
        if key in BYPASSED[name]:
            assert entry["value"] == 0, key
        else:
            assert entry["value"] > 0, key
    layers = {key: entry["value"] for key, entry in traced["metrics"].items()}
    assert layers["accumulate.ns_per_element"] == pytest.approx(
        1e9 * layers["accumulate.busy_s"] / layers["accumulate.elements"]
    )
    assert os.path.exists(tmp_path / "traced" / "trace.json")


def test_tracer_restores_every_binding():
    import opial
    from layertrace import Tracer
    from opial import distributions, functionals

    before = (functionals.prefix_exclusive, opial.quantize, distributions.QuantizedModel.__post_init__)
    with Tracer():
        assert functionals.prefix_exclusive.__wrapped__ is before[0]
        assert opial.quantize.__wrapped__ is before[1]
    assert (functionals.prefix_exclusive, opial.quantize, distributions.QuantizedModel.__post_init__) == before


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "search", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
