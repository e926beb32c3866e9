"""The benchmark's workloads: seeded inputs, timed operations and checks.

Each workload is a fixed list of operations, run in closed loop: one round
runs every operation once, each starting when the previous one ends.  CLI
operations call `opial.cli.main(argv)` in process with `--out` pointed into
the workload's output directory; library operations call exported opial
functions.  Functions are looked up through their modules at call time, so
the tracer's wrappers see every call.

Some operations fail every time today because of faults in the program (see
`FAULTS`).  They stay in every round and are counted as failed, so the
failed share of attempted operations is the same in every run.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from opial import distributions, sharpness
from opial import functionals as fn
from opial import oracle
from opial.sharpness import THEOREM_BACKED_IDS

import reference as ref

#: Relative tolerance of fast terms against the oracle and literal sums.
ORACLE_TOL = 1e-12

#: Relative tolerance of a best constant against a dense eigenvalue.
EIGEN_TOL = 1e-9

#: Operations that fail every time because of a fault in the program, and
#: what a correct program does instead.
FAULTS = {
    "psi-nan": "exit 1 for a NaN in --psi values (today: exit 2 with NaN terms)",
    "psi-huge": "exit 1, or finite terms, for --psi values of magnitude 1e200 "
    "(today: overflow, NaN terms and NaN tokens in the report, exit 2)",
    "tol-nan": "exit 1 for --tol nan (today: passes RunConfig.validate, exit 2)",
    "trials-negative": "exit 1 for search --trials -5 (today: exit 0, 'no violation in -5 trials')",
}


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def _exit(*codes: int) -> Callable[[int, str | None], bool]:
    return lambda code, out: code in codes


def _exit_usage_or_finite(code: int, out: str | None) -> bool:
    """Exit 1, or exit 0 with finite terms in a strict-JSON report."""
    if code == 1:
        return True
    if code != 0:
        return False

    def reject(token):
        raise ValueError(token)

    with open(out, encoding="utf-8") as handle:
        try:
            doc = json.load(handle, parse_constant=reject)
        except ValueError:
            return False
    return all(math.isfinite(v) for v in doc["terms"].values())


@dataclass
class Op:
    """One timed operation: a CLI argv or a library call."""

    name: str
    nodes: int
    argv: list[str] | None = None
    call: Callable[[], object] | None = None
    out: str | None = None
    expect: Callable[[int, str | None], bool] = field(default=_exit(0))
    trials: int = 1  # inequality instances the operation evaluates
    meta: dict = field(default_factory=dict)  # what the checks need to know


def _write_json(path: str, doc) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return path


def make_mixture(rng: np.random.Generator) -> tuple[dict, list[float]]:
    """Four uniform pieces alternating with four atoms on a positive axis.

    Returns the spec and the midpoints of the seven gaps between parts.
    """
    masses = rng.dirichlet(np.full(8, 4.0))
    cursor = float(rng.uniform(0.5, 1.0))
    atoms, pieces, gaps = [], [], []
    for k, w in enumerate(masses.tolist()):
        if k:
            gap = float(rng.uniform(0.2, 0.6))
            gaps.append(cursor + 0.5 * gap)
            cursor += gap
        if k % 2 == 0:
            width = float(rng.uniform(0.5, 1.5))
            pieces.append({"lo": cursor, "hi": cursor + width, "mass": w})
            cursor += width
        else:
            atoms.append([cursor, w])
    return {"atoms": atoms, "pieces": pieces}, gaps


def continuous_part(spec: dict) -> dict:
    """The pieces of `spec` alone, renormalized."""
    total = math.fsum(pc["mass"] for pc in spec["pieces"])
    return {"atoms": [], "pieces": [{**pc, "mass": pc["mass"] / total} for pc in spec["pieces"]]}


class Workload:
    """Seeded inputs and the operations of one round."""

    name = ""

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.out_dir = out_dir
        self.ops: list[Op] = []
        self.warm_up_op: Op | None = None

    def path(self, name: str) -> str:
        return os.path.join(self.out_dir, name)

    def cli_op(self, name: str, nodes: int, *argv: str, **kw) -> Op:
        out = self.path(f"{name}.out")
        return Op(name=name, nodes=nodes, argv=[*argv, "--out", out], out=out, **kw)

    def trials_per_round(self, results: dict) -> int:
        return sum(op.trials for op in self.ops)

    def nodes_per_round(self, results: dict) -> int:
        return sum(op.nodes for op in self.ops)

    def collect(self, library_results: dict) -> dict:
        """Reports of the last round, keyed by operation name."""
        results = {}
        for op in self.ops:
            if op.call is not None:
                results[op.name] = library_results[op.name].to_json_dict()
            elif os.path.exists(op.out):
                with open(op.out, encoding="utf-8") as handle:
                    results[op.name] = json.load(handle)
        return results

    def check(self, results: dict, failed: set[str]) -> list[str]:
        """Messages for every check that does not hold; empty when correct."""
        raise NotImplementedError


def _close(errors: list[str], label: str, got: float, want: float, tol: float) -> None:
    if not abs(got - want) <= tol:
        errors.append(f"{label}: got {got!r}, expected {want!r} within {tol:.3g}")


# ---------------------------------------------------------------------------
# search: the discrete regime
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchSize:
    trials: int = 200  # per functional and round
    m_max: int = 30
    check_instances: int = 4  # per functional
    check_m: int = 9


def search_trial_nodes(functional: str, trials: int, seed: int, m_max: int) -> list[int]:
    """Node count of each search trial, from the per-trial seeded streams.

    `search_counterexample` seeds trial t with `default_rng([seed, t])` and
    draws the instance size first: 1..m_max for the discrete forms (o15 and
    o18 skip size 1), 2..m_max for distribution functionals.
    """
    discrete = functional in fn.DISCRETE_IDENTITY_IDS or functional == "rtwo"
    sizes = []
    for trial in range(trials):
        size = int(np.random.default_rng([seed, trial]).integers(1 if discrete else 2, m_max + 1))
        sizes.append(0 if size == 1 and functional in ("o15", "o18") else size)
    return sizes


class Search(Workload):
    """`opial search` for each theorem-backed functional at the default m."""

    name = "search"

    def __init__(self, seed: int, out_dir: str, size: SearchSize = SearchSize()):
        super().__init__(seed, out_dir)
        self.size = size
        self.trial_nodes = {}
        for index, functional in enumerate(THEOREM_BACKED_IDS):
            # Trial t of every search draws its size first from
            # default_rng([seed, t]); one seed per functional keeps the node
            # counts of the twelve searches independent of each other.
            search_seed = 16 * seed + index
            nodes = search_trial_nodes(functional, size.trials, search_seed, size.m_max)
            self.trial_nodes[functional] = nodes
            self.ops.append(
                self.cli_op(
                    functional, sum(nodes),
                    "search", "--functional", functional, "--trials", str(size.trials),
                    "--seed", str(search_seed), "--m", str(size.m_max),
                    trials=size.trials,
                    # thm2's n >= 2 bound is false in the continuum, so a found
                    # violation is a correct result if the oracle confirms it.
                    expect=_exit(0, 2) if functional == "thm2" else _exit(0),
                )
            )
        self.ops.append(
            self.cli_op(
                "trials-negative", 0,
                "search", "--functional", "thm1-lower", "--trials", "-5", "--seed", str(seed),
                trials=0, expect=_exit(1),
            )
        )
        self.warm_up_op = self.cli_op(
            "warm-up", 0, "search", "--functional", "thm1-lower", "--trials", "20", "--seed", str(seed)
        )

    def _trials_run(self, functional: str, report: dict) -> int:
        violation = report["violation"]
        return self.size.trials if violation is None else violation["trial"] + 1

    def trials_per_round(self, results: dict) -> int:
        return sum(self._trials_run(f, results[f]) for f in THEOREM_BACKED_IDS)

    def nodes_per_round(self, results: dict) -> int:
        return sum(
            sum(self.trial_nodes[f][: self._trials_run(f, results[f])]) for f in THEOREM_BACKED_IDS
        )

    def instance_terms(self) -> list[tuple[str, dict, dict]]:
        """(label, fast terms, reference terms) on the benchmark's own instances."""
        out = []
        for index, functional in enumerate(THEOREM_BACKED_IDS):
            for k in range(self.size.check_instances):
                rng = np.random.default_rng([self.seed, 1000 + index, k])
                out.append(self._instance(functional, rng, f"{functional}#{k}"))
        return out

    def _instance(self, functional: str, rng: np.random.Generator, label: str):
        if functional in fn.DISCRETE_IDENTITY_IDS or functional == "rtwo":
            a = rng.standard_normal(int(rng.integers(2, self.size.check_m + 1)))
            if functional in ("o15", "o18"):
                a = a - a.mean()
            if functional == "rtwo":
                a = np.abs(a)
                fast = fn.rtwo_terms(a).terms
            else:
                fast = fn.discrete_identities(a, functional).terms
            return label, fast, ref.discrete(a, functional)
        m = int(rng.integers(2, self.size.check_m + 1))
        support = np.cumsum(rng.uniform(0.1, 1.0, m)) + rng.uniform(-3.0, 3.0)
        mass = rng.dirichlet(np.ones(m)) + 1e-3
        mass /= mass.sum()
        model = distributions.QuantizedModel(support=support, mass=mass)
        psi = rng.standard_normal(m)
        kw = {}
        if functional in ("thm1-lower", "thm1-upper"):
            direction = "below" if functional == "thm1-lower" else "above"
            fast = fn.opial_terms(model, psi, direction).terms
        elif functional == "thm2":
            kw["n"] = int(rng.integers(1, 4))
            fast = fn.theorem2_terms(model, psi, kw["n"]).terms
        elif functional == "thm3":
            fast = fn.theorem3_terms(model, psi).terms
        elif functional in ("weighted-lower", "weighted-upper"):
            kw["chi"] = rng.uniform(0.0, 3.0, m)
            direction = "below" if functional == "weighted-lower" else "above"
            fast = fn.weighted_opial_terms(model, psi, kw["chi"], direction).terms
        else:  # corollary
            kw["c"] = float(support[int(rng.integers(1, m)) - 1])
            dist = distributions.Distribution(atoms=tuple(zip(model.support, model.mass)))
            fast = fn.corollary_split(dist, psi, kw["c"], m=1).terms
        slow = oracle.enumerate_functional(model, psi, functional=functional, **kw)
        return label, fast, slow

    def check(self, results: dict, failed: set[str]) -> list[str]:
        errors: list[str] = []
        for functional in THEOREM_BACKED_IDS:
            if functional in failed:
                continue
            report = results[functional]
            if report["trials"] != self.size.trials:
                errors.append(f"{functional}: report says {report['trials']} trials")
            violation = report["violation"]
            if violation is None:
                continue
            if functional != "thm2":
                errors.append(f"{functional}: proved bound reported violated: {violation}")
                continue
            inst = violation["instance"]
            model = distributions.QuantizedModel(support=inst["support"], mass=inst["mass"])
            slow = oracle.enumerate_functional(model, inst["psi"], functional="thm2", n=inst["n"])
            if not slow["lhs"] > slow["rhs"]:
                errors.append(f"thm2: violation at trial {violation['trial']} not confirmed by the oracle")
        for label, fast, slow in self.instance_terms():
            for key in sorted(set(fast) & set(slow)):
                _close(errors, f"{label} {key}", fast[key], slow[key], ORACLE_TOL * max(1.0, abs(slow[key])))
        return errors


# ---------------------------------------------------------------------------
# verify-large: the continuous regime
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerifySize:
    mixture_m: int = 2_048  # per piece; four pieces and four atoms give 8196 nodes
    uniform_m: int = 8_192


class VerifyLarge(Workload):
    """`opial verify` for every distribution functional at about 8e3 nodes."""

    name = "verify-large"

    def __init__(self, seed: int, out_dir: str, size: VerifySize = VerifySize()):
        super().__init__(seed, out_dir)
        rng = np.random.default_rng([seed, 2])
        self.size = size
        mixture, gaps = make_mixture(rng)
        self.c = gaps[3]
        self.specs = {
            "mixture": mixture,
            "continuous": continuous_part(mixture),
            "uniform": {"atoms": [], "pieces": [{"lo": 0.0, "hi": 1.0, "mass": 1.0}]},
            "small": {"atoms": [[0.0, 0.25], [1.0, 0.25], [2.0, 0.5]], "pieces": []},
        }
        files = {key: _write_json(self.path(f"{key}.json"), spec) for key, spec in self.specs.items()}
        mix_m = str(size.mixture_m)
        uni_m = str(size.uniform_m)
        mix_nodes = len(mixture["atoms"]) + size.mixture_m * len(mixture["pieces"])
        step = {"kind": "step", "threshold": gaps[1], "low": 2.0, "high": 0.5}
        p_identity, p_constant = (float(v) for v in rng.uniform(0.25, 3.0, 2))

        def verify(name, functional, dist, m, nodes, psi, *extra, **meta):
            argv = ["verify", "--functional", functional, "--psi", psi if isinstance(psi, str) else json.dumps(psi)]
            if dist is not None:
                argv += ["--dist", files[dist]]
            argv += ["--m", m, *extra]
            meta.update(functional=functional, dist=dist, psi=psi)
            return self.cli_op(name, nodes, *argv, meta=meta)

        self.ops = [
            verify("thm1-lower", "thm1-lower", "mixture", mix_m, mix_nodes, "constant", equality="middle"),
            verify("thm1-upper", "thm1-upper", "mixture", mix_m, mix_nodes, "constant", equality="middle"),
            verify("thm1-lower-cos", "thm1-lower", "mixture", mix_m, mix_nodes, "cos_pi_F"),
            verify("corollary", "corollary", "mixture", mix_m, mix_nodes, "constant", "--c", repr(self.c),
                   c=self.c, equality="middle"),
            *(
                verify(f"thm2-n{n}", "thm2", "uniform", uni_m, size.uniform_m, "constant", "--n", str(n), n=n)
                for n in (1, 2, 3)
            ),
            verify("thm3", "thm3", "mixture", mix_m, mix_nodes, "constant", equality="lhs"),
            verify("thm3-step", "thm3", "mixture", mix_m, mix_nodes, step),
            verify("weighted-lower", "weighted-lower", "mixture", mix_m, mix_nodes, "constant",
                   "--chi", "identity", chi="identity", equality="middle"),
            verify("weighted-upper", "weighted-upper", "mixture", mix_m, mix_nodes, "constant",
                   "--chi", json.dumps(step), chi=step, equality="middle"),
            # The Wirtinger bound is a theorem for continuous laws only.  The
            # node function is not near-extremal: on m nodes the discrete
            # constant exceeds 1/pi^2 by about 1/(12 m^2), so cos_pi_F would
            # be reported violated on some seeds.
            verify("wirtinger", "wirtinger", "continuous", mix_m, size.mixture_m * len(mixture["pieces"]),
                   "identity", "--project"),
            verify("troy-identity", "troy", None, uni_m, size.uniform_m, "identity",
                   "--p-exp", repr(p_identity), p_exp=p_identity),
            verify("troy-constant", "troy", None, uni_m, size.uniform_m, "constant",
                   "--p-exp", repr(p_constant), p_exp=p_constant),
            self.cli_op("psi-nan", 3, "verify", "--functional", "thm1-lower", "--dist", files["small"],
                        "--psi", '{"kind": "values", "values": [1.0, NaN, 2.0]}', expect=_exit(1)),
            self.cli_op("psi-huge", 3, "verify", "--functional", "thm1-lower", "--dist", files["small"],
                        "--psi", '{"kind": "values", "values": [1e200, -2e200, 3e200]}',
                        expect=_exit_usage_or_finite),
            self.cli_op("tol-nan", 3, "verify", "--functional", "thm1-lower", "--dist", files["small"],
                        "--psi", "constant", "--tol", "nan", expect=_exit(1)),
        ]
        self.warm_up_op = self.cli_op(
            "warm-up", 0, "verify", "--functional", "thm1-lower", "--dist", files["mixture"],
            "--psi", "constant", "--m", "1000",
        )

    def reference_terms(self, op: Op) -> tuple[dict, float, int]:
        """Independent terms of one verify operation, the rounding scale and pass count."""
        meta = op.meta
        functional = meta["functional"]
        if functional == "troy":
            x, p = ref.nodes(self.specs["uniform"], self.size.uniform_m)
            f = ref.node_function(meta["psi"], x, p)
            chi = x ** meta["p_exp"]
            terms = ref.weighted(p, f, chi, "below")
            scale = ref.fsum(p * f * f) * max(1.0, float(chi.max()))
            return (
                {
                    "our_lhs": terms["lhs"],
                    "our_rhs": terms["rhs"],
                    "troy_rhs": ref.fsum(p * f * f) / (2.0 * math.sqrt(meta["p_exp"] + 1.0)),
                },
                scale,
                1,
            )
        spec = self.specs[meta["dist"]]
        m = self.size.uniform_m if meta["dist"] == "uniform" else self.size.mixture_m
        if functional == "corollary":
            terms = {"lhs": 0.0, "middle": 0.0, "rhs": 0.0}
            scale = 0.0
            for side, direction in (("lower", "below"), ("upper", "above")):
                x, p = ref.nodes(ref.conditional(spec, meta["c"], side), m)
                f = ref.node_function(meta["psi"], x, p)
                for key, value in ref.first_order(p, f, direction).items():
                    terms[key] += value
                scale += ref.fsum(p * f * f)
            return terms, scale, 1
        x, p = ref.nodes(spec, m)
        f = ref.node_function(meta["psi"], x, p)
        scale = ref.fsum(p * f * f)
        if functional in ("thm1-lower", "thm1-upper"):
            return ref.first_order(p, f, "below" if functional == "thm1-lower" else "above"), scale, 1
        if functional == "thm2":
            return ref.nth_order(p, f, meta["n"]), scale, meta["n"]
        if functional == "thm3":
            return ref.second_order(p, f), 3.0 * scale, 2
        if functional in ("weighted-lower", "weighted-upper"):
            g = ref.node_function(meta["chi"], x, p)
            direction = "below" if functional == "weighted-lower" else "above"
            return ref.weighted(p, f, g, direction), scale * max(1.0, float(g.max())), 1
        if functional == "wirtinger":
            return ref.wirtinger(p, f), scale, 1
        raise ValueError(functional)

    def _reference_vs_oracle(self, errors: list[str]) -> None:
        """The reference evaluators against the oracle on a 16-node mixture."""
        x, p = ref.nodes(self.specs["mixture"], 3)
        model = distributions.QuantizedModel(support=x, mass=p)
        f = np.cos(3.0 * x)  # both signs
        centered = f - ref.fsum(p * f)
        lower, upper = (ref.nodes(ref.conditional(self.specs["mixture"], self.c, side), 3) for side in ("lower", "upper"))
        corollary = {
            key: ref.first_order(lower[1], np.cos(3.0 * lower[0]), "below")[key]
            + ref.first_order(upper[1], np.cos(3.0 * upper[0]), "above")[key]
            for key in ("lhs", "middle", "rhs")
        }
        cases = (
            ("thm1-lower", f, ref.first_order(p, f, "below"), {}),
            ("thm1-upper", f, ref.first_order(p, f, "above"), {}),
            ("corollary", f, corollary, {"c": self.c}),
            ("thm2", f, ref.nth_order(p, f, 2), {"n": 2}),
            ("thm3", f, ref.second_order(p, f), {}),
            ("weighted-lower", f, ref.weighted(p, f, x, "below"), {"chi": x}),
            ("weighted-upper", f, ref.weighted(p, f, x, "above"), {"chi": x}),
            ("wirtinger", centered, ref.wirtinger(p, centered), {}),
        )
        for functional, values, want, kw in cases:
            slow = oracle.enumerate_functional(model, values, functional=functional, **kw)
            for key in slow:
                _close(errors, f"reference {functional} {key}", want[key], slow[key], ORACLE_TOL * max(1.0, abs(slow[key])))

    def check(self, results: dict, failed: set[str]) -> list[str]:
        errors: list[str] = []
        self._reference_vs_oracle(errors)
        for op in self.ops:
            if op.name in failed or op.name in FAULTS:
                continue
            report = results[op.name]
            want, scale, passes = self.reference_terms(op)
            nodes = op.nodes
            tol = ref.rounding_tol(nodes, passes, scale)
            got = report if op.meta["functional"] == "troy" else report["terms"]
            for key, value in want.items():
                _close(errors, f"{op.name} {key}", got[key], value, tol)
            equality = op.meta.get("equality")
            if equality:
                _close(errors, f"{op.name} equality", got[equality], got["rhs"], tol)
            if op.meta["functional"] == "thm2":
                n = op.meta["n"]
                _close(
                    errors, f"{op.name} (n+1)! lhs",
                    got["lhs"] * math.factorial(n + 1), ref.equal_mass_product(self.size.uniform_m, n),
                    ORACLE_TOL,
                )
            if op.name == "troy-constant":
                _close(errors, "troy-constant equality", got["our_lhs"], got["our_rhs"], tol)
            if op.name == "troy-identity":
                m = self.size.uniform_m
                _close(errors, "troy-identity lhs", got["our_lhs"], 0.5 / (op.meta["p_exp"] + 4.0), 1.0 / m**2 + tol)
        return errors


# ---------------------------------------------------------------------------
# certify: the sharpness layer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CertifySize:
    mixtures: int = 4  # coordinate ascent runs on this many mixtures
    ascent_m: int = 1_000  # per piece of each mixture
    wirtinger_m: int = 8_192
    thm2_grids: tuple[int, ...] = (128, 512, 2048, 8192)
    wirtinger_grids: tuple[int, ...] = (75, 300, 1200, 4800)
    rayleigh_m: int = 249  # per piece; about 1000 nodes, so the dense check fits


class Certify(Workload):
    """Sharp-constant solvers: coordinate ascent, power iterations, refinement."""

    name = "certify"

    def __init__(self, seed: int, out_dir: str, size: CertifySize = CertifySize()):
        super().__init__(seed, out_dir)
        self.size = size
        # The ascent's sweep count varies with the mixture; several mixtures
        # average that variation out of the round time.
        mixtures = [make_mixture(np.random.default_rng([seed, 3, k]))[0] for k in range(size.mixtures)]
        self.mixture = mixtures[0]
        n_atoms = len(self.mixture["atoms"])
        n_pieces = len(self.mixture["pieces"])
        dist = distributions.Distribution.from_spec_dict(self.mixture)

        def rayleigh():
            model = distributions.quantize(dist, size.rayleigh_m)
            return sharpness.rayleigh_best_constant(model)

        thm2_grids = ",".join(map(str, size.thm2_grids))
        self.ops = [
            self.cli_op(f"sharpness-thm1-{k}", n_atoms + n_pieces * size.ascent_m, "sharpness",
                        "--functional", "thm1-lower", "--dist", _write_json(self.path(f"mixture{k}.json"), mix),
                        "--m", str(size.ascent_m))
            for k, mix in enumerate(mixtures)
        ]
        self.ops += [
            self.cli_op("sharpness-wirtinger", size.wirtinger_m, "sharpness",
                        "--functional", "wirtinger", "--m", str(size.wirtinger_m)),
            *(
                self.cli_op(f"converge-thm2-n{n}", sum(size.thm2_grids), "converge", "--functional", "thm2",
                            "--n", str(n), "--grids", thm2_grids, trials=len(size.thm2_grids))
                for n in (1, 2, 3)
            ),
            self.cli_op("converge-wirtinger", sum(size.wirtinger_grids), "converge", "--functional",
                        "wirtinger", "--grids", ",".join(map(str, size.wirtinger_grids)),
                        trials=len(size.wirtinger_grids)),
            Op(name="rayleigh-mixture", nodes=n_atoms + n_pieces * size.rayleigh_m, call=rayleigh),
        ]
        self.warm_up_op = self.cli_op("warm-up", 0, "sharpness", "--functional", "wirtinger", "--m", "100")

    def _wirtinger_claim(self, errors: list[str], label: str, m: int, c_m: float, p=None) -> None:
        if p is None and m <= ref.DENSE_MAX:
            p = np.full(m, 1.0 / m)
        if p is not None:
            want = ref.wirtinger_constant_dense(p)
            _close(errors, label, c_m, want, EIGEN_TOL * want)
        else:
            want, allowance = ref.wirtinger_constant_asymptotic(m)
            _close(errors, label, c_m, want, allowance + 1e-12 * want)

    def check(self, results: dict, failed: set[str]) -> list[str]:
        errors: list[str] = []
        for n in (1, 2, 3):
            # The closed form of the refinement rows, against the oracle on 8 equal masses.
            model = distributions.QuantizedModel(support=np.arange(8.0), mass=np.full(8, 0.125))
            slow = oracle.enumerate_functional(model, np.ones(8), functional="thm2", n=n)
            _close(errors, f"reference product n={n}", slow["lhs"] * math.factorial(n + 1),
                   ref.equal_mass_product(8, n), ORACLE_TOL)
        for k in range(self.size.mixtures):
            name = f"sharpness-thm1-{k}"
            if name not in failed:
                # (E|psi|)^2 / E psi^2 <= 1 by Cauchy-Schwarz, with equality at psi = 1.
                _close(errors, f"{name} ratio_star", results[name]["ratio_star"], 1.0, 1e-12)
        if "sharpness-wirtinger" not in failed:
            self._wirtinger_claim(errors, "sharpness-wirtinger c_m", self.size.wirtinger_m,
                                  results["sharpness-wirtinger"]["c_m"])
        for n in (1, 2, 3):
            name = f"converge-thm2-n{n}"
            if name in failed:
                continue
            study = results[name]
            for row, m in zip(study["rows"], self.size.thm2_grids):
                want = ref.equal_mass_product(m, n)
                _close(errors, f"{name} m={m}", row["value"], want, ORACLE_TOL)
            if len(study["rows"]) != len(self.size.thm2_grids):
                errors.append(f"{name}: {len(study['rows'])} rows")
            order = study["fitted_order"]
            if order is None or not 0.8 <= order <= 1.2:
                errors.append(f"{name}: fitted order {order!r} outside [0.8, 1.2]")
        if "converge-wirtinger" not in failed:
            rows = results["converge-wirtinger"]["rows"]
            if len(rows) != len(self.size.wirtinger_grids):
                errors.append(f"converge-wirtinger: {len(rows)} rows")
            for row, m in zip(rows, self.size.wirtinger_grids):
                self._wirtinger_claim(errors, f"converge-wirtinger m={m}", m, row["value"])
        if "rayleigh-mixture" not in failed:
            _, p = ref.nodes(self.mixture, self.size.rayleigh_m)
            self._wirtinger_claim(errors, "rayleigh-mixture c_m", p.size, results["rayleigh-mixture"]["c_m"], p)
        return errors


WORKLOADS = {cls.name: cls for cls in (Search, VerifyLarge, Certify)}
