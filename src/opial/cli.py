"""Command-line front end.

Commands: verify, oracle-diff, sharpness, converge, search.  Reports are
written atomically (temp file + rename) and are byte-deterministic for a
fixed configuration including the seed.  Exit codes: 0 all inequalities
verified, 1 usage or spec error, 2 violation found.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from . import functionals as fn
from . import oracle as oracle_mod
from . import sharpness as sharp
from .distributions import (
    Distribution,
    DistributionError,
    NodeFunction,
    make_uniform_interval,
    quantize,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2

BUDGET_ENV_VAR = "OPIAL_BUDGET"


class CliError(Exception):
    """Usage or spec error; maps to exit code 1."""


@dataclass
class RunConfig:
    """One CLI invocation, fully resolved."""

    command: str
    dist_path: str | None = None
    psi_spec: str | None = None
    chi_spec: str | None = None
    functional: str | None = None
    n: int | None = None
    c: float | None = None
    p_exp: float | None = None
    m: int = fn.DEFAULT_RESOLUTION
    grids: list[int] = field(default_factory=list)
    tol: float = fn.EQUALITY_TOL
    seed: int = 0
    trials: int = 100_000
    project: bool = False
    budget: int = oracle_mod.DEFAULT_BUDGET
    out_path: str | None = None
    format: str = "json"

    def validate(self) -> None:
        if self.functional is not None and self.functional not in fn.FUNCTIONAL_IDS:
            raise CliError(
                f"unknown functional {self.functional!r}; expected one of {', '.join(fn.FUNCTIONAL_IDS)}"
            )
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise CliError(f"tolerance must be positive and finite, got {self.tol}")
        if self.trials < 1:
            raise CliError(f"trial count must be positive, got {self.trials}")
        if self.format == "csv" and self.command != "converge":
            raise CliError("csv format is only available for converge study tables")


# ---------------------------------------------------------------------------
# spec loading
# ---------------------------------------------------------------------------


def _read_json(path: str) -> object:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from None


def load_distribution(path: str) -> Distribution:
    obj = _read_json(path)
    try:
        return Distribution.from_spec_dict(obj)
    except DistributionError as exc:
        raise CliError(f"{path}: {exc}") from None


def parse_node_function(spec: str) -> NodeFunction:
    """Parse a --psi/--chi argument: inline JSON, a JSON file path, or a name."""
    text = spec.strip()
    if text.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CliError(f"inline node-function spec: invalid JSON: {exc.msg}") from None
    elif os.path.exists(text) or text.endswith(".json"):
        obj = _read_json(text)
    else:
        obj = text
    try:
        return NodeFunction.from_spec(obj)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def load_specs(
    dist_path: str | None, psi_spec: str | None, chi_spec: str | None
) -> tuple[Distribution | None, NodeFunction | None, NodeFunction | None]:
    """Load and validate the distribution and node-function inputs."""
    dist = load_distribution(dist_path) if dist_path else None
    psi = parse_node_function(psi_spec) if psi_spec else None
    chi = parse_node_function(chi_spec) if chi_spec else None
    return dist, psi, chi


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def _json_text(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _csv_text(rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    handle = tempfile.NamedTemporaryFile(
        "w", encoding="utf-8", dir=directory, delete=False, suffix=".tmp"
    )
    try:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
        handle.close()
        os.replace(handle.name, path)
    except BaseException:
        handle.close()
        if os.path.exists(handle.name):
            os.unlink(handle.name)
        raise


def _emit(config: RunConfig, text: str) -> None:
    if config.out_path:
        _write_atomic(config.out_path, text)
    else:
        sys.stdout.write(text)


def _with_config_meta(doc: dict, config: RunConfig) -> dict:
    doc = dict(doc)
    doc["tol"] = config.tol
    doc["version"] = __version__
    return doc


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _values_vector(psi: NodeFunction | None, what: str) -> np.ndarray:
    if psi is None or psi.kind != "values":
        raise CliError(f"{what} requires --psi with kind 'values'")
    return np.asarray(psi.values, dtype=float)


def _functional(config: RunConfig) -> fn.Functional:
    if config.functional is None:
        raise CliError("--functional is required")
    return fn.FUNCTIONALS[config.functional]


#: Message for a missing required parameter, by parameter.
_MISSING = {
    "n": "{} requires --n",
    "c": "{} requires --c",
    "chi": "functional {} requires --chi",
    "p_exp": "{} requires --p-exp",
}


def _params(config: RunConfig, spec: fn.Functional, chi) -> dict:
    """The functional's required parameters, from the flags and --chi."""
    given = {"n": config.n, "c": config.c, "chi": chi, "p_exp": config.p_exp}
    for name in spec.params:
        if given[name] is None:
            raise CliError(_MISSING[name].format(config.functional))
    return {name: given[name] for name in spec.params}


def _evaluate_report(config: RunConfig, dist, psi, chi) -> fn.IneqReport:
    spec = _functional(config)
    functional = config.functional
    if spec.input == "sequence":
        return spec.evaluate(_values_vector(psi, functional), tol=config.tol)
    if dist is None:
        raise CliError(f"functional {functional} requires --dist")
    if psi is None:
        raise CliError(f"functional {functional} requires --psi")
    if spec.input == "distribution":
        return spec.evaluate(dist, psi, m=config.m, tol=config.tol, **_params(config, spec, chi))
    model = quantize(dist, config.m)
    options = {"project": config.project} if spec.zero_mean else {}
    return spec.evaluate(model, psi, tol=config.tol, **options, **_params(config, spec, chi))


def _require_finite(functional: str, terms: dict) -> None:
    """Reject a report whose terms overflowed or came from non-finite input."""
    bad = sorted(k for k, v in terms.items() if not math.isfinite(v))
    if bad:
        raise CliError(
            f"{functional}: non-finite terms {', '.join(bad)}; the input overflows "
            "double precision or is not finite"
        )


def _cmd_verify(config: RunConfig) -> int:
    dist, psi, chi = load_specs(config.dist_path, config.psi_spec, config.chi_spec)
    spec = _functional(config)
    if spec.input == "exponent":
        params = _params(config, spec, chi)
        if psi is None:
            raise CliError(f"{config.functional} requires --psi")
        record = spec.evaluate(psi=psi, m=config.m, **params)
        _require_finite(
            config.functional,
            {"our_lhs": record.our_lhs, "our_rhs": record.our_rhs, "troy_rhs": record.troy_rhs},
        )
        _emit(config, _json_text(_with_config_meta(record.to_json_dict(), config)))
        slack = record.our_rhs - record.our_lhs
        ok = slack >= -config.tol * max(1.0, abs(record.our_rhs))
        print(
            f"troy p={record.p_exp} our_lhs={record.our_lhs:.12g} "
            f"our_rhs={record.our_rhs:.12g} troy_rhs={record.troy_rhs:.12g}"
        )
        return EXIT_OK if ok else EXIT_VIOLATION
    report = _evaluate_report(config, dist, psi, chi)
    _require_finite(report.functional, report.terms)
    _emit(config, _json_text(_with_config_meta(report.to_json_dict(), config)))
    rhs = report.terms["rhs"]
    ok = report.slack >= -config.tol * max(1.0, abs(rhs))
    print(
        f"{report.functional} slack={report.slack:.6g} ratio={report.ratio:.12g} "
        f"equality={str(report.equality).lower()}"
    )
    return EXIT_OK if ok else EXIT_VIOLATION


def _cmd_oracle_diff(config: RunConfig) -> int:
    dist, psi, chi = load_specs(config.dist_path, config.psi_spec, config.chi_spec)
    spec = _functional(config)
    functional = config.functional
    if not spec.oracle_backed:
        raise CliError(
            f"no enumeration oracle for {functional}; its evaluation is already literal"
        )
    if dist is None or psi is None:
        raise CliError("oracle-diff requires --dist and --psi")
    model = quantize(dist, config.m)
    psi_vals = psi.resolve(model)
    chi_vals = chi.resolve(model) if chi is not None else None
    if spec.zero_mean and config.project:
        # Project once so the oracle sees the same values as the fast path.
        psi_vals = psi_vals - float(np.sum(model.mass * psi_vals))
    _params(config, spec, chi_vals)
    if spec.input == "distribution" and dist.pieces:
        # The fast path quantizes each conditional separately, which is a
        # different discretization than splitting the quantized model.
        raise CliError(f"oracle-diff for {functional} requires an atomic distribution")
    fast = _evaluate_report(config, dist, psi_vals, chi_vals).terms
    try:
        slow = oracle_mod.enumerate_functional(
            model,
            psi_vals,
            chi=chi_vals,
            functional=functional,
            n=config.n,
            c=config.c,
            budget=config.budget,
        )
    except oracle_mod.BudgetExceededError as exc:
        raise CliError(str(exc)) from None
    shared = sorted(set(fast) & set(slow))
    rel_err = 0.0
    for key in shared:
        scale = max(1.0, abs(fast[key]), abs(slow[key]))
        rel_err = max(rel_err, abs(fast[key] - slow[key]) / scale)
    doc = {
        "functional": functional,
        "fast": {k: float(fast[k]) for k in shared},
        "oracle": {k: float(slow[k]) for k in shared},
        "rel_err": rel_err,
    }
    _emit(config, _json_text(_with_config_meta(doc, config)))
    print(f"{functional} rel_err={rel_err:.3e}")
    return EXIT_OK if rel_err <= config.tol else EXIT_VIOLATION


def _cmd_sharpness(config: RunConfig) -> int:
    functional = config.functional
    spec = fn.FUNCTIONALS.get(functional)
    if spec is None or spec.form is None:
        solved = [k for k, f in fn.FUNCTIONALS.items() if f.form is not None]
        raise CliError(f"sharpness supports --functional {', '.join(solved[:-1])} or {solved[-1]}")
    form = spec.form
    if spec.zero_mean:
        # The zero-mean bound is sharp on continuous laws: solve uniform (0, 1).
        if config.m < 2:
            raise CliError(f"need resolution m >= 2, got {config.m}")
        model = quantize(make_uniform_interval(0.0, 1.0), config.m)
        result = sharp.rayleigh_best_constant(model, functional)
        doc = result.to_json_dict()
        line = f"{functional} c_m={result.c_m:.12g} target={form.bound:.12g} iterations={result.iterations}"
    else:
        dist, _, _ = load_specs(config.dist_path, None, None)
        if dist is None:
            raise CliError("sharpness for thm1-* requires --dist")
        result = sharp.rayleigh_best_constant(quantize(dist, config.m), functional)
        # Reported as the ratio to the stated constant, which constant psi attains.
        ratio = result.c_m / form.bound
        doc = {
            "psi_star": [float(v) for v in result.psi_star],
            "ratio_star": ratio,
            "iterations": result.iterations,
            "converged": result.converged,
            "trace": [[i, c / form.bound] for i, c in result.trace],
        }
        line = f"{functional} ratio_star={ratio:.12g} iterations={result.iterations}"
    doc["functional"] = functional
    _emit(config, _json_text(_with_config_meta(doc, config)))
    print(line)
    return EXIT_OK


def _cmd_converge(config: RunConfig) -> int:
    if config.functional is None:
        raise CliError("--functional is required")
    if not config.grids:
        raise CliError("--grids is required")
    try:
        study = sharp.convergence_study(config.functional, config.grids, n=config.n)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    if config.format == "csv":
        _emit(config, _csv_text(study.to_csv_rows()))
    else:
        _emit(config, _json_text(_with_config_meta(study.to_json_dict(), config)))
    last = study.rows[-1]
    print(
        f"{config.functional} m={last.m} value={last.value:.12g} error={last.error:.3e} "
        f"fitted_order={'n/a' if study.fitted_order is None else f'{study.fitted_order:.3f}'}"
    )
    return EXIT_OK


def _cmd_search(config: RunConfig) -> int:
    if config.functional is None:
        raise CliError("--functional is required")
    try:
        violation = sharp.search_counterexample(
            config.functional,
            trials=config.trials,
            seed=config.seed,
            m_max=config.m,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from None
    doc = {
        "functional": config.functional,
        "trials": config.trials,
        "seed": config.seed,
        "violation": None if violation is None else violation.to_json_dict(),
    }
    _emit(config, _json_text(_with_config_meta(doc, config)))
    if violation is None:
        print(f"{config.functional} no violation in {config.trials} trials")
        return EXIT_OK
    kind = "heuristic-class" if violation.heuristic else "UNEXPECTED"
    print(
        f"{config.functional} {kind} violation at trial {violation.trial} "
        f"slack={violation.slack:.3e}",
        file=sys.stderr,
    )
    return EXIT_VIOLATION


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # Usage errors must exit 1, not argparse's default 2.
    def error(self, message: str):  # noqa: D102
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_grids(text: str) -> list[int]:
    try:
        grids = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid grid list {text!r}") from None
    if not grids:
        raise argparse.ArgumentTypeError("empty grid list")
    return grids


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="opial",
        description="Evaluate, verify and sharpness-certify distribution-function "
        "Opial and Wirtinger inequalities.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--dist", dest="dist_path", metavar="PATH", help="distribution spec JSON file")
        p.add_argument("--psi", dest="psi_spec", metavar="SPEC|PATH", help="node function: inline JSON, file, or family name")
        p.add_argument("--chi", dest="chi_spec", metavar="SPEC|PATH", help="weight function (same forms as --psi)")
        p.add_argument("--functional", metavar="ID", help="functional identifier")
        p.add_argument("--n", type=int, metavar="K", help="nested-integral order")
        p.add_argument("--c", type=float, metavar="REAL", help="split point for the two-sided form")
        p.add_argument("--p-exp", dest="p_exp", type=float, metavar="REAL", help="weight exponent for the troy comparison")
        p.add_argument("--m", type=int, default=None, metavar="INT", help=f"quantization resolution (default {fn.DEFAULT_RESOLUTION}); for search, the maximum node count (default 30)")
        p.add_argument("--grids", type=_parse_grids, metavar="LIST", help="comma-separated grid sizes")
        p.add_argument("--tol", type=float, default=fn.EQUALITY_TOL, metavar="REAL", help="verification tolerance (relative)")
        p.add_argument("--seed", type=int, default=0, metavar="INT", help="master seed for randomized commands")
        p.add_argument("--trials", type=int, default=100_000, metavar="INT", help="trial count for search")
        p.add_argument("--project", action="store_true", help="project psi onto the zero-mean subspace where required")
        p.add_argument("--budget", type=int, default=None, metavar="INT", help=f"oracle summand budget (default from ${BUDGET_ENV_VAR} or {oracle_mod.DEFAULT_BUDGET})")
        p.add_argument("--out", dest="out_path", metavar="PATH", help="report output path (default stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json", help="report format")

    for name, help_text in (
        ("verify", "evaluate one functional and check its inequality"),
        ("oracle-diff", "compare the fast evaluator against brute-force enumeration"),
        ("sharpness", "maximize the inequality ratio over node functions"),
        ("converge", "refinement study toward the sharp constant"),
        ("search", "randomized counterexample search"),
    ):
        add_common(sub.add_parser(name, help=help_text))
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    budget = args.budget
    if budget is None:
        env = os.environ.get(BUDGET_ENV_VAR)
        try:
            budget = int(env) if env else oracle_mod.DEFAULT_BUDGET
        except ValueError:
            raise CliError(f"${BUDGET_ENV_VAR} must be an integer, got {env!r}") from None
    m = args.m
    if m is None:
        m = 30 if args.command == "search" else fn.DEFAULT_RESOLUTION
    return RunConfig(
        command=args.command,
        dist_path=args.dist_path,
        psi_spec=args.psi_spec,
        chi_spec=args.chi_spec,
        functional=args.functional,
        n=args.n,
        c=args.c,
        p_exp=args.p_exp,
        m=m,
        grids=args.grids or [],
        tol=args.tol,
        seed=args.seed,
        trials=args.trials,
        project=args.project,
        budget=budget,
        out_path=args.out_path,
        format=args.format,
    )


_COMMANDS = {
    "verify": _cmd_verify,
    "oracle-diff": _cmd_oracle_diff,
    "sharpness": _cmd_sharpness,
    "converge": _cmd_converge,
    "search": _cmd_search,
}


def run(config: RunConfig) -> int:
    """Execute a resolved configuration; returns the process exit code."""
    try:
        config.validate()
        return _COMMANDS[config.command](config)
    except CliError as exc:
        print(f"opial: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DistributionError, fn.ZeroMeanError, ValueError) as exc:
        print(f"opial: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except sharp.ConvergenceError as exc:
        print(f"opial: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return run(config_from_args(args))


if __name__ == "__main__":
    sys.exit(main())
