"""Command-line front end: ``opial COMMAND [flags]``.

One parser takes the command (see :data:`_COMMANDS`) and the flags, which
every command shares and which may come before or after it; the parsed
namespace is the run's configuration.  Reports are written atomically
(temp file + rename) and are byte-deterministic for a fixed configuration
including the seed.  Exit codes: 0 all inequalities verified, 1 usage or
spec error (printed as ``opial: error: ...``), 2 violation found.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import secrets
import sys
from json.encoder import c_make_encoder, encode_basestring_ascii

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


def validate(args: argparse.Namespace) -> None:
    """Fill in the defaults that depend on the command or environment; check the flags."""
    handler = _COMMANDS[args.command][0]
    if args.m is None:
        args.m = sharp.DEFAULT_M_MAX if handler is _cmd_search else fn.DEFAULT_RESOLUTION
    if args.budget is None:
        env = os.environ.get(BUDGET_ENV_VAR)
        try:
            args.budget = int(env) if env else oracle_mod.DEFAULT_BUDGET
        except ValueError:
            raise CliError(f"${BUDGET_ENV_VAR} must be an integer, got {env!r}") from None
    if args.functional is None:
        raise CliError("--functional is required")
    if args.functional not in fn.FUNCTIONAL_IDS:
        raise CliError(
            f"unknown functional {args.functional!r}; expected one of {', '.join(fn.FUNCTIONAL_IDS)}"
        )
    if not (math.isfinite(args.tol) and args.tol > 0.0):
        raise CliError(f"tolerance must be positive and finite, got {args.tol}")
    for flag, value in (("--c", args.c), ("--p-exp", args.p_exp)):
        if value is not None and not math.isfinite(value):
            raise CliError(f"{flag} must be finite, got {value}")
    if args.format == "csv" and handler is not _cmd_converge:
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
    return NodeFunction.from_spec(obj)


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


#: Exact types a container may hold and still go to the C encoder whole.
_SCALAR_TYPES = frozenset((str, int, float, bool, type(None)))


@functools.cache
def _c_encoder(depth: int):
    """CPython's C JSON encoder, as json.dumps builds it without ``indent``,
    with each item of a container on its own line at indentation `depth`."""
    return c_make_encoder(
        None,  # no circular-reference markers: a leaf container holds no container
        json.JSONEncoder().default,  # raises TypeError for what JSON cannot hold
        encode_basestring_ascii,
        None,
        ": ",
        ",\n" + "  " * depth,
        True,  # sort_keys
        False,  # skipkeys
        False,  # allow_nan
    )


def _json_text(doc: dict) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\\n"``, byte for byte.

    json.dumps encodes in pure Python once ``indent`` is set.  Here Python
    walks only the containers that hold containers; every other container,
    such as a long ``psi_star``, is one call of the C encoder, whose item
    separator carries the newline and the indentation.
    """
    chunks: list[str] = []
    _encode(doc, 0, chunks)
    chunks.append("\n")
    return "".join(chunks)


def _encode(value, depth: int, chunks: list[str]) -> None:
    """Append the JSON text of `value`, written at indentation level `depth`."""
    if not isinstance(value, (dict, list, tuple)):
        chunks += _c_encoder(0)(value, 0)
        return
    is_dict = isinstance(value, dict)
    items = value.values() if is_dict else value
    if not items:
        chunks.append("{}" if is_dict else "[]")
        return
    inner = "\n" + "  " * (depth + 1)
    close = "\n" + "  " * depth
    if _SCALAR_TYPES.issuperset(map(type, items)):
        text = "".join(_c_encoder(depth + 1)(value, 0))
        chunks += (text[0], inner, text[1:-1], close, text[-1])
        return
    opening, closing = ("{", "}") if is_dict else ("[", "]")
    sep = opening
    for item in sorted(value.items()) if is_dict else value:
        chunks += (sep, inner)
        if is_dict:
            key, item = item
            chunks += (_key_text(key), ": ")
        _encode(item, depth + 1, chunks)
        sep = ","
    chunks += (close, closing)


def _key_text(key) -> str:
    """A dict key as json.dumps writes it: a string, or a scalar's JSON text, quoted."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if isinstance(key, (int, float)) or key is None:
        return encode_basestring_ascii("".join(_c_encoder(0)(key, 0)))
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _write_atomic(path: str, text: str) -> None:
    """Write `text` to a new file beside `path`, then rename it over `path`.

    The file is created as ``open(path, "w")`` would create it, with mode
    0666 less the umask.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".{os.path.basename(path)}.{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(args: argparse.Namespace, doc: dict | list[list]) -> None:
    """Write a report to --out or stdout: a JSON document, with the run's
    tolerance and the package version added, or CSV rows."""
    if isinstance(doc, list):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(doc)
        text = buf.getvalue()
    else:
        text = _json_text({**doc, "tol": args.tol, "version": __version__})
    if not args.out_path:
        sys.stdout.write(text)
        return
    try:
        _write_atomic(args.out_path, text)
    except OSError as exc:
        raise CliError(f"cannot write {args.out_path}: {exc.strerror or exc}") from None


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _require(value, flag: str, functional: str):
    """`value`, which the functional needs: None means `flag` was not given."""
    if value is None:
        raise CliError(f"{functional} requires {flag}")
    return value


def _params(args: argparse.Namespace, spec: fn.Functional, chi) -> dict:
    """The functional's required parameters, from the flags and --chi."""
    given = {"n": args.n, "c": args.c, "chi": chi, "p_exp": args.p_exp}
    return {
        name: _require(given[name], "--" + name.replace("_", "-"), args.functional)
        for name in spec.params
    }


def _evaluate_report(args: argparse.Namespace, dist, psi, chi, model=None):
    """Evaluate --functional on the loaded inputs: the one way from the flags
    to a report, for verify and oracle-diff.  `model` is --dist quantized at
    --m where the caller has it already."""
    functional = args.functional
    spec = fn.FUNCTIONALS[functional]
    if spec.input in ("model", "distribution"):
        _require(dist, "--dist", functional)
    psi = _require(psi, "--psi", functional)
    params = _params(args, spec, chi)
    if spec.input == "sequence":
        if psi.kind != "values":
            raise CliError(f"{functional} requires --psi with kind 'values'")
        return spec.evaluate(np.asarray(psi.values, dtype=float), tol=args.tol)
    if spec.input == "exponent":
        return spec.evaluate(psi=psi, m=args.m, **params)
    if spec.input == "distribution":
        return spec.evaluate(dist, psi, m=args.m, tol=args.tol, **params)
    if model is None:
        model = quantize(dist, args.m)
    options = {"project": args.project} if spec.zero_mean else {}
    return spec.evaluate(model, psi, tol=args.tol, **options, **params)


def _cmd_verify(args: argparse.Namespace) -> int:
    reads_dist = fn.FUNCTIONALS[args.functional].input in ("model", "distribution")
    dist_path = args.dist_path if reads_dist else None
    report = _evaluate_report(args, *load_specs(dist_path, args.psi_spec, args.chi_spec))
    if isinstance(report, fn.TroyComparison):
        terms = {"our_lhs": report.our_lhs, "our_rhs": report.our_rhs, "troy_rhs": report.troy_rhs}
        slack, rhs = report.our_rhs - report.our_lhs, report.our_rhs
        summary = (
            f"troy p={report.p_exp} our_lhs={report.our_lhs:.12g} "
            f"our_rhs={report.our_rhs:.12g} troy_rhs={report.troy_rhs:.12g}"
        )
    else:
        terms, slack, rhs = report.terms, report.slack, report.terms["rhs"]
        summary = (
            f"{report.functional} slack={report.slack:.6g} ratio={report.ratio:.12g} "
            f"equality={str(report.equality).lower()}"
        )
    bad = sorted(k for k, v in terms.items() if not math.isfinite(v))
    if bad:  # overflow or non-finite input: no verdict
        raise CliError(
            f"{args.functional}: non-finite terms {', '.join(bad)}; the input overflows "
            "double precision or is not finite"
        )
    _emit(args, report.to_json_dict())
    print(summary)
    return EXIT_VIOLATION if fn.violates(slack, rhs, args.tol) else EXIT_OK


def _cmd_oracle_diff(args: argparse.Namespace) -> int:
    dist, psi, chi = load_specs(args.dist_path, args.psi_spec, args.chi_spec)
    spec = fn.FUNCTIONALS[args.functional]
    functional = args.functional
    if not spec.oracle_backed:
        raise CliError(
            f"no enumeration oracle for {functional}; its evaluation is already literal"
        )
    model = quantize(_require(dist, "--dist", functional), args.m)
    if spec.input == "distribution" and dist.pieces:
        # The fast path quantizes each conditional separately, which is a
        # different discretization than splitting the quantized model.
        raise CliError(f"oracle-diff for {functional} requires an atomic distribution")
    fast = _evaluate_report(args, dist, psi, chi, model).terms
    # The oracle gets psi as the fast path resolved it: on an atomic law the
    # two sides of the split are the full model's nodes, in order.
    if spec.input == "distribution":
        psi_vals = np.concatenate([vals for _, vals in fn.split_at(dist, psi, args.c, args.m)[:2]])
    elif spec.zero_mean:
        psi_vals = fn.zero_mean_values(model.mass, psi.resolve(model), args.project)
    else:
        psi_vals = psi.resolve(model)
    try:
        slow = oracle_mod.enumerate_functional(
            model,
            psi_vals,
            chi=None if chi is None else chi.resolve(model),
            functional=functional,
            n=args.n,
            c=args.c,
            budget=args.budget,
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
    _emit(args, doc)
    print(f"{functional} rel_err={rel_err:.3e}")
    return EXIT_OK if rel_err <= args.tol else EXIT_VIOLATION


def _cmd_sharpness(args: argparse.Namespace) -> int:
    functional = args.functional
    spec = fn.FUNCTIONALS[functional]
    if spec.form is None:
        solved = [k for k, f in fn.FUNCTIONALS.items() if f.form is not None]
        raise CliError(f"sharpness supports --functional {', '.join(solved[:-1])} or {solved[-1]}")
    if spec.zero_mean:
        # The zero-mean bound is sharp on continuous laws: solve uniform (0, 1).
        dist = make_uniform_interval(0.0, 1.0)
    else:
        dist = load_distribution(_require(args.dist_path, "--dist", functional))
    result = sharp.rayleigh_best_constant(quantize(dist, args.m), functional)
    _emit(args, result.to_json_dict())
    print(
        f"{functional} c_m={result.c_m:.12g} ratio_star={result.ratio_star:.12g} "
        f"iterations={result.iterations}"
    )
    return EXIT_OK


def _cmd_converge(args: argparse.Namespace) -> int:
    grids = _require(args.grids, "--grids", args.functional)
    study = sharp.convergence_study(args.functional, grids, n=args.n)
    _emit(args, study.to_csv_rows() if args.format == "csv" else study.to_json_dict())
    last = study.rows[-1]
    print(
        f"{args.functional} m={last.m} value={last.value:.12g} error={last.error:.3e} "
        f"fitted_order={'n/a' if study.fitted_order is None else f'{study.fitted_order:.3f}'}"
    )
    return EXIT_OK


def _cmd_search(args: argparse.Namespace) -> int:
    violation = sharp.search_counterexample(
        args.functional,
        trials=args.trials,
        seed=args.seed,
        m_max=args.m,
        rel_tol=args.tol,
    )
    doc = {
        "functional": args.functional,
        "trials": args.trials,
        "seed": args.seed,
        "violation": None if violation is None else violation.to_json_dict(),
    }
    _emit(args, doc)
    if violation is None:
        print(f"{args.functional} no violation in {args.trials} trials")
        return EXIT_OK
    kind = "heuristic-class" if violation.heuristic else "UNEXPECTED"
    print(
        f"{args.functional} {kind} violation at trial {violation.trial} "
        f"slack={violation.slack:.3e}",
        file=sys.stderr,
    )
    return EXIT_VIOLATION


#: Each command: its handler and one-line help, in the order help lists them.
_COMMANDS = {
    "verify": (_cmd_verify, "evaluate one functional and check its inequality"),
    "oracle-diff": (_cmd_oracle_diff, "compare the fast evaluator against brute-force enumeration"),
    "sharpness": (_cmd_sharpness, "maximize the inequality ratio over node functions"),
    "converge": (_cmd_converge, "refinement study toward the sharp constant"),
    "search": (_cmd_search, "randomized counterexample search"),
}


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
    """The command and the flags every command shares, in any order."""
    commands = "".join(f"  {name:<13}{text}\n" for name, (_, text) in _COMMANDS.items())
    p = _Parser(
        prog="opial",
        description="Evaluate, verify and sharpness-certify distribution-function\n"
        "Opial and Wirtinger inequalities.",
        epilog=f"commands:\n{commands}\nEvery flag may come before or after the command.",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("command", choices=_COMMANDS, metavar="COMMAND", help="one of the commands below")
    p.add_argument("--dist", dest="dist_path", metavar="PATH", help="distribution spec JSON file")
    p.add_argument("--psi", dest="psi_spec", metavar="SPEC|PATH", help="node function: inline JSON, file, or family name")
    p.add_argument("--chi", dest="chi_spec", metavar="SPEC|PATH", help="weight function (same forms as --psi)")
    p.add_argument("--functional", metavar="ID", help="functional identifier")
    p.add_argument("--n", type=int, metavar="K", help="nested-integral order")
    p.add_argument("--c", type=float, metavar="REAL", help="split point for the two-sided form")
    p.add_argument("--p-exp", dest="p_exp", type=float, metavar="REAL", help="weight exponent for the troy comparison")
    p.add_argument("--m", type=int, default=None, metavar="INT", help=f"quantization resolution (default {fn.DEFAULT_RESOLUTION}); for search, the maximum node count (default {sharp.DEFAULT_M_MAX})")
    p.add_argument("--grids", type=_parse_grids, metavar="LIST", help="comma-separated grid sizes")
    p.add_argument("--tol", type=float, default=fn.EQUALITY_TOL, metavar="REAL", help="verification tolerance (relative)")
    p.add_argument("--seed", type=int, default=0, metavar="INT", help="master seed for randomized commands")
    p.add_argument("--trials", type=int, default=100_000, metavar="INT", help="trial count for search")
    p.add_argument("--project", action="store_true", help="project psi onto the zero-mean subspace where required")
    p.add_argument("--budget", type=int, default=None, metavar="INT", help=f"oracle summand budget (default from ${BUDGET_ENV_VAR} or {oracle_mod.DEFAULT_BUDGET})")
    p.add_argument("--out", dest="out_path", metavar="PATH", help="report output path (default stdout)")
    p.add_argument("--format", choices=("json", "csv"), default="json", help="report format")
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    return p


def run(args: argparse.Namespace) -> int:
    """Execute parsed arguments; returns the process exit code."""
    try:
        validate(args)
        # Overflow surfaces as non-finite terms and one error line, not numpy warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            return _COMMANDS[args.command][0](args)
    except (CliError, ValueError, sharp.ConvergenceError) as exc:
        print(f"opial: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main(argv: list[str] | None = None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
