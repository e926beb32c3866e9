"""Benchmark harness for opial.

Usage, from the repository root:

    python3 bench/run.py --workload search --seed 1 --seconds 20 --trace 0

Runs one workload (`search`, `verify-large` or `certify`, see
`workloads.py`) in closed loop for `--seconds` seconds of whole rounds,
checks the outputs of the last round against independent computations, and
prints one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones; with `--trace 1` they
are the per-layer ones, from a run that first measures untraced rounds for
half the time and then traced rounds for the other half.  Reports and the
per-function trace table are written under `bench/out/<workload>/`.

Everything runs in this one process, on one thread; BLAS and OpenMP thread
counts are pinned to 1 before numpy is imported.
"""
from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

#: Fresh interpreters started per run to measure set-up time.
SETUP_SAMPLES = 5


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the `end_to_end` or `per_layer` metrics in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


class _Discard:
    """A text sink for the CLI's summary lines."""

    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        pass


def measure_setup(samples: int = SETUP_SAMPLES) -> float:
    """Median seconds from a fresh interpreter's start to `opial.cli` imported."""
    env = dict(os.environ, PYTHONPATH=SRC)
    argv = [sys.executable, "-c", "import opial.cli"]
    times = []
    for k in range(samples + 1):  # the first start also writes the bytecode cache
        start = time.perf_counter()
        subprocess.run(argv, env=env, check=True, stdin=subprocess.DEVNULL)
        if k:
            times.append(time.perf_counter() - start)
    return statistics.median(times)


def _file_state(path: str | None):
    try:
        st = os.stat(path)
    except (OSError, TypeError):
        return None
    return st.st_ino, st.st_mtime_ns, st.st_size


def run_op(op, sink) -> tuple[float, int, object]:
    """Run one operation; returns (seconds, exit code, library result)."""
    from opial import cli

    result = None
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            if op.call is not None:
                result = op.call()
                code = 0
            else:
                code = cli.main(op.argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an operation that crashes counts as failed
            elapsed = time.perf_counter() - start
            print(f"bench: {op.name} raised:\n{traceback.format_exc()}", file=sys.__stderr__)
            return elapsed, -1, None
        elapsed = time.perf_counter() - start
    return elapsed, code, result


class Rounds:
    """Closed-loop rounds of a workload's operations and their tallies."""

    def __init__(self, workload):
        self.workload = workload
        self.op_times: dict[str, list[float]] = {op.name: [] for op in workload.ops}
        self.rounds = 0
        self.attempted = 0
        self.failed: set[str] = set()
        self.failed_count = 0
        self.library_results: dict = {}
        self.bytes_written = 0
        self.sink = _Discard()

    def run(self, seconds: float, count_bytes: bool = False) -> None:
        """Run whole rounds until `seconds` have passed (at least one)."""
        start = time.perf_counter()
        first = self.rounds
        while self.rounds == first or time.perf_counter() - start < seconds:
            failed = set()
            for op in self.workload.ops:
                before = _file_state(op.out) if count_bytes else None
                elapsed, code, result = run_op(op, self.sink)
                self.op_times[op.name].append(elapsed)
                self.attempted += 1
                if not op.expect(code, op.out):
                    failed.add(op.name)
                if op.call is not None:
                    self.library_results[op.name] = result
                if count_bytes:
                    after = _file_state(op.out)
                    if after is not None and after != before:
                        self.bytes_written += after[2]
            self.rounds += 1
            self.failed_count += len(failed)
            self.failed = failed  # the checks read the last round

    def best_wall(self) -> float:
        """Seconds of one round, each operation at its fastest over the rounds.

        The virtual machine's speed flips between a fast and a slow state
        every few seconds, so the median of a run depends on the mix of
        states it happened to meet; the best of many short repetitions
        depends on it much less.
        """
        return sum(min(times) for times in self.op_times.values())


def measure(workload, seconds: float, trace: bool) -> dict:
    """Time, check and (with `trace`) trace one workload; returns the result object."""
    setup_s = measure_setup()
    run_op(workload.warm_up_op, _Discard())

    plain = Rounds(workload)
    plain.run(seconds / 2 if trace else seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rounds = [plain]
    if trace:
        from layertrace import Tracer

        traced = Rounds(workload)
        with Tracer() as tracer:
            traced.run(seconds / 2, count_bytes=True)
            metrics = tracer.layer_metrics(rounds=traced.rounds)
            table = tracer.function_table()
            tracer.reset()
            results = workload.collect(traced.library_results)
            errors = workload.check(results, traced.failed)
            check_layers = tracer.layer_metrics()
        rounds.append(traced)
    else:
        results = workload.collect(plain.library_results)
        errors = workload.check(results, plain.failed)
    for message in errors:
        print(f"bench: check failed: {message}", file=sys.stderr)

    wall_s = plain.best_wall()
    if trace:
        for key in ("oracle.calls", "oracle.summands", "oracle.busy_s"):
            metrics[key] = check_layers[key]
        metrics["cli.bytes_written"] = traced.bytes_written / traced.rounds
        metrics["trace.overhead_s"] = traced.best_wall() - wall_s
        with open(workload.path("trace.json"), "w", encoding="utf-8") as handle:
            json.dump({"rounds": traced.rounds, "functions": table, "layers": metrics}, handle, indent=1)
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "trials_per_s": workload.trials_per_round(results) / wall_s,
            "nodes_per_s": workload.nodes_per_round(results) / wall_s,
            "peak_rss_mb": peak_rss_mb,
        }
    units = metric_units("per_layer" if trace else "end_to_end")
    return {
        "correct": not errors,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed_count for r in rounds),
        "metrics": {key: {"value": float(metrics[key]), "unit": unit} for key, unit in units.items()},
    }


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("search", "verify-large", "certify"))
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "opial", "cli.py")):
        print(f"bench: no opial sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import opial

    if os.path.dirname(os.path.dirname(os.path.abspath(opial.__file__))) != SRC:
        print(f"bench: imported opial from {opial.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    out_dir = os.path.join(BENCH_DIR, "out", args.workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    workload = workloads.WORKLOADS[args.workload](args.seed, out_dir)
    result = measure(workload, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
