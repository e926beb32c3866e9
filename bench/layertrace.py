"""Per-layer tracing of the opial modules, installed from outside.

`Tracer` replaces every public function of each opial module, and the
`QuantizedModel.__post_init__` and `NodeFunction.resolve` methods, with a
timing wrapper.  A name bound by ``from .module import name`` is a separate
binding in the importing module, so the wrapper is installed under every
name in every opial module (and the package) that refers to the original
object; otherwise calls made through those bindings would go untraced.
Nothing under ``src/`` is edited, and `uninstall` restores every binding.

A span's self time is its duration minus the durations of the spans it
called.  Statistics are aggregated per function in memory; no per-call
record is kept.
"""
from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

import numpy as np

#: Functions whose inclusive time is the solver time, and whose results
#: carry an `iterations` count (power-iteration steps or ascent sweeps).
SOLVERS = ("sharpness.maximize_ratio_opial", "sharpness.rayleigh_best_constant")

#: Index-tuple arity enumerated by `oracle.enumerate_functional`, per
#: functional; thm2 enumerates n + 1 indices.
ORACLE_ARITY = {
    "thm1-lower": 2,
    "thm1-upper": 2,
    "weighted-lower": 2,
    "weighted-upper": 2,
    "wirtinger": 2,
    "corollary": 2,
    "thm3": 3,
}


def _public_functions(module):
    for name, value in vars(module).items():
        if (
            not name.startswith("_")
            and inspect.isfunction(value)
            and value.__module__ == module.__name__
        ):
            yield name, value


class Tracer:
    """Wraps the opial layers; aggregates calls, inclusive and self time."""

    def __init__(self):
        self._stack: list[list[float]] = []
        self._originals: dict[int, tuple[object, object]] = {}  # id -> (original, wrapper)
        self._patched: list[tuple[object, str, object]] = []  # (owner, name, original)
        # key -> [calls, inclusive seconds, self seconds]
        self.stats: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[str, float] = defaultdict(float)

    # -- statistics --------------------------------------------------------

    def reset(self) -> None:
        self.stats.clear()
        self.counters.clear()

    def _wrapper(self, key: str, func, after=None):
        stack = self._stack
        stats = self.stats
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = func(*args, **kwargs)
            finally:
                duration = clock() - frame[0]
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                entry = stats[key]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", key)
        return traced

    # -- hooks reading work counts from arguments and results ---------------

    def _count_elements(self, args, kwargs, result):
        values = args[0] if args else kwargs["values"]
        self.counters["accumulate.elements"] += np.size(values)

    def _count_quantized(self, args, kwargs, result):
        self.counters["distributions.quantize_nodes"] += result.node_count

    def _count_iterations(self, args, kwargs, result):
        self.counters["sharpness.solver_iterations"] += result.iterations

    def _oracle_counter(self, func):
        signature = inspect.signature(func)

        def count(args, kwargs, result):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            model = bound.arguments["model"]
            functional = bound.arguments.get("functional")
            if functional is None:
                arity = 3  # the triple-partition oracles
            elif functional == "thm2":
                arity = bound.arguments["n"] + 1
            else:
                arity = ORACLE_ARITY[functional]
            self.counters["oracle.summands"] += model.node_count**arity

        return count

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every public opial function under every name bound to it."""
        import opial
        from opial import accumulate, cli, distributions, functionals, oracle, sharpness

        modules = {
            "accumulate": accumulate,
            "distributions": distributions,
            "functionals": functionals,
            "sharpness": sharpness,
            "oracle": oracle,
            "cli": cli,
        }
        hooks = {
            "distributions.quantize": self._count_quantized,
            **{key: self._count_iterations for key in SOLVERS},
        }
        for layer, module in modules.items():
            for name, func in _public_functions(module):
                key = f"{layer}.{name}"
                after = hooks.get(key)
                if layer == "accumulate":
                    after = self._count_elements
                elif layer == "oracle" and "model" in inspect.signature(func).parameters:
                    after = self._oracle_counter(func)
                self._originals[id(func)] = (func, self._wrapper(key, func, after))
        for owner, name in (
            (distributions.QuantizedModel, "__post_init__"),
            (distributions.NodeFunction, "resolve"),
        ):
            func = owner.__dict__[name]
            key = f"distributions.{owner.__name__}.{name}"
            self._set(owner, name, self._wrapper(key, func))

        targets = [opial, *modules.values()]
        targets += [mod for key, mod in sys.modules.items() if key.startswith("opial.") and mod not in targets]
        for module in targets:
            for name, value in list(vars(module).items()):
                entry = self._originals.get(id(value))
                if entry is not None and entry[0] is value:
                    self._set(module, name, entry[1])

    def _set(self, owner, name, wrapper) -> None:
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()
        self._originals.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- layer metrics -------------------------------------------------------

    def _sum(self, prefix: str, column: int) -> float:
        return sum(v[column] for k, v in self.stats.items() if k.startswith(prefix))

    def layer_metrics(self, rounds: int = 1) -> dict[str, float]:
        """Per-layer metrics since the last reset, as totals divided by `rounds`.

        `accumulate.ns_per_element` is a ratio of totals and is not divided.
        """
        stats = self.stats
        elements = self.counters["accumulate.elements"]
        busy = self._sum("accumulate.", 1)
        totals = {
            "accumulate.calls": self._sum("accumulate.", 0),
            "accumulate.elements": elements,
            "accumulate.busy_s": busy,
            "distributions.quantize_s": stats["distributions.quantize"][1],
            "distributions.quantize_nodes": self.counters["distributions.quantize_nodes"],
            "distributions.model_builds": stats["distributions.QuantizedModel.__post_init__"][0],
            "distributions.model_build_s": stats["distributions.QuantizedModel.__post_init__"][1],
            "distributions.resolve_s": stats["distributions.NodeFunction.resolve"][1],
            "functionals.calls": self._sum("functionals.", 0),
            "functionals.self_s": self._sum("functionals.", 2),
            "sharpness.self_s": self._sum("sharpness.", 2),
            "sharpness.solver_iterations": self.counters["sharpness.solver_iterations"],
            "sharpness.solver_s": sum(stats[key][1] for key in SOLVERS),
            "cli.calls": stats["cli.main"][0],
            "cli.self_s": self._sum("cli.", 2),
            "oracle.calls": self._sum("oracle.", 0),
            "oracle.summands": self.counters["oracle.summands"],
            "oracle.busy_s": self._sum("oracle.", 1),
        }
        metrics = {key: value / rounds for key, value in totals.items()}
        metrics["accumulate.ns_per_element"] = 1e9 * busy / elements if elements else 0.0
        return metrics

    def function_table(self) -> dict[str, dict[str, float]]:
        """Per-function calls, inclusive and self seconds (for the trace file)."""
        return {
            key: {"calls": v[0], "inclusive_s": v[1], "self_s": v[2]}
            for key, v in sorted(self.stats.items())
        }
