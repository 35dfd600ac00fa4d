"""Spans around the public functions of qal's layers, recorded from outside.

``Tracer.install`` wraps every function named in ``__all__`` of ``qal.core``,
``qal.paths``, ``qal.markov``, ``qal.quantum`` and ``qal.cli``, and rebinds
every name in a ``qal`` module that refers to one of them (for example
``qal.markov.sample_readings``, imported from ``qal.core``), so calls made
inside the library are recorded too.  Each call records a span: name, start,
end and the span that was open when it began.  A few spans also record
counts read off their arguments or results.  Nothing under ``src/`` changes.

A span's self time is its duration minus that of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import tracemalloc
import types
from dataclasses import dataclass, field
from time import perf_counter

LAYERS = ("core", "paths", "markov", "quantum", "cli")

_MB = float(1 << 20)

# spans that also measure their peak traced allocation (never nested)
_MEMORY_SPANS = ("paths.build_constraints", "quantum.build_kernel")

#: every per-layer metric a traced run reports, with its unit
PER_LAYER = (
    ("core.sample_readings.calls", "count"),
    ("core.sample_readings.self_s", "s"),
    ("core.draws_per_s", "1/s"),
    ("paths.build_constraints.self_s", "s"),
    ("paths.build_constraints.peak_mb", "MB"),
    ("paths.constraints_for_pairs.self_s", "s"),
    ("paths.pairs", "count"),
    ("paths.groups", "count"),
    ("paths.solve_phases.self_s", "s"),
    ("paths.solve_phases.calls", "count"),
    ("paths.solve_phases.starts_tried", "count"),
    ("paths.solve_phases.max_residual", "1"),
    ("paths.xi_sum.self_s", "s"),
    ("paths.xi_sum.terms", "count"),
    ("paths.amplitude_sum.self_s", "s"),
    ("markov.simulate_game.self_s", "s"),
    ("markov.trial_rounds_per_s", "1/s"),
    ("markov.effective_kernel.self_s", "s"),
    ("markov.propagate_distribution.self_s", "s"),
    ("markov.propagate_distribution.bytes_computed", "B"),
    ("markov.endpoint_constraints.self_s", "s"),
    ("markov.amplitude_propagate.self_s", "s"),
    ("quantum.build_kernel.self_s", "s"),
    ("quantum.build_kernel.matrix_mb", "MB"),
    ("quantum.build_kernel.peak_mb", "MB"),
    ("quantum.propagate.self_s", "s"),
    ("quantum.propagate.plain.self_s", "s"),
    ("quantum.propagate.plain.steps_per_s", "1/s"),
    ("quantum.propagate.apodized.self_s", "s"),
    ("quantum.propagate.apodized.steps_per_s", "1/s"),
    ("quantum.reference_solver.self_s", "s"),
    ("quantum.roughness_scan.self_s", "s"),
    ("cli.run.self_s", "s"),
    ("cli.csv_bytes", "B"),
    ("import.qal_s", "s"),
    ("import.scipy_optimize_s", "s"),
    ("import.scipy_sparse_s", "s"),
    ("import.numpy_s", "s"),
) + tuple((f"layer.{layer}.self_s", "s") for layer in LAYERS)


@dataclass
class Span:
    name: str
    layer: str
    parent: int
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


class Tracer:
    """Records spans in memory while installed; ``reset`` starts a new pass."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._census = None

    def install(self) -> None:
        originals = {}
        for layer in LAYERS:
            module = importlib.import_module(f"qal.{layer}")
            for name in module.__all__:
                fn = getattr(module, name)
                if isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__:
                    originals[id(fn)] = (fn, self._wrap(f"{layer}.{name}", layer, fn))
        self._census = importlib.import_module("qal.paths").census
        for module_name, module in list(sys.modules.items()):
            if module_name != "qal" and not module_name.startswith("qal."):
                continue
            for attr, value in list(vars(module).items()):
                entry = originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def reset(self) -> None:
        self.spans = []
        self._stack = []

    def _wrap(self, name: str, layer: str, fn):
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        memory = name in _MEMORY_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            index = len(self.spans)
            span = Span(name, layer, stack[-1] if stack else -1)
            self.spans.append(span)
            stack.append(index)
            if memory:
                tracemalloc.start()
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                if memory:
                    span.attrs["peak_mb"] = tracemalloc.get_traced_memory()[1] / _MB
                    tracemalloc.stop()
            if observe is not None:
                observe(index, args, kwargs, result)
            return result

        return traced

    # -- counts read at the span boundaries --------------------------------

    def _observe_core_sample_readings(self, index, args, kwargs, result) -> None:
        self.spans[index].attrs["draws"] = int(result.size)

    def _observe_paths_constraints_for_pairs(self, index, args, kwargs, result) -> None:
        self.spans[index].attrs.update(pairs=len(result), groups=result.n_groups)

    def _observe_paths_solve_phases(self, index, args, kwargs, result) -> None:
        report = result[1]
        self.spans[index].attrs.update(
            starts_tried=report.starts_tried, max_residual=report.max_residual
        )

    def _observe_paths_xi_sum(self, index, args, kwargs, result) -> None:
        bare = _arg(args, kwargs, 0, "bare")
        n = _arg(args, kwargs, 2, "n")
        self.spans[index].attrs["terms"] = self._census(bare.m, n).reduced_total

    def _observe_markov_simulate_game(self, index, args, kwargs, result) -> None:
        self.spans[index].attrs["trial_rounds"] = result.trials * result.rounds

    def _observe_markov_propagate_distribution(self, index, args, kwargs, result) -> None:
        kernel = _arg(args, kwargs, 1, "kernel")
        steps = _arg(args, kwargs, 2, "steps")
        self.spans[index].attrs["bytes_computed"] = kernel.grid.size**2 * 8 * steps

    def _observe_quantum_build_kernel(self, index, args, kwargs, result) -> None:
        self.spans[index].attrs.update(
            matrix_mb=result.matrix.nbytes / _MB, apodized=result.apodized
        )

    def _observe_quantum_propagate(self, index, args, kwargs, result) -> None:
        kernel = args[3] if len(args) > 3 else kwargs.get("kernel")
        if kernel is not None:
            apodized = kernel.apodized
        else:
            apodized = next(
                s.attrs["apodized"]
                for s in self.spans[index + 1 :]
                if s.parent == index and s.name == "quantum.build_kernel"
            )
        self.spans[index].attrs.update(steps=result.steps, apodized=apodized)


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass
# ---------------------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


def _cli_run_self(spans: list[Span]) -> float:
    """``cli.run`` time outside the other layers.

    That is argument parsing, config resolution and CSV formatting and
    writing, whether or not they pass through wrapped ``cli`` functions.
    """
    total = sum(s.duration for s in spans if s.name == "cli.run")
    for s in spans:
        if s.layer == "cli" or s.parent < 0:
            continue
        q = s.parent
        while q >= 0 and spans[q].layer == "cli":
            if spans[q].name == "cli.run":
                total -= s.duration
                break
            q = spans[q].parent
    return total


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def pass_metrics(spans: list[Span], csv_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (not the import times).

    Metrics of a layer a workload does not use read 0.
    """
    own = self_times(spans)
    self_s: dict[str, float] = {}
    duration: dict[str, float] = {}
    calls: dict[str, int] = {}
    attrs: dict[str, list] = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    for s, t in zip(spans, own):
        self_s[s.name] = self_s.get(s.name, 0.0) + t
        duration[s.name] = duration.get(s.name, 0.0) + s.duration
        calls[s.name] = calls.get(s.name, 0) + 1
        layer_self[s.layer] += t
        for key, value in s.attrs.items():
            attrs.setdefault(f"{s.name}.{key}", []).append(value)

    def total(key: str) -> float:
        return float(sum(attrs.get(key, ())))

    def peak(key: str) -> float:
        return float(max(attrs.get(key, ()), default=0.0))

    propagate = {"plain": [0.0, 0], "apodized": [0.0, 0]}
    for s, t in zip(spans, own):
        if s.name == "quantum.propagate":
            entry = propagate["apodized" if s.attrs["apodized"] else "plain"]
            entry[0] += t
            entry[1] += s.attrs["steps"]

    out = {
        "core.sample_readings.calls": calls.get("core.sample_readings", 0),
        "core.sample_readings.self_s": self_s.get("core.sample_readings", 0.0),
        "core.draws_per_s": _rate(
            total("core.sample_readings.draws"), self_s.get("core.sample_readings", 0.0)
        ),
        "paths.build_constraints.self_s": self_s.get("paths.build_constraints", 0.0),
        "paths.build_constraints.peak_mb": peak("paths.build_constraints.peak_mb"),
        "paths.constraints_for_pairs.self_s": self_s.get("paths.constraints_for_pairs", 0.0),
        "paths.pairs": total("paths.constraints_for_pairs.pairs"),
        "paths.groups": total("paths.constraints_for_pairs.groups"),
        "paths.solve_phases.self_s": self_s.get("paths.solve_phases", 0.0),
        "paths.solve_phases.calls": calls.get("paths.solve_phases", 0),
        "paths.solve_phases.starts_tried": total("paths.solve_phases.starts_tried"),
        "paths.solve_phases.max_residual": peak("paths.solve_phases.max_residual"),
        "paths.xi_sum.self_s": self_s.get("paths.xi_sum", 0.0),
        "paths.xi_sum.terms": total("paths.xi_sum.terms"),
        "paths.amplitude_sum.self_s": self_s.get("paths.amplitude_sum", 0.0),
        "markov.simulate_game.self_s": self_s.get("markov.simulate_game", 0.0),
        "markov.trial_rounds_per_s": _rate(
            total("markov.simulate_game.trial_rounds"),
            duration.get("markov.simulate_game", 0.0),
        ),
        "markov.effective_kernel.self_s": self_s.get("markov.effective_kernel", 0.0),
        "markov.propagate_distribution.self_s": self_s.get(
            "markov.propagate_distribution", 0.0
        ),
        "markov.propagate_distribution.bytes_computed": total(
            "markov.propagate_distribution.bytes_computed"
        ),
        "markov.endpoint_constraints.self_s": self_s.get("markov.endpoint_constraints", 0.0),
        "markov.amplitude_propagate.self_s": self_s.get("markov.amplitude_propagate", 0.0),
        "quantum.build_kernel.self_s": self_s.get("quantum.build_kernel", 0.0),
        "quantum.build_kernel.matrix_mb": peak("quantum.build_kernel.matrix_mb"),
        "quantum.build_kernel.peak_mb": peak("quantum.build_kernel.peak_mb"),
        "quantum.propagate.self_s": self_s.get("quantum.propagate", 0.0),
        "quantum.reference_solver.self_s": self_s.get("quantum.reference_solver", 0.0),
        "quantum.roughness_scan.self_s": self_s.get("quantum.roughness_scan", 0.0),
        "cli.run.self_s": _cli_run_self(spans),
        "cli.csv_bytes": csv_bytes,
    }
    for kind, (seconds, steps) in propagate.items():
        out[f"quantum.propagate.{kind}.self_s"] = seconds
        out[f"quantum.propagate.{kind}.steps_per_s"] = _rate(steps, seconds)
    for layer, seconds in layer_self.items():
        out[f"layer.{layer}.self_s"] = seconds
    return out


def top_level_seconds(spans: list[Span]) -> float:
    """Summed duration of the spans opened outside any other span."""
    return sum(s.duration for s in spans if s.parent < 0)


# ---------------------------------------------------------------------------
# import times
# ---------------------------------------------------------------------------

IMPORT_MODULES = {
    "qal": "import.qal_s",
    "scipy.optimize": "import.scipy_optimize_s",
    "scipy.sparse": "import.scipy_sparse_s",
    "numpy": "import.numpy_s",
}


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import seconds from ``python -X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = [p.strip() for p in line[len("import time:") :].split("|")]
        if len(parts) == 3 and parts[2] in IMPORT_MODULES and parts[1].isdigit():
            out[IMPORT_MODULES[parts[2]]] = int(parts[1]) * 1e-6
    return out
