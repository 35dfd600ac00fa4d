"""Command-line front end: every experiment as a subcommand with CSV output.

Each subcommand is one entry of ``COMMANDS``: its flags, the schema tag of
its CSV and its handler.  Every key resolves flag > ``--config`` file
(``key = value`` lines) > environment (``QAL_SEED``, for the seed only) >
default.  Every CSV embeds the fully resolved configuration (with per-key
provenance), the tool version, and a schema tag that the plot script
generator keys on.

Exit codes: 0 success, 1 validation error or a float overflow or invalid
operation during the run, 2 for runs that completed but whose numerical
report failed its contract (infeasible phase constraints or an uncertified
identity).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, markov, paths, quantum
from .core import (
    BareDistribution,
    QRuleParams,
    effective_distribution,
)
from .errors import ConfigError, UnknownSchema
from .grid import StateGrid

__all__ = [
    "ExperimentConfig",
    "parse_config",
    "run",
    "main",
    "emit_plot_script",
    "read_csv",
]

@dataclass(frozen=True)
class ParamSpec:
    kind: str  # "int" | "float" | "floats" | "str" | "choice"
    default: object = None
    help: str = ""
    choices: tuple[str, ...] = ()
    required: bool = False
    minimum: float | None = None


_CHANNEL = {
    "p": ParamSpec("floats", None, "bare outcome probabilities, comma separated"),
    "m": ParamSpec("int", None, "outcome count (defaults to len(p); p defaults to uniform)",
                   minimum=2),
    "gamma": ParamSpec("floats", None, "per-outcome loss rates (default zeros)"),
    "misreads": ParamSpec("floats", None, "row-major misread matrix entries (default zeros)"),
    "labels": ParamSpec("floats", None, "outcome values (default 0..M-1)"),
}

_PATHS = {
    "n": ParamSpec("int", None, "round count", required=True, minimum=1),
    "tol": ParamSpec("float", 1e-8, "residual tolerance for the phase solve", minimum=0.0),
}

_GAME = {
    "drift": ParamSpec("str", "identity", "drift map: identity|constant:C|linear:A|quadratic:A,B"),
    "gain": ParamSpec("str", "constant:1", "gain map, same syntax as drift"),
    "x0": ParamSpec("float", 0.0, "initial state"),
}

_GRID = {
    "grid-min": ParamSpec("float", -20.0, "left grid edge"),
    "grid-max": ParamSpec("float", 20.0, "right grid edge"),
    "grid-nodes": ParamSpec("int", 801, "node count (inclusive endpoints)"),
}

_PARTICLE = {
    "mass": ParamSpec("float", 1.0, "particle mass"),
    "alpha": ParamSpec("float", 1.0, "action scale"),
    "e0": ParamSpec("float", 0.0, "energy reference offset"),
    "potential": ParamSpec("str", "free", "free | harmonic:OMEGA"),
    "apodization": ParamSpec("str", "none", "none | gaussian:SIGMA | window:W"),
}

_WAVE = {
    "sigma0": ParamSpec("float", 1.0, "initial packet width"),
    "center": ParamSpec("float", 0.0, "initial packet center"),
    "momentum": ParamSpec("float", 0.0, "initial packet momentum"),
}


@dataclass
class ExperimentConfig:
    """Fully resolved run configuration with per-key provenance."""

    command: str
    params: dict = field(default_factory=dict)
    seed: int = 0
    out: str = "out.csv"
    provenance: dict = field(default_factory=dict)


def _convert(key: str, raw, spec: ParamSpec):
    if not isinstance(raw, str):
        return raw
    text = raw.strip()
    try:
        if spec.kind == "int":
            return int(text)
        if spec.kind in ("float", "floats"):
            many = spec.kind == "floats"
            if many and (text.endswith(",") or text.startswith(",") or ",," in text):
                raise ConfigError(
                    f"{key}: malformed list {text!r} (dangling separator)"
                )
            values = [float(part) for part in (text.split(",") if many else [text])]
            if not all(map(math.isfinite, values)):
                raise ConfigError(f"{key}: expected finite numbers, got {text!r}")
            return values if many else values[0]
        if spec.kind == "choice":
            if text not in spec.choices:
                raise ConfigError(
                    f"{key}: expected one of {', '.join(spec.choices)}, got {text!r}"
                )
            return text
        return text
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{key}: expected {spec.kind}, got {text!r} ({exc})") from exc


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        values[key.strip()] = value.strip()
    return values


def _resolve(key: str, spec: ParamSpec, sources: list[tuple[str, dict]]) -> tuple[object, str]:
    """The value of ``key`` from the first source that sets it, else its default."""
    for origin, values in sources:
        if key in values:
            value = _convert(key, values[key], spec)
            break
    else:
        if spec.required:
            raise ConfigError(f"missing required parameter --{key}")
        value, origin = spec.default, "default"
    if spec.minimum is not None and value is not None and value < spec.minimum:
        raise ConfigError(f"{key}: expected at least {spec.minimum}, got {value}")
    return value, origin


def parse_config(
    command: str,
    flag_params: dict[str, str] | None = None,
    config_file: str | None = None,
    *,
    seed: str | None = None,
    out: str | None = None,
    env: dict | None = None,
) -> ExperimentConfig:
    """Resolve and type-check a run configuration.

    Every key, ``seed`` and ``out`` included, resolves flag > file >
    environment > default; the environment supplies only the seed, as
    ``QAL_SEED``.  Unknown keys are rejected with the offending name.
    """
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    params = COMMANDS[command].params
    specs = {**params, "seed": ParamSpec("int", 0), "out": ParamSpec("str", f"{command}.csv")}
    flags = {k: v for k, v in (flag_params or {}).items() if v is not None}
    file_values = _read_config_file(config_file) if config_file else {}
    for key in file_values:
        if key not in specs:
            raise ConfigError(f"unknown key {key!r} in {config_file}")
    for key in flags:
        if key not in params:
            raise ConfigError(f"unknown flag {key!r}")
    flags.update({k: v for k, v in {"seed": seed, "out": out}.items() if v is not None})
    env_seed = (os.environ if env is None else env).get("QAL_SEED")
    sources = [
        ("flag", flags),
        ("file", file_values),
        ("env", {} if env_seed is None else {"seed": env_seed}),
    ]

    resolved: dict = {}
    provenance: dict[str, str] = {}
    for key, spec in specs.items():
        resolved[key], provenance[key] = _resolve(key, spec, sources)
    resolved_seed, resolved_out = resolved.pop("seed"), resolved.pop("out")
    if not 0 <= resolved_seed < 2**64:
        raise ConfigError("seed must fit in 64 unsigned bits")
    return ExperimentConfig(command, resolved, resolved_seed, resolved_out, provenance)


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def _format_value(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (np.floating, float)):
        return repr(float(value))
    if isinstance(value, (np.integer, int)):
        return str(int(value))
    if isinstance(value, np.ndarray):
        # Python scalars, whose str is the repr the scalar branches print
        cells = value.ravel().tolist()
        return ";".join(map(_format_value if value.dtype == bool else str, cells))
    if isinstance(value, (list, tuple)):
        return ";".join(map(_format_value, value))
    return str(value)


def write_csv(
    config: ExperimentConfig,
    header: list[str],
    rows: Iterable[list],
    extra_metadata: dict | None = None,
) -> None:
    lines = [
        f"# qal-version = {__version__}",
        f"# timestamp = {datetime.now(timezone.utc).isoformat()}",
        f"# command = {config.command}",
        f"# schema = {COMMANDS[config.command].schema}",
        f"# seed = {config.seed} [{config.provenance.get('seed', 'default')}]",
    ]
    for key in sorted(config.params):
        value = config.params[key]
        if value is None:
            continue
        lines.append(
            f"# {key} = {_format_value(value)} [{config.provenance.get(key, 'default')}]"
        )
    for key, value in (extra_metadata or {}).items():
        lines.append(f"# {key} = {_format_value(value)}")
    lines.append(",".join(header))
    with open(config.out, "w") as out:
        out.writelines(line + "\n" for line in lines)
        out.writelines(",".join(map(_format_value, row)) + "\n" for row in rows)


def read_csv(path: str) -> tuple[dict[str, str], list[str], list[list[str]]]:
    """Parse back a tool-written CSV: metadata, header, string rows."""
    metadata: dict[str, str] = {}
    header: list[str] = []
    rows: list[list[str]] = []
    for line in Path(path).read_text().splitlines():
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                metadata[key.strip()] = value.strip().split(" [")[0].strip()
            continue
        if not header:
            header = line.split(",")
            continue
        rows.append(line.split(","))
    return metadata, header, rows


# ---------------------------------------------------------------------------
# shared builders
# ---------------------------------------------------------------------------


def _build_channel(params: dict) -> tuple[BareDistribution, QRuleParams]:
    p = params.get("p")
    m = params.get("m")
    if p is None and m is None:
        raise ConfigError("provide --p or --m")
    if p is None:
        p = [1.0 / m] * m
    if m is not None and len(p) != m:
        raise ConfigError(f"m: expected {m} probabilities, got {len(p)}")
    m = len(p)
    labels = params.get("labels")
    if labels is None:
        labels = list(range(m))
    if len(labels) != m:
        raise ConfigError(f"labels: expected {m} values, got {len(labels)}")
    gamma = params.get("gamma") or [0.0] * m
    if len(gamma) != m:
        raise ConfigError(f"gamma: expected {m} rates, got {len(gamma)}")
    flat = params.get("misreads")
    if flat is None:
        misreads = np.zeros((m, m))
    else:
        if len(flat) != m * m:
            raise ConfigError(f"misreads: expected {m * m} entries, got {len(flat)}")
        misreads = np.asarray(flat, dtype=float).reshape(m, m)
    bare = BareDistribution(np.asarray(labels, float), np.asarray(p, float))
    return bare, QRuleParams(np.asarray(gamma, float), misreads)


# the names each ``name:a,b`` option accepts; for each name, the keywords the
# numbers after its colon set, in order, with their defaults (None: required)
_SHAPES = {
    "potential": {"free": {}, "harmonic": {"omega": 1.0}},
    "apodization": {"none": {}, "gaussian": {"sigma_y": 1.0}, "window": {"window": 1.0}},
}
_SHAPES["drift"] = _SHAPES["gain"] = {name: keys for name, (keys, _) in markov.MAPS.items()}


def _parse_shape(key: str, text: str) -> tuple[str, dict]:
    """Split option ``key``'s ``name:a,b`` into the name and its keywords."""
    name, _, argtext = text.partition(":")
    shapes = _SHAPES[key]
    if name not in shapes:
        raise ConfigError(f"{key}: unknown name {name!r}, expected one of {', '.join(shapes)}")
    keywords = shapes[name]
    args = _convert(key, argtext, ParamSpec("floats")) if argtext else []
    if not args and None not in keywords.values():
        return name, dict(keywords)
    if len(args) != len(keywords):
        raise ConfigError(
            f"{key}: {name} takes {len(keywords)} numbers "
            f"({', '.join(keywords) or 'none'}), got {text!r}"
        )
    return name, dict(zip(keywords, args))


def _parse_map(key: str, params: dict):
    name, keywords = _parse_shape(key, params[key])
    return markov.make_map(name, **keywords)


def _build_particle(params: dict, eps: float) -> quantum.ParticleParams:
    kwargs = dict(mass=params["mass"], alpha=params["alpha"], eps=eps, e0=params["e0"])
    for key in ("potential", "apodization"):
        kwargs[key], keywords = _parse_shape(key, params[key])
        kwargs.update(keywords)
    return quantum.ParticleParams(**kwargs)


def _make_grid(params: dict) -> StateGrid:
    n = params["grid-nodes"]
    lo, hi = params["grid-min"], params["grid-max"]
    if n < 2 or hi <= lo:
        raise ConfigError("grid needs at least two nodes and grid-max > grid-min")
    return StateGrid.from_range(lo, hi, n)


# ---------------------------------------------------------------------------
# command handlers: each returns (exit code, header, rows, extra metadata)
# ---------------------------------------------------------------------------


def _run_histogram(config: ExperimentConfig):
    bare, rules = _build_channel(config.params)
    eff = effective_distribution(bare, rules)
    rows = [
        [j + 1, bare.labels[j], bare.probs[j], eff.probs[j]]
        for j in range(bare.m)
    ]
    meta = {"defect": eff.defect, "observed-total": eff.total}
    return 0, ["outcome", "label", "bare", "effective"], rows, meta


def _run_census(config: ExperimentConfig):
    m, n = config.params["m"], config.params["n"]
    digits, limit = int(2 * n * math.log10(m)) + 1, sys.get_int_max_str_digits()
    if limit and digits > limit:  # of the raw total M^(2N), the largest count written
        raise ValueError(f"raw total {m}^{2 * n} has {digits} decimal digits, "
                         f"over Python's limit of {limit} for integer strings")
    report = paths.census(m, n)
    rows = [
        [l, report.raw_per_l[l], report.reduced_per_l[l]]
        for l in range(n + 1)
    ]
    meta = {
        "raw-total": report.raw_total,
        "reduced-total": report.reduced_total,
        "independent-nonclassical": report.independent_nonclassical,
    }
    return 0, ["l", "raw", "reduced"], rows, meta


def _identity(config: ExperimentConfig) -> paths.IdentityReport:
    bare, rules = _build_channel(config.params)
    n, tol = config.params["n"], config.params["tol"]
    return paths.identity_check(bare, rules.loss_rates, n, tol=tol, seed=config.seed)


def _run_identity_check(config: ExperimentConfig):
    report = _identity(config)
    columns = {
        "m": report.m,
        "n": report.n,
        "xi": report.xi,
        "amp_sq": report.amp_sq,
        "gap": report.gap,
        "residual": report.max_residual,
        "bound": report.bound,
        "feasible": report.feasible,
        "converged": report.converged,
        "bound_vacuous": report.bound_vacuous,
    }
    code = 0 if (report.feasible and report.converged) else 2
    return code, list(columns), [list(columns.values())], {}


def _run_phase_solve(config: ExperimentConfig):
    identity = _identity(config)
    assignment = paths.lift_phases(identity.assignment, config.params["n"])
    # 1-based labels, one ";"-separated cell per path, formatted as written
    rows = zip(paths.all_paths(assignment.m, assignment.n) + 1, assignment.phases)
    report = identity.solve_report
    meta = {
        "max-residual": report.max_residual,
        "feasible": report.feasible,
        "converged": report.converged,
        "lower-bound": report.lower_bound,
    }
    return (0 if report.feasible else 2), ["path", "phase"], rows, meta


def _game_spec(config: ExperimentConfig) -> markov.GameSpec:
    bare, rules = _build_channel(config.params)
    return markov.GameSpec(
        drift=_parse_map("drift", config.params),
        gain=_parse_map("gain", config.params),
        noise=bare,
        rules=rules,
    )


def _run_simulate_game(config: ExperimentConfig):
    spec, params = _game_spec(config), config.params
    game = markov.simulate_game(spec, params["x0"], params["rounds"], params["trials"], config.seed)
    rows = zip(game.values, game.counts, game.distribution()[1])
    meta = {
        "frozen-mean": game.mean_frozen,
        "frozen-expected": params["rounds"] * float(spec.rules.loss_rates @ spec.noise.probs),
    }
    return 0, ["final_state", "count", "frequency"], rows, meta


def _run_propagate_game(config: ExperimentConfig):
    spec = _game_spec(config)
    grid = _make_grid(config.params)
    kernel = markov.effective_kernel(spec, grid, boundary=config.params["boundary"])
    e0 = np.zeros(grid.size)
    e0[grid.snap_index(config.params["x0"])] = 1.0
    out = markov.propagate_distribution(e0, kernel, config.params["steps"])
    rows = [[grid.nodes[k], out[k]] for k in range(grid.size)]
    return 0, ["node", "probability"], rows, {"mass": float(out.sum())}


def _packet(config: ExperimentConfig, params: quantum.ParticleParams):
    """The configured initial Gaussian packet, built on whichever grid it gets."""
    p = config.params
    return lambda g: quantum.WaveState.gaussian(
        g, center=p["center"], sigma=p["sigma0"], momentum=p["momentum"], alpha=params.alpha
    )


def _run_quantum_propagate(config: ExperimentConfig):
    params = _build_particle(config.params, config.params["eps"])
    grid = _make_grid(config.params)
    result = quantum.propagate(_packet(config, params)(grid), params, config.params["steps"])
    state = result.state
    rows = list(zip(grid.nodes, state.values.real, state.values.imag, state.density()))
    meta = {
        "width": state.sigma_x(),
        "center": state.mean_x(),
        "norm-factor": result.accumulated_norm,
        "total-time": config.params["eps"] * config.params["steps"],
    }
    return 0, ["x", "re", "im", "density"], rows, meta


def _run_quantum_compare(config: ExperimentConfig):
    eps_values = config.params["eps-ladder"]
    params = _build_particle(config.params, min(eps_values))
    grid = _make_grid(config.params)
    report = quantum.convergence_study(
        params,
        grid,
        _packet(config, params),
        config.params["time"],
        eps_values,
    )
    rows = [[p.eps, p.l2_error] for p in report.points]
    return 0, ["eps", "l2_error"], rows, {"fitted-order": report.fitted_order}


def _run_uncertainty(config: ExperimentConfig):
    alpha = config.params["alpha"]
    grid = _make_grid(config.params)
    rows = []
    gaussian = quantum.WaveState.gaussian(grid, sigma=config.params["sigma0"], alpha=alpha)
    rows.append(["gaussian", quantum.uncertainty_product(gaussian, alpha)])
    rng = np.random.default_rng(config.seed)
    components = [(0.0, 1.0, 0.0), (1.5, 0.6, 2.0), (-2.0, 1.2, -1.0), (0.5, 0.8, 3.0)]
    for idx in range(config.params["n-states"]):
        coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
        values = np.zeros(grid.size, dtype=complex)
        for c, (center, sigma, mom) in zip(coeffs, components):
            values += c * quantum.WaveState.gaussian(grid, center, sigma, mom, alpha).values
        state = quantum.WaveState(grid, values).normalized()
        rows.append([f"random-{idx}", quantum.uncertainty_product(state, alpha)])
    floor = alpha / 2.0
    meta = {
        "floor": floor,
        "min-product": min(r[1] for r in rows),
    }
    return 0, ["state", "product"], rows, meta


def _run_roughness(config: ExperimentConfig):
    params = quantum.ParticleParams(
        mass=config.params["mass"], alpha=config.params["alpha"]
    )
    report = quantum.roughness_scan(
        params,
        config.params["eps-ladder"],
        n_steps=config.params["steps"],
        n_samples=config.params["samples"],
        seed=config.seed,
        mode=config.params["mode"],
    )
    rows = [[p.eps, p.mean_sq_increment, p.mean_sq_over_eps] for p in report.points]
    return 0, ["eps", "mean_sq", "mean_sq_over_eps"], rows, {"ratios": report.ratios()}


@dataclass(frozen=True)
class Command:
    """One subcommand: its flags, its CSV schema tag and its handler."""

    schema: str
    handler: Callable[[ExperimentConfig], tuple]
    params: dict[str, ParamSpec]


COMMANDS: dict[str, Command] = {
    "histogram": Command("histogram", _run_histogram, dict(_CHANNEL)),
    "census": Command("census", _run_census, {
        "m": ParamSpec("int", None, "outcome count", required=True, minimum=2),
        "n": _PATHS["n"],
    }),
    "identity-check": Command("identity", _run_identity_check, {**_CHANNEL, **_PATHS}),
    "phase-solve": Command("phases", _run_phase_solve, {**_CHANNEL, **_PATHS}),
    "simulate-game": Command("game", _run_simulate_game, {
        **_CHANNEL,
        **_GAME,
        "rounds": ParamSpec("int", 1, "rounds per trial"),
        "trials": ParamSpec("int", 10000, "number of trials", minimum=1),
    }),
    "propagate-game": Command("distribution", _run_propagate_game, {
        **_CHANNEL,
        **_GAME,
        "steps": ParamSpec("int", 1, "kernel applications"),
        "boundary": ParamSpec("choice", "error", "grid boundary", ("error", "wrap")),
        "grid-min": ParamSpec("float", -10.0, "left grid edge"),
        "grid-max": ParamSpec("float", 10.0, "right grid edge"),
        "grid-nodes": ParamSpec("int", 21, "node count"),
    }),
    "quantum-propagate": Command("wavepacket", _run_quantum_propagate, {
        **_PARTICLE,
        **_GRID,
        **_WAVE,
        "eps": ParamSpec("float", 1e-3, "time step"),
        "steps": ParamSpec("int", 1000, "step count", minimum=1),
    }),
    "quantum-compare": Command("convergence", _run_quantum_compare, {
        **_PARTICLE,
        # a free, unapodized kernel is exact in time: no order to fit
        "potential": ParamSpec("str", "harmonic:1", "free | harmonic:OMEGA"),
        **_GRID,
        **_WAVE,
        "time": ParamSpec("float", 0.5, "total physical time"),
        "eps-ladder": ParamSpec("floats", [4e-3, 2e-3, 1e-3], "time steps to compare"),
    }),
    "uncertainty": Command("uncertainty", _run_uncertainty, {
        "alpha": ParamSpec("float", 1.0, "action scale"),
        "sigma0": ParamSpec("float", 1.0, "probe Gaussian width"),
        "n-states": ParamSpec("int", 100, "random superpositions to test", minimum=0),
        **_GRID,
    }),
    "roughness": Command("roughness", _run_roughness, {
        "mass": ParamSpec("float", 1.0, "particle mass"),
        "alpha": ParamSpec("float", 1.0, "action scale"),
        "eps-ladder": ParamSpec("floats", [4e-3, 2e-3, 1e-3], "time steps to scan"),
        "steps": ParamSpec("int", 64, "increments per sampled path"),
        "samples": ParamSpec("int", 100000, "sampled paths per eps", minimum=1),
        "mode": ParamSpec("choice", "quantum", "path ensemble", ("quantum", "classical")),
    }),
}


# ---------------------------------------------------------------------------
# plot script generation
# ---------------------------------------------------------------------------

_PLOT_PREAMBLE = """\
import csv, sys
import matplotlib.pyplot as plt

rows = [r for r in csv.reader(open(CSV)) if not r[0].startswith('#')]
header, data = rows[0], rows[1:]
"""

# each plot kind: the schemas it accepts and the script body after the preamble
_PLOTS = {
    "histogram": ({"histogram"}, """\
labels = [float(r[1]) for r in data]
bare = [float(r[2]) for r in data]
eff = [float(r[3]) for r in data]
x = range(len(labels))
plt.bar([i - 0.2 for i in x], bare, width=0.4, label='bare')
plt.bar([i + 0.2 for i in x], eff, width=0.4, label='effective')
plt.xticks(list(x), [str(v) for v in labels])
plt.xlabel('outcome value'); plt.ylabel('probability'); plt.legend()
"""),
    "convergence": ({"convergence", "roughness"}, """\
xs = [float(r[0]) for r in data]
ys = [float(r[1]) for r in data]
plt.loglog(xs, ys, 'o-')
plt.xlabel(header[0]); plt.ylabel(header[1]); plt.grid(True, which='both')
"""),
    "wavepacket": ({"wavepacket"}, """\
xs = [float(r[0]) for r in data]
density = [float(r[3]) for r in data]
plt.plot(xs, density)
plt.xlabel('x'); plt.ylabel('|psi|^2')
"""),
}


def emit_plot_script(csv_path: str, kind: str, out_path: str | None = None) -> str:
    """Write a standalone matplotlib script rendering a tool-written CSV.

    The CSV's embedded schema tag must be compatible with the requested plot
    kind; the tool itself never renders anything.
    """
    if kind not in _PLOTS:
        raise UnknownSchema(f"no plot template for kind {kind!r}")
    schemas, body = _PLOTS[kind]
    metadata, _, _ = read_csv(csv_path)
    schema = metadata.get("schema")
    if schema is None:
        raise UnknownSchema(f"{csv_path} carries no schema tag")
    if schema not in schemas:
        raise UnknownSchema(f"schema {schema!r} is not plottable as {kind!r}")
    target = out_path or str(Path(csv_path).with_suffix(f".{kind}.py"))
    script = (
        "#!/usr/bin/env python3\n"
        f"# rendered from {Path(csv_path).name} (schema: {schema})\n"
        f"CSV = {str(csv_path)!r}\n"
        + _PLOT_PREAMBLE
        + body
        + "\nif len(sys.argv) > 1:\n"
        "    plt.savefig(sys.argv[1], dpi=150)\n"
        "else:\n"
        "    plt.show()\n"
    )
    Path(target).write_text(script)
    return target


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------


@functools.cache  # parsing does not change the parser; build the tree once
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qal",
        description="Stochastic processes driven by lossy-read noise sources.",
    )
    parser.add_argument("--version", action="version", version=f"qal {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, command in COMMANDS.items():
        cp = sub.add_parser(name, help=f"run the {name} experiment")
        for key, spec in command.params.items():
            cp.add_argument(
                f"--{key}",
                dest=key,
                default=None,
                metavar=spec.kind.upper(),
                help=spec.help + (f" (default: {spec.default})" if spec.default is not None else ""),
            )
        cp.add_argument("--config", default=None, help="key = value configuration file")
        cp.add_argument("--seed", default=None, help="64-bit seed (env QAL_SEED as fallback)")
        cp.add_argument("--out", default=None, help=f"output CSV path (default {name}.csv)")
    plot = sub.add_parser("plot-script", help="emit a matplotlib script for a CSV")
    plot.add_argument("csv", help="tool-written CSV file")
    plot.add_argument("--kind", required=True, choices=sorted(_PLOTS))
    plot.add_argument("--out", default=None, help="script path")
    return parser


def run(argv: list[str]) -> int:
    """Execute one CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; exit 2 is reserved here for
        # numerical-report failures, so usage problems map to 1
        return 0 if not exc.code else 1
    if args.command is None:
        parser.print_help(sys.stderr)
        return 1
    try:
        if args.command == "plot-script":
            print(emit_plot_script(args.csv, args.kind, args.out))
            return 0
        command = COMMANDS[args.command]
        flag_params = {key: getattr(args, key) for key in command.params}
        config = parse_config(args.command, flag_params, args.config, seed=args.seed, out=args.out)
        # an overflow or invalid value would be written as inf or nan: refuse it
        with np.errstate(all="raise", under="ignore"):
            code, header, rows, meta = command.handler(config)
        write_csv(config, header, rows, meta)
        return code
    # a ValueError from the library (every QalError is one) is a rejected
    # input, not a crash, and so is a float error, named by its type
    except ValueError as exc:
        print(f"qal {args.command}: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print(f"qal {args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
