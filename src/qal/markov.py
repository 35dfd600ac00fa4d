"""Discrete-time games driven by the faulty reading channel.

The state update is ``x <- drift(x) + gain(x) * y`` where ``y`` is the label
reported by the channel.  A lost reading freezes the round: the state does
not advance.  Three views of the same dynamics are provided: seeded Monte
Carlo over trials, exact propagation of a distribution through the one-step
transition kernel, and a coherent amplitude propagation where every label
path carries a square-root weight and a phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    LOST,
    BareDistribution,
    QRuleParams,
    effective_distribution,
    sample_readings,
    symmetric_coupling,
)
from .errors import DimensionMismatch, SizeGuardExceeded
from .grid import CHUNK_VALUES, StateGrid
from .paths import ConstraintSet, PhaseAssignment, all_paths, constraints_for_pairs

__all__ = [
    "GameSpec",
    "GameRun",
    "TransitionKernel",
    "JointDensity",
    "make_map",
    "simulate_game",
    "effective_kernel",
    "propagate_distribution",
    "amplitude_propagate",
    "endpoint_constraints",
    "joint_path_density",
]

PATH_SUM_GUARD = 10**7
JOINT_GUARD = 10**7
_BLOCK = 4096  # trials per generator substream: the fixed partition of a run


def make_map(name: str, **params) -> Callable[[np.ndarray], np.ndarray]:
    """Named state maps for drifts and gains.

    identity: x
    constant(value): value
    linear(slope): slope * x
    quadratic(slope, curvature): slope * x + curvature * x^2
    """
    if name == "identity":
        return lambda x: np.asarray(x, dtype=float)
    if name == "constant":
        value = float(params["value"])
        return lambda x: np.full_like(np.asarray(x, dtype=float), value)
    if name == "linear":
        slope = float(params["slope"])
        return lambda x: slope * np.asarray(x, dtype=float)
    if name == "quadratic":
        slope = float(params["slope"])
        curvature = float(params["curvature"])

        def quadratic(x):
            x = np.asarray(x, dtype=float)
            return slope * x + curvature * x * x

        return quadratic
    raise ValueError(f"unknown map name {name!r}")


@dataclass(frozen=True, eq=False)
class GameSpec:
    """One-player game: deterministic maps plus an incomplete noise source."""

    drift: Callable[[np.ndarray], np.ndarray]
    gain: Callable[[np.ndarray], np.ndarray]
    noise: BareDistribution
    rules: QRuleParams

    def __post_init__(self) -> None:
        if self.noise.m != self.rules.m:
            raise DimensionMismatch("noise source and rules disagree on outcome count")

    @classmethod
    def random_walk(cls, rules: QRuleParams | None = None) -> "GameSpec":
        """Plus/minus-one walk, the standard worked example."""
        noise = BareDistribution(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
        return cls(
            drift=make_map("identity"),
            gain=make_map("constant", value=1.0),
            noise=noise,
            rules=rules if rules is not None else QRuleParams.lossless(2),
        )


@dataclass(frozen=True, eq=False)
class GameRun:
    """Monte Carlo result: final state and frozen-round count per trial."""

    finals: np.ndarray
    frozen_counts: np.ndarray
    trials: int
    rounds: int
    seed: int

    def distribution(self) -> tuple[np.ndarray, np.ndarray]:
        values, counts = np.unique(self.finals, return_counts=True)
        return values, counts / self.trials

    @property
    def mean_frozen(self) -> float:
        return float(self.frozen_counts.mean())


def _simulate_block(
    spec: GameSpec, x0: float, rounds: int, rng: np.random.Generator, count: int
) -> tuple[np.ndarray, np.ndarray]:
    x = np.full(count, float(x0))
    frozen = np.zeros(count, dtype=np.int64)
    chunk = max(1, CHUNK_VALUES // count)  # rounds of readings drawn at once
    for first in range(0, rounds, chunk):
        reads = sample_readings(spec.noise, spec.rules, rng, (min(chunk, rounds - first), count))
        lost = reads == LOST
        frozen += lost.sum(axis=0)
        for row, lost_row in zip(reads, lost):
            # a lost read's LOST index takes some label; the mask discards it
            x = np.where(lost_row, x, spec.drift(x) + spec.gain(x) * spec.noise.labels.take(row))
    return x, frozen


def simulate_game(spec: GameSpec, x0: float, rounds: int, trials: int, seed: int) -> GameRun:
    """Seeded Monte Carlo: per trial, per round, draw a reading and update.

    Lost readings freeze the trial for that round.  Trials are partitioned
    into fixed blocks of 4096 with one generator substream each, so any
    execution order of the blocks reproduces the same run.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if rounds < 0:
        raise ValueError("rounds must be non-negative")
    finals = np.empty(trials)
    frozen = np.empty(trials, dtype=np.int64)
    streams = np.random.SeedSequence(seed).spawn(-(-trials // _BLOCK))
    for start, stream in zip(range(0, trials, _BLOCK), streams):
        count = min(_BLOCK, trials - start)
        rng = np.random.default_rng(stream)
        finals[start : start + count], frozen[start : start + count] = _simulate_block(
            spec, x0, rounds, rng, count
        )
    return GameRun(finals=finals, frozen_counts=frozen, trials=trials, rounds=rounds, seed=seed)


# ---------------------------------------------------------------------------
# kernel propagation
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TransitionKernel:
    """One-step law on the grid, held as its (M, K) image table.

    A successful reading of label j moves node k to node ``table[j, k]`` with
    observed probability ``probs[j]``; a lost reading keeps the state with
    probability ``defect``.  Nothing K×K is held.
    """

    table: np.ndarray
    probs: np.ndarray
    defect: float
    grid: StateGrid

    def __post_init__(self) -> None:
        if self.table.shape != (self.probs.size, self.grid.size):
            raise DimensionMismatch("image table must have one row per label, one column per node")
        if abs(self.probs.sum() + self.defect - 1.0) > 1e-12:
            raise ValueError("kernel columns must sum to one including frozen mass")


def _image_table(spec: GameSpec, grid: StateGrid, boundary: str = "error") -> np.ndarray:
    """Node index reached from each node under each label: shape (M, K)."""
    if boundary not in ("error", "wrap"):
        raise ValueError(f"boundary must be 'error' or 'wrap', got {boundary!r}")
    images = spec.drift(grid.nodes) + spec.gain(grid.nodes) * spec.noise.labels[:, None]
    return grid.snap_indices(images, wrap=boundary == "wrap")


def effective_kernel(
    spec: GameSpec, grid: StateGrid, boundary: str = "error"
) -> TransitionKernel:
    """Transition kernel with observed-read probabilities and frozen diagonal mass.

    Every image must land within dx/2 of a node; by default an image beyond
    the grid ends raises :class:`~qal.errors.OffGridImage`, while
    ``boundary='wrap'`` closes the grid periodically (use a grid wide enough
    that no mass reaches the ends when the dynamics are meant to be open).
    """
    eff = effective_distribution(spec.noise, spec.rules)
    table = _image_table(spec, grid, boundary)
    return TransitionKernel(table=table, probs=eff.probs, defect=eff.defect, grid=grid)


def propagate_distribution(
    e0: np.ndarray,
    kernel: TransitionKernel,
    steps: int,
    include_frozen: bool = True,
) -> np.ndarray:
    """Apply the kernel ``steps`` times to a distribution on the grid.

    Each step scatters ``probs[j] * v`` onto the images ``table[j]`` with one
    ``bincount``: O(M K), no K×K matrix, equal to the dense column-stochastic
    matvec up to summation order.  With ``include_frozen`` the frozen mass
    ``defect * v`` stays in place and mass is conserved; without it only
    successful reads propagate and the total shrinks by the defect each step.
    """
    e0 = np.asarray(e0, dtype=float)
    if e0.size != kernel.grid.size:
        raise DimensionMismatch("distribution does not match the kernel grid")
    if steps < 0:
        raise ValueError("steps must be non-negative")
    targets = kernel.table.ravel()
    v = e0.copy()
    for _ in range(steps):
        moved = np.bincount(
            targets, weights=np.multiply.outer(kernel.probs, v).ravel(), minlength=v.size
        )
        v = moved + kernel.defect * v if include_frozen else moved
    return v


# ---------------------------------------------------------------------------
# amplitude propagation
# ---------------------------------------------------------------------------


def amplitude_propagate(
    spec: GameSpec,
    grid: StateGrid,
    psi0: np.ndarray,
    steps: int,
    phases: PhaseAssignment | np.ndarray | None = None,
    boundary: str = "error",
) -> np.ndarray:
    """Coherent propagation: every label path carries sqrt(P) weights and a phase.

    ``phases=None`` or an array of per-step, per-label phase increments uses
    the one-step complex transfer matrix (phases linear in the labels).  A
    :class:`~qal.paths.PhaseAssignment` triggers the exact path sum, guarded
    by the path-count limit; it must hold every label path exactly once, or
    :class:`~qal.errors.DimensionMismatch` is raised.
    """
    psi = np.asarray(psi0, dtype=complex)
    if psi.size != grid.size:
        raise DimensionMismatch("state vector does not match the grid")
    if steps < 0:
        raise ValueError("steps must be non-negative")
    table = _image_table(spec, grid, boundary)
    sqrtp = np.sqrt(spec.noise.probs)
    m, k = table.shape

    if isinstance(phases, PhaseAssignment):
        phases.check_covers(m, steps)
        paths_arr = phases.paths
        if k * paths_arr.shape[0] > PATH_SUM_GUARD:
            raise SizeGuardExceeded("exact path sum exceeds the size guard")
        radices = np.prod(sqrtp[paths_arr], axis=1)
        amps = radices * np.exp(1j * phases.phases)
        out = np.zeros(k, dtype=complex)
        # nodes where psi vanishes add only zeros; walking them changes no sum
        start = np.flatnonzero(psi)
        weights = psi[start]
        for path, amp in zip(paths_arr, amps):
            cur = start
            for label in path:
                cur = table[label, cur]
            np.add.at(out, cur, amp * weights)
        return out

    if phases is None:
        theta = np.zeros((steps, m))
    else:
        theta = np.asarray(phases, dtype=float)
        if theta.ndim == 1:
            theta = np.broadcast_to(theta, (steps, m)).copy()
        if theta.shape != (steps, m):
            raise DimensionMismatch(f"per-step phases must have shape ({steps}, {m})")
    for n in range(steps):
        weights = sqrtp * np.exp(1j * theta[n])
        nxt = np.zeros(k, dtype=complex)
        for j in range(m):
            np.add.at(nxt, (table[j],), weights[j] * psi)
        psi = nxt
    return psi


def endpoint_constraints(
    spec: GameSpec,
    grid: StateGrid,
    x0: float,
    steps: int,
    boundary: str = "error",
) -> ConstraintSet:
    """Phase constraints restricted to label paths sharing their endpoint.

    Couplings come from the symmetric loss-dominated construction over the
    game's loss rates; only pairs of paths that land on the same node from
    the given start are constrained against each other.
    """
    coupling = symmetric_coupling(spec.noise, spec.rules.loss_rates)
    paths_arr = all_paths(spec.noise.m, steps)
    table = _image_table(spec, grid, boundary)
    ends = np.full(paths_arr.shape[0], grid.snap_index(x0))
    for labels in paths_arr.T:
        ends = table[labels, ends]
    groups = (np.flatnonzero(ends == node) for node in np.unique(ends))
    pairs = [g[np.array(np.triu_indices(g.size, k=1))] for g in groups]
    pair_i, pair_j = np.concatenate(pairs, axis=1)
    return constraints_for_pairs(spec.noise, coupling, paths_arr, pair_i, pair_j)


# ---------------------------------------------------------------------------
# joint density over state sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class JointDensity:
    """Exhaustive table of state-sequence probabilities from a point start.

    Row s of the ``(S, steps)`` array ``sequences`` holds the nodes visited
    after rounds 1..steps, rows in lexicographic order, and ``probs[s]`` its
    probability.  Covers successful reads only, so the table total is (sum of
    observed probabilities)^steps; frozen rounds are excluded by construction.
    """

    start_index: int
    steps: int
    sequences: np.ndarray
    probs: np.ndarray
    grid: StateGrid

    def total(self) -> float:
        return float(self.probs.sum())

    def marginal(self, step: int) -> np.ndarray:
        """Distribution of the state after ``step`` rounds (1-based)."""
        if not 1 <= step <= self.steps:
            raise ValueError("step out of range")
        nodes = self.sequences[:, step - 1]
        return np.bincount(nodes, weights=self.probs, minlength=self.grid.size)


def joint_path_density(
    spec: GameSpec, grid: StateGrid, x0: float, steps: int, boundary: str = "error"
) -> JointDensity:
    """Product of per-step read laws over all state sequences, breadth first.

    Each step extends every sequence by every label, merges the labels that
    land on one node with one ``np.unique`` over (sequence, node) keys, whose
    sorted order keeps the rows lexicographic, and drops moves of probability
    zero.  The node table is then filled by walking the parent links back.
    """
    if steps < 1:
        raise ValueError("need at least one step")
    # labels that land on one node merge, so sequences never outnumber label paths
    if spec.noise.m**steps > JOINT_GUARD:
        raise SizeGuardExceeded("state-sequence table exceeds the size guard")
    kernel = effective_kernel(spec, grid, boundary)
    start = grid.snap_index(x0)
    k = grid.size
    nodes = np.array([start])
    probs = np.ones(1)
    levels = []  # (parent row, node) of every row, per step
    for _ in range(steps):
        # candidate moves sequence-major, label-minor: merged sums run in label order
        keys = (np.arange(nodes.size)[:, None] * k + kernel.table[:, nodes].T).ravel()
        keys, which = np.unique(keys, return_inverse=True)
        move = np.bincount(which, weights=np.tile(kernel.probs, nodes.size))
        live = move != 0
        parent, nodes = np.divmod(keys[live], k)
        probs = probs[parent] * move[live]
        levels.append((parent, nodes))
    sequences = np.empty((nodes.size, steps), dtype=np.intp)
    row = np.arange(nodes.size)
    for step in reversed(range(steps)):
        parent, level_nodes = levels[step]
        sequences[:, step] = level_nodes[row]
        row = parent[row]
    return JointDensity(
        start_index=start, steps=steps, sequences=sequences, probs=probs, grid=grid
    )
