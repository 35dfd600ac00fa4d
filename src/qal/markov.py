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
    reading_tables,
    sample_readings,
    symmetric_coupling,
)
from .errors import DimensionMismatch
from .grid import CHUNK_VALUES, StateGrid, check_dense_budget, ordered_map, usable_cpus
from .paths import PAIR_BYTES, ConstraintSet, PhaseAssignment, _path_products, constraints_for_pairs

__all__ = [
    "GameSpec",
    "GameRun",
    "TransitionKernel",
    "JointDensity",
    "MAPS",
    "make_map",
    "simulate_game",
    "effective_kernel",
    "propagate_distribution",
    "amplitude_propagate",
    "endpoint_constraints",
    "joint_path_density",
]

_BLOCK = 4096  # trials per generator substream: the fixed partition of a run
# fewest rounds of readings a thread's chunk holds: with fewer, a slab spends
# most of its time holding the interpreter lock.  On 2 CPUs, two threads took
# 1.4-1.7x and 1.1-1.3x the one-thread time at 2 and 4 rounds, 0.7-0.8x at 8
# and 0.7x at 12 (+-1 walk, 8e6 trial-rounds, medians of 7, two runs)
_THREAD_ROUNDS = 4


# the named state maps for drifts and gains: each name's parameters, in order,
# with the value a bare ``name`` takes on the command line (None: required),
# and the map of x and those parameters
MAPS = {
    "identity": ({}, lambda x: x),
    "constant": ({"value": 1.0}, lambda x, value: np.full_like(x, value)),
    "linear": ({"slope": 1.0}, lambda x, slope: slope * x),
    "quadratic": ({"slope": None, "curvature": None},
                  lambda x, slope, c: slope * x + c * x * x),
}


def make_map(name: str, **params) -> Callable[[np.ndarray], np.ndarray]:
    """Named state maps for drifts and gains; each takes exactly its parameters.

    identity: x
    constant(value): value
    linear(slope): slope * x
    quadratic(slope, curvature): slope * x + curvature * x^2
    """
    if name not in MAPS:
        raise ValueError(f"unknown map name {name!r}")
    names, fn = MAPS[name]
    if set(params) != set(names):
        raise ValueError(f"map {name!r} takes {', '.join(names) or 'no parameters'}, "
                         f"got {', '.join(sorted(params)) or 'none'}")
    values = [float(params[key]) for key in names]
    return lambda x: fn(np.asarray(x, dtype=float), *values)


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
    """Monte Carlo histogram: distinct final states, ascending, and the trials ending on each."""

    values: np.ndarray
    counts: np.ndarray
    frozen_total: int
    trials: int
    rounds: int
    seed: int

    def distribution(self) -> tuple[np.ndarray, np.ndarray]:
        return self.values, self.counts / self.trials

    @property
    def mean_frozen(self) -> float:
        return self.frozen_total / self.trials


def _simulate_slab(
    spec: GameSpec, x0: float, rounds: int, rngs: list, counts: list[int], tables: tuple, chunk: int
) -> tuple[np.ndarray, int]:
    """Final states of blocks run side by side, block after block in one array, and frozen total.

    Each block draws ``chunk`` rounds at a time from its own generator; the
    readings sit side by side, so each round updates the whole slab at once.
    """
    width = sum(counts)
    x, y, kept = np.full(width, float(x0)), np.empty(width), np.empty(width, bool)
    # readings shifted up by one, 0 for LOST, in the smallest integer type that holds 0..M
    held = np.empty((min(chunk, rounds), width), np.min_scalar_type(spec.noise.m))
    # the label of each shifted reading; a lost one takes the first label, which the mask discards
    labels = spec.noise.labels.take(np.arange(LOST, spec.noise.m), mode="clip")
    ends = np.cumsum(counts)
    frozen = rounds * width
    for first in range(0, rounds, chunk):
        reads = held[: rounds - first]
        for rng, lo, hi in zip(rngs, ends - counts, ends):
            block = sample_readings(spec.noise, spec.rules, rng, (len(reads), hi - lo), tables)
            np.subtract(block, LOST, out=reads[:, lo:hi], casting="unsafe")
        for row in reads:
            # shifted readings never clip, and np.where selects without a branch per
            # trial: a take clipping LOST and np.copyto(where=) each took about twice as long
            labels.take(row, out=y, mode="clip")
            frozen -= np.count_nonzero(np.not_equal(row, 0, out=kept))
            np.add(spec.drift(x), np.multiply(spec.gain(x), y, out=y), out=y)
            x = np.where(kept, y, x)
    return x, frozen


def _merge_histograms(parts: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """One histogram from several: distinct sorted values, exact int64 counts."""
    values, where = np.unique(np.concatenate([v for v, _ in parts]), return_inverse=True)
    counts = np.zeros(values.size, dtype=np.int64)
    np.add.at(counts, where, np.concatenate([c for _, c in parts]))
    return values, counts


def simulate_game(spec: GameSpec, x0: float, rounds: int, trials: int, seed: int) -> GameRun:
    """Seeded Monte Carlo: per trial, per round, draw a reading and update.

    Lost readings freeze the trial for that round.  Trials are partitioned
    into fixed blocks of 4096 with one generator substream each, so any
    execution order of the blocks reproduces the same run.  Consecutive
    blocks run side by side in slabs: each block draws its chunk of rounds
    from its own substream through :func:`~qal.core.sample_readings`, and
    each round updates the whole slab at once, so the calls that hold the
    interpreter lock fall with the slab width.  Every usable CPU gets a
    slab, and the slabs' states stay within ``CHUNK_VALUES``.  Slabs run on
    one thread per usable CPU (:func:`~qal.grid.ordered_map`), so ``spec``'s
    maps are called from worker threads, and the run is bit for bit the same
    at any core count.  The threads split one budget of readings held at
    once, and no thread's share is under four rounds: on two CPUs a game of
    fewer than 8 rounds runs inline.  Each slab is reduced to its histogram
    at once; in slab order, the slab histograms are merged once they
    outnumber the merged one, so memory is O(distinct final states + two
    slabs per thread) and a run of all-distinct finals sorts O(log slabs)
    times.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if rounds < 0:
        raise ValueError("rounds must be non-negative")
    # the readings held at once, shared by the threads in whole rounds
    width = min(trials, _BLOCK)
    budget_rounds = min(CHUNK_VALUES, rounds * width) // width
    blocks = -(-trials // _BLOCK)
    cpus = usable_cpus()
    # every CPU gets a slab, and the slabs' states and updates, two values a
    # trial, hold at most CHUNK_VALUES
    slab = max(1, min(-(-blocks // cpus), CHUNK_VALUES // (2 * cpus * width)))
    firsts = range(0, blocks, slab)
    threads = max(1, min(cpus, len(firsts), budget_rounds // _THREAD_ROUNDS))
    chunk = max(1, budget_rounds // threads)
    tables = reading_tables(spec.noise, spec.rules)
    streams = np.random.SeedSequence(seed).spawn(blocks)

    def run_slab(first):
        members = range(first, min(first + slab, blocks))
        counts = [min(_BLOCK, trials - b * _BLOCK) for b in members]
        rngs = [np.random.default_rng(streams[b]) for b in members]
        finals, frozen = _simulate_slab(spec, x0, rounds, rngs, counts, tables, chunk)
        return np.unique(finals, return_counts=True), frozen

    merged = (np.empty(0), np.empty(0, dtype=np.int64))
    pending, held, frozen_total = [], 0, 0
    for first, (histogram, frozen) in zip(firsts, ordered_map(run_slab, firsts, threads)):
        frozen_total += frozen
        pending.append(histogram)
        held += histogram[0].size
        if held >= max(merged[0].size, _BLOCK) or first + slab >= blocks:
            merged, pending, held = _merge_histograms([merged, *pending]), [], 0
    return GameRun(*merged, frozen_total, trials=trials, rounds=rounds, seed=seed)


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


def _path_ends(table: np.ndarray, starts: np.ndarray, steps: int) -> np.ndarray:
    """End node of each label path (row p * M + j continues row p by label j) from each start."""
    m = table.shape[0]
    ends = starts[None, :]
    for _ in range(steps):
        ends = table[np.arange(m)[:, None], ends[:, None]].reshape(m * len(ends), -1)
    return ends


def amplitude_propagate(
    spec: GameSpec,
    grid: StateGrid,
    psi0: np.ndarray,
    steps: int,
    phases: PhaseAssignment | np.ndarray | None = None,
    boundary: str = "error",
) -> np.ndarray:
    """Coherent propagation: every label path carries sqrt(P) weights and a phase.

    ``phases=None`` or an array of M label phases, added at every step, uses
    the one-step complex transfer matrix.  A :class:`~qal.paths.PhaseAssignment`
    over the M^steps label paths triggers the exact path sum from the support of
    ``psi0``, charged 24 B a cell of M^steps x (support + 1) before any term
    exists, its terms added path-major as a walk path by path adds them.
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
        if (phases.m, phases.n) != (m, steps):
            raise DimensionMismatch(
                f"assignment covers {phases.m}^{phases.n} paths, not {m}^{steps}"
            )
        start = np.flatnonzero(psi)  # nodes where psi vanishes add only zeros
        # end node and term: 24.0 B a cell at K=1364 N=16; the +1 column fits a point start's 42 B
        check_dense_budget(m**steps, start.size + 1, 24, "amplitude path sum")
        amps = _path_products(sqrtp, steps) * np.exp(1j * phases.phases)
        ends = _path_ends(table, start, steps).ravel()
        out = np.zeros(k, dtype=complex)
        np.add.at(out, ends, np.multiply.outer(amps, psi[start]).ravel())
        return out

    theta = np.zeros(m) if phases is None else np.asarray(phases, dtype=float)
    if theta.shape != (m,):
        raise DimensionMismatch(f"label phases must have shape ({m},)")
    weights = sqrtp * np.exp(1j * theta)
    for _ in range(steps):
        nxt = np.zeros(k, dtype=complex)
        np.add.at(nxt, table.ravel(), np.multiply.outer(weights, psi).ravel())  # label-major
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
    if steps < 1:
        raise ValueError("need at least one round")
    coupling = symmetric_coupling(spec.noise, spec.rules.loss_rates)
    # ends, counts, np.unique's sort, stable order, run lengths: 48.0 B a path, all ends distinct
    check_dense_budget(spec.noise.m**steps, 1, 48, "endpoint walk")
    table = _image_table(spec, grid, boundary)
    ends = _path_ends(table, np.array([grid.snap_index(x0)]), steps).ravel()
    counts = np.unique(ends, return_counts=True)[1]
    check_dense_budget(int(counts @ (counts - 1)) // 2, 1, PAIR_BYTES, "phase constraints")
    # node by node, lexicographic: order[k] pairs with the `later` paths after it in its run
    order = np.argsort(ends, kind="stable")
    later = np.repeat(np.cumsum(counts), counts) - np.arange(1, ends.size + 1)
    pair_i = np.repeat(order, later)
    skip = np.arange(1, ends.size + 1) - np.cumsum(later) + later  # pair t of k: order[t + skip[k]]
    pair_j = order[np.arange(pair_i.size) + np.repeat(skip, later)]
    return constraints_for_pairs(spec.noise, coupling, steps, pair_i, pair_j)


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
    # labels that land on one node merge, so sequences never outnumber label
    # paths; the table, the parent links and one step's unique keys peak at
    # 14.1 and 12.8 B of resident memory per cell on a +-1 walk at 16 and 20 steps
    check_dense_budget(spec.noise.m**steps, steps, 16, "joint density")
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
