"""Uniform 1-d state grids shared by the game and wave modules; byte and chunk budgets."""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, OffGridImage, SizeGuardExceeded

_UNIFORMITY_ATOL = 1e-12

#: most bytes a dense build or view may allocate; larger inputs are refused
#: before any such array exists
KERNEL_BYTE_BUDGET = 1 << 31

#: most values a Monte Carlo loop holds at once, so its memory does not grow
#: with its sample count; no result depends on it
CHUNK_VALUES = 1 << 17


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def ordered_map(fn, items, threads):
    """Yield ``fn(item)`` for each item of a sequence, in order, on at most ``threads`` threads.

    The threads number at most the usable CPUs and the items too; one thread
    runs inline and starts none.  At most two items per thread are in flight.
    Each task runs in a copy of the caller's context, so from numpy 2 on,
    which keeps ``np.errstate`` in a context variable, a caller's errstate
    holds in it.  A task's exception is raised here, and pending tasks are
    cancelled when it is or when the consumer stops.
    """
    import contextvars
    from concurrent.futures import ThreadPoolExecutor

    threads = max(1, min(threads, usable_cpus(), len(items)))
    if threads == 1:
        yield from map(fn, items)
        return
    pool = ThreadPoolExecutor(threads)
    try:
        pending = []
        for item in items:
            pending.append(pool.submit(contextvars.copy_context().run, fn, item))
            if len(pending) == 2 * threads:
                yield pending.pop(0).result()
        for future in pending:
            yield future.result()
    finally:
        pool.shutdown(cancel_futures=True)


def check_dense_budget(rows: int, cols: int, bytes_per_entry: int, what: str) -> None:
    need = bytes_per_entry * rows * cols
    if need > KERNEL_BYTE_BUDGET:
        raise SizeGuardExceeded(f"{what}: ~{need} bytes for {rows}×{cols} > {KERNEL_BYTE_BUDGET}")


@dataclass(frozen=True, eq=False)
class StateGrid:
    """Strictly increasing, uniformly spaced real nodes."""

    nodes: np.ndarray

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise DimensionMismatch("grid needs a 1-d array of at least two nodes")
        steps = np.diff(nodes)
        if np.any(steps <= 0.0):
            raise ValueError("grid nodes must be strictly increasing")
        if np.max(np.abs(steps - steps[0])) > _UNIFORMITY_ATOL * max(1.0, abs(steps[0])):
            raise ValueError("grid nodes must be uniformly spaced")
        object.__setattr__(self, "nodes", nodes)

    @classmethod
    def from_range(cls, start: float, stop: float, count: int) -> "StateGrid":
        return cls(np.linspace(float(start), float(stop), int(count)))

    @property
    def size(self) -> int:
        return int(self.nodes.size)

    @property
    def dx(self) -> float:
        return float(self.nodes[1] - self.nodes[0])

    @property
    def x0(self) -> float:
        return float(self.nodes[0])

    def snap_index(self, x: float) -> int:
        """Index of the node nearest to ``x``; it must lie on the grid, within dx/2 of a node."""
        return int(self.snap_indices(np.array([float(x)]))[0])

    def snap_indices(self, xs: np.ndarray, wrap: bool = False) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        ks = np.rint((xs - self.x0) / self.dx).astype(int)
        off = np.abs(xs - (self.x0 + ks * self.dx)) > 0.5 * self.dx * (1.0 + 1e-9)
        if np.any(off):
            raise OffGridImage(
                f"image {float(xs[off][0])} is farther than dx/2 from any node"
            )
        if wrap:
            return np.mod(ks, self.size)
        if np.any(ks < 0) or np.any(ks >= self.size):
            bad = xs[(ks < 0) | (ks >= self.size)][0]
            raise OffGridImage(f"image {float(bad)} falls outside the grid")
        return ks

    def wavenumbers(self) -> np.ndarray:
        """Momentum-lattice wavenumbers in FFT order for the periodic grid."""
        return 2.0 * np.pi * np.fft.fftfreq(self.size, d=self.dx)
