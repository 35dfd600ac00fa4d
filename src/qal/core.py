"""Incomplete random variables: a hidden discrete source behind a faulty reader.

A bare distribution over M outcomes is only observable through a reading
channel that can lose a draw entirely (rule one: the driven system freezes for
that round) or report the wrong outcome (rule two).  What the observer
accumulates is a sub-normalized histogram; the missing mass is the defect.

Channel composition order: loss first, then misread, then correct read.  With
per-true-outcome loss rates ``gamma[l]`` and misread probabilities
``misreads[j, l]`` (outcome l reported as j), the observed frequency of
outcome j is

    p[j] = P[j]*(1 - gamma[j]) + sum_{l != j} (misreads[j, l]*P[l] - misreads[l, j]*P[j])

and the lost fraction is ``sum_j gamma[j]*P[j]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ChannelInfeasible,
    DimensionMismatch,
    NegativeEffectiveProbability,
)

__all__ = [
    "LOST",
    "BareDistribution",
    "QRuleParams",
    "EffectiveDistribution",
    "CouplingMatrix",
    "effective_distribution",
    "effective_from_coupling",
    "symmetric_coupling",
    "symmetrizing_misreads",
    "sample_readings",
]

#: Reading outcome marker: the draw was lost and the driven system holds state.
LOST = -1

_ATOL = 1e-12


def _vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise DimensionMismatch(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


@dataclass(frozen=True, eq=False)
class BareDistribution:
    """Hidden source: M pairwise-distinct outcome values with positive weights."""

    labels: np.ndarray
    probs: np.ndarray

    def __post_init__(self) -> None:
        labels = _vector(self.labels, "labels")
        probs = _vector(self.probs, "probs")
        if labels.size != probs.size:
            raise DimensionMismatch("labels and probs must have the same length")
        if labels.size < 2:
            raise ValueError("need at least two outcomes")
        if np.unique(labels).size != labels.size:
            raise ValueError("outcome labels must be pairwise distinct")
        if np.any(probs <= 0.0):
            raise ValueError("all outcome probabilities must be strictly positive")
        if abs(probs.sum() - 1.0) > _ATOL:
            raise ValueError(f"probabilities must sum to 1, got {probs.sum()!r}")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "probs", probs)

    @property
    def m(self) -> int:
        return int(self.probs.size)

    @classmethod
    def uniform(cls, labels) -> "BareDistribution":
        labels = _vector(labels, "labels")
        return cls(labels, np.full(labels.size, 1.0 / labels.size))


@dataclass(frozen=True, eq=False)
class QRuleParams:
    """Reading channel: per-outcome loss rates and an off-diagonal misread matrix.

    ``misreads[j, l]`` is the probability that a draw of outcome l is reported
    as outcome j.  Each column must leave room for the correct read:
    ``loss_rates[l] + sum_j misreads[j, l] <= 1``.
    """

    loss_rates: np.ndarray
    misreads: np.ndarray

    def __post_init__(self) -> None:
        gamma = _vector(self.loss_rates, "loss_rates")
        misreads = np.asarray(self.misreads, dtype=float)
        m = gamma.size
        if misreads.shape != (m, m):
            raise DimensionMismatch(
                f"misreads must be {m}x{m}, got shape {misreads.shape}"
            )
        if np.any((gamma < 0.0) | (gamma > 1.0)):
            raise ValueError("loss rates must lie in [0, 1]")
        if np.any(misreads < 0.0):
            raise ValueError("misread probabilities must be non-negative")
        if np.any(np.abs(np.diagonal(misreads)) > 0.0):
            raise ValueError("misreads must have a zero diagonal")
        column_load = gamma + misreads.sum(axis=0)
        if np.any(column_load > 1.0 + _ATOL):
            worst = int(np.argmax(column_load))
            raise ChannelInfeasible(
                f"column {worst}: loss + misread mass {column_load[worst]!r} exceeds 1"
            )
        object.__setattr__(self, "loss_rates", gamma)
        object.__setattr__(self, "misreads", misreads)

    @property
    def m(self) -> int:
        return int(self.loss_rates.size)

    @classmethod
    def lossless(cls, m: int) -> "QRuleParams":
        return cls(np.zeros(m), np.zeros((m, m)))

    @classmethod
    def pure_loss(cls, loss_rates) -> "QRuleParams":
        gamma = _vector(loss_rates, "loss_rates")
        return cls(gamma, np.zeros((gamma.size, gamma.size)))


@dataclass(frozen=True, eq=False)
class EffectiveDistribution:
    """Observed sub-normalized histogram plus the lost (defect) mass."""

    probs: np.ndarray
    defect: float

    def __post_init__(self) -> None:
        probs = _vector(self.probs, "probs")
        if np.any(probs < -_ATOL):
            worst = float(probs.min())
            raise NegativeEffectiveProbability(
                f"observed probability would be negative ({worst!r}); "
                "the reading channel is too strong for this source"
            )
        probs = np.where(np.abs(probs) < _ATOL, np.maximum(probs, 0.0), probs)
        defect = float(self.defect)
        if defect < -_ATOL:
            raise ValueError("defect must be non-negative")
        if abs(defect - (1.0 - probs.sum())) > _ATOL:
            raise ValueError(
                f"defect {defect!r} does not equal the missing mass {1.0 - probs.sum()!r}"
            )
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "defect", max(defect, 0.0))

    @property
    def total(self) -> float:
        return float(self.probs.sum())


@dataclass(frozen=True, eq=False)
class CouplingMatrix:
    """Symmetric, non-positive cross-outcome couplings with zero diagonal."""

    d: np.ndarray

    def __post_init__(self) -> None:
        d = np.asarray(self.d, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise DimensionMismatch(f"coupling matrix must be square, got {d.shape}")
        if np.max(np.abs(d - d.T), initial=0.0) > _ATOL:
            raise ValueError("coupling matrix must be symmetric")
        if np.any(np.abs(np.diagonal(d)) > 0.0):
            raise ValueError("coupling matrix must have a zero diagonal")
        if np.any(d > _ATOL):
            raise ValueError("couplings must be non-positive in the loss-dominated case")
        object.__setattr__(self, "d", np.minimum(d, 0.0))

    @property
    def m(self) -> int:
        return int(self.d.shape[0])

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.d)))


def _check_same_m(bare: BareDistribution, m: int, what: str) -> None:
    if bare.m != m:
        raise DimensionMismatch(f"{what}: expected {bare.m} outcomes, got {m}")


def effective_distribution(bare: BareDistribution, rules: QRuleParams) -> EffectiveDistribution:
    """Histogram actually accumulated by a reader subject to both rules."""
    _check_same_m(bare, rules.m, "effective_distribution")
    p = bare.probs
    gamma = rules.loss_rates
    misr = rules.misreads
    observed = p * (1.0 - gamma) + misr @ p - p * misr.sum(axis=0)
    defect = float(gamma @ p)
    return EffectiveDistribution(observed, defect)


def effective_from_coupling(bare: BareDistribution, coupling: CouplingMatrix) -> EffectiveDistribution:
    """Observed histogram implied by symmetric couplings: p[j] = P[j] + sum_l sqrt(P_j P_l) d[j,l].

    Raises NegativeEffectiveProbability when the couplings drain an outcome
    below zero; the channel route can never do that, but a raw coupling matrix
    can.
    """
    _check_same_m(bare, coupling.m, "effective_from_coupling")
    s = np.sqrt(bare.probs)
    cross = (coupling.d * np.outer(s, s)).sum(axis=1)
    probs = bare.probs + cross
    return EffectiveDistribution(probs, 1.0 - float(probs.sum()))


def symmetric_coupling(bare: BareDistribution, loss_rates) -> CouplingMatrix:
    """Couplings for the loss-dominated symmetric case.

    d[j, l] = -(gamma_l sqrt(P_l/P_j) + gamma_j sqrt(P_j/P_l)) / (2 (M-1)),
    equivalently sqrt(P_j P_l) d[j, l] = -(gamma_j P_j + gamma_l P_l) / (2 (M-1)).
    """
    gamma = _vector(loss_rates, "loss_rates")
    _check_same_m(bare, gamma.size, "symmetric_coupling")
    if np.any((gamma < 0.0) | (gamma > 1.0)):
        raise ValueError("loss rates must lie in [0, 1]")
    gp = gamma * bare.probs
    s = np.sqrt(bare.probs)
    d = -(gp[:, None] + gp[None, :]) / (2.0 * (bare.m - 1) * np.outer(s, s))
    np.fill_diagonal(d, 0.0)
    return CouplingMatrix(d)


def symmetrizing_misreads(bare: BareDistribution, loss_rates) -> QRuleParams:
    """Generative channel whose observed histogram matches the symmetric couplings.

    Returns the given loss rates together with misreads
    misreads[j, l] = gamma_j P_j / (2 (M-1) P_l); infeasible columns raise
    ChannelInfeasible.
    """
    gamma = _vector(loss_rates, "loss_rates")
    _check_same_m(bare, gamma.size, "symmetrizing_misreads")
    if np.any((gamma < 0.0) | (gamma > 1.0)):
        raise ValueError("loss rates must lie in [0, 1]")
    gp = gamma * bare.probs
    misreads = gp[:, None] / (2.0 * (bare.m - 1) * bare.probs[None, :])
    np.fill_diagonal(misreads, 0.0)
    return QRuleParams(gamma, misreads)


def sample_readings(
    bare: BareDistribution,
    rules: QRuleParams,
    rng: np.random.Generator,
    size: int | tuple[int, ...],
) -> np.ndarray:
    """Array of reading outcomes of the given shape; ``LOST`` marks lost draws.

    Two-step generative algorithm per draw: pick the true outcome from the
    bare distribution, then resolve the reading (lost / misread / correct).
    The uniforms come from one ``rng.random(shape[:-1] + (2, shape[-1]))``:
    each trailing row draws its true-outcome uniforms, then its read
    uniforms.  A ``(R, n)`` call therefore consumes the stream exactly as R
    consecutive ``size=n`` calls do and returns the same readings.
    """
    _check_same_m(bare, rules.m, "sample_readings")
    m = rules.m
    shape = (size,) if np.ndim(size) == 0 else tuple(size)
    u = rng.random(shape[:-1] + (2, shape[-1]))
    true_u, read_u = u[..., 0, :], u[..., 1, :]
    # true index: cumulative weights at or below the uniform, the last taken as 1
    true_idx = np.zeros(shape, dtype=np.intp)
    for c in np.cumsum(bare.probs)[:-1]:
        true_idx += true_u >= c
    # Column l partitions the read uniform: lost below edges[0, l], misread as
    # others[k - 1, l] from edges[k, l], correct read from edges[m - 1, l] on.
    rows = np.arange(m - 1)[:, None]
    others = rows + (rows >= np.arange(m))
    reach = rules.loss_rates + np.cumsum(rules.misreads, axis=0)
    edges = np.vstack([rules.loss_rates, np.take_along_axis(reach, others, axis=0)])
    outcomes = np.vstack([np.full(m, LOST), others, np.arange(m)]).ravel()
    # flat index into outcomes: m per edge passed, plus the true column
    pos = true_idx.copy()
    for edge in edges:
        pos += m * (read_u >= edge.take(true_idx))
    return outcomes.take(pos)
