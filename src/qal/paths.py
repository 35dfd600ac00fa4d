"""Exhaustive path expansion and the path-sum / squared-amplitude identity.

For N reading rounds over M outcomes, expanding the product of observed
per-round histograms branches every label sequence ("classical path") into
terms carrying cross-outcome coupling factors.  With symmetric couplings the
raw M^(2N) terms collapse, by merging twin terms, to ((M^2+M)/2)^N canonical
terms, and the whole sum can be rewritten as the squared modulus of a single
complex sum over the M^N classical paths, each weighted by the square root of
its probability and a solved phase.  Both enumerations are index arrays: an
:class:`Expansion` holds one row of per-round labels per canonical term, and
:func:`all_paths` one row per classical path.

The phase constraints are grouped by shared radix (the square-root factor
pattern two paths have in common): within one radix group the mean of
cos(phi_i - phi_j) must match the coupling product.  Phases additive over
rounds factor both sums, so :func:`identity_check` solves the one-round
system cos(theta_a - theta_b) = d_ab once, exactly for M <= 3, and raises
both sides to the N-th power.  The N-round build and :func:`solve_phases`
serve endpoint-filtered systems and the tests, as oracles.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize

from .core import BareDistribution, CouplingMatrix, symmetric_coupling
from .errors import DimensionMismatch, SizeGuardExceeded
from .grid import check_dense_budget

__all__ = [
    "CensusReport",
    "Expansion",
    "ConstraintSet",
    "PhaseAssignment",
    "SolveReport",
    "IdentityReport",
    "census",
    "expand_paths",
    "xi_sum",
    "all_paths",
    "path_radices",
    "build_constraints",
    "constraints_for_pairs",
    "solve_phases",
    "single_round_phases",
    "lift_phases",
    "amplitude_sum",
    "identity_check",
]

EXPANSION_GUARD = 10**7
CONSTRAINT_GUARD = 4096
PAIR_CHUNK = 1 << 15  # path pairs gathered at once when building constraints


# ---------------------------------------------------------------------------
# exact counting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CensusReport:
    """Exact term counts of the expanded path sum, raw and twin-merged."""

    m: int
    n: int
    raw_total: int
    raw_per_l: tuple[int, ...]
    reduced_per_l: tuple[int, ...]
    reduced_total: int
    independent_nonclassical: int


def census(m: int, n: int) -> CensusReport:
    """Count expansion terms with l cross factors, in exact integers.

    Raw counts use M^2 - M ordered cross pairs per round; merging twin terms
    halves that to (M^2 - M)/2 and shrinks the total from M^(2N) to
    ((M^2 + M)/2)^N.
    """
    if m < 2 or n < 1:
        raise ValueError("census requires m >= 2 and n >= 1")
    raw_per_l = tuple(
        math.comb(n, l) * m ** (n - l) * (m * m - m) ** l for l in range(n + 1)
    )
    reduced_per_l = tuple(
        math.comb(n, l) * m ** (n - l) * ((m * m - m) // 2) ** l for l in range(n + 1)
    )
    raw_total = m ** (2 * n)
    reduced_total = ((m * m + m) // 2) ** n
    return CensusReport(
        m=m,
        n=n,
        raw_total=raw_total,
        raw_per_l=raw_per_l,
        reduced_per_l=reduced_per_l,
        reduced_total=reduced_total,
        independent_nonclassical=reduced_total - m**n,
    )


# ---------------------------------------------------------------------------
# expansion
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Expansion:
    """All canonical terms of the N-round expansion, one row per term.

    In round r, term t takes label ``base[t, r]`` alone (``partner[t, r]`` is
    -1) or its crossing with the larger label ``partner[t, r]``.  ``value``
    is the bare product of probability and coupling factors of that canonical
    representative; ``multiplicity`` counts its merged twins, 2 per crossing
    round, so the term contributes ``multiplicity * value`` to the path sum.
    Rows run lexicographically over the per-round options: the M single
    labels, then the crossings a < b in row-major order.
    """

    base: np.ndarray
    partner: np.ndarray
    value: np.ndarray
    multiplicity: np.ndarray


def _round_options(
    bare: BareDistribution, coupling: CouplingMatrix
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-round expansion choices as arrays: base label, partner (-1: none), factor."""
    m = bare.m
    a, b = np.triu_indices(m, 1)
    s = np.sqrt(bare.probs)
    base = np.concatenate((np.arange(m), a))
    partner = np.concatenate((np.full(m, -1), b))
    return base, partner, np.concatenate((bare.probs, s[a] * s[b] * coupling.d[a, b]))


def _check_expansion(
    bare: BareDistribution, coupling: CouplingMatrix, n: int, per_round: int
) -> None:
    """Refuse an N-round expansion of ``per_round`` terms a round over the guard."""
    if coupling.m != bare.m:
        raise DimensionMismatch("coupling size does not match the distribution")
    if n < 1:
        raise ValueError("need at least one round")
    if per_round**n > EXPANSION_GUARD:
        raise SizeGuardExceeded(
            f"expansion has {per_round}^{n} terms, beyond the {EXPANSION_GUARD} guard"
        )


def expand_paths(bare: BareDistribution, coupling: CouplingMatrix, n: int) -> Expansion:
    """All canonical terms of the N-round expansion, twins merged."""
    _check_expansion(bare, coupling, n, bare.m**2)
    opt_base, opt_partner, factor = _round_options(bare, coupling)
    k = factor.size
    rows = np.arange(k**n)
    base = np.empty((rows.size, n), dtype=np.int64)
    partner = np.empty((rows.size, n), dtype=np.int64)
    value = np.ones(rows.size)
    for r in range(n):
        # option index of round r: digit r of the row number in base k
        option = rows // k ** (n - 1 - r) % k
        base[:, r] = opt_base[option]
        partner[:, r] = opt_partner[option]
        value *= factor[option]  # the round-by-round product, left to right
    multiplicity = 1 << (partner >= 0).sum(axis=1)
    return Expansion(base=base, partner=partner, value=value, multiplicity=multiplicity)


def xi_sum(bare: BareDistribution, coupling: CouplingMatrix, n: int) -> float:
    """Full path sum: every canonical term weighted by its twin multiplicity.

    Equals (sum of observed probabilities)^N; the enumeration here is the
    long way around that closed form, which the tests use as the oracle.
    """
    # the terms array holds one entry per merged option: M(M+1)/2 a round
    _check_expansion(bare, coupling, n, bare.m * (bare.m + 1) // 2)
    _, partner, factor = _round_options(bare, coupling)
    weights = np.where(partner < 0, factor, 2.0 * factor)
    terms = weights
    for _ in range(n - 1):
        terms = np.multiply.outer(terms, weights)
    # accumulate in expansion row order, as the term-by-term sum does, bit for bit
    return float(np.cumsum(terms.ravel())[-1])


# ---------------------------------------------------------------------------
# phase constraints
# ---------------------------------------------------------------------------


def all_paths(m: int, n: int) -> np.ndarray:
    """All M^N classical paths in lexicographic order, as an (M^N, N) array."""
    if m ** n > CONSTRAINT_GUARD:
        raise SizeGuardExceeded(
            f"{m}^{n} classical paths exceed the {CONSTRAINT_GUARD} guard"
        )
    grids = np.meshgrid(*([np.arange(m)] * n), indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=1).astype(np.int64)


def path_radices(bare: BareDistribution, paths: np.ndarray) -> np.ndarray:
    """Square-root path weights: sqrt of the product of bare probabilities."""
    return np.sqrt(np.prod(bare.probs[paths], axis=1))


class ConstraintSet:
    """Pair constraints between classical paths, with radix grouping, as arrays.

    Constraint n ties the label rows ``paths[pair_i[n]]`` and
    ``paths[pair_j[n]]``: cos(phi_i - phi_j) should equal ``targets[n]``, the
    product of couplings over the rounds where the rows differ.
    ``group_inverse`` maps each pair to its radix group (pairs sharing the
    per-round unordered label pattern), the granularity at which the phase
    system is actually solved; within a group the mean cosine must match the
    shared target.  ``len`` counts the pairs.
    """

    def __init__(
        self,
        paths: np.ndarray,
        pair_i: np.ndarray,
        pair_j: np.ndarray,
        targets: np.ndarray,
        m: int,
    ) -> None:
        self.paths = np.asarray(paths, dtype=np.int64)
        self.pair_i = np.asarray(pair_i, dtype=np.int64)
        self.pair_j = np.asarray(pair_j, dtype=np.int64)
        self.targets = np.asarray(targets, dtype=float)
        self.m = int(m)
        if not (self.pair_i.size == self.pair_j.size == self.targets.size):
            raise DimensionMismatch("pair arrays must have equal length")
        weights = (self.m * self.m) ** np.arange(self.paths.shape[1], dtype=np.int64)
        codes = np.empty(self.pair_i.size, dtype=np.int64)
        for lo in range(0, codes.size, PAIR_CHUNK):
            chunk = slice(lo, lo + PAIR_CHUNK)
            a = self.paths[self.pair_i[chunk]]
            b = self.paths[self.pair_j[chunk]]
            pattern = np.minimum(a, b) * self.m + np.maximum(a, b)
            codes[chunk] = (pattern * weights).sum(axis=1)
        _, first, inverse, counts = np.unique(
            codes, return_index=True, return_inverse=True, return_counts=True
        )
        self.group_inverse = inverse
        self.group_sizes = counts
        self.group_targets = self.targets[first]

    @property
    def n_paths(self) -> int:
        return int(self.paths.shape[0])

    @property
    def n_groups(self) -> int:
        return int(self.group_sizes.size)

    def __len__(self) -> int:
        return int(self.pair_i.size)

    def infeasible_pairs(self) -> np.ndarray:
        """Indices of constraints whose target falls outside [-1, 1]."""
        return np.nonzero(np.abs(self.targets) > 1.0 + 1e-12)[0]


def _pair_targets(
    paths: np.ndarray, coupling: CouplingMatrix, pair_i: np.ndarray, pair_j: np.ndarray
) -> np.ndarray:
    targets = np.empty(pair_i.size, dtype=float)
    for lo in range(0, pair_i.size, PAIR_CHUNK):
        chunk = slice(lo, lo + PAIR_CHUNK)
        a = paths[pair_i[chunk]]
        b = paths[pair_j[chunk]]
        targets[chunk] = np.where(a == b, 1.0, coupling.d[a, b]).prod(axis=1)
    return targets


def constraints_for_pairs(
    bare: BareDistribution,
    coupling: CouplingMatrix,
    paths: np.ndarray,
    pair_i: np.ndarray,
    pair_j: np.ndarray,
) -> ConstraintSet:
    """Constraint set over an explicit list of path pairs.

    Used directly by the game module, where only paths sharing an endpoint
    are constrained against each other.
    """
    if coupling.m != bare.m:
        raise DimensionMismatch("coupling size does not match the distribution")
    paths = np.asarray(paths, dtype=np.int64)
    pair_i = np.asarray(pair_i, dtype=np.int64)
    pair_j = np.asarray(pair_j, dtype=np.int64)
    targets = _pair_targets(paths, coupling, pair_i, pair_j)
    return ConstraintSet(paths, pair_i, pair_j, targets, bare.m)


def build_constraints(
    bare: BareDistribution, coupling: CouplingMatrix, n: int
) -> ConstraintSet:
    """One constraint per unordered pair of distinct classical paths."""
    paths = all_paths(bare.m, n)
    k = paths.shape[0]
    pair_i, pair_j = np.triu_indices(k, k=1)
    return constraints_for_pairs(bare, coupling, paths, pair_i, pair_j)


# ---------------------------------------------------------------------------
# phase solving
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PhaseAssignment:
    """One phase per classical path, gauge-fixed to 0 on the first path."""

    paths: np.ndarray
    phases: np.ndarray

    def __post_init__(self) -> None:
        paths = np.asarray(self.paths, dtype=np.int64)
        phases = np.asarray(self.phases, dtype=float)
        if paths.shape[0] != phases.size:
            raise DimensionMismatch("one phase per path required")
        object.__setattr__(self, "paths", paths)
        object.__setattr__(self, "phases", phases)

    def __len__(self) -> int:
        return int(self.phases.size)

    def check_covers(self, m: int, n: int) -> None:
        """Refuse unless the rows are every N-round path over labels 0..M-1, once each."""
        rows = self.paths
        if rows.ndim != 2 or rows.shape[1] != n:
            raise DimensionMismatch(f"assignment covers {rows.shape[-1]} rounds, not {n}")
        if (
            rows.shape[0] != m**n
            or rows.min() < 0
            or rows.max() >= m
            or np.unique(rows @ m ** np.arange(n)).size != m**n
        ):
            raise DimensionMismatch(
                f"assignment must hold each of the {m}^{n} label paths exactly once"
            )


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Outcome of a phase solve.

    ``max_residual`` and ``group_residuals`` refer to the radix-grouped
    system actually optimized.  Infeasible targets (|t| > 1) are reported
    without solving.  ``lower_bound`` is a certified floor under
    the largest group residual of any phase assignment (0.0: no certificate).
    """

    feasible: bool
    converged: bool
    max_residual: float
    group_residuals: np.ndarray
    group_sizes: np.ndarray
    starts_tried: int
    best_start: int
    infeasible_indices: np.ndarray
    lower_bound: float = 0.0


def _wrap_phases(phases: np.ndarray) -> np.ndarray:
    wrapped = np.angle(np.exp(1j * phases))
    wrapped[wrapped <= -np.pi] = np.pi
    return wrapped


def _group_residuals(constraints: ConstraintSet, phi: np.ndarray) -> np.ndarray:
    c = np.cos(phi[constraints.pair_i] - phi[constraints.pair_j])
    sums = np.bincount(constraints.group_inverse, weights=c, minlength=constraints.n_groups)
    return sums / constraints.group_sizes - constraints.group_targets


def _solved(
    constraints: ConstraintSet, phi: np.ndarray, tol: float, starts_tried: int,
    best_start: int, lower_bound: float = 0.0,
) -> tuple[PhaseAssignment, SolveReport]:
    """Gauge-fix and wrap ``phi``, then report its residuals on ``constraints``."""
    phi = _wrap_phases(phi - phi[0])
    phi[0] = 0.0
    g_res = _group_residuals(constraints, phi)
    max_res = float(np.max(np.abs(g_res))) if constraints.n_groups else 0.0
    report = SolveReport(
        feasible=True,
        converged=bool(max_res <= tol),
        max_residual=max_res,
        group_residuals=g_res,
        group_sizes=constraints.group_sizes.copy(),
        starts_tried=starts_tried,
        best_start=best_start,
        infeasible_indices=np.zeros(0, dtype=np.int64),
        lower_bound=lower_bound,
    )
    return PhaseAssignment(constraints.paths, phi), report


def _group_jacobian(constraints: ConstraintSet, phi: np.ndarray) -> np.ndarray:
    """Dense (n_groups, K) derivative of the group residuals in every path phase.

    One bincount over the flat (group, path) cells, -sin terms first.  It
    equals the two-pass ``np.add.at`` construction bit for bit, so solver
    trajectories do not depend on how it is built.
    """
    ii, jj, ginv = constraints.pair_i, constraints.pair_j, constraints.group_inverse
    k, n_groups = phi.size, constraints.n_groups
    s = np.sin(phi[ii] - phi[jj]) / constraints.group_sizes[ginv]
    cells = np.concatenate((ginv * k + ii, ginv * k + jj))
    flat = np.bincount(cells, weights=np.concatenate((-s, s)), minlength=n_groups * k)
    return flat.reshape(n_groups, k)


def solve_phases(
    constraints: ConstraintSet, *, tol: float = 1e-8, restarts: int = 8, seed: int = 0
) -> tuple[PhaseAssignment, SolveReport]:
    """Gauge-fixed minimax of the largest radix-group cosine residual.

    Starts are tried in order: the all-equal assignment (every phase 0, so no
    report is worse than leaving the phases alone), an evenly spread one, then
    the random restarts, drawn from per-restart substreams of ``seed``.  Each
    start is scored first; the first within ``tol`` ends the search, and each
    other one runs one epigraph minimax by SLSQP: minimize t subject to
    -t <= r_g <= t.  Non-convergence is reported, not raised.  A system whose
    dense group Jacobian would exceed ``grid.KERNEL_BYTE_BUDGET`` is refused
    with :class:`~qal.errors.SizeGuardExceeded` before anything is built.
    """
    k, n_groups = constraints.n_paths, constraints.n_groups
    # peak of an SLSQP run: the dense (n_groups, K) Jacobian, its stacked
    # (2 n_groups, K) inequality rows and SLSQP's workspace; 122 and 114 B
    # per cell of resident memory on the full M=2 system at N=7 and 8
    check_dense_budget(n_groups, k, 128, "phase solve")
    bad = constraints.infeasible_pairs()
    if bad.size:
        report = SolveReport(
            feasible=False,
            converged=False,
            max_residual=float("inf"),
            group_residuals=np.full(n_groups, np.nan),
            group_sizes=constraints.group_sizes.copy(),
            starts_tried=0,
            best_start=-1,
            infeasible_indices=bad,
        )
        return PhaseAssignment(constraints.paths, np.zeros(k)), report

    def residuals(x: np.ndarray) -> np.ndarray:
        # x holds the K - 1 free phases (path 0 is held at 0), then t if present
        return _group_residuals(constraints, np.concatenate(([0.0], x[: k - 1])))

    def bounds_jac(x: np.ndarray) -> np.ndarray:
        jac = _group_jacobian(constraints, np.concatenate(([0.0], x[: k - 1])))[:, 1:]
        return np.hstack((np.vstack((-jac, jac)), np.ones((2 * n_groups, 1))))

    # both residual bounds as one stacked inequality: t - r_g >= 0, t + r_g >= 0
    epigraph = {
        "type": "ineq",
        "fun": lambda x: (x[-1] - np.multiply.outer((1.0, -1.0), residuals(x))).ravel(),
        "jac": bounds_jac,
    }
    d_t = np.append(np.zeros(k - 1), 1.0)  # gradient of the objective t

    streams = np.random.SeedSequence(seed).spawn(max(restarts, 0))
    starts = [np.zeros(k - 1), (np.pi * np.arange(k) / k)[1:]] + [
        np.random.default_rng(stream).uniform(-np.pi, np.pi, k - 1) for stream in streams
    ]
    best_theta = None
    best_res = float("inf")
    best_start = -1
    for idx, theta in enumerate(starts):
        res = float(np.max(np.abs(residuals(theta)), initial=0.0))
        if res > tol:
            theta = minimize(
                lambda x: x[-1],
                np.append(theta, res),
                jac=lambda x: d_t,
                method="SLSQP",
                constraints=epigraph,
                options={"maxiter": 200, "ftol": 1e-12},
            ).x[:-1]
            res = float(np.max(np.abs(residuals(theta))))
        if res < best_res:
            best_res = res
            best_theta = theta
            best_start = idx
        if best_res <= tol:
            break

    phi = np.concatenate(([0.0], best_theta))
    return _solved(constraints, phi, tol, starts_tried=idx + 1, best_start=best_start)


def _triangle_phases(d01: float, d12: float, d02: float) -> tuple[float, np.ndarray]:
    """Exact minimax of max |cos(theta_a - theta_b) - d_ab| over three labels.

    At residual r each pair angle a_ab may lie in [arccos(d + r), arccos(d - r)];
    phases exist iff s01*a01 + s12*a12 - a02 is a multiple of 2*pi for some
    signs, a test monotone in r, so r* is a bisection.  Returns its low end, a
    lower bound on r*, and phases (theta_0 = 0) that close at its high end.
    """

    def close(r: float) -> np.ndarray | None:
        spans = [(math.acos(min(1.0, d + r)), math.acos(max(-1.0, d - r))) for d in (d01, d12, d02)]
        for signs in itertools.product((1, -1), (1, -1), (-1,)):
            ends = [(lo, hi) if s > 0 else (-hi, -lo) for s, (lo, hi) in zip(signs, spans)]
            low, high = (sum(e) for e in zip(*ends))
            for turn in (-2.0 * math.pi, 0.0, 2.0 * math.pi):
                if low <= turn <= high:
                    lam = (turn - low) / (high - low) if high > low else 0.0
                    t01, t12 = (lo + lam * (hi - lo) for lo, hi in ends[:2])
                    return np.array([0.0, t01, t01 + t12])
        return None

    lo, hi = 0.0, 2.0  # at r = 2 every angle is free
    for _ in range(64):  # down to adjacent doubles, or a width of 1e-19
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if close(mid) is not None else (mid, hi)
    return lo, close(hi)


def single_round_phases(
    bare: BareDistribution, coupling: CouplingMatrix, *, tol: float = 1e-8, seed: int = 0
) -> tuple[PhaseAssignment, SolveReport]:
    """Minimax phases of the M one-round paths, cos(theta_a - theta_b) = d_ab.

    M = 2 is exact; M = 3 is the exact minimax r* (:func:`_triangle_phases`),
    with no solver call and no ``seed``; M >= 4 runs :func:`solve_phases`,
    with the largest three-label r* as ``lower_bound``.  Infeasible couplings
    are reported as :func:`solve_phases` reports them.  Any N-round system's
    size-1 groups are one-round pairs, so ``lower_bound`` bounds every N-round
    assignment too, additive over rounds or not.
    """
    constraints = build_constraints(bare, coupling, 1)
    m, d = bare.m, np.clip(coupling.d, -1.0, 1.0)
    if m > 3 or constraints.infeasible_pairs().size:
        assignment, report = solve_phases(constraints, tol=tol, seed=seed)
        triples = itertools.combinations(range(m), 3) if report.feasible else ()
        floors = [_triangle_phases(d[a, b], d[b, c], d[a, c])[0] for a, b, c in triples]
        return assignment, replace(report, lower_bound=max(floors, default=0.0))
    if m == 3:
        floor, theta = _triangle_phases(d[0, 1], d[1, 2], d[0, 2])
    else:
        floor, theta = 0.0, np.array([0.0, math.acos(d[0, 1])])
    return _solved(constraints, theta, tol, starts_tried=1, best_start=0, lower_bound=floor)


def lift_phases(labels: PhaseAssignment, n: int) -> PhaseAssignment:
    """Additive N-round phases: each path's phase is the sum of its label phases."""
    paths = all_paths(len(labels), n)
    return PhaseAssignment(paths, _wrap_phases(labels.phases[paths].sum(axis=1)))


def amplitude_sum(
    bare: BareDistribution, assignment: PhaseAssignment, n: int
) -> complex:
    """Coherent sum over classical paths: sum of radix * exp(i*phase)."""
    assignment.check_covers(bare.m, n)
    radices = path_radices(bare, assignment.paths)
    return complex(np.sum(radices * np.exp(1j * assignment.phases)))


# ---------------------------------------------------------------------------
# end-to-end identity check
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class IdentityReport:
    """Both N-round sums in closed form, their gap, and the residual bound.

    ``assignment`` holds the label phases; the path phases are their additive
    lift (:func:`lift_phases`), so ``xi`` = xi_1^N and ``amp_sq`` = |a|^(2N).
    ``max_residual``, ``converged`` and ``solve_report`` describe the one-round
    system.  The lift's largest N-round group residual lies in
    [``solve_report.lower_bound``, N * ``max_residual``]: certified, not
    optimal.  ``bound`` = N max(|xi_1|, |a|^2)^(N-1) * 2 sum_{a<b} sqrt(p_a
    p_b) |pair residual| + slack caps the gap; ``bound_vacuous`` flags one of
    at least max(xi, amp_sq), the largest gap possible.
    """

    m: int
    n: int
    xi: float
    amp_sq: float
    gap: float
    max_residual: float
    bound: float
    bound_vacuous: bool
    feasible: bool
    converged: bool
    coupling: CouplingMatrix
    assignment: PhaseAssignment
    solve_report: SolveReport


def identity_check(
    bare: BareDistribution, loss_rates, n: int, *, tol: float = 1e-8, seed: int = 0
) -> IdentityReport:
    """Coupling -> one-round phases -> both N-round sums, in O(M^2) at any N.

    ``seed`` matters only for M >= 4 (see :func:`single_round_phases`).
    """
    if n < 1:
        raise ValueError("need at least one round")
    coupling = symmetric_coupling(bare, loss_rates)
    assignment, solve_report = single_round_phases(bare, coupling, tol=tol, seed=seed)
    xi1 = xi_sum(bare, coupling, 1)
    xi = xi1**n
    amp_sq = gap = bound = float("nan")
    if solve_report.feasible:
        amp1 = abs(amplitude_sum(bare, assignment, 1)) ** 2
        amp_sq = amp1**n
        gap = abs(xi - amp_sq)
        s = np.sqrt(bare.probs)
        # one round: every pair is its own group, in np.triu_indices order
        rho = np.multiply.outer(s, s)[np.triu_indices(bare.m, 1)]
        spread = 2.0 * float(np.sum(rho * np.abs(solve_report.group_residuals)))
        slack = 1e-13 * (1.0 + abs(xi) + amp_sq)
        bound = n * max(abs(xi1), amp1) ** (n - 1) * spread + slack
    return IdentityReport(
        m=bare.m,
        n=n,
        xi=xi,
        amp_sq=amp_sq,
        gap=gap,
        max_residual=solve_report.max_residual,
        bound=bound,
        bound_vacuous=bool(bound >= max(xi, amp_sq)),
        feasible=solve_report.feasible,
        converged=solve_report.converged,
        coupling=coupling,
        assignment=assignment,
        solve_report=solve_report,
    )
