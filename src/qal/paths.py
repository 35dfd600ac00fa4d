"""Exhaustive path expansion and the path-sum / squared-amplitude identity.

For N reading rounds over M outcomes, expanding the product of observed
per-round histograms branches every label sequence ("classical path") into
terms carrying cross-outcome coupling factors.  With symmetric couplings the
raw M^(2N) terms collapse, by merging twin terms, to ((M^2+M)/2)^N canonical
terms, and the whole sum can be rewritten as the squared modulus of a single
complex sum over the M^N classical paths, each weighted by the square root of
its probability and a solved phase.  An :class:`Expansion` holds one row of
per-round labels per canonical term; a classical path is its index, whose
base-M digits are its labels (:func:`all_paths`).

The phase constraints are grouped by shared radix (the square-root factor
pattern two paths have in common): within one radix group the mean of
cos(phi_i - phi_j) must match the coupling product.  Phases additive over
rounds factor both sums, so :func:`identity_check` solves the one-round
system cos(theta_a - theta_b) = d_ab once, by :func:`solve_phases` (exact
for M <= 3), and raises both sides to the N-th power.  :func:`solve_phases`
also serves endpoint-filtered systems; the full N-round build serves the
tests, as an oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize

from .core import BareDistribution, CouplingMatrix, symmetric_coupling
from .errors import DimensionMismatch
from .grid import CHUNK_VALUES, check_dense_budget

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

#: resident bytes a pair costs while a constraint set is built (indices, codes, np.unique's
#: sort, inverse): 65.8, 65.5, 66.1 B at M=2 N=11, 12, M=3 N=7; 73.1 B at 2^20 endpoint paths
PAIR_BYTES = 80

#: resident bytes a path costs in a phase solve (component labels and counts, the
#: phases and their wrap): 72.0 B traced on three pairs among 2^18 and 2^20 paths
PATH_BYTES = 72


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


def _path_products(factors: np.ndarray, n: int) -> np.ndarray:
    """Per-label factors multiplied along every N-round path, left to right, in path order."""
    products = np.ones(1)
    for _ in range(n):
        products = np.multiply.outer(products, factors).ravel()
    return products


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
    bare: BareDistribution, coupling: CouplingMatrix, n: int, term_bytes: int, what: str
) -> None:
    """Refuse mismatched inputs, and ((M^2+M)/2)^N merged terms over the byte budget."""
    if coupling.m != bare.m:
        raise DimensionMismatch("coupling size does not match the distribution")
    if n < 1:
        raise ValueError("need at least one round")
    check_dense_budget((bare.m * (bare.m + 1) // 2) ** n, 1, term_bytes, what)


def expand_paths(bare: BareDistribution, coupling: CouplingMatrix, n: int) -> Expansion:
    """All canonical terms of the N-round expansion, twins merged."""
    # label rows, value, row number, option and the multiplicity's crossing mask:
    # 244, 270 and 104 B of resident memory a term at M=2 N=12, M=2 N=14, M=10 N=4
    _check_expansion(bare, coupling, n, 17 * n + 40, "expansion")
    opt_base, opt_partner, factor = _round_options(bare, coupling)
    k = factor.size
    rows = np.arange(k**n)
    base = np.empty((rows.size, n), dtype=np.int64)
    partner = np.empty((rows.size, n), dtype=np.int64)
    for r in range(n):
        # option index of round r: digit r of the row number in base k
        option = rows // k ** (n - 1 - r) % k
        base[:, r] = opt_base[option]
        partner[:, r] = opt_partner[option]
    value = _path_products(factor, n)  # the round-by-round product, left to right
    multiplicity = 1 << (partner >= 0).sum(axis=1)
    return Expansion(base=base, partner=partner, value=value, multiplicity=multiplicity)


def xi_sum(bare: BareDistribution, coupling: CouplingMatrix, n: int) -> float:
    """Full path sum: every canonical term weighted by its twin multiplicity.

    Equals (sum of observed probabilities)^N; the enumeration here is the
    long way around that closed form, which the tests use as the oracle.
    """
    _check_expansion(bare, coupling, n, 16, "path sum")  # the terms and their cumsum
    _, partner, factor = _round_options(bare, coupling)
    terms = _path_products(np.where(partner < 0, factor, 2.0 * factor), n)
    # accumulate in expansion row order, as the term-by-term sum does, bit for bit
    return float(np.cumsum(terms)[-1])


# ---------------------------------------------------------------------------
# phase constraints
# ---------------------------------------------------------------------------


def all_paths(m: int, n: int) -> np.ndarray:
    """All M^N classical paths in lexicographic order: row p holds p's base-M digits."""
    if n < 1:
        raise ValueError("need at least one round")
    # rows, index and a chunk: 8.09, 8.42 B resident a cell of M^N x (N + 1) at M=2 N=20, 18
    check_dense_budget(m**n, n + 1, 9, "classical paths")
    index = np.arange(m**n)
    labels = np.empty((index.size, n), dtype=np.int64)
    rows = max(1, CHUNK_VALUES // n)
    for lo in range(0, index.size, rows):
        labels[lo : lo + rows] = np.transpose(np.unravel_index(index[lo : lo + rows], (m,) * n))
    return labels


def path_radices(bare: BareDistribution, n: int) -> np.ndarray:
    """Square-root weights of the M^N paths: sqrt of the product of bare probabilities."""
    return np.sqrt(_path_products(bare.probs, n))


@dataclass(frozen=True, eq=False)
class ConstraintSet:
    """Pair constraints between classical paths, grouped by radix, as arrays.

    Constraint n ties the paths ``pair_i[n]`` and ``pair_j[n]`` of the M^N
    N-round paths.  ``group_inverse`` maps each pair to its radix group
    (pairs sharing the per-round unordered label pattern, in the order of its
    int64 code), the granularity at which the phase system is solved: the mean
    of cos(phi_i - phi_j) over the ``group_sizes[g]`` pairs of group g must
    match ``group_targets[g]``, the product over rounds of ``d[min, max]`` (1
    where the labels agree).  ``len`` counts the pairs.
    """

    m: int
    n: int
    pair_i: np.ndarray
    pair_j: np.ndarray
    group_inverse: np.ndarray
    group_sizes: np.ndarray
    group_targets: np.ndarray

    @property
    def n_paths(self) -> int:
        return self.m**self.n

    @property
    def n_groups(self) -> int:
        return int(self.group_sizes.size)

    @property
    def targets(self) -> np.ndarray:
        """Per-pair targets: each pair's group target."""
        return self.group_targets[self.group_inverse]

    def __len__(self) -> int:
        return int(self.pair_i.size)

    def infeasible_pairs(self) -> np.ndarray:
        """Indices of constraints whose target falls outside [-1, 1]."""
        return np.nonzero(np.abs(self.targets) > 1.0 + 1e-12)[0]


def constraints_for_pairs(
    bare: BareDistribution,
    coupling: CouplingMatrix,
    n: int,
    pair_i: np.ndarray,
    pair_j: np.ndarray,
) -> ConstraintSet:
    """Constraint set over an explicit list of pairs of N-round path indices.

    Used directly by the game module, where only paths sharing an endpoint
    are constrained against each other.  One pass over the pairs, in chunks,
    codes each pair's per-round unordered label pattern as an int64 in base
    M^2 (M^(2N) above 2^64 is refused) off the indices: path p's label in
    round r is its digit p // M^(N-1-r) % M.  A group is its code: its target,
    the product over rounds of ``d[min, max]``, is read off its uint64 digits.
    """
    if coupling.m != bare.m:
        raise DimensionMismatch("coupling size does not match the distribution")
    if n < 1:
        raise ValueError("need at least one round")
    m = bare.m
    if n > 32 or m ** (2 * n) > 1 << 64:  # M^(2N) >= 4^N
        raise ValueError(f"M={m}, N={n}: M^(2N) label patterns of a pair exceed 2^64 radix codes")
    pair_i = np.asarray(pair_i, dtype=np.int64)
    pair_j = np.asarray(pair_j, dtype=np.int64)
    if pair_i.size != pair_j.size:
        raise DimensionMismatch("pair arrays must have equal length")
    check_dense_budget(pair_i.size, 1, PAIR_BYTES, "phase constraints")
    weights = (m * m) ** np.arange(n, dtype=np.int64)
    rows = CHUNK_VALUES // n
    codes = np.zeros(pair_i.size, dtype=np.int64)
    for lo in range(0, codes.size, rows):
        a, b, code = pair_i[lo : lo + rows], pair_j[lo : lo + rows], codes[lo : lo + rows]
        for weight in weights[::-1]:  # the last round is an index's lowest digit
            a, x = np.divmod(a, m)
            b, y = np.divmod(b, m)
            code += (np.minimum(x, y) * m + np.maximum(x, y)) * weight  # int64 wraps past 2^63
        if a.any() or b.any():  # an index past M^N keeps a quotient, a negative one stays below 0
            raise ValueError(f"path index out of bounds for {m}^{n} paths")
    codes, inverse = np.unique(codes, return_inverse=True)
    factor = np.where(np.eye(m, dtype=bool), 1.0, coupling.d).ravel()  # at min * M + max
    codes, weights = codes.view(np.uint64), weights.view(np.uint64)  # decode past 2^63
    targets = np.empty(codes.size)
    for lo in range(0, codes.size, rows):
        digits = codes[lo : lo + rows, None] // weights % np.uint64(m * m)
        targets[lo : lo + rows] = factor[digits].prod(axis=1)
    return ConstraintSet(m, n, pair_i, pair_j, inverse, np.bincount(inverse), targets)


def build_constraints(
    bare: BareDistribution, coupling: CouplingMatrix, n: int
) -> ConstraintSet:
    """One constraint per unordered pair of distinct classical paths."""
    k = bare.m**n
    check_dense_budget(k * (k - 1) // 2, 1, PAIR_BYTES, "phase constraints")
    pair_i, pair_j = np.triu_indices(k, k=1)
    return constraints_for_pairs(bare, coupling, n, pair_i, pair_j)


# ---------------------------------------------------------------------------
# phase solving
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PhaseAssignment:
    """One phase per N-round path over M labels, by path index; a solve's are 0 on path 0."""

    m: int
    n: int
    phases: np.ndarray

    def __post_init__(self) -> None:
        phases = np.asarray(self.phases, dtype=float)
        if phases.shape != (self.m**self.n,):
            raise DimensionMismatch(f"one phase per path required: shape ({self.m}^{self.n},)")
        object.__setattr__(self, "phases", phases)


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Outcome of a phase solve.

    ``max_residual`` and ``group_residuals`` refer to the radix-grouped
    system actually optimized.  Infeasible targets (|t| > 1) are reported
    without solving.  ``lower_bound`` is a certified floor under
    the largest group residual of any phase assignment (0.0: no certificate),
    capped at ``max_residual``, which round-off can put an ulp below it.
    """

    feasible: bool
    converged: bool
    max_residual: float
    group_residuals: np.ndarray
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
        starts_tried=starts_tried,
        best_start=best_start,
        infeasible_indices=np.zeros(0, dtype=np.int64),
        lower_bound=min(lower_bound, max_res),
    )
    return PhaseAssignment(constraints.m, constraints.n, phi), report


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


def _components(constraints: ConstraintSet) -> tuple[np.ndarray, np.ndarray]:
    """Each path's component, named by its smallest path index, and each component's groups.

    Pairs are edges, and each is also tied to ``member``, a path of its radix group, so no
    group straddles two components.  Min-label propagation with pointer jumping, over chunks
    of pairs and groups, holds O(paths + groups); ``member``, built before :func:`solve_phases`
    can refuse a system, takes the smallest type that holds a path index.
    """
    ii, jj, ginv = constraints.pair_i, constraints.pair_j, constraints.group_inverse
    k, step = constraints.n_paths, CHUNK_VALUES // 16
    chunks = [slice(lo, lo + step) for lo in range(0, ii.size, step)]
    member = np.empty(constraints.n_groups, np.min_scalar_type(k - 1))
    for part in chunks:
        member[ginv[part]] = ii[part]
    label, new = None, np.arange(k)
    while not np.array_equal(new, label):
        label, new = new, new.copy()
        for part in chunks:
            # members as intp: take and minimum.at ran about 2x and 1.5x slower on uint16
            ends = (ii[part], jj[part], member[ginv[part]].astype(np.intp))
            low = np.minimum(np.minimum(label[ends[0]], label[ends[1]]), label[ends[2]])
            for e in ends:
                np.minimum.at(new, e, low)
        while not np.array_equal(new[new], new):
            new = new[new]
    groups = np.zeros(k, dtype=np.int64)
    for lo in range(0, member.size, step):
        np.add.at(groups, label[member[lo : lo + step]], 1)
    return label, groups


def _minimax(system: ConstraintSet, k: int, tol: float, restarts: int, seed: int) -> tuple:
    """Best start's phases on the K paths of ``system`` (path 0 at 0), starts tried, best start."""

    def residuals(x: np.ndarray) -> np.ndarray:
        # x holds the K - 1 free phases (path 0 is held at 0), then t if present
        return _group_residuals(system, np.concatenate(([0.0], x[: k - 1])))

    def bounds_jac(x: np.ndarray) -> np.ndarray:
        jac = _group_jacobian(system, np.concatenate(([0.0], x[: k - 1])))[:, 1:]
        return np.hstack((np.vstack((-jac, jac)), np.ones((2 * system.n_groups, 1))))

    # both residual bounds as one stacked inequality: t - r_g >= 0, t + r_g >= 0
    epigraph = {"type": "ineq", "jac": bounds_jac, "fun": lambda x: (
        x[-1] - np.multiply.outer((1.0, -1.0), residuals(x))).ravel()}
    d_t = np.append(np.zeros(k - 1), 1.0)  # gradient of the objective t

    streams = np.random.SeedSequence(seed).spawn(max(restarts, 0))
    starts = [np.zeros(k - 1), (np.pi * np.arange(k) / k)[1:]] + [
        np.random.default_rng(stream).uniform(-np.pi, np.pi, k - 1) for stream in streams
    ]
    best_theta, best_res, best_start = None, float("inf"), -1
    for idx, theta in enumerate(starts):
        res = float(np.max(np.abs(residuals(theta)), initial=0.0))
        if res > tol:
            theta = minimize(lambda x: x[-1], np.append(theta, res), jac=lambda x: d_t,
                             method="SLSQP", constraints=epigraph,
                             options={"maxiter": 200, "ftol": 1e-12}).x[:-1]
            res = float(np.max(np.abs(residuals(theta))))
        if res < best_res:
            best_theta, best_res, best_start = theta, res, idx
        if best_res <= tol:
            break
    return np.concatenate(([0.0], best_theta)), idx + 1, best_start


def solve_phases(
    constraints: ConstraintSet, *, tol: float = 1e-8, restarts: int = 8, seed: int = 0
) -> tuple[PhaseAssignment, SolveReport]:
    """Gauge-fixed minimax of the largest radix-group cosine residual, component by component.

    Each component (:func:`_components`) is solved alone, its first path at 0, an unpaired
    path at 0.  A lone pair is exact, at arccos of its target; three paths whose pairs are
    three groups take :func:`_triangle_phases`, whose largest floor is ``lower_bound``.  Any
    other component scores starts in order: all-equal (so no report is worse than leaving
    the phases alone), evenly spread, then restarts from per-restart substreams of ``seed``.
    The first within ``tol`` ends the search; each other one runs one epigraph minimax by
    SLSQP: minimize t subject to -t <= r_g <= t.  ``starts_tried`` sums the starts of all
    components (a closed form is one), and ``best_start`` is the latest start that won on
    any.  Non-convergence is reported, not raised.  A system whose largest component's
    dense group Jacobian would exceed ``grid.KERNEL_BYTE_BUDGET`` is refused with
    :class:`~qal.errors.SizeGuardExceeded` before anything per pair is built.
    """
    k, ii, jj = constraints.n_paths, constraints.pair_i, constraints.pair_j
    check_dense_budget(1, k, PATH_BYTES, "phase solve")
    label, groups = _components(constraints)
    counts = np.bincount(label, minlength=k)
    big = int(np.argmax(groups * counts))
    # peak of an SLSQP run: the dense (groups, paths) Jacobian, its stacked
    # (2 groups, paths) inequality rows and SLSQP's workspace; 122 and 114 B
    # per cell of resident memory on the full M=2 system at N=7 and 8
    check_dense_budget(int(groups[big]), int(counts[big]), 128, "phase solve")
    bad = constraints.infeasible_pairs()
    if bad.size:
        nan = np.full(constraints.n_groups, np.nan)
        report = SolveReport(False, False, float("inf"), nan, 0, -1, infeasible_indices=bad)
        return PhaseAssignment(constraints.m, constraints.n, np.zeros(k)), report

    ginv, comp = constraints.group_inverse, label[ii]
    targets = np.clip(constraints.group_targets, -1.0, 1.0)
    single = np.bincount(comp, minlength=k)[comp] == 1
    phi = np.zeros(k)  # a lone pair: its later path turns by arccos of the target
    phi[np.maximum(ii, jj)[single]] = np.arccos(targets[ginv[single]])
    floor, tried, last = 0.0, int(np.count_nonzero(single)), 0
    order = np.flatnonzero(~single)[np.argsort(comp[~single], kind="stable")]
    for pairs in np.split(order, np.flatnonzero(np.diff(comp[order])) + 1) if order.size else ():
        paths, local = np.unique(np.concatenate((ii[pairs], jj[pairs])), return_inverse=True)
        kept, group = np.unique(ginv[pairs], return_inverse=True)
        if paths.size == kept.size == pairs.size == 3:
            d = np.empty(3)  # pairs (0, 1), (0, 2), (1, 2) of the local paths
            d[local[:3] + local[3:] - 1] = targets[kept[group]]
            low, theta = _triangle_phases(d[0], d[2], d[1])
            floor, starts, best = max(floor, low), 1, 0
        else:
            n, sizes = pairs.size, constraints.group_sizes[kept]
            system = replace(constraints, pair_i=local[:n], pair_j=local[n:], group_inverse=group,
                             group_sizes=sizes, group_targets=constraints.group_targets[kept])
            theta, starts, best = _minimax(system, paths.size, tol, restarts, seed)
        phi[paths] = theta
        tried, last = tried + starts, max(last, best)
    return _solved(constraints, phi, tol, starts_tried=tried, best_start=last, lower_bound=floor)


def _triangle_phases(d01: float, d12: float, d02: float) -> tuple[float, np.ndarray]:
    """Exact minimax of max |cos(theta_a - theta_b) - d_ab| over three labels.

    At residual r each pair angle a_ab may lie in [arccos(d + r), arccos(d - r)];
    phases exist iff s01*a01 + s12*a12 - a02 is a multiple of 2*pi for some
    signs, a test monotone in r, so r* is a bisection.  Returns its low end, a
    lower bound on r*, and phases (theta_0 = 0) that close at its high end.
    """

    def close(r: float) -> tuple[float, float] | None:
        # plain float arithmetic, in the order of summing each sign choice's span ends
        a01, b01 = math.acos(min(1.0, d01 + r)), math.acos(max(-1.0, d01 - r))
        a12, b12 = math.acos(min(1.0, d12 + r)), math.acos(max(-1.0, d12 - r))
        a02, b02 = math.acos(min(1.0, d02 + r)), math.acos(max(-1.0, d02 - r))
        for lo01, hi01 in ((a01, b01), (-b01, -a01)):
            for lo12, hi12 in ((a12, b12), (-b12, -a12)):
                low, high = 0.0 + lo01 + lo12 - b02, 0.0 + hi01 + hi12 - a02
                for turn in (-2.0 * math.pi, 0.0, 2.0 * math.pi):
                    if low <= turn <= high:
                        lam = (turn - low) / (high - low) if high > low else 0.0
                        return lo01 + lam * (hi01 - lo01), lo12 + lam * (hi12 - lo12)
        return None

    lo, hi, angles = 0.0, 2.0, None  # at r = 2 every angle is free
    for _ in range(64):  # down to adjacent doubles, or a width of 1e-19
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # adjacent doubles: no later step moves either end
            break
        closed = close(mid)
        lo, hi, angles = (mid, hi, angles) if closed is None else (lo, mid, closed)
    t01, t12 = angles or close(hi)
    return lo, np.array([0.0, t01, t01 + t12])


def single_round_phases(
    bare: BareDistribution, coupling: CouplingMatrix, *, tol: float = 1e-8, seed: int = 0
) -> tuple[PhaseAssignment, SolveReport]:
    """Minimax phases of the M one-round paths, cos(theta_a - theta_b) = d_ab.

    The one-round set goes through :func:`solve_phases`, whose component solve
    is exact at M = 2 and the exact minimax r* at M = 3 (:func:`_triangle_phases`),
    with no solver call and no ``seed``.  M >= 4 takes the largest three-label r*
    as ``lower_bound``, capped at ``max_residual``.  Infeasible couplings are
    reported as :func:`solve_phases` reports them.  Any N-round system's size-1
    groups are one-round pairs, so ``lower_bound`` bounds every N-round
    assignment too, additive over rounds or not.
    """
    assignment, report = solve_phases(build_constraints(bare, coupling, 1), tol=tol, seed=seed)
    if bare.m < 4 or not report.feasible:
        return assignment, report
    d = np.clip(coupling.d, -1.0, 1.0)
    floor = max(_triangle_phases(d[a, b], d[b, c], d[a, c])[0]
                for a, b, c in itertools.combinations(range(bare.m), 3))
    return assignment, replace(report, lower_bound=min(floor, report.max_residual))


def lift_phases(labels: PhaseAssignment, n: int) -> PhaseAssignment:
    """Additive N-round phases: each path's phase is the sum of its label phases."""
    if labels.n != 1:
        raise DimensionMismatch(f"label phases cover one round, not {labels.n}")
    # rows and their phases: 15.6, 15.6, 15.4 B a cell of M^N x (N + 1) at M=2 N=20, 18, M=3 N=12
    check_dense_budget(labels.m**n, n + 1, 16, "lifted phases")
    paths = all_paths(labels.m, n)
    return PhaseAssignment(labels.m, n, _wrap_phases(labels.phases[paths].sum(axis=1)))


def amplitude_sum(
    bare: BareDistribution, assignment: PhaseAssignment, n: int
) -> complex:
    """Coherent sum over classical paths: sum of radix * exp(i*phase)."""
    if (assignment.m, assignment.n) != (bare.m, n):
        raise DimensionMismatch(
            f"assignment covers {assignment.m}^{assignment.n} paths, not {bare.m}^{n}"
        )
    return complex(np.sum(path_radices(bare, n) * np.exp(1j * assignment.phases)))


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
    optimal.  ``bound`` = N max(|xi_1|, |a|^2)^(N-1) (2 sum_{a<b} sqrt(p_a
    p_b) |pair residual| + delta_1), plus the rounding of both N-th powers,
    caps the gap; delta_1 bounds the round-off of the one-round sums.
    ``bound_vacuous`` flags a bound of at least max(xi, amp_sq), the largest
    gap possible.
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
        a, b = np.triu_indices(bare.m, 1)  # one round: every pair is its own group
        rho = s[a] * s[b]
        spread = 2.0 * float(np.sum(rho * np.abs(solve_report.group_residuals)))
        # one-round round-off from the operation counts: xi_1's terms and sum, the
        # amplitude and its square, the residuals and their sum, and this bound
        u = np.finfo(float).eps / 2
        xi_terms = float(np.sum(bare.probs) + 2.0 * np.sum(rho * np.abs(coupling.d[a, b])))
        delta = (bare.m * (bare.m + 3) + 48) * u * (xi_terms + float(np.sum(s)) ** 2)
        # each final power rounds once, to the subnormal grid if it underflows
        rounding = 4.0 * u * (abs(xi) + amp_sq) + 4.0 * math.ulp(0.0)
        bound = n * max(abs(xi1), amp1) ** (n - 1) * (spread + delta) + rounding
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
