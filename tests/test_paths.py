"""Path expansion, exact census, and the path-sum / squared-amplitude identity."""

import decimal
import functools
import itertools
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, minimize

import qal.grid
import qal.markov
import qal.paths
from memory_guards import Charged, capped_address_space, charge_then_stop, traced_peak
from qal.core import BareDistribution, CouplingMatrix, QRuleParams, symmetric_coupling
from qal.errors import DimensionMismatch, SizeGuardExceeded
from qal.grid import StateGrid
from qal.markov import GameSpec, endpoint_constraints, make_map
from qal.paths import (
    PAIR_BYTES,
    PhaseAssignment,
    all_paths,
    amplitude_sum,
    build_constraints,
    census,
    constraints_for_pairs,
    expand_paths,
    identity_check,
    lift_phases,
    path_radices,
    single_round_phases,
    solve_phases,
    xi_sum,
)

ARCCOS_MINUS_02 = 1.7721542475852274  # arccos(-0.2), frozen from math.acos

# the four one-round paths' pairs and the evenly spread start's phases
PAIRS4 = np.triu_indices(4, k=1)
SPREAD4 = np.pi * np.arange(4) / 4

# pair targets: any in [-1, 1], or one of a few that recur, so that some repeat
TRIANGLE_TARGET = st.one_of(
    st.floats(-1.0, 1.0), st.sampled_from([-1.0, -0.5, 0.0, 0.04, 0.5, 1.0])
)


def bare(probs):
    probs = np.asarray(probs, dtype=float)
    return BareDistribution(np.arange(probs.size, dtype=float), probs)


def raw_expansion_sum(P, d, n):
    """Independent oracle: iterate all M^(2N) raw branch choices directly."""
    m = P.probs.size
    s = np.sqrt(P.probs)
    total = 0.0
    choices = []
    for j in range(m):
        per_round = [(j, P.probs[j])]  # classical branch
        for l in range(m):
            if l != j:
                per_round.append((j, s[j] * s[l] * d.d[j, l]))  # cross branch
        choices.append(per_round)
    for base in itertools.product(range(m), repeat=n):
        for combo in itertools.product(*[range(m) for _ in base]):
            value = 1.0
            for rnd, pick in enumerate(combo):
                value *= choices[base[rnd]][pick][1]
            total += value
    return total


def enumerated_expansion(P, d, n):
    """Oracle: one term per itertools.product of the per-round option tuples."""
    m = P.m
    s = np.sqrt(P.probs)
    opts = [(j, -1, float(P.probs[j])) for j in range(m)]
    for a in range(m):
        for b in range(a + 1, m):
            opts.append((a, b, float(s[a] * s[b] * d.d[a, b])))
    base, partner, value, multiplicity = [], [], [], []
    for combo in itertools.product(opts, repeat=n):
        v = 1.0
        for _, _, factor in combo:
            v *= factor
        base.append([a for a, _, _ in combo])
        partner.append([b for _, b, _ in combo])
        value.append(v)
        multiplicity.append(1 << sum(b >= 0 for _, b, _ in combo))
    return np.array(base), np.array(partner), np.array(value), np.array(multiplicity)


def add_at_jacobian(cs, phi):
    """Oracle: the group-residual Jacobian built with two np.add.at passes."""
    s = np.sin(phi[cs.pair_i] - phi[cs.pair_j]) / cs.group_sizes.astype(float)[
        cs.group_inverse
    ]
    j_full = np.zeros((cs.n_groups, phi.size))
    np.add.at(j_full, (cs.group_inverse, cs.pair_i), -s)
    np.add.at(j_full, (cs.group_inverse, cs.pair_j), s)
    return j_full


def meshgrid_paths(m, n):
    """Oracle: the M^N label rows, lexicographic, from an N-way meshgrid."""
    grids = np.meshgrid(*([np.arange(m)] * n), indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=1)


def two_pass_constraints(P, d, paths, pair_i, pair_j):
    """Oracle: gather each pair's label rows, take every pair's coupling product,
    then its radix group in a second pass.

    Rows of the per-round (min, max) label pattern, last round first, sort as
    base-M^2 codes do; each group takes its first pair's target.
    """
    a, b = paths[pair_i], paths[pair_j]
    targets = np.where(a == b, 1.0, d.d[a, b]).prod(axis=1)
    pattern = np.minimum(a, b) * P.m + np.maximum(a, b)
    _, first, inverse, sizes = np.unique(
        pattern[:, ::-1], axis=0, return_index=True, return_inverse=True, return_counts=True
    )
    return inverse.reshape(-1), sizes, targets[first], targets


def first_pair_constraints(P, d, n, pair_i, pair_j):
    """Oracle: the two-pass rule, each group's target its first pair's coupling product.

    Codes each pair's per-round (min, max) pattern in base M^2 as a wrapping int64,
    groups the codes by a stable sort, then reads the labels of each group's first
    pair again and takes ``d[a, b]`` in that pair's orientation.
    """
    def labels(index):
        return np.stack(np.unravel_index(index, (P.m,) * n), axis=1).reshape(-1, n)

    a, b = labels(pair_i), labels(pair_j)
    weights = (P.m * P.m) ** np.arange(n, dtype=np.int64)
    codes = ((np.minimum(a, b) * P.m + np.maximum(a, b)) * weights).sum(axis=1)
    _, first, inverse, sizes = np.unique(
        codes, return_index=True, return_inverse=True, return_counts=True
    )
    a, b = labels(pair_i[first]), labels(pair_j[first])
    return inverse, sizes, np.where(a == b, 1.0, d.d[a, b]).prod(axis=1)


def assert_first_pair_rule(P, d, n, cs):
    """``cs`` holds the first-pair oracle's groups and targets, bit for bit."""
    inverse, sizes, targets = first_pair_constraints(P, d, n, cs.pair_i, cs.pair_j)
    assert np.array_equal(cs.group_inverse, inverse)
    assert cs.group_sizes.dtype == sizes.dtype and np.array_equal(cs.group_sizes, sizes)
    assert np.array_equal(cs.group_targets.view(np.int64), targets.view(np.int64))


def group_residuals(cs, phi):
    c = np.cos(phi[cs.pair_i] - phi[cs.pair_j])
    sums = np.bincount(cs.group_inverse, weights=c, minlength=cs.n_groups)
    return sums / cs.group_sizes - cs.group_targets


def random_symmetric_instance(rng, m_max=3, n_max=4):
    m = int(rng.integers(2, m_max + 1))
    n = int(rng.integers(1, n_max + 1))
    probs = rng.dirichlet(np.full(m, 2.0))
    probs = np.maximum(probs, 5e-2)
    probs = probs / probs.sum()
    gamma = rng.uniform(0.0, 0.4, m)
    P = bare(probs)
    return P, gamma, symmetric_coupling(P, gamma), n


class TestCensus:
    def test_m2_n2(self):
        rep = census(2, 2)
        assert rep.raw_total == 16
        assert rep.raw_per_l == (4, 8, 4)
        assert rep.reduced_per_l == (4, 4, 1)
        assert rep.reduced_total == 9
        assert rep.independent_nonclassical == 5

    def test_m2_n1(self):
        rep = census(2, 1)
        assert rep.raw_total == 4
        assert rep.reduced_total == 3

    @pytest.mark.parametrize("m", range(2, 7))
    def test_single_round_reduced_total(self, m):
        assert census(m, 1).reduced_total == m * (m + 1) // 2

    @pytest.mark.parametrize("m", range(2, 7))
    @pytest.mark.parametrize("n", range(1, 9))
    def test_closed_forms_exact(self, m, n):
        rep = census(m, n)
        assert sum(rep.raw_per_l) == m ** (2 * n)
        assert sum(rep.reduced_per_l) == ((m * m + m) // 2) ** n
        assert rep.independent_nonclassical == rep.reduced_total - m**n
        for l, count in enumerate(rep.raw_per_l):
            assert count == math.comb(n, l) * m ** (n - l) * (m * m - m) ** l


class TestExpandPaths:
    def test_classical_limit(self):
        P = bare([0.5, 0.3, 0.2])
        d = CouplingMatrix(np.zeros((3, 3)))
        terms = expand_paths(P, d, 2)
        keep = terms.value != 0.0
        assert np.count_nonzero(keep) == 9
        assert np.all(terms.partner[keep] == -1)
        assert np.all(terms.multiplicity[keep] == 1)
        assert terms.value[keep] == pytest.approx(
            np.prod(P.probs[terms.base[keep]], axis=1), abs=1e-15
        )

    def test_hand_expansion_m2_n1(self):
        P = bare([0.5, 0.5])
        d = symmetric_coupling(P, [0.2, 0.2])
        terms = expand_paths(P, d, 1)
        assert terms.value.size == 3
        contributions = sorted(terms.multiplicity * terms.value)
        assert contributions == pytest.approx([-0.2, 0.5, 0.5], abs=1e-12)
        assert sum(contributions) == pytest.approx(0.8, abs=1e-12)

    def test_term_count_matches_census(self):
        P = bare([0.5, 0.3, 0.2])
        d = symmetric_coupling(P, [0.1, 0.2, 0.3])
        for n in (1, 2, 3):
            assert expand_paths(P, d, n).value.size == census(3, n).reduced_total

    @given(st.integers(2, 4), st.integers(1, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_bitwise_equal_to_enumeration(self, m, n, seed):
        rng = np.random.default_rng(seed)
        P = bare(rng.dirichlet(np.full(m, 2.0)))
        d = symmetric_coupling(P, rng.uniform(0.0, 0.5, m))
        terms = expand_paths(P, d, n)
        expected = enumerated_expansion(P, d, n)
        for got, want in zip(
            (terms.base, terms.partner, terms.value, terms.multiplicity), expected
        ):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_merged_equals_raw_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        P, _, d, n = random_symmetric_instance(rng, m_max=3, n_max=3)
        merged = xi_sum(P, d, n)
        raw = raw_expansion_sum(P, d, n)
        assert merged == pytest.approx(raw, abs=1e-12)

    def test_size_guard(self):
        # 55^4 merged terms at 108 B (0.99 GB) are admitted, 55^5 at 125 B are not
        P = bare(np.full(10, 0.1))
        d = CouplingMatrix(np.zeros((10, 10)))
        with pytest.raises(SizeGuardExceeded, match=str(125 * 55**5)):
            expand_paths(P, d, 5)


class TestXiSum:
    def test_zero_coupling_is_one(self):
        P = bare([0.25, 0.75])
        d = CouplingMatrix(np.zeros((2, 2)))
        for n in (1, 2, 5):
            assert xi_sum(P, d, n) == pytest.approx(1.0, abs=1e-12)

    def test_m2_n3(self):
        P = bare([0.5, 0.5])
        d = symmetric_coupling(P, [0.2, 0.2])
        assert xi_sum(P, d, 3) == pytest.approx(0.512, abs=1e-10)

    def test_m3_n2_defect_identity(self):
        P = bare([0.5, 0.3, 0.2])
        d = symmetric_coupling(P, [0.1, 0.1, 0.1])
        assert xi_sum(P, d, 2) == pytest.approx(0.81, abs=1e-10)

    def test_guard_counts_the_merged_terms(self):
        P = bare([0.5, 0.5])
        d = symmetric_coupling(P, [0.2, 0.2])
        assert xi_sum(P, d, 12) == pytest.approx(0.8**12, rel=1e-12)  # 3^12 terms

    def test_oversized_n_refused_before_allocating(self):
        P = bare([0.5, 0.5])
        d = symmetric_coupling(P, [0.2, 0.2])
        tracemalloc.start()
        try:
            # 16 B x 3^18 terms; 3^17 (2.07 GB) is the largest sum admitted
            with pytest.raises(SizeGuardExceeded, match=str(16 * 3**18)):
                xi_sum(P, d, 18)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_normalization_oracle(self, seed):
        rng = np.random.default_rng(seed)
        P, gamma, d, n = random_symmetric_instance(rng)
        expected = (1.0 - float(gamma @ P.probs)) ** n
        assert xi_sum(P, d, n) == pytest.approx(expected, abs=1e-10)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_matches_term_by_term_sum(self, seed):
        rng = np.random.default_rng(seed)
        P, _, d, n = random_symmetric_instance(rng, m_max=3, n_max=4)
        terms = expand_paths(P, d, n)
        # doubling is exact, so these are xi_sum's products in xi_sum's order
        running = np.cumsum(terms.multiplicity * terms.value)
        assert xi_sum(P, d, n) == running[-1]


class TestAllPaths:
    @pytest.mark.parametrize("m, n", [(2, 1), (2, 5), (3, 4), (4, 3), (7, 2), (10, 4)])
    def test_equals_the_meshgrid_oracle(self, m, n):
        got = all_paths(m, n)
        assert got.dtype == np.int64 and got.flags.c_contiguous
        assert np.array_equal(got, meshgrid_paths(m, n))

    def test_rows_span_chunks(self, monkeypatch):
        # 3 rows a chunk: 2^5 rows take 11 chunks, the last one partial
        monkeypatch.setattr(qal.paths, "CHUNK_VALUES", 16)
        assert np.array_equal(all_paths(2, 5), meshgrid_paths(2, 5))


class TestConstraints:
    def test_m2_n1_single_pair(self):
        P = bare([0.5, 0.5])
        d = symmetric_coupling(P, [0.2, 0.2])
        cs = build_constraints(P, d, 1)
        assert len(cs) == 1
        assert cs.targets[0] == pytest.approx(-0.2, abs=1e-12)
        rows = all_paths(2, 1)
        assert np.flatnonzero(rows[cs.pair_i[0]] != rows[cs.pair_j[0]]).tolist() == [0]

    def test_m2_n2_pair_count_and_targets(self):
        P = bare([0.5, 0.5])
        d = symmetric_coupling(P, [0.2, 0.2])
        cs = build_constraints(P, d, 2)
        assert len(cs) == 6
        rows = all_paths(2, 2)
        differ = (rows[cs.pair_i] != rows[cs.pair_j]).sum(axis=1)
        assert np.allclose(cs.targets, d.d[0, 1] ** differ, rtol=0.0, atol=1e-12)
        assert np.count_nonzero(differ == 2) == 2

    def test_twin_grouping(self):
        P = bare([0.5, 0.5])
        d = symmetric_coupling(P, [0.2, 0.2])
        cs = build_constraints(P, d, 2)
        # four single-diff groups of size 1 plus one double-diff twin group of 2
        assert cs.n_groups == 5
        assert sorted(cs.group_sizes.tolist()) == [1, 1, 1, 1, 2]

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_targets_bounded_when_couplings_are(self, seed):
        rng = np.random.default_rng(seed)
        P, _, d, n = random_symmetric_instance(rng)
        if np.max(np.abs(d.d)) > 1.0:
            return
        cs = build_constraints(P, d, n)
        assert np.all(np.abs(cs.targets) <= 1.0 + 1e-12)
        assert cs.infeasible_pairs().size == 0

    @given(st.integers(0, 2**32 - 1), st.sampled_from(["full", "endpoint", "subset"]))
    @settings(max_examples=60, deadline=None)
    def test_one_pass_matches_two_pass_oracle(self, seed, kind):
        rng = np.random.default_rng(seed)
        if kind == "endpoint":
            spec, grid, n = random_walk_game(rng)
            cs = endpoint_constraints(spec, grid, 0.0, n, boundary="wrap")
            P, d = spec.noise, symmetric_coupling(spec.noise, spec.rules.loss_rates)
        elif kind == "full":
            P, _, d, n = random_symmetric_instance(rng, m_max=4, n_max=3)
            cs = build_constraints(P, d, n)
        else:
            # up to 300 arbitrary pairs of the 5^6 paths at most, in any order
            P, _, d, n = random_symmetric_instance(rng, m_max=5, n_max=6)
            pairs = rng.integers(0, P.m**n, size=(2, int(rng.integers(0, 301))))
            cs = constraints_for_pairs(P, d, n, *pairs)
        inverse, sizes, group_targets, targets = two_pass_constraints(
            P, d, meshgrid_paths(P.m, n), cs.pair_i, cs.pair_j
        )
        # 1 to 7 pairs a chunk, the last one partial whenever the count allows
        small = n * int(rng.integers(1, 8)) + int(rng.integers(0, n))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(qal.paths, "CHUNK_VALUES", small)
            chunked = constraints_for_pairs(P, d, n, cs.pair_i, cs.pair_j)
        assert (cs.m, cs.n) == (chunked.m, chunked.n) == (P.m, n)
        for got in (cs, chunked):
            assert np.array_equal(got.group_inverse, inverse)
            assert np.array_equal(got.group_sizes, sizes)
            assert np.array_equal(got.group_targets.view(np.int64), group_targets.view(np.int64))
            assert np.array_equal(got.targets.view(np.int64), targets.view(np.int64))
            assert np.array_equal(
                got.infeasible_pairs(), np.flatnonzero(np.abs(targets) > 1.0 + 1e-12)
            )

    @pytest.mark.parametrize("index", [-1, 8])
    def test_refuses_a_path_index_out_of_range(self, index):
        P = bare([0.5, 0.5])
        d = symmetric_coupling(P, [0.2, 0.2])
        with pytest.raises(ValueError, match="out of bounds"):
            constraints_for_pairs(P, d, 3, [0, 1], [2, index])

    @pytest.mark.parametrize("n", [32, 33])
    def test_radix_codes_refuse_patterns_past_2_to_the_64(self, n):
        # (0, 3) differs in the last two rounds and (0, 2) in the last one: two
        # groups while the M^(2N) patterns fit 2^64 codes; past that they would
        # share a wrapped code, so N=33 is refused before anything is built
        P = bare([0.5, 0.5])
        d = symmetric_coupling(P, [0.2, 0.2])
        if n == 32:
            cs = constraints_for_pairs(P, d, n, [0, 0], [3, 2])
            assert cs.n_groups == 2
            assert cs.targets == pytest.approx([0.04, -0.2], abs=1e-12)
            return
        with pytest.raises(ValueError, match="M=2, N=33"):
            constraints_for_pairs(P, d, n, [0, 0], [3, 2])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_targets_read_off_the_code_match_the_first_pair_rule(self, seed):
        # 1 to 200 pairs of the 5^6 paths at most, then some of them flipped,
        # some repeated and some paths paired with themselves, in any order
        rng = np.random.default_rng(seed)
        P, _, d, n = random_symmetric_instance(rng, m_max=5, n_max=6)
        pairs = rng.integers(0, P.m**n, size=(2, int(rng.integers(1, 201))))
        picks = [rng.integers(0, pairs.shape[1], int(rng.integers(0, 21))) for _ in range(3)]
        pairs = np.concatenate(
            (pairs, pairs[::-1, picks[0]], pairs[:, picks[1]], pairs[[0, 0]][:, picks[2]]), axis=1
        )[:, rng.permutation(pairs.shape[1] + sum(p.size for p in picks))]
        assert_first_pair_rule(P, d, n, constraints_for_pairs(P, d, n, *pairs))
        # 1 to 7 pairs a chunk, the last one partial whenever the count allows
        small = n * int(rng.integers(1, 8)) + int(rng.integers(0, n))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(qal.paths, "CHUNK_VALUES", small)
            assert_first_pair_rule(P, d, n, constraints_for_pairs(P, d, n, *pairs))

    @pytest.mark.parametrize("m, n", [(2, 32), (3, 20)])
    def test_codes_past_2_to_the_63_decode(self, m, n):
        # the last round is the code's top digit, M^2 - 1 where both paths end on
        # label M - 1: such a pair codes past 2^63, a wrapped negative int64 that
        # decodes as uint64 (9^20 codes are not a power of two: a signed decode fails)
        P = bare(np.full(m, 1.0 / m))
        d = symmetric_coupling(P, np.linspace(0.1, 0.3, m))
        rng = np.random.default_rng(7)
        pair_i, pair_j = rng.integers(0, m**n, size=(2, 2000))
        pair_i[:3], pair_j[:3] = [m**n - 1, 1, m - 1], [m**n - 1, m - 1, m**n - 2]
        assert np.count_nonzero((pair_i % m == m - 1) & (pair_j % m == m - 1)) > 2000 // m**2 // 2
        assert_first_pair_rule(P, d, n, constraints_for_pairs(P, d, n, pair_i, pair_j))

    def test_the_2_to_the_16_endpoint_set_matches_the_first_pair_rule(self):
        walk = GameSpec.random_walk(QRuleParams.pure_loss([0.2, 0.2]))
        triple = GameSpec(make_map("linear", slope=3.0), walk.gain, walk.noise, walk.rules)
        grid = StateGrid.from_range(-10**5, 10**5, 2 * 10**5 + 1)
        cs = endpoint_constraints(triple, grid, 0.0, 16, boundary="wrap")
        assert (len(cs), cs.n_groups) == (14540, 14540)
        assert_first_pair_rule(walk.noise, symmetric_coupling(walk.noise, [0.2, 0.2]), 16, cs)
        # the README's census of its components: lone pairs, triangles of three
        # groups, and solver components of at most 6 paths
        label, groups = qal.paths._components(cs)
        roots = np.unique(label[cs.pair_i])
        pairs = np.bincount(label[cs.pair_i], minlength=cs.n_paths)[roots]
        paths, groups = np.bincount(label, minlength=cs.n_paths)[roots], groups[roots]
        lone, triangle = pairs == 1, (pairs == 3) & (paths == 3) & (groups == 3)
        solver = ~lone & ~triangle
        counts = np.count_nonzero(lone), np.count_nonzero(triangle), np.count_nonzero(solver)
        assert counts == (9676, 1316, 136)
        assert paths[solver].max() <= 6

    def test_a_group_a_pair_stays_within_the_pair_charge(self):
        # a million random pairs of 20-round paths are nearly a million groups, where
        # per-group arrays cost the most; the charge covers the pair indices too, and
        # the fixed allowance covers a chunk's digit temporaries of both paths
        P = bare([0.5, 0.5])
        d = symmetric_coupling(P, [0.2, 0.2])
        pair_i, pair_j = np.random.default_rng(0).integers(0, 2**20, size=(2, 10**6))
        sets = []
        peak = traced_peak(lambda: sets.append(constraints_for_pairs(P, d, 20, pair_i, pair_j)))
        assert sets[0].n_groups > 0.99 * pair_i.size
        allowance = 16 * qal.grid.CHUNK_VALUES
        assert peak + pair_i.nbytes + pair_j.nbytes <= PAIR_BYTES * pair_i.size + allowance

    @pytest.mark.parametrize("n", [0, -1])
    @pytest.mark.parametrize(
        "build",
        [
            lambda n: all_paths(2, n),
            lambda n: lift_phases(PhaseAssignment(2, 1, np.zeros(2)), n),
            lambda n: build_constraints(*zero_coupling(2), n),
            lambda n: constraints_for_pairs(*zero_coupling(2), n, [0], [0]),
            lambda n: endpoint_constraints(
                GameSpec.random_walk(QRuleParams.pure_loss([0.2, 0.2])),
                StateGrid.from_range(-3.0, 3.0, 7), 0.0, n, boundary="wrap",
            ),
        ],
        ids=["all_paths", "lift_phases", "build_constraints", "constraints_for_pairs",
             "endpoint_constraints"],
    )
    def test_refuses_fewer_than_one_round(self, build, n):
        with pytest.raises(ValueError, match="need at least one round"):
            build(n)

    def test_size_guard(self):
        # 9^4 paths make 21.5 M pairs (1.72 GB), admitted; 9^5 make 1.7 G pairs
        P = bare(np.full(9, 1.0 / 9.0))
        d = CouplingMatrix(np.zeros((9, 9)))
        with pytest.raises(SizeGuardExceeded, match=str(PAIR_BYTES * (9**5 * (9**5 - 1) // 2))):
            build_constraints(P, d, 5)


def zero_coupling(m):
    return bare(np.full(m, 1.0 / m)), CouplingMatrix(np.zeros((m, m)))


def merged_terms(m, n):
    return (m * (m + 1) // 2) ** n


# each exhaustive builder at (M, N), and the bytes it charges there
BYTE_GUARDED = {
    "expand_paths": (
        lambda m, n: expand_paths(*zero_coupling(m), n),
        lambda m, n: (17 * n + 40) * merged_terms(m, n),
    ),
    "xi_sum": (lambda m, n: xi_sum(*zero_coupling(m), n), lambda m, n: 16 * merged_terms(m, n)),
    "all_paths": (all_paths, lambda m, n: 9 * m**n * (n + 1)),
    "lift_phases": (
        lambda m, n: lift_phases(PhaseAssignment(m, 1, np.zeros(m)), n),
        lambda m, n: 16 * m**n * (n + 1),
    ),
    "build_constraints": (
        lambda m, n: build_constraints(*zero_coupling(m), n),
        lambda m, n: PAIR_BYTES * (m**n * (m**n - 1) // 2),
    ),
}


class TestByteGuards:
    @pytest.mark.parametrize(
        "name, m, n",
        [
            # the largest M=2 input of each builder, then inputs the count
            # guards admitted: each must stay admitted
            ("expand_paths", 2, 14), ("xi_sum", 2, 17), ("all_paths", 2, 23),
            ("lift_phases", 2, 22), ("build_constraints", 2, 12), ("build_constraints", 3, 8),
            ("expand_paths", 2, 11), ("expand_paths", 3162, 1), ("expand_paths", 10, 4),
            ("xi_sum", 2, 14), ("all_paths", 2, 12), ("all_paths", 2, 21),
            ("build_constraints", 9, 4),
        ],
    )
    def test_admitted(self, monkeypatch, name, m, n):
        build, charge = BYTE_GUARDED[name]
        assert charge(m, n) <= qal.grid.KERNEL_BYTE_BUDGET
        monkeypatch.setattr(qal.paths, "check_dense_budget", charge_then_stop)
        with pytest.raises(Charged):
            build(m, n)

    @pytest.mark.parametrize(
        "name, m, n",
        [
            ("expand_paths", 2, 15), ("xi_sum", 2, 18), ("all_paths", 2, 24),
            ("lift_phases", 2, 23), ("build_constraints", 2, 13), ("build_constraints", 3, 9),
        ],
    )
    def test_refused_naming_the_bytes_before_allocating(self, name, m, n):
        # build_constraints is charged for its pairs before any path or pair exists
        build, charge = BYTE_GUARDED[name]

        def refuse():
            with capped_address_space(), pytest.raises(SizeGuardExceeded, match=str(charge(m, n))):
                build(m, n)

        assert traced_peak(refuse) < 1 << 20

    @pytest.mark.parametrize(
        "name, m, n",
        [
            ("expand_paths", 2, 5), ("xi_sum", 2, 6), ("all_paths", 2, 5),
            ("lift_phases", 2, 5), ("build_constraints", 2, 4), ("build_constraints", 3, 3),
        ],
    )
    def test_edge_at_a_lowered_budget(self, monkeypatch, name, m, n):
        # with the budget at the charge of (M, N), N is built and N + 1 refused
        build, charge = BYTE_GUARDED[name]
        monkeypatch.setattr(qal.grid, "KERNEL_BYTE_BUDGET", charge(m, n))
        build(m, n)
        with pytest.raises(SizeGuardExceeded, match=str(charge(m, n + 1))):
            build(m, n + 1)


class TestSolvePhases:
    def test_scalar_arccos(self):
        P = bare([0.5, 0.5])
        d = symmetric_coupling(P, [0.2, 0.2])
        cs = build_constraints(P, d, 1)
        assignment, report = solve_phases(cs, seed=1)
        assert report.feasible and report.converged
        assert report.max_residual <= 1e-12
        delta = abs(assignment.phases[1] - assignment.phases[0])
        assert delta == pytest.approx(ARCCOS_MINUS_02, abs=1e-9)

    def test_zero_target_two_paths(self):
        P = bare([0.5, 0.5])
        d = CouplingMatrix(np.zeros((2, 2)))
        cs = build_constraints(P, d, 1)
        assignment, report = solve_phases(cs, seed=2)
        assert report.max_residual <= 1e-12
        assert abs(assignment.phases[1]) == pytest.approx(np.pi / 2, abs=1e-9)

    def test_small_coupling_m2_n2(self):
        P = bare([0.5, 0.5])
        d = CouplingMatrix(np.full((2, 2), -0.05) + 0.05 * np.eye(2))
        cs = build_constraints(P, d, 2)
        _, report = solve_phases(cs, seed=3)
        assert report.max_residual <= 1e-6

    def test_gauge_fixed(self):
        P = bare([0.5, 0.5])
        d = symmetric_coupling(P, [0.3, 0.3])
        cs = build_constraints(P, d, 2)
        assignment, _ = solve_phases(cs, seed=4)
        assert assignment.phases[0] == 0.0
        assert np.all(assignment.phases > -np.pi)
        assert np.all(assignment.phases <= np.pi)

    def test_infeasible_reported_without_solving(self):
        P = bare([0.99, 0.01])
        d = symmetric_coupling(P, [1.0, 1.0])
        cs = build_constraints(P, d, 1)
        _, report = solve_phases(cs, seed=5)
        assert not report.feasible
        assert report.infeasible_indices.size == 1

    def test_deterministic_given_seed(self):
        P = bare([0.4, 0.35, 0.25])
        d = symmetric_coupling(P, [0.2, 0.1, 0.05])
        cs = build_constraints(P, d, 2)
        a1, r1 = solve_phases(cs, seed=123, restarts=4)
        a2, r2 = solve_phases(cs, seed=123, restarts=4)
        assert np.array_equal(a1.phases, a2.phases)
        assert r1.max_residual == r2.max_residual

    @pytest.mark.parametrize("n", [10, 11])
    def test_refused_over_budget_before_allocating(self, n):
        # N=9, at 19 171 groups x 512 paths x 128 B = 1.26 GB, is the largest
        # full M=2 system admitted; N=11's Jacobian alone would be 2.9 GB
        P = bare([0.5, 0.5])
        cs = build_constraints(P, symmetric_coupling(P, [0.2, 0.2]), n)
        need = 128 * cs.n_groups * cs.n_paths

        def solve():
            with capped_address_space(), pytest.raises(SizeGuardExceeded, match=str(need)):
                solve_phases(cs, restarts=0)

        assert traced_peak(solve) < 1 << 20

    def test_phase_lookup(self):
        P = bare([0.5, 0.5])
        d = symmetric_coupling(P, [0.2, 0.2])
        cs = build_constraints(P, d, 2)
        assignment, _ = solve_phases(cs, seed=6)
        rows = [tuple(row) for row in all_paths(2, 2).tolist()]
        assert assignment.phases[rows.index((0, 0))] == 0.0
        assert assignment.phases[rows.index((0, 1))] == assignment.phases[1]


class TestGroupJacobian:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_bitwise_equal_to_add_at(self, seed):
        rng = np.random.default_rng(seed)
        P, _, d, n = random_symmetric_instance(rng, m_max=3, n_max=3)
        full = build_constraints(P, d, n)
        # an endpoint-style subset: arbitrary pairs, some groups left out
        keep = rng.random(len(full)) < 0.5
        subset = constraints_for_pairs(P, d, n, full.pair_i[keep], full.pair_j[keep])
        phi = rng.uniform(-np.pi, np.pi, full.n_paths)
        for cs in (full, subset):
            got = qal.paths._group_jacobian(cs, phi)
            want = add_at_jacobian(cs, phi)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_matches_central_differences(self):
        rng = np.random.default_rng(17)
        P = bare([0.2, 0.3, 0.5])
        cs = build_constraints(P, symmetric_coupling(P, [0.1, 0.2, 0.1]), 2)
        phi = rng.uniform(-np.pi, np.pi, cs.n_paths)
        h = 1e-6
        numeric = np.empty((cs.n_groups, cs.n_paths))
        for col in range(cs.n_paths):
            step = np.zeros(cs.n_paths)
            step[col] = h
            plus = group_residuals(cs, phi + step)
            minus = group_residuals(cs, phi - step)
            numeric[:, col] = (plus - minus) / (2 * h)
        jac = qal.paths._group_jacobian(cs, phi)
        assert np.allclose(jac, numeric, rtol=0.0, atol=1e-8)


class TestStartScoring:
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6))
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_closed_form_start_skips_the_solver(self, monkeypatch, seed, n):
        def forbidden(*args, **kwargs):
            raise AssertionError("the minimax solver ran on the identity path")

        def one_round_only(bare, coupling, rounds):
            assert rounds == 1, "the identity path enumerated N-round paths"
            return build_constraints(bare, coupling, rounds)

        monkeypatch.setattr(qal.paths, "minimize", forbidden)
        monkeypatch.setattr(qal.paths, "build_constraints", one_round_only)
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 4))
        probs = np.maximum(rng.dirichlet(np.full(m, 2.0)), 0.05)
        P = bare(probs / probs.sum())
        gamma = rng.uniform(0.0, 1.0, m)
        rep = identity_check(P, gamma, n, seed=n)
        assert rep.feasible == (np.max(np.abs(symmetric_coupling(P, gamma).d)) <= 1.0 + 1e-12)
        if rep.feasible:
            assert rep.solve_report.starts_tried == 1
            assert rep.solve_report.best_start == 0
            assert rep.gap <= rep.bound
            assert rep.converged or m == 3

    @pytest.mark.parametrize(
        "targets, calls, starts_tried, best_start",
        [
            # no start meets tol (four phases cannot be pairwise arccos(-0.3) apart):
            # all-equal, evenly spread and two restarts each solve
            ([-0.3] * 6, 4, 4, None),
            # target 1: the all-equal start is exact and ends the search
            ([1.0] * 6, 0, 1, 0),
            # the evenly spread start's own cosines: all-equal misses and solves once
            # (every sine is 0 there, so it stays put); evenly spread is exact
            (np.cos(SPREAD4[PAIRS4[0]] - SPREAD4[PAIRS4[1]]), 1, 2, 1),
        ],
    )
    def test_solver_runs_once_per_start_that_misses_tol(
        self, monkeypatch, targets, calls, starts_tried, best_start
    ):
        methods = []

        def counting(*args, **kwargs):
            methods.append(kwargs["method"])
            return minimize(*args, **kwargs)

        monkeypatch.setattr(qal.paths, "minimize", counting)
        # four one-round paths, every pair its own group: one component that no
        # closed form covers (a lone pair and a triangle never reach SLSQP)
        ones = np.ones(6, dtype=np.int64)
        cs = qal.paths.ConstraintSet(4, 1, *PAIRS4, np.arange(6), ones, np.array(targets))
        _, report = solve_phases(cs, seed=3, restarts=2)
        assert report.converged == (best_start is not None)
        assert report.starts_tried == starts_tried
        assert best_start is None or report.best_start == best_start
        assert methods == ["SLSQP"] * calls


class TestComponents:
    def test_a_group_across_two_path_sets_is_one_component(self, monkeypatch):
        # group 0 holds the pairs (0, 1) and (4, 5); the other groups close a
        # triangle on each of the otherwise disjoint sets {0, 1, 2} and {4, 5, 6}
        pair_i, pair_j = np.array([0, 1, 0, 4, 5, 4]), np.array([1, 2, 2, 5, 6, 6])
        cs = qal.paths.ConstraintSet(
            2, 3, pair_i, pair_j, np.array([0, 1, 2, 0, 3, 4]),
            np.array([2, 1, 1, 1, 1]), np.array([0.3, -0.2, 0.1, 0.5, -0.4]),
        )
        label, groups = qal.paths._components(cs)
        assert label.tolist() == [0, 0, 0, 3, 0, 0, 0, 7]
        assert groups[0] == 5
        free = []

        def counting(*args, **kwargs):
            free.append(args[1].size - 1)  # the start's phases, then t
            return minimize(*args, **kwargs)

        monkeypatch.setattr(qal.paths, "minimize", counting)
        assignment, report = solve_phases(cs, restarts=1)
        assert free and set(free) == {5}  # six paths, the first held at 0
        assert report.lower_bound == 0.0  # neither triangle was solved alone
        got = qal.paths._group_residuals(cs, assignment.phases)
        assert np.array_equal(report.group_residuals, got)
        assert assignment.phases[3] == assignment.phases[7] == 0.0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_connected_components_of_the_path_group_graph(self, seed):
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import connected_components

        # up to 80 pairs inside two to four disjoint sets of the 2^N <= 64 paths, some
        # paths in no pair; groups drawn across all pairs, so some straddle two sets
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        k = 2**n
        sets = np.array_split(rng.permutation(k)[: int(rng.integers(1, k + 1))], rng.integers(2, 5))
        sets = [paths for paths in sets if paths.size]
        size = int(rng.integers(0, 81))
        which = rng.integers(0, len(sets), size)
        pair_i = np.array([rng.choice(sets[w]) for w in which], dtype=np.int64)
        pair_j = np.array([rng.choice(sets[w]) for w in which], dtype=np.int64)
        n_groups = int(rng.integers(1, size + 1)) if size else 0
        ginv = rng.permutation(np.concatenate(
            (np.arange(n_groups), rng.integers(0, max(n_groups, 1), size - n_groups))
        ))
        sizes = np.bincount(ginv, minlength=n_groups)
        cs = qal.paths.ConstraintSet(2, n, pair_i, pair_j, ginv, sizes, np.zeros(n_groups))

        # nodes: the k paths, then the groups; each pair joins both its paths to its group
        heads = np.concatenate((pair_i, pair_j))
        tails = k + np.concatenate((ginv, ginv))
        graph = coo_matrix((np.ones(heads.size), (heads, tails)), shape=(k + n_groups,) * 2)
        _, component = connected_components(graph, directed=False)
        smallest = np.full(component.max() + 1, k)
        np.minimum.at(smallest, component[:k], np.arange(k))
        expected_groups = np.bincount(smallest[component[k:]], minlength=k)

        # 1 to 7 pairs and groups a chunk, the last one partial whenever the count allows
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(qal.paths, "CHUNK_VALUES", 16 * int(rng.integers(1, 8)))
            label, groups = qal.paths._components(cs)
        assert label.dtype == groups.dtype == np.int64
        assert np.array_equal(label, smallest[component[:k]])
        assert np.array_equal(groups, expected_groups)

    @given(
        st.tuples(TRIANGLE_TARGET, TRIANGLE_TARGET, TRIANGLE_TARGET),
        st.sampled_from([2, 3]),
        st.integers(0, 2**32 - 1),
    )
    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_closed_forms_match_the_solver_from_the_same_starts(
        self, monkeypatch, targets, size, seed
    ):
        # a lone pair or a triangle of size-1 groups, alone and at random paths of 16,
        # its pairs in random order and orientation
        local_i, local_j = np.triu_indices(size, 1)
        n = local_i.size
        targets, ones = np.array(targets[:n]), np.ones(n, dtype=np.int64)
        alone = qal.paths.ConstraintSet(size, 1, local_i, local_j, np.arange(n), ones, targets)
        theta, _, _ = qal.paths._minimax(alone, size, 1e-8, 2, seed % 1000)
        solver = float(np.max(np.abs(group_residuals(alone, theta))))

        rng = np.random.default_rng(seed)
        paths = np.sort(rng.choice(16, size, replace=False))
        order, flip = rng.permutation(n), rng.random(n) < 0.5
        pair_i = np.where(flip, paths[local_j], paths[local_i])[order]
        pair_j = np.where(flip, paths[local_i], paths[local_j])[order]
        cs = qal.paths.ConstraintSet(2, 4, pair_i, pair_j, np.arange(n), ones, targets[order])

        def forbidden(*args, **kwargs):
            raise AssertionError("a closed-form component ran SLSQP")

        with monkeypatch.context() as patch:
            patch.setattr(qal.paths, "minimize", forbidden)
            assignment, report = solve_phases(cs, restarts=2, seed=seed % 1000)
        assert report.max_residual <= solver + 1e-12
        assert report.lower_bound <= report.max_residual
        assert not assignment.phases[np.setdiff1d(np.arange(16), paths)].any()


def bisection_triangle_oracle(d01, d12, d02):
    """The three-label minimax as first written: 64 bisection steps, each sign choice a product."""

    def close(r):
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

    lo, hi = 0.0, 2.0
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if close(mid) is not None else (mid, hi)
    return lo, close(hi)


class TestTrianglePhases:
    @given(st.tuples(TRIANGLE_TARGET, TRIANGLE_TARGET, TRIANGLE_TARGET))
    @example((0.04, 0.04, 0.04))
    @example((-1.0, -1.0, -1.0))
    @example((1.0, 1.0, 1.0))
    @example((-0.5, -0.5, -0.5))
    @settings(max_examples=2000, deadline=None)
    def test_bitwise_equal_to_the_bisection_oracle(self, d):
        lo, phases = qal.paths._triangle_phases(*d)
        want_lo, want = bisection_triangle_oracle(*d)
        assert lo.hex() == want_lo.hex()
        assert phases.tobytes() == want.tobytes()


def exact_three_label_gamma(P):
    """Uniform loss rate at which the three single-round angles sum to 2*pi."""

    def excess(gamma):
        d = symmetric_coupling(P, [gamma] * 3).d
        return np.arccos(d[0, 1]) + np.arccos(d[1, 2]) + np.arccos(d[0, 2]) - 2 * np.pi

    return brentq(excess, 0.5, 1.0, xtol=1e-16)


def closed_form_single_round(P, d):
    """Oracle: the one-round solve without the component solve, arccos at M=2, triangle at M=3."""
    constraints = build_constraints(P, d, 1)
    c = np.clip(d.d, -1.0, 1.0)
    if P.m == 3:
        floor, theta = qal.paths._triangle_phases(c[0, 1], c[1, 2], c[0, 2])
    else:
        floor, theta = 0.0, np.array([0.0, math.acos(c[0, 1])])
    return qal.paths._solved(constraints, theta, 1e-8, starts_tried=1, best_start=0,
                             lower_bound=floor)


# a coupling: any in [-1, 0], one of a few that recur, or a round-off past -1
COUPLING = st.one_of(
    st.floats(-1.0, 0.0), st.sampled_from([-1.0 - 5e-13, -1.0, -0.5, -0.04, 0.0])
)


def coupling_matrix(m, values):
    d = np.zeros((m, m))
    d[np.triu_indices(m, 1)] = values
    return CouplingMatrix(d + d.T)


class TestSingleRound:
    @given(st.lists(COUPLING, min_size=3, max_size=3))
    @settings(max_examples=500, deadline=None)
    def test_three_labels_equal_the_closed_form_bit_for_bit(self, values):
        P, d = bare([0.2, 0.3, 0.5]), coupling_matrix(3, values)
        phases, report = single_round_phases(P, d)
        oracle, expected = closed_form_single_round(P, d)
        assert phases.phases.tobytes() == oracle.phases.tobytes()
        for name in ("feasible", "converged", "max_residual", "starts_tried", "best_start",
                     "lower_bound"):
            assert getattr(report, name) == getattr(expected, name)
        assert report.group_residuals.tobytes() == expected.group_residuals.tobytes()

    @given(COUPLING)
    @settings(max_examples=500, deadline=None)
    def test_two_labels_within_an_ulp_of_the_closed_form(self, value):
        # np.arccos and math.acos may round the last bit apart
        P, d = bare([0.3, 0.7]), coupling_matrix(2, [value])
        phases, report = single_round_phases(P, d)
        oracle, _ = closed_form_single_round(P, d)
        assert np.all(np.abs(phases.phases - oracle.phases) <= np.spacing(oracle.phases))
        assert (report.starts_tried, report.best_start, report.lower_bound) == (1, 0, 0.0)

    @given(st.integers(4, 5), st.lists(COUPLING, min_size=10, max_size=10), st.integers(0, 999))
    @settings(max_examples=40, deadline=None)
    def test_four_and_five_labels_cap_the_floor_at_the_residual(self, m, values, seed):
        d = coupling_matrix(m, values[: m * (m - 1) // 2])
        _, report = single_round_phases(bare(np.full(m, 1.0 / m)), d, seed=seed)
        assert report.feasible
        assert report.lower_bound <= report.max_residual

    def test_exactly_feasible_three_labels(self):
        P = bare([0.2, 0.3, 0.5])
        gamma = exact_three_label_gamma(P)
        assert gamma == pytest.approx(0.9490929658561366, abs=1e-12)
        for n in (1, 2, 3, 4, 100):
            rep = identity_check(P, [gamma] * 3, n)
            assert rep.feasible and rep.converged
            assert rep.gap <= 1e-10

    @pytest.mark.parametrize("m", [2, 3])
    def test_targets_a_round_off_past_minus_one_are_clipped(self, m):
        d = np.zeros((m, m))
        d[0, 1] = d[1, 0] = -1.0 - 5e-13  # within the feasibility tolerance
        _, report = single_round_phases(bare(np.full(m, 1.0 / m)), CouplingMatrix(d))
        assert report.feasible and report.converged
        assert report.lower_bound <= report.max_residual <= 1e-12

    def test_three_label_minimax_is_seed_independent(self):
        P = bare([0.2, 0.3, 0.5])
        first = identity_check(P, [0.1, 0.2, 0.1], 3, seed=0)
        assert first.max_residual == pytest.approx(0.4306297966927, abs=1e-12)
        assert first.solve_report.lower_bound <= first.max_residual
        assert first.max_residual - first.solve_report.lower_bound <= 1e-15
        for seed in range(1, 16):
            rep = identity_check(P, [0.1, 0.2, 0.1], 3, seed=seed)
            for name in ("xi", "amp_sq", "gap", "bound", "max_residual"):
                assert getattr(rep, name) == getattr(first, name)
            assert rep.solve_report.lower_bound == first.solve_report.lower_bound
            assert np.array_equal(rep.assignment.phases, first.assignment.phases)

    def test_three_labels_at_five_rounds_is_fast(self):
        P = bare([0.2, 0.3, 0.5])
        identity_check(P, [0.1, 0.2, 0.1], 5)
        start = time.perf_counter()
        rep = identity_check(P, [0.1, 0.2, 0.1], 5)
        assert time.perf_counter() - start < 0.1
        assert rep.gap <= rep.bound

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_lift_against_exhaustive_oracle(self, seed):
        rng = np.random.default_rng(seed)
        P, gamma, d, n = random_symmetric_instance(rng, m_max=3, n_max=3)
        rep = identity_check(P, gamma, n)
        assert rep.feasible
        lifted = lift_phases(rep.assignment, n)
        assert rep.xi == pytest.approx(xi_sum(P, d, n), abs=1e-12)
        assert rep.amp_sq == pytest.approx(abs(amplitude_sum(P, lifted, n)) ** 2, abs=1e-12)
        assert rep.gap <= rep.bound
        cs = build_constraints(P, d, n)
        worst = float(np.max(np.abs(group_residuals(cs, lifted.phases))))
        floor = rep.solve_report.lower_bound
        assert floor - 1e-12 <= worst <= n * rep.max_residual + 1e-12
        _, oracle = solve_phases(cs, restarts=1, seed=seed % 1000)
        assert oracle.max_residual >= floor - 1e-12

    def test_lift_refuses_phases_over_several_rounds(self):
        # 4 phases over 2 rounds are not the phases of 4 labels
        with pytest.raises(DimensionMismatch, match="one round, not 2"):
            lift_phases(PhaseAssignment(2, 2, np.zeros(4)), 3)

    def test_four_labels_take_the_largest_triangle_bound(self):
        P = bare([0.1, 0.2, 0.3, 0.4])
        d = symmetric_coupling(P, [0.1, 0.2, 0.1, 0.3])
        floors = []
        for labels in itertools.combinations(range(4), 3):
            sub = bare(P.probs[list(labels)] / P.probs[list(labels)].sum())
            sub_d = CouplingMatrix(d.d[np.ix_(labels, labels)])
            floors.append(single_round_phases(sub, sub_d)[1].lower_bound)
        for seed in range(10):
            _, report = single_round_phases(P, d, seed=seed)
            assert report.lower_bound == max(floors) > 0.0
            # the minimax optimum is near 0.65 (best found 0.652)
            assert report.lower_bound <= report.max_residual <= 0.70

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_lower_bound_never_exceeds_residual(self, seed):
        rng = np.random.default_rng(seed)
        P, _, d, n = random_symmetric_instance(rng, m_max=4, n_max=2)
        full = build_constraints(P, d, n)
        keep = rng.random(len(full)) < 0.5
        subset = constraints_for_pairs(P, d, n, full.pair_i[keep], full.pair_j[keep])
        reports = [
            single_round_phases(P, d, seed=seed % 1000)[1],
            solve_phases(full, restarts=1, seed=seed % 1000)[1],
            solve_phases(subset, restarts=1, seed=seed % 1000)[1],
        ]
        for report in reports:
            assert report.lower_bound <= report.max_residual

    def test_endpoint_system_lower_bound(self):
        spec = GameSpec.random_walk(QRuleParams.pure_loss([0.2, 0.2]))
        grid = StateGrid.from_range(-6.0, 6.0, 13)
        for steps in (2, 3):
            cs = endpoint_constraints(spec, grid, 0.0, steps, boundary="wrap")
            _, report = solve_phases(cs, restarts=1, seed=steps)
            assert report.lower_bound <= report.max_residual
        # three paths two rounds apart pairwise share a target d^2 = 0.04 and
        # form a size-1-group triangle; its r* floors every N >= 3 system
        floor = qal.paths._triangle_phases(0.04, 0.04, 0.04)[0]
        assert floor == pytest.approx(0.4862, abs=1e-4)
        for steps, most in ((3, floor + 1e-4), (6, 0.85)):
            cs = endpoint_constraints(spec, grid, 0.0, steps, boundary="wrap")
            for seed in range(10):
                _, report = solve_phases(cs, restarts=1, seed=seed)
                assert floor <= report.max_residual <= most


def random_walk_game(rng):
    """A lossy +-1 walk (N <= 5) or -1/0/+1 walk (N <= 3) on 13 wrapped nodes, and N."""
    m = int(rng.integers(2, 4))
    n = int(rng.integers(1, 6 if m == 2 else 4))
    labels = [-1.0, 1.0] if m == 2 else [-1.0, 0.0, 1.0]
    probs = np.maximum(rng.dirichlet(np.full(m, 2.0)), 0.05)
    noise = BareDistribution(np.array(labels), probs / probs.sum())
    spec = GameSpec(
        drift=make_map("identity"),
        gain=make_map("constant", value=1.0),
        noise=noise,
        rules=QRuleParams.pure_loss(rng.uniform(0.0, 0.4, m)),
    )
    return spec, StateGrid.from_range(-6.0, 6.0, 13), n


def random_walk_system(rng):
    """Endpoint system of :func:`random_walk_game`."""
    spec, grid, n = random_walk_game(rng)
    return endpoint_constraints(spec, grid, 0.0, n, boundary="wrap")


class TestMinimaxSolver:
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["single-round", "full", "endpoint"]))
    @settings(max_examples=60, deadline=None)
    def test_bracketed_by_the_floor_and_the_all_equal_start(self, seed, kind):
        rng = np.random.default_rng(seed)
        if kind == "single-round":
            P, _, d, _ = random_symmetric_instance(rng, m_max=5, n_max=1)
            cs = build_constraints(P, d, 1)
            solve = functools.partial(single_round_phases, P, d)
        else:
            if kind == "full":
                P, _, d, n = random_symmetric_instance(rng, m_max=3, n_max=2)
                cs = build_constraints(P, d, n)
            else:
                cs = random_walk_system(rng)
            solve = functools.partial(solve_phases, cs, restarts=1)
        (first, report), (again, _) = solve(seed=seed % 1000), solve(seed=seed % 1000)
        assert report.feasible
        all_equal = float(np.max(np.abs(group_residuals(cs, np.zeros(cs.n_paths))), initial=0.0))
        assert report.lower_bound <= report.max_residual <= all_equal
        assert np.array_equal(first.phases.view(np.int64), again.phases.view(np.int64))


class TestAmplitudeSum:
    def test_zero_phases(self):
        P = bare([0.5, 0.5])
        amp = amplitude_sum(P, PhaseAssignment(2, 1, np.zeros(2)), 1)
        assert abs(amp) ** 2 == pytest.approx(2.0, abs=1e-12)

    def test_solved_phase_matches_xi(self):
        P = bare([0.5, 0.5])
        phi = np.array([0.0, ARCCOS_MINUS_02])
        amp = amplitude_sum(P, PhaseAssignment(2, 1, phi), 1)
        assert abs(amp) ** 2 == pytest.approx(0.8, abs=1e-9)

    def test_refuses_an_assignment_over_other_rounds(self):
        with pytest.raises(DimensionMismatch, match=r"covers 2\^3 paths, not 2\^2"):
            amplitude_sum(bare([0.5, 0.5]), PhaseAssignment(2, 3, np.zeros(8)), 2)

    @pytest.mark.parametrize("count", [3, 5, 8])
    def test_an_assignment_needs_one_phase_per_path(self, count):
        with pytest.raises(DimensionMismatch, match="one phase per path"):
            PhaseAssignment(2, 2, np.zeros(count))


class TestIdentityCheck:
    def test_exact_scalar_case(self):
        P = bare([0.5, 0.5])
        rep = identity_check(P, [0.2, 0.2], 1, seed=7)
        assert rep.feasible
        assert rep.xi == pytest.approx(0.8, abs=1e-12)
        assert rep.gap <= 1e-10

    def test_zero_losses_exact(self):
        P = bare([0.6, 0.4])
        rep = identity_check(P, [0.0, 0.0], 2, seed=8)
        assert rep.gap <= 1e-12
        assert rep.max_residual <= 1e-12
        assert rep.xi == pytest.approx(1.0, abs=1e-12)

    def test_small_coupling_m2_n2(self):
        P = bare([0.5, 0.5])
        rep = identity_check(P, [0.02, 0.02], 2, seed=9)
        assert rep.gap <= 1e-6
        assert rep.max_residual <= 1e-6
        assert rep.gap <= rep.bound

    def test_infeasible_flagged(self):
        P = bare([0.99, 0.01])
        rep = identity_check(P, [1.0, 1.0], 1, seed=10)
        assert not rep.feasible
        assert math.isnan(rep.gap)

    def test_zero_coupling_identity_two_labels(self):
        # with no losses the solved phases must reproduce the unit path sum
        for n in (1, 2, 3):
            P = bare([0.3, 0.7])
            rep = identity_check(P, [0.0, 0.0], n, seed=11)
            assert rep.amp_sq == pytest.approx(1.0, abs=1e-10)
            assert rep.gap <= 1e-10

    def test_two_label_identity_any_coupling(self):
        # two-outcome systems solve exactly for every feasible coupling size
        for gamma in (0.1, 0.3, 0.6, 0.9):
            P = bare([0.5, 0.5])
            rep = identity_check(P, [gamma, gamma], 3, seed=12)
            assert rep.feasible and rep.converged
            assert rep.gap <= 1e-10

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_gap_never_exceeds_bound(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 4))
        probs = rng.dirichlet(np.full(m, 3.0))
        probs = np.maximum(probs, 0.1)
        P = bare(probs / probs.sum())
        gamma = rng.uniform(0.0, 0.3, m)
        n = int(rng.integers(1, 3))
        rep = identity_check(P, gamma, n, seed=seed % 1000)
        if rep.feasible:
            assert rep.gap <= rep.bound

    def test_round_off_grows_with_n(self):
        # a fixed slack once sat below the round-off of a million rounds
        rep = identity_check(bare([0.3, 0.7]), [1e-6, 2e-6], 10**6)
        assert rep.gap > 1e-11
        assert rep.gap <= rep.bound
        assert not rep.bound_vacuous

    @given(
        st.lists(st.floats(0.05, 1.0), min_size=2, max_size=3),
        st.lists(st.floats(0.0, 1e-3), min_size=3, max_size=3),
        st.integers(1, 10**7),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_off_bound_at_large_n(self, weights, losses, n):
        P = bare(np.array(weights) / sum(weights))
        gamma = losses[: P.m]
        rep = identity_check(P, gamma, n)
        assert rep.feasible
        assert rep.gap <= rep.bound
        # the exact one-round sum: xi_1 = sum of p (1 - gamma), in rationals
        xi1 = sum(Fraction(p) * (1 - Fraction(g)) for p, g in zip(P.probs.tolist(), gamma))
        with decimal.localcontext(decimal.Context(prec=60)):
            exact = float((decimal.Decimal(xi1.numerator) / xi1.denominator) ** n)
        assert abs(rep.xi - exact) <= rep.bound

    def test_radices_cover_classical_mass(self):
        P = bare([0.5, 0.3, 0.2])
        assert np.sum(path_radices(P, 2) ** 2) == pytest.approx(1.0, abs=1e-12)

    @given(st.integers(2, 5), st.integers(1, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_radices_equal_the_row_product(self, m, n, seed):
        P = bare(np.random.default_rng(seed).dirichlet(np.ones(m)))
        want = np.sqrt(np.prod(P.probs[meshgrid_paths(m, n)], axis=1))
        assert np.array_equal(path_radices(P, n).view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_runs_without_label_rows(self, monkeypatch, m):
        def forbidden(*args):
            raise AssertionError("an (M^N, N) label array was built")

        monkeypatch.setattr(qal.paths, "all_paths", forbidden)
        monkeypatch.setattr(qal.markov, "all_paths", forbidden, raising=False)
        probs = np.arange(1.0, m + 1.0)
        rep = identity_check(bare(probs / probs.sum()), np.linspace(0.1, 0.3, m), 9)
        assert rep.feasible and rep.gap <= rep.bound
