"""Path expansion, exact census, and the path-sum / squared-amplitude identity."""

import functools
import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, minimize

import qal.paths
from memory_guards import capped_address_space, traced_peak
from qal.core import BareDistribution, CouplingMatrix, QRuleParams, symmetric_coupling
from qal.errors import DimensionMismatch, SizeGuardExceeded
from qal.grid import StateGrid
from qal.markov import GameSpec, endpoint_constraints, make_map
from qal.paths import (
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
        P = bare(np.full(10, 0.1))
        d = CouplingMatrix(np.zeros((10, 10)))
        with pytest.raises(SizeGuardExceeded):
            expand_paths(P, d, 4)


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
            with pytest.raises(SizeGuardExceeded, match=r"3\^15"):
                xi_sum(P, d, 15)
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


class TestConstraints:
    def test_m2_n1_single_pair(self):
        P = bare([0.5, 0.5])
        d = symmetric_coupling(P, [0.2, 0.2])
        cs = build_constraints(P, d, 1)
        assert len(cs) == 1
        assert cs.targets[0] == pytest.approx(-0.2, abs=1e-12)
        assert np.flatnonzero(cs.paths[cs.pair_i[0]] != cs.paths[cs.pair_j[0]]).tolist() == [0]

    def test_m2_n2_pair_count_and_targets(self):
        P = bare([0.5, 0.5])
        d = symmetric_coupling(P, [0.2, 0.2])
        cs = build_constraints(P, d, 2)
        assert len(cs) == 6
        differ = (cs.paths[cs.pair_i] != cs.paths[cs.pair_j]).sum(axis=1)
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
        if d.max_abs() > 1.0:
            return
        cs = build_constraints(P, d, n)
        assert np.all(np.abs(cs.targets) <= 1.0 + 1e-12)
        assert cs.infeasible_pairs().size == 0

    def test_chunked_build_matches_one_chunk(self, monkeypatch):
        P = bare([0.2, 0.3, 0.5])
        d = symmetric_coupling(P, [0.1, 0.2, 0.1])
        whole = build_constraints(P, d, 3)
        monkeypatch.setattr(qal.paths, "PAIR_CHUNK", 7)
        chunked = build_constraints(P, d, 3)
        assert len(whole) == 351  # 50 full chunks of 7 and a partial one
        for name in ("targets", "group_inverse", "group_sizes", "group_targets"):
            assert np.array_equal(getattr(chunked, name), getattr(whole, name))

    def test_size_guard(self):
        P = bare(np.full(9, 1.0 / 9.0))
        d = CouplingMatrix(np.zeros((9, 9)))
        with pytest.raises(SizeGuardExceeded):
            build_constraints(P, d, 4)


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
        rows = [tuple(row) for row in assignment.paths.tolist()]
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
        subset = constraints_for_pairs(
            P, d, full.paths, full.pair_i[keep], full.pair_j[keep]
        )
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
        assert rep.feasible == (symmetric_coupling(P, gamma).max_abs() <= 1.0 + 1e-12)
        if rep.feasible:
            assert rep.solve_report.starts_tried == 1
            assert rep.solve_report.best_start == 0
            assert rep.gap <= rep.bound
            assert rep.converged or m == 3

    @pytest.mark.parametrize(
        "targets, calls, starts_tried, best_start",
        [
            # no start meets tol: all-equal, evenly spread and two restarts each solve
            ([-0.3, -0.2, -0.4], 4, 4, None),
            # target 1: the all-equal start is exact and ends the search
            ([1.0], 0, 1, 0),
            # target 0: all-equal misses and solves once; evenly spread (pi/2) is exact
            ([0.0], 1, 2, 1),
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
        m = 3 if len(targets) == 3 else 2
        pair_i, pair_j = np.triu_indices(m, k=1)
        cs = qal.paths.ConstraintSet(all_paths(m, 1), pair_i, pair_j, targets, m)
        _, report = solve_phases(cs, seed=3, restarts=2)
        assert report.converged == (best_start is not None)
        assert report.starts_tried == starts_tried
        assert best_start is None or report.best_start == best_start
        assert methods == ["SLSQP"] * calls


def exact_three_label_gamma(P):
    """Uniform loss rate at which the three single-round angles sum to 2*pi."""

    def excess(gamma):
        d = symmetric_coupling(P, [gamma] * 3).d
        return np.arccos(d[0, 1]) + np.arccos(d[1, 2]) + np.arccos(d[0, 2]) - 2 * np.pi

    return brentq(excess, 0.5, 1.0, xtol=1e-16)


class TestSingleRound:
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
        subset = constraints_for_pairs(P, d, full.paths, full.pair_i[keep], full.pair_j[keep])
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


def random_walk_system(rng):
    """Endpoint system of a lossy +-1 walk (N <= 5) or -1/0/+1 walk (N <= 3)."""
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
    grid = StateGrid.from_range(-6.0, 6.0, 13)
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
        paths = all_paths(2, 1)
        amp = amplitude_sum(P, PhaseAssignment(paths, np.zeros(2)), 1)
        assert abs(amp) ** 2 == pytest.approx(2.0, abs=1e-12)

    def test_solved_phase_matches_xi(self):
        P = bare([0.5, 0.5])
        paths = all_paths(2, 1)
        phi = np.array([0.0, ARCCOS_MINUS_02])
        amp = amplitude_sum(P, PhaseAssignment(paths, phi), 1)
        assert abs(amp) ** 2 == pytest.approx(0.8, abs=1e-9)

    @pytest.mark.parametrize(
        "rows",
        [
            [[0, 0], [0, 1], [0, 1], [1, 1]],  # right count, one path twice
            [[0, 0], [0, 1], [1, 0]],  # a path missing
            [[0, 0], [0, 1], [1, 0], [1, -1]],  # label -1 would index the last label
            [[0, 0], [0, 1], [1, 0], [1, 2]],  # label past M - 1
        ],
    )
    def test_refuses_rows_that_are_not_every_path_once(self, rows):
        P = bare([0.5, 0.5])
        rows = np.array(rows)
        with pytest.raises(DimensionMismatch, match="exactly once"):
            amplitude_sum(P, PhaseAssignment(rows, np.zeros(len(rows))), 2)

    def test_refuses_an_assignment_over_other_rounds(self):
        with pytest.raises(DimensionMismatch, match="covers 3 rounds, not 2"):
            amplitude_sum(bare([0.5, 0.5]), PhaseAssignment(all_paths(2, 3), np.zeros(8)), 2)


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

    def test_radices_cover_classical_mass(self):
        P = bare([0.5, 0.3, 0.2])
        paths = all_paths(3, 2)
        assert np.sum(path_radices(P, paths) ** 2) == pytest.approx(1.0, abs=1e-12)
