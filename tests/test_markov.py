"""Games driven by the reading channel: Monte Carlo, kernels, amplitudes."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qal.markov
from memory_guards import traced_peak
from qal.core import LOST, BareDistribution, QRuleParams, effective_distribution, sample_readings
from qal.errors import DimensionMismatch, OffGridImage, SizeGuardExceeded
from qal.grid import StateGrid
from qal.markov import (
    _BLOCK,
    GameSpec,
    _image_table,
    _simulate_block,
    amplitude_propagate,
    effective_kernel,
    endpoint_constraints,
    joint_path_density,
    make_map,
    propagate_distribution,
    simulate_game,
)
from qal.paths import PhaseAssignment, all_paths, lift_phases, solve_phases
from test_core import random_instance

def walk(gamma=0.2):
    return GameSpec.random_walk(QRuleParams.pure_loss([gamma, gamma]))


def integer_grid(extent):
    return StateGrid.from_range(-extent, extent, 2 * extent + 1)


def binomial_3sigma(p, n):
    return 3.0 * np.sqrt(np.maximum(p * (1.0 - p), 1e-12) * n)


def random_game(rng, drift, gain=1.0):
    """Random channel (M = 2..4, with misreads) over distinct integer labels."""
    P, Q = random_instance(rng, m_max=4)
    labels = rng.choice(np.arange(-3.0, 4.0), size=P.m, replace=False)
    return GameSpec(
        drift=drift,
        gain=make_map("constant", value=gain),
        noise=BareDistribution(labels, P.probs),
        rules=Q,
    )


def per_round_block(spec, x0, rounds, rng, count):
    """Oracle: the Monte Carlo block drawing one round of readings per call."""
    x = np.full(count, float(x0))
    frozen = np.zeros(count, dtype=np.int64)
    for _ in range(rounds):
        reads = sample_readings(spec.noise, spec.rules, rng, count)
        lost = reads == LOST
        frozen += lost
        live = ~lost
        if np.any(live):
            y = spec.noise.labels[reads[live]]
            xk = x[live]
            x[live] = spec.drift(xk) + spec.gain(xk) * y
    return x, frozen


def block_streams(seed, trials):
    """One generator substream per block of ``_BLOCK`` trials."""
    return np.random.SeedSequence(seed).spawn(-(-trials // _BLOCK))


def per_round_game(spec, x0, rounds, trials, seed):
    """Oracle run: per-round blocks over the same block substreams."""
    blocks = [
        per_round_block(spec, x0, rounds, np.random.default_rng(stream), min(_BLOCK, trials - b))
        for b, stream in zip(range(0, trials, _BLOCK), block_streams(seed, trials))
    ]
    return np.concatenate([b[0] for b in blocks]), np.concatenate([b[1] for b in blocks])


def dense_read_matrix(spec, grid, boundary):
    """Oracle: the K×K read matrix filled with np.add.at from the image table."""
    table = _image_table(spec, grid, boundary)
    probs = effective_distribution(spec.noise, spec.rules).probs
    read = np.zeros((grid.size, grid.size))
    for j, p in enumerate(probs):
        np.add.at(read, (table[j], np.arange(grid.size)), p)
    return read


def dense_matrix(kernel):
    """Oracle view: the column-stochastic K×K matrix of a kernel's own image table."""
    size = kernel.grid.size
    read = np.zeros((size, size))
    for targets, p in zip(kernel.table, kernel.probs):
        np.add.at(read, (targets, np.arange(size)), p)
    return read + kernel.defect * np.eye(size)


class TestMaps:
    def test_registry(self):
        x = np.array([0.0, 1.0, 2.0])
        assert np.allclose(make_map("identity")(x), x)
        assert np.allclose(make_map("constant", value=3.0)(x), [3, 3, 3])
        assert np.allclose(make_map("linear", slope=2.0)(x), [0, 2, 4])
        assert np.allclose(
            make_map("quadratic", slope=1.0, curvature=0.5)(x), [0, 1.5, 4]
        )
        with pytest.raises(ValueError):
            make_map("cubic")


class TestSimulateGame:
    def test_deterministic_when_gain_vanishes(self):
        spec = GameSpec(
            drift=make_map("identity"),
            gain=make_map("constant", value=0.0),
            noise=BareDistribution(np.array([-1.0, 1.0]), np.array([0.5, 0.5])),
            rules=QRuleParams.lossless(2),
        )
        run = simulate_game(spec, x0=1.5, rounds=5, trials=200, seed=0)
        assert np.all(run.finals == 1.5)

    def test_single_step_law(self):
        run = simulate_game(walk(), x0=0.0, rounds=1, trials=10**6, seed=1)
        values, freqs = run.distribution()
        assert np.allclose(values, [-1.0, 0.0, 1.0])
        expected = np.array([0.4, 0.2, 0.4])
        n = run.trials
        assert np.all(
            np.abs(freqs * n - expected * n) < binomial_3sigma(expected, n)
        )

    def test_two_step_composition(self):
        run = simulate_game(walk(), x0=0.0, rounds=2, trials=10**6, seed=2)
        values, freqs = run.distribution()
        # exact two-fold convolution of (0.4, 0.2, 0.4)
        law = np.array([0.4, 0.2, 0.4])
        expected = np.convolve(law, law)
        assert np.allclose(values, [-2.0, -1.0, 0.0, 1.0, 2.0])
        n = run.trials
        assert np.all(
            np.abs(freqs * n - expected * n) < binomial_3sigma(expected, n)
        )

    def test_frozen_round_accounting(self):
        spec = walk(0.2)
        rounds, trials = 10, 10**5
        run = simulate_game(spec, x0=0.0, rounds=rounds, trials=trials, seed=3)
        expected = rounds * 0.2
        sigma = np.sqrt(rounds * 0.2 * 0.8 / trials)
        assert abs(run.mean_frozen - expected) < 3.0 * sigma

    def test_block_order_invariance(self):
        spec = walk()
        trials = 10_000  # two whole blocks and a partial one
        reference = simulate_game(spec, 0.0, 3, trials, seed=9)
        pieces = []
        starts = list(range(0, trials, _BLOCK))
        for begin, stream in sorted(zip(starts, block_streams(9, trials)), reverse=True):
            count = min(_BLOCK, trials - begin)
            rng = np.random.default_rng(stream)
            pieces.append((begin, _simulate_block(spec, 0.0, 3, rng, count)))
        finals = np.empty(trials)
        for begin, (fin, _) in pieces:
            finals[begin : begin + fin.size] = fin
        assert np.array_equal(finals, reference.finals)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_bitwise_equal_to_per_round_oracle(self, seed):
        rng = np.random.default_rng(seed)
        rounds = int(rng.integers(0, 80))  # past one 32-round chunk of a 4096 block
        trials = int(rng.integers(1, 3 * _BLOCK))  # one block, or several with a partial last
        # |x| <= 7 maps into itself for |y| <= 3: no overflow however many rounds
        drift = make_map("quadratic", slope=0.5, curvature=float(rng.uniform(-0.01, 0.01)))
        spec = random_game(rng, drift)
        expected = per_round_game(spec, 0.0, rounds, trials, seed)
        run = simulate_game(spec, 0.0, rounds, trials, seed)
        assert np.array_equal(run.finals, expected[0])
        assert np.array_equal(run.frozen_counts, expected[1])

    def test_block_memory_does_not_grow_with_rounds(self):
        # one 4096-trial block; 2000 rounds of readings at once would be 131 MB
        assert traced_peak(lambda: simulate_game(walk(), 0.0, 2000, 4096, seed=1)) < 8 << 20

    def test_same_seed_same_run(self):
        a = simulate_game(walk(), 0.0, 4, 5000, seed=7)
        b = simulate_game(walk(), 0.0, 4, 5000, seed=7)
        assert np.array_equal(a.finals, b.finals)
        assert np.array_equal(a.frozen_counts, b.frozen_counts)


class TestEffectiveKernel:
    def test_image_table_build_is_linear_in_memory(self):
        # the (2, K) int64 table is 3.2 MB; the dense read matrix would be 320 GB
        grid = integer_grid(100_000)
        kernels = []
        peak = traced_peak(lambda: kernels.append(effective_kernel(walk(), grid, boundary="wrap")))
        assert peak < 16 << 20
        # nothing K×K: every field is at most the table's M*K entries
        assert max(np.size(v) for v in vars(kernels[0]).values()) <= 2 * grid.size

    def test_pure_drift_selection_matrix(self):
        spec = GameSpec(
            drift=make_map("linear", slope=-1.0),
            gain=make_map("constant", value=0.0),
            noise=BareDistribution(np.array([-1.0, 1.0]), np.array([0.5, 0.5])),
            rules=QRuleParams.lossless(2),
        )
        grid = integer_grid(2)
        kernel = effective_kernel(spec, grid)
        expected = np.zeros((5, 5))
        for k, x in enumerate(grid.nodes):
            expected[int(-x) + 2, k] = 1.0
        assert np.allclose(dense_matrix(kernel), expected, atol=1e-12)

    def test_walk_tridiagonal(self):
        grid = integer_grid(3)
        kernel = effective_kernel(walk(), grid, boundary="wrap")
        mat = dense_matrix(kernel)
        for k in range(1, grid.size - 1):
            col = mat[:, k]
            assert col[k - 1] == pytest.approx(0.4, abs=1e-12)
            assert col[k] == pytest.approx(0.2, abs=1e-12)
            assert col[k + 1] == pytest.approx(0.4, abs=1e-12)
        assert np.allclose(mat.sum(axis=0), 1.0, atol=1e-12)

    def test_off_grid_default(self):
        spec = walk()
        with pytest.raises(OffGridImage):
            effective_kernel(spec, integer_grid(2))  # edge nodes step outside

    def test_sub_spacing_steps_snap_back(self):
        # images within dx/2 of the starting node quantize onto it
        spec = GameSpec(
            drift=make_map("identity"),
            gain=make_map("constant", value=0.4),
            noise=BareDistribution(np.array([-1.0, 1.0]), np.array([0.5, 0.5])),
            rules=QRuleParams.lossless(2),
        )
        kernel = effective_kernel(spec, integer_grid(3))
        assert np.allclose(dense_matrix(kernel), np.eye(7), atol=1e-12)

    def test_kernel_matches_monte_carlo(self):
        grid = integer_grid(8)
        kernel = effective_kernel(walk(), grid, boundary="wrap")
        steps, trials = 4, 10**5
        delta = np.zeros(grid.size)
        delta[grid.snap_index(0.0)] = 1.0
        predicted = propagate_distribution(delta, kernel, steps)
        run = simulate_game(walk(), 0.0, steps, trials, seed=11)
        counts = np.zeros(grid.size)
        for value, freq in zip(*run.distribution()):
            counts[grid.snap_index(value)] = freq * trials
        tol = binomial_3sigma(predicted, trials)
        assert np.all(np.abs(counts - predicted * trials) <= tol)


class TestPropagateDistribution:
    def test_zero_steps(self):
        grid = integer_grid(2)
        kernel = effective_kernel(walk(), grid, boundary="wrap")
        e0 = np.zeros(grid.size)
        e0[2] = 1.0
        assert np.array_equal(propagate_distribution(e0, kernel, 0), e0)

    def test_two_step_convolution(self):
        grid = integer_grid(4)
        kernel = effective_kernel(walk(), grid, boundary="wrap")
        delta = np.zeros(grid.size)
        delta[grid.snap_index(0.0)] = 1.0
        result = propagate_distribution(delta, kernel, 2)
        law = np.array([0.4, 0.2, 0.4])
        expected = np.zeros(grid.size)
        expected[2:7] = np.convolve(law, law)
        assert np.allclose(result, expected, atol=1e-12)

    def test_uniform_fixed_point(self):
        grid = integer_grid(3)
        kernel = effective_kernel(walk(), grid, boundary="wrap")
        uniform = np.full(grid.size, 1.0 / grid.size)
        out = propagate_distribution(uniform, kernel, 5)
        assert np.allclose(out, uniform, atol=1e-12)

    def test_mass_conserved_long_run(self):
        grid = integer_grid(5)
        kernel = effective_kernel(walk(), grid, boundary="wrap")
        delta = np.zeros(grid.size)
        delta[5] = 1.0
        out = propagate_distribution(delta, kernel, 10**4)
        assert abs(out.sum() - 1.0) <= 1e-10

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_within_round_off_of_dense_matvecs(self, seed):
        rng = np.random.default_rng(seed)
        boundary = rng.choice(["wrap", "error"])
        grid = integer_grid(int(rng.integers(8, 40)))
        # under 'error' a contracting drift keeps every image on the grid
        slope = 1.0 if boundary == "wrap" else 0.5
        spec = random_game(rng, make_map("linear", slope=slope))
        kernel = effective_kernel(spec, grid, boundary=boundary)
        e0 = rng.dirichlet(np.ones(grid.size))
        read = dense_read_matrix(spec, grid, boundary)
        steps = 30
        # each step rounds at most M+1 terms per entry on either side, and a
        # (sub)stochastic step does not grow an error's 1-norm
        bound = 2 * steps * (spec.noise.m + 1) * np.finfo(float).eps
        for include_frozen in (True, False):
            matrix = read + kernel.defect * np.eye(grid.size) if include_frozen else read
            expected = e0.copy()
            for _ in range(steps):
                expected = matrix @ expected
            out = propagate_distribution(e0, kernel, steps, include_frozen=include_frozen)
            assert np.sum(np.abs(out - expected)) <= bound

    def test_walk_within_1e_15_of_dense_matvecs(self):
        grid = StateGrid.from_range(-200, 200, 401)
        kernel = effective_kernel(walk(), grid, boundary="wrap")
        delta = np.zeros(grid.size)
        delta[grid.snap_index(0.0)] = 1.0
        expected = delta
        matrix = dense_read_matrix(walk(), grid, "wrap") + kernel.defect * np.eye(grid.size)
        for _ in range(500):
            expected = matrix @ expected
        out = propagate_distribution(delta, kernel, 500)
        assert np.max(np.abs(out - expected)) <= 1e-15
        assert abs(out.sum() - 1.0) <= 1e-12

    def test_20001_nodes_propagate_without_a_dense_view(self):
        # a K×K view of these 20001 nodes would need 3.2 GB; the table needs 320 kB
        kernel = effective_kernel(walk(), integer_grid(10_000), boundary="wrap")
        delta = np.zeros(20001)
        delta[10_000] = 1.0
        assert propagate_distribution(delta, kernel, 3).sum() == pytest.approx(1.0, abs=1e-12)

    def test_reads_only_total_shrinks(self):
        grid = integer_grid(4)
        kernel = effective_kernel(walk(), grid, boundary="wrap")
        delta = np.zeros(grid.size)
        delta[4] = 1.0
        out = propagate_distribution(delta, kernel, 3, include_frozen=False)
        assert out.sum() == pytest.approx(0.8**3, abs=1e-12)


def full_start_path_sum(spec, grid, psi0, assignment):
    """Oracle: the exact path sum walking every label path from every node."""
    table = _image_table(spec, grid, "wrap")
    radices = np.prod(np.sqrt(spec.noise.probs)[assignment.paths], axis=1)
    out = np.zeros(grid.size, dtype=complex)
    for path, amp in zip(assignment.paths, radices * np.exp(1j * assignment.phases)):
        cur = np.arange(grid.size)
        for label in path:
            cur = table[label, cur]
        np.add.at(out, cur, amp * psi0)
    return out


class TestAmplitudePropagate:
    def no_collision_spec(self, gamma=0.0):
        # x -> 3x +- 1 never sends two (node, label) pairs to the same node
        return GameSpec(
            drift=make_map("linear", slope=3.0),
            gain=make_map("constant", value=1.0),
            noise=BareDistribution(np.array([-1.0, 1.0]), np.array([0.5, 0.5])),
            rules=QRuleParams.pure_loss([gamma, gamma]),
        )

    def test_no_interference_matches_kernel(self):
        spec = self.no_collision_spec()
        grid = integer_grid(13)
        psi0 = np.zeros(grid.size, dtype=complex)
        center = grid.snap_index(0.0)
        psi0[center - 1 : center + 2] = np.sqrt(1.0 / 3.0)
        psi2 = amplitude_propagate(spec, grid, psi0, 2, boundary="wrap")
        kernel = effective_kernel(spec, grid, boundary="wrap")
        expected = propagate_distribution(np.abs(psi0) ** 2, kernel, 2)
        assert np.allclose(np.abs(psi2) ** 2, expected, atol=1e-12)

    def test_single_step_coherent_sum_differs_from_kernel(self):
        spec = walk(0.0)
        grid = integer_grid(6)
        psi0 = np.zeros(grid.size, dtype=complex)
        psi0[grid.snap_index(-1.0)] = np.sqrt(0.5)
        psi0[grid.snap_index(1.0)] = np.sqrt(0.5)
        psi1 = amplitude_propagate(spec, grid, psi0, 1, boundary="wrap")
        kernel = effective_kernel(spec, grid, boundary="wrap")
        incoherent = propagate_distribution(np.abs(psi0) ** 2, kernel, 1)
        # both sources meet at 0: the coherent sum doubles the mass there
        node0 = grid.snap_index(0.0)
        assert np.abs(psi1[node0]) ** 2 == pytest.approx(1.0, abs=1e-12)
        assert incoherent[node0] == pytest.approx(0.5, abs=1e-12)

    def test_endpoint_solved_phases_restore_totals_without_losses(self):
        spec = walk(0.0)
        grid = integer_grid(6)
        constraints = endpoint_constraints(spec, grid, 0.0, 2, boundary="wrap")
        assignment, report = solve_phases(constraints, seed=5)
        assert report.feasible and report.converged
        psi0 = np.zeros(grid.size, dtype=complex)
        psi0[grid.snap_index(0.0)] = 1.0
        psi2 = amplitude_propagate(spec, grid, psi0, 2, phases=assignment, boundary="wrap")
        total = float(np.sum(np.abs(psi2) ** 2))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_per_step_phase_array(self):
        spec = walk(0.0)
        grid = integer_grid(4)
        psi0 = np.zeros(grid.size, dtype=complex)
        psi0[grid.snap_index(0.0)] = 1.0
        theta = np.array([[0.0, np.pi / 2]])
        psi1 = amplitude_propagate(spec, grid, psi0, 1, phases=theta, boundary="wrap")
        left = grid.snap_index(-1.0)
        right = grid.snap_index(1.0)
        assert psi1[left] == pytest.approx(np.sqrt(0.5), abs=1e-12)
        assert psi1[right] == pytest.approx(np.sqrt(0.5) * 1j, abs=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_lifted_path_sum_equals_the_per_step_transfer(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 4))
        spec = GameSpec(
            drift=make_map("identity"),
            gain=make_map("constant", value=1.0),
            noise=BareDistribution(
                rng.choice(np.arange(-3.0, 4.0), size=m, replace=False), rng.dirichlet(np.ones(m))
            ),
            rules=QRuleParams.lossless(m),
        )
        grid = integer_grid(int(rng.integers(3, 10)))
        steps = int(rng.integers(1, 6))
        if rng.random() < 0.5:
            psi0 = np.zeros(grid.size, dtype=complex)
            psi0[grid.snap_index(0.0)] = 1.0
        else:
            psi0 = rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size)
            psi0 /= np.linalg.norm(psi0)
        theta = rng.uniform(-np.pi, np.pi, m)
        lifted = lift_phases(PhaseAssignment(all_paths(m, 1), theta), steps)
        path_sum = amplitude_propagate(spec, grid, psi0, steps, phases=lifted, boundary="wrap")
        transfer = amplitude_propagate(spec, grid, psi0, steps, phases=theta, boundary="wrap")
        assert np.max(np.abs(path_sum - transfer)) <= 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_support_started_path_sum_equals_the_full_start_walk(self, seed):
        rng = np.random.default_rng(seed)
        spec = random_game(rng, make_map("identity"))
        grid = integer_grid(int(rng.integers(3, 10)))
        steps = int(rng.integers(1, 5))
        psi0 = rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size)
        kind = rng.integers(3)  # point, sparse (possibly empty) or dense start
        if kind == 0:
            psi0 = np.zeros(grid.size, dtype=complex)
            psi0[rng.integers(grid.size)] = 1.0
        elif kind == 1:
            psi0[rng.random(grid.size) < 0.7] = 0.0
        m = spec.noise.m
        assignment = PhaseAssignment(all_paths(m, steps), rng.uniform(-np.pi, np.pi, m**steps))
        path_sum = amplitude_propagate(spec, grid, psi0, steps, phases=assignment, boundary="wrap")
        assert np.array_equal(path_sum, full_start_path_sum(spec, grid, psi0, assignment))

    @pytest.mark.parametrize(
        "rows",
        [all_paths(2, 3)[:5], -all_paths(2, 3)],
        ids=["5 of 8 paths", "negated labels"],
    )
    def test_refuses_an_assignment_that_is_not_every_path_once(self, rows):
        grid = integer_grid(6)
        psi0 = np.zeros(grid.size, dtype=complex)
        psi0[grid.snap_index(0.0)] = 1.0
        assignment = PhaseAssignment(rows, np.zeros(len(rows)))
        with pytest.raises(DimensionMismatch, match="exactly once"):
            amplitude_propagate(walk(), grid, psi0, 3, phases=assignment, boundary="wrap")


class TestEndpointConstraints:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_pairs_equal_the_per_path_walk(self, seed):
        rng = np.random.default_rng(seed)
        spec = random_game(rng, make_map("linear", slope=float(rng.choice([1.0, -1.0, 2.0]))))
        grid = integer_grid(int(rng.integers(3, 12)))
        steps = int(rng.integers(1, 5))
        table = _image_table(spec, grid, "wrap")
        ends = []
        for path in all_paths(spec.noise.m, steps):
            cur = grid.snap_index(0.0)
            for label in path:
                cur = int(table[label, cur])
            ends.append(cur)
        ends = np.array(ends)
        expected = [
            pair
            for node in np.unique(ends)
            for pair in itertools.combinations(np.flatnonzero(ends == node).tolist(), 2)
        ]
        constraints = endpoint_constraints(spec, grid, 0.0, steps, boundary="wrap")
        assert list(zip(constraints.pair_i.tolist(), constraints.pair_j.tolist())) == expected


def dense_joint_density(spec, grid, x0, steps):
    """Oracle: descend the columns of the dense read matrix."""
    read = dense_read_matrix(spec, grid, "wrap")
    table = {}

    def descend(node, prefix, prob):
        if len(prefix) == steps:
            table[prefix] = prob
            return
        col = read[:, node]
        for nxt in np.nonzero(col)[0]:
            descend(int(nxt), prefix + (int(nxt),), prob * float(col[nxt]))

    descend(grid.snap_index(x0), (), 1.0)
    return tuple(sorted(table)), np.array([table[k] for k in sorted(table)])


class TestJointPathDensity:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_bitwise_equal_to_dense_descent(self, seed):
        rng = np.random.default_rng(seed)
        # gain 0.4 snaps neighbouring labels onto one node: their moves merge
        spec = random_game(rng, make_map("identity"), gain=float(rng.choice([0.4, 1.0])))
        grid = integer_grid(int(rng.integers(3, 8)))
        steps = int(rng.integers(1, 4))
        density = joint_path_density(spec, grid, 0.0, steps, boundary="wrap")
        sequences, probs = dense_joint_density(spec, grid, 0.0, steps)
        assert np.array_equal(density.sequences, np.array(sequences).reshape(-1, steps))
        assert np.array_equal(density.probs, probs)
        for step in range(1, steps + 1):
            expected = np.zeros(grid.size)
            for seq, p in zip(sequences, probs):
                expected[seq[step - 1]] += p
            assert np.array_equal(density.marginal(step), expected)

    def test_guard_counts_label_paths_not_grid_sequences(self, monkeypatch):
        # 21^6 grid sequences would exceed the guard; the 2^6 label paths do not
        density = joint_path_density(walk(), integer_grid(10), 0.0, 6, boundary="wrap")
        assert len(density.sequences) == 64

        def forbidden(*args, **kwargs):
            raise AssertionError("the walk started past the guard")

        monkeypatch.setattr(qal.markov, "effective_kernel", forbidden)
        steps = int(np.log2(qal.markov.JOINT_GUARD)) + 1  # 2^steps just past the guard
        with pytest.raises(SizeGuardExceeded):
            joint_path_density(walk(), integer_grid(3), 0.0, steps, boundary="wrap")

    def test_build_memory_is_the_table(self):
        # 2^16 sequences of 16 nodes: an 8 MB table, and at most as much again to build it
        grid = integer_grid(20)

        def build():
            return joint_path_density(walk(), grid, 0.0, 16, boundary="wrap")

        density = build()
        assert density.sequences.shape == (2**16, 16)
        assert traced_peak(build) < 2 * density.sequences.nbytes

    def test_single_step_is_the_per_step_law(self):
        grid = integer_grid(3)
        density = joint_path_density(walk(), grid, 0.0, 1, boundary="wrap")
        kernel = effective_kernel(walk(), grid, boundary="wrap")
        start = grid.snap_index(0.0)
        read = dense_read_matrix(walk(), grid, "wrap")
        assert np.allclose(density.marginal(1), read[:, start], atol=1e-12)

    def test_total_is_read_mass_power(self):
        grid = integer_grid(4)
        for steps in (1, 2, 3):
            density = joint_path_density(walk(), grid, 0.0, steps, boundary="wrap")
            assert density.total() == pytest.approx(0.8**steps, abs=1e-12)

    def test_marginal_matches_reads_only_propagation(self):
        grid = integer_grid(4)
        steps = 2
        density = joint_path_density(walk(), grid, 0.0, steps, boundary="wrap")
        kernel = effective_kernel(walk(), grid, boundary="wrap")
        delta = np.zeros(grid.size)
        delta[grid.snap_index(0.0)] = 1.0
        expected = propagate_distribution(delta, kernel, steps, include_frozen=False)
        assert np.allclose(density.marginal(steps), expected, atol=1e-10)

    def test_two_step_convolution_marginal(self):
        grid = integer_grid(4)
        density = joint_path_density(walk(), grid, 0.0, 2, boundary="wrap")
        law = np.array([0.4, 0.2, 0.4])
        expected = np.zeros(grid.size)
        expected[2:7] = np.convolve(np.array([0.4, 0.0, 0.4]), np.array([0.4, 0.0, 0.4]))
        assert np.allclose(density.marginal(2), expected, atol=1e-12)
