"""Games driven by the reading channel: Monte Carlo, kernels, amplitudes."""

import itertools
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qal.grid
import qal.markov
import qal.paths
from memory_guards import Charged, capped_address_space, charge_then_stop, traced_peak
from qal.core import (
    LOST,
    BareDistribution,
    QRuleParams,
    effective_distribution,
    reading_tables,
    sample_readings,
)
from qal.errors import DimensionMismatch, OffGridImage, SizeGuardExceeded
from qal.grid import KERNEL_BYTE_BUDGET, StateGrid
from qal.markov import (
    _BLOCK,
    GameSpec,
    _image_table,
    _path_ends,
    _simulate_slab,
    amplitude_propagate,
    effective_kernel,
    endpoint_constraints,
    joint_path_density,
    make_map,
    propagate_distribution,
    simulate_game,
)
from qal.paths import PAIR_BYTES, PhaseAssignment, all_paths, lift_phases, solve_phases
from test_core import random_instance
from test_grid import CORE_COUNTS, usable_cores

def walk(gamma=0.2):
    return GameSpec.random_walk(QRuleParams.pure_loss([gamma, gamma]))


def still_walk():
    """A +-1 walk with zero gain: every label path stays on its start node."""
    return GameSpec(
        drift=make_map("identity"),
        gain=make_map("constant", value=0.0),
        noise=walk().noise,
        rules=walk().rules,
    )


def triple_walk():
    """x -> 3x +- 1 with 20% loss: distinct label paths end on distinct nodes until a grid wraps."""
    return GameSpec(
        drift=make_map("linear", slope=3.0),
        gain=make_map("constant", value=1.0),
        noise=walk().noise,
        rules=walk().rules,
    )


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

    @pytest.mark.parametrize(
        "name, params, message",
        [
            ("linear", {}, "map 'linear' takes slope, got none"),
            ("quadratic", {"slope": 1.0}, "map 'quadratic' takes slope, curvature, got slope"),
            ("constant", {"valu": 2.0}, "map 'constant' takes value, got valu"),
            ("identity", {"slope": 2.0}, "map 'identity' takes no parameters, got slope"),
        ],
    )
    def test_refuses_missing_or_extra_parameters(self, name, params, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make_map(name, **params)


def histogram(finals):
    return np.unique(finals, return_counts=True)


def assert_same_run(run, values, counts, frozen_total):
    assert np.array_equal(run.values, values)
    assert np.array_equal(run.counts, counts)
    assert run.counts.dtype == np.int64
    assert run.frozen_total == frozen_total


class TestSimulateGame:
    def test_deterministic_when_gain_vanishes(self):
        spec = GameSpec(
            drift=make_map("identity"),
            gain=make_map("constant", value=0.0),
            noise=BareDistribution(np.array([-1.0, 1.0]), np.array([0.5, 0.5])),
            rules=QRuleParams.lossless(2),
        )
        run = simulate_game(spec, x0=1.5, rounds=5, trials=200, seed=0)
        assert_same_run(run, [1.5], [200], 0)
        assert run.distribution()[1].tolist() == [1.0]

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
        # last block first, in slabs of one, two and three blocks, two rounds a draw
        blocks = list(zip(range(0, trials, _BLOCK), block_streams(9, trials)))[::-1]
        tables = reading_tables(spec.noise, spec.rules)
        for slab in (1, 2, 3):
            finals = np.empty(trials)
            frozen_total = 0
            for group in (blocks[i : i + slab] for i in range(0, len(blocks), slab)):
                counts = [min(_BLOCK, trials - begin) for begin, _ in group]
                rngs = [np.random.default_rng(stream) for _, stream in group]
                states, frozen = _simulate_slab(spec, 0.0, 3, rngs, counts, tables, 2)
                for (begin, _), x in zip(group, np.split(states, np.cumsum(counts)[:-1])):
                    finals[begin : begin + x.size] = x
                frozen_total += frozen
            assert_same_run(reference, *histogram(finals), frozen_total)

    @given(st.integers(0, 2**32 - 1), st.sampled_from(CORE_COUNTS))
    @settings(max_examples=30, deadline=None)
    def test_bitwise_equal_to_per_round_oracle(self, seed, cores):
        rng = np.random.default_rng(seed)
        rounds = int(rng.integers(0, 80))  # past one 32-round chunk of a 4096 block
        slab, chunk = int(rng.integers(1, 4)), int(rng.integers(1, 33))
        # one block, or past one slab, mostly ending in a partial slab and a partial block
        trials = int(rng.integers(1, (2 * slab + 2) * _BLOCK))
        # |x| <= 7 maps into itself for |y| <= 3: no overflow however many rounds
        drift = make_map("quadratic", slope=0.5, curvature=float(rng.uniform(-0.01, 0.01)))
        spec = random_game(rng, drift)
        blocks = list(zip(range(0, trials, _BLOCK), block_streams(seed, trials)))
        oracles = [
            per_round_block(spec, 0.0, rounds, np.random.default_rng(s), min(_BLOCK, trials - b))
            for b, s in blocks
        ]
        # every slab, trial by trial, drawing through one set of channel tables
        tables = reading_tables(spec.noise, spec.rules)
        for i in range(0, len(blocks), slab):
            counts = [min(_BLOCK, trials - begin) for begin, _ in blocks[i : i + slab]]
            rngs = [np.random.default_rng(stream) for _, stream in blocks[i : i + slab]]
            states, frozen = _simulate_slab(spec, 0.0, rounds, rngs, counts, tables, chunk)
            assert states.size == sum(counts)
            for x, oracle in zip(np.split(states, np.cumsum(counts)[:-1]), oracles[i : i + slab],
                                 strict=True):
                assert np.array_equal(x, oracle[0])
            assert frozen == sum(int(oracle[1].sum()) for oracle in oracles[i : i + slab])
        finals = np.concatenate([oracle[0] for oracle in oracles])
        frozen_total = sum(int(oracle[1].sum()) for oracle in oracles)
        with pytest.MonkeyPatch.context() as patch:
            usable_cores(patch, cores)
            run = simulate_game(spec, 0.0, rounds, trials, seed)
        assert_same_run(run, *histogram(finals), frozen_total)

    def test_all_distinct_finals_merge_exactly_and_rarely(self, monkeypatch):
        # a lossless contracting quadratic drift over 48 rounds: every trial's
        # label sequence, hence its final state, is its own
        spec = GameSpec(
            drift=make_map("quadratic", slope=0.5, curvature=0.0123),
            gain=make_map("constant", value=1.0),
            noise=walk().noise,
            rules=QRuleParams.lossless(2),
        )
        rounds, trials, seed = 48, 16 * _BLOCK + 100, 5
        merges = []
        merge = qal.markov._merge_histograms
        monkeypatch.setattr(
            qal.markov, "_merge_histograms", lambda parts: merges.append(len(parts)) or merge(parts)
        )
        run = simulate_game(spec, 0.0, rounds, trials, seed)
        finals, frozen = per_round_game(spec, 0.0, rounds, trials, seed)
        assert run.values.size == trials
        assert_same_run(run, *histogram(finals), 0)
        # 17 blocks: merged after blocks 1, 2, 4, 8 and 16 and at the end
        assert len(merges) <= np.log2(17) + 2

    @pytest.mark.parametrize("seed", range(3))
    def test_same_bits_at_any_core_count(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        drift = make_map("quadratic", slope=0.5, curvature=float(rng.uniform(-0.01, 0.01)))
        spec = random_game(rng, drift)
        # six blocks, the last partial; 40 rounds take two to five chunks a block
        rounds, trials = 40, 5 * _BLOCK + int(rng.integers(1, _BLOCK))
        runs = []
        for cores in CORE_COUNTS:
            usable_cores(monkeypatch, cores)
            runs.append(simulate_game(spec, 0.0, rounds, trials, seed))
        for run in runs[1:]:
            assert_same_run(run, runs[0].values, runs[0].counts, runs[0].frozen_total)

    @pytest.mark.parametrize("rounds, threaded", [(7, False), (40, True)])
    def test_maps_run_on_worker_threads_only_for_long_games(self, monkeypatch, rounds, threaded):
        usable_cores(monkeypatch, 5)
        callers = set()

        def drift(x):
            callers.add(threading.current_thread())
            return x

        spec = GameSpec(drift, walk().gain, walk().noise, walk().rules)
        simulate_game(spec, 0.0, rounds, 4 * _BLOCK, seed=2)
        assert (callers != {threading.current_thread()}) == threaded

    def test_all_distinct_finals_merge_alike_at_any_core_count(self, monkeypatch):
        # the walk of test_all_distinct_finals_merge_exactly_and_rarely
        spec = GameSpec(
            drift=make_map("quadratic", slope=0.5, curvature=0.0123),
            gain=make_map("constant", value=1.0),
            noise=walk().noise,
            rules=QRuleParams.lossless(2),
        )
        merge, simulate = qal.markov._merge_histograms, qal.markov._simulate_slab
        runs, merges, slabs = [], [], []
        for cores in CORE_COUNTS:
            usable_cores(monkeypatch, cores)
            merges.append([])
            slabs.append([])
            monkeypatch.setattr(
                qal.markov,
                "_merge_histograms",
                lambda parts, calls=merges[-1]: calls.append(len(parts)) or merge(parts),
            )
            monkeypatch.setattr(
                qal.markov,
                "_simulate_slab",
                lambda *args, seen=slabs[-1]: seen.append(len(args[4])) or simulate(*args),
            )
            runs.append(simulate_game(spec, 0.0, 48, 16 * _BLOCK + 100, 5))
        assert runs[0].values.size == 16 * _BLOCK + 100
        for run in runs[1:]:
            assert_same_run(run, runs[0].values, runs[0].counts, 0)
        # the slab width follows the core count, and each slab is one histogram: at
        # every count, each slab's is merged once, and O(log slabs) merges sort
        assert len({len(blocks) for blocks in slabs}) > 1
        for calls, blocks in zip(merges, slabs):
            assert sum(blocks) == 17
            assert sum(calls) - len(calls) == len(blocks)
            assert len(calls) <= np.log2(len(blocks)) + 2

    def test_block_memory_does_not_grow_with_rounds(self):
        # one 4096-trial block; 2000 rounds of readings at once would be 131 MB
        assert traced_peak(lambda: simulate_game(walk(), 0.0, 2000, 4096, seed=1)) < 8 << 20

    def test_run_memory_does_not_grow_with_trials(self):
        # a million trials of a +-1 walk end on 5 states; per-trial finals alone are 8 MB
        assert traced_peak(lambda: simulate_game(walk(), 0.0, 2, 10**6, seed=1)) < 8 << 20

    def test_same_seed_same_run(self):
        a = simulate_game(walk(), 0.0, 4, 5000, seed=7)
        b = simulate_game(walk(), 0.0, 4, 5000, seed=7)
        assert_same_run(a, b.values, b.counts, b.frozen_total)


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
    paths = all_paths(assignment.m, assignment.n)
    radices = np.prod(np.sqrt(spec.noise.probs)[paths], axis=1)
    out = np.zeros(grid.size, dtype=complex)
    for path, amp in zip(paths, radices * np.exp(1j * assignment.phases)):
        cur = np.arange(grid.size)
        for label in path:
            cur = table[label, cur]
        np.add.at(out, cur, amp * psi0)
    return out


def path_sum(grid, psi0, steps):
    """The exact path sum of the +-1 walk at zero phases."""
    assignment = PhaseAssignment(2, steps, np.zeros(2**steps))
    return amplitude_propagate(walk(), grid, psi0, steps, phases=assignment, boundary="wrap")


def per_label_transfer(spec, grid, psi0, steps, theta):
    """Oracle: the one-step transfer matrix applied label by label."""
    table = _image_table(spec, grid, "wrap")
    weights = np.sqrt(spec.noise.probs) * np.exp(1j * theta)
    psi = np.asarray(psi0, dtype=complex)
    for _ in range(steps):
        nxt = np.zeros(grid.size, dtype=complex)
        for j in range(spec.noise.m):
            np.add.at(nxt, (table[j],), weights[j] * psi)
        psi = nxt
    return psi


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
        # one phase per label, added at every step; a (steps, M) table is refused
        theta = np.array([0.0, np.pi / 2])
        psi1 = amplitude_propagate(spec, grid, psi0, 1, phases=theta, boundary="wrap")
        left = grid.snap_index(-1.0)
        right = grid.snap_index(1.0)
        assert psi1[left] == pytest.approx(np.sqrt(0.5), abs=1e-12)
        assert psi1[right] == pytest.approx(np.sqrt(0.5) * 1j, abs=1e-12)
        with pytest.raises(DimensionMismatch, match=r"shape \(2,\)"):
            amplitude_propagate(spec, grid, psi0, 1, phases=theta[None], boundary="wrap")

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
        lifted = lift_phases(PhaseAssignment(m, 1, theta), steps)
        path_sum = amplitude_propagate(spec, grid, psi0, steps, phases=lifted, boundary="wrap")
        transfer = amplitude_propagate(spec, grid, psi0, steps, phases=theta, boundary="wrap")
        assert np.max(np.abs(path_sum - transfer)) <= 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_one_scatter_per_step_equals_the_per_label_oracle(self, seed):
        rng = np.random.default_rng(seed)
        spec = random_game(rng, make_map("linear", slope=float(rng.choice([1.0, -1.0, 2.0]))))
        grid = integer_grid(int(rng.integers(3, 10)))
        psi0 = rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size)
        psi0[rng.random(grid.size) < 0.5] = 0.0  # possibly every node
        psi0[rng.random(grid.size) < 0.2] = -0.0
        theta = rng.uniform(-np.pi, np.pi, spec.noise.m)
        steps = int(rng.integers(0, 7))
        got = amplitude_propagate(spec, grid, psi0, steps, phases=theta, boundary="wrap")
        want = per_label_transfer(spec, grid, psi0, steps, theta)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_support_started_path_sum_equals_the_full_start_walk(self, seed):
        rng = np.random.default_rng(seed)
        spec = random_game(rng, make_map("identity"))
        grid = integer_grid(int(rng.integers(3, 10)))
        # up to 8 steps, and at most 4^5 paths
        steps = int(rng.integers(1, {2: 9, 3: 7, 4: 6}[spec.noise.m]))
        psi0 = rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size)
        kind = rng.integers(3)  # point, sparse (possibly empty) or dense start
        if kind == 0:
            psi0 = np.zeros(grid.size, dtype=complex)
            psi0[rng.integers(grid.size)] = 1.0
        elif kind == 1:
            psi0[rng.random(grid.size) < 0.7] = 0.0
        m = spec.noise.m
        assignment = PhaseAssignment(m, steps, rng.uniform(-np.pi, np.pi, m**steps))
        path_sum = amplitude_propagate(spec, grid, psi0, steps, phases=assignment, boundary="wrap")
        assert np.array_equal(path_sum, full_start_path_sum(spec, grid, psi0, assignment))

    def test_point_start_on_1001_nodes_is_summed(self):
        # 1001 nodes x 2^14 paths, 16.4 M node-path walks, were once refused; the
        # point start's walk holds 2^14 cells, charged 24 B x 2^14 x 2
        grid = integer_grid(500)
        psi0 = np.zeros(grid.size, dtype=complex)
        psi0[grid.snap_index(0.0)] = 1.0
        phases = np.random.default_rng(14).uniform(-np.pi, np.pi, 2**14)
        assignment = PhaseAssignment(2, 14, phases)
        path_sum = amplitude_propagate(walk(), grid, psi0, 14, phases=assignment, boundary="wrap")
        assert np.array_equal(path_sum, full_start_path_sum(walk(), grid, psi0, assignment))

    @pytest.mark.parametrize("k, steps", [(1364, 16), (1220, 13), (1001, 14), (40, 20)])
    def test_path_sum_admitted(self, monkeypatch, k, steps):
        # the dense edge 24 B x 2^16 x 1365 (2.15 GB), then the dense edge of the
        # old 10^7 walk bound and inputs past it: each is charged and admitted
        grid = StateGrid.from_range(0, k - 1, k)
        monkeypatch.setattr(qal.markov, "check_dense_budget", charge_then_stop)
        with pytest.raises(Charged):
            path_sum(grid, np.ones(k, dtype=complex), steps)

    def test_path_sum_refused_before_any_term(self):
        # one node more than the dense edge: 24 B x 2^16 x 1366 is over 2 GiB
        grid = StateGrid.from_range(0, 1364, 1365)
        psi0 = np.ones(grid.size, dtype=complex)
        assignment = PhaseAssignment(2, 16, np.zeros(2**16))

        def refuse():
            need = str(24 * 2**16 * 1366)
            with capped_address_space(), pytest.raises(SizeGuardExceeded, match=need):
                amplitude_propagate(walk(), grid, psi0, 16, phases=assignment, boundary="wrap")

        assert traced_peak(refuse) < 1 << 20

    @pytest.mark.parametrize("support", [0, 1, 3])
    def test_path_sum_edge_at_a_lowered_budget(self, monkeypatch, support):
        # with the budget at the charge of 6 steps, 6 are summed and 7 refused;
        # an all-zero start is still charged its extra column
        grid = integer_grid(6)
        psi0 = np.zeros(grid.size, dtype=complex)
        psi0[:support] = 1.0

        def charge(steps):
            return 24 * 2**steps * (support + 1)

        monkeypatch.setattr(qal.grid, "KERNEL_BYTE_BUDGET", charge(6))
        assert np.any(path_sum(grid, psi0, 6)) == (support > 0)
        with pytest.raises(SizeGuardExceeded, match=str(charge(7))):
            path_sum(grid, psi0, 7)

    @pytest.mark.parametrize("m, n", [(2, 2), (3, 3)])
    def test_refuses_an_assignment_over_other_labels_or_rounds(self, m, n):
        grid = integer_grid(6)
        psi0 = np.zeros(grid.size, dtype=complex)
        psi0[grid.snap_index(0.0)] = 1.0
        assignment = PhaseAssignment(m, n, np.zeros(m**n))
        with pytest.raises(DimensionMismatch, match=rf"covers {m}\^{n} paths, not 2\^3"):
            amplitude_propagate(walk(), grid, psi0, 3, phases=assignment, boundary="wrap")

    def test_coherent_pipeline_builds_no_label_rows(self, monkeypatch):
        # the random-walk game of the coherent benchmark job, 6 steps on 13 wrapped nodes
        def forbidden(*args):
            raise AssertionError("an (M^N, N) label array was built")

        monkeypatch.setattr(qal.paths, "all_paths", forbidden)
        monkeypatch.setattr(qal.markov, "all_paths", forbidden, raising=False)
        grid = integer_grid(6)
        psi0 = np.zeros(grid.size, dtype=complex)
        psi0[grid.snap_index(0.0)] = 1.0
        constraints = endpoint_constraints(walk(), grid, 0.0, 6, boundary="wrap")
        assignment, report = solve_phases(constraints, restarts=1, seed=0)
        psi = amplitude_propagate(walk(), grid, psi0, 6, phases=assignment, boundary="wrap")
        assert report.feasible and np.all(np.isfinite(psi))


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

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_pairs_equal_the_per_node_scan(self, seed):
        # from every endpoint distinct (few steps, wide grid) to many paths a node
        rng = np.random.default_rng(seed)
        spec = triple_walk()
        extent = int(rng.integers(1, 4000))
        grid = integer_grid(extent)
        steps = int(rng.integers(1, 13))
        x0 = float(rng.integers(-extent, extent + 1))
        ends = _path_ends(_image_table(spec, grid, "wrap"), np.array([grid.snap_index(x0)]), steps)
        pair_i, pair_j = per_node_pairs(ends.ravel())
        constraints = endpoint_constraints(spec, grid, x0, steps, boundary="wrap")
        assert np.array_equal(constraints.pair_i, pair_i)
        assert np.array_equal(constraints.pair_j, pair_j)

    def test_all_distinct_endpoints_give_no_pairs(self):
        # 10 steps of x -> 3x +- 1 from 0 end within +-(3^10 - 1)/2, all apart
        grid = integer_grid(3**10)
        constraints = endpoint_constraints(triple_walk(), grid, 0.0, 10, boundary="wrap")
        assert len(constraints) == constraints.n_groups == 0

    @staticmethod
    def forbid_pair_arrays(monkeypatch):
        # endpoint_constraints calls np.repeat only past its pair charge, to lay out the pairs
        def forbidden(*args, **kwargs):
            raise AssertionError("a pair array was built")

        monkeypatch.setattr(np, "repeat", forbidden)

    def test_largest_one_endpoint_set_is_admitted(self, monkeypatch):
        # all 2^12 paths of a still walk share their endpoint: 80 B x 8.4 M pairs
        # (0.67 GB) is admitted; the pair charge, once it passes, ends the call
        def stop_at_pairs(rows, cols, bytes_per_entry, what):
            if what == "phase constraints":
                assert rows == 2**12 * (2**12 - 1) // 2
                charge_then_stop(rows, cols, bytes_per_entry, what)
            qal.grid.check_dense_budget(rows, cols, bytes_per_entry, what)

        monkeypatch.setattr(qal.markov, "check_dense_budget", stop_at_pairs)
        self.forbid_pair_arrays(monkeypatch)
        with pytest.raises(Charged):
            endpoint_constraints(still_walk(), integer_grid(3), 0.0, 12)

    @pytest.mark.parametrize("steps", [0, -1])
    def test_fewer_than_one_round_refused_before_the_image_table(self, monkeypatch, steps):
        def no_table(*args):
            raise AssertionError("image table built")

        monkeypatch.setattr(qal.markov, "_image_table", no_table)
        with pytest.raises(ValueError, match="need at least one round"):
            endpoint_constraints(walk(), integer_grid(4), 0.0, steps)

    def test_walk_charged_before_walking(self):
        # 48 B x 2^40 label paths, refused before any end node exists
        def refuse():
            with capped_address_space(), pytest.raises(SizeGuardExceeded, match=str(48 * 2**40)):
                endpoint_constraints(walk(), integer_grid(3), 0.0, 40, boundary="wrap")

        assert traced_peak(refuse) < 1 << 20

    def test_refused_from_endpoint_counts(self, monkeypatch):
        # 2^13 paths on one endpoint: 80 B x 33.6 M pairs is 2.7 GB
        self.forbid_pair_arrays(monkeypatch)
        need = PAIR_BYTES * (2**13 * (2**13 - 1) // 2)
        with capped_address_space(), pytest.raises(SizeGuardExceeded, match=str(need)):
            endpoint_constraints(still_walk(), integer_grid(3), 0.0, 13)

    @pytest.mark.parametrize("steps", [6, 7])
    def test_byte_guard_edge_at_a_lowered_budget(self, monkeypatch, steps):
        # with the budget at PAIR_BYTES x C(64, 2), 6 steps are built and 7 refused
        monkeypatch.setattr(qal.grid, "KERNEL_BYTE_BUDGET", PAIR_BYTES * (64 * 63 // 2))
        pairs = 2**steps * (2**steps - 1) // 2
        if steps == 6:
            assert len(endpoint_constraints(still_walk(), integer_grid(3), 0.0, steps)) == pairs
            return
        self.forbid_pair_arrays(monkeypatch)

        def refuse():
            need = str(PAIR_BYTES * pairs)
            with capped_address_space(), pytest.raises(SizeGuardExceeded, match=need):
                endpoint_constraints(still_walk(), integer_grid(3), 0.0, steps)

        assert traced_peak(refuse) < 1 << 20


def per_node_pairs(ends):
    """Oracle: each node's paths found by a scan of all end nodes, paired lexicographically."""
    groups = (np.flatnonzero(ends == node) for node in np.unique(ends))
    pairs = [g[np.array(np.triu_indices(g.size, k=1))] for g in groups]
    return np.concatenate(pairs, axis=1)


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
        with pytest.raises(SizeGuardExceeded):
            joint_path_density(walk(), integer_grid(3), 0.0, 23, boundary="wrap")

    @pytest.mark.parametrize("steps", [22, 23])
    def test_byte_guard_edge(self, steps):
        # 16 B x 2^22 x 22 = 1.48 GB is admitted and 16 B x 2^23 x 23 = 3.09 GB
        # is not; a zero gain lands both labels on one node, so the admitted
        # walk holds a single row and the guard is all that is tested
        still = still_walk()
        need = 16 * 2**steps * steps

        def build():
            with capped_address_space():
                if need <= KERNEL_BYTE_BUDGET:
                    density = joint_path_density(still, integer_grid(3), 0.0, steps)
                    assert density.sequences.shape == (1, steps)
                else:
                    with pytest.raises(SizeGuardExceeded, match=str(need)):
                        joint_path_density(still, integer_grid(3), 0.0, steps)

        assert traced_peak(build) < 1 << 20

    def test_build_memory_is_the_table(self):
        # 2^16 sequences of 16 nodes: an 8 MB table, and at most as much again to
        # build it, within the 16 B a cell that the byte guard charges
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
