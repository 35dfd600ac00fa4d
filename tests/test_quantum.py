"""Transfer-matrix propagation, reference solver, and analytic oracles."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qal.quantum
from memory_guards import capped_address_space, traced_peak
from qal.errors import PhaseWrapGuard, SizeGuardExceeded
from qal.grid import CHUNK_VALUES, StateGrid
from qal.quantum import (
    ParticleParams,
    WaveState,
    _aligned_l2_distance,
    _chebyshev_terms,
    apodization_study,
    build_kernel,
    convergence_study,
    free_gaussian_width,
    momentum_transform,
    propagate,
    reference_solver,
    roughness_scan,
    uncertainty_product,
)
from test_grid import CORE_COUNTS, usable_cores

SQRT_1_25 = 1.118033988749895  # free Gaussian width at t=1 for m=alpha=sigma0=1


def make_grid(extent, dx):
    n = int(round(2 * extent / dx))
    return StateGrid(np.arange(n) * dx - extent)


class TestKernel:
    def test_free_kernel_unitary(self):
        grid = make_grid(10.0, 0.1)
        kern = build_kernel(ParticleParams(eps=1e-3), grid)
        gram = kern.matrix.conj().T @ kern.matrix
        assert np.max(np.abs(gram - np.eye(grid.size))) <= 1e-8

    def test_plane_wave_eigenfunction(self):
        grid = make_grid(10.0, 0.1)
        params = ParticleParams(eps=2e-3)
        kern = build_kernel(params, grid)
        kq = grid.wavenumbers()[11]
        wave = np.exp(1j * kq * grid.nodes)
        out = kern.apply(wave)
        expected = wave * np.exp(-1j * params.eps * params.alpha * kq**2 / 2.0)
        assert np.max(np.abs(out - expected)) <= 1e-8

    def test_harmonic_kernel_is_free_times_diagonal_phase(self):
        grid = make_grid(8.0, 0.1)
        params = ParticleParams(eps=1e-3, potential="harmonic", omega=1.0)
        free = build_kernel(dataclasses.replace(params, potential="free"), grid)
        harm = build_kernel(params, grid)
        phase = np.exp(-1j * params.eps * grid.nodes**2 / 2.0)
        assert np.allclose(harm.matrix, free.matrix * phase[None, :], atol=1e-14)

    def test_phase_wrap_guard(self):
        grid = make_grid(8.0, 0.1)
        params = ParticleParams(eps=0.2, potential="harmonic", omega=10.0)
        with pytest.raises(PhaseWrapGuard):
            build_kernel(params, grid)

    def test_gaussian_apodization_damps_modes(self):
        grid = make_grid(8.0, 0.1)
        params = ParticleParams(eps=1e-2, apodization="gaussian", sigma_y=0.5)
        kern = build_kernel(params, grid)
        plain = build_kernel(dataclasses.replace(params, apodization="none"), grid)
        k = grid.wavenumbers()
        y = params.eps * (params.alpha * k**2 / 2.0 - params.e0) / params.alpha
        expected = plain.symbol * np.exp(-(y**2) / (4.0 * params.sigma_y**2))
        assert np.allclose(kern.symbol, expected, atol=1e-14)

    def test_damping_approaches_one_for_small_eps(self):
        offsets = np.linspace(-5.0, 5.0, 11)  # bounded energy offsets
        for eps in (1e-1, 1e-2, 1e-3, 1e-4):
            params = ParticleParams(eps=eps, apodization="gaussian", sigma_y=1.0)
            damping = params.apodization_factor(eps * offsets / params.alpha)
            assert np.all(damping <= 1.0)
            assert np.max(np.abs(damping - 1.0)) <= (eps * 5.0) ** 2 / 4.0

    def test_window_apodization_clips(self):
        params = ParticleParams(apodization="window", window=2.0)
        factor = params.apodization_factor(np.array([-1.5, -0.5, 0.0, 0.5, 1.5]))
        assert np.array_equal(factor, [0.0, 1.0, 1.0, 1.0, 0.0])


def kernel_parts(params, grid):
    """Potential, bare symbol and phase, kinetic energy and circulant offsets."""
    v = params.potential_values(grid)
    k = grid.wavenumbers()
    symbol = np.exp(-1j * params.eps * params.alpha * k**2 / (2.0 * params.mass))
    vphase = np.exp(-1j * params.eps * v / params.alpha)
    kinetic = (params.alpha * k) ** 2 / (2.0 * params.mass)
    offsets = (np.arange(grid.size)[:, None] - np.arange(grid.size)[None, :]) % grid.size
    return v, symbol, vphase, kinetic, offsets


def eager_matrix(params, grid):
    """Oracle: the dense entries built up front, the damped symbol's circulant
    columns times the damped potential phase on the source node."""
    v, symbol, vphase, kinetic, offsets = kernel_parts(params, grid)
    if params.apodization == "none":
        return np.fft.ifft(symbol)[offsets] * vphase[None, :]
    y = params.eps * (kinetic - params.e0) / params.alpha
    column = np.fft.ifft(symbol * params.apodization_factor(y))
    damped = vphase * params.apodization_factor(params.eps * v / params.alpha)
    return column[offsets] * damped[None, :]


def joint_matrix(params, grid):
    """Oracle: the joint apodization, every mode damped at its phase-space
    energy offset eps (p^2/2m + V(x) - E0) / alpha at each source node x."""
    v, symbol, vphase, kinetic, offsets = kernel_parts(params, grid)
    y = params.eps * (kinetic[:, None] + v[None, :] - params.e0) / params.alpha
    columns = np.fft.ifft(symbol[:, None] * params.apodization_factor(y), axis=0)
    return columns[offsets, np.arange(grid.size)[None, :]] * vphase[None, :]


KERNEL_CASES = {
    "plain": ParticleParams(eps=1e-3),
    "free-gaussian": ParticleParams(eps=1e-2, apodization="gaussian", sigma_y=0.5),
    "free-window": ParticleParams(eps=1e-2, apodization="window", window=2.0),
    "harmonic": ParticleParams(eps=1e-3, potential="harmonic", omega=1.0),
    "harmonic-gaussian": ParticleParams(
        eps=1e-2, potential="harmonic", apodization="gaussian", sigma_y=0.5
    ),
    # clips high modes and, on the 6.0 test grid, the outer nodes
    "harmonic-window": ParticleParams(
        eps=1e-2, potential="harmonic", apodization="window", window=0.2
    ),
}


def big_grid(size):
    return StateGrid(np.linspace(-10.0, 10.0, size, endpoint=False))


class TestLazyKernel:
    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_matrix_bitwise_equals_eager_construction(self, case):
        params = KERNEL_CASES[case]
        grid = make_grid(6.0, 0.1)
        kern = build_kernel(params, grid)
        assert "matrix" not in vars(kern)  # dense only when read
        assert np.array_equal(kern.matrix, eager_matrix(params, grid))
        assert kern.matrix is kern.matrix

    @pytest.mark.parametrize(
        "case", ["plain", "free-gaussian", "harmonic", "harmonic-gaussian", "harmonic-window"]
    )
    def test_convolution_build_is_linear_in_memory(self, case):
        grid = big_grid(4001)
        kernels = []
        peak = traced_peak(lambda: kernels.append(build_kernel(KERNEL_CASES[case], grid)))
        assert peak < 1 << 20
        assert "matrix" not in vars(kernels[0])

    def test_dense_view_refused_over_budget_before_allocating(self):
        kern = build_kernel(KERNEL_CASES["plain"], big_grid(20001))

        def read_matrix():
            with capped_address_space(), pytest.raises(
                SizeGuardExceeded, match=str(24 * 20001**2)
            ):
                kern.matrix

        assert traced_peak(read_matrix) < 1 << 20
        assert "matrix" not in vars(kern)
        assert np.all(np.isfinite(kern.apply(np.ones(20001))))  # the FFT path still runs


class TestSeparableApodization:
    @staticmethod
    def trap(eps, shape, **kwargs):
        return ParticleParams(eps=eps, potential="harmonic", omega=1.0, apodization=shape, **kwargs)

    def test_gaussian_agrees_with_the_joint_kernel_to_first_order(self):
        grid = StateGrid.from_range(-10.0, 10.0, 401)
        psi0 = WaveState.gaussian(grid, sigma=1.0)
        distances = []
        for eps in (4e-3, 2e-3, 1e-3):
            params = self.trap(eps, "gaussian", sigma_y=1.0)
            steps = int(round(1.0 / eps))
            split = propagate(psi0, params, steps).state.values
            joint, values = joint_matrix(params, grid), psi0.values
            for _ in range(steps):
                values = joint @ values
            joint_state = WaveState(grid, values).normalized()
            distances.append(_aligned_l2_distance(split, joint_state.values, grid.dx))
        assert distances[0] / distances[1] == pytest.approx(2.0, rel=0.05)
        assert distances[1] / distances[2] == pytest.approx(2.0, rel=0.05)

    def test_window_trap_kernel_is_a_contraction(self):
        grid = StateGrid.from_range(-20.0, 20.0, 801)
        psi0 = WaveState.gaussian(grid, sigma=1.0)
        params = self.trap(1e-3, "window", window=2.0)
        result = propagate(psi0, params, 1000)
        plain = propagate(psi0, dataclasses.replace(params, apodization="none"), 1000)
        assert result.accumulated_norm <= 1.0 + 1e-12
        assert _aligned_l2_distance(result.state.values, plain.state.values, grid.dx) <= 1e-8


class TestClosedFormPower:
    @staticmethod
    def stepped(params, grid, steps):
        kern = build_kernel(params, grid)
        values = WaveState.gaussian(grid, center=0.5, sigma=0.7, momentum=1.0).values
        for _ in range(steps):
            values = kern.apply(values)
        raw = WaveState(grid, values)
        return raw.normalized().values, raw.norm()

    @pytest.mark.parametrize("case", ["plain", "free-gaussian"])
    def test_free_kernel_power_matches_step_loop(self, case):
        params = KERNEL_CASES[case]
        grid = make_grid(8.0, 0.05)
        psi0 = WaveState.gaussian(grid, center=0.5, sigma=0.7, momentum=1.0)
        result = propagate(psi0, params, 400)
        values, norm = self.stepped(params, grid, 400)
        assert np.max(np.abs(result.state.values - values)) <= 1e-12
        assert result.accumulated_norm == pytest.approx(norm, rel=1e-12)

    def test_harmonic_plain_keeps_the_step_loop_bitwise(self):
        params = KERNEL_CASES["harmonic"]
        grid = make_grid(8.0, 0.05)
        psi0 = WaveState.gaussian(grid, center=0.5, sigma=0.7, momentum=1.0)
        result = propagate(psi0, params, 200)
        values, norm = self.stepped(params, grid, 200)
        assert np.array_equal(result.state.values, values)
        assert result.accumulated_norm == norm


class TestPropagate:
    def test_free_gaussian_spreading(self):
        grid = make_grid(20.0, 0.05)
        params = ParticleParams(eps=1e-3)
        psi0 = WaveState.gaussian(grid, sigma=1.0)
        result = propagate(psi0, params, 1000)
        assert result.state.sigma_x() == pytest.approx(SQRT_1_25, abs=1e-3)
        assert result.accumulated_norm == pytest.approx(1.0, abs=1e-10)

    def test_harmonic_coherent_center(self):
        grid = make_grid(16.0, 0.05)
        params = ParticleParams(eps=1e-3, potential="harmonic", omega=1.0)
        kern = build_kernel(params, grid)
        state = WaveState.gaussian(grid, center=1.0, sigma=np.sqrt(0.5))
        values = state.values
        worst = 0.0
        for block in range(10):
            for _ in range(628):
                values = kern.apply(values)
            t = (block + 1) * 628 * params.eps
            mean = WaveState(grid, values).mean_x()
            worst = max(worst, abs(mean - np.cos(t)))
        assert worst <= 1e-3

    def test_plane_wave_modulus_unchanged(self):
        grid = make_grid(10.0, 0.1)
        params = ParticleParams(eps=1e-3)
        kq = grid.wavenumbers()[5]
        psi0 = WaveState(grid, np.exp(1j * kq * grid.nodes)).normalized()
        result = propagate(psi0, params, 200)
        assert np.allclose(
            np.abs(result.state.values), np.abs(psi0.values), atol=1e-10
        )

    def test_apodized_propagation_records_norm_loss(self):
        grid = make_grid(8.0, 0.05)
        params = ParticleParams(eps=4e-3, apodization="gaussian", sigma_y=0.2)
        psi0 = WaveState.gaussian(grid, sigma=1.0)
        result = propagate(psi0, params, 50)
        assert result.accumulated_norm < 1.0
        assert result.state.norm() == pytest.approx(1.0, abs=1e-10)


def eigh_reference(psi0, params, total_time):
    """Oracle: exp(-iHt/alpha) psi0 from one dense ``eigh`` of the grid
    Hamiltonian H = F^-1 diag(alpha^2 k^2 / 2m) F + diag(V)."""
    grid = psi0.grid
    kinetic = (params.alpha * grid.wavenumbers()) ** 2 / (2.0 * params.mass)
    offsets = (np.arange(grid.size)[:, None] - np.arange(grid.size)[None, :]) % grid.size
    hamiltonian = np.fft.ifft(kinetic).real[offsets] + np.diag(params.potential_values(grid))
    energies, modes = np.linalg.eigh(hamiltonian)
    rotation = np.exp(-1j * energies * total_time / params.alpha)
    return modes @ (rotation * (modes.T @ psi0.values))


def expansion_terms(params, grid, total_time):
    """Terms the expansion takes: tau is half the width of H's spectral interval
    [min V, max kinetic + max V], times t / alpha."""
    kinetic = (params.alpha * grid.wavenumbers()) ** 2 / (2.0 * params.mass)
    v = params.potential_values(grid)
    half = 0.5 * (np.max(kinetic) + np.max(v) - np.min(v))
    return _chebyshev_terms(half * total_time / params.alpha)


class TestReferenceSolver:
    def test_norm_conserved_long_run(self):
        grid = make_grid(10.0, 0.1)
        params = ParticleParams(potential="harmonic", omega=1.0)
        psi0 = WaveState.gaussian(grid, center=0.5, sigma=1.0)
        out = reference_solver(psi0, params, 1.0)
        assert abs(out.norm() - 1.0) <= 1e-10

    def test_free_gaussian_width(self):
        grid = make_grid(20.0, 0.05)
        params = ParticleParams(eps=1e-3)
        psi0 = WaveState.gaussian(grid, sigma=1.0)
        out = reference_solver(psi0, params, 1.0)
        assert out.sigma_x() == pytest.approx(SQRT_1_25, abs=1e-4)

    def test_transfer_matrix_converges_to_reference(self):
        grid = make_grid(16.0, 0.05)
        params = ParticleParams(potential="harmonic", omega=1.0)
        factory = lambda g: WaveState.gaussian(g, center=1.0, sigma=np.sqrt(0.5))
        report = convergence_study(params, grid, factory, 0.5, [4e-3, 2e-3, 1e-3])
        errors = [p.l2_error for p in report.points]
        assert errors[0] < errors[1] < errors[2]  # points sorted by eps ascending
        assert report.fitted_order >= 0.9

    @pytest.mark.parametrize("ladder", [[1e-3], [1e-3, 1e-3]])
    def test_one_distinct_eps_is_refused_before_the_reference_solve(self, monkeypatch, ladder):
        def solve(*args):
            raise AssertionError("the reference solve ran")

        monkeypatch.setattr(qal.quantum, "reference_solver", solve)
        grid = make_grid(16.0, 0.05)
        params = ParticleParams(potential="harmonic", omega=1.0)
        factory = lambda g: WaveState.gaussian(g, center=1.0, sigma=np.sqrt(0.5))
        with pytest.raises(ValueError, match="at least two distinct eps values"):
            convergence_study(params, grid, factory, 0.5, ladder)


class TestExactReference:
    def test_free_packet_matches_the_symbol_power(self):
        grid = make_grid(20.0, 0.05)
        params = ParticleParams(eps=1e-3)
        psi0 = WaveState.gaussian(grid, center=0.5, sigma=1.0, momentum=1.0)
        out = reference_solver(psi0, params, 1000 * params.eps)
        symbol = build_kernel(params, grid).symbol
        expected = np.fft.ifft(symbol**1000 * np.fft.fft(psi0.values))
        assert np.max(np.abs(out.values - expected)) <= 1e-12

    @given(
        size=st.integers(16, 300),
        extent=st.floats(4.0, 20.0),
        potential=st.sampled_from(["free", "harmonic"]),
        alpha=st.floats(0.5, 2.0),
        mass=st.floats(0.5, 2.0),
        omega=st.floats(0.2, 2.0),
        time=st.floats(1e-3, 0.5),
        packet=st.tuples(st.floats(-0.5, 0.5), st.floats(0.01, 0.3), st.floats(-5.0, 5.0)),
    )
    @settings(max_examples=40, deadline=None)
    def test_expansion_matches_the_oracle(
        self, size, extent, potential, alpha, mass, omega, time, packet
    ):
        grid = StateGrid.from_range(-extent, extent, size)
        params = ParticleParams(mass=mass, alpha=alpha, potential=potential, omega=omega)
        center, width, momentum = packet
        psi0 = WaveState.gaussian(grid, center * extent, width * extent, momentum, alpha)
        out = reference_solver(psi0, params, time).values
        if potential == "free":
            # H is diagonal in the Fourier basis; eigh's own round-off on the
            # degenerate +-k pairs reached 1.2e-15 x terms in 1 of 762 cases
            kinetic = (alpha * grid.wavenumbers()) ** 2 / (2.0 * mass)
            expected = np.fft.ifft(np.exp(-1j * kinetic * time / alpha) * np.fft.fft(psi0.values))
        else:
            expected = eigh_reference(psi0, params, time)
        terms = expansion_terms(params, grid, time)
        assert np.max(np.abs(out - expected)) <= 1e-15 * terms * np.max(np.abs(psi0.values))

    def test_harmonic_norm_conserved(self):
        grid = make_grid(16.0, 0.05)
        params = ParticleParams(potential="harmonic", omega=1.0)
        psi0 = WaveState.gaussian(grid, center=1.0, sigma=np.sqrt(0.5))
        out = reference_solver(psi0, params, 10.0)
        assert abs(out.norm() - 1.0) <= 1e-12

    def test_error_is_first_order_in_criterion_08_setting(self):
        grid = StateGrid.from_range(-16.0, 16.0, 641)
        params = ParticleParams(potential="harmonic", omega=1.0)
        factory = lambda g: WaveState.gaussian(g, center=1.0, sigma=np.sqrt(0.5))
        report = convergence_study(params, grid, factory, 0.5, [4e-3, 2e-3, 1e-3])
        errors = [p.l2_error for p in report.points]
        assert errors[1] / errors[0] == pytest.approx(2.0, rel=0.02)
        assert errors[2] / errors[1] == pytest.approx(2.0, rel=0.02)

    def test_refused_over_budget_before_allocating(self):
        grid = big_grid(20001)
        psi0 = WaveState(grid, np.ones(grid.size))
        params = ParticleParams(potential="harmonic", omega=1.0)

        def solve():
            # tau = 1.23e6: 1 235 181 complex vectors of 20001 nodes, 395 GB
            with capped_address_space(), pytest.raises(
                SizeGuardExceeded, match=f"{16 * 1235181 * 20001} bytes for 1235181×20001"
            ):
                reference_solver(psi0, params, 0.5)

        assert traced_peak(solve) < 1 << 20


def inverse_momentum_transform(p, phi, grid, alpha):
    """Oracle: the inverse of :func:`momentum_transform`; composes to the identity."""
    k = grid.wavenumbers()
    order = np.argsort(alpha * k, kind="stable")
    f = np.empty(grid.size, dtype=complex)
    f[order] = phi * np.sqrt(2.0 * np.pi * alpha) / grid.dx * np.exp(1j * k[order] * grid.x0)
    return np.fft.ifft(f)


class TestMomentumTransform:
    def test_round_trip_identity(self):
        grid = make_grid(10.0, 0.1)
        rng = np.random.default_rng(3)
        psi = WaveState(
            grid, rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size)
        ).normalized()
        p, phi = momentum_transform(psi, alpha=1.3)
        back = inverse_momentum_transform(p, phi, grid, alpha=1.3)
        assert np.max(np.abs(back - psi.values)) <= 1e-10

    def test_parseval(self):
        grid = make_grid(10.0, 0.1)
        psi = WaveState.gaussian(grid, sigma=0.8, momentum=1.0, alpha=2.0)
        p, phi = momentum_transform(psi, alpha=2.0)
        dp = p[1] - p[0]
        assert np.sum(np.abs(phi) ** 2) * dp == pytest.approx(1.0, abs=1e-10)

    def test_shift_theorem(self):
        grid = make_grid(12.0, 0.05)
        alpha = 1.0
        a = 0.75
        psi = WaveState.gaussian(grid, center=0.0, sigma=1.0)
        shifted = WaveState.gaussian(grid, center=a, sigma=1.0)
        _, phi = momentum_transform(psi, alpha)
        p, phi_shifted = momentum_transform(shifted, alpha)
        assert np.allclose(np.abs(phi_shifted), np.abs(phi), atol=1e-10)
        assert np.allclose(phi_shifted, phi * np.exp(-1j * p * a / alpha), atol=1e-8)

    def test_gaussian_pair_widths(self):
        grid = make_grid(14.0, 0.05)
        alpha = 1.7
        sigma = 0.9
        psi = WaveState.gaussian(grid, sigma=sigma, alpha=alpha)
        p, phi = momentum_transform(psi, alpha)
        dp = p[1] - p[0]
        w = np.abs(phi) ** 2 * dp
        w = w / w.sum()
        sigma_p = np.sqrt(np.sum(p**2 * w))
        assert sigma_p == pytest.approx(alpha / (2.0 * sigma), abs=1e-6)


class TestUncertainty:
    def test_gaussian_reaches_the_floor(self):
        for alpha in (1.0, 2.5):
            grid = make_grid(14.0, 0.05)
            psi = WaveState.gaussian(grid, sigma=0.8, alpha=alpha)
            assert uncertainty_product(psi, alpha) == pytest.approx(
                alpha / 2.0, abs=1e-6
            )

    @pytest.mark.parametrize("alpha", [0.0, -1.0])
    def test_action_scale_must_be_positive(self, alpha):
        grid = make_grid(14.0, 0.05)
        with pytest.raises(ValueError, match="alpha must be positive"):
            WaveState.gaussian(grid, sigma=0.8, alpha=alpha)
        psi = WaveState.gaussian(grid, sigma=0.8)
        with pytest.raises(ValueError, match="alpha must be positive"):
            uncertainty_product(psi, alpha)

    def test_floor_over_random_superpositions(self):
        grid = make_grid(16.0, 0.05)
        alpha = 1.0
        rng = np.random.default_rng(7)
        components = [(0.0, 1.0, 0.0), (1.5, 0.6, 2.0), (-2.0, 1.2, -1.0), (0.5, 0.8, 3.0)]
        for _ in range(100):
            coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
            values = np.zeros(grid.size, dtype=complex)
            for c, (center, sigma, mom) in zip(coeffs, components):
                values += c * WaveState.gaussian(grid, center, sigma, mom, alpha).values
            state = WaveState(grid, values).normalized()
            assert uncertainty_product(state, alpha) >= alpha / 2.0 - 1e-6

    def test_scale_covariance(self):
        # x -> lam*x rescaling leaves the product unchanged
        alpha = 1.0
        lam = 1.5

        def sampled(lam_factor):
            grid = make_grid(16.0, 0.02)
            x = grid.nodes * lam_factor
            f = np.exp(-((x - 0.3) ** 2) / 2.0) + 0.5 * np.exp(
                -((x + 1.0) ** 2) / 1.4 + 1j * x
            )
            return WaveState(grid, np.sqrt(lam_factor) * f).normalized()

        base = uncertainty_product(sampled(1.0), alpha)
        scaled = uncertainty_product(sampled(lam), alpha)
        assert scaled == pytest.approx(base, abs=1e-8)


def whole_array_scan(params, eps_values, *, n_steps, n_samples, seed, mode="quantum"):
    """Oracle: the roughness scan holding every sampled path at once."""
    streams = np.random.SeedSequence(seed).spawn(len(eps_values))
    means = []
    for eps, stream in zip(eps_values, streams):
        if mode == "classical":
            xs = (eps * np.arange(n_steps + 1))[None, :]
            increments = np.empty((1, n_steps))
        else:
            rng = np.random.default_rng(stream)
            scale = np.sqrt(eps * params.alpha / params.mass)
            increments = rng.normal(0.0, scale, size=(n_samples, n_steps))
            xs = np.zeros((n_samples, n_steps + 1))
            np.cumsum(increments, axis=1, out=xs[:, 1:])
        np.subtract(xs[:, 1:], xs[:, :-1], out=increments)
        means.append(float(np.mean(np.square(increments, out=increments))))
    return means


def chunk_rows(n_steps):
    """Paths one chunk holds; at n_steps = CHUNK_VALUES a single path is over budget."""
    return max(1, CHUNK_VALUES // (n_steps + 1))


# 1, rows - 1, rows, rows + 1 and 3 rows + 5 paths: single chunks, an exact
# fit, one spilled path and a ragged last chunk
STREAM_CASES = sorted(
    {
        (n_steps, n_samples)
        for n_steps in (1, 64, CHUNK_VALUES)
        for rows in [chunk_rows(n_steps)]
        for n_samples in (1, rows - 1, rows, rows + 1, 3 * rows + 5)
        if n_samples >= 1
    }
)


class TestRoughness:
    @pytest.mark.parametrize(
        "n_steps, n_samples", STREAM_CASES, ids=[f"{s}x{n}-continuous" for s, n in STREAM_CASES]
    )
    def test_streamed_scan_matches_the_whole_array_scan(self, n_steps, n_samples):
        params = ParticleParams(mass=0.7, alpha=1.3)
        kwargs = dict(n_steps=n_steps, n_samples=n_samples, seed=n_samples)
        eps_values = [4e-3, 1e-3]
        streamed = roughness_scan(params, eps_values, **kwargs)
        expected = whole_array_scan(params, eps_values, **kwargs)
        for point, oracle in zip(streamed.points, expected):
            if n_samples <= chunk_rows(n_steps):  # one chunk: the same sum in the same order
                assert point.mean_sq_increment == oracle
            else:  # the samples are identical; only the summation order differs
                assert abs(point.mean_sq_increment - oracle) <= 2 * np.spacing(oracle)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_steps=st.integers(1, 40),
        n_samples=st.integers(1, 300),
        eps=st.floats(1e-5, 1e-1),
    )
    @settings(max_examples=80, deadline=None)
    def test_in_place_draw_is_the_normal_draw(self, seed, n_steps, n_samples, eps):
        # one chunk: the oracle's rng.normal draws, summed in the same order
        params = ParticleParams(mass=0.7, alpha=1.3)
        kwargs = dict(n_steps=n_steps, n_samples=n_samples, seed=seed)
        report = roughness_scan(params, [eps, eps / 3], **kwargs)
        expected = whole_array_scan(params, [eps, eps / 3], **kwargs)
        assert [p.mean_sq_increment for p in report.points] == expected

    def test_classical_scan_is_the_whole_array_scan(self):
        kwargs = dict(n_steps=64, n_samples=10**6, seed=0, mode="classical")
        report = roughness_scan(ParticleParams(), [4e-3, 2e-3], **kwargs)
        expected = whole_array_scan(ParticleParams(), [4e-3, 2e-3], **kwargs)
        assert [p.mean_sq_increment for p in report.points] == expected

    @pytest.mark.parametrize(
        "mode, n_samples",
        [("quantum", 300), ("quantum", 3 * chunk_rows(64) + 17), ("classical", 300)],
        ids=["quantum-one-chunk", "quantum-four-chunks", "classical"],
    )
    def test_same_bits_at_any_core_count(self, monkeypatch, mode, n_samples):
        ladder = [8e-3, 4e-3, 2e-3, 1e-3, 5e-4]
        scans = []
        for cores in CORE_COUNTS:
            usable_cores(monkeypatch, cores)
            report = roughness_scan(
                ParticleParams(), ladder, n_steps=64, n_samples=n_samples, seed=11, mode=mode
            )
            scans.append(report.points)
        assert all(points == scans[0] for points in scans[1:])

    def test_memory_does_not_grow_with_samples(self):
        # the whole-array scan holds ~410 MB of increments and positions here
        with capped_address_space():
            report = roughness_scan(ParticleParams(), [1e-3], n_steps=64, n_samples=400_000)
        assert report.points[0].mean_sq_over_eps == pytest.approx(1.0, rel=0.01)

    @pytest.mark.parametrize("bad", [dict(n_steps=0), dict(n_samples=0)])
    def test_empty_ensemble_refused(self, bad):
        with pytest.raises(ValueError, match="at least one"):
            roughness_scan(ParticleParams(), [1e-3], **bad)

    def test_diffusive_scaling(self):
        params = ParticleParams()
        report = roughness_scan(
            params, [4e-3, 2e-3, 1e-3], n_steps=32, n_samples=10**5, seed=5
        )
        for ratio in report.ratios():
            assert 0.4 <= ratio <= 0.6
        for point in report.points:
            assert point.mean_sq_over_eps == pytest.approx(
                params.alpha / params.mass, rel=0.05
            )

    def test_classical_scaling(self):
        params = ParticleParams()
        report = roughness_scan(params, [4e-3, 2e-3], mode="classical", seed=0)
        assert report.ratios()[0] == pytest.approx(0.25, rel=1e-9)


class TestApodizationStudy:
    def test_distance_decreases_with_eps(self):
        grid = make_grid(12.0, 0.05)
        params = ParticleParams(apodization="gaussian", sigma_y=1.0)
        factory = lambda g: WaveState.gaussian(g, sigma=1.0)
        points = apodization_study(params, grid, factory, 0.2, [4e-3, 2e-3, 1e-3])
        dists = [p.l2_error for p in points]  # ascending eps
        assert dists[0] < dists[1] < dists[2]

    def test_requires_an_apodization(self):
        grid = make_grid(8.0, 0.1)
        with pytest.raises(ValueError):
            apodization_study(
                ParticleParams(), grid, lambda g: WaveState.gaussian(g), 0.1, [1e-3]
            )


def test_width_oracle_value():
    assert free_gaussian_width(1.0, 1.0, 1.0, 1.0) == pytest.approx(SQRT_1_25, abs=1e-12)
