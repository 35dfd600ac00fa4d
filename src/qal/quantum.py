"""Noisy 1D particle: amplitude transfer matrix and its exact reference.

One time step multiplies the state by a potential phase on the source node,
then by the exact Gaussian momentum integral evaluated on the periodic grid's
momentum lattice.  An optional square-root damping (apodization) of large
energy offsets multiplies each factor separately: the momentum symbol by the
weight of its kinetic offset, the potential phase by the weight of its
potential offset.  Every kernel is thus a convolution times a diagonal,
applied through one FFT pair, and a contraction.  Without apodization it is
exactly unitary on the grid; its entries are the band-limited realization of
the continuum expression

    K(x', x) = sqrt(m / (2 pi i eps alpha))
               * exp(i [m (x'-x)^2 / (2 eps alpha) - eps V(x) / alpha])

which cannot be sampled pointwise at desk resolutions without aliasing.
The reference solver evolves the closed equation
``i alpha dpsi/dt = -(alpha^2/2m) psi_xx + V psi`` exactly on the same
grid, with the spectral second derivative the kernel uses, and serves as
the convergence target.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionMismatch, PhaseWrapGuard
from .grid import CHUNK_VALUES, StateGrid, check_dense_budget

__all__ = [
    "ParticleParams",
    "WaveState",
    "KernelMatrix",
    "PropagationResult",
    "PathCheckReport",
    "RoughnessPoint",
    "RoughnessReport",
    "ConvergencePoint",
    "ConvergenceReport",
    "build_kernel",
    "propagate",
    "reference_solver",
    "momentum_transform",
    "inverse_momentum_transform",
    "uncertainty_product",
    "classical_path_check",
    "roughness_scan",
    "convergence_study",
    "apodization_study",
    "free_gaussian_width",
]


@dataclass(frozen=True)
class ParticleParams:
    """Particle, step, and kernel-shaping parameters.

    ``alpha`` is the action scale (the analogue of hbar, a free parameter
    here); ``e0`` shifts the energy reference and enters only through the
    apodization argument.  ``tau`` is the characteristic fluctuation time
    eps / rms(y) of the chosen apodization shape.
    """

    mass: float = 1.0
    alpha: float = 1.0
    eps: float = 1e-3
    e0: float = 0.0
    potential: str = "free"  # "free" | "harmonic"
    omega: float = 1.0
    apodization: str = "none"  # "none" | "gaussian" | "window"
    sigma_y: float = 1.0
    window: float = 1.0

    def __post_init__(self) -> None:
        if self.mass <= 0 or self.alpha <= 0 or self.eps <= 0:
            raise ValueError("mass, alpha, and eps must be positive")
        if self.potential not in ("free", "harmonic"):
            raise ValueError(f"unknown potential {self.potential!r}")
        if self.apodization not in ("none", "gaussian", "window"):
            raise ValueError(f"unknown apodization {self.apodization!r}")
        if self.apodization == "gaussian" and self.sigma_y <= 0:
            raise ValueError("sigma_y must be positive")
        if self.apodization == "window" and self.window <= 0:
            raise ValueError("window must be positive")

    def potential_values(self, grid: StateGrid) -> np.ndarray:
        if self.potential == "free":
            return np.zeros(grid.size)
        return 0.5 * self.mass * self.omega**2 * grid.nodes**2

    def potential_gradient(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.potential == "free":
            return np.zeros_like(x)
        return self.mass * self.omega**2 * x

    def apodization_factor(self, y: np.ndarray) -> np.ndarray:
        """Square root of the bare-noise weight at scaled energy offset y."""
        y = np.asarray(y, dtype=float)
        if self.apodization == "none":
            return np.ones_like(y)
        if self.apodization == "gaussian":
            return np.exp(-(y**2) / (4.0 * self.sigma_y**2))
        return (np.abs(y) <= 0.5 * self.window).astype(float)

    @property
    def apodization_rms(self) -> float:
        if self.apodization == "gaussian":
            return float(self.sigma_y)
        if self.apodization == "window":
            return float(self.window) / (2.0 * np.sqrt(3.0))
        return float("inf")

    @property
    def tau(self) -> float:
        rms = self.apodization_rms
        return 0.0 if np.isinf(rms) else float(self.eps / rms)


@dataclass(frozen=True, eq=False)
class WaveState:
    """Complex amplitudes on a uniform grid, normalized with weight dx."""

    grid: StateGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=complex)
        if values.shape != (self.grid.size,):
            raise DimensionMismatch("state values must match the grid")
        object.__setattr__(self, "values", values)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.grid.dx))

    def normalized(self) -> "WaveState":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero state")
        return WaveState(self.grid, self.values / n)

    def density(self) -> np.ndarray:
        return np.abs(self.values) ** 2

    def mean_x(self) -> float:
        w = self.density() * self.grid.dx
        return float(np.sum(self.grid.nodes * w) / np.sum(w))

    def sigma_x(self) -> float:
        w = self.density() * self.grid.dx
        w = w / np.sum(w)
        mean = float(np.sum(self.grid.nodes * w))
        return float(np.sqrt(np.sum((self.grid.nodes - mean) ** 2 * w)))

    @classmethod
    def gaussian(
        cls,
        grid: StateGrid,
        center: float = 0.0,
        sigma: float = 1.0,
        momentum: float = 0.0,
        alpha: float = 1.0,
    ) -> "WaveState":
        """Minimum-uncertainty packet: position spread sigma, momentum kick p0."""
        if not sigma > 0.0:
            raise ValueError(f"packet width sigma must be positive, got {sigma}")
        x = grid.nodes
        envelope = np.exp(-((x - center) ** 2) / (4.0 * sigma**2))
        phase = np.exp(1j * momentum * x / alpha)
        return cls(grid, envelope * phase).normalized()


def _dense_entries(column: np.ndarray, vphase: np.ndarray) -> np.ndarray:
    """Entry (i, j) = column[(i - j) mod K] * vphase[j]."""
    source = np.arange(vphase.size)
    matrix = column[(source[:, None] - source) % vphase.size]
    matrix *= vphase
    return matrix


@dataclass(frozen=True, eq=False)
class KernelMatrix:
    """One-step propagator K = F^-1 diag(symbol) F diag(vphase) on the grid.

    Every kernel is a convolution times a diagonal: it applies through one
    FFT pair, and its dense ``matrix`` is built only when something reads it.
    """

    grid: StateGrid
    params: ParticleParams
    symbol: np.ndarray
    vphase: np.ndarray

    @property
    def apodized(self) -> bool:
        return self.params.apodization != "none"

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        # peak: int64 gather indices and the complex entries
        check_dense_budget(self.grid.size, self.grid.size, 24, "dense kernel view")
        return _dense_entries(np.fft.ifft(self.symbol), self.vphase)

    def apply(self, values: np.ndarray) -> np.ndarray:
        return np.fft.ifft(self.symbol * np.fft.fft(self.vphase * values))


def build_kernel(params: ParticleParams, grid: StateGrid) -> KernelMatrix:
    """One-step kernel from the exact momentum-lattice Gaussian integral.

    The apodization is applied separably: each momentum mode is damped by the
    square-root noise weight at its kinetic offset eps (p^2/2m - E0) / alpha,
    and each source node by the weight at its potential offset eps V / alpha.
    Both factors have modulus at most 1, so the kernel is a contraction, and
    both offsets vanish as eps shrinks at fixed mode and node, which is what
    makes the no-apodization limit attainable.  Weighting by the
    velocity-form kinetic energy m (x'-x)^2 / (2 eps^2) instead would diverge
    on the dominant rough paths and pin the propagation away from the plain
    kernel at every step size.
    """
    v = params.potential_values(grid)
    max_phase = params.eps * float(np.max(np.abs(v))) / params.alpha
    if max_phase >= np.pi:
        raise PhaseWrapGuard(
            f"per-step potential phase {max_phase:.3f} rad reaches pi; reduce eps"
        )
    k = grid.wavenumbers()
    symbol = np.exp(-1j * params.eps * params.alpha * k**2 / (2.0 * params.mass))
    vphase = np.exp(-1j * params.eps * v / params.alpha)
    kinetic = (params.alpha * k) ** 2 / (2.0 * params.mass)
    # a(0) == 1.0 exactly, so an undamped mode or node keeps its bits
    symbol *= params.apodization_factor(params.eps * (kinetic - params.e0) / params.alpha)
    vphase *= params.apodization_factor(params.eps * v / params.alpha)
    return KernelMatrix(grid, params, symbol, vphase)


@dataclass(frozen=True, eq=False)
class PropagationResult:
    """Final state, renormalized once, plus the absorbed normalization."""

    state: WaveState
    accumulated_norm: float
    steps: int


def propagate(
    psi0: WaveState,
    params: ParticleParams,
    steps: int,
) -> PropagationResult:
    """Apply the one-step kernel ``steps`` times; renormalize at the end."""
    if steps < 1:
        raise ValueError("need at least one step")
    kernel = build_kernel(params, psi0.grid)
    if np.all(kernel.vphase == 1.0):
        # a pure convolution: K^steps is the symbol to the power steps
        values = np.fft.ifft(kernel.symbol**steps * np.fft.fft(psi0.values))
    else:
        values = psi0.values
        for _ in range(steps):
            values = kernel.apply(values)
    raw = WaveState(psi0.grid, values)
    norm = raw.norm()
    return PropagationResult(state=raw.normalized(), accumulated_norm=norm, steps=steps)


def reference_solver(
    psi0: WaveState,
    params: ParticleParams,
    total_time: float,
) -> WaveState:
    """Exact evolution exp(-iHt/alpha) under the kernel's own grid Hamiltonian.

    H = F^-1 diag(alpha^2 k^2 / 2m) F + diag(V) is the real symmetric operator
    whose Trotter splitting :func:`build_kernel` implements; one ``eigh``
    diagonalizes it, so the result is exact to round-off at any total time.
    Costs O(K^3) time.
    """
    if total_time <= 0:
        raise ValueError("total time must be positive")
    grid = psi0.grid
    size = grid.size
    # peak, while eigh holds H, its LAPACK copy and workspace and the modes:
    # 45 and 41 B per entry of resident memory at K=801 and 2001
    check_dense_budget(size, size, 48, "reference Hamiltonian")
    kinetic = (params.alpha * grid.wavenumbers()) ** 2 / (2.0 * params.mass)
    hamiltonian = _dense_entries(np.fft.ifft(kinetic).real, np.ones(size))
    hamiltonian.flat[:: size + 1] += params.potential_values(grid)
    energies, modes = np.linalg.eigh(hamiltonian)
    rotation = np.exp(-1j * energies * total_time / params.alpha)
    return WaveState(grid, modes @ (rotation * (modes.T @ psi0.values)))


# ---------------------------------------------------------------------------
# momentum representation
# ---------------------------------------------------------------------------


def momentum_transform(psi: WaveState, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Scaled Fourier transform onto the grid's momentum lattice.

    Returns (p, phi) with p ascending; the convention is
    phi(p) = sum_k psi_k exp(-i p x_k / alpha) dx / sqrt(2 pi alpha),
    unitary between the dx and dp weighted norms.
    """
    grid = psi.grid
    k = grid.wavenumbers()
    f = np.fft.fft(psi.values)
    phi = grid.dx / np.sqrt(2.0 * np.pi * alpha) * np.exp(-1j * k * grid.x0) * f
    p = alpha * k
    order = np.argsort(p, kind="stable")
    return p[order], phi[order]


def inverse_momentum_transform(
    p: np.ndarray, phi: np.ndarray, grid: StateGrid, alpha: float
) -> np.ndarray:
    """Inverse of :func:`momentum_transform`; composes to the identity."""
    k = grid.wavenumbers()
    order = np.argsort(alpha * k, kind="stable")
    f = np.empty(grid.size, dtype=complex)
    f[order] = phi * np.sqrt(2.0 * np.pi * alpha) / grid.dx * np.exp(1j * k[order] * grid.x0)
    return np.fft.ifft(f)


def uncertainty_product(psi: WaveState, alpha: float) -> float:
    """Position-spread times momentum-spread from second moments."""
    sigma_x = psi.sigma_x()
    p, phi = momentum_transform(psi, alpha)
    dp = p[1] - p[0]
    w = np.abs(phi) ** 2 * dp
    w = w / np.sum(w)
    mean_p = float(np.sum(p * w))
    sigma_p = float(np.sqrt(np.sum((p - mean_p) ** 2 * w)))
    return sigma_x * sigma_p


def free_gaussian_width(sigma0: float, t: float, mass: float, alpha: float) -> float:
    """Analytic spreading oracle: sigma(t) = sigma0 sqrt(1 + (alpha t / (2 m sigma0^2))^2)."""
    return sigma0 * np.sqrt(1.0 + (alpha * t / (2.0 * mass * sigma0**2)) ** 2)


# ---------------------------------------------------------------------------
# discrete classical paths
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PathCheckReport:
    """Stationary discrete path and the residuals of its stationarity system."""

    potential: str
    eps: float
    path: np.ndarray
    momenta: np.ndarray
    force_residual: float
    gradient_residual: float
    action: float
    perturbation_ratio: float


def _phase_space_action(
    params: ParticleParams, xs: np.ndarray, ps: np.ndarray
) -> float:
    eps = params.eps
    v = 0.5 * params.mass * params.omega**2 * xs[:-1] ** 2 if params.potential == "harmonic" else np.zeros(xs.size - 1)
    terms = ps * (xs[1:] - xs[:-1]) - eps * (ps**2 / (2.0 * params.mass) + v)
    return float(np.sum(terms))


def classical_path_check(
    params: ParticleParams,
    x_start: float,
    x_end: float,
    n_steps: int,
) -> PathCheckReport:
    """Solve the fixed-endpoint stationarity system and verify it numerically.

    The discrete phase-space action is stationary when the momentum equals
    the discrete velocity and the momentum increment balances the force.
    """
    if n_steps < 2:
        raise ValueError("need at least two steps")
    eps = params.eps
    n = n_steps
    if params.potential == "free":
        xs = np.linspace(x_start, x_end, n + 1)
    else:
        # interior stationarity: x_{n+1} - (2 - eps^2 w^2) x_n + x_{n-1} = 0
        coeff = 2.0 - (eps * params.omega) ** 2
        a = np.zeros((n - 1, n - 1))
        np.fill_diagonal(a, -coeff)
        idx = np.arange(n - 2)
        a[idx, idx + 1] = 1.0
        a[idx + 1, idx] = 1.0
        rhs = np.zeros(n - 1)
        rhs[0] -= x_start
        rhs[-1] -= x_end
        interior = np.linalg.solve(a, rhs)
        xs = np.concatenate(([x_start], interior, [x_end]))
    ps = params.mass * (xs[1:] - xs[:-1]) / eps
    force = params.potential_gradient(xs[1:-1])
    force_residual = float(np.max(np.abs((ps[1:] - ps[:-1]) / eps + force)))

    action = _phase_space_action(params, xs, ps)
    # numerical stationarity: central differences over every free variable
    h = 1e-6 * max(1.0, float(np.max(np.abs(xs))))
    grads = []
    for i in range(1, n):
        bumped = xs.copy()
        bumped[i] += h
        plus = _phase_space_action(params, bumped, ps)
        bumped[i] -= 2 * h
        minus = _phase_space_action(params, bumped, ps)
        grads.append((plus - minus) / (2 * h))
    for i in range(n):
        bumped = ps.copy()
        bumped[i] += h
        plus = _phase_space_action(params, xs, bumped)
        bumped[i] -= 2 * h
        minus = _phase_space_action(params, xs, bumped)
        grads.append((plus - minus) / (2 * h))
    gradient_residual = float(np.max(np.abs(grads)))

    # perturbing the path must raise the action deviation quadratically
    bump = np.sin(np.pi * np.arange(n + 1) / n)
    eta = 1e-3
    d1 = abs(_phase_space_action(params, xs + eta * bump, ps) - action)
    d2 = abs(_phase_space_action(params, xs + 2 * eta * bump, ps) - action)
    ratio = float(d2 / d1) if d1 > 0 else float("nan")
    return PathCheckReport(
        potential=params.potential,
        eps=eps,
        path=xs,
        momenta=ps,
        force_residual=force_residual,
        gradient_residual=gradient_residual,
        action=action,
        perturbation_ratio=ratio,
    )


# ---------------------------------------------------------------------------
# path roughness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RoughnessPoint:
    eps: float
    mean_sq_increment: float
    mean_sq_over_eps: float


@dataclass(frozen=True, eq=False)
class RoughnessReport:
    mode: str
    points: tuple[RoughnessPoint, ...]

    def ratios(self) -> list[float]:
        """Successive mean-square-increment ratios along the eps ladder."""
        return [
            self.points[i + 1].mean_sq_increment / self.points[i].mean_sq_increment
            for i in range(len(self.points) - 1)
        ]


def roughness_scan(
    params: ParticleParams,
    eps_values,
    *,
    n_steps: int = 64,
    n_samples: int = 10**5,
    seed: int = 0,
    mode: str = "quantum",
    velocity: float = 1.0,
    dx: float | None = None,
    offset: float = 0.0,
) -> RoughnessReport:
    """Mean-squared step increments of sampled free-particle paths.

    Quantum mode draws increments from the Gaussian modulus envelope of the
    free step kernel (variance eps*alpha/m per step), so the statistic
    <(dx)^2>/eps stays near alpha/m and halving eps halves <(dx)^2>.
    Classical mode follows the smooth path x = offset + v t instead, whose
    increments scale as eps^2.  With ``dx`` set, positions are quantized to
    that lattice before differencing.

    Paths are drawn and reduced a bounded chunk of rows at a time, so memory
    does not grow with ``n_samples``; every drawn value is the one a single
    whole-ensemble draw returns.
    """
    if mode not in ("quantum", "classical"):
        raise ValueError("mode must be 'quantum' or 'classical'")
    if n_steps < 1 or n_samples < 1:
        raise ValueError("need at least one step and one sample")
    eps_values = [float(e) for e in eps_values]
    if not all(e > 0.0 for e in eps_values):
        raise ValueError(f"every eps must be positive, got {eps_values}")
    count = n_samples if mode == "quantum" else 1
    rows = min(count, max(1, CHUNK_VALUES // (n_steps + 1)))
    xs = np.empty((rows, n_steps + 1))
    increments = np.empty((rows, n_steps))
    streams = np.random.SeedSequence(seed).spawn(len(eps_values))
    points = []
    for eps, stream in zip(eps_values, streams):
        rng = np.random.default_rng(stream)
        scale = np.sqrt(eps * params.alpha / params.mass)
        sums = []
        for first in range(0, count, rows):
            x, inc = xs[: count - first], increments[: count - first]
            if mode == "classical":
                x[0] = offset + velocity * eps * np.arange(n_steps + 1)
            else:
                # scale * z is normal(0, scale) up to the sign of an exact zero
                np.multiply(rng.standard_normal(out=inc), scale, out=inc)
                np.cumsum(inc, axis=1, out=x[:, 1:])
                x[:, 0] = 0.0
                x += offset
            if dx is not None:
                np.divide(x, dx, out=x)
                np.rint(x, out=x)
                np.multiply(x, dx, out=x)
            np.subtract(x[:, 1:], x[:, :-1], out=inc)
            sums.append(np.sum(np.square(inc, out=inc)))
        mean_sq = math.fsum(sums) / (count * n_steps)
        points.append(RoughnessPoint(eps, mean_sq, mean_sq / eps))
    return RoughnessReport(mode=mode, points=tuple(points))


# ---------------------------------------------------------------------------
# convergence and apodization studies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvergencePoint:
    eps: float
    l2_error: float


@dataclass(frozen=True, eq=False)
class ConvergenceReport:
    points: tuple[ConvergencePoint, ...]
    fitted_order: float


def _fit_order(eps_values: np.ndarray, errors: np.ndarray) -> float:
    slope, _ = np.polyfit(np.log(eps_values), np.log(errors), 1)
    return float(slope)


def _l2_distance(a: np.ndarray, b: np.ndarray, dx: float) -> float:
    return float(np.sqrt(np.sum(np.abs(a - b) ** 2) * dx))


def _aligned_l2_distance(a: np.ndarray, b: np.ndarray, dx: float) -> float:
    """L2 distance after removing the unobservable global phase."""
    na = float(np.sum(np.abs(a) ** 2) * dx)
    nb = float(np.sum(np.abs(b) ** 2) * dx)
    overlap = abs(np.sum(np.conj(a) * b) * dx)
    return float(np.sqrt(max(na + nb - 2.0 * overlap, 0.0)))


def _steps(total_time: float, eps: float) -> int:
    steps = int(round(total_time / eps))
    if abs(steps * eps - total_time) > 1e-9 * total_time:
        raise ValueError(f"eps {eps} does not divide the total time")
    return steps


def convergence_study(
    params: ParticleParams,
    grid: StateGrid,
    state_factory,
    total_time: float,
    eps_values,
) -> ConvergenceReport:
    """Transfer-matrix error against the exact evolution on the same grid.

    The reference is :func:`reference_solver`, exp(-iHt/alpha) of the grid
    Hamiltonian the kernel splits, so each measured L2 error is the kernel's
    Trotter error alone.  Without a potential or an apodization the kernel is
    exact in time, every error is round-off and there is no order to fit, so
    that case raises :class:`ConfigError`.
    """
    if params.apodization == "none" and not np.any(params.potential_values(grid)):
        raise ConfigError("the kernel is exact in time without a potential or an apodization")
    eps_values = sorted(float(e) for e in eps_values)
    psi0 = state_factory(grid)
    ref = reference_solver(psi0, params, total_time)
    points = []
    for eps in eps_values:
        result = propagate(psi0, dataclasses.replace(params, eps=eps), _steps(total_time, eps))
        err = _l2_distance(result.state.values, ref.values, grid.dx)
        points.append(ConvergencePoint(eps, err))
    order = _fit_order(
        np.array([p.eps for p in points]), np.array([p.l2_error for p in points])
    )
    return ConvergenceReport(points=tuple(points), fitted_order=order)


def apodization_study(
    params: ParticleParams,
    grid: StateGrid,
    state_factory,
    total_time: float,
    eps_values,
) -> tuple[ConvergencePoint, ...]:
    """L2 distance between apodized and plain propagation at fixed total time.

    The apodized kernel multiplies the state by one unobservable complex
    constant per step (the analogue of the P_0^(1/2) normalization), so the
    comparison removes the global phase before measuring the distance.  The
    grid must resolve the step-kernel width sqrt(eps*alpha/m) for the damping
    to act on the physical scale.
    """
    if params.apodization == "none":
        raise ValueError("params must select an apodization to compare against")
    eps_values = sorted(float(e) for e in eps_values)
    psi0 = state_factory(grid)
    points = []
    for eps in eps_values:
        steps = _steps(total_time, eps)
        stepped = dataclasses.replace(params, eps=eps)
        plain = dataclasses.replace(stepped, apodization="none")
        apodized = propagate(psi0, stepped, steps)
        bare = propagate(psi0, plain, steps)
        points.append(
            ConvergencePoint(
                eps,
                _aligned_l2_distance(
                    apodized.state.values, bare.state.values, grid.dx
                ),
            )
        )
    return tuple(points)
