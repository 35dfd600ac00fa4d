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
from .grid import CHUNK_VALUES, StateGrid, check_dense_budget, ordered_map

__all__ = [
    "ParticleParams",
    "WaveState",
    "KernelMatrix",
    "PropagationResult",
    "RoughnessPoint",
    "RoughnessReport",
    "ConvergencePoint",
    "ConvergenceReport",
    "build_kernel",
    "propagate",
    "reference_solver",
    "momentum_transform",
    "uncertainty_product",
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
    apodization argument.
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

    def apodization_factor(self, y: np.ndarray) -> np.ndarray:
        """Square root of the bare-noise weight at scaled energy offset y."""
        y = np.asarray(y, dtype=float)
        if self.apodization == "none":
            return np.ones_like(y)
        if self.apodization == "gaussian":
            return np.exp(-(y**2) / (4.0 * self.sigma_y**2))
        return (np.abs(y) <= 0.5 * self.window).astype(float)


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
        if not alpha > 0.0:
            raise ValueError(f"action scale alpha must be positive, got {alpha}")
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


#: largest sum of the dropped Chebyshev coefficients' moduli; each T_k(H~) has
#: operator norm at most 1, so it bounds the truncation error per unit norm
CHEBYSHEV_TAIL = 1e-16


def _chebyshev_terms(tau: float) -> int:
    """Fewest terms n > tau with 2 sum_{k>n} |J_k(tau)| <= CHEBYSHEV_TAIL.

    Kapteyn's bound |J_k(k z)| <= (z e^s / (1 + s))^k, s = sqrt(1 - z^2), grows
    with z, so every k > n is bounded by r^k at z = tau / (n + 1), and the tail
    by the geometric sum 2 r^(n+1) / (1 - r).
    """
    n = int(tau) + 1
    while True:
        z = tau / (n + 1)
        s = math.sqrt(1.0 - z * z)
        r = z * math.exp(s) / (1.0 + s)
        if r < 1.0 and 2.0 * r ** (n + 1) / (1.0 - r) <= CHEBYSHEV_TAIL:
            return n
        n += 1


def _chebyshev_coefficients(tau: float, n: int) -> np.ndarray:
    """c_k = (2 - delta_k0) (-i)^k J_k(tau), k <= n: exp(-i tau x) = sum c_k T_k(x).

    They are the Fourier coefficients of exp(-i tau cos theta) (Jacobi-Anger),
    taken by an FFT of 2n + 128 samples; aliasing adds only J_j with
    j >= n + 128, inside the truncation bound.
    """
    size = 2 * n + 128
    samples = np.exp(-1j * tau * np.cos(2.0 * np.pi * np.arange(size) / size))
    coeffs = np.fft.fft(samples)[: n + 1] / size
    coeffs[1:] *= 2.0
    return coeffs


def reference_solver(
    psi0: WaveState,
    params: ParticleParams,
    total_time: float,
) -> WaveState:
    """Exact evolution exp(-iHt/alpha) under the kernel's own grid Hamiltonian.

    H = F^-1 diag(alpha^2 k^2 / 2m) F + diag(V) is the real symmetric operator
    whose Trotter splitting :func:`build_kernel` implements.  Its spectrum lies
    in [min V, max kinetic + max V]; with H~ = (H - mid) / half mapped onto
    [-1, 1], exp(-iHt/alpha) = exp(-i mid t / alpha) sum_k c_k T_k(H~), the
    Chebyshev propagator of Tal-Ezer and Kosloff (J. Chem. Phys. 81, 3967,
    1984).  Each term is one FFT pair through the kinetic symbol plus the
    diagonal potential, and the series stops where its dropped coefficients
    are certified below :data:`CHEBYSHEV_TAIL`, so the result is exact to
    round-off at any total time.  Costs O(n K log K) time with n ~ tau =
    half t / alpha terms, and O(K) memory.
    """
    if total_time <= 0:
        raise ValueError("total time must be positive")
    grid = psi0.grid
    kinetic = (params.alpha * grid.wavenumbers()) ** 2 / (2.0 * params.mass)
    v = params.potential_values(grid)
    low, high = float(np.min(v)), float(np.max(kinetic) + np.max(v))
    mid, half = 0.5 * (high + low), 0.5 * (high - low)
    tau = half * total_time / params.alpha
    n = _chebyshev_terms(tau)
    # every term computes one complex vector
    check_dense_budget(n + 1, grid.size, 16, "reference expansion")
    coeffs = _chebyshev_coefficients(tau, n)
    # 2 H~ = F^-1 diag(symbol) F + diag(shifted)
    symbol = kinetic * (2.0 / half)
    shifted = (v - mid) * (2.0 / half)

    def twice_scaled(values: np.ndarray) -> np.ndarray:
        out = np.fft.ifft(symbol * np.fft.fft(values))
        out += shifted * values
        return out

    prev, cur = psi0.values, 0.5 * twice_scaled(psi0.values)
    total = coeffs[0] * prev + coeffs[1] * cur
    for c in coeffs[2:]:
        nxt = twice_scaled(cur)
        nxt -= prev
        prev, cur = cur, nxt
        total += c * cur
    return WaveState(grid, np.exp(-1j * mid * total_time / params.alpha) * total)


# ---------------------------------------------------------------------------
# momentum representation
# ---------------------------------------------------------------------------


def momentum_transform(psi: WaveState, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Scaled Fourier transform onto the grid's momentum lattice.

    Returns (p, phi) with p ascending; the convention is
    phi(p) = sum_k psi_k exp(-i p x_k / alpha) dx / sqrt(2 pi alpha),
    unitary between the dx and dp weighted norms.
    """
    if not alpha > 0.0:
        raise ValueError(f"action scale alpha must be positive, got {alpha}")
    grid = psi.grid
    k = grid.wavenumbers()
    f = np.fft.fft(psi.values)
    phi = grid.dx / np.sqrt(2.0 * np.pi * alpha) * np.exp(-1j * k * grid.x0) * f
    p = alpha * k
    order = np.argsort(p, kind="stable")
    return p[order], phi[order]


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
) -> RoughnessReport:
    """Mean-squared step increments of sampled free-particle paths.

    Quantum mode draws increments from the Gaussian modulus envelope of the
    free step kernel (variance eps*alpha/m per step), so the statistic
    <(dx)^2>/eps stays near alpha/m and halving eps halves <(dx)^2>.
    Classical mode follows the smooth path x = t instead, whose increments
    scale as eps^2.

    Paths are drawn and reduced a bounded chunk of rows at a time, so memory
    does not grow with ``n_samples``; every drawn value is the one a single
    whole-ensemble draw returns.  The eps values run on one thread per usable
    CPU (:func:`~qal.grid.ordered_map`), each reusing a chunk of its own,
    and the report is bit for bit the same at any core count.
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

    def point(item):
        eps, stream = item
        rng = np.random.default_rng(stream)
        scale = np.sqrt(eps * params.alpha / params.mass)
        chunk = np.empty((rows, n_steps + 1)), np.empty((rows, n_steps))
        sums = []
        for first in range(0, count, rows):
            x, inc = (b[: count - first] for b in chunk)
            if mode == "classical":
                x[0] = eps * np.arange(n_steps + 1)
            else:
                # scale * z is normal(0, scale) up to the sign of an exact zero
                np.multiply(rng.standard_normal(out=inc), scale, out=inc)
                np.cumsum(inc, axis=1, out=x[:, 1:])
                x[:, 0] = 0.0
            np.subtract(x[:, 1:], x[:, :-1], out=inc)
            sums.append(np.sum(np.square(inc, out=inc)))
        mean_sq = math.fsum(sums) / (count * n_steps)
        return RoughnessPoint(eps, mean_sq, mean_sq / eps)

    streams = np.random.SeedSequence(seed).spawn(len(eps_values))
    points = ordered_map(point, list(zip(eps_values, streams)), len(eps_values))
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
    that case raises :class:`ConfigError`.  Fewer than two distinct eps
    values leave no order to fit either and raise ``ValueError``.
    """
    if params.apodization == "none" and not np.any(params.potential_values(grid)):
        raise ConfigError("the kernel is exact in time without a potential or an apodization")
    eps_values = sorted(float(e) for e in eps_values)
    if len(set(eps_values)) < 2:
        raise ValueError(f"an order needs at least two distinct eps values, got {eps_values}")
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
