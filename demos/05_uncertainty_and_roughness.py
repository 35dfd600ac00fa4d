#!/usr/bin/env python3
"""Uncertainty floor, path roughness, and the fading apodization.

Position and momentum spreads obey dx * dp >= alpha/2 under this transform
convention, with Gaussians sitting exactly on the floor.  Paths sampled from
the step kernel's modulus envelope are diffusive (mean square increment
proportional to the step size), unlike smooth classical paths.  Damping the
kernel by the square-root noise weight becomes invisible as the step size
shrinks: the energy offset of every fixed mode vanishes with eps.
"""

import numpy as np

from qal.grid import StateGrid
from qal.quantum import (
    ParticleParams,
    WaveState,
    apodization_study,
    roughness_scan,
    uncertainty_product,
)

alpha = 1.0
grid = StateGrid.from_range(-16.0, 16.0, 641)

print("== uncertainty products (floor alpha/2 = 0.5) ==")
gaussian = WaveState.gaussian(grid, sigma=0.8, alpha=alpha)
print(f"  gaussian:          {uncertainty_product(gaussian, alpha):.8f}")
rng = np.random.default_rng(11)
components = [(0.0, 1.0, 0.0), (1.5, 0.6, 2.0), (-2.0, 1.2, -1.0), (0.5, 0.8, 3.0)]
products = []
for _ in range(50):
    coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
    v = np.zeros(grid.size, dtype=complex)
    for c, (center, sigma, mom) in zip(coeffs, components):
        v += c * WaveState.gaussian(grid, center, sigma, mom, alpha).values
    products.append(uncertainty_product(WaveState(grid, v).normalized(), alpha))
print(f"  50 superpositions: min {min(products):.6f}, max {max(products):.6f}")

print("\n== path roughness: diffusive vs classical scaling ==")
params = ParticleParams(mass=1.0, alpha=1.0)
quantum = roughness_scan(params, [4e-3, 2e-3, 1e-3], n_samples=10**5, seed=2)
print("  sampled-path <dx^2>/eps:", [f"{p.mean_sq_over_eps:.4f}" for p in quantum.points])
print("  halving ratios:         ", [f"{r:.3f}" for r in quantum.ratios()], "(diffusive: 0.5)")
classical = roughness_scan(params, [4e-3, 2e-3, 1e-3], mode="classical")
print("  classical-path ratios:  ", [f"{r:.3f}" for r in classical.ratios()], "(smooth: 0.25)")

print("\n== apodization fades with the step size ==")
agrid = StateGrid.from_range(-12.0, 12.0, 481)
aparams = ParticleParams(mass=1.0, alpha=1.0, apodization="gaussian", sigma_y=1.0)
points = apodization_study(aparams, agrid, lambda g: WaveState.gaussian(g, sigma=1.0), 0.2, [4e-3, 2e-3, 1e-3])
for point in points:
    print(f"  eps {point.eps:6.4f}: distance to plain propagation {point.l2_error:.3e}")
