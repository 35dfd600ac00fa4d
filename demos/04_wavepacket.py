#!/usr/bin/env python3
"""The noisy particle's amplitude propagator against its analytic oracles.

The one-step kernel is the exact momentum-lattice Gaussian integral times the
potential phase, so the free step is exactly unitary and a free Gaussian
spreads at the textbook rate.  A coherent state in a harmonic trap swings as
cos(t), and shrinking the step size drives the transfer matrix onto the
exact evolution under the same grid Hamiltonian at first order.
"""

import numpy as np

from qal.grid import StateGrid
from qal.quantum import (
    ParticleParams,
    WaveState,
    build_kernel,
    convergence_study,
    free_gaussian_width,
    propagate,
    reference_solver,
)

print("== free Gaussian spreading ==")
grid = StateGrid.from_range(-20.0, 20.0, 801)
params = ParticleParams(mass=1.0, alpha=1.0, eps=1e-3)
psi0 = WaveState.gaussian(grid, sigma=1.0)
result = propagate(psi0, params, 1000)
print(f"  width at t=1: {result.state.sigma_x():.9f}")
print(f"  analytic:     {free_gaussian_width(1.0, 1.0, 1.0, 1.0):.9f}")

print("\n== coherent state in a harmonic trap ==")
hgrid = StateGrid.from_range(-16.0, 16.0, 641)
hparams = ParticleParams(eps=1e-3, potential="harmonic", omega=1.0)
kernel = build_kernel(hparams, hgrid)
state = WaveState.gaussian(hgrid, center=1.0, sigma=np.sqrt(0.5))
values = state.values
print("     t      <x>       cos(t)")
for block in range(6):
    for _ in range(1047):
        values = kernel.apply(values)
    t = (block + 1) * 1047 * hparams.eps
    mean = WaveState(hgrid, values).mean_x()
    print(f"  {t:5.3f}  {mean:+8.5f}  {np.cos(t):+8.5f}")

print("\n== reference solver agreement ==")
ref = reference_solver(WaveState.gaussian(grid, sigma=1.0), params, 1.0)
# the drift itself is the round-off of the expansion's FFTs, so only its bound is printed
drift = "below" if abs(ref.norm() - 1.0) < 1e-13 else "ABOVE"
print(f"  reference width at t=1: {ref.sigma_x():.9f} (norm drift {drift} 1e-13)")

print("\n== convergence order in the step size ==")
factory = lambda g: WaveState.gaussian(g, center=1.0, sigma=np.sqrt(0.5))
study = convergence_study(hparams, hgrid, factory, 0.5, [4e-3, 2e-3, 1e-3])
for point in study.points:
    print(f"  eps {point.eps:6.4f}: L2 error {point.l2_error:.3e}")
print(f"  fitted order: {study.fitted_order:.3f}")
