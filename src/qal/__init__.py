"""qal: stochastic processes driven by lossy-read noise sources.

The library covers four layers:

* ``qal.core`` -- the faulty reading channel and the observed histogram.
* ``qal.paths`` -- exhaustive path expansion, exact counting, and the
  path-sum / squared-amplitude identity with its phase solver.
* ``qal.markov`` -- discrete-time games driven by the channel: Monte Carlo,
  transition-kernel propagation, and coherent amplitude propagation.
* ``qal.quantum`` -- the noisy 1D particle: transfer-matrix propagation,
  a reference wave-equation solver, and analytic oracles.

``qal.cli`` exposes every experiment as a ``qal`` subcommand with CSV output.
"""

__version__ = "0.1.0"

from . import core, grid, markov, paths, quantum  # noqa: F401
from .core import (  # noqa: F401
    LOST,
    BareDistribution,
    CouplingMatrix,
    EffectiveDistribution,
    QRuleParams,
    effective_distribution,
    effective_from_coupling,
    sample_readings,
    symmetric_coupling,
    symmetrizing_misreads,
)
from .grid import StateGrid  # noqa: F401
