"""Matrix pair beamformer: simulation, measurement, and closed-form prediction.

The package splits along the natural seams of the problem:

- ``linalg``: Hermitian/HPD matrix kernels over numpy.linalg (eigensolver,
  Cholesky, SVD, generalized eigenproblems, Crawford number).
- ``sigmodel``: baseband synthesis of the array data — Gold-coded SOI plus
  configurable interference (BPSK white, tones, periodical noise, multipath
  multiple-access users).
- ``mpb``: the beamformer itself — projection bases, covariance pair
  estimation, weight extraction, normalized output SINR, array patterns.
- ``theory``: closed-form performance prediction — mismatch metrics, the
  dominant-eigenvalue enclosure, threshold SNRs, operating curves, and the
  unbounded-threshold detector.
- ``harness``: experiment configs, presets, CSV sweeps, pattern/eigencurve
  runners, and the ``analyze`` report.
- ``cli``: command-line front end over the harness.
"""

from . import cli, harness, linalg, mpb, sigmodel, theory
from .harness import ExperimentConfig, load_config, preset, preset_names, run_sweep
from .mpb import solve_weights
from .sigmodel import Scenario
from .theory import operating_curve, thresholds

__version__ = "0.1.0"

__all__ = [
    "linalg",
    "sigmodel",
    "mpb",
    "theory",
    "harness",
    "cli",
    "ExperimentConfig",
    "Scenario",
    "load_config",
    "preset",
    "preset_names",
    "run_sweep",
    "solve_weights",
    "thresholds",
    "operating_curve",
    "__version__",
]
