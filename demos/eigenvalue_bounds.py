"""Predicting the dominant generalized eigenvalue without solving for it.

The top eigenvalue of the covariance pair (R_S, R_I) is what the
beamformer rides on. The toolkit predicts it as max(gamma_0, gamma_1) + 1
with an explicit enclosure radius from a two-disk separation argument, and
the exact value (dense generalized eigensolver) must land inside.

gamma_0 + 1 is the SOI's bid and grows with SNR; gamma_1 + 1 is the
interference's bid and is SNR-independent. Their crossing is the
predicted threshold SNR_T0. The enclosure is infeasible exactly where the
two bids compete -- which is the threshold region itself.
"""

from dataclasses import replace

import numpy as np

from mpbsim import harness, mpb, theory

config = replace(harness.preset("fig4b-pn2"),
                 snr_grid_db=tuple(range(-20, 45, 5)))
# the SOI power is the only thing an SNR moves: one model, moved over the grid
model = mpb.analytic_cov(harness.scenario_at(config, 0.0), harness.bases_for(config))
grid = model.at_snr(np.array([10.0 ** (s / 10.0) for s in config.snr_grid_db]))

print(" SNR (dB)   exact l_max   predicted   radius      inside?")
for snr_db, lam, spec in zip(config.snr_grid_db, theory.exact_lambda_max(grid),
                             theory.mismatch_spectrum(grid)):
    if spec.feasible:
        ok = "yes" if abs(lam - spec.lambda_max_pred) <= spec.bound_radius \
            else "NO"
        print(f"{snr_db:9.1f}   {lam:11.4g}   {spec.lambda_max_pred:9.4g}   "
              f"{spec.bound_radius:9.3g}   {ok}")
    else:
        print(f"{snr_db:9.1f}   {lam:11.4g}   {spec.lambda_max_pred:9.4g}   "
              f"{'(competing)':>9s}   -")

curves = harness.run_eigencurves(config)
print(f"\ngamma_0+1 / gamma_1+1 curves cross at "
      f"{curves.empirical_snr_t0_db:.2f} dB; that crossing is the "
      f"threshold the operating curve is built around.")
