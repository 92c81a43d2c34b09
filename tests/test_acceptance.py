"""End-to-end acceptance checks, one test per shipped guarantee.

Each test exercises a full pipeline (synthesis -> beamformer -> Monte Carlo
measurement -> closed-form prediction) at K = 1e5 symbols and prints the
measured numbers next to their allowances. The Monte Carlo sweeps dominate
the runtime; everything else is analytic and fast.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import pair_charpoly_eigs, planted_homogeneous_pair, rand_hpd
from mpbsim import harness, linalg, mpb, theory
from mpbsim import sigmodel as sm

WORKERS = 4  # sweeps are worker-count invariant (re-proven by criterion 10)


def _sweep(config):
    return harness.run_sweep(config, workers=WORKERS)


def _db(x):
    return 10.0 * math.log10(x)


def _rising_crossover(snrs_db, gains_db, level_db):
    """First upward crossing of level_db after which the curve stays above."""
    above = [g >= level_db for g in gains_db]
    for i in range(1, len(above)):
        if above[i] and not above[i - 1] and all(above[i:]):
            frac = (level_db - gains_db[i - 1]) / (gains_db[i] - gains_db[i - 1])
            return snrs_db[i - 1] + frac * (snrs_db[i] - snrs_db[i - 1])
    raise AssertionError(f"no stable crossing of {level_db:.2f} dB")


def _fit_slope_db_per_decade(snrs_db, gains_db):
    x = np.asarray(snrs_db) / 10.0      # decades of SNR
    y = np.asarray(gains_db)
    x = x - x.mean()
    return float((x @ (y - y.mean())) / (x @ x))


# -----------------------
# 1. white-noise immunity
# -----------------------

def test_criterion_01_white_noise_immunity(scale_k):
    """Three wideband jammers leave no threshold: G stays at 0 dB everywhere."""
    grid = tuple(float(s) for s in range(-20, 42, 2))
    config = replace(harness.preset("fig4a-bpsk3"), snr_grid_db=grid)
    config = replace(config, symbols=config.symbols * scale_k)
    start = time.monotonic()
    rows = harness.run_sweep(config, workers=1)
    elapsed = time.monotonic() - start
    worst = max(abs(r.g_sim_db) for r in rows)
    for r in rows:
        assert abs(r.g_sim_db) <= 1.0, f"G off 0 dB at SNR {r.snr_db} dB"
        assert abs(r.g_theory_db) <= 1e-9
    if scale_k == 1:
        assert elapsed < 300.0
    print(f"criterion 1: worst |G| {worst:.3f} dB over {len(rows)} points, "
          f"{elapsed:.1f} s single-threaded -> PASS")


# -----------------------
# 2. power leakage ratios
# -----------------------

def test_criterion_02_leakage_ratios():
    """PAPC leaks the full chip power (beta = 1); Maximin leaks nothing."""
    worst_papc = 0.0
    for idx in range(33):
        code = sm.gold31(idx)
        for pos in (0, 7, 30):
            beta = mpb.leakage_ratio(mpb.papc_bases(code, pos), code)
            worst_papc = max(worst_papc, abs(beta - 1.0))
            assert abs(beta - 1.0) <= 4 * np.finfo(float).eps
        beta_mm = mpb.leakage_ratio(mpb.maximin_bases(code), code)
        assert beta_mm <= 1e-12
    print(f"criterion 2: |beta-1| <= {worst_papc:.3g} for all 33 codes, "
          f"Maximin beta <= 1e-12 -> PASS")


# -----------------------
# 3. threshold effect
# -----------------------

def test_criterion_03_threshold_effect(scale_k):
    """Simulated G tracks G_L, rises through the window, and settles on G_U."""
    config = harness.preset("fig4b-pn2")
    config = replace(config, symbols=config.symbols * scale_k)
    report = harness.analyze(config)
    th = report["thresholds"]
    t1_db, t2_db = th["snr_t1_db"], th["snr_t2_db"]
    g_u_db, g_l_db = _db(th["g_u"]), _db(th["g_l"])
    rows = _sweep(config)

    for r in rows:
        if r.snr_db >= t2_db + 5.0:
            assert abs(r.g_sim_db - g_u_db) <= 3.0, f"SNR {r.snr_db} dB"
        if r.snr_db <= t1_db - 5.0:
            assert abs(r.g_sim_db - g_l_db) <= 3.0, f"SNR {r.snr_db} dB"

    cross = _rising_crossover([r.snr_db for r in rows],
                              [r.g_sim_db for r in rows], g_u_db - 3.0)
    assert abs(cross - t2_db) <= 3.0
    print(f"criterion 3: floors/ceiling held; 3-dB-below-G_U crossover "
          f"{cross:.2f} dB vs predicted T2 {t2_db:.2f} dB -> PASS")


# -----------------------
# 4. failure-only slope
# -----------------------

def test_criterion_04_failure_only_slope(scale_k):
    """Full leakage never recovers: G falls 20 dB per decade of SNR.

    The predicted curve expresses the law exactly and is asserted first.
    The fit to the simulated points over the same window is asserted
    verbatim afterwards; at these depths (below -100 dB) the adapted
    weight's estimation floor sits near the predicted values at this K, so
    whether one draw's fit lands in the band depends on the seed (see
    test_criterion_04_slope_over_seeds and the README).
    """
    config = replace(harness.preset("fig4b-pn2"),
                     scheme=harness.SchemeConfig("PAPC"))
    config = replace(config, symbols=config.symbols * scale_k)
    rows = _sweep(config)
    assert all(r.region == "Failure" for r in rows)

    top = max(r.snr_db for r in rows)
    tail = [r for r in rows if r.snr_db >= top - 20.0]
    snrs = [r.snr_db for r in tail]
    theory_slope = _fit_slope_db_per_decade(snrs,
                                            [r.g_theory_db for r in tail])
    assert -22.0 <= theory_slope <= -18.0
    sim_slope = _fit_slope_db_per_decade(snrs, [r.g_sim_db for r in tail])
    print(f"criterion 4: theory slope {theory_slope:.2f}, simulated fit "
          f"{sim_slope:.2f} dB/decade over SNR [{top - 20:g}, {top:g}] dB "
          f"(floor-limited at K = {config.symbols:.0e})")
    assert -22.0 <= sim_slope <= -18.0


def test_criterion_04_slope_over_seeds(scale_k):
    """The criterion-4 slope as a statistic over seeds 1-8 (--full-scale only).

    One 11-point fit on one draw scatters with the seed at K = 1e6, so the
    law is asserted on the median of the eight fits.
    """
    if scale_k == 1:
        pytest.skip("runs only with --full-scale")
    base = replace(harness.preset("fig4b-pn2"),
                   scheme=harness.SchemeConfig("PAPC"))
    base = replace(base, symbols=base.symbols * scale_k)
    slopes = []
    for seed in range(1, 9):
        rows = _sweep(replace(base, seed=seed))
        top = max(r.snr_db for r in rows)
        tail = [r for r in rows if r.snr_db >= top - 20.0]
        slopes.append(_fit_slope_db_per_decade([r.snr_db for r in tail],
                                               [r.g_sim_db for r in tail]))
    median = float(np.median(slopes))
    print(f"criterion 4 over seeds 1-8 at K = {base.symbols:.0e}: simulated "
          f"slopes {', '.join(f'{s:.2f}' for s in slopes)} dB/decade, "
          f"median {median:.2f}")
    assert -22.0 <= median <= -18.0


# -----------------------
# 5. lambda_max enclosure
# -----------------------

@pytest.mark.parametrize("name", ["fig4b-pn2", "fig4c-tones5"])
@pytest.mark.parametrize("inr_db", [20.0, 30.0])
def test_criterion_05_lambda_max_enclosure(name, inr_db):
    """Exact top eigenvalue sits inside the predicted disk wherever it exists."""
    config = replace(harness.preset(name), inr_db=inr_db)
    bases = harness.bases_for(config)
    feasible = 0
    for i, snr_db in enumerate(config.snr_grid_db):
        model = mpb.analytic_cov(harness.scenario_at(config, snr_db, i), bases)
        spec = theory.mismatch_spectrum(model)
        if not spec.feasible:
            continue
        feasible += 1
        lam = float(linalg.gen_eig_hpd(model.r_s, model.r_i).eigenvalues[0])
        guard = 1e-11 * spec.lambda_max_pred
        assert abs(lam - spec.lambda_max_pred) <= spec.bound_radius + guard, \
            f"SNR {snr_db} dB"

        # sharpened radius whenever the disks are comfortably separated
        lam_a = max(spec.gamma0, spec.gammas[0])
        lam_b = min(spec.gamma0, spec.gammas[0])
        g_minus = math.sqrt(spec.delta ** 2 + spec.delta) - spec.delta
        if lam_a > 0 and lam_b / lam_a <= 1.0 - 2.0 * g_minus:
            ratio = spec.bound_radius / lam_a
            assert ratio <= max(spec.delta, g_minus) * (1.0 + 1e-9)
    assert feasible >= 30
    print(f"criterion 5: {name} at INR {inr_db:g} dB, enclosure held at "
          f"{feasible} feasible points -> PASS")


# -----------------------
# 6. unbounded-gamma_1 detection
# -----------------------

def test_criterion_06_unbounded_gamma1_detection():
    """Coherent periodic pair: gamma_1 grows ~ INR and both detectors fire."""
    base = harness.preset("fig4b-pn2")
    for scheme in (harness.SchemeConfig("Maximin"),
                   harness.SchemeConfig("PAPC")):
        report = harness.analyze(replace(base, scheme=scheme))
        assert report["geometric_bounded"] is False
        assert report["has_infinite"]
        for row in report["gamma1_vs_inr"]:
            # the inequality itself holds even below the INR where the
            # perturbation argument starts claiming it as a bound
            rhs = report["c_y0"] * 10.0 ** (row["inr_db"] / 10.0) / math.sqrt(2.0)
            assert row["gamma1_plus1"] > rhs
            bound = row["gamma1_lower_bound_plus1"]
            if bound is not None:
                assert bound == pytest.approx(rhs)
        assert 0.9 <= report["gamma1_inr_loglog_slope"] <= 1.1
        print(f"criterion 6: {scheme.name} slope "
              f"{report['gamma1_inr_loglog_slope']:.3f}, bound held at "
              f"{len(report['gamma1_vs_inr'])} INRs")

    white = harness.analyze(harness.preset("fig4a-bpsk3"))
    assert white["gamma1"] == 0.0
    for inr_db in (10.0, 20.0, 30.0, 40.0):
        cfg = replace(harness.preset("fig4a-bpsk3"), inr_db=inr_db)
        model = mpb.analytic_cov(harness.scenario_at(cfg, 0.0),
                                 harness.bases_for(cfg))
        g1 = theory.gamma_spectrum(model.q_s, model.q_i,
                                   model.a_i_mat.shape[1])[0]
        assert abs(g1) <= 1e-10, f"INR {inr_db} dB"
    print("criterion 6: white interferers keep gamma_1 = 0 at every INR "
          "-> PASS")


# -----------------------
# 7. array patterns
# -----------------------

def _pattern_by_scheme(config, snr_db):
    out = {}
    for name, theta, gain in harness.run_pattern(config, snr_db):
        out.setdefault(name, []).append((theta, gain))
    return out


def _peak_deg(points):
    return max(points, key=lambda p: p[1])[0]


def _gain_at(points, theta):
    return dict(points)[theta]


def test_criterion_07_array_patterns():
    """Above threshold the SOI wins the patterns; below it the jammer does."""
    config = harness.preset("fig6-pn2")

    above = _pattern_by_scheme(config, 40.9)
    mm_peak = _peak_deg(above["Maximin"])
    assert abs(mm_peak - 0.0) <= 3.0
    null_30 = _gain_at(above["Maximin"], 30.0)
    null_m40 = _gain_at(above["Maximin"], -40.0)
    assert null_30 <= -30.0 and null_m40 <= -30.0
    papc_soi = _gain_at(above["PAPC"], 0.0)
    assert papc_soi <= -20.0

    below = _pattern_by_scheme(config, -10.1)
    mm_low_peak = _peak_deg(below["Maximin"])
    assert min(abs(mm_low_peak - 30.0), abs(mm_low_peak + 40.0)) <= 3.0

    print(f"criterion 7: 40.9 dB Maximin peak {mm_peak:g} deg with nulls "
          f"{null_30:.1f}/{null_m40:.1f} dB, PAPC SOI response "
          f"{papc_soi:.1f} dB; -10.1 dB Maximin peak {mm_low_peak:g} deg "
          f"-> PASS")


# -----------------------
# 8. eigensolver oracle suite
# -----------------------

def test_criterion_08_eigensolver_oracles():
    """Solver vs residuals, characteristic polynomials and planted pencils."""
    rng = np.random.default_rng(2024)
    for trial in range(100):
        n = int(rng.integers(2, 17))
        a = rand_hpd(rng, n)
        a = 0.5 * (a + a.conj().T)
        b = rand_hpd(rng, n)
        res = linalg.gen_eig_hpd(a, b)
        tol = 1e-9 * (linalg.spectral_norm(a) + linalg.spectral_norm(b))
        for lam, v in zip(res.eigenvalues, res.eigenvectors.T):
            assert np.linalg.norm(a @ v - lam * (b @ v)) <= tol

    for trial in range(40):
        n = int(rng.integers(2, 5))
        a = rand_hpd(rng, n)
        b = rand_hpd(rng, n)
        lam = np.sort(linalg.gen_eig_hpd(a, b).eigenvalues)[::-1]
        ref = pair_charpoly_eigs(a, b)
        assert np.max(np.abs(lam - ref) / np.maximum(np.abs(ref), 1.0)) <= 1e-8

    for trial in range(50):
        a, b, n_inf, _ = planted_homogeneous_pair(rng)
        hom = linalg.gen_eig_homogeneous(a, b)
        assert hom.infinite_count == n_inf
    print("criterion 8: 100 residual pairs, 40 charpoly pairs, 50 planted "
          "pencils -> PASS")


# -----------------------
# 9. projected-inverse identities
# -----------------------

def test_criterion_09_supplementary_identities():
    config = harness.preset("fig4b-pn2")
    bases = harness.bases_for(config)
    scenario = harness.scenario_at(config, 0.0)
    worst = 0.0
    for snr_db in (-20.0, 0.0, 20.0, 40.0):
        report = theory.verify_supplementary_identities(
            scenario, bases, snr=10.0 ** (snr_db / 10.0))
        worst = max(worst, report["rel_deviation"])
        assert report["rel_deviation"] <= 1e-8, f"SNR {snr_db} dB"
        assert 0.0 <= report["kappa0"] <= report["rho0"] < 0.1
    print(f"criterion 9: worst closed-form deviation {worst:.3g} -> PASS")


# -----------------------
# 10. determinism
# -----------------------

def test_criterion_10_worker_determinism(tmp_path):
    config = replace(harness.preset("fig4b-pn2"), symbols=4000,
                     snr_grid_db=(-20.0, -5.0, 10.0, 20.0, 30.0, 45.0))
    blobs = []
    for workers in (1, 4, 8):
        path = tmp_path / f"w{workers}.csv"
        harness.run_sweep(config, workers=workers, out_path=path)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]
    print(f"criterion 10: {len(blobs[0])}-byte sweep identical for "
          f"workers 1/4/8 -> PASS")
