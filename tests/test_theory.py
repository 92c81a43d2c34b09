from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import pair_charpoly_eigs, rand_hpd
from mpbsim import harness
from mpbsim import linalg as la
from mpbsim import mpb
from mpbsim import sigmodel as sm
from mpbsim import theory


GEO8 = sm.ArrayGeometry(8)
CODE = sm.gold31(0)


def _scenario(interferers, snr=1.0, seed=3):
    p0 = snr / 31.0
    return sm.Scenario(GEO8, sm.SoiSpec(0, power=p0), tuple(interferers),
                       symbols=1000, seed=seed)


def _pn2(inr_db=30.0, snr=1.0, seed=3):
    """Two periodical-noise interferers from 30/-40 degrees."""
    p = 10.0 ** (inr_db / 10.0)
    ints = (sm.InterfererSpec("periodical_noise", doa_deg=30.0, power=p),
            sm.InterfererSpec("periodical_noise", doa_deg=-40.0, power=p))
    return _scenario(ints, snr=snr, seed=seed)


# ---------- gamma0 ----------

def test_gamma0_no_leakage_is_array_gain_times_snr():
    assert theory.gamma0(1.0, 8, 31, 0.0) == 8.0
    assert theory.gamma0(0.0, 8, 31, 0.5) == 0.0


def test_gamma0_saturates_at_full_leakage():
    val = theory.gamma0(1e12, 8, 31, 1.0)
    assert abs(val - 30.0) < 1e-6


def test_gamma0_rejects_leakage_at_processing_gain():
    with pytest.raises(ValueError):
        theory.gamma0(1.0, 8, 31, 31.0)


# ---------- gamma_spectrum ----------

def test_gamma_spectrum_no_mismatch_is_zero():
    rng = np.random.default_rng(40)
    q = rand_hpd(rng, 8)
    assert np.abs(theory.gamma_spectrum(q, q, 2)).max() == 0.0


def test_gamma_spectrum_proportional_pair():
    rng = np.random.default_rng(41)
    q = rand_hpd(rng, 8)
    gam = theory.gamma_spectrum(2.0 * q, q, 2)
    assert np.abs(gam - [1.0, 1.0]).max() < 1e-10


def test_gamma_spectrum_zero_pads_to_d():
    rng = np.random.default_rng(42)
    q = rand_hpd(rng, 8)
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    gam = theory.gamma_spectrum(q + np.outer(v, v.conj()), q, 4)
    assert gam.shape == (4,)
    assert np.sum(np.abs(gam) > 1e-8) == 1    # rank-1 mismatch


def test_gamma_spectrum_charpoly_oracle_small_array():
    geo4 = sm.ArrayGeometry(4)
    p0 = 1.0 / 31.0
    sc = sm.Scenario(geo4, sm.SoiSpec(0, power=p0),
                     (sm.InterfererSpec("tone", doa_deg=30.0, power=1000.0,
                                        normalized_offset=2.0 / 31.0),),
                     symbols=100, seed=3)
    model = mpb.analytic_cov(sc, mpb.papc_bases(CODE))
    gamma1 = theory.gamma_spectrum(model.q_s, model.q_i, 1)[0]
    roots = pair_charpoly_eigs(model.q_s - model.q_i, model.q_i)
    expected = roots[np.argmax(np.abs(roots))]   # lone nonzero root
    assert abs(gamma1 - expected) <= 1e-6 * max(1.0, abs(expected))


# ---------- g_upper ----------

def test_g_upper_collapses_without_mismatch():
    rng = np.random.default_rng(43)
    q = rand_hpd(rng, 8)
    a0 = sm.steering(0.0, GEO8)
    assert abs(theory.g_upper(q, q, a0) - 1.0) < 1e-12
    assert abs(theory.g_upper(2.0 * q, q, a0) - 1.0) < 1e-12


def test_g_upper_white_noise_scenario():
    sc = _scenario((sm.InterfererSpec("bpsk_white", doa_deg=30.0, power=1000.0),))
    model = mpb.analytic_cov(sc, mpb.maximin_bases(CODE))
    assert abs(theory.g_upper(model.q_s, model.q_i, model.a0) - 1.0) < 1e-12


@pytest.mark.parametrize("inr_db", [30.0, 35.0, 95.0])
def test_g_upper_is_exactly_one_when_q_s_equals_q_i(inr_db):
    """White interference (fig4a) gives Q_S == Q_I: G_U is exactly 1 and
    P_I exactly 0, with no rounding residue on either side."""
    probe = harness._probe(replace(harness.preset("fig4a-bpsk3"), inr_db=inr_db))
    model = probe.model
    assert np.array_equal(model.q_s, model.q_i)
    th = probe.thresholds()
    assert th.g_u == 1.0 and th.p_i == 0.0


@given(st.integers(0, 10_000))
def test_g_upper_bounded_by_one(key):
    rng = np.random.default_rng(key)
    n = int(rng.integers(2, 7))
    q_s = rand_hpd(rng, n, shift=0.5)
    q_i = rand_hpd(rng, n, shift=0.5)
    a0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    g = theory.g_upper(q_s, q_i, a0)
    assert 0.0 < g <= 1.0 + 1e-12


# ---------- thresholds ----------

def test_thresholds_no_mismatch_all_zero():
    th = theory.thresholds(0.0, 0.0, 31, 8, g_u=1.0)
    assert th.snr_t0 == th.snr_t1 == th.snr_t2 == 0.0


def test_thresholds_balance_point():
    # gamma0 = L*snr meets gamma1 = 8 at snr = 1
    th = theory.thresholds(8.0, 0.0, 31, 8, g_u=0.5)
    assert abs(th.snr_t0 - 1.0) < 1e-12
    assert abs(th.snr_t1 - (1.0 - np.sqrt(0.5))) < 1e-12
    assert th.p_i == 1.0


def test_thresholds_failure_only_curve_is_infinite():
    th = theory.thresholds(40.0, 1.0, 31, 8, g_u=0.5)
    assert th.snr_t0 == np.inf and th.snr_t2 == np.inf


def test_thresholds_k0_vanishes_without_leakage():
    th = theory.thresholds(8.0, 0.0, 31, 8, g_u=0.5)
    assert th.k0 == 0.0


@given(st.floats(0.01, 1e4), st.floats(0.0, 0.9), st.floats(0.01, 1.0))
def test_threshold_ordering(gamma1, beta, g_u):
    th = theory.thresholds(gamma1, beta, 31, 8, g_u=g_u)
    if np.isfinite(th.snr_t0):
        assert th.snr_t1 <= th.snr_t0 <= th.snr_t2
        assert abs(th.g_u - 1.0 / (th.p_i + 1.0)) < 1e-12


@given(st.floats(0.01, 100.0), st.floats(1.0, 100.0))
def test_threshold_snr_t0_monotone_in_gamma1(g1, factor):
    lo = theory.thresholds(g1, 0.3, 31, 8, g_u=0.5).snr_t0
    hi = theory.thresholds(g1 * factor, 0.3, 31, 8, g_u=0.5).snr_t0
    assert hi >= lo - 1e-12


# ---------- operating curve ----------

def _spectrum_for(scenario, bases, snr):
    model = mpb.analytic_cov(scenario, bases).at_snr(snr)
    return theory.mismatch_spectrum(model)


def test_curve_without_mismatch_is_flat():
    sc = _scenario((sm.InterfererSpec("bpsk_white", doa_deg=30.0, power=1000.0),))
    bases = mpb.maximin_bases(CODE)
    spec = _spectrum_for(sc, bases, 1.0)
    th = theory.thresholds(0.0, spec.beta, 31, 8, g_u=1.0)
    curve = theory.operating_curve(mpb.analytic_cov(sc, bases), th, np.logspace(-2, 4, 13))
    for _, g, region in curve.points:
        assert region == "Operating"
        assert abs(g - 1.0) < 1e-9


def test_curve_operating_branch_approaches_ceiling():
    spec_dummy = _spectrum_for(_pn2(), mpb.maximin_bases(CODE), 1.0)
    g1 = spec_dummy.gammas[0]
    th = theory.thresholds(g1, spec_dummy.beta, 31, 8, g_u=0.4, g_l=1e-5)
    snr = np.array([th.snr_t2 * 10.0, th.snr_t2 * 1e4])
    curve = theory.operating_curve(mpb.analytic_cov(_pn2(), mpb.maximin_bases(CODE)), th, snr)
    assert abs(curve.points[-1][1] - 0.4) < 0.01
    assert curve.points[0][1] <= curve.points[-1][1]


def test_curve_branch_continuity_at_thresholds():
    """Branch values hit exactly double/half their floors at T1 and T2.

    The thresholds are defined by a sqrt(1/2) bracket, so the failure
    branch at T1 is 2*G_L and the operating branch at T2 is G_U/2 up to
    the (tiny) leakage correction -- the nominal "3 dB" is 10*log10(2).
    """
    bases = mpb.maximin_bases(CODE)
    sc = _pn2(30.0)
    spec = _spectrum_for(sc, bases, 1.0)
    g1 = spec.gammas[0]
    model = mpb.analytic_cov(sc, bases).at_snr(1.0)
    g_u = theory.g_upper(model.q_s, model.q_i, model.a0)
    g_l = theory.g_lower_oracle(mpb.analytic_cov(sc, bases))
    th = theory.thresholds(g1, spec.beta, 31, 8, g_u=g_u, g_l=g_l)
    curve = theory.operating_curve(model, th, np.array([th.snr_t1, th.snr_t2]))
    g_at_t1, g_at_t2 = curve.points[0][1], curve.points[1][1]
    assert abs(g_at_t1 / g_l - 2.0) <= 1e-6
    assert abs(g_at_t2 / g_u - 0.5) <= 1e-6


def test_curve_failure_only_slope():
    """Full leakage with huge mismatch: G falls at 20 dB per decade."""
    bases = mpb.papc_bases(CODE)
    sc = _pn2(30.0)
    spec = _spectrum_for(sc, bases, 1.0)
    g1 = spec.gammas[0]
    assert g1 > 30.0            # guarantees the failure-only regime
    g_l = theory.g_lower_oracle(mpb.analytic_cov(sc, bases))
    th = theory.thresholds(g1, 1.0, 31, 8, g_u=0.5, g_l=g_l)
    assert th.snr_t0 == np.inf
    snr = np.logspace(3, 5, 9)
    curve = theory.operating_curve(mpb.analytic_cov(sc, bases), th, snr)
    g_db = np.array([10 * np.log10(p[1]) for p in curve.points])
    slope = np.polyfit(np.log10(snr), g_db, 1)[0]
    assert abs(slope - (-20.0)) < 1.0
    assert all(p[2] == "Failure" for p in curve.points)


def test_curve_region_tags_follow_thresholds():
    bases = mpb.maximin_bases(CODE)
    sc = _pn2(30.0)
    spec = _spectrum_for(sc, bases, 1.0)
    g1 = spec.gammas[0]
    g_l = theory.g_lower_oracle(mpb.analytic_cov(sc, bases))
    th = theory.thresholds(g1, spec.beta, 31, 8, g_u=0.4, g_l=g_l)
    snr = np.logspace(-3, 5, 33)
    curve = theory.operating_curve(mpb.analytic_cov(sc, bases), th, snr)
    for s, _, region in curve.points:
        if s < th.snr_t1:
            assert region == "Failure"
        elif s > th.snr_t2:
            assert region == "Operating"
        else:
            assert region == "Threshold"


# ---------- G_L oracle ----------

def test_g_lower_refuses_without_mismatch():
    sc = _scenario((sm.InterfererSpec("bpsk_white", doa_deg=30.0, power=1000.0),))
    with pytest.raises(ValueError):
        theory.g_lower_oracle(mpb.analytic_cov(sc, mpb.maximin_bases(CODE)))


def test_g_lower_positive_and_below_ceiling():
    sc = _pn2(30.0)
    bases = mpb.maximin_bases(CODE)
    g_l = theory.g_lower_oracle(mpb.analytic_cov(sc, bases))
    model = mpb.analytic_cov(sc, bases).at_snr(1.0)
    g_u = theory.g_upper(model.q_s, model.q_i, model.a0)
    assert 0.0 < g_l <= g_u


def test_g_lower_builds_no_model(monkeypatch):
    """The oracle moves the given model to its probe SNR; it builds none."""
    model = mpb.analytic_cov(_pn2(30.0), mpb.maximin_bases(CODE))

    def refuse(*args, **kwargs):
        raise AssertionError("g_lower_oracle called analytic_cov")
    monkeypatch.setattr(mpb, "analytic_cov", refuse)
    assert theory.g_lower_oracle(model) > 0.0


def test_g_lower_takes_the_callers_gamma1(monkeypatch):
    """Given gamma_1, the oracle solves no mismatch spectrum and returns the
    same bytes as when it computes gamma_1 itself."""
    model = mpb.analytic_cov(_pn2(30.0), mpb.maximin_bases(CODE))
    g1 = float(theory.gamma_spectrum(model.q_s, model.q_i, 2)[0])
    own = theory.g_lower_oracle(model)

    def refuse(*args, **kwargs):
        raise AssertionError("g_lower_oracle solved gamma_spectrum")
    monkeypatch.setattr(theory, "gamma_spectrum", refuse)
    assert theory.g_lower_oracle(model, gamma1=g1) == own
    with pytest.raises(ValueError, match="gamma_1 = 0"):
        theory.g_lower_oracle(model, gamma1=0.0)


def test_g_lower_probe_stability():
    sc = _pn2(30.0)
    bases = mpb.maximin_bases(CODE)
    a = theory.g_lower_oracle(mpb.analytic_cov(sc, bases), snr_probe=1e-6)
    b = theory.g_lower_oracle(mpb.analytic_cov(sc, bases), snr_probe=1e-7)
    assert abs(a - b) / a < 1e-4


# ---------- largest-eigenvalue enclosure ----------

def test_lambda_bound_no_interference_mismatch():
    pred, radius, feasible = theory.lambda_max_bound(5.0, 0.0, 1e-12)
    assert feasible
    assert pred == 6.0
    assert radius < 1e-10


def test_lambda_bound_transition_band_flagged_infeasible():
    _, _, feasible = theory.lambda_max_bound(5.0, 5.0, 1e-3)
    assert not feasible


def test_lambda_bound_without_positive_eigenvalue_is_one():
    assert theory.lambda_max_bound(0.0, 0.0, 0.3) == (1.0, 0.0, True)
    assert theory.lambda_max_bound(0.0, -0.5, 0.3) == (1.0, 0.0, True)


def test_lambda_bound_negative_gamma1_enters_f_as_is():
    """x = gamma1 / gamma0 < 0 is handed to f unchanged."""
    pred, radius, feasible = theory.lambda_max_bound(4.0, -0.5, 0.01)
    assert (pred, feasible) == (5.0, True)
    assert radius == 4.0 * la.f_bound(-0.125, 0.01)
    assert radius == pytest.approx(0.00444884, rel=1e-5)


def test_lambda_bound_rejects_negative_gamma0():
    with pytest.raises(ValueError):
        theory.lambda_max_bound(-1.0, 2.0, 0.1)


@pytest.mark.parametrize("preset", sorted(harness.PRESETS))
def test_mismatch_spectrum_enclosure_is_lambda_max_bound(preset):
    config = harness.preset(preset)
    for scheme in ("PAPC", "Maximin"):
        bases = harness._bases_named(config, scheme)
        for snr_db in (-30.0, 0.0, 50.0):
            spec = theory.mismatch_spectrum(
                mpb.analytic_cov(harness.scenario_at(config, snr_db), bases))
            np.testing.assert_equal(
                (spec.lambda_max_pred, spec.bound_radius, spec.feasible),
                theory.lambda_max_bound(spec.gamma0, spec.gammas[0], spec.delta))


def test_mismatch_spectrum_without_interferers():
    bases = mpb.maximin_bases(CODE)
    for snr in (0.0, 1.0):
        spec = theory.mismatch_spectrum(mpb.analytic_cov(_scenario(()), bases).at_snr(snr))
        assert spec.gammas.size == 0 and spec.delta == 0.0
        assert (spec.lambda_max_pred, spec.bound_radius, spec.feasible) == \
            (spec.gamma0 + 1.0, 0.0, True)


@pytest.mark.parametrize("preset", sorted(harness.PRESETS))
def test_grid_spectrum_and_lambda_max_equal_each_point_bitwise(preset):
    """On a grid model the spectrum is solved once over the grid: one
    MismatchSpectrum per SNR, each field equal to that SNR's alone, and
    likewise the exact lambda_max."""
    config = harness.preset(preset)
    model = mpb.analytic_cov(harness.scenario_at(config, 0.0), harness.bases_for(config))
    snrs = [10.0 ** (s / 10.0) for s in (-30.0, -7.0, 0.0, 12.0, 50.0)]
    grid = model.at_snr(np.array(snrs))
    spectra = theory.mismatch_spectrum(grid)
    lams = theory.exact_lambda_max(grid)
    assert len(spectra) == lams.shape[0] == len(snrs)
    for snr, spec, lam in zip(snrs, spectra, lams):
        point = model.at_snr(snr)
        alone = theory.mismatch_spectrum(point)
        for f in fields(theory.MismatchSpectrum):
            a, b = getattr(spec, f.name), getattr(alone, f.name)
            assert type(a) is type(b) and np.array_equal(a, b), f.name
        assert lam == la.gen_eig_hpd(point.r_s, point.r_i).eigenvalues[0]
    assert float(theory.exact_lambda_max(model.at_snr(snrs[1]))) == lams[1]


def test_lambda_containment_on_periodic_scenario_grid():
    """Exact largest eigenvalue stays inside the predicted enclosure.

    The 1e-11*pred term is the eigensolver's documented resolution: at the
    low-SNR end the enclosure is exactly tight and the true margin is below
    one ulp of lambda_max, so a bare <= comparison is numerically undecidable.
    """
    sc = _pn2(30.0)
    bases = mpb.maximin_bases(CODE)
    checked = 0
    for snr_db in range(-30, 52, 4):
        model = mpb.analytic_cov(sc, bases).at_snr(10.0 ** (snr_db / 10.0))
        spec = theory.mismatch_spectrum(model)
        if not spec.feasible:
            continue
        lam = la.gen_eig_hpd(model.r_s, model.r_i).eigenvalues[0]
        disp = abs(lam - spec.lambda_max_pred)
        assert disp <= spec.bound_radius + 1e-11 * spec.lambda_max_pred, snr_db
        checked += 1
    assert checked >= 15


def test_lambda_containment_full_leakage_scheme():
    # single-channel full-leakage pair has extra multi-level coupling the
    # two-level enclosure ignores; allow a 1e-3 relative excess
    sc = _pn2(30.0)
    bases = mpb.papc_bases(CODE)
    for snr_db in range(-30, 52, 4):
        model = mpb.analytic_cov(sc, bases).at_snr(10.0 ** (snr_db / 10.0))
        spec = theory.mismatch_spectrum(model)
        if not spec.feasible:
            continue
        lam = la.gen_eig_hpd(model.r_s, model.r_i).eigenvalues[0]
        disp = abs(lam - spec.lambda_max_pred)
        assert disp <= spec.bound_radius + 1e-3 * spec.lambda_max_pred, snr_db


def test_mismatch_spectrum_invariants():
    sc = _pn2(30.0)
    for bases in (mpb.maximin_bases(CODE), mpb.papc_bases(CODE)):
        for snr in (0.01, 1.0, 100.0):
            model = mpb.analytic_cov(sc, bases).at_snr(snr)
            spec = theory.mismatch_spectrum(model)
            assert np.all(spec.gammas + 1.0 > 0.0)
            assert 0.0 <= spec.delta < 1.0
            assert spec.gamma0 >= 0.0


def test_mismatch_delta_independent_of_cluster_basis(monkeypatch):
    """fig4a's gammas are all 0, so any basis of that eigenspace is a valid
    set of eigenvectors; delta must not depend on the eigensolver's pick."""
    cfg = harness.preset("fig4a-bpsk3")
    model = mpb.analytic_cov(harness.scenario_at(cfg, 20.0), harness.bases_for(cfg))
    base = theory.mismatch_spectrum(model)
    assert len(mpb.top_cluster(base.gammas)) == 3
    rng = np.random.default_rng(41)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    orig = la.gen_eig_hpd

    def rotated(a, b):  # the whole spectrum is the cluster: rotate it all
        res = orig(a, b)
        return la.HermEigResult(res.eigenvalues, res.eigenvectors @ q)

    monkeypatch.setattr(la, "gen_eig_hpd", rotated)
    rot = theory.mismatch_spectrum(model)
    assert np.array_equal(rot.gammas, base.gammas)
    assert base.delta > 0.0
    assert abs(rot.delta - base.delta) <= 1e-9 * base.delta


# ---------- exact G evaluator ----------

def test_g_of_lambda_unity_without_mismatch():
    spec = theory.MismatchSpectrum(
        gamma0=0.0, gammas=np.zeros(2), beta=0.0, delta=0.0,
        psi_t=np.zeros(2, dtype=complex),
        lambda_max_pred=1.0, bound_radius=0.0, feasible=True)
    assert abs(theory.g_of_lambda(2.0, spec, 1.0, 8, 31) - 1.0) < 1e-12


def test_g_of_lambda_matches_analytic_g_white():
    sc = _scenario((sm.InterfererSpec("bpsk_white", doa_deg=30.0, power=1000.0),),
                   snr=4.0)
    bases = mpb.maximin_bases(CODE)
    model = mpb.analytic_cov(sc, bases)
    spec = theory.mismatch_spectrum(model)
    bw = mpb.solve_weights(model.cov_pair(), model.a0)
    g_direct = mpb.analytic_g(bw.w, model)
    g_closed = theory.g_of_lambda(bw.lambda_max, spec, 4.0, 8, 31)
    assert abs(g_closed - g_direct) < 1e-6


def test_g_of_lambda_matches_analytic_g_two_tones():
    ints = (sm.InterfererSpec("tone", doa_deg=30.0, power=1000.0,
                              normalized_offset=2.0 / 31.0),
            sm.InterfererSpec("tone", doa_deg=-40.0, power=1000.0,
                              normalized_offset=-3.0 / 31.0))
    bases = mpb.maximin_bases(CODE)
    sc = _scenario(ints, snr=1.0)
    spec1 = _spectrum_for(sc, bases, 1.0)
    th = theory.thresholds(spec1.gammas[0], spec1.beta, 31, 8, g_u=0.5)
    snr = 4.0 * th.snr_t0
    model = mpb.analytic_cov(sc, bases).at_snr(snr)
    spec = theory.mismatch_spectrum(model)
    bw = mpb.solve_weights(model.cov_pair(), model.a0)
    g_direct = mpb.analytic_g(bw.w, mpb.analytic_cov(sm.Scenario(
        GEO8, sm.SoiSpec(0, power=snr / 31.0), ints, symbols=100, seed=3), bases))
    g_closed = theory.g_of_lambda(bw.lambda_max, spec, snr, 8, 31)
    assert abs(10 * np.log10(g_closed / g_direct)) < 0.5


def test_g_of_lambda_rejects_pole():
    spec = theory.MismatchSpectrum(
        gamma0=3.0, gammas=np.array([1.0, 0.0]), beta=0.0, delta=0.0,
        psi_t=np.zeros(2, dtype=complex),
        lambda_max_pred=4.0, bound_radius=0.0, feasible=True)
    with pytest.raises(ValueError):
        theory.g_of_lambda(2.0, spec, 1.0, 8, 31)   # gamma_1 + 1 exactly


def test_exact_gamma0_near_closed_form():
    sc = _pn2(30.0)
    bases = mpb.maximin_bases(CODE)
    for snr in (0.1, 1.0, 100.0):
        model = mpb.analytic_cov(sc, bases).at_snr(snr)
        exact = theory.exact_gamma0(model)
        approx = theory.gamma0(snr, 8, 31, model.beta)
        assert abs(exact - approx) / max(exact, 1e-12) < 0.05, snr


# ---------- noise-free pair analysis ----------

def test_noise_free_white_is_balanced():
    sc = _scenario((sm.InterfererSpec("bpsk_white", doa_deg=30.0, power=1000.0),))
    nf = theory.noise_free_pair(mpb.analytic_cov(sc, mpb.maximin_bases(CODE)))
    assert np.abs(nf.y_s - nf.y_i).max() < 1e-10 * np.abs(nf.y_s).max()
    assert not nf.has_infinite
    assert nf.infinite_count == 0


def test_noise_free_single_periodic_bounded():
    # with one interferer both noise-free matrices are multiples of a*a^H,
    # so their ranges coincide and no eigenvalue can escape to infinity
    sc = _scenario((sm.InterfererSpec("periodical_noise", doa_deg=30.0,
                                      power=1000.0),))
    bases = mpb.maximin_bases(CODE)
    nf = theory.noise_free_pair(mpb.analytic_cov(sc, bases))
    assert not nf.has_infinite
    assert nf.infinite_count == 0
    assert theory.geometric_bounded(sc, bases) is True


def test_noise_free_coherent_pair_unbounded():
    # two periodical-noise interferers repeat the same segment, so the
    # interference side collapses to rank one while the mixed side keeps a
    # second direction: exactly one eigenvalue escapes to infinity
    sc, bases = _pn2(30.0), mpb.maximin_bases(CODE)
    nf = theory.noise_free_pair(mpb.analytic_cov(sc, bases))
    assert nf.has_infinite
    assert nf.infinite_count == 1
    assert theory.geometric_bounded(sc, bases) is False


def _svd_rank(m, rtol=1e-8):
    sig = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(sig > rtol * sig[0])) if sig.size and sig[0] > 0.0 else 0


@pytest.mark.parametrize("scheme", ["PAPC", "Maximin"])
@pytest.mark.parametrize("preset", sorted(harness.PRESETS))
def test_noise_free_infinite_count_is_a_rank_difference(preset, scheme):
    """A PSD pencil (Y_S, Y_I) has rank(Y_S + Y_I) - rank(Y_I) infinite
    eigenvalues (Van Dooren 1979); the oracle counts both ranks by numpy's
    SVD alone."""
    config = harness.preset(preset)
    model = mpb.analytic_cov(harness.scenario_at(config, 0.0),
                             harness._bases_named(config, scheme))
    nf = theory.noise_free_pair(model)
    assert nf.infinite_count == _svd_rank(nf.y_s + nf.y_i) - _svd_rank(nf.y_i)
    assert nf.has_infinite == (nf.infinite_count > 0)


@pytest.mark.parametrize("make_bases", [mpb.papc_bases, mpb.maximin_bases])
def test_noise_free_incoherent_tones_bounded(make_bases):
    # two tones whose block phases differ share no cross term in Phi, so
    # each is a one-path coherence class and both routes call the pair
    # bounded; one waveform space for both would claim "unbounded"
    ints = (sm.InterfererSpec("tone", doa_deg=30.0, power=1000.0, normalized_offset=0.05),
            sm.InterfererSpec("tone", doa_deg=-40.0, power=1000.0, normalized_offset=-0.13))
    sc, bases = _scenario(ints), make_bases(CODE)
    nf = theory.noise_free_pair(mpb.analytic_cov(sc, bases))
    assert not nf.has_infinite
    assert theory.geometric_bounded(sc, bases) is True


def test_one_coherence_rule_for_simulation_and_theory(monkeypatch):
    """projected_sum, the closed-form Phi and the waveform route all group
    tones by sm.coherent.

    fig4c's five on-grid offsets k/31 form one class everywhere: Phi keeps
    every cross term and both boundedness routes say "unbounded". Two tones
    whose offsets differ by 1e-12 have block phases that differ, so no
    consumer merges them: Phi has no cross term between them, and the
    simulation of both stays exact against the full blocks.
    """
    on_grid = tuple(sm.InterfererSpec("tone", doa_deg=d, power=1000.0, normalized_offset=f)
                    for d, f in zip((-60.0, -20.0, 10.0, 35.0, 65.0),
                                    (1 / 31, -3 / 31, 0.0, 4 / 31, -1 / 31)))
    near = (sm.InterfererSpec("tone", doa_deg=30.0, power=1000.0, normalized_offset=0.05),
            sm.InterfererSpec("tone", doa_deg=-40.0, power=1000.0,
                              normalized_offset=0.05 + 1e-12))
    bases = mpb.maximin_bases(CODE)
    basis = np.column_stack([bases.h_s, bases.h_i])
    rule, asked = sm.coherent, []

    def spy(rho_a, rho_b):
        asked.append(rule(rho_a, rho_b))
        return asked[-1]

    monkeypatch.setattr(sm, "coherent", spy)
    for ints, merged in ((on_grid, True), (near, False)):
        sc = _scenario(ints)
        for consumer in (lambda: sm.projected_sum(sc, basis, include=("interference",)),
                         lambda: mpb.analytic_cov(sc, bases),
                         lambda: theory.geometric_bounded(sc, bases)):
            asked.clear()
            consumer()
            assert asked and all(asked) == merged
        model = mpb.analytic_cov(sc, bases)
        assert np.all((model.phi_s0 != 0) == (merged or np.eye(len(ints), dtype=bool)))
    sc = _scenario(near)
    y = sm.synth_blocks(sc, include=("interference",)) @ basis.conj()
    stacked = y.transpose(0, 2, 1).reshape(y.shape[0], -1)
    ref = stacked.T @ stacked.conj()
    got = sm.projected_sum(sc, basis, include=("interference",))
    assert np.abs(got - ref).max() < 1e-12 * np.abs(ref).max()
    sc = _scenario(on_grid)
    assert theory.geometric_bounded(sc, bases) is False
    assert theory.noise_free_pair(mpb.analytic_cov(sc, bases)).has_infinite


def test_noise_free_routes_agree_on_random_periodic_draws():
    """The null-space and geometric routes agree on every draw: 120
    mixtures of random-offset tones and periodical noise, D in {1, 2, 3, 5}
    at DOAs at least 10 degrees apart, under both schemes."""
    rng = np.random.default_rng(2010)
    outcomes = set()
    for draw in range(120):
        doas = rng.choice(np.arange(-60.0, 61.0, 10.0), size=int(rng.choice([1, 2, 3, 5])),
                          replace=False)
        ints = tuple(
            sm.InterfererSpec("tone", doa_deg=float(doa), power=1000.0,
                              normalized_offset=float(rng.uniform(-0.5, 0.5)))
            if rng.random() < 0.5 else
            sm.InterfererSpec("periodical_noise", doa_deg=float(doa), power=1000.0)
            for doa in doas)
        bases = mpb.papc_bases(CODE) if draw % 2 else mpb.maximin_bases(CODE)
        sc = _scenario(ints, seed=int(rng.integers(1, 2 ** 31)))
        nf = theory.noise_free_pair(mpb.analytic_cov(sc, bases))
        assert nf.has_infinite == (theory.geometric_bounded(sc, bases) is False), (draw, ints)
        outcomes.add(nf.has_infinite)
    assert outcomes == {False, True}


def test_noise_free_crawford_scale_invariant():
    # C_Y0 is INR-normalized: rebuilding with 100x interferer power matches
    lo = theory.noise_free_pair(mpb.analytic_cov(_pn2(10.0), mpb.maximin_bases(CODE))).c_y0
    hi = theory.noise_free_pair(mpb.analytic_cov(_pn2(30.0), mpb.maximin_bases(CODE))).c_y0
    assert abs(lo - hi) / hi < 1e-3


def test_noise_free_without_interferers_is_empty():
    # no path: both noise-free matrices are zero, so there is no eigenvalue
    nf = theory.noise_free_pair(mpb.analytic_cov(_scenario(()), mpb.maximin_bases(CODE)))
    assert not nf.y_s.any() and not nf.y_i.any()
    assert (nf.has_infinite, nf.infinite_count, nf.c_y0) == (False, 0, 0.0)


@pytest.mark.parametrize("interferers", [
    (sm.InterfererSpec("bpsk_white", doa_deg=30.0, power=1000.0),),
    (sm.InterfererSpec("mai_multipath", doa_deg=30.0, power=1000.0, user_code=1,
                       path_delays=(3, 5), path_doas=(30.0, -20.0)),),
    (sm.InterfererSpec("periodical_noise", doa_deg=30.0, power=1000.0),
     sm.InterfererSpec("bpsk_white", doa_deg=-40.0, power=1000.0)),
    (),
], ids=["white", "mai", "periodic+white", "none"])
def test_geometric_route_needs_periodic_interferers(interferers):
    assert theory.geometric_bounded(_scenario(interferers), mpb.maximin_bases(CODE)) is None


# ---------- boundedness detection ----------

def test_boundedness_full_span_is_bounded():
    rng = np.random.default_rng(44)
    s_i = rng.standard_normal((31, 3)) + 1j * rng.standard_normal((31, 3))
    h_s = CODE.astype(complex) / np.sqrt(31.0)
    h_i = la.orthonormal_range(s_i)      # monitor basis spans the waveforms
    assert theory.boundedness_criterion(h_s, h_i, s_i)


def test_boundedness_single_channel_generic_fails():
    rng = np.random.default_rng(45)
    s_i = rng.standard_normal((31, 2)) + 1j * rng.standard_normal((31, 2))
    h_s = CODE.astype(complex) / np.sqrt(31.0)
    h_i = mpb.maximin_bases(CODE).h_i
    assert not theory.boundedness_criterion(h_s, h_i, s_i)


def test_boundedness_orthogonal_soi_is_safe():
    s_i = np.eye(31, dtype=complex)[:, :2]     # waveforms live on chips 0,1
    h_s = np.zeros(31, dtype=complex)
    h_s[5] = 1.0                               # SOI signature misses them
    h_i = np.eye(31, dtype=complex)[:, 3:4]
    assert theory.boundedness_criterion(h_s, h_i, s_i)


# ---------- gamma_1 lower bound ----------

def test_gamma1_bound_substitution():
    assert abs(theory.gamma1_lower_bound(np.sqrt(2.0), 1000.0) - 999.0) < 1e-9


def test_gamma1_bound_not_applicable_at_low_inr():
    assert theory.gamma1_lower_bound(np.sqrt(2.0), 0.5) is None


def test_gamma1_bound_holds_on_periodic_scenario():
    bases = mpb.maximin_bases(CODE)
    for inr_db in (10.0, 20.0, 30.0, 40.0):
        sc = _pn2(inr_db)
        nf = theory.noise_free_pair(mpb.analytic_cov(sc, bases))
        model = mpb.analytic_cov(sc, bases).at_snr(1.0)
        g1 = theory.gamma_spectrum(model.q_s, model.q_i, 2)[0]
        bound = theory.gamma1_lower_bound(nf.c_y0, 10.0 ** (inr_db / 10.0))
        assert bound is not None
        assert g1 + 1.0 > bound + 1.0, inr_db


# ---------- closed-form identity report ----------

def test_supplementary_identities_exactness():
    sc = _pn2(30.0)
    report = theory.verify_supplementary_identities(sc, mpb.maximin_bases(CODE),
                                                    snr=1.0)
    assert report["rel_deviation"] <= 1e-8
    assert 0.0 <= report["kappa0"] <= report["rho0"] < 0.1


def test_supplementary_identities_no_interferers():
    sc = _scenario(())
    report = theory.verify_supplementary_identities(sc, mpb.maximin_bases(CODE),
                                                    snr=2.0)
    assert report["rel_deviation"] <= 1e-10
    assert report["xi"] == 0.0
