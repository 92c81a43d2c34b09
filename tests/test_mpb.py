from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mpbsim import linalg as la
from mpbsim import mpb
from mpbsim import sigmodel as sm


GEO8 = sm.ArrayGeometry(8)
CODE = sm.gold31(0)


def _scenario(interferers=(), power=1.0, symbols=200, seed=3, soi_doa=0.0):
    return sm.Scenario(GEO8, sm.SoiSpec(0, doa_deg=soi_doa, power=power),
                       tuple(interferers), symbols=symbols, seed=seed)


# ---------- projection bases ----------

def test_papc_basis_is_standard_column():
    bases = mpb.papc_bases(CODE, position=3)
    assert bases.scheme == "PAPC"
    e3 = np.zeros(31)
    e3[3] = 1.0
    assert np.array_equal(bases.h_i[:, 0], e3.astype(complex))
    assert abs(np.vdot(bases.h_i[:, 0], bases.h_i[:, 0]) - 1.0) == 0.0


def test_papc_leakage_is_one_for_every_gold_code():
    for idx in range(33):
        code = sm.gold31(idx)
        for pos in (0, 7, 30):
            bases = mpb.papc_bases(code, position=pos)
            assert mpb.leakage_ratio(bases, code) == 1.0


def test_papc_rejects_bad_position():
    with pytest.raises(ValueError):
        mpb.papc_bases(CODE, position=31)


def test_maximin_leakage_vanishes_on_bin_frequencies():
    for k in (1, 2, 5, 16, 30):
        bases = mpb.maximin_bases(CODE, monitor_freq=k / 31.0)
        assert mpb.leakage_ratio(bases, CODE) <= 1e-12, k


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["h_s", "h_i"])
def test_bases_reject_non_finite_entries(name, bad):
    """Every other check on the bases is a comparison that NaN passes."""
    bases = mpb.maximin_bases(CODE)
    arrays = {"h_s": bases.h_s.copy(), "h_i": bases.h_i.copy()}
    arrays[name].flat[7] = bad
    with pytest.raises(ValueError, match=f"{name} contains non-finite entries"):
        mpb.ProjectionBases(arrays["h_s"], arrays["h_i"])


def test_maximin_rejects_degenerate_frequency():
    # f = 1 folds the monitor column onto the signal signature
    with pytest.raises(ValueError):
        mpb.maximin_bases(CODE, monitor_freq=1.0)
    with pytest.raises(ValueError):
        mpb.maximin_bases(CODE, monitor_freq=0.0)


def test_h_s_is_unit_norm_code():
    bases = mpb.maximin_bases(CODE)
    assert np.abs(bases.h_s - CODE / np.sqrt(31.0)).max() < 1e-15


# ---------- snapshots ----------

def test_snapshots_projects_soi_to_scaled_steering():
    a0 = sm.steering(0.0, GEO8)
    blocks = np.outer(a0, CODE)[None, :, :].astype(complex)
    bases = mpb.maximin_bases(CODE)
    x_s, x_i = mpb.snapshots(blocks, bases)
    assert np.abs(x_s[0] - np.sqrt(31.0) * a0).max() < 1e-12
    assert np.abs(x_i[0]).max() < 1e-12   # monitor column orthogonal to the code


def test_snapshots_linearity():
    rng = np.random.default_rng(4)
    xa = rng.standard_normal((3, 8, 31)) + 1j * rng.standard_normal((3, 8, 31))
    xb = rng.standard_normal((3, 8, 31)) + 1j * rng.standard_normal((3, 8, 31))
    bases = mpb.papc_bases(CODE)
    sa, ia = mpb.snapshots(xa, bases)
    sb, ib = mpb.snapshots(xb, bases)
    ssum, isum = mpb.snapshots(xa + xb, bases)
    assert np.abs(ssum - (sa + sb)).max() < 1e-12
    assert np.abs(isum - (ia + ib)).max() < 1e-12


# ---------- covariance estimation ----------

def test_estimate_cov_constant_snapshot():
    v = np.arange(1.0, 9.0) + 2j
    x_s = np.tile(v, (50, 1))
    x_i = np.tile(v, (50, 1))[:, :, None]
    with pytest.warns(UserWarning, match="snapshots"):   # 50 < 10*L
        pair = mpb.estimate_cov_pair(x_s, x_i)
    assert np.abs(pair.r_s - np.outer(v, v.conj())).max() < 1e-12


def test_estimate_cov_pure_noise_converges_to_identity():
    sc = _scenario(power=0.0, symbols=100_000)
    bases = mpb.maximin_bases(CODE)
    # projected batch by batch: the (K, L, N) cube is never held whole
    x_s, x_i = (np.concatenate(parts) for parts in zip(*(
        mpb.snapshots(x, bases) for _, x in sm.iter_blocks(sc, include=("noise",)))))
    pair = mpb.estimate_cov_pair(x_s, x_i)
    assert np.abs(pair.r_s - np.eye(8)).max() < 0.03
    assert np.abs(pair.r_i - np.eye(8)).max() < 0.03


ALL_FAMILIES = (
    sm.InterfererSpec("bpsk_white", doa_deg=30.0, power=10.0),
    sm.InterfererSpec("tone", doa_deg=-40.0, power=20.0,
                      normalized_offset=3.0 / 31.0),
    sm.InterfererSpec("periodical_noise", doa_deg=50.0, power=5.0),
    sm.InterfererSpec("mai_multipath", doa_deg=10.0, power=3.0, user_code=1,
                      path_delays=(3, 5, 4), path_doas=(10.0, -20.0, -50.0)),
)


def test_accumulate_matches_estimate():
    """The projected-domain synthesis reproduces the full-cube signal part.

    SOI and interference share their random streams with synth_blocks, so
    the streamed covariances equal the directly estimated ones to rounding.
    Receiver noise is drawn differently by design; see the next test.
    """
    sc = sm.Scenario(GEO8, sm.SoiSpec(0, power=0.7), ALL_FAMILIES,
                     symbols=5000, seed=7, mc_stream=2)
    include = ("soi", "interference")
    for bases in (mpb.papc_bases(CODE), mpb.maximin_bases(CODE)):
        x_s, x_i = mpb.snapshots(sm.synth_blocks(sc, include=include), bases)
        direct = mpb.estimate_cov_pair(x_s, x_i)
        streamed = mpb.accumulate_cov_pair(sc, bases, include=include)
        assert np.abs(direct.r_s - streamed.r_s).max() < 1e-10, bases.scheme
        assert np.abs(direct.r_i - streamed.r_i).max() < 1e-10, bases.scheme


def test_projected_noise_second_moments():
    """Projected receiver noise has the law of white noise seen through the basis.

    Per element and symbol, E[y y^H] = B^H B for the N x M basis B at unit
    noise power, so block (j, j') of the noise-only sum over K symbols is
    close to K (B^H B)[j, j'] I_L; its trace over K L is the moment checked.
    Under PAPC h_i^H h_s = c0[0]/sqrt(N) != 0, so x_s and x_i noise must be
    correlated; the complex basis pins the conjugation convention.
    """
    rng = np.random.default_rng(35)
    cplx = rng.standard_normal((31, 3)) + 1j * rng.standard_normal((31, 3))
    papc = mpb.papc_bases(CODE)
    sc = _scenario(power=0.0, symbols=20_000)
    for basis in (np.column_stack([papc.h_s, papc.h_i]),
                  cplx / np.linalg.norm(cplx, axis=0)):
        m = basis.shape[1]
        total = sm.projected_sum(sc, basis, include=("noise",))
        blocks = total.reshape(m, 8, m, 8) / sc.symbols
        moments = np.einsum("jaka->jk", blocks) / 8
        expect = basis.conj().T @ basis
        assert np.abs(moments - expect).max() < 0.02, moments
        # and each block is a multiple of I_L
        off = blocks - moments[:, None, :, None] * np.eye(8)[None, :, None, :]
        assert np.abs(off).max() < 0.05
    cross = np.vdot(papc.h_s, papc.h_i[:, 0])
    assert abs(cross) > 0.16   # the cross term checked above is far from 0


def test_sample_covariance_error_halves_per_decade():
    """Sample R_S approaches the analytic covariance at the 1/sqrt(K) rate.

    The statistic is the RMS Frobenius error over 64 seeds, whose decade
    ratio concentrates at 1/sqrt(10); the ratio of a single draw scatters
    too widely to test.
    """
    bases = mpb.maximin_bases(CODE)
    inter = (sm.InterfererSpec("bpsk_white", doa_deg=30.0, power=100.0),)
    model = mpb.analytic_cov(_scenario(interferers=inter), bases)
    target = model.sigma_s0_sq * np.outer(model.a0, model.a0.conj()) + model.q_s
    errs = []
    for k in (1_000, 10_000, 100_000):
        sq = [np.linalg.norm(mpb.accumulate_cov_pair(
            _scenario(interferers=inter, symbols=k, seed=seed), bases).r_s - target) ** 2
            for seed in range(1, 65)]
        errs.append(np.sqrt(np.mean(sq)))
    for big, small in zip(errs, errs[1:]):
        assert 0.25 <= small / big <= 0.45, errs


# ---------- analytic covariance ----------

def test_analytic_white_noise_has_no_mismatch():
    sc = _scenario(interferers=(sm.InterfererSpec("bpsk_white", doa_deg=30.0,
                                                  power=1000.0),))
    model = mpb.analytic_cov(sc, mpb.maximin_bases(CODE))
    assert np.abs(model.q_s - model.q_i).max() == 0.0


def test_analytic_no_interferers_is_noise_floor():
    model = mpb.analytic_cov(_scenario(), mpb.maximin_bases(CODE))
    assert np.abs(model.q_s - np.eye(8)).max() < 1e-14
    assert np.abs(model.q_i - np.eye(8)).max() < 1e-14


def test_analytic_single_tone_papc_rank_one_mismatch():
    sc = _scenario(interferers=(sm.InterfererSpec("tone", doa_deg=30.0,
                                                  power=1000.0,
                                                  normalized_offset=2.0 / 31.0),))
    model = mpb.analytic_cov(sc, mpb.papc_bases(CODE))
    diff = la.herm_eig(model.q_s - model.q_i).eigenvalues
    assert np.sum(np.abs(diff) > 1e-8 * np.abs(diff).max()) <= 1


def test_soi_leaks_less_power_into_interference_channel():
    # sigma_I0^2 < sigma_S0^2 strictly whenever the bases differ
    sc = _scenario(power=3.0)
    for bases in (mpb.papc_bases(CODE), mpb.maximin_bases(CODE)):
        model = mpb.analytic_cov(sc, bases)
        assert model.sigma_i0_sq < model.sigma_s0_sq


@pytest.mark.parametrize("interferers", [(f,) for f in ALL_FAMILIES] + [ALL_FAMILIES],
                         ids=["white", "tone", "pn", "mai", "all"])
@pytest.mark.parametrize("make_bases", [mpb.papc_bases, mpb.maximin_bases])
def test_at_snr_equals_rebuilt_model_bitwise(interferers, make_bases):
    """Moving a model to an SNR rebuilds nothing: it equals, bit for bit,
    the model built from the scenario with the SOI power of that SNR."""
    sc = _scenario(interferers=interferers, power=0.7)
    bases = make_bases(CODE)
    model = mpb.analytic_cov(sc, bases)
    for snr in (1e-6, 0.05, 1.0, 31.0, 2.5e4):
        moved = model.at_snr(snr)
        p0 = snr / sm.GOLD_LENGTH
        built = mpb.analytic_cov(replace(sc, soi=replace(sc.soi, power=p0)), bases)
        for f in fields(mpb.AnalyticModel):
            a, b = getattr(moved, f.name), getattr(built, f.name)
            assert (np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b), f.name
        assert moved.sigma_s0_sq == built.sigma_s0_sq
        assert moved.sigma_i0_sq == built.sigma_i0_sq
        assert np.array_equal(moved.r_s, built.r_s)
        assert np.array_equal(moved.r_i, built.r_i)


def test_at_snr_rebuilds_nothing(monkeypatch):
    """at_snr sets P0 alone: no __post_init__ runs, Q_S and Q_I keep their
    bytes, and a computed a0^H Q_S^-1 a0 carries over without a solve."""
    model = mpb.analytic_cov(_scenario(interferers=ALL_FAMILIES, power=0.7),
                             mpb.maximin_bases(CODE))
    quad = model.qs_quad
    calls = []
    post_init = mpb.AnalyticModel.__post_init__

    def counted(self):
        calls.append(self)
        post_init(self)

    def refuse(*args, **kwargs):
        raise AssertionError("a0^H Q_S^-1 a0 solved again")
    monkeypatch.setattr(mpb.AnalyticModel, "__post_init__", counted)
    monkeypatch.setattr(la, "solve_hpd", refuse)
    for snr in (1e-6, 1.0, 2.5e4, np.array([0.5, 2.0, 3e3])):
        moved = model.at_snr(snr)
        assert moved.q_s.tobytes() == model.q_s.tobytes()
        assert moved.q_i.tobytes() == model.q_i.tobytes()
        assert moved.qs_quad == quad
        assert model.soi_power == 0.7  # the original stays where it was
    assert calls == []
    model.at_inr(2.0 * model.inr)  # the INR moves Q: that model is rebuilt
    assert len(calls) == 1


@pytest.mark.parametrize("interferers", [(f,) for f in ALL_FAMILIES] + [ALL_FAMILIES],
                         ids=["white", "tone", "pn", "mai", "all"])
def test_grid_model_slices_equal_points_bitwise(interferers):
    """A model moved to an array of SNRs gives R_S and R_I as stacks whose
    slices are the matrices of the model moved to each SNR alone."""
    model = mpb.analytic_cov(_scenario(interferers=interferers),
                             mpb.maximin_bases(CODE))
    snrs = [1e-6, 0.05, 1.0, 31.0, 2.5e4]
    grid = model.at_snr(np.array(snrs))
    assert grid.r_s.shape == grid.r_i.shape == (len(snrs), 8, 8)
    for i, snr in enumerate(snrs):
        point = model.at_snr(snr)
        assert grid.soi_power[i] == point.soi_power
        assert np.array_equal(grid.r_s[i], point.r_s)
        assert np.array_equal(grid.r_i[i], point.r_i)


def test_stacked_weights_and_g_equal_each_point_bitwise():
    """solve_weights and analytic_g over a stack of pairs equal the pairs
    solved alone, the cluster tie-break (an equal pair) included."""
    sc = _scenario(interferers=ALL_FAMILIES, symbols=400)
    bases = mpb.maximin_bases(CODE)
    model = mpb.analytic_cov(sc, bases)
    snrs = [0.01, 1.0, 100.0, 1.0]
    pairs = [mpb.accumulate_cov_pair(replace(sc, mc_stream=i), bases) for i in range(3)]
    pairs.append(mpb.CovariancePair(pairs[0].r_i, pairs[0].r_i))  # all eigenvalues 1
    r_s = np.stack([p.r_s for p in pairs])
    r_i = np.stack([p.r_i for p in pairs])
    grid = model.at_snr(np.array(snrs))
    bw = mpb.solve_weights(mpb.CovariancePair(r_s, r_i), grid.a0)
    g = mpb.analytic_g(bw.w, grid)
    assert bw.w.shape == (4, 8) and bw.lambda_max.shape == g.shape == (4,)
    for i, (snr, pair) in enumerate(zip(snrs, pairs)):
        one = mpb.solve_weights(pair, model.a0)
        assert np.array_equal(bw.w[i], one.w)
        assert bw.lambda_max[i] == one.lambda_max
        assert g[i] == mpb.analytic_g(one.w, model.at_snr(snr))
    assert len(mpb.top_cluster(la.gen_eig_hpd(pairs[3].r_s, pairs[3].r_i).eigenvalues)) == 8


_MAI_GAINS = replace(ALL_FAMILIES[3], path_gains=(1.0, 0.6, 0.3))


@pytest.mark.parametrize("interferers",
                         [(f,) for f in ALL_FAMILIES[:3] + (_MAI_GAINS,)]
                         + [ALL_FAMILIES[:3] + (_MAI_GAINS,)],
                         ids=["white", "tone", "pn", "mai", "all"])
@pytest.mark.parametrize("make_bases", [mpb.papc_bases, mpb.maximin_bases])
def test_at_inr_matches_rebuilt_model(interferers, make_bases):
    """Moving a model to another INR agrees with the model built from the
    scenario whose interferer powers are all scaled by the same factor."""
    sc = _scenario(interferers=interferers, power=0.7)
    bases = make_bases(CODE)
    model = mpb.analytic_cov(sc, bases)
    for scale in (1e-3, 0.02, 1.0, 37.0, 1e4):
        scaled = tuple(replace(i, power=scale * i.power) for i in interferers)
        built = mpb.analytic_cov(replace(sc, interferers=scaled), bases)
        moved = model.at_inr(scale * model.inr)
        for name in ("q_s", "q_i", "phi_s0", "phi_i0"):
            a, b = getattr(moved, name), getattr(built, name)
            assert np.abs(a - b).max() <= 1e-14 * np.abs(b).max(), (name, scale)
        assert abs(moved.inr - built.inr) <= 1e-15 * built.inr


# ---------- weights and SINR ----------

def test_solve_weights_equal_pair_is_unit_eigenvalue():
    rng = np.random.default_rng(31)
    r = np.eye(4) + 0.1 * np.diag([1.0, 2.0, 3.0, 4.0])
    a0 = sm.steering(10.0, sm.ArrayGeometry(4))
    bw = mpb.solve_weights(mpb.CovariancePair(r.astype(complex), r.astype(complex)), a0)
    assert abs(bw.lambda_max - 1.0) < 1e-10
    assert abs(np.linalg.norm(bw.w) - 1.0) < 1e-12


def test_solve_weights_rank_one_dominant():
    a0 = sm.steering(10.0, GEO8)
    r_s = 5.0 * np.outer(a0, a0.conj()) + np.eye(8)
    bw = mpb.solve_weights(mpb.CovariancePair(r_s, np.eye(8, dtype=complex)), a0=a0)
    coll = abs(np.vdot(bw.w, a0)) / (np.linalg.norm(bw.w) * np.linalg.norm(a0))
    assert coll > 1.0 - 1e-10


def test_solve_weights_matched_pair_recovers_optimal_filter():
    """No matrix mismatch: the weight lines up with Q^-1 a0."""
    rng = np.random.default_rng(32)
    a0 = sm.steering(0.0, GEO8)
    a1 = sm.steering(30.0, GEO8)
    q = 50.0 * np.outer(a1, a1.conj()) + np.eye(8)
    r_s = 4.0 * np.outer(a0, a0.conj()) + q
    r_i = 0.5 * np.outer(a0, a0.conj()) + q
    bw = mpb.solve_weights(mpb.CovariancePair(r_s, r_i), a0=a0)
    w_opt = la.solve_hpd(q, a0)
    coll = abs(np.vdot(bw.w, w_opt)) / (np.linalg.norm(bw.w) * np.linalg.norm(w_opt))
    assert coll >= 1.0 - 1e-8


def test_sinr_opt_closed_cases():
    a0 = sm.steering(0.0, GEO8)
    assert abs(mpb.sinr_opt(2.0 * np.eye(8, dtype=complex), a0, 3.0)
               - 3.0 * 8.0 / 2.0) < 1e-12
    v1 = mpb.sinr_opt(np.eye(8, dtype=complex), a0, 1.0)
    v2 = mpb.sinr_opt(np.eye(8, dtype=complex), a0, 2.0)
    assert abs(v2 - 2.0 * v1) < 1e-12


def test_measure_g_is_one_for_optimal_weights():
    sc = _scenario(interferers=(sm.InterfererSpec("tone", doa_deg=30.0,
                                                  power=100.0,
                                                  normalized_offset=2.0 / 31.0),))
    bases = mpb.maximin_bases(CODE)
    model = mpb.analytic_cov(sc, bases)
    w_opt = la.solve_hpd(model.q_s, model.a0)
    g = mpb.analytic_g(w_opt / np.linalg.norm(w_opt), model)
    assert abs(g - 1.0) < 1e-12


def test_measure_g_zero_for_orthogonal_weight():
    sc = _scenario()
    bases = mpb.maximin_bases(CODE)
    w = np.zeros(8, dtype=complex)
    w[0], w[1] = 1.0, -1.0          # a0 is all-ones at broadside
    g = mpb.analytic_g(w / np.sqrt(2.0), mpb.analytic_cov(sc, bases))
    assert g < 1e-30


@given(st.floats(0.1, 10.0), st.floats(0.0, 2 * np.pi))
def test_measure_g_scale_invariant(mag, phase):
    sc = _scenario(interferers=(sm.InterfererSpec("bpsk_white", doa_deg=30.0,
                                                  power=10.0),))
    bases = mpb.maximin_bases(CODE)
    rng = np.random.default_rng(33)
    w = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    model = mpb.analytic_cov(sc, bases)
    g1 = mpb.analytic_g(w, model)
    c = mag * np.exp(1j * phase)
    g2 = mpb.analytic_g(c * w, model)
    assert abs(g2 - g1) <= 1e-12 * g1


def test_measure_g_monte_carlo_tracks_analytic():
    sc = _scenario(interferers=(sm.InterfererSpec("bpsk_white", doa_deg=30.0,
                                                  power=100.0),),
                   power=0.5, symbols=20_000, seed=5)
    bases = mpb.maximin_bases(CODE)
    model = mpb.analytic_cov(sc, bases)
    bw = mpb.solve_weights(model.cov_pair(), model.a0)
    g_an = mpb.analytic_g(bw.w, model)
    g_mc = mpb.measure_g(bw, sc, bases)
    assert abs(10 * np.log10(g_mc / g_an)) < 0.2


# ---------- array pattern ----------

def test_pattern_peaks_at_steered_direction():
    a0 = sm.steering(0.0, GEO8)
    pat = mpb.array_pattern(a0 / np.linalg.norm(a0), GEO8,
                            np.arange(-90.0, 90.5, 0.5))
    best = max(pat, key=lambda p: p[1])
    assert best[0] == 0.0 and best[1] == 0.0


def test_pattern_single_element_is_flat():
    w = np.zeros(8, dtype=complex)
    w[0] = 1.0
    pat = mpb.array_pattern(w, GEO8, np.arange(-90.0, 90.5, 0.5))
    gains = np.array([g for _, g in pat])
    assert np.abs(gains).max() < 1e-12
