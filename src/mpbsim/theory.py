"""Closed-form performance prediction for the matrix pair beamformer.

Predicts the normalized output SINR curve G(SNR) — operating branch,
failure branch, and the threshold region between them — from the mismatch
spectrum of the covariance pair, without running any Monte Carlo. Also
bounds the largest generalized eigenvalue (prediction +- radius), analyzes
the noise-free pair to decide whether the dominant mismatch eigenvalue
grows without bound in INR, and checks the exact projected-covariance
inverse identities used throughout the derivations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg as la
from . import mpb
from . import sigmodel as sm


# -----------------------
# gamma0 and the mismatch spectrum
# -----------------------

def gamma0(snr: float, l_antennas: int, beta: float) -> float:
    """Closed-form signal-branch eigenvalue gamma_0 = (N-b)*L*snr / (L*b*snr + N),
    N = sm.GOLD_LENGTH."""
    n = sm.GOLD_LENGTH
    if snr < 0:
        raise ValueError("snr must be >= 0")
    if not 0 <= beta < n:
        raise ValueError(f"beta must lie in [0, N), got {beta}")
    return (n - beta) * l_antennas * snr / (l_antennas * beta * snr + n)


def gamma_spectrum(q_s: np.ndarray, q_i: np.ndarray, d: int) -> np.ndarray:
    """Mismatch eigenvalues gamma_1 >= ... >= gamma_D of (Q_S - Q_I, Q_I).

    Keeps the nonzero generalized eigenvalues (cutoff 1e-8 * max(1, max|.|))
    and zero-pads to length d. All returned values satisfy gamma + 1 > 0.
    """
    q_s = np.asarray(q_s, dtype=np.complex128)
    q_i = np.asarray(q_i, dtype=np.complex128)
    res = la.gen_eig_hpd(q_s - q_i, q_i)
    lam = res.eigenvalues
    cut = 1e-8 * max(1.0, float(np.abs(lam).max()) if lam.size else 0.0)
    keep = lam[np.abs(lam) > cut]
    out = np.zeros(d)
    if keep.size:
        out[:min(d, keep.size)] = np.sort(keep)[::-1][:d]
    return np.sort(out)[::-1]


def gamma1(model: mpb.AnalyticModel) -> float:
    """The model's top mismatch eigenvalue gamma_1 of (Q_S - Q_I, Q_I), 0
    without interferers. No SOI power moves it."""
    return float(gamma_spectrum(model.q_s, model.q_i, max(model.a_i_mat.shape[1], 1))[0])


def exact_lambda_max(model: mpb.AnalyticModel):
    """Top eigenvalue of the model's exact (R_S, R_I) pencil; on a grid
    model, one per SNR from one stacked solve."""
    return la.gen_eig_hpd(model.r_s, model.r_i).eigenvalues[..., 0]


@dataclass(frozen=True)
class MismatchSpectrum:
    """Exact eigen-ingredients of the (R_S, R_I) pencil at one SNR.

    gamma0/gammas/psi_t are evaluated from the analytic matrices (no
    large-SNR or small-leakage approximations), so lambda_max_pred +-
    bound_radius is a true enclosure whenever feasible is set. The
    dimensionless closed forms live in gamma0() and gamma_spectrum().
    """
    gamma0: float
    gammas: np.ndarray        # descending, length D
    beta: float
    delta: float
    psi_t: np.ndarray         # aligned with gammas
    lambda_max_pred: float
    bound_radius: float
    feasible: bool


def lambda_max_bound(gamma0_val: float, gamma1_val: float, delta: float):
    """Enclosure for the top pencil eigenvalue: (prediction, radius, feasible).

    prediction = max(gamma0, gamma1) + 1; the radius comes from the two-disk
    separation function f at x = min/max of the pair (negative when gamma1
    < 0). With no positive eigenvalue the pencil's top is exactly 1. When
    the two eigenvalues compete (ratio inside f's forbidden band) no
    enclosure exists and feasible is False.
    """
    if gamma0_val < 0:
        raise ValueError("gamma0 must be >= 0")
    lam_a = max(gamma0_val, gamma1_val)
    if lam_a <= 0.0:
        return 1.0, 0.0, True
    lam_b = min(gamma0_val, gamma1_val)
    try:
        radius = lam_a * la.f_bound(lam_b / lam_a, delta)
    except la.InfeasibleBoundError:
        return lam_a + 1.0, float("nan"), False
    return lam_a + 1.0, radius, True


def mismatch_spectrum(model: mpb.AnalyticModel):
    """Exact spectrum ingredients from an analytic covariance model.

    Diagonalizes (Phi_S - Phi_I, (A_I^H R_I^-1 A_I)^-1) simultaneously to
    get the mismatch eigenvalues and the coupling vector psi_T, then forms
    delta and the lambda_max enclosure. Requires the interference steering
    matrix to have full column rank (separated DOAs, D <= L). Powers are in
    units of the noise power, so the SNR is sigma_S0^2 = N P0 itself, and
    N is sm.GOLD_LENGTH.

    On a grid model every solve runs once, stacked over the grid, and so do
    a0^H R_I^-1 a0, the couplings and delta; the result is a list with one
    MismatchSpectrum per SNR, each equal to the spectrum of the model moved
    to that SNR alone. gamma0 is (sigma_S0^2 - sigma_I0^2) a0^H R_I^-1 a0,
    its one home from matrices. Without interferers (D = 0) the same code
    runs through 0 x 0 solves: no gammas or psi_t, and delta = 0.
    """
    big_l = model.a0.shape[0]
    snr = model.sigma_s0_sq
    a_mat = model.a_i_mat
    d = a_mat.shape[1]
    # one Cholesky of R_I serves gamma0, delta and the Gram matrix
    ri_inv = la.solve_hpd(model.r_i, np.column_stack([model.a0, a_mat]))
    ri_inv_a0, ri_inv_amat = ri_inv[..., 0], ri_inv[..., 1:]
    quad = mpb._dot(model.a0, ri_inv_a0).real
    g0 = (model.sigma_s0_sq - model.sigma_i0_sq) * quad

    gram = a_mat.conj().T @ ri_inv_amat
    gram = 0.5 * (gram + gram.conj().swapaxes(-1, -2))
    w_mat = la.solve_hpd(gram, np.eye(d, dtype=np.complex128))
    w_mat = 0.5 * (w_mat + w_mat.conj().swapaxes(-1, -2))
    phi_delta = (model.phi_s0 - model.phi_i0) * model.inr
    # T^H Phi_Delta T = diag(gammas), T^H W T = I
    res = la.gen_eig_hpd(0.5 * (phi_delta + phi_delta.conj().T), w_mat)
    gammas = res.eigenvalues
    # T^H W T = I gives T^-H = W T: no explicit inversion needed
    a_eps = a_mat @ (w_mat @ res.eigenvectors)
    coupling = (a_eps.conj().swapaxes(-1, -2) @ ri_inv_a0[..., None])[..., 0]
    coef = (big_l * model.beta / sm.GOLD_LENGTH) * snr + 1.0
    psi_t = np.expand_dims(coef, -1) * coupling
    # delta scales the top coupling against a0^H R_I^-1 a0 exactly; the
    # (L beta / N) snr + 1 normalization is only its wide-separation limit
    # and under-covers the enclosure by 1/(1 - xi). A repeated gamma_1 has
    # any basis of its eigenspace as eigenvectors, so the coupling is
    # summed over the whole top cluster, which no such choice moves.
    top = np.where(mpb.top_cluster(gammas), np.abs(coupling) ** 2, 0.0)
    delta = np.sum(top, axis=-1) / quad

    spectra = []
    for i in np.ndindex(quad.shape):
        g0_i, delta_i = float(g0[i]), float(delta[i])
        gamma1_i = float(gammas[i][0]) if d else 0.0
        spectra.append(MismatchSpectrum(g0_i, gammas[i], model.beta, delta_i, psi_t[i],
                                        *lambda_max_bound(g0_i, gamma1_i, delta_i)))
    return spectra if quad.shape else spectra[0]


# -----------------------
# G bounds, thresholds, operating curve
# -----------------------

def g_upper(q_s: np.ndarray, q_i: np.ndarray, a0: np.ndarray,
            qs_quad: float | None = None) -> float:
    """Operating-region ceiling G_U = [a0^H Q_I^-1 a0]^2 / ([a0^H Q_S^-1 a0][a0^H Q_I^-1 Q_S Q_I^-1 a0]).

    qs_quad is a0^H Q_S^-1 a0 when the caller has it (AnalyticModel.qs_quad).
    G_U <= 1 by Cauchy-Schwarz, and Q_S == Q_I (white interference) returns
    exactly 1, where the three forms would leave rounding residue.
    """
    if np.array_equal(q_s, q_i):
        return 1.0
    a0 = np.asarray(a0, dtype=np.complex128)
    qi_inv_a0 = la.solve_hpd(q_i, a0)
    num = np.vdot(a0, qi_inv_a0).real ** 2
    den1 = mpb.inv_quad(q_s, a0) if qs_quad is None else qs_quad
    den2 = np.vdot(qi_inv_a0, np.asarray(q_s, dtype=np.complex128) @ qi_inv_a0).real
    return float(num / (den1 * den2))


@dataclass(frozen=True)
class Thresholds:
    snr_t0: float
    snr_t1: float
    snr_t2: float
    k0: float
    p_i: float
    g_u: float
    g_l: float  # NaN until the caller fills in g_lower_oracle's floor


def thresholds(gamma1: float, beta: float, n_gain: int, l_antennas: int,
               g_u: float) -> Thresholds:
    """Threshold SNRs of the operating curve; infinities propagate.

    SNR_T0 solves gamma_0(SNR) = gamma_1. gamma_1 = 0 collapses everything
    to zero (horizontal curve); (N-beta)/gamma_1 < beta makes SNR_T0
    infinite (the curve only has a failure area). G_L is left NaN; where
    SNR_T0 > 0 the caller fills it in, replace(th, g_l=g_lower_oracle(model)).
    """
    if not 0 <= beta < n_gain:
        raise ValueError(f"beta must lie in [0, N), got {beta}")
    if not 0.0 < g_u <= 1.0 + 1e-12:
        raise ValueError(f"g_u must be in (0, 1], got {g_u}")
    g1p = max(gamma1, 0.0)
    if g1p == 0.0:
        t0 = 0.0
    else:
        denom = max((n_gain - beta) / g1p - beta, 0.0)
        t0 = math.inf if denom == 0.0 else (n_gain / l_antennas) / denom

    p_i = max(1.0 / g_u - 1.0, 0.0)
    t1 = (1.0 - math.sqrt(0.5)) * t0
    t2 = t0 / (1.0 - math.sqrt(p_i / (2.0 * p_i + 1.0))) if p_i > 0.0 else t0

    # the (.)^+ factor decides first: it is 0 whenever beta = 0 or the
    # mismatch is weak, and that zero must win over any infinite prefactor
    if beta == 0.0:
        k0 = 0.0
    else:
        plus = max(g1p - (n_gain - beta) / beta, 0.0)
        if plus == 0.0:
            k0 = 0.0
        else:
            inv_t0 = 0.0 if t0 == math.inf else (n_gain / l_antennas) / t0
            k0 = (beta + inv_t0) / (n_gain - beta) * plus
    return Thresholds(t0, t1, t2, k0, p_i, g_u, math.nan)


def _g_operating(snr: float, th: Thresholds) -> float:
    """The operating branch above SNR_T2. At SNR_T2 itself, where (1 -
    SNR_T0/SNR_T2)^2 = p_i / (2 p_i + 1), it is G_U / 2 for every p_i > 0.
    With p_i = 0 (G_U rounds to 1 or above) SNR_T2 = SNR_T0, where the form
    is 0/0, so operating_curve takes its limit G_U / 2 there itself."""
    frac = 0.0 if th.snr_t0 == 0.0 else th.snr_t0 / snr
    return (th.p_i + 1.0) / (th.p_i / (1.0 - frac) ** 2 + 1.0) * th.g_u


def _g_failure(snr: float, th: Thresholds, beta: float, l_antennas: int) -> float:
    lead = 0.0 if th.snr_t0 == math.inf else snr / th.snr_t0
    den = 1.0 - lead + th.k0 * (l_antennas * beta * snr / sm.GOLD_LENGTH + 1.0)
    return ((1.0 + th.k0) / den) ** 2 * th.g_l


def operating_curve(model: mpb.AnalyticModel, th: Thresholds, snr_grid) -> list:
    """Predicted G over a linear-SNR grid with region tags: one (snr, g,
    region) per grid SNR, region one of "Failure", "Threshold", "Operating".

    Above SNR_T2 the operating branch applies, below SNR_T1 the failure
    branch; the band between is bridged by a straight line in
    (log SNR, dB G) coordinates, which is a declared drawing rule rather
    than a formula. Its upper end is G_U / 2, the operating branch at
    SNR_T2 (_g_operating); with p_i = 0 the branch is G_U above SNR_T2
    and G_U / 2 at it, its limit as p_i -> 0. Of the model only beta and
    L are read, neither of which depends on the SNR, so any SNR of the
    model serves.
    """
    grid = [float(s) for s in snr_grid]
    if not grid:
        raise ValueError("empty SNR grid")
    beta, big_l = model.beta, model.a0.shape[0]
    needs_gl = any(s <= th.snr_t2 for s in grid) and th.snr_t0 > 0.0
    if needs_gl and not th.g_l > 0.0:
        raise ValueError("failure/threshold region requested but g_l is not set")

    points = []
    for snr in grid:
        if snr <= 0:
            raise ValueError("snr grid must be positive")
        if snr > th.snr_t2:
            points.append((snr, _g_operating(snr, th), "Operating"))
        elif snr < th.snr_t1:
            points.append((snr, _g_failure(snr, th, beta, big_l), "Failure"))
        else:
            g1 = _g_failure(th.snr_t1, th, beta, big_l)
            g2 = _g_operating(th.snr_t2, th) if th.p_i > 0.0 else 0.5 * th.g_u
            frac = (math.log10(snr) - math.log10(th.snr_t1)) / \
                   (math.log10(th.snr_t2) - math.log10(th.snr_t1))
            g_db = (1.0 - frac) * 10.0 * math.log10(g1) + frac * 10.0 * math.log10(g2)
            points.append((snr, 10.0 ** (g_db / 10.0), "Threshold"))
    return points


G_LOWER_PROBE_SNR = 1e-6  # linear; G is flat to 1e-4 relative below it


def g_lower_oracle(model: mpb.AnalyticModel) -> float:
    """Failure-region floor G_L: the normalized output SINR as SNR -> 0.

    There is no cheaper exact route than the definition itself, so this
    moves the analytic model to G_LOWER_PROBE_SNR, where G has reached its
    floor (model.at_snr sets the SOI power alone; Q_S, Q_I and
    a0^H Q_S^-1 a0 are carried over, not recomputed), solves the weights
    exactly and evaluates analytic G. No gamma_1 is solved: the curve reads
    G_L only on its failure branch, which exists when SNR_T0 > 0, and
    thresholds sets that exactly when gamma_1 > 0.
    """
    model_probe = model.at_snr(G_LOWER_PROBE_SNR)
    bw = mpb.solve_weights(model_probe.cov_pair(), model_probe.a0)
    return mpb.analytic_g(bw.w, model_probe)


def g_of_lambda(lambda_max: float, spectrum: MismatchSpectrum, snr: float,
                l_antennas: int) -> float:
    """Exact-ingredient evaluation of G as a function of the top eigenvalue.

    psi_S and psi_I are partial-fraction sums over the mismatch eigenvalues;
    lambda_max sitting on a pole (gamma_i + 1) is rejected. N is
    sm.GOLD_LENGTH.
    """
    n = sm.GOLD_LENGTH
    gam = np.asarray(spectrum.gammas, dtype=np.float64)
    psi_t2 = np.abs(np.asarray(spectrum.psi_t)) ** 2
    poles = gam + 1.0
    if np.any(np.abs(lambda_max - poles) < 1e-12 * np.abs(poles)):
        raise ValueError("lambda_max coincides with a mismatch pole")
    ratio = (lambda_max - 1.0) / (lambda_max - poles)
    psi_s = (1.0 / l_antennas) * float(np.sum(ratio * psi_t2))
    psi_i = (1.0 / l_antennas) * float(np.sum(poles * ratio ** 2 * psi_t2))
    mix = l_antennas * spectrum.beta * snr
    a = 1.0 + (n / (mix + n)) * psi_s
    b = psi_i - (mix / (mix + n)) * psi_s ** 2
    return a * a / (b + a * a)


# -----------------------
# Noise-free pair analysis
# -----------------------

@dataclass(frozen=True)
class NoiseFreeAnalysis:
    """INR-normalized noise-free covariance pair and what it implies.

    y_s / y_i are built at INR = 1; scaling to any INR is exact by
    homogeneity, so c_y0 is computed once and gamma1_lower scales it.
    infinite_count and has_infinite come from the pencil's ranks (the
    null-space route); the waveform route is geometric_bounded, which reads
    no part of this.
    """
    y_s: np.ndarray
    y_i: np.ndarray
    c_y0: float
    has_infinite: bool
    infinite_count: int


def boundedness_criterion(h_s: np.ndarray, h_i: np.ndarray, s_i: np.ndarray) -> bool:
    """True iff the mismatch eigenvalue stays bounded as INR grows.

    Geometric route: project both bases onto the interference waveform
    space V_I = range(S_I); bounded iff the projected monitor space covers
    the projected signal vector.
    """
    s_i = np.asarray(s_i, dtype=np.complex128)
    if s_i.size == 0:
        raise ValueError("empty waveform matrix")
    v_i = la.orthonormal_range(s_i)
    proj = v_i @ v_i.conj().T
    h_s = np.asarray(h_s, dtype=np.complex128).reshape(-1, 1)
    lhs = la.orthonormal_range(proj @ np.asarray(h_i, dtype=np.complex128))
    rhs = la.orthonormal_range(proj @ h_s)
    return la.subspace_contains(lhs, rhs, 1e-8)


def noise_free_pair(model: mpb.AnalyticModel) -> NoiseFreeAnalysis:
    """The covariance pair with the noise stripped and the INR factored out.

    Y_S = A_I Phi_S0 A_I^H and Y_I = A_I Phi_I0 A_I^H come from the model's
    INR-invariant Phi matrices, so one model serves every INR. The pair has
    rank(Y_S + Y_I) - rank(Y_I) infinite generalized eigenvalues
    (la.gen_eig_homogeneous), and gamma_1 grows without bound in INR iff
    that count is positive. C_Y0 is the Crawford number on range(Y_S + Y_I),
    of the pair compressed onto the basis E0 that solve deflates onto
    (E0^H Y E0, which la.crawford makes Hermitian), so one SVD serves both.
    Without interferers both matrices are zero: no eigenvalue, infinite or
    finite, and C_Y0 = 0.
    """
    y_s = model.a_i_mat @ model.phi_s0 @ model.a_i_mat.conj().T
    y_i = model.a_i_mat @ model.phi_i0 @ model.a_i_mat.conj().T
    y_s = 0.5 * (y_s + y_s.conj().T)
    y_i = 0.5 * (y_i + y_i.conj().T)

    hom = la.gen_eig_homogeneous(y_s, y_i)
    e0 = hom.basis
    c_y0 = la.crawford(e0.conj().T @ y_s @ e0, e0.conj().T @ y_i @ e0)
    return NoiseFreeAnalysis(y_s, y_i, float(c_y0), hom.infinite_count > 0,
                             hom.infinite_count)


def geometric_bounded(scenario: sm.Scenario, bases: mpb.ProjectionBases) -> bool | None:
    """The waveform route to boundedness, independent of noise_free_pair.

    Defined only when every path sm.realize_paths draws is of the
    "periodic" family (None otherwise, and for a scenario without
    interferers). Phi has cross terms only between coherent paths
    (sm.coherent, the rule the simulation shares), so with A_I of full
    column rank the pencil splits by coherence class, and the pair is
    bounded iff every class passes boundedness_criterion on its own
    waveform space. One space for all paths is right only when they form
    one class.
    """
    paths = sm.realize_paths(scenario)
    if not paths or any(p.family != "periodic" for p in paths):
        return None
    classes = {}  # block phase of a class's first path -> the class's waveforms
    for p in paths:
        key = next((k for k in classes if sm.coherent(k, p.block_phase)),
                   p.block_phase)
        classes.setdefault(key, []).append(p.waveform)
    return all(boundedness_criterion(bases.h_s, bases.h_i, np.stack(w, axis=1))
               for w in classes.values())


def gamma1_lower_bound(c_y0: float, inr: float):
    """Lower bound C_Y0 * INR / sqrt(2) - 1 on gamma_1, or None when the
    perturbation condition sqrt(2) < C_Y0 * INR fails (bound not applicable)."""
    if c_y0 < 0 or inr < 0:
        raise ValueError("c_y0 and inr must be >= 0")
    if math.sqrt(2.0) >= c_y0 * inr:
        return None
    return c_y0 * inr / math.sqrt(2.0) - 1.0


# -----------------------
# Projected-inverse identities
# -----------------------

def verify_supplementary_identities(scenario: sm.Scenario, bases: mpb.ProjectionBases,
                                    snr: float) -> dict:
    """Check the closed form of a0^H R_I^-1 a0 against direct inversion.

    In units of the noise power, the exact form is
    L (1-xi) / ((L b / N)(1-xi) SNR + 1) with
    xi = rho0 - kappa0 built from the interference Gram structure: with
    psi = A_I^H a0 / L and Psi = A_I^H A_I / L, rho0 = psi^H Psi^-1 psi and
    kappa0 = (Psi^-1 psi)^H (L Phi_I + Psi^-1)^-1 (Psi^-1 psi). The
    simplified form used in the derivations drops xi entirely. Returns both
    deviations plus the (rho0, kappa0, xi) triple.
    """
    model = mpb.analytic_cov(scenario, bases).at_snr(snr)
    # the reference: a direct solve, independent of the closed form
    exact = float(np.vdot(model.a0, la.solve_hpd(model.r_i, model.a0)).real)
    big_l = model.a0.shape[0]
    a_mat = model.a_i_mat
    d = a_mat.shape[1]
    rho0 = kappa0 = 0.0
    if d:
        psi = a_mat.conj().T @ model.a0 / big_l
        psi_mat = a_mat.conj().T @ a_mat / big_l
        # one Cholesky of Psi serves Psi^-1 psi and Psi^-1
        psi_sol = la.solve_hpd(psi_mat, np.column_stack([psi, np.eye(d, dtype=np.complex128)]))
        psi_inv_psi, psi_mat_inv = psi_sol[:, 0], psi_sol[:, 1:]
        rho0 = float(np.vdot(psi, psi_inv_psi).real)
        phi_i = model.phi_i0 * model.inr
        xi_core = big_l * phi_i + psi_mat_inv
        xi_mat = la.solve_hpd(0.5 * (xi_core + xi_core.conj().T),
                              np.eye(d, dtype=np.complex128))
        kappa0 = float(np.vdot(psi_inv_psi, xi_mat @ psi_inv_psi).real)
    xi = rho0 - kappa0
    mix = (big_l * model.beta / sm.GOLD_LENGTH) * snr
    closed = big_l * (1.0 - xi) / (mix * (1.0 - xi) + 1.0)
    simplified = big_l / (mix + 1.0)
    return {
        "exact": exact,
        "closed_form": closed,
        "rel_deviation": abs(closed - exact) / abs(exact),
        "simplified": simplified,
        "simplified_rel_error": abs(simplified - exact) / abs(exact),
        "rho0": rho0,
        "kappa0": kappa0,
        "xi": xi,
    }
