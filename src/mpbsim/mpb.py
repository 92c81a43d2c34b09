"""The matrix pair beamformer.

Projects each data block onto a signal space (the SOI's temporal signature)
and an interference-monitoring space, forms the two projected covariance
matrices, and takes the dominant generalized eigenvector of the pair as the
weight vector. Includes both the sample path (Monte Carlo sample
covariances, whose receiver noise is drawn from the exact finite-K law of
the sums rather than symbol by symbol) and the analytic path (closed-form
covariance structure), the normalized output SINR measure G, and array
patterns.
"""

from __future__ import annotations

import copy
import math
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import linalg as la
from . import sigmodel as sm

DEFAULT_MAXIMIN_FREQ = 16.0 / 31.0  # monitor frequency k/N: orthogonal to the code space


# -----------------------
# Projection bases
# -----------------------

@dataclass(frozen=True)
class ProjectionBases:
    """Signal-space vector h_s (= c0/sqrt(N)) and interference basis h_i (N x r_I).

    h_i must hold at least one column, its columns orthonormal, and must
    not capture the whole signal vector: a beamformer whose monitor space
    contains h_s cannot separate the SOI from the interference estimate.
    The scheme that built them is named by the config (harness.SchemeConfig),
    not here: nothing downstream reads it.
    """
    h_s: np.ndarray
    h_i: np.ndarray

    def __post_init__(self):
        h_s = np.asarray(self.h_s, dtype=np.complex128)
        h_i = np.asarray(self.h_i, dtype=np.complex128)
        if h_i.ndim != 2 or h_i.shape[0] != h_s.shape[0]:
            raise ValueError("h_i must be N x r_I")
        if h_i.shape[1] == 0:
            raise ValueError("h_i must have at least one column")
        # every check below is a comparison, and NaN fails none of them
        for name, h in (("h_s", h_s), ("h_i", h_i)):
            if not np.isfinite(h).all():
                raise ValueError(f"{name} contains non-finite entries")
        if abs(np.vdot(h_s, h_s).real - 1.0) > 1e-12:
            raise ValueError("h_s must be unit norm")
        gram = h_i.conj().T @ h_i
        if np.abs(gram - np.eye(h_i.shape[1])).max() > 1e-12:
            raise ValueError("h_i columns must be orthonormal")
        leak = float(np.sum(np.abs(h_i.conj().T @ h_s) ** 2))
        if leak > 1.0 - 1e-9:
            raise ValueError("h_i contains the signal vector (degenerate bases)")
        object.__setattr__(self, "h_s", h_s)
        object.__setattr__(self, "h_i", h_i)

    @property
    def r_i(self) -> int:
        return self.h_i.shape[1]


def check_built_for(bases: ProjectionBases, code: np.ndarray) -> None:
    """Raise ValueError unless h_s is code/sqrt(N), the signal vector of code."""
    if bases.h_s.shape != code.shape or \
            np.abs(bases.h_s - code / math.sqrt(code.size)).max() > 1e-12:
        raise ValueError("h_s must be the SOI code over sqrt(N): the bases were "
                         "built for a different code")


def papc_bases(code: np.ndarray, position: int = 0) -> ProjectionBases:
    """Single-component monitor: h_i = e_position, h_s = code/sqrt(N).

    Any position gives power leakage ratio beta = 1 for a +-1 code; the
    default 0 is fixed purely for reproducibility.
    """
    code = np.asarray(code, dtype=np.float64)
    n = code.shape[0]
    if not np.all(np.abs(code) == 1.0):
        raise ValueError("code chips must be +-1")
    if not 0 <= position < n:
        raise ValueError(f"position must be in [0, {n})")
    h_i = np.zeros((n, 1), dtype=np.complex128)
    h_i[position, 0] = 1.0
    return ProjectionBases(code / math.sqrt(n), h_i)


def maximin_bases(code: np.ndarray, monitor_freq: float = DEFAULT_MAXIMIN_FREQ) -> ProjectionBases:
    """Frequency-shifted matched filter monitor.

    h_i = (1/sqrt(N)) * code (*) [1, e^{j2 pi f}, ..., e^{j2 pi f (N-1)}].
    For f = k/N with integer k != 0 the monitor is exactly orthogonal to the
    signal vector, so beta = 0; f = 1 collapses onto h_s and is rejected.
    """
    code = np.asarray(code, dtype=np.float64)
    n = code.shape[0]
    if not np.all(np.abs(code) == 1.0):
        raise ValueError("code chips must be +-1")
    if not 0.0 < monitor_freq <= 1.0:
        raise ValueError(f"monitor_freq must be in (0, 1], got {monitor_freq}")
    ramp = np.exp(1j * 2.0 * math.pi * monitor_freq * np.arange(n))
    h_i = (code * ramp)[:, None] / math.sqrt(n)
    return ProjectionBases(code / math.sqrt(n), h_i)


# An orthogonal monitor column's N-term inner product with c0 (||h|| = 1,
# ||c0|| = sqrt(N)) rounds to at most N eps sqrt(N), so its square, the
# column's leakage, to at most N (N eps)^2, about 1.5e-27. beta, the mean
# leakage of the columns, at or below that is rounding residue.
LEAKAGE_ROUNDING = sm.GOLD_LENGTH * (sm.GOLD_LENGTH * np.finfo(np.float64).eps) ** 2


def leakage_ratio(bases: ProjectionBases, code: np.ndarray) -> float:
    """Power leakage ratio beta = ||h_i^H c0||^2 / r_I, exactly 0 at or below
    LEAKAGE_ROUNDING (so the Maximin monitor at f = k/N gives 0)."""
    code = np.asarray(code, dtype=np.complex128)
    beta = float(np.sum(np.abs(bases.h_i.conj().T @ code) ** 2)) / bases.r_i
    return 0.0 if beta <= LEAKAGE_ROUNDING else beta


# -----------------------
# Snapshots and sample covariances
# -----------------------

def snapshots(x: np.ndarray, bases: ProjectionBases):
    """Project (K, L, N) blocks: x_s(k) = X(k) h_s*, x_i(k) = X(k) h_i*."""
    if x.shape[2] != bases.h_s.shape[0]:
        raise ValueError("block width does not match basis length")
    return x @ bases.h_s.conj(), x @ bases.h_i.conj()


@dataclass(frozen=True)
class CovariancePair:
    """R_S and R_I; solve_weights checks that both are Hermitian."""
    r_s: np.ndarray
    r_i: np.ndarray


def _sample_pair(acc_s: np.ndarray, acc_i: np.ndarray, k: int, r_i_dim: int) -> CovariancePair:
    """R_S = acc_s / K and R_I = acc_i / (K r_I), made exactly Hermitian;
    acc_s and acc_i may be stacks (..., L, L)."""
    big_l = acc_s.shape[-1]
    if k < 10 * big_l:
        warnings.warn(f"only {k} snapshots for L={big_l}: covariance estimates are noisy")
    r_s = acc_s / k
    r_i = acc_i / (k * r_i_dim)
    return CovariancePair(0.5 * (r_s + la._h(r_s)), 0.5 * (r_i + la._h(r_i)))


def estimate_cov_pair(x_s: np.ndarray, x_i: np.ndarray) -> CovariancePair:
    """Sample covariances R_S = avg x_s x_s^H, R_I = avg X_I X_I^H / r_I.

    x_s is (K, L) and x_i is (K, L, r_I), as snapshots returns them.
    """
    x_s = np.asarray(x_s, dtype=np.complex128)
    x_i = np.asarray(x_i, dtype=np.complex128)
    k, big_l = x_s.shape
    if k < big_l:
        raise ValueError(f"need at least L={big_l} snapshots, got {k}")
    x_it = x_i.transpose(1, 0, 2).reshape(x_i.shape[1], -1)  # L x (K r_I)
    return _sample_pair(x_s.T @ x_s.conj(), x_it @ x_it.conj().T, k, x_i.shape[2])


def accumulate_cov_pair(scenario: sm.Scenario, bases: ProjectionBases,
                        include=("soi", "interference", "noise"),
                        points=None) -> CovariancePair:
    """estimate_cov_pair over all scenario symbols, without their snapshots,
    of the scenario or at every point of a sweep grid.

    points, when given, is a sequence of (soi_power, mc_stream) (see
    sm.projected_sum); R_S and R_I are then stacks of shape (P, L, L), each
    slice bitwise equal to the pair of the scenario with that SOI power and
    mc_stream computed alone. The sums come from one sm.projected_sum call
    with the basis [h_s, h_i]: R_S is its h_s block, and R_I the sum of its
    h_i diagonal blocks over r_I. The L x N blocks are never formed, and
    receiver noise is drawn from the exact law of the sums; see that
    function.
    """
    m = 1 + bases.r_i
    total = sm.projected_sum(scenario, np.column_stack([bases.h_s, bases.h_i]),
                             include=include, points=points)
    big_l = total.shape[-1] // m
    blocks = total.reshape(*total.shape[:-2], m, big_l, m, big_l)
    acc_i = np.einsum("...jajb->...ab", blocks[..., 1:, :, 1:, :])
    return _sample_pair(blocks[..., 0, :, 0, :], acc_i, scenario.symbols, bases.r_i)


# -----------------------
# Analytic covariance structure
# -----------------------

def _soi_power(snr):
    """P0 = SNR / N, N = sm.GOLD_LENGTH, from a linear SNR (or an array of
    them), with powers in units of the noise power: the one home of the
    conversion, for harness.scenario_at and AnalyticModel.at_snr."""
    return snr / sm.GOLD_LENGTH


@dataclass(frozen=True)
class AnalyticModel:
    """Closed-form second-order model of the projected snapshots.

    R_S = sigma_s0_sq * a0 a0^H + q_s and R_I = sigma_i0_sq * a0 a0^H + q_i,
    with q_s = a_i_mat Phi_S a_i_mat^H + I (Phi_S = inr * phi_s0) and
    likewise for q_i. Powers are in units of the noise power sigma^2, so
    the noise adds I, and N is sm.GOLD_LENGTH.

    The init fields are what the model is: the INR-invariant phi_s0 and
    phi_i0, the geometry, and the two scalars that move, the SOI power P0
    (soi_power) and the INR of the strongest path (inr). q_s and q_i are
    derived from them here and nowhere else, so replace() rebuilds them.
    Only sigma_S0^2 = N P0 and sigma_I0^2 = beta P0 depend on P0, and only
    q_s and q_i on the INR: at_snr and at_inr move one model along either
    axis instead of rebuilding it from a scenario. at_snr copies the model
    and sets P0 alone, so q_s, q_i and qs_quad carry over unrecomputed.

    soi_power may be an array of SOI powers, one per point of an SNR grid
    (at_snr with an array). The model then describes the whole grid:
    sigma_S0^2 and sigma_I0^2 are arrays, and r_s and r_i are stacks of
    shape (grid, L, L) from the same formula, each slice bitwise equal to
    the model moved to that point's SNR alone.
    """
    phi_s0: np.ndarray
    phi_i0: np.ndarray
    soi_power: float
    beta: float
    a0: np.ndarray
    a_i_mat: np.ndarray
    inr: float
    q_s: np.ndarray = field(init=False)
    q_i: np.ndarray = field(init=False)

    def __post_init__(self):
        eye = np.eye(self.a0.shape[0], dtype=np.complex128)
        for name, phi0 in (("q_s", self.phi_s0), ("q_i", self.phi_i0)):
            q = self.a_i_mat @ (phi0 * self.inr) @ self.a_i_mat.conj().T + eye
            object.__setattr__(self, name, 0.5 * (q + q.conj().T))

    @property
    def sigma_s0_sq(self) -> float:
        return sm.GOLD_LENGTH * self.soi_power

    @property
    def sigma_i0_sq(self) -> float:
        return self.soi_power * self.beta

    def at_snr(self, snr) -> AnalyticModel:
        """The same model with P0 set from a linear SNR = N P0, or the grid
        model of an array of SNRs. Nothing else is recomputed."""
        moved = copy.copy(self)  # no __post_init__: q_s and q_i are shared
        object.__setattr__(moved, "soi_power", _soi_power(snr))
        return moved

    def at_inr(self, inr: float) -> AnalyticModel:
        """The same model with every interferer power scaled so that the
        strongest path's INR is inr; the relative powers are kept."""
        return replace(self, inr=inr)

    def _plus_soi(self, sigma_sq, q: np.ndarray) -> np.ndarray:
        """sigma_sq a0 a0^H + q; a stack over an array of sigma_sq."""
        return np.multiply.outer(sigma_sq, np.outer(self.a0, self.a0.conj())) + q

    @property
    def r_s(self) -> np.ndarray:
        return self._plus_soi(self.sigma_s0_sq, self.q_s)

    @property
    def r_i(self) -> np.ndarray:
        return self._plus_soi(self.sigma_i0_sq, self.q_i)

    @cached_property
    def qs_quad(self) -> float:
        """a0^H Q_S^-1 a0, which no SOI power moves: one Cholesky of Q_S
        serves every SNR the model is moved to."""
        return inv_quad(self.q_s, self.a0)

    def cov_pair(self) -> CovariancePair:
        return CovariancePair(self.r_s, self.r_i)


def _phi_entries(paths, h_s: np.ndarray, h_i: np.ndarray, r_i_dim: int):
    """Unit-power projection covariances (Phi without the power weighting)."""
    d = len(paths)
    phi_s = np.zeros((d, d), dtype=np.complex128)
    phi_i = np.zeros((d, d), dtype=np.complex128)
    qs = [None] * d   # scalar projection onto h_s per path
    qi = [None] * d   # r_I-row projection onto h_i per path
    for i, p in enumerate(paths):
        if p.family == "periodic":
            qs[i] = complex(p.waveform @ h_s.conj())
            qi[i] = p.waveform @ h_i.conj()
        elif p.family == "mai":
            qs[i] = (complex(p.head @ h_s.conj()), complex(p.tail @ h_s.conj()))
            qi[i] = (p.head @ h_i.conj(), p.tail @ h_i.conj())
    for i, pi_ in enumerate(paths):
        for j, pj in enumerate(paths):
            if pi_.family == "white" or pj.family == "white":
                if i == j:
                    phi_s[i, j] = 1.0
                    phi_i[i, j] = 1.0
                continue
            if pi_.family != pj.family:
                continue  # random data vs deterministic phase: mean zero
            if pi_.family == "periodic":
                # a cross term survives the average over symbols only
                # between paths that share one ramp
                if sm.coherent(pi_.block_phase, pj.block_phase):
                    phi_s[i, j] = qs[i] * np.conj(qs[j])
                    phi_i[i, j] = np.vdot(qi[j], qi[i]) / r_i_dim
            else:  # mai x mai
                if pi_.stream_index != pj.stream_index:
                    continue  # independent users
                hu_i, hv_i = qs[i]
                hu_j, hv_j = qs[j]
                phi_s[i, j] = hu_i * np.conj(hu_j) + hv_i * np.conj(hv_j)
                ru_i, rv_i = qi[i]
                ru_j, rv_j = qi[j]
                phi_i[i, j] = (np.vdot(ru_j, ru_i) + np.vdot(rv_j, rv_i)) / r_i_dim
    return phi_s, phi_i


def analytic_cov(scenario: sm.Scenario, bases: ProjectionBases) -> AnalyticModel:
    """Exact second-order model for the configured interference families.

    White interferers contribute identity projection covariance on both
    channels; periodic ones (tones, repeated noise segments) contribute
    deterministic one-period projections with cross terms kept only between
    coherent pairs (sm.coherent); multipath rays of one user contribute the
    head/tail chip-overlap products of their shared data stream. All three
    are exact large-sample limits, not fits.
    """
    code = scenario.soi.code
    check_built_for(bases, code)
    geo = scenario.geometry
    paths = sm.realize_paths(scenario)
    a_mat = sm.steering_matrix(paths, geo)
    powers = np.array([p.power for p in paths], dtype=np.float64)
    inr = float(powers.max()) if len(paths) else 1.0

    phi_s0_raw, phi_i0_raw = _phi_entries(paths, bases.h_s, bases.h_i, bases.r_i)
    w = np.sqrt(powers)
    phi_s = w[:, None] * phi_s0_raw * w[None, :]
    phi_i = w[:, None] * phi_i0_raw * w[None, :]
    return AnalyticModel(
        phi_s0=phi_s / inr,
        phi_i0=phi_i / inr,
        soi_power=scenario.soi.power,
        beta=leakage_ratio(bases, code),
        a0=sm.steering(scenario.soi.doa_deg, geo),
        a_i_mat=a_mat,
        inr=inr,
    )


# -----------------------
# Weights, SINR, G
# -----------------------

@dataclass(frozen=True)
class BeamWeights:
    w: np.ndarray
    lambda_max: float


def top_cluster(eigenvalues: np.ndarray) -> np.ndarray:
    """Mask of the descending eigenvalues within 1e-8 relative of the first,
    along the last axis of any stack of them."""
    top = eigenvalues[..., :1]
    return eigenvalues >= top - 1e-8 * np.maximum(1.0, np.abs(top))


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u^H v of two stacks of vectors (..., n), as one (1 x n)(n x 1)
    product per slice, so that a slice equals its point alone bit for bit."""
    return (u.conj()[..., None, :] @ v[..., :, None])[..., 0, 0]


def solve_weights(pair: CovariancePair, a0: np.ndarray) -> BeamWeights:
    """Dominant generalized eigenvector of (R_S, R_I), unit-normalized.

    When the top eigenvalue is a cluster (within 1e-8 relative) the member
    with the largest |w^H a0| wins (the first of equal ones), which keeps
    the weight deterministic at competition boundaries.

    R_S and R_I may be stacks (..., L, L), one pair per point of a grid:
    the pencils are solved in one call and every point's pick is one masked
    argmax over the stack; w then has shape (..., L) and lambda_max the
    stack's leading shape.
    """
    res = la.gen_eig_hpd(pair.r_s, pair.r_i)
    a0 = np.asarray(a0, dtype=np.complex128)
    vecs = res.eigenvectors
    scores = np.where(top_cluster(res.eigenvalues), np.abs(a0.conj() @ vecs), -1.0)
    pick = np.argmax(scores, axis=-1)[..., None, None]
    v = np.take_along_axis(vecs, pick, axis=-1)[..., 0]
    w = v / np.sqrt(_dot(v, v).real)[..., None]
    lam_max = res.eigenvalues[..., 0]
    return BeamWeights(w, float(lam_max) if not lam_max.shape else lam_max)


def inv_quad(m: np.ndarray, a0: np.ndarray) -> float:
    """a0^H M^-1 a0 for Hermitian positive-definite M."""
    a0 = np.asarray(a0, dtype=np.complex128)
    return float(np.vdot(a0, la.solve_hpd(m, a0)).real)


def analytic_g(w: np.ndarray, model: AnalyticModel):
    """G = SINR(w) / SINR_opt of a fixed weight under a closed-form model:
    sigma_S0^2 |w^H a0|^2 / (w^H Q_S w) over sigma_S0^2 a0^H Q_S^-1 a0.

    On a grid model, w is a stack (..., L) of one weight per SNR and G an
    array of that leading shape, from the same expression. SINR_opt reads
    the model's qs_quad, so Q_S is factored once however many SNRs are
    evaluated. A weight with w^H Q_S w <= 0 (w = 0) raises ValueError.
    """
    w = np.asarray(w, dtype=np.complex128)
    sigma = model.sigma_s0_sq
    den = _dot(w, (model.q_s @ w[..., None])[..., 0]).real
    if np.any(den <= 0.0):
        raise ValueError("non-positive interference-plus-noise power")
    g = sigma * np.abs(_dot(w, model.a0)) ** 2 / den / (sigma * model.qs_quad)
    return float(g) if not g.shape else g


def measure_g(weights: BeamWeights, scenario: sm.Scenario, bases: ProjectionBases) -> float:
    """Monte Carlo G = SINR(w) / SINR_opt of a fixed weight.

    SINR(w) is w^H S_S w / w^H S_I w with the sums S_S of the signal-only
    and S_I of the interference-plus-noise-only snapshots x_s = X(k) h_s*
    (sm.projected_sum on basis h_s; separate sums remove the cross-term
    estimation noise), normalized by the analytic optimum SINR_opt =
    sigma_S0^2 a0^H Q_S^-1 a0, read as analytic_g reads it. analytic_g is
    the closed-form counterpart.
    """
    model = analytic_cov(scenario, bases)
    opt = model.sigma_s0_sq * model.qs_quad
    w = weights.w
    h_s = bases.h_s[:, None]
    num = np.vdot(w, sm.projected_sum(scenario, h_s, include=("soi",)) @ w).real
    den = np.vdot(w, sm.projected_sum(scenario, h_s,
                                      include=("interference", "noise")) @ w).real
    if den <= 0.0:
        raise ValueError("interference-plus-noise output power is zero")
    return float((num / den) / opt)


# -----------------------
# Array pattern
# -----------------------

def array_pattern(w: np.ndarray, geometry: sm.ArrayGeometry, theta_grid_deg) -> list:
    """Peak-normalized power pattern: (theta_deg, 20 log10 |w^H a(theta)| - peak)."""
    w = np.asarray(w, dtype=np.complex128)
    thetas = list(theta_grid_deg)
    if not thetas:
        raise ValueError("empty theta grid")
    # response evaluation, not source placement: endfire +-90 is allowed here
    idx = np.arange(geometry.element_count)
    resp = np.exp(2j * np.pi * geometry.spacing
                  * np.outer(np.sin(np.radians(thetas)), idx))
    mags = np.abs(resp @ w.conj())
    peak = mags.max()
    if peak == 0.0:
        raise ValueError("all-zero pattern")
    gains = 20.0 * np.log10(np.maximum(mags, peak * 1e-300) / peak)
    return [(float(t), float(g)) for t, g in zip(thetas, gains)]
