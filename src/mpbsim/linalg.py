"""Dense complex linear algebra for the covariance-pair theory.

Thin domain code over numpy.linalg (LAPACK): Hermitian eigendecomposition,
Cholesky with a relative pivot floor, the definite generalized eigenproblem,
the eigenvalue counts of a PSD pair, SVD-based subspace geometry, and the
perturbation-bound toolbox (Crawford number, the f(x) radius function).

Inputs are validated here (finite, square, Hermitian where required), once
per call, and a LAPACK failure surfaces as this module's
NotPositiveDefiniteError or ConvergenceError, never as
numpy.linalg.LinAlgError. solve_hpd and gen_eig_hpd reduce through one
floored Cholesky factor L and one inverse of it: numpy has no triangular
solver, and L^-1 serves every product with L^-1 or L^-H.

herm_eig, cholesky, solve_hpd and gen_eig_hpd take one matrix or a stack
of them, shape (..., n, n), through one implementation: a 2-D input is a
stack of one. numpy.linalg runs the same LAPACK routine on every slice of
a stack, so a slice's result equals, bit for bit, that of solving it
alone. Every check runs per slice at its own scale, and a stack is solved
once: a failing slice raises its check's or LAPACK's message, which names
the matrix but no slice; the caller names the point (harness._by_point).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class LinAlgError(Exception):
    """Base class for numerical failures in this module."""


class NotPositiveDefiniteError(LinAlgError):
    pass


class ConvergenceError(LinAlgError):
    pass


class InfeasibleBoundError(LinAlgError):
    """x fell inside the forbidden band of the f(x) radius function."""


# -----------------------
# Validation helpers
# -----------------------

def _check_finite(m: np.ndarray, name: str) -> None:
    """Raise unless every entry of the matrix or stack m is finite."""
    if not np.isfinite(m).all():
        raise LinAlgError(f"{name} contains non-finite entries")


def _as_matrix(a, name: str = "matrix") -> np.ndarray:
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise LinAlgError(f"{name} must be 2-D, got ndim={m.ndim}")
    _check_finite(m, name)
    return m


def _h(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each slice of a stack."""
    return m.conj().swapaxes(-1, -2)


def _as_hermitian(a, name: str = "matrix") -> np.ndarray:
    """A Hermitian matrix or stack, checked slice by slice and symmetrized."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim < 2:
        raise LinAlgError(f"{name} must be 2-D, got ndim={m.ndim}")
    _check_finite(m, name)
    if m.shape[-2] != m.shape[-1]:
        raise LinAlgError(f"{name} must be square, got {m.shape}")
    scale = np.abs(m).max(axis=(-2, -1), initial=0.0)
    dev = np.abs(m - _h(m)).max(axis=(-2, -1), initial=0.0)
    bad = dev > 1e-8 * np.maximum(scale, 1e-300)
    if bad.any():
        i = np.argmax(bad)
        raise LinAlgError(f"{name} is not Hermitian (deviation {dev.flat[i]:.3e})")
    return 0.5 * (m + _h(m))


def _lapack(error: type, what: str, routine, *args):
    """routine(*args) with numpy.linalg.LinAlgError re-raised as `error`."""
    try:
        return routine(*args)
    except np.linalg.LinAlgError as exc:
        raise error(f"{what}: {exc}") from None


# -----------------------
# Hermitian eigendecomposition
# -----------------------

@dataclass(frozen=True)
class HermEigResult:
    eigenvalues: np.ndarray   # real, descending
    eigenvectors: np.ndarray  # orthonormal columns aligned to eigenvalues


def herm_eig(a) -> HermEigResult:
    """Eigendecomposition of a Hermitian matrix (LAPACK eigh), eigenvalues descending."""
    return _eigh(_as_hermitian(a, "A"))


def _eigh(m: np.ndarray) -> HermEigResult:
    """herm_eig of a checked matrix or stack."""
    vals, vecs = _lapack(ConvergenceError, "eigh did not converge", np.linalg.eigh, m)
    return HermEigResult(vals[..., ::-1].copy(), vecs[..., ::-1].copy())


def _eigvalsh(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix or a stack of them."""
    return _lapack(ConvergenceError, "eigvalsh did not converge", np.linalg.eigvalsh, m)


# -----------------------
# Cholesky and HPD solves
# -----------------------

def cholesky(b) -> np.ndarray:
    """Lower-triangular L with B = L L^H for Hermitian positive-definite B.

    Pivots at or below 1e-12 * max|B| count as a failure even where LAPACK
    would accept them (it factors diag(1, 1e-30) without complaint).
    """
    return _floored_cholesky(_as_hermitian(b, "B"))


def _floored_cholesky(b: np.ndarray) -> np.ndarray:
    """cholesky of a checked matrix or stack."""
    low = _lapack(NotPositiveDefiniteError, "B is not positive definite", np.linalg.cholesky, b)
    piv = np.diagonal(low, axis1=-2, axis2=-1).real
    bad = piv <= 1e-12 * np.abs(b).max(axis=(-2, -1), initial=0.0)[..., None]
    if bad.any():
        i = np.argmax(bad)  # flat over (slice, column)
        raise NotPositiveDefiniteError(f"pivot {piv.flat[i]:.3e} at column {i % piv.shape[-1]}")
    return low


def _inverse_factor(b: np.ndarray) -> np.ndarray:
    """L^-1 of the floored Cholesky factor of a checked matrix or stack; numpy
    has no triangular solver, and an LU solve would factor L once more."""
    return _lapack(NotPositiveDefiniteError, "singular triangular factor",
                   np.linalg.inv, _floored_cholesky(b))


def solve_hpd(b, rhs) -> np.ndarray:
    """Solve B X = RHS with B = L L^H Hermitian positive definite: X = L^-H L^-1 RHS.

    A 1-D rhs is one vector, shared by every slice of a stacked B; X then
    holds one solution vector per slice.
    """
    inv_low = _inverse_factor(_as_hermitian(b, "B"))
    rhs = np.asarray(rhs)
    if rhs.ndim == 1:  # a one-column matrix: numpy reads 2-D as a stack of matrices
        return (_h(inv_low) @ (inv_low @ rhs[:, None]))[..., 0]
    return _h(inv_low) @ (inv_low @ rhs)


def gen_eig_hpd(a, b) -> HermEigResult:
    """Generalized eigendecomposition A v = lambda B v for Hermitian A, HPD B.

    Reduction to the standard problem L^-1 A L^-H with one inverse of the
    floored Cholesky factor B = L L^H; eigenvectors are returned
    B-orthonormal (V^H B V = I), eigenvalues descending. A and B may be
    stacks whose leading axes broadcast, as a fixed A against a stack of B.
    A and B are checked once. The reduced matrix is Hermitian by
    construction (eigh reads one triangle), so only non-finite entries stop it.
    """
    a = _as_hermitian(a, "A")
    b = _as_hermitian(b, "B")
    try:
        np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
        mismatch = a.shape[-1] != b.shape[-1]
    except ValueError:
        mismatch = True
    if mismatch:
        raise LinAlgError(f"dimension mismatch {a.shape} vs {b.shape}")
    inv_low = _inverse_factor(b)
    reduced = inv_low @ a @ _h(inv_low)
    _check_finite(reduced, "A")
    res = _eigh(reduced)
    return HermEigResult(res.eigenvalues, _h(inv_low) @ res.eigenvectors)


# -----------------------
# SVD and subspace geometry
# -----------------------

def _svd(m):
    """M = U diag(s) V^H with U and V square, s descending (min(shape) long)."""
    u, sig, vh = _lapack(ConvergenceError, "SVD did not converge", np.linalg.svd,
                         _as_matrix(m, "M"))
    return u, sig, vh.conj().T


def _rank(u: np.ndarray, sig: np.ndarray, v: np.ndarray, tol) -> int:
    """Number of singular values at or above tol * sigma_max of M = U S V^H.

    The default tol is max(shape of M) * eps; a zero matrix has rank 0.
    """
    if sig.size == 0 or sig[0] == 0.0:
        return 0
    if tol is None:
        tol = max(len(u), len(v)) * 2.0 ** -52
    elif tol <= 0:
        raise LinAlgError("tol must be positive")
    return int(np.sum(sig >= tol * sig[0]))


def orthonormal_range(m, tol: float | None = None) -> np.ndarray:
    """Orthonormal columns spanning range(M); rank cut at tol * sigma_max."""
    u, sig, v = _svd(m)
    return u[:, :_rank(u, sig, v, tol)]


def null_space(m, tol: float | None = None) -> np.ndarray:
    """Orthonormal columns spanning the (right) null space of M."""
    u, sig, v = _svd(m)
    return v[:, _rank(u, sig, v, tol):]


def spectral_norm(m) -> float:
    _, sig, _ = _svd(m)
    return float(sig[0]) if sig.size else 0.0


def subspace_contains(u, v, tol: float) -> bool:
    """True iff range(V) is contained in range(U): ||(I - UU^H)V||_S <= tol.

    Both arguments must have orthonormal columns (possibly zero columns).
    """
    u = _as_matrix(u, "U")
    v = _as_matrix(v, "V")
    if u.shape[0] != v.shape[0]:
        raise LinAlgError("row dimension mismatch")
    if v.shape[1] == 0:
        return True
    resid = v - u @ (u.conj().T @ v)
    return spectral_norm(resid) <= tol


# -----------------------
# Homogeneous (PSD, PSD) generalized eigenproblem
# -----------------------

@dataclass(frozen=True)
class GenEigHomogeneous:
    """Eigenvalue counts of a PSD pencil, and the basis it was deflated onto:
    orthonormal columns spanning range(A + B), zero of them for a zero pair."""
    finite_count: int
    infinite_count: int
    basis: np.ndarray


_DEFLATE_TOL = 1e-10  # rank scale of a PSD pair: |lambda| <= 1e-10 * ||Y|| counts as zero


def gen_eig_homogeneous(a, b) -> GenEigHomogeneous:
    """Finite and infinite eigenvalue counts of mu*A x = nu*B x for a PSD pair.

    The common null space N(A) & N(B) carries no eigenvalue and is deflated.
    On the rest, range(A + B), the pencil is regular: rank(B) eigenvalues are
    finite and rank(A + B) - rank(B) infinite (Van Dooren 1979; Stewart & Sun
    1990). rank(B) counts eigenvalues above 1e-10 * max(lambda_max(B), max|A|).
    The result carries the basis of range(A + B), for solves on the same
    deflated space (theory.noise_free_pair's Crawford number).
    """
    a = _as_hermitian(a, "A")
    b = _as_hermitian(b, "B")
    if a.shape != b.shape:
        raise LinAlgError(f"dimension mismatch {a.shape} vs {b.shape}")
    e0 = orthonormal_range(np.hstack([a, b]), tol=_DEFLATE_TOL)  # zero columns: counts (0, 0)
    bvals = herm_eig(_h(e0) @ b @ e0).eigenvalues
    scale = max(bvals.max(initial=0.0), np.abs(_h(e0) @ a @ e0).max(initial=0.0), 1e-300)
    finite = int(np.sum(bvals > _DEFLATE_TOL * scale))
    return GenEigHomogeneous(finite, e0.shape[1] - finite, e0)


# -----------------------
# f(x) radius function and Crawford number
# -----------------------

def f_bound(x: float, delta: float) -> float:
    """Eigenvalue-displacement radius factor f(x) for coupling strength delta.

    Feasible x lie outside the open band (1-2*gamma_minus, 1+2*gamma_plus)
    with gamma_pm = sqrt(delta^2+delta) +- delta; inside the band the two
    competing disks cannot be separated and InfeasibleBoundError is raised.
    """
    if not 0.0 <= delta < 1.0:
        raise LinAlgError(f"delta must be in [0,1), got {delta}")
    root = math.sqrt(delta * delta + delta)
    g_minus = root - delta
    g_plus = root + delta
    slack = 1e-12 * max(1.0, abs(x))
    if (1.0 - 2.0 * g_minus + slack) < x < (1.0 + 2.0 * g_plus - slack):
        raise InfeasibleBoundError(
            f"x={x} inside forbidden band ({1 - 2 * g_minus}, {1 + 2 * g_plus})")
    disc = (1.0 - x) ** 2 - 4.0 * delta * abs(x)
    f = 0.5 * (1.0 - x - math.sqrt(max(disc, 0.0)))
    return abs(f)


def crawford(a, b) -> float:
    """Crawford number: min over unit x of hypot(x^H A x, x^H B x).

    To restrict x to the range of orthonormal columns E0, pass the
    compressed pair (E0^H A E0, E0^H B E0); both are made Hermitian, as
    every input is. Computed through the support-function
    characterization max(0, max_theta lambda_min(A cos t + B sin t)) on a
    720-point grid with golden-section refinement; a nonpositive scan means
    the origin lies in the (convex) joint numerical range, i.e. C = 0.
    """
    a = _as_hermitian(a, "A")
    b = _as_hermitian(b, "B")
    if a.shape != b.shape:
        raise LinAlgError(f"dimension mismatch {a.shape} vs {b.shape}")
    n = a.shape[0]
    if n == 0:
        return 0.0
    if n == 1:
        return math.hypot(a[0, 0].real, b[0, 0].real)

    def h(theta: float) -> float:
        return float(_eigvalsh(math.cos(theta) * a + math.sin(theta) * b)[0])

    # the whole grid in one stacked eigvalsh call on (720, n, n)
    grid = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
    vals = _eigvalsh(np.cos(grid)[:, None, None] * a
                     + np.sin(grid)[:, None, None] * b)[:, 0]
    i = int(np.argmax(vals))
    if vals[i] <= 0.0:
        return 0.0

    # golden-section refinement of the scan maximum
    step = grid[1] - grid[0]
    lo, hi = grid[i] - step, grid[i] + step
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    f1, f2 = h(x1), h(x2)
    for _ in range(40):
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_phi * (hi - lo)
            f2 = h(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_phi * (hi - lo)
            f1 = h(x1)
    return max(0.0, max(f1, f2, float(vals[i])))
