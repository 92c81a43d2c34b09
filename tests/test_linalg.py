import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import pair_charpoly_eigs, planted_homogeneous_pair, rand_herm, rand_hpd
from mpbsim import linalg as la


# ---------- herm_eig ----------

def test_herm_eig_diagonal():
    res = la.herm_eig(np.diag([2.0, 3.0]).astype(complex))
    assert np.allclose(res.eigenvalues, [3.0, 2.0])
    assert np.allclose(np.abs(res.eigenvectors), [[0, 1], [1, 0]])


def test_herm_eig_identity():
    res = la.herm_eig(np.eye(8, dtype=complex))
    assert np.allclose(res.eigenvalues, 1.0)


def test_herm_eig_charpoly_oracle():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rand_herm(rng, 4)
        res = la.herm_eig(a)
        expected = pair_charpoly_eigs(a, np.eye(4))
        assert np.abs(res.eigenvalues - expected).max() < 1e-8


def test_herm_eig_residual_and_orthonormality():
    rng = np.random.default_rng(12)
    for n in (2, 5, 9, 16):
        a = rand_herm(rng, n)
        res = la.herm_eig(a)
        v = res.eigenvectors
        resid = np.abs(a @ v - v * res.eigenvalues).max()
        assert resid < 1e-10 * max(1.0, np.abs(a).max())
        assert np.abs(v.conj().T @ v - np.eye(n)).max() < 1e-10


def test_herm_eig_repeated_eigenvalue():
    # planted spectrum (5, 2, 2, 2, -1) in a random unitary basis
    rng = np.random.default_rng(27)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    planted = np.array([5.0, 2.0, 2.0, 2.0, -1.0])
    res = la.herm_eig((q * planted) @ q.conj().T)
    assert np.all(np.diff(res.eigenvalues) <= 0.0)
    assert np.abs(res.eigenvalues - planted).max() < 1e-12
    v = res.eigenvectors
    assert np.abs(v.conj().T @ v - np.eye(5)).max() < 1e-12
    # the cluster's columns span the planted eigenspace (as projectors)
    cluster, space = v[:, 1:4], q[:, 1:4]
    assert np.abs(cluster @ cluster.conj().T - space @ space.conj().T).max() < 1e-10


def test_herm_eig_rejects_nonsquare():
    with pytest.raises(la.LinAlgError):
        la.herm_eig(np.zeros((2, 3), dtype=complex))


@given(st.integers(0, 10_000))
def test_herm_eig_trace_identity(key):
    rng = np.random.default_rng(key)
    a = rand_herm(rng, int(rng.integers(2, 7)))
    res = la.herm_eig(a)
    assert abs(res.eigenvalues.sum() - np.trace(a).real) < 1e-9 * (
        1.0 + np.abs(np.trace(a)))


# ---------- cholesky / solve_hpd ----------

def test_cholesky_trivial():
    assert np.allclose(la.cholesky(np.eye(3, dtype=complex)), np.eye(3))
    assert np.allclose(la.cholesky(np.diag([4.0, 9.0]).astype(complex)),
                       np.diag([2.0, 3.0]))


def test_cholesky_reconstruction():
    rng = np.random.default_rng(13)
    b = rand_hpd(rng, 6, shift=1.0)
    ell = la.cholesky(b)
    assert np.abs(ell @ ell.conj().T - b).max() <= 1e-10 * np.abs(b).max()
    assert np.abs(np.triu(ell, 1)).max() == 0.0
    assert np.all(np.diag(ell).real > 0) and np.abs(np.diag(ell).imag).max() == 0.0


def test_cholesky_rejects_indefinite():
    with pytest.raises(la.NotPositiveDefiniteError):
        la.cholesky(np.diag([1.0, -1.0]).astype(complex))


def test_cholesky_rejects_near_singular():
    # LAPACK factors this; the relative pivot floor must refuse it
    with pytest.raises(la.NotPositiveDefiniteError, match="column 1"):
        la.cholesky(np.diag([1.0, 1e-30]).astype(complex))


@pytest.mark.parametrize("routine, call, error", [
    ("eigh", lambda: la.herm_eig(np.eye(3)), la.ConvergenceError),
    ("eigvalsh", lambda: la.crawford(np.eye(3), np.eye(3)), la.ConvergenceError),
    ("svd", lambda: la.orthonormal_range(np.eye(3)), la.ConvergenceError),
    ("cholesky", lambda: la.cholesky(np.eye(3)), la.NotPositiveDefiniteError),
    ("inv", lambda: la.solve_hpd(np.eye(3), np.ones(3)), la.NotPositiveDefiniteError),
])
def test_lapack_failures_keep_module_errors(monkeypatch, routine, call, error):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("synthetic LAPACK failure")
    monkeypatch.setattr(np.linalg, routine, fail)
    with pytest.raises(error, match="synthetic LAPACK failure"):
        call()


def test_solve_hpd_matches_direct():
    rng = np.random.default_rng(14)
    b = rand_hpd(rng, 7)
    rhs = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
    x = la.solve_hpd(b, rhs)
    assert np.abs(b @ x - rhs).max() < 1e-9 * np.abs(rhs).max()


# ---------- gen_eig_hpd ----------

def test_gen_eig_hpd_trivial():
    res = la.gen_eig_hpd(np.diag([2.0, 3.0]).astype(complex), np.eye(2, dtype=complex))
    assert np.allclose(res.eigenvalues, [3.0, 2.0])


def test_gen_eig_hpd_proportional_pair():
    rng = np.random.default_rng(15)
    b = rand_hpd(rng, 5)
    res = la.gen_eig_hpd(2.0 * b, b)
    assert np.abs(res.eigenvalues - 2.0).max() < 1e-10


def test_gen_eig_hpd_charpoly_oracle():
    rng = np.random.default_rng(16)
    for _ in range(20):
        a = rand_herm(rng, 4)
        b = rand_hpd(rng, 4)
        res = la.gen_eig_hpd(a, b)
        expected = pair_charpoly_eigs(a, b)
        assert np.abs(res.eigenvalues - expected).max() < 1e-8


def test_gen_eig_hpd_residual_and_b_orthonormality():
    rng = np.random.default_rng(17)
    for _ in range(30):
        n = int(rng.integers(2, 17))
        a = rand_herm(rng, n)
        b = rand_hpd(rng, n)
        res = la.gen_eig_hpd(a, b)
        v = res.eigenvectors
        scale = la.spectral_norm(a) + la.spectral_norm(b)
        assert np.abs(a @ v - (b @ v) * res.eigenvalues).max() <= 1e-9 * scale
        assert np.abs(v.conj().T @ b @ v - np.eye(n)).max() < 1e-9


def test_gen_eig_hpd_l32():
    rng = np.random.default_rng(28)
    a = rand_herm(rng, 32)
    b = rand_hpd(rng, 32)
    res = la.gen_eig_hpd(a, b)
    v = res.eigenvectors
    scale = la.spectral_norm(a) + la.spectral_norm(b)
    assert np.all(np.diff(res.eigenvalues) <= 0.0)
    assert np.abs(a @ v - (b @ v) * res.eigenvalues).max() <= 1e-9 * scale
    assert np.abs(v.conj().T @ b @ v - np.eye(32)).max() < 1e-9


def test_gen_eig_hpd_rejects_indefinite_b():
    with pytest.raises(la.NotPositiveDefiniteError):
        la.gen_eig_hpd(np.eye(2, dtype=complex), np.diag([1.0, 0.0]).astype(complex))


@pytest.mark.parametrize("n", [2, 8, 64])
def test_solvers_agree_with_numpy(n):
    """solve_hpd and gen_eig_hpd, single and stacked, against numpy.linalg's
    LU solve and nonsymmetric eigvals, with one B of condition number 1e10:
    forward errors within 1e-13 cond(B), residuals at rounding level."""
    rng = np.random.default_rng(200 + n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    stiff = (q * np.logspace(0, -10, n)) @ q.conj().T
    b = np.stack([rand_hpd(rng, n), 0.5 * (stiff + stiff.conj().T), rand_hpd(rng, n)])
    a = _stack(rand_herm, rng, n, count=3)
    rhs = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    x, res = la.solve_hpd(b, rhs), la.gen_eig_hpd(a, b)
    assert np.linalg.cond(b[1]) == pytest.approx(1e10, rel=1e-3)
    for i in range(len(b)):
        tol = 1e-13 * np.linalg.cond(b[i])
        one = la.gen_eig_hpd(a[i], b[i])
        for xi, lam, v in ((x[i], res.eigenvalues[i], res.eigenvectors[i]),
                           (la.solve_hpd(b[i], rhs), one.eigenvalues, one.eigenvectors)):
            want = np.linalg.solve(b[i], rhs)
            assert np.abs(xi - want).max() <= tol * np.abs(want).max()
            want = np.sort(np.linalg.eigvals(np.linalg.solve(b[i], a[i])).real)[::-1]
            assert np.abs(lam - want).max() <= tol * np.abs(want).max()
            scale = (la.spectral_norm(a[i]) + np.abs(lam).max() * la.spectral_norm(b[i]))
            assert np.abs(a[i] @ v - (b[i] @ v) * lam).max() <= 1e-13 * scale * np.abs(v).max()
            assert np.abs(v.conj().T @ b[i] @ v - np.eye(n)).max() <= tol


def test_gen_eig_hpd_overflowing_reduction_is_an_error():
    """Finite A and B whose reduction L^-1 A L^-H overflows raise, alone and
    in a stack, instead of handing eigh a matrix it would answer with NaN."""
    a = 1e300 * np.eye(2, dtype=complex)
    b = np.diag([1.0, 1e-10]).astype(complex)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(la.LinAlgError, match=r"^A contains non-finite entries$"):
            la.gen_eig_hpd(a, b)
        with pytest.raises(la.LinAlgError, match=r"^A contains non-finite entries$"):
            la.gen_eig_hpd(np.stack([np.eye(2), a, a]), np.stack([np.eye(2), b, b]))


@pytest.mark.parametrize("stacked", [False, True])
def test_gen_eig_hpd_checks_each_input_once(monkeypatch, stacked):
    """A and B are checked once each: the Cholesky and eigen steps inside
    gen_eig_hpd run on checked matrices and do not check them again."""
    rng = np.random.default_rng(31)
    a, b = _stack(rand_herm, rng, 4, count=3), _stack(rand_hpd, rng, 4, count=3)
    if not stacked:
        a, b = a[0], b[0]
    checked = []
    as_hermitian = la._as_hermitian

    def counted(m, name="matrix"):
        checked.append(name)
        return as_hermitian(m, name)
    monkeypatch.setattr(la, "_as_hermitian", counted)
    la.gen_eig_hpd(a, b)
    assert checked == ["A", "B"]


# ---------- stacks ----------

def _stack(make, rng, n, count=5):
    return np.stack([make(rng, n) for _ in range(count)])


@pytest.mark.parametrize("n", [2, 8, 32])
def test_stack_equals_each_slice_bitwise(n):
    """A stack runs the same LAPACK routine on every slice: each slice of
    the result is the slice solved alone, bit for bit."""
    rng = np.random.default_rng(100 + n)
    a, b = _stack(rand_herm, rng, n), _stack(rand_hpd, rng, n)
    rhs = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    vec = rhs[:, 0]
    low = la.cholesky(b)
    x, xv = la.solve_hpd(b, rhs), la.solve_hpd(b, vec)
    res = la.gen_eig_hpd(a, b)
    fixed = la.gen_eig_hpd(a[0], b)  # one A against every B
    top = la.herm_eig(a)
    assert low.shape == b.shape and xv.shape == (len(b), n)
    for i in range(len(b)):
        assert np.array_equal(low[i], la.cholesky(b[i]))
        assert np.array_equal(x[i], la.solve_hpd(b[i], rhs))
        assert np.array_equal(xv[i], la.solve_hpd(b[i], vec))
        one = la.gen_eig_hpd(a[i], b[i])
        assert np.array_equal(res.eigenvalues[i], one.eigenvalues)
        assert np.array_equal(res.eigenvectors[i], one.eigenvectors)
        alone = la.gen_eig_hpd(a[0], b[i])
        assert np.array_equal(fixed.eigenvalues[i], alone.eigenvalues)
        assert np.array_equal(fixed.eigenvectors[i], alone.eigenvectors)
        assert np.array_equal(top.eigenvalues[i], la.herm_eig(a[i]).eigenvalues)
        assert np.array_equal(top.eigenvectors[i], la.herm_eig(a[i]).eigenvectors)


@pytest.mark.parametrize("call", [
    lambda b: la.cholesky(b),
    lambda b: la.solve_hpd(b, np.ones(4)),
    lambda b: la.gen_eig_hpd(np.eye(4), b),
], ids=["cholesky", "solve_hpd", "gen_eig_hpd"])
def test_stack_error_names_the_indefinite_slice(call):
    """A stack with one indefinite slice raises what that slice raises
    alone, its type and its message, which names the matrix but no slice:
    the caller knows what a slice stands for and names it."""
    rng = np.random.default_rng(7)
    b = _stack(rand_hpd, rng, 4)
    single = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
    with pytest.raises(la.NotPositiveDefiniteError) as alone:
        call(single)
    b[2] = single
    with pytest.raises(la.NotPositiveDefiniteError) as stacked:
        call(b)
    assert type(stacked.value) is type(alone.value)
    assert str(stacked.value) == str(alone.value)
    assert "slice" not in str(stacked.value)


def test_failing_stack_runs_lapack_once(monkeypatch):
    """A stack that fails is not solved again slice by slice: LAPACK's
    Cholesky runs once on a stack of 5 whose slice 3 is indefinite."""
    rng = np.random.default_rng(9)
    b = _stack(rand_hpd, rng, 4)
    b[3] = np.diag([1.0, 1.0, -1.0, 1.0])
    calls = []
    factor = np.linalg.cholesky

    def counted(m, *args, **kwargs):
        calls.append(m.shape)
        return factor(m, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "cholesky", counted)
    with pytest.raises(la.NotPositiveDefiniteError, match="^B is not positive definite"):
        la.cholesky(b)
    assert calls == [(5, 4, 4)]


def test_stack_checks_run_per_slice():
    """Each check runs on every slice at that slice's own scale; a stack
    that fails one raises its message with no slice index."""
    rng = np.random.default_rng(8)
    b = _stack(rand_hpd, rng, 3, count=4)
    tiny = b.copy()
    tiny[1] = np.diag([1.0, 1e-30, 1.0])  # LAPACK factors it; the floor does not
    floor = r"^pivot 1\.000e-15 at column 1$"
    with pytest.raises(la.NotPositiveDefiniteError, match=floor):
        la.cholesky(tiny)
    # also through the solvers that factor with cholesky
    with pytest.raises(la.NotPositiveDefiniteError, match=floor):
        la.solve_hpd(tiny, np.ones(3))
    with pytest.raises(la.NotPositiveDefiniteError, match=floor):
        la.gen_eig_hpd(b, tiny)
    skew = b.copy()
    skew[3, 0, 1] += 1.0
    with pytest.raises(la.LinAlgError, match=r"^A is not Hermitian"):
        la.herm_eig(skew)
    bad = b.copy()
    bad[2, 1, 1] = np.nan
    with pytest.raises(la.LinAlgError, match=r"^B contains non-finite entries$"):
        la.cholesky(bad)
    indefinite = np.diag([1.0, -1.0, 1.0]).astype(complex)
    grid = np.broadcast_to(b, (2, 4, 3, 3)).copy()
    grid[1, 2] = indefinite
    with pytest.raises(la.NotPositiveDefiniteError, match=r"^B is not positive definite"):
        la.cholesky(grid)
    with pytest.raises(la.LinAlgError, match="dimension mismatch"):
        la.gen_eig_hpd(b[:3], b)
    # a stack of one matrix raises what that matrix raises alone
    for call, single in ((la.herm_eig, skew[3]), (la.cholesky, tiny[1]),
                         (la.cholesky, indefinite), (la.cholesky, bad[2]),
                         (lambda m: la.solve_hpd(m, np.ones(3)), indefinite),
                         (lambda m: la.gen_eig_hpd(np.eye(3), m), tiny[1]),
                         (lambda m: la.gen_eig_hpd(np.eye(3), m), indefinite)):
        with pytest.raises(la.LinAlgError) as alone:
            call(single)
        with pytest.raises(la.LinAlgError) as one:
            call(single[None])
        assert type(one.value) is type(alone.value)
        assert str(one.value) == str(alone.value) and "slice" not in str(one.value)


# ---------- gen_eig_homogeneous ----------

def test_homogeneous_explicit_singular_b():
    res = la.gen_eig_homogeneous(np.diag([1.0, 1.0]), np.diag([1.0, 0.0]))
    assert (res.infinite_count, res.finite_count) == (1, 1)


def test_homogeneous_identity_pair():
    res = la.gen_eig_homogeneous(np.eye(3), np.eye(3))
    assert (res.infinite_count, res.finite_count) == (0, 3)


def test_homogeneous_rank1_pair():
    # 1-dim common null deflated away; the A-only direction is infinite
    a_vec = np.array([1.0, 0.5j, 0.25])
    b_vec = np.array([0.3, 1.0, -0.2j])
    assert abs(np.vdot(a_vec, b_vec)) > 1e-3
    res = la.gen_eig_homogeneous(np.outer(a_vec, a_vec.conj()),
                                 np.outer(b_vec, b_vec.conj()))
    assert (res.infinite_count, res.finite_count) == (1, 1)


def test_homogeneous_planted_counts():
    rng = np.random.default_rng(18)
    for _ in range(10):
        a, b, n_inf, n_fin = planted_homogeneous_pair(rng)
        res = la.gen_eig_homogeneous(a, b)
        assert res.infinite_count == n_inf
        assert res.finite_count == n_fin


# ---------- simultaneous diagonalization through gen_eig_hpd ----------

def test_simultaneous_diag_zero_mismatch():
    rng = np.random.default_rng(19)
    w = rand_hpd(rng, 4)
    res = la.gen_eig_hpd(np.zeros((4, 4), dtype=complex), w)
    t, gamma = res.eigenvectors, res.eigenvalues
    assert np.abs(gamma).max() == 0.0
    assert np.abs(t.conj().T @ w @ t - np.eye(4)).max() < 1e-8


def test_simultaneous_diag_equal_pair():
    rng = np.random.default_rng(20)
    w = rand_hpd(rng, 3)
    gamma = la.gen_eig_hpd(w, w).eigenvalues
    assert np.abs(gamma - 1.0).max() < 1e-8


def test_simultaneous_diag_matches_gen_eig():
    rng = np.random.default_rng(21)
    phi = rand_herm(rng, 3)
    w = rand_hpd(rng, 3)
    res = la.gen_eig_hpd(phi, w)
    t, gamma = res.eigenvectors, res.eigenvalues
    assert np.abs(t.conj().T @ phi @ t - np.diag(gamma)).max() \
        <= 1e-8 * max(1.0, np.abs(phi).max())
    expected = la.gen_eig_hpd(phi, w).eigenvalues
    assert np.abs(gamma - expected).max() < 1e-8


# ---------- f_bound ----------

def test_f_bound_zero_x():
    for delta in (0.0, 1e-6, 1e-2, 0.3):
        assert la.f_bound(0.0, delta) == 0.0


def test_f_bound_zero_delta():
    assert la.f_bound(0.5, 0.0) == 0.0
    assert la.f_bound(-3.0, 0.0) == 0.0


def test_f_bound_direct_formula():
    delta, x = 1e-4, 0.5
    got = la.f_bound(x, delta)
    direct = 0.5 * (1.0 - x - np.sqrt((1.0 - x) ** 2 - 4.0 * delta * abs(x)))
    gamma_minus = np.sqrt(delta ** 2 + delta) - delta
    assert abs(got - direct) < 1e-15
    assert got <= max(delta, gamma_minus)


def test_f_bound_rejects_transition_band():
    delta = 0.01
    gp = np.sqrt(delta ** 2 + delta) + delta
    with pytest.raises(la.InfeasibleBoundError):
        la.f_bound(1.0 + gp, delta)         # inside (1-2g-, 1+2g+)


@given(st.floats(-50.0, 0.0), st.floats(1e-12, 0.49), st.floats(1e-12, 0.49))
def test_f_bound_monotone_in_delta(x, d1, d2):
    lo, hi = sorted((d1, d2))
    assert la.f_bound(x, lo) <= la.f_bound(x, hi) + 1e-15


@given(st.floats(-50.0, 0.9), st.floats(1e-12, 0.49))
def test_f_bound_capped_on_lower_branch(x, delta):
    gamma_minus = np.sqrt(delta ** 2 + delta) - delta
    if x <= 1.0 - 2.0 * gamma_minus:
        assert la.f_bound(x, delta) <= max(delta, gamma_minus) + 1e-12


# ---------- crawford ----------

def test_crawford_identity_pair():
    assert abs(la.crawford(np.eye(4), np.eye(4)) - np.sqrt(2.0)) < 1e-4


def test_crawford_indefinite_pair_is_zero():
    a = np.diag([1.0, -1.0])
    assert la.crawford(a, np.zeros((2, 2))) == 0.0


def test_crawford_constant_quadratic_forms():
    # x^H A x = 2, x^H B x = 3 for every unit x
    c = la.crawford(2.0 * np.eye(3), 3.0 * np.eye(3))
    assert abs(c - np.sqrt(13.0)) < 1e-3


def test_crawford_homogeneity():
    rng = np.random.default_rng(23)
    a = rand_hpd(rng, 3, shift=1.0)
    b = rand_hpd(rng, 3, shift=1.0)
    base = la.crawford(a, b)
    for c in (0.1, 10.0):
        assert abs(la.crawford(c * a, c * b) - c * base) < 1e-3 * c * base


def test_crawford_restricted_basis():
    a = np.diag([1.0, -1.0, 5.0])
    b = np.diag([1.0, 1.0, 5.0])
    e0 = np.eye(3)[:, :2]
    # restricted to span{e1,e2}: x^H B x = 1 while x^H A x sweeps through 0
    assert abs(la.crawford(e0.T @ a @ e0, e0.T @ b @ e0) - 1.0) < 1e-3


def _crawford_oracle(a, b, points):
    """max(0, max_theta lambda_min(A cos t + B sin t)) over points angles,
    one numpy eigvalsh on the (points, n, n) stack."""
    t = np.linspace(0.0, 2.0 * np.pi, points, endpoint=False)[:, None, None]
    best = np.linalg.eigvalsh(np.cos(t) * a + np.sin(t) * b)[:, 0].max()
    return max(0.0, float(best))


def test_crawford_stacked_scan_matches_pointwise_oracle():
    rng = np.random.default_rng(29)
    definite = indefinite = 0
    for trial in range(12):
        n = int(rng.integers(2, 7))
        if trial % 2:
            a, b = rand_herm(rng, n), rand_herm(rng, n)
        else:
            a, b = rand_hpd(rng, n, shift=0.5), rand_herm(rng, n)
        got = la.crawford(a, b)
        grid = _crawford_oracle(a, b, 720)
        fine = _crawford_oracle(a, b, 20_000)
        if fine == 0.0:
            indefinite += 1
            assert got == 0.0
        else:
            definite += 1
            # refinement starts from the scan maximum and never falls below it
            assert got >= grid - 1e-12 * fine
            assert abs(got - fine) <= 1e-6 * fine
    assert definite >= 4 and indefinite >= 2


# ---------- range/null plumbing ----------

def test_orthonormal_range_trivial():
    q = la.orthonormal_range(np.eye(3))
    assert q.shape == (3, 3)
    a = np.array([1.0, 2.0, 2.0]) / 3.0
    q = la.orthonormal_range(np.column_stack([a, 2.0 * a]))
    assert q.shape == (3, 1)
    assert abs(abs(np.vdot(q[:, 0], a)) - 1.0) < 1e-12


def test_orthonormal_range_rank2():
    rng = np.random.default_rng(24)
    u = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
    v = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    m = u @ v.T
    q = la.orthonormal_range(m)
    assert q.shape == (5, 2)
    assert np.abs(q.conj().T @ q - np.eye(2)).max() < 1e-10
    proj = q @ q.conj().T
    assert np.abs(proj @ m - m).max() < 1e-9 * np.abs(m).max()


def test_orthonormal_range_zero_matrix():
    assert la.orthonormal_range(np.zeros((4, 2))).shape == (4, 0)


def test_null_space_trivial():
    ns = la.null_space(np.diag([1.0, 0.0]))
    assert ns.shape == (2, 1) and abs(abs(ns[1, 0]) - 1.0) < 1e-12


def test_spectral_norm_of_orthonormal_columns():
    rng = np.random.default_rng(26)
    q = la.orthonormal_range(rng.standard_normal((6, 3)))
    assert abs(la.spectral_norm(q) - 1.0) < 1e-10


def test_non_contiguous_input():
    m = np.arange(9.0).reshape(3, 3) + 1j * np.eye(3)
    assert abs(la.spectral_norm(m.T) - la.spectral_norm(m)) < 1e-12
    with pytest.raises(la.LinAlgError, match="non-finite"):
        la.spectral_norm((np.where(np.eye(3) > 0, np.nan, 1.0) + 0j).T)


def test_subspace_contains():
    full = np.eye(2)
    e1 = np.eye(2)[:, :1]
    e2 = np.eye(2)[:, 1:]
    assert la.subspace_contains(full, e1, tol=1e-8)
    assert not la.subspace_contains(e1, e2, tol=1e-8)
    dusty = np.array([[1.0], [1e-12]])
    dusty /= np.linalg.norm(dusty)
    assert la.subspace_contains(e1, dusty, tol=1e-8)
