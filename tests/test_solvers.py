import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from diffgabor import diffsets, experiments, fusion, gabor, solvers
from diffgabor.errors import FactorizationError, InvalidInputError


def _frame(N=7, K=3):
    ds = diffsets.catalog_lookup(N, K)
    return gabor.build_gabor_frame(gabor.difference_set_generator(ds))


def _certificate(A, y, z):
    """_l1_certificate on the AffineProjection of A and y, with no support searched before."""
    return solvers._l1_certificate(solvers.AffineProjection(A, y), z, set())


def _min_norm_certificate(A, y, z, monkeypatch):
    """_certificate with a dual search that yields nothing: the minimum-norm dual alone."""
    with monkeypatch.context() as patch:
        patch.setattr(solvers, "_dual_search", lambda *args: iter(()))
        return _certificate(A, y, z)


def test_solver_config_validation():
    cfg = solvers.SolverConfig()
    assert cfg.rho > 0 and cfg.max_iters >= 1
    for bad in [dict(rho=0.0), dict(max_iters=0), dict(tol_primal=-1e-9), dict(tol_dual=0.0),
                dict(rho=float("nan")), dict(rho=float("inf")), dict(rho=1e-320),
                dict(tol_primal=float("nan")), dict(tol_dual=float("inf"))]:
        with pytest.raises(InvalidInputError):
            solvers.SolverConfig(**bad)


def test_complex_soft_threshold():
    z = np.array([3 + 4j, 0.5j, -0.25, 0.0])
    out = solvers.complex_soft_threshold(z, 1.0)
    assert np.allclose(out[0], (3 + 4j) * (4 / 5))  # magnitude 5 -> 4, phase kept
    assert out[1] == 0 and out[2] == 0 and out[3] == 0
    assert isinstance(solvers.complex_soft_threshold(2.0, 0.5), complex)
    with pytest.raises(InvalidInputError):
        solvers.complex_soft_threshold(z, -0.1)


def test_block_soft_threshold():
    blocks = solvers.BlockStructure(2, 3)
    z = np.array([3.0, 4.0, 0.0, 0.1, 0.0, 0.0], dtype=complex)
    out = solvers.block_soft_threshold(z, 1.0, blocks)
    # first block has norm 5 -> scaled by 4/5; second has norm 0.1 -> killed
    assert np.allclose(out[:3], z[:3] * (4 / 5))
    assert np.allclose(out[3:], 0.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tau", [float("nan"), float("inf"), -float("inf"), -0.1])
def test_soft_thresholds_reject_a_threshold_that_is_negative_or_not_finite(tau):
    # an infinite or nan tau would make every entry nan, with a RuntimeWarning
    with pytest.raises(InvalidInputError, match="nonnegative and finite"):
        solvers.complex_soft_threshold(np.array([1 + 1j, 0.1, 0.0]), tau)
    with pytest.raises(InvalidInputError, match="nonnegative and finite"):
        solvers.block_soft_threshold(np.ones(4), tau, solvers.BlockStructure(2, 2))


@pytest.mark.parametrize("size", [0, 3, 5, 8])
def test_block_soft_threshold_rejects_a_wrong_length(size):
    with pytest.raises(InvalidInputError, match=f"z has {size} entries"):
        solvers.block_soft_threshold(np.ones(size), 1.0, solvers.BlockStructure(2, 2))


@pytest.mark.parametrize("tau", [0.0, 1e-310, 0.5, 1.0])
def test_shrink_kernels_match_the_formula(tau):
    # the kernels floor the magnitude at max(tau, tiny) instead of clamping
    # the factor at 0; the factors are the same
    tiny = np.finfo(float).tiny
    z = np.array([3 + 4j, 0.5j, -0.25, 0.0, 1.0, -1e-320, 2.0 - 1e-3j, 0.5 + 0.0j])
    factor = np.maximum(1.0 - tau / np.maximum(np.abs(z), tiny), 0.0)
    assert np.array_equal(solvers.complex_soft_threshold(z, tau), z * factor)
    blocks = solvers.BlockStructure(4, 2)
    norms = np.linalg.norm(z.reshape(4, 2), axis=1)
    factor = np.maximum(1.0 - tau / np.maximum(norms, tiny), 0.0)
    expected = (z.reshape(4, 2) * factor[:, None]).reshape(-1)
    np.testing.assert_allclose(solvers.block_soft_threshold(z, tau, blocks), expected,
                               rtol=1e-15, atol=0)


def test_block_structure():
    blocks = solvers.BlockStructure(4, 3)
    assert blocks.dimension == 12
    assert blocks.block_of(0) == 0
    assert blocks.block_of(11) == 3
    with pytest.raises(InvalidInputError):
        solvers.BlockStructure(0, 3)


def test_affine_projection_tight_frame_scalar_path():
    frame = _frame()
    A = frame.columns
    y = A @ np.eye(49, dtype=complex)[0]
    proj = solvers.AffineProjection(frame, y)
    assert not proj.uses_factorization and proj._sigma == (math.sqrt(frame.frame_bound),) * 2
    assert proj.rank == 7 and np.array_equal(proj.matrix, A)
    w = np.random.default_rng(0).standard_normal(49)
    x = proj(w)
    assert np.linalg.norm(A @ x - y) < 1e-10
    # the path follows the type: the same columns as a plain matrix are
    # factored, and project to the same point
    dense = solvers.AffineProjection(A, y)
    assert dense.uses_factorization and dense.rank == 7
    assert np.linalg.norm(dense(w) - x) <= 1e-12 * np.linalg.norm(x)


def test_affine_projection_general_path():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((3, 8))
    y = A @ rng.standard_normal(8)
    proj = solvers.AffineProjection(A, y)
    assert proj.uses_factorization and proj.rank == 3
    x = proj(rng.standard_normal(8))
    assert np.linalg.norm(A @ x - y) < 1e-10
    # projection is idempotent up to the particular solution
    assert np.linalg.norm(A @ proj(x) - y) < 1e-10


def test_affine_projection_rank_deficient_consistent():
    rng = np.random.default_rng(3)
    B = rng.standard_normal((2, 5))
    A = np.vstack([B, B[0] + B[1]])  # rank 2, 3 rows
    y = A @ rng.standard_normal(5)
    proj = solvers.AffineProjection(A, y)
    assert proj.rank == 2
    assert np.linalg.norm(A @ proj(np.zeros(5)) - y) < 1e-9


def test_affine_projection_inconsistent_raises():
    rng = np.random.default_rng(4)
    B = rng.standard_normal((2, 5))
    A = np.vstack([B, B[0]])
    y = np.array([0.0, 0.0, 1.0])  # contradicts the duplicated row
    with pytest.raises(FactorizationError):
        solvers.AffineProjection(A, y)


def test_basis_pursuit_recovers_sparse_vector():
    frame = _frame()
    A = frame.columns
    x = np.zeros(49, dtype=complex)
    x[[7, 30]] = [1.5 - 0.5j, -2.0 + 1.0j]
    res = solvers.basis_pursuit(frame, A @ x)
    assert res.status == solvers.STATUS_CONVERGED
    assert np.linalg.norm(res.solution - x) / np.linalg.norm(x) < 1e-6
    assert res.objective == pytest.approx(np.abs(x).sum(), rel=1e-6)
    # stopped early by a certificate, with the exact 2-sparse minimiser
    assert res.certified and res.iterations % solvers._CERTIFY_PERIOD == 0
    assert np.count_nonzero(res.solution) == 2
    assert np.linalg.norm(res.solution - x) <= 1e-12 * np.linalg.norm(x)


def test_basis_pursuit_scale_invariance():
    # minimizers scale linearly with y, so tolerances must not bite harder
    # on tiny right-hand sides
    frame = _frame()
    A = frame.columns
    x = np.zeros(49, dtype=complex)
    x[11] = 1.0
    errs = []
    for scale in [1e-6, 1.0, 1e6]:
        res = solvers.basis_pursuit(A, A @ (scale * x))
        assert res.status == solvers.STATUS_CONVERGED
        errs.append(np.linalg.norm(res.solution - scale * x) / np.linalg.norm(scale * x))
    assert max(errs) < 1e-6
    assert max(errs) < 1.5 * min(errs)  # accuracy must not depend on ||y||


def test_basis_pursuit_zero_rhs():
    frame = _frame()
    res = solvers.basis_pursuit(frame.columns, np.zeros(7))
    assert res.status == solvers.STATUS_CONVERGED
    assert res.iterations == 0
    assert np.all(res.solution == 0)


def test_scaled_norm():
    for v in (np.arange(5.0), np.array([3 + 4j, -1e-300]), np.zeros(3), np.array([1e150])):
        assert solvers.scaled_norm(v) == np.linalg.norm(v)
    # the sum of squares overflows although the norm does not
    assert solvers.scaled_norm(np.array([3e300, 4e300])) == pytest.approx(5e300, rel=1e-15)
    assert solvers.scaled_norm(np.array([1e308 + 1e308j])) == pytest.approx(
        np.sqrt(2) * 1e308, rel=1e-15)


def test_solvers_on_a_rhs_whose_squared_norm_overflows():
    # ||y||^2 overflows past about 1.3e154, but the minimiser is representable
    A = np.array([[1.0, 1.0]])
    for solve in (lambda y: solvers.basis_pursuit(A, y),
                  lambda y: solvers.block_basis_pursuit(A, y, solvers.BlockStructure(2, 1))):
        res = solve(np.array([1e200]))
        assert res.status == solvers.STATUS_CONVERGED
        np.testing.assert_allclose(res.solution, [5e199, 5e199], rtol=1e-12)
        assert res.objective == pytest.approx(1e200, rel=1e-12)
    # and a 2-sparse signal on the Gabor frame, as at the scales of
    # test_basis_pursuit_scale_invariance
    frame = _frame()
    x = np.zeros(49, dtype=complex)
    x[[4, 22]] = [1.0 + 0.5j, -0.75]
    res = solvers.basis_pursuit(frame.columns, frame.columns @ (1e200 * x))
    assert res.status == solvers.STATUS_CONVERGED
    assert np.linalg.norm(res.solution / 1e200 - x) < 1e-6 * np.linalg.norm(x)


def test_rank_cutoff_does_not_overflow():
    # s_max * size * eps overflowed to inf here and the matrix read as rank zero
    res = solvers.basis_pursuit(np.array([[1e308, 1e308]]), np.array([1e308]))
    assert res.status == solvers.STATUS_CONVERGED
    np.testing.assert_allclose(res.solution, [0.5, 0.5], rtol=1e-12)


@pytest.mark.parametrize("A, y", [([[1e-308, 1e-308]], [1e300]), ([[0.5, 0.5]], [1e308])],
                         ids=["minimiser", "objective"])
@pytest.mark.filterwarnings("error")
def test_solution_beyond_double_precision_is_invalid_input(A, y):
    # the minimiser [5e607, 5e607] overflows; [1e308, 1e308] does not, but
    # its l1 norm does.  Neither warns: the squares of the normalised
    # iterate [5e307, 5e307] overflow in the stopping test, which ignores it
    A, y = np.array(A), np.array(y)
    with pytest.raises(InvalidInputError, match="beyond double precision"):
        solvers.basis_pursuit(A, y)
    with pytest.raises(InvalidInputError, match="beyond double precision"):
        solvers.block_basis_pursuit(A, y, solvers.BlockStructure(2, 1))


@pytest.mark.filterwarnings("error")
def test_objective_of_a_subnormal_solution_does_not_underflow():
    # the minimiser [5e-309, 5e-309] has block norms whose squares underflow
    # to 0; the objective is recomputed at the scale of its largest entry
    A, y = np.array([[1e308, 1e308]]), np.array([1.0])
    l1 = solvers.basis_pursuit(A, y)
    for blocks, expected in [((2, 1), l1.objective), ((1, 2), np.sqrt(2) * 5e-309)]:
        res = solvers.block_basis_pursuit(A, y, solvers.BlockStructure(*blocks))
        np.testing.assert_allclose(res.solution, [5e-309, 5e-309], rtol=1e-12)
        assert res.objective == pytest.approx(expected, rel=1e-12, abs=0.0)
    assert l1.objective == pytest.approx(1e-308, rel=1e-12, abs=0.0)


def _reference_history(A, y, cfg, shrink):
    """(primal, dual) residual norms of a plain ADMM loop, by np.linalg.norm,
    up to the iteration where both meet their tolerances."""
    project = solvers.AffineProjection(A, y / np.linalg.norm(y))
    d = A.shape[1]
    z = np.zeros(d, dtype=complex)
    u = np.zeros(d, dtype=complex)
    history = []
    for _ in range(cfg.max_iters):
        x = project(z - u)
        z_old = z
        z = shrink(x + u, 1.0 / cfg.rho)
        u = u + x - z
        r_norm, s_norm = np.linalg.norm(x - z), cfg.rho * np.linalg.norm(z - z_old)
        history.append((r_norm, s_norm))
        eps_pri = cfg.tol_primal * np.sqrt(d) * max(1.0, np.linalg.norm(x), np.linalg.norm(z))
        eps_dual = cfg.tol_dual * np.sqrt(d) * max(1.0, cfg.rho * np.linalg.norm(u))
        if r_norm <= eps_pri and s_norm <= eps_dual:
            break
    return np.array(history)


def test_solve_result_history():
    frame = _frame()
    x = np.zeros(49, dtype=complex)
    x[3] = 1.0
    res = solvers.basis_pursuit(frame.columns, frame.columns @ x)
    assert res.residual_history.shape == (res.iterations, 2)
    assert res.residual_history[-1, 0] == pytest.approx(res.primal_residual)
    assert res.residual_history[-1, 1] == pytest.approx(res.dual_residual)
    # the stopping norms come from one fused reduction; they are the norms
    cfg = solvers.SolverConfig(max_iters=8)
    A = _complex_normal(np.random.default_rng(12), (6, 20))
    y = A[:, :2] @ np.array([1.0, -2.0j])
    res = solvers.basis_pursuit(A, y, cfg)
    ref = _reference_history(A, y, cfg, solvers.complex_soft_threshold)
    assert res.iterations == 8
    np.testing.assert_allclose(res.residual_history, ref, rtol=1e-12, atol=0)


@pytest.mark.parametrize("complex_valued", [False, True])
def test_block_solve_result_history(complex_valued):
    # a solve that meets its tolerances in 58 (real) or 70 (complex)
    # iterations: the fused norms match np.linalg.norm, and the stopping rule
    # stops at the same iteration.  Blocks 0, 4, 10 and 12 all hold
    # coordinate 0, which has n = 3 rows, and the solve keeps all four: the
    # group certificate cannot prove a support with 4 > n columns on one
    # coordinate, so nothing but the tolerances stops it
    ff = fusion.build_fusion_frame(diffsets.catalog_lookup(13, 4))
    a = solvers.gaussian_measurement_coefficients(3, 13, seed=14, complex_valued=complex_valued)
    op = solvers.assemble_fusion_operator(a, ff)
    c = np.zeros(52, dtype=complex)
    rng = np.random.default_rng(15)
    for b in (0, 4, 10, 12):
        c[b * 4:(b + 1) * 4] = _complex_normal(rng, 4)
    y = op @ c
    cfg = solvers.SolverConfig()
    res = solvers.block_basis_pursuit(op, y, op.block_structure, cfg)
    ref = _reference_history(op, y, cfg, lambda v, tau: solvers.block_soft_threshold(
        v, tau, op.block_structure))
    assert not res.certified
    assert res.status == solvers.STATUS_CONVERGED and 10 < res.iterations == len(ref)
    assert (res.primal_residual, res.dual_residual) == tuple(res.residual_history[-1])
    # the two loops round differently, by about 1e-16 per entry of the
    # unit-norm problem, so later, small residuals are compared absolutely
    np.testing.assert_allclose(res.residual_history[:8], ref[:8], rtol=1e-12, atol=0)
    np.testing.assert_allclose(res.residual_history, ref, rtol=0, atol=1e-12)


def test_iteration_cap_sizes_no_buffer():
    # the history grows with the iterations run, not with the cap
    frame = _frame()
    x = np.zeros(49, dtype=complex)
    x[3] = 1.0
    y = frame.columns @ x
    ref = solvers.basis_pursuit(frame, y)
    for cap in (10 ** 12, 10 ** 20):
        res = solvers.basis_pursuit(frame, y, solvers.SolverConfig(max_iters=cap))
        assert res.iterations == ref.iterations < 100
        assert res.residual_history.tobytes() == ref.residual_history.tobytes()


def test_max_iters_status():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((4, 12))
    y = A @ rng.standard_normal(12)
    cfg = solvers.SolverConfig(max_iters=3)
    res = solvers.basis_pursuit(A, y, cfg)
    assert res.status == solvers.STATUS_MAX_ITERS
    assert res.iterations == 3


def _support_enumeration_optimum(A, y):
    """Smallest l1 norm over exact least-squares fits on supports of size <= n."""
    n, d = A.shape
    best = None
    for k in range(1, n + 1):
        for S in itertools.combinations(range(d), k):
            A_S = A[:, S]
            if np.linalg.matrix_rank(A_S) < k:
                continue
            x_S = np.linalg.lstsq(A_S, y, rcond=None)[0]
            if np.linalg.norm(A_S @ x_S - y) > 1e-10 * np.linalg.norm(y):
                continue
            if best is None or np.abs(x_S).sum() < np.abs(best).sum():
                best = np.zeros(d, dtype=complex)
                best[list(S)] = x_S
    return best


@pytest.mark.parametrize("complex_valued", [False, True])
def test_certified_solution_matches_support_enumeration(complex_valued):
    # A certified solution is the unique l1 minimiser.  It is itself an exact
    # fit on at most n columns, so it must be the cheapest such fit; for real
    # data that fit is also the LP optimum.
    certified = 0
    for seed in range(8):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((4, 9))
        x0 = np.zeros(9, dtype=complex)
        x0[rng.choice(9, size=1 + seed % 2, replace=False)] = rng.standard_normal(1 + seed % 2)
        if complex_valued:
            A = A + 1j * rng.standard_normal((4, 9))
            x0 *= np.exp(2j * np.pi * rng.random(9))
        y = A @ x0
        res = solvers.basis_pursuit(A, y)
        if not res.certified:
            continue
        certified += 1
        assert res.status == solvers.STATUS_CONVERGED
        best = _support_enumeration_optimum(A, y)
        assert np.linalg.norm(res.solution - best) <= 1e-9 * np.linalg.norm(best)
        assert res.objective == pytest.approx(np.abs(best).sum(), rel=1e-12)
    assert certified >= 6


def _duplicated_column_instance():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))
    A[:, 1] = A[:, 0]
    x0 = np.zeros(8, dtype=complex)
    x0[0] = 1.0 + 1.0j
    return A, x0


def test_l1_certificate_rejections():
    # duplicated column: every split of x0 between columns 0 and 1 is optimal
    A, x0 = _duplicated_column_instance()
    y = A @ x0
    assert _certificate(A, y, x0) is None
    both = np.zeros(8, dtype=complex)
    both[[0, 1]] = x0[0] / 2
    assert _certificate(A, y, both) is None  # A_S rank deficient
    # |S| > n
    assert _certificate(A, y, np.ones(8)) is None
    # the fit on supp(z) cannot meet y
    rng = np.random.default_rng(4)
    B = rng.standard_normal((4, 8))
    z = np.zeros(8)
    z[2] = 1.0
    assert _certificate(B, rng.standard_normal(4), z) is None
    # the fit on supp(z) puts an exact zero on column 1: the column is
    # dropped, and the fit on what is left, e_0, is the unique minimiser
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = _certificate(np.eye(2, 3), np.array([1.0, 0.0]), np.array([1.0, 1.0, 0.0]))
    assert x is not None and x.tolist() == [1.0, 0.0, 0.0]
    # the same B with a consistent 1-sparse y is certified on z's support
    x = _certificate(B, 2.0 * B[:, 2], z)
    assert x is not None and np.flatnonzero(x).tolist() == [2]
    assert x[2] == pytest.approx(2.0, rel=1e-12)


def test_l1_certificate_completes_a_missed_support():
    # z has found some of the 4 entries of the planted x0, or all of them
    # and columns x0 does not use; the certificate adds the missing columns
    # by |A_j^H r|, drops the unused ones, and certifies x0 itself
    A = _frame(13, 4).columns
    x0 = np.zeros(A.shape[1], dtype=complex)
    x0[[5, 40, 101, 120]] = [1.0, 0.05 - 0.02j, -0.03j, 0.02]
    y = A @ x0
    for found in ([5, 40, 101, 120], [5, 40, 101], [5, 40], [5],
                  [5, 40, 101, 120, 7, 60], [5, 7, 60]):
        z = np.zeros_like(x0)
        z[found] = 1.0
        x = _certificate(A, y, z)
        assert x is not None
        assert np.flatnonzero(x).tolist() == [5, 40, 101, 120]
        assert np.allclose(x, x0, rtol=0, atol=1e-12)
    # ten independent columns x0 does not use leave room for two of the
    # three it misses: the fit on the n = 13 columns the completion reaches
    # meets y with every column in use, and no certificate holds there,
    # since x0 is the unique minimiser
    found = [5, 20, 33, 47, 61, 75, 88, 99, 130, 150, 160]
    assert np.linalg.matrix_rank(A[:, found]) == len(found)
    z = np.zeros_like(x0)
    z[found] = 1.0
    assert _certificate(A, y, z) is None


@pytest.mark.parametrize("complex_valued", [False, True])
def test_append_column_extends_the_qr_factors(complex_valued):
    rng = np.random.default_rng(9)
    A = rng.standard_normal((8, 6))
    if complex_valued:
        A = A + 1j * rng.standard_normal((8, 6))
    Q, R = np.linalg.qr(A[:, :2])
    for m in range(3, 7):
        Q, R = solvers._append_column(Q, R, A[:, m - 1])
        assert np.allclose(Q @ R, A[:, :m], rtol=0, atol=1e-14)
        assert np.allclose(Q.conj().T @ Q, np.eye(m), rtol=0, atol=1e-14)
        assert np.allclose(R, np.triu(R), rtol=0, atol=0)
        # the diagonal the rank test reads is the Householder one up to phase
        assert np.allclose(np.abs(np.diagonal(R)),
                           np.abs(np.diagonal(np.linalg.qr(A[:, :m])[1])), rtol=1e-12)
    # a column in the span of the others gets a diagonal entry of rounding size
    _, R = solvers._append_column(Q, R, A[:, :2] @ [1.0, -2.0])
    assert abs(R[-1, -1]) <= 1e-14 * np.abs(np.diagonal(R)).max()


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 7), extra=st.integers(1, 3),
       k=st.integers(1, 5), guess=st.sampled_from(["planted", "superset", "subset", "random"]))
def test_l1_certificate_from_any_guess_is_the_optimum(seed, n, extra, k, guess):
    # criterion 7's setting (small real A, the support-enumeration oracle),
    # with a planted k-sparse x0 and z that guesses its support: exactly, with
    # columns x0 does not use (their fitted weight is zero), without three or
    # more of its columns, or at random.  Whatever S the repair reaches, a
    # returned x must be feasible and as cheap as the oracle's optimum.
    rng = np.random.default_rng(seed)
    d = n + extra
    k = min(k + (3 if guess == "subset" else 0), d)
    A = rng.standard_normal((n, d))
    planted = rng.choice(d, size=k, replace=False)
    x0 = np.zeros(d)
    x0[planted] = rng.standard_normal(k)
    y = A @ x0
    z = np.zeros(d)
    if guess == "planted":
        z[planted] = 1.0
    elif guess == "superset":
        z[planted] = 1.0
        z[rng.choice(d, size=extra, replace=False)] = 1.0
    elif guess == "subset":
        z[rng.choice(planted, size=max(k - 3, 0), replace=False)] = 1.0
    else:
        z[rng.choice(d, size=rng.integers(1, d + 1), replace=False)] = 1.0
    x = _certificate(A, y, z)
    if x is None:
        return
    best = _support_enumeration_optimum(A, y)
    assert np.linalg.norm(A @ x - y) <= 1e-10 * np.linalg.norm(y)
    assert np.abs(x).sum() == pytest.approx(np.abs(best).sum(), rel=1e-9)


def _record_searches(monkeypatch):
    """The fixed rows of every _dual_search the certificates run (at
    _DUAL_RADIUS; the refutation's run at radius 1), and the (g, P g) steps
    each of them yields, one list per search."""
    searched, steps = [], []
    search = solvers._dual_search

    def recording(project, g, fixed, radius):
        if radius != solvers._DUAL_RADIUS:
            yield from search(project, g, fixed, radius)
            return
        searched.append(tuple(np.flatnonzero(fixed)))
        steps.append([])
        for step in search(project, g, fixed, radius):
            steps[-1].append(step)
            yield step

    monkeypatch.setattr(solvers, "_dual_search", recording)
    return searched, steps


def _assert_explicit_dual(A, x, size, g, image):
    """The dual a certificate tests at the search step (g, image = P g), built
    explicitly on the dense A: w = pinv(A_S^H)(sgn(x_S) - r_S) + pinv(A^H) r
    with r = g - P g, S the blocks of ``size`` that x uses.  r must lie in
    range(A^H), w must meet A_S^H w = sgn(x_S), and every block b outside S
    must have ||A_b^H w|| < 1 - _CERTIFY_MARGIN: w is a strict dual certificate."""
    parts = x.reshape(-1, size)
    norms = np.linalg.norm(parts, axis=1)
    on = norms > 0
    S = np.repeat(on, size)
    sign = (parts[on] / norms[on, None]).reshape(-1)
    r = (g - image).reshape(-1)
    AH = A.conj().T
    row_space = np.linalg.pinv(AH) @ r
    assert np.linalg.norm(AH @ row_space - r) <= 1e-12 * max(1.0, np.linalg.norm(r))
    w = np.linalg.pinv(AH[S]) @ (sign - r[S]) + row_space
    h = AH @ w
    assert np.abs(h[S] - sign).max() <= 1e-12
    off = np.linalg.norm(h.reshape(-1, size), axis=1)[~on]
    assert off.max() < 1.0 - solvers._CERTIFY_MARGIN


def test_l1_certificate_searches_past_the_min_norm_dual(monkeypatch):
    # x = e_0 is the unique minimiser (the other exact fits cost >= 2), but
    # the min-norm dual w = (1, 0) gives |a_1^H w| = 1.5; the search must
    # find a w = (1, t) with max(|1.5 - 2t|, |t|) < 1
    A = np.array([[1.0, 1.5, 0.0], [0.0, -2.0, 1.0]])
    y = A[:, 0]
    z = np.array([1.0, 0.0, 0.0])
    assert _min_norm_certificate(A, y, z, monkeypatch) is None
    _, searches = _record_searches(monkeypatch)
    x = _certificate(A, y, z)
    assert x is not None and np.allclose(x, z, rtol=0, atol=1e-15)
    # the dual of the step that certifies, the last one, rebuilt explicitly
    # with pseudoinverses, stays on the affine set A_S^H w = sgn(x_S)
    (steps,) = searches
    assert steps
    _assert_explicit_dual(A, x, 1, *steps[-1])


def test_l1_certificate_search_rejects_without_a_strict_certificate():
    # a column twice a support column forces |A_1^H w| = 2 on the whole
    # affine set, and an exact copy forces it to 1: no strict certificate
    A, x0 = _duplicated_column_instance()
    for scale in (2.0, 1.0):
        B = A.copy()
        B[:, 1] = scale * A[:, 0]
        assert _certificate(B, B @ x0, x0) is None
    # the same with the other column orthogonal to the support: the only
    # weighted column lies in range(A_S), so a search step has no unique solution
    B = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    assert _certificate(B, B[:, 0], np.array([1.0, 0.0, 0.0])) is None


# master seed, generator kind, k: the reference trials of the classic-n43
# benchmark whose planted support the min-norm dual cannot certify
_SEARCH_TRIALS = [(4, "random_torus", 5), (9, "random_torus", 5), (16, "difference_set", 5),
                  (21, "difference_set", 5), (22, "difference_set", 5),
                  (22, "random_torus", 5), (30, "difference_set", 5)]
# the check at which a dense solve of each certifies it, the first: a weaker
# search would certify later
_SEARCH_CERTIFIED_AT = dict.fromkeys(_SEARCH_TRIALS, 10)


def _classic_trial(master, kind, k, t=0):
    """Frame, planted signal and measurements of one run_classic_experiment trial at N=43."""
    if kind == "random_torus":
        seed = experiments.derive_seed(master, "classic", kind, k, t, "generator")
        frame = gabor.build_gabor_frame(gabor.random_torus_generator(43, seed))
    else:
        frame = _frame(43, 21)
    seed = experiments.derive_seed(master, "classic", kind, k, t, "signal")
    x = experiments.random_k_sparse_signal(43 ** 2, k, seed)
    return frame.columns, x, frame.columns @ x


def _record_certificate_calls(monkeypatch):
    """(supp(z), the supports it searched) of every _l1_certificate call that _admm makes."""
    calls = []
    certificate = solvers._l1_certificate

    def recording(project, z, searched):
        before = set(searched)
        result = certificate(project, z, searched)
        calls.append((np.flatnonzero(z), sorted(searched - before)))
        return result

    monkeypatch.setattr(solvers, "_l1_certificate", recording)
    return calls


def _assert_search_schedule(calls):
    # a check calls the certificate only on a supp(z) unlike the last one's,
    # and the solve searches each repaired support at most once
    for (before, _), (support, _) in zip(calls, calls[1:]):
        assert not np.array_equal(before, support)
    searched = [key for _, keys in calls for key in keys]
    assert len(searched) == len(set(searched))


@pytest.mark.parametrize("master, kind, k", _SEARCH_TRIALS)
def test_search_certifies_the_planted_support(master, kind, k, monkeypatch):
    A, x, y = _classic_trial(master, kind, k)
    assert _min_norm_certificate(A, y, x, monkeypatch) is None
    assert np.linalg.norm(_certificate(A, y, x) - x) <= 1e-10 * np.linalg.norm(x)
    calls = _record_certificate_calls(monkeypatch)
    res = solvers.basis_pursuit(A, y)
    assert res.certified and res.status == solvers.STATUS_CONVERGED
    assert res.iterations == _SEARCH_CERTIFIED_AT[master, kind, k]
    assert np.linalg.norm(res.solution - x) <= 1e-10 * np.linalg.norm(x)
    _assert_search_schedule(calls)
    assert calls[-1][1]  # the min-norm dual alone cannot certify this support


def test_a_superset_with_unused_columns_is_certified_at_the_first_check(monkeypatch):
    # a 1-sparse trial on the (43, 21) difference-set frame: at iteration 10
    # supp(z) holds 43 columns, and the fit on them weights all but the
    # planted one at rounding size; they are dropped, and x is certified
    A, x, y = _classic_trial(0, "difference_set", 1)
    calls = _record_certificate_calls(monkeypatch)
    res = solvers.basis_pursuit(A, y)
    assert res.certified and res.iterations == solvers._CERTIFY_PERIOD
    assert np.linalg.norm(res.solution - x) <= 1e-10 * np.linalg.norm(x)
    (support, _), = calls
    assert support.size == 43 and set(np.flatnonzero(x)) < set(support)
    z = np.zeros_like(x)
    z[support] = 1.0
    S = np.flatnonzero(z)
    Q, R = np.linalg.qr(A[:, S])
    weights = np.abs(np.linalg.solve(R, Q.conj().T @ y))
    assert np.sort(weights)[-2] <= 1e-12 * weights.max()
    assert np.linalg.norm(_certificate(A, y, z) - x) <= 1e-10 * np.linalg.norm(x)


def test_a_repaired_support_is_searched_once_per_solve(monkeypatch):
    # an 8-sparse trial at N = 43 whose planted support no certificate
    # proves: ADMM reaches x by tolerance only, after thousands of
    # iterations, while its supports come and go and the repair maps many of
    # them to the planted one.  The search on that S runs once per solve.
    A, x, y = _classic_trial(0, "difference_set", 8, t=1)
    planted = tuple(np.flatnonzero(x))
    searched, _ = _record_searches(monkeypatch)
    certificate = solvers._l1_certificate
    calls = _record_certificate_calls(monkeypatch)
    res = solvers.basis_pursuit(A, y, _refute=(x, experiments.DEFAULT_THRESHOLD))
    assert not res.certified and res.status == solvers.STATUS_CONVERGED
    _assert_search_schedule(calls)
    assert searched == [planted]
    # without the set of searched supports, the same solve searches it again
    searched.clear()
    monkeypatch.setattr(solvers, "_l1_certificate",
                        lambda project, z, searched: certificate(project, z, set()))
    solvers.basis_pursuit(A, y, _refute=(x, experiments.DEFAULT_THRESHOLD))
    assert len(searched) > 1 and set(searched) == {planted}


def test_a_stalled_support_is_searched_once(monkeypatch):
    # 5-sparse at (13, 4) is beyond what this frame recovers: from iteration
    # 230 ADMM sits on one supp(z) for 210 iterations, and the S it repairs
    # to fails the minimum-norm dual, so it is searched, once
    A = _frame(13, 4).columns
    x = experiments.random_k_sparse_signal(A.shape[1], 5, 4046)
    searched, _ = _record_searches(monkeypatch)
    calls = _record_certificate_calls(monkeypatch)
    res = solvers.basis_pursuit(A, A @ x, solvers.SolverConfig(max_iters=700))
    assert not res.certified
    _assert_search_schedule(calls)
    assert searched and len(searched) == len(set(searched))
    # checks on a supp(z) the last check saw are skipped, not repeated
    assert len(calls) < res.iterations // solvers._CERTIFY_PERIOD


def test_a_square_support_is_not_searched(monkeypatch):
    # a 12-sparse trial at N = 43 that the frame does not recover: the repair
    # fills S up to n = 43 columns, where A_S is square, so the min-norm dual
    # is the only dual and a search could not succeed
    A, x, y = _classic_trial(2, "random_torus", 12, t=1)
    tested, searched = [], []  # |S| of each dual test; |S| of each search
    off_support, search = solvers._off_support, solvers._dual_search

    def recording_test(A, w, r, S):
        tested.append(S.size)
        return off_support(A, w, r, S)

    def recording_search(project, g, fixed, radius):
        if radius == solvers._DUAL_RADIUS:  # the certificate's, not the refutation's
            searched.append(int(fixed.sum()))
        return search(project, g, fixed, radius)

    monkeypatch.setattr(solvers, "_off_support", recording_test)
    monkeypatch.setattr(solvers, "_dual_search", recording_search)
    res = solvers.basis_pursuit(A, y, _refute=(x, experiments.DEFAULT_THRESHOLD))
    assert not res.certified
    assert 43 in tested
    assert 43 not in searched


def test_the_classic_reference_trials_certify_at_their_first_checks(monkeypatch):
    # the 480 reference trials of the classic-n43 benchmark: N = 43, the three
    # generator kinds x k = 1..5, master seeds 0-31, trial 0.  A certificate
    # that comes later changes no recovery result, so only these totals show it
    calls = _record_certificate_calls(monkeypatch)
    diagnostics = []
    for master in range(32):
        cfg = experiments.ClassicExperimentConfig(N=43, sparsity_grid=range(1, 6), trials=1,
                                                  master_seed=master, set_params=(43, 21))
        diagnostics += [d for curve in experiments.run_classic_experiment(cfg)
                        for d in curve.diagnostics]
    assert len(diagnostics) == 480
    assert all(d["certified"] == 1 for d in diagnostics)
    iterations = [d["max_iterations"] for d in diagnostics]
    assert (sum(iterations), max(iterations)) == (4820, 20)
    assert len(calls) == 482
    assert sum(len(keys) for _, keys in calls) == 32


@pytest.mark.parametrize("kind", ["gabor", "dense", "fusion-qr", "fusion-svd"])
def test_dual_search_keeps_its_constraints(kind):
    # the refutation bound needs every iterate to be a subgradient: fixed rows
    # bit-unchanged, every other row within the radius; and the image the
    # bound reads must be null_part of the iterate itself
    rng = np.random.default_rng(60)
    if kind in ("gabor", "dense"):
        op = _frame() if kind == "gabor" else _complex_normal(rng, (4, 9))
        A = op.columns if kind == "gabor" else op
        g = _complex_normal(rng, (A.shape[1], 1))
    else:
        op = A = _fusion_instance(7, 3, 2, seed=31)
        if kind == "fusion-svd":  # two equal columns of a: rank-deficient 3 x 3 blocks
            a = solvers.gaussian_measurement_coefficients(3, 7, seed=31)
            a[:, 4] = a[:, 1]
            op = A = solvers.assemble_fusion_operator(a, op.fusion_frame)
        g = _complex_normal(rng, (7, 3))
    project = solvers.AffineProjection(op, A @ _complex_normal(rng, g.size))
    assert project.uses_factorization == (kind != "gabor")
    assert (project.rank < min(A.shape)) == (kind == "fusion-svd")  # only it lacks full rank
    fixed = np.zeros(len(g), dtype=bool)
    fixed[[0, 2]] = True
    start = g.copy()
    for radius in (0.8, 1.0):
        norms = []
        for x, image in solvers._dual_search(project, g, fixed, radius):
            assert np.array_equal(x[fixed], start[fixed])
            norms.append(np.linalg.norm(x, axis=1)[~fixed].max())
            expected = project.null_part(x.reshape(-1), np.empty(x.size, complex))
            assert np.array_equal(image.reshape(-1), expected)
        assert len(norms) == solvers._TIGHTEN_STEPS
        assert max(norms) <= radius * (1 + 1e-15)
        assert np.array_equal(g, start)  # the start is read, not written


def test_basis_pursuit_uncertified_cases():
    A, x0 = _duplicated_column_instance()
    res = solvers.basis_pursuit(A, A @ x0, solvers.SolverConfig(max_iters=300))
    assert not res.certified
    # one measurement of four identical columns: the symmetric minimiser
    # spreads over all four, so |S| = 4 > n = 1
    res = solvers.basis_pursuit(np.ones((1, 4)), np.array([1.0]))
    assert not res.certified and res.status == solvers.STATUS_CONVERGED
    assert np.allclose(res.solution, 0.25, atol=1e-6)
    # a run shorter than one certification period never certifies
    res = solvers.basis_pursuit(_frame().columns, _frame().columns[:, 3],
                                solvers.SolverConfig(max_iters=solvers._CERTIFY_PERIOD - 1))
    assert not res.certified and res.status == solvers.STATUS_MAX_ITERS


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6), extra=st.integers(1, 8),
       k=st.integers(1, 3), complex_valued=st.booleans())
def test_certified_solve_is_feasible_and_no_worse_than_planted(seed, n, extra, k,
                                                                complex_valued):
    rng = np.random.default_rng(seed)
    d = n + extra
    A = rng.standard_normal((n, d))
    x0 = np.zeros(d, dtype=complex)
    x0[rng.choice(d, size=min(k, n), replace=False)] = rng.standard_normal(min(k, n))
    if complex_valued:
        A = A + 1j * rng.standard_normal((n, d))
        x0 *= np.exp(2j * np.pi * rng.random(d))
    y = A @ x0
    res = solvers.basis_pursuit(A, y, solvers.SolverConfig(max_iters=500))
    if res.certified:
        assert np.linalg.norm(A @ res.solution - y) <= 1e-10 * np.linalg.norm(y)
        assert np.abs(res.solution).sum() <= np.abs(x0).sum() * (1 + 1e-10)


def _initial_refutation_bound(A, x, y, tau, blocks, objective):
    """The bound a solve compares its first checks with, in the scale of y."""
    ynorm = np.linalg.norm(y)
    project = solvers.AffineProjection(A, y / ynorm)
    refutation = solvers._Refutation(x, tau, blocks, objective, project, ynorm)
    return (refutation._value - refutation._margin * refutation._radius) * ynorm


def test_refutation_spares_a_minimiser_inside_the_nse_ball():
    # A = [1, -(1-eps)], x = (1, delta): the unique minimiser (y, 0) has a
    # lower objective than x, yet lies within NSE tau of it, so the trial is
    # a success.  The objective gap is 98% of the margin sqrt(k tau)||x||, so
    # the sound margin must not refute it and a margin 2% short would.
    eps, delta, tau = 0.02, 7e-4, experiments.DEFAULT_THRESHOLD
    A = np.array([[1.0, -(1.0 - eps)]])
    x = np.array([1.0, delta], dtype=complex)
    y = A @ x
    minimiser = np.array([y[0], 0.0])
    assert np.abs(minimiser).sum() < np.abs(x).sum()
    assert experiments.normalized_squared_error(minimiser, x) < tau
    blocks = solvers.BlockStructure(2, 1)  # l1 without the certified stop
    bound = _initial_refutation_bound(
        A, x, y, tau, blocks, lambda v: np.linalg.norm(v.reshape(2, 1), axis=1).sum())
    assert bound == pytest.approx(_initial_refutation_bound(
        A, x, y, tau, blocks, lambda v: np.abs(v).sum()))
    res = solvers.block_basis_pursuit(A, y, blocks, _refute=(x, tau))
    assert res.status == solvers.STATUS_CONVERGED
    assert experiments.normalized_squared_error(res.solution, x) < tau
    # with no margin the rule fires on an iterate, and the trial would fail
    res = solvers.block_basis_pursuit(A, y, blocks, _refute=(x, 0.0))
    assert res.status == solvers.STATUS_REFUTED
    assert experiments.normalized_squared_error(res.solution, x) >= tau


def _null_space_margin_instance(gap_over_margin):
    """A = [1, 1 - eps, a3], x = (1, delta, 0), and the null-space margin
    factor min ||P g|| over the subgradients g = (1, 1, t), |t| <= 1, of the
    l1 norm at x.  The unique minimiser is (y, 0, 0); v - x = ((1-eps) delta,
    -delta, 0) lies in null(A), and its objective gap eps delta equals
    min ||P g|| ||v - x||, so the minimiser sits at NSE gap_over_margin^2 tau
    with an objective gap of gap_over_margin times the margin."""
    eps, a3, tau = 0.5, 0.5, experiments.DEFAULT_THRESHOLD
    A = np.array([[1.0, 1.0 - eps, a3]])
    scale = np.hypot(1.0, 1.0 - eps)  # ||v - x|| / delta
    t = (2.0 - eps) * a3 / scale ** 2  # the minimising off-support entry, inside [-1, 1]
    g = np.array([1.0, 1.0, t])
    factor = np.linalg.norm(g - (A[0] @ g) / (A[0] @ A[0]) * A[0])
    assert factor == pytest.approx(eps / scale, rel=1e-12)
    delta = 0.0
    for _ in range(5):  # delta scale = gap_over_margin sqrt(tau) ||x||, ||x|| = hypot(1, delta)
        delta = gap_over_margin * np.sqrt(tau) * np.hypot(1.0, delta) / scale
    return A, np.array([1.0, delta, 0.0], dtype=complex), factor


def test_refutation_spares_a_minimiser_inside_the_null_space_margin():
    # past the switch the margin is the null-space one, min ||P g|| sqrt(tau)
    # ||x||, here a third of sqrt(k tau) ||x||.  The minimiser's objective gap
    # is 98% of it: the solve must not refute, and must refute once tau
    # shrinks the margin to 98% of the gap.  rho = 300 keeps ADMM running
    # past _TIGHTEN_AT on this tiny problem.
    tau = experiments.DEFAULT_THRESHOLD
    A, x, factor = _null_space_margin_instance(0.98)
    assert factor < np.sqrt(2.0) / 3
    y = A @ x
    minimiser = np.array([y[0], 0.0, 0.0])
    gap = np.abs(x).sum() - np.abs(minimiser).sum()
    assert gap == pytest.approx(0.98 * factor * np.sqrt(tau) * np.linalg.norm(x), rel=1e-6)
    assert experiments.normalized_squared_error(minimiser, x) < tau
    blocks = solvers.BlockStructure(3, 1)  # l1 without the certified stop
    cfg = solvers.SolverConfig(rho=300.0, max_iters=2000)
    res = solvers.block_basis_pursuit(A, y, blocks, cfg, _refute=(x, tau))
    assert res.status == solvers.STATUS_CONVERGED and res.iterations > solvers._TIGHTEN_AT
    assert experiments.normalized_squared_error(res.solution, x) < tau
    res = solvers.block_basis_pursuit(A, y, blocks, cfg, _refute=(x, tau * 0.98 ** 4))
    assert res.status == solvers.STATUS_REFUTED and res.iterations >= solvers._TIGHTEN_AT
    assert experiments.normalized_squared_error(res.solution, x) >= tau * 0.98 ** 4

    # the slack: y = A x - e with e = (1 - eps) delta moves the minimiser to
    # (1, 0, 0), delta from x, inside the NSE ball, with an objective gap of
    # delta, about twice the null-space margin.  Only the slack's term
    # sqrt(B) ||y - A x|| / sigma, here sqrt(3) e / ||A||, keeps the solve
    # from refuting it; the same term covers the rounding in a trial's A x.
    A, x, factor = _null_space_margin_instance(0.9 * np.hypot(1.0, 0.5))
    delta = x[1].real
    y = A @ x - 0.5 * delta
    minimiser = np.array([1.0, 0.0, 0.0])
    assert np.allclose(A @ minimiser, y, rtol=0, atol=1e-15)
    assert experiments.normalized_squared_error(minimiser, x) < tau
    margin = factor * np.sqrt(tau) * np.linalg.norm(x)
    assert np.abs(x).sum() - np.abs(minimiser).sum() > 1.9 * margin
    res = solvers.block_basis_pursuit(A, y, blocks, cfg, _refute=(x, tau))
    assert res.status == solvers.STATUS_CONVERGED and res.iterations > solvers._TIGHTEN_AT
    assert experiments.normalized_squared_error(res.solution, x) < tau


def _planted_instance(rng, n, d, blocks, k, complex_valued):
    """A random n x d matrix, x with k nonzero blocks, and y = A x."""
    A = rng.standard_normal((n, d))
    x = np.zeros(d, dtype=complex)
    for b in rng.choice(blocks.block_count, size=k, replace=False):
        x[b * blocks.block_size:(b + 1) * blocks.block_size] = rng.standard_normal(
            blocks.block_size)
    if complex_valued:
        A = A + 1j * rng.standard_normal((n, d))
        x *= np.exp(2j * np.pi * rng.random(d))
    return A, x, A @ x


def _planted_fusion_instance(rng, params, n, k, complex_valued):
    """A fusion operator with n < K real or complex measurement coefficients,
    stacked coefficients x with k active blocks, and y = A x."""
    N, K = params
    seed = int(rng.integers(2**32))
    op = _fusion_instance(N, K, min(n, K - 1), seed, complex_valued=complex_valued)
    ff = op.fusion_frame
    x = experiments.random_fusion_sparse_signal(ff, min(k, N), seed)
    return op, x, op @ x


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), block_size=st.integers(1, 3),
       block_count=st.integers(2, 6), n=st.integers(1, 6), k=st.integers(1, 4),
       complex_valued=st.booleans(), fusion_set=st.sampled_from([None, (7, 3), (13, 4)]),
       rho=st.sampled_from([10.0, 300.0]))
# fusion solves refuted past _TIGHTEN_AT, with real and with complex local blocks
@example(seed=8, block_size=1, block_count=2, n=2, k=2, complex_valued=False,
         fusion_set=(13, 4), rho=300.0)
@example(seed=8, block_size=1, block_count=2, n=2, k=2, complex_valued=True,
         fusion_set=(13, 4), rho=300.0)
def test_refuted_solve_is_feasible_and_outside_the_nse_ball(seed, block_size, block_count,
                                                            n, k, complex_valued, fusion_set,
                                                            rho):
    rng = np.random.default_rng(seed)
    tau = experiments.DEFAULT_THRESHOLD
    cfg = solvers.SolverConfig(rho=rho, max_iters=500)
    if fusion_set is not None:
        op, x, y = _planted_fusion_instance(rng, fusion_set, n, k, complex_valued)
        res = solvers.block_basis_pursuit(op, y, op.block_structure, cfg, _refute=(x, tau))
        A = op.effective
    else:
        blocks = solvers.BlockStructure(block_count, block_size)
        d = blocks.dimension
        A, x, y = _planted_instance(rng, min(n, d), d, blocks, min(k, block_count),
                                    complex_valued)
        if block_size == 1:
            res = solvers.basis_pursuit(A, y, cfg, _refute=(x, tau))
        else:
            res = solvers.block_basis_pursuit(A, y, blocks, cfg, _refute=(x, tau))
    if res.status != solvers.STATUS_REFUTED:
        return
    assert res.iterations % solvers._CERTIFY_PERIOD == 0 and not res.certified
    assert np.linalg.norm(A @ res.solution - y) <= 1e-10 * np.linalg.norm(y)
    assert experiments.normalized_squared_error(res.solution, x) >= tau
    # a refuted planted signal is no minimiser, so it has no certificate
    if fusion_set is not None:
        assert _group_certificate(op, y, x) is None
    elif block_size == 1:
        assert _certificate(A, y, x) is None


def test_block_basis_pursuit_dimension_check():
    frame = _frame()
    with pytest.raises(InvalidInputError):
        solvers.block_basis_pursuit(
            frame, np.zeros(7), solvers.BlockStructure(7, 3)
        )


@pytest.mark.parametrize("matrix, message", [
    (np.ones(3), "matrix must be 2-d"), (np.ones((2, 3, 1)), "matrix must be 2-d"),
    (np.float64(1.0), "matrix must be 2-d"), (np.ones((2, 0)), "matrix has no columns"),
], ids=["1-d", "3-d", "0-d", "no columns"])
def test_solvers_reject_a_matrix_that_is_not_2d(matrix, message):
    # refused before any solver reads A.shape[1]
    with pytest.raises(InvalidInputError, match=message):
        solvers.basis_pursuit(matrix, np.ones(1))
    with pytest.raises(InvalidInputError, match=message):
        solvers.block_basis_pursuit(matrix, np.ones(1), solvers.BlockStructure(1, 3))
    with pytest.raises(InvalidInputError, match=message):
        solvers.AffineProjection(matrix, np.ones(1))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.0, -float("inf"))])
@pytest.mark.parametrize("kind", ["dense", "gabor", "fusion"])
def test_solvers_reject_non_finite_input(kind, bad, monkeypatch):
    # refused before any arithmetic: no projection is built, so no iteration
    # runs and no factorization sees the nan
    if kind == "dense":
        op = A = _complex_normal(np.random.default_rng(5), (3, 6))
    elif kind == "gabor":
        op = _frame()
        A = op.columns
    else:
        op = _fusion_instance(7, 3, 2, seed=31)
        A = op.effective
    blocks = op.block_structure if kind == "fusion" else solvers.BlockStructure(A.shape[1], 1)
    y = A @ np.ones(A.shape[1])
    y[1] = bad

    def unreachable(*args):
        raise AssertionError("a projection was built")

    monkeypatch.setattr(solvers, "AffineProjection", unreachable)
    with pytest.raises(InvalidInputError, match="y has non-finite entries"):
        solvers.basis_pursuit(op, y)
    with pytest.raises(InvalidInputError, match="y has non-finite entries"):
        solvers.block_basis_pursuit(op, y, blocks)
    if kind == "dense":
        A = A.copy()
        A[0, 2] = bad
        with pytest.raises(InvalidInputError, match="matrix has non-finite entries"):
            solvers.basis_pursuit(A, np.ones(3))
        with pytest.raises(InvalidInputError, match="matrix has non-finite entries"):
            solvers.block_basis_pursuit(A, np.ones(3), solvers.BlockStructure(2, 3))
        monkeypatch.undo()
        with pytest.raises(InvalidInputError, match="matrix has non-finite entries"):
            solvers.AffineProjection(A, np.ones(3))


def test_block_basis_pursuit_recovers_block_sparse():
    ds = diffsets.catalog_lookup(7, 3)
    ff = fusion.build_fusion_frame(ds)
    a = solvers.gaussian_measurement_coefficients(4, 7, seed=9)
    op = solvers.assemble_fusion_operator(a, ff)
    rng = np.random.default_rng(10)
    c = np.zeros(21, dtype=complex)
    c[3 * 3:4 * 3] = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    y = op.effective @ c
    res = solvers.block_basis_pursuit(op.effective, y, op.block_structure)
    assert res.status == solvers.STATUS_CONVERGED
    assert np.linalg.norm(res.solution - c) / np.linalg.norm(c) < 1e-6


def test_gaussian_measurement_coefficients():
    a = solvers.gaussian_measurement_coefficients(5, 11, seed=1)
    b = solvers.gaussian_measurement_coefficients(5, 11, seed=1)
    assert a.shape == (5, 11) and np.array_equal(a, b)
    assert not np.iscomplexobj(a)
    c = solvers.gaussian_measurement_coefficients(5, 11, seed=1, complex_valued=True)
    assert np.iscomplexobj(c)
    with pytest.raises(InvalidInputError, match="seed=-1"):
        solvers.gaussian_measurement_coefficients(5, 11, seed=-1)


def test_assemble_fusion_operator_action():
    ds = diffsets.catalog_lookup(7, 3)
    ff = fusion.build_fusion_frame(ds)
    a = solvers.gaussian_measurement_coefficients(3, 7, seed=2)
    op = solvers.assemble_fusion_operator(a, ff)
    assert op.effective.shape == (21, 21)
    rng = np.random.default_rng(11)
    c = rng.standard_normal(21) + 1j * rng.standard_normal(21)
    vectors = solvers.coefficients_to_subspace_vectors(ff, c)  # rows x_j
    direct = np.concatenate([vectors.T @ a[i] for i in range(3)])
    assert np.allclose(op.effective @ c, direct)
    assert np.allclose(op @ c, direct)


def test_assemble_fusion_operator_validates_shape():
    ds = diffsets.catalog_lookup(7, 3)
    ff = fusion.build_fusion_frame(ds)
    with pytest.raises(InvalidInputError):
        solvers.assemble_fusion_operator(np.zeros((3, 6)), ff)


def test_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(6)
    M = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    path = tmp_path / "m.csv"
    solvers.write_complex_matrix_csv(path, M)
    back = solvers.read_complex_matrix_csv(path)
    assert np.array_equal(back, M)  # %.17g is exact for doubles

    v = rng.standard_normal(5)
    solvers.write_complex_matrix_csv(path, v)
    assert solvers.read_complex_matrix_csv(path).shape == (5, 1)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(M=arrays(complex, st.tuples(st.integers(0, 5), st.integers(0, 5)),
                elements=st.complex_numbers(allow_nan=False, allow_infinity=False)))
def test_csv_roundtrip_is_exact(tmp_path, M):
    # every example overwrites the same file
    path = tmp_path / "m.csv"
    solvers.write_complex_matrix_csv(path, M)
    back = solvers.read_complex_matrix_csv(path)
    assert back.shape == M.shape
    assert back.tobytes() == M.tobytes()  # bit for bit, signed zeros included


def test_csv_read_validation(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("2,2\n1,0\n")
    with pytest.raises(InvalidInputError):
        solvers.read_complex_matrix_csv(path)
    path.write_text("nonsense\n")
    with pytest.raises(InvalidInputError):
        solvers.read_complex_matrix_csv(path)
    for bad in ["nan,0", "1,inf", "-inf,2"]:
        path.write_text(f"2,1\n1,0\n{bad}\n")
        with pytest.raises(InvalidInputError, match="bad.csv.*non-finite"):
            solvers.read_complex_matrix_csv(path)


# ------------------------------------------- structured fusion operator vs dense oracle

def _fusion_instance(N, K, n, seed, complex_valued=False, scale=1.0):
    ff = fusion.build_fusion_frame(diffsets.catalog_lookup(N, K))
    a = solvers.gaussian_measurement_coefficients(n, N, seed, complex_valued=complex_valued)
    return solvers.assemble_fusion_operator(scale * a, ff)


def _complex_normal(rng, size):
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


@settings(max_examples=30, deadline=None)
@given(params=st.sampled_from([(7, 3), (13, 4), (40, 13)]),
       n=st.integers(1, 16), seed=st.integers(0, 2**32 - 1))
def test_fusion_operator_matches_effective(params, n, seed):
    op = _fusion_instance(*params, n, seed)
    assert op.shape == op.effective.shape
    x = _complex_normal(np.random.default_rng(seed), op.shape[1])
    dense = op.effective @ x
    assert np.max(np.abs(op @ x - dense)) <= 1e-12 * (1.0 + np.max(np.abs(dense)))


@pytest.mark.parametrize("params, n", [((7, 3), 2), ((7, 3), 3), ((7, 3), 5),
                                       ((40, 13), 5), ((40, 13), 13), ((40, 13), 16)])
def test_structured_projection_matches_dense(params, n):
    op = _fusion_instance(*params, n, seed=21)
    rng = np.random.default_rng(22)
    y = op @ _complex_normal(rng, op.shape[1])
    structured = solvers.AffineProjection(op, y)
    dense = solvers.AffineProjection(op.effective, y)
    assert structured.uses_factorization and dense.uses_factorization
    assert structured.matrix.shape == dense.matrix.shape
    assert structured.rank == dense.rank == min(n, params[1]) * params[0]
    for _ in range(3):
        w = _complex_normal(rng, op.shape[1])
        out, ref = structured(w), dense(w)
        # the dense output carries roundoff of order cond(block) * eps
        assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref)
        assert np.linalg.norm(op @ out - y) <= 1e-10 * np.linalg.norm(y)


def test_structured_projection_rank_deficient_block():
    # two equal columns of a make every block that holds both rank deficient
    ff = fusion.build_fusion_frame(diffsets.catalog_lookup(7, 3))
    a = solvers.gaussian_measurement_coefficients(3, 7, seed=5)
    a[:, 4] = a[:, 1]
    op = solvers.assemble_fusion_operator(a, ff)
    y = op @ _complex_normal(np.random.default_rng(6), 21)
    structured = solvers.AffineProjection(op, y)
    dense = solvers.AffineProjection(op.effective, y)
    assert structured.rank == dense.rank < 21
    w = _complex_normal(np.random.default_rng(7), 21)
    assert np.linalg.norm(structured(w) - dense(w)) <= 1e-12 * np.linalg.norm(dense(w))


@pytest.mark.parametrize("params, n", [((7, 3), 5), ((40, 13), 16)])
def test_structured_projection_inconsistent_raises(params, n):
    # n > K: each local block has more rows than columns, so y can leave the range
    op = _fusion_instance(*params, n, seed=8)
    y = op @ _complex_normal(np.random.default_rng(9), op.shape[1])
    y[0] += 1.0
    for matrix in (op, op.effective):
        with pytest.raises(FactorizationError):
            solvers.AffineProjection(matrix, y)


def test_structured_projection_validates_input():
    op = _fusion_instance(7, 3, 2, seed=10)
    with pytest.raises(InvalidInputError):
        solvers.AffineProjection(op, np.zeros(13))
    with pytest.raises(InvalidInputError):
        op @ np.zeros(20)
    zero = solvers.assemble_fusion_operator(np.zeros((2, 7)), op.fusion_frame)
    for matrix in (zero, zero.effective):
        with pytest.raises(FactorizationError):
            solvers.AffineProjection(matrix, np.ones(14))


@pytest.mark.parametrize("params, n", [((7, 3), 3), ((7, 3), 5), ((40, 13), 13),
                                       ((40, 13), 16)])
def test_fusion_with_n_at_least_k_is_one_point(params, n):
    # every n x K block has full column rank, so Ax = y has one solution
    N, K = params
    op = _fusion_instance(N, K, n, seed=41)
    c = np.zeros(N * K, dtype=complex)
    c[:K] = _complex_normal(np.random.default_rng(42), K)
    y = op @ c
    proj = solvers.AffineProjection(op, y)
    assert proj.rank == N * K
    res = solvers.block_basis_pursuit(op, y, op.block_structure)
    oracle = np.linalg.lstsq(op.effective, y, rcond=None)[0]
    assert res.iterations == 0 and res.status == solvers.STATUS_CONVERGED
    assert np.linalg.norm(res.solution - oracle) <= 1e-12 * np.linalg.norm(oracle)
    assert np.linalg.norm(res.solution - c) <= 1e-10 * np.linalg.norm(c)


def test_basis_pursuit_full_column_rank_is_one_point():
    rng = np.random.default_rng(43)
    A = _complex_normal(rng, (9, 6))
    y = A @ _complex_normal(rng, 6)
    res = solvers.basis_pursuit(A, y)
    oracle = np.linalg.lstsq(A, y, rcond=None)[0]
    assert res.iterations == 0 and res.status == solvers.STATUS_CONVERGED
    assert not res.certified and res.residual_history.shape == (0, 2)
    assert np.linalg.norm(res.solution - oracle) <= 1e-12 * np.linalg.norm(oracle)
    assert res.objective == pytest.approx(np.abs(res.solution).sum())


def test_fusion_with_a_duplicated_column_still_iterates():
    # n >= K, but two equal columns of a make every block holding both rank
    # deficient, so the feasible set is a line, not a point
    ff = fusion.build_fusion_frame(diffsets.catalog_lookup(7, 3))
    a = solvers.gaussian_measurement_coefficients(4, 7, seed=44)
    a[:, 4] = a[:, 1]
    op = solvers.assemble_fusion_operator(a, ff)
    c = np.zeros(21, dtype=complex)
    c[:3] = _complex_normal(np.random.default_rng(45), 3)
    y = op @ c
    assert solvers.AffineProjection(op, y).rank < 21
    res = solvers.block_basis_pursuit(op, y, op.block_structure)
    assert res.iterations > 0
    assert np.linalg.norm(op @ res.solution - y) <= 1e-9 * np.linalg.norm(y)


@pytest.mark.parametrize("kind", ["gabor", "dense", "fusion-real", "fusion-complex",
                                  "fusion-svd"])
def test_null_part_projects_onto_the_null_space(kind):
    # the refutation bound's P: the part of the projection linear in w,
    # idempotent and self-adjoint, with A P w = 0 on every projection path
    rng = np.random.default_rng(30)
    if kind == "gabor":
        A, op = _frame().columns, _frame()
    elif kind == "dense":
        A = _complex_normal(rng, (4, 9))
        op = A
    else:
        op = _fusion_instance(7, 3, 2, seed=31, complex_valued=kind == "fusion-complex")
        if kind == "fusion-svd":  # two equal columns of a: rank-deficient 3 x 3 blocks
            a = solvers.gaussian_measurement_coefficients(3, 7, seed=31)
            a[:, 4] = a[:, 1]
            op = solvers.assemble_fusion_operator(a, op.fusion_frame)
        A = op.effective
    y = A @ _complex_normal(rng, A.shape[1])
    project = solvers.AffineProjection(op, y)
    assert project.rank < A.shape[1] and (kind != "fusion-svd" or project.rank < A.shape[0])
    w, v = _complex_normal(rng, A.shape[1]), _complex_normal(rng, A.shape[1])
    Pw = project.null_part(w, np.empty_like(w))
    Pv = project.null_part(v, np.empty_like(v))
    assert np.linalg.norm(A @ Pw) <= 1e-12 * np.linalg.norm(A) * np.linalg.norm(w)
    assert np.linalg.norm(project.null_part(Pw, np.empty_like(w)) - Pw) <= 1e-12 * np.linalg.norm(w)
    assert abs(np.vdot(v, Pw) - np.vdot(Pv, w)) <= 1e-12 * np.linalg.norm(v) * np.linalg.norm(w)
    assert np.linalg.norm(project(w) - project(np.zeros_like(w)) - Pw) <= 1e-12 * np.linalg.norm(w)
    assert 0 < np.linalg.norm(Pw) < np.linalg.norm(w)


@pytest.mark.parametrize("complex_valued", [False, True])
def test_fusion_iterates_match_the_reference_kernels_bit_for_bit(complex_valued):
    # the solve binds its shrink buffers once and projects into preallocated
    # ones, yet runs the same ufuncs and matmuls: every iterate must equal, to
    # the bit, the loop built from block_soft_threshold and the unbuffered
    # projection, which in turn agrees with the dense oracle's projection.
    # x fills the 13 blocks that hold coordinate 0, which has n = 9 rows: the
    # group certificate cannot prove a support with 13 > n columns on one
    # coordinate, so all 60 iterations run
    op = _fusion_instance(40, 13, 9, seed=3, complex_valued=complex_valued)
    blocks = op.block_structure
    rng = np.random.default_rng(4)
    x = np.zeros(blocks.dimension, dtype=complex)
    for b in np.flatnonzero((op.fusion_frame.supports == 0).any(axis=1)):
        x[b * 13:(b + 1) * 13] = _complex_normal(rng, 13)
    y = op @ x
    cfg = solvers.SolverConfig(max_iters=60)
    res = solvers.block_basis_pursuit(op, y, blocks, cfg)
    assert res.status == solvers.STATUS_MAX_ITERS and not res.certified
    ynorm = np.linalg.norm(y)
    project = solvers.AffineProjection(op, y / ynorm)
    dense = solvers.AffineProjection(op.effective, y / ynorm)
    P = project._null_projector
    assert P.dtype == (complex if complex_valued else float)

    def reference_projection(w):
        image = P @ w[op.owners].view(P.dtype).reshape(40, 13, -1)
        return image.view(complex).reshape(-1)[project._placement] + project._particular

    z = np.zeros(blocks.dimension, dtype=complex)
    u = np.zeros_like(z)
    history = []
    for _ in range(res.iterations):
        w = z - u
        x_k = reference_projection(w)
        assert np.array_equal(project(w), x_k)
        assert np.linalg.norm(dense(w) - x_k) <= 1e-12 * np.linalg.norm(x_k)
        z_old = z
        z = solvers.block_soft_threshold(x_k + u, 1.0 / cfg.rho, blocks)
        u = u + (x_k - z)
        history.append((np.linalg.norm(x_k - z), cfg.rho * np.linalg.norm(z - z_old)))
    assert np.array_equal(res.solution, x_k * ynorm)
    np.testing.assert_allclose(res.residual_history, history, rtol=1e-13, atol=0)


# ------------------------------------------------------- group certificate (fusion)

def _group_certificate(op, y, z):
    """_group_certificate on the AffineProjection of the fusion operator op
    and y, for op's blocks, with no support tried before."""
    return solvers._group_certificate(solvers.AffineProjection(op, y), z, op.block_structure,
                                      set())


def _block_objective(v, blocks):
    return np.linalg.norm(v.reshape(blocks.block_count, blocks.block_size), axis=1).sum()


def _dense_min_norm_verdict(op, y, z):
    """The dense oracle of the group certificate's minimum-norm dual, on
    op.effective: S = the blocks of supp(z), the lstsq fit on S with the
    blocks it weights at most _PRUNE_TOL of the largest dropped and S refitted,
    then a full column rank, a fit that meets y and the pseudoinverse dual
    strictly inside the unit ball off S; the fit, scattered, or None."""
    A, blocks = op.effective, op.block_structure
    count, size = blocks.block_count, blocks.block_size
    S = z.reshape(count, size).any(axis=1)
    while True:
        columns = np.flatnonzero(np.repeat(S, size))
        if columns.size == 0 or np.linalg.matrix_rank(A[:, columns]) < columns.size:
            return None
        fit = np.linalg.lstsq(A[:, columns], y, rcond=None)[0]
        if np.linalg.norm(A[:, columns] @ fit - y) > solvers._CERTIFY_FIT_TOL * np.linalg.norm(y):
            return None
        norms = np.linalg.norm(fit.reshape(-1, size), axis=1)
        negligible = norms <= solvers._PRUNE_TOL * norms.max()
        if not negligible.any():
            break
        S[np.flatnonzero(S)[negligible]] = False
    sign = (fit.reshape(-1, size) / norms[:, None]).reshape(-1)
    w = np.linalg.pinv(A[:, columns].conj().T) @ sign
    dual = np.linalg.norm((A.conj().T @ w).reshape(count, size), axis=1)
    if dual[~S].max(initial=0.0) >= 1.0 - solvers._CERTIFY_MARGIN:
        return None
    x = np.zeros(op.shape[1], dtype=complex)
    x[columns] = fit
    return x


# monkeypatch is used only through its context(), which each example undoes
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**32 - 1), params=st.sampled_from([(7, 3), (13, 4)]),
       n=st.integers(1, 3), k=st.integers(1, 3), complex_valued=st.booleans(),
       guess=st.sampled_from(["planted", "superset", "random"]))
def test_group_certificate_proves_the_minimiser(seed, params, n, k, complex_valued, guess,
                                               monkeypatch):
    # whenever the certificate returns x, x is feasible and no worse than a
    # long ADMM solve on the dense matrix, which has no certificate; and its
    # minimum-norm dual gives the dense oracle's verdict
    rng = np.random.default_rng(seed)
    op, x, y = _planted_fusion_instance(rng, params, n, k, complex_valued)
    blocks = op.block_structure
    chosen = x.reshape(blocks.block_count, -1).any(axis=1)
    if guess == "superset":
        chosen[rng.integers(blocks.block_count)] = True
    elif guess == "random":
        chosen = rng.random(blocks.block_count) < 0.3
    z = np.repeat(chosen, blocks.block_size).astype(complex)
    certified = _group_certificate(op, y, z)
    if certified is not None:
        assert np.linalg.norm(op @ certified - y) <= 1e-10 * np.linalg.norm(y)
        long = solvers.block_basis_pursuit(op.effective, y, blocks,
                                           solvers.SolverConfig(max_iters=20000))
        assert (_block_objective(certified, blocks)
                <= _block_objective(long.solution, blocks) * (1 + 1e-10))
    oracle = _dense_min_norm_verdict(op, y, z)
    with monkeypatch.context() as patch:
        patch.setattr(solvers, "_dual_search", lambda *args: iter(()))
        min_norm = _group_certificate(op, y, z)
    assert (min_norm is None) == (oracle is None)
    if oracle is not None:
        assert np.linalg.norm(min_norm - oracle) <= 1e-10 * np.linalg.norm(oracle)


def test_group_certificate_keeps_its_margin():
    # two coordinates, each with rows e1 and e2 and one column of each of the
    # two blocks: block 0's is e1, block 1's is c e1.  For y = A x, x on block
    # 0, every dual has ||A_1^H w|| = c, so x is the unique minimiser for
    # c < 1, and a strict certificate proves it only for c < 1 - margin
    owners = np.array([[0, 2], [1, 3]])  # block 0 = coefficients 0 and 1
    blocks = solvers.BlockStructure(2, 2)
    x = np.array([1.0, 1.0j, 0.0, 0.0])
    for c, proved in ((1 - 1e-8, True), (1 - 1e-10, False)):
        local = np.zeros((2, 2, 2))
        local[:, 0, 0], local[:, 0, 1] = 1.0, c
        op = solvers.FusionMeasurementOperator(None, blocks, owners, local)
        y = op @ x
        certified = _group_certificate(op, y, x)
        assert (certified is not None) == proved
        if proved:
            assert np.linalg.norm(certified - x) <= 1e-12


# master seed, n, k: fusion-40-13 reference trials (trial 0) whose planted
# support the group search certifies, after 1 to 27 steps
_FUSION_SEARCH_TRIALS = [(0, 5, 4), (0, 9, 12), (6, 9, 12), (14, 9, 8), (17, 5, 1), (31, 5, 4)]


def _fusion_trial(master, n, k):
    """Operator, planted signal and measurements of one run_fusion_experiment trial at (40, 13)."""
    ff = fusion.build_fusion_frame(diffsets.catalog_lookup(40, 13))
    a = solvers.gaussian_measurement_coefficients(
        n, ff.N, experiments.derive_seed(master, "fusion", n, k, 0, "measurements"))
    op = solvers.assemble_fusion_operator(a, ff)
    x = experiments.random_fusion_sparse_signal(
        ff, k, experiments.derive_seed(master, "fusion", n, k, 0, "signal"))
    return op, x, op @ x


@pytest.mark.parametrize("trial", [("classic",) + t for t in _SEARCH_TRIALS]
                         + [("fusion",) + t for t in _FUSION_SEARCH_TRIALS],
                         ids=lambda trial: ":".join(map(str, trial)))
def test_certified_search_meets_the_explicit_dual(trial, monkeypatch):
    # the certificates test h = A^H W (sgn(x_S) - r_S) + r, r the row-space
    # part g - P g of a search step, without a pseudoinverse of A^H; the
    # dual vector behind the step that certifies is rebuilt explicitly
    kind, *params = trial
    _, searches = _record_searches(monkeypatch)
    if kind == "classic":
        A, x, y = _classic_trial(*params)
        dense, size = A, 1
        certified = _certificate(A, y, x)
    else:
        A, x, y = _fusion_trial(*params)
        dense, size = A.effective, A.block_structure.block_size
        certified = _group_certificate(A, y, x)
    assert certified is not None
    assert np.linalg.norm(certified - x) <= 1e-10 * np.linalg.norm(x)
    (steps,) = searches  # the min-norm dual alone does not certify x
    _assert_explicit_dual(dense, certified, size, *steps[-1])


def test_the_fusion_reference_trials_keep_their_certificate_totals(monkeypatch):
    # the 256 n < K reference trials of the fusion-40-13 benchmark: (40, 13),
    # n in {5, 9} x k in {1, 4, 8, 12}, master seeds 0-31, trial 0, at most
    # 2000 iterations.  A certificate that comes later changes no recovery
    # result, so only these totals show it
    calls = []
    certificate = solvers._group_certificate

    def recording(project, z, blocks, tried):
        calls.append(np.flatnonzero(z))
        return certificate(project, z, blocks, tried)

    monkeypatch.setattr(solvers, "_group_certificate", recording)
    searched, _ = _record_searches(monkeypatch)
    outcomes = {}
    for master in range(32):
        cfg = experiments.FusionExperimentConfig(
            set_params=(40, 13), measurement_grid=(5, 9), sparsity_grid=(1, 4, 8, 12), trials=1,
            master_seed=master, solver=solvers.SolverConfig(max_iters=2000))
        for curve in experiments.run_fusion_experiment(cfg):
            for (k, successes, _), d in zip(curve.points, curve.diagnostics):
                outcomes[f"{master}:{curve.label[2:]}:{k}"] = (successes, d)
    assert len(outcomes) == 256
    diagnostics = [d for _, d in outcomes.values()]
    totals = {outcome: sum(d[outcome] for d in diagnostics)
              for outcome in experiments.TRIAL_OUTCOMES}
    assert totals == {"certified": 157, solvers.STATUS_CONVERGED: 4,
                      solvers.STATUS_REFUTED: 86, solvers.STATUS_MAX_ITERS: 9}
    assert sum(d["max_iterations"] for d in diagnostics) == 32649
    assert sum(d["certified"] for d in diagnostics if d["max_iterations"] == 10) == 154
    assert (len(calls), len(searched), len(set(searched))) == (416, 99, 99)
    # these succeed only past 9 965 iterations: the reference digests record
    # them as failures at the cap, and no certificate may end them sooner
    for key in ("3:9:12", "8:9:12", "19:9:12"):
        successes, d = outcomes[key]
        assert successes == 0 and d[solvers.STATUS_MAX_ITERS] == 1


@pytest.mark.parametrize("params, n, k", [((7, 3), 2, 2), ((13, 4), 3, 2), ((40, 13), 9, 4),
                                          ((40, 13), 16, 4)])
def test_real_coefficients_match_their_complex_form(params, n, k):
    # real coefficients are factored in real arithmetic; the same numbers as
    # complex ones take the complex path, and both give the same answers
    N, K = params
    ff = fusion.build_fusion_frame(diffsets.catalog_lookup(N, K))
    a = solvers.gaussian_measurement_coefficients(n, N, seed=46)
    real_op = solvers.assemble_fusion_operator(a, ff)
    complex_op = solvers.assemble_fusion_operator(a.astype(complex), ff)
    assert real_op.blocks.dtype == float and complex_op.blocks.dtype == complex
    rng = np.random.default_rng(47)
    c = np.zeros(N * K, dtype=complex)
    for j in rng.choice(N, size=k, replace=False):
        c[j * K:(j + 1) * K] = _complex_normal(rng, K)
    y = real_op @ c
    assert np.array_equal(y, complex_op @ c)
    real_proj = solvers.AffineProjection(real_op, y)
    complex_proj = solvers.AffineProjection(complex_op, y)
    assert real_proj.rank == complex_proj.rank
    for _ in range(3):
        w = _complex_normal(rng, N * K)
        ref = complex_proj(w)
        assert np.linalg.norm(real_proj(w) - ref) <= 1e-10 * np.linalg.norm(ref)
    cfg = solvers.SolverConfig(max_iters=300)
    real_res = solvers.block_basis_pursuit(real_op, y, real_op.block_structure, cfg)
    complex_res = solvers.block_basis_pursuit(complex_op, y, complex_op.block_structure, cfg)
    assert real_res.status == complex_res.status
    assert (np.linalg.norm(real_res.solution - complex_res.solution)
            <= 1e-10 * np.linalg.norm(complex_res.solution))


@pytest.mark.parametrize("params, n, k", [((7, 3), 2, 1), ((7, 3), 4, 2),
                                          ((40, 13), 5, 1), ((40, 13), 13, 4),
                                          ((40, 13), 16, 8)])
def test_block_basis_pursuit_structured_matches_dense(params, n, k):
    N, K = params
    op = _fusion_instance(N, K, n, seed=31)
    rng = np.random.default_rng(32)
    c = np.zeros(N * K, dtype=complex)
    for j in rng.choice(N, size=k, replace=False):
        c[j * K:(j + 1) * K] = _complex_normal(rng, K)
    y = op @ c
    structured = solvers.block_basis_pursuit(op, y, op.block_structure,
                                             solvers.SolverConfig(max_iters=300))
    # the structured solve may stop at a certified, exact minimiser, so the
    # dense oracle, which has no certificate, runs to tighter tolerances
    oracle = solvers.SolverConfig(max_iters=5000, tol_primal=1e-12, tol_dual=1e-12)
    dense = solvers.block_basis_pursuit(op.effective, y, op.block_structure, oracle)
    assert structured.status == dense.status
    assert np.linalg.norm(structured.solution - dense.solution) <= 1e-8 * np.linalg.norm(c)


# ------------------------------------ QR factorization of the blocks vs the SVD oracle

def _count_svd_calls(monkeypatch):
    """Record every call of the blockwise SVD, the fallback of the QR rank test."""
    calls = []
    original = solvers._blockwise_svd

    def counting(blocks, *args):
        calls.append(blocks.shape)
        return original(blocks, *args)

    monkeypatch.setattr(solvers, "_blockwise_svd", counting)
    return calls


def _svd_oracle(op, y, monkeypatch):
    """The projection the batched SVD alone gives: the QR rank test always defers."""
    with monkeypatch.context() as patch:
        patch.setattr(solvers, "_blockwise_qr", lambda *args: None)
        return solvers.AffineProjection(op, y)


def _relative_gap(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.mark.parametrize("complex_valued", [False, True])
@pytest.mark.parametrize("params, n", [((7, 3), 1), ((7, 3), 2), ((7, 3), 3), ((7, 3), 6),
                                       ((40, 13), 1), ((40, 13), 12), ((40, 13), 13),
                                       ((40, 13), 16)])
def test_qr_projection_matches_the_svd_oracle(params, n, complex_valued, monkeypatch):
    N, K = params
    op = _fusion_instance(N, K, n, seed=51, complex_valued=complex_valued)
    rng = np.random.default_rng(52)
    y = op @ _complex_normal(rng, N * K)
    calls = _count_svd_calls(monkeypatch)
    qr = solvers.AffineProjection(op, y)
    assert calls == []
    svd = _svd_oracle(op, y, monkeypatch)
    assert calls == [op.blocks.shape]
    assert qr.rank == svd.rank == N * min(n, K)
    assert _relative_gap(qr._particular, svd._particular) <= 1e-12
    for _ in range(3):
        w = _complex_normal(rng, N * K)
        assert _relative_gap(qr(w), svd(w)) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(params=st.sampled_from([(7, 3), (13, 4), (40, 13)]), n=st.integers(1, 16),
       seed=st.integers(0, 2**32 - 1), complex_valued=st.booleans(),
       scale=st.sampled_from([1e-6, 1.0, 1e6]))
def test_gaussian_blocks_never_need_the_svd(params, n, seed, complex_valued, scale):
    # the rank verdict is scale-free, so Gaussian blocks of any size pass the QR test
    N, K = params
    op = _fusion_instance(N, K, n, seed, complex_valued=complex_valued, scale=scale)
    y = op @ _complex_normal(np.random.default_rng(seed), N * K)
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solvers, "_blockwise_svd", lambda blocks, *args: calls.append(1))
        proj = solvers.AffineProjection(op, y)
    assert calls == [] and proj.rank == N * min(n, K)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("defect, n", [("duplicated column", 3), ("duplicated column", 4),
                                       ("zero column", 3), ("zero column", 4),
                                       ("duplicated row", 2)])
def test_rank_deficient_blocks_take_the_svd_path(defect, n, scale, monkeypatch):
    # n >= K: a repeated or zero column of a leaves the blocks holding it
    # without full column rank; n < K: a repeated row leaves every block
    # without full row rank
    ff = fusion.build_fusion_frame(diffsets.catalog_lookup(7, 3))
    a = scale * solvers.gaussian_measurement_coefficients(n, 7, seed=53)
    if defect == "duplicated column":
        a[:, 4] = a[:, 1]
    elif defect == "zero column":
        a[:, 4] = 0.0
    else:
        a[1] = a[0]
    op = solvers.assemble_fusion_operator(a, ff)
    y = op @ _complex_normal(np.random.default_rng(54), 21)
    calls = _count_svd_calls(monkeypatch)
    proj = solvers.AffineProjection(op, y)
    dense = solvers.AffineProjection(op.effective, y)
    assert calls == [op.blocks.shape]
    assert proj.rank == dense.rank < 7 * min(n, 3)
    w = _complex_normal(np.random.default_rng(55), 21)
    assert _relative_gap(proj(w), dense(w)) <= 1e-12


@pytest.mark.parametrize("complex_valued", [False, True])
@pytest.mark.parametrize("params, n", [((7, 3), 4), ((40, 13), 16)])
def test_qr_path_checks_the_range(params, n, complex_valued, monkeypatch):
    N, K = params
    rng = np.random.default_rng(56)
    calls = _count_svd_calls(monkeypatch)
    # n > K: y can leave the range of the tall blocks, and QR alone says so
    tall = _fusion_instance(N, K, n, seed=57, complex_valued=complex_valued)
    y = tall @ _complex_normal(rng, N * K)
    y[0] += 1.0
    with pytest.raises(FactorizationError):
        solvers.AffineProjection(tall, y)
    # n < K: the wide blocks have full row rank, so every y is met
    wide = _fusion_instance(N, K, K - 1, seed=58, complex_valued=complex_valued)
    y = _complex_normal(rng, wide.shape[0])
    x = solvers.AffineProjection(wide, y)(_complex_normal(rng, N * K))
    assert np.linalg.norm(wide @ x - y) <= 1e-12 * np.linalg.norm(y)
    assert calls == []
