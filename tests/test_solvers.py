import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffgabor import diffsets, fusion, gabor, solvers
from diffgabor.errors import FactorizationError, InvalidInputError


def _frame(N=7, K=3):
    ds = diffsets.catalog_lookup(N, K)
    return gabor.build_gabor_frame(gabor.difference_set_generator(ds))


def test_solver_config_validation():
    cfg = solvers.SolverConfig()
    assert cfg.rho > 0 and cfg.max_iters >= 1
    for bad in [dict(rho=0.0), dict(max_iters=0), dict(tol_primal=-1e-9), dict(tol_dual=0.0),
                dict(rho=float("nan")), dict(rho=float("inf")),
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
    proj = solvers.affine_projection(A, y)
    assert proj.scalar and not proj.uses_factorization
    w = np.random.default_rng(0).standard_normal(49)
    x = proj(w)
    assert np.linalg.norm(A @ x - y) < 1e-10


def test_affine_projection_general_path():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((3, 8))
    y = A @ rng.standard_normal(8)
    proj = solvers.affine_projection(A, y)
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
    proj = solvers.affine_projection(A, y)
    assert proj.rank == 2
    assert np.linalg.norm(A @ proj(np.zeros(5)) - y) < 1e-9


def test_affine_projection_inconsistent_raises():
    rng = np.random.default_rng(4)
    B = rng.standard_normal((2, 5))
    A = np.vstack([B, B[0]])
    y = np.array([0.0, 0.0, 1.0])  # contradicts the duplicated row
    with pytest.raises(FactorizationError):
        solvers.affine_projection(A, y)


def test_basis_pursuit_recovers_sparse_vector():
    frame = _frame()
    A = frame.columns
    x = np.zeros(49, dtype=complex)
    x[[7, 30]] = [1.5 - 0.5j, -2.0 + 1.0j]
    res = solvers.basis_pursuit(A, A @ x)
    assert res.status == solvers.STATUS_CONVERGED
    assert np.linalg.norm(res.solution - x) / np.linalg.norm(x) < 1e-6
    assert res.objective == pytest.approx(np.abs(x).sum(), rel=1e-6)


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


def test_solve_result_history():
    frame = _frame()
    x = np.zeros(49, dtype=complex)
    x[3] = 1.0
    res = solvers.basis_pursuit(frame.columns, frame.columns @ x)
    assert res.residual_history.shape == (res.iterations, 2)
    assert res.residual_history[-1, 0] == pytest.approx(res.primal_residual)
    assert res.residual_history[-1, 1] == pytest.approx(res.dual_residual)


def test_max_iters_status():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((4, 12))
    y = A @ rng.standard_normal(12)
    cfg = solvers.SolverConfig(max_iters=3)
    res = solvers.basis_pursuit(A, y, cfg)
    assert res.status == solvers.STATUS_MAX_ITERS
    assert res.iterations == 3


def test_block_basis_pursuit_dimension_check():
    frame = _frame()
    with pytest.raises(InvalidInputError):
        solvers.block_basis_pursuit(
            frame.columns, np.zeros(7), solvers.BlockStructure(7, 3)
        )


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

def _fusion_instance(N, K, n, seed):
    ff = fusion.build_fusion_frame(diffsets.catalog_lookup(N, K))
    a = solvers.gaussian_measurement_coefficients(n, N, seed=seed)
    return solvers.assemble_fusion_operator(a, ff)


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
    cfg = solvers.SolverConfig(max_iters=300)
    structured = solvers.block_basis_pursuit(op, y, op.block_structure, cfg)
    dense = solvers.block_basis_pursuit(op.effective, y, op.block_structure, cfg)
    assert structured.status == dense.status
    assert np.linalg.norm(structured.solution - dense.solution) <= 1e-8 * np.linalg.norm(c)
