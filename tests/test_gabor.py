import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffgabor import diffsets, gabor, solvers
from diffgabor.errors import InvalidInputError, UnsupportedParametersError


def _ds_frame(N, K):
    ds = diffsets.catalog_lookup(N, K)
    return gabor.build_gabor_frame(gabor.difference_set_generator(ds))


def _dense_normalized_gram(frame):
    cols = frame.columns
    return np.abs(cols.conj().T @ cols) / frame.generator.norm ** 2


def _assert_tf_gram_is_dense_gram(frame):
    """Every entry of the block-circulant array against the dense Gram, returned."""
    N = frame.N
    gram = gabor._tf_gram(frame.generator.values)
    assert gram.shape == (N, N, N)
    dense = _dense_normalized_gram(frame)
    offset = (np.arange(N)[None, :] - np.arange(N)[:, None]) % N  # [j, j'] -> j' - j
    blocks = dense.reshape(N, N, N, N)  # [r, j, q, j']
    assert np.max(np.abs(blocks - gram[:, :, offset].transpose(0, 2, 1, 3))) < 1e-12
    return dense


def _random_window(seed, N, sparse):
    """A nonzero window of random norm.

    With ``sparse``, about half its entries are 0, like the difference-set windows.
    """
    rng = np.random.default_rng(seed)
    g = (rng.standard_normal(N) + 1j * rng.standard_normal(N)) * 10.0 ** rng.uniform(-3, 3)
    if sparse:
        g[rng.random(N) < 0.5] = 0.0
        g[rng.integers(N)] = 1.0
    return g


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), N=st.integers(1, 16), sparse=st.booleans())
def test_tf_gram_matches_dense_gram_random_windows(seed, N, sparse):
    _assert_tf_gram_is_dense_gram(gabor.build_gabor_frame(_random_window(seed, N, sparse)))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), N=st.integers(1, 16), sparse=st.booleans())
def test_ambiguity_is_every_block_of_tf_gram(seed, N, sparse):
    # [r, q, delta] depends only on the offset (q - r, delta): every r reads row q - r
    g = _random_window(seed, N, sparse)
    amb = gabor._ambiguity(g)
    assert amb.shape == (N, N)
    gram = gabor._tf_gram(g)
    tau = np.arange(N)
    for r in range(N):
        assert np.max(np.abs(gram[r, (r + tau) % N] - amb)) < 1e-12
    _assert_tf_gram_is_dense_gram(gabor.build_gabor_frame(g))


@pytest.mark.parametrize("ds", [ds for ds in diffsets.catalog_entries() if ds.N <= 64],
                         ids=lambda ds: f"{ds.N},{ds.params.K}")
def test_tf_gram_matches_dense_gram_catalog(ds):
    frame = gabor.build_gabor_frame(gabor.difference_set_generator(ds))
    dense = _assert_tf_gram_is_dense_gram(frame)
    rep = gabor.mutual_coherence(frame)
    # the reported pair is the first maximum, and the dense Gram agrees there
    i, j = rep.argmax_pair
    assert abs(dense[i, j] - rep.mutual_coherence) < 1e-12
    mu_scan, _ = gabor._coherence_scan(frame.columns)
    assert abs(mu_scan - rep.mutual_coherence) < 1e-12


def _roll_oracle_columns(g):
    """Columns M_j T_k g built one translate at a time with np.roll."""
    N = g.shape[0]
    n = np.arange(N)
    phases = np.exp(2j * np.pi * np.outer(n, n) / N)
    return np.hstack([phases * np.roll(g, k)[:, None] for k in range(N)])


@pytest.mark.parametrize("generator", [
    gabor.alltop_generator(7), gabor.alltop_generator(43), gabor.random_torus_generator(2, 5),
    gabor.difference_set_generator(diffsets.catalog_lookup(43, 21)),
    gabor.Generator(np.array([0.5, -1.0 + 2.0j, 0.0, 3.0j, 0.25, -0.75, 1e-3]))],
    ids=["alltop-7", "alltop-43", "torus-2", "ds-43", "custom-7"])
def test_build_gabor_frame_columns_match_roll_oracle(generator):
    frame = gabor.build_gabor_frame(generator)
    assert frame.columns.flags.c_contiguous
    assert np.array_equal(frame.columns, _roll_oracle_columns(generator.values))


def test_translate_modulate_basics():
    g = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
    assert np.allclose(gabor.translate(g, 1), [4, 1, 2, 3])
    m = gabor.modulate(g, 1)
    w = np.exp(2j * np.pi / 4)
    assert np.allclose(m, g * w ** np.arange(4))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), N=st.integers(1, 16), sparse=st.booleans(),
       j=st.integers(-20, 20), k=st.integers(-20, 20))
def test_commutation_relation(seed, N, sparse, j, k):
    # M_j T_k = w^{jk} T_k M_j with w = exp(2 pi i / N)
    g = _random_window(seed, N, sparse)
    lhs = gabor.modulate(gabor.translate(g, k), j)
    rhs = np.exp(2j * np.pi * j * k / N) * gabor.translate(gabor.modulate(g, j), k)
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(g)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), N=st.integers(1, 16), sparse=st.booleans())
def test_tightness_random_windows(seed, N, sparse):
    # N-tightness: Phi Phi* = N ||g||^2 I for every nonzero window
    frame = gabor.build_gabor_frame(_random_window(seed, N, sparse))
    assert frame.frame_bound == pytest.approx(N * np.vdot(frame.generator.values,
                                                          frame.generator.values).real)
    assert frame.tightness_error <= 1e-12 * frame.frame_bound


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), N=st.integers(1, 16), sparse=st.booleans())
def test_affine_projection_gabor_frame_matches_svd_path(seed, N, sparse):
    # the solvers read a GaborFrame's SVD in closed form from frame_bound, by
    # N-tightness; the SVD of the same columns is the reference for every
    # read of the projection: the projection, its null part, the
    # pseudoinverse of A^H, the rank and the singular value bounds
    frame = gabor.build_gabor_frame(_random_window(seed, N, sparse))
    rng = np.random.default_rng(seed + 1)
    y = frame.columns @ (rng.standard_normal(N * N) + 1j * rng.standard_normal(N * N))
    w = rng.standard_normal(N * N) + 1j * rng.standard_normal(N * N)
    closed = solvers.AffineProjection(frame, y)
    factored = solvers.AffineProjection(frame.columns, y)
    assert not closed.uses_factorization and factored.uses_factorization

    def assert_close(a, b, scale=None):
        assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b if scale is None else scale)

    assert_close(closed(w), factored(w))
    # relative to w: at N = 1, A has full column rank and P w is 0
    assert_close(closed.null_part(w, np.empty_like(w)), factored.null_part(w, np.empty_like(w)),
                 w)
    assert_close(closed.row_preimage(w), factored.row_preimage(w))
    assert closed.rank == factored.rank == N
    assert_close(np.array(closed._sigma), np.array(factored._sigma))


def test_frame_layout_and_indexing():
    frame = _ds_frame(7, 3)
    assert frame.columns.shape == (7, 49)
    for k, j in [(0, 0), (3, 2), (6, 6)]:
        col = frame.columns[:, frame.column_index(k, j)]
        direct = gabor.modulate(gabor.translate(frame.generator.values, k), j)
        assert np.allclose(col, direct)
    assert frame.column_index(2, 5) == 2 * 7 + 5
    assert frame.block(4).shape == (7, 7)
    assert np.allclose(frame.block(4), frame.columns[:, 28:35])


def test_frame_columns_unit_norm():
    frame = _ds_frame(13, 4)
    norms = np.linalg.norm(frame.columns, axis=0)
    assert np.allclose(norms, 1.0, atol=1e-12)


@pytest.mark.parametrize("N,K", [(7, 3), (13, 4), (11, 5)])
def test_tightness(N, K):
    frame = _ds_frame(N, K)
    assert "tightness_error" not in vars(frame)  # Phi Phi* is formed only when read
    assert frame.tightness_error < 1e-10


def test_alltop_generator():
    g = gabor.alltop_generator(7)
    assert np.allclose(np.abs(g.values), 1 / np.sqrt(7))
    frame = gabor.build_gabor_frame(g)
    assert frame.tightness_error < 1e-10
    rep = gabor.mutual_coherence(frame)
    # Alltop frames meet coherence 1/sqrt(N) exactly
    assert abs(rep.mutual_coherence - 1 / np.sqrt(7)) < 1e-12


@pytest.mark.parametrize("N", [4, 3, 9])
def test_alltop_rejects_bad_length(N):
    with pytest.raises(UnsupportedParametersError):
        gabor.alltop_generator(N)


def test_random_torus_generator_seeded():
    a = gabor.random_torus_generator(11, seed=5)
    b = gabor.random_torus_generator(11, seed=5)
    c = gabor.random_torus_generator(11, seed=6)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert np.allclose(np.abs(a.values), 1 / np.sqrt(11))
    with pytest.raises(InvalidInputError, match="seed=-1"):
        gabor.random_torus_generator(11, seed=-1)


def test_welch_bound():
    assert gabor.welch_bound(49, 7) == pytest.approx(np.sqrt(42 / (7 * 48)))
    assert gabor.welch_bound(5, 5) == 0.0
    with pytest.raises(InvalidInputError):
        gabor.welch_bound(4, 5)


def test_predicted_coherence_lambda_one():
    p = diffsets.DifferenceSetParams(7, 3, 1)
    assert gabor.predicted_coherence(p) == pytest.approx(np.sqrt(4 / 18))


def test_predicted_coherence_lambda_many():
    # (11,5,2): (K-1)/(N-1) = 0.4 beats sqrt((N-K)/(K(N-1))) = sqrt(6/50)
    p = diffsets.DifferenceSetParams(11, 5, 2)
    assert gabor.predicted_coherence(p) == pytest.approx(0.4)


@pytest.mark.parametrize("N,K", [(7, 3), (13, 4), (11, 5), (15, 7)])
def test_measured_coherence_matches_prediction(N, K):
    frame = _ds_frame(N, K)
    rep = gabor.mutual_coherence(frame)
    assert abs(rep.mutual_coherence - rep.predicted) < 1e-10
    assert rep.mutual_coherence > rep.welch_bound  # never an ETF for N > 3


@st.composite
def _catalog_images(draw):
    """A catalog set S, a shift t and a unit u of Z_N, for S + t and uS."""
    ds = draw(st.sampled_from(diffsets.catalog_entries()))
    t = draw(st.integers(0, ds.N - 1))
    u = draw(st.integers(1, ds.N - 1).filter(lambda u: math.gcd(u, ds.N) == 1))
    return ds, t, u


@settings(max_examples=60, deadline=None)
@given(case=_catalog_images())
def test_catalog_invariance_under_translation_and_multipliers(case):
    # the difference counts of uS + t are those of S, permuted by d -> ud
    ds, t, u = case
    N, lam = ds.N, ds.params.lam
    for image in ({(e + t) % N for e in ds.elements}, {u * e % N for e in ds.elements}):
        rep = diffsets.verify_difference_set(N, image)
        assert rep.is_difference_set and rep.inferred_lambda == lam and rep.params_ok
        frame = gabor.build_gabor_frame(
            gabor.difference_set_generator(diffsets.make_difference_set(N, image)))
        measured = gabor.mutual_coherence(frame).mutual_coherence
        assert abs(measured - gabor.predicted_coherence(ds.params)) <= 1e-10


def test_coherence_block_split():
    frame = _ds_frame(7, 3)
    rep = gabor.mutual_coherence(frame)
    assert rep.diagonal_block_offdiag_value == pytest.approx(np.sqrt(4 / 18), abs=1e-10)
    assert rep.offdiag_block_max == pytest.approx(1 / 3, abs=1e-10)
    i, j = rep.argmax_pair
    assert 0 <= i < j < 49
    # the first maximum in (tau, delta) order: an off-block 1/3 loses to the
    # within-block sqrt(4/18) = 0.471 at tau = 0, delta = 1
    assert (i, j) == (0, 1)


@pytest.mark.parametrize("ds", [ds for ds in diffsets.catalog_entries() if ds.N <= 64],
                         ids=lambda ds: f"{ds.N},{ds.params.K}")
def test_coherence_split_is_the_block_profile(ds):
    # the report reads both maxima from one ambiguity function: the within-block
    # value from row tau = 0, the off-block maximum from the rows tau != 0.  The
    # profile checks every block of _tf_gram on its own, so it agrees up to rounding
    frame = gabor.build_gabor_frame(gabor.difference_set_generator(ds))
    rep = gabor.mutual_coherence(frame)
    amb = gabor._ambiguity(frame.generator.values)
    assert rep.diagonal_block_offdiag_value == np.max(amb[0, 1:])
    assert rep.offdiag_block_max == np.max(amb[1:, :])
    prof = gabor.block_coherence_profile(frame)
    assert abs(rep.diagonal_block_offdiag_value
               - np.max(prof.within_block_offdiag_max)) <= gabor._TIE_TOL
    assert abs(rep.offdiag_block_max - prof.offdiag_block_max) <= gabor._TIE_TOL


def _first_maximum_3d(gram):
    """The coherence rule on the whole (N, N, N) _tf_gram array, as a test oracle.

    mu is the largest entry off the column norms [r, r, 0]; the pair is the
    first (r, q, delta) within _TIE_TOL of mu, as columns (r N, q N + delta).
    Also returns the largest off-diagonal entry of any B_k* B_k and the
    largest entry of any B_r* B_q with r != q.
    """
    N = gram.shape[0]
    k = np.arange(N)
    masked = gram.copy()
    masked[k, k, 0] = -1.0
    mu = float(masked.max())
    r, q, delta = np.unravel_index(int(np.argmax(masked >= mu - gabor._TIE_TOL)), masked.shape)
    within = float(gram[k, k, 1:].max())
    cross = float(gram[~np.eye(N, dtype=bool)].max())
    return mu, (int(r) * N, int(q) * N + int(delta)), within, cross


_TIE_RULE_GENERATORS = (
    [gabor.difference_set_generator(ds) for ds in diffsets.catalog_entries() if ds.N <= 64]
    + [gabor.alltop_generator(p) for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)]
    + [gabor.random_torus_generator(N, seed) for N in range(2, 42) for seed in (N, 1000 + N)])


@pytest.mark.parametrize("generator", _TIE_RULE_GENERATORS,
                         ids=lambda g: f"{g.kind}-{g.values.shape[0]}")
def test_ambiguity_tie_rule_matches_the_3d_rule(generator):
    frame = gabor.build_gabor_frame(generator)
    rep = gabor.mutual_coherence(frame)
    mu, pair, within, cross = _first_maximum_3d(gabor._tf_gram(generator.values))
    assert rep.argmax_pair == pair
    assert abs(rep.mutual_coherence - mu) <= gabor._TIE_TOL
    if generator.kind == "difference_set":
        assert abs(rep.diagonal_block_offdiag_value - within) <= gabor._TIE_TOL
        assert abs(rep.offdiag_block_max - cross) <= gabor._TIE_TOL
    else:
        assert rep.diagonal_block_offdiag_value is None and rep.offdiag_block_max is None


def test_coherence_of_the_smallest_windows():
    # N = 1 has one column and no coherence; at N = 2 the four columns of
    # g = (1, 0) hold one pair at magnitude 1, of g = (1, i/2) one at 0.8
    with pytest.raises(InvalidInputError, match="at least two columns"):
        gabor.mutual_coherence(gabor.build_gabor_frame([1.0]))
    for g, mu, pair in (([1.0, 0.0], 1.0, (0, 1)), ([1.0, 0.5j], 0.8, (0, 3))):
        frame = gabor.build_gabor_frame(g)
        rep = gabor.mutual_coherence(frame)
        assert rep.mutual_coherence == pytest.approx(mu, abs=1e-15)
        assert rep.argmax_pair == pair
        assert rep.welch_bound == pytest.approx(np.sqrt(1 / 3))
        check = gabor.is_etf(frame)
        assert not check.is_etf and check.coherence == rep.mutual_coherence
        assert check.equiangularity_spread == pytest.approx(mu, abs=1e-15)


def test_coherence_plain_matrix_input():
    frame = _ds_frame(7, 3)
    rep = gabor.mutual_coherence(frame.columns)
    assert rep.predicted is None
    assert abs(rep.mutual_coherence - np.sqrt(4 / 18)) < 1e-10


def test_block_profile_values():
    frame = _ds_frame(13, 4)
    prof = gabor.block_coherence_profile(frame)
    expected = np.sqrt((13 - 4) / (4 * 12))
    assert prof.within_block_expected == pytest.approx(expected)
    assert np.allclose(prof.within_block_offdiag_max, expected, atol=1e-10)
    assert np.allclose(prof.within_block_offdiag_min, expected, atol=1e-10)
    assert prof.offdiag_block_max == pytest.approx(1 / 4, abs=1e-10)
    assert prof.offdiag_block_min == pytest.approx(1 / 4, abs=1e-10)
    assert prof.diag_unit_error < 1e-12
    assert np.max(prof.block_tightness_errors) < 1e-10


def test_block_profile_lambda_bound():
    frame = _ds_frame(11, 5)
    prof = gabor.block_coherence_profile(frame)
    # off-diagonal blocks carry magnitudes <= lambda/K, met with equality somewhere
    assert prof.offdiag_block_max <= prof.offdiag_block_expected + 1e-10
    assert prof.offdiag_block_max == pytest.approx(2 / 5, abs=1e-10)


def test_block_profile_beyond_dense_scale():
    # (101,25,6): N^2 = 10201 columns, no dense Gram is built
    prof = gabor.block_coherence_profile(_ds_frame(101, 25))
    assert np.allclose(prof.within_block_offdiag_max, prof.within_block_expected, atol=1e-10)
    assert np.allclose(prof.within_block_offdiag_min, prof.within_block_expected, atol=1e-10)
    assert prof.offdiag_block_max == pytest.approx(6 / 25, abs=1e-10)
    assert np.max(prof.block_tightness_errors) < 1e-9


def test_block_profile_needs_difference_set():
    frame = gabor.build_gabor_frame(gabor.alltop_generator(7))
    with pytest.raises(UnsupportedParametersError):
        gabor.block_coherence_profile(frame)


def test_is_etf_three_dim_exception():
    frame = _ds_frame(3, 2)
    check = gabor.is_etf(frame)
    assert check.is_etf
    assert check.coherence == pytest.approx(0.5, abs=1e-12)
    assert check.coherence == pytest.approx(check.welch_bound_value, abs=1e-12)


@pytest.mark.parametrize("frame", [gabor.build_gabor_frame([1.0]), np.ones((3, 1)),
                                   np.ones((2, 0))], ids=["gabor1", "column", "empty"])
def test_is_etf_needs_two_columns(frame):
    # one column has no pair to be equiangular, as for mutual_coherence
    with pytest.raises(InvalidInputError, match="at least two columns"):
        gabor.is_etf(frame)


def test_is_etf_rejects_larger_sets():
    for N, K in [(7, 3), (13, 4)]:
        assert not gabor.is_etf(_ds_frame(N, K)).is_etf


@pytest.mark.parametrize("frame", [_ds_frame(3, 2), _ds_frame(7, 3),
                                   gabor.build_gabor_frame(gabor.alltop_generator(7)),
                                   gabor.build_gabor_frame(gabor.random_torus_generator(5, 2))],
                         ids=["ds3", "ds7", "alltop7", "torus5"])
def test_is_etf_gabor_path_matches_dense_path(frame):
    fast, dense = gabor.is_etf(frame), gabor.is_etf(frame.columns)
    assert fast.is_etf == dense.is_etf
    assert fast.coherence == pytest.approx(dense.coherence, abs=1e-12)
    assert fast.equiangularity_spread == pytest.approx(dense.equiangularity_spread, abs=1e-12)
    assert fast.tightness_error == dense.tightness_error


def test_family_table_rows():
    rows = gabor.family_table_rows(quadratic=[11], quartic=[37], singer=[(2, 2)])
    by_family = {r["family"]: r for r in rows}
    q = by_family["quadratic"]
    assert (q["N"], q["K"], q["lambda"]) == (11, 5, 2)
    assert q["mu_squared"] == pytest.approx((11 - 3) ** 2 / (4 * (11 - 1) ** 2))
    assert q["welch_squared"] == pytest.approx(1 / 12)
    assert q["measured_mu_squared"] == pytest.approx(q["mu_squared"], abs=1e-10)

    s = by_family["singer d=2"]
    assert (s["N"], s["K"]) == (7, 3)
    assert s["mu_squared"] == pytest.approx(2 / 9)

    f = by_family["quartic"]
    assert (f["N"], f["K"], f["lambda"]) == (37, 9, 2)
    assert f["mu_squared"] == pytest.approx((3 * 37 + 1) / (37 - 1) ** 2)


def test_family_table_measure_limit():
    rows = gabor.family_table_rows(quadratic=[11], measure_limit=7)
    assert rows[0]["measured_mu_squared"] is None
