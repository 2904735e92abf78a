import numpy as np
import pytest

from diffgabor import diffsets, fusion
from diffgabor.errors import InvalidInputError


def _ff(N, K):
    return fusion.build_fusion_frame(diffsets.catalog_lookup(N, K))


def _non_difference_set():
    # {0, 1, 3} is a (7,3,1) set, {0, 1, 2} is not: overlaps 2, 1 and 0 occur
    return diffsets.DifferenceSet(7, (0, 1, 2), diffsets.DifferenceSetParams(7, 3, 1))


def test_subspaces_are_cyclic_shifts():
    ff = _ff(7, 3)
    assert ff.N == 7 and ff.K == 3
    assert ff.supports.shape == (7, 3) and ff.supports.dtype.kind == "i"
    base = set(ff.diffset.elements)
    for i, row in enumerate(ff.supports.tolist()):
        assert row == sorted({(e + i) % 7 for e in base})
    with pytest.raises(ValueError):
        ff.supports[0, 0] = 5  # shared by every operator on the frame
    with pytest.raises(AttributeError):  # frozen: the cached tables cannot go stale
        ff.diffset = _non_difference_set()


@pytest.mark.parametrize("ds", [*diffsets.catalog_entries(),
                                pytest.param(_non_difference_set(), id="7,not-a-difference-set")],
                         ids=lambda ds: f"{ds.N},{ds.params.K}")
def test_owners_invert_supports(ds):
    ff = fusion.build_fusion_frame(ds)
    N, K = ds.N, ds.params.K
    assert ff.owners.shape == (N, K)
    flat = ff.supports.reshape(-1)
    for m in range(N):
        assert np.all(flat[ff.owners[m]] == m)
        assert np.all(np.diff(ff.owners[m]) > 0)
    assert sorted(ff.owners.reshape(-1).tolist()) == list(range(N * K))
    with pytest.raises(ValueError):
        ff.owners[0, 0] = 5


def test_projection_matrices():
    ff = _ff(7, 3)
    P2 = ff.projection_matrix(2)
    assert P2.shape == (7, 7)
    assert np.array_equal(P2, P2.T)
    assert np.array_equal(P2 @ P2, P2)
    assert np.trace(P2) == 3


def test_projection_sum_is_k_identity():
    for N, K in [(7, 3), (13, 4), (40, 13)]:
        ff = _ff(N, K)
        diag = ff.projection_sum_diagonal()
        assert all(v == K for v in diag)
        # off-diagonal part vanishes identically: projections are diagonal
        total = sum(ff.projection_matrix(i) for i in range(N))
        assert np.array_equal(total, K * np.eye(N))


def test_tight_bound():
    lo, hi = fusion.fusion_frame_bounds(_ff(13, 4))
    assert lo == hi == 4.0


def test_chordal_distance_exact():
    ff = _ff(7, 3)
    d = fusion.chordal_distance(ff.supports[0], ff.supports[1])
    assert d == pytest.approx(np.sqrt(2))
    with pytest.raises(InvalidInputError, match="3 != 2"):
        fusion.chordal_distance(ff.supports[0], [0, 1])


@pytest.mark.parametrize("ds", diffsets.catalog_entries(), ids=lambda ds: f"{ds.N},{ds.params.K}")
def test_overlap_circulant_matches_set_intersections(ds):
    ff = fusion.build_fusion_frame(ds)
    O = fusion.overlap_circulant(ff)
    assert O.shape == (ds.N, ds.N) and O.dtype.kind == "i"
    # brute force: each translate as a set, straight from the difference set
    subspaces = [{(e + i) % ds.N for e in ds.elements} for i in range(ds.N)]
    brute = [[len(Wa & Wb) for Wb in subspaces] for Wa in subspaces]
    assert O.tolist() == brute
    # distances read from the same overlaps as the pairwise chordal distance
    D = fusion.chordal_distance_matrix(ff)
    for a, b in [(0, 1), (1, 0), (ds.N - 1, 0), (2 % ds.N, ds.N - 1)]:
        if a != b:
            assert D[a, b] == fusion.chordal_distance(ff.supports[a], ff.supports[b])


def test_equidistance_check_detects_unequal_overlaps():
    equi, dc2 = fusion.equidistance_check(fusion.build_fusion_frame(_non_difference_set()))
    assert not equi and dc2 is None


def test_chordal_distance_matrix():
    ff = _ff(13, 4)
    D = fusion.chordal_distance_matrix(ff)
    assert D.shape == (13, 13)
    assert np.allclose(np.diag(D), 0.0)
    off = D[~np.eye(13, dtype=bool)]
    assert np.allclose(off, np.sqrt(3))


def test_simplex_bound_value():
    # m(N-m)M/(N(M-1)) with m=K and M=N subspaces
    assert fusion.simplex_bound(3, 7, 7) == pytest.approx(3 * 4 * 7 / (7 * 6))
    assert fusion.simplex_bound(13, 40, 40) == pytest.approx(13 * 27 * 40 / (40 * 39))


@pytest.mark.parametrize("N,K", [(7, 3), (11, 5), (40, 13), (43, 21)])
def test_equidistance_meets_simplex_bound(N, K):
    ff = _ff(N, K)
    lam = ff.diffset.params.lam
    equi, dc2 = fusion.equidistance_check(ff)
    assert equi
    assert dc2 == K - lam  # integer identity
    assert dc2 == pytest.approx(K * (N - K) / (N - 1), abs=1e-12)
    assert dc2 == pytest.approx(fusion.simplex_bound(K, N, N), abs=1e-12)


def test_sparsity_count():
    ff = _ff(7, 3)
    total, bases = fusion.sparsity_count(ff)
    assert total == 21
    assert len(bases) == 7
    assert list(bases[0]) == sorted(ff.diffset.elements)
    assert list(bases[3]) == sorted((e + 3) % 7 for e in ff.diffset.elements)


def test_projection_product_norms():
    ff = _ff(7, 3)
    for a in range(7):
        for b in range(a + 1, 7):
            assert fusion.projection_product_norm(ff, a, b) == 1.0
    with pytest.raises(InvalidInputError):
        fusion.projection_product_norm(ff, 2, 2)
    assert fusion.support_product_norm(frozenset({0, 1}), frozenset({2})) == 0.0


def test_fusion_report_closed_forms():
    ff = _ff(40, 13)
    rep = fusion.fusion_report(ff)
    assert rep.tight_bound == 13.0
    assert rep.dc_squared == 9.0
    assert rep.simplex_bound == pytest.approx(9.0)
    assert rep.equidistant and rep.optimal_packing
    assert rep.sparsity == 13 * 40
    assert rep.chordal_distances.shape == (40, 40)
