import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffgabor import diffsets
from diffgabor.errors import (CatalogError, ConfigurationError, InvalidInputError,
                              UnsupportedParametersError)


def test_params_accepts_valid_triples():
    p = diffsets.DifferenceSetParams(7, 3, 1)
    assert (p.N, p.K, p.lam) == (7, 3, 1)
    # lambda = K is legal (the full-multiplicity edge case)
    diffsets.DifferenceSetParams(2, 2, 2)


@pytest.mark.parametrize("triple", [
    (1, 1, 1),      # modulus too small
    (7, 0, 1),      # empty set
    (7, 8, 1),      # K > N
    (7, 3, 2),      # counting identity violated
    (7, 3, 0),      # lambda must be positive
])
def test_params_rejects_bad_triples(triple):
    with pytest.raises(InvalidInputError):
        diffsets.DifferenceSetParams(*triple)


def test_difference_counts_singer_7():
    counts = diffsets.difference_counts(7, [1, 2, 4])
    assert counts == {d: 1 for d in range(1, 7)}


def test_difference_counts_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        diffsets.difference_counts(7, [1, 1, 2])
    with pytest.raises(InvalidInputError):
        diffsets.difference_counts(7, [0, 9])


def test_verify_difference_set_positive():
    rep = diffsets.verify_difference_set(7, [1, 2, 4])
    assert rep.is_difference_set
    assert rep.inferred_lambda == 1
    assert rep.params_ok is True


def test_verify_difference_set_negative():
    rep = diffsets.verify_difference_set(7, [0, 1, 2])
    assert not rep.is_difference_set
    assert rep.inferred_lambda is None
    assert rep.params_ok is None
    # an interval has unbalanced difference counts
    assert rep.difference_counts[1] == 2
    assert rep.difference_counts[3] == 0


@st.composite
def _subsets(draw):
    N = draw(st.integers(2, 24))
    return N, draw(st.sets(st.integers(0, N - 1), max_size=N))


@settings(max_examples=200, deadline=None)
@given(case=_subsets())
def test_verify_difference_set_matches_brute_force(case):
    # the oracle counts, for each d, the elements a whose a - d is also in S
    N, subset = case
    brute = {d: sum((a - d) % N in subset for a in subset) for d in range(1, N)}
    rep = diffsets.verify_difference_set(N, subset)
    assert rep.difference_counts == brute
    counts = set(brute.values())
    assert rep.is_difference_set == (len(counts) == 1 and counts != {0})
    if rep.is_difference_set:
        assert rep.inferred_lambda == brute[1]
        assert rep.params_ok is True
    else:
        assert rep.inferred_lambda is None and rep.params_ok is None


def test_verify_degenerate_full_multiplicity():
    # {0,1} mod 2: the single nonzero difference occurs twice, so lambda = 2;
    # K(K-1) = 2 = lam(N-1) and lam = K, which the counting rules allow.
    rep = diffsets.verify_difference_set(2, [0, 1])
    assert rep.is_difference_set
    assert rep.inferred_lambda == 2
    assert rep.params_ok is True


@pytest.mark.parametrize("N,K,lam", [
    (7, 3, 1), (11, 5, 2), (13, 4, 1), (16, 6, 2), (40, 13, 4), (43, 21, 10),
])
def test_derive_params_hits(N, K, lam):
    p = diffsets.derive_params(N, K)
    assert p is not None and p.lam == lam


@pytest.mark.parametrize("N,K", [(6, 3), (10, 4), (12, 5)])
def test_derive_params_misses(N, K):
    assert diffsets.derive_params(N, K) is None


def test_make_difference_set_roundtrip():
    ds = diffsets.make_difference_set(13, [0, 1, 3, 9])
    assert ds.elements == (0, 1, 3, 9)
    assert ds.params.lam == 1
    with pytest.raises(InvalidInputError):
        diffsets.make_difference_set(13, [0, 1, 2, 3])


def test_quadratic_residue_set():
    ds = diffsets.quadratic_residue_set(11)
    assert ds.elements == (1, 3, 4, 5, 9)
    assert ds.params.K == 5 and ds.params.lam == 2
    ds = diffsets.quadratic_residue_set(43)
    assert ds.params.K == 21 and ds.params.lam == 10


@pytest.mark.parametrize("q", [3, 9, 13, 15])
def test_quadratic_residue_set_rejects(q):
    with pytest.raises(UnsupportedParametersError):
        diffsets.quadratic_residue_set(q)


def test_search_finds_fano():
    res = diffsets.exhaustive_search(7, 3)
    assert res.status == diffsets.SEARCH_FOUND
    assert res.result.elements == (0, 1, 3)
    assert res.nodes == 3


def test_search_finds_13_4():
    res = diffsets.exhaustive_search(13, 4, lam=1)
    assert res.status == diffsets.SEARCH_FOUND
    assert res.result.elements == (0, 1, 3, 9)
    assert res.nodes == 9


def test_search_finds_21_5():
    res = diffsets.exhaustive_search(21, 5)
    assert res.status == diffsets.SEARCH_FOUND
    assert res.result.elements == (0, 1, 4, 14, 16)
    assert res.nodes == 147


def test_search_proves_nonexistence():
    # (16,6,2) and (22,7,2) satisfy the counting identity yet have no set
    res = diffsets.exhaustive_search(16, 6)
    assert res.status == diffsets.SEARCH_NONEXISTENT
    assert res.nodes == 3317
    res = diffsets.exhaustive_search(22, 7)
    assert res.status == diffsets.SEARCH_NONEXISTENT
    assert res.nodes == 31700


def test_search_infeasible_params_without_lambda():
    res = diffsets.exhaustive_search(10, 4)
    assert res.status == diffsets.SEARCH_NONEXISTENT
    assert res.nodes == 0 and res.result is None


@pytest.mark.parametrize("lam", [0, -1])
def test_search_rejects_lambda_below_one(lam):
    # a lambda below 1 is bad input, not a proof that no set exists
    with pytest.raises(InvalidInputError, match=f"lam={lam}"):
        diffsets.exhaustive_search(7, 3, lam=lam)


def test_search_budget_exhaustion():
    res = diffsets.exhaustive_search(16, 6, budget=100)
    assert res.status == diffsets.SEARCH_BUDGET_EXHAUSTED
    assert res.result is None
    assert res.nodes <= 100 + 16  # stops within one candidate of the cap


def test_search_determinism():
    a = diffsets.exhaustive_search(16, 6)
    b = diffsets.exhaustive_search(16, 6)
    assert (a.status, a.nodes) == (b.status, b.nodes)


def test_catalog_loads_and_verifies():
    entries = diffsets.catalog_entries()
    assert len(entries) >= 13
    triples = {(d.N, d.params.K, d.params.lam) for d in entries}
    for want in [(7, 3, 1), (13, 4, 1), (40, 13, 4), (43, 21, 10), (101, 25, 6)]:
        assert want in triples
    for ds in entries:
        assert diffsets.verify_difference_set(ds.N, ds.elements).is_difference_set


def test_catalog_lookup():
    ds = diffsets.catalog_lookup(43, 21)
    assert ds is not None and ds.params.lam == 10
    assert diffsets.catalog_lookup(6, 3) is None
    assert diffsets.catalog_lookup(97, 10) is None
    assert diffsets.require_catalog_set(43, 21) is ds
    for N, K in [(6, 3), (97, 10)]:
        with pytest.raises(ConfigurationError, match=rf"no catalog difference set for \({N}, {K}\)"):
            diffsets.require_catalog_set(N, K)


def test_catalog_rejects_corruption(tmp_path):
    bad = tmp_path / "catalog.txt"
    bad.write_text("7 3 1 : 0,1,2\n")  # not a difference set
    with pytest.raises(CatalogError):
        diffsets.load_catalog(str(bad))
    bad.write_text("# comment\n\n7 3 1 : 0,1,3\n13 4 1 : 0,1,3\n")  # K=4, three elements
    with pytest.raises(CatalogError, match="catalog.txt:4: element count"):
        diffsets.load_catalog(str(bad))
    # a residue the subset check rejects is still reported by its line
    for line in ("7 3 1 : 0,1,1", "7 3 1 : 0,1,9"):
        bad.write_text(f"7 3 1 : 0,1,3\n{line}\n")
        with pytest.raises(CatalogError, match="catalog.txt:2: "):
            diffsets.load_catalog(str(bad))


def test_catalog_verifies_each_entry_once(monkeypatch, tmp_path):
    calls = []
    verify = diffsets.verify_difference_set
    monkeypatch.setattr(diffsets, "verify_difference_set",
                        lambda N, subset: calls.append(N) or verify(N, subset))
    path = tmp_path / "catalog.txt"
    path.write_text("7 3 1 : 0,1,3\n13 4 1 : 0,1,3,9\n")
    entries = diffsets.load_catalog(str(path))
    assert calls == [7, 13]
    assert entries[(13, 4)] == diffsets.make_difference_set(13, [0, 1, 3, 9])


def test_normalized_generator_and_spectrum():
    ds = diffsets.catalog_lookup(7, 3)
    v = diffsets.normalized_generator(ds)
    assert v.shape == (7,)
    assert np.isclose(np.linalg.norm(v), 1.0)
    assert np.allclose(sorted(np.abs(v))[-3:], 1 / np.sqrt(3))

    mags = diffsets.dft_magnitudes(ds)
    assert np.isclose(mags[0], ds.params.K)
    # flat spectrum away from DC: |chi_hat(j)|^2 = K - lambda
    assert np.allclose(mags[1:] ** 2, ds.params.K - ds.params.lam, atol=1e-12)


def test_dft_magnitudes_quadratic():
    ds = diffsets.quadratic_residue_set(19)
    mags2 = diffsets.dft_magnitudes(ds) ** 2
    assert np.allclose(mags2[1:], ds.params.K - ds.params.lam, atol=1e-10)
