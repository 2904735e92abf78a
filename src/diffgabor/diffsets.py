"""Difference sets in Z_N: verification, constructions, search, and catalog.

A subset S of Z_N with |S| = K is an (N,K,lambda) difference set when every
nonzero residue d arises as (a - b) mod N for exactly lambda ordered pairs
a != b in S.  All counting here is exact integer arithmetic; the DFT identity
|chi_hat(j)|^2 = K - lambda (j != 0) is the only floating-point statement.
"""

from dataclasses import dataclass
from importlib import resources
from typing import Optional

import numpy as np

from .errors import CatalogError, ConfigurationError, InvalidInputError, UnsupportedParametersError

DEFAULT_SEARCH_BUDGET = 5_000_000
# largest modulus verify_difference_set accepts: its report holds all N - 1
# difference counts, about 20 MB as the CLI's JSON at this N
VERIFY_MODULUS_LIMIT = 10 ** 6

SEARCH_FOUND = "found"
SEARCH_BUDGET_EXHAUSTED = "budget-exhausted"
SEARCH_NONEXISTENT = "proven-nonexistent"


@dataclass(frozen=True)
class DifferenceSetParams:
    """Certified (N, K, lambda) parameter triple.

    Construction enforces the counting identity K(K-1) = lambda(N-1) and
    lambda <= K; triples violating either are rejected outright.
    """

    N: int
    K: int
    lam: int

    def __post_init__(self):
        if self.N < 2:
            raise InvalidInputError(f"modulus N={self.N} must be >= 2")
        if not 1 <= self.K <= self.N:
            raise InvalidInputError(f"set size K={self.K} out of range for N={self.N}")
        if self.lam < 1:
            raise InvalidInputError(f"lambda={self.lam} must be a positive integer")
        if self.K * (self.K - 1) != self.lam * (self.N - 1):
            raise InvalidInputError(
                f"K(K-1) = {self.K * (self.K - 1)} != lambda(N-1) = "
                f"{self.lam * (self.N - 1)} for (N,K,lambda)=({self.N},{self.K},{self.lam})"
            )
        if self.lam > self.K:
            raise InvalidInputError(f"lambda={self.lam} exceeds K={self.K}")


@dataclass(frozen=True)
class DifferenceSet:
    """A verified difference set: strictly increasing residues plus its params."""

    N: int
    elements: tuple
    params: DifferenceSetParams

    def __post_init__(self):
        if self.N != self.params.N or len(self.elements) != self.params.K:
            raise InvalidInputError("elements inconsistent with params")
        if list(self.elements) != sorted(set(self.elements)):
            raise InvalidInputError("elements must be strictly increasing")


@dataclass
class VerificationReport:
    is_difference_set: bool
    difference_counts: dict
    inferred_lambda: Optional[int]
    # True/False once a set verifies: do the inferred params satisfy the
    # counting identity and lambda <= K?  None when not a difference set.
    params_ok: Optional[bool] = None


@dataclass
class SearchResult:
    status: str
    result: Optional[DifferenceSet]
    nodes: int


def _check_subset(N, subset):
    if N < 2:
        raise InvalidInputError(f"modulus N={N} must be >= 2")
    elements = list(subset)
    if len(set(elements)) != len(elements):
        raise InvalidInputError("subset contains duplicate elements")
    for e in elements:
        if not (isinstance(e, (int, np.integer)) and 0 <= e < N):
            raise InvalidInputError(f"residue {e!r} out of range for Z_{N}")
    return sorted(int(e) for e in elements)


def difference_counts(N, subset):
    """Exact multiplicity of every nonzero difference (a-b) mod N over distinct pairs."""
    elements = _check_subset(N, subset)
    counts = {d: 0 for d in range(1, N)}
    for a in elements:
        for b in elements:
            if a != b:
                counts[(a - b) % N] += 1
    return counts


def verify_difference_set(N, subset):
    """Count all ordered differences of `subset` mod N and report the verdict.

    Parameters
    ----------
    N : int
        Modulus, at least 2.
    subset : iterable of int
        Distinct residues in {0, ..., N-1}.

    Returns
    -------
    VerificationReport
        ``is_difference_set`` is true iff all N-1 counts coincide; in that
        case ``inferred_lambda`` holds the common count and ``params_ok``
        records whether the (N, K, lambda) invariants hold as well.

    Raises
    ------
    InvalidInputError
        For an N above VERIFY_MODULUS_LIMIT, before anything is counted.
    """
    if N > VERIFY_MODULUS_LIMIT:
        raise InvalidInputError(
            f"modulus N={N} is above the verification limit {VERIFY_MODULUS_LIMIT}: "
            f"the report lists all N - 1 difference counts")
    elements = _check_subset(N, subset)
    counts = difference_counts(N, elements)
    values = set(counts.values())
    if len(values) == 1 and values != {0}:
        lam = values.pop()
        K = len(elements)
        params_ok = (K * (K - 1) == lam * (N - 1)) and (lam <= K)
        return VerificationReport(True, counts, lam, params_ok)
    return VerificationReport(False, counts, None, None)


def derive_params(N, K):
    """Return DifferenceSetParams for (N, K) when the counting identity admits one.

    lambda = K(K-1)/(N-1) must be a positive integer with lambda <= K;
    otherwise None.
    """
    if not 1 <= K <= N or N < 2:
        raise InvalidInputError(f"need 2 <= N and 1 <= K <= N, got N={N}, K={K}")
    num = K * (K - 1)
    if num == 0 or num % (N - 1) != 0:
        return None
    lam = num // (N - 1)
    if lam > K:
        return None
    return DifferenceSetParams(N, K, lam)


def make_difference_set(N, elements):
    """Verify `elements` in Z_N and wrap them as a DifferenceSet (or raise)."""
    report = verify_difference_set(N, elements)
    if not report.is_difference_set or not report.params_ok:
        raise InvalidInputError(f"{sorted(elements)} is not a difference set in Z_{N}")
    elements = tuple(sorted(int(e) for e in elements))
    params = DifferenceSetParams(N, len(elements), report.inferred_lambda)
    return DifferenceSet(N, elements, params)


def _is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def quadratic_residue_set(q):
    """Nonzero quadratic residues mod a prime q = 3 (mod 4): a (q, (q-1)/2, (q-3)/4) set."""
    if not _is_prime(q) or q % 4 != 3:
        raise UnsupportedParametersError(f"q={q} is not a prime congruent to 3 mod 4")
    if q < 7:
        # q=3 gives the single residue {1}, which has no nonzero differences
        raise UnsupportedParametersError(f"q={q} too small: residue set is degenerate")
    residues = sorted({(k * k) % q for k in range(1, q)})
    return make_difference_set(q, residues)


def exhaustive_search(N, K, lam=None, budget=DEFAULT_SEARCH_BUDGET):
    """Deterministic lexicographic backtracking for an (N, K, lam) difference set.

    Translation-invariance lets us force 0 as the smallest element; branches
    die as soon as any difference count exceeds lam.  `nodes` counts every
    candidate element tried.  When lam is omitted it is derived from (N, K);
    a given lam below 1 is an InvalidInputError.

    Returns
    -------
    SearchResult
        status "found" with the first set in lexicographic order,
        "proven-nonexistent" when the whole tree was explored without a hit
        (also immediate when the counting identity already fails), or
        "budget-exhausted" when the node limit cut the search short.
    """
    if N < 2 or not 1 <= K <= N:
        raise InvalidInputError(f"need 2 <= N and 1 <= K <= N, got N={N}, K={K}")
    if budget < 0:
        raise InvalidInputError(f"search budget {budget} must be nonnegative")
    if lam is None:
        derived = derive_params(N, K)
        if derived is None:
            return SearchResult(SEARCH_NONEXISTENT, None, 0)
        lam = derived.lam
    if lam < 1:
        raise InvalidInputError(f"lam={lam} must be a positive integer")
    if lam > K or K * (K - 1) != lam * (N - 1):
        return SearchResult(SEARCH_NONEXISTENT, None, 0)

    counts = [0] * N
    chosen = []
    nodes = 0
    exhausted = True

    def place(e):
        for u in chosen:
            d1 = (e - u) % N
            d2 = (u - e) % N
            counts[d1] += 1
            counts[d2] += 1
            if counts[d1] > lam or counts[d2] > lam:
                counts[d1] -= 1
                counts[d2] -= 1
                for w in chosen:
                    if w == u:
                        break
                    counts[(e - w) % N] -= 1
                    counts[(w - e) % N] -= 1
                return False
        return True

    def unplace(e):
        for u in chosen:
            counts[(e - u) % N] -= 1
            counts[(u - e) % N] -= 1

    def rec(start):
        nonlocal nodes, exhausted
        if len(chosen) == K:
            return list(chosen)
        if N - start < K - len(chosen):
            return None
        for e in range(start, N):
            nodes += 1
            if nodes > budget:
                exhausted = False
                return None
            if place(e):
                chosen.append(e)
                hit = rec(e + 1)
                if hit is not None:
                    return hit
                chosen.pop()
                unplace(e)
            if not exhausted:
                return None
        return None

    chosen.append(0)
    hit = rec(1)
    if hit is not None:
        return SearchResult(SEARCH_FOUND, make_difference_set(N, hit), nodes)
    if exhausted:
        return SearchResult(SEARCH_NONEXISTENT, None, nodes)
    return SearchResult(SEARCH_BUDGET_EXHAUSTED, None, nodes)


_catalog_cache = None


def _parse_catalog(text, origin="catalog"):
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            head, tail = line.split(":")
            N, K, lam = (int(t) for t in head.split())
            elements = [int(t) for t in tail.split(",")]
        except ValueError as exc:
            raise CatalogError(f"{origin}:{lineno}: cannot parse {line!r}") from exc
        if len(elements) != K:
            raise CatalogError(f"{origin}:{lineno}: element count != K")
        try:
            report = verify_difference_set(N, elements)
        except InvalidInputError as exc:  # a duplicate or out-of-range residue
            raise CatalogError(f"{origin}:{lineno}: {exc}") from exc
        if not report.is_difference_set or report.inferred_lambda != lam or not report.params_ok:
            raise CatalogError(f"{origin}:{lineno}: entry ({N},{K},{lam}) fails verification")
        entries[(N, K)] = DifferenceSet(N, tuple(sorted(elements)), DifferenceSetParams(N, K, lam))
    return entries


def load_catalog(path=None):
    """Parse and re-verify the catalog; entries ship as `N K lambda : e1,...,eK` lines."""
    global _catalog_cache
    if path is not None:
        with open(path, "r", encoding="ascii") as fh:
            return _parse_catalog(fh.read(), origin=str(path))
    if _catalog_cache is None:
        text = resources.files("diffgabor").joinpath("data/catalog.txt").read_text("ascii")
        _catalog_cache = _parse_catalog(text)
    return _catalog_cache


def catalog_lookup(N, K):
    """Catalog entry for (N, K), or None when absent/parameter-infeasible."""
    if derive_params(N, K) is None:
        return None
    return load_catalog().get((N, K))


def require_catalog_set(N, K):
    """Catalog entry for (N, K); ConfigurationError when the catalog has none."""
    ds = catalog_lookup(N, K)
    if ds is None:
        raise ConfigurationError(f"no catalog difference set for {(N, K)}")
    return ds


def catalog_entries():
    """All catalog sets, sorted by (N, K)."""
    return [load_catalog()[key] for key in sorted(load_catalog())]


def normalized_generator(ds):
    """Unit-norm characteristic vector v = chi_S / sqrt(K) of a difference set."""
    v = np.zeros(ds.N, dtype=complex)
    v[list(ds.elements)] = 1.0 / np.sqrt(ds.params.K)
    return v


def dft_magnitudes(ds):
    """|DFT(chi_S)|: equals K at frequency 0 and sqrt(K - lambda) elsewhere.

    Convention: chi_hat(j) = sum_k chi(k) exp(-2 pi i k j / N).
    """
    chi = np.zeros(ds.N, dtype=complex)
    chi[list(ds.elements)] = 1.0
    return np.abs(np.fft.fft(chi))
