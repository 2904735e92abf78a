"""Gabor fusion frames: the N coordinate subspaces W_i = {x : supp(x) = S + i}.

All projections are diagonal 0/1 matrices, so traces and products reduce to
exact set intersections; floats only enter when comparing against the real-
valued closed forms (simplex bound, chordal distance).
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .diffsets import difference_counts
from .errors import InvalidInputError

CLOSED_FORM_TOL = 1e-12


@dataclass(frozen=True)
class GaborFusionFrame:
    """The N translates S + i of a difference set S, held as S alone.

    ``supports`` and ``owners`` are the one record of the layout: stacked
    coefficient i*K + c lies on coordinate supports[i, c], and owners[m]
    lists the stacked coefficients on coordinate m.  Both are read-only,
    and the frame is frozen, so they cannot go stale.
    """

    diffset: object

    @property
    def N(self):
        return self.diffset.N

    @property
    def K(self):
        return self.diffset.params.K

    @cached_property
    def supports(self):
        """(N, K) integer array: row i is S + i mod N, sorted."""
        table = np.sort((np.arange(self.N)[:, None] + self.diffset.elements) % self.N, axis=1)
        table.flags.writeable = False
        return table

    @cached_property
    def owners(self):
        """(N, K) integer array: row m holds, increasing, the stacked coefficients on m.

        Translates of a K-set cover each coordinate K times, so the stable
        argsort of the flat support table splits into N rows of K.
        """
        table = np.argsort(self.supports.reshape(-1), kind="stable").reshape(self.N, self.K)
        table.flags.writeable = False
        return table

    def projection_matrix(self, i):
        """Dense diagonal 0/1 projection onto W_i (cross-checks only)."""
        P = np.zeros((self.N, self.N))
        idx = self.supports[i]
        P[idx, idx] = 1.0
        return P

    def projection_sum_diagonal(self):
        """Integer diagonal of sum_i P_i; equals K everywhere for a valid set."""
        return np.bincount(self.supports.reshape(-1), minlength=self.N)


@dataclass
class FusionReport:
    tight_bound: Optional[float]
    chordal_distances: np.ndarray  # pairwise d_c matrix (square roots)
    dc_squared: Optional[float]
    simplex_bound: float
    equidistant: bool
    sparsity: int
    optimal_packing: bool


def build_fusion_frame(ds):
    """Fusion frame of all N translates of the difference-set support."""
    return GaborFusionFrame(ds)


def fusion_frame_bounds(ff):
    """(A, B) = extreme eigenvalues of sum_i P_i — min/max diagonal counts."""
    diag = ff.projection_sum_diagonal()
    return float(diag.min()), float(diag.max())


def chordal_distance(support_a, support_b):
    """d_c = sqrt(m - Tr[P_a P_b]) = sqrt(m - |support_a intersect support_b|)
    for two supports of m distinct coordinates, such as rows of ff.supports."""
    m = len(support_a)
    if len(support_b) != m:
        raise InvalidInputError(
            f"chordal distance needs equal dimensions, got {m} != {len(support_b)}"
        )
    overlap = len(set(support_a).intersection(support_b))
    return float(np.sqrt(m - overlap))


def overlap_circulant(ff):
    """Integer matrix O[a, b] = |(S+a) intersect (S+b)| = Tr[P_a P_b].

    s + a = t + b for s, t in S exactly when s - t = b - a, so an overlap is
    the difference count of b - a (K when a = b): the N counts of S fix the
    whole circulant.
    """
    N, K = ff.N, ff.K
    counts = difference_counts(N, ff.diffset.elements)
    row = np.array([K] + [counts[d] for d in range(1, N)])
    idx = np.arange(N)
    return row[(idx[None, :] - idx[:, None]) % N]


def chordal_distance_matrix(ff):
    """Pairwise d_c = sqrt(K - |(S+a) intersect (S+b)|), zero on the diagonal."""
    return np.sqrt(ff.K - overlap_circulant(ff))


def simplex_bound(m, M, N):
    """Packing bound m(N-m)M / (N(M-1)) on the minimal squared chordal distance."""
    if not 1 <= m <= N:
        raise InvalidInputError(f"subspace dimension m={m} out of range for N={N}")
    if M < 2:
        raise InvalidInputError(f"need at least two subspaces, got M={M}")
    return float(m * (N - m) * M / (N * (M - 1)))


def equidistance_check(ff, tol=CLOSED_FORM_TOL):
    """All pairwise d_c^2 equal, and equal to both K - lambda and K(N-K)/(N-1).

    Returns (True/False, common d_c^2 or None).
    """
    N, K, lam = ff.N, ff.K, ff.diffset.params.lam
    # exact integer d_c^2 over every pair a != b
    values = np.unique(K - overlap_circulant(ff)[~np.eye(N, dtype=bool)])
    if values.size != 1:
        return False, None
    dc2 = float(values[0])
    ok = abs(dc2 - (K - lam)) == 0 and abs(dc2 - K * (N - K) / (N - 1)) <= tol
    return ok, dc2


def sparsity_count(ff):
    """Total support size KN of the canonical orthonormal subspace bases.

    Returns (KN, bases) where bases[i] lists the canonical-vector indices
    {(k + i) mod N : k in S} spanning W_i — each basis vector is 1-sparse.
    """
    return ff.K * ff.N, ff.supports


def support_product_norm(support_a, support_b):
    """Spectral norm of the product of two diagonal 0/1 projections: 1 iff they overlap."""
    return 0.0 if set(support_a).isdisjoint(support_b) else 1.0


def projection_product_norm(ff, a, b):
    """||P_a P_b||_2 for distinct subspaces; lambda >= 1 forces overlap, so 1."""
    if a == b:
        raise InvalidInputError("projection product norm is defined for distinct pairs")
    return support_product_norm(ff.supports[a], ff.supports[b])


def fusion_report(ff, tol=CLOSED_FORM_TOL):
    """Aggregate tightness / equidistance / packing / sparsity diagnostics.

    ``tol`` must be positive and finite; tight_bound is None for a frame
    that is not tight.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise InvalidInputError(f"tolerance tol={tol} must be positive and finite")
    A, B = fusion_frame_bounds(ff)
    equidistant, dc2 = equidistance_check(ff, tol)
    sb = simplex_bound(ff.K, ff.N, ff.N)
    sparsity, _ = sparsity_count(ff)
    tight = A == B
    optimal = bool(tight and equidistant and dc2 is not None and abs(dc2 - sb) <= tol)
    return FusionReport(
        tight_bound=A if tight else None,
        chordal_distances=chordal_distance_matrix(ff),
        dc_squared=dc2,
        simplex_bound=sb,
        equidistant=equidistant,
        sparsity=sparsity,
        optimal_packing=optimal,
    )
