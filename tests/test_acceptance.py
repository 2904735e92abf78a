"""End-to-end acceptance checks.

Each test prints one [PASS]/[FAIL] line (run with -s to see them live) and
asserts the property it names.  The two Monte-Carlo reproductions (recovery
curves at N=43 and the fusion phase diagram at (40,13,4)) run desk-scale
grids: 50 trials per point instead of the full 500, which keeps the whole
module in the minutes range while still pinning the qualitative claims.
"""

import hashlib
import itertools
import time

import numpy as np

from diffgabor import diffsets, experiments, fusion, gabor, solvers

MASTER_SEED = 814
# SHA-256 of the criterion 9 and 10 CSVs at MASTER_SEED: a speed-up of the
# solvers must leave every success count, and so every byte, as it was
CRITERION_09_CSV_SHA256 = "bbb2621ee62f75de473f45a7b90d475e34d6d43e49b12c62bf2b49ff224720ab"
CRITERION_10_CSV_SHA256 = "c85a475580fc74b9006cbe8ce02f484dfae0e5adef8666876def5c762cc5ddca"


def _verdict(num, desc, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    line = f"[{tag}] criterion {num:2d}: {desc}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)
    assert ok, line


def _csv_sha256(curves):
    return hashlib.sha256(experiments.curves_to_csv(curves).encode("ascii")).hexdigest()


def _ds_frame(N, K):
    ds = diffsets.catalog_lookup(N, K)
    return gabor.build_gabor_frame(gabor.difference_set_generator(ds))


def test_criterion_01_coherence_theorem():
    t0 = time.time()
    worst = 0.0
    for N, K in [(7, 3), (11, 5), (13, 4), (23, 11), (43, 21)]:
        frame = _ds_frame(N, K)
        rep = gabor.mutual_coherence(frame)
        mu_scan, _ = gabor._coherence_scan(frame.columns)  # dense brute-force oracle
        worst = max(worst, abs(rep.mutual_coherence - rep.predicted),
                    abs(mu_scan - rep.predicted))
    elapsed = time.time() - t0
    ok = worst < 1e-10 and elapsed < 60.0
    _verdict(1, "measured and brute-force coherence equal closed form on 5 catalog sets",
             ok, f"max gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_quadratic_family_table():
    worst = 0.0
    above_welch = True
    for q in [11, 19, 23, 43]:
        ds = diffsets.quadratic_residue_set(q)
        frame = gabor.build_gabor_frame(gabor.difference_set_generator(ds))
        mu2 = gabor.mutual_coherence(frame).mutual_coherence ** 2
        closed = (q - 3) ** 2 / (4 * (q - 1) ** 2)
        worst = max(worst, abs(mu2 - closed))
        above_welch = above_welch and mu2 > 1.0 / (q + 1)
    ok = worst < 1e-12 and above_welch
    _verdict(2, "quadratic-residue mu^2 = (q-3)^2/4(q-1)^2, above 1/(q+1)",
             ok, f"max gap {worst:.2e}")


def test_criterion_03_three_dim_etf_exception():
    frame = _ds_frame(3, 2)  # generator (1,1,0)/sqrt(2)
    check = gabor.is_etf(frame)
    gap_half = abs(check.coherence - 0.5)
    gap_welch = abs(check.coherence - check.welch_bound_value)
    ok = check.is_etf and gap_half < 1e-12 and gap_welch < 1e-12
    _verdict(3, "N=3 Gabor frame of (1,1,0)/sqrt(2) is an ETF at the Welch bound",
             ok, f"mu={check.coherence:.12f}")


def test_criterion_04_tightness_all_generators():
    worst = 0.0
    frames = [gabor.build_gabor_frame(gabor.alltop_generator(43))]
    frames += [gabor.build_gabor_frame(gabor.random_torus_generator(43, seed))
               for seed in range(20)]
    frames += [gabor.build_gabor_frame(gabor.difference_set_generator(ds))
               for ds in diffsets.catalog_entries()]
    worst = max(frame.tightness_error for frame in frames)
    ok = worst < 1e-9
    _verdict(4, "Phi Phi* = N I for Alltop, 20 torus seeds, all catalog sets",
             ok, f"{len(frames)} frames, max defect {worst:.2e}")


def test_criterion_05_fusion_closed_forms():
    ok = True
    detail = ""
    for ds in diffsets.catalog_entries():
        N, K, lam = ds.N, ds.params.K, ds.params.lam
        ff = fusion.build_fusion_frame(ds)
        total = sum(ff.projection_matrix(i) for i in range(N))
        if not np.array_equal(total, K * np.eye(N)):
            ok, detail = False, f"sum P_i != K I at N={N}"
            break
        equi, dc2 = fusion.equidistance_check(ff)
        simplex = fusion.simplex_bound(K, N, N)
        if not (equi and dc2 == K - lam
                and abs(dc2 - K * (N - K) / (N - 1)) < 1e-12
                and abs(dc2 - simplex) < 1e-12):
            ok, detail = False, f"distances off at N={N}"
            break
        if fusion.sparsity_count(ff)[0] != K * N:
            ok, detail = False, f"sparsity != KN at N={N}"
            break
        if any(fusion.projection_product_norm(ff, a, b) != 1.0
               for a in range(N) for b in range(a + 1, N)):
            ok, detail = False, f"||P_a P_b|| != 1 at N={N}"
            break
    _verdict(5, "fusion closed forms (K-tight, d_c^2=K-lam=simplex, KN, ||P_aP_b||=1)",
             ok, detail or f"{len(diffsets.catalog_entries())} catalog sets")


def test_criterion_06_diagonal_block_etf():
    prof = gabor.block_coherence_profile(_ds_frame(7, 3))
    expected = np.sqrt(4 / 18)
    gap = max(np.max(np.abs(prof.within_block_offdiag_max - expected)),
              np.max(np.abs(prof.within_block_offdiag_min - expected)))
    tight = float(np.max(prof.block_tightness_errors))
    ok = gap < 1e-10 and tight < 1e-9
    _verdict(6, "(7,3,1) blocks: off-diagonals all sqrt(4/18), 7/3-tight on span",
             ok, f"gap {gap:.2e}, tightness {tight:.2e}")


def _l1_support_oracle(A, y):
    """Exact l1 minimum via support enumeration (valid for real instances).

    Any linear program min ||x||_1 s.t. Ax=y attains its optimum at a basic
    solution supported on at most n linearly independent columns, so scanning
    all supports of size <= n and keeping the feasible least-squares solves
    covers the optimizer.
    """
    n, d = A.shape
    ynorm = max(1.0, float(np.linalg.norm(y)))
    best = np.inf
    for r in range(1, n + 1):
        for S in itertools.combinations(range(d), r):
            AS = A[:, S]
            sol = np.linalg.lstsq(AS, y, rcond=None)[0]
            if np.linalg.norm(AS @ sol - y) <= 1e-9 * ynorm:
                best = min(best, float(np.abs(sol).sum()))
    return best


def test_criterion_07_solver_oracle_equivalence():
    rng = np.random.default_rng(MASTER_SEED)
    cfg = solvers.SolverConfig(max_iters=20000)
    worst = 0.0
    for _ in range(25):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(n + 1, 7))
        A = rng.standard_normal((n, d))
        y = A @ rng.standard_normal(d)
        res = solvers.basis_pursuit(A, y, cfg)
        oracle = _l1_support_oracle(A, y)
        worst = max(worst, abs(res.objective - oracle))
    ok = worst < 1e-6
    _verdict(7, "ADMM l1 objective matches support-enumeration optimum, 25 instances",
             ok, f"max gap {worst:.2e}")


def test_criterion_08_guaranteed_recovery_regime():
    cases = []
    frame = _ds_frame(7, 3)
    cases.append(("diffset(7,3,1)", frame, [1]))   # (1+1/mu)/2 = 1.56
    alltop = gabor.build_gabor_frame(gabor.alltop_generator(13))
    cases.append(("alltop13", alltop, [1, 2]))     # (1+sqrt(13))/2 = 2.30
    worst = 0.0
    count = 0
    for label, fr, ks in cases:
        mu = gabor.mutual_coherence(fr).mutual_coherence
        for k in ks:
            assert k < (1 + 1 / mu) / 2  # inside the guarantee region
            for t in range(100):
                seed = experiments.derive_seed(MASTER_SEED, "crit8", label, k, t)
                x = experiments.random_k_sparse_signal(fr.N ** 2, k, seed)
                res = solvers.basis_pursuit(fr.columns, fr.columns @ x)
                worst = max(worst, experiments.normalized_squared_error(res.solution, x))
                count += 1
    ok = worst < 1e-8
    _verdict(8, f"k < (1+1/mu)/2 ==> exact recovery in {count}/{count} trials",
             ok, f"worst NSE {worst:.2e}")


def test_criterion_09_recovery_curves_n43():
    t0 = time.time()
    cfg = experiments.ClassicExperimentConfig(
        N=43,
        sparsity_grid=[1, 2, 3, 4, 5],
        generators=("alltop", "random_torus", "difference_set"),
        trials=50,
        master_seed=MASTER_SEED,
        set_params=(43, 21),
    )
    curves = experiments.run_classic_experiment(cfg)
    rates = np.array([c.rates() for c in curves])  # 3 x 5
    min_rate = float(rates.min())
    spread = float(np.max(rates.max(axis=0) - rates.min(axis=0)))
    digest = _csv_sha256(curves)
    elapsed = time.time() - t0
    ok = (min_rate >= 0.95 and spread <= 0.2 and elapsed < 1800
          and digest == CRITERION_09_CSV_SHA256)
    _verdict(9, "N=43, T=50: all three generators >= 0.95 at k <= 5, spread <= 0.2, CSV pinned",
             ok, f"min rate {min_rate:.2f}, spread {spread:.2f}, sha256 {digest[:8]}, "
                 f"{elapsed:.0f}s")


def test_criterion_10_fusion_phase_diagram():
    t0 = time.time()
    cfg = experiments.FusionExperimentConfig(
        set_params=(40, 13),
        measurement_grid=[5, 9, 13, 16],
        sparsity_grid=[1, 4, 8, 12],
        trials=50,
        master_seed=MASTER_SEED,
        solver=solvers.SolverConfig(max_iters=2000),
    )
    curves = experiments.run_fusion_experiment(cfg)
    rates = np.array([c.rates() for c in curves])  # 4 measurement rows x 4 ks
    monotone = bool(np.all(rates[1:] >= rates[:-1] - 0.15))
    saturated_min = float(rates[2:].min())  # rows n=13 (=K) and n=16
    digest = _csv_sha256(curves)
    elapsed = time.time() - t0
    ok = monotone and saturated_min >= 0.95 and digest == CRITERION_10_CSV_SHA256
    _verdict(10, "(40,13,4), T=50: rates rise with n; n >= K recovers any sparsity, CSV pinned",
             ok, f"min rate at n>=K {saturated_min:.2f}, mono {monotone}, "
                 f"sha256 {digest[:8]}, {elapsed:.0f}s")


def test_criterion_11_determinism_byte_identical():
    classic_kw = dict(
        N=7, sparsity_grid=[1, 2], generators=("alltop", "random_torus"),
        trials=5, master_seed=31,
    )
    a = experiments.run_classic_experiment(experiments.ClassicExperimentConfig(**classic_kw))
    b = experiments.run_classic_experiment(experiments.ClassicExperimentConfig(**classic_kw))
    c = experiments.run_classic_experiment(
        experiments.ClassicExperimentConfig(**classic_kw, workers=3))
    fusion_kw = dict(
        set_params=(7, 3), measurement_grid=[2, 4], sparsity_grid=[1, 3],
        trials=5, master_seed=31,
    )
    fa = experiments.run_fusion_experiment(experiments.FusionExperimentConfig(**fusion_kw))
    fb = experiments.run_fusion_experiment(experiments.FusionExperimentConfig(**fusion_kw))
    csv_a = experiments.curves_to_csv(a).encode() + experiments.curves_to_csv(fa).encode()
    csv_b = experiments.curves_to_csv(b).encode() + experiments.curves_to_csv(fb).encode()
    csv_c = experiments.curves_to_csv(c).encode() + experiments.curves_to_csv(fa).encode()
    ok = csv_a == csv_b == csv_c
    _verdict(11, "identical config+seed reruns emit byte-identical CSV",
             ok, f"{len(csv_a)} bytes compared")
