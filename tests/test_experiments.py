import warnings

import numpy as np
import pytest

from diffgabor import diffsets, experiments, fusion, solvers
from diffgabor.errors import ConfigurationError, InvalidInputError


def test_derive_seed_stable_and_distinct():
    s1 = experiments.derive_seed(0, "classic", "alltop", 3, 17, "signal")
    s2 = experiments.derive_seed(0, "classic", "alltop", 3, 17, "signal")
    s3 = experiments.derive_seed(0, "classic", "alltop", 3, 18, "signal")
    assert s1 == s2 != s3
    assert 0 <= s1 < 2 ** 64


def test_random_k_sparse_signal():
    x = experiments.random_k_sparse_signal(49, 5, seed=7)
    assert x.shape == (49,)
    assert np.count_nonzero(x) == 5
    assert np.iscomplexobj(x)
    y = experiments.random_k_sparse_signal(49, 5, seed=7)
    assert np.array_equal(x, y)
    with pytest.raises(InvalidInputError):
        experiments.random_k_sparse_signal(10, 11, seed=0)


def test_random_fusion_sparse_signal():
    ff = fusion.build_fusion_frame(diffsets.catalog_lookup(7, 3))
    c = experiments.random_fusion_sparse_signal(ff, 2, seed=3)
    assert c.shape == (21,)
    blocks = c.reshape(7, 3)
    active = [j for j in range(7) if np.any(blocks[j] != 0)]
    assert len(active) == 2
    # active blocks are fully dense: a generic subspace vector has K nonzeros
    for j in active:
        assert np.count_nonzero(blocks[j]) == 3
    r = experiments.random_fusion_sparse_signal(ff, 2, seed=3, complex_coefficients=False)
    assert np.allclose(r.imag, 0.0)


def test_random_k_sparse_signal_rejects_negative_seed():
    with pytest.raises(InvalidInputError, match="seed=-1"):
        experiments.random_k_sparse_signal(49, 5, seed=-1)


def test_random_fusion_sparse_signal_rejects_negative_seed():
    ff = fusion.build_fusion_frame(diffsets.catalog_lookup(7, 3))
    with pytest.raises(InvalidInputError, match="seed=-1"):
        experiments.random_fusion_sparse_signal(ff, 2, seed=-1)


def test_normalized_squared_error():
    x = np.array([1.0, 0.0, 0.0])
    assert experiments.normalized_squared_error(x, x) == 0.0
    assert experiments.normalized_squared_error(2 * x, x) == pytest.approx(1.0)
    with pytest.raises(InvalidInputError):
        experiments.normalized_squared_error(x, np.zeros(3))


def test_classic_config_validation():
    with pytest.raises(InvalidInputError):
        experiments.ClassicExperimentConfig(N=7, sparsity_grid=[0], generators=("alltop",))
    with pytest.raises(InvalidInputError):
        experiments.ClassicExperimentConfig(N=7, sparsity_grid=[50], generators=("alltop",))
    with pytest.raises(InvalidInputError):
        experiments.ClassicExperimentConfig(N=7, sparsity_grid=[1], generators=("bogus",))
    with pytest.raises(InvalidInputError):
        experiments.ClassicExperimentConfig(N=7, sparsity_grid=[1], generators=("alltop",), trials=0)


def test_classic_requires_catalog_set():
    cfg = experiments.ClassicExperimentConfig(
        N=7, sparsity_grid=[1], generators=("difference_set",), trials=2,
    )
    with pytest.raises(ConfigurationError):
        experiments.run_classic_experiment(cfg)  # set_params missing
    cfg = experiments.ClassicExperimentConfig(
        N=7, sparsity_grid=[1], generators=("difference_set",), trials=2,
        set_params=(6, 3),
    )
    with pytest.raises(ConfigurationError):
        experiments.run_classic_experiment(cfg)  # not in the catalog
    cfg = experiments.ClassicExperimentConfig(
        N=7, sparsity_grid=[1], generators=("difference_set",), trials=2,
        set_params=(13, 4),
    )
    with pytest.raises(ConfigurationError):
        experiments.run_classic_experiment(cfg)  # N mismatch


def test_classic_experiment_runs_and_recovers():
    cfg = experiments.ClassicExperimentConfig(
        N=7, sparsity_grid=[1], generators=("alltop", "random_torus", "difference_set"),
        trials=8, master_seed=21, set_params=(7, 3),
    )
    curves = experiments.run_classic_experiment(cfg)
    assert [c.label for c in curves] == ["alltop", "random_torus", "difference_set"]
    for c in curves:
        assert c.experiment == "classic"
        assert c.points == [(1, 8, 8)]
        assert c.rates() == [1.0]


def test_classic_experiment_deterministic_and_parallel():
    kw = dict(N=7, sparsity_grid=[1, 2], generators=("alltop",), trials=6, master_seed=4)
    a = experiments.run_classic_experiment(experiments.ClassicExperimentConfig(**kw))
    b = experiments.run_classic_experiment(experiments.ClassicExperimentConfig(**kw))
    c = experiments.run_classic_experiment(
        experiments.ClassicExperimentConfig(**kw, workers=3)
    )
    assert a[0].points == b[0].points == c[0].points


def test_workers_must_be_positive():
    with pytest.raises(InvalidInputError, match="workers"):
        experiments.ClassicExperimentConfig(N=7, sparsity_grid=[1], workers=0)
    with pytest.raises(InvalidInputError, match="workers"):
        experiments.FusionExperimentConfig(
            set_params=(7, 3), measurement_grid=[2], sparsity_grid=[1], workers=-1
        )


@pytest.mark.parametrize("threshold", [float("nan"), float("inf"), 0.0, -1.0])
def test_threshold_must_be_positive_and_finite(threshold):
    with pytest.raises(InvalidInputError, match="success_threshold"):
        experiments.ClassicExperimentConfig(N=7, sparsity_grid=[1], success_threshold=threshold)
    with pytest.raises(InvalidInputError, match="success_threshold"):
        experiments.FusionExperimentConfig(set_params=(7, 3), measurement_grid=[2],
                                           sparsity_grid=[1], success_threshold=threshold)


def test_fusion_config_validation():
    with pytest.raises(InvalidInputError):
        experiments.FusionExperimentConfig(
            set_params=(7, 3), measurement_grid=[0], sparsity_grid=[1]
        )
    with pytest.raises(InvalidInputError):
        experiments.FusionExperimentConfig(
            set_params=(7, 3), measurement_grid=[2], sparsity_grid=[8]  # k > N
        )


@pytest.mark.parametrize("set_params", [(40,), (7, 3, 1), "7,3", 7, (7.0, 3.0), None],
                         ids=["one", "three", "text", "int", "floats", "none"])
def test_set_params_must_be_two_integers(set_params):
    # refused when the config is made, not when the run reads the catalog
    with pytest.raises(InvalidInputError, match="set_params"):
        experiments.FusionExperimentConfig(set_params=set_params, measurement_grid=[2],
                                           sparsity_grid=[1])
    if set_params is not None:  # a classic run without a difference set needs none
        with pytest.raises(InvalidInputError, match="set_params"):
            experiments.ClassicExperimentConfig(N=7, sparsity_grid=[1],
                                                generators=("difference_set",),
                                                set_params=set_params)


@pytest.mark.parametrize("make, field, value", [
    ("classic", "N", 7.0), ("classic", "trials", 2.5), ("classic", "sparsity_grid", [1.5]),
    ("fusion", "trials", 2.5), ("fusion", "sparsity_grid", [1.5]),
    ("fusion", "measurement_grid", [2.7])], ids=lambda value: str(value).replace(" ", ""))
def test_counts_must_be_integers(make, field, value):
    # read by operator.index: refused, not cut to an integer or left for
    # range() or NumPy to fail on later
    kwargs = (dict(N=7, sparsity_grid=[1]) if make == "classic"
              else dict(set_params=(7, 3), measurement_grid=[2], sparsity_grid=[1]))
    config = (experiments.ClassicExperimentConfig if make == "classic"
              else experiments.FusionExperimentConfig)
    with pytest.raises(InvalidInputError, match=f"^{field}="):
        config(**{**kwargs, field: value})


@pytest.mark.parametrize("field, grid", [("generators", ("alltop", "alltop")),
                                         ("sparsity_grid", (1, 2, 1)),
                                         ("measurement_grid", (2, 2))])
def test_repeated_grid_entries_are_rejected(field, grid):
    # a repeated entry would run its trials again and write its CSV rows twice
    classic = dict(N=7, sparsity_grid=[1], generators=("alltop",))
    fusion = dict(set_params=(7, 3), measurement_grid=[2], sparsity_grid=[1])
    for make, kwargs in ((experiments.ClassicExperimentConfig, classic),
                         (experiments.FusionExperimentConfig, fusion)):
        if field in kwargs:
            with pytest.raises(InvalidInputError, match=field.split("_")[0]):
                make(**{**kwargs, field: grid})


def test_set_params_pairs_are_kept_as_int_tuples():
    fusion_cfg = experiments.FusionExperimentConfig(set_params=[7, np.int64(3)],
                                                    measurement_grid=[2], sparsity_grid=[1])
    classic_cfg = experiments.ClassicExperimentConfig(N=7, sparsity_grid=[1],
                                                      set_params=np.array([7, 3]))
    assert fusion_cfg.set_params == classic_cfg.set_params == (7, 3)
    assert all(type(v) is int for v in fusion_cfg.set_params + classic_cfg.set_params)


def test_fusion_experiment_runs():
    cfg = experiments.FusionExperimentConfig(
        set_params=(7, 3), measurement_grid=[2, 4], sparsity_grid=[1, 3],
        trials=6, master_seed=5,
    )
    curves = experiments.run_fusion_experiment(cfg)
    assert [c.label for c in curves] == ["n=2", "n=4"]
    assert all(c.experiment == "fusion" for c in curves)
    # n = 4 >= K is not yet guaranteed, but n=4 blocks of 4x3 are injective:
    # every sparsity must recover
    assert curves[1].points == [(1, 6, 6), (3, 6, 6)]
    # more measurements never hurt
    for p_lo, p_hi in zip(curves[0].points, curves[1].points):
        assert p_hi[1] >= p_lo[1]


def test_fusion_experiment_deterministic():
    kw = dict(set_params=(7, 3), measurement_grid=[3], sparsity_grid=[1, 2],
              trials=5, master_seed=9)
    a = experiments.run_fusion_experiment(experiments.FusionExperimentConfig(**kw))
    b = experiments.run_fusion_experiment(experiments.FusionExperimentConfig(**kw))
    assert [c.points for c in a] == [c.points for c in b]


def test_curves_csv_format(tmp_path):
    curves = [
        experiments.RecoveryCurve("classic", "alltop", [(1, 5, 5), (2, 4, 5)]),
        experiments.RecoveryCurve("classic", "random_torus", [(1, 5, 5)]),
    ]
    text = experiments.curves_to_csv(curves)
    assert text == (
        "experiment,label,x,successes,trials,rate\n"
        "classic,alltop,1,5,5,1.000000\n"
        "classic,alltop,2,4,5,0.800000\n"
        "classic,random_torus,1,5,5,1.000000\n"
    )
    path = tmp_path / "curves.csv"
    experiments.emit_curves(curves, path)
    assert path.read_bytes() == text.encode("ascii")


def _assert_diagnostics(curve, trials):
    assert len(curve.diagnostics) == len(curve.points)
    for (_, successes, _), diag in zip(curve.points, curve.diagnostics):
        assert sum(diag[outcome] for outcome in experiments.TRIAL_OUTCOMES) == trials
        # a refuted trial is a proved failure
        assert successes <= trials - diag["refuted"]
        assert 0 <= diag["median_iterations"] <= diag["max_iterations"]


def test_diagnostics_count_every_trial():
    classic = experiments.run_classic_experiment(experiments.ClassicExperimentConfig(
        N=7, sparsity_grid=[1, 6], generators=("alltop",), trials=5, master_seed=3))
    fusion_curves = experiments.run_fusion_experiment(experiments.FusionExperimentConfig(
        set_params=(7, 3), measurement_grid=[2, 4], sparsity_grid=[1, 3], trials=5,
        master_seed=5))
    for curve in classic + fusion_curves:
        _assert_diagnostics(curve, 5)
    assert classic[0].diagnostics[0]["certified"] == 5
    # 3 active blocks of 3 from 2 measurements per coordinate: every trial is refuted
    assert fusion_curves[0].diagnostics[1]["refuted"] == 5
    assert fusion_curves[0].points[1][1] == 0
    # n = 4 >= K = 3: every trial's feasible set is one point, found without iterating
    assert [d["max_iterations"] for d in fusion_curves[1].diagnostics] == [0, 0]


def test_diagnostics_median_iterations():
    counts = iter([3, 10, 7, 100])

    def trial(t):
        return True, solvers.SolveResult(np.zeros(1), next(counts), 0.0, 0.0,
                                         solvers.STATUS_CONVERGED)

    successes, diag = experiments._run_trials(trial, 4)
    assert successes == 4 and diag[solvers.STATUS_CONVERGED] == 4
    assert diag["median_iterations"] == 8.5 and diag["max_iterations"] == 100


def _curve(label, successes, trials=100):
    return experiments.RecoveryCurve("classic", label, [(k + 1, s, trials)
                                                        for k, s in enumerate(successes)])


@pytest.mark.parametrize("successes, fires", [((50, 80), True), ((50, 65), False)])
def test_rate_rising_with_k_warns_only_beyond_the_slack(successes, fires):
    # 100 trials: the slack is 2 / sqrt(100) = 0.2, and the rate rises by 0.3 or 0.15
    curve = _curve("alltop", successes)
    if fires:
        with pytest.warns(UserWarning, match="alltop: success rate rose from 0.50 to 0.80"):
            experiments._check_decreasing_in_k(curve, 100)
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            experiments._check_decreasing_in_k(curve, 100)


@pytest.mark.parametrize("successes, fires", [((80, 50), True), ((80, 65), False)])
def test_rate_falling_with_n_warns_only_beyond_the_slack(successes, fires):
    # the rate at k = 1 falls by 0.3 or 0.15 from n=2 to n=4, against a slack of 0.2
    curves = [_curve(f"n={n}", [s]) for n, s in zip((2, 4), successes)]
    if fires:
        with pytest.warns(UserWarning, match=r"rate at k=1 dropped from 0.80 \(n=2\) to 0.50"):
            experiments._check_increasing_in_n(curves, 100)
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            experiments._check_increasing_in_n(curves, 100)
