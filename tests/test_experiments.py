import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import ndtri

from softplex import (
    ConfigurationError,
    DegenerateSampleError,
    ExperimentConfig,
    InputError,
    MemoryGuardError,
    MomentPrediction,
    RegionSpec,
    ReplicationResult,
    UniformBox,
    build_cech,
    clt_report,
    config_from_dict,
    depoisson_compare,
    estimate_mu,
    estimate_phi,
    euler_characteristic,
    face_counts,
    kolmogorov_threshold,
    ks_statistic,
    moment_diagnostics,
    normalize,
    poisson_d1_ratios,
    poisson_unit_square_mean_f1,
    predicted_moments,
    run_experiment,
    sample_binomial,
    soft_thin,
    statistic_samples,
    variance_ratio_report,
)
from softplex.experiments import predicted_face_bound, replicate_once
from softplex.rng import REPLICATION_STREAM, derive_seed


def small_config(**overrides):
    base = dict(
        model="rips",
        process="binomial",
        n=300,
        d=1,
        k_max=2,
        replications=20,
        master_seed=7,
        statistic=("fk", 1),
        r=0.003,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_run_experiment_deterministic():
    config = small_config()
    a = run_experiment(config, threads=1)
    for b in (run_experiment(config, threads=3), run_experiment(config)):
        assert [(res.index, res.f, res.chi, res.n_points) for res in a] == \
            [(res.index, res.f, res.chi, res.n_points) for res in b]


def test_complete_graph_when_r_exceeds_diameter():
    config = small_config(n=50, r=10.0, k_max=1, replications=4)
    results = run_experiment(config, threads=1)
    for res in results:
        assert res.f == (50, 50 * 49 // 2)


def test_zero_p1_kills_all_positive_dimensions():
    config = small_config(rho=(0.0, 1.0), replications=6)
    for res in run_experiment(config, threads=1):
        assert res.f[1] == 0 and res.f[2] == 0
        assert res.chi == res.f[0]


def test_chi_is_alternating_sum_every_replication():
    config = small_config(n=800, r=0.004, rho=(0.8, 0.6), replications=10)
    for res in run_experiment(config, threads=1):
        assert res.chi == res.f[0] - res.f[1] + res.f[2]
    with pytest.raises(InputError):
        ReplicationResult(index=0, f=(3, 1), chi=5, n_points=3, seconds=0.0)


def test_thinning_monotone_against_shared_geometry():
    base = small_config(n=800, r=0.004, replications=8)
    thinned = small_config(n=800, r=0.004, rho=(0.6, 0.5), replications=8)
    for full, thin in zip(run_experiment(base, threads=1), run_experiment(thinned, threads=1)):
        assert all(t <= f for t, f in zip(thin.f, full.f))


def test_cech_replication_matches_two_pass_oracle():
    region = RegionSpec(kind="box", lo=(0.2, 0.2), hi=(0.8, 0.8))
    config = small_config(model="cech", n=400, d=2, k_max=3, r=0.12, rho=(0.9, 0.7, 0.8),
                          region=region, statistic=("chi",))
    for index in range(3):
        seed = derive_seed(config.master_seed, REPLICATION_STREAM, index)
        cloud = sample_binomial(400, config.density, seed)
        hard = build_cech(cloud, 0.12, 3)
        counts = face_counts(soft_thin(hard, config.rho, seed), region)
        res = replicate_once(config, index)
        assert res.f == counts.f and res.chi == euler_characteristic(counts)
        assert 0 < res.f[3] < face_counts(hard, region).f[3]


def test_empirical_mean_matches_prediction():
    # sparse-regime mean: mu_2 * p_1 * n^2 * r within 3 standard errors
    config = small_config(n=3000, r_exponent=1.1, r=None, rho=(0.7, 1.0),
                          replications=300)
    results = run_experiment(config)
    samples = statistic_samples(results, config)
    unit = UniformBox(lo=[0.0], hi=[1.0])
    constants = [estimate_mu(1, 1, unit, samples=1000, seed=1),
                 estimate_phi(1, 1, 1, 1, unit, samples=1000, seed=1)]
    pred = predicted_moments(config.n, config.radius, 1, config.retention, k=1,
                             constants=constants)
    stderr = samples.std(ddof=1) / math.sqrt(len(samples))
    assert abs(samples.mean() - pred.mean) <= 3.0 * stderr


def test_d2_edge_count_matches_exact_unit_square_mean_and_is_normal():
    # Rips f1 on the unit square (Penrose 2003, ch. 3).  The exact finite-n mean
    # keeps the boundary term, which the infinite-domain value n^2 pi r^2 / 2
    # misses by about 14 standard errors here.
    config = ExperimentConfig(model="rips", process="poisson", n=10_000, d=2, k_max=1,
                              replications=200, master_seed=2002, statistic=("fk", 1), r=0.02)
    f1 = statistic_samples(run_experiment(config), config)
    stderr = f1.std(ddof=1) / math.sqrt(len(f1))
    exact = poisson_unit_square_mean_f1(config.n, config.radius)
    infinite_domain = config.n**2 * math.pi * config.radius**2 / 2.0
    assert abs(f1.mean() - exact) <= 3.0 * stderr
    assert abs(f1.mean() - infinite_domain) > 6.0 * stderr
    assert ks_statistic(normalize(f1)) < kolmogorov_threshold(len(f1))


def test_exact_form_domains_are_checked():
    assert poisson_unit_square_mean_f1(2.0, 1.0) == pytest.approx(2.0 * (math.pi - 8 / 3 + 0.5))
    with pytest.raises(InputError):
        poisson_unit_square_mean_f1(100.0, 1.5)
    with pytest.raises(InputError):
        poisson_d1_ratios(100.0, 0.6)


def test_poisson_vertex_count_variance():
    config = small_config(process="poisson", n=400, statistic=("fk", 0),
                          k_max=0, r=0.001, replications=500)
    results = run_experiment(config)
    f0 = statistic_samples(results, config)
    lam = 400.0
    var_se = math.sqrt((2.0 * lam**2 + lam) / len(f0))
    assert abs(f0.var(ddof=1) - lam) <= 3.0 * var_se


def test_memory_guard_refuses_dense_configs():
    config = small_config(n=50_000, r=0.5, k_max=4, replications=2)
    with pytest.raises(MemoryGuardError):
        run_experiment(config)


@pytest.mark.parametrize("d", [1, 2, 3, 341, 342, 400, 2000])
def test_memory_guard_defined_in_every_dimension(d):
    # Gamma(d/2 + 1) overflows a float from d = 342 on; the guard works in log space
    config = small_config(n=5, d=d, r=0.5, k_max=2, replications=2)
    # the expected cliques of a ball of volume theta_d 0.5^d, far below 1 for large d
    unit = math.pi ** (d / 2) / math.gamma(d / 2 + 1) * 0.5**d if d <= 3 else 0.0
    assert predicted_face_bound(config) == pytest.approx(5 + 25 * unit / 2 + 125 * unit**2 / 6,
                                                         rel=1e-12)
    rows = run_experiment(config)
    assert [res.f[0] for res in rows] == [5, 5]


def test_normalize_examples():
    np.testing.assert_allclose(normalize([0.0, 2.0]), [-1.0, 1.0])
    with pytest.raises(DegenerateSampleError):
        normalize([5.0, 5.0, 5.0])
    z = normalize([1.0, 2.0, 3.0], MomentPrediction(mean=2.0, variance=4.0))
    np.testing.assert_allclose(z, [-0.5, 0.0, 0.5])
    with pytest.raises(InputError):
        normalize([1.0, 2.0], MomentPrediction(mean=0.0, variance=0.0))


def test_ks_statistic_point_mass():
    assert ks_statistic(np.zeros(50)) == pytest.approx(0.5)


def test_ks_statistic_stratified_quantiles():
    count = 10_000
    z = ndtri((np.arange(1, count + 1) - 0.5) / count)
    assert ks_statistic(z) <= 0.5 / count + 1e-9


def test_ks_statistic_calibration_against_kolmogorov_law():
    # i.i.d. standard normal samples stay below the 1% critical value
    rng = np.random.default_rng(7)
    count, trials = 10_000, 100
    threshold = kolmogorov_threshold(count, 0.01)
    assert threshold == pytest.approx(1.63 / math.sqrt(count))
    passes = sum(ks_statistic(rng.standard_normal(count)) < threshold for _ in range(trials))
    assert passes >= 98


def test_moment_diagnostics_symmetric_sample():
    diag = moment_diagnostics([-2.0, 2.0, -2.0, 2.0])
    assert diag["skewness"] == 0.0
    with pytest.raises(DegenerateSampleError):
        moment_diagnostics([1.0, 1.0])


def test_moment_diagnostics_gaussian_sample():
    rng = np.random.default_rng(5)
    diag = moment_diagnostics(rng.standard_normal(10_000))
    assert abs(diag["skewness"]) < 0.08
    assert abs(diag["excess_kurtosis"]) < 0.15
    assert diag["jarque_bera"] < 12.0


def test_variance_ratio_zero_numerator():
    config = small_config(rho=(0.0, 1.0), replications=10)
    results = run_experiment(config, threads=1)
    report = variance_ratio_report(results, config)
    assert report["var_f1_over_var_f0"] == 0.0


def test_variance_ratio_poisson_f0():
    config = small_config(process="poisson", n=500, r=0.0005, k_max=1,
                          replications=400, statistic=("fk", 0))
    results = run_experiment(config)
    report = variance_ratio_report(results, config)
    lam = 500.0
    var_se = math.sqrt((2.0 * lam**2 + lam) / 400)
    assert abs(report["var_f0"] - lam) <= 3.0 * var_se


def test_covariance_ratio_decreases_with_n():
    # cov(f_1, f_0)/var(f_0) shrinks when n grows 4x under a fixed r-rule
    ratios = []
    for n in (2500, 10_000):
        config = small_config(process="poisson", n=n, r=None, r_exponent=1.1,
                              k_max=1, replications=600, statistic=("fk", 1))
        results = run_experiment(config)
        report = variance_ratio_report(results, config)
        ratios.append(report["cov_f1_f0_over_var_f0"])
    assert ratios[1] < ratios[0]


def test_clt_report_fields_and_qq_consistency():
    config = small_config(n=2000, r=0.002, k_max=1, replications=200)
    results = run_experiment(config)
    report = clt_report(results, config)
    assert report.sample_size == 200
    assert len(report.z_scores) == 200
    assert abs(np.mean(report.z_scores)) < 1e-9
    assert np.std(report.z_scores) == pytest.approx(1.0)
    assert 0.0 <= report.ks_distance <= 1.0
    payload = report.to_json()
    assert set(payload) >= {"ks_distance", "skewness", "variance_ratios", "z_scores"}


def test_depoisson_compare_small_n_variances_differ():
    # complete graph: the fixed-n edge count is constant, the Poisson one is not
    config = small_config(n=20, r=10.0, k_max=1, replications=60)
    out = depoisson_compare(config)
    assert out["binomial"].empirical_variance == 0.0
    assert math.isnan(out["binomial"].ks_distance)
    assert out["poisson"].empirical_variance > 100.0
    poisson = statistic_samples(run_experiment(replace(config, process="poisson")), config)
    assert out["mean_difference"] == 190.0 - poisson.mean()
    assert out["joint_stderr"] == math.sqrt(poisson.var(ddof=1) / poisson.size)
    assert out["mean_difference_sigmas"] == out["mean_difference"] / out["joint_stderr"]


def test_depoisson_compare_equal_constant_runs_are_zero_sigmas():
    # r far below every gap: f_2 is 0 in every run of both processes
    config = small_config(n=20, r=1e-6, statistic=("fk", 2), replications=10)
    out = depoisson_compare(config)
    assert (out["mean_difference"], out["joint_stderr"]) == (0.0, 0.0)
    assert out["mean_difference_sigmas"] == 0.0


def test_depoisson_same_seed_differs_across_processes():
    config = small_config(n=500, r=0.002, k_max=1, replications=5)
    out = depoisson_compare(config)
    assert out["binomial"].empirical_mean != out["poisson"].empirical_mean


def test_depoisson_means_agree_at_scale():
    config = small_config(n=4000, r=None, r_exponent=1.1, k_max=1, replications=300)
    out = depoisson_compare(config)
    assert abs(out["mean_difference_sigmas"]) < 3.0


def test_config_round_trip_and_unknown_keys():
    config = small_config(rho=(0.9, 0.8))
    clone = config_from_dict(config.to_config())
    assert clone.to_config() == config.to_config()
    raw = config.to_config()
    raw["typo_key"] = 1
    with pytest.raises(ConfigurationError):
        config_from_dict(raw)
    raw = config.to_config()
    del raw["model"]
    with pytest.raises(ConfigurationError):
        config_from_dict(raw)


@pytest.mark.xfail(strict=True, reason=(
    "config_from_dict validates 'region' but never passes it to ExperimentConfig, so runs "
    "count faces over all space; the fix changes the cech-d2-box bench digest"))
def test_config_from_dict_keeps_region():
    region = RegionSpec(kind="box", lo=(0.4,), hi=(0.6,))
    config = small_config(region=region)
    assert config_from_dict(config.to_config()).region == region


def test_config_validation():
    with pytest.raises(ConfigurationError):
        small_config(replications=1)
    with pytest.raises(ConfigurationError):
        small_config(r=None)  # no radius rule at all
    with pytest.raises(ConfigurationError):
        small_config(r=0.1, r_exponent=1.1)
    with pytest.raises(ConfigurationError):
        small_config(statistic=("fk", 9))
    with pytest.raises(ConfigurationError):
        small_config(rho=(2.0, 1.0))
    with pytest.raises(ConfigurationError):
        small_config(model="alpha")


def test_retention_is_checked_at_parse_time():
    raw = small_config(k_max=3).to_config()
    for retention in ({"rho": [0.5]}, {"rho_exponents": [-0.5, 0.0, 0.0]}):
        with pytest.raises(ConfigurationError):
            config_from_dict({**raw, **retention})
    assert config_from_dict({**raw, "rho": [0.5, 0.5, 0.5]}).retention == (0.5, 0.5, 0.5)


def test_rho_exponent_rule():
    config = small_config(rho=None, rho_exponents=(0.25, 0.5))
    n = config.n
    assert config.retention == pytest.approx((n**-0.25, n**-0.5))


def test_scale_invariance_of_normalized_mean():
    # E[f_1] / (p_1 n^2 r) settles to the same constant across a 4x size step
    ratios = []
    stderrs = []
    for n in (2500, 10_000):
        config = small_config(n=n, r=None, r_exponent=1.1, k_max=1,
                              replications=1500)
        samples = statistic_samples(run_experiment(config), config)
        scale = n * n * config.radius
        ratios.append(samples.mean() / scale)
        stderrs.append(samples.std(ddof=1) / math.sqrt(len(samples)) / scale)
    joint = math.hypot(*stderrs)
    assert abs(ratios[0] - ratios[1]) <= 3.0 * joint


def test_predicted_normalization_gives_finite_z_scores():
    config = small_config(n=3000, r=None, r_exponent=1.1, k_max=1, replications=50)
    results = run_experiment(config)
    unit = UniformBox(lo=[0.0], hi=[1.0])
    constants = [estimate_mu(1, 1, unit, samples=1000, seed=3),
                 estimate_phi(1, 1, 1, 1, unit, samples=1000, seed=3)]
    pred = predicted_moments(config.n, config.radius, 1, config.retention, k=1,
                             constants=constants)
    report = clt_report(results, config, pred)
    assert np.all(np.isfinite(report.z_scores))
    assert report.predicted_mean == pred.mean
    assert report.predicted_variance == pred.variance
    assert report.normalization == "predicted"
    payload = report.to_json()
    assert (payload["predicted_mean"], payload["normalization"]) == (pred.mean, "predicted")


def test_degenerate_report_keeps_variance_ratios():
    config = small_config(n=20, r=10.0, k_max=1, replications=10)
    report = clt_report(run_experiment(config), config)
    assert report.empirical_variance == 0.0
    assert report.z_scores == ()
    assert "var_f1_over_var_f0" in report.variance_ratios
