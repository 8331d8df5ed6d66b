"""Acceptance suite: one test per criterion, tolerances pinned.

Each test prints one `[acceptance] criterion NN: PASS/FAIL (...)` line.
The heavyweight replication tables are shared through module-scoped
fixtures; every statistical band is stated next to the assertion.
"""

import math
import time

import numpy as np
import pytest

from softplex import (
    ExperimentConfig,
    PointCloud,
    UniformBox,
    build_graph,
    build_rips,
    depoisson_compare,
    estimate_mu,
    estimate_nu,
    ks_statistic,
    min_enclosing_ball_radius,
    moment_diagnostics,
    normalize,
    poisson_d1_ratios,
    regime_check,
    rips_bruteforce,
    run_experiment,
    sample_binomial,
    soft_thin,
    statistic_samples,
    threshold_pairs,
    threshold_pairs_bruteforce,
    variance_ratio_report,
)
from softplex.cli import main as cli_main

UNIT_1D = UniformBox(lo=[0.0], hi=[1.0])
UNIT_2D = UniformBox(lo=[0.0, 0.0], hi=[1.0, 1.0])


def record(criterion: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def rips_f1_config(n: float, replications: int, rho=(1.0,), seed: int = 1001):
    return ExperimentConfig(
        model="rips", process="binomial", n=n, d=1, k_max=1,
        replications=replications, master_seed=seed, statistic=("fk", 1),
        r_exponent=1.1, rho=rho,
    )


# --- criterion 1: constants sanity in d=1 ----------------------------------

def test_criterion_01_mu_d1():
    started = time.perf_counter()
    est = estimate_mu(1, 1, UNIT_1D, samples=10_000_000, seed=11)
    elapsed = time.perf_counter() - started
    ok = (
        abs(est.value - 1.0) <= max(3.0 * est.stderr, 1e-12)
        and est.stderr < 0.002
        and elapsed < 30.0
    )
    record("01", ok, f"mu_2={est.value:.6f} stderr={est.stderr:.2e} in {elapsed:.1f}s")


# --- criterion 2: constants sanity in d=2 ----------------------------------

def test_criterion_02_mu_d2():
    est = estimate_mu(1, 2, UNIT_2D, samples=10_000_000, seed=12)
    target = math.pi / 2.0
    ok = abs(est.value - target) <= max(3.0 * est.stderr, 1e-12)
    record("02", ok, f"mu_2={est.value:.6f} target={target:.6f} stderr={est.stderr:.2e}")


# --- criterion 3: ball-test strictness vs dimension ------------------------

def test_criterion_03_ball_strictness():
    started = time.perf_counter()
    samples = 4_000_000
    mu2d = estimate_mu(2, 2, UNIT_2D, samples=samples, seed=13)
    nu2d = estimate_nu(2, 2, UNIT_2D, samples=samples, seed=14)
    sep = (mu2d.value - nu2d.value) / math.hypot(mu2d.stderr, nu2d.stderr)
    mu1d = estimate_mu(2, 1, UNIT_1D, samples=samples, seed=15)
    nu1d = estimate_nu(2, 1, UNIT_1D, samples=samples, seed=16)
    agree = abs(mu1d.value - nu1d.value) <= 3.0 * math.hypot(mu1d.stderr, nu1d.stderr)
    elapsed = time.perf_counter() - started
    ok = sep > 3.0 and agree and elapsed < 120.0
    record("03", ok,
           f"d=2 separation {sep:.1f} sigma; d=1 |diff|={abs(mu1d.value - nu1d.value):.2e}; "
           f"{elapsed:.1f}s")


# --- criterion 4: soft-thinning marginal on a triangle ---------------------

def test_criterion_04_thinning_marginal():
    pts = np.array([[0.0, 0.0], [0.5, 0.0], [0.25, 0.4]])
    cloud = PointCloud(points=pts, provenance="binomial", size_parameter=3, seed=0)
    complex_ = build_rips(build_graph(cloud, 1.0), 2)
    seeds = 100_000
    survived = sum(
        soft_thin(complex_, (0.8, 0.5), seed=seed).face_vector()[2]
        for seed in range(seeds)
    )
    freq = survived / seeds
    ok = abs(freq - 0.256) <= 0.005
    record("04", ok, f"2-face survival {freq:.4f} vs 0.256 +/- 0.005 over {seeds} seeds")


# --- criteria 5-7 share the binomial d=1 sparse configuration --------------

@pytest.fixture(scope="module")
def mean_runs():
    started = time.perf_counter()
    runs = {n: run_experiment(rips_f1_config(n, 400)) for n in (10_000, 40_000)}
    return runs, time.perf_counter() - started


def test_criterion_05_mean_asymptotics(mean_runs):
    runs, elapsed = mean_runs
    details = []
    ok = elapsed < 300.0
    for n, results in runs.items():
        config = rips_f1_config(n, 400)
        scale = n * n * config.radius
        ratio = statistic_samples(results, config).mean() / scale
        details.append(f"n={n}: E[f1]/(n^2 r)={ratio:.4f}")
        ok = ok and abs(ratio - 1.0) <= 0.05
    record("05", ok, "; ".join(details) + f"; {elapsed:.0f}s")


@pytest.fixture(scope="module")
def variance_runs():
    out = {}
    for p1 in (1.0, 0.5):
        config = rips_f1_config(10_000, 2000, rho=(p1,), seed=1002)
        out[p1] = (config, run_experiment(config))
    return out


def test_criterion_06_variance_asymptotics(variance_runs):
    mu2 = estimate_mu(1, 1, UNIT_1D, samples=10_000, seed=17)  # exact for uniform
    details = []
    ok = True
    for p1, (config, results) in variance_runs.items():
        predicted = mu2.value * p1 * config.n**2 * config.radius
        ratio = statistic_samples(results, config).var(ddof=1) / predicted
        details.append(f"p1={p1}: var ratio {ratio:.3f}")
        ok = ok and 0.85 <= ratio <= 1.15
    record("06", ok, "; ".join(details) + " (band [0.85, 1.15], R=2000)")


@pytest.fixture(scope="module")
def clt_f1_run():
    config = rips_f1_config(250_000, 2000, seed=1003)
    return config, run_experiment(config)


def test_criterion_07_clt_for_f1(clt_f1_run):
    config, results = clt_f1_run
    gate = regime_check(config.n, config.radius, 1, config.retention, ("fk", 1),
                        sparse_threshold=0.3, growth_threshold=1e3)
    z = normalize(statistic_samples(results, config))
    dist = ks_statistic(z)
    threshold = 1.63 / math.sqrt(config.replications) * 1.5
    skew = moment_diagnostics(z)["skewness"]
    ok = gate.ok and dist < threshold and abs(skew) < 0.15
    record("07", ok,
           f"regime nr^d={gate.quantities['nr^d']:.3f} growth={gate.quantities['growth_k1']:.0f}; "
           f"KS={dist:.4f} < {threshold:.4f}; skew={skew:.3f}")


# --- criterion 8: CLT for the Euler characteristic -------------------------

def chi_config(r_exponent: float) -> ExperimentConfig:
    return ExperimentConfig(
        model="rips", process="poisson", n=100_000, d=1, k_max=3,
        replications=2000, master_seed=1004, statistic=("chi",),
        r_exponent=r_exponent, rho=(1.0, 1.0, 1.0),
    )


@pytest.fixture(scope="module")
def chi_run():
    config = chi_config(1.4)
    return config, run_experiment(config)


# For a Poisson(n) cloud on [0, 1], three points span a 2-face iff their
# range is <= r, so E f2 = n^3 (3 r^2 - 2 r^3) / 6 ~ n^3 r^2 / 2.  At
# a = 1.4 that is about 5 and grows with n, so the 2-faces cannot vanish;
# at a = 1.7 it is about 0.005 and Markov's inequality gives
# P(f2 = 0) >= 1 - E f2 >= 99.5%.  regime_check's vanish quantity is the
# same n^3 r^2.
@pytest.fixture(scope="module")
def vanish_run():
    config = chi_config(1.7)
    return config, run_experiment(config)


def test_criterion_08a_high_faces_vanish(vanish_run):
    config, results = vanish_run
    n, r = config.n, config.radius
    gate = regime_check(n, r, config.d, config.retention, ("chi", 1))
    expected_f2 = n**3 * (3.0 * r**2 - 2.0 * r**3) / 6.0
    zero_fraction = np.mean([res.f[2] == 0 for res in results])
    ok = gate.flags["vanish_ok"] and zero_fraction >= 0.99
    record("08a", ok,
           f"vanish n^3r^2={gate.quantities['vanish_l2']:.3g} < {gate.thresholds['vanish']}; "
           f"predicted E f2={expected_f2:.3g}; "
           f"f2=0 in {zero_fraction:.2%} of replications (need >= 99%)")


def vanish_detail(config: ExperimentConfig) -> str:
    """regime_check's vanish flag and quantity, printed but not gated on."""
    gate = regime_check(config.n, config.radius, config.d, config.retention, ("chi", 1))
    return (f"vanish_ok={gate.flags['vanish_ok']}, "
            f"vanish_l2={gate.quantities['vanish_l2']:.3g}")


def test_criterion_08b_chi_variance_tracks_vertex_count(chi_run):
    config, results = chi_run
    ratio = variance_ratio_report(results, config)["var_chi_over_var_f0"]
    ok = 0.9 <= ratio <= 1.1
    record("08b", ok, f"var(chi)/var(f0) = {ratio:.3f} (band [0.9, 1.1]); "
                      f"{vanish_detail(config)}")


def test_criterion_08c_chi_normality(chi_run):
    config, results = chi_run
    z = normalize(statistic_samples(results, config))
    dist = ks_statistic(z)
    threshold = 1.63 / math.sqrt(config.replications) * 1.5
    ok = dist < threshold
    record("08c", ok, f"KS={dist:.4f} < {threshold:.4f}; {vanish_detail(config)}")


# --- criterion 9: variance-ratio trends -------------------------------------

@pytest.fixture(scope="module")
def poisson_trend_runs():
    out = {}
    for n in (10_000, 40_000):
        config = ExperimentConfig(
            model="rips", process="poisson", n=n, d=1, k_max=1,
            replications=2000, master_seed=1005, statistic=("fk", 1),
            r_exponent=1.1,
        )
        out[n] = (config, run_experiment(config))
    return out


def bootstrap_ratios(results, rng, resamples: int) -> np.ndarray:
    """Bootstrap draws of (var(f1), cov(f1,f0)) / var(f0), shape (2, resamples)."""
    f = np.asarray([res.f[:2] for res in results], dtype=np.float64)
    draws = f[rng.integers(0, len(f), size=(resamples, len(f)))]
    draws -= draws.mean(axis=1, keepdims=True)
    f0, f1 = draws[..., 0], draws[..., 1]
    var_f0 = (f0 * f0).sum(axis=1)
    return np.stack([(f1 * f1).sum(axis=1) / var_f0, (f1 * f0).sum(axis=1) / var_f0])


# With r = n^-1.1 the ratios fall as n(2r - r^2) and as
# E f1/n + n^2 (4r^2 - 10r^3/3), so 4x n lowers them by about 1.15x and
# 1.25x, not 2x.  Each measured fall must lie within 3 bootstrap standard
# errors of its exact prediction, and that band must exclude 1.
def test_criterion_09_variance_ratio_trends(poisson_trend_runs):
    rng = np.random.default_rng(1905)
    names = ("var_f1_over_var_f0", "cov_f1_f0_over_var_f0")
    measured, predicted, boot = {}, {}, {}
    for n, (config, results) in poisson_trend_runs.items():
        report = variance_ratio_report(results, config)
        measured[n] = np.array([report[name] for name in names])
        predicted[n] = np.array(poisson_d1_ratios(config.n, config.radius))
        boot[n] = bootstrap_ratios(results, rng, resamples=400)
    drop = measured[10_000] / measured[40_000]
    drop_predicted = predicted[10_000] / predicted[40_000]
    drop_se = (boot[10_000] / boot[40_000]).std(axis=1, ddof=1)
    lo, hi = drop_predicted - 3.0 * drop_se, drop_predicted + 3.0 * drop_se
    ok = bool(np.all(lo > 1.0) and np.all((lo <= drop) & (drop <= hi)))
    record("09", ok, "4x n: " + "; ".join(
        f"{label} ratio fell {drop[i]:.3f}x, predicted {drop_predicted[i]:.3f}x "
        f"(SE {drop_se[i]:.3f}, 3-SE band [{lo[i]:.3f}, {hi[i]:.3f}])"
        for i, label in enumerate(("var", "cov"))
    ))


# --- criterion 10: fixed-n vs Poisson comparison -----------------------------

def test_criterion_10_depoissonization():
    config = rips_f1_config(10_000, 400, seed=1006)
    out = depoisson_compare(config)
    threshold = 1.63 / math.sqrt(config.replications) * 1.5
    ok = (
        abs(out["mean_difference_sigmas"]) < 3.0
        and out["binomial"].ks_distance < threshold
        and out["poisson"].ks_distance < threshold
    )
    record("10", ok,
           f"|mean diff| = {abs(out['mean_difference_sigmas']):.2f} sigma; "
           f"KS binomial={out['binomial'].ks_distance:.4f}, "
           f"poisson={out['poisson'].ks_distance:.4f} < {threshold:.4f}")


# --- criterion 11: oracle equivalences ---------------------------------------

def grid_search_ball_radius(points: np.ndarray, tol: float = 1e-7) -> float:
    """Refined grid search for the smallest enclosing ball radius (oracle).

    Every cell that could still contain the optimal center survives each
    refinement (the radius is 1-Lipschitz in the center), so the kinked
    valleys of the max-distance function cannot trap the search; the final
    value is within sqrt(d) * tol of the optimum.
    """
    points = np.asarray(points, dtype=np.float64)
    d = points.shape[1]
    lo, hi = points.min(axis=0), points.max(axis=0)
    centers = (0.5 * (lo + hi))[None, :]
    span = 0.5 * float((hi - lo).max()) + 1e-9  # half side of each cell
    axis = np.array([-2.0 / 3.0, 0.0, 2.0 / 3.0])
    offsets = np.stack(np.meshgrid(*([axis] * d), indexing="ij"), axis=-1).reshape(-1, d)
    slack = 2.0 * math.sqrt(d)
    while span > tol:
        centers = (centers[:, None, :] + span * offsets[None, :, :]).reshape(-1, d)
        span /= 3.0
        radii = np.linalg.norm(points[None, :, :] - centers[:, None, :], axis=2).max(axis=1)
        centers = centers[radii <= radii.min() + slack * span]
    radii = np.linalg.norm(points[None, :, :] - centers[:, None, :], axis=2).max(axis=1)
    return float(radii.min())


def test_criterion_11_oracle_equivalence():
    rng = np.random.default_rng(1900)
    grid_ok = 0
    for trial in range(50):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(100, 2001))
        pts = rng.random((n, d)) * (1.0 + rng.random(d))
        r = float(rng.uniform(0.3, 1.5)) * n ** (-1.0 / d) * 0.8
        if np.array_equal(threshold_pairs(pts, r), threshold_pairs_bruteforce(pts, r)):
            grid_ok += 1

    clique_ok = 0
    for seed in range(6):
        d = seed % 3 + 1
        dens = UniformBox(lo=[0.0] * d, hi=[1.0] * d)
        cloud = sample_binomial(25, dens, seed=2000 + seed)
        r = (0.3, 0.5, 0.65)[d - 1]
        fast = build_rips(build_graph(cloud, r), 4)
        slow = rips_bruteforce(cloud, r, 4)
        if all(np.array_equal(a, b) for a, b in zip(fast.faces_by_dim, slow.faces_by_dim)):
            clique_ok += 1

    ball_worst = 0.0
    for trial in range(200):
        pts = rng.normal(size=(3, 2))
        gap = abs(min_enclosing_ball_radius(pts) - grid_search_ball_radius(pts))
        ball_worst = max(ball_worst, gap)

    ok = grid_ok == 50 and clique_ok == 6 and ball_worst <= 1e-6
    record("11", ok,
           f"grid==brute {grid_ok}/50; clique==subsets {clique_ok}/6; "
           f"ball oracle worst gap {ball_worst:.2e} <= 1e-6")


# --- criterion 12: byte-identical reruns across thread counts ----------------

def test_criterion_12_determinism(tmp_path):
    import json

    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps({
        "model": "rips", "process": "binomial", "n": 2000, "d": 1, "k_max": 2,
        "replications": 16, "master_seed": 77, "statistic": {"kind": "fk", "k": 1},
        "r_exponent": 1.1,
    }))
    outputs = {}
    for threads in (1, 4):
        out = tmp_path / f"res_t{threads}.csv"
        code = cli_main(["experiment", "run", "--config", str(config_path),
                         "--out", str(out), "--threads", str(threads)])
        assert code == 0
        outputs[threads] = out.read_bytes()
    ok = outputs[1] == outputs[4]
    record("12", ok, f"CSV bytes identical across --threads 1/4: {ok}")
