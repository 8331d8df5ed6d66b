"""The library surface that the benchmark harness in ``bench/`` calls.

``bench/`` lies outside the test paths, so a renamed or re-signed name that
the harness calls would otherwise show only when the benchmark runs.  These
tests call each softplex name that ``bench/run.py`` and
``bench/setup_probe.py`` use, with the harness's own argument shapes, at
tiny sizes.
"""

import math

import pytest

import softplex
from softplex import (
    build_cech,
    build_graph,
    build_rips,
    config_from_dict,
    euler_characteristic,
    face_counts,
    run_experiment,
    sample_binomial,
    sample_poisson,
    soft_thin,
)
from softplex.experiments import predicted_face_bound, replicate_once
from softplex.rng import REPLICATION_STREAM, derive_seed

UNIT_SQUARE = {"kind": "uniform-box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]}


def experiment(model: str, process: str, **extra) -> dict:
    base = {"model": model, "process": process, "n": 150, "d": 2, "k_max": 3,
            "statistic": {"kind": "chi"}, "r": 0.12, "rho": [0.7, 0.7, 0.7],
            "replications": 2, "master_seed": 3}
    return {**base, **extra}


CONFIGS = [
    experiment("rips", "poisson"),
    experiment("cech", "binomial",
               region={"kind": "box", "lo": [0.1, 0.1], "hi": [0.9, 0.9]}),
    {key: value for key, value in experiment(
        "rips", "binomial", d=1, k_max=1, r_exponent=1.1, rho=[1.0],
        statistic={"kind": "fk", "k": 1}).items() if key != "r"},
]


def test_setup_probe_surface():
    bound = predicted_face_bound(softplex.config_from_dict(CONFIGS[0]))
    assert math.isfinite(bound) and bound > 0
    assert softplex.density_from_config(UNIT_SQUARE).dimension == 2


@pytest.mark.parametrize("raw", CONFIGS, ids=lambda raw: f"{raw['model']}-d{raw['d']}")
def test_replication_surface(raw):
    config = config_from_dict(raw)
    first = replicate_once(config, 0)
    results = run_experiment(config, threads=1)
    assert [r.index for r in results] == list(range(config.replications))
    assert (results[0].f, results[0].chi, results[0].n_points) == (
        first.f, first.chi, first.n_points)
    assert all(r.seconds >= 0.0 for r in results)

    # the harness's traced pass: one public call per layer, same rows
    for index, result in enumerate(results):
        seed = derive_seed(config.master_seed, REPLICATION_STREAM, index)
        if config.process == "binomial":
            cloud = sample_binomial(int(config.n), config.density, seed)
        else:
            cloud = sample_poisson(config.n, config.density, seed)
        r = config.radius
        graph = build_graph(cloud, r, seed=seed)
        assert graph.edge_count >= 0
        complex_ = build_rips(graph, config.k_max)
        assert len(complex_.face_vector()) == config.k_max + 1
        if config.model == "cech":
            complex_ = build_cech(cloud, r, config.k_max)
        complex_ = soft_thin(complex_, config.retention, seed)
        counts = face_counts(complex_, config.region)
        chi = euler_characteristic(counts)
        assert (counts.f, chi, len(cloud)) == (result.f, result.chi, result.n_points)


@pytest.mark.parametrize("kind, args", [("mu", (1,)), ("nu", (2,)), ("phi", (1, 1, 1))])
def test_constants_surface(kind, args):
    density = softplex.density_from_config(UNIT_SQUARE)
    estimate = {"mu": softplex.estimate_mu, "nu": softplex.estimate_nu,
                "phi": softplex.estimate_phi}[kind]
    est = estimate(*args, 2, density, samples=64, seed=0, threads=1)
    assert est.samples == 64
    assert math.isfinite(est.value) and math.isfinite(est.stderr)
