"""The count, real, box and retention rules, at every library entry point that takes them.

A count (points, face dimensions, replications, samples, seeds) is an
integer-valued number: 1e3 and 2.0 pass as ints, and bools, fractions,
infinities and NaN are refused with a SoftplexError, never truncated and
never left to fail later as a TypeError, ValueError or OverflowError.  Any
other number (a radius, an intensity, an exponent, a cap, a density
parameter) is a finite int or float; a bool, a string, NaN, an infinity or an
int beyond the float range is refused, as is an exponent rule whose radius
or retention probability rounds to 0 or overflows.  The entries of a vector
(box bounds, a Gaussian mean, grid weights, a retention vector) take the same
rule, from JSON and from Python alike, and a ragged nesting is refused.  A
density's parameters and its sup norm are finite, while a region's bounds may
be infinite.  A retention vector is flat, holds numbers, is long enough and
lies in [0, 1] wherever it is taken.  Results that overflow a float are
refused with the quantity named.
"""

import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from softplex import (
    ALL_SPACE,
    ConfigurationError,
    ConstantEstimate,
    Density,
    ExperimentConfig,
    GaussianIsotropic,
    InputError,
    MomentPrediction,
    PiecewiseConstantGrid,
    PointCloud,
    RegionSpec,
    SimplicialComplex,
    SoftplexError,
    UniformBox,
    build_complex,
    build_graph,
    config_from_dict,
    density_from_config,
    estimate_mu,
    face_counts,
    kolmogorov_threshold,
    ks_statistic,
    min_enclosing_ball,
    moment_diagnostics,
    normalize,
    predicted_moments,
    regime_check,
    region_from_config,
    retention_exponent,
    run_experiment,
    sample_binomial,
    sample_poisson,
    soft_thin,
)
from softplex.errors import count, real
from softplex.geometry import region_mask

UNIT_1D = UniformBox(lo=[0.0], hi=[1.0])
MU1 = ConstantEstimate(value=1.0, stderr=0.0, samples=1, kind="mu", k=1)
CONFIG = {
    "model": "rips", "process": "binomial", "n": 300, "d": 1, "k_max": 2,
    "replications": 4, "master_seed": 5, "statistic": {"kind": "fk", "k": 1}, "r": 0.003,
}
EXPONENT_RULE = {key: value for key, value in CONFIG.items() if key != "r"}


def graph():
    return build_graph(sample_binomial(50, UNIT_1D, 3), 0.05)


FIELDS = dict(model="rips", process="binomial", n=300, d=1, k_max=2, replications=4,
              master_seed=5, statistic=("fk", 1), r=0.003)


def experiment(**overrides):
    return ExperimentConfig(**{**FIELDS, **overrides})


def nested(value, depth: int) -> list:
    for _ in range(depth):
        value = [value]
    return value


REFUSED = {
    "regime-rho-above-one": lambda: regime_check(100, 0.1, 1, (2, 2), ("fk", 1)),
    "regime-n-zero": lambda: regime_check(0, 0.1, 1, (1.0,), ("fk", 1)),
    "regime-n-inf": lambda: regime_check(math.inf, 0.1, 1, (1.0,), ("fk", 1)),
    "regime-r-nan": lambda: regime_check(100, math.nan, 1, (1.0,), ("fk", 1)),
    "regime-r-inf": lambda: regime_check(100, math.inf, 1, (1.0,), ("fk", 1)),
    "regime-d-zero": lambda: regime_check(100, 0.1, 0, (1.0,), ("fk", 1)),
    "regime-d-fraction": lambda: regime_check(100, 0.1, 1.5, (1.0,), ("fk", 1)),
    "regime-level-fraction": lambda: regime_check(100, 0.1, 1, (1.0, 1.0), ("fk", 1.5)),
    "predicted-rho-above-one": lambda: predicted_moments(100, 0.1, 1, (2,), k=1,
                                                         constants=[MU1]),
    "estimate-k-bool": lambda: estimate_mu(True, 1, UNIT_1D, samples=100),
    "estimate-k-fraction": lambda: estimate_mu(1.5, 1, UNIT_1D, samples=100),
    "estimate-d-bool": lambda: estimate_mu(1, True, UNIT_1D, samples=100),
    "sample-n-bool": lambda: sample_binomial(True, UNIT_1D, 0),
    "sample-n-fraction": lambda: sample_binomial(100.7, UNIT_1D, 0),
    "sample-n-inf": lambda: sample_binomial(math.inf, UNIT_1D, 0),
    "poisson-lam-inf": lambda: sample_poisson(math.inf, UNIT_1D, 0),
    # numpy's Poisson sampler refuses every float above 9.223372006484771e18
    "poisson-lam-above-numpy-limit": lambda: sample_poisson(
        math.nextafter(9.223372006484771e18, math.inf), UNIT_1D, 0),
    "build-k_max-fraction": lambda: build_complex(graph(), 2.5),
    "build-k_max-bool": lambda: build_complex(graph(), True),
    "build-rho-strings": lambda: build_complex(graph(), 1, rho=("a",)),
    "retention-exponent-fraction": lambda: retention_exponent(1.5, 1, 1, 1),
    "experiment-d-fraction": lambda: experiment(d=1.5),
    "experiment-replications-fraction": lambda: experiment(replications=2.5),
    "experiment-master_seed-fraction": lambda: experiment(master_seed=5.5),
    "experiment-n-fraction": lambda: experiment(n=100.7),
    "experiment-statistic-k-fraction": lambda: experiment(statistic=("fk", 1.5)),
    "config-n-fraction": lambda: config_from_dict({**CONFIG, "n": 100.7}),
    "config-d-fraction": lambda: config_from_dict({**CONFIG, "d": 1.9}),
    "config-k_max-fraction": lambda: config_from_dict({**CONFIG, "k_max": 2.7}),
    "config-replications-fraction": lambda: config_from_dict({**CONFIG, "replications": 10.5}),
    "config-statistic-k-fraction": lambda: config_from_dict(
        {**CONFIG, "statistic": {"kind": "fk", "k": 1.2}}),
    # a statistic is {"kind": "fk", "k": k} or {"kind": "chi"} and nothing else
    "config-statistic-chi-with-k": lambda: config_from_dict(
        {**CONFIG, "statistic": {"kind": "chi", "k": 1}}),
    "config-statistic-fk-without-k": lambda: config_from_dict(
        {**CONFIG, "statistic": {"kind": "fk"}}),
    "config-statistic-unknown-kind": lambda: config_from_dict(
        {**CONFIG, "statistic": {"kind": "mean"}}),
    "config-statistic-extra-key": lambda: config_from_dict(
        {**CONFIG, "statistic": {"kind": "fk", "k": 1, "l": 1}}),
    "config-statistic-string": lambda: config_from_dict({**CONFIG, "statistic": "chi"}),
    "config-n-string": lambda: config_from_dict({**CONFIG, "n": "300"}),
    "config-poisson-n-bool": lambda: config_from_dict({**CONFIG, "process": "poisson", "n": True}),
    "config-r-string": lambda: config_from_dict({**CONFIG, "r": "0.003"}),
    "config-r_exponent-string": lambda: config_from_dict(
        {**{k: v for k, v in CONFIG.items() if k != "r"}, "r_exponent": "1.1"}),
    "config-max_predicted_faces-string": lambda: config_from_dict(
        {**CONFIG, "max_predicted_faces": "1e3"}),
    "config-rho-entry-string": lambda: config_from_dict({**CONFIG, "rho": ["0.5", 1.0]}),
    "config-rho_exponents-entry-bool": lambda: config_from_dict(
        {**CONFIG, "rho_exponents": [True, 0.5]}),
    "config-r-null": lambda: config_from_dict({**EXPONENT_RULE, "r": None, "r_exponent": 1.1}),
    # each row below ran, or failed outside SoftplexError, before the real and box rules
    "config-r-inf": lambda: config_from_dict({**CONFIG, "r": math.inf}),
    "config-max_predicted_faces-nan": lambda: config_from_dict(
        {**CONFIG, "max_predicted_faces": math.nan}),
    "config-r_exponent-radius-zero": lambda: config_from_dict(
        {**EXPONENT_RULE, "r_exponent": 1e308}),
    "config-r_exponent-radius-overflow": lambda: config_from_dict(
        {**EXPONENT_RULE, "r_exponent": -1e308}),
    "experiment-r_exponent-radius-overflow": lambda: experiment(r=None, r_exponent=-1e308),
    "experiment-rho_exponents-overflow": lambda: experiment(rho_exponents=(-1e308, 0.0)),
    "uniform-box-hi-inf": lambda: UniformBox(lo=[0.0], hi=[math.inf]),
    "uniform-box-volume-overflow": lambda: UniformBox(lo=[-1e308], hi=[1e308]),
    "uniform-box-volume-zero": lambda: UniformBox(lo=[0.0] * 10, hi=[1e-40] * 10),
    "gaussian-mean-inf": lambda: GaussianIsotropic(mean=[math.inf], sigma=1.0),
    "gaussian-sigma-inf": lambda: GaussianIsotropic(mean=[0.0], sigma=math.inf),
    "gaussian-sup-norm-overflow": lambda: GaussianIsotropic(mean=[0.0, 0.0], sigma=1e-200),
    "gaussian-sup-norm-zero": lambda: GaussianIsotropic(mean=[0.0, 0.0], sigma=1e200),
    "grid-weight-inf": lambda: PiecewiseConstantGrid(lo=[0.0], hi=[1.0], weights=[1.0, math.inf]),
    "build-graph-r-inf": lambda: build_graph(sample_binomial(5, UNIT_1D, 0), math.inf),
    "build-rho-bool": lambda: build_complex(graph(), 1, rho=(True,)),
    "build-rho-numeric-string": lambda: build_complex(graph(), 1, rho=("0.5",)),
    "regime-overflow": lambda: regime_check(1e300, 1e200, 3, (1.0, 1.0), ("fk", 1)),
    "predicted-overflow": lambda: predicted_moments(1e300, 1e200, 3, (1.0,), k=1,
                                                    constants=[MU1]),
    "normalize-predicted-mean-nan": lambda: normalize([1.0, 2.0], MomentPrediction(math.nan, 1.0)),
    "ks-statistic-nan": lambda: ks_statistic([math.nan, 1.0, 2.0]),  # returned NaN
    "kolmogorov-threshold-zero": lambda: kolmogorov_threshold(0),  # ZeroDivisionError
    "kolmogorov-threshold-negative": lambda: kolmogorov_threshold(-1),  # math domain error
    "kolmogorov-threshold-fraction": lambda: kolmogorov_threshold(2.5),  # returned a number
    "experiment-statistic-empty": lambda: experiment(statistic=()),  # IndexError
    "experiment-statistic-none": lambda: experiment(statistic=None),  # TypeError
    # the four rows below were accepted, then failed inside run_experiment
    "experiment-max_predicted_faces-none": lambda: experiment(max_predicted_faces=None),
    "experiment-region-none": lambda: experiment(region=None),
    "experiment-region-string": lambda: experiment(region="all"),
    "experiment-region-dimension": lambda: experiment(
        d=2, region=RegionSpec("box", (0.0,), (1.0,))),
    # the two rows below raised a bare ValueError
    "regime-mode-without-level": lambda: regime_check(100, 0.1, 1, (1.0,), ("chi",)),
    "regime-mode-three-entries": lambda: regime_check(100, 0.1, 1, (1.0,), ("fk", 1, 2)),
    "regime-mode-none": lambda: regime_check(100, 0.1, 1, (1.0,), None),  # TypeError
    "regime-sparse-threshold-nan": lambda: regime_check(100, 0.1, 1, (1.0,), ("fk", 1),
                                                        sparse_threshold=math.nan),
    "regime-growth-threshold-inf": lambda: regime_check(100, 0.1, 1, (1.0,), ("fk", 1),
                                                        growth_threshold=math.inf),
    "regime-vanish-threshold-string": lambda: regime_check(100, 0.1, 1, (1.0, 1.0), ("chi", 1),
                                                           vanish_threshold="0.1"),
    "constants-uniform-density-factor-overflow": lambda: estimate_mu(
        4, 2, UniformBox(lo=[0.0, 0.0], hi=[1e-50, 1e-50]), samples=100),
    "constants-gaussian-density-factor-overflow": lambda: estimate_mu(
        4, 2, GaussianIsotropic(mean=[0.0, 0.0], sigma=1e-50), samples=100),
    "constants-grid-density-factor-overflow": lambda: estimate_mu(
        4, 2, PiecewiseConstantGrid(lo=[0.0, 0.0], hi=[1e-50, 1e-50], weights=[[1.0, 2.0]]),
        samples=100),
    # the two rows below raised a bare AttributeError and TypeError from the Python API
    "experiment-density-string": lambda: experiment(density="uniform"),
    "experiment-rho_exponents-scalar": lambda: experiment(k_max=1, rho_exponents=0.5),
    "experiment-process-unknown": lambda: experiment(process="cox"),
    "experiment-rho-and-rho_exponents": lambda: experiment(rho=(1.0, 1.0),
                                                           rho_exponents=(0.0, 0.0)),
    "experiment-density-dimension": lambda: experiment(density=UniformBox([0.0, 0.0], [1.0, 1.0])),
    "config-not-an-object": lambda: config_from_dict([1]),
    # d and k_max size the default density and retention vector: past the index
    # range a list raises OverflowError
    "config-d-past-index-range": lambda: config_from_dict({**CONFIG, "d": 1e308}),
    "config-k_max-past-index-range": lambda: config_from_dict({**CONFIG, "k_max": 2**64}),
    "region-all-with-bounds": lambda: RegionSpec("all", lo=(0.0,)),
    "region-config-not-an-object": lambda: region_from_config([1]),
    "region-config-lo-string": lambda: region_from_config({"kind": "box", "lo": ["a"],
                                                            "hi": [1.0]}),
    "region-mask-dimension": lambda: region_mask(np.zeros((3, 2)),
                                                 RegionSpec("box", (0.0,), (1.0,))),
    "gaussian-mean-matrix": lambda: GaussianIsotropic(mean=[[0.0]], sigma=1.0),
    "grid-weight-axes": lambda: PiecewiseConstantGrid(lo=[0.0, 0.0], hi=[1.0, 1.0],
                                                      weights=[1.0, 2.0]),
    "cloud-vector": lambda: PointCloud(np.zeros(3), "binomial", 3, 0),
    "complex-column-count": lambda: SimplicialComplex(
        cloud=sample_binomial(3, UNIT_1D, 0), faces_by_dim=(np.zeros((3, 2), np.int64),),
        flavor="rips", r=0.1),
    "min-enclosing-ball-empty": lambda: min_enclosing_ball([]),
    "normalize-one-sample": lambda: normalize([1.0]),
    "moment-diagnostics-one-sample": lambda: moment_diagnostics([1.0]),
    "ks-statistic-empty": lambda: ks_statistic([]),
    "kolmogorov-threshold-level": lambda: kolmogorov_threshold(100, 0.2),
    "estimate-density-dimension": lambda: estimate_mu(1, 2, UniformBox([0.0], [1.0])),
    "regime-r-negative": lambda: regime_check(1e4, -0.1, 1, (1.0,), ("fk", 1)),
    # each row below was accepted, or raised a bare ValueError, TypeError or
    # OverflowError, before vector entries took the real rule
    "density-config-lo-numeric-string": lambda: density_from_config(
        {"kind": "uniform-box", "lo": ["0"], "hi": ["1"]}),
    "density-config-hi-bool": lambda: density_from_config(
        {"kind": "uniform-box", "lo": [0.0], "hi": [True]}),
    "density-config-mean-numeric-string": lambda: density_from_config(
        {"kind": "gaussian-isotropic", "mean": ["0.5"], "sigma": 1.0}),
    "density-config-mean-bool": lambda: density_from_config(
        {"kind": "gaussian-isotropic", "mean": [False, 0.0], "sigma": 1.0}),
    "density-config-weights-numeric-string": lambda: density_from_config(
        {"kind": "piecewise-constant-grid", "lo": [0.0], "hi": [1.0], "weights": ["1", 2.0]}),
    "density-config-weights-bool": lambda: density_from_config(
        {"kind": "piecewise-constant-grid", "lo": [0.0], "hi": [1.0], "weights": [True, 2.0]}),
    "density-config-weights-ragged": lambda: density_from_config(
        {"kind": "piecewise-constant-grid", "lo": [0.0, 0.0], "hi": [1.0, 1.0],
         "weights": [[1.0], [1.0, 2.0]]}),
    "density-config-lo-beyond-float-range": lambda: density_from_config(
        {"kind": "uniform-box", "lo": [-2**1024], "hi": [1.0]}),
    "region-config-lo-numeric-string": lambda: region_from_config(
        {"kind": "box", "lo": ["0.1"], "hi": [1.0]}),
    "region-config-hi-bool": lambda: region_from_config(
        {"kind": "box", "lo": [0.1], "hi": [True]}),
    "region-config-ragged": lambda: region_from_config(
        {"kind": "box-complement", "lo": [[0.0], [0.0, 1.0]], "hi": [1.0, 1.0]}),
    "region-config-hi-beyond-float-range": lambda: region_from_config(
        {"kind": "box", "lo": [0.0], "hi": [2**1024]}),
    "uniform-box-lo-numeric-string": lambda: UniformBox(["0"], [1.0]),
    "uniform-box-hi-bool": lambda: UniformBox([0.0], [True]),
    "uniform-box-lo-string": lambda: UniformBox(["a"], [1.0]),
    "gaussian-mean-numeric-string": lambda: GaussianIsotropic(["0.5"], 1.0),
    "gaussian-mean-bool": lambda: GaussianIsotropic([True], 1.0),
    "gaussian-mean-string": lambda: GaussianIsotropic(["a"], 1.0),
    "gaussian-mean-ragged": lambda: GaussianIsotropic([[0.0], [0.0, 1.0]], 1.0),
    "grid-weights-numeric-string": lambda: PiecewiseConstantGrid([0.0], [1.0], ["1", 2.0]),
    "grid-weights-bool": lambda: PiecewiseConstantGrid([0.0], [1.0], [True, 2.0]),
    "grid-weights-ragged": lambda: PiecewiseConstantGrid([0.0, 0.0], [1.0, 1.0],
                                                         [[1.0], [1.0, 2.0]]),
    "grid-lo-numeric-string": lambda: PiecewiseConstantGrid(["0"], [1.0], [1.0]),
    "region-lo-numeric-string": lambda: RegionSpec("box", ("0.1",), (1.0,)),
    "region-hi-bool": lambda: RegionSpec("box", (0.0,), (True,)),
    "region-lo-dict": lambda: RegionSpec("box", [{}], [1.0]),
    "uniform-box-lo-nested-past-numpy-dimensions": lambda: UniformBox(nested(0.0, 600), [1.0]),
    # a retention vector was raveled, so a nested one passed as its entries
    "config-rho-nested": lambda: config_from_dict({**CONFIG, "rho": [[0.7], [0.6]]}),
    "config-rho-nested-deeper": lambda: config_from_dict({**CONFIG, "rho": [[[0.7, 0.6]]]}),
    "experiment-rho-nested": lambda: experiment(rho=((0.7,), (0.6,))),
    "build-rho-nested": lambda: build_complex(graph(), 2, rho=[[0.7], [0.6]]),
    "soft-thin-rho-nested": lambda: soft_thin(build_complex(graph(), 2), [[0.7], [0.6]], 0),
}


@pytest.mark.parametrize("call", REFUSED.values(), ids=REFUSED.keys())
def test_library_refuses_malformed_counts_and_retention(call):
    with pytest.raises(SoftplexError):
        call()


def test_count_rule():
    assert count(1e6, "n") == 1_000_000 and type(count(1e6, "n")) is int
    assert count(2.0, "d") == 2
    assert count(-3, "seed", None) == -3
    for value in (True, 2.5, math.inf, -math.inf, math.nan, "3", None):
        with pytest.raises(InputError, match="integer-valued"):
            count(value, "n")
    with pytest.raises(ConfigurationError, match="n must be >= 1"):
        count(0, "n", 1, ConfigurationError)


@given(value=st.one_of(st.floats(), st.integers(-10**400, 10**400), st.booleans(),
                       st.text(max_size=3), st.none()),
       least=st.sampled_from([None, 0, 1, -2.5]))
def test_real_returns_the_float_or_raises_the_callers_class(value, least):
    class Refused(Exception):
        pass

    accepted = type(value) in (int, float) and abs(value) <= sys.float_info.max and (
        least is None or (value > 0 if least == 0 else value >= least))
    try:
        result = real(value, "x", least, Refused)
    except Refused:
        assert not accepted
    else:
        assert accepted and type(result) is float and result == float(value)


def test_half_space_regions_count_as_their_bounded_boxes():
    square = UniformBox(lo=[0.0, 0.0], hi=[1.0, 1.0])
    regions = [RegionSpec("box", (0.5, 0.5), hi) for hi in ((math.inf, math.inf), (1.0, 1.0))]
    complex_ = build_complex(build_graph(sample_binomial(300, square, 2), 0.1), 2)
    half, quarter = (face_counts(complex_, region).f for region in regions)
    assert half == quarter and half[2] > 0
    half, quarter = (estimate_mu(2, 2, square, region, samples=20_000, seed=3).to_json()
                     for region in regions)
    assert half["value"] == quarter["value"] > 0 and half["stderr"] == quarter["stderr"]


def canonical(payload) -> str:
    # 2.0 == 2 in Python, so compare the JSON text, where they differ
    return json.dumps(payload, sort_keys=True)


def test_integer_valued_counts_give_the_same_results_as_ints():
    ests = [estimate_mu(k, d, UNIT_1D, samples=s) for k, d, s in ((1.0, 1.0, 1e3), (1, 1, 1000))]
    assert canonical(ests[0].to_json()) == canonical(ests[1].to_json())
    assert retention_exponent(2.0, 2.0, 2.0, 1.0) == retention_exponent(2, 2, 2, 1) == 5
    faces = [f.tolist() for f in build_complex(graph(), 2.0).faces_by_dim]
    assert faces == [f.tolist() for f in build_complex(graph(), 2).faces_by_dim]
    report = regime_check(1e4, 1e-4, 1.0, (1.0, 1.0), ("chi", 1.0))
    twin = regime_check(1e4, 1e-4, 1, (1.0, 1.0), ("chi", 1))
    assert canonical(report.to_json()) == canonical(twin.to_json())


def test_config_with_float_counts_runs_as_with_ints():
    floats = {**CONFIG, "n": 3e2, "d": 1.0, "k_max": 2.0, "replications": 4.0,
              "master_seed": 5.0, "statistic": {"kind": "fk", "k": 1.0}}
    configs = [config_from_dict(raw) for raw in (floats, CONFIG)]
    assert canonical(configs[0].to_config()) == canonical(configs[1].to_config())
    rows = [[(res.index, res.f, res.chi, res.n_points) for res in run_experiment(config)]
            for config in configs]
    assert rows[0] == rows[1]


# JSON values: small numbers only, since d and k_max size lists before they
# can be refused (a config with no density builds [0.0] * d)
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-2, 4), st.floats(-4.0, 4.0),
                    st.sampled_from([math.nan, math.inf, -math.inf]), st.text(max_size=3))
JSON = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3)
                    | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=6)
# numbers at and beyond the float range, for every key but d and k_max
HUGE = st.sampled_from([1e308, -1e308, 2**1024, -2**1024])
NUMBERS = JSON | HUGE
ENTRIES = st.lists(SCALARS | HUGE, max_size=4)
CONFIG_VALUES = {  # a valid value or any other, per key
    "model": st.sampled_from(["rips", "cech"]) | JSON,
    "process": st.sampled_from(["binomial", "poisson"]) | JSON,
    "n": st.integers(1, 500) | NUMBERS, "d": st.integers(1, 3) | JSON,
    "k_max": st.integers(0, 3) | JSON, "replications": st.integers(2, 5) | NUMBERS,
    "master_seed": st.integers() | NUMBERS, "r": st.floats(1e-3, 1.0) | NUMBERS,
    "r_exponent": st.floats(-2.0, 2.0) | NUMBERS, "max_predicted_faces": NUMBERS,
    "rho": st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4) | ENTRIES | JSON,
    "rho_exponents": st.lists(st.floats(0.0, 2.0), max_size=4) | st.floats(0.0, 2.0) | ENTRIES
                     | JSON,
    "statistic": st.fixed_dictionaries(
        {"kind": st.sampled_from(["fk", "chi"])}, optional={"k": NUMBERS}) | JSON,
    "density": st.one_of(
        st.fixed_dictionaries({"kind": st.just("uniform-box"), "lo": JSON, "hi": JSON}),
        st.fixed_dictionaries({"kind": st.just("gaussian-isotropic"), "mean": JSON,
                               "sigma": NUMBERS}),
        st.fixed_dictionaries({"kind": st.just("piecewise-constant-grid"), "lo": JSON,
                               "hi": JSON, "weights": JSON}), JSON),
    "region": st.fixed_dictionaries(
        {"kind": st.sampled_from(["all", "box", "box-complement"])},
        optional={"lo": JSON, "hi": JSON}) | JSON,
    "surprise": JSON,
}
DENSITIES = st.sampled_from([None, "uniform", UNIT_1D, UniformBox([0.0, 0.0], [1.0, 1.0]),
                             GaussianIsotropic([0.0], 1.0)])
REGIONS = st.sampled_from([ALL_SPACE, RegionSpec("box", (0.0,), (0.5,)),
                           RegionSpec("box-complement", (0.0, 0.0), (0.5, 0.5)), "all"])
PYTHON_VALUES = {  # the JSON values and tuples, and objects for the three structured keys
    **{key: values | st.tuples(NUMBERS, NUMBERS) for key, values in CONFIG_VALUES.items()
       if key != "surprise"},
    "statistic": st.tuples(st.sampled_from(["fk", "chi"]), NUMBERS) | JSON,
    "density": DENSITIES | JSON, "region": REGIONS | JSON,
}


@st.composite
def edited(draw, bases, values, drops=0):
    """One of ``bases`` with up to two keys redrawn from ``values`` and up to ``drops`` dropped."""
    base = draw(st.sampled_from(bases))
    dropped = draw(st.sets(st.sampled_from(sorted(base)), max_size=drops))
    keys = draw(st.lists(st.sampled_from(sorted(values)), max_size=2, unique=True))
    return {**{key: base[key] for key in base if key not in dropped},
            **{key: draw(values[key]) for key in keys}}


def returns_a_config_or_refuses(make, args):
    try:
        config = make(args)
    except SoftplexError:
        return
    assert isinstance(config, ExperimentConfig)


@settings(max_examples=300)
@given(raw=edited([CONFIG, EXPONENT_RULE], CONFIG_VALUES, drops=1))
def test_config_from_dict_returns_a_config_or_raises_softplex_error(raw):
    returns_a_config_or_refuses(config_from_dict, raw)


@settings(max_examples=300)
@given(kwargs=edited([FIELDS, {**FIELDS, "r": None, "r_exponent": 1.1}], PYTHON_VALUES))
def test_experiment_config_returns_a_config_or_raises_softplex_error(kwargs):
    returns_a_config_or_refuses(lambda args: ExperimentConfig(**args), kwargs)


# vector fields from JSON or Python: numbers at and beyond the float range,
# numeric and other strings, and nestings that may be ragged
ENTRY = SCALARS | HUGE | st.sampled_from(["0.5", "1", "-2"])
VECTOR_JSON = st.lists(ENTRY, min_size=1, max_size=2) | st.recursive(
    ENTRY, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2), max_leaves=6)
DENSITY_CONFIGS = [
    {"kind": "uniform-box", "lo": [0.0, -1.0], "hi": [1.0, 2.0]},
    {"kind": "gaussian-isotropic", "mean": [0.5], "sigma": 1.0},
    {"kind": "piecewise-constant-grid", "lo": [0.0, 0.0], "hi": [1.0, 1.0],
     "weights": [[1.0, 2.0], [0.0, 3]]},
]
REGION_CONFIGS = [{"kind": "all"}, {"kind": "box", "lo": [0.0], "hi": [1.0]},
                  {"kind": "box-complement", "lo": [0.0, -math.inf], "hi": [0.5, 1]}]
CONSTRUCTORS = {  # each class, and the keyword arguments of a valid instance
    UniformBox: {"lo": (0.0,), "hi": [1]},
    GaussianIsotropic: {"mean": [0.0, 1.0], "sigma": 0.5},
    PiecewiseConstantGrid: {"lo": [0.0], "hi": [1.0], "weights": [1.0, 2.0]},
    RegionSpec: {"kind": "box", "lo": (0.0,), "hi": (math.inf,)},
}


def numbers_only(value) -> bool:
    """Whether a value holds ints and floats only, at any depth of lists and tuples."""
    if isinstance(value, (list, tuple)):
        return all(numbers_only(entry) for entry in value)
    return type(value) in (int, float)


def returns_an_object_of_numbers_or_refuses(make, fields, kind):
    try:
        made = make(fields)
    except SoftplexError:
        return
    assert isinstance(made, kind)
    assert all(numbers_only(value) for key, value in fields.items()
               if key != "kind" and value is not None)


def redrawn(bases, values):
    """One of ``bases`` with up to two of its own keys redrawn from ``values``."""
    return st.sampled_from(bases).flatmap(lambda base: edited([base], dict.fromkeys(base, values)))


@settings(max_examples=200)
@given(config=redrawn(DENSITY_CONFIGS, VECTOR_JSON))
def test_density_from_config_returns_a_density_or_raises_softplex_error(config):
    returns_an_object_of_numbers_or_refuses(density_from_config, config, Density)


@settings(max_examples=200)
@given(config=redrawn(REGION_CONFIGS, VECTOR_JSON))
def test_region_from_config_returns_a_region_or_raises_softplex_error(config):
    returns_an_object_of_numbers_or_refuses(region_from_config, config, RegionSpec)


@settings(max_examples=200)
@given(make=st.sampled_from(list(CONSTRUCTORS)), data=st.data())
def test_constructors_return_an_object_or_raise_softplex_error(make, data):
    values = VECTOR_JSON | st.lists(VECTOR_JSON, max_size=3).map(tuple)
    kwargs = data.draw(redrawn([CONSTRUCTORS[make]], values))
    returns_an_object_of_numbers_or_refuses(lambda args: make(**args), kwargs, make)
