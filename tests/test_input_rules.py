"""The count rule and the retention rule, at every library entry point that takes them.

A count (points, face dimensions, replications, samples, seeds) is an
integer-valued number: 1e3 and 2.0 pass as ints, and bools, fractions,
infinities and NaN are refused with a SoftplexError, never truncated and
never left to fail later as a TypeError, ValueError or OverflowError.  A
retention vector is long enough and lies in [0, 1] wherever it is taken, and
a NaN radius is not read as r = 0.
"""

import json
import math

import pytest

from softplex import (
    ConfigurationError,
    ConstantEstimate,
    ExperimentConfig,
    InputError,
    SoftplexError,
    UniformBox,
    build_complex,
    build_graph,
    config_from_dict,
    estimate_mu,
    predicted_moments,
    regime_check,
    retention_exponent,
    run_experiment,
    sample_binomial,
)
from softplex.errors import count

UNIT_1D = UniformBox(lo=[0.0], hi=[1.0])
MU1 = ConstantEstimate(value=1.0, stderr=0.0, samples=1, kind="mu", k=1)
CONFIG = {
    "model": "rips", "process": "binomial", "n": 300, "d": 1, "k_max": 2,
    "replications": 4, "master_seed": 5, "statistic": {"kind": "fk", "k": 1}, "r": 0.003,
}


def graph():
    return build_graph(sample_binomial(50, UNIT_1D, 3), 0.05)


def experiment(**overrides):
    fields = dict(model="rips", process="binomial", n=300, d=1, k_max=2, replications=4,
                  master_seed=5, statistic=("fk", 1), r=0.003)
    return ExperimentConfig(**{**fields, **overrides})


REFUSED = {
    "regime-rho-above-one": lambda: regime_check(100, 0.1, 1, (2, 2), ("fk", 1)),
    "regime-n-zero": lambda: regime_check(0, 0.1, 1, (1.0,), ("fk", 1)),
    "regime-n-inf": lambda: regime_check(math.inf, 0.1, 1, (1.0,), ("fk", 1)),
    "regime-r-nan": lambda: regime_check(100, math.nan, 1, (1.0,), ("fk", 1)),
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
