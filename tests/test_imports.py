"""Which scipy modules a call loads, read from sys.modules in a fresh interpreter.

`import softplex` loads numpy only.  A d = 1 replication and a constant on
the uniform box never load scipy; a Gaussian density factor loads
scipy.special, and a d >= 2 graph loads scipy.spatial, on their first call.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import json, sys

def loaded():
    return sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))

seen = {}
import softplex
seen["import"] = loaded()
config = softplex.config_from_dict({"model": "rips", "process": "binomial", "n": 50, "d": 1,
                                    "k_max": 2, "replications": 2, "master_seed": 3,
                                    "statistic": {"kind": "fk", "k": 1}, "r": 0.02})
softplex.run_experiment(config, threads=2)
seen["d1-run"] = loaded()
softplex.estimate_mu(2, 2, softplex.UniformBox([0, 0], [1, 1]), samples=1000)
seen["uniform-constant"] = loaded()
softplex.GaussianIsotropic([0, 0], 1.0).power_integral(1)
seen["gaussian-factor"] = loaded()
softplex.build_graph(softplex.sample_binomial(20, softplex.UniformBox([0, 0], [1, 1]), 1), 0.3)
seen["d2-graph"] = loaded()
print(json.dumps(seen))
"""


def test_scipy_loads_only_where_a_call_needs_it():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["import"] == []
    assert seen["d1-run"] == []
    assert seen["uniform-constant"] == []
    assert "scipy.special" in seen["gaussian-factor"]
    assert "scipy.spatial" not in seen["gaussian-factor"]
    assert "scipy.spatial" in seen["d2-graph"]
