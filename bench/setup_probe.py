"""Time softplex's set-up for one workload in a fresh interpreter.

Usage: python3 bench/setup_probe.py SRC_DIR CONFIG_JSON

CONFIG_JSON is {"experiment": {...}} for a replication workload or
{"density": {...}} for the constants workload.  The probe times everything
before a workload's first timed call: ``import softplex`` (numpy and scipy
included), parsing the config, and, for an experiment, the memory-guard
bound.  It prints the seconds as one number.
"""

import json
import sys
import time


def main() -> None:
    src, raw = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    started = time.perf_counter()
    import softplex
    from softplex.experiments import predicted_face_bound

    spec = json.loads(raw)
    if "experiment" in spec:
        predicted_face_bound(softplex.config_from_dict(spec["experiment"]))
    else:
        softplex.density_from_config(spec["density"])
    print(repr(time.perf_counter() - started))


if __name__ == "__main__":
    main()
