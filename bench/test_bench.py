"""Fast self-check of the benchmark harness at tiny sizes.

    python3 -m pytest bench -q
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

_spec = importlib.util.spec_from_file_location("softplex_bench", BENCH_DIR / "run.py")
bench = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = bench
_spec.loader.exec_module(bench)
bench.import_softplex()


def _tiny(name: str, **experiment):
    workload = bench.WORKLOADS[name]
    return replace(workload, experiment={**workload.experiment, **experiment}, batch=3)


TINY = {
    "rips-d1-graph": _tiny("rips-d1-graph", n=2000),
    "rips-d2-thin": _tiny("rips-d2-thin", n=300, r=0.08),
    "cech-d2-box": _tiny("cech-d2-box", n=200, r=0.1),
    "constants-d2": replace(
        bench.WORKLOADS["constants-d2"],
        estimates=tuple((label, kind, args, 300) for label, kind, args, _ in
                        bench.WORKLOADS["constants-d2"].estimates),
    ),
}

# the layer each workload exists to isolate; its time must be measured
OWN_LAYER = {
    "rips-d1-graph": "geometry.graph_s",
    "rips-d2-thin": "complexes.thin_s",
    "cech-d2-box": "complexes.cech_filter_s",
    "constants-d2": "constants.nu3_s",
}


@pytest.fixture(autouse=True)
def _quick(monkeypatch, tmp_path):
    monkeypatch.setattr(bench, "SETUP_REPEATS", 1)
    monkeypatch.setattr(bench, "TRACE_DIR", tmp_path / "trace")


def _run(capsys, workload: str, trace: int, seed: int, pinned: dict):
    result = bench.main(
        ["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        workloads=TINY, pinned=pinned,
    )
    lines = capsys.readouterr().out.strip().splitlines()
    assert json.loads(lines[-1]) == result
    return result, lines


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_metric_is_printed_with_its_unit(capsys, workload, trace):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer"] if trace else declared["end_to_end"]
    result, lines = _run(capsys, workload, trace, seed=2, pinned={})
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [entry["name"] for entry in section]
    for entry in section:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert f"metric {entry['name']} {metric['value']!r} {entry['unit']}" in lines
        if not trace:
            assert metric["value"] > 0, entry["name"]
    if trace:
        assert result["metrics"][OWN_LAYER[workload]]["value"] > 0


@pytest.mark.parametrize("workload", ["rips-d2-thin", "constants-d2"])
def test_pinned_digest_is_checked_at_the_default_seed(capsys, workload):
    result, lines = _run(capsys, workload, 0, bench.DEFAULT_SEED, {workload: "0" * 64})
    assert not result["correct"] and result["failed"] >= 1
    rate = next(line for line in lines if line.startswith("info error_rate "))
    assert float(rate.split()[2]) > 0
    got = next(line for line in lines if line.startswith("info digest batch0 ")).split()[-1]
    result, _ = _run(capsys, workload, 0, bench.DEFAULT_SEED, {workload: got})
    assert result["correct"] and result["failed"] == 0


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_pipeline_matches_untraced(workload):
    spec = TINY[workload]
    tracer = bench.Tracer()
    untraced, _ = spec.run_batch(bench.batch_seed(5, 0), 1)
    traced = spec.traced_batch(bench.batch_seed(5, 0), tracer, 0)
    assert traced == untraced
    metrics, totals = spec.layer_metrics(tracer)
    assert metrics[OWN_LAYER[workload]] > 0 and sum(totals.values()) > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "rips-d1-graph", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
