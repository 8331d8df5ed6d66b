"""Layer-timed benchmark of softplex on four fixed workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from a checkout that holds ``src/softplex``; it imports the package
from there and refuses to run without it.  The metric names and units come
from ``BENCHMARK.json`` at the root of the checkout.

A run repeats *batches* until ``--seconds`` have passed.  A batch of a
replication workload is one ``run_experiment`` call of ``batch`` replications
with ``master_seed = seed * 10000 + batch index``; a batch of the constants
workload is its fixed list of estimates, seeded the same way.  One replication
of the constants workload is one whole batch.

``--trace 0`` reports the end-to-end metrics with tracing off from two
passes of half the time each: at 1 thread (latency, peak RSS), then at
nproc threads (throughput); the batches both ran must be byte-identical.
``--trace 1`` reports the per-layer metrics from three passes of a third
each: untraced at 1 thread, traced at 1 thread, untraced at nproc threads.
The traced pass re-runs ``replicate_once``'s pipeline through the public
calls of ``point_process``, ``geometry``, ``complexes`` and ``constants``,
records a span around each call and counters at the same boundaries, and
checks every traced row against the untraced one.  The spans stay in memory
and are written to ``.bench_build/trace/`` when the run ends.

Every replication or estimate batch is an operation, and so is every check;
an operation fails when it raises or a check does not hold.  At the default
seed, batch 0's rows must match the SHA-256 pinned in ``digests.json``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_build" / "trace"
DEFAULT_SEED = 1
SETUP_REPEATS = 5  # fresh interpreters per run; setup_s is their median


def batch_seed(seed: int, index: int) -> int:
    return seed * 10_000 + index


def replication_row(index: int, f, chi: int, n_points: int) -> str:
    """One line of the replication table: rep, f_0..f_kmax, chi, n_points."""
    return ",".join(str(int(v)) for v in (index, *f, chi, n_points))


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


class Tracer:
    """Spans (name, start, end, parent, rep) and counters, kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counters: list[dict] = []

    @contextmanager
    def span(self, name: str, rep: int, parent: int | None = None):
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": parent, "rep": rep}
        self.spans.append(record)
        try:
            yield len(self.spans) - 1
        finally:
            record["end"] = time.perf_counter()

    def count(self, name: str, value, rep: int) -> None:
        self.counters.append({"name": name, "value": value, "rep": rep})

    def self_seconds(self) -> dict:
        """{(name, rep): seconds} of each span minus the time its children cover."""
        own = {}
        for record in self.spans:
            own[id(record)] = record["end"] - record["start"]
        for record in self.spans:
            if record["parent"] is not None:
                parent = self.spans[record["parent"]]
                own[id(parent)] -= record["end"] - record["start"]
        out = {}
        for record in self.spans:
            key = (record["name"], record["rep"])
            out[key] = out.get(key, 0.0) + own[id(record)]
        return out

    @staticmethod
    def by_rep(values: dict, name: str) -> dict:
        return {rep: v for (n, rep), v in values.items() if n == name}

    def counter_values(self, name: str) -> dict:
        return {c["rep"]: c["value"] for c in self.counters if c["name"] == name}

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**header, "spans": self.spans, "counters": self.counters}))


@dataclass(frozen=True)
class ReplicationWorkload:
    """``run_experiment`` on one config; one batch is ``batch`` replications."""

    name: str
    experiment: dict  # config_from_dict input without replications / master_seed
    batch: int
    tail_pct: float  # see tail()

    def probe_spec(self) -> dict:
        return {"experiment": self.config_dict(0)}

    def config_dict(self, master_seed: int) -> dict:
        return {**self.experiment, "replications": self.batch, "master_seed": master_seed}

    def config(self, master_seed: int):
        from softplex import config_from_dict

        return config_from_dict(self.config_dict(master_seed))

    def warm_up(self) -> None:
        from softplex.experiments import replicate_once

        replicate_once(self.config(batch_seed(0, 0)), 0)

    def run_batch(self, master_seed: int, threads: int):
        from softplex import run_experiment

        results = run_experiment(self.config(master_seed), threads=threads)
        rows = [replication_row(r.index, r.f, r.chi, r.n_points) for r in results]
        return rows, [r.seconds for r in results]

    def bad_items(self, rows) -> int:
        """Rows that break an invariant every replication of this config keeps."""
        k_max = self.experiment["k_max"]
        whole = self.experiment.get("region", {"kind": "all"})["kind"] == "all"
        bad = 0
        for row in rows:
            _, *f, chi, n_points = (int(v) for v in row.split(","))
            ok = len(f) == k_max + 1 and min(f) >= 0 and n_points >= f[0]
            ok &= chi == sum((-1) ** k * fk for k, fk in enumerate(f))
            if self.experiment["process"] == "binomial":
                ok &= n_points == int(self.experiment["n"])
            if whole:
                ok &= f[0] == n_points
            bad += not ok
        return bad

    def traced_batch(self, master_seed: int, tracer: Tracer, batch_index: int) -> list[str]:
        config = self.config(master_seed)
        return [
            self.traced_replication(config, index, tracer, batch_index * self.batch + index)
            for index in range(config.replications)
        ]

    def traced_replication(self, config, index: int, tracer: Tracer, rep: int) -> str:
        """``replicate_once`` through the public calls, one span per layer."""
        from softplex import (build_cech, build_graph, build_rips, euler_characteristic,
                              face_counts, sample_binomial, sample_poisson, soft_thin)
        from softplex.rng import REPLICATION_STREAM, derive_seed

        k_max = config.k_max
        with tracer.span("replication", rep) as root:
            seed = derive_seed(config.master_seed, REPLICATION_STREAM, index)
            with tracer.span("point_process.sample", rep, root):
                if config.process == "binomial":
                    cloud = sample_binomial(int(config.n), config.density, seed)
                else:
                    cloud = sample_poisson(config.n, config.density, seed)
            tracer.count("point_process.points", len(cloud), rep)
            r = config.radius
            with tracer.span("geometry.graph", rep, root):
                graph = build_graph(cloud, r, seed=seed)
            tracer.count("geometry.edges", graph.edge_count, rep)
            with tracer.span("complexes.join", rep, root):
                complex_ = build_rips(graph, k_max)
            joined = complex_.face_vector()
            for k in (2, 3):
                tracer.count(f"complexes.faces_k{k}", joined[k] if k <= k_max else 0, rep)
            if config.model == "cech":
                # build_cech repeats the graph and the join; the filter is the rest
                with tracer.span("complexes.cech", rep, root):
                    complex_ = build_cech(cloud, r, k_max)
                kept = complex_.face_vector()
                for k in (2, 3):
                    if k <= k_max and joined[k]:
                        tracer.count(f"complexes.cech_keep_k{k}", kept[k] / joined[k], rep)
            before = complex_.face_vector()
            with tracer.span("complexes.thin", rep, root):
                complex_ = soft_thin(complex_, config.retention, seed)
            after = complex_.face_vector()
            for k in (1, 2, 3):
                removed = before[k] - after[k] if k <= k_max else 0
                tracer.count(f"complexes.thin_removed_k{k}", removed, rep)
            if sum(before[1:]):
                tracer.count("complexes.thin_keep_ratio", sum(after[1:]) / sum(before[1:]), rep)
            with tracer.span("complexes.count", rep, root):
                counts = face_counts(complex_, config.region)
                chi = euler_characteristic(counts)
        return replication_row(index, counts.f, chi, len(cloud))

    def layer_metrics(self, tracer: Tracer) -> tuple[dict, dict]:
        """Per-replication medians of each layer, and each layer's total seconds."""
        own = tracer.self_seconds()
        layer = {name: tracer.by_rep(own, name) for name in (
            "point_process.sample", "geometry.graph", "complexes.join",
            "complexes.cech", "complexes.thin", "complexes.count")}
        cech = layer.pop("complexes.cech")
        layer["complexes.cech_filter"] = {
            rep: s - layer["geometry.graph"][rep] - layer["complexes.join"][rep]
            for rep, s in cech.items()
        }
        metrics = {f"{name}_s": _median(per_rep.values()) for name, per_rep in layer.items()}
        for name in ("point_process.points", "geometry.edges", "complexes.faces_k2",
                     "complexes.faces_k3", "complexes.thin_removed_k1",
                     "complexes.thin_removed_k2", "complexes.thin_removed_k3",
                     "complexes.thin_keep_ratio", "complexes.cech_keep_k2",
                     "complexes.cech_keep_k3"):
            metrics[name] = _median(tracer.counter_values(name).values())
        totals = {name: sum(per_rep.values()) for name, per_rep in layer.items()}
        return metrics, totals


@dataclass(frozen=True)
class ConstantsWorkload:
    """A fixed batch of Monte Carlo constant estimates on one density."""

    name: str
    density: dict
    d: int
    estimates: tuple  # (label, kind, k args, samples)
    tail_pct: float = 100.0  # a run holds a handful of batches: the tail is their maximum

    def probe_spec(self) -> dict:
        return {"density": self.density}

    def _estimate(self, kind: str, args: tuple, samples: int, seed: int, threads: int):
        import softplex

        density = softplex.density_from_config(self.density)
        estimate = {"mu": softplex.estimate_mu, "nu": softplex.estimate_nu,
                    "phi": softplex.estimate_phi}[kind]
        return estimate(*args, self.d, density, samples=samples, seed=seed, threads=threads)

    @staticmethod
    def _row(label: str, est) -> str:
        return f"{label},{est.value!r},{est.stderr!r},{est.samples}"

    def warm_up(self) -> None:
        for _, kind, args, _ in self.estimates:
            self._estimate(kind, args, 64, 0, 1)

    def run_batch(self, seed: int, threads: int):
        started = time.perf_counter()
        rows = [self._row(label, self._estimate(kind, args, samples, seed, threads))
                for label, kind, args, samples in self.estimates]
        return rows, [time.perf_counter() - started]

    def bad_items(self, rows) -> int:
        for row, (_, _, _, samples) in zip(rows, self.estimates):
            _, value, stderr, count = row.split(",")
            value, stderr = float(value), float(stderr)
            if not (math.isfinite(value) and value > 0 and math.isfinite(stderr)
                    and 0 <= stderr < value and int(count) == samples):
                return 1
        return 0 if len(rows) == len(self.estimates) else 1

    def traced_batch(self, seed: int, tracer: Tracer, batch_index: int) -> list[str]:
        rows = []
        with tracer.span("batch", batch_index) as root:
            for label, kind, args, samples in self.estimates:
                with tracer.span(f"constants.{label}", batch_index, root):
                    est = self._estimate(kind, args, samples, seed, 1)
                rows.append(self._row(label, est))
        return rows

    def layer_metrics(self, tracer: Tracer) -> tuple[dict, dict]:
        own = tracer.self_seconds()
        layer = {f"constants.{label}": tracer.by_rep(own, f"constants.{label}")
                 for label, *_ in self.estimates}
        metrics = {f"{name}_s": _median(per_rep.values()) for name, per_rep in layer.items()}
        samples = {label: n for label, _, _, n in self.estimates}
        if metrics["constants.mu3_s"] > 0:
            metrics["constants.nu3_over_mu3_per_sample"] = (
                (metrics["constants.nu3_s"] / samples["nu3"])
                / (metrics["constants.mu3_s"] / samples["mu3"])
            )
        totals = {name: sum(per_rep.values()) for name, per_rep in layer.items()}
        return metrics, totals


# Why each workload exists, and the layer it isolates, is recorded in
# BENCHMARK.json and bench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        ReplicationWorkload(
            name="rips-d1-graph",
            experiment={"model": "rips", "process": "binomial", "n": 250_000, "d": 1,
                        "k_max": 1, "statistic": {"kind": "fk", "k": 1},
                        "r_exponent": 1.1, "rho": [1.0]},
            batch=16,
            tail_pct=90.0,
        ),
        ReplicationWorkload(
            name="rips-d2-thin",
            experiment={"model": "rips", "process": "poisson", "n": 5000, "d": 2,
                        "k_max": 3, "statistic": {"kind": "chi"}, "r": 0.02,
                        "rho": [0.7, 0.7, 0.7]},
            batch=8,
            tail_pct=85.0,
        ),
        ReplicationWorkload(
            name="cech-d2-box",
            experiment={"model": "cech", "process": "binomial", "n": 3000, "d": 2,
                        "k_max": 3, "statistic": {"kind": "chi"}, "r": 0.02,
                        "rho": [1.0, 1.0, 1.0],
                        "region": {"kind": "box", "lo": [0.1, 0.1], "hi": [0.9, 0.9]}},
            batch=8,
            tail_pct=55.0,
        ),
        ConstantsWorkload(
            name="constants-d2",
            density={"kind": "uniform-box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]},
            d=2,
            estimates=(
                ("mu1", "mu", (1,), 1_000_000),
                ("mu2", "mu", (2,), 1_000_000),
                ("mu3", "mu", (3,), 1_000_000),
                ("nu2", "nu", (2,), 1_000_000),
                ("phi111", "phi", (1, 1, 1), 1_000_000),
                ("nu3", "nu", (3,), 5_000),
            ),
        ),
    )
}


@dataclass
class Tally:
    """Operations attempted and failed; every failure is reported on stderr."""

    attempted: int = 0
    failed: int = 0

    def items(self, count: int, bad: int, what: str) -> None:
        self.attempted += count
        self.failed += bad
        if bad:
            print(f"FAILED: {what}", file=sys.stderr)

    def check(self, ok: bool, what: str) -> None:
        self.items(1, 0 if ok else 1, what)


@dataclass
class Pass:
    threads: int
    rows: list = field(default_factory=list)  # per batch: list of rows, None if it raised
    seconds: list = field(default_factory=list)  # per replication
    elapsed: float = 0.0

    @property
    def rate(self) -> float:
        return len(self.seconds) / self.elapsed if self.elapsed > 0 else 0.0


def run_pass(workload, seed: int, threads: int, budget: float, tally: Tally) -> Pass:
    """Untraced batches at a fixed thread count until the budget is spent."""
    out = Pass(threads=threads)
    started = time.perf_counter()
    while True:
        index = len(out.rows)
        try:
            rows, seconds = workload.run_batch(batch_seed(seed, index), threads)
        except Exception:
            traceback.print_exc()
            tally.items(1, 1, f"batch {index} at {threads} threads raised")
            rows, seconds = None, []
        else:
            tally.items(len(seconds), workload.bad_items(rows),
                        f"batch {index} at {threads} threads broke a row invariant")
        out.rows.append(rows)
        out.seconds.extend(seconds)
        out.elapsed = time.perf_counter() - started
        if out.elapsed >= budget:
            return out


def compare_passes(first: Pass, second: Pass, tally: Tally) -> None:
    for index, (a, b) in enumerate(zip(first.rows, second.rows)):
        tally.check(a is not None and a == b,
                    f"batch {index}: rows differ between {first.threads} and "
                    f"{second.threads} threads")


def traced_pass(workload, seed: int, budget: float, tally: Tally, reference: Pass,
                tracer: Tracer) -> Pass:
    """Traced batches at 1 thread, each row checked against the untraced one."""
    out = Pass(threads=1)
    started = time.perf_counter()
    for index, expected in enumerate(reference.rows):
        try:
            rows = workload.traced_batch(batch_seed(seed, index), tracer, index)
        except Exception:
            traceback.print_exc()
            tally.items(1, 1, f"traced batch {index} raised")
            rows = None
        out.rows.append(rows)
        if rows is not None:
            expected = expected or []
            for pos in range(max(len(rows), len(expected))):
                got = rows[pos] if pos < len(rows) else None
                want = expected[pos] if pos < len(expected) else None
                tally.check(got is not None and got == want,
                            f"traced batch {index} row {pos}: {got} != {want}")
        out.elapsed = time.perf_counter() - started
        if out.elapsed >= budget:
            break
    return out


def warm_up(workload, tally: Tally) -> None:
    """One untimed replication, so that lazy set-up is done before timing."""
    try:
        workload.warm_up()
    except Exception:
        traceback.print_exc()
        tally.items(1, 1, "warm-up raised")


def digest(rows) -> str:
    return hashlib.sha256("".join(row + "\n" for row in rows).encode()).hexdigest()


def measure_setup(workload, tally: Tally) -> list[float]:
    """Seconds of set-up in SETUP_REPEATS fresh interpreters."""
    spec = json.dumps(workload.probe_spec())
    samples = []
    for _ in range(SETUP_REPEATS):
        try:
            done = subprocess.run(
                [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), spec],
                capture_output=True, text=True, timeout=120, check=True,
            )
            samples.append(float(done.stdout.split()[-1]))
        except (subprocess.SubprocessError, ValueError, IndexError) as exc:
            tally.check(False, f"set-up probe failed: {exc}")
    return samples


def tail(seconds: list, pct: float) -> tuple[float, int]:
    """The workload's tail percentile of replication seconds, and the samples beyond it.

    Each workload fixes the highest percentile that had at least ten samples
    beyond it in the 1-thread half of a run of BENCHMARK.json's length when
    the benchmark was added, so that a faster commit, which completes more
    replications, is compared at the same percentile.
    """
    import numpy as np

    if not seconds:  # every batch raised
        return 0.0, 0
    value = float(np.percentile(seconds, pct))
    return value, sum(s > value for s in seconds)


def end_to_end(workload, seed: int, seconds: float, tally: Tally, pinned: dict | None):
    nproc = len(os.sched_getaffinity(0))
    setup = measure_setup(workload, tally)
    warm_up(workload, tally)
    # Latency comes from the pass at 1 thread: at nproc threads, replications
    # that hold the GIL wait for each other, and that wait follows the host's
    # load.  The peak RSS of the nproc pass depends on how the threads'
    # allocations overlap; the peak after the 1-thread pass repeats.
    single = run_pass(workload, seed, 1, seconds / 2.0, tally)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    parallel = run_pass(workload, seed, nproc, seconds / 2.0, tally)
    compare_passes(single, parallel, tally)
    check_digest(workload, seed, single, tally, pinned)
    value, beyond = tail(single.seconds, workload.tail_pct)
    metrics = {
        "reps_per_s": parallel.rate,
        "rep_s_p50": _median(single.seconds),
        "rep_s_tail": value,
        "setup_s": _median(setup),
        "peak_rss_mb": peak_mb,
    }
    notes = [
        f"{len(parallel.seconds)} replications at {nproc} threads, "
        f"{len(single.seconds)} at 1 thread",
        f"rep_s_tail is p{workload.tail_pct:g} of {len(single.seconds)} replications, "
        f"{beyond} beyond it",
        f"setup_s samples {[round(s, 4) for s in setup]}",
        f"peak RSS after the nproc pass "
        f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0:.1f} MB",
    ]
    if isinstance(workload, ConstantsWorkload):
        notes.append(f"constants_batch_s {metrics['rep_s_p50']!r} s (= rep_s_p50 here)")
    return metrics, notes


def per_layer(workload, seed: int, seconds: float, tally: Tally, pinned: dict | None):
    nproc = len(os.sched_getaffinity(0))
    warm_up(workload, tally)
    share = seconds / 3.0
    single = run_pass(workload, seed, 1, share, tally)
    tracer = Tracer()
    traced = traced_pass(workload, seed, share, tally, single, tracer)
    parallel = run_pass(workload, seed, nproc, share, tally)
    compare_passes(single, parallel, tally)
    check_digest(workload, seed, single, tally, pinned)

    metrics, totals = workload.layer_metrics(tracer)
    traced_per_batch = traced.elapsed / max(len(traced.rows), 1)
    single_per_batch = single.elapsed / len(single.rows)
    metrics["experiments.reps_per_s_1t"] = single.rate
    metrics["experiments.parallel_eff"] = (
        parallel.rate / (nproc * single.rate) if single.rate > 0 else 0.0)
    metrics["trace.overhead_ratio"] = traced_per_batch / single_per_batch - 1.0

    tracer.write(TRACE_DIR / f"{workload.name}-seed{seed}.json",
                 {"workload": workload.name, "seed": seed, "layer_totals_s": totals})
    layer_sum = sum(totals.values())
    notes = [f"threads {nproc}; traced {len(traced.rows)} of {len(single.rows)} batches"]
    notes += [f"share {name} {100.0 * t / layer_sum:.1f}%" for name, t in totals.items()
              if layer_sum > 0]
    return metrics, notes


def check_digest(workload, seed: int, first: Pass, tally: Tally, pinned: dict | None) -> None:
    rows = first.rows[0] if first.rows else None
    if rows is None:
        return
    got = digest(rows)
    print(f"info digest batch0 {got}")
    if seed == DEFAULT_SEED:
        want = (pinned or {}).get(workload.name)
        tally.check(got == want, f"batch 0 digest {got} != pinned {want}")


def load_metric_units(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {entry["name"]: entry["unit"] for entry in section}


def load_pinned() -> dict:
    pinned = json.loads((BENCH_DIR / "digests.json").read_text())
    if pinned["seed"] != DEFAULT_SEED:
        raise SystemExit("digests.json is pinned for another default seed")
    return pinned["sha256"]


def import_softplex() -> None:
    """Import the package from this checkout's src/, and from nowhere else."""
    if not (SRC / "softplex" / "__init__.py").is_file():
        raise SystemExit(f"no softplex sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import softplex

    if Path(softplex.__file__).resolve().parent != (SRC / "softplex").resolve():
        raise SystemExit(f"imported softplex from {softplex.__file__}, not from {SRC}")


def main(argv=None, workloads=None, pinned=None) -> dict:
    """Run one workload and print its metrics; returns the result object."""
    workloads = WORKLOADS if workloads is None else workloads
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    units = load_metric_units(args.trace)
    import_softplex()
    pinned = load_pinned() if pinned is None else pinned
    workload = workloads[args.workload]
    tally = Tally()
    measure = per_layer if args.trace else end_to_end
    values, notes = measure(workload, args.seed, args.seconds, tally, pinned)

    metrics = {}
    for name, unit in units.items():
        # a layer that the workload never enters reads 0
        value = float(values.get(name, 0.0) if args.trace else values[name])
        metrics[name] = {"value": value, "unit": unit}
        print(f"metric {name} {value!r} {unit}")
    for note in notes:
        print(f"info {note}")
    rate = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"info error_rate {rate!r} ({tally.failed} of {tally.attempted} operations failed)")
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return result


if __name__ == "__main__":
    main()
