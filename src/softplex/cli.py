"""Command-line entry point.

Subcommands: sample (point clouds to CSV), build (complex face dumps),
constants (Monte Carlo constant estimation to JSON), experiment run /
experiment report (replication tables and CLT reports), and regime
(hypothesis proxy checks).  Each is a thin shell: one reader per input kind,
one library call, one writer per output kind.  JSON-valued flags (--config,
--density, --region) take an inline object (text starting with '{') or a
file path.  Every artifact embeds the fully-resolved configuration, and
reruns with the same config and seed are byte-identical regardless of the
worker count; no artifact holds NaN or an infinity.  Malformed input logs one
ERROR line and exits 1; a refused allocation, predicted or real, exits 2.
The report's normal quantiles import scipy where they are taken, so the other
subcommands start without it.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from itertools import chain

import numpy as np

from .complexes import build_complex
from .constants import _estimate, regime_check
from .densities import UniformBox, GaussianIsotropic, density_from_config
from .errors import (ConfigurationError, DegenerateSampleError, MemoryGuardError,
                     SoftplexError, count)
from .geometry import ALL_SPACE, build_graph, region_from_config
from .experiments import (ReplicationResult, clt_report, config_from_dict, normalize,
                          run_experiment, statistic_samples)
from .point_process import sample_binomial, sample_poisson

log = logging.getLogger("softplex")


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ConfigurationError, so main reports them like any other input."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigurationError(f"{self.prog}: {message}")


def _canonical_json(payload) -> str:
    try:
        return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)
    except ValueError as exc:
        raise ConfigurationError(f"an artifact cannot hold NaN or an infinity ({exc})") from None


def _fmt(value) -> str:
    return repr(float(value))


def _parse_count(text: str) -> int:
    return count(float(text), "the value", None, argparse.ArgumentTypeError)


def _parse_number(text: str) -> int | float:
    return int(value) if (value := float(text)).is_integer() else value


def _parse_rho(text: str) -> tuple:
    return tuple(float(v) for v in text.split(","))


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from None


def _load_json(spec: str):
    """The value of a JSON flag: an inline object (text starting with '{') or a file path."""
    inline = spec.lstrip().startswith("{")
    try:
        return json.loads(spec if inline else _read_text(spec))
    except json.JSONDecodeError as exc:
        source = "inline JSON" if inline else spec
        raise ConfigurationError(
            f"malformed JSON in {source} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None


def _parse_density(spec: str, d: int):
    if spec == "uniform":
        return UniformBox(lo=[0.0] * d, hi=[1.0] * d)
    if spec == "gaussian":
        return GaussianIsotropic(mean=[0.0] * d, sigma=1.0)
    return density_from_config(_load_json(spec))


def _results_header(k_max: int) -> list[str]:
    return ["rep"] + [f"f{k}" for k in range(k_max + 1)] + ["chi", "n_points"]


def _read_results_csv(path: str, header: list[str]) -> list[ReplicationResult]:
    lines = [line.strip() for line in _read_text(path).splitlines()]
    lines = [line for line in lines if line and not line.startswith("#")]
    if len(lines) < 2:
        raise ConfigurationError(f"results file {path} has no data rows")
    if lines[0].split(",") != header:
        raise ConfigurationError(f"results header {lines[0]} does not match config ({header})")
    try:
        rows = [[int(cell) for cell in line.split(",")] for line in lines[1:]]
    except ValueError as exc:
        raise ConfigurationError(f"results file {path}: {exc}") from None
    if any(len(row) != len(header) for row in rows):
        raise ConfigurationError(f"results file {path} has rows of another width than its header")
    return [ReplicationResult(index=row[0], f=tuple(row[1:-2]), chi=row[-2], n_points=row[-1],
                              seconds=0.0) for row in rows]


def _write_lines(path: str, lines) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines(lines)
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path}: {exc}") from None


def _write_csv(path: str, header: list[str], rows, config_payload) -> None:
    _write_lines(path, chain([f"# config {_canonical_json(config_payload)}\n",
                              ",".join(header) + "\n"],
                             (",".join(str(v) for v in row) + "\n" for row in rows)))


def _write_json(path: str, payload) -> None:
    _write_lines(path, [_canonical_json(payload) + "\n"])


def _thread_count(args) -> int | None:
    """Worker count from --threads, else SOFTPLEX_THREADS, else None (the default)."""
    threads, source = args.threads, "--threads"
    if threads is None:
        threads, source = os.environ.get("SOFTPLEX_THREADS") or None, "SOFTPLEX_THREADS"
    try:  # one rule for both: a count >= 1 in any notation _parse_count takes
        return None if threads is None else count(float(threads), source, 1, ConfigurationError)
    except ValueError:
        raise ConfigurationError(f"{source} must be a count, got {threads!r}") from None


def _cmd_sample(args) -> int:
    density = _parse_density(args.density, args.d)
    cloud = (sample_poisson if args.poisson else sample_binomial)(args.n, density, args.seed)
    payload = {"subcommand": "sample", "n": args.n, "poisson": args.poisson,
               "density": density.to_config(), "seed": args.seed}
    header = [f"x{i}" for i in range(cloud.dimension)]
    _write_csv(args.out, header, (map(_fmt, row) for row in cloud.points), payload)
    log.info("wrote %d points to %s", len(cloud), args.out)
    return 0


def _cmd_build(args) -> int:
    density = _parse_density(args.density, args.d)
    cloud = sample_binomial(args.n, density, args.seed)
    payload = {"subcommand": "build", "model": args.model, "n": args.n, "r": args.r,
               "kmax": args.kmax, "density": density.to_config(), "rho": args.rho,
               "seed": args.seed}
    complex_ = build_complex(build_graph(cloud, args.r), args.kmax, args.model, args.rho,
                             args.seed)
    edges = complex_.faces_by_dim[1] if args.kmax >= 1 else np.empty((0, 2), np.int64)
    _write_csv(f"{args.out}.edges.csv", ["i", "j"], edges.tolist(), payload)
    for dim, faces in enumerate(complex_.faces_by_dim):
        header = [f"v{c}" for c in range(dim + 1)]
        _write_csv(f"{args.out}.dim{dim}.csv", header, faces.tolist(), payload)
    log.info("face vector %s written under prefix %s", complex_.face_vector(), args.out)
    return 0


def _cmd_constants(args) -> int:
    density = _parse_density(args.density, args.d)
    region = region_from_config(_load_json(args.region)) if args.region else ALL_SPACE
    est = _estimate(args.kind, args.k, args.l, args.j, args.d, density, region, args.samples,
                    args.seed, _thread_count(args))
    payload = est.to_json()
    payload["params"].update({"d": args.d, "density": density.to_config(), "seed": args.seed})
    _write_json(args.out, payload)
    log.info("%s estimate %.6g +/- %.2g -> %s", args.kind, est.value, est.stderr, args.out)
    return 0


def _resolved_config(args) -> "ExperimentConfig":
    raw = _load_json(args.config)
    if not isinstance(raw, dict):
        raise ConfigurationError("experiment config must be a JSON object")
    overrides = {"n": args.n, "r": args.r, "k_max": args.kmax, "master_seed": args.seed}
    for key, value in overrides.items():
        if value is not None:
            raw[key] = value
            if key == "r":
                raw.pop("r_exponent", None)
    return config_from_dict(raw)


def _cmd_experiment_run(args) -> int:
    config = _resolved_config(args)
    results = run_experiment(config, threads=_thread_count(args))
    rows = [[res.index, *res.f, res.chi, res.n_points] for res in results]
    _write_csv(args.out, _results_header(config.k_max), rows, config.to_config())
    log.info("%d replications in %.2fs total work time -> %s", len(results),
             sum(res.seconds for res in results), args.out)
    return 0


def _cmd_experiment_report(args) -> int:
    from scipy.special import ndtri

    config = _resolved_config(args)
    results = _read_results_csv(args.results, _results_header(config.k_max))
    report = clt_report(results, config)
    z = np.sort(statistic_samples(results, config))
    try:
        z = normalize(z)
    except DegenerateSampleError:
        z *= 0.0  # a negative constant statistic writes -0.0
    theoretical = ndtri((np.arange(1, len(z) + 1) - 0.5) / len(z))
    _write_json(args.out, {"config": config.to_config(), "report": report.to_json()})
    qq_path = os.path.splitext(args.out)[0] + ".qq.csv"
    _write_csv(qq_path, ["theoretical", "empirical"],
               ([_fmt(t), _fmt(e)] for t, e in zip(theoretical, z)), config.to_config())
    log.info("report -> %s, qq plot data -> %s", args.out, qq_path)
    return 0


def _cmd_regime(args) -> int:
    rho = args.rho if args.rho is not None else (1.0,) * max(args.k + 1, 2)
    try:
        r = args.r if args.a is None else args.n ** (-args.a / args.d)
    except ArithmeticError:  # d = 0 or n = 0, which regime_check names, or an overflow
        r = math.inf
    report = regime_check(args.n, r, args.d, rho, (args.mode, args.k),
                          sparse_threshold=args.sparse_threshold,
                          growth_threshold=args.growth_threshold,
                          vanish_threshold=args.vanish_threshold)
    sys.stdout.write(_canonical_json(report.to_json()) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="softplex", description="Simulation and statistical verification "
                     "of soft random geometric complexes")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    cloud = _Parser(add_help=False)  # the flags of sample and build
    cloud.add_argument("--n", type=_parse_number, required=True)
    cloud.add_argument("--density", default="uniform",
                       help="uniform, gaussian, or density JSON (inline object or file path)")
    cloud.add_argument("--d", type=_parse_count, default=1)
    cloud.add_argument("--seed", type=_parse_count, default=0)
    cloud.add_argument("--out", required=True, help="output path (a prefix for build)")

    p_sample = sub.add_parser("sample", parents=[cloud], help="sample a point cloud to CSV")
    p_sample.add_argument("--poisson", action="store_true",
                          help="treat --n as a Poisson intensity")
    p_sample.set_defaults(func=_cmd_sample)

    p_build = sub.add_parser("build", parents=[cloud],
                             help="build a complex and dump faces per dimension")
    p_build.add_argument("--model", choices=["rips", "cech"], default="rips")
    p_build.add_argument("--r", type=float, required=True)
    p_build.add_argument("--kmax", type=_parse_count, default=4)
    p_build.add_argument("--rho", type=_parse_rho, default=None,
                         help="comma-separated retention probabilities p1,p2,...")
    p_build.set_defaults(func=_cmd_build)

    p_const = sub.add_parser("constants", help="Monte Carlo constant estimation")
    p_const.add_argument("--kind", choices=["mu", "nu", "phi", "theta"], required=True)
    p_const.add_argument("--k", type=_parse_count, required=True)
    p_const.add_argument("--l", type=_parse_count, default=None)
    p_const.add_argument("--j", type=_parse_count, default=None)
    p_const.add_argument("--d", type=_parse_count, required=True)
    p_const.add_argument("--density", default="uniform",
                         help="uniform, gaussian, or density JSON (inline object or file path)")
    p_const.add_argument("--region", default=None,
                         help="region JSON (inline object or file path), default all space")
    p_const.add_argument("--samples", type=_parse_count, default=1_000_000)
    p_const.add_argument("--seed", type=_parse_count, default=0)
    p_const.add_argument("--threads", type=_parse_count, default=None)
    p_const.add_argument("--out", required=True)
    p_const.set_defaults(func=_cmd_constants)

    p_exp = sub.add_parser("experiment", help="replicated simulations")
    exp_sub = p_exp.add_subparsers(dest="experiment_command", required=True)

    experiment = _Parser(add_help=False)  # the flags of experiment run and report
    experiment.add_argument("--config", required=True,
                            help="experiment JSON (inline object or file path)")
    experiment.add_argument("--out", required=True)
    experiment.add_argument("--n", type=_parse_number, default=None)
    experiment.add_argument("--r", type=float, default=None)
    experiment.add_argument("--kmax", type=_parse_count, default=None)
    experiment.add_argument("--seed", type=_parse_count, default=None)

    p_run = exp_sub.add_parser("run", parents=[experiment],
                               help="run replications to a CSV table")
    p_run.add_argument("--threads", type=_parse_count, default=None)
    p_run.set_defaults(func=_cmd_experiment_run)

    p_rep = exp_sub.add_parser("report", parents=[experiment],
                               help="CLT report from a results CSV")
    p_rep.add_argument("--in", dest="results", required=True)
    p_rep.set_defaults(func=_cmd_experiment_report)

    p_reg = sub.add_parser("regime", help="check regime hypotheses for (n, r, rho)")
    p_reg.add_argument("--n", type=float, required=True)
    p_reg.add_argument("--d", type=_parse_count, required=True)
    radius = p_reg.add_mutually_exclusive_group(required=True)
    radius.add_argument("--r", type=float)
    radius.add_argument("--a", type=float, help="rule r^d = n^(-a)")
    p_reg.add_argument("--k", type=_parse_count, required=True,
                       help="face dimension k (or l for chi)")
    p_reg.add_argument("--mode", choices=["fk", "chi"], default="fk")
    p_reg.add_argument("--rho", type=_parse_rho, default=None)
    p_reg.add_argument("--sparse-threshold", type=float, default=0.1)
    p_reg.add_argument("--growth-threshold", type=float, default=100.0)
    p_reg.add_argument("--vanish-threshold", type=float, default=0.1)
    p_reg.set_defaults(func=_cmd_regime)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (MemoryGuardError, MemoryError) as exc:  # the guard's cap, or the machine's
        log.error("refused: %s", exc)
        return 2
    except SoftplexError as exc:
        log.error("%s", exc)
        return 1


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
