"""Replicated end-to-end simulations and distributional diagnostics.

One replication samples a cloud, builds the threshold graph, builds the
clique or ball complex up to k_max with its downward-closed thinning applied
as it goes, and records the region-restricted face counts and Euler
characteristic.  Replications are independent work items seeded by
hash(master_seed, index), so the results are bit-identical for any worker
count.  On top of the replication table sit the normality diagnostics:
z-scores (by a MomentPrediction when one is given, else by the sample's own
moments), the Kolmogorov-Smirnov distance to the standard normal, sample
moments, and the variance-ratio comparisons against the vertex count.  The
KS distance imports scipy's normal CDF where it is taken, so a run that only
replicates never loads scipy.
"""

from __future__ import annotations

import math
import time
from dataclasses import MISSING, asdict, dataclass, field, fields, replace

import numpy as np

from . import errors
from .complexes import _retention, build_complex, euler_characteristic, face_counts
from .constants import MomentPrediction, _log_unit_ball_volume, _map_in_order
from .densities import Density, UniformBox, density_from_config
from .errors import (ConfigurationError, DegenerateSampleError, InputError, MemoryGuardError,
                     count, real)
from .geometry import ALL_SPACE, RegionSpec, build_graph, region_from_config
from .point_process import sample_binomial, sample_poisson
from .rng import REPLICATION_STREAM, derive_seed

DEFAULT_FACE_CAP = 5e7


@dataclass(frozen=True)
class ExperimentConfig:
    model: str  # "rips" or "cech"
    process: str  # "binomial" or "poisson"
    n: float  # n for binomial, intensity for poisson
    d: int
    k_max: int
    replications: int
    master_seed: int
    statistic: tuple  # ("fk", k) or ("chi",)
    density: Density = None
    r: float | None = None
    r_exponent: float | None = None  # r^d = n^(-a)
    rho: tuple | None = None
    rho_exponents: tuple | None = None  # p_i = n^(-b_i)
    region: RegionSpec = ALL_SPACE
    max_predicted_faces: float = DEFAULT_FACE_CAP
    radius: float = field(init=False, repr=False)  # r, or the r_exponent rule, evaluated
    retention: tuple = field(init=False, repr=False)  # rho, or the rho_exponents rule, evaluated

    def __post_init__(self):
        if self.model not in ("rips", "cech"):
            raise ConfigurationError(f"model must be 'rips' or 'cech', got {self.model!r}")
        if self.process not in ("binomial", "poisson"):
            raise ConfigurationError(f"process must be 'binomial' or 'poisson', got {self.process!r}")
        for name, least in (("d", 1), ("k_max", 0), ("replications", 2), ("master_seed", None)):
            value = count(getattr(self, name), name, least, ConfigurationError)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "n", real(self.n, f"{self.process} n", 1, ConfigurationError))
        if self.process == "binomial":
            count(self.n, "binomial n", 1, ConfigurationError)
        if (self.r is None) == (self.r_exponent is None):
            raise ConfigurationError("exactly one of r / r_exponent must be given")
        for name, least in (("r", 0), ("r_exponent", None), ("max_predicted_faces", 0)):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, real(getattr(self, name), name, least,
                                                    ConfigurationError))
        if self.rho is not None and self.rho_exponents is not None:
            raise ConfigurationError("give at most one of rho / rho_exponents")
        statistic = tuple(self.statistic) if isinstance(self.statistic, (tuple, list)) else ()
        if len(statistic) == 2 and statistic[0] == "fk":
            k = count(statistic[1], "statistic k", 0, ConfigurationError)
            if k > self.k_max:
                raise ConfigurationError(f"statistic ('fk', k) requires k <= k_max, got k={k}")
            object.__setattr__(self, "statistic", ("fk", k))
        elif statistic != ("chi",):
            raise ConfigurationError("statistic must be ('fk', k) or ('chi',)")
        density = self.density
        if density is None:
            density = UniformBox(lo=[0.0] * self.d, hi=[1.0] * self.d)
            object.__setattr__(self, "density", density)
        if density.dimension != self.d:
            raise ConfigurationError(f"density dimension {density.dimension} != d={self.d}")
        rho = self.rho if self.rho is not None else (1.0,) * max(self.k_max, 1)
        try:  # the rules r^d = n^-a and p_i = n^-b_i may round to 0 or overflow
            radius = self.r if self.r is not None else self.n ** (-self.r_exponent / self.d)
            object.__setattr__(self, "radius", real(radius, "the radius", 0, ConfigurationError))
            if self.rho_exponents is not None:
                rho = tuple(float(self.n ** -real(b, "rho exponent", error=ConfigurationError))
                            for b in self.rho_exponents)
        except OverflowError:
            raise ConfigurationError("r_exponent or rho_exponents overflow a float") from None
        object.__setattr__(self, "retention", _retention(rho, self.k_max))
        if self.rho is not None:
            object.__setattr__(self, "rho", self.retention)

    def to_config(self) -> dict:
        out = {
            "model": self.model,
            "process": self.process,
            "n": self.n,
            "d": self.d,
            "k_max": self.k_max,
            "replications": self.replications,
            "master_seed": self.master_seed,
            "statistic": {"kind": self.statistic[0]},
            "density": self.density.to_config(),
            "region": self.region.to_config(),
            "max_predicted_faces": self.max_predicted_faces,
        }
        if self.statistic[0] == "fk":
            out["statistic"]["k"] = self.statistic[1]
        if self.r is not None:
            out["r"] = self.r
        else:
            out["r_exponent"] = self.r_exponent
        if self.rho is not None:
            out["rho"] = list(self.rho)
        if self.rho_exponents is not None:
            out["rho_exponents"] = list(self.rho_exponents)
        return out


_CONFIG_KEYS = {f.name for f in fields(ExperimentConfig) if f.init}
_REQUIRED_KEYS = {f.name for f in fields(ExperimentConfig)
                  if f.init and f.default is MISSING and f.default_factory is MISSING}


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Parse a JSON experiment description, rejecting unknown keys."""
    if not isinstance(raw, dict):
        raise ConfigurationError("experiment config must be a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
    missing = _REQUIRED_KEYS - set(raw)
    if missing:
        raise ConfigurationError(f"missing config keys: {sorted(missing)}")
    nulls = sorted(key for key, value in raw.items() if value is None)
    if nulls:
        raise ConfigurationError(f"config keys may not be null: {nulls}")
    density = density_from_config(raw["density"]) if "density" in raw else None
    region = region_from_config(raw["region"]) if "region" in raw else ALL_SPACE
    stat_raw = raw["statistic"]
    if not isinstance(stat_raw, dict) or "kind" not in stat_raw:
        raise ConfigurationError("statistic must be an object with a 'kind'")
    try:
        if stat_raw["kind"] == "fk":
            if set(stat_raw) != {"kind", "k"}:
                raise ConfigurationError("statistic 'fk' takes exactly the field 'k'")
            statistic = ("fk", stat_raw["k"])
        elif stat_raw["kind"] == "chi":
            if set(stat_raw) != {"kind"}:
                raise ConfigurationError("statistic 'chi' takes no extra fields")
            statistic = ("chi",)
        else:
            raise ConfigurationError(f"unknown statistic kind {stat_raw['kind']!r}")
        # the region is checked above but not passed on: see test_config_from_dict_keeps_region
        given = {key: raw[key] for key in raw if key not in ("statistic", "density", "region")}
        return ExperimentConfig(**given, statistic=statistic, density=density)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"experiment config has a malformed field: {exc}") from None


@dataclass(frozen=True)
class ReplicationResult:
    index: int
    f: tuple  # region-restricted face counts by dimension
    chi: int
    n_points: int
    seconds: float

    def __post_init__(self):
        if self.chi != sum((-1) ** k * fk for k, fk in enumerate(self.f)):
            raise InputError("chi must equal the alternating sum of the face counts")


def predicted_face_bound(config: ExperimentConfig) -> float:
    """Crude upper bound on the expected total face count, for the memory guard.

    E[#(k+1)-cliques] <= n^{k+1} (theta_d r^d ||f||_inf)^k / (k+1)! with theta_d
    the unit-ball volume; evaluated in log space, where it is defined at any d.
    """
    n = config.n + 6.0 * math.sqrt(config.n) if config.process == "poisson" else config.n
    d = config.d
    log_unit = (_log_unit_ball_volume(d) + d * math.log(config.radius)
                + math.log(config.density.sup_norm))
    total = 0.0
    for k in range(config.k_max + 1):
        log_term = (k + 1) * math.log(n) + k * log_unit - math.lgamma(k + 2)
        total += math.exp(min(log_term, 700.0))
    return total


def replicate_once(config: ExperimentConfig, index: int) -> ReplicationResult:
    started = time.perf_counter()
    seed = derive_seed(config.master_seed, REPLICATION_STREAM, index)
    if config.process == "binomial":
        cloud = sample_binomial(int(config.n), config.density, seed)
    else:
        cloud = sample_poisson(config.n, config.density, seed)
    complex_ = build_complex(build_graph(cloud, config.radius), config.k_max, config.model,
                             config.retention, seed)
    counts = face_counts(complex_, config.region)
    return ReplicationResult(
        index=index,
        f=counts.f,
        chi=euler_characteristic(counts),
        n_points=len(cloud),
        seconds=time.perf_counter() - started,
    )


def run_experiment(config: ExperimentConfig, threads: int | None = None) -> list[ReplicationResult]:
    """All replications in index order, parallel over a thread pool (`_map_in_order`)."""
    bound = predicted_face_bound(config)
    if bound > config.max_predicted_faces:
        raise MemoryGuardError(
            f"predicted face count {bound:.3g} exceeds cap {config.max_predicted_faces:.3g}; "
            "reduce n, r, or k_max, or raise max_predicted_faces"
        )
    return _map_in_order(lambda i: replicate_once(config, i), range(config.replications), threads)


def statistic_samples(results: list[ReplicationResult], config: ExperimentConfig) -> np.ndarray:
    if config.statistic[0] == "fk":
        k = config.statistic[1]
        return np.asarray([res.f[k] for res in results], dtype=np.float64)
    return np.asarray([res.chi for res in results], dtype=np.float64)


def normalize(samples, predicted: MomentPrediction | None = None) -> np.ndarray:
    """z-scores (x - mean)/sqrt(variance): the predicted moments when given, else the sample's."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size < 2:
        raise InputError("normalization requires at least 2 samples")
    if predicted is None:
        center = samples.mean()
        scale = samples.var()  # population normalization: z-scores have unit variance
        if scale == 0.0:
            raise DegenerateSampleError("all samples identical; empirical variance is zero")
    else:
        center = real(predicted.mean, "predicted mean")
        scale = real(predicted.variance, "predicted variance", 0)
    return (samples - center) / math.sqrt(scale)


def ks_statistic(z) -> float:
    """Sup distance between the empirical CDF of z and the standard normal CDF."""
    from scipy.special import ndtr

    z = np.sort(np.asarray(z, dtype=np.float64))
    if z.size == 0:
        raise InputError("KS statistic of an empty sample is undefined")
    if np.isnan(z).any():
        raise InputError("KS statistic of a sample holding NaN is undefined")
    count = z.size
    cdf = ndtr(z)
    upper = np.arange(1, count + 1) / count - cdf
    lower = cdf - np.arange(0, count) / count
    return float(max(upper.max(), lower.max()))


def kolmogorov_threshold(count: int, level: float = 0.01) -> float:
    """Asymptotic critical value c(alpha)/sqrt(R); c(0.01) = 1.63."""
    critical = {0.10: 1.22, 0.05: 1.36, 0.01: 1.63}.get(level)
    if critical is None:
        raise InputError(f"no tabulated critical value for level {level}")
    return critical / math.sqrt(errors.count(count, "sample count", 1))


def moment_diagnostics(z) -> dict:
    """Sample skewness, excess kurtosis, and the Jarque-Bera statistic."""
    z = np.asarray(z, dtype=np.float64)
    if z.size < 2:
        raise InputError("moment diagnostics require at least 2 samples")
    centered = z - z.mean()
    m2 = float(np.mean(centered**2))
    if m2 == 0.0:
        raise DegenerateSampleError("all samples identical; moments are degenerate")
    skew = float(np.mean(centered**3) / m2**1.5)
    kurt = float(np.mean(centered**4) / m2**2 - 3.0)
    jb = z.size / 6.0 * (skew**2 + kurt**2 / 4.0)
    return {"skewness": skew, "excess_kurtosis": kurt, "jarque_bera": jb}


def variance_ratio_report(results: list[ReplicationResult], config: ExperimentConfig) -> dict:
    """Empirical covariance matrix of (f_0..f_kmax, chi) and variance ratios."""
    table = np.asarray([list(res.f) + [res.chi] for res in results], dtype=np.float64)
    cov = np.cov(table, rowvar=False, ddof=1)
    cov = np.atleast_2d(cov)
    var_f0 = cov[0, 0]
    chi_idx = table.shape[1] - 1

    def ratio(num: float) -> float:
        if num == 0.0:
            return 0.0
        return float(num / var_f0) if var_f0 > 0 else math.nan

    out = {
        "covariance": cov.tolist(),
        "var_f0": float(var_f0),
        "var_chi_over_var_f0": ratio(cov[chi_idx, chi_idx]),
    }
    for k in range(1, config.k_max + 1):
        out[f"var_f{k}_over_var_f0"] = ratio(cov[k, k])
        out[f"cov_f{k}_f0_over_var_f0"] = ratio(cov[k, 0])
    return out


@dataclass(frozen=True)
class CltReport:
    sample_size: int
    empirical_mean: float
    empirical_variance: float
    predicted_mean: float | None
    predicted_variance: float | None
    z_scores: tuple = field(repr=False)
    ks_distance: float = 0.0
    skewness: float = 0.0
    excess_kurtosis: float = 0.0
    jarque_bera: float = 0.0
    variance_ratios: dict = field(default_factory=dict)

    @property
    def normalization(self) -> str:
        return "empirical" if self.predicted_mean is None else "predicted"

    def to_json(self) -> dict:
        def value(x):  # a statistic that has no value (NaN) is written as null
            return None if isinstance(x, float) and math.isnan(x) else x

        out = {key: value(x) for key, x in asdict(self).items()}
        ratios = {key: value(x) for key, x in self.variance_ratios.items()}
        return {**out, "variance_ratios": ratios, "normalization": self.normalization}


def clt_report(results: list[ReplicationResult], config: ExperimentConfig,
               predicted: MomentPrediction | None = None) -> CltReport:
    """Normality diagnostics of the statistic, normalized by ``predicted`` when it is given."""
    samples = statistic_samples(results, config)
    try:
        z = normalize(samples, predicted)
        moments = moment_diagnostics(z)
    except DegenerateSampleError:
        # constant statistic: report the degenerate sample instead of failing
        spread = dict(empirical_variance=0.0, z_scores=(), ks_distance=math.nan,
                      skewness=math.nan, excess_kurtosis=math.nan, jarque_bera=math.nan)
    else:
        spread = dict(empirical_variance=float(samples.var(ddof=1)),
                      z_scores=tuple(float(v) for v in z), ks_distance=ks_statistic(z), **moments)
    return CltReport(
        sample_size=len(samples),
        empirical_mean=float(samples.mean()),
        predicted_mean=None if predicted is None else predicted.mean,
        predicted_variance=None if predicted is None else predicted.variance,
        variance_ratios=variance_ratio_report(results, config),
        **spread,
    )


def depoisson_compare(config: ExperimentConfig, threads: int | None = None) -> dict:
    """Run the same setup with a fixed-n and a Poisson vertex set, side by side.

    Both runs estimate the same asymptotic mean; the report carries each
    empirical mean, variance, and KS distance plus the mean difference in
    units of its joint standard error; a zero difference is 0 sigmas, even
    when neither run varies.
    """
    def report(process: str) -> CltReport:
        cfg = replace(config, process=process)
        return clt_report(run_experiment(cfg, threads=threads), cfg)

    binomial, poisson = report("binomial"), report("poisson")
    mean_diff = binomial.empirical_mean - poisson.empirical_mean
    joint_se = math.sqrt(binomial.empirical_variance / binomial.sample_size
                         + poisson.empirical_variance / poisson.sample_size)
    return {
        "binomial": binomial,
        "poisson": poisson,
        "mean_difference": mean_diff,
        "joint_stderr": joint_se,
        "mean_difference_sigmas": (mean_diff / joint_se if joint_se > 0
                                   else math.inf if mean_diff else 0.0),
    }
