"""Monte Carlo estimation of the limit constants and closed-form predictions.

Face-count asymptotics in the sparse regime are governed by constants of the
form

    (1/(j! (k+1-j)! (l+1-j)!)) * integral_A f(x)^{k+l+2-j} dx
        * integral over (R^d)^{k+l+1-j} of the unit-scale indicator,

the covariance coefficient of a k-face and an l-face sharing j vertices,
where the indicator requires both vertex tuples (each containing the origin)
to span a complete graph at threshold 1 (clique flavor) or to fit in a ball
of radius 1/2 (ball flavor).  A k-face is exactly the full-overlap pair
(k, k, j = k + 1), so the face constants mu_k / nu_k and the pair constants
phi / theta come from one estimator.  Both factors are estimated
independently (outer: draws from the density; inner: uniform draws from the
unit ball, whose support contains the indicator), and the standard errors
combine by the delta method.

The closed-form side evaluates predicted means, variances, and covariances
in log space from (n, r, rho) plus estimated constants, through one scale
prod_i p_i^{e_i} * n^{k+l+2-j} * r^{d(k+l+1-j)} with e_i the joint
retention exponent; the face growth quantity is its (k, k, k + 1) case.  It
also checks regime hypotheses (sparsity, growth, vanishing of higher faces)
against finite-size proxy thresholds.  Two exact finite-n forms for Poisson
clouds of the uniform density, E f1 on the unit square and the d = 1
variance and covariance ratios, are kept next to the asymptotic ones.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .complexes import _min_ball_radii
from .densities import Density
from .errors import ConfigurationError, InputError
from .geometry import ALL_SPACE, RegionSpec, region_mask
from .rng import MC_INNER_STREAM, MC_OUTER_STREAM, generator, standard_normals

_SHARD = 1 << 20  # samples per shard; fixed so results never depend on threads


@dataclass(frozen=True)
class ConstantEstimate:
    value: float
    stderr: float
    samples: int
    kind: str  # "mu", "nu", "phi", or "theta"
    k: int
    l: int | None = None
    j: int | None = None
    region: RegionSpec = ALL_SPACE

    def to_json(self) -> dict:
        out = {
            "value": self.value,
            "stderr": self.stderr,
            "samples": self.samples,
            "params": {"kind": self.kind, "k": self.k, "region": self.region.to_config()},
        }
        if self.l is not None:
            out["params"]["l"] = self.l
        if self.j is not None:
            out["params"]["j"] = self.j
        return out


def _binom(a: int, b: int) -> int:
    return math.comb(a, b) if 0 <= b <= a else 0


def retention_exponent(k: int, l: int, j: int, i: int) -> int:
    """Exponent of p_i in the joint survival of a k-face and an l-face sharing j vertices."""
    if min(k, l, j, i) < 0:
        raise InputError("retention_exponent arguments must be nonnegative")
    if j > min(k, l) + 1:
        raise InputError(f"shared count j={j} exceeds min(k,l)+1={min(k, l) + 1}")
    if not 1 <= i <= max(k, l):
        raise InputError(f"coin index i={i} outside 1..max(k,l)={max(k, l)}")
    return _binom(k + 1, i + 1) + _binom(l + 1, i + 1) - _binom(j, i + 1)


def unit_ball_volume(d: int) -> float:
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def _sample_unit_ball(rng, count: int, d: int) -> np.ndarray:
    """Uniform draws from the unit ball, Box-Muller direction method."""
    if d == 1:
        return (2.0 * rng.random((count, 1))) - 1.0
    z = standard_normals(rng, count * d).reshape(count, d)
    norms = np.sqrt(np.einsum("ij,ij->i", z, z))
    norms[norms == 0] = 1.0
    radii = rng.random(count) ** (1.0 / d)
    return z * (radii / norms)[:, None]


def _mean_and_se(total: float, total_sq: float, count: int) -> tuple[float, float]:
    mean = total / count
    var = max(total_sq / count - mean * mean, 0.0)
    return mean, math.sqrt(var / count)


def _shard_sizes(samples: int, shard: int) -> list[int]:
    full, rest = divmod(samples, shard)
    return [shard] * full + ([rest] if rest else [])


def _sharded_sums(worker, samples: int, shard: int, threads: int | None) -> tuple[float, float]:
    """Map worker(shard_index, size) -> (sum, sum_sq) over fixed sample shards.

    Each shard draws from its own derived stream, and the merge is a plain
    sum, so the estimate is identical for any worker count.
    """
    sizes = _shard_sizes(samples, shard)
    tasks = list(enumerate(sizes))
    if threads is None or threads <= 1 or len(tasks) == 1:
        parts = [worker(idx, size) for idx, size in tasks]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(lambda t: worker(*t), tasks))
    return float(sum(p[0] for p in parts)), float(sum(p[1] for p in parts))


def _outer_factor(power: int, density: Density, region: RegionSpec,
                  samples: int, seed: int, threads: int | None = None) -> tuple[float, float]:
    """Estimate integral_A f(x)^{power+1} dx by sampling x ~ f."""

    def worker(index: int, size: int):
        x = density.sample(generator(seed, MC_OUTER_STREAM, index), size)
        vals = density.pdf(x) ** power if power else np.ones(size)
        if region.kind != "all":
            vals = vals * region_mask(x, region)
        return float(vals.sum()), float((vals * vals).sum())

    total, total_sq = _sharded_sums(worker, samples, _SHARD, threads)
    return _mean_and_se(total, total_sq, samples)


def _clique_indicator(origin_block: np.ndarray) -> np.ndarray:
    """All pairwise distances at most 1 among {0, x_1, ..., x_m}."""
    m = origin_block.shape[1]
    ok = np.ones(origin_block.shape[0], dtype=bool)
    for a in range(m):
        sq = np.einsum("ij,ij->i", origin_block[:, a], origin_block[:, a])
        ok &= sq <= 1.0
        for b in range(a + 1, m):
            diff = origin_block[:, a] - origin_block[:, b]
            ok &= np.einsum("ij,ij->i", diff, diff) <= 1.0
    return ok


def _ball_indicator(block: np.ndarray, columns: list[int]) -> np.ndarray:
    """Smallest ball enclosing the origin and block[:, columns] has radius at most 1/2."""
    count, _, d = block.shape
    # (m, d, count) planes, the kernel's working layout, filled point by
    # point: a fancy-indexed copy of the block would add to peak memory
    planes = np.zeros((len(columns) + 1, d, count))
    for slot, column in enumerate(columns, start=1):
        planes[slot] = block[:, column].T
    return _min_ball_radii(planes.transpose(2, 0, 1)) <= 0.5


def _tuple_indicator(block: np.ndarray, members: list[int], flavor: str) -> np.ndarray:
    """Admissibility of the sub-tuple at the given member indices (0 = origin)."""
    columns = [idx - 1 for idx in members if idx != 0]
    if flavor == "rips":
        return _clique_indicator(block[:, columns])
    return _ball_indicator(block, columns)


def _inner_factor(inner_points: int, d: int, member_lists: list[list[int]], flavor: str,
                  samples: int, seed: int, threads: int | None = None) -> tuple[float, float]:
    """Estimate the unit-scale indicator integral over (R^d)^inner_points.

    The indicator vanishes unless every sampled point lies in the unit ball
    around the origin (all tuples contain the origin and are admissible at
    scale 1), so uniform sampling from B(0,1)^inner_points with the matching
    volume factor is exact.  Each distinct member list is tested once.
    """
    if inner_points == 0:
        return 1.0, 0.0
    volume = unit_ball_volume(d) ** inner_points
    distinct = list(dict.fromkeys(tuple(members) for members in member_lists))

    def worker(index: int, size: int):
        rng = generator(seed, MC_INNER_STREAM, index)
        block = _sample_unit_ball(rng, size * inner_points, d).reshape(size, inner_points, d)
        ok = np.ones(size, dtype=bool)
        for members in distinct:
            ok &= _tuple_indicator(block, members, flavor)
        hits = float(ok.sum())
        return hits, hits  # indicator: squares equal values

    shard = max(1, _SHARD // max(inner_points, 1))
    total, total_sq = _sharded_sums(worker, samples, shard, threads)
    mean, se = _mean_and_se(total, total_sq, samples)
    return mean * volume, se * volume


def _product_estimate(coeff: float, outer: tuple[float, float],
                      inner: tuple[float, float]) -> tuple[float, float]:
    value = coeff * outer[0] * inner[0]
    stderr = coeff * math.sqrt((outer[0] * inner[1]) ** 2 + (inner[0] * outer[1]) ** 2)
    return value, stderr


# constant kind -> (complex flavor, whether it couples two faces)
_KINDS = {"mu": ("rips", False), "nu": ("cech", False),
          "phi": ("rips", True), "theta": ("cech", True)}
# complex flavor -> (face constant kind, pair constant kind)
_FLAVOR_KINDS = {"rips": ("mu", "phi"), "cech": ("nu", "theta")}


def _estimate(kind: str, k: int, l: int | None, j: int | None, d: int, density: Density,
              region: RegionSpec, samples: int, seed: int,
              threads: int | None) -> ConstantEstimate:
    """Any constant kind; a face constant (no l or j) is the pair (k, k, k + 1)."""
    flavor, pair = _KINDS[kind]
    if pair and (l is None or j is None):
        raise ConfigurationError(f"kind {kind!r} requires l and j")
    if not pair and (l is not None or j is not None):
        raise ConfigurationError(f"kind {kind!r} takes no l or j")
    l, j = (l, j) if pair else (k, k + 1)
    if k < 0 or l < 0:
        raise InputError("face dimensions must be nonnegative")
    if not 1 <= j <= min(k, l) + 1:
        raise InputError(f"overlap j={j} outside 1..min(k,l)+1={min(k, l) + 1}")
    if samples < 1:
        raise InputError(f"samples must be >= 1, got {samples}")
    if density.dimension != d:
        raise InputError(f"density dimension {density.dimension} != d={d}")
    inner_points = k + l + 1 - j
    outer = _outer_factor(inner_points, density, region, samples, seed, threads)
    first = list(range(k + 1))
    second = list(range(j)) + list(range(k + 1, k + l + 2 - j))
    inner = _inner_factor(inner_points, d, [first, second], flavor, samples, seed, threads)
    coeff = 1.0 / (math.factorial(j) * math.factorial(k + 1 - j) * math.factorial(l + 1 - j))
    value, stderr = _product_estimate(coeff, outer, inner)
    return ConstantEstimate(value=value, stderr=stderr, samples=samples, kind=kind, k=k,
                            l=l if pair else None, j=j if pair else None, region=region)


def estimate_mu(k, d, density, region=ALL_SPACE, samples=1_000_000, seed=0, threads=None):
    """Clique face constant mu_k: the coefficient of E and var of f_k over n^{k+1} r^{dk}."""
    return _estimate("mu", k, None, None, d, density, region, samples, seed, threads)


def estimate_nu(k, d, density, region=ALL_SPACE, samples=1_000_000, seed=0, threads=None):
    """Ball face constant nu_k: the coefficient of E and var of f_k over n^{k+1} r^{dk}."""
    return _estimate("nu", k, None, None, d, density, region, samples, seed, threads)


def estimate_phi(k, l, j, d, density, region=ALL_SPACE, samples=1_000_000, seed=0, threads=None):
    """Clique covariance coefficient of a k-face and an l-face sharing j vertices."""
    return _estimate("phi", k, l, j, d, density, region, samples, seed, threads)


def estimate_theta(k, l, j, d, density, region=ALL_SPACE, samples=1_000_000, seed=0, threads=None):
    """Ball covariance coefficient of a k-face and an l-face sharing j vertices."""
    return _estimate("theta", k, l, j, d, density, region, samples, seed, threads)


def _log_or_zero(value: float) -> float:
    if value < 0:
        raise InputError("probabilities and scales must be nonnegative")
    return math.log(value) if value > 0 else -math.inf


def _log_rho_product(rho, exponents) -> float:
    total = 0.0
    for p, e in zip(rho, exponents):
        if e == 0:
            continue
        total += e * _log_or_zero(p)
    return total


def _log_scale(n: float, r: float, d: int, rho, k: int, l: int, j: int) -> float:
    """log of prod p_i^e_i * n^{k+l+2-j} * r^{d(k+l+1-j)}, e_i = retention_exponent(k, l, j, i)."""
    rho = list(rho)
    if len(rho) < max(k, l):
        raise ConfigurationError(f"rho of length {len(rho)} too short for k={k}, l={l}")
    exponents = [retention_exponent(k, l, j, i) for i in range(1, max(k, l) + 1)]
    return (
        _log_rho_product(rho, exponents)
        + (k + l + 2 - j) * math.log(n)
        + d * (k + l + 1 - j) * _log_or_zero(r)
    )


def log_growth_quantity(n: float, r: float, d: int, rho, k: int) -> float:
    """log of prod p_i^C(k+1,i+1) * n^{k+1} * r^{dk}: the scale of the pair (k, k, k + 1)."""
    return _log_scale(n, r, d, rho, k, k, k + 1)


@dataclass(frozen=True)
class MomentPrediction:
    mean: float
    variance: float
    covariance: float | None = None

    def to_json(self) -> dict:
        out = {"mean": self.mean, "variance": self.variance}
        if self.covariance is not None:
            out["covariance"] = self.covariance
        return out


def _find_constant(constants, kind: str, k: int, l=None, j=None) -> ConstantEstimate:
    for c in constants:
        if c.kind == kind and c.k == k and c.l == l and c.j == j:
            return c
    raise ConfigurationError(f"missing constant estimate ({kind}, k={k}, l={l}, j={j})")


def predicted_moments(n: float, r: float, d: int, rho, k: int, l: int | None = None,
                      constants=(), flavor: str = "rips") -> MomentPrediction:
    """Asymptotic mean/variance of f_k, and covariance with f_l when requested.

    The k = 0 case uses the Poisson-process values: mean and variance both
    equal the region mass times n.
    """
    if flavor not in _FLAVOR_KINDS:
        raise ConfigurationError(f"flavor must be 'rips' or 'cech', got {flavor!r}")
    face_kind, pair_kind = _FLAVOR_KINDS[flavor]
    if k == 0:
        mass = _find_constant(constants, face_kind, 0).value
        mean = variance = mass * n
    else:
        face = _find_constant(constants, face_kind, k).value
        mean = variance = face * math.exp(log_growth_quantity(n, r, d, rho, k))
    covariance = None
    if l is not None:
        covariance = 0.0
        for j in range(1, min(k, l) + 2):
            pair = _find_constant(constants, pair_kind, k, l, j).value
            covariance += pair * math.exp(_log_scale(n, r, d, rho, k, l, j))
    return MomentPrediction(mean=mean, variance=variance, covariance=covariance)


def poisson_unit_square_mean_f1(n: float, r: float) -> float:
    """Exact E f1 of the threshold graph on a Poisson(n) cloud on [0, 1]^2, for 0 < r <= 1.

    By the Mecke formula E f1 = n^2 / 2 * P(|X - Y| <= r) for independent
    uniform X, Y on the unit square, and that probability is
    pi r^2 - 8 r^3 / 3 + r^4 / 2 for r <= 1.  The infinite-domain value
    n^2 pi r^2 / 2 ignores the boundary and overshoots it.
    """
    if not 0 < r <= 1:
        raise InputError(f"the unit-square form needs 0 < r <= 1, got {r}")
    return n * n / 2.0 * (math.pi * r * r - 8.0 * r**3 / 3.0 + r**4 / 2.0)


def poisson_d1_ratios(n: float, r: float) -> tuple[float, float]:
    """Exact var(f1)/var(f0) and cov(f1,f0)/var(f0) for a Poisson(n) cloud on [0, 1], r <= 1/2.

    var(f0) = n and E f1 = n^2 (2r - r^2) / 2.  By the Mecke formula
    cov(f1, f0) = 2 E f1.  f1 is a U-statistic of order 2, so
    var(f1) = E f1 + n^3 int_0^1 l(x)^2 dx, where l(x) = |[x-r, x+r] & [0, 1]|
    and int l^2 = 4r^2 - 10r^3/3 for r <= 1/2.
    """
    if not 0 < r <= 0.5:
        raise InputError(f"the d = 1 ratio forms need 0 < r <= 1/2, got {r}")
    mean_f1 = n * n * (2.0 * r - r * r) / 2.0
    var_ratio = mean_f1 / n + n * n * (4.0 * r * r - 10.0 * r**3 / 3.0)
    cov_ratio = 2.0 * mean_f1 / n
    return var_ratio, cov_ratio


@dataclass(frozen=True)
class RegimeReport:
    n: float
    r: float
    d: int
    rho: tuple
    mode: str  # "fk" or "chi"
    k_or_l: int
    quantities: dict = field(default_factory=dict)
    flags: dict = field(default_factory=dict)
    thresholds: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(self.flags.values())

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "d": self.d,
            "rho": list(self.rho),
            "mode": self.mode,
            "k_or_l": self.k_or_l,
            "quantities": dict(self.quantities),
            "flags": dict(self.flags),
            "thresholds": dict(self.thresholds),
            "ok": self.ok,
        }


def regime_check(n: float, r: float, d: int, rho, mode: tuple[str, int],
                 sparse_threshold: float = 0.1, growth_threshold: float = 100.0,
                 vanish_threshold: float = 0.1) -> RegimeReport:
    """Finite-size proxies for the hypotheses behind the limit statements.

    mode ("fk", k): requires sparsity (n r^d small) and a diverging growth
    quantity for dimension k.  mode ("chi", l): additionally requires the
    growth quantity one dimension up to vanish, so faces above dimension l
    disappear.
    """
    kind, level = mode
    if kind not in ("fk", "chi") or level < 0:
        raise InputError(f"mode must be ('fk', k>=0) or ('chi', l>=0), got {mode}")
    rho = tuple(float(p) for p in rho)
    nrd = math.exp(math.log(n) + d * _log_or_zero(r))
    quantities = {"nr^d": nrd}
    flags = {"sparse_ok": nrd < sparse_threshold}
    thresholds = {"sparse": sparse_threshold, "growth": growth_threshold}
    growth = math.exp(log_growth_quantity(n, r, d, rho, level))
    quantities[f"growth_{'k' if kind == 'fk' else 'l'}{level}"] = growth
    flags["growth_ok"] = growth > growth_threshold
    if kind == "chi":
        vanish = math.exp(log_growth_quantity(n, r, d, rho, level + 1))
        quantities[f"vanish_l{level + 1}"] = vanish
        flags["vanish_ok"] = vanish < vanish_threshold
        thresholds["vanish"] = vanish_threshold
    return RegimeReport(n=float(n), r=float(r), d=int(d), rho=rho, mode=kind,
                        k_or_l=int(level), quantities=quantities, flags=flags,
                        thresholds=thresholds)
