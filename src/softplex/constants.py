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

The samples fall into fixed shards, each drawn from its own derived stream,
and one thread pool runs the shards of both factors.  An inner shard draws
all its uniforms first, in the stream's fixed order (the Box-Muller pairs,
then the radii), and then works through even blocks of at most _BLOCK
tuples.  A block's points become origin-prefixed (m + 1, d, rows)
coordinate planes, each plane a contiguous row of a cache-sized array, and
the scaling into the unit ball, the clique distances and the enclosing-ball
kernel all run on those planes.  On whole-shard (size, m, d) rows each
pass would be an inner loop of d elements over arrays of millions of
doubles, bound by memory.  Blocks change how the work is cut, not a value:
every step is elementwise or per tuple, so the estimates do not depend on
the block length.  That is why the length is a fixed constant and not a
parameter: it would select nothing but speed, and its best value is set by
the cache.  Squared lengths are the sums np.einsum("ij,ij->i") takes over
contiguous rows, as in the row-wise code.  einsum adds three or more
coordinates in its own SIMD-lane order, which a plane-by-plane sum does not
follow, so from d = 3 on the planes go back to rows for einsum; in d <= 2
every order gives the same sum and the planes are added directly.

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
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .complexes import _min_ball_radii
from .densities import Density
from .errors import ConfigurationError, InputError
from .geometry import ALL_SPACE, RegionSpec, region_mask
from .rng import MC_INNER_STREAM, MC_OUTER_STREAM, box_muller, box_muller_radii, generator

# samples per shard of the outer factor (the inner one takes _SHARD // m
# tuples of m points); shards are fixed, so results never depend on threads
_SHARD = 1 << 20
# tuples per block of the inner kernel: the planes of a block of 2-4 point
# tuples in d = 2 take 0.2-0.6 MB and stay in a core's cache
_BLOCK = 1 << 13


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


def _mean_and_se(total: float, total_sq: float, count: int) -> tuple[float, float]:
    mean = total / count
    var = max(total_sq / count - mean * mean, 0.0)
    return mean, math.sqrt(var / count)


def _shard_sizes(samples: int, shard: int) -> list[int]:
    full, rest = divmod(samples, shard)
    return [shard] * full + ([rest] if rest else [])


def _sharded_sums(jobs, samples: int, threads: int | None) -> list[tuple[float, float]]:
    """(sum, sum_sq) of each job (worker, shard) over fixed sample shards.

    worker(shard_index, size) returns one shard's (sum, sum_sq).  Each shard
    draws from its own derived stream and a job's merge is a plain sum in
    shard order, so the sums are identical for any worker count.  One pool
    runs the shards of every job, so the jobs overlap.
    """
    tasks = [(job, index, size) for job, (_, shard) in enumerate(jobs)
             for index, size in enumerate(_shard_sizes(samples, shard))]

    def run(task):
        job, index, size = task
        return jobs[job][0](index, size)

    if threads is None or threads <= 1 or len(tasks) == 1:
        parts = [run(task) for task in tasks]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(run, tasks))
    sums = [(0.0, 0.0)] * len(jobs)
    for (job, _, _), (total, total_sq) in zip(tasks, parts):
        sums[job] = (sums[job][0] + total, sums[job][1] + total_sq)
    return sums


def _outer_worker(power: int, density: Density, region: RegionSpec, seed: int):
    """Shard worker of integral_A f(x)^{power+1} dx, sampling x ~ f."""

    def worker(index: int, size: int):
        x = density.sample(generator(seed, MC_OUTER_STREAM, index), size)
        vals = density.pdf(x) if power else np.ones(size)
        if power > 1:
            vals **= power
        if region.kind != "all":
            vals *= region_mask(x, region)
        return float(vals.sum()), float((vals * vals).sum())

    return worker


def _sum_of_squares(planes: np.ndarray) -> np.ndarray:
    """Sum over the leading (coordinate) axis of planes ** 2, as np.einsum sums a row.

    Up to two coordinates every order of the sum is the same, so the planes
    are added directly.  From three coordinates on, einsum's order is its
    own (it adds a row in SIMD lanes), so the planes are copied to
    contiguous rows and einsum sums them.
    """
    if planes.shape[0] > 2:
        rows = np.moveaxis(planes, 0, -1).copy()
        return np.einsum("...i,...i->...", rows, rows)
    sq = planes[0] * planes[0]
    for plane in planes[1:]:
        sq += plane * plane
    return sq


def _admissible(planes: np.ndarray, member_lists, flavor: str) -> np.ndarray:
    """Whether every member list's tuple of (m, d, rows) planes is a face at scale 1.

    Plane 0 is the origin.  A clique needs all pairwise distances at most 1;
    a ball tuple needs its smallest enclosing ball to have radius at most 1/2.
    """
    ok = np.ones(planes.shape[2], dtype=bool)
    for members in member_lists:
        if flavor == "rips":
            for a, b in combinations(members, 2):
                ok &= _sum_of_squares(planes[b] - planes[a]) <= 1.0
        else:
            ok &= _min_ball_radii(planes[list(members)].transpose(2, 0, 1)) <= 0.5
    return ok


def _inner_worker(m: int, d: int, member_lists, flavor: str, seed: int):
    """Shard worker of the unit-scale indicator integral over (R^d)^m.

    A shard draws its uniforms for the whole shard, in the stream's fixed
    order: for d >= 2 the Box-Muller pairs u1 and u2 of size * m
    directions, then one radius draw per point; for d = 1 one coordinate per
    point.  The Box-Muller radii of u1 are taken once, over the whole shard.
    Everything else runs on blocks of at most _BLOCK tuples: a block's
    normals, scaled into the unit ball, become origin-prefixed
    (m + 1, d, rows) coordinate planes, and its tuples are tested on those
    planes.  The blocks split a shard evenly, so a block holds one tuple
    only when its shard does: from d = 3 on, the enclosing-ball kernel's
    einsums add the coordinates of a one-tuple block in another order.
    """

    def worker(index: int, size: int):
        rng = generator(seed, MC_INNER_STREAM, index)
        if d == 1:
            coords = rng.random(size * m)
        else:
            pairs = (size * m * d + 1) // 2
            lengths = box_muller_radii(rng.random(pairs))  # from u1, in place
            u2 = rng.random(pairs)
            radii = rng.random(size * m)
        ok = np.empty(size, dtype=bool)
        blocks = -(-size // _BLOCK)
        for part in range(blocks):
            lo, hi = part * size // blocks, (part + 1) * size // blocks
            rows = hi - lo
            planes = np.zeros((m + 1, d, rows))
            points = planes[1:]  # (m, d, rows); point a of tuple t is draw (lo + t) * m + a
            if d == 1:
                points[:, 0] = coords[lo * m:hi * m].reshape(rows, m).T
                points *= 2.0
                points -= 1.0
            else:
                normals = box_muller(lengths, u2, lo * m * d, np.empty(rows * m * d))
                points[...] = normals.reshape(rows, m, d).transpose(1, 2, 0)
                norms = np.sqrt(_sum_of_squares(points.transpose(1, 0, 2)))
                norms[norms == 0] = 1.0
                scale = (radii[lo * m:hi * m] ** (1.0 / d)).reshape(rows, m).T / norms
                points *= scale[:, None, :]
            ok[lo:hi] = _admissible(planes, member_lists, flavor)
        hits = float(ok.sum())
        return hits, hits  # indicator: squares equal values

    return worker


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


def _sample_count(samples) -> int:
    """samples as an int: integer-valued numbers pass (1e6 is 1000000), anything else fails."""
    integral = isinstance(samples, numbers.Integral) or (
        isinstance(samples, numbers.Real) and float(samples).is_integer())
    if isinstance(samples, bool) or not integral:
        raise InputError(f"samples must be an integer-valued number, got {samples!r}")
    if samples < 1:
        raise InputError(f"samples must be >= 1, got {samples}")
    return int(samples)


def _estimate(kind: str, k: int, l: int | None, j: int | None, d: int, density: Density,
              region: RegionSpec, samples, seed: int, threads: int | None) -> ConstantEstimate:
    """Any constant kind; a face constant (no l or j) is the pair (k, k, k + 1).

    The outer factor integral_A f^{m+1} samples x ~ f.  The inner factor is
    the indicator integral over (R^d)^m, m = k + l + 1 - j: the indicator
    vanishes unless every point lies in the unit ball around the origin
    (every tuple holds the origin and is admissible at scale 1), so uniform
    draws from B(0, 1)^m with the matching volume factor are exact.  Each
    distinct member list is tested once.
    """
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
    samples = _sample_count(samples)
    if density.dimension != d:
        raise InputError(f"density dimension {density.dimension} != d={d}")
    m = k + l + 1 - j
    jobs = [(_outer_worker(m, density, region, seed), _SHARD)]
    if m:
        first = tuple(range(k + 1))
        second = tuple(range(j)) + tuple(range(k + 1, k + l + 2 - j))
        distinct = list(dict.fromkeys((first, second)))
        jobs.append((_inner_worker(m, d, distinct, flavor, seed), max(1, _SHARD // m)))
    sums = _sharded_sums(jobs, samples, threads)
    outer = _mean_and_se(*sums[0], samples)
    inner = (1.0, 0.0)
    if m:
        volume = unit_ball_volume(d) ** m
        mean, se = _mean_and_se(*sums[1], samples)
        inner = (mean * volume, se * volume)
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
