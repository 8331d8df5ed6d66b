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
phi / theta come from one estimator.  This is the product form of Penrose
(2003, Random Geometric Graphs, ch. 3).  The density factor has a closed
form for every supported density and region (`Density.power_integral`), so
only the indicator integral is sampled, by uniform draws from the unit ball,
whose support contains the indicator; the standard error is that of the
indicator integral, scaled by the exact factors.  A member list of at most
two points (the origin and one point of the unit ball) is always a face, so
it is never tested; with no list left (every m = 1 constant, phi / theta
(1, 1, 1)) the indicator factor is exactly vol(B)^m and nothing is drawn.

The indicator samples fall into fixed shards, each drawn from its own
derived stream, and one thread pool runs the shards (`_map_in_order`, which
also runs `run_experiment`'s replications).  A shard's tuples are tested in
cache-sized blocks of origin-prefixed (m + 1, d, rows) coordinate
planes (`_inner_worker`); on whole-shard (size, m, d) rows each pass would
be an inner loop of d elements over arrays of millions of doubles, bound by
memory.  A block draws only its own slices of the shard's stream: Philox is
counter-based, so a generator can start at any double (`_stream_at`), and a
Box-Muller normal depends on its own pair only.  A worker thus holds a few
buffers of at most _BLOCK tuples, allocated once per shard, whatever the
number of samples.  Blocks change how the work is cut, not a value: every
step is elementwise or per tuple, so the block length is a constant set by
the cache, not a parameter.  Squared lengths are summed in np.einsum's order
(`_sum_of_squares`), as in the row-wise code.

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
from dataclasses import asdict, dataclass, field
from itertools import combinations

import numpy as np

from .complexes import _min_ball_radii, _retention
from .densities import Density
from .errors import ConfigurationError, InputError, count, real
from .geometry import ALL_SPACE, RegionSpec
from .rng import MC_INNER_STREAM, box_muller, generator

# points per shard (a shard holds _SHARD // m tuples of m points); shards are
# fixed, so results never depend on threads
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


def retention_exponent(k: int, l: int, j: int, i: int) -> int:
    """Exponent of p_i in the joint survival of a k-face and an l-face sharing j vertices."""
    k, l, j, i = (count(v, f"retention_exponent {name}") for v, name in zip((k, l, j, i), "klji"))
    if j > min(k, l) + 1:
        raise InputError(f"shared count j={j} exceeds min(k,l)+1={min(k, l) + 1}")
    if not 1 <= i <= max(k, l):
        raise InputError(f"coin index i={i} outside 1..max(k,l)={max(k, l)}")
    return math.comb(k + 1, i + 1) + math.comb(l + 1, i + 1) - math.comb(j, i + 1)


def _log_unit_ball_volume(d: int) -> float:
    """log(pi^(d/2) / Gamma(d/2 + 1)), defined at any d."""
    return d / 2.0 * math.log(math.pi) - math.lgamma(d / 2.0 + 1.0)


def unit_ball_volume(d: int) -> float:
    """pi^(d/2) / Gamma(d/2 + 1); in log space from d = 342 on, where Gamma overflows."""
    try:
        return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)
    except OverflowError:
        return math.exp(_log_unit_ball_volume(d))


def _shard_sizes(samples: int, shard: int) -> list[int]:
    full, rest = divmod(samples, shard)
    return [shard] * full + ([rest] if rest else [])


def _map_in_order(fn, items, threads: int | None) -> list:
    """[fn(item) for item in items], in the calling thread for one item or threads <= 1,
    else on a pool of ``threads`` workers (None: the pool's default size)."""
    items = list(items)
    if len(items) <= 1 or (threads is not None and threads <= 1):
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


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
            # a prefix list (every face constant's) is a view: no copy per block
            prefix = members == tuple(range(len(members)))
            tuples = planes[:len(members)] if prefix else planes[list(members)]
            ok &= _min_ball_radii(tuples.transpose(2, 0, 1)) <= 0.5
    return ok


def _stream_at(seed: int, index: int, start: int) -> np.random.Generator:
    """Shard ``index``'s generator placed at double ``start`` of its stream.

    Philox is counter-based and yields four doubles per counter step
    (Salmon et al. 2011), so the generator advances start // 4 steps and
    discards start % 4 doubles.  Reads from there continue the stream.
    """
    rng = generator(seed, MC_INNER_STREAM, index)
    rng.bit_generator.advance(start // 4)
    rng.random(start % 4)
    return rng


def _inner_worker(m: int, d: int, member_lists, flavor: str, seed: int):
    """Shard worker of the unit-scale indicator integral over (R^d)^m.

    A shard's stream holds, for d = 1, one coordinate per point.  For d >= 2
    it holds the Box-Muller pairs of size * m * d normals, u1 as doubles
    [0, P) and u2 as [P, 2P) with P = ceil(size * m * d / 2), then one radius
    draw per point; normal i < P is the cosine of pair i and normal P + i its
    sine.  Tuple t takes normals t * m * d onwards and radius draws t * m
    onwards.  The worker draws only the slice of the stream that the block at
    hand needs, so its working set is a few buffers of at most _BLOCK tuples,
    allocated once per shard and independent of the shard size.

    d = 1 reads its coordinates in order, one even block at a time.  d >= 2
    walks the pairs in chunks aligned to the cosine half's tuples and maps
    each pair once: a chunk gives whole cosine tuples, and its sines extend
    the sine half, whose last partial tuple (fewer than m * d normals) waits
    for the next chunk.  The tuple that straddles P, for an odd size, takes
    its first sines from the first chunk and is assembled in the last.  A
    chunk's cosine and sine tuples form one block of at most _BLOCK tuples,
    at least two unless the shard holds one: from d = 3 on, einsum adds the
    coordinates of a one-tuple block in another order.  A block's normals,
    scaled into the unit ball, become origin-prefixed (m + 1, d, rows)
    coordinate planes, and its tuples are tested on those planes.  Blocks
    hold tuples out of order, which a count of hits does not see.
    """
    md = m * d

    def worker(index: int, size: int):
        most = min(_BLOCK, size)  # tuples in a block
        plane_buf = np.empty((m + 1) * d * most)
        draws = np.empty(most * m)  # a block's coordinates (d = 1) or radius draws
        hits = 0

        def planes_of(rows: int) -> np.ndarray:
            planes = plane_buf[:(m + 1) * d * rows].reshape(m + 1, d, rows)
            planes[0] = 0.0
            return planes

        if d == 1:
            rng = generator(seed, MC_INNER_STREAM, index)
            blocks = -(-size // _BLOCK)
            for part in range(blocks):
                rows = (part + 1) * size // blocks - part * size // blocks
                planes = planes_of(rows)
                coords = rng.random(out=draws[:rows * m])  # point a of tuple t is t * m + a
                np.multiply(coords.reshape(rows, m).T, 2.0, out=planes[1:, 0])
                planes[1:] -= 1.0
                hits += np.count_nonzero(_admissible(planes, member_lists, flavor))
            return float(hits)

        pairs = (size * md + 1) // 2
        half = pairs // md  # tuples wholly in the cosine half
        first_sine = half + size % 2  # of an odd size, tuple `half` straddles P
        head = first_sine * md - pairs  # the straddling tuple's sines
        with_sine = size * md - pairs  # pairs whose sine is a normal
        # chunks of first-half tuples; a chunk of c completes c sine tuples,
        # the first chunk of an odd size c - 1
        cuts = [0, *range((_BLOCK + size % 2) // 2, first_sine, _BLOCK // 2), first_sine]
        span = max(min(b * md, pairs) - a * md for a, b in zip(cuts, cuts[1:]))
        cosines, sines = np.empty(span + md), np.empty(span + md)
        scratch, straddle = np.empty(span), np.empty(head)
        u1, u2 = _stream_at(seed, index, 0), _stream_at(seed, index, pairs)
        cos_radii = _stream_at(seed, index, 2 * pairs)
        sin_radii = _stream_at(seed, index, 2 * pairs + first_sine * m)
        carry = 0  # sines of the next sine tuple, held at the front of `sines`
        for a, b in zip(cuts, cuts[1:]):
            s, e = a * md, min(b * md, pairs)
            box_muller(u1.random(out=cosines[:e - s]),
                       u2.random(out=sines[carry:carry + e - s]), scratch[:e - s])
            held = carry + min(e, with_sine) - s  # sines now in `sines`
            skip = head if a == 0 else 0
            straddle[:skip] = sines[:skip]
            if b == first_sine:
                cosines[e - s:e - s + head] = straddle
            n_cos, n_sin = b - a, (held - skip) // md
            used = skip + n_sin * md
            rows = n_cos + n_sin
            planes = planes_of(rows)
            points = planes[1:]
            by_tuple = points.transpose(2, 0, 1)  # (rows, m, d)
            by_tuple[:n_cos] = cosines[:n_cos * md].reshape(n_cos, m, d)
            by_tuple[n_cos:] = sines[skip:used].reshape(n_sin, m, d)
            radii = draws[:rows * m]
            cos_radii.random(out=radii[:n_cos * m])
            sin_radii.random(out=radii[n_cos * m:])
            radii **= 1.0 / d
            norms = np.sqrt(_sum_of_squares(points.transpose(1, 0, 2)))
            norms[norms == 0] = 1.0
            np.divide(radii.reshape(rows, m).T, norms, out=norms)  # the scale
            points *= norms[:, None, :]
            hits += np.count_nonzero(_admissible(planes, member_lists, flavor))
            carry = held - used
            sines[:carry] = sines[used:held]
        return float(hits)

    return worker


# constant kind -> (complex flavor, whether it couples two faces)
_KINDS = {"mu": ("rips", False), "nu": ("cech", False),
          "phi": ("rips", True), "theta": ("cech", True)}


def _estimate(kind: str, k: int, l: int | None, j: int | None, d: int, density: Density,
              region: RegionSpec, samples, seed: int, threads: int | None) -> ConstantEstimate:
    """Any constant kind; a face constant (no l or j) is the pair (k, k, k + 1).

    The density factor integral_A f^{m+1} is the density's closed form: the
    box for region "box", all space minus the box for "box-complement".  The
    indicator factor is the integral over (R^d)^m, m = k + l + 1 - j: it
    vanishes unless every point lies in the unit ball around the origin
    (every tuple holds the origin and is admissible at scale 1), so uniform
    draws from B(0, 1)^m with the matching volume factor are exact.  Each
    distinct member list of three or more points is tested once; a shorter
    list always passes.  With no list to test the indicator mean is exactly
    1, no shard runs, and `samples` still reports the requested count.
    """
    flavor, pair = _KINDS[kind]
    if pair and (l is None or j is None):
        raise ConfigurationError(f"kind {kind!r} requires l and j")
    if not pair and (l is not None or j is not None):
        raise ConfigurationError(f"kind {kind!r} takes no l or j")
    k = count(k, "face dimension k")
    l, j = (count(l, "face dimension l"), count(j, "overlap j")) if pair else (k, k + 1)
    if not 1 <= j <= min(k, l) + 1:
        raise InputError(f"overlap j={j} outside 1..min(k,l)+1={min(k, l) + 1}")
    samples = count(samples, "samples", 1)
    d = count(d, "d", 1)
    if density.dimension != d:
        raise InputError(f"density dimension {density.dimension} != d={d}")
    m = k + l + 1 - j
    outer = density.power_integral(m)
    if region.kind != "all":
        inside = density.power_integral(m, region.lo, region.hi)
        outer = inside if region.kind == "box" else outer - inside
    outer = real(outer, f"the density factor (integral of f^{m + 1})")
    inner = (1.0, 0.0)
    if m:
        first = tuple(range(k + 1))
        second = tuple(range(j)) + tuple(range(k + 1, k + l + 2 - j))
        tested = [members for members in dict.fromkeys((first, second)) if len(members) > 2]
        mean = 1.0
        if tested:
            worker = _inner_worker(m, d, tested, flavor, seed)
            # fixed shards, summed in shard order, give the same sum for any worker count
            shards = enumerate(_shard_sizes(samples, max(1, _SHARD // m)))
            mean = sum(_map_in_order(lambda task: worker(*task), shards, threads)) / samples
        volume = unit_ball_volume(d) ** m
        # an indicator's variance is mean - mean^2, and never below 0 for mean in [0, 1]
        inner = (mean * volume, math.sqrt((mean - mean * mean) / samples) * volume)
    coeff = 1.0 / (math.factorial(j) * math.factorial(k + 1 - j) * math.factorial(l + 1 - j))
    value, stderr = coeff * outer * inner[0], coeff * outer * inner[1]
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
    if not value >= 0:  # NaN fails too
        raise InputError(f"probabilities and scales must be nonnegative, got {value!r}")
    return math.log(value) if value > 0 else -math.inf


def _exp(log_value: float, what: str) -> float:
    """exp(log_value), or an InputError naming the quantity when that overflows a float."""
    try:
        return math.exp(log_value)
    except OverflowError:
        raise InputError(f"{what} overflows a float: its log is {log_value:.6g}") from None


def _log_product(bases, exponents) -> float:
    """log of prod b^e; a zero exponent adds nothing, so 0^0 is 1 and r = 0 leaves f_0 at n."""
    return sum(e * _log_or_zero(b) for b, e in zip(bases, exponents) if e)


def _log_scale(n: float, r: float, d: int, rho, k: int, l: int, j: int) -> float:
    """log of prod p_i^e_i * n^{k+l+2-j} * r^{d(k+l+1-j)}, e_i = retention_exponent(k, l, j, i)."""
    rho = _retention(rho, max(k, l))
    exponents = [retention_exponent(k, l, j, i) for i in range(1, max(k, l) + 1)]
    return (
        _log_product(rho, exponents)
        + (k + l + 2 - j) * math.log(n)
        + _log_product((r,), (d * (k + l + 1 - j),))
    )


def log_growth_quantity(n: float, r: float, d: int, rho, k: int) -> float:
    """log of prod p_i^C(k+1,i+1) * n^{k+1} * r^{dk}: the scale of the pair (k, k, k + 1)."""
    return _log_scale(n, r, d, rho, k, k, k + 1)


@dataclass(frozen=True)
class MomentPrediction:
    mean: float
    variance: float
    covariance: float | None = None


def _find_constant(constants, flavor: str, k: int, l: int, j: int) -> ConstantEstimate:
    """The flavor's constant of the pair (k, l, j); a face constant is its pair (k, k, k + 1)."""
    for c in constants:
        pair = (c.k, c.k, c.k + 1) if c.l is None else (c.k, c.l, c.j)
        if _KINDS.get(c.kind, ("",))[0] == flavor and pair == (k, l, j):
            return c
    raise ConfigurationError(f"missing constant estimate ({flavor}, k={k}, l={l}, j={j})")


def predicted_moments(n: float, r: float, d: int, rho, k: int, l: int | None = None,
                      constants=(), flavor: str = "rips") -> MomentPrediction:
    """Asymptotic mean/variance of f_k, and covariance with f_l when requested.

    A second moment of f_k and f_l is the sum over shared vertex counts
    j = 1..min(k, l) + 1 of pair constant times scale; the variance is its
    l = k case, whose j = k + 1 term is the mean.  For k = 0 that is the only
    term, so mean and variance both equal the region mass times n, the
    Poisson-process values.
    """
    if flavor not in ("rips", "cech"):
        raise ConfigurationError(f"flavor must be 'rips' or 'cech', got {flavor!r}")
    n, r = real(n, "n", 0), real(r, "r")
    k, l = count(k, "face dimension k"), None if l is None else count(l, "face dimension l")

    def term(l: int, j: int) -> float:
        pair = _find_constant(constants, flavor, k, l, j).value
        return pair * _exp(_log_scale(n, r, d, rho, k, l, j), f"the {(k, l, j)} scale")

    def second_moment(l: int) -> float:
        return sum(term(l, j) for j in range(1, min(k, l) + 2))

    return MomentPrediction(mean=term(k, k + 1), variance=second_moment(k),
                            covariance=None if l is None else second_moment(l))


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
        return {**asdict(self), "ok": self.ok}


def regime_check(n: float, r: float, d: int, rho, mode: tuple[str, int],
                 sparse_threshold: float = 0.1, growth_threshold: float = 100.0,
                 vanish_threshold: float = 0.1) -> RegimeReport:
    """Finite-size proxies for the hypotheses behind the limit statements.

    mode ("fk", k): requires sparsity (n r^d small) and a diverging growth
    quantity for dimension k.  mode ("chi", l): additionally requires the
    growth quantity one dimension up to vanish, so faces above dimension l
    disappear.
    """
    if not (isinstance(mode, (tuple, list)) and len(mode) == 2 and mode[0] in ("fk", "chi")):
        raise InputError(f"mode must be ('fk', k) or ('chi', l), got {mode}")
    kind, level = mode
    level = count(level, f"{kind} mode level")
    d = count(d, "d", 1)
    n, r = real(n, "n", 0), real(r, "r")  # r < 0 fails in _log_or_zero
    sparse_threshold = real(sparse_threshold, "sparse threshold")
    growth_threshold = real(growth_threshold, "growth threshold")
    vanish_threshold = real(vanish_threshold, "vanish threshold")
    rho = _retention(rho, level + 1 if kind == "chi" else level)
    nrd = _exp(math.log(n) + d * _log_or_zero(r), "n r^d")
    quantities = {"nr^d": nrd}
    flags = {"sparse_ok": nrd < sparse_threshold}
    thresholds = {"sparse": sparse_threshold, "growth": growth_threshold}
    growth = _exp(log_growth_quantity(n, r, d, rho, level), "the growth quantity")
    quantities[f"growth_{'k' if kind == 'fk' else 'l'}{level}"] = growth
    flags["growth_ok"] = growth > growth_threshold
    if kind == "chi":
        vanish = _exp(log_growth_quantity(n, r, d, rho, level + 1), "the vanish quantity")
        quantities[f"vanish_l{level + 1}"] = vanish
        flags["vanish_ok"] = vanish < vanish_threshold
        thresholds["vanish"] = vanish_threshold
    return RegimeReport(n=n, r=r, d=d, rho=rho, mode=kind, k_or_l=level,
                        quantities=quantities, flags=flags, thresholds=thresholds)
