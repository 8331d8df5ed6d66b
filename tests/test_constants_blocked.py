"""The blocked constant estimator against a frozen copy of the row-wise one.

`row_wise_estimate` below is the indicator factor as it stood before the
kernel moved to cache-sized blocks of coordinate planes: one Box-Muller call
per shard, whole-shard (size, m, d) row arrays and one indicator per member
list, times the density's closed-form factor.  It is kept only as a
reference.  Every estimate, normal and uniform-box density value of the
package must equal it bit for bit, including the estimates whose member
lists all have at most two points, which the package no longer samples.

`row_wise_density_factor` is the Monte Carlo estimate of the density factor
that the estimator used before that factor had a closed form: the mean of
f(x)^m over the region, x ~ f.  It stays as a statistical oracle for
`Density.power_integral`.
"""

import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from softplex import (
    ALL_SPACE,
    GaussianIsotropic,
    PiecewiseConstantGrid,
    RegionSpec,
    UniformBox,
    estimate_mu,
    estimate_nu,
    estimate_phi,
    estimate_theta,
)
from softplex import constants
from softplex.complexes import _min_ball_radii
from softplex.geometry import region_mask
from softplex.constants import _shard_sizes, unit_ball_volume
from softplex.rng import MC_INNER_STREAM, generator, standard_normals

# the stream tag the estimator's density-factor samples used to draw from
RETIRED_DENSITY_STREAM = 6


def mean_and_se(total, total_sq, count):
    mean = total / count
    var = max(total_sq / count - mean * mean, 0.0)
    return mean, math.sqrt(var / count)


def row_wise_normals(rng, count):
    pairs = (count + 1) // 2
    u1 = rng.random(pairs)
    u2 = rng.random(pairs)
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    angle = 2.0 * np.pi * u2
    z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])
    return z[:count]


def row_wise_pdf(density, pts):
    if isinstance(density, UniformBox):
        inside = np.all((pts >= density.lo) & (pts <= density.hi), axis=1)
        return np.where(inside, 1.0 / density.volume, 0.0)
    return density.pdf(pts)


def row_wise_unit_ball(rng, count, d):
    if d == 1:
        return (2.0 * rng.random((count, 1))) - 1.0
    z = row_wise_normals(rng, count * d).reshape(count, d)
    norms = np.sqrt(np.einsum("ij,ij->i", z, z))
    norms[norms == 0] = 1.0
    radii = rng.random(count) ** (1.0 / d)
    return z * (radii / norms)[:, None]


def row_wise_indicator(block, members, flavor):
    columns = [idx - 1 for idx in members if idx != 0]
    count, _, d = block.shape
    if flavor == "rips":
        sub = block[:, columns]
        ok = np.ones(count, dtype=bool)
        for a in range(len(columns)):
            ok &= np.einsum("ij,ij->i", sub[:, a], sub[:, a]) <= 1.0
            for b in range(a + 1, len(columns)):
                diff = sub[:, a] - sub[:, b]
                ok &= np.einsum("ij,ij->i", diff, diff) <= 1.0
        return ok
    planes = np.zeros((len(columns) + 1, d, count))
    for slot, column in enumerate(columns, start=1):
        planes[slot] = block[:, column].T
    return _min_ball_radii(planes.transpose(2, 0, 1)) <= 0.5


def row_wise_density_factor(density, region, m, samples, seed, shard):
    """(mean, stderr) of f(x)^m * [x in region] over samples x ~ f."""
    total = total_sq = 0.0
    for index, size in enumerate(_shard_sizes(samples, shard)):
        x = density.sample(generator(seed, RETIRED_DENSITY_STREAM, index), size)
        vals = row_wise_pdf(density, x) ** m if m else np.ones(size)
        if region.kind != "all":
            vals = vals * region_mask(x, region)
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
    return mean_and_se(total, total_sq, samples)


def closed_density_factor(density, region, m):
    whole = density.power_integral(m)
    if region.kind == "all":
        return whole
    inside = density.power_integral(m, region.lo, region.hi)
    return inside if region.kind == "box" else whole - inside


def row_wise_estimate(kind, k, l, j, d, density, region, samples, seed, shard):
    flavor = "rips" if kind in ("mu", "phi") else "cech"
    pair = kind in ("phi", "theta")
    l, j = (l, j) if pair else (k, k + 1)
    m = k + l + 1 - j
    outer = closed_density_factor(density, region, m)
    inner = (1.0, 0.0)
    if m:
        first = list(range(k + 1))
        second = list(range(j)) + list(range(k + 1, k + l + 2 - j))
        distinct = list(dict.fromkeys(tuple(members) for members in (first, second)))
        hits = 0.0
        for index, size in enumerate(_shard_sizes(samples, max(1, shard // m))):
            rng = generator(seed, MC_INNER_STREAM, index)
            block = row_wise_unit_ball(rng, size * m, d).reshape(size, m, d)
            ok = np.ones(size, dtype=bool)
            for members in distinct:
                ok &= row_wise_indicator(block, list(members), flavor)
            hits += float(ok.sum())
        mean, se = mean_and_se(hits, hits, samples)
        volume = unit_ball_volume(d) ** m
        inner = (mean * volume, se * volume)
    coeff = 1.0 / (math.factorial(j) * math.factorial(k + 1 - j) * math.factorial(l + 1 - j))
    return coeff * outer * inner[0], coeff * outer * inner[1]


ESTIMATORS = {"mu": estimate_mu, "nu": estimate_nu, "phi": estimate_phi, "theta": estimate_theta}


@st.composite
def densities(draw, d):
    kind = draw(st.sampled_from(["uniform", "gaussian", "grid"]))
    lo = np.array(draw(st.lists(st.floats(-2.0, 1.0), min_size=d, max_size=d)))
    hi = lo + np.array(draw(st.lists(st.floats(0.25, 3.0), min_size=d, max_size=d)))
    if kind == "uniform":
        return UniformBox(lo, hi)
    if kind == "gaussian":
        return GaussianIsotropic(lo, draw(st.floats(0.1, 2.0)))
    shape = draw(st.lists(st.integers(1, 3), min_size=d, max_size=d))
    weights = np.arange(1.0, math.prod(shape) + 1.0).reshape(shape) % 3  # has empty cells
    weights.flat[0] = 1.0
    return PiecewiseConstantGrid(lo, hi, weights)


@st.composite
def regions(draw, d):
    kind = draw(st.sampled_from(["all", "box", "box-complement"]))
    if kind == "all":
        return ALL_SPACE
    lo = draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d))
    width = draw(st.lists(st.floats(0.1, 2.0), min_size=d, max_size=d))
    return RegionSpec(kind, lo, [a + w for a, w in zip(lo, width)])


@st.composite
def constant_cases(draw):
    d = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(sorted(ESTIMATORS)))
    m = draw(st.integers(1, 4))
    if kind in ("mu", "nu"):
        k, l, j = m, None, None
    else:
        k = draw(st.integers(0, m))
        j = draw(st.integers(1, k + 1))
        l = m + j - 1 - k  # >= j - 1 since k <= m
    return dict(kind=kind, k=k, l=l, j=j, d=d, density=draw(densities(d)),
                region=draw(regions(d)))


@settings(max_examples=120)
@given(case=constant_cases(), shard=st.sampled_from([24, 61, 128]),
       block=st.integers(3, 40), samples=st.integers(1, 300),
       seed=st.integers(0, 2**32), threads=st.sampled_from([1, 2]))
def test_blocked_estimates_equal_the_row_wise_reference(case, shard, block, samples, seed,
                                                        threads):
    # small shards and blocks put every split in reach: odd sizes, several
    # blocks and shards, the cosine half ending inside a tuple's coordinates
    kind, k, l, j = case["kind"], case["k"], case["l"], case["j"]
    args = (k,) if l is None else (k, l, j)
    with mock.patch.multiple(constants, _SHARD=shard, _BLOCK=block):
        est = ESTIMATORS[kind](*args, case["d"], case["density"], region=case["region"],
                               samples=samples, seed=seed, threads=threads)
    value, stderr = row_wise_estimate(kind, k, l, j, case["d"], case["density"],
                                      case["region"], samples, seed, shard)
    assert (est.value, est.stderr, est.samples) == (value, stderr, samples)


@pytest.mark.parametrize("kind, args, d, samples, region", [
    # two inner shards; 349525 tuples of 3 points make 1048575 Box-Muller
    # pairs, so tuple 174762 takes normals from the cosine and the sine half
    ("mu", (3,), 2, 349_525 + 5, ALL_SPACE),
    ("theta", (2, 1, 1), 3, 3 * 8192 + 7, ALL_SPACE),  # blocks; d = 3 sums of squares
    ("nu", (2,), 2, 2 * 8192 + 1, ALL_SPACE),
    # two shards of 2-point tuples
    ("mu", (2,), 2, (1 << 19) + 3, RegionSpec("box", [0.2, 0.2], [0.7, 0.7])),
])
def test_blocked_estimates_equal_the_row_wise_reference_at_full_size(kind, args, d, samples,
                                                                     region):
    density = UniformBox([0.0] * d, [1.0] * d)
    k, l, j = (args[0], None, None) if len(args) == 1 else args
    est = ESTIMATORS[kind](*args, d, density, region=region, samples=samples, seed=9, threads=2)
    value, stderr = row_wise_estimate(kind, k, l, j, d, density, region, samples, 9,
                                      constants._SHARD)
    assert (est.value, est.stderr, est.samples) == (value, stderr, samples)


@pytest.mark.parametrize("estimate", [estimate_mu, estimate_nu])
def test_default_pool_equals_one_thread(estimate):
    # threads=None runs the shards on a pool of its default size; a constant
    # of dimension 2 draws m = 2 points a tuple, so the shards hold 96 tuples
    density = UniformBox([0.0] * 2, [1.0] * 2)
    with mock.patch.multiple(constants, _SHARD=192), \
            mock.patch.object(constants, "ThreadPoolExecutor", wraps=ThreadPoolExecutor) as pool:
        default = estimate(2, 2, density, samples=1000, seed=5)
        assert pool.call_args_list == [mock.call(max_workers=None)]
        serial = estimate(2, 2, density, samples=1000, seed=5, threads=1)
        assert pool.call_count == 1
    assert len(_shard_sizes(1000, 192 // 2)) == 11 and serial.stderr > 0.0
    assert (np.array([default.value, default.stderr]).tobytes()
            == np.array([serial.value, serial.stderr]).tobytes())


# every member list of these has at most two points: (kind, args, m)
EXACT_INNER = [("mu", (1,), 1), ("nu", (1,), 1), ("phi", (1, 1, 1), 2),
               ("theta", (1, 1, 1), 2), ("phi", (0, 1, 1), 1), ("theta", (1, 0, 1), 1)]


def never_called(*args, **kwargs):
    raise AssertionError("an exact inner factor drew or tested something")


@settings(max_examples=60)
@given(data=st.data(), d=st.integers(1, 3), case=st.sampled_from(EXACT_INNER),
       samples=st.integers(1, 10**7), seed=st.integers(0, 2**32))
def test_lists_of_at_most_two_points_draw_nothing(data, d, case, samples, seed):
    kind, args, m = case
    density, region = data.draw(densities(d)), data.draw(regions(d))
    k, l, j = (args[0], args[0], args[0] + 1) if len(args) == 1 else args
    coeff = 1.0 / (math.factorial(j) * math.factorial(k + 1 - j) * math.factorial(l + 1 - j))
    with mock.patch.multiple(constants, generator=never_called, _inner_worker=never_called,
                             ThreadPoolExecutor=never_called):
        est = ESTIMATORS[kind](*args, d, density, region=region, samples=samples, seed=seed,
                               threads=2)
    want = coeff * closed_density_factor(density, region, m) * unit_ball_volume(d) ** m
    assert (est.value, est.stderr, est.samples) == (want, 0.0, samples)


@settings(max_examples=40)
@given(data=st.data(), d=st.integers(1, 3), case=st.sampled_from(EXACT_INNER),
       samples=st.integers(1, 3000), seed=st.integers(0, 2**32))
def test_exact_inner_factors_equal_the_sampling_reference(data, d, case, samples, seed):
    # the reference still draws and tests every list, and every tuple passes
    kind, args, _ = case
    density, region = data.draw(densities(d)), data.draw(regions(d))
    k, l, j = (args[0], None, None) if len(args) == 1 else args
    est = ESTIMATORS[kind](*args, d, density, region=region, samples=samples, seed=seed)
    value, stderr = row_wise_estimate(kind, k, l, j, d, density, region, samples, seed,
                                      constants._SHARD)
    assert (est.value, est.stderr, est.samples) == (value, stderr, samples)


@pytest.mark.parametrize("kind", ["phi", "theta"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_a_three_point_list_still_draws_and_tests_only_itself(kind, d):
    # (2, 1, 1) has the lists (0, 1, 2) and (0, 3): the first is sampled as
    # before, the always-true second is no longer tested
    density = UniformBox([0.0] * d, [1.0] * d)
    tested = []
    admissible = constants._admissible

    def recording(planes, member_lists, flavor):
        tested.append(list(member_lists))
        return admissible(planes, member_lists, flavor)

    with mock.patch.object(constants, "generator", wraps=generator) as drawn, \
            mock.patch.object(constants, "_admissible", recording):
        est = ESTIMATORS[kind](2, 1, 1, d, density, samples=5000, seed=d)
    value, stderr = row_wise_estimate(kind, 2, 1, 1, d, density, ALL_SPACE, 5000, d,
                                      constants._SHARD)
    assert (est.value, est.stderr, est.samples) == (value, stderr, 5000)
    # one shard: every generator, wherever it starts, is shard 0's stream
    assert drawn.call_args_list and stderr > 0.0
    assert all(call == mock.call(d, MC_INNER_STREAM, 0) for call in drawn.call_args_list)
    assert tested and all(lists == [(0, 1, 2)] for lists in tested)


@settings(max_examples=60)
@given(data=st.data(), d=st.integers(1, 3), power=st.integers(0, 3),
       seed=st.integers(0, 2**32))
def test_closed_density_factor_agrees_with_the_sampled_one(data, d, power, seed):
    # a region of tiny mass can draw no hits, and then a sample stderr of 0,
    # so the bound takes the exact stderr too: the variance of f^m over the
    # region is the factor at power 2m minus the square of the factor at m
    density, region = data.draw(densities(d)), data.draw(regions(d))
    samples = 20_000
    mean, se = row_wise_density_factor(density, region, power, samples, seed, 4096)
    value = closed_density_factor(density, region, power)
    exact_se = math.sqrt(max(closed_density_factor(density, region, 2 * power) - value**2, 0.0)
                         / samples)
    assert abs(mean - value) <= 5.0 * max(se, exact_se) + 1e-12 * value


@settings(max_examples=150)
@given(d=st.integers(2, 4), k=st.integers(2, 4), block=st.integers(3, 40),
       whole=st.integers(1, 4), rest=st.integers(0, 2), seed=st.integers(0, 2**32))
def test_enclosing_ball_radii_equal_the_row_wise_ones(d, k, block, whole, rest, seed):
    # an indicator hides a last-bit change in a radius, so compare the radii:
    # a block of one tuple (rest = 1 after whole blocks) would take another
    # summation order in d >= 3.  Blocks hold tuples out of order, so each
    # radius is keyed by its tuple's coordinate bytes
    samples = block * whole + rest
    tested = {}
    sizes = []

    def recording(tuples):
        radii = _min_ball_radii(tuples)
        sizes.append(len(radii))
        for row, radius in zip(tuples, radii):
            tested.setdefault(row.tobytes(), []).append(radius.tobytes())
        return radii

    with mock.patch.multiple(constants, _BLOCK=block, _min_ball_radii=recording):
        estimate_nu(k, d, UniformBox([0.0] * d, [1.0] * d), samples=samples, seed=seed,
                    threads=1)
    rng = generator(seed, MC_INNER_STREAM, 0)
    points = row_wise_unit_ball(rng, samples * k, d).reshape(samples, k, d)
    tuples = np.concatenate([np.zeros((samples, 1, d)), points], axis=1)
    want = _min_ball_radii(tuples)
    assert sum(sizes) == samples and all(2 <= size <= block for size in sizes)
    assert {row.tobytes(): [radius.tobytes()] for row, radius in zip(tuples, want)} == tested


STREAM = 1000  # doubles of the whole read the placed streams are checked against


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32), index=st.integers(0, 3),
       start=st.one_of(st.integers(0, 5), st.just(STREAM - 1),
                       st.builds(lambda j, off: 4 * j + off, st.integers(1, 249),
                                 st.sampled_from([-1, 1]))),
       length=st.integers(1, 9), cuts=st.lists(st.integers(0, STREAM), max_size=5))
def test_a_placed_stream_reads_the_slice_of_the_whole_stream(seed, index, start, length, cuts):
    # the worker reads every slice through a generator placed at its first
    # double, then continues it with random(out=) reads of any length
    whole = generator(seed, MC_INNER_STREAM, index).random(STREAM)
    placed = constants._stream_at(seed, index, start).random(min(length, STREAM - start))
    assert placed.tobytes() == whole[start:start + placed.size].tobytes()
    bounds = [start, *sorted(cut for cut in cuts if cut > start), STREAM]
    rng, read = constants._stream_at(seed, index, start), np.empty(STREAM - start)
    for lo, hi in zip(bounds, bounds[1:]):
        rng.random(out=read[lo - start:hi - start])
    assert read.tobytes() == whole[start:].tobytes()


@pytest.mark.parametrize("samples", [200_000, 1_000_000])
def test_the_working_set_does_not_grow_with_the_samples(samples):
    # a shard draws its stream a block at a time into buffers of at most
    # _BLOCK tuples, so the peak of mu_3's arrays in d = 2 does not follow
    # the count (about 2 MiB on numpy 2.4)
    density = UniformBox([0.0] * 2, [1.0] * 2)
    tracemalloc.start()
    try:
        estimate_mu(3, 2, density, samples=samples, seed=2, threads=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


@pytest.mark.parametrize("count", [0, 1, 2, 7, 1000])
def test_standard_normals_equal_the_row_wise_ones(count):
    got = standard_normals(generator(4), count)
    assert got.tobytes() == row_wise_normals(generator(4), count).tobytes()


@settings(max_examples=60)
@given(d=st.integers(1, 4), lo=st.lists(st.floats(-2.0, 1.0), min_size=4, max_size=4),
       width=st.lists(st.floats(0.25, 3.0), min_size=4, max_size=4),
       seed=st.integers(0, 2**32))
def test_uniform_box_pdf_is_byte_identical(d, lo, width, seed):
    density = UniformBox(lo[:d], np.add(lo[:d], width[:d]))
    # points inside, on the faces and off the support
    edges = np.array([density.lo, density.hi])
    spread = 3.0 * np.random.default_rng(seed).random((200, d)) - 1.0
    pts = np.concatenate([density.sample(generator(seed), 50), edges,
                          density.lo + spread * (density.hi - density.lo)])
    assert density.pdf(pts).tobytes() == row_wise_pdf(density, pts).tobytes()


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 9])
def test_plane_sums_of_squares_equal_einsum_over_rows(d):
    rows = np.random.default_rng(d).standard_normal((3, 1000, d))
    want = np.einsum("ij,ij->i", rows.reshape(-1, d), rows.reshape(-1, d)).reshape(3, 1000)
    got = constants._sum_of_squares(np.ascontiguousarray(np.moveaxis(rows, -1, 0)))
    assert got.tobytes() == want.tobytes()
