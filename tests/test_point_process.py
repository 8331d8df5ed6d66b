import math

import numpy as np
import pytest
from scipy import stats

from softplex import (GaussianIsotropic, InputError, PiecewiseConstantGrid, PointCloud, UniformBox,
                      sample_binomial, sample_poisson)

UNIT_1D = UniformBox(lo=[0.0], hi=[1.0])
UNIT_2D = UniformBox(lo=[0.0, 0.0], hi=[1.0, 1.0])


def test_binomial_count_and_support():
    cloud = sample_binomial(5, UNIT_2D, seed=7)
    assert len(cloud) == 5
    assert cloud.provenance == "binomial"
    assert np.all(cloud.points >= 0.0) and np.all(cloud.points <= 1.0)


def test_binomial_single_point():
    cloud = sample_binomial(1, GaussianIsotropic(mean=[0.0], sigma=1.0), seed=123)
    assert cloud.points.shape == (1, 1)


def test_binomial_law_of_large_numbers():
    # analytic mean 0.5 with binomial stderr sqrt(1/12/n); 0.01 is > 30 sigma
    cloud = sample_binomial(100_000, UNIT_1D, seed=3)
    assert abs(cloud.points.mean() - 0.5) < 0.01


def test_binomial_determinism():
    a = sample_binomial(1000, UNIT_2D, seed=42)
    b = sample_binomial(1000, UNIT_2D, seed=42)
    assert np.array_equal(a.points, b.points)
    c = sample_binomial(1000, UNIT_2D, seed=43)
    assert not np.array_equal(a.points, c.points)


def test_binomial_requires_positive_n():
    with pytest.raises(InputError):
        sample_binomial(0, UNIT_1D, seed=1)


def test_poisson_tiny_intensity_is_almost_surely_empty():
    lam = 1e-4
    gaussian = GaussianIsotropic(mean=[0.0, 0.0, 0.0], sigma=1.0)
    grid = PiecewiseConstantGrid(lo=[0.0, 0.0], hi=[1.0, 1.0], weights=[[1.0, 2.0], [3.0, 4.0]])
    for density in (UNIT_1D, gaussian, grid):
        clouds = [sample_poisson(lam, density, seed).points for seed in range(10_000)]
        empty = [pts for pts in clouds if len(pts) == 0]
        assert abs(len(empty) / 10_000 - math.exp(-lam)) < 0.01
        assert all(pts.shape == (0, density.dimension) and pts.dtype == np.float64
                   for pts in empty)


def test_poisson_count_mean():
    reps = 400
    counts = [len(sample_poisson(50.0, UNIT_1D, seed)) for seed in range(reps)]
    assert abs(np.mean(counts) - 50.0) <= 3.0 * math.sqrt(50.0 / reps)


def test_poisson_determinism():
    a = sample_poisson(50.0, UNIT_2D, seed=11)
    b = sample_poisson(50.0, UNIT_2D, seed=11)
    assert len(a) == len(b)
    assert np.array_equal(a.points, b.points)


def test_poisson_requires_positive_intensity():
    with pytest.raises(InputError):
        sample_poisson(0.0, UNIT_1D, seed=1)


def test_uniform_chi_square_goodness_of_fit():
    # 4 cells per axis in d=2; reject only below the 1e-3 level
    cloud = sample_binomial(100_000, UNIT_2D, seed=17)
    cells = np.minimum((cloud.points * 4).astype(int), 3)
    flat = cells[:, 0] * 4 + cells[:, 1]
    observed = np.bincount(flat, minlength=16)
    _, pvalue = stats.chisquare(observed)
    assert pvalue > 1e-3


def test_poisson_restriction_to_subbox_is_poisson():
    # counts in B follow Poisson(lambda * mass(B)): mean and variance agree
    lam, reps = 100.0, 600
    lo, hi = 0.2, 0.5
    counts = np.empty(reps)
    for seed in range(reps):
        pts = sample_poisson(lam, UNIT_1D, seed).points[:, 0]
        counts[seed] = np.count_nonzero((pts > lo) & (pts < hi))
    target = lam * (hi - lo)
    assert abs(counts.mean() - target) <= 3.0 * math.sqrt(target / reps)
    var_se = math.sqrt((2.0 * target**2 + target) / reps)
    assert abs(counts.var(ddof=1) - target) <= 3.0 * var_se


def test_clouds_are_immutable():
    cloud = sample_binomial(10, UNIT_1D, seed=1)
    with pytest.raises(ValueError):
        cloud.points[0, 0] = 99.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("d", [1, 2])
def test_non_finite_coordinates_are_refused(bad, d):
    # The cloud is refused when it is made, before any layer builds on it.
    pts = np.zeros((3, d))
    pts[1, d - 1] = bad
    with pytest.raises(InputError, match="finite"):
        PointCloud(points=pts, provenance="binomial", size_parameter=3.0, seed=0)
