import math

import numpy as np
import pytest
from scipy import integrate

from softplex import (
    ConfigurationError,
    GaussianIsotropic,
    InputError,
    PiecewiseConstantGrid,
    UniformBox,
    density_from_config,
)
from softplex.rng import generator


def test_uniform_box_pdf_values():
    dens = UniformBox(lo=[0.0, 0.0], hi=[1.0, 1.0])
    assert dens.pdf([0.5, 0.5]) == 1.0
    assert dens.pdf([2.0, 2.0]) == 0.0
    assert dens.sup_norm == 1.0


def test_gaussian_pdf_at_mode():
    dens = GaussianIsotropic(mean=[0.0], sigma=1.0)
    # closed form: (2 pi)^{-1/2}
    assert dens.pdf([0.0]) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), abs=1e-12)
    assert dens.sup_norm == pytest.approx(0.3989422804014327, abs=1e-12)


def test_pdf_dimension_mismatch_is_input_error():
    dens = UniformBox(lo=[0.0, 0.0], hi=[1.0, 1.0])
    with pytest.raises(InputError):
        dens.pdf([0.5])


def test_densities_integrate_to_one_by_quadrature():
    # midpoint quadrature over a generous box catches normalization bugs
    grid = np.linspace(-6.0, 6.0, 4001)
    mid = 0.5 * (grid[1:] + grid[:-1])
    step = grid[1] - grid[0]
    for dens in (
        UniformBox(lo=[-1.5], hi=[0.5]),
        GaussianIsotropic(mean=[0.3], sigma=0.8),
        PiecewiseConstantGrid(lo=[-1.0], hi=[1.0], weights=[1.0, 3.0, 0.0, 2.0]),
    ):
        total = dens.pdf(mid[:, None]).sum() * step
        assert total == pytest.approx(1.0, abs=2e-3)


def test_piecewise_grid_pdf_outside_box_is_zero():
    dens = PiecewiseConstantGrid(lo=[0.0, 0.0], hi=[2.0, 2.0], weights=[[1.0, 2.0], [3.0, 4.0]])
    assert dens.pdf([3.0, 1.0]) == 0.0
    assert dens.sup_norm == pytest.approx(dens.density.max())


def test_piecewise_grid_sampling_matches_cell_masses():
    dens = PiecewiseConstantGrid(lo=[0.0], hi=[1.0], weights=[1.0, 0.0, 3.0, 4.0])
    pts = dens.sample(generator(5), 40_000)[:, 0]
    counts = np.histogram(pts, bins=4, range=(0.0, 1.0))[0]
    masses = counts / counts.sum()
    assert masses[1] == 0.0
    np.testing.assert_allclose(masses, [1 / 8, 0.0, 3 / 8, 4 / 8], atol=0.02)


def test_gaussian_sampling_moments():
    dens = GaussianIsotropic(mean=[2.0, -1.0], sigma=0.5)
    pts = dens.sample(generator(9), 50_000)
    np.testing.assert_allclose(pts.mean(axis=0), [2.0, -1.0], atol=0.01)
    np.testing.assert_allclose(pts.std(axis=0), [0.5, 0.5], atol=0.01)


def test_config_round_trip():
    for dens in (
        UniformBox(lo=[0.0], hi=[2.0]),
        GaussianIsotropic(mean=[1.0, 1.0], sigma=2.0),
        PiecewiseConstantGrid(lo=[0.0], hi=[1.0], weights=[1.0, 2.0]),
    ):
        clone = density_from_config(dens.to_config())
        x = np.linspace(-1.0, 3.0, 50)[:, None]
        if dens.dimension == 2:
            x = np.hstack([x, x])
        np.testing.assert_allclose(clone.pdf(x), dens.pdf(x))


def test_bad_configs_rejected():
    with pytest.raises(ConfigurationError):
        density_from_config({"kind": "halton"})
    with pytest.raises(ConfigurationError):
        density_from_config({"kind": "uniform-box", "lo": [0.0]})
    with pytest.raises(ConfigurationError):
        density_from_config({"kind": "uniform-box", "lo": [0.0], "hi": [1.0], "pad": 1})
    with pytest.raises(ConfigurationError):
        UniformBox(lo=[0.0], hi=[0.0])
    with pytest.raises(ConfigurationError):
        GaussianIsotropic(mean=[0.0], sigma=0.0)
    with pytest.raises(ConfigurationError):
        PiecewiseConstantGrid(lo=[0.0], hi=[1.0], weights=[0.0, 0.0])


@pytest.mark.parametrize("power", range(5))
def test_unit_box_power_integral_is_exactly_one(power):
    for d in (1, 2, 3):
        assert UniformBox(lo=[0.0] * d, hi=[1.0] * d).power_integral(power) == 1.0


def test_uniform_box_power_integral_over_boxes():
    dens = UniformBox(lo=[0.0, 0.0], hi=[2.0, 1.0])
    assert dens.power_integral(2) == 0.25  # V^-2
    # the box [1, 3] x [0.5, 3] holds a quarter of the support
    assert dens.power_integral(2, [1.0, 0.5], [3.0, 3.0]) == 0.25 * 0.25
    assert dens.power_integral(2, [5.0, 0.0], [6.0, 1.0]) == 0.0


@pytest.mark.parametrize("power", range(4))
def test_gaussian_power_integral_matches_the_formula_and_quadrature(power):
    sigma, d = 0.7, 3
    dens = GaussianIsotropic(mean=[0.2, -1.0, 3.0], sigma=sigma)
    formula = (2.0 * math.pi * sigma**2) ** (-d * power / 2.0) * (power + 1.0) ** (-d / 2.0)
    assert dens.power_integral(power) == pytest.approx(formula, rel=1e-14)
    line = GaussianIsotropic(mean=[0.3], sigma=sigma)
    for lo, hi in ((-np.inf, np.inf), (-0.5, 1.2), (2.0, np.inf)):
        want, _ = integrate.quad(lambda x: line.pdf([x]) ** (power + 1), lo, hi,
                                 epsabs=0.0, epsrel=1e-12)
        assert line.power_integral(power, lo, hi) == pytest.approx(want, rel=1e-9)


def test_grid_power_integral_over_a_box_that_cuts_cells():
    # two cells of area 1 with densities 0.25 and 0.75; the box takes a
    # quarter of each
    dens = PiecewiseConstantGrid(lo=[0.0, 0.0], hi=[2.0, 1.0], weights=[[1.0], [3.0]])
    assert dens.power_integral(0) == pytest.approx(1.0, rel=1e-15)
    assert dens.power_integral(1) == pytest.approx(0.25**2 + 0.75**2, rel=1e-15)
    cut = dens.power_integral(1, [0.5, 0.5], [1.5, 2.0])
    assert cut == pytest.approx(0.25 * (0.25**2 + 0.75**2), rel=1e-15)
    assert dens.power_integral(1, [0.5, -1.0], [1.0, 2.0]) == pytest.approx(0.5 * 0.25**2,
                                                                           rel=1e-15)


def test_power_integral_bounds_of_another_dimension_are_input_errors():
    for dens in (UniformBox(lo=[0.0, 0.0], hi=[1.0, 1.0]),
                 GaussianIsotropic(mean=[0.0, 0.0], sigma=1.0),
                 PiecewiseConstantGrid(lo=[0.0, 0.0], hi=[1.0, 1.0], weights=[[1.0]])):
        with pytest.raises(InputError, match="dimension"):
            dens.power_integral(1, [0.0], [1.0])
