import math

import numpy as np
import pytest

from softplex import (
    ALL_SPACE,
    ConfigurationError,
    ConstantEstimate,
    InputError,
    RegionSpec,
    UniformBox,
    estimate_mu,
    estimate_nu,
    estimate_phi,
    estimate_theta,
    predicted_moments,
    regime_check,
    retention_exponent,
    unit_ball_volume,
)
from softplex.constants import _admissible, _estimate, log_growth_quantity

UNIT_1D = UniformBox(lo=[0.0], hi=[1.0])
UNIT_2D = UniformBox(lo=[0.0, 0.0], hi=[1.0, 1.0])


def test_retention_exponent_examples():
    assert retention_exponent(k=1, l=1, j=1, i=1) == 2
    assert retention_exponent(k=2, l=2, j=2, i=1) == 5
    assert retention_exponent(k=2, l=2, j=2, i=2) == 2
    for i in (1, 2):
        # disjoint faces share no subfaces: exponents simply add
        assert retention_exponent(k=2, l=2, j=0, i=i) == 2 * math.comb(3, i + 1)


def test_retention_exponent_symmetry_and_sign():
    for k in range(5):
        for l in range(5):
            for j in range(min(k, l) + 2):
                for i in range(1, max(k, l) + 1):
                    value = retention_exponent(k, l, j, i)
                    assert value == retention_exponent(l, k, j, i)
                    assert value >= 0


def test_retention_exponent_validation():
    with pytest.raises(InputError):
        retention_exponent(k=-1, l=1, j=0, i=1)
    with pytest.raises(InputError):
        retention_exponent(k=1, l=1, j=3, i=1)
    with pytest.raises(InputError):
        retention_exponent(k=1, l=1, j=1, i=2)


def test_mu_k0_is_exact_region_mass():
    est = estimate_mu(0, 1, UNIT_1D, samples=100, seed=1)
    assert est.value == 1.0
    assert est.stderr == 0.0


def test_mu_k1_d1_uniform():
    # closed form: (1/2!) * int f^2 * len{|x| <= 1} = (1/2) * 1 * 2 = 1
    est = estimate_mu(1, 1, UNIT_1D, samples=100_000, seed=2)
    assert abs(est.value - 1.0) <= max(3.0 * est.stderr, 1e-12)


def test_mu_k1_d2_uniform_is_half_disk_area():
    # closed form: (1/2) * 1 * area of the unit disk = pi/2
    est = estimate_mu(1, 2, UNIT_2D, samples=100_000, seed=3)
    assert abs(est.value - math.pi / 2.0) <= max(3.0 * est.stderr, 1e-12)


def test_mu_k2_d1_uniform():
    # length of {(x1, x2) in [-1,1]^2 : |x1 - x2| <= 1} is 3, so mu = 3/6
    est = estimate_mu(2, 1, UNIT_1D, samples=400_000, seed=4)
    assert est.stderr > 0.0
    assert abs(est.value - 0.5) <= 3.0 * est.stderr


def test_nu_equals_mu_for_edges():
    # both edge indicators are |x| <= 1; the estimates cannot show it, since
    # they sample x from the unit ball where both always hold, so the test
    # evaluates the indicators on points of the square [-2, 2]^2, as the
    # origin-prefixed (2, d, rows) planes the estimator tests
    planes = np.zeros((2, 2, 4000))
    planes[1] = np.random.default_rng(5).uniform(-2.0, 2.0, (2, 4000))
    inside = np.einsum("kc,kc->c", planes[1], planes[1]) <= 1.0
    clique = _admissible(planes, [(0, 1)], "rips")
    ball = _admissible(planes, [(0, 1)], "cech")
    assert 0 < inside.sum() < inside.size
    assert np.array_equal(clique, ball)
    assert np.array_equal(clique, inside)


def test_nu_strictly_below_mu_in_d2():
    mu = estimate_mu(2, 2, UNIT_2D, samples=400_000, seed=7)
    nu = estimate_nu(2, 2, UNIT_2D, samples=400_000, seed=8)
    joint = math.hypot(mu.stderr, nu.stderr)
    assert mu.value - nu.value > 3.0 * joint


def test_nu_equals_mu_in_d1():
    mu = estimate_mu(2, 1, UNIT_1D, samples=400_000, seed=9)
    nu = estimate_nu(2, 1, UNIT_1D, samples=400_000, seed=10)
    joint = math.hypot(mu.stderr, nu.stderr)
    assert abs(mu.value - nu.value) <= 3.0 * joint


def test_gaussian_density_outer_weighting():
    # mu_2 = (1/2) int f^2 * 2; for N(0, sigma^2) in d=1, int f^2 = 1/(2 sigma sqrt(pi))
    from softplex import GaussianIsotropic

    sigma = 0.7
    dens = GaussianIsotropic(mean=[0.0], sigma=sigma)
    # int f^2 is exact and, in d = 1, so is the indicator factor: every x of
    # the unit ball is within 1 of the origin
    est = estimate_mu(1, 1, dens, samples=400_000, seed=11)
    expect = 1.0 / (2.0 * sigma * math.sqrt(math.pi))
    assert est.stderr == 0.0
    assert est.value == pytest.approx(expect, rel=1e-14, abs=0.0)


def test_region_factors_add_up_to_the_whole_space_factor():
    # mu_0 is the density factor alone: the mass of f over the region
    density = UniformBox(lo=[0.0, 0.0], hi=[2.0, 1.0])
    box = RegionSpec(kind="box", lo=[1.0, 0.5], hi=[3.0, 3.0])
    rest = RegionSpec(kind="box-complement", lo=box.lo, hi=box.hi)
    values = [estimate_mu(0, 2, density, region=region, samples=10, seed=1).value
              for region in (box, rest, ALL_SPACE)]
    assert values == [0.25, 0.75, 1.0]


def test_region_of_another_dimension_is_an_input_error():
    with pytest.raises(InputError, match="dimension"):
        estimate_mu(1, 2, UNIT_2D, region=RegionSpec("box", [0.0], [1.0]), samples=10)


def test_phi_single_shared_vertex_of_two_vertices():
    est = estimate_phi(0, 0, 1, 1, UNIT_1D, samples=100, seed=12)
    assert est.value == 1.0  # region mass; the inner integral is empty
    assert est.stderr == 0.0
    twin = estimate_theta(0, 0, 1, 1, UNIT_1D, samples=100, seed=12)
    assert twin.value == 1.0 and twin.stderr == 0.0


def test_phi_full_overlap_identity_with_mu():
    # a pair with all vertices shared is a single face
    mu = estimate_mu(2, 2, UNIT_2D, samples=300_000, seed=13)
    phi = estimate_phi(2, 2, 3, 2, UNIT_2D, samples=300_000, seed=14)
    joint = math.hypot(mu.stderr, phi.stderr)
    assert abs(mu.value - phi.value) <= 3.0 * joint


def test_theta_full_overlap_identity_with_nu():
    nu = estimate_nu(2, 2, UNIT_2D, samples=300_000, seed=15)
    theta = estimate_theta(2, 2, 3, 2, UNIT_2D, samples=300_000, seed=16)
    joint = math.hypot(nu.stderr, theta.stderr)
    assert abs(nu.value - theta.value) <= 3.0 * joint


@pytest.mark.parametrize("region", [None, "box"])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("k", range(4))
def test_face_constant_is_exactly_its_full_overlap_pair(k, d, region):
    # equal seeds draw the same points, so the identity holds bit for bit
    density = UNIT_1D if d == 1 else UNIT_2D
    region = RegionSpec(kind="box", lo=[0.1] * d, hi=[0.9] * d) if region else RegionSpec("all")
    kwargs = dict(region=region, samples=2000, seed=31)
    for face, pair in ((estimate_mu, estimate_phi), (estimate_nu, estimate_theta)):
        single = face(k, d, density, **kwargs)
        full = pair(k, k, k + 1, d, density, **kwargs)
        assert single.value == full.value
        assert single.stderr == full.stderr
        assert (single.l, single.j) == (None, None)


@pytest.mark.parametrize("samples", [0, -5])
def test_every_kind_rejects_nonpositive_samples(samples):
    for estimate in (estimate_mu, estimate_nu):
        with pytest.raises(InputError):
            estimate(1, 1, UNIT_1D, samples=samples, seed=1)
    for estimate in (estimate_phi, estimate_theta):
        with pytest.raises(InputError):
            estimate(1, 1, 1, 1, UNIT_1D, samples=samples, seed=1)


def test_integer_valued_sample_counts_are_accepted():
    # scientific notation reads as a count, as the CLI's --samples does
    est = estimate_mu(1, 1, UNIT_1D, samples=1e3, seed=1)
    assert est.samples == 1000 and type(est.samples) is int
    assert est == estimate_mu(1, 1, UNIT_1D, samples=1000, seed=1)


@pytest.mark.parametrize("samples", [2.5, "100"])
def test_other_sample_counts_are_input_errors(samples):
    with pytest.raises(InputError, match="integer-valued"):
        estimate_mu(1, 1, UNIT_1D, samples=samples, seed=1)


def test_face_kinds_refuse_pair_arguments():
    for kind in ("mu", "nu"):
        for l, j in ((7, 9), (1, None), (None, 2)):
            with pytest.raises(ConfigurationError, match="takes no l or j"):
                _estimate(kind, 1, l, j, 1, UNIT_1D, ALL_SPACE, 100, 1, 1)


def test_unknown_flavor_is_rejected():
    nu1 = estimate_nu(1, 1, UNIT_1D, samples=100, seed=1)
    with pytest.raises(ConfigurationError, match="flavor"):
        predicted_moments(1e4, 1e-4, 1, (1.0,), k=1, constants=[nu1], flavor="Rips")


def _phi_quadrature_oracle_d1(k, l, j, cells=801):
    """Dense midpoint quadrature for the two-clique indicator in d=1."""
    m = k + l + 1 - j
    grid = np.linspace(-1.0, 1.0, cells + 1)
    mid = 0.5 * (grid[1:] + grid[:-1])
    step = grid[1] - grid[0]
    meshes = np.meshgrid(*([mid] * m), indexing="ij")
    coords = np.stack([mesh.ravel() for mesh in meshes], axis=1)
    full = np.concatenate([np.zeros((coords.shape[0], 1)), coords], axis=1)
    first = full[:, : k + 1]
    second = np.concatenate([full[:, :j], full[:, k + 1:]], axis=1)

    def clique(block):
        ok = np.ones(block.shape[0], dtype=bool)
        for a in range(block.shape[1]):
            for b in range(a + 1, block.shape[1]):
                ok &= np.abs(block[:, a] - block[:, b]) <= 1.0
        return ok

    integral = float((clique(first) & clique(second)).sum()) * step**m
    return integral / (
        math.factorial(j) * math.factorial(k + 1 - j) * math.factorial(l + 1 - j)
    )


def test_phi_111_matches_quadrature_oracle():
    oracle = _phi_quadrature_oracle_d1(1, 1, 1)
    est = estimate_phi(1, 1, 1, 1, UNIT_1D, samples=200_000, seed=17)
    assert abs(est.value - oracle) <= 0.01 * oracle


def test_phi_212_matches_quadrature_oracle():
    oracle = _phi_quadrature_oracle_d1(2, 1, 2, cells=1201)
    est = estimate_phi(2, 1, 2, 1, UNIT_1D, samples=400_000, seed=18)
    assert abs(est.value - oracle) <= max(0.01 * oracle, 3.0 * est.stderr)


def test_theta_111_matches_quadrature_oracle():
    # pairs only: the ball condition coincides with the pairwise condition
    oracle = _phi_quadrature_oracle_d1(1, 1, 1)
    est = estimate_theta(1, 1, 1, 1, UNIT_1D, samples=200_000, seed=19)
    assert abs(est.value - oracle) <= 0.01 * oracle


def test_phi_validates_overlap():
    with pytest.raises(InputError):
        estimate_phi(1, 1, 0, 1, UNIT_1D, samples=10, seed=1)
    with pytest.raises(InputError):
        estimate_phi(1, 1, 3, 1, UNIT_1D, samples=10, seed=1)


def test_predicted_moments_examples():
    n, d = 10_000.0, 1
    r = n ** (-1.1)
    mu2 = estimate_mu(1, 1, UNIT_1D, samples=1000, seed=20)
    mu0 = estimate_mu(0, 1, UNIT_1D, samples=1000, seed=21)
    pred = predicted_moments(n, r, d, (1.0,), k=1, constants=[mu2])
    assert pred.mean == pytest.approx(n * n * r, rel=1e-9)
    zero = predicted_moments(n, r, d, (0.0,), k=1, constants=[mu2])
    assert zero.mean == 0.0 and zero.variance == 0.0
    vertex = predicted_moments(n, r, d, (1.0,), k=0, constants=[mu0])
    assert vertex.variance == pytest.approx(n)  # Poisson vertex count


def test_zero_radius_keeps_the_vertex_scale():
    # r^0 is 1 at r = 0: the vertex scale stays n, and every higher face scale is 0
    mu0 = ConstantEstimate(value=1.0, stderr=0.0, samples=1, kind="mu", k=0)
    vertex = predicted_moments(100.0, 0.0, 1, (), k=0, constants=[mu0])
    assert vertex.mean == pytest.approx(100.0) and vertex.variance == pytest.approx(100.0)
    report = regime_check(100.0, 0.0, 1, (1.0,), ("chi", 0))
    assert report.quantities["growth_l0"] == pytest.approx(100.0)
    assert report.quantities["vanish_l1"] == 0.0


def test_predicted_moments_covariance_term():
    n, d, r = 1000.0, 1, 1e-4
    mu2 = estimate_mu(1, 1, UNIT_1D, samples=1000, seed=22)
    phi1 = estimate_phi(1, 1, 1, 1, UNIT_1D, samples=1000, seed=23)
    phi2 = estimate_phi(1, 1, 2, 1, UNIT_1D, samples=1000, seed=24)
    pred = predicted_moments(n, r, d, (0.5,), k=1, l=1, constants=[mu2, phi1, phi2])
    expect = 0.5**2 * n**3 * r**2 * phi1.value + 0.5 * n**2 * r * phi2.value
    assert pred.covariance == pytest.approx(expect, rel=1e-9)
    with pytest.raises(ConfigurationError):
        predicted_moments(n, r, d, (0.5,), k=1, l=1, constants=[mu2, phi1])


def test_predicted_covariance_needs_every_retention_factor():
    # l = 2 needs p_1 and p_2; a missing p_2 must not be read as 1
    n, d, r = 1e4, 1, 1e-4
    constants = [estimate_mu(1, 1, UNIT_1D, samples=1000, seed=25)]
    constants += [estimate_phi(1, 2, j, 1, UNIT_1D, samples=1000, seed=26) for j in (1, 2)]
    full = predicted_moments(n, r, d, (0.5, 1.0), k=1, l=2, constants=constants)
    thinned = predicted_moments(n, r, d, (0.5, 0.01), k=1, l=2, constants=constants)
    assert thinned.covariance < full.covariance
    with pytest.raises(ConfigurationError, match="too short"):
        predicted_moments(n, r, d, (0.5,), k=1, l=2, constants=constants)


def test_regime_check_fail_when_dense():
    report = regime_check(1e4, 1e4 ** (-0.8), 1, (1.0,), ("fk", 1))
    assert report.quantities["nr^d"] == pytest.approx(10.0**0.8, rel=1e-9)
    assert not report.flags["sparse_ok"]


def test_regime_check_sparse_growth():
    report = regime_check(1e6, 1e6 ** (-1.1), 1, (1.0,), ("fk", 1),
                          sparse_threshold=0.3, growth_threshold=1e3)
    assert report.quantities["nr^d"] == pytest.approx(10.0 ** (-0.6), rel=1e-9)
    assert report.quantities["growth_k1"] == pytest.approx(10.0**5.4, rel=1e-9)
    assert report.flags["sparse_ok"] and report.flags["growth_ok"]
    assert report.ok


def test_regime_check_chi_mode():
    report = regime_check(1e5, 1e5 ** (-1.7), 1, (1.0, 1.0), ("chi", 1),
                          sparse_threshold=0.3, growth_threshold=10.0)
    assert report.flags["vanish_ok"] and report.flags["growth_ok"] and report.flags["sparse_ok"]


def test_log_space_handles_tiny_probabilities():
    value = log_growth_quantity(1e6, 1e-3, 2, (1e-12, 1e-12), 2)
    assert math.isfinite(value)
    report = regime_check(1e6, 1e-3, 2, (1e-12, 1e-12), ("fk", 2))
    assert all(math.isfinite(v) for v in report.quantities.values())


def test_unit_ball_volumes():
    assert unit_ball_volume(1) == pytest.approx(2.0)
    assert unit_ball_volume(2) == pytest.approx(math.pi)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)
    # Gamma(d/2 + 1) overflows from d = 342 on, and pi^(d/2) from d = 1241
    for d in (341, 342, 400, 1300):
        log_volume = d / 2.0 * math.log(math.pi) - math.lgamma(d / 2.0 + 1.0)
        assert unit_ball_volume(d) == pytest.approx(math.exp(log_volume), rel=1e-12)


def test_estimates_independent_of_worker_count():
    # shards are fixed by the sample count, so the pool size cannot matter
    kwargs = dict(samples=3_000_000, seed=44)  # spans several shards
    serial = estimate_mu(2, 2, UNIT_2D, threads=1, **kwargs)
    pooled = estimate_mu(2, 2, UNIT_2D, threads=4, **kwargs)
    assert serial.value == pooled.value
    assert serial.stderr == pooled.stderr
    serial_pair = estimate_theta(2, 1, 1, 2, UNIT_2D, threads=1, **kwargs)
    pooled_pair = estimate_theta(2, 1, 1, 2, UNIT_2D, threads=3, **kwargs)
    assert serial_pair.value == pooled_pair.value
