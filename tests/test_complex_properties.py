"""Metamorphic properties of `build_complex`, for both flavours in d = 1..3.

A correct builder has invariances at every size that no brute-force oracle
reaches past a few dozen points.  Clouds are small, random or on a lattice
of step 1/4, where coordinate ties, coincident points, edges exactly r long
and enclosing balls of radius exactly r/2 all occur.  The thinned cases
draw one retention vector and seed for both sides of a comparison; the
coins see only (seed, dimension, vertex tuple), so every property that
holds unthinned holds thinned.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from softplex import PointCloud, build_complex, build_graph


def cloud_from(points):
    return PointCloud(points=points, provenance="binomial", size_parameter=len(points), seed=0)


@st.composite
def clouds(draw):
    """A cloud of 2..14 points in d = 1..3, random or on the lattice, and a radius."""
    d = draw(st.integers(1, 3))
    n = draw(st.sampled_from(range(2, 15)))
    if draw(st.booleans()):
        points = np.random.default_rng(draw(st.integers(0, 2**32))).random((n, d))
        r = draw(st.sampled_from([0.3, 0.5, 0.8]))
    else:
        steps = draw(st.lists(st.integers(0, 4), min_size=n * d, max_size=n * d))
        points = 0.25 * np.array(steps, dtype=np.float64).reshape(n, d)
        r = draw(st.sampled_from([0.25, 0.5, 1.0]))
    return cloud_from(points), r


FLAVORS = st.sampled_from(["rips", "cech"])
# None builds unthinned; a vector thins dimensions 1..4, enough for every k_max drawn
RHOS = st.one_of(st.none(), st.lists(st.sampled_from([0.0, 0.3, 0.7, 1.0]), min_size=4,
                                     max_size=4))


def rows_of(complex_):
    return [set(map(tuple, faces.tolist())) for faces in complex_.faces_by_dim]


def assert_subcomplex(small, big):
    for dim, (inner, outer) in enumerate(zip(rows_of(small), rows_of(big))):
        assert inner <= outer, f"dimension {dim}: {sorted(inner - outer)[:3]}"


@settings(max_examples=150)
@given(case=clouds(), flavor=FLAVORS, k_max=st.integers(1, 4), data=st.data())
def test_relabelling_maps_every_table_onto_the_original(case, flavor, k_max, data):
    cloud, r = case
    perm = np.array(data.draw(st.permutations(range(len(cloud)))), dtype=np.int64)
    original = build_complex(build_graph(cloud, r), k_max, flavor)
    relabelled = build_complex(build_graph(cloud_from(cloud.points[perm]), r), k_max, flavor)
    for faces, moved in zip(original.faces_by_dim, relabelled.faces_by_dim):
        mapped = np.sort(perm[moved], axis=1)  # label i of the shuffled cloud is perm[i]
        assert np.array_equal(mapped[np.lexsort(mapped.T[::-1])], faces)


@settings(max_examples=150)
@given(case=clouds(), flavor=FLAVORS, k_max=st.integers(2, 5),
       rho=st.lists(st.sampled_from([0.0, 0.3, 0.7, 1.0]), min_size=5, max_size=5),
       seed=st.integers(0, 2**32))
def test_truncation_keeps_the_lower_tables(case, flavor, k_max, rho, seed):
    cloud, r = case
    graph = build_graph(cloud, r)
    full = build_complex(graph, k_max, flavor, rho[:k_max], seed)
    truncated = build_complex(graph, k_max - 1, flavor, rho[:k_max - 1], seed)
    assert len(truncated.faces_by_dim) == k_max
    for lower, upper in zip(truncated.faces_by_dim, full.faces_by_dim):
        assert np.array_equal(lower, upper)


@settings(max_examples=150)
@given(case=clouds(), flavor=FLAVORS, k_max=st.integers(1, 4), rho=RHOS,
       seed=st.integers(0, 2**32))
def test_reflection_leaves_every_table_unchanged(case, flavor, k_max, rho, seed):
    cloud, r = case
    original = build_complex(build_graph(cloud, r), k_max, flavor, rho, seed)
    # negation is exact, and so is every difference, square and sum after it
    reflected = build_complex(build_graph(cloud_from(-cloud.points), r), k_max, flavor, rho, seed)
    for faces, mirrored in zip(original.faces_by_dim, reflected.faces_by_dim):
        assert np.array_equal(mirrored, faces)


@settings(max_examples=150)
@given(case=clouds(), flavor=FLAVORS, k_max=st.integers(1, 4), rho=RHOS,
       seed=st.integers(0, 2**32), factor=st.sampled_from([1.0, 1.25, 1.5, 2.0]))
def test_complexes_nest_in_r(case, flavor, k_max, rho, seed, factor):
    cloud, r = case
    small = build_complex(build_graph(cloud, r), k_max, flavor, rho, seed)
    assert_subcomplex(small, build_complex(build_graph(cloud, factor * r), k_max, flavor, rho,
                                           seed))


@settings(max_examples=150)
@given(case=clouds(), k_max=st.integers(1, 4), rho=RHOS, seed=st.integers(0, 2**32))
def test_jung_sandwich_between_rips_and_cech(case, k_max, rho, seed):
    """Rips(r) lies in Cech(r * sqrt(2d / (d + 1))), with equality in d = 1.

    Jung's theorem: a set of diameter r in R^d lies in a ball of radius
    r * sqrt(d / (2 (d + 1))).  The relative slack 1e-12 on the larger radius
    covers rounding.
    """
    cloud, r = case
    d = cloud.dimension
    rips = build_complex(build_graph(cloud, r), k_max, "rips", rho, seed)
    wide = r * np.sqrt(2.0 * d / (d + 1)) * (1.0 + 1e-12)
    assert_subcomplex(rips, build_complex(build_graph(cloud, wide), k_max, "cech", rho, seed))
    if d == 1:  # Helly: intervals meet iff they meet pairwise
        cech = build_complex(build_graph(cloud, r), k_max, "cech", rho, seed)
        for faces, ball in zip(rips.faces_by_dim, cech.faces_by_dim):
            assert np.array_equal(ball, faces)
