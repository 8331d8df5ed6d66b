"""Metamorphic properties of `build_complex`, for both flavours in d = 1..3.

A correct builder has invariances at every size that no brute-force oracle
reaches past a few dozen points.  Clouds are small, random or on a lattice
of step 1/4, where coordinate ties, coincident points, edges exactly r long
and enclosing balls of radius exactly r/2 all occur.
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
