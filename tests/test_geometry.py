import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from softplex import (
    ConfigurationError,
    InputError,
    PointCloud,
    RegionSpec,
    build_graph,
    leftmost_point,
    region_from_config,
    threshold_pairs,
    threshold_pairs_bruteforce,
)
from softplex.geometry import region_mask


def cloud_from(points):
    pts = np.asarray(points, dtype=np.float64)
    return PointCloud(points=pts, provenance="binomial", size_parameter=len(pts), seed=0)


def test_threshold_graph_simple_line():
    cloud = cloud_from([[0.0], [0.5], [2.0]])
    graph = build_graph(cloud, 1.0)
    assert graph.edges.tolist() == [[0, 1]]


def test_threshold_is_closed():
    cloud = cloud_from([[0.0], [1.0]])
    graph = build_graph(cloud, 1.0)
    assert graph.edges.tolist() == [[0, 1]]


def test_empty_and_singleton_clouds():
    assert build_graph(cloud_from(np.empty((0, 2))), 1.0).edge_count == 0
    assert build_graph(cloud_from([[0.0, 0.0]]), 1.0).edge_count == 0


# Coordinates on a dyadic grid in [-1, 1], so that offsets and multiples of
# a dyadic r stay exact.
GRID = st.integers(-(2**20), 2**20).map(lambda k: k / 2**20)


@st.composite
def threshold_instances(draw):
    """A cloud of 0..60 points in d = 1..4 and a radius, of one kind: random,
    tied (duplicates, coordinate ties, pairs exactly r apart), runs spaced
    exactly r apart along one axis, or far (r = 2^-40, tiny against the span,
    with points near three far-apart centres); shifted by an offset that may
    be negative."""
    d, n = draw(st.integers(1, 4)), draw(st.integers(0, 60))
    r = draw(st.sampled_from([0.125, 0.25, 0.3, 1.0]))
    kind = draw(st.sampled_from(["random", "ties", "runs", "far"]))

    def grid(*shape, values=GRID):
        flat = draw(st.lists(values, min_size=math.prod(shape), max_size=math.prod(shape)))
        return np.asarray(flat, dtype=np.float64).reshape(shape)

    if kind == "random":
        pts = grid(n, d) * draw(st.sampled_from([0.5, 1.0, 4.0]))
    elif kind == "ties":
        pts = grid(n, d, values=st.integers(-4, 4).map(lambda k: k * r / 2))
    elif kind == "runs":
        steps = grid(n, 1, values=st.integers(0, 12).map(float))
        pts = grid(1, d) + steps * r * np.eye(d)[draw(st.integers(0, d - 1))]
    else:
        r = 2.0**-40
        picks = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        pts = grid(3, d)[picks] + grid(n, d, values=st.integers(-2, 2).map(float)) * r
    return pts + draw(st.sampled_from([0.0, -3.0, 1000.5, -(2.0**20)])), r


@settings(max_examples=500)
@given(case=threshold_instances())
def test_threshold_pairs_match_bruteforce_on_random_instances(case):
    pts, r = case
    n = pts.shape[0]
    edges = threshold_pairs(pts, r)
    assert np.array_equal(edges, threshold_pairs_bruteforce(pts, r))
    assert edges.dtype == np.int64 and edges.shape == (edges.shape[0], 2)
    assert np.all(edges[:, 0] < edges[:, 1])
    assert np.all(np.diff(edges[:, 0] * n + edges[:, 1]) > 0)


def clustered_with_outlier(rng, n, d):
    """A tight cluster of n - 1 points and one point far away on every axis."""
    pts = 0.5 + 0.01 * rng.standard_normal((n, d))
    pts[-1] = 40.0
    return pts


@pytest.mark.parametrize(("d", "r", "kind"), [
    (2, 0.005, "uniform"), (2, 0.08, "uniform"),
    (3, 0.02, "uniform"), (3, 0.15, "uniform"),
    (2, 0.001, "clustered"), (3, 0.004, "clustered"),
])
def test_grid_matches_label_ordered_reference(d, r, kind):
    # Sparse and dense ends at n = 2000; the outlier stretches the cloud far past the cluster.
    rng = np.random.default_rng(2000 + 10 * d)
    pts = rng.random((2000, d)) if kind == "uniform" else clustered_with_outlier(rng, 2000, d)
    edges = threshold_pairs(pts, r)
    reference = threshold_pairs_bruteforce(pts, r)
    assert edges.shape[0] > 0
    assert edges.dtype == reference.dtype and edges.tobytes() == reference.tobytes()


def test_far_offset_pair_is_found_or_refused():
    # A span of 1 against r = 2e-17: the pair is found in d = 1 and d = 2, as the oracle finds it.
    line = np.array([[-1.0], [1.1e-16], [1.2e-16]])
    assert threshold_pairs(line, 2e-17).tolist() == [[1, 2]]
    plane = np.hstack([line, np.zeros((3, 1))])
    assert threshold_pairs_bruteforce(plane, 2e-17).tolist() == [[1, 2]]
    assert threshold_pairs(plane, 2e-17).tolist() == [[1, 2]]


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("d", [1, 2])
def test_threshold_pairs_refuses_non_finite_coordinates(bad, d):
    pts = np.zeros((3, d))
    pts[1, d - 1] = bad
    with pytest.raises(InputError, match="finite"):
        threshold_pairs(pts, 1.0)


def test_edge_list_sorted_and_duplicate_free():
    pts = np.random.default_rng(7).random((400, 2))
    edges = threshold_pairs(pts, 0.1)
    assert np.all(edges[:, 0] < edges[:, 1])
    codes = edges[:, 0] * 400 + edges[:, 1]
    assert np.all(np.diff(codes) > 0)  # strictly increasing: sorted, no duplicates


def test_edges_within_threshold():
    pts = np.random.default_rng(8).random((300, 2))
    r = 0.12
    edges = threshold_pairs(pts, r)
    gaps = np.linalg.norm(pts[edges[:, 0]] - pts[edges[:, 1]], axis=1)
    assert np.all(gaps <= r)


def test_threshold_radius_validated():
    with pytest.raises(InputError):
        build_graph(cloud_from([[0.0], [0.5]]), -1.0)


def test_leftmost_point_examples():
    cloud = cloud_from([[1.0, 0.0], [0.0, 1.0]])
    assert leftmost_point([0, 1], cloud) == 1
    cloud = cloud_from([[0.0, 2.0], [0.0, 1.0]])
    assert leftmost_point([0, 1], cloud) == 1  # lexicographic second coordinate
    assert leftmost_point([0], cloud) == 0


def test_leftmost_point_permutation_invariant():
    rng = np.random.default_rng(12)
    cloud = cloud_from(rng.random((30, 3)))
    subset = [5, 17, 2, 29, 11]
    baseline = leftmost_point(subset, cloud)
    for _ in range(10):
        rng.shuffle(subset)
        assert leftmost_point(subset, cloud) == baseline


def test_leftmost_point_of_empty_set_is_error():
    with pytest.raises(InputError):
        leftmost_point([], cloud_from([[0.0]]))


def test_in_region_examples():
    box = RegionSpec(kind="box", lo=(0.0, 0.0), hi=(1.0, 1.0))
    # the second point is on the boundary, excluded because the box is open
    assert region_mask(np.array([[0.5, 0.5], [0.0, 0.5]]), box).tolist() == [True, False]
    comp = RegionSpec(kind="box-complement", lo=(-1.0, -1.0), hi=(1.0, 1.0))
    # the third point is on the closed box removed from the complement
    points = np.array([[5.0, 5.0], [0.0, 0.0], [1.0, 0.0]])
    assert region_mask(points, comp).tolist() == [True, False, False]
    assert region_mask(np.array([[123.0, -5.0]]), RegionSpec(kind="all")).tolist() == [True]


def test_region_config_round_trip_and_validation():
    region = region_from_config({"kind": "box", "lo": [0.0], "hi": [2.0]})
    assert region.to_config() == {"kind": "box", "lo": [0.0], "hi": [2.0]}
    with pytest.raises(ConfigurationError):
        region_from_config({"kind": "ball"})
    with pytest.raises(ConfigurationError):
        region_from_config({"kind": "box", "lo": [0.0]})
    with pytest.raises(ConfigurationError):
        region_from_config({"kind": "all", "lo": [0.0], "hi": [1.0], "extra": 1})
