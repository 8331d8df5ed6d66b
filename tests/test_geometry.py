import numpy as np
import pytest

from softplex import (
    ConfigurationError,
    InputError,
    PointCloud,
    RegionSpec,
    build_graph,
    in_region,
    leftmost_point,
    region_from_config,
    threshold_pairs_bruteforce,
    threshold_pairs_grid,
)


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


def test_grid_matches_bruteforce_on_random_instances():
    rng = np.random.default_rng(101)
    for d, r in ((1, 0.01), (2, 0.08), (3, 0.2)):
        for _ in range(4):
            n = int(rng.integers(20, 800))
            pts = rng.random((n, d)) * (1.0 + rng.random(d))
            grid = threshold_pairs_grid(pts, r)
            brute = threshold_pairs_bruteforce(pts, r)
            assert np.array_equal(grid, brute)


def test_edge_list_sorted_and_duplicate_free():
    pts = np.random.default_rng(7).random((400, 2))
    edges = threshold_pairs_grid(pts, 0.1)
    assert np.all(edges[:, 0] < edges[:, 1])
    codes = edges[:, 0] * 400 + edges[:, 1]
    assert np.all(np.diff(codes) > 0)  # strictly increasing: sorted, no duplicates


def test_edges_within_threshold():
    pts = np.random.default_rng(8).random((300, 2))
    r = 0.12
    edges = threshold_pairs_grid(pts, r)
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
    assert in_region([0.5, 0.5], box)
    assert not in_region([0.0, 0.5], box)  # boundary excluded, the box is open
    comp = RegionSpec(kind="box-complement", lo=(-1.0, -1.0), hi=(1.0, 1.0))
    assert in_region([5.0, 5.0], comp)
    assert not in_region([0.0, 0.0], comp)
    assert not in_region([1.0, 0.0], comp)  # closed box removed from the complement
    assert in_region([123.0, -5.0], RegionSpec(kind="all"))


def test_region_config_round_trip_and_validation():
    region = region_from_config({"kind": "box", "lo": [0.0], "hi": [2.0]})
    assert region.to_config() == {"kind": "box", "lo": [0.0], "hi": [2.0]}
    with pytest.raises(ConfigurationError):
        region_from_config({"kind": "ball"})
    with pytest.raises(ConfigurationError):
        region_from_config({"kind": "box", "lo": [0.0]})
    with pytest.raises(ConfigurationError):
        region_from_config({"kind": "all", "lo": [0.0], "hi": [1.0], "extra": 1})
