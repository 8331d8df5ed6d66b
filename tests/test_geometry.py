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
    in_region,
    leftmost_point,
    region_from_config,
    threshold_pairs_bruteforce,
    threshold_pairs_grid,
)
from softplex._grouping import _find, group_boundaries, pairs_across_groups, pairs_within_groups
from softplex.geometry import _CELL_SLACK, _positive_offsets, _sort_pairs


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
    tied (duplicates, coordinate ties, pairs exactly r apart) or runs spaced
    exactly r apart along one axis; shifted by an offset that may be negative."""
    d, n = draw(st.integers(1, 4)), draw(st.integers(0, 60))
    r = draw(st.sampled_from([0.125, 0.25, 0.3, 1.0]))
    kind = draw(st.sampled_from(["random", "ties", "runs"]))

    def grid(*shape, values=GRID):
        flat = draw(st.lists(values, min_size=math.prod(shape), max_size=math.prod(shape)))
        return np.asarray(flat, dtype=np.float64).reshape(shape)

    if kind == "random":
        pts = grid(n, d) * draw(st.sampled_from([0.5, 1.0, 4.0]))
    elif kind == "ties":
        pts = grid(n, d, values=st.integers(-4, 4).map(lambda k: k * r / 2))
    else:
        steps = grid(n, 1, values=st.integers(0, 12).map(float))
        pts = grid(1, d) + steps * r * np.eye(d)[draw(st.integers(0, d - 1))]
    return pts + draw(st.sampled_from([0.0, -3.0, 1000.5, -(2.0**20)])), r


@settings(max_examples=500)
@given(case=threshold_instances())
def test_grid_matches_bruteforce_on_random_instances(case):
    pts, r = case
    n = pts.shape[0]
    edges = threshold_pairs_grid(pts, r)
    assert np.array_equal(edges, threshold_pairs_bruteforce(pts, r))
    assert edges.dtype == np.int64 and edges.shape == (edges.shape[0], 2)
    assert np.all(edges[:, 0] < edges[:, 1])
    assert np.all(np.diff(edges[:, 0] * n + edges[:, 1]) > 0)


def label_ordered_grid(points, r):
    """The d >= 2 grid as it was before cell-ordered gathers, frozen as a reference.

    It builds cell keys with an (n, d) @ strides product and tests each candidate
    by gathering both rows by vertex label.  Guards are left to the tested code.
    """
    n, d = points.shape
    lo = points.min(axis=0)
    cells = np.floor((points - lo) / (r * _CELL_SLACK)).astype(np.int64) + 1
    extents = [int(e) + 2 for e in cells.max(axis=0)]
    strides = np.array([math.prod(extents[axis + 1:]) for axis in range(d)], dtype=np.int64)
    keys = cells @ strides
    order = np.argsort(keys)
    starts, sizes, group_keys = group_boundaries(keys[order])
    hit, pos = _find(group_keys, group_keys[None, :] + (_positive_offsets(d) @ strides)[:, None])
    src = np.nonzero(hit)[1]
    dst = pos[hit]
    li, ri = pairs_within_groups(starts, sizes)
    lj, rj = pairs_across_groups(starts[src], sizes[src], starts[dst], sizes[dst])
    cand_i = order[np.concatenate([li, lj])]
    cand_j = order[np.concatenate([ri, rj])]
    diff = points[cand_i] - points[cand_j]
    close = np.einsum("ij,ij->i", diff, diff) <= r * r
    return _sort_pairs(cand_i[close], cand_j[close], n)


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
    # Sparse and dense ends at n = 2000; the outlier stretches the grid far past the cluster.
    rng = np.random.default_rng(2000 + 10 * d)
    pts = rng.random((2000, d)) if kind == "uniform" else clustered_with_outlier(rng, 2000, d)
    edges = threshold_pairs_grid(pts, r)
    reference = label_ordered_grid(pts, r)
    assert edges.shape[0] > 0
    assert edges.dtype == reference.dtype and edges.tobytes() == reference.tobytes()


def test_far_offset_pair_is_found_or_refused():
    # A span of 1 against r = 2e-17: (x - lo) / r cannot index cells exactly.
    # The d = 1 sweep needs no cells; the grid must refuse, not miss the pair.
    line = np.array([[-1.0], [1.1e-16], [1.2e-16]])
    assert threshold_pairs_grid(line, 2e-17).tolist() == [[1, 2]]
    plane = np.hstack([line, np.zeros((3, 1))])
    assert threshold_pairs_bruteforce(plane, 2e-17).tolist() == [[1, 2]]
    with pytest.raises(ConfigurationError):
        threshold_pairs_grid(plane, 2e-17)
    # Within the grid's span bound (here 2^29 * r) the pair is found.
    plane[1:, 0] = [2.0**-30, 2.0**-30 + 2.0**-31]
    assert threshold_pairs_grid(plane, 2.0**-29).tolist() == [[1, 2]]


def test_cell_keys_beyond_int64_are_refused():
    # 2^25 * r per axis passes the span guard, but (2^25 + 3)^3 cells exceed 2^62.
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    with pytest.raises(ConfigurationError, match="64-bit cell keys"):
        threshold_pairs_grid(pts, 2.0**-25)


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
