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
    region_from_config,
    threshold_pairs,
    threshold_pairs_bruteforce,
)
from softplex.geometry import _sorted_order, region_mask


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


def cloud_of_kind(kind, d, rng):
    """1,500 or 2,000 points of one kind in d dimensions."""
    if kind == "uniform":
        return rng.random((2000, d))
    if kind == "clustered":
        return clustered_with_outlier(rng, 2000, d)
    if kind == "lattice":  # coordinate ties and pairs exactly r apart
        return rng.integers(0, 64 if d == 2 else 16, (2000, d)) / 8.0
    if kind == "copies":  # 200 copies of one point, which no split can divide
        pts = rng.random((2000, d))
        pts[rng.choice(2000, 200, replace=False)] = pts[0]
        return pts
    if kind == "speck":  # a cluster 1e-9 wide and 50 outliers about 1e3 away
        pts = 0.5 + 1e-9 * rng.random((1500, d))
        pts[:50] = 1e3 * rng.standard_normal((50, d))
        return pts
    direction = np.arange(1.0, d + 1.0) / math.sqrt(d * (d + 1) * (2 * d + 1) / 6)
    return -0.25 + rng.random((2000, 1)) * direction  # collinear


DEGENERATE_RADII = {"lattice": [0.125, math.sqrt(2.0) / 8.0], "copies": [0.02, 0.08],
                    "speck": [3e-11, 2e-10, 400.0], "collinear": [1e-4, 1e-3]}


@pytest.mark.parametrize(("d", "r", "kind"), [
    (2, 0.005, "uniform"), (2, 0.08, "uniform"),
    (3, 0.02, "uniform"), (3, 0.15, "uniform"),
    (2, 0.001, "clustered"), (3, 0.004, "clustered"),
    *[(d, r, kind) for d in (2, 3) for kind, radii in DEGENERATE_RADII.items() for r in radii],
])
def test_threshold_pairs_match_bruteforce_on_fixed_clouds(d, r, kind):
    # Sparse and dense ends at n = 2000, where the tree splits many levels
    # deep; the outliers stretch the cloud far past a cluster, and the
    # degenerate kinds are the clouds a split rule finds hardest to divide.
    pts = cloud_of_kind(kind, d, np.random.default_rng(2000 + 10 * d))
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


def test_tie_run_out_of_label_order_is_repaired():
    # x - min x rounds to 1.0 for the four middle values, so they share one
    # quantum, and their labels 2, 3, 4, 5 contradict their values.
    x = np.array([-1.0, 1.0, 1e-30, 0.0, -1e-30, 1e-30])
    assert set((x[2:] - x.min()).tolist()) == {1.0}
    order, xs, gap = _sorted_order(x)
    assert order.tolist() == [0, 4, 3, 2, 5, 1]  # the keys alone give [0, 2, 3, 4, 5, 1]
    assert xs.tobytes() == x[order].tobytes() and np.all(gap >= 0)
    for r in (0.0, 1e-30, 2e-30, 1.0, 2.0):
        pts = x[:, None]
        assert threshold_pairs(pts, r).tobytes() == threshold_pairs_bruteforce(pts, r).tobytes()


@st.composite
def presorted_out_of_order(draw):
    """A 1-d cloud that its keys alone leave unsorted, and a cluster's width.

    Dyadic values in [-1, 1] and their two ends, or the values between two
    points at -1e308 and 1e308, whose span overflows and gives a scale of 0;
    with signed zeros and exact duplicates, or without; among them 1..3
    clusters of 2..20 distinct values within one quantum, labelled against
    their values.  Or a cloud of subnormal values, whose scale overflows and
    is set to 0, in draw order.
    """
    kind = draw(st.sampled_from(["uniform", "extremes", "zeros", "subnormal"]))
    if kind == "subnormal":
        steps = draw(st.lists(st.integers(-40, 40), min_size=2, max_size=60))
        return np.asarray(steps, dtype=np.float64) * 2.0**-1074, 3 * 2.0**-1074
    values = draw(st.lists(GRID, max_size=40))
    if kind == "zeros":
        values += draw(st.lists(st.sampled_from([-0.0, 0.0, 0.25, -0.5]), min_size=2, max_size=20))
    clusters, width = [], 0.0
    for _ in range(draw(st.integers(1, 3))):
        # x - min x rounds every member to one value: its offsets are below half an ulp of it
        centre, ulp = draw(st.sampled_from([(0.0, 2.0**-100), (2.0**-10, 2.0**-62), (-(2.0**-12), 2.0**-64)]))
        steps = sorted(draw(st.lists(st.integers(0, 40), min_size=2, max_size=20, unique=True)))
        clusters += [centre + ulp * s for s in reversed(steps)]
        width = (steps[-1] - steps[0]) * ulp
    at = draw(st.integers(0, len(values)))
    ends = [1e308, -1e308] if kind == "extremes" else [1.0, -1.0]
    return np.asarray(values[:at] + clusters + values[at:] + ends), width


@settings(max_examples=200)
@given(case=presorted_out_of_order())
def test_sorted_order_finishes_an_unsorted_presort(case):
    x, width = case
    with np.errstate(over="ignore"):
        order, xs, gap = _sorted_order(x)
        assert np.array_equal(np.sort(order), np.arange(x.size))
        assert xs.tobytes() == x[order].tobytes()
        assert np.all(gap >= 0) and gap.tobytes() == (xs[1:] - xs[:-1]).tobytes()
        finite_span = (x.max() - x.min()) ** 2 < math.inf
    if finite_span:
        pts = x[:, None]
        for r in (0.0, width, 1.0):
            assert threshold_pairs(pts, r).tobytes() == threshold_pairs_bruteforce(pts, r).tobytes()


def test_constant_cloud_is_the_complete_graph():
    pts = np.full((7, 1), -2.5)
    assert threshold_pairs(pts, 0.0).tolist() == [[i, j] for i in range(7) for j in range(i + 1, 7)]


def test_huge_span_line_has_edges_and_no_overflow_warning():
    # the suite turns RuntimeWarning into an error, so an overflowing gap would fail here
    line = np.array([[1e308], [-1e308], [0.0], [5.0]])
    assert threshold_pairs(line, 6.0).tolist() == [[2, 3]]


def test_huge_span_plane_is_refused_with_the_limit():
    plane = np.array([[1e308, 0.0], [-1e308, 0.0], [0.0, 0.0], [5.0, 0.0]])
    with pytest.raises(InputError, match=r"diagonal of at most 1\.341e\+154"):
        threshold_pairs(plane, 6.0)
    below = np.array([[0.0, 0.0], [5.0, 0.0], [1.3e154, 0.0]])
    assert threshold_pairs(below, 6.0).tolist() == [[0, 1]]


@pytest.mark.parametrize("d", [1, 2])
def test_radius_whose_square_overflows_is_refused_with_the_limit(d):
    # r * r = inf would let every pair pass, two points 1e300 apart included
    far = np.zeros((2, d))
    far[1, 0] = 1e300
    with pytest.raises(InputError, match=r"radius of at most 1\.341e\+154"):
        threshold_pairs(far, 1e200)
    with pytest.raises(InputError, match=r"radius of at most 1\.341e\+154"):
        build_graph(cloud_from(far), 1e200)
    near = np.zeros((3, d))
    near[1, 0], near[2, 0] = 1e154, 1.2e154
    assert threshold_pairs(near, 1e154).tolist() == [[0, 1], [1, 2]]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sweep_matches_a_tree_on_a_large_uniform_line(seed):
    from scipy.spatial import cKDTree

    n = 200_000
    pts = np.random.default_rng(seed).random((n, 1))
    r = n ** -1.1
    pairs = cKDTree(pts).query_pairs(r, output_type="ndarray")
    codes = np.sort(pairs.min(axis=1) * n + pairs.max(axis=1))
    reference = np.stack(np.divmod(codes, n), axis=1)
    edges = threshold_pairs(pts, r)
    assert edges.shape[0] > 10_000
    assert edges.dtype == reference.dtype and edges.tobytes() == reference.tobytes()


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
