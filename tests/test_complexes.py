import bisect
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from softplex import (
    ConfigurationError,
    FaceCounts,
    PointCloud,
    RegionSpec,
    UniformBox,
    build_cech,
    build_complex,
    build_graph,
    build_rips,
    downward_closed,
    euler_characteristic,
    face_counts,
    min_enclosing_ball,
    min_enclosing_ball_radius,
    rips_bruteforce,
    sample_binomial,
    soft_thin,
)
from softplex.complexes import _find, _min_ball_radii, pairs_within_groups
from softplex.rng import FACE_COIN_STREAM, derive_seed, uniform_coins

UNIT_1D = UniformBox(lo=[0.0], hi=[1.0])
UNIT_2D = UniformBox(lo=[0.0, 0.0], hi=[1.0, 1.0])


def cloud_from(points):
    pts = np.asarray(points, dtype=np.float64)
    return PointCloud(points=pts, provenance="binomial", size_parameter=len(pts), seed=0)


EQUILATERAL = cloud_from([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])


def test_rips_on_triangle_graph():
    cx = build_rips(build_graph(EQUILATERAL, 1.0), 2)
    assert cx.face_vector() == (3, 3, 1)


def test_rips_on_path_graph():
    cloud = cloud_from([[0.0], [0.9], [1.8]])
    cx = build_rips(build_graph(cloud, 1.0), 2)
    assert cx.face_vector() == (3, 2, 0)


def test_rips_on_empty_graph():
    cloud = cloud_from([[0.0], [10.0], [20.0], [30.0]])
    cx = build_rips(build_graph(cloud, 1.0), 3)
    assert cx.face_vector() == (4, 0, 0, 0)


def test_rips_matches_bruteforce():
    for seed, n, r, d in ((1, 25, 0.35, 1), (2, 20, 0.45, 2), (3, 15, 0.7, 3)):
        dens = UniformBox(lo=[0.0] * d, hi=[1.0] * d)
        cloud = sample_binomial(n, dens, seed=seed)
        fast = build_rips(build_graph(cloud, r), 4)
        slow = rips_bruteforce(cloud, r, 4)
        for a, b in zip(fast.faces_by_dim, slow.faces_by_dim):
            assert np.array_equal(a, b)


def test_rips_downward_closed():
    cloud = sample_binomial(80, UNIT_2D, seed=5)
    cx = build_rips(build_graph(cloud, 0.25), 4)
    assert downward_closed(cx)
    # one tetrahedron: removing any of its four triangles breaks closure,
    # whichever vertex the missing triangle lacks
    corners = cloud_from([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    tetra = build_rips(build_graph(corners, 2.0), 3)
    assert tetra.face_vector() == (4, 6, 4, 1) and downward_closed(tetra)
    for drop in range(4):
        triangles = tetra.faces_by_dim[2]
        kept = triangles[~np.all(triangles == np.delete([0, 1, 2, 3], drop), axis=1)]
        faces = (*tetra.faces_by_dim[:2], kept, tetra.faces_by_dim[3])
        assert not downward_closed(replace(tetra, faces_by_dim=faces))


def test_min_enclosing_ball_examples():
    assert min_enclosing_ball_radius([[3.0, 4.0]]) == 0.0
    assert min_enclosing_ball_radius([[0.0], [1.0]]) == pytest.approx(0.5, abs=1e-12)
    # circumradius of an equilateral triangle of side s is s/sqrt(3)
    r = min_enclosing_ball_radius(EQUILATERAL.points)
    assert r == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-12)


def test_min_enclosing_ball_contains_points():
    rng = np.random.default_rng(31)
    for _ in range(50):
        m = int(rng.integers(1, 8))
        d = int(rng.integers(1, 4))
        pts = rng.normal(size=(m, d))
        center, radius = min_enclosing_ball(pts)
        dists = np.linalg.norm(pts - center, axis=1)
        assert np.all(dists <= radius + 1e-9)


def test_min_enclosing_ball_small_ball_far_from_origin():
    # two coincident points and a third 1.06e-9 away, at coordinates near
    # 7.8e-3: the radius must not be rounded at the scale of the coordinates
    a = np.array([1.9073486e-06, 7.8125e-03])
    b = a + np.array([0.0, 1.06e-9])
    exact = 0.5 * float(np.linalg.norm(b - a))
    assert min_enclosing_ball_radius([a, a, b]) == pytest.approx(exact, rel=1e-12, abs=0.0)


def test_min_enclosing_ball_obtuse_triangle():
    # obtuse: ball spanned by the longest side, not the circumcircle
    pts = [[0.0, 0.0], [4.0, 0.0], [1.0, 0.3]]
    assert min_enclosing_ball_radius(pts) == pytest.approx(2.0, abs=1e-12)


# Coordinates on a dyadic grid in [-1, 1]: exact, free of underflow, and
# shrinking towards ties.
GRID = st.integers(-(2**20), 2**20).map(lambda k: k / 2**20)


@st.composite
def ball_blocks(draw):
    """A (count, m, d) block of one kind: random, tied, collinear, cospherical
    or with duplicated points."""
    m, d, count = draw(st.integers(2, 5)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["random", "ties", "collinear", "cospherical", "duplicated"]))

    def grid(*shape, values=GRID):
        flat = draw(st.lists(values, min_size=math.prod(shape), max_size=math.prod(shape)))
        return np.asarray(flat, dtype=np.float64).reshape(shape)

    if kind == "random":
        return grid(count, m, d)
    if kind == "ties":
        return grid(count, m, d, values=st.sampled_from([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0]))
    if kind == "collinear":
        return grid(count, 1, d) + grid(count, m, 1) * grid(count, 1, d)
    if kind == "cospherical":
        directions = grid(count, m, d)
        norms = np.linalg.norm(directions, axis=2, keepdims=True)
        directions = np.where(norms > 1e-3, directions / np.maximum(norms, 1e-3), np.eye(d)[0])
        return grid(count, 1, d) + np.abs(grid(count, 1, 1)) * directions
    distinct = grid(count, m, d)
    picks = grid(count, m, values=st.integers(0, draw(st.integers(0, m - 1)))).astype(int)
    return distinct[np.arange(count)[:, None], picks]


@settings(max_examples=500)
@given(block=ball_blocks(), scale=st.floats(0.5, 1.5))
def test_min_ball_radii_match_welzl(block, scale):
    fast = _min_ball_radii(block)
    for tuple_, radius in zip(block, fast):
        oracle = min_enclosing_ball_radius(tuple_)
        # neither solver resolves a radius finer than the rounding of the
        # coordinates, hence the absolute floor for tiny balls far from 0
        floor = 1e-12 * np.abs(tuple_).max()
        assert math.isclose(radius, oracle, rel_tol=1e-9, abs_tol=floor)
        # the admissibility decision agrees away from 1e-12-relative ties
        half_r = oracle * scale
        if abs(oracle - half_r) > 1e-12 * half_r + floor:
            assert (radius <= half_r) == (oracle <= half_r)


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_min_ball_radii_do_not_depend_on_batch_size(d, m):
    # the Čech filter calls the kernel on however many candidate rows a dimension has
    block = np.random.default_rng(100 * d + m).random((200, m, d))
    batched = _min_ball_radii(block)
    one_by_one = np.concatenate([_min_ball_radii(block[i:i + 1]) for i in range(len(block))])
    np.testing.assert_array_equal(one_by_one, batched)


def test_cech_equilateral_scale():
    # circumradius 0.577 > 0.5 excludes the 2-face at r=1, admits it at r=1.2
    assert build_rips(build_graph(EQUILATERAL, 1.0), 2).face_vector() == (3, 3, 1)
    assert build_cech(EQUILATERAL, 1.0, 2).face_vector() == (3, 3, 0)
    assert build_cech(EQUILATERAL, 1.2, 2).face_vector() == (3, 3, 1)


def test_cech_edges_equal_rips_edges():
    cloud = sample_binomial(100, UNIT_2D, seed=6)
    rips = build_rips(build_graph(cloud, 0.2), 1)
    cech = build_cech(cloud, 0.2, 1)
    assert np.array_equal(rips.faces_by_dim[1], cech.faces_by_dim[1])


def test_cech_faces_subset_of_rips_and_downward_closed():
    cloud = sample_binomial(130, UNIT_2D, seed=7)
    rips = build_rips(build_graph(cloud, 0.2), 3)
    cech = build_cech(cloud, 0.2, 3)
    for dim in range(2, 4):
        rset = set(map(tuple, rips.faces_by_dim[dim].tolist()))
        cset = set(map(tuple, cech.faces_by_dim[dim].tolist()))
        assert cset <= rset
    assert downward_closed(cech)


def test_cech_equals_rips_in_dimension_one():
    # interval intersections: pairwise overlap implies common overlap
    cloud = sample_binomial(60, UNIT_1D, seed=8)
    rips = build_rips(build_graph(cloud, 0.1), 4)
    cech = build_cech(cloud, 0.1, 4)
    for a, b in zip(rips.faces_by_dim, cech.faces_by_dim):
        assert np.array_equal(a, b)


def test_cech_bruteforce_cross_check_d2():
    # oracle: every subset tested directly by the enclosing-ball radius; d=3
    # with k_max=4 reaches the batched solve for 4-point supports
    for d, n, r, k_max in ((2, 18, 0.5, 3), (3, 16, 0.7, 4)):
        cloud = sample_binomial(n, UniformBox(lo=[0.0] * d, hi=[1.0] * d), seed=9)
        cech = build_cech(cloud, r, k_max)
        for dim in range(1, k_max + 1):
            expected = [
                combo
                for combo in itertools.combinations(range(len(cloud)), dim + 1)
                if min_enclosing_ball_radius(cloud.points[list(combo)]) <= r / 2.0
            ]
            assert cech.faces_by_dim[dim].tolist() == [list(c) for c in expected]


# Four points whose enclosing ball is one facet's ball, taken at r = 2 * that
# radius: the triple closed form puts the facet just above r/2 while the
# 4-point kernel puts the whole tuple at r/2.  In the plane dimension 3 lies
# above d, where Helly's theorem lets the facets decide; in space it is d
# itself, where the facet check keeps the tuple out.
TIE_TUPLES = {
    "d2-facet-023": ([[0.12269066017607344, 0.9337689099568427],
                      [0.684050448075033, 0.8237813583927717],
                      [0.8968012322637599, 0.5833200469234759],
                      [0.0402182209046007, 0.711486824117758]],
                     [[0, 1, 2], [0, 1, 3], [1, 2, 3]]),
    "d3-facet-123": ([[0.5131412133818497, 0.6110032528946646, 0.5313968947954465],
                      [0.7585337396231457, 0.7057083392270682, 0.8850456138709182],
                      [0.7562078404723139, 0.9219899000274794, 0.414807003582114],
                      [0.03416098666515466, 0.1810034150072165, 0.28778228138605877]],
                     [[0, 1, 2], [0, 1, 3], [0, 2, 3]]),
}


@pytest.mark.parametrize("points,triangles", TIE_TUPLES.values(), ids=TIE_TUPLES.keys())
def test_cech_tie_keeps_no_face_without_its_facets(points, triangles):
    cloud = cloud_from(points)
    r = 2.0 * _min_ball_radii(cloud.points[None])[0]
    cech = build_cech(cloud, r, 3)
    assert cech.faces_by_dim[2].tolist() == triangles
    assert cech.face_vector() == (4, 6, 3, 0)
    assert downward_closed(cech)


def cech_by_ball_filter(cloud, r, k_max):
    """The Rips tables, each row kept when its own enclosing ball has radius <= r/2."""
    rips = build_rips(build_graph(cloud, r), k_max)
    return [rows if dim < 2 else rows[_min_ball_radii(cloud.points[rows]) <= r / 2.0]
            for dim, rows in enumerate(rips.faces_by_dim)]


@pytest.mark.parametrize("d,n,r,k_max", [(2, 3000, 0.02, 3), (3, 3000, 0.08, 4)])
def test_cech_equals_ball_filtered_rips_at_bench_scale(d, n, r, k_max):
    # away from ties, faces above dimension d found from their facets (Helly)
    # are exactly the cliques whose own ball passes
    cloud = sample_binomial(n, UniformBox(lo=[0.0] * d, hi=[1.0] * d), seed=20 + d)
    cech = build_cech(cloud, r, k_max)
    expected = cech_by_ball_filter(cloud, r, k_max)
    assert all(rows.shape[0] for rows in expected[d + 1:])  # the Helly path has work to do
    for built, rows in zip(cech.faces_by_dim, expected, strict=True):
        assert np.array_equal(built, rows)


def test_soft_thin_all_ones_is_identity():
    cloud = sample_binomial(60, UNIT_2D, seed=10)
    cx = build_rips(build_graph(cloud, 0.25), 3)
    thinned = soft_thin(cx, (1.0, 1.0, 1.0), seed=4)
    assert thinned.face_vector() == cx.face_vector()
    for a, b in zip(cx.faces_by_dim, thinned.faces_by_dim):
        assert np.array_equal(a, b)


def test_soft_thin_zero_p1_keeps_only_vertices():
    cloud = sample_binomial(60, UNIT_2D, seed=11)
    cx = build_rips(build_graph(cloud, 0.25), 3)
    thinned = soft_thin(cx, (0.0, 1.0, 1.0), seed=4)
    assert thinned.face_vector() == (60, 0, 0, 0)


def test_soft_thin_downward_closed_and_deterministic():
    cloud = sample_binomial(120, UNIT_2D, seed=12)
    cx = build_rips(build_graph(cloud, 0.22), 4)
    a = soft_thin(cx, (0.7, 0.6, 0.5, 0.4), seed=21)
    b = soft_thin(cx, (0.7, 0.6, 0.5, 0.4), seed=21)
    assert downward_closed(a)
    assert all(np.array_equal(x, y) for x, y in zip(a.faces_by_dim, b.faces_by_dim))


@pytest.mark.parametrize("flavor", ["rips", "cech"])
def test_soft_thin_and_downward_closed_take_tables_in_any_row_order(flavor):
    def face_set(rows):
        return {tuple(row) for row in rows.tolist()}

    for seed in range(3):
        hard = build_complex(build_graph(sample_binomial(300, UNIT_2D, seed), 0.12), 3, flavor)
        rng = np.random.default_rng(seed)
        shuffled = replace(hard, faces_by_dim=tuple(rows[rng.permutation(rows.shape[0])]
                                                    for rows in hard.faces_by_dim))
        assert downward_closed(shuffled)
        thinned, thinned_shuffled = (soft_thin(cx, (0.7, 0.6, 0.5), seed)
                                     for cx in (hard, shuffled))
        assert thinned.faces_by_dim[3].shape[0] > 0 and downward_closed(thinned_shuffled)
        for rows, rows_shuffled in zip(thinned.faces_by_dim, thinned_shuffled.faces_by_dim,
                                       strict=True):
            assert face_set(rows) == face_set(rows_shuffled)


def test_soft_thin_rejects_short_rho_and_double_thinning():
    cloud = sample_binomial(30, UNIT_2D, seed=13)
    cx = build_rips(build_graph(cloud, 0.3), 3)
    with pytest.raises(ConfigurationError):
        soft_thin(cx, (0.5,), seed=1)
    thinned = soft_thin(cx, (0.5, 0.5, 0.5), seed=1)
    with pytest.raises(ConfigurationError):
        soft_thin(thinned, (0.5, 0.5, 0.5), seed=2)
    with pytest.raises(ConfigurationError):
        soft_thin(cx, (0.5, 0.5, 1.5), seed=1)


def test_full_thinning_removes_all_edges():
    cloud = sample_binomial(100, UNIT_1D, seed=2)
    assert build_rips(build_graph(cloud, 0.5), 1, (0.0,), seed=5).face_vector() == (100, 0)


def test_edge_thinning_is_binomial_in_the_mean():
    cloud = sample_binomial(300, UNIT_2D, seed=9)
    graph = build_graph(cloud, 0.1)
    p1, reps = 0.3, 1000
    kept = np.array([
        build_rips(graph, 1, (p1,), seed=seed).face_vector()[1] for seed in range(reps)
    ])
    expect = graph.edge_count * p1
    stderr = math.sqrt(graph.edge_count * p1 * (1 - p1) / reps)
    assert abs(kept.mean() - expect) <= 3.0 * stderr


def test_edge_thinning_probability_validated():
    graph = build_graph(cloud_from([[0.0], [0.5]]), 1.0)
    with pytest.raises(ConfigurationError):
        build_rips(graph, 1, (1.5,), seed=0)
    with pytest.raises(ConfigurationError):
        build_rips(graph, 2, (0.5,), seed=0)


def thinned_by_definition(hard, rho, seed):
    """Per-face downward-closed thinning: every subface kept, and coin < p."""
    kept = [hard.faces_by_dim[0]]
    for dim in range(1, hard.k_max + 1):
        survivors = set(map(tuple, kept[-1].tolist()))
        rows = np.array(
            [row for row in hard.faces_by_dim[dim].tolist()
             if all(sub in survivors for sub in itertools.combinations(row, dim))],
            dtype=np.int64,
        ).reshape(-1, dim + 1)
        coins = uniform_coins(derive_seed(seed, FACE_COIN_STREAM, dim), rows)
        kept.append(rows[coins < rho[dim - 1]])
    return kept


@st.composite
def thinning_cases(draw):
    """A small cloud in d = 1..3, a radius, k_max, a retention vector and a seed.

    Random clouds take a radius at 0.3-3x the connectivity threshold.  Tied
    clouds sit on a lattice of step 1/4 with r = 1/2 or 1, so distances and
    ball radii are exact: duplicates, edges exactly r long and tuples whose
    enclosing ball has radius exactly r/2 all occur.
    """
    d = draw(st.integers(1, 3))
    n = draw(st.sampled_from(range(2, 15)))  # integers() would favour the smallest clouds
    k_max = draw(st.integers(1, 4))
    if draw(st.booleans()):
        box = UniformBox(lo=[0.0] * d, hi=[1.0] * d)
        cloud = sample_binomial(n, box, seed=draw(st.integers(0, 2**32)))
        threshold = (math.log(n + 1) / (n * math.pi ** (d / 2) / math.gamma(d / 2 + 1))) ** (1 / d)
        r = threshold * draw(st.sampled_from([0.3, 0.6, 1.0, 1.5, 3.0]))
    else:
        steps = draw(st.lists(st.integers(0, 4), min_size=n * d, max_size=n * d))
        cloud = cloud_from(0.25 * np.array(steps, dtype=np.float64).reshape(n, d))
        r = draw(st.sampled_from([0.5, 1.0]))
    rho = draw(st.lists(st.sampled_from([0.0, 0.3, 0.7, 1.0]), min_size=k_max, max_size=k_max))
    return cloud, r, k_max, tuple(rho), draw(st.integers(0, 2**32))


def cech_by_definition(cloud, r, k_max):
    """Every subset tested directly: pairwise within r, and the tuple and every
    sub-tuple with enclosing ball within r/2, so the result is a complex at ties."""
    rips = rips_bruteforce(cloud, r, k_max)
    faces = list(rips.faces_by_dim[:2])
    for rows in rips.faces_by_dim[2:]:
        lower = set(map(tuple, faces[-1].tolist()))
        facets = [all(sub in lower for sub in itertools.combinations(row, len(row) - 1))
                  for row in rows.tolist()]
        ball = _min_ball_radii(cloud.points[rows]) <= r / 2.0
        faces.append(rows[ball & np.array(facets, dtype=bool).reshape(-1)])
    return replace(rips, faces_by_dim=tuple(faces), flavor="cech")


@settings(max_examples=500)
@given(case=thinning_cases(), flavor=st.sampled_from(["rips", "cech"]))
def test_build_complex_thins_as_soft_thin_does(case, flavor):
    cloud, r, k_max, rho, seed = case
    graph = build_graph(cloud, r)
    if flavor == "rips":
        hard, definition = build_rips(graph, k_max), rips_bruteforce(cloud, r, k_max)
    else:
        hard, definition = build_cech(cloud, r, k_max), cech_by_definition(cloud, r, k_max)
    built = build_complex(graph, k_max, flavor, rho, seed)
    oracle = soft_thin(hard, rho, seed)
    by_definition = thinned_by_definition(definition, rho, seed)
    assert (built.flavor, built.rho, built.seed) == (flavor, oracle.rho, oracle.seed)
    for dim in range(k_max + 1):
        assert np.array_equal(hard.faces_by_dim[dim], definition.faces_by_dim[dim])
        assert np.array_equal(built.faces_by_dim[dim], oracle.faces_by_dim[dim])
        assert np.array_equal(built.faces_by_dim[dim], by_definition[dim])
        # join output needs no sort: lexsort returns the identity
        for faces in (hard.faces_by_dim[dim], built.faces_by_dim[dim]):
            assert np.array_equal(np.lexsort(faces.T[::-1]), np.arange(faces.shape[0]))
    assert downward_closed(built)


@pytest.mark.parametrize("flavor", ["rips", "cech"])
def test_build_complex_thins_as_soft_thin_does_at_bench_scale(flavor):
    # thousands of rows per table, so the join, filter and coin gathers run on
    # large prefix groups, which the small clouds above never reach
    cloud = sample_binomial(4000, UNIT_2D, seed=44)
    graph = build_graph(cloud, 0.02)
    rho = (0.7, 0.7, 0.7)
    built = build_complex(graph, 3, flavor, rho, seed=9)
    oracle = soft_thin(build_complex(graph, 3, flavor), rho, seed=9)
    assert built.faces_by_dim[3].shape[0] > 100
    for rows, expected in zip(built.faces_by_dim, oracle.faces_by_dim, strict=True):
        assert rows.shape == expected.shape and rows.tobytes() == expected.tobytes()
    assert downward_closed(built)


def test_build_complex_rejects_unknown_flavor():
    graph = build_graph(cloud_from([[0.0], [0.5]]), 1.0)
    with pytest.raises(ConfigurationError):
        build_complex(graph, 1, "alpha")


def _survival_frequency(points, r, rho, dim, seeds):
    cloud = cloud_from(points)
    cx = build_rips(build_graph(cloud, r), dim)
    hits = 0
    for seed in range(seeds):
        hits += soft_thin(cx, rho, seed=seed).face_vector()[dim]
    return hits / seeds


def marginal_survival(rho, k):
    # independent coins multiply: each i-subface contributes one p_i coin
    prob = 1.0
    for i in range(1, k + 1):
        prob *= rho[i - 1] ** math.comb(k + 1, i + 1)
    return prob


@pytest.mark.parametrize(
    "k,rho",
    [
        (1, (0.6,)),
        (2, (0.8, 0.5)),
        (3, (0.9, 0.7, 0.6)),
    ],
)
def test_soft_thin_marginal_survival(k, rho):
    # one admissible k-face: survival frequency matches the product formula
    pts = np.vstack([np.zeros(3), 0.05 * np.eye(3)])[: k + 1]
    seeds = 12_000
    freq = _survival_frequency(pts, 1.0, rho, k, seeds)
    expect = marginal_survival(rho, k)
    stderr = math.sqrt(expect * (1.0 - expect) / seeds)
    assert abs(freq - expect) <= 3.0 * stderr


def test_soft_thin_monotone_coupling_in_rho():
    cloud = sample_binomial(150, UNIT_2D, seed=14)
    cx = build_rips(build_graph(cloud, 0.2), 3)
    for seed in range(10):
        loose = soft_thin(cx, (0.9, 0.8, 0.7), seed=seed)
        tight = soft_thin(cx, (0.5, 0.4, 0.3), seed=seed)
        loose_sets = [set(map(tuple, f.tolist())) for f in loose.faces_by_dim]
        tight_sets = [set(map(tuple, f.tolist())) for f in tight.faces_by_dim]
        assert all(t <= l for t, l in zip(tight_sets, loose_sets))


def test_face_counts_full_triangle():
    cx = build_rips(build_graph(EQUILATERAL, 1.0), 2)
    assert face_counts(cx).f == (3, 3, 1)


def test_face_counts_region_restriction_by_leftmost_point():
    # vertex 0 is the lexicographically smallest and the only one in the box
    region = RegionSpec(kind="box", lo=(-0.5, -0.5), hi=(0.5, 0.5))
    cx = build_rips(build_graph(EQUILATERAL, 1.0), 2)
    counts = face_counts(cx, region)
    assert counts.f == (1, 2, 1)  # vertex 0; edges (0,1),(0,2); the 2-face
    outside = RegionSpec(kind="box-complement", lo=(-0.5, -0.5), hi=(2.5, 2.5))
    assert face_counts(cx, outside).f == (0, 0, 0)


def test_face_counts_first_coordinate_tie_decided_by_second():
    # both points share x = 0; the leftmost one is the lower, whichever box holds it
    cx = build_rips(build_graph(cloud_from([[0.0, 0.9], [0.0, 0.2]]), 1.0), 1)
    lower = RegionSpec(kind="box", lo=(-1.0, 0.0), hi=(1.0, 0.5))
    upper = RegionSpec(kind="box", lo=(-1.0, 0.5), hi=(1.0, 1.0))
    assert face_counts(cx, lower).f == (1, 1)
    assert face_counts(cx, upper).f == (1, 0)


def test_face_counts_coincident_points():
    cx = build_rips(build_graph(cloud_from([[0.3, 0.3], [0.3, 0.3], [0.6, 0.3]]), 0.5), 2)
    assert cx.face_vector() == (3, 3, 1)
    twin = RegionSpec(kind="box", lo=(0.0, 0.0), hi=(0.5, 0.5))
    assert face_counts(cx, twin).f == (2, 3, 1)
    assert face_counts(cx, replace(twin, kind="box-complement")).f == (1, 0, 0)


@pytest.mark.parametrize("flavor", ["rips", "cech"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_face_counts_do_not_depend_on_row_order(flavor, d):
    # a lattice of step 1/4 makes coordinate ties and coincident points common
    rng = np.random.default_rng(d)
    points = 0.25 * rng.integers(0, 5, size=(30, d))
    region = RegionSpec(kind="box", lo=(0.1,) * d, hi=(0.8,) * d)
    counts = face_counts(build_complex(build_graph(cloud_from(points), 0.5), 3, flavor), region)
    assert counts.f[1] > 0
    for _ in range(5):
        shuffled = cloud_from(points[rng.permutation(len(points))])
        assert face_counts(build_complex(build_graph(shuffled, 0.5), 3, flavor), region) == counts


def test_face_counts_empty_complex():
    cloud = cloud_from([[0.0], [5.0]])
    cx = build_rips(build_graph(cloud, 1.0), 2)
    assert face_counts(cx).f == (2, 0, 0)
    # the region path takes an empty face table as it is
    assert face_counts(cx, RegionSpec("box", (-1.0,), (1.0,))).f == (1, 0, 0)


def test_euler_characteristic_examples():
    region = RegionSpec(kind="all")
    assert euler_characteristic(FaceCounts(f=(1,), region=region)) == 1
    assert euler_characteristic(FaceCounts(f=(3, 3, 1), region=region)) == 1
    assert euler_characteristic(FaceCounts(f=(3, 3, 0), region=region)) == 0


@settings(max_examples=300)
@given(sizes=st.lists(st.integers(0, 6), max_size=12))
def test_pairs_within_groups_match_double_loop(sizes):
    # runs of 0..6 rows cover the empty key, absent values and singletons
    key = np.repeat(np.arange(len(sizes), dtype=np.int64) * 3 - 7, sizes)
    starts = np.cumsum(sizes) - sizes
    expected = [(s + a, s + b) for s, c in zip(starts.tolist(), sizes)
                for a in range(c) for b in range(a + 1, c)]
    lefts, rights = pairs_within_groups(key)
    assert lefts.dtype == rights.dtype == np.int64
    assert list(zip(lefts.tolist(), rights.tolist())) == expected


@settings(max_examples=300)
@given(table=st.sets(st.integers(-20, 20), max_size=10),
       keys=st.lists(st.integers(-25, 25), max_size=12), rows=st.integers(1, 3))
def test_find_matches_bisect(table, keys, rows):
    table = sorted(table)
    queries = np.array(keys * rows, dtype=np.int64).reshape(rows, len(keys))
    hit, index = _find(np.array(table, dtype=np.int64), queries)
    assert hit.shape == index.shape == queries.shape
    assert hit.tolist() == [[key in table for key in keys]] * rows
    assert index.tolist() == [[bisect.bisect_left(table, key) for key in keys]] * rows
