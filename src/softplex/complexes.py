"""Construction and probabilistic thinning of geometric simplicial complexes.

Hard complexes: the clique complex of the threshold graph (faces of
dimension k are the (k+1)-cliques), and its ball-intersection variant whose
k-faces are (k+1)-tuples with smallest enclosing ball radius at most r/2.
One builder, `build_complex`, makes both flavours dimension by dimension: a
(k+1)-tuple is a candidate iff its two parent k-tuples sharing a
(k-1)-prefix are faces and the closing edge exists.  A ball face's subfaces
are ball faces, because the radius can only shrink on a subset, so joining
from the ball k-faces misses none.  The ball flavour keeps a candidate only
when all its facets are faces, and in R^d, at dimensions 2..d, only when its
enclosing ball passes too.  Above dimension d it needs no geometry: by
Helly's theorem, balls in R^d share a point iff every d + 1 of them do, so a
tuple of more than d + 1 points is a ball face iff all its facets are.  The
facet check also keeps the ball complex downward closed where the
enclosing-ball kernel rounds a tuple and one of its facets to opposite sides
of r/2.  In a lex-sorted table the prefix groups are contiguous and sorted
and the last vertices increase inside a group, so the join emits its rows in
lex order without a sort; every face table here is lex-sorted.  The join's
pairs come from `pairs_within_groups`, one run-length pass over the parents'
non-decreasing prefix ranks, with no Python-level loop over faces.

Faces are looked up by int64 row codes.  A k-face's code is (row index of
its first k vertices among the (k-1)-faces) * n + its last vertex, and a
vertex is its own index.  The codes of a lex-sorted table increase with the
row, so one sorted-key lookup per vertex, `_find`, finds a tuple and its
row, and a code stays below (number of (k-1)-faces) * n; a
mixed-radix code n^(k+1) would overflow int64 at n = 250k and k = 3.  The
join's subface check and the eligibility tests of `soft_thin` and
`downward_closed` all use this lookup.  Those two take face tables in any row
order: they sort the codes they build before they search them.

Every gather and mask on the build path is a `take` or a `compress`: they
select the same elements in the same order as fancy indexing, and numpy 2.4
runs them far faster on narrow tables (on a 2-vCPU Xeon VM, a (15000, 2)
int64 table gathered 169 against 14 us, masked 166 against 19 us, and the
points of 7,000 triangles gathered 239 against 19 us).  The oracles,
`soft_thin`, `downward_closed` and `rips_bruteforce`, keep plain indexing for
their own gathers.  But `soft_thin` and `downward_closed` look faces up
through the build's row-code lookup, `_locate`, `_find` (a `take`) and
`_subfaces`, so only `rips_bruteforce` and the property suite check that
lookup independently.

The ball-intersection filter (dimensions 2..d) and the ball-flavor constants
share one batched kernel, `_min_ball_radii`, for the smallest-enclosing-ball
radius of a (count, m, d) block of tuples.  It enumerates the support
subsets of 2 to min(m, d + 1) points, solves each subset's circumcentre in
its affine hull (midpoint for pairs, Cramer's rule for three points, a
batched linear solve beyond), and keeps per tuple the smallest ball centred
at a candidate that holds all m points.  Triples use a closed form.  The
scalar recursive Welzl solver, `min_enclosing_ball`, stays as public API and
as the tests' oracle.

Soft thinning is downward closed: each admissible 1-face survives an
independent p_1 coin; for k >= 2 a face is eligible only when every
(k-1)-subface survived, and eligible faces survive independent p_k coins.
A fixed admissible k-face therefore survives with marginal probability
prod_{i=1..k} p_i^C(k+1, i+1), which the tests enforce.  Coins are hashed
from (seed, dimension, vertex tuple), so thinnings with the same seed are
monotone in the retention probabilities.  `build_complex` thins as it
builds: it joins dimension k + 1 from the surviving k-faces only, keeps the
candidates whose other k-subfaces survived too, and skips the coins of a
dimension whose p is 1, which keeps every face since coins lie in [0, 1).
`build_rips` and `build_cech` are its two flavours.  `soft_thin` draws the
same coins on a finished complex; no pipeline calls it, and the tests use it
as the oracle of the fused path.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import combinations

import numpy as np

from .errors import ConfigurationError, InputError, count, real
from .geometry import GeometricGraph, RegionSpec, ALL_SPACE, build_graph, region_mask
from .point_process import PointCloud
from .rng import FACE_COIN_STREAM, derive_seed, uniform_coins


@dataclass(frozen=True)
class SimplicialComplex:
    cloud: PointCloud
    faces_by_dim: tuple = field(repr=False)  # tuple of (m_k, k+1) int64 arrays
    flavor: str  # "rips" or "cech"
    r: float
    rho: tuple | None = None
    seed: int = 0

    def __post_init__(self):
        faces = []
        for dim, arr in enumerate(self.faces_by_dim):
            arr = np.ascontiguousarray(arr, dtype=np.int64)
            if arr.ndim != 2 or arr.shape[1] != dim + 1:
                raise InputError(f"faces of dimension {dim} must have {dim + 1} columns")
            arr.setflags(write=False)
            faces.append(arr)
        object.__setattr__(self, "faces_by_dim", tuple(faces))

    @property
    def k_max(self) -> int:
        return len(self.faces_by_dim) - 1

    def face_vector(self) -> tuple:
        return tuple(arr.shape[0] for arr in self.faces_by_dim)


def _retention(rho, top: int) -> tuple:
    """The retention vector as floats, checked against the top dimension it thins."""
    rho = tuple(real(p, "retention probability", error=ConfigurationError)
                for p in np.asarray(rho, dtype=object).ravel())
    if len(rho) < top:
        raise ConfigurationError(
            f"retention vector of length {len(rho)} is too short for faces up to dimension {top}"
        )
    if any(not 0.0 <= p <= 1.0 for p in rho):
        raise ConfigurationError("retention probabilities must lie in [0, 1]")
    return rho


def pairs_within_groups(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All position pairs (i, j), i < j, inside each equal-value run of a sorted key.

    Row i pairs with the later rows of its run; the int64 pairs come in lex order.
    """
    m = key.shape[0]
    change = np.flatnonzero(key[1:] != key[:-1]) + 1
    ends = np.repeat(np.append(change, m), np.diff(change, prepend=0, append=m))
    rights_per_left = ends - np.arange(m, dtype=np.int64) - 1
    lefts = np.repeat(np.arange(m, dtype=np.int64), rights_per_left)
    first = np.cumsum(rights_per_left) - rights_per_left  # each left's first pair
    return lefts, np.arange(lefts.size, dtype=np.int64) - first.take(lefts) + lefts + 1


def _find(table: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whether each key is in a sorted int64 table, and its insertion index."""
    index = np.searchsorted(table, keys)
    if table.size == 0:
        return np.zeros(keys.shape, dtype=bool), index
    return table.take(index, mode="clip") == keys, index


def _locate(codes: list, planes: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Whether each query j-face is in a chain of face tables, and its rank there.

    ``planes[i]`` holds vertex i of every query, so ``rows.T`` queries the
    rows of a face table.  ``codes[i]`` holds the sorted row codes of the
    i-face table for i >= 1.  An i-face's code is (rank of its first i
    vertices among the (i-1)-faces) * n + its last vertex, and a vertex is its
    own rank.  In a lex-sorted table whose prefixes are all faces the codes
    increase with the row, so a rank is a row index and every code stays
    below (count of (i-1)-faces) * n.
    """
    found = np.ones(planes.shape[1:], dtype=bool)
    rank = planes[0]
    for i in range(1, len(planes)):
        hit, rank = _find(codes[i], rank * n + planes[i])
        found &= hit
    return found, rank


def _subfaces(faces: np.ndarray, drops) -> np.ndarray:
    """Vertex planes (k, len(drops), m) of the k-faces' subfaces without one column.

    Plane-major order keeps each dropped column's queries in table order, which
    keeps the lookups' binary searches cache friendly.
    """
    width = faces.shape[1]
    keep = [[c for c in range(width) if c != drop] for drop in drops]
    return faces.T[np.array(keep, dtype=np.intp).T]


def _clique_join(prev_faces: np.ndarray, prev_prefix: np.ndarray, codes: list, n: int,
                 complete: bool):
    """(t+1)-faces joined from lex-sorted t-faces, and each one's prefix rank.

    ``prev_prefix`` holds each t-face's rank of its first t vertices among
    the (t-1)-faces, non-decreasing in a lex-sorted table, and ``codes`` the
    row codes of the faces up to dimension t.  Two t-faces with one prefix
    rank give a candidate when the edge between their last vertices is in
    ``codes[1]``.  Unless ``complete``, the candidate must also find its other
    t subfaces among the t-faces.
    ``complete`` says a missing subface dooms the candidate anyway: the
    t-faces are every (t+1)-clique of those edges, as they are for Rips until
    a coin removes a face of dimension >= 2.  The ball flavour is never
    complete from dimension 3 on: above dimension d the subface lookup is its
    whole test, by Helly's theorem, and up to d it keeps out a tuple whose
    facet the enclosing-ball kernel rounded the other way.  Prefix groups are
    contiguous and sorted and last vertices increase inside a group, so pair
    order is lex order and the rows come out lex-sorted.
    """
    width = prev_faces.shape[1]
    li, ri = pairs_within_groups(prev_prefix)
    last = prev_faces[:, -1]
    u, v = last.take(li), last.take(ri)
    ok = _find(codes[1], u * n + v)[0]
    li = li.compress(ok)
    out = np.empty((li.size, width + 1), dtype=np.int64)
    out[:, :-1] = prev_faces.take(li, axis=0)
    out[:, -1] = v.compress(ok)
    if not complete:
        ok = _locate(codes, _subfaces(out, range(width - 1)), n)[0].all(axis=0)
        out, li = out.compress(ok, axis=0), li.compress(ok)
    return out, li


def build_complex(graph: GeometricGraph, k_max: int, flavor: str = "rips", rho=None,
                  seed: int = 0) -> SimplicialComplex:
    """Clique or ball-intersection complex up to dimension k_max, thinned as it is built.

    Dimension k + 1 is joined from the k-faces.  For ``flavor == "cech"`` a
    joined tuple is kept only when all its facets are faces and, at
    dimensions 2..d in R^d, its smallest enclosing ball has radius at most
    r/2; an edge's ball radius is half its length, so dimension 1 needs no
    filter, and above d the facets decide alone (Helly's theorem).  With a
    retention vector ``rho`` (one probability per dimension 1..k_max), a
    k-face then survives when all its (k-1)-subfaces survived and its coin,
    ``uniform_coins(derive_seed(seed, FACE_COIN_STREAM, k), faces)``, is below
    ``rho[k-1]``.  The result equals ``soft_thin(hard, rho, seed)`` row for
    row, where ``hard`` is the complex built without ``rho``.
    """
    if flavor not in ("rips", "cech"):
        raise ConfigurationError(f"flavor must be 'rips' or 'cech', got {flavor!r}")
    k_max = count(k_max, "k_max")
    if rho is not None:
        rho = _retention(rho, k_max)
    n, d = graph.vertex_count, graph.cloud.dimension
    faces = [np.arange(n, dtype=np.int64)[:, None]]
    codes = [None]  # a vertex is its own rank
    complete = True  # no coin has removed a face of dimension >= 2
    for dim in range(1, k_max + 1):
        if dim == 1:
            rows, prefix = graph.edges, graph.edges[:, 0]
        else:
            # a ball face needs every facet: above d that is the whole test
            # (Helly), and up to d the kernel may round a tuple and a facet
            # to opposite sides of r/2.  At dimension 2 the one facet that is
            # not a parent is the closing edge, which the join checks anyway.
            rows, prefix = _clique_join(faces[-1], prefix, codes, n,
                                        complete and (flavor == "rips" or dim == 2))
            if flavor == "cech" and dim <= d:
                keep = _min_ball_radii(graph.cloud.points.take(rows, axis=0)) <= graph.r / 2.0
                rows, prefix = rows.compress(keep, axis=0), prefix.compress(keep)
        if rho is not None and rho[dim - 1] < 1.0 and rows.shape[0]:
            keep = uniform_coins(derive_seed(seed, FACE_COIN_STREAM, dim), rows) < rho[dim - 1]
            if dim >= 2 and not keep.all():
                complete = False
            rows, prefix = rows.compress(keep, axis=0), prefix.compress(keep)
        faces.append(rows)
        codes.append(prefix * n + rows[:, -1])
    return SimplicialComplex(cloud=graph.cloud, faces_by_dim=tuple(faces), flavor=flavor,
                             r=graph.r, rho=rho, seed=int(seed))


def build_rips(graph: GeometricGraph, k_max: int, rho=None, seed: int = 0) -> SimplicialComplex:
    """Clique complex of the graph up to dimension k_max, thinned by ``rho`` as it is built."""
    return build_complex(graph, k_max, "rips", rho, seed)


def rips_bruteforce(cloud: PointCloud, r: float, k_max: int) -> SimplicialComplex:
    """All-subsets admissibility test; quadratic-and-worse reference oracle.

    One boolean adjacency matrix holds the closed test on every pair's sum of
    squares; a vertex combination is a face when all its pairs are adjacent.
    """
    pts = cloud.points
    n = len(cloud)
    diff = pts[:, None, :] - pts[None, :, :]
    adjacent = np.einsum("ijk,ijk->ij", diff, diff) <= r * r
    faces = [np.arange(n, dtype=np.int64)[:, None]]
    for dim in range(1, k_max + 1):
        combos = np.array(list(combinations(range(n), dim + 1)), np.int64).reshape(-1, dim + 1)
        first, second = np.array(list(combinations(range(dim + 1), 2))).T
        faces.append(combos[adjacent[combos[:, first], combos[:, second]].all(axis=1)])
    return SimplicialComplex(cloud=cloud, faces_by_dim=tuple(faces), flavor="rips", r=float(r))


def _circumball(support: list[np.ndarray]) -> tuple[np.ndarray, float]:
    """Smallest ball with all support points on its boundary (affine solve)."""
    base = support[0]
    if len(support) == 1:
        return base, 0.0
    rel = np.asarray(support[1:]) - base
    rhs = 0.5 * np.einsum("ij,ij->i", rel, rel)
    shift, *_ = np.linalg.lstsq(rel, rhs, rcond=None)
    # distances in base-relative coordinates: absolute ones would round a
    # small ball far from the origin at the scale of its position
    gap = rel - shift
    radius = float(np.sqrt(max(shift @ shift, np.einsum("ij,ij->i", gap, gap).max())))
    return base + shift, radius


def _welzl(points: list[np.ndarray], support: list[np.ndarray], d: int):
    if not points or len(support) == d + 1:
        return _circumball(support) if support else (None, 0.0)
    p = points[-1]
    center, radius = _welzl(points[:-1], support, d)
    if center is not None:
        gap = p - center
        if gap @ gap <= radius * radius * (1.0 + 1e-12) + 1e-30:
            return center, radius
    return _welzl(points[:-1], support + [p], d)


def min_enclosing_ball(points) -> tuple[np.ndarray, float]:
    """Center and radius of the unique smallest ball containing the points."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.size == 0:  # no points, or one point with no coordinates
        raise InputError("smallest enclosing ball of an empty set is undefined")
    center, radius = _welzl([row for row in pts], [], pts.shape[1])
    return center, float(radius)


def min_enclosing_ball_radius(points) -> float:
    return min_enclosing_ball(points)[1]


def _meb_radius_triples(p0: np.ndarray, p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """Vectorized smallest-ball radius for point triples in any dimension.

    Each argument holds one vertex of every triple as (d, count) coordinate
    planes.  The ball is either the diameter ball of the longest side (obtuse
    or degenerate triangles) or the circumball (acute triangles).
    """
    a2 = np.einsum("kc,kc->c", p1 - p2, p1 - p2)
    b2 = np.einsum("kc,kc->c", p0 - p2, p0 - p2)
    c2 = np.einsum("kc,kc->c", p0 - p1, p0 - p1)
    hi = np.maximum(np.maximum(a2, b2), c2)
    obtuse = hi * 2.0 >= a2 + b2 + c2  # longest side squared >= sum of others
    sixteen_area2 = np.maximum(
        2.0 * (a2 * b2 + b2 * c2 + c2 * a2) - a2 * a2 - b2 * b2 - c2 * c2, 0.0
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        circum2 = (a2 * b2 * c2) / sixteen_area2
    radius2 = np.where(obtuse, 0.25 * hi, circum2)
    return np.sqrt(radius2)


def _circumcentres(support: np.ndarray) -> np.ndarray:
    """Centres of the smallest balls with all s support points on their boundary.

    `support` is an (s, d, count) block.  The centre is
    p_0 + sum_i lam_i (p_i - p_0) with G lam = diag(G) / 2, G the Gram matrix
    of the p_i - p_0.  Columns whose G is singular come back non-finite.
    """
    base = support[0]
    rel = support[1:] - base
    if rel.shape[0] == 1:
        return base + 0.5 * rel[0]
    gram = np.einsum("skc,tkc->stc", rel, rel)
    half = 0.5 * np.einsum("ssc->sc", gram)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if rel.shape[0] == 2:  # Cramer's rule
            g00, g01, g11 = gram[0, 0], gram[0, 1], gram[1, 1]
            det = g00 * g11 - g01 * g01
            return (base + (half[0] * g11 - half[1] * g01) / det * rel[0]
                    + (half[1] * g00 - half[0] * g01) / det * rel[1])
        gram = np.moveaxis(gram, 2, 0)
        singular = ~(np.abs(np.linalg.det(gram)) > 0.0)
        gram[singular] = np.eye(rel.shape[0])
        lam = np.linalg.solve(gram, half.T[:, :, None])[:, :, 0]
        lam[singular] = np.nan
        return base + np.einsum("cs,skc->kc", lam, rel)


def _min_ball_radii(tuples: np.ndarray) -> np.ndarray:
    """Smallest-enclosing-ball radius of every tuple in a (count, m, d) block.

    The smallest ball is the circumball, within the affine hull, of an
    affinely independent support subset of at most d + 1 points (Welzl 1991;
    Gaertner 1999).  Each subset of 2..min(m, d + 1) points proposes its
    circumcentre c, and c proposes the smallest ball centred there that holds
    all m points.  Every proposal encloses the tuple and the support's
    proposal is the smallest ball itself, so the minimum over proposals is the
    radius.  Subsets with a singular Gram matrix propose nothing: a pair's
    diameter ball covers them.  Width 3 uses the closed form for triples.
    """
    count, m, d = tuples.shape
    if m == 1:
        return np.zeros(count)
    if count == 1:
        # einsum sums a one-column block in another order; a block of two keeps
        # the batched order, so a radius does not depend on the batch size
        return _min_ball_radii(np.repeat(tuples, 2, axis=0))[:1]
    # (m, d, count): every coordinate of every point is one contiguous row;
    # no copy when the block is a transposed view of such planes
    planes = np.ascontiguousarray(tuples.transpose(1, 2, 0))
    if m == 3:
        return _meb_radius_triples(*planes)
    best = np.full(count, np.inf)
    for size in range(2, min(m, d + 1) + 1):
        for support in combinations(range(m), size):
            gap = planes - _circumcentres(planes[list(support)])
            with np.errstate(invalid="ignore", over="ignore"):
                reach = np.einsum("mkc,mkc->mc", gap, gap).max(axis=0)
            np.fmin(best, reach, out=best)  # NaN from a singular subset loses
    return np.sqrt(best)


def build_cech(cloud: PointCloud, r: float, k_max: int) -> SimplicialComplex:
    """Hard ball-intersection complex: tuples whose radius-r/2 balls share a point."""
    return build_complex(build_graph(cloud, r), k_max, "cech")


def soft_thin(complex_: SimplicialComplex, rho, seed: int) -> SimplicialComplex:
    """Downward-closed thinning of an untouched complex by the vector rho."""
    if complex_.rho is not None:
        raise ConfigurationError("complex already carries a retention vector")
    top = complex_.k_max
    rho = _retention(rho, top)
    n = len(complex_.cloud)
    kept = [complex_.faces_by_dim[0]]
    codes = [None]  # a vertex is its own rank
    for dim in range(1, top + 1):
        rows = complex_.faces_by_dim[dim]
        if kept[dim - 1].shape[0] < complex_.faces_by_dim[dim - 1].shape[0]:
            # a thinned lower table: look every subface up among the survivors
            for lower in kept[len(codes):dim]:
                codes.append(np.sort(_locate(codes, lower[:, :-1].T, n)[1] * n + lower[:, -1]))
            rows = rows[_locate(codes, _subfaces(rows, range(dim + 1)), n)[0].all(axis=0)]
        if rho[dim - 1] < 1.0 and rows.shape[0]:
            keep = uniform_coins(derive_seed(seed, FACE_COIN_STREAM, dim), rows) < rho[dim - 1]
            rows = rows[keep]
        kept.append(rows)
    return replace(complex_, faces_by_dim=tuple(kept), rho=rho, seed=int(seed))


@dataclass(frozen=True)
class FaceCounts:
    f: tuple  # f[k] = number of k-faces whose leftmost point lies in the region
    region: RegionSpec


def _leftmost_coordinates(points: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """Coordinates of the lexicographically smallest vertex of each face."""
    sub = points.take(faces, axis=0)  # (m, width, d)
    selectable = np.ones(sub.shape[:2], dtype=bool)
    for axis in range(sub.shape[2]):
        vals = np.where(selectable, sub[:, :, axis], np.inf)
        selectable &= vals == vals.min(axis=1)[:, None]
    first = selectable.argmax(axis=1)  # ties: lowest column = lowest vertex index
    first += np.arange(0, faces.size, faces.shape[1])  # its flat index in the table
    return points.take(faces.take(first), axis=0)


def face_counts(complex_: SimplicialComplex, region: RegionSpec = ALL_SPACE) -> FaceCounts:
    """Per-dimension face counts restricted by leftmost-point membership."""
    counts = []
    for faces in complex_.faces_by_dim:
        if region.kind == "all":
            counts.append(int(faces.shape[0]))
            continue
        lmp = _leftmost_coordinates(complex_.cloud.points, faces)
        counts.append(int(region_mask(lmp, region).sum()))
    return FaceCounts(f=tuple(counts), region=region)


def euler_characteristic(counts: FaceCounts) -> int:
    """Alternating sum f_0 - f_1 + f_2 - ... in exact integer arithmetic."""
    return int(sum((-1) ** k * fk for k, fk in enumerate(counts.f)))


def downward_closed(complex_: SimplicialComplex) -> bool:
    """Check that every k-face has all of its (k-1)-subfaces present."""
    n = len(complex_.cloud)
    codes = [None]  # a vertex is its own rank
    for dim in range(1, complex_.k_max + 1):
        faces = complex_.faces_by_dim[dim]
        subfaces = _subfaces(faces, range(dim + 1))
        present, rank = _locate(codes, subfaces, n)
        if dim == 1:
            present = _find(np.sort(complex_.faces_by_dim[0][:, 0]), subfaces[0])[0]
        if not present.all():
            return False
        codes.append(np.sort(rank[-1] * n + faces[:, -1]))  # the last subface is the prefix
    return True
