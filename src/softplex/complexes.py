"""Construction and probabilistic thinning of geometric simplicial complexes.

Hard complexes: the clique complex of the threshold graph (faces of
dimension k are the (k+1)-cliques), and its ball-intersection variant whose
k-faces are (k+1)-tuples with smallest enclosing ball radius at most r/2.
Clique faces are enumerated dimension by dimension: a (k+1)-tuple is a
candidate iff its two parent k-tuples sharing a (k-1)-prefix are faces and
the closing edge exists.

The ball-intersection filter and the ball-flavor constants share one batched
kernel, `_min_ball_radii`, for the smallest-enclosing-ball radius of a
(count, m, d) block of tuples.  It enumerates the support subsets of 2 to
min(m, d + 1) points, solves each subset's circumcentre in its affine hull
(midpoint for pairs, Cramer's rule for three points, a batched linear solve
beyond), and keeps per tuple the smallest ball centred at a candidate that
holds all m points.  Triples use a closed form.  The scalar recursive Welzl
solver, `min_enclosing_ball`, stays as public API and as the tests' oracle.

Soft thinning is downward closed: each admissible 1-face survives an
independent p_1 coin; for k >= 2 a face is eligible only when every
(k-1)-subface survived, and eligible faces survive independent p_k coins.
A fixed admissible k-face therefore survives with marginal probability
prod_{i=1..k} p_i^C(k+1, i+1), which the tests enforce.  Coins are hashed
from (seed, dimension, vertex tuple), so thinnings with the same seed are
monotone in the retention probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import combinations

import numpy as np

from ._grouping import group_boundaries, pairs_within_groups
from .errors import ConfigurationError, InputError
from .geometry import GeometricGraph, RegionSpec, ALL_SPACE, build_graph, region_mask
from .point_process import PointCloud
from .rng import FACE_COIN_STREAM, derive_seed, uniform_coins


def _empty_faces(dim: int) -> np.ndarray:
    return np.empty((0, dim + 1), dtype=np.int64)


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


def _lexsorted_rows(arr: np.ndarray) -> np.ndarray:
    if arr.shape[0] <= 1:
        return arr
    order = np.lexsort(arr.T[::-1])
    return arr[order]


def _clique_join(prev_faces: np.ndarray, edge_codes: np.ndarray, n: int) -> np.ndarray:
    """(t+1)-cliques from lex-sorted t-cliques plus a sorted edge-code table."""
    m, width = prev_faces.shape
    if m < 2:
        return _empty_faces(width)
    prefix = prev_faces[:, :-1]
    change = np.flatnonzero(np.any(prefix[1:] != prefix[:-1], axis=1)) + 1
    starts = np.concatenate([[0], change]).astype(np.int64)
    sizes = np.diff(np.concatenate([starts, [m]])).astype(np.int64)
    li, ri = pairs_within_groups(starts, sizes)
    if li.size == 0:
        return _empty_faces(width)
    u = prev_faces[li, -1]
    v = prev_faces[ri, -1]
    closing = np.searchsorted(edge_codes, u * n + v)
    closing = np.minimum(closing, edge_codes.size - 1)
    ok = edge_codes[closing] == u * n + v if edge_codes.size else np.zeros(li.size, bool)
    if not ok.any():
        return _empty_faces(width)
    out = np.empty((int(ok.sum()), width + 1), dtype=np.int64)
    out[:, :-2] = prev_faces[li[ok], :-1]
    out[:, -2] = u[ok]
    out[:, -1] = v[ok]
    return _lexsorted_rows(out)


def build_rips(graph: GeometricGraph, k_max: int) -> SimplicialComplex:
    """Clique complex of the graph up to dimension k_max."""
    if k_max < 0:
        raise InputError(f"k_max must be nonnegative, got {k_max}")
    n = graph.vertex_count
    faces = [np.arange(n, dtype=np.int64)[:, None]]
    if k_max >= 1:
        faces.append(graph.edges)
    edge_codes = np.sort(graph.edges[:, 0] * n + graph.edges[:, 1]) if n else np.empty(0, np.int64)
    for dim in range(2, k_max + 1):
        faces.append(_clique_join(faces[dim - 1], edge_codes, n))
    return SimplicialComplex(
        cloud=graph.cloud, faces_by_dim=tuple(faces), flavor="rips", r=graph.r, seed=graph.seed
    )


def rips_bruteforce(cloud: PointCloud, r: float, k_max: int) -> SimplicialComplex:
    """All-subsets admissibility test; quadratic-and-worse reference oracle."""
    pts = cloud.points
    n = len(cloud)
    faces = [np.arange(n, dtype=np.int64)[:, None]]
    for dim in range(1, k_max + 1):
        rows = []
        for combo in combinations(range(n), dim + 1):
            sub = pts[list(combo)]
            diff = sub[:, None, :] - sub[None, :, :]
            if np.all(np.einsum("ijk,ijk->ij", diff, diff) <= r * r):
                rows.append(combo)
        faces.append(np.asarray(rows, dtype=np.int64).reshape(len(rows), dim + 1))
    return SimplicialComplex(cloud=cloud, faces_by_dim=tuple(faces), flavor="rips", r=float(r))


def _circumball(support: list[np.ndarray]) -> tuple[np.ndarray, float]:
    """Smallest ball with all support points on its boundary (affine solve)."""
    base = support[0]
    if len(support) == 1:
        return base, 0.0
    rel = np.asarray(support[1:]) - base
    rhs = 0.5 * np.einsum("ij,ij->i", rel, rel)
    shift, *_ = np.linalg.lstsq(rel, rhs, rcond=None)
    center = base + shift
    radius = float(np.sqrt(max(np.einsum("ij,ij->i", np.asarray(support) - center,
                                         np.asarray(support) - center).max(), 0.0)))
    return center, radius


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
    if pts.shape[0] == 0:
        raise InputError("smallest enclosing ball of an empty set is undefined")
    center, radius = _welzl([row for row in pts], [], pts.shape[1])
    if center is None:
        center, radius = pts[0], 0.0
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
    """Ball-intersection complex; candidates come from the clique complex.

    A tuple whose radius-r/2 balls all intersect is pairwise within r, so
    filtering the clique faces by the enclosing-ball test is exhaustive.
    """
    if not r > 0:
        raise InputError(f"threshold radius must be positive, got {r}")
    rips = build_rips(build_graph(cloud, r), k_max)
    faces = list(rips.faces_by_dim)
    for dim in range(2, len(faces)):
        if faces[dim].shape[0]:
            faces[dim] = faces[dim][_min_ball_radii(cloud.points[faces[dim]]) <= r / 2.0]
    return SimplicialComplex(cloud=cloud, faces_by_dim=tuple(faces), flavor="cech", r=float(r))


def soft_thin(complex_: SimplicialComplex, rho, seed: int) -> SimplicialComplex:
    """Downward-closed thinning of an untouched complex by the vector rho."""
    if complex_.rho is not None:
        raise ConfigurationError("complex already carries a retention vector")
    rho = tuple(float(p) for p in np.asarray(rho, dtype=np.float64).ravel())
    top = complex_.k_max
    if len(rho) < top:
        raise ConfigurationError(
            f"retention vector of length {len(rho)} cannot thin faces up to dimension {top}"
        )
    if any(not 0.0 <= p <= 1.0 for p in rho):
        raise ConfigurationError("retention probabilities must lie in [0, 1]")
    if all(p == 1.0 for p in rho[:top]):
        return replace(complex_, rho=rho, seed=int(seed))

    kept = [complex_.faces_by_dim[0]]
    for dim in range(1, top + 1):
        admissible = complex_.faces_by_dim[dim]
        if admissible.shape[0] == 0:
            kept.append(admissible)
            continue
        if dim == 1 or kept[dim - 1].shape[0] == complex_.faces_by_dim[dim - 1].shape[0]:
            eligible = admissible
        else:
            survivors = set(map(tuple, kept[dim - 1].tolist()))
            rows = admissible.tolist()
            mask = np.fromiter(
                (
                    all(tuple(row[:c] + row[c + 1:]) in survivors for c in range(dim + 1))
                    for row in rows
                ),
                dtype=bool,
                count=len(rows),
            )
            eligible = admissible[mask]
        if eligible.shape[0] == 0:
            kept.append(eligible)
            continue
        coins = uniform_coins(derive_seed(seed, FACE_COIN_STREAM, dim), eligible)
        kept.append(eligible[coins < rho[dim - 1]])
    return replace(complex_, faces_by_dim=tuple(kept), rho=rho, seed=int(seed))


@dataclass(frozen=True)
class FaceCounts:
    f: tuple  # f[k] = number of k-faces whose leftmost point lies in the region
    region: RegionSpec

    def __getitem__(self, k: int) -> int:
        return self.f[k]


def _leftmost_coordinates(points: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """Coordinates of the lexicographically smallest vertex of each face."""
    sub = points[faces]  # (m, width, d)
    selectable = np.ones(sub.shape[:2], dtype=bool)
    for axis in range(sub.shape[2]):
        vals = np.where(selectable, sub[:, :, axis], np.inf)
        selectable &= vals == vals.min(axis=1)[:, None]
    first = selectable.argmax(axis=1)  # ties: lowest column = lowest vertex index
    return sub[np.arange(sub.shape[0]), first]


def face_counts(complex_: SimplicialComplex, region: RegionSpec = ALL_SPACE) -> FaceCounts:
    """Per-dimension face counts restricted by leftmost-point membership."""
    counts = []
    for faces in complex_.faces_by_dim:
        if region.kind == "all" or faces.shape[0] == 0:
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
    for dim in range(1, complex_.k_max + 1):
        faces = complex_.faces_by_dim[dim]
        if faces.shape[0] == 0:
            continue
        lower = set(map(tuple, complex_.faces_by_dim[dim - 1].tolist()))
        for row in faces.tolist():
            for drop in range(dim + 1):
                if tuple(row[:drop] + row[drop + 1:]) not in lower:
                    return False
    return True
