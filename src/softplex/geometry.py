"""Distance-threshold graphs, sort-and-sweep and k-d tree neighbor search, regions.

The geometric graph joins two points whenever their distance is at most r
(closed threshold).  In d = 1 the search sorts the points once and sweeps
the sorted order offset by offset: a position stays a candidate for offset
k only while its pair at offset k - 1 was within r.  In d >= 2 one
`cKDTree.query_pairs` call from scipy finds the pairs (a k-d tree; Bentley
1975).  Either way the sparse regime costs O(n log n + output) on average.
Every path returns its edges sorted by the int64 code lo * n + hi.  A
quadratic reference implementation is kept alongside as the correctness
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .errors import ConfigurationError, InputError
from .point_process import PointCloud

_NO_EDGES = np.empty((0, 2), dtype=np.int64)


@dataclass(frozen=True)
class GeometricGraph:
    cloud: PointCloud
    r: float
    edges: np.ndarray = field(repr=False)  # (m, 2) int64, i < j, lex-sorted

    def __post_init__(self):
        edges = np.ascontiguousarray(self.edges, dtype=np.int64)
        edges.setflags(write=False)
        object.__setattr__(self, "edges", edges)

    @property
    def vertex_count(self) -> int:
        return len(self.cloud)

    @property
    def edge_count(self) -> int:
        return self.edges.shape[0]


def _sort_pairs(ii: np.ndarray, jj: np.ndarray, n: int) -> np.ndarray:
    """(m, 2) pairs (lo, hi), lo < hi, in lex order: one sort of lo * n + hi.

    The code stays below n * n, which fits int64 for any n that fits in memory.
    """
    code = np.minimum(ii, jj)
    code *= n
    code += np.maximum(ii, jj)
    code.sort()
    pairs = np.empty((code.size, 2), dtype=np.int64)
    np.divmod(code, n, out=(pairs[:, 0], pairs[:, 1]))
    return pairs


def threshold_pairs_bruteforce(points: np.ndarray, r: float) -> np.ndarray:
    """All pairs at distance <= r by full pairwise comparison (oracle)."""
    n = points.shape[0]
    if n < 2:
        return _NO_EDGES.copy()
    sq = cdist(points, points, "sqeuclidean")
    ii, jj = np.nonzero(np.triu(sq <= r * r, k=1))
    return _sort_pairs(ii.astype(np.int64), jj.astype(np.int64), n)


def _threshold_pairs_sweep(x: np.ndarray, r: float) -> np.ndarray:
    """All pairs of a 1-d cloud at distance <= r, by one sort and an offset sweep.

    Offset 1 tests every adjacent gap of the sorted coordinates; offset k
    tests only the positions whose pair at offset k - 1 passed, and the sweep
    stops when none is left.  That drops no pair: in sorted order the float
    gap xs[i + k] - xs[i] never decreases as k grows, because subtraction
    rounds monotonically.  Vertex labels stay in draw order.
    """
    n = x.shape[0]
    order = np.argsort(x)
    xs = x[order]
    r2 = r * r
    gap = xs[1:] - xs[:-1]
    pos = np.flatnonzero(gap * gap <= r2)
    lefts, rights = [pos], [pos + 1]
    k = 2
    while pos.size:
        pos = pos[pos < n - k]
        gap = xs[pos + k] - xs[pos]
        pos = pos[gap * gap <= r2]
        lefts.append(pos)
        rights.append(pos + k)
        k += 1
    return _sort_pairs(order[np.concatenate(lefts)], order[np.concatenate(rights)], n)


def threshold_pairs(points: np.ndarray, r: float) -> np.ndarray:
    """All pairs at distance <= r: a sort-and-sweep in d = 1, a k-d tree in d >= 2.

    The tree is scipy's `cKDTree` with its default parameters; `query_pairs`
    keeps a pair when its float squared distance is at most r * r, the
    oracle's closed test.  Coordinates must be finite; they are checked once
    here, for every d.
    """
    n, d = points.shape
    if not np.isfinite(points).all():
        raise InputError("threshold graph needs finite coordinates")
    if n < 2:
        return _NO_EDGES.copy()
    if d == 1:
        return _threshold_pairs_sweep(points[:, 0], r)
    pairs = cKDTree(points).query_pairs(r, output_type="ndarray")
    return _sort_pairs(pairs[:, 0], pairs[:, 1], n)


def build_graph(cloud: PointCloud, r: float, *, seed: int | None = None) -> GeometricGraph:
    """Threshold graph on the cloud.

    The graph draws no randomness; retention coins, the edges' among them,
    belong to ``build_complex``, which builds both flavours on this graph.
    ``seed`` is accepted and ignored, for callers that still pass one.
    """
    if not r > 0:
        raise InputError(f"threshold radius must be positive, got {r}")
    edges = threshold_pairs(cloud.points, float(r))
    return GeometricGraph(cloud=cloud, r=float(r), edges=edges)


def leftmost_point(vertex_indices, cloud: PointCloud) -> int:
    """Index of the lexicographically smallest point among the given vertices.

    Coordinate ties (probability zero under continuous densities) resolve to
    the lowest vertex index, so the result is a pure function of the set.
    """
    idx = np.asarray(sorted(int(v) for v in set(np.asarray(vertex_indices).ravel().tolist())))
    if idx.size == 0:
        raise InputError("leftmost point of an empty vertex set is undefined")
    pts = cloud.points[idx]
    order = np.lexsort(pts.T[::-1])  # primary key: first coordinate
    return int(idx[order[0]])


@dataclass(frozen=True)
class RegionSpec:
    kind: str  # "all", "box", or "box-complement"
    lo: tuple | None = None
    hi: tuple | None = None

    def __post_init__(self):
        if self.kind == "all":
            if self.lo is not None or self.hi is not None:
                raise ConfigurationError("region 'all' takes no box bounds")
            return
        if self.kind not in ("box", "box-complement"):
            raise ConfigurationError(f"unsupported region kind: {self.kind!r}")
        if self.lo is None or self.hi is None:
            raise ConfigurationError(f"region {self.kind!r} requires lo and hi")
        lo = tuple(float(v) for v in self.lo)
        hi = tuple(float(v) for v in self.hi)
        if len(lo) != len(hi) or not all(h > l for l, h in zip(lo, hi)):
            raise ConfigurationError("region box requires hi > lo in every coordinate")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def to_config(self) -> dict:
        if self.kind == "all":
            return {"kind": "all"}
        return {"kind": self.kind, "lo": list(self.lo), "hi": list(self.hi)}


ALL_SPACE = RegionSpec(kind="all")


def region_from_config(config: dict) -> RegionSpec:
    if not isinstance(config, dict) or "kind" not in config:
        raise ConfigurationError("region config must be an object with a 'kind'")
    extra = set(config) - {"kind", "lo", "hi"}
    if extra:
        raise ConfigurationError(f"unknown region fields: {sorted(extra)}")
    try:
        return RegionSpec(kind=config["kind"], lo=config.get("lo"), hi=config.get("hi"))
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"region config has a malformed field: {exc}") from None


def region_mask(points: np.ndarray, region: RegionSpec) -> np.ndarray:
    """Vectorized membership; the box is open, its complement excludes the closed box."""
    points = np.asarray(points, dtype=np.float64)
    if region.kind == "all":
        return np.ones(points.shape[0], dtype=bool)
    lo = np.asarray(region.lo)
    hi = np.asarray(region.hi)
    if points.shape[1] != lo.shape[0]:
        raise InputError(f"points of dimension {points.shape[1]} vs region of dimension {lo.shape[0]}")
    if region.kind == "box":
        return np.all((points > lo) & (points < hi), axis=1)
    return np.any((points < lo) | (points > hi), axis=1)
