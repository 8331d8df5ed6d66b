"""Distance-threshold graphs, sort-and-sweep and k-d tree neighbor search, regions.

The geometric graph joins two points whenever their distance is at most r
(closed threshold).  In d = 1 the search sorts the points once and sweeps
the sorted order offset by offset: a position stays a candidate for offset
k only while its pair at offset k - 1 was within r.  The order comes from
one sort of int64 keys (q_i << b) | i, b = n.bit_length(), where q_i
quantises x_i - min x onto 2^(62 - b) steps across the span; each float
step is monotone, so the keys sort the cloud up to runs of equal q; one
check of the gaps finds a run whose labels contradict its values, and one
stable argsort of the nearly sorted values then finishes the order.  In
d >= 2 one `cKDTree.query_pairs` call from scipy finds the pairs (a k-d
tree; Bentley 1975).  The tree is built with ``balanced_tree=False``, which
splits a node at the midpoint of its box and slides the split to the
nearest point when one side would be empty (Maneewongvatana & Mount 1999),
and with ``compact_nodes=False``, which keeps each node's box as its split
left it rather than shrinking it to the node's points.  Neither changes
which pairs pass, since every candidate meets the same closed float test.
They skip the median selections and the per-node bounds pass, and on a
2-vCPU VM the graphs of the d = 2 bench clouds (n = 3000 and 5000,
r = 0.02) took about 20% less time than with the defaults.  Either way the
sparse regime costs O(n log n + output) on average.
Every path returns its edges sorted by the int64 code lo * n + hi.  A
quadratic reference implementation is kept alongside as the correctness
oracle.  scipy is imported inside the two calls that use it, so a d = 1 run
never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, InputError, box, real
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
    from scipy.spatial.distance import cdist

    n = points.shape[0]
    if n < 2:
        return _NO_EDGES.copy()
    sq = cdist(points, points, "sqeuclidean")
    ii, jj = np.nonzero(np.triu(sq <= r * r, k=1))
    return _sort_pairs(ii.astype(np.int64), jj.astype(np.int64), n)


def _sorted_order(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The order that sorts a 1-d cloud, with the sorted values and their offset-1 gaps.

    A presort and one check.  The presort sorts the int64 keys (q_i << b) | i,
    b = n.bit_length(), q_i = trunc((x_i - min x) * 2^(62 - b) / span), which
    stay below 2^63; q = 0 when the span is 0 or too large or too small to
    scale.  Each float step is monotone, so x_i < x_j gives q_i <= q_j, and
    the keys misorder values only inside a run of equal q, where the labels
    break the tie.  One ``gap.min()`` finds such a run, and then one stable
    argsort of the nearly sorted values finishes the order, keeping the key
    order among equal values.
    """
    n = x.size
    b = n.bit_length()
    lo = float(x.min())
    span = float(x.max()) - lo  # Python floats: an overflow gives inf, not a warning
    scale = 2.0 ** (62 - b) / span if span > 0 else 0.0
    if 0.0 < scale < math.inf:
        key = x - lo
        key *= scale
        key = key.astype(np.int64)
    else:
        key = np.zeros(n, dtype=np.int64)
    key <<= b
    key |= np.arange(n, dtype=np.int64)
    key.sort()
    key &= (1 << b) - 1
    xs = x[key]
    gap = xs[1:] - xs[:-1]
    if gap.min() < 0:
        by_value = np.argsort(xs, kind="stable")
        key = key[by_value]
        xs = xs[by_value]
        gap = xs[1:] - xs[:-1]
    return key, xs, gap


def _threshold_pairs_sweep(x: np.ndarray, r: float) -> np.ndarray:
    """All pairs of a 1-d cloud at distance <= r, by one sort and an offset sweep.

    Offset 1 tests every adjacent gap of the sorted coordinates; offset k
    tests only the positions whose pair at offset k - 1 passed, and the sweep
    stops when none is left.  That drops no pair: in sorted order the float
    gap xs[i + k] - xs[i] never decreases as k grows, because subtraction
    rounds monotonically.  Any sorted order gives the same edges, since the
    test gap * gap <= r * r is symmetric (a - b = -(b - a) exactly); a gap
    or square that overflows is inf and is compared as the oracle compares
    it.  Vertex labels stay in draw order.
    """
    n = x.shape[0]
    r2 = r * r
    with np.errstate(over="ignore"):
        order, xs, gap = _sorted_order(x)
        pos = np.flatnonzero(np.square(gap, out=gap) <= r2)
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

    The tree is scipy's `cKDTree` with sliding-midpoint splits
    (``balanced_tree=False``) and uncompacted node boxes
    (``compact_nodes=False``), which build faster than the median splits and
    tight boxes of its defaults and return the same pairs; `query_pairs`
    keeps a pair when its float squared distance is at most r * r, the
    oracle's closed test.  Coordinates must be finite; they are checked once
    here, for every d.  So must r * r, or every pair would pass: a radius
    above the square root of the largest double is refused in every d.  The
    tree also needs the squared diagonal of the cloud's bounding box to be a
    finite double, so a d >= 2 cloud beyond that is refused here; the d = 1
    sweep takes any finite cloud.
    """
    n, d = points.shape
    if not np.isfinite(points).all():
        raise InputError("threshold graph needs finite coordinates")
    if float(r) * float(r) == math.inf:
        raise InputError(
            "threshold graph needs the squared radius r * r to be at most the largest double,"
            " 1.798e+308 (a radius of at most 1.341e+154); it overflows"
        )
    if n < 2:
        return _NO_EDGES.copy()
    if d == 1:
        return _threshold_pairs_sweep(points[:, 0], r)
    # Python floats: an overflow gives inf, not a warning
    spans = [float(axis.max()) - float(axis.min()) for axis in points.T]
    if sum(span * span for span in spans) == math.inf:
        raise InputError(
            "threshold graph in d >= 2 needs the bounding box's squared diagonal, the sum"
            " of (max - min)^2 over the axes, to be at most the largest double, 1.798e+308"
            " (a diagonal of at most 1.341e+154); it overflows"
        )
    from scipy.spatial import cKDTree

    tree = cKDTree(points, balanced_tree=False, compact_nodes=False)
    pairs = tree.query_pairs(r, output_type="ndarray")
    return _sort_pairs(pairs[:, 0], pairs[:, 1], n)


def build_graph(cloud: PointCloud, r: float, *, seed: int | None = None) -> GeometricGraph:
    """Threshold graph on the cloud.

    The graph draws no randomness; retention coins, the edges' among them,
    belong to ``build_complex``, which builds both flavours on this graph.
    ``seed`` is accepted and ignored, for callers that still pass one.
    """
    r = real(r, "threshold radius", 0)
    return GeometricGraph(cloud=cloud, r=r, edges=threshold_pairs(cloud.points, r))


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
        lo, hi = box(self.lo, self.hi, f"region {self.kind!r}")  # infinite bounds allowed
        object.__setattr__(self, "lo", tuple(lo.tolist()))
        object.__setattr__(self, "hi", tuple(hi.tolist()))

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
