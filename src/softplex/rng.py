"""Deterministic seeding, stream derivation, and stateless per-item coins.

Every random quantity in the package is pinned to explicit 64-bit seeds.
Derived streams come from a splitmix64-style mixer, so replications can be
executed in any order (or concurrently) and still reproduce bit-identical
results.  Per-face retention coins are *stateless*: the uniform attached to
a face depends only on (seed, dimension, vertex tuple), never on enumeration
order, which gives monotone coupling of thinned complexes across retention
vectors that share a seed.
"""

from __future__ import annotations

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MULT1 = 0xBF58476D1CE4E5B9
_MULT2 = 0x94D049BB133111EB
_INV_2_53 = 2.0 ** -53

# stream tags, kept distinct so sub-streams of one seed never collide; tag 3
# drew the retired graph-level edge coins and tag 6 the retired density-factor
# samples of the constants, and both stay unused, so that reusing them cannot
# alias an old stream
POINT_STREAM = 1
COUNT_STREAM = 2
FACE_COIN_STREAM = 4
REPLICATION_STREAM = 5
MC_INNER_STREAM = 7


def _mix(x: int) -> int:
    """splitmix64 finalizer on a python int, masked to 64 bits."""
    x &= _MASK
    x = (x ^ (x >> 30)) * _MULT1 & _MASK
    x = (x ^ (x >> 27)) * _MULT2 & _MASK
    return x ^ (x >> 31)


def derive_seed(seed: int, *path: int) -> int:
    """Hash (seed, *path) into a single 64-bit stream key."""
    h = _mix(int(seed) & _MASK)
    for part in path:
        h = _mix((h + _GOLDEN + _mix(int(part) & _MASK)) & _MASK)
    return h


def generator(seed: int, *path: int) -> np.random.Generator:
    """Counter-based generator for the derived stream (Philox keyed by hash)."""
    return np.random.Generator(np.random.Philox(key=derive_seed(seed, *path)))


def box_muller(u1: np.ndarray, u2: np.ndarray, scratch: np.ndarray | None = None) -> None:
    """Map the uniform pairs (u1[i], u2[i]) in place to their two Box-Muller normals.

    u1[i] becomes R cos(2 pi u2[i]) and u2[i] becomes R sin(2 pi u2[i]), with
    R = sqrt(-2 log(1 - u1[i])) (Box & Muller 1958).  Every normal depends on
    its own pair only, so a caller may map a stream's pairs a chunk at a time.
    ``scratch``, an array of the same length, holds the cosines in between; it
    is allocated when None.
    """
    np.negative(u1, out=u1)
    np.log1p(u1, out=u1)  # 1 - u1 in (0, 1], log finite
    u1 *= -2.0
    np.sqrt(u1, out=u1)
    u2 *= 2.0 * np.pi
    cosines = np.cos(u2, out=scratch)
    np.sin(u2, out=u2)
    u2 *= u1
    np.multiply(cosines, u1, out=u1)


def standard_normals(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` Box-Muller normals: the cosine normals of ``(count + 1) // 2`` pairs drawn
    as u1 then u2 from ``rng``, followed by their sine normals."""
    pairs = (count + 1) // 2
    normals = np.empty(2 * pairs)
    u1, u2 = normals[:pairs], normals[pairs:]
    rng.random(out=u1)
    rng.random(out=u2)
    box_muller(u1, u2)
    return normals[:count]


_U30, _U27, _U31, _U11 = (np.uint64(shift) for shift in (30, 27, 31, 11))
_UMULT1, _UMULT2, _UGOLDEN = np.uint64(_MULT1), np.uint64(_MULT2), np.uint64(_GOLDEN)


def _vector_mix(h: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, in place: callers pass an array they own."""
    h ^= h >> _U30
    h *= _UMULT1
    h ^= h >> _U27
    h *= _UMULT2
    h ^= h >> _U31
    return h


def uniform_coins(seed: int, items: np.ndarray) -> np.ndarray:
    """One uniform in [0, 1) per row of ``items``, a function of values only.

    ``items`` is an integer array of shape (m,) or (m, w); rows with equal
    values always map to equal uniforms for a fixed seed.
    """
    items = np.asarray(items)
    if items.ndim == 1:
        items = items[:, None]
    h = np.full(items.shape[0], derive_seed(seed), dtype=np.uint64)
    for col in range(items.shape[1]):
        h = _vector_mix(h + _UGOLDEN + _vector_mix(items[:, col].astype(np.uint64)))
    return (h >> _U11).astype(np.float64) * _INV_2_53
