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


def box_muller_radii(u1: np.ndarray) -> np.ndarray:
    """The Box-Muller radii sqrt(-2 log(1 - u1)), computed in place over u1."""
    np.negative(u1, out=u1)
    np.log1p(u1, out=u1)  # 1 - u1 in (0, 1], log finite
    u1 *= -2.0
    return np.sqrt(u1, out=u1)


def box_muller(radii: np.ndarray, u2: np.ndarray, start: int, out: np.ndarray) -> np.ndarray:
    """Normals start .. start + out.size - 1 of the Box-Muller sequence of (radii, u2).

    radii is box_muller_radii(u1).  The sequence holds 2 * len(radii)
    normals (Box & Muller 1958): normal i is radii[i] * cos(2 pi u2[i]) for
    i < len(radii), and normal len(radii) + i is the sine of the same pair.
    Computing a range at a time lets a caller work on cache-sized blocks;
    every value depends on its own pair only, so any split gives the same
    normals.
    """
    pairs = radii.shape[0]
    cut = min(max(pairs - start, 0), out.shape[0])  # normals of out from the cosine half
    for trig, part, first in ((np.cos, out[:cut], start), (np.sin, out[cut:], start + cut - pairs)):
        if part.size:
            stop = first + part.size
            np.multiply(u2[first:stop], 2.0 * np.pi, out=part)
            trig(part, out=part)
            part *= radii[first:stop]
    return out


def standard_normals(rng: np.random.Generator, count: int) -> np.ndarray:
    """Box-Muller normals driven by the uniform stream of ``rng``."""
    pairs = (count + 1) // 2
    u1 = rng.random(pairs)
    u2 = rng.random(pairs)
    return box_muller(box_muller_radii(u1), u2, 0, np.empty(count))


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
