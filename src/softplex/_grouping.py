"""Index arithmetic for generating pairs out of grouped, sorted arrays.

These helpers are the vectorized core of the clique join.  One ragged-range
primitive, `_ragged`, numbers the elements of consecutive groups of given
sizes: each element's group and its offset inside the group.  On it,
`pairs_within_groups` emits all within-group position pairs (i < j) without
a Python-level loop over elements.  One sorted-key lookup, `_find`, serves
the join's row-code lookups.
"""

from __future__ import annotations

import numpy as np


def _ragged(sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group index and offset inside the group of every element of consecutive groups.

    Group g holds ``sizes[g]`` elements, so both arrays have ``sizes.sum()``
    entries and the offsets run 0 .. sizes[g] - 1 inside group g.
    """
    group = np.repeat(np.arange(sizes.size, dtype=np.int64), sizes)
    first = np.cumsum(sizes) - sizes
    return group, np.arange(group.size, dtype=np.int64) - first[group]


def pairs_within_groups(starts: np.ndarray, counts: np.ndarray):
    """All position pairs (i, j), i < j, inside each contiguous group.

    ``starts[g]`` is the first position of group g and ``counts[g]`` its
    size; positions are returned relative to the underlying sorted array.
    """
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    group, local = _ragged(counts)
    rights_per_left = counts[group] - local - 1
    lefts = np.repeat(starts[group] + local, rights_per_left)
    _, step = _ragged(rights_per_left)
    return lefts, lefts + step + 1


def _find(table: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whether each key is in a sorted int64 table, and its insertion index."""
    index = np.searchsorted(table, keys)
    if table.size == 0:
        return np.zeros(keys.shape, dtype=bool), index
    return table.take(index, mode="clip") == keys, index


def group_boundaries(sorted_keys: np.ndarray):
    """Start offsets, sizes, and representative keys of equal-value runs."""
    n = sorted_keys.shape[0]
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, sorted_keys
    change = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
    starts = np.concatenate([[0], change]).astype(np.int64)
    sizes = np.diff(np.concatenate([starts, [n]])).astype(np.int64)
    return starts, sizes, sorted_keys[starts]
