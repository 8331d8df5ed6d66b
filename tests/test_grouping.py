import bisect

import numpy as np
from hypothesis import given, settings, strategies as st

from softplex.complexes import _find, pairs_within_groups

# Group sizes 0..6 cover empty input, zero-size groups and singletons.
SIZES = st.lists(st.integers(0, 6), max_size=12)
STARTS = st.integers(0, 50)


def as_pairs(lefts, rights):
    assert lefts.dtype == rights.dtype == np.int64
    return list(zip(lefts.tolist(), rights.tolist()))


@settings(max_examples=300)
@given(sizes=SIZES, data=st.data())
def test_pairs_within_groups_match_double_loop(sizes, data):
    starts = data.draw(st.lists(STARTS, min_size=len(sizes), max_size=len(sizes)))
    expected = [(s + a, s + b) for s, c in zip(starts, sizes)
                for a in range(c) for b in range(a + 1, c)]
    assert as_pairs(*pairs_within_groups(starts, sizes)) == expected


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
