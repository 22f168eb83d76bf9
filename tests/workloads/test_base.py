"""The bulk draw behind the generators' data tables.

:func:`repro.workloads.base.randbelow_many` replaces one
``randrange(n)`` call per table word, and every program fingerprint
depends on the values it draws, so it is checked against the loop it
replaced: the same values and the same generator state afterwards.
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.workloads.base import randbelow_many

# The bounds where the rule changes: one 32-bit word per draw up to
# 2**32 - 1, several words from 2**32 (whose bit length is 33) up.
EDGE_BOUNDS = [2**k for k in range(34)] + [3, 999, 2**32 - 1, 2**32 + 1]
BOUNDS = st.one_of(st.integers(1, 2**33), st.sampled_from(EDGE_BOUNDS))


def reference(random_state, n, count):
    return [random_state.randrange(n) for _ in range(count)]


@settings(max_examples=200, deadline=None)
@given(n=BOUNDS, count=st.integers(0, 4096), seed=st.integers())
@example(n=1, count=4096, seed=0)
@example(n=2**16, count=4096, seed=2)  # rejects about half its words
@example(n=2**32 - 1, count=100, seed=1)
@example(n=2**32, count=100, seed=1)
@example(n=2**32 + 1, count=100, seed=1)
@example(n=2**33, count=100, seed=1)
@example(n=999, count=0, seed=7)
def test_randbelow_many_equals_the_randrange_loop(n, count, seed):
    # An equal state means later draws, such as pointer_chase's next
    # shuffle, do not move either.
    bulk, loop = random.Random(seed), random.Random(seed)
    assert randbelow_many(bulk, n, count) == reference(loop, n, count)
    assert bulk.getstate() == loop.getstate()


@pytest.mark.parametrize("n", [0, -5])
def test_empty_range_raises_like_randrange(n):
    assert randbelow_many(random.Random(0), n, 0) == []
    with pytest.raises(ValueError, match="empty range"):
        randbelow_many(random.Random(0), n, 1)
