"""The packed-sample stencil against its nested-list reference.

grid._stencil reads array('d') rows and tests the sum of its nine
samples before it tests them one by one; stencil_reference keeps the
list-of-lists stencil that tests each sample.  Rows are compared by
repr (which tells -0.0 from 0.0 and shows NaN), flags exactly.
"""

import math
from array import array

import pytest
from hypothesis import example, given, settings, strategies as st

from monge4.grid import DiscretePatch, _stencil, fd_jets, rows, sampled_jets

import stencil_reference as ref

# NaN, infinities, signed zeros, values whose sum overflows, a subnormal
SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e308, -1e308,
           1.7e308, -1.7e308, 5e-324]
SAMPLES = st.one_of(st.sampled_from(SPECIAL), st.floats(-10.0, 10.0),
                    st.floats(allow_nan=True, allow_infinity=True))
STEPS = st.one_of(st.sampled_from([1e-3, 0.1, 0.25, 1.0]),
                  st.floats(1e-6, 1e6))


def discrete_rows(dp):
    """The result row of every node of dp: its sampled source through rows."""
    return rows(sampled_jets(dp)(0, len(dp.us) * len(dp.vs)))


def outcome(fn, *args):
    """What a call gives: its value's repr, or its exception and message."""
    try:
        return repr(fn(*args))
    except Exception as err:  # compared, not handled
        return type(err).__name__, str(err)


def patch(f, g, hu=0.25, hv=0.5):
    """A DiscretePatch over lists of rows, held as array('d') rows, with
    nodes at multiples of hu and hv; g None leaves out the g channel."""
    return DiscretePatch(tuple(i * hu for i in range(len(f))),
                         tuple(j * hv for j in range(len(f[0]))),
                         [array("d", row) for row in f],
                         None if g is None else [array("d", row) for row in g])


@st.composite
def grids(draw):
    nu, nv = draw(st.integers(3, 5)), draw(st.integers(3, 5))
    channel = st.lists(st.lists(SAMPLES, min_size=nv, max_size=nv),
                       min_size=nu, max_size=nu)
    return draw(channel), draw(channel), draw(STEPS), draw(STEPS)


def assert_same(f, g, hu, hv):
    dp = patch(f, g, hu, hv)
    channels = ((dp.f, f),) if g is None else ((dp.f, f), (dp.g, g))
    for i in range(1, len(dp.us) - 1):
        for j in range(1, len(dp.vs) - 1):
            for z, zref in channels:
                assert (outcome(_stencil, z, i, j, hu, hv)
                        == outcome(ref.stencil, zref, i, j, hu, hv))
            assert outcome(fd_jets, dp, i, j) == outcome(ref.fd_jets, dp, i, j)
    rows = outcome(list, discrete_rows(dp))
    want = outcome(list, ref.discrete_rows(dp))
    assert rows == want
    if isinstance(want, str):
        assert ([r.flag for r in discrete_rows(dp)]
                == [r.flag for r in ref.discrete_rows(dp)])


FLAT = [[0.1 * i - 0.2 * j for j in range(3)] for i in range(3)]


@settings(max_examples=300, deadline=None)
@given(grids())
@example((FLAT, [[math.inf, -math.inf, 0.0]] + FLAT[1:], 0.25, 0.5))
@example(([[2.1e307] * 3] * 3, [[-1.7e308, 1.7e308, -1.7e308]] * 3, 1.0, 1.0))
@example(([[1e308, -1e308, 1e308]] + FLAT[1:], FLAT, 1e-3, 1e-3))
def test_stencil_matches_nested_list_reference(grid):
    assert_same(*grid)


@settings(max_examples=100, deadline=None)
@given(grids())
def test_one_channel_matches_a_zero_g_channel(grid):
    # a patch without g takes the flat jet where the reference stencils
    # nine 0.0 samples: the rows and flags must not differ
    f, _, hu, hv = grid
    assert_same(f, None, hu, hv)
    zeros = [[0.0] * len(f[0]) for _ in f]
    assert (outcome(list, discrete_rows(patch(f, None, hu, hv)))
            == outcome(list, discrete_rows(patch(f, zeros, hu, hv))))


@pytest.mark.parametrize("k", range(9))
def test_negative_zero_at_each_stencil_position(k):
    f = [row[:] for row in FLAT]
    f[k // 3][k % 3] = -0.0
    assert_same(f, FLAT, 0.25, 0.5)
    assert_same(FLAT, f, 0.25, 0.5)
    if k == 4:
        assert repr(_stencil(patch(f, FLAT).f, 1, 1, 0.25, 0.5)[0]) == "-0.0"


@pytest.mark.parametrize("k", range(9))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_one_non_finite_sample_flags_the_node(k, bad):
    f = [row[:] for row in FLAT]
    f[k // 3][k % 3] = bad
    with pytest.raises(ValueError, match=r"^non-finite sample near node \(1, 1\)$"):
        _stencil(patch(f, FLAT).f, 1, 1, 0.25, 0.5)
    assert_same(f, FLAT, 0.25, 0.5)


def test_finite_stencil_whose_sum_overflows_is_not_flagged():
    f = [[2.1e307] * 3 for _ in range(3)]
    assert math.isinf(sum(sum(row) for row in f))
    assert (_stencil(patch(f, FLAT).f, 1, 1, 1.0, 1.0)
            == (2.1e307, 0.0, 0.0, 0.0, 0.0, 0.0))
    rows = list(discrete_rows(patch(f, FLAT, 1.0, 1.0)))
    assert rows[4].flag == ""
    assert_same(f, FLAT, 1.0, 1.0)
