"""Exact rational linear algebra: solving many right-hand sides at once."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from defpair import linalg


def solve_one(rows, rhs):
    """Reference: the one-right-hand-side solver, one rref per system."""
    if not rows:
        return None if any(b != 0 for b in rhs) else []
    ncols = len(rows[0])
    aug = [list(map(Fraction, r)) + [Fraction(b)] for r, b in zip(rows, rhs)]
    red, pivots = linalg.rref(aug)
    for row in red:
        if all(x == 0 for x in row[:-1]) and row[-1] != 0:
            return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        if pc == ncols:
            return None
        x[pc] = red[r][-1]
    return x


_entry = st.integers(-2, 2)


@st.composite
def systems(draw):
    """A low-rank m x n matrix (a product through an inner dimension of at
    most 2, so that many right-hand sides are inconsistent) and a mix of
    right-hand sides in its image and arbitrary ones, in drawn order."""
    m, n, inner = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 2))
    b = draw(st.lists(st.lists(_entry, min_size=inner, max_size=inner), min_size=m, max_size=m))
    c = draw(st.lists(st.lists(_entry, min_size=n, max_size=n), min_size=inner, max_size=inner))
    rows = linalg.mat_mul(b, c)
    rhss = []
    for in_image in draw(st.lists(st.booleans(), min_size=1, max_size=5)):
        if in_image:
            x = draw(st.lists(_entry, min_size=n, max_size=n))
            rhss.append(linalg.mat_vec(rows, x))
        else:
            rhss.append([Fraction(v) for v in draw(st.lists(_entry, min_size=m, max_size=m))])
    return rows, rhss


@given(systems())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_solve_many_matches_one_system_per_target(system):
    rows, rhss = system
    sols = linalg.solve_many(rows, rhss)
    assert sols == [solve_one(rows, b) for b in rhss]
    for b, x in zip(rhss, sols):
        if x is not None:
            assert linalg.mat_vec(rows, x) == b


def test_solve_many_inconsistent_before_consistent():
    # the pivot of the first (inconsistent) right-hand side does not disturb
    # the solution read off the second one
    rows = [[1, 2], [2, 4]]
    rhss = [[1, 0], [3, 6], [0, 1], [1, 2]]
    sols = linalg.solve_many(rows, rhss)
    assert sols == [None, [3, 0], None, [1, 0]]
    assert sols == [solve_one(rows, b) for b in rhss]


def test_solve_many_edge_shapes():
    assert linalg.solve_many([[1, 0]], []) == []
    assert linalg.solve_many([], [[], []]) == [[], []]
    assert linalg.solve([[0, 0]], [1]) is None
    assert linalg.solve([[0, 0]], [0]) == [0, 0]
