"""The reduction rule: every value the library hands out is a normal form.

Sums, differences and rational multiples of normal forms are normal forms,
so the arithmetic below does not reduce; these checks confirm that its
outputs are fixed points of `nf`, over the cusp and over the cusp tensored
with QQ[e]/(e^3), and that `==` decides equality of normal forms.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defpair import matrices as mat
from defpair.dgla import HomComplexDGLA, TableDGLA
from defpair.mc import TableContext
from defpair.modules import FPModule, FreeComplex
from defpair.pairs import DerivationPair
from defpair.poly import PolyRing
from defpair.rings import QuotientRing, extend_ring, make_artin_algebra

CUSP = QuotientRing(PolyRing(("x", "y")), [PolyRing(("x", "y")).parse("y^2 - x^3")])
ARTIN = make_artin_algebra(["e"], ["e^3"])
RINGS = {"cusp": CUSP, "cusp(x)A": extend_ring(CUSP, ARTIN)}

_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def _element(data, ring):
    """A normal form drawn as the reduction of a small ambient polynomial."""
    monos = st.tuples(*[st.integers(0, 3)] * ring.nvars)
    terms = data.draw(st.dictionaries(monos, st.integers(-3, 3), max_size=4))
    return ring.nf(sum((ring.ambient.monomial(m, c) for m, c in terms.items()),
                       ring.zero()))


def _matrix(data, ring, rows, cols):
    return [[_element(data, ring) for _ in range(cols)] for _ in range(rows)]


def _is_normal(ring, p):
    return ring.nf(p) == p


def _module(ring):
    x, y = ring.var(0), ring.var(1)
    return FPModule.cokernel(ring, [[x, y], [y, x * x]])


small = settings(max_examples=12, deadline=None, derandomize=True)


@pytest.mark.parametrize("name", sorted(RINGS))
@given(data=st.data())
@small
def test_ring_and_matrix_arithmetic_stays_normal(name, data):
    ring = RINGS[name]
    a, b = _matrix(data, ring, 2, 2), _matrix(data, ring, 2, 2)
    for out in (mat.mat_add(ring, a, b), mat.mat_sub(ring, a, b)):
        assert all(_is_normal(ring, p) for row in out for p in row)
    assert _is_normal(ring, mat.mat_trace(ring, a))
    # == on normal forms is equality in the ring
    p, q = a[0][0], a[0][1]
    g = ring.relations[0]
    for u, v in ((p, q), (p, p), (p, ring.nf(p + g * q))):
        assert (u == v) == ring.nf(u - v).is_zero()


@pytest.mark.parametrize("name", sorted(RINGS))
@given(data=st.data(), c=_rationals)
@small
def test_hom_complex_sum_and_rational_scale_stay_normal(name, data, c):
    ring = RINGS[name]
    x, y = ring.var(0), ring.var(1)
    H = HomComplexDGLA(FreeComplex(ring, {-1: 1, 0: 2}, {-1: [[x], [y]]}))
    f = H.from_blocks(0, {-1: _matrix(data, ring, 1, 1), 0: _matrix(data, ring, 2, 2)})
    g = H.from_blocks(0, {-1: _matrix(data, ring, 1, 1), 0: _matrix(data, ring, 2, 2)})
    for out in (H.add(f, g), H.scale(c, f), H.add(f, H.neg(g))):
        assert all(_is_normal(ring, p) for _, m in out.blocks for row in m for p in row)


@pytest.mark.parametrize("name", sorted(RINGS))
@given(data=st.data())
@small
def test_module_and_pair_sums_stay_normal(name, data):
    ring = RINGS[name]
    M = _module(ring)

    def vec():
        return M.nf(tuple(_element(data, ring) for _ in range(M.ngens)))

    u, v = vec(), vec()
    for out in (M.add(u, v), M.sub(u, v)):
        assert M.nf(out) == out
    # DerivationPair.add only adds the stored values; validity is not needed
    p, q = (DerivationPair(ring, M, tuple(_element(data, ring) for _ in range(ring.nvars)),
                           (vec(), vec())) for _ in range(2))
    s = p.add(q)
    assert all(_is_normal(ring, h) for h in s.h_values)
    assert all(M.nf(w) == w for w in s.u_values)


@given(data=st.data(), c=_rationals)
@small
def test_table_context_sum_stays_normal(data, c):
    ctx = TableContext(TableDGLA({0: 2, 1: 1}), ARTIN)
    x, y = (ctx.element(0, [_element(data, ARTIN) for _ in range(2)]) for _ in range(2))
    for out in (ctx.add(x, y), ctx.scale(c, x), ctx.sub(x, y)):
        assert all(_is_normal(ARTIN, a) for a in out.coeffs)
