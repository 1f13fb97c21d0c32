"""Maurer-Cartan residuals, gauge action, BCH products, functor criteria."""

import random
from fractions import Fraction

import pytest

from defpair.dgla import (DGLAError, TableDGLA, abelian_dgla, hom_complex_dgla,
                          pair_complex_dgla)
from defpair.groebner import CapacityError
from defpair.mc import (DGLAMorphism, HomContext, MCError, PairContext,
                        TableContext, bch, functor_iso_criterion, gauge_act,
                        mc_check, mc_residual, tangent_obstruction)
from defpair.modules import FPModule, FreeComplex, tensor_with_artin
from defpair.poly import PolyRing
from defpair.rings import QuotientRing, extend_ring, make_artin_algebra


def QQr(*names):
    return QuotientRing(PolyRing(names))


def three_term_ctx(rel="e^3"):
    """Ranks 1,2,1 in degrees -2,-1,0 with d = ((w,0)^T, (0 w)), over
    QQ[w] (x) A; Hom^1 elements have genuinely interacting blocks."""
    R = QQr("w")
    A = make_artin_algebra(["e"], [rel])
    E = extend_ring(R, A)
    w = E.from_base(R.var(0))
    cx = FreeComplex(E, {-2: 1, -1: 2, 0: 1},
                     {-2: [[w], [E.zero()]], -1: [[E.zero(), w]]})
    return E, A, HomContext(hom_complex_dgla(cx))


# -- table contexts ------------------------------------------------------------

def test_abelian_mc_iff_closed():
    L = abelian_dgla({1: 2, 2: 1}, {1: [[Fraction(1), Fraction(0)]]})
    A = make_artin_algebra(["e"], ["e^2"])
    ctx = TableContext(L, A)
    e = A.var(0)
    closed = ctx.element(1, (A.zero(), e))
    assert mc_check(ctx, closed)
    not_closed = ctx.element(1, (e, A.zero()))
    assert not mc_check(ctx, not_closed)


def test_zero_element_is_mc():
    L = abelian_dgla({1: 1, 2: 1})
    A = make_artin_algebra(["e"], ["e^2"])
    ctx = TableContext(L, A)
    assert mc_check(ctx, ctx.zero(1))


def test_abelian_gauge_is_translation():
    # e^a * x = x - da in an abelian DGLA
    L = abelian_dgla({0: 1, 1: 1}, {0: [[Fraction(1)]]})
    A = make_artin_algebra(["e"], ["e^2"])
    ctx = TableContext(L, A)
    e = A.var(0)
    a = ctx.element(0, (e,))
    x = ctx.zero(1)
    moved = gauge_act(ctx, a, x)
    assert moved.coeffs == (A.nf(-e),)


def test_gauge_identity_actor():
    E, A, ctx = three_term_ctx()
    e = E.from_artin(A.var(0))
    x = ctx.H.from_blocks(1, {-2: [[e], [E.zero()]],
                              -1: [[E.zero(), E.zero()]]})
    assert ctx.H.eq(gauge_act(ctx, ctx.zero(0), x), x)


# -- hom contexts ---------------------------------------------------------------

def test_mc_solved_second_order():
    # first-order x1 is closed with [x1,x1] != 0; the second-order block
    # solves d x2 = -[x1,x1]/2, making x1 + x2 exactly Maurer-Cartan
    E, A, ctx = three_term_ctx("e^3")
    e = E.from_artin(A.var(0))
    w = E.nf(E.ambient.parse("w"))
    x1 = ctx.H.from_blocks(1, {-2: [[e], [E.nf(-e * w)]],
                               -1: [[E.nf(e * w), E.zero()]]})
    x2 = ctx.H.from_blocks(1, {-2: [[E.zero()], [E.nf(-e * e)]],
                               -1: [[E.zero(), E.zero()]]})
    x = ctx.H.add(x1, x2)
    assert ctx.H.is_zero(ctx.d(x1))          # dx1 = 0
    assert not mc_check(ctx, x1)             # but [x1,x1] obstructs
    assert mc_check(ctx, x)                  # the correction repairs it
    assert not ctx.H.is_zero(mc_residual(ctx, x1))


def _rand_mc_element(E, ctx, e, w, rng):
    # ((p, 0)^T, (0, s)) blocks are Maurer-Cartan for this differential
    def coeff():
        return E.nf(e ** rng.randint(1, 3) * w ** rng.randint(0, 2)
                    * rng.randint(-2, 2))
    return ctx.H.from_blocks(1, {-2: [[coeff()], [E.zero()]],
                                 -1: [[E.zero(), coeff()]]})


def _rand_actor(E, ctx, e, w, rng, top=3):
    def coeff():
        return E.nf(e ** rng.randint(1, top) * w ** rng.randint(0, 1)
                    * rng.randint(-2, 2))
    return ctx.H.from_blocks(0, {
        -2: [[coeff()]],
        -1: [[coeff(), coeff()], [coeff(), coeff()]],
        0: [[coeff()]]})


def test_gauge_preserves_mc_seeded():
    E, A, ctx = three_term_ctx("e^4")
    e = E.from_artin(A.var(0))
    w = E.nf(E.ambient.parse("w"))
    rng = random.Random(99)
    for _ in range(25):
        x = _rand_mc_element(E, ctx, e, w, rng)
        assert mc_check(ctx, x)
        a = _rand_actor(E, ctx, e, w, rng)
        moved = gauge_act(ctx, a, x)  # raises if MC breaks
        assert mc_check(ctx, moved)


def test_gauge_composition_is_bch_action():
    E, A, ctx = three_term_ctx("e^4")
    e = E.from_artin(A.var(0))
    w = E.nf(E.ambient.parse("w"))
    rng = random.Random(7)
    for _ in range(8):
        x = _rand_mc_element(E, ctx, e, w, rng)
        a = _rand_actor(E, ctx, e, w, rng)
        b = _rand_actor(E, ctx, e, w, rng)
        lhs = gauge_act(ctx, a, gauge_act(ctx, b, x))
        rhs = gauge_act(ctx, bch(ctx, a, b), x)
        assert ctx.H.eq(lhs, rhs)


def test_exp_log_round_trip():
    E, A, ctx = three_term_ctx("e^4")
    e = E.from_artin(A.var(0))
    w = E.nf(E.ambient.parse("w"))
    rng = random.Random(17)
    for _ in range(5):
        a = _rand_actor(E, ctx, e, w, rng)
        assert ctx.H.eq(ctx.log_action(ctx.exp_action(a)), a)


def test_exp_series_cap():
    # over QQ[e]/(e^65) the 64th power of the block [[e]] is still nonzero
    E, A, ctx = three_term_ctx("e^65")
    e = E.from_artin(A.var(0))
    a = ctx.H.from_blocks(0, {0: [[e]]})
    with pytest.raises(CapacityError, match="series"):
        ctx.exp_action(a)


def test_bch_commuting_is_sum():
    E, A, ctx = three_term_ctx("e^3")
    e = E.from_artin(A.var(0))
    ident = {-2: [[e]], -1: [[e, E.zero()], [E.zero(), e]], 0: [[e]]}
    a = ctx.H.from_blocks(0, ident)
    b = ctx.H.scale(E.const(2), a)
    assert ctx.H.eq(bch(ctx, a, b), ctx.H.add(a, b))


def test_bch_associative_seeded():
    E, A, ctx = three_term_ctx("e^4")
    e = E.from_artin(A.var(0))
    w = E.nf(E.ambient.parse("w"))
    rng = random.Random(3)
    for _ in range(5):
        a = _rand_actor(E, ctx, e, w, rng, top=2)
        b = _rand_actor(E, ctx, e, w, rng, top=2)
        c = _rand_actor(E, ctx, e, w, rng, top=2)
        lhs = bch(ctx, bch(ctx, a, b), c)
        rhs = bch(ctx, a, bch(ctx, b, c))
        assert ctx.H.eq(lhs, rhs)


# -- table BCH via registered representation ------------------------------------

def heisenberg():
    # basis a, b, c in degree 0 with [a, b] = c central; strictly upper
    # triangular 3x3 faithful representation
    br = {(0, 0): {(0, 1): [Fraction(0), Fraction(0), Fraction(1)],
                   (1, 0): [Fraction(0), Fraction(0), Fraction(-1)]}}
    rep = {
        0: [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
        1: [[0, 0, 0], [0, 0, 1], [0, 0, 0]],
        2: [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
    }
    return TableDGLA({0: 3}, bracket=br, rep=rep)


def test_bch_heisenberg():
    L = heisenberg()
    A = make_artin_algebra(["e"], ["e^3"])
    ctx = TableContext(L, A)
    e = A.var(0)
    a = ctx.element(0, (e, A.zero(), A.zero()))
    b = ctx.element(0, (A.zero(), e, A.zero()))
    out = bch(ctx, a, b)
    # a + b + [a,b]/2 with everything beyond killed by e^3 = 0
    assert out.coeffs == (e, e, A.nf(e * e * Fraction(1, 2)))


def test_bch_requires_max_ideal():
    L = heisenberg()
    A = make_artin_algebra(["e"], ["e^2"])
    ctx = TableContext(L, A)
    a = ctx.element(0, (A.one(), A.zero(), A.zero()))
    with pytest.raises(MCError):
        bch(ctx, a, a)


def test_bch_requires_representation():
    L = TableDGLA({0: 1})
    A = make_artin_algebra(["e"], ["e^2"])
    ctx = TableContext(L, A)
    a = ctx.element(0, (A.var(0),))
    with pytest.raises(MCError, match="representation"):
        bch(ctx, a, a)


# -- pair contexts ----------------------------------------------------------------

def test_pair_context_bch_matches_anchor():
    R = QQr("x")
    A = make_artin_algebra(["e"], ["e^3"])
    E = extend_ring(R, A)
    e = E.from_artin(A.var(0))
    x = E.nf(E.ambient.parse("x"))
    cx = FreeComplex(E, {0: 1}, {})
    D = pair_complex_dgla(E, cx)
    ctx = PairContext(D)
    a = D.pair_chain((E.nf(e * x), E.zero()), {0: [[e]]})
    b = D.pair_chain((E.nf(e * x * x), E.zero()), {0: [[E.nf(e * x)]]})
    out = bch(ctx, a, b)
    # the anchor of a bullet b is the BCH of the anchors: check first order
    first = E.nf(out.h_values[0] - a.h_values[0] - b.h_values[0])
    assert E.artin_degree(first) is None or E.artin_degree(first) >= 2


# -- dimensions and the isomorphism criterion --------------------------------------

def test_tangent_obstruction_abelian():
    L = abelian_dgla({1: 3, 2: 2})
    assert tangent_obstruction(L) == (3, 2)


def test_tangent_obstruction_zero():
    L = abelian_dgla({})
    assert tangent_obstruction(L) == (0, 0)


def test_functor_iso_identity():
    L = abelian_dgla({0: 1, 1: 2, 2: 1}, {0: [[Fraction(1)], [Fraction(0)]]})
    ident = DGLAMorphism(L, L, {k: [[Fraction(int(i == j))
                                     for j in range(L.dim(k))]
                                    for i in range(L.dim(k))]
                                for k in L.degrees()})
    out = functor_iso_criterion(ident)
    assert out["isomorphism"]


def test_functor_iso_zero_map_fails():
    L = abelian_dgla({1: 2})
    zero = DGLAMorphism(L, L, {})
    out = functor_iso_criterion(zero)
    assert not out["h1_bijective"] and not out["isomorphism"]


def test_functor_iso_quasi_iso_inclusion():
    # inclusion of the subcomplex <y> into <x, y> with d x = z kills nothing:
    # source 1-dim H^1, target H^1 also <y>: inclusion induces iso
    target = abelian_dgla({1: 2, 2: 1}, {1: [[Fraction(1), Fraction(0)]]})
    source = abelian_dgla({1: 1})
    incl = DGLAMorphism(source, target, {1: [[Fraction(0)], [Fraction(1)]]})
    out = functor_iso_criterion(incl)
    assert out["isomorphism"]
    # consistency: when the criterion holds, tangent dimensions agree
    assert tangent_obstruction(source)[0] == tangent_obstruction(target)[0]


def test_chain_map_check_across_an_empty_degree():
    # degree 1 is empty, so the products through it have no rows
    gap = abelian_dgla({0: 1, 2: 1})
    ident = DGLAMorphism(gap, gap, {0: [[Fraction(1)]], 2: [[Fraction(1)]]})
    assert ident.check_chain_map()
    # d f_0 = 1 on the target, but f_1 d = 0 through the empty source degree
    point = abelian_dgla({0: 1})
    arrow = abelian_dgla({0: 1, 1: 1}, {0: [[Fraction(1)]]})
    assert not DGLAMorphism(point, arrow, {0: [[Fraction(1)]]}).check_chain_map()


def test_morphism_rejects_a_wrongly_shaped_map():
    L = abelian_dgla({0: 1, 1: 2}, {0: [[Fraction(1)], [Fraction(0)]]})
    with pytest.raises(DGLAError, match="map at degree 1 is not 2 x 2"):
        functor_iso_criterion(DGLAMorphism(L, L, {1: [[Fraction(1)]]}))
