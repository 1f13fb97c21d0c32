"""Quotient rings, ring maps, Artin algebras, scalar extension."""

import pytest

from defpair.poly import GREVLEX, LEX, PolyRing
from defpair.rings import (ArtinError, ExtendedRing, Ideal, QuotientRing,
                           RingError, RingMap, extend_ring, make_artin_algebra)


@pytest.fixture
def cusp():
    # coordinate ring of the cuspidal cubic
    amb = PolyRing(["x", "y"])
    return QuotientRing(amb, [amb.parse("y^2 - x^3")])


def test_quotient_normal_form(cusp):
    assert cusp.parse("y^2") == cusp.parse("x^3")
    assert cusp.parse("y^2 - x^3").is_zero()
    p = cusp.parse("y^3 + y")
    assert cusp.nf(p * p) == cusp.mul(p, p)


def test_zero_ring_rejected():
    amb = PolyRing(["x"])
    with pytest.raises(RingError):
        QuotientRing(amb, [amb.parse("x - 1"), amb.parse("x")])


def test_apply_derivation(cusp):
    x, y = cusp.gens()
    # Euler field 2x dx + 3y dy kills y^2 - x^3
    assert cusp.derivation_well_defined([2 * x, 3 * y]) is None
    # d/dx does not descend
    assert cusp.derivation_well_defined([cusp.one(), cusp.zero()]) is not None
    assert cusp.apply_derivation([2 * x, 3 * y], cusp.parse("x*y")) == cusp.parse("5*x*y")


def test_inverse():
    amb = PolyRing(["s", "w"])
    laurent = QuotientRing(amb, [amb.parse("s*w - 1")])
    s, w = laurent.gens()
    assert laurent.inverse(s) == w
    assert laurent.inverse(laurent.parse("s^2")) == laurent.parse("w^2")
    assert laurent.inverse(laurent.zero()) is None
    plain = QuotientRing(PolyRing(["x"]))
    assert plain.inverse(plain.var(0)) is None
    assert plain.inverse(plain.const(3)) == plain.parse("1/3")


def test_ideal_membership(cusp):
    I = cusp.ideal([cusp.parse("x^2"), cusp.parse("y")])
    assert I.contains(cusp.parse("x^2*y + y"))
    assert I.contains(cusp.parse("x^5"))  # x^5 = x^2*x^3 = x^2*y^2
    assert not I.contains(cusp.parse("x"))
    assert I.same_as(cusp.ideal([cusp.parse("y"), cusp.parse("x^2"), cusp.parse("x^2 + y")]))


def test_ring_map(cusp):
    # parametrize the cusp: x -> t^2, y -> t^3
    T = QuotientRing(PolyRing(["t"]))
    t = T.var(0)
    f = RingMap(cusp, T, (t * t, t * t * t)).check()
    assert f(cusp.parse("y^2 - x^3")).is_zero()
    assert f(cusp.parse("x*y")) == T.parse("t^5")
    with pytest.raises(RingError):
        RingMap(cusp, T, (t, t)).check()


def test_artin_dual_numbers():
    A = make_artin_algebra(["e"], ["e^2"])
    assert [sum(m) for m in A.basis] == [0, 1]
    assert A.index == 2
    assert A.dim == 2


def test_artin_e4():
    A = make_artin_algebra(["e"], ["e^4"])
    assert A.dim == 4
    assert A.index == 4


def test_artin_two_variables():
    A = make_artin_algebra(["s", "t"], ["s^2", "s*t", "t^3"])
    names = set()
    for m in A.basis:
        names.add(A.ambient.monomial(m).__str__())
    assert names == {"1", "s", "t", "t^2"}
    assert A.index == 3


def test_artin_rejects_non_artin():
    with pytest.raises(ArtinError):
        make_artin_algebra(["s", "t"], ["s^2"])  # t not nilpotent


def test_artin_rejects_non_local():
    with pytest.raises(ArtinError):
        make_artin_algebra(["t"], ["t^2 - 1"])  # QQ x QQ, not local
    with pytest.raises(ArtinError):
        make_artin_algebra(["t"], ["t^3 + t^4"])  # CRT-splits, not local


def test_extended_ring(cusp):
    A = make_artin_algebra(["e"], ["e^3"])
    E = extend_ring(cusp, A)
    x = E.from_base(cusp.var(0))
    e = E.from_artin(A.var(0))
    p = x + e * x * x
    assert E.reduce_to_base(p) == cusp.var(0)
    assert not E.in_max_ideal(p)
    assert E.in_max_ideal(e * x)
    assert E.nf(e ** 3).is_zero()
    comps = E.artin_components(p)
    assert set(comps) == {(0,), (1,)}
    assert comps[(0,)] == cusp.var(0)
    # the cusp relation still holds upstairs
    y = E.from_base(cusp.var(1))
    assert E.nf(y * y - x ** 3).is_zero()


def test_extended_ring_artin_degree(cusp):
    A = make_artin_algebra(["e"], ["e^2"])
    E = extend_ring(cusp, A)
    e = E.from_artin(A.var(0))
    x = E.from_base(cusp.var(0))
    assert E.artin_degree(e * x + e) == 1
    assert E.artin_degree(x) == 0
    assert E.artin_degree(E.zero()) is None


def test_variable_maps_that_break_standard_monomials_reduce():
    # x -> x, y -> y into QQ[x,y]/(x*y - 1): x*y is standard in the source but
    # not in the target, so the map must substitute and reduce
    amb = PolyRing(["x", "y"])
    plain = QuotientRing(amb)
    laurent = QuotientRing(amb, [amb.parse("x*y - 1")])
    f = RingMap(plain, laurent, laurent.gens()).check()
    assert f(plain.parse("x^2*y")) == laurent.parse("x")
    assert f(plain.parse("x*y + y")) == laurent.parse("1 + y")
    # two variables onto one: images of distinct monomials collide
    T = QuotientRing(PolyRing(["t"]))
    g = RingMap(plain, T, (T.var(0), T.var(0))).check()
    assert g(plain.parse("x - y")).is_zero()
    assert g(plain.parse("x*y + x")) == T.parse("t^2 + t")


def test_check_evaluates_relations_by_substitution():
    # relations are not normal forms: the identity of QQ[s,si]/(s*si - 1)
    # renames standard monomials, yet its relation must still reduce to 0
    amb = PolyRing(["s", "si"])
    laurent = QuotientRing(amb, [amb.parse("s*si - 1")])
    ident = RingMap(laurent, laurent, laurent.gens()).check()
    assert ident(laurent.parse("s^3 + 2*si")) == laurent.parse("s^3 + 2*si")
    plain = QuotientRing(amb)
    with pytest.raises(RingError, match="does not kill the relation s\\*si - 1"):
        RingMap(laurent, plain, plain.gens()).check()
