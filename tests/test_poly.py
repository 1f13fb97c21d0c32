"""Polynomial arithmetic and monomial orders."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defpair.poly import GREVLEX, LEX, MonomialOrder, PolyError, PolyRing


@pytest.fixture
def Rxy():
    return PolyRing(["x", "y"])


def test_parse_and_str(Rxy):
    p = Rxy.parse("y^2 - x^3")
    x, y = Rxy.gens()
    assert p == y * y - x * x * x
    assert Rxy.parse(str(p)) == p


def test_parse_rationals(Rxy):
    p = Rxy.parse("3/2*x*y - 2")
    assert p.terms[(1, 1)] == Fraction(3, 2)
    assert p.constant_term() == -2
    # the script tokenizer hands polynomials over with spaces between tokens
    assert Rxy.parse("3 / 2 * x * y - 2") == p


def test_parse_errors(Rxy):
    with pytest.raises(PolyError):
        Rxy.parse("x + z")
    with pytest.raises(PolyError):
        Rxy.parse("x +")
    with pytest.raises(PolyError, match="zero denominator"):
        Rxy.parse("1/0*x")


def test_zero_coefficients_dropped(Rxy):
    x, y = Rxy.gens()
    p = x + y - x - y
    assert p.is_zero()
    assert p.terms == {}


def test_lex_order():
    R = PolyRing(["x", "y"], order=LEX)
    x, y = R.gens()
    p = x * x - 1 + x * y
    m, c = p.lead()
    assert m == (2, 0) and c == 1


def test_grevlex_order(Rxy):
    x, y = Rxy.gens()
    # same degree: grevlex prefers x over y
    assert (x + y).lead()[0] == (1, 0)
    assert (y * y + x).lead()[0] == (0, 2)


def test_order_permutation():
    order = MonomialOrder("lex", perm=(1, 0))  # y dominant
    R = PolyRing(["x", "y"], order=order)
    x, y = R.gens()
    assert (x * x + y).lead()[0] == (0, 1)


def test_diff(Rxy):
    p = Rxy.parse("x^3*y + 2*x")
    assert p.diff("x") == Rxy.parse("3*x^2*y + 2")
    assert p.diff("y") == Rxy.parse("x^3")


def test_substitute(Rxy):
    S = PolyRing(["t"])
    t = S.var(0)
    p = Rxy.parse("x^2 + y")
    assert p.substitute(S, [t, t * t]) == S.parse("2*t^2")


def test_weights():
    R = PolyRing(["s", "y"], weights=(1, -1))
    s, y = R.gens()
    assert (s * s * y).weight() == 1
    assert (s + y).weight() is None
    assert R.mono_weight((3, 1)) == 2


coeffs = st.integers(-4, 4).map(Fraction)
exps = st.tuples(st.integers(0, 3), st.integers(0, 3))


@st.composite
def polys(draw):
    R = PolyRing(["x", "y"])
    terms = draw(st.dictionaries(exps, coeffs, max_size=5))
    from defpair.poly import Polynomial
    return Polynomial(R, terms)


@given(polys(), polys(), polys())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(p, q, r):
    assert (p + q) * r == p * r + q * r
    assert p * q == q * p
    assert p + (q + r) == (p + q) + r
    assert p - p == p.ring.zero()


@given(polys(), polys())
@settings(max_examples=40, deadline=None)
def test_lead_is_multiplicative(p, q):
    if p.is_zero() or q.is_zero():
        return
    from defpair.poly import mono_mul
    assert (p * q).lead()[0] == mono_mul(p.lead()[0], q.lead()[0])
