"""Glued schemes, equivariant sheaves and exact Cech cohomology."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defpair.cech import (CechError, GluedScheme, LocallyFreeSheaf,
                          cech_cohomology, cech_weight_complex, det_line,
                          det_of_complex, dual_line, extend_scheme, line_bundle,
                          make_inclusion, pair_sheaf, projective_line,
                          projective_line_three_charts, sheaf_hom,
                          structure_sheaf, tangent_sheaf, tensor_lines,
                          weight_monomials)
from defpair.poly import GREVLEX, PolyRing
from defpair.rings import QuotientRing, make_artin_algebra


@pytest.fixture(scope="module")
def P1():
    return projective_line()


@pytest.fixture(scope="module")
def P1x3():
    return projective_line_three_charts()


# -- weight bookkeeping ---------------------------------------------------------

def test_weight_monomials_chart(P1):
    c0 = P1.charts[0]
    assert weight_monomials(c0, 3) == [(3,)]
    assert weight_monomials(c0, -1) == []
    assert weight_monomials(c0, 0) == [(0,)]


def test_weight_monomials_overlap(P1):
    o = P1.ring((0, 1))
    assert len(weight_monomials(o, 5)) == 1
    assert len(weight_monomials(o, -5)) == 1
    assert weight_monomials(o, 0) == [(0, 0)]


def test_weight_monomials_reject_unweighted():
    R = QuotientRing(PolyRing(("x",)))
    with pytest.raises(CechError):
        weight_monomials(R, 1)


# -- scheme structure -----------------------------------------------------------

def test_transition_maps_are_isomorphisms(P1):
    inc0 = P1.inclusion((0,), (0, 1))
    inc1 = P1.inclusion((1,), (0, 1))
    o = P1.ring((0, 1))
    s = inc0.ring_map(P1.charts[0].var(0))
    t = inc1.ring_map(P1.charts[1].var(0))
    assert o.nf(s * t - 1).is_zero()


def test_derivation_transport(P1):
    # d/dt on the t-chart becomes -s^2 d/ds on the overlap
    inc1 = P1.inclusion((1,), (0, 1))
    hv = inc1.transport_derivation((P1.charts[1].one(),))
    o = P1.ring((0, 1))
    assert hv[0] == o.parse("-s^2")
    assert hv[1] == o.one()  # h(si) = 1, consistent with si = t


def test_three_chart_cocycle(P1x3):
    O = structure_sheaf(P1x3)
    assert O.check_transitions()
    for k in (-2, 1, 3):
        assert line_bundle(P1x3, k).check_transitions()
    assert tangent_sheaf(P1x3).check_transitions()


def test_pair_sheaf_transition_matches_hand_computation(P1):
    # D(O(k)) pair transition column of the anchor generator: (-s^2, k s)
    k = 3
    D = pair_sheaf(line_bundle(P1, k))
    m = D.pair_matrix(0, 1)
    o = P1.ring((0, 1))
    assert m[0][0] == o.parse("-s^2")
    assert m[1][0] == o.parse("3*s")
    assert m[0][1].is_zero() and m[1][1] == o.one()


# -- cohomology tables ------------------------------------------------------------

def test_h_structure_sheaf(P1):
    out = cech_cohomology(P1, structure_sheaf(P1))
    assert out["dims"].get(0, 0) == 1
    assert out["dims"].get(1, 0) == 0


@pytest.mark.parametrize("k", range(-3, 4))
def test_h_line_bundles(P1, k):
    out = cech_cohomology(P1, line_bundle(P1, k))
    assert out["dims"].get(0, 0) == max(k + 1, 0)
    assert out["dims"].get(1, 0) == max(-k - 1, 0)


def test_h_tangent(P1):
    out = cech_cohomology(P1, tangent_sheaf(P1))
    assert out["dims"].get(0, 0) == 3
    assert out["dims"].get(1, 0) == 0


def test_h_pair_sheaf(P1):
    # Cech cohomology of D(O(k)): h^0 = 4, h^1 = 0 (Atiyah extension glues
    # H^0(O) and H^0(Theta) with no H^1)
    for k in (-2, 0, 2):
        out = cech_cohomology(P1, pair_sheaf(line_bundle(P1, k)))
        assert out["dims"].get(0, 0) == 4
        assert out["dims"].get(1, 0) == 0


def test_h_hom_sheaf(P1):
    # Hom(O(k), O(k)) = O
    H = sheaf_hom(line_bundle(P1, 2), line_bundle(P1, 2))
    out = cech_cohomology(P1, H)
    assert out["dims"].get(0, 0) == 1
    assert out["dims"].get(1, 0) == 0


def test_det_and_duals(P1):
    L = line_bundle(P1, 2)
    assert cech_cohomology(P1, dual_line(det_line(L)))["dims"].get(1, 0) == 1
    T = tensor_lines(L, dual_line(L))
    out = cech_cohomology(P1, T)
    assert out["dims"].get(0, 0) == 1 and out["dims"].get(1, 0) == 0


def test_det_of_complex(P1):
    # det of [O(-1) -> O(1)] in degrees -1, 0 is O(1) (x) O(-1)^* = O(2)
    sheaves = {-1: line_bundle(P1, -1), 0: line_bundle(P1, 1)}
    D = det_of_complex(sheaves)
    out = cech_cohomology(P1, D)
    assert out["dims"].get(0, 0) == 3


def test_cover_refinement_invariance(P1, P1x3):
    # the redundant third chart leaves the cohomology table unchanged
    for k in (-2, 0, 1):
        a = cech_cohomology(P1, line_bundle(P1, k))["dims"]
        b = cech_cohomology(P1x3, line_bundle(P1x3, k))["dims"]
        for p in (0, 1, 2):
            assert a.get(p, 0) == b.get(p, 0)


def test_weight_window_certificate(P1):
    out = cech_cohomology(P1, line_bundle(P1, -2))
    # weights outside the window contribute nothing (checked inside), and
    # the single H^1 class sits at weight -1
    assert out["by_weight"][-1].get(1, 0) == 1


def test_unordered_vs_ordered_smallest_case(P1):
    """All-tuples (unnormalised) cochain dimensions agree with the ordered
    complex in low degrees on the smallest example.

    For two charts the unnormalised level p has bases over all (p+1)-tuples;
    H^0 and H^1 of the unnormalised complex are assembled by hand here.
    """
    import itertools
    from fractions import Fraction
    from defpair.dgla import QComplex
    F = structure_sheaf(P1)
    w = 0
    tuples = {p: list(itertools.product(range(2), repeat=p + 1)) for p in range(3)}

    def basis(p):
        out = []
        for tup in tuples[p]:
            for lab in F.section_basis(tuple(sorted(set(tup))), w):
                out.append((tup, lab))
        return out

    bases = {p: basis(p) for p in range(3)}
    maps = {}
    for p in range(2):
        rows, cols = len(bases[p + 1]), len(bases[p])
        m = [[Fraction(0)] * cols for _ in range(rows)]
        tpos = {}
        for t, key in enumerate(bases[p + 1]):
            tpos[key] = t
        for c, (tup, (mono, gen)) in enumerate(bases[p]):
            sub = tuple(sorted(set(tup)))
            ring = P1.ring(sub)
            vec = [ring.zero()] * F.rank
            vec[gen] = ring.ambient.monomial(mono)
            for h in range(p + 2):
                for extra in range(2):
                    sup = tup[:h] + (extra,) + tup[h:]
                    supset = tuple(sorted(set(sup)))
                    restricted = F.restrict_between(sub, supset, vec)
                    sb = F.section_basis(supset, w)
                    coords = F.section_coords(supset, w, restricted, basis=sb)
                    for x, lab2 in zip(coords, sb):
                        if x:
                            m[tpos[(sup, lab2)]][c] += Fraction((-1) ** h) * x
        maps[p] = m
    qc = QComplex({p: len(bases[p]) for p in range(3)}, maps)
    ordered, _ = cech_weight_complex(P1, F, w)
    assert qc.cohomology_dim(0) == ordered.cohomology_dim(0) == 1
    assert qc.cohomology_dim(1) == ordered.cohomology_dim(1) == 0


# -- chart inclusions rename standard monomials ------------------------------------

def _chart_inclusions():
    P1 = projective_line()
    schemes = {"P1": P1, "P1x3": projective_line_three_charts(),
               "P1(x)e3": extend_scheme(P1, make_artin_algebra(["e"], ["e^3"]))}
    return {f"{name} {sorted(a)}->{sorted(b)}": inc
            for name, X in schemes.items() for (a, b), inc in X.inclusions.items()}


CHART_INCLUSIONS = _chart_inclusions()


@pytest.mark.parametrize("name", sorted(CHART_INCLUSIONS))
@given(data=st.data())
@settings(max_examples=15, deadline=None, derandomize=True)
def test_chart_inclusions_take_the_substitution_fast_path(name, data):
    rmap = CHART_INCLUSIONS[name].ring_map
    src, tgt = rmap.source, rmap.target
    monos = st.tuples(*[st.integers(0, 3)] * src.nvars)
    terms = data.draw(st.dictionaries(monos, st.integers(-3, 3), max_size=5))
    p = src.nf(sum((src.ambient.monomial(m, c) for m, c in terms.items()), src.zero()))
    reduced = []
    nf = QuotientRing.nf
    with mock.patch.object(QuotientRing, "nf",
                           lambda ring, q: reduced.append(q) or nf(ring, q)):
        fast = rmap(p)
    assert not reduced
    assert fast == tgt.nf(p.substitute(tgt.ambient, list(rmap.images)))


def test_extended_inclusions_pad_the_base_inclusions(P1x3):
    A = make_artin_algebra(["e"], ["e^2"])
    XE = extend_scheme(P1x3, A)
    assert XE.inclusions.keys() == P1x3.inclusions.keys()
    for key, inc in P1x3.inclusions.items():
        got = XE.inclusions[key]
        src, tgt = got.ring_map.source, got.ring_map.target
        assert src.base is inc.ring_map.source and tgt.base is inc.ring_map.target
        # reference: the base images and transport rows padded into R (x) A,
        # the Artin variables sent to themselves with unit transport rows
        nb_src, nb_tgt = inc.ring_map.source.nvars, inc.ring_map.target.nvars
        images = tuple(tgt.from_base(p) for p in inc.ring_map.images) + \
            tuple(tgt.var(nb_tgt + k) for k in range(src.nvars - nb_src))
        rows = [[tgt.from_base(c) for c in r] + [tgt.zero()] * (src.nvars - len(r))
                for r in inc.der_transport]
        for i in range(nb_tgt, tgt.nvars):
            row = [tgt.zero()] * src.nvars
            row[nb_src + (i - nb_tgt)] = tgt.one()
            rows.append(row)
        assert got.ring_map.images == images
        assert got.der_transport == rows
