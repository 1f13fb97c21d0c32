"""Cech-level deformation cocycles, tangent spaces and traces."""

from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defpair import cech, matrices
from defpair.cech import (CechError, LocallyFreeSheaf, line_bundle, pair_sheaf,
                          projective_line,
                          projective_line_three_charts, sheaf_hom,
                          structure_sheaf, tangent_sheaf, det_of_complex)
from defpair.cocycles import (DeformationSpace, SheafComplex,
                              build_semicosimplicial, cech_trace,
                              first_order_class_dims,
                              locally_trivial_cocycle_check,
                              pair_tangent_spaces, resolution_complex,
                              section_to_pair, solve_first_order_witness,
                              traced_cocycle_as_pairs, z1sc_check,
                              h1sc_equiv_check)
from defpair.mc import bch
from defpair.pairs import exp_pair
from defpair.rings import make_artin_algebra


@pytest.fixture(scope="module")
def P1():
    return projective_line()


@pytest.fixture(scope="module")
def P1x3():
    return projective_line_three_charts()


@pytest.fixture(scope="module")
def eps2():
    return make_artin_algebra(["e"], ["e^2"])


# -- semicosimplicial structure ---------------------------------------------------

def test_build_semicosimplicial(P1):
    sc = build_semicosimplicial(P1, structure_sheaf(P1))
    # level-0 rings are the chart rings, level-1 contains the overlap
    assert sc.level_ring((0,)) is P1.charts[0]
    assert sc.level_ring((0, 1)) is P1.ring((0, 1))
    assert sc.level_ring((1, 0)) is P1.ring((0, 1))


def test_simplicial_identities_three_charts(P1x3):
    for F in (structure_sheaf(P1x3), line_bundle(P1x3, 2), tangent_sheaf(P1x3)):
        assert build_semicosimplicial(P1x3, F).check_simplicial_identities()


def test_empty_cover_rejected():
    from defpair.cech import GluedScheme
    from defpair.cocycles import build_semicosimplicial, CechError
    X = GluedScheme([], {}, {})
    with pytest.raises(Exception):
        build_semicosimplicial(X, structure_sheaf(X))


# -- sheaf complexes ---------------------------------------------------------------

def test_resolution_complex(P1):
    SC = resolution_complex(P1, line_bundle(P1, 2))
    assert SC.degrees == [0]
    cx = SC.chart_free_complex((0,))
    assert cx.ranks == {0: 1}


def test_two_term_complex_glues(P1):
    # [O(-1) -> O(1)] with the global differential s^2 on chart 0 / -t^2
    # style matching is enforced; a zero differential always glues
    sheaves = {-1: line_bundle(P1, -1), 0: line_bundle(P1, 1)}
    SC = SheafComplex(P1, sheaves)
    assert SC.chart_free_complex((0, 1)).ranks == {-1: 1, 0: 1}


# -- z1sc and equivalences -----------------------------------------------------------

def zero_cocycle(space, X):
    l = {i: space.context((i,)).zero(1) for i in range(X.nchart)}
    m = {}
    for S in X.subsets(2):
        i, j = sorted(S)
        m[(i, j)] = space.pair_complex((i, j)).zero_pair()
    return l, m


def test_z1sc_zero_passes(P1, eps2):
    SC = resolution_complex(P1, line_bundle(P1, -2))
    space = DeformationSpace(SC, eps2)
    l, m = zero_cocycle(space, P1)
    rep = z1sc_check(space, l, m)
    assert rep["passed"]


def coboundary_cocycle(space, X, scale):
    """m_ij = a_i| - a_j| for chart pairs a_i = (eps * s d/ds, scale[i] * eps)."""
    a = {}
    for i in range(3):
        ring = space.XE.ring((i,))
        eps = ring.from_artin(space.A.var(0))
        hv = [ring.nf(eps * ring.var(0))] + [ring.zero()] * (ring.nvars - 1)
        a[i] = space.pair_complex((i,)).pair_chain(
            tuple(hv), {0: [[ring.nf(scale[i] * eps)]]})
    m = {}
    for S in X.subsets(2):
        i, j = sorted(S)
        D = space.pair_complex((i, j))
        ai = space.restrict_chain((i,), (i, j), a[i])
        aj = space.restrict_chain((j,), (i, j), a[j])
        m[(i, j)] = D.add_pairs(ai, D.neg_pair(aj))
    return m


def break_01(space, m):
    """m with eps * id added to its (0, 1) component."""
    D01 = space.pair_complex((0, 1))
    ring01 = space.XE.ring((0, 1))
    eps01 = ring01.from_artin(space.A.var(0))
    bad = dict(m)
    bad[(0, 1)] = D01.add_pairs(m[(0, 1)],
                                D01.pair_chain(tuple([ring01.zero()] * ring01.nvars),
                                               {0: [[eps01]]}))
    return bad


def test_z1sc_first_order_is_additive_cocycle(P1x3, eps2):
    # with l = 0, the triple condition linearises to the additive identity
    # m_jk - m_ik + m_ij = 0; a coboundary m_ij = a_i| - a_j| satisfies it
    space = DeformationSpace(resolution_complex(P1x3, line_bundle(P1x3, 1)), eps2)
    l = {i: space.context((i,)).zero(1) for i in range(3)}
    m = coboundary_cocycle(space, P1x3, (1, 1, 1))
    rep = z1sc_check(space, l, m)
    assert rep["passed"]
    # corrupt one component: the triple condition must fail
    rep_bad = z1sc_check(space, l, break_01(space, m))
    assert not rep_bad["passed"]
    assert not all(rep_bad["triple"].values())


def test_h1sc_self_equivalent(P1, eps2):
    SC = resolution_complex(P1, line_bundle(P1, -1))
    space = DeformationSpace(SC, eps2)
    l, m = zero_cocycle(space, P1)
    a = {i: space.pair_complex((i,)).zero_pair() for i in range(2)}
    b = {}
    rep = h1sc_equiv_check(space, (l, m), (l, m), a, b)
    assert rep["passed"]


def test_h1sc_abelian_coboundary(P1, eps2):
    # degree-0 abelian specialisation: m1 - m0 = a_i| - a_j|
    SC = resolution_complex(P1, line_bundle(P1, 0))
    space = DeformationSpace(SC, eps2)
    l, m0 = zero_cocycle(space, P1)
    XE = space.XE
    a = {}
    for i in range(2):
        ring = XE.ring((i,))
        eps = ring.from_artin(eps2.var(0))
        a[i] = space.pair_complex((i,)).pair_chain(
            tuple([ring.zero()] * ring.nvars), {0: [[eps]]})
    D01 = space.pair_complex((0, 1))
    ai = space.restrict_chain((0,), (0, 1), a[0])
    aj = space.restrict_chain((1,), (0, 1), a[1])
    m1 = {(0, 1): D01.add_pairs(ai, D01.neg_pair(aj))}
    rep = h1sc_equiv_check(space, (l, m0), (l, m1), a, {})
    assert rep["passed"]


# -- locally trivial cocycles ---------------------------------------------------------

def test_trivial_cocycle(P1, eps2):
    space = DeformationSpace(resolution_complex(P1, line_bundle(P1, 2)), eps2)
    x = {(0, 1): space.pair_complex((0, 1)).zero_pair()}
    rep = locally_trivial_cocycle_check(space, x)
    assert rep["passed"]
    auto = rep["transitions"][(0, 1)][0]
    assert auto.is_identity()


def test_cocycle_three_charts_coboundary(P1x3, eps2):
    # x_ij = a_i| - a_j| passes the genuine triple condition
    space = DeformationSpace(resolution_complex(P1x3, line_bundle(P1x3, 1)), eps2)
    x = coboundary_cocycle(space, P1x3, (1, 2, 1))
    rep = locally_trivial_cocycle_check(space, x)
    assert rep["passed"]
    # breaking one component breaks a triple
    rep_bad = locally_trivial_cocycle_check(space, break_01(space, x))
    assert not rep_bad["passed"]
    assert rep_bad["witness"] == (0, 1, 2)


def test_first_order_witness_solving(P1, eps2):
    # every first-order cocycle for (P1, O(k)) is a coboundary: solve and
    # verify by the exact exponential equivalence
    for k in (-2, 0, 1):
        F = line_bundle(P1, k)
        space = DeformationSpace(resolution_complex(P1, F), eps2)
        dims = first_order_class_dims(P1, F)
        assert dims.get(1, 0) == 0
        ring = space.XE.ring((0, 1))
        Dsheaf = pair_sheaf(F)
        eps = ring.from_artin(eps2.var(0))
        # sample cocycle: a weight-0 and a weight-(-1) section of D(O(k))
        coords = {}
        for w in (0, -1, 2):
            basis = Dsheaf.section_basis((0, 1), w)
            coords[w] = [Fraction(1) if t == 0 else Fraction(0)
                         for t in range(len(basis))]
        x01 = section_to_pair(space, (0, 1), coords, eps)
        x = {(0, 1): x01}
        witness = solve_first_order_witness(space, x)
        assert witness is not None
        # exact verification: exp(-a_i) exp(x_ij) exp(a_j) == identity
        D01 = space.pair_complex((0, 1))
        ai = D01.degree_pair(space.restrict_chain((0,), (0, 1), witness[0]), 0)
        aj = D01.degree_pair(space.restrict_chain((1,), (0, 1), witness[1]), 0)
        composed = exp_pair(ai.neg()).compose(
            exp_pair(D01.degree_pair(x01, 0))).compose(exp_pair(aj))
        assert composed.is_identity()


def test_sheaf_cocycle_helpers_refuse_a_complex(P1, eps2):
    # section_to_pair and the first-order solver read one sheaf in degree 0
    sheaves = {-1: line_bundle(P1, -1), 0: line_bundle(P1, 1)}
    space = DeformationSpace(SheafComplex(P1, sheaves), eps2)
    ring = space.XE.ring((0, 1))
    eps = ring.from_artin(eps2.var(0))
    with pytest.raises(CechError, match="one locally free sheaf"):
        section_to_pair(space, (0, 1), {}, eps)
    with pytest.raises(CechError, match="one locally free sheaf"):
        solve_first_order_witness(space, {(0, 1): space.pair_complex((0, 1)).zero_pair()})
    with pytest.raises(CechError, match="one locally free sheaf"):
        traced_cocycle_as_pairs({}, space)


SCHEMES = {"P1": projective_line(), "P1x3": projective_line_three_charts()}


@lru_cache(maxsize=None)
def sheaf_space(scheme, k, order):
    """The cocycle space of (X, O(k)) over QQ[e]/(e^order)."""
    X = SCHEMES[scheme]
    A = make_artin_algebra(["e"], [f"e^{order}"])
    return DeformationSpace(resolution_complex(X, line_bundle(X, k)), A)


def draw_eps_poly(data, ring, order, min_size=0):
    """A small polynomial in the first base variable and e, divisible by e;
    nonzero when min_size > 0."""
    nb = ring.base.nvars
    monos = st.tuples(st.integers(0, 1), st.integers(1, order - 1))
    terms = data.draw(st.dictionaries(monos, st.sampled_from([-2, -1, 1, 2]),
                                      min_size=min_size, max_size=2))
    return ring.nf(sum((ring.ambient.monomial((a,) + (0,) * (nb - 1) + (b,), c)
                        for (a, b), c in terms.items()), ring.zero()))


def reference_triple_check(space, m):
    """(passed, first failing triple) by the product exp(m_jk) exp(-m_ik)
    exp(m_ij) of `exp_pair` on degree_pair(., 0), over the proper triples
    and then those with a repeated index, each with a ring; m_ab is m[(a, b)]
    when stored, else minus m[(b, a)], and m_aa = 0."""
    X = space.base.X
    every = sorted(product(range(X.nchart), repeat=3))
    triples = [t for t in every if t[0] < t[1] < t[2]] + [t for t in every if len(set(t)) < 3]
    for t in triples:
        if frozenset(t) not in X.rings:
            continue
        i, j, k = t
        key = tuple(sorted(set(t)))
        D = space.pair_complex(key)
        auto = None
        for (a, b), sign in (((j, k), 1), ((i, k), -1), ((i, j), 1)):
            if a == b:
                continue
            if (a, b) not in m:
                (a, b), sign = (b, a), -sign
            p = D.degree_pair(space.restrict_chain((a, b), key, m[(a, b)]), 0)
            e = exp_pair(p if sign > 0 else p.neg())
            auto = e if auto is None else auto.compose(e)
        if auto is not None and not auto.is_identity():
            return False, t
    return True, None


@pytest.mark.parametrize("perturb", ["none", "add", "reverse"])
@given(data=st.data())
@settings(max_examples=3, deadline=None, derandomize=True)
def test_locally_trivial_check_agrees_with_exp_product(perturb, data):
    # coboundary data m_ij = log(exp a_i exp -a_j) passes; a perturbed
    # component, or a reversed entry that is not minus the stored one,
    # fails at the first triple where the exponential product is not 1
    scheme = data.draw(st.sampled_from(sorted(SCHEMES)))
    order = data.draw(st.sampled_from([2, 3]))
    space = sheaf_space(scheme, data.draw(st.integers(-2, 2)), order)
    X = space.base.X
    a = {}
    for i in range(X.nchart):
        ring = space.ring((i,))
        h = (draw_eps_poly(data, ring, order),) + (ring.zero(),) * (ring.nvars - 1)
        a[i] = space.pair_complex((i,)).pair_chain(h, {0: [[draw_eps_poly(data, ring, order)]]})
    m = {}
    for S in X.subsets(2):
        i, j = sorted(S)
        D = space.pair_complex((i, j))
        m[(i, j)] = bch(space.context((i, j)), space.restrict_chain((i,), (i, j), a[i]),
                        D.neg_pair(space.restrict_chain((j,), (i, j), a[j])))
    if perturb != "none":
        i, j = data.draw(st.sampled_from(sorted(m)))
        D, ring = space.pair_complex((i, j)), space.ring((i, j))
        extra = D.pair_chain(D.zero_pair().h_values, {0: [[draw_eps_poly(data, ring, order, 1)]]})
        if perturb == "add":
            m[(i, j)] = D.add_pairs(m[(i, j)], extra)
        else:
            m[(j, i)] = D.add_pairs(D.neg_pair(m[(i, j)]), extra)
    rep = locally_trivial_cocycle_check(space, m)
    passed, witness = reference_triple_check(space, m)
    assert rep["passed"] == passed
    assert rep.get("witness") == witness


# -- tangent spaces --------------------------------------------------------------------

@pytest.mark.parametrize("k", range(-3, 4))
def test_pair_tangent_spaces_line_bundles(P1, k):
    out = pair_tangent_spaces(P1, line_bundle(P1, k))
    assert out["T"].get(0, 0) == 4
    assert out["T"].get(1, 0) == 0
    assert out["T"].get(2, 0) == 0
    assert out["ext"].get(0, 0) == 1
    assert out["theta"].get(0, 0) == 3
    assert out["les_exact"]


def test_pair_tangent_spaces_structure_sheaf(P1):
    out = pair_tangent_spaces(P1, structure_sheaf(P1))
    # D(X, O) contains the identity section: T^0 = h^0(O) + h^0(Theta)
    assert out["T"].get(0, 0) == 4
    assert out["les_exact"]


# -- traces -------------------------------------------------------------------------

def test_cech_trace_rank_one_identity(P1, eps2):
    # for a line bundle the trace of a cocycle is the cocycle itself
    F = line_bundle(P1, 2)
    SC = resolution_complex(P1, F)
    space = DeformationSpace(SC, eps2)
    XE = space.XE
    ring = XE.ring((0, 1))
    eps = ring.from_artin(eps2.var(0))
    D01 = space.pair_complex((0, 1))
    s, si = ring.var(0), ring.var(1)
    # h = eps s^2 d/ds on the Laurent overlap: h(si) = -si^2 h(s) = -eps
    hv = [ring.nf(eps * s * s), ring.nf(-eps), ring.zero()]
    m = {(0, 1): D01.pair_chain(tuple(hv), {0: [[eps]]})}
    traced = cech_trace(space, m)
    p = traced[(0, 1)]
    assert p.h_values == m[(0, 1)].h_values
    assert p.u_values[0][0] == eps


def test_cech_trace_two_term_alternating(P1, eps2):
    # two-term complex: traced u = tr u_0 - tr u_{-1}, anchor preserved
    sheaves = {-1: line_bundle(P1, -1), 0: line_bundle(P1, 1)}
    SC = SheafComplex(P1, sheaves)
    space = DeformationSpace(SC, eps2)
    ring = space.XE.ring((0, 1))
    eps = ring.from_artin(eps2.var(0))
    D01 = space.pair_complex((0, 1))
    s, si = ring.var(0), ring.var(1)
    # h = eps s d/ds: h(si) = -eps si
    hv = (ring.nf(eps * s), ring.nf(-eps * si), ring.zero())
    m = {(0, 1): D01.pair_chain(hv, {-1: [[eps]],
                                     0: [[ring.nf(3 * eps)]]})}
    traced = cech_trace(space, m)
    p = traced[(0, 1)]
    assert p.h_values == hv
    assert p.u_values[0][0] == ring.nf(3 * eps - eps)
    # the traced cocycle passes the determinant-level cocycle check
    det_space = DeformationSpace(resolution_complex(P1, det_of_complex(sheaves)), eps2)
    x = traced_cocycle_as_pairs(traced, det_space)
    rep = locally_trivial_cocycle_check(det_space, x)
    assert rep["passed"]


# -- transitions --------------------------------------------------------------------

def test_non_unit_transition_is_refused(P1, eps2):
    ring = P1.ring((0, 1))
    F = LocallyFreeSheaf(P1, 1, {0: (0,), 1: (0,)}, {(0, 1): [[ring.parse("s + 1")]]})
    space = DeformationSpace(resolution_complex(P1, F), eps2)
    p = space.pair_complex((1,)).zero_pair()
    with pytest.raises(CechError, match="not invertible"):
        space.restrict_chain((1,), (0, 1), p)


def test_each_stored_transition_is_inverted_once(P1x3, eps2, monkeypatch):
    sheaves = {-1: line_bundle(P1x3, -1), 0: line_bundle(P1x3, 1)}
    space = DeformationSpace(SheafComplex(P1x3, sheaves), eps2)
    l, m = zero_cocycle(space, P1x3)
    calls = {}
    inverse = matrices.mat_inverse

    def counted(ring, a):
        calls[id(a)] = calls.get(id(a), 0) + 1
        return inverse(ring, a)

    monkeypatch.setattr(matrices, "mat_inverse", counted)
    assert z1sc_check(space, l, m)["passed"]
    stored = {id(F.pair_matrix(i, j)) for F in sheaves.values()
              for i, j in ((0, 1), (0, 2), (1, 2))}
    assert calls and set(calls) <= stored
    assert max(calls.values()) == 1


def test_triple_check_moves_only_to_larger_overlaps(P1x3, eps2, monkeypatch):
    # of the triples on three charts only (0, 1, 2) lives on a larger overlap
    # than its components; degenerate triples use them as they are
    space = DeformationSpace(resolution_complex(P1x3, line_bundle(P1x3, 1)), eps2)
    _, m = zero_cocycle(space, P1x3)
    moves = []
    restrict = DeformationSpace.restrict_chain

    def counted(self, sub, sup, chain):
        moves.append((sub, sup))
        return restrict(self, sub, sup, chain)

    monkeypatch.setattr(DeformationSpace, "restrict_chain", counted)
    assert locally_trivial_cocycle_check(space, m)["passed"]
    assert sorted(moves) == [((0, 1), (0, 1, 2)), ((0, 2), (0, 1, 2)),
                             ((1, 2), (0, 1, 2))]


@pytest.mark.parametrize("scheme", ["P1", "P1x3"])
def test_cech_objects_are_built_once(scheme, request, monkeypatch):
    X = request.getfixturevalue(scheme)
    built, mapped = {}, {}
    build = cech.cech_weight_complex
    map_matrix = cech.ChartInclusion.map_matrix

    def counted_build(Y, F, w):
        built[(F, w)] = built.get((F, w), 0) + 1
        return build(Y, F, w)

    def counted_map(inc, m):
        # stored matrices and chart inclusions live as long as their sheaf
        # and scheme, so the pair identifies one frame change of one sheaf
        mapped[(id(inc), id(m))] = mapped.get((id(inc), id(m)), 0) + 1
        return map_matrix(inc, m)

    monkeypatch.setattr(cech, "cech_weight_complex", counted_build)
    monkeypatch.setattr(cech.ChartInclusion, "map_matrix", counted_map)
    out = pair_tangent_spaces(X, line_bundle(X, 2))
    dims = {p: 0 for p in range(X.nchart)}
    assert out == {"T": {**dims, 0: 4}, "ext": {**dims, 0: 1},
                   "theta": {**dims, 0: 3}, "les_exact": True}
    assert built and max(built.values()) == 1
    assert mapped and max(mapped.values()) == 1
