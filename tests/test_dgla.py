"""Hom complexes, pair complexes, axioms, traces, pro-representability."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defpair import linalg
from defpair.dgla import (SplitSequenceData, DGLAError, GradedMap, QComplex,
                          TableDGLA, abelian_dgla, check_dgla_axioms,
                          complex_cohomology, split_sequence_pairs,
                          hom_complex_dgla, pair_complex_dgla,
                          pro_representability_check, trace_morphism)
from defpair.modules import FPModule, FreeComplex, ModuleMap, free_resolution
from defpair.pairs import check_derivation_pair, derivation_pair_module
from defpair.poly import PolyRing
from defpair.rings import QuotientRing


def QQr(*names):
    return QuotientRing(PolyRing(names))


@pytest.fixture
def Rx():
    return QQr("x")


@pytest.fixture
def E2(Rx):
    # R --x^2--> R in degrees -1, 0
    x = Rx.var(0)
    return FreeComplex.two_term(Rx, [[x * x]], lo=-1)


# -- QQ complexes -------------------------------------------------------------

def test_qcomplex_zero():
    assert complex_cohomology({}, {}) == {}
    out = complex_cohomology({0: 1, 1: 1}, {0: [[Fraction(1)]]})
    assert out[0][0] == 0 and out[1][0] == 0


def test_qcomplex_reps():
    # 0 -> Q^2 --[1 0]--> Q -> 0 : H^0 = 1, H^1 = 0
    out = complex_cohomology({0: 2, 1: 1}, {0: [[Fraction(1), Fraction(0)]]})
    assert out[0][0] == 1
    assert out[0][1] == [[Fraction(0), Fraction(1)]]


def test_qcomplex_rejects_bad_differential():
    with pytest.raises(DGLAError):
        QComplex({0: 1, 1: 1, 2: 1}, {0: [[Fraction(1)]], 1: [[Fraction(1)]]})


def test_table_dgla_builds_its_qcomplex_once():
    L = abelian_dgla({0: 1, 1: 2, 2: 1}, {0: [[Fraction(1)], [Fraction(0)]]})
    assert L.qcomplex() is L.qcomplex()


def greedy_cohomology_basis(qc, k):
    """Reference: keep each kernel vector that leaves the span of the
    boundaries and the vectors kept so far, one rank test per vector."""
    dk = qc.dims.get(k, 0)
    if not dk:
        return []
    if qc.dims.get(k + 1, 0):
        kernel = linalg.nullspace(qc.matrix(k))
    else:
        kernel = [list(r) for r in linalg.identity(dk)]
    current = linalg.rref(qc._boundary_rows(k))[0]
    reps = []
    for v in kernel:
        if linalg.rank(current) != linalg.rank(current + [v]):
            reps.append(v)
            current = current + [v]
    return reps


@st.composite
def qcomplexes(draw):
    """C^-1 -> C^0 -> C^1 -> C^2 with random low-rank differentials; each
    map is a random matrix times a basis of the left kernel of the map
    before it, so d o d = 0."""
    dims = {k: draw(st.integers(0, 3)) for k in (-1, 0, 1, 2)}
    maps, prev = {}, None
    for k in (-1, 0, 1):
        rows, cols = dims[k + 1], dims[k]
        if not rows or not cols:
            prev = None
            continue
        if prev is None:
            allowed = linalg.identity(cols)
        else:
            allowed = linalg.nullspace([list(c) for c in zip(*prev)])
        if not allowed:
            prev = None
            continue
        coeffs = draw(st.lists(st.lists(st.integers(-1, 1), min_size=len(allowed),
                                         max_size=len(allowed)),
                               min_size=rows, max_size=rows))
        maps[k] = prev = linalg.mat_mul(coeffs, allowed)
    return QComplex(dims, maps)


@given(qcomplexes())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_cohomology_basis_matches_greedy_selection(qc):
    for k in (-1, 0, 1, 2):
        reps = qc.cohomology_basis(k)
        assert reps == greedy_cohomology_basis(qc, k)
        assert len(reps) == qc.cohomology_dim(k)


# -- hom complex ---------------------------------------------------------------

def test_component_ranks(E2):
    H = hom_complex_dgla(E2)
    assert H.component_rank(-1) == 1
    assert H.component_rank(0) == 2
    assert H.component_rank(1) == 1


def test_single_degree_complex(Rx):
    cx = FreeComplex.single(Rx, 3)
    H = hom_complex_dgla(cx)
    assert H.component_rank(0) == 9
    assert H.component_rank(1) == 0


def test_zero_complex(Rx):
    cx = FreeComplex(Rx, {}, {})
    H = hom_complex_dgla(cx)
    assert H.component_rank(0) == 0


def test_delta_squared_zero(E2):
    H = hom_complex_dgla(E2)
    for p in (-1, 0):
        for f in H.basis_maps(p):
            assert H.is_zero(H.d(H.d(f)))


def test_bracket_identities_random(E2):
    H = hom_complex_dgla(E2)
    rng = random.Random(41)
    ring = E2.ring
    x = ring.var(0)

    def rand_map(p):
        f = H.zero(p)
        for g in H.basis_maps(p):
            c = ring.nf(ring.const(rng.randint(-2, 2)) * x ** rng.randint(0, 1))
            f = H.add(f, H.scale(c, g))
        return f

    for _ in range(20):
        i, j = rng.choice([-1, 0, 1]), rng.choice([-1, 0, 1])
        f, g = rand_map(i), rand_map(j)
        # graded skew-symmetry
        lhs = H.bracket(f, g)
        rhs = H.scale(ring.const(-((-1) ** (i * j))), H.bracket(g, f))
        assert H.eq(lhs, rhs)
        # Leibniz
        left = H.d(H.bracket(f, g))
        right = H.add(H.bracket(H.d(f), g),
                      H.scale(ring.const((-1) ** i), H.bracket(f, H.d(g))))
        assert H.eq(left, right)


def test_trace_kills_brackets_and_delta(E2):
    H = hom_complex_dgla(E2)
    rng = random.Random(7)
    ring = E2.ring
    x = ring.var(0)

    def rand_map(p):
        f = H.zero(p)
        for g in H.basis_maps(p):
            c = ring.nf(ring.const(rng.randint(-2, 2)) * x ** rng.randint(0, 2))
            f = H.add(f, H.scale(c, g))
        return f

    for _ in range(30):
        p = rng.choice([-1, 0, 1])
        f, g = rand_map(p), rand_map(-p)
        assert H.trace(H.bracket(f, g)).is_zero()
        assert H.trace(H.d(rand_map(-1))).is_zero()


def test_alternating_trace_identity(E2):
    H = hom_complex_dgla(E2)
    ident = H.from_blocks(0, {-1: [[E2.ring.one()]], 0: [[E2.ring.one()]]})
    # (-1)^0*1 + (-1)^(-1)*1 = 0
    assert H.trace(ident).is_zero()


# -- table DGLAs and axioms ----------------------------------------------------

def test_axioms_abelian():
    L = abelian_dgla({0: 2, 1: 3}, {0: [[Fraction(1), Fraction(0)],
                                        [Fraction(0), Fraction(0)],
                                        [Fraction(0), Fraction(0)]]})
    assert check_dgla_axioms(L)["passed"]


def test_axioms_corrupted_bracket():
    # [e0, e0] = e0 in degree 0 breaks skewsymmetry/square axiom
    L = TableDGLA({0: 1}, bracket={(0, 0): {(0, 0): [Fraction(1)]}})
    rep = check_dgla_axioms(L)
    assert not rep["passed"]
    assert rep["failures"]


def test_axioms_hom_complex_construction(E2):
    # brackets of a hom complex satisfy all identities by construction;
    # sample via the finite table on a nilpotent toy instead
    L = TableDGLA({0: 2}, bracket={(0, 0): {
        (0, 1): [Fraction(0), Fraction(1)],
        (1, 0): [Fraction(0), Fraction(-1)],
    }})
    # [e0,e1] = e1, [e1,e0] = -e1: solvable 2-dim Lie algebra, no differential
    assert check_dgla_axioms(L)["passed"]


# -- pro-representability --------------------------------------------------------

def test_prorep_abelian_satisfied():
    L = abelian_dgla({0: 2, 1: 1})
    rep = pro_representability_check(L)
    assert rep["satisfied"]


def test_prorep_counterexample():
    # L^0 = <x>, L^1 = <y>, [x, y] = y: H^0 = <x> but N^0 = 0
    L = TableDGLA({0: 1, 1: 1}, bracket={(0, 1): {(0, 0): [Fraction(1)]}})
    rep = pro_representability_check(L)
    assert not rep["satisfied"]
    assert rep["H0_dim"] == 1 and rep["N0_dim"] == 0


def test_prorep_zero_l0():
    L = abelian_dgla({1: 2})
    assert pro_representability_check(L)["satisfied"]


# -- pair complex ----------------------------------------------------------------

def test_pair_complex_single_degree(Rx):
    cx = FreeComplex.single(Rx, 1)
    D = pair_complex_dgla(Rx, cx)
    lift = D.anchor_lift((Rx.one(),))
    assert lift.h_values == (Rx.one(),)
    p = D.degree_pair(lift, 0)
    assert p.apply_u((Rx.var(0),)) == (Rx.one(),)


def test_anchor_surjectivity_witness(E2, Rx):
    D = pair_complex_dgla(Rx, E2)
    lift = D.anchor_lift((Rx.one(),))
    # (h, 0) is a valid element of D^0 (no chain condition required)
    for j in (-1, 0):
        D.degree_pair(lift, j)


def test_z0_matches_pairs_on_module(Rx, E2):
    x = Rx.var(0)
    M = FPModule.cokernel(Rx, [[x * x]])
    cx, aug = free_resolution(M)
    D = pair_complex_dgla(Rx, cx)
    z0 = D.z0_generators()
    assert z0
    # the chain condition holds exactly for each generator
    for chain in z0:
        assert D.hom.is_zero(D.d_pair(chain))
    # pushing to M surjects onto the generators of D(R, M)
    DM = derivation_pair_module(Rx, M)
    pushed = [D.induced_pair_on_cokernel(c, aug) for c in z0]
    for g in DM.generators:
        # g is an R-combination of pushed generators: check via the span
        from defpair.pairs import PairModule
        span = PairModule(Rx, M, pushed, [], [])
        assert span.contains(g) is not None
    # coboundaries push to zero on M
    for b in D.coboundaries_into_degree0():
        assert D.induced_pair_on_cokernel(b, aug).is_zero()


def test_h0_kernel_equals_coboundaries(Rx):
    x = Rx.var(0)
    M = FPModule.cokernel(Rx, [[x * x]])
    cx, aug = free_resolution(M)
    D = pair_complex_dgla(Rx, cx)
    z0 = D.z0_generators()
    from defpair.pairs import PairModule
    bound = D.coboundaries_into_degree0()
    bound_pairs = [D.induced_pair_on_cokernel(b, aug) for b in bound]
    assert all(b.is_zero() for b in bound_pairs)
    # any z0 generator pushing to zero on M lies in the span of the
    # coboundaries: check by solving in the flattened value space
    amb = Rx.ambient

    def flat(chain):
        v = list(chain.h_values)
        for j in sorted(dict(chain.blocks)):
            m = chain.block(j)
            for row in m:
                v.extend(row)
        return tuple(v)

    cols = [flat(b) for b in bound]
    from defpair.groebner import solve_in_image
    for chain in z0:
        if D.induced_pair_on_cokernel(chain, aug).is_zero():
            assert solve_in_image(amb, cols, flat(chain), ideal_gens=Rx.gb) is not None


# -- trace data -------------------------------------------------------------------

def test_trace_diagram(E2, Rx):
    T = trace_morphism(Rx, E2)
    rep = T.diagram_checks()
    assert rep["passed"]


def test_pair_trace_alternating_formula(Rx):
    # complex with ranks 1,1: trace of (h, u_{-1}, u_0) is
    # (h, tr u_0 - tr u_{-1}) on the determinant line
    x = Rx.var(0)
    E = FreeComplex.two_term(Rx, [[x * x]], lo=-1)
    D = pair_complex_dgla(Rx, E)
    chain = D.pair_chain((x,), {-1: [[x]], 0: [[x * x * x]]})
    traced = trace_morphism(Rx, E).pair_trace(chain)
    assert traced.h_values == (x,)
    assert traced.u_values[0][0] == Rx.nf(x ** 3 - x)


def test_trace_anchor_preserved(Rx, E2):
    x = Rx.var(0)
    D = pair_complex_dgla(Rx, E2)
    T = trace_morphism(Rx, E2)
    chain = D.pair_chain((x,), {-1: [[Rx.zero()]], 0: [[x]]})
    assert T.anchor_preserved(chain)


# -- split-sequence pair bookkeeping ------------------------------------------------------------

def test_split_sequence_maps(Rx):
    # 0 -> R --(1,0)--> R^2 --(0,1)--> R -> 0
    K = FPModule.free(Rx, 1)
    P = FPModule.free(Rx, 2)
    M = FPModule.free(Rx, 1)
    alpha = ModuleMap(K, P, [[Rx.one()], [Rx.zero()]])
    beta = ModuleMap(P, M, [[Rx.zero(), Rx.one()]])
    data = split_sequence_pairs(alpha, beta)
    assert data.reports["p_surjective"]
    assert data.reports["L_to_DM_surjective"]
    assert data.L_generators


def test_split_sequence_rejects_non_exact(Rx):
    K = FPModule.free(Rx, 1)
    P = FPModule.free(Rx, 2)
    M = FPModule.free(Rx, 1)
    x = Rx.var(0)
    alpha = ModuleMap(K, P, [[Rx.one()], [Rx.zero()]])
    bad_beta = ModuleMap(P, M, [[Rx.zero(), x]])  # not surjective
    with pytest.raises(DGLAError):
        split_sequence_pairs(alpha, bad_beta)


def test_split_sequence_k_zero(Rx):
    K = FPModule.free(Rx, 0)
    P = FPModule.free(Rx, 1)
    M = FPModule.free(Rx, 1)
    alpha = ModuleMap(K, P, [[]])
    beta = ModuleMap(P, M, [[Rx.one()]])
    data = split_sequence_pairs(alpha, beta)
    # p maps into Hom(0, M) = 0: every D(R, P) generator is in L
    assert data.L_generators and len(data.L_generators) == len(data.p_images)
