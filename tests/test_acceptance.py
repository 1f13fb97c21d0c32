"""Acceptance suite: the eleven exit criteria, each exact and time-bounded.

Every test prints one pass/fail line; tolerances are exact equalities of
rational/polynomial data (no floats anywhere in the library).
"""

import random
import time
from fractions import Fraction

import pytest

from defpair.cech import (line_bundle, pair_sheaf, projective_line,
                          structure_sheaf, tangent_sheaf, det_of_complex,
                          cech_cohomology)
from defpair.cocycles import (DeformationSpace, SheafComplex,
                              cech_trace, first_order_class_dims,
                              locally_trivial_cocycle_check,
                              pair_tangent_spaces, resolution_complex,
                              section_to_pair, solve_first_order_witness,
                              traced_cocycle_as_pairs)
from defpair.dgla import (TableDGLA, abelian_dgla, hom_complex_dgla,
                          pair_complex_dgla, pro_representability_check,
                          trace_morphism)
from defpair.mc import HomContext, bch, gauge_act, mc_check
from defpair.modules import (FPModule, FreeComplex, fitting_ideal,
                             free_resolution, kaehler_differentials,
                             tensor_with_artin)
from defpair.pairs import (check_derivation_pair, derivation_module,
                           derivation_pair_module, det_auto, exp_pair,
                           fitting_invariance_check, lift_anchor, log_auto,
                           trace_pair, exp_pair as _exp)
from defpair.poly import PolyRing
from defpair.rings import QuotientRing, extend_ring, make_artin_algebra


def _report(number, label, started, limit):
    elapsed = time.perf_counter() - started
    print(f"[ACCEPTANCE {number:>2}] PASS  {label}  ({elapsed:.2f}s, limit {limit}s)")
    assert elapsed < limit, f"criterion {number} exceeded its {limit}s budget"


@pytest.fixture(scope="module")
def P1():
    return projective_line()


def test_acceptance_01_fitting_invariance():
    started = time.perf_counter()
    R = QuotientRing(PolyRing(("x",)))
    x = R.var(0)
    M = FPModule.cokernel(R, [[x, R.zero()], [R.zero(), x * x]])
    f0, f1 = fitting_ideal(M, 0), fitting_ideal(M, 1)
    assert f0.same_as(R.ideal([x ** 3]))
    assert f1.same_as(R.ideal([x]))
    D = derivation_pair_module(R, M)
    assert D.generators
    for g in D.generators:
        h = g.h_values
        for ideal in (f0, f1):
            for gen in ideal.gens:
                assert ideal.contains(R.apply_derivation(h, gen))
    # d/dx breaks Fitt_1 and correspondingly admits no pair lift
    ddx = (R.one(),)
    rep = fitting_invariance_check(R, M, ddx)
    assert not rep.passed
    assert any(i == 1 for (i, _, _) in rep.failures())
    assert lift_anchor(R, M, ddx) is None
    _report(1, "anchor preserves Fitting ideals; d/dx fails and has no lift",
            started, 5)


def test_acceptance_02_differentials_fitting():
    started = time.perf_counter()
    amb = PolyRing(("x", "y"))
    R = QuotientRing(amb, [amb.parse("y^2 - x^3")])
    x, y = R.gens()
    omega = kaehler_differentials(R)
    f1 = fitting_ideal(omega, 1)
    assert f1.same_as(R.ideal([x * x, y]))
    gens = derivation_module(R)
    assert gens
    for h in gens:
        for g in f1.gens:
            assert f1.contains(R.apply_derivation(h, g))
    _report(2, "all derivations of the cuspidal cubic preserve Fitt_1(Omega)",
            started, 5)


def test_acceptance_03_ext_identification():
    started = time.perf_counter()
    R = QuotientRing(PolyRing(("x",)))
    x = R.var(0)
    M = FPModule.cokernel(R, [[x * x]])
    cx, aug = free_resolution(M)
    D = pair_complex_dgla(R, cx)
    # independent Ext computation from Hom(P, M): multiplication by x^2 is
    # zero on M, so Ext^0 = Ext^1 = M (QQ-dimension 2) and Ext^i = 0, i >= 2
    ext_dims = {0: 2, 1: 2}
    for i in range(2, 5):
        ext_dims[i] = 0
        # the pair complex lives in degrees -1..1: H^i vanishes for i >= 2
        assert D.hom.component_rank(i) == 0
    # H^0 of D*(R, P) matches D(R, M) by generator matching
    z0 = D.z0_generators()
    DM = derivation_pair_module(R, M)
    pushed = [D.induced_pair_on_cokernel(c, aug) for c in z0]
    from defpair.pairs import PairModule
    span = PairModule(R, M, pushed, [], [])
    for g in DM.generators:
        assert span.contains(g) is not None
    rev = PairModule(R, M, DM.generators, [], [])
    for p in pushed:
        assert rev.contains(p) is not None
    # kernel of the push equals the coboundaries
    bound = D.coboundaries_into_degree0()
    for b in bound:
        assert D.induced_pair_on_cokernel(b, aug).is_zero()
    from defpair.groebner import solve_in_image

    def flat(chain):
        v = list(chain.h_values)
        for j in sorted(dict(chain.blocks)):
            for row in chain.block(j):
                v.extend(row)
        return tuple(v)

    cols = [flat(b) for b in bound]
    for chain in z0:
        if D.induced_pair_on_cokernel(chain, aug).is_zero():
            assert solve_in_image(R.ambient, cols, flat(chain),
                                  ideal_gens=R.gb) is not None
    _report(3, "H^i of the pair complex matches Ext^i (i>=2) and H^0 = D(R,M)",
            started, 10)


def test_acceptance_04_trace_identities():
    started = time.perf_counter()
    amb = PolyRing(("x", "y"))
    R = QuotientRing(amb)
    rng = random.Random(20240601)

    def rand_poly():
        return R.nf(amb.monomial((rng.randint(0, 2), rng.randint(0, 2)),
                                 rng.randint(-3, 3)))

    def rand_complex():
        r1, r0 = rng.randint(1, 2), rng.randint(1, 2)
        d = [[rand_poly() for _ in range(r1)] for _ in range(r0)]
        return FreeComplex(R, {-1: r1, 0: r0}, {-1: d})

    cases = 0
    instances = 0
    while cases < 200 or instances < 20:
        cx = rand_complex()
        H = hom_complex_dgla(cx)

        def rand_map(p):
            f = H.zero(p)
            for g in H.basis_maps(p):
                f = H.add(f, H.scale(rand_poly(), g))
            return f

        for p in (-1, 0, 1):
            f, g = rand_map(p), rand_map(-p)
            assert H.trace(H.bracket(f, g)).is_zero()
            assert H.trace(H.d(rand_map(p - 1))).is_zero()
            cases += 1
        T = trace_morphism(R, cx)
        rep = T.diagram_checks()
        assert rep["passed"]
        instances += 1
    _report(4, f"Tr kills brackets and coboundaries ({cases} cases), "
               f"diagram commutes on {instances} instances", started, 30)


def test_acceptance_05_det_exp_trace():
    started = time.perf_counter()
    R = QuotientRing(PolyRing(("x",)))
    A = make_artin_algebra(["e"], ["e^3"])
    E = extend_ring(R, A)
    M = tensor_with_artin(FPModule.free(R, 2), A)
    e = E.from_artin(A.var(0))
    x = E.from_base(R.var(0))
    rng = random.Random(55)
    count = 0
    while count < 50:
        def rnd():
            pick = rng.random()
            base = E.nf(x ** rng.randint(0, 2) * rng.randint(-2, 2))
            return E.nf((e if pick < 0.7 else E.nf(e * e)) * base)
        p = check_derivation_pair(E, M, (rnd(), E.zero()),
                                  ((rnd(), rnd()), (rnd(), rnd())))
        lhs = det_auto(exp_pair(p))
        rhs = exp_pair(trace_pair(p))
        assert E.nf(lhs.theta_images[0] - rhs.theta_images[0]).is_zero()
        assert lhs.module.eq(lhs.phi_values[0], rhs.phi_values[0])
        count += 1
    _report(5, f"det(exp p) == exp(trace p) on {count} seeded nilpotent pairs",
            started, 10)


def _mc_fixture(rel):
    R = QuotientRing(PolyRing(("w",)))
    A = make_artin_algebra(["e"], [rel])
    E = extend_ring(R, A)
    w = E.from_base(R.var(0))
    cx = FreeComplex(E, {-2: 1, -1: 2, 0: 1},
                     {-2: [[w], [E.zero()]], -1: [[E.zero(), w]]})
    return E, A, HomContext(hom_complex_dgla(cx))


def test_acceptance_06_mc_gauge_suite():
    started = time.perf_counter()
    E, A, ctx = _mc_fixture("e^4")
    e = E.from_artin(A.var(0))
    w = E.nf(E.ambient.parse("w"))
    rng = random.Random(777)

    def coeff(top=3):
        return E.nf(e ** rng.randint(1, top) * w ** rng.randint(0, 2)
                    * rng.randint(-2, 2))

    def mc_elt():
        return ctx.H.from_blocks(1, {-2: [[coeff()], [E.zero()]],
                                     -1: [[E.zero(), coeff()]]})

    def actor(top=3):
        return ctx.H.from_blocks(0, {
            -2: [[coeff(top)]],
            -1: [[coeff(top), coeff(top)], [coeff(top), coeff(top)]],
            0: [[coeff(top)]]})

    preserved = 0
    for _ in range(100):
        xx = mc_elt()
        assert mc_check(ctx, xx)
        moved = gauge_act(ctx, actor(), xx)  # raises if MC breaks
        assert mc_check(ctx, moved)
        preserved += 1
    for _ in range(10):
        a, b, xx = actor(2), actor(2), mc_elt()
        lhs = gauge_act(ctx, a, gauge_act(ctx, b, xx))
        rhs = gauge_act(ctx, bch(ctx, a, b), xx)
        assert ctx.H.eq(lhs, rhs)
    for _ in range(10):
        a = actor()
        assert ctx.H.eq(ctx.log_action(ctx.exp_action(a)), a)
    _report(6, f"gauge preserves MC on {preserved} cases; composition = BCH "
               "action; exp/log round trips", started, 30)


def test_acceptance_07_p1_cohomology_table(P1):
    started = time.perf_counter()
    for k in range(-3, 4):
        out = cech_cohomology(P1, line_bundle(P1, k))["dims"]
        assert out.get(0, 0) == max(k + 1, 0), f"h0(O({k}))"
        assert out.get(1, 0) == max(-k - 1, 0), f"h1(O({k}))"
    theta = cech_cohomology(P1, tangent_sheaf(P1))["dims"]
    assert theta.get(0, 0) == 3 and theta.get(1, 0) == 0
    _report(7, "h^i(O(k)) for k in [-3,3] and h^i(Theta) match the classical "
               "table", started, 20)


def test_acceptance_08_pair_tangent_spaces(P1):
    started = time.perf_counter()
    for k in range(-3, 4):
        out = pair_tangent_spaces(P1, line_bundle(P1, k))
        assert out["T"].get(0, 0) == 4, f"T0 for k={k}"
        assert out["T"].get(1, 0) == 0, f"T1 for k={k}"
        assert out["T"].get(2, 0) == 0, f"T2 for k={k}"
        assert out["les_exact"], f"long exact sequence ranks for k={k}"
    _report(8, "T^0=4, T^1=T^2=0 for (P1, O(k)), k in [-3,3], with exact "
               "rank bookkeeping", started, 60)


def test_acceptance_09_first_order_bridge(P1):
    started = time.perf_counter()
    A = make_artin_algebra(["e"], ["e^2"])
    for k in range(-3, 4):
        F = line_bundle(P1, k)
        dims = first_order_class_dims(P1, F)
        assert dims.get(1, 0) == 0, f"H^1(D(O({k})))"
        # every sampled first-order cocycle acquires a solved witness
        space = DeformationSpace(resolution_complex(P1, F), A)
        ring = space.XE.ring((0, 1))
        eps = ring.from_artin(A.var(0))
        Dsheaf = pair_sheaf(F)
        coords = {}
        for w in (-2, 0, 1):
            basis = Dsheaf.section_basis((0, 1), w)
            coords[w] = [Fraction(1) if t % 2 == 0 else Fraction(-1)
                         for t in range(len(basis))]
        x01 = section_to_pair(space, (0, 1), coords, eps)
        x = {(0, 1): x01}
        assert locally_trivial_cocycle_check(space, x)["passed"]
        witness = solve_first_order_witness(space, x)
        assert witness is not None, f"witness for k={k}"
        D01 = space.pair_complex((0, 1))
        ai = D01.degree_pair(space.restrict_chain((0,), (0, 1), witness[0]), 0)
        aj = D01.degree_pair(space.restrict_chain((1,), (0, 1), witness[1]), 0)
        composed = exp_pair(ai.neg()).compose(
            exp_pair(D01.degree_pair(x01, 0))).compose(exp_pair(aj))
        assert composed.is_identity(), f"exact equivalence for k={k}"
    _report(9, "first-order classes vanish for (P1, O(k)) and witnesses solve "
               "exactly", started, 60)


def test_acceptance_10_cech_trace(P1):
    started = time.perf_counter()
    A = make_artin_algebra(["e"], ["e^2"])
    checked = 0
    # rank-one resolutions: the trace is the identity on cocycles
    for k in (-2, 0, 2):
        F = line_bundle(P1, k)
        SC = resolution_complex(P1, F)
        space = DeformationSpace(SC, A)
        ring = space.XE.ring((0, 1))
        eps = ring.from_artin(A.var(0))
        s, si = ring.var(0), ring.var(1)
        D01 = space.pair_complex((0, 1))
        hv = (ring.nf(eps * s), ring.nf(-eps * si), ring.zero())
        m = {(0, 1): D01.pair_chain(hv, {0: [[ring.nf(eps * (1 + s))]]})}
        traced = cech_trace(space, m)
        p = traced[(0, 1)]
        assert p.h_values == m[(0, 1)].h_values  # anchors verbatim
        assert p.u_values[0][0] == ring.nf(eps * (1 + s))
        det_space = DeformationSpace(resolution_complex(P1, det_of_complex({0: F})), A)
        x = traced_cocycle_as_pairs(traced, det_space)
        assert locally_trivial_cocycle_check(det_space, x)["passed"]
        checked += 1
    # a genuine two-term complex: alternating trace with transpose signs
    sheaves = {-1: line_bundle(P1, -1), 0: line_bundle(P1, 1)}
    SC = SheafComplex(P1, sheaves)
    space = DeformationSpace(SC, A)
    ring = space.XE.ring((0, 1))
    eps = ring.from_artin(A.var(0))
    s, si = ring.var(0), ring.var(1)
    D01 = space.pair_complex((0, 1))
    hv = (ring.nf(eps * s * s), ring.nf(-eps), ring.zero())
    m = {(0, 1): D01.pair_chain(hv, {-1: [[ring.nf(2 * eps)]],
                                     0: [[ring.nf(eps * s)]]})}
    traced = cech_trace(space, m)
    p = traced[(0, 1)]
    assert p.h_values == hv
    assert p.u_values[0][0] == ring.nf(eps * s - 2 * eps)
    det_space = DeformationSpace(resolution_complex(P1, det_of_complex(sheaves)), A)
    x = traced_cocycle_as_pairs(traced, det_space)
    assert locally_trivial_cocycle_check(det_space, x)["passed"]
    checked += 1
    _report(10, f"traced cocycles pass the determinant-level check on "
                f"{checked} instances with anchors preserved", started, 30)


def test_acceptance_11_pro_representability():
    started = time.perf_counter()
    ab = abelian_dgla({0: 2, 1: 1})
    assert pro_representability_check(ab)["satisfied"]
    # two-dimensional counterexample: H^0 nonzero but N^0 = 0
    L = TableDGLA({0: 1, 1: 1}, bracket={(0, 1): {(0, 0): [Fraction(1)]}})
    out = pro_representability_check(L)
    assert not out["satisfied"]
    assert out["H0_dim"] == 1 and out["N0_dim"] == 0
    _report(11, "criterion satisfied on the abelian instance, refuted on the "
                "2-dimensional counterexample", started, 5)
