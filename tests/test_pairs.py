"""Derivation/automorphism pairs: validation, brackets, transfers, Leibniz
extension, lifting, exponentials and Fitting invariance."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from defpair import groebner
from defpair.groebner import CapacityError
from defpair.matrices import det, mat_eq
from defpair.modules import (FPModule, ModuleMap, fitting_ideal,
                             free_resolution, kaehler_differentials,
                             tensor_with_artin)
from defpair.pairs import (AutomorphismPair, DerivationPair, PairError,
                           bch_pair, canonical_pair, check_derivation_pair,
                           check_automorphism_pair, derivation_module,
                           derivation_pair_module, det_auto, exp_pair,
                           fitting_invariance_check, hom_endomorphisms,
                           identity_auto, leibniz_extension, lie_derivative,
                           lift_anchor, lift_through_surjection,
                           lift_to_resolution, log_auto, pair_bracket,
                           tensor_hom_transfer, trace_pair, zero_pair)
from defpair.poly import PolyRing
from defpair.rings import QuotientRing, extend_ring, make_artin_algebra

DATA = Path(__file__).parent / "data"


def QQ(*names):
    return QuotientRing(PolyRing(names))


@pytest.fixture
def Rx():
    return QQ("x")


@pytest.fixture
def cusp():
    amb = PolyRing(["x", "y"])
    return QuotientRing(amb, [amb.parse("y^2 - x^3")])


def euler_pair(Rx):
    # (x d/dx, u) on R with u(e) = 0 is the canonical lifting of x d/dx
    return canonical_pair(Rx, (Rx.var(0),))


# -- validation --------------------------------------------------------------

def test_canonical_pair_valid(Rx):
    p = euler_pair(Rx)
    x = Rx.var(0)
    # u(x^2 * e) = h(x^2) e = 2x^2 e
    assert p.apply_u((x * x,)) == (2 * x * x,)


def test_rlinear_case(Rx):
    x = Rx.var(0)
    M = FPModule.cokernel(Rx, [[x * x]])
    p = check_derivation_pair(Rx, M, (Rx.zero(),), ((x,),))
    assert p.apply_u((x,)) == M.nf((x * x,))


def test_mixed_module_pair(Rx):
    x = Rx.var(0)
    M = FPModule.cokernel(Rx, [[x, Rx.zero()], [Rx.zero(), x * x]])
    # h = x d/dx with u = 0 on both generators passes both relation checks
    p = check_derivation_pair(Rx, M, (x,), (M.zero(), M.zero()))
    assert not p.is_zero()


def test_invalid_pair_reports_relation(Rx):
    x = Rx.var(0)
    M = FPModule.cokernel(Rx, [[x, Rx.zero()], [Rx.zero(), x * x]])
    with pytest.raises(PairError, match="relation 0"):
        check_derivation_pair(Rx, M, (Rx.one(),), (M.zero(), M.zero()))


def test_invalid_derivation(cusp):
    M = FPModule.free(cusp, 1)
    with pytest.raises(PairError, match="not a derivation"):
        check_derivation_pair(cusp, M, (cusp.one(), cusp.zero()), (M.zero(),))


# -- derivation pair module ---------------------------------------------------

def test_pair_module_free_line(Rx):
    M = FPModule.free(Rx, 1)
    D = derivation_pair_module(Rx, M)
    # expected generators: (d/dx, d/dx) and (0, id)
    ddx = check_derivation_pair(Rx, M, (Rx.one(),), (M.zero(),))
    ident = check_derivation_pair(Rx, M, (Rx.zero(),), ((Rx.one(),),))
    assert D.contains(ddx) is not None
    assert D.contains(ident) is not None
    rep = D.exactness_report()
    assert rep["hom_has_zero_anchor"] and rep["anchor_kernel_in_hom"]


def test_pair_module_anchor_image(Rx):
    x = Rx.var(0)
    M = FPModule.cokernel(Rx, [[x * x]])
    D = derivation_pair_module(Rx, M)
    # anchor image is (x) d/dx: every generator's h is divisible by x,
    # and x d/dx is hit
    ideal_x = Rx.ideal([x])
    for g in D.generators:
        assert ideal_x.contains(g.h_values[0])
    assert any(not g.h_values[0].is_zero() for g in D.generators)
    # d/dx has no pair lift
    assert lift_anchor(Rx, M, (Rx.one(),)) is None
    # x d/dx does
    assert lift_anchor(Rx, M, (x,)) is not None


def test_pair_module_zero_module(Rx):
    M = FPModule(Rx, 0, ())
    D = derivation_pair_module(Rx, M)
    # D(R, 0) = Der(R) via (h, 0)
    assert any(not g.h_values[0].is_zero() for g in D.generators)
    assert D.hom_generators == []


def test_pair_module_build_count(Rx, monkeypatch):
    # one basis for the pair system, one for M's relations, one for the
    # Hom system
    x = Rx.var(0)
    M = FPModule.cokernel(Rx, [[x, Rx.one()], [Rx.zero(), x * x]])
    builds = []
    init = groebner.ModuleBasis.__init__

    def counted(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(groebner.ModuleBasis, "__init__", counted)
    D = derivation_pair_module(Rx, M)
    assert D.generators
    assert len(builds) == 3


# -- golden pair modules ------------------------------------------------------

def golden_pair_settings():
    """Modules by name: free, zero and cokernel modules over QQ[x], the cusp
    and the smooth cubic y^2 = x^3 - x - 1, and a free module over
    QQ[x] (x) QQ[e]/(e^2)."""
    out = {}
    R = QQ("x")
    x, z = R.var(0), R.zero()
    out["x-free2"] = FPModule.free(R, 2)
    out["x-zero"] = FPModule(R, 0, ())
    out["x-coker-x2"] = FPModule.cokernel(R, [[x * x]])
    out["x-coker-x-1-x2"] = FPModule.cokernel(R, [[x, R.one()], [z, x * x]])
    out["x-coker-x2-x"] = FPModule.cokernel(R, [[x * x, z], [z, x]])
    for name, rel in (("cusp", "y^2 - x^3"), ("cubic", "y^2 - x^3 + x + 1")):
        amb = PolyRing(["x", "y"])
        C = QuotientRing(amb, [amb.parse(rel)])
        x, y = C.gens()
        out[name + "-free1"] = FPModule.free(C, 1)
        out[name + "-omega"] = kaehler_differentials(C)
        out[name + "-coker-x-y"] = FPModule.cokernel(C, [[x, y], [y, x * x]])
    E = extend_ring(QQ("x"), make_artin_algebra(["e"], ["e^2"]))
    out["x-e-free2"] = FPModule.free(E, 2)
    return out


def poly_terms(p):
    return [[list(m), str(c)] for m, c in sorted(p.terms.items())]


def pair_canon(p):
    if p is None:
        return None
    return {"h": [poly_terms(v) for v in p.h_values],
            "u": [[poly_terms(c) for c in v] for v in p.u_values]}


def outcome(f, *args):
    """f(*args), or the message of the PairError it raises."""
    try:
        return f(*args)
    except PairError as ex:
        return str(ex)


def pair_module_canon(M):
    """D(R, M), Hom(M, M), Der(R) and anchor lifts of d/dx, x d/dx and every
    Der(R) generator.  Over R (x) A every system is A-linear: its anchors
    move only the base variables.  A PairError would be recorded as its
    message."""
    R = M.ring
    D = outcome(derivation_pair_module, R, M)
    der = derivation_module(R)
    anchors = [tuple(f if i == 0 else R.zero() for i in range(R.nvars))
               for f in (R.one(), R.var(0))] + der
    lifts = [outcome(lift_anchor, R, M, h) for h in anchors]
    return {"generators": D if isinstance(D, str) else [pair_canon(g) for g in D.generators],
            "hom": [pair_canon(g) for g in hom_endomorphisms(R, M)],
            "der": [[poly_terms(v) for v in h] for h in der],
            "lifts": [g if isinstance(g, str) else pair_canon(g) for g in lifts]}


def golden_pair_text():
    settings = golden_pair_settings()
    return "{\n" + ",\n".join(f"{json.dumps(name)}: {json.dumps(pair_module_canon(M))}"
                               for name, M in settings.items()) + "\n}\n"


def test_pair_modules_match_golden():
    # pins D(R, M), Hom(M, M), Der(R) and lift_anchor, generators and order,
    # byte for byte: the syzygies depend on the order of the unit pairs
    assert golden_pair_text() == (DATA / "pair_modules.json").read_text()


# -- brackets ----------------------------------------------------------------

def test_bracket_canonical(Rx):
    x = Rx.var(0)
    h = canonical_pair(Rx, (x,))            # x d/dx
    k = canonical_pair(Rx, (x * x,))        # x^2 d/dx
    br = pair_bracket(h, k)
    # [x d/dx, x^2 d/dx] = x^2 d/dx
    assert br.h_values[0] == x * x


def test_bracket_alternating(Rx):
    p = euler_pair(Rx)
    assert pair_bracket(p, p).is_zero()


def test_bracket_with_identity_u(Rx):
    x = Rx.var(0)
    M = FPModule.free(Rx, 1)
    euler = check_derivation_pair(Rx, M, (x,), (M.zero(),))
    ident = check_derivation_pair(Rx, M, (Rx.zero(),), ((Rx.one(),),))
    assert pair_bracket(euler, ident).is_zero()


def test_poisson_identity(cusp):
    # [p, r q] = anchor(p)(r) q + r [p, q] sampled on the cusp
    x, y = cusp.gens()
    O = kaehler_differentials(cusp)
    p = lie_derivative(cusp, (2 * x, 3 * y))
    q = lie_derivative(cusp, (2 * y, 3 * x * x))
    rng = random.Random(5)
    for _ in range(5):
        r = cusp.nf(cusp.ambient.monomial((rng.randint(0, 2), rng.randint(0, 1)),
                                          rng.randint(-2, 2)))
        rq = DerivationPair(cusp, O,
                            tuple(cusp.nf(r * v) for v in q.h_values),
                            tuple(O.scale(r, v) for v in q.u_values))
        lhs = pair_bracket(p, rq)
        hr = p.apply_h(r)
        rhs = DerivationPair(cusp, O,
                             tuple(cusp.nf(hr * v + r * w) for v, w in
                                   zip(q.h_values, pair_bracket(p, q).h_values)),
                             tuple(O.add(O.scale(hr, v), O.scale(r, w))
                                   for v, w in zip(q.u_values, pair_bracket(p, q).u_values)))
        assert lhs.eq(rhs)


# -- Lie derivative ------------------------------------------------------------

def test_lie_derivative_euler_line(Rx):
    x = Rx.var(0)
    L = lie_derivative(Rx, (x,))
    # L_h(dx) = d(h(x)) = dx
    assert L.u_values[0] == (Rx.one(),)


def test_lie_derivative_constant_field(Rx):
    L = lie_derivative(Rx, (Rx.one(),))
    assert L.u_values[0] == (Rx.zero(),)


def test_lie_derivative_on_cusp(cusp):
    x, y = cusp.gens()
    L = lie_derivative(cusp, (2 * x, 3 * y))
    assert L.u_values[0] == (cusp.const(2), cusp.zero())
    assert L.u_values[1] == (cusp.zero(), cusp.const(3))


# -- transfers ----------------------------------------------------------------

def test_tensor_transfer_kronecker(Rx):
    M = FPModule.free(Rx, 2)
    z = (Rx.zero(),)
    u = check_derivation_pair(Rx, M, z, ((Rx.one(), Rx.zero()),
                                         (Rx.zero(), Rx.const(2))))
    v = check_derivation_pair(Rx, M, z, ((Rx.const(3), Rx.zero()),
                                         (Rx.zero(), Rx.const(5))))
    t = tensor_hom_transfer(u, v, "tensor")
    # diag(1,2) (x) I + I (x) diag(3,5) = diag(4,6,5,7)
    diag = [t.u_values[i][i] for i in range(4)]
    assert [str(d) for d in diag] == ["4", "6", "5", "7"]


def test_transpose_of_canonical(Rx):
    x = Rx.var(0)
    p = euler_pair(Rx)
    t = tensor_hom_transfer(p, None, "transpose")
    # on Hom(R, R) = R the transferred u-part acts by f -> hf - fu;
    # on the dual generator it gives h(1) - u(1)-coefficient = 0
    assert t.module.ngens == 1
    assert t.u_values[0] == (Rx.zero(),)


def test_hom_mode_kills_identity(Rx):
    M = FPModule.free(Rx, 2)
    x = Rx.var(0)
    u_vals = ((x, Rx.one()), (Rx.zero(), x * x))
    p = check_derivation_pair(Rx, M, (Rx.zero(),), u_vals)
    h = tensor_hom_transfer(p, p, "hom")
    # identity endomorphism = E_00 + E_11 -> ad-action kills it
    ident = h.module.add(h.module.gen(0), h.module.gen(3))
    assert h.module.is_zero_elt(h.apply_u(ident))


# -- Leibniz extension and trace ------------------------------------------------

def test_leibniz_trace_formula(Rx):
    M = FPModule.free(Rx, 2)
    a, d = Rx.parse("x^2"), Rx.parse("x + 1")
    p = check_derivation_pair(Rx, M, (Rx.zero(),),
                              ((a, Rx.zero()), (Rx.zero(), d)))
    t = trace_pair(p)
    assert t.u_values[0] == (Rx.nf(a + d),)


def test_leibniz_traceless(Rx):
    M = FPModule.free(Rx, 2)
    p = check_derivation_pair(Rx, M, (Rx.zero(),),
                              ((Rx.zero(), Rx.zero()), (Rx.one(), Rx.zero())))
    assert trace_pair(p).is_zero()


def test_trace_rank_one_is_identity(Rx):
    p = euler_pair(Rx)
    t = trace_pair(p)
    assert t.eq(p)


def test_leibniz_is_lie_morphism(Rx):
    rng = random.Random(13)
    M = FPModule.free(Rx, 3)

    def rand_pair():
        h = Rx.nf(Rx.ambient.monomial((rng.randint(0, 2),), rng.randint(-2, 2)))
        u = tuple(tuple(Rx.nf(Rx.ambient.monomial((rng.randint(0, 1),),
                                                  rng.randint(-2, 2)))
                        for _ in range(3)) for _ in range(3))
        return check_derivation_pair(Rx, M, (h,), u)

    for _ in range(5):
        p, q = rand_pair(), rand_pair()
        lhs = leibniz_extension(pair_bracket(p, q), 2)
        rhs = pair_bracket(leibniz_extension(p, 2), leibniz_extension(q, 2))
        assert lhs.eq(rhs)


def test_trace_requires_free(Rx):
    x = Rx.var(0)
    M = FPModule.cokernel(Rx, [[x]])
    p = check_derivation_pair(Rx, M, (Rx.zero(),), ((Rx.zero(),),))
    with pytest.raises(PairError):
        trace_pair(p)


# -- lifting -----------------------------------------------------------------

def test_lift_to_resolution_example(Rx):
    x = Rx.var(0)
    M = FPModule.cokernel(Rx, [[x * x]])
    p = check_derivation_pair(Rx, M, (x,), (M.zero(),))
    cx, aug = free_resolution(M)
    lifts = lift_to_resolution(p, cx, aug)
    # degree 0: v(e) = 0; degree -1: w(e') = 2 e'
    assert lifts[0].u_values[0] == (Rx.zero(),)
    assert lifts[-1].u_values[0] == (Rx.const(2),)


def test_lift_zero_pair(Rx):
    x = Rx.var(0)
    M = FPModule.cokernel(Rx, [[x * x]])
    cx, aug = free_resolution(M)
    lifts = lift_to_resolution(zero_pair(Rx, M), cx, aug)
    assert all(l.is_zero() for l in lifts.values())


def test_lift_identity_surjection(Rx):
    M = FPModule.free(Rx, 2)
    x = Rx.var(0)
    p = check_derivation_pair(Rx, M, (x,),
                              ((x, Rx.zero()), (Rx.one(), Rx.zero())))
    lifted = lift_through_surjection(p, ModuleMap.identity(M))
    assert lifted.eq(p)


def test_lift_through_surjection_eliminates_once(cusp, monkeypatch):
    # P = R^3 ->> M = R^2 over the cusp: one elimination certifies
    # surjectivity and lifts every generator image
    x, y = cusp.gens()
    P, M = FPModule.free(cusp, 3), FPModule.free(cusp, 2)
    f = ModuleMap(P, M, [[cusp.one(), cusp.zero(), x], [cusp.zero(), cusp.one(), y]])
    euler = (2 * x, 3 * y)
    p = check_derivation_pair(cusp, M, euler, ((x, cusp.zero()), (y, x * y)))
    builds = []
    init = groebner.ModuleBasis.__init__

    def counted(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(groebner.ModuleBasis, "__init__", counted)
    lifted = lift_through_surjection(p, f)
    assert len(builds) == 1
    for i in range(P.ngens):
        assert M.eq(f.apply(lifted.apply_u(P.gen(i))), p.apply_u(f.apply(P.gen(i))))


def test_lift_nonsurjective_rejected(Rx):
    x = Rx.var(0)
    R1 = FPModule.free(Rx, 1)
    f = ModuleMap(R1, R1, [[x]])
    p = canonical_pair(Rx, (x,))
    with pytest.raises(PairError, match="not surjective"):
        lift_through_surjection(p, f)


# -- exponentials -------------------------------------------------------------

def _extended_setup(rel="e^2"):
    R = QQ("x")
    A = make_artin_algebra(["e"], [rel])
    E = extend_ring(R, A)
    M = tensor_with_artin(FPModule.free(R, 2), A)
    return R, A, E, M


def test_exp_first_order():
    R, A, E, M = _extended_setup("e^2")
    e = E.from_artin(A.var(0))
    x = E.from_base(R.var(0))
    h = (E.nf(e * x), E.zero())
    u = ((E.nf(e * x), E.zero()), (E.zero(), e))
    p = check_derivation_pair(E, M, h, u)
    a = exp_pair(p)
    # exp(e h, e u) = (1 + e h, 1 + e u) at first order
    assert a.theta_images[0] == E.nf(x + e * x)
    assert M.eq(a.apply_phi(M.gen(0)), M.add(M.gen(0), u[0]))


def test_exp_zero_is_identity():
    R, A, E, M = _extended_setup()
    p = zero_pair(E, M)
    assert exp_pair(p).is_identity()


def test_exp_log_round_trip():
    R, A, E, M = _extended_setup("e^4")
    e = E.from_artin(A.var(0))
    x = E.from_base(R.var(0))
    h = (E.nf(e * x * x),)
    u = ((E.nf(e * x), e), (E.nf(e * e), E.nf(e * x)))
    p = check_derivation_pair(E, M, h + (E.zero(),), u)
    back = log_auto(exp_pair(p))
    assert back.eq(p)


def test_exp_requires_nilpotent():
    R, A, E, M = _extended_setup()
    x = E.from_base(R.var(0))
    p = check_derivation_pair(E, M, (x, E.zero()), (M.zero(), M.zero()))
    with pytest.raises(PairError, match="m_A"):
        exp_pair(p)


def test_exp_series_cap():
    # u(e_1) = e*e_1 over QQ[e]/(e^65): the 64th power of u is still nonzero
    R, A, E, M = _extended_setup("e^65")
    e = E.from_artin(A.var(0))
    p = check_derivation_pair(E, M, (E.zero(), E.zero()), ((e, E.zero()), M.zero()))
    with pytest.raises(CapacityError, match="series"):
        exp_pair(p)


def test_det_exp_equals_exp_trace():
    # over QQ[e]/(e^3) on free rank-2 modules, seeded random nilpotent pairs
    R, A, E, M = _extended_setup("e^3")
    e = E.from_artin(A.var(0))
    x = E.from_base(R.var(0))
    rng = random.Random(2024)
    for _ in range(10):
        def rnd():
            return E.nf((e if rng.random() < 0.7 else E.nf(e * e))
                        * E.nf(x ** rng.randint(0, 2) * rng.randint(-2, 2)))
        h = (rnd(), E.zero())
        u = ((rnd(), rnd()), (rnd(), rnd()))
        p = check_derivation_pair(E, M, h, u)
        lhs = det_auto(exp_pair(p))
        rhs = exp_pair(trace_pair(p))
        assert E.nf(lhs.theta_images[0] - rhs.theta_images[0]).is_zero()
        assert lhs.module.eq(lhs.phi_values[0], rhs.phi_values[0])


def test_exp_is_group_morphism_via_bch():
    R, A, E, M = _extended_setup("e^3")
    e = E.from_artin(A.var(0))
    x = E.from_base(R.var(0))
    p = check_derivation_pair(E, M, (E.nf(e * x), E.zero()),
                              ((E.nf(e * x), e), (E.zero(), E.nf(e * x * x))))
    q = check_derivation_pair(E, M, (E.nf(e * x * x), E.zero()),
                              ((e, E.zero()), (E.nf(e * x), e)))
    both = exp_pair(p).compose(exp_pair(q))
    viabch = exp_pair(bch_pair(p, q))
    assert E.nf(both.theta_images[0] - viabch.theta_images[0]).is_zero()
    for j in range(2):
        assert M.eq(both.phi_values[j], viabch.phi_values[j])


# -- Fitting invariance ---------------------------------------------------------

def test_fitting_invariance_euler(Rx):
    x = Rx.var(0)
    M = FPModule.cokernel(Rx, [[x, Rx.zero()], [Rx.zero(), x * x]])
    rep = fitting_invariance_check(Rx, M, (x,))
    assert rep.passed


def test_fitting_invariance_ddx_fails(Rx):
    x = Rx.var(0)
    M = FPModule.cokernel(Rx, [[x, Rx.zero()], [Rx.zero(), x * x]])
    rep = fitting_invariance_check(Rx, M, (Rx.one(),))
    assert not rep.passed
    # the failure is at Fitt_1 = (x): d/dx(x) = 1 is not in (x)
    assert any(i == 1 for (i, _, _) in rep.failures())


def test_fitting_invariance_free_vacuous(Rx):
    M = FPModule.free(Rx, 2)
    rep = fitting_invariance_check(Rx, M, (Rx.one(),))
    assert rep.passed and rep.entries == []


def test_every_pair_anchor_preserves_fitting(Rx):
    # every generator of D(R, M) has an anchor preserving the Fitting ideals
    x = Rx.var(0)
    M = FPModule.cokernel(Rx, [[x, Rx.zero()], [Rx.zero(), x * x]])
    D = derivation_pair_module(Rx, M)
    assert D.generators
    for g in D.generators:
        assert fitting_invariance_check(Rx, M, g.h_values).passed


def test_cusp_derivations_preserve_differentials_fitting(cusp):
    # all derivations of the cusp ring preserve Fitt_1(Omega) = (x^2, y)
    x, y = cusp.gens()
    O = kaehler_differentials(cusp)
    f1 = fitting_ideal(O, 1)
    assert f1.same_as(cusp.ideal([x * x, y]))
    gens = derivation_module(cusp)
    assert gens
    for h in gens:
        for g in f1.gens:
            assert f1.contains(cusp.apply_derivation(h, g))
