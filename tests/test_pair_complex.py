"""The pair complex D*(R, E*): degree-zero operations against the per-degree
derivation-pair reference, DGLA identities on random chains, anchor checks
and a golden Z^0."""

import json
import random
from pathlib import Path

import pytest

from defpair import groebner
from defpair.dgla import DGLAError, pair_complex_dgla, split_sequence_pairs
from defpair.mc import PairContext, log_of_exps
from defpair.modules import FPModule, FreeComplex, ModuleMap, free_resolution
from defpair.pairs import PairError, pair_bracket
from defpair.poly import PolyRing
from defpair.rings import QuotientRing, extend_ring, make_artin_algebra

DATA = Path(__file__).parent / "data"


def QQr(*names):
    return QuotientRing(PolyRing(names))


def poly_terms(p):
    return [[list(m), str(c)] for m, c in sorted(p.terms.items())]


# -- golden Z^0 ---------------------------------------------------------------------

def golden_complexes():
    """Fixed free complexes, by name: resolutions over QQ[x], QQ[x,y] and the
    cusp, one padded with a contractible summand, and a rank-(1,2,1) complex."""
    out = {}
    R = QQr("x")
    x = R.var(0)
    out["x2"] = free_resolution(FPModule.cokernel(R, [[x * x]]))[0]
    z = R.zero()
    out["x2-padded"] = FreeComplex(R, {-1: 2, 0: 2}, {-1: [[x * x, z], [z, R.one()]]})
    S = QQr("x", "y")
    x, y = S.gens()
    out["koszul-xy"] = free_resolution(FPModule.cokernel(S, [[x, y]]))[0]
    out["x2-xy"] = free_resolution(FPModule.cokernel(S, [[x * x, x * y]]))[0]
    amb = PolyRing(["x", "y"])
    C = QuotientRing(amb, [amb.parse("y^2 - x^3")])
    x, y = C.gens()
    out["cusp-two-term"] = FreeComplex.two_term(C, [[x, y]], lo=-1)
    W = QQr("w")
    w = W.var(0)
    out["w-121"] = FreeComplex(W, {-2: 1, -1: 2, 0: 1},
                               {-2: [[w], [W.zero()]], -1: [[W.zero(), w]]})
    return out


def z0_canon(cx):
    D = pair_complex_dgla(cx.ring, cx)
    return [{"h": [poly_terms(p) for p in chain.h_values],
             "blocks": [[j, [[poly_terms(v) for v in row] for row in m]]
                        for j, m in chain.blocks]}
            for chain in D.z0_generators()]


def test_z0_generators_match_golden():
    # pins the generators and their order: the syzygies depend on the order
    # of the unit pairs
    golden = json.loads((DATA / "z0_generators.json").read_text())
    got = {name: z0_canon(cx) for name, cx in golden_complexes().items()}
    assert got == golden


# -- random chains ------------------------------------------------------------------

def koszul(R, x, y):
    """The Koszul complex of (x, y): ranks 1, 2, 1 in degrees -2, -1, 0."""
    return FreeComplex(R, {-2: 1, -1: 2, 0: 1}, {-2: [[-y], [x]], -1: [[x, y]]})


def polynomial_setting():
    R = QQr("x", "y")
    x, y = R.gens()
    return R, (x, y), (x, y)


def extended_setting():
    """R (x) QQ[e]/(e^3) with R = QQ[x, y]: anchors move x and y only."""
    R = QQr("x", "y")
    A = make_artin_algebra(["e"], ["e^3"])
    E = extend_ring(R, A)
    x, y = (E.from_base(v) for v in R.gens())
    return E, (x, y), (x, y, E.from_artin(A.var(0)))


SETTINGS = {"QQ[x,y]": polynomial_setting, "QQ[x,y](x)QQ[e]/(e^3)": extended_setting}


def random_poly(rng, R, atoms):
    acc = R.zero()
    for _ in range(rng.randint(0, 2)):
        term = R.one() * rng.randint(-2, 2)
        for _ in range(rng.randint(0, 2)):
            term = term * rng.choice(atoms)
        acc = acc + term
    return R.nf(acc)


def random_chain(rng, D, anchored, atoms):
    R = D.ring
    h = [R.zero()] * R.nvars
    for i in range(len(anchored)):
        h[i] = random_poly(rng, R, atoms)
    blocks = {j: [[random_poly(rng, R, atoms) for _ in range(D.cx.rank(j))]
                  for _ in range(D.cx.rank(j))]
              for j in D.cx.degrees}
    return D.pair_chain(tuple(h), blocks)


def random_map(rng, D, p, atoms):
    return D.hom.from_blocks(p, {j: [[random_poly(rng, D.ring, atoms)
                                      for _ in range(D.cx.rank(j))]
                                     for _ in range(D.cx.rank(j + p))]
                                 for j in D.cx.degrees})


@pytest.mark.parametrize("setting", sorted(SETTINGS))
def test_pair_complex_dgla_identities(setting):
    R, anchored, atoms = SETTINGS[setting]()
    D = pair_complex_dgla(R, koszul(R, *anchored))
    H = D.hom
    rng = random.Random(f"pair-complex:{setting}")
    for _ in range(3):
        a, b, c = (random_chain(rng, D, anchored, atoms) for _ in range(3))
        f = random_map(rng, D, -1, atoms)
        # delta o delta = 0 on D^0
        assert H.is_zero(H.d(D.d_pair(a)))
        # Leibniz on two pairs: delta[a, b] = [delta a, b] + [a, delta b]
        lhs = D.d_pair(D.bracket_pairs(a, b))
        rhs = H.add(H.neg(D.bracket_pair_hom(b, D.d_pair(a))),
                    D.bracket_pair_hom(a, D.d_pair(b)))
        assert H.eq(lhs, rhs)
        # Leibniz on a pair and a degree -1 map: delta[a, f] = [delta a, f] + [a, delta f]
        lhs = H.d(D.bracket_pair_hom(a, f))
        rhs = H.add(H.bracket(D.d_pair(a), f), D.bracket_pair_hom(a, H.d(f)))
        assert H.eq(lhs, rhs)
        # Jacobi: [a, [b, c]] = [[a, b], c] + [b, [a, c]]
        lhs = D.bracket_pairs(a, D.bracket_pairs(b, c))
        rhs = D.add_pairs(D.bracket_pairs(D.bracket_pairs(a, b), c),
                          D.bracket_pairs(b, D.bracket_pairs(a, c)))
        assert D.pair_eq(lhs, rhs)
        # a pair acting on a map twice: [[a, b], f] = [a, [b, f]] - [b, [a, f]]
        lhs = D.bracket_pair_hom(D.bracket_pairs(a, b), f)
        rhs = H.add(D.bracket_pair_hom(a, D.bracket_pair_hom(b, f)),
                    H.neg(D.bracket_pair_hom(b, D.bracket_pair_hom(a, f))))
        assert H.eq(lhs, rhs)


@pytest.mark.parametrize("setting", sorted(SETTINGS))
def test_pair_operations_match_derivation_pairs(setting):
    # reference: each degree as a validated DerivationPair on E^j
    R, anchored, atoms = SETTINGS[setting]()
    D = pair_complex_dgla(R, koszul(R, *anchored))
    cx = D.cx
    rng = random.Random(f"per-degree:{setting}")
    for _ in range(3):
        a, b = (random_chain(rng, D, anchored, atoms) for _ in range(2))
        br = D.bracket_pairs(a, b)
        for j in cx.degrees:
            pa, pb = D.degree_pair(a, j), D.degree_pair(b, j)
            ref = pair_bracket(pa, pb)
            assert br.h_values == ref.h_values
            assert [tuple(col) for col in zip(*br.block(j))] == list(ref.u_values)
            v = tuple(random_poly(rng, R, atoms) for _ in range(cx.rank(j)))
            assert D.apply_chain(a, j, v) == pa.apply_u(v)
        for p in (-1, 1):
            f = random_map(rng, D, p, atoms)
            got = D.bracket_pair_hom(a, f)
            for j, fj in f.blocks:
                # column i: u_{j+p}(f(e_i)) - f(u_j(e_i))
                up, uj = D.degree_pair(a, j + p), D.degree_pair(a, j)
                for i in range(cx.rank(j)):
                    left = up.apply_u(tuple(row[i] for row in fj))
                    right = tuple(sum((fj[r][t] * w for t, w in enumerate(uj.apply_u(
                        cx.module(j).gen(i)))), R.zero()) for r in range(len(fj)))
                    col = tuple(R.nf(u - w) for u, w in zip(left, right))
                    assert tuple(row[i] for row in got.block(j)) == col


# -- validation -----------------------------------------------------------------------

def test_pair_chain_refuses_non_a_linear_anchor():
    R = QQr("x")
    A = make_artin_algebra(["e"], ["e^2"])
    E = extend_ring(R, A)
    e = E.from_artin(A.var(0))
    D = pair_complex_dgla(E, FreeComplex(E, {0: 1}, {}))
    # h(e) = e kills e^2 = 0 (2e^2 = 0) but moves the Artin variable
    with pytest.raises(PairError, match="not A-linear"):
        D.pair_chain((E.zero(), e), {})


def test_pair_chain_refuses_non_derivation_anchor():
    amb = PolyRing(["x", "y"])
    C = QuotientRing(amb, [amb.parse("y^2 - x^3")])
    D = pair_complex_dgla(C, FreeComplex(C, {0: 1}, {}))
    with pytest.raises(PairError, match="does not kill"):
        D.pair_chain((C.one(), C.zero()), {})


def test_pair_chain_refuses_wrong_shaped_blocks():
    R = QQr("x")
    x = R.var(0)
    D = pair_complex_dgla(R, FreeComplex.two_term(R, [[x * x]], lo=-1))
    with pytest.raises(DGLAError, match="not 1 x 1"):
        D.pair_chain((x,), {0: [[x, x * x]], -1: [[x]]})
    with pytest.raises(DGLAError, match="not 1 x 1"):
        D.pair_chain((x,), {0: [[x], [x]]})


def test_z0_over_an_extended_ring_is_a_linear():
    R = QQr("x")
    A = make_artin_algebra(["e"], ["e^2"])
    E = extend_ring(R, A)
    x = E.from_base(R.var(0))
    D = pair_complex_dgla(E, FreeComplex.two_term(E, [[x * x]], lo=-1))
    z0 = D.z0_generators()
    assert z0
    for chain in z0:
        assert chain.h_values[1].is_zero()
        assert D.hom.is_zero(D.d_pair(chain))


def test_log_of_exps_inverts_exp():
    R = QQr("x")
    A = make_artin_algebra(["e"], ["e^3"])
    E = extend_ring(R, A)
    e, x = E.from_artin(A.var(0)), E.from_base(R.var(0))
    D = pair_complex_dgla(E, FreeComplex.two_term(E, [[x * x]], lo=-1))
    ctx = PairContext(D)
    a = D.pair_chain((E.nf(e * x), E.zero()), {0: [[e]], -1: [[E.nf(e * x)]]})
    assert D.pair_eq(log_of_exps(ctx, [a]), a)
    assert D.is_zero_pair(log_of_exps(ctx, [a, D.neg_pair(a)]))


def test_exp_action_does_not_check_the_anchor_again(monkeypatch):
    # pair_chain checked the anchor; the pair of each degree reuses it
    R = QQr("x")
    A = make_artin_algebra(["e"], ["e^3"])
    E = extend_ring(R, A)
    e, x = E.from_artin(A.var(0)), E.from_base(R.var(0))
    D = pair_complex_dgla(E, FreeComplex.two_term(E, [[x * x]], lo=-1))
    a = D.pair_chain((E.nf(e * x), E.zero()), {0: [[e]], -1: [[E.nf(e * x)]]})
    calls = []
    check = QuotientRing.derivation_well_defined
    monkeypatch.setattr(QuotientRing, "derivation_well_defined",
                        lambda ring, h: calls.append(h) or check(ring, h))
    autos = PairContext(D).exp_action(a)
    assert sorted(autos) == [-1, 0]
    assert calls == []


def test_split_sequence_builds_five_bases(monkeypatch):
    # surjectivity of beta and its section share one solve: the syzygies of
    # alpha and of beta, ker beta in im alpha, p surjective and the section
    R = QQr("x")
    K, P, M = FPModule.free(R, 1), FPModule.free(R, 2), FPModule.free(R, 1)
    alpha = ModuleMap(K, P, [[R.one()], [R.zero()]])
    beta = ModuleMap(P, M, [[R.zero(), R.one()]])
    builds = []
    init = groebner.ModuleBasis.__init__

    def counted(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(groebner.ModuleBasis, "__init__", counted)
    data = split_sequence_pairs(alpha, beta)
    assert len(builds) == 5
    assert all(data.reports.values())
