"""Groebner bases, normal forms, module bases, syzygies and solving.

The checks against `groebner_basis` use an independent reducer
(`slow_reduce` below) so the verified property does not depend on the code
path under test; the differential test compares reduced bases with sympy's
when sympy is installed.
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from defpair import groebner
from defpair.groebner import (CapacityError, Caps, ModuleBasis, _tagged_generators,
                              groebner_basis, ideal_contains, poly_reduce,
                              solve_in_image, solve_many, submodule_contains,
                              syzygies, vec_is_zero, vec_zero)
from defpair.poly import LEX, PolyRing, mono_div, mono_lcm

DATA = Path(__file__).parent / "data"


def slow_reduce(p, basis):
    """Independent reference division: always rewrite the largest reducible
    monomial anywhere in p, not only the lead."""
    order = p.ring.order
    changed = True
    while changed:
        changed = False
        for m in sorted(p.terms, key=order.key, reverse=True):
            c = p.terms[m]
            for g in basis:
                gm, gc = g.lead(order)
                q = mono_div(m, gm)
                if q is not None:
                    p = p - g.mul_term(q, c / gc)
                    changed = True
                    break
            if changed:
                break
    return p


def spair(f, g):
    """Reference S-polynomial of f and g."""
    order = f.ring.order
    fm, fc = f.lead(order)
    gm, gc = g.lead(order)
    lcm = mono_lcm(fm, gm)
    return f.mul_term(mono_div(lcm, fm), 1 / fc) - g.mul_term(mono_div(lcm, gm), 1 / gc)


def cyclic(n):
    """The cyclic-n system in QQ[x0, ..., x(n-1)]."""
    R = PolyRing([f"x{i}" for i in range(n)])
    x = R.gens()

    def run(i, d):
        p = R.one()
        for t in range(d):
            p = p * x[(i + t) % n]
        return p

    return ([sum((run(i, d) for i in range(n)), R.zero()) for d in range(1, n)]
            + [run(0, n) - 1])


def katsura(n):
    """The katsura-n system in QQ[u0, ..., un]."""
    R = PolyRing([f"u{i}" for i in range(n + 1)])
    u = R.gens()

    def U(i):
        return u[abs(i)] if abs(i) <= n else R.zero()

    return [sum((U(i) for i in range(-n, n + 1)), R.zero()) - 1] + [
        sum((U(i) * U(m - i) for i in range(-n, n + 1)), R.zero()) - U(m) for m in range(n)]


def random_ideal(rng, R):
    """Three generators of three terms of degree <= 2 in three variables."""
    monos = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)
             if a + b + c <= 2]
    return [sum((R.monomial(m, rng.choice([-3, -2, -1, 1, 2, 3]))
                 for m in rng.sample(monos, 3)), R.zero())
            for _ in range(3)]


def test_lex_elimination_example():
    R = PolyRing(["x", "y"], order=LEX)
    x, y = R.gens()
    G = groebner_basis([x * x - 1, x * y - 1])
    assert set(map(str, G)) == {"x - y", "y^2 - 1"}


def test_zero_ideal():
    R = PolyRing(["x"])
    assert groebner_basis([R.zero()]) == []


def test_principal_ideal():
    R = PolyRing(["x"])
    x = R.var(0)
    assert groebner_basis([x * 3]) == [x]


def test_basis_is_groebner_and_equivalent():
    R = PolyRing(["x", "y", "z"])
    x, y, z = R.gens()
    gens = [x * y - z, y * z - x, x * x - y * z + 1]
    G = groebner_basis(gens)
    # every S-polynomial of the output reduces to zero (independent reducer)
    for i in range(len(G)):
        for j in range(i + 1, len(G)):
            assert slow_reduce(spair(G[i], G[j]), G).is_zero()
    # mutual containment of the two generating sets
    for g in gens:
        assert slow_reduce(g, G).is_zero()
    GG = groebner_basis(gens + list(G))
    assert GG == G


def test_normal_form_examples():
    R = PolyRing(["x", "y"], order=LEX)
    x, y = R.gens()
    G = groebner_basis([x * x - 1, x * y - 1])
    assert poly_reduce(x * x, G) == R.one()
    assert poly_reduce(R.zero(), G).is_zero()
    assert ideal_contains(groebner_basis([x]), x)


def test_normal_form_is_linear_and_multiplicative():
    R = PolyRing(["x", "y"])
    x, y = R.gens()
    G = groebner_basis([x * x * x - y, y * y - x])
    rng = random.Random(7)

    def rand_poly():
        p = R.zero()
        for _ in range(rng.randint(1, 5)):
            p = p + R.monomial((rng.randint(0, 3), rng.randint(0, 3)),
                               rng.randint(-3, 3))
        return p

    for _ in range(40):
        p, q = rand_poly(), rand_poly()
        nf = lambda f: poly_reduce(f, G)
        assert nf(p + q) == nf(nf(p) + nf(q))
        assert nf(p * q) == nf(nf(p) * nf(q))


def test_capacity_error():
    R = PolyRing(["x", "y"])
    x, y = R.gens()
    gens = [x ** 3 - 2 * x * y, x * x * y - 2 * y * y + x]
    with pytest.raises(CapacityError):
        groebner_basis(gens, caps=Caps(max_pairs=1, max_degree=120))
    with pytest.raises(CapacityError):
        groebner_basis(gens, caps=Caps(max_pairs=1000, max_degree=2))
    # generous caps complete fine
    assert len(groebner_basis(gens)) >= 2


def test_koszul_syzygy():
    R = PolyRing(["x", "y"])
    x, y = R.gens()
    out = syzygies(R, [(x,), (y,)])
    assert len(out) == 1
    s = out[0]
    assert s[0] * x + s[1] * y == R.zero()
    assert {str(s[0]), str(s[1])} == {"y", "-x"}


def test_unit_column_no_syzygies():
    R = PolyRing(["x"])
    assert syzygies(R, [(R.one(),)]) == []


def test_torsion_free_single_column():
    R = PolyRing(["x"])
    x = R.var(0)
    assert syzygies(R, [(x * x,)]) == []


def test_systems_without_equations_build_no_basis(monkeypatch):
    # columns of length 0 impose no equation: every unit vector is a syzygy,
    # modulo an ideal too, and no module basis is built for them
    R = PolyRing(["x", "y"])
    x = R.var(0)
    builds = []
    init = groebner.ModuleBasis.__init__

    def counted(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(groebner.ModuleBasis, "__init__", counted)
    units = [(R.one(), R.zero(), R.zero()), (R.zero(), R.one(), R.zero()),
             (R.zero(), R.zero(), R.one())]
    assert syzygies(R, [(), (), ()]) == units
    assert syzygies(R, [(), (), ()], ideal_gens=[x * x]) == units
    # and zero solves every (empty) target
    assert solve_many(R, [(), ()], [(), ()]) == [(R.zero(), R.zero())] * 2
    assert builds == []


def test_syzygies_annihilate_exactly():
    R = PolyRing(["x", "y"])
    x, y = R.gens()
    cols = [(x + y, x * y), (x * x, y), (y * y, x)]
    for s in syzygies(R, cols):
        acc0 = sum((c * col[0] for c, col in zip(s, cols)), R.zero())
        acc1 = sum((c * col[1] for c, col in zip(s, cols)), R.zero())
        assert acc0.is_zero() and acc1.is_zero()


def test_syzygies_modulo_ideal():
    # over QQ[x]/(x^2): x*(x) = 0 is a syzygy of the single column (x)
    R = PolyRing(["x"])
    x = R.var(0)
    out = syzygies(R, [(x,)], ideal_gens=[x * x])
    assert any(not s[0].is_zero() for s in out)
    for s in out:
        assert poly_reduce(s[0] * x, [x * x]).is_zero()


def test_module_basis_membership():
    R = PolyRing(["x", "y"])
    x, y = R.gens()
    gens = [(x, y), (y, x)]
    mb = ModuleBasis(R, 2, gens)
    v = (x * x + y * y, 2 * x * y)
    assert mb.contains(v)
    assert not mb.contains((R.one(), R.zero()))


def test_solve_in_image():
    R = PolyRing(["x"])
    x = R.var(0)
    # solve a*x^2 = 2*x^2 -> a = 2
    sol = solve_in_image(R, [(x * x,)], (2 * x * x,))
    assert sol is not None and sol[0] == R.const(2)
    # solve a*x = 1 has no solution
    assert solve_in_image(R, [(x,)], (R.one(),)) is None
    # modulo x^2, solve a*1 = 0 with a free: trivial solution 0
    sol = solve_in_image(R, [(R.one(),)], (R.zero(),), ideal_gens=[x * x])
    assert sol is not None and sol[0].is_zero()


def test_solve_in_image_mod_ideal():
    R = PolyRing(["x"])
    x = R.var(0)
    # in QQ[x]/(x^2): x*a = x has the solution a = 1
    sol = solve_in_image(R, [(x,)], (x,), ideal_gens=[x * x])
    assert sol is not None
    check = sol[0] * x - x
    assert poly_reduce(check, [x * x]).is_zero()


def test_submodule_contains_mod_ideal():
    R = PolyRing(["x"])
    x = R.var(0)
    # in QQ[x]/(x^3): submodule generated by (x) contains (x^2) but not (1)
    assert submodule_contains(R, [(x,)], (x * x,), ideal_gens=[x ** 3])
    assert not submodule_contains(R, [(x,)], (R.one(),), ideal_gens=[x ** 3])


def test_random_syzygy_completeness():
    # every kernel element produced by random combination is detected
    R = PolyRing(["x", "y"])
    x, y = R.gens()
    cols = [(x * y, y), (x * x, x), (y * y, y * x)]
    syz = syzygies(R, cols)
    rng = random.Random(3)
    for _ in range(10):
        combo = [R.monomial((rng.randint(0, 2), rng.randint(0, 2)), rng.randint(-2, 2))
                 for _ in syz]
        s = [R.zero()] * len(cols)
        for c, base in zip(combo, syz):
            for k in range(len(cols)):
                s[k] = s[k] + c * base[k]
        acc = [R.zero(), R.zero()]
        for k, col in enumerate(cols):
            acc[0] = acc[0] + s[k] * col[0]
            acc[1] = acc[1] + s[k] * col[1]
        assert acc[0].is_zero() and acc[1].is_zero()


def test_ideal_is_the_rank_one_module():
    lexR = PolyRing(["x", "y"], order=LEX)
    x, y = lexR.gens()
    for gens in (cyclic(4), [x * x - 1, x * y - 1]):
        R = gens[0].ring
        assert (ModuleBasis(R, 1, [(g,) for g in gens]).basis
                == [(g,) for g in groebner_basis(gens)])


def test_product_criterion_is_rank_one_only():
    # the leads x*e_0 and y*e_0 are coprime, yet their S-vector
    # y*(x, y) - x*(y, 0) = (0, y^2) is a new basis element
    R = PolyRing(["x", "y"])
    x, y = R.gens()
    mb = ModuleBasis(R, 2, [(x, y), (y, R.zero())])
    assert (R.zero(), y * y) in mb.basis


def test_reduced_basis_matches_sympy():
    sympy = pytest.importorskip("sympy")
    R = PolyRing(["x", "y", "z"])
    rng = random.Random(11)
    ideals = [cyclic(4), katsura(3)] + [random_ideal(rng, R) for _ in range(8)]

    def to_sympy(p, syms):
        return sum((sympy.Rational(c.numerator, c.denominator)
                    * sympy.Mul(*(s ** e for s, e in zip(syms, m)))
                    for m, c in p.terms.items()), sympy.Integer(0))

    for gens in ideals:
        syms = sympy.symbols(gens[0].ring.variables)
        oracle = sympy.groebner([to_sympy(g, syms) for g in gens], *syms,
                                order="grevlex", domain="QQ")
        expected = {frozenset((tuple(m), Fraction(int(c.p), int(c.q))) for m, c in p.terms())
                    for p in oracle.polys}
        got = {frozenset(g.terms.items()) for g in groebner_basis(gens)}
        assert got == expected


CLASSICS = {"cyclic-5": lambda: cyclic(5), "katsura-5": lambda: katsura(5)}


def classics_text():
    """Reduced grevlex bases of the classic inputs, one JSON line per input."""
    return "{\n" + ",\n".join(
        f"{json.dumps(name)}: "
        + json.dumps([[[list(m), str(c)] for m, c in sorted(g.terms.items())]
                      for g in groebner_basis(gens())])
        for name, gens in CLASSICS.items()) + "\n}\n"


def test_classic_bases_match_golden():
    # the golden was written by the engine that reduced every S-pair (about
    # 8 s for both); with the pair criteria both take about 1 s
    start = time.perf_counter()
    text = classics_text()
    assert time.perf_counter() - start < 4.0
    assert text == (DATA / "groebner_classics.json").read_text()


_mono = st.tuples(st.integers(0, 2), st.integers(0, 2))
_terms = st.dictionaries(_mono, st.integers(-3, 3).filter(bool), min_size=1, max_size=3)


@given(st.lists(st.tuples(_terms, _terms), min_size=2, max_size=3), st.randoms())
@settings(max_examples=30, deadline=None, derandomize=True)
def test_basis_does_not_depend_on_generator_order(vectors, rnd):
    R = PolyRing(["x", "y"])
    gens = [tuple(sum((R.monomial(m, c) for m, c in t.items()), R.zero()) for t in v)
            for v in vectors]
    shuffled = rnd.sample(gens, len(gens))
    assert ModuleBasis(R, 2, shuffled).basis == ModuleBasis(R, 2, gens).basis
    assert (groebner_basis([v[0] for v in shuffled])
            == groebner_basis([v[0] for v in gens]))


_entry = st.dictionaries(_mono, st.integers(-3, 3).filter(bool), max_size=3)


@st.composite
def module_generators(draw):
    """Rank 1 to 3 generators over QQ[x,y], as term dicts per position."""
    n = draw(st.integers(1, 3))
    return draw(st.lists(st.lists(_entry, min_size=n, max_size=n), min_size=2, max_size=4))


@given(module_generators())
# both systems lose a needed S-pair when the chain criterion drops a pair
# because of a lead in another position
@example([[{(1, 2): 3}, {}, {(2, 0): -3, (1, 1): -3}],
          [{}, {(1, 1): 2}, {(1, 0): -2, (1, 2): 3, (1, 1): 1}],
          [{}, {(1, 0): -2, (2, 0): -3, (0, 0): -3}, {(1, 2): -1}],
          [{(2, 1): -2, (2, 0): -3}, {(2, 0): -5}, {}]])
@example([[{(0, 1): -2, (2, 1): 1}, {}], [{}, {(0, 2): -2, (0, 0): 1}],
          [{}, {(1, 1): 1}], [{(1, 2): -2}, {(0, 1): 1, (0, 0): 3}]])
@settings(max_examples=40, deadline=None, derandomize=True)
def test_module_basis_meets_buchberger_criterion(entries):
    # checked on the output alone, whatever pairs the engine skipped: every
    # generator and every same-position S-vector of the basis reduce to zero
    R = PolyRing(["x", "y"])
    gens = [tuple(sum((R.monomial(m, c) for m, c in t.items()), R.zero()) for t in v)
            for v in entries]
    mb = ModuleBasis(R, len(gens[0]), gens)
    assert all(mb.contains(g) for g in gens)
    for j, (pj, mj, cj) in enumerate(mb.leads):
        for i, (pi, mi, ci) in enumerate(mb.leads[:j]):
            if pi == pj:
                lcm = mono_lcm(mi, mj)
                qi, qj = mono_div(lcm, mi), mono_div(lcm, mj)
                assert mb.contains(tuple(a.mul_term(qi, 1 / ci) - b.mul_term(qj, 1 / cj)
                                         for a, b in zip(mb.basis[i], mb.basis[j])))


def solve_one(ring, columns, target, ideal_gens=()):
    """Reference: the one-target solver, one tagged module basis per target."""
    n, k = len(target), len(columns)
    mb = ModuleBasis(ring, n + k, _tagged_generators(ring, columns, n, ideal_gens))
    r = mb.normal_form(tuple(target) + vec_zero(ring, k))
    if not vec_is_zero(r[:n]):
        return None
    return tuple(-p for p in r[n:])


_IDEALS = {"none": [], "x^2": ["x^2"], "xy-1": ["x*y - 1"], "cusp": ["y^2 - x^3"]}
_small = st.dictionaries(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                         st.integers(-2, 2).filter(bool), min_size=1, max_size=2)


@st.composite
def module_systems(draw):
    """Columns in R^2 over QQ[x,y], an ideal, and targets that are either
    combinations of the columns or arbitrary vectors, in drawn order."""
    R = PolyRing(["x", "y"])

    def poly(terms):
        return sum((R.monomial(m, c) for m, c in terms.items()), R.zero())

    ideal = [R.parse(t) for t in _IDEALS[draw(st.sampled_from(sorted(_IDEALS)))]]
    cols = [tuple(map(poly, v))
            for v in draw(st.lists(st.tuples(_small, _small), min_size=1, max_size=3))]
    targets = []
    for in_image in draw(st.lists(st.booleans(), min_size=1, max_size=4)):
        if in_image:
            coeffs = [poly(t) for t in draw(st.lists(_small, min_size=len(cols),
                                                     max_size=len(cols)))]
            targets.append(tuple(sum((a * col[i] for a, col in zip(coeffs, cols)), R.zero())
                                 for i in range(2)))
        else:
            targets.append(tuple(map(poly, draw(st.tuples(_small, _small)))))
    return R, cols, ideal, targets


@given(module_systems())
@settings(max_examples=25, deadline=None, derandomize=True)
def test_solve_many_matches_one_basis_per_target(system):
    R, cols, ideal, targets = system
    sols = solve_many(R, cols, targets, ideal_gens=ideal)
    assert sols == [solve_one(R, cols, t, ideal) for t in targets]
    gb = groebner_basis(ideal)
    for t, sol in zip(targets, sols):
        if sol is not None:
            for i in range(2):
                lhs = sum((a * col[i] for a, col in zip(sol, cols)), R.zero())
                assert poly_reduce(lhs - t[i], gb).is_zero()


def test_solve_many_inconsistent_before_consistent():
    R = PolyRing(["x", "y"])
    x, y = R.gens()
    cols = [(x, y)]
    targets = [(R.one(), R.zero()), (x * x + x, x * y + y), (y, x), (x, y)]
    sols = solve_many(R, cols, targets)
    assert sols == [None, (x + 1,), None, (R.one(),)]
    assert sols == [solve_one(R, cols, t) for t in targets]
    assert solve_many(R, cols, []) == []
