"""FP modules, maps, Fitting ideals, resolutions, differentials."""

import pytest

from defpair import groebner
from defpair.groebner import CapacityError
from defpair.matrices import (det, exterior_matrix, identity_matrix, mat_eq,
                              mat_inverse, mat_mul, mat_is_zero)
from defpair.modules import (FPModule, FreeComplex, ModuleError, ModuleMap,
                             exterior_power, fitting_chain, fitting_ideal,
                             free_resolution, kaehler_differentials,
                             kernel_of_module_map, tensor_with_artin)
from defpair.poly import PolyRing
from defpair.rings import QuotientRing, make_artin_algebra


def QQ(*names):
    return QuotientRing(PolyRing(names))


@pytest.fixture
def Rx():
    return QQ("x")


@pytest.fixture
def M_xx2(Rx):
    # R/(x) + R/(x^2) presented by diag(x, x^2)
    x = Rx.var(0)
    return FPModule.cokernel(Rx, [[x, Rx.zero()], [Rx.zero(), x * x]])


def test_element_normal_forms(Rx, M_xx2):
    x = Rx.var(0)
    e1, e2 = M_xx2.gen(0), M_xx2.gen(1)
    assert M_xx2.is_zero_elt(M_xx2.scale(x, e1))
    assert not M_xx2.is_zero_elt(M_xx2.scale(x, e2))
    assert M_xx2.is_zero_elt(M_xx2.scale(x * x, e2))
    assert M_xx2.eq(M_xx2.element((x + 1, x ** 3 + x)), M_xx2.element((Rx.one(), x)))


def test_fitting_ideals_cyclic(Rx, M_xx2):
    x = Rx.var(0)
    f0, f1, f2 = (fitting_ideal(M_xx2, i) for i in range(3))
    assert f0.same_as(Rx.ideal([x ** 3]))
    assert f1.same_as(Rx.ideal([x]))
    assert f2.is_unit_ideal()
    chain = fitting_chain(M_xx2)
    assert len(chain) == 3


def test_fitting_free_module(Rx):
    M = FPModule.free(Rx, 1)
    assert fitting_ideal(M, 0).is_zero_ideal()
    assert fitting_ideal(M, 1).is_unit_ideal()


def test_fitting_point():
    R = QQ("x", "y")
    x, y = R.gens()
    M = FPModule.cokernel(R, [[x, y]])
    assert fitting_ideal(M, 0).same_as(R.ideal([x, y]))


def test_fitting_presentation_independent(Rx, M_xx2):
    # add a redundant generator g3 = e1 with the extra relation g3 - e1 = 0
    x = Rx.var(0)
    z, o = Rx.zero(), Rx.one()
    N = FPModule(Rx, 3, [
        (x, z, z), (z, x * x, z),          # original relations
        (o, z, -o),                        # g3 = e1
        (x, z, z),                         # x*g3 = 0 carried over
    ])
    for i in range(3):
        assert fitting_ideal(N, i).same_as(fitting_ideal(M_xx2, i))


def test_module_map_checks(Rx, M_xx2):
    x = Rx.var(0)
    R1 = FPModule.free(Rx, 1)
    f = ModuleMap(R1, M_xx2, [[x], [x]])
    f.check()
    # multiplication by x on R/(x^2) is fine; sending 1 to e1-basis over R/(x)
    # fails only if relations are violated
    Rmodx = FPModule.cokernel(Rx, [[x]])
    with pytest.raises(ModuleError):
        ModuleMap(Rmodx, R1, [[Rx.one()]]).check()  # 1*x != 0 in R


def test_kernel_of_multiplication(Rx):
    x = Rx.var(0)
    R1 = FPModule.free(Rx, 1)
    f = ModuleMap(R1, R1, [[x * x]])
    K, incl = kernel_of_module_map(f)
    assert K.ngens == 0  # domain, injective


def test_kernel_koszul():
    R = QQ("x", "y")
    x, y = R.gens()
    R2 = FPModule.free(R, 2)
    R1 = FPModule.free(R, 1)
    f = ModuleMap(R2, R1, [[x, y]])
    K, incl = kernel_of_module_map(f)
    assert K.ngens == 1
    g = incl.column(0)
    # generator is (y, -x) up to sign/scale
    assert R1.is_zero_elt((g[0] * x + g[1] * y,))
    assert R2.submodule_contains([g], (y, -x))


def test_kernel_zero_map(Rx):
    x = Rx.var(0)
    M = FPModule.cokernel(Rx, [[x * x]])
    f = ModuleMap.zero(M, M)
    K, incl = kernel_of_module_map(f)
    # kernel is all of M: the generator of M lies in the image of incl
    cols = [incl.column(j) for j in range(K.ngens)]
    assert M.submodule_contains(cols, M.gen(0))


def test_exterior_power_determinant(Rx):
    x = Rx.var(0)
    R2 = FPModule.free(Rx, 2)
    f = ModuleMap(R2, R2, [[x, Rx.zero()], [Rx.zero(), x * x]])
    w = exterior_power(f, 2)
    assert w.matrix[0][0] == x ** 3
    assert mat_eq(exterior_power(f, 1).matrix, f.matrix)


def test_exterior_power_identity_and_singular(Rx):
    x = Rx.var(0)
    R3 = FPModule.free(Rx, 3)
    ident = ModuleMap.identity(R3)
    assert mat_eq(exterior_power(ident, 2).matrix, identity_matrix(Rx, 3))
    R2 = FPModule.free(Rx, 2)
    nil = ModuleMap(R2, R2, [[Rx.zero(), Rx.one()], [Rx.zero(), Rx.zero()]])
    assert exterior_power(nil, 2).matrix[0][0].is_zero()


def test_exterior_functoriality():
    import random
    R = QQ("x", "y")
    x, y = R.gens()
    rng = random.Random(11)

    def rand_mat(n):
        return [[R.ambient.monomial((rng.randint(0, 1), rng.randint(0, 1)),
                                    rng.randint(-2, 2)) for _ in range(n)]
                for _ in range(n)]

    R3 = FPModule.free(R, 3)
    for _ in range(5):
        f = ModuleMap(R3, R3, rand_mat(3))
        g = ModuleMap(R3, R3, rand_mat(3))
        lhs = exterior_power(g.compose(f), 2)
        rhs = exterior_power(g, 2).compose(exterior_power(f, 2))
        assert mat_eq(lhs.matrix, rhs.matrix)


def test_free_resolution_principal(Rx):
    x = Rx.var(0)
    M = FPModule.cokernel(Rx, [[x * x]])
    cx, aug = free_resolution(M)
    assert cx.ranks == {0: 1, -1: 1}
    assert cx.diff(-1)[0][0] == x * x


def test_free_resolution_koszul():
    R = QQ("x", "y")
    x, y = R.gens()
    M = FPModule.cokernel(R, [[x, y]])
    cx, aug = free_resolution(M)
    assert cx.ranks == {0: 1, -1: 2, -2: 1}
    # composition is zero and the middle matrix is the Koszul one
    assert mat_is_zero(mat_mul(R, cx.diff(-1), cx.diff(-2)))


def test_resolution_exactness_two_sided():
    # kernel of d_{-1} equals the image of d_{-2}, both containments
    from defpair.groebner import syzygies
    from defpair.matrices import mat_col
    R = QQ("x", "y")
    x, y = R.gens()
    M = FPModule.cokernel(R, [[x, y * y]])
    cx, _ = free_resolution(M)
    d1, d2 = cx.diff(-1), cx.diff(-2)
    mid = FPModule.free(R, cx.rank(-1))
    img_cols = [mat_col(d2, j) for j in range(cx.rank(-2))]
    ker_gens = syzygies(R.ambient, [mat_col(d1, j) for j in range(cx.rank(-1))])
    for s in ker_gens:
        assert mid.submodule_contains(img_cols, tuple(R.nf(p) for p in s))
    for col in img_cols:
        assert mid.submodule_contains([tuple(s) for s in ker_gens], col)


def test_free_resolution_free_module(Rx):
    M = FPModule.free(Rx, 2)
    cx, aug = free_resolution(M)
    assert cx.ranks == {0: 2}


def test_resolution_cap(Rx):
    # over QQ[x]/(x^2) the residue field has an infinite resolution
    amb = PolyRing(["x"])
    R = QuotientRing(amb, [amb.parse("x^2")])
    x = R.var(0)
    M = FPModule.cokernel(R, [[x]])
    with pytest.raises(CapacityError):
        free_resolution(M, max_length=4)


def test_kaehler_cusp():
    amb = PolyRing(["x", "y"])
    R = QuotientRing(amb, [amb.parse("y^2 - x^3")])
    O = kaehler_differentials(R)
    assert O.ngens == 2
    assert O.tags == ["dx", "dy"]
    col = O.relations[0]
    assert col[0] == R.parse("-3*x^2") and col[1] == R.parse("2*y")


def test_kaehler_free():
    R = QQ("x")
    assert kaehler_differentials(R).relations == []
    R2 = QQ("x", "y")
    assert kaehler_differentials(R2).ngens == 2


def test_free_complex_dd_zero(Rx):
    x = Rx.var(0)
    with pytest.raises(ModuleError):
        FreeComplex(Rx, {-1: 1, 0: 1, 1: 1},
                    {-1: [[x]], 0: [[x]]})  # x*x != 0


def test_tensor_with_artin(Rx):
    x = Rx.var(0)
    A = make_artin_algebra(["e"], ["e^2"])
    M = FPModule.cokernel(Rx, [[x * x]])
    MA = tensor_with_artin(M, A)
    E = MA.ring
    e = E.from_artin(A.var(0))
    xx = E.from_base(x)
    # x^2 * gen still zero upstairs; e*x^2*gen too
    assert MA.is_zero_elt((xx * xx,))
    assert MA.is_zero_elt((e * xx * xx,))
    assert not MA.is_zero_elt((e * xx,))
    # complexes stay complexes
    cx, _ = free_resolution(M)
    cxA = tensor_with_artin(cx, A)
    assert cxA.ranks == cx.ranks


def test_matrix_inverse():
    R = QQ("s", "w")
    amb = R.ambient
    L = QuotientRing(amb, [amb.parse("s*w - 1")])
    s, w = L.gens()
    a = [[s, L.zero()], [L.one(), L.one()]]
    inv = mat_inverse(L, a)
    assert inv is not None
    assert mat_eq(mat_mul(L, a, inv), identity_matrix(L, 2))
    assert mat_inverse(L, [[s, L.zero()], [L.zero(), L.zero()]]) is None


@pytest.fixture
def basis_builds(monkeypatch):
    """Counts the module Groebner bases built while the test runs."""
    count = [0]
    init = groebner.ModuleBasis.__init__

    def counted(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(groebner.ModuleBasis, "__init__", counted)
    return count


def test_matrix_inverse_builds_one_basis(basis_builds):
    # the transition of D(O(1)) on P1: every column of the inverse comes
    # from one elimination of the same system
    amb = PolyRing(("s", "t"))
    L = QuotientRing(amb, [amb.parse("s*t - 1")])
    s, t = L.gens()
    a = [[-s * s, L.zero()], [s, L.one()]]
    inv = mat_inverse(L, a)
    assert basis_builds[0] == 1
    assert inv == [[-t * t, L.zero()], [t, L.one()]]


def test_free_module_normal_forms_build_no_basis(basis_builds):
    amb = PolyRing(("x", "y"))
    cusp = QuotientRing(amb, [amb.parse("y^2 - x^3")])
    x, y = amb.gens()
    F = FPModule.free(cusp, 2)
    v = (y ** 3 + x, x * y ** 2 - 1)
    assert F.nf(v) == tuple(cusp.nf(p) for p in v)
    assert F.gen(1) == (cusp.zero(), cusp.one())
    assert basis_builds[0] == 0
    # the same normal form as against the basis of I*R^2
    assert F.nf(v) == F._module_basis().normal_form(v)


def test_solve_takes_every_target_at_once(Rx, M_xx2, basis_builds):
    x = Rx.var(0)
    cols = [(x, Rx.zero())]
    targets = [M_xx2.gen(0), (Rx.zero(), x), (x * x, x ** 3)]
    basis_builds[0] = 0
    sols = M_xx2.solve(cols, targets)
    assert basis_builds[0] == 1
    # in R/(x) + R/(x^2) the column (x, 0) is zero: it reaches only zero
    assert sols[:2] == [None, None]
    (a,) = sols[2]
    assert M_xx2.eq((a * x, Rx.zero()), targets[2])


@pytest.mark.parametrize("rows", [
    [["x", "x"], ["x"]],
    [["x"], ["x", "x"]],
    [[], ["x"]],
])
def test_ragged_matrices_are_rejected(Rx, rows):
    rows = [[Rx.parse(t) for t in row] for row in rows]
    with pytest.raises(ModuleError, match="rows differ in length"):
        FPModule.cokernel(Rx, rows)
    with pytest.raises(ModuleError, match="rows differ in length"):
        FreeComplex.two_term(Rx, rows)
