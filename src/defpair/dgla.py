"""Differential graded Lie algebras: finite-dimensional table algebras,
endomorphism complexes of bounded free complexes, and their pair-enhanced
versions whose degree-zero part consists of pairs (h, U): one anchor h, a
derivation of the ring, shared by one matrix U_j per degree.

Sign conventions, fixed once: the differential on graded maps is
delta(f) = d o f - (-1)^{|f|} f o d, and the bracket is the graded commutator
[f, g] = f o g - (-1)^{|f||g|} g o f.  A degree-zero pair acts as its u-part
plus its anchor on entries, [(h, U), f] = [U, f] + h(f), and
delta = [d, -]; every pair operation is the Hom* operation on the u-parts
plus the anchor acting entrywise.  The anchor is validated once, where a pair
is built, and Z^0 is the kernel of delta.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import linalg
from . import matrices as mat
from .groebner import solve_many, syzygies
from .modules import FPModule, FreeComplex, ModuleMap
from .pairs import (DerivationPair, PairError, anchor_count, check_anchor,
                    check_derivation_pair, pair_law, tensor_hom_transfer, trace_pair)
from .poly import PolyRing, Polynomial
from .rings import QuotientRing


class DGLAError(ValueError):
    pass


# ---------------------------------------------------------------------------
# finite-dimensional QQ-complexes
# ---------------------------------------------------------------------------

@dataclass
class QComplex:
    """Cochain complex of finite-dimensional QQ-spaces.

    maps[k] is the matrix of d: C^k -> C^{k+1} (rows x cols =
    dims[k+1] x dims[k]).  A QComplex is immutable once built: it computes
    the rank of each map and the cohomology basis of each degree once.
    `induced_map` is the map on cohomology along a chain map.
    """

    dims: dict
    maps: dict
    _ranks: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _bases: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for k, a in self.maps.items():
            rows = self.dims.get(k + 1, 0)
            cols = self.dims.get(k, 0)
            if a and (len(a) != rows or (a and len(a[0]) != cols)):
                raise DGLAError(f"map at degree {k} has wrong shape")
        for k in self.maps:
            if k + 1 in self.maps and self.maps[k] and self.maps[k + 1]:
                prod = linalg.mat_mul(self.maps[k + 1], self.maps[k])
                if any(x != 0 for row in prod for x in row):
                    raise DGLAError(f"d o d != 0 at degree {k}")

    def matrix(self, k):
        rows = self.dims.get(k + 1, 0)
        cols = self.dims.get(k, 0)
        if k in self.maps and self.maps[k]:
            return self.maps[k]
        return [[Fraction(0)] * cols for _ in range(rows)]

    def rank(self, k) -> int:
        """Rank of d: C^k -> C^{k+1}."""
        if k not in self._ranks:
            nonzero = self.dims.get(k, 0) and self.dims.get(k + 1, 0)
            self._ranks[k] = linalg.rank(self.matrix(k)) if nonzero else 0
        return self._ranks[k]

    def cohomology_dim(self, k) -> int:
        dk = self.dims.get(k, 0)
        return dk - self.rank(k) - self.rank(k - 1) if dk else 0

    def cohomology(self):
        return {k: self.cohomology_dim(k) for k in sorted(self.dims)}

    def _boundary_rows(self, k):
        """d(e_j) for the basis e_j of C^{k-1}, as rows of length dims[k]."""
        if not self.dims.get(k - 1, 0):
            return []
        dm = self.matrix(k - 1)
        return [[dm[i][j] for i in range(self.dims.get(k, 0))]
                for j in range(self.dims[k - 1])]

    def cohomology_basis(self, k):
        """Representatives of a basis of H^k as coordinate vectors: the
        kernel vectors outside the span of the boundaries and the kernel
        vectors before them, i.e. the pivot columns of one rref of the
        columns [boundaries | kernel]."""
        if k in self._bases:
            return self._bases[k]
        dk = self.dims.get(k, 0)
        reps = []
        if dk:
            if self.dims.get(k + 1, 0):
                kernel = linalg.nullspace(self.matrix(k))
            else:
                kernel = [list(r) for r in linalg.identity(dk)]
            boundaries = self._boundary_rows(k)
            if kernel:
                _, pivots = linalg.rref([list(col) for col in zip(*boundaries, *kernel)])
                nb = len(boundaries)
                reps = [kernel[c - nb] for c in pivots if c >= nb]
        self._bases[k] = reps
        return reps

    def cohomology_coords(self, k, cocycles):
        """Column j holds the coordinates of the class of cocycles[j] in the
        basis cohomology_basis(k); raises DGLAError on a non-cocycle."""
        reps = self.cohomology_basis(k)
        system = [list(col) for col in zip(*(reps + self._boundary_rows(k)))]
        sols = linalg.solve_many(system, list(cocycles))
        if None in sols:
            raise DGLAError("vector is not a cocycle of the complex")
        return [[sol[i] for sol in sols] for i in range(len(reps))]

    def induced_map(self, target: "QComplex", matrix, k):
        """Matrix of H^k(self) -> H^k(target) in the representative bases,
        for the chain map whose degree-k matrix is `matrix`."""
        images = [linalg.mat_vec(matrix, v) for v in self.cohomology_basis(k)]
        return target.cohomology_coords(k, images)


def complex_cohomology(dims: dict, maps: dict):
    """Dimensions and representative bases of a finite QQ-complex."""
    cx = QComplex(dims, maps)
    return {k: (cx.cohomology_dim(k), cx.cohomology_basis(k))
            for k in sorted(dims)}


# ---------------------------------------------------------------------------
# table DGLAs (finite-dimensional layers, explicit structure constants)
# ---------------------------------------------------------------------------

TRIVIAL_COEFF_RING = QuotientRing(PolyRing(()))


@dataclass(frozen=True)
class TElt:
    """Graded element of a TableDGLA; coeffs live in a coefficient ring
    (the trivial ring for plain elements, an Artin algebra for tensored ones)."""
    degree: int
    coeffs: tuple


class TableDGLA:
    """DGLA with finite-dimensional graded pieces given by bases and tables.

    dims: degree -> dimension.  diff: degree -> QQ matrix.  bracket:
    (deg_i, deg_j) -> {(a, b): coefficient vector in degree i+j} with entries
    only for the stored (i, j) order; the graded-skew images are derived.
    A faithful matrix representation of degree 0 can be registered to enable
    exact exponential bookkeeping.
    """

    def __init__(self, dims: dict, diff: Optional[dict] = None,
                 bracket: Optional[dict] = None, rep: Optional[dict] = None):
        self.dims = {k: d for k, d in dims.items() if d > 0}
        self.diff = diff or {}
        self.bracket_table = bracket or {}
        self.rep = rep
        self._qcomplex = QComplex(dict(self.dims),
                                  {k: m for k, m in self.diff.items() if m})

    def dim(self, k) -> int:
        return self.dims.get(k, 0)

    def degrees(self):
        return sorted(self.dims)

    # -- element helpers, generic over the coefficient ring ---------------
    def zero(self, degree, ring=TRIVIAL_COEFF_RING) -> TElt:
        return TElt(degree, tuple(ring.zero() for _ in range(self.dim(degree))))

    def basis_elt(self, degree, i, ring=TRIVIAL_COEFF_RING) -> TElt:
        c = [ring.zero()] * self.dim(degree)
        c[i] = ring.one()
        return TElt(degree, tuple(c))

    def element(self, degree, coeffs, ring=TRIVIAL_COEFF_RING) -> TElt:
        return TElt(degree, tuple(ring.nf(c) if isinstance(c, Polynomial) else ring.const(c)
                                  for c in coeffs))

    def add(self, x: TElt, y: TElt) -> TElt:
        if x.degree != y.degree:
            raise DGLAError("degree mismatch in sum")
        return TElt(x.degree, tuple(a + b for a, b in zip(x.coeffs, y.coeffs)))

    def scale(self, c, x: TElt) -> TElt:
        return TElt(x.degree, tuple(c * a for a in x.coeffs))

    def is_zero(self, x: TElt) -> bool:
        return all(a.is_zero() for a in x.coeffs)

    def d(self, x: TElt, ring=TRIVIAL_COEFF_RING) -> TElt:
        dm = self.diff.get(x.degree)
        out = self.zero(x.degree + 1, ring)
        if not dm:
            return out
        coeffs = list(out.coeffs)
        for i in range(self.dim(x.degree + 1)):
            acc = ring.zero()
            for j, c in enumerate(x.coeffs):
                acc = acc + c * dm[i][j]
            coeffs[i] = acc
        return TElt(x.degree + 1, tuple(coeffs))

    def _basis_bracket(self, di, dj, a, b):
        """Coefficient vector of [e_a^{di}, e_b^{dj}] in degree di+dj."""
        tgt = self.dim(di + dj)
        if (di, dj) in self.bracket_table:
            vec = self.bracket_table[(di, dj)].get((a, b))
            return list(vec) if vec is not None else [Fraction(0)] * tgt
        if (dj, di) in self.bracket_table:
            vec = self.bracket_table[(dj, di)].get((b, a))
            if vec is None:
                return [Fraction(0)] * tgt
            sign = -Fraction((-1) ** (di * dj))
            return [sign * v for v in vec]
        return [Fraction(0)] * tgt

    def bracket(self, x: TElt, y: TElt, ring=TRIVIAL_COEFF_RING) -> TElt:
        deg = x.degree + y.degree
        coeffs = [ring.zero()] * self.dim(deg)
        for a, ca in enumerate(x.coeffs):
            if ca.is_zero():
                continue
            for b, cb in enumerate(y.coeffs):
                if cb.is_zero():
                    continue
                vec = self._basis_bracket(x.degree, y.degree, a, b)
                for t, v in enumerate(vec):
                    if v:
                        coeffs[t] = coeffs[t] + ca * cb * v
        return TElt(deg, tuple(ring.nf(c) for c in coeffs))

    def qcomplex(self) -> QComplex:
        """The underlying QQ-complex, built and checked once."""
        return self._qcomplex

    def cohomology_dims(self):
        return self.qcomplex().cohomology()


AXIOM_SAMPLE_CAP = 12


def check_dgla_axioms(L: TableDGLA, seed: int = 0) -> dict:
    """Evaluate the four DG-Lie axioms; exhaustive on basis tuples below
    AXIOM_SAMPLE_CAP basis elements per degree (larger degrees are sampled),
    with seeded random two-term combinations for the quadratic ones.
    Returns a report dict; failures are reported, never raised."""
    failures = []
    degs = L.degrees()
    rng = random.Random(seed)

    def basis(deg):
        n = L.dim(deg)
        idx = range(n) if n <= AXIOM_SAMPLE_CAP else rng.sample(range(n), AXIOM_SAMPLE_CAP)
        return [L.basis_elt(deg, i) for i in idx]

    # graded skewsymmetry
    for i in degs:
        for j in degs:
            if L.dim(i + j) == 0:
                continue
            for x in basis(i):
                for y in basis(j):
                    lhs = L.bracket(x, y)
                    rhs = L.scale(-Fraction((-1) ** (i * j)), L.bracket(y, x))
                    if lhs.coeffs != rhs.coeffs:
                        failures.append(("skewsymmetry", i, j, x, y))
    # [x,x] = 0 in even degree, [x,[x,x]] = 0 in odd degree
    for i in degs:
        for _ in range(4):
            coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(L.dim(i))]
            x = L.element(i, coeffs)
            if i % 2 == 0:
                if not L.is_zero(L.bracket(x, x)):
                    failures.append(("square-even", i, x))
            else:
                if not L.is_zero(L.bracket(x, L.bracket(x, x))):
                    failures.append(("cube-odd", i, x))
    # graded Jacobi
    for i in degs:
        for j in degs:
            for k in degs:
                if L.dim(i + j + k) == 0:
                    continue
                for x in basis(i):
                    for y in basis(j):
                        for z in basis(k):
                            lhs = L.bracket(x, L.bracket(y, z))
                            rhs = L.add(
                                L.bracket(L.bracket(x, y), z),
                                L.scale(Fraction((-1) ** (i * j)),
                                        L.bracket(y, L.bracket(x, z))))
                            if lhs.coeffs != rhs.coeffs:
                                failures.append(("jacobi", i, j, k))
    # graded Leibniz
    for i in degs:
        for j in degs:
            if L.dim(i + j + 1) == 0:
                continue
            for x in basis(i):
                for y in basis(j):
                    lhs = L.d(L.bracket(x, y))
                    rhs = L.add(L.bracket(L.d(x), y),
                                L.scale(Fraction((-1) ** i), L.bracket(x, L.d(y))))
                    if lhs.coeffs != rhs.coeffs:
                        failures.append(("leibniz", i, j))
    return {"passed": not failures, "failures": failures}


def abelian_dgla(dims: dict, diff: Optional[dict] = None) -> TableDGLA:
    return TableDGLA(dims, diff=diff, bracket={})


def pro_representability_check(L: TableDGLA) -> dict:
    """The finite-dimensional criterion: is N^0 -> H^0 surjective, where
    N^0 = {x in L^0 : dx = 0 and [x, L^1] = 0}?"""
    n0 = L.dim(0)
    d0 = L.diff.get(0)
    # constraints on x in L^0: dx = 0 and [x, e_b] = 0 for each basis e_b of L^1
    constraint_rows = []
    if d0:
        for r in d0:
            constraint_rows.append(list(r))
    for b in range(L.dim(1)):
        e = L.basis_elt(1, b)
        for t in range(L.dim(1)):
            row = []
            for a in range(n0):
                x = L.basis_elt(0, a)
                row.append(Fraction(L.bracket(x, e).coeffs[t].constant_term()))
            constraint_rows.append(row)
    if n0 == 0:
        return {"satisfied": True, "reason": "H^0 = 0 vacuously",
                "N0_dim": 0, "H0_dim": 0}
    N0 = linalg.nullspace(constraint_rows) if constraint_rows else \
        [list(r) for r in linalg.identity(n0)]
    qc = L.qcomplex()
    h0 = qc.cohomology_dim(0)
    reps = qc.cohomology_basis(0)
    # surjectivity: every H^0 representative is an N^0 class mod image
    span = [list(v) for v in N0] + qc._boundary_rows(0)
    surjective = linalg.rank(span) == linalg.rank(span + reps)
    return {"satisfied": surjective, "N0_dim": len(N0), "H0_dim": h0}


# ---------------------------------------------------------------------------
# endomorphism complexes of bounded free complexes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GradedMap:
    """Element of Hom^p(E*, E*): blocks[j] is the matrix E^j -> E^{j+p}."""
    degree: int
    blocks: tuple  # tuple of (source_degree, matrix)

    def block(self, j):
        for src, m in self.blocks:
            if src == j:
                return m
        return None


class HomComplexDGLA:
    """Hom*(E*, E*) for a bounded free complex, with delta = [d, -]."""

    def __init__(self, cx: FreeComplex):
        self.cx = cx
        self.ring = cx.ring
        self.dmap = GradedMap(1, tuple((j, cx.diff(j)) for j in cx.degrees
                                       if cx.rank(j) and cx.rank(j + 1)))

    def component_rank(self, p) -> int:
        return sum(self.cx.rank(j) * self.cx.rank(j + p) for j in self.cx.degrees)

    def degrees(self):
        lo, hi = self.cx.lo, self.cx.hi
        return list(range(lo - hi, hi - lo + 1))

    # -- elements ----------------------------------------------------------
    def zero(self, p) -> GradedMap:
        blocks = []
        for j in self.cx.degrees:
            if self.cx.rank(j) and self.cx.rank(j + p):
                blocks.append((j, mat.zero_matrix(self.ring, self.cx.rank(j + p),
                                                  self.cx.rank(j))))
        return GradedMap(p, tuple(blocks))

    def from_blocks(self, p, blocks: dict) -> GradedMap:
        """The map with the given blocks; their entries are normal forms."""
        out = []
        for j in sorted(blocks):
            if self.cx.rank(j) and self.cx.rank(j + p):
                out.append((j, blocks[j]))
        return GradedMap(p, tuple(out))

    def basis_maps(self, p):
        """Elementary matrix generators of Hom^p, deterministic order."""
        out = []
        for j in self.cx.degrees:
            rj, rt = self.cx.rank(j), self.cx.rank(j + p)
            for a in range(rt):
                for b in range(rj):
                    m = mat.zero_matrix(self.ring, rt, rj)
                    m[a][b] = self.ring.one()
                    out.append(self.from_blocks(p, {j: m}))
        return out

    def add(self, f: GradedMap, g: GradedMap) -> GradedMap:
        if f.degree != g.degree:
            raise DGLAError("degree mismatch")
        blocks = {}
        for src, m in f.blocks:
            blocks[src] = m
        for src, m in g.blocks:
            blocks[src] = mat.mat_add(self.ring, blocks[src], m) if src in blocks else m
        return self.from_blocks(f.degree, blocks)

    def scale(self, c, f: GradedMap) -> GradedMap:
        return self.from_blocks(f.degree,
                                {src: mat.mat_scale(self.ring, c, m)
                                 for src, m in f.blocks})

    def neg(self, f: GradedMap) -> GradedMap:
        return self.scale(-1, f)

    def is_zero(self, f: GradedMap) -> bool:
        return all(mat.mat_is_zero(m) for _, m in f.blocks)

    def eq(self, f: GradedMap, g: GradedMap) -> bool:
        return self.is_zero(self.add(f, self.neg(g)))

    def compose(self, f: GradedMap, g: GradedMap) -> GradedMap:
        """f o g as graded maps."""
        blocks = {}
        for j in self.cx.degrees:
            gj = g.block(j)
            fj = f.block(j + g.degree)
            if gj is not None and fj is not None:
                blocks[j] = mat.mat_mul(self.ring, fj, gj)
        return self.from_blocks(f.degree + g.degree, blocks)

    def bracket(self, f: GradedMap, g: GradedMap) -> GradedMap:
        gf = self.compose(g, f)
        odd = f.degree * g.degree % 2
        return self.add(self.compose(f, g), gf if odd else self.neg(gf))

    def d(self, f: GradedMap) -> GradedMap:
        """delta(f) = d o f - (-1)^{|f|} f o d."""
        right = self.compose(f, self.dmap)
        return self.add(self.compose(self.dmap, f), right if f.degree % 2 else self.neg(right))

    def trace(self, f: GradedMap):
        """Alternating-sign trace; zero in degree != 0."""
        if f.degree != 0:
            return self.ring.zero()
        acc = self.ring.zero()
        for j, m in f.blocks:
            t = mat.mat_trace(self.ring, m)
            acc = acc + t * ((-1) ** (j % 2))
        return acc


def hom_complex_dgla(cx: FreeComplex) -> HomComplexDGLA:
    return HomComplexDGLA(cx)


# ---------------------------------------------------------------------------
# pair complexes: Hom* with the degree-zero part replaced by pairs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairChain:
    """Degree-zero element of the pair complex: a common anchor h and one
    u-matrix per degree (column i = u_j(e_i) coordinates)."""
    h_values: tuple
    blocks: tuple  # (degree, matrix)

    def block(self, j):
        for src, m in self.blocks:
            if src == j:
                return m
        return None


class PairComplexDGLA:
    """D*(R, E*): Hom^i for i != 0, pairs with common anchor in degree 0.

    A degree-zero pair a = (h, U) is its u-part U = u_map(a) in Hom^0 plus
    the anchor h acting on entries: [a, f] = [U, f] + h(f) for a graded map
    f, delta(a) = -[a, d], and on a coefficient vector u_j(v) = U_j v + h(v).
    The anchor is validated once, in `pair_chain`.
    """

    def __init__(self, ring: QuotientRing, cx: FreeComplex):
        if cx.ring != ring:
            raise DGLAError("complex lives over a different ring")
        self.ring = ring
        self.cx = cx
        self.hom = HomComplexDGLA(cx)

    # -- constructors ------------------------------------------------------
    def pair_chain(self, h_values, blocks: dict) -> PairChain:
        """The pair (h, U) with U_j = blocks[j], zero where no block is
        given.  Raises PairError on an invalid anchor (`check_anchor`) and
        DGLAError on a block that is not rank(j) x rank(j)."""
        ring = self.ring
        h = check_anchor(ring, h_values)
        for j, m in blocks.items():
            r = self.cx.rank(j)
            if len(m) != r or any(len(row) != r for row in m):
                raise DGLAError(f"block at degree {j} is not {r} x {r}")
        out = []
        for j in self.cx.degrees:
            r = self.cx.rank(j)
            if r:
                m = blocks.get(j)
                out.append((j, mat.zero_matrix(ring, r, r) if m is None
                            else [[ring.nf(x) for x in row] for row in m]))
        return PairChain(h, tuple(out))

    def from_hom(self, f: GradedMap) -> PairChain:
        """Degree-zero R-linear maps embedded as anchor-zero pairs."""
        if f.degree != 0:
            raise DGLAError("only degree-zero maps embed as pairs")
        return self.pair_chain(self._zero_anchor(), dict(f.blocks))

    def zero_pair(self) -> PairChain:
        return self.pair_chain(self._zero_anchor(), {})

    def anchor_lift(self, h_values) -> PairChain:
        """Witness for anchor surjectivity: (h, zero values per degree)."""
        return self.pair_chain(h_values, {})

    def _zero_anchor(self) -> tuple:
        return tuple(self.ring.zero() for _ in range(self.ring.nvars))

    def u_map(self, chain: PairChain) -> GradedMap:
        """The u-part of a pair as a degree-zero graded map."""
        return GradedMap(0, chain.blocks)

    def degree_pair(self, chain: PairChain, j) -> DerivationPair:
        """The pair (h, u_j) on E^j.  Not validated again: E^j is free, the
        blocks are normal forms and `pair_chain` checked the anchor."""
        return DerivationPair(self.ring, self.cx.module(j), chain.h_values,
                              tuple(zip(*chain.block(j))))

    # -- operations: Hom* on the u-part, the anchor on entries ---------------
    def _derive(self, h_values, f: GradedMap) -> GradedMap:
        """h applied to every entry of f."""
        return GradedMap(f.degree, tuple((j, mat.mat_derive(self.ring, h_values, m))
                                         for j, m in f.blocks))

    def apply_chain(self, chain: PairChain, j, vec):
        """u_j applied to a coefficient vector of E^j: U_j vec + h(vec), the
        pair law with the columns of U_j as u-values."""
        R = self.ring
        law = pair_law(R, chain.h_values, tuple(zip(*(chain.block(j) or []))), vec)
        return tuple(R.nf(x) for x in law)

    def add_pairs(self, a: PairChain, b: PairChain) -> PairChain:
        return PairChain(tuple(x + y for x, y in zip(a.h_values, b.h_values)),
                         self.hom.add(self.u_map(a), self.u_map(b)).blocks)

    def neg_pair(self, a: PairChain) -> PairChain:
        return PairChain(tuple(-x for x in a.h_values), self.hom.neg(self.u_map(a)).blocks)

    def pair_eq(self, a: PairChain, b: PairChain) -> bool:
        return a.h_values == b.h_values and self.u_map(a) == self.u_map(b)

    def d_pair(self, chain: PairChain) -> GradedMap:
        """delta of a degree-zero pair: -[a, d], blocks d_j U_j - U_{j+1} d_j
        - h(d_j)."""
        return self.hom.neg(self.bracket_pair_hom(chain, self.hom.dmap))

    def bracket_pairs(self, a: PairChain, b: PairChain) -> PairChain:
        """([h, k], [U, V] + h(V) - k(U))."""
        R = self.ring
        h, k = a.h_values, b.h_values
        anchor = tuple(R.apply_derivation(h, y) - R.apply_derivation(k, x)
                       for x, y in zip(h, k))
        U, V = self.u_map(a), self.u_map(b)
        u = self.hom.add(self.hom.bracket(U, V),
                         self.hom.add(self._derive(h, V), self.hom.neg(self._derive(k, U))))
        return PairChain(anchor, u.blocks)

    def bracket_pair_hom(self, a: PairChain, f: GradedMap) -> GradedMap:
        """[a, f] = [U, f] + h(f) for a degree-zero pair and a graded
        R-linear map."""
        return self.hom.add(self.hom.bracket(self.u_map(a), f),
                            self._derive(a.h_values, f))

    # -- Z^0 and H^0 bookkeeping --------------------------------------------
    def z0_generators(self):
        """Generators of the chain pairs (h, u_*) commuting with d: the
        kernel of delta, with h killing the relations of R.

        One syzygy system over the unit pairs: the unit anchors (A-linear
        ones over an extended ring), then the matrix units of each degree,
        column after column.  Each column holds h(relations), then delta of
        the unit pair, block after block, column after column.
        """
        R = self.ring
        n = anchor_count(R)
        zero_h = self._zero_anchor()
        ranks = [(j, self.cx.rank(j)) for j in self.cx.degrees if self.cx.rank(j)]
        units = [PairChain(zero_h[:i] + (R.one(),) + zero_h[i + 1:], ()) for i in range(n)]
        for j, r in ranks:
            for i in range(r):
                for t in range(r):
                    m = mat.zero_matrix(R, r, r)
                    m[t][i] = R.one()
                    units.append(PairChain(zero_h, ((j, m),)))
        cols = []
        for unit in units:
            col = [R.apply_derivation(unit.h_values, g) for g in R.relations]
            col.extend(x for _, m in self.d_pair(unit).blocks for c in zip(*m) for x in c)
            cols.append(tuple(col))
        out = []
        for s in syzygies(R.ambient, cols, ideal_gens=R.gb, caps=R.caps):
            blocks, pos = {}, n
            for j, r in ranks:
                blocks[j] = [[s[pos + i * r + t] for i in range(r)] for t in range(r)]
                pos += r * r
            # pair_chain reduces the solver's tag coordinates
            chain = self.pair_chain(s[:n] + zero_h[n:], blocks)
            if not self.is_zero_pair(chain):
                out.append(chain)
        return out

    def is_zero_pair(self, a: PairChain) -> bool:
        return all(h.is_zero() for h in a.h_values) and self.hom.is_zero(self.u_map(a))

    def coboundaries_into_degree0(self):
        """delta images of the Hom^{-1} basis, embedded as anchor-zero pairs."""
        out = []
        for f in self.hom.basis_maps(-1):
            out.append(self.from_hom(self.hom.d(f)))
        return out

    def induced_pair_on_cokernel(self, chain: PairChain, aug: ModuleMap) -> DerivationPair:
        """Push a chain pair to the augmentation target module.

        Generator images go through deterministic preimages under the
        augmentation; for chain pairs the result is independent of the
        choice.
        """
        M = aug.target
        P0 = self.cx.module(0)
        cols = [aug.column(j) for j in range(P0.ngens)]
        pres = M.solve(cols, [M.gen(t) for t in range(M.ngens)])
        if None in pres:
            raise PairError("augmentation is not surjective")
        u_values = [aug.apply(self.apply_chain(chain, 0, pre)) for pre in pres]
        return check_derivation_pair(self.ring, M, chain.h_values, tuple(u_values))


def pair_complex_dgla(R: QuotientRing, cx: FreeComplex) -> PairComplexDGLA:
    return PairComplexDGLA(R, cx)


# ---------------------------------------------------------------------------
# trace morphism and the trace diagram
# ---------------------------------------------------------------------------

@dataclass
class TraceData:
    """The trace on Hom* and its pair-level extension to the determinant line."""

    source: PairComplexDGLA

    def pair_trace(self, chain: PairChain) -> DerivationPair:
        """Compose per-degree pair traces, transposing odd degrees, into the
        determinant line (a rank-one free module)."""
        ring = self.source.ring
        cx = self.source.cx
        acc = None
        for j in cx.degrees:
            if cx.rank(j) == 0:
                continue
            pj = self.source.degree_pair(chain, j)
            tj = trace_pair(pj)
            if j % 2:
                tj = tensor_hom_transfer(tj, None, "transpose")
            acc = tj if acc is None else tensor_hom_transfer(acc, tj, "tensor")
        if acc is None:
            line = FPModule.free(ring, 1)
            return check_derivation_pair(ring, line, chain.h_values, (line.zero(),))
        return acc

    def diagram_checks(self) -> dict:
        """Exact commutativity of the trace diagram on basis elements."""
        src = self.source
        ring = src.ring
        failures = []
        # degree != 0: trace vanishes
        for p in src.hom.degrees():
            if p == 0 or src.hom.component_rank(p) == 0:
                continue
            for f in src.hom.basis_maps(p):
                if not src.hom.trace(f).is_zero():
                    failures.append(("nonzero-trace-off-degree", p))
        # degree 0 square: pair-trace of an embedded hom map equals its
        # alternating trace embedded in the determinant line
        for f in src.hom.basis_maps(0):
            chain = src.from_hom(f)
            traced = self.pair_trace(chain)
            expected = src.hom.trace(f)
            if any(not v.is_zero() for v in traced.h_values):
                failures.append(("anchor-moved", f))
            if traced.u_values[0][0] != expected:
                failures.append(("square-broken", f))
        return {"passed": not failures, "failures": failures}

    def anchor_preserved(self, chain: PairChain) -> bool:
        traced = self.pair_trace(chain)
        return traced.h_values == chain.h_values


def trace_morphism(R: QuotientRing, cx: FreeComplex) -> TraceData:
    return TraceData(pair_complex_dgla(R, cx))


# ---------------------------------------------------------------------------
# the exact sequences attached to a split exact sequence of free modules
# ---------------------------------------------------------------------------

@dataclass
class SplitSequenceData:
    ring: QuotientRing
    K: FPModule
    P: FPModule
    M: FPModule
    alpha: ModuleMap
    beta: ModuleMap
    L_generators: list      # pairs on P preserving alpha(K)
    p_images: list          # beta u alpha per D(R,P) generator
    reports: dict


def split_sequence_pairs(alpha: ModuleMap, beta: ModuleMap) -> SplitSequenceData:
    """Maps and exactness certificates for a short exact sequence of free
    modules 0 -> K -> P -> M -> 0 (exactness is verified first)."""
    R = alpha.ring
    K, P, M = alpha.source, alpha.target, beta.target
    if beta.source is not P:
        raise DGLAError("composable maps expected")
    if K.relations or P.relations or M.relations:
        raise DGLAError("free modules expected")
    comp = beta.compose(alpha)
    if not comp.is_zero_map():
        raise DGLAError("beta o alpha != 0")
    # one solve certifies surjectivity and gives the section
    sigma = _section_of(beta)
    if sigma is None:
        raise DGLAError("beta is not surjective")
    # alpha injective and im alpha = ker beta, checked via syzygies
    amb = R.ambient
    acols = [alpha.column(j) for j in range(K.ngens)]
    for s in syzygies(amb, acols, ideal_gens=R.gb, caps=R.caps):
        if any(not R.nf(x).is_zero() for x in s):
            raise DGLAError("alpha is not injective")
    bcols = [beta.column(j) for j in range(P.ngens)]
    kernel = [tuple(R.nf(x) for x in s)
              for s in syzygies(amb, bcols, ideal_gens=R.gb, caps=R.caps)]
    if None in P.solve(acols, kernel):
        raise DGLAError("ker beta exceeds im alpha")
    # generators of D(R, P): anchor lifts (h, 0) plus matrix units
    from .pairs import derivation_pair_module
    DP = derivation_pair_module(R, P)
    # map p: D(R,P) -> Hom(K, M), p(h, u) = beta u alpha, as the columns
    # p(g)(e_t) over M, once per generator
    p_images = [[beta.apply(g.apply_u(col)) for col in acols] for g in DP.generators]
    # L = pairs preserving alpha(K): the D(R, P) generators with p = 0,
    # each kept or dropped on its own
    L_gens = [g for g, cols in zip(DP.generators, p_images)
              if all(M.is_zero_elt(c) for c in cols)]
    reports = {}
    # surjectivity of p: every elementary Hom(K,M) generator is reached
    flat_cols = []
    for cols in p_images:
        flat = []
        for c in cols:
            flat.extend(c)
        flat_cols.append(tuple(flat))
    units = []
    for a in range(M.ngens):
        for b in range(K.ngens):
            target = [R.zero()] * (M.ngens * K.ngens)
            target[b * M.ngens + a] = R.one()
            units.append(tuple(target))
    reports["p_surjective"] = None not in solve_many(amb, flat_cols, units,
                                                     ideal_gens=R.gb, caps=R.caps)
    # surjectivity of L -> D(R, M): anchors h of D(R,M) generators lift into L
    DM = derivation_pair_module(R, M)
    lift_ok = True
    for g in DM.generators:
        # candidate lift: v(e) = sigma(u(beta(e))) degreewise on generators
        u_values = []
        for i in range(P.ngens):
            w = g.apply_u(beta.apply(P.gen(i)))
            u_values.append(mat.mat_vec(R, sigma, w))
        try:
            lifted = check_derivation_pair(R, P, g.h_values, tuple(u_values))
        except PairError:
            lift_ok = False
            continue
        for t in range(K.ngens):
            if not M.is_zero_elt(beta.apply(lifted.apply_u(acols[t]))):
                lift_ok = False
    reports["L_to_DM_surjective"] = lift_ok
    return SplitSequenceData(R, K, P, M, alpha, beta, L_gens, p_images, reports)


def _section_of(beta: ModuleMap):
    """Matrix of a section sigma with beta o sigma = id (free modules), or
    None when beta is not surjective."""
    R = beta.ring
    P, M = beta.source, beta.target
    cols = [beta.column(j) for j in range(P.ngens)]
    sig_cols = M.solve(cols, [M.gen(i) for i in range(M.ngens)])
    if None in sig_cols:
        return None
    return mat.mat_from_columns(R, sig_cols, P.ngens)
