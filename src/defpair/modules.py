"""Finitely presented modules over quotient rings, module maps, bounded free
complexes, Fitting ideals, free resolutions and Kaehler differentials.

A module is presented by generators and relation columns; elements are
coefficient vectors kept in module normal form (computed at the ambient
polynomial level, with the defining ideal folded into the relation
submodule; a free module reduces coordinate by coordinate), so equality of
elements is literal equality.  Sums and differences of normal forms are
normal forms (see `rings`).  `FPModule.solve` solves one system for many
right-hand sides at once.
"""

from __future__ import annotations

from typing import Iterable, Optional

from . import matrices as mat
from .groebner import (CapacityError, ModuleBasis, ideal_rows, solve_many,
                       syzygies, vec_is_zero)
from .rings import ArtinAlgebra, ExtendedRing, Ideal, QuotientRing, RingError, extend_ring


class ModuleError(ValueError):
    pass


def _check_rectangular(rows):
    if len({len(row) for row in rows}) > 1:
        raise ModuleError("matrix rows differ in length")


class FPModule:
    """R-module on `ngens` generators with the given relation columns."""

    def __init__(self, ring: QuotientRing, ngens: int, relations: Iterable = (),
                 tags: Optional[list] = None):
        self.ring = ring
        self.ngens = ngens
        rels = []
        for col in relations:
            col = tuple(ring.nf(p) for p in col)
            if len(col) != ngens:
                raise ModuleError("relation column has wrong length")
            rels.append(col)
        self.relations = rels
        self.tags = list(tags) if tags is not None else None
        if self.tags is not None and len(self.tags) != ngens:
            raise ModuleError("one tag per generator expected")
        self._mb = None

    # -- constructors ----------------------------------------------------
    @staticmethod
    def free(ring: QuotientRing, n: int, tags=None) -> "FPModule":
        return FPModule(ring, n, (), tags=tags)

    @staticmethod
    def cokernel(ring: QuotientRing, rows) -> "FPModule":
        """Module presented by the rows-matrix (columns are the relations)."""
        _check_rectangular(rows)
        return FPModule(ring, len(rows), zip(*rows))

    # -- normal forms ------------------------------------------------------
    def _module_basis(self) -> ModuleBasis:
        """Basis of the relations plus I*R^n; only a module with relations
        builds one."""
        if self._mb is None:
            amb = self.ring.ambient
            gens = list(self.relations) + ideal_rows(amb, self.ring.gb, self.ngens, self.ngens)
            self._mb = ModuleBasis(amb, self.ngens, gens, caps=self.ring.caps)
        return self._mb

    def nf(self, vec) -> tuple:
        vec = tuple(vec)
        if len(vec) != self.ngens:
            raise ModuleError("element vector has wrong length")
        if self.relations:
            return self._module_basis().normal_form(vec)
        # a free module reduces coordinate by coordinate
        return tuple(self.ring.nf(p) for p in vec)

    def zero(self) -> tuple:
        return tuple(self.ring.zero() for _ in range(self.ngens))

    def gen(self, i) -> tuple:
        e = tuple(self.ring.one() if j == i else self.ring.zero()
                  for j in range(self.ngens))
        # a unit vector is standard unless a relation has a constant lead entry
        return self.nf(e) if self.relations else e

    def element(self, coeffs) -> tuple:
        return self.nf(coeffs)

    def is_zero_elt(self, vec) -> bool:
        return vec_is_zero(self.nf(vec))

    def eq(self, u, v) -> bool:
        return self.nf(u) == self.nf(v)

    def scale(self, r, vec) -> tuple:
        return self.nf(tuple(r * p for p in vec))

    def add(self, u, v) -> tuple:
        return tuple(a + b for a, b in zip(u, v))

    def sub(self, u, v) -> tuple:
        return tuple(a - b for a, b in zip(u, v))

    def is_free_presentation(self) -> bool:
        return all(vec_is_zero(c) for c in self.relations)

    def presentation_matrix(self):
        """ngens x (number of relations) matrix whose columns are relations."""
        return mat.mat_from_columns(self.ring, self.relations, self.ngens)

    def solve(self, columns, targets) -> list:
        """Per target, coefficients a (reduced) with sum a_j*columns[j] ==
        target in the module, or None; one elimination serves all targets."""
        cols = list(columns) + list(self.relations)
        sols = solve_many(self.ring.ambient, cols, targets, ideal_gens=self.ring.gb,
                          caps=self.ring.caps)
        return [None if sol is None else tuple(self.ring.nf(p) for p in sol[:len(columns)])
                for sol in sols]

    def submodule_contains(self, columns, target) -> bool:
        return self.solve(columns, [target])[0] is not None

    def __repr__(self):
        return f"FPModule({self.ring!r}, gens={self.ngens}, rels={len(self.relations)})"


class ModuleMap:
    """R-linear map between finitely presented modules, by a matrix on
    generators (column j = image of source generator j)."""

    def __init__(self, source: FPModule, target: FPModule, matrix):
        self.source = source
        self.target = target
        if source.ring != target.ring:
            raise ModuleError("source and target live over different rings")
        self.ring = source.ring
        if len(matrix) != target.ngens and target.ngens > 0:
            raise ModuleError("matrix row count != target generators")
        if target.ngens == 0:
            matrix = []
        self.matrix = [[self.ring.nf(x) for x in row] for row in matrix]
        for row in self.matrix:
            if len(row) != source.ngens:
                raise ModuleError("matrix column count != source generators")

    @staticmethod
    def identity(m: FPModule) -> "ModuleMap":
        return ModuleMap(m, m, mat.identity_matrix(m.ring, m.ngens))

    @staticmethod
    def zero(source: FPModule, target: FPModule) -> "ModuleMap":
        return ModuleMap(source, target,
                         mat.zero_matrix(source.ring, target.ngens, source.ngens))

    def column(self, j) -> tuple:
        return tuple(row[j] for row in self.matrix)

    def apply(self, vec) -> tuple:
        if self.target.ngens == 0:
            return ()
        return self.target.nf(mat.mat_vec(self.ring, self.matrix, tuple(vec)))

    def is_well_defined(self):
        """None when source relations land in target relations, else witness."""
        for j, col in enumerate(self.source.relations):
            if self.target.ngens == 0:
                continue
            img = mat.mat_vec(self.ring, self.matrix, col) if self.matrix else ()
            if not self.target.is_zero_elt(img):
                return j
        return None

    def check(self) -> "ModuleMap":
        j = self.is_well_defined()
        if j is not None:
            raise ModuleError(f"map does not respect source relation {j}")
        return self

    def compose(self, inner: "ModuleMap") -> "ModuleMap":
        """self o inner."""
        if inner.target is not self.source and inner.target.ngens != self.source.ngens:
            raise ModuleError("composition shape mismatch")
        return ModuleMap(inner.source, self.target,
                         mat.mat_mul(self.ring, self.matrix, inner.matrix))

    def is_zero_map(self) -> bool:
        return all(self.target.is_zero_elt(self.column(j))
                   for j in range(self.source.ngens))

    def __repr__(self):
        return f"ModuleMap({self.source.ngens}->{self.target.ngens} over {self.ring!r})"


def kernel_of_module_map(f: ModuleMap):
    """Kernel of f as an FPModule, together with its inclusion map.

    Generators come from the syzygies of the image columns against the
    target relations; the relations of the kernel are the syzygies of those
    generators back in the source.
    """
    ring = f.ring
    amb = ring.ambient
    src, tgt = f.source, f.target
    img_cols = [f.column(j) for j in range(src.ngens)]
    combined = img_cols + list(tgt.relations)
    gens = []
    if tgt.ngens == 0:
        # everything maps to zero: kernel generated by the source generators
        gens = [src.gen(i) for i in range(src.ngens)]
    else:
        for s in syzygies(amb, combined, ideal_gens=ring.gb, caps=ring.caps):
            v = src.nf(s[:src.ngens])
            if not vec_is_zero(v):
                gens.append(v)
    # dedupe generators that already lie in the span of the previous ones
    kept = []
    for v in gens:
        if kept and src.submodule_contains(kept, v):
            continue
        kept.append(v)
    rel_cols = list(src.relations)
    rels = []
    if kept:
        for s in syzygies(amb, kept + rel_cols, ideal_gens=ring.gb, caps=ring.caps):
            head = tuple(ring.nf(p) for p in s[:len(kept)])
            if not vec_is_zero(head):
                rels.append(head)
    K = FPModule(ring, len(kept), rels)
    incl = ModuleMap(K, src, mat.mat_from_columns(ring, kept, src.ngens)).check()
    return K, incl


def fitting_ideal(M: FPModule, i: int) -> Ideal:
    """The i-th Fitting ideal: (ngens - i)-minors of the presentation matrix.

    Size <= 0 gives the unit ideal, size exceeding the matrix dimensions the
    zero ideal.
    """
    ring = M.ring
    size = M.ngens - i
    if size <= 0:
        return ring.ideal([ring.one()])
    a = M.presentation_matrix()
    nrows, ncols = M.ngens, len(M.relations)
    if size > min(nrows, ncols):
        return ring.ideal([])
    return ring.ideal([x for row in mat.exterior_matrix(ring, a, size) for x in row])


def fitting_chain(M: FPModule) -> list:
    """[Fitt_0, ..., Fitt_ngens]; raises if the chain fails to ascend."""
    chain = [fitting_ideal(M, i) for i in range(M.ngens + 1)]
    for i in range(len(chain) - 1):
        if not chain[i + 1].contains_ideal(chain[i]):
            raise ModuleError(f"Fitting chain broken at index {i}")
    return chain


def exterior_power(f: ModuleMap, i: int) -> ModuleMap:
    """Induced map on i-th exterior powers of free modules."""
    if not (f.source.is_free_presentation() and f.target.is_free_presentation()):
        raise ModuleError("exterior powers only for maps of free modules")
    from math import comb
    ring = f.ring
    rows = mat.exterior_matrix(ring, f.matrix, i) if i <= max(f.source.ngens, f.target.ngens) else []
    src = FPModule.free(ring, comb(f.source.ngens, i))
    tgt = FPModule.free(ring, comb(f.target.ngens, i))
    if tgt.ngens == 0 or src.ngens == 0:
        return ModuleMap.zero(src, tgt)
    return ModuleMap(src, tgt, rows)


class FreeComplex:
    """Bounded cochain complex of free modules, d: E^k -> E^{k+1}.

    ranks maps degree -> rank; diffs maps degree k -> matrix of d_k with
    shape ranks[k+1] x ranks[k].  d o d = 0 is checked exactly on build.
    """

    def __init__(self, ring: QuotientRing, ranks: dict, diffs: dict):
        self.ring = ring
        self.ranks = {d: r for d, r in ranks.items() if r > 0}
        self.diffs = {}
        for k, a in diffs.items():
            _check_rectangular(a)
            rows = self.rank(k + 1)
            cols = self.rank(k)
            if rows == 0 or cols == 0:
                continue
            if mat.mat_shape(a) != (rows, cols):
                raise ModuleError(f"differential at degree {k} has wrong shape")
            self.diffs[k] = [[ring.nf(x) for x in row] for row in a]
        for k in list(self.diffs):
            if k + 1 in self.diffs:
                sq = mat.mat_mul(ring, self.diffs[k + 1], self.diffs[k])
                if not mat.mat_is_zero(sq):
                    raise ModuleError(f"d o d != 0 between degrees {k} and {k + 2}")

    @property
    def degrees(self):
        return sorted(self.ranks)

    @property
    def lo(self):
        return min(self.ranks) if self.ranks else 0

    @property
    def hi(self):
        return max(self.ranks) if self.ranks else 0

    def rank(self, k) -> int:
        return self.ranks.get(k, 0)

    def diff(self, k):
        """Matrix of d: E^k -> E^{k+1} (zero matrix when absent)."""
        if k in self.diffs:
            return self.diffs[k]
        return mat.zero_matrix(self.ring, self.rank(k + 1), self.rank(k))

    def module(self, k) -> FPModule:
        return FPModule.free(self.ring, self.rank(k))

    @staticmethod
    def single(ring, rank, degree=0) -> "FreeComplex":
        return FreeComplex(ring, {degree: rank}, {})

    @staticmethod
    def two_term(ring, matrix, lo=-1) -> "FreeComplex":
        """E^{lo} -> E^{lo+1} given by `matrix` (rows x cols)."""
        rows, cols = mat.mat_shape(matrix)
        return FreeComplex(ring, {lo: cols, lo + 1: rows}, {lo: matrix})

    def __repr__(self):
        parts = ", ".join(f"{d}:{self.rank(d)}" for d in self.degrees)
        return f"FreeComplex({parts})"


def free_resolution(M: FPModule, max_length: Optional[int] = None):
    """Finite free resolution ... -> E^-1 -> E^0 ->> M by iterated syzygies.

    Returns (FreeComplex, augmentation ModuleMap E^0 -> M).  Raises
    CapacityError when the cap is reached before the kernel terminates.
    """
    ring = M.ring
    if max_length is None:
        max_length = ring.nvars + 1
    amb = ring.ambient
    ranks = {0: M.ngens}
    diffs = {}
    current = [c for c in M.relations if not vec_is_zero(c)]
    k = 0
    while current:
        k -= 1
        if -k > max_length:
            raise CapacityError(f"resolution cap exceeded at length {max_length}")
        ranks[k] = len(current)
        diffs[k] = mat.mat_from_columns(ring, current, ranks[k + 1])
        nxt = []
        for s in syzygies(amb, current, ideal_gens=ring.gb, caps=ring.caps):
            v = tuple(ring.nf(p) for p in s)
            if not vec_is_zero(v):
                nxt.append(v)
        current = nxt
    cx = FreeComplex(ring, ranks, diffs)
    aug = ModuleMap(cx.module(0), M, mat.identity_matrix(ring, M.ngens)).check()
    return cx, aug


def kaehler_differentials(R: QuotientRing) -> FPModule:
    """Module of differentials: generators dx_i, relations the Jacobian
    columns of the defining relations; tags record the generator names."""
    tags = [f"d{v}" for v in R.variables]
    cols = []
    for g in R.relations:
        cols.append(tuple(R.nf(g.diff(i)) for i in range(R.nvars)))
    return FPModule(R, R.nvars, cols, tags=tags)


# -- scalar extension ------------------------------------------------------

def tensor_with_artin(obj, A: ArtinAlgebra):
    """Extend scalars of a ring, module or complex by an Artin algebra."""
    if isinstance(obj, ExtendedRing):
        raise RingError("object is already an extension")
    if isinstance(obj, QuotientRing):
        return extend_ring(obj, A)
    if isinstance(obj, FPModule):
        E = extend_ring(obj.ring, A)
        rels = [tuple(E.from_base(p) for p in col) for col in obj.relations]
        return FPModule(E, obj.ngens, rels, tags=obj.tags)
    if isinstance(obj, FreeComplex):
        E = extend_ring(obj.ring, A)
        diffs = {k: [[E.from_base(x) for x in row] for row in a]
                 for k, a in obj.diffs.items()}
        return FreeComplex(E, dict(obj.ranks), diffs)
    raise TypeError(f"cannot extend {type(obj).__name__}")
