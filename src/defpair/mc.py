"""Maurer-Cartan machinery over Artin coefficients: residuals, gauge action,
exact BCH products via operator exponentials, tangent/obstruction dimensions
and the cohomological isomorphism criterion for deformation functors.

Elements over an Artin algebra live in one of three concrete carriers, each
wrapped in a small context that exposes add/scale/d/bracket/is_zero:
  * TableContext    - finite-dimensional table DGLA with A-valued coefficients,
  * HomContext      - endomorphism complex over an extended ring R (x) A,
  * PairContext     - pair complex: the HomContext of its Hom* plus pairs,
                      which replace the graded maps of degree 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from . import matrices as mat
from .dgla import (GradedMap, HomComplexDGLA, PairChain, PairComplexDGLA,
                   TableDGLA, TElt, DGLAError)
from .pairs import exp_pair, exp_weight, log_auto, log_weight, nilpotent_series
from .rings import ArtinAlgebra, ExtendedRing


class MCError(ValueError):
    pass


# ---------------------------------------------------------------------------
# contexts
# ---------------------------------------------------------------------------

class TableContext:
    """Table DGLA with coefficients in an Artin algebra (elements of L (x) A;
    the maximal-ideal condition is checked on constant terms)."""

    def __init__(self, L: TableDGLA, A: ArtinAlgebra):
        self.L = L
        self.A = A

    def element(self, degree, coeffs) -> TElt:
        return self.L.element(degree, coeffs, self.A)

    def zero(self, degree) -> TElt:
        return self.L.zero(degree, self.A)

    def add(self, x, y):
        return self.L.add(x, y)

    def sub(self, x, y):
        return self.add(x, self.scale(Fraction(-1), y))

    def scale(self, c, x):
        return self.L.scale(c, x)

    def d(self, x):
        return self.L.d(x, self.A)

    def bracket(self, x, y):
        return self.L.bracket(x, y, self.A)

    def is_zero(self, x) -> bool:
        return self.L.is_zero(x)

    def degree(self, x) -> int:
        return x.degree

    def in_max_ideal(self, x) -> bool:
        return all(c.constant_term() == 0 for c in x.coeffs)

    # -- exact exponential bookkeeping via a registered faithful rep -------
    def _rep_matrix(self, x: TElt):
        if self.L.rep is None:
            raise MCError("no representation registered for this table DGLA")
        n = len(next(iter(self.L.rep.values())))
        acc = [[self.A.zero() for _ in range(n)] for _ in range(n)]
        for i, c in enumerate(x.coeffs):
            m = self.L.rep[i]
            for a in range(n):
                for b in range(n):
                    if m[a][b]:
                        acc[a][b] = acc[a][b] + c * m[a][b]
        return acc

    def _unrep(self, matrix) -> TElt:
        """Solve sum_i c_i rep_i = matrix for the coefficients c_i: one QQ
        system, with one right-hand side per coordinate in the monomial basis
        of A."""
        idx = sorted(self.L.rep)
        n = len(matrix)
        rows = [[self.L.rep[i][a][b] for i in idx] for a in range(n) for b in range(n)]
        rhs = [self.A.element_coords(matrix[a][b]) for a in range(n) for b in range(n)]
        sols = linalg.solve_many(rows, [[v[t] for v in rhs] for t in range(self.A.dim)])
        if None in sols:
            raise MCError("operator log left the representation image")
        out = [self.A.zero()] * self.L.dim(0)
        for pos, i in enumerate(idx):
            out[i] = self.A.element([sol[pos] for sol in sols])
        return TElt(0, tuple(out))

    def exp_action(self, x: TElt):
        if not self.in_max_ideal(x):
            raise MCError("exponential needs a maximal-ideal element")
        m = self._rep_matrix(x)
        return _mat_exp_nilpotent(self.A, m)

    def compose_actions(self, a, b):
        return mat.mat_mul(self.A, a, b)

    def log_action(self, a) -> TElt:
        return self._unrep(_mat_log_unipotent(self.A, a))


def _mat_series(ring, acc, v, right, weight):
    """acc + sum_{n>=1} weight(n) * v right^n over ring matrices."""
    return nilpotent_series(acc, v, lambda m: mat.mat_mul(ring, m, right), weight,
                            lambda x, y: mat.mat_add(ring, x, y),
                            lambda c, m: mat.mat_scale(ring, c, m),
                            mat.mat_is_zero)


def _mat_exp_nilpotent(ring, a):
    one = mat.identity_matrix(ring, len(a))
    return _mat_series(ring, one, one, a, exp_weight)


def _mat_log_unipotent(ring, a):
    delta = mat.mat_sub(ring, a, mat.identity_matrix(ring, len(a)))
    return _mat_series(ring, delta, delta, delta, lambda n: log_weight(n + 1))


class HomContext:
    """Endomorphism complex over an extended ring; elements are GradedMaps
    with entries in the maximal-ideal part for deformation data."""

    def __init__(self, H: HomComplexDGLA):
        self.H = H
        self.ring = H.ring
        if not isinstance(self.ring, ExtendedRing):
            raise MCError("Artin elements need a complex over an extended ring")

    def zero(self, degree):
        return self.H.zero(degree)

    def add(self, x, y):
        return self.H.add(x, y)

    def sub(self, x, y):
        return self.add(x, self.scale(-1, y))

    def scale(self, c, x):
        return self.H.scale(c, x)

    def d(self, x):
        return self.H.d(x)

    def bracket(self, x, y):
        return self.H.bracket(x, y)

    def is_zero(self, x) -> bool:
        return self.H.is_zero(x)

    def degree(self, x) -> int:
        return x.degree

    def in_max_ideal(self, x) -> bool:
        return all(self.ring.in_max_ideal(v) for _, m in x.blocks for row in m
                   for v in row)

    def exp_action(self, x: GradedMap) -> dict:
        """Blockwise matrix exponential of a degree-zero map."""
        if x.degree != 0:
            raise MCError("exponential of a non-degree-zero map")
        if not self.in_max_ideal(x):
            raise MCError("exponential needs maximal-ideal entries")
        out = {}
        for j in self.H.cx.degrees:
            r = self.H.cx.rank(j)
            b = x.block(j)
            out[j] = _mat_exp_nilpotent(self.ring, b) if b is not None \
                else mat.identity_matrix(self.ring, r)
        return out

    def compose_actions(self, a: dict, b: dict) -> dict:
        return {j: mat.mat_mul(self.ring, a[j], b[j]) for j in a}

    def log_action(self, a: dict) -> GradedMap:
        blocks = {j: _mat_log_unipotent(self.ring, m) for j, m in a.items()}
        return self.H.from_blocks(0, blocks)


class PairContext(HomContext):
    """Pair complex over an extended ring: the Hom context on D.hom, with
    degree-zero elements PairChains instead of graded maps."""

    def __init__(self, D: PairComplexDGLA):
        super().__init__(D.hom)
        self.D = D

    def zero(self, degree):
        return self.D.zero_pair() if degree == 0 else super().zero(degree)

    def degree(self, x) -> int:
        return 0 if isinstance(x, PairChain) else x.degree

    def add(self, x, y):
        xp, yp = isinstance(x, PairChain), isinstance(y, PairChain)
        if xp and yp:
            return self.D.add_pairs(x, y)
        if xp or yp:
            raise MCError("cannot add a pair to a plain graded map")
        return super().add(x, y)

    def scale(self, c, x):
        if isinstance(x, PairChain):
            # the anchor values scale as a one-row matrix
            (h,) = mat.mat_scale(self.ring, c, [x.h_values])
            return PairChain(tuple(h), super().scale(c, self.D.u_map(x)).blocks)
        return super().scale(c, x)

    def d(self, x):
        return self.D.d_pair(x) if isinstance(x, PairChain) else super().d(x)

    def bracket(self, x, y):
        xp, yp = isinstance(x, PairChain), isinstance(y, PairChain)
        if xp and yp:
            return self.D.bracket_pairs(x, y)
        if xp:
            return self.D.bracket_pair_hom(x, y)
        if yp:
            return self.H.neg(self.D.bracket_pair_hom(y, x))
        return super().bracket(x, y)

    def is_zero(self, x) -> bool:
        return self.D.is_zero_pair(x) if isinstance(x, PairChain) else super().is_zero(x)

    def in_max_ideal(self, x) -> bool:
        if isinstance(x, PairChain):
            return (all(self.ring.in_max_ideal(h) for h in x.h_values)
                    and super().in_max_ideal(self.D.u_map(x)))
        return super().in_max_ideal(x)

    # -- exponentials of degree-zero pairs ---------------------------------
    def exp_action(self, chain: PairChain) -> dict:
        """Per-degree automorphism pairs sharing the exponential of h."""
        out = {}
        for j in self.D.cx.degrees:
            if self.D.cx.rank(j) == 0:
                continue
            out[j] = exp_pair(self.D.degree_pair(chain, j))
        return out

    def compose_actions(self, a: dict, b: dict) -> dict:
        return {j: a[j].compose(b[j]) for j in a}

    def log_action(self, autos: dict) -> PairChain:
        h = None
        blocks = {}
        for j, auto in sorted(autos.items()):
            p = log_auto(auto)
            h = p.h_values
            blocks[j] = mat.mat_from_columns(self.ring, list(p.u_values),
                                             self.D.cx.rank(j))
        if h is None:
            return self.D.zero_pair()
        return self.D.pair_chain(h, blocks)


# ---------------------------------------------------------------------------
# Maurer-Cartan, gauge, BCH
# ---------------------------------------------------------------------------

def mc_residual(ctx, x):
    """dx + (1/2)[x, x]; the element is Maurer-Cartan iff this vanishes."""
    if ctx.degree(x) != 1:
        raise MCError("Maurer-Cartan elements have degree 1")
    return ctx.add(ctx.d(x), ctx.scale(Fraction(1, 2), ctx.bracket(x, x)))


def mc_check(ctx, x) -> bool:
    return ctx.is_zero(mc_residual(ctx, x))


def gauge_act(ctx, a, x, check: bool = True):
    """e^a * x = x + sum_{n>=0} ad_a^n([a,x] - da)/(n+1)!; exact and finite.

    When x is Maurer-Cartan the result is verified to be Maurer-Cartan too.
    """
    if ctx.degree(a) != 0 or ctx.degree(x) != 1:
        raise MCError("gauge needs a degree-0 actor and a degree-1 element")
    was_mc = mc_check(ctx, x) if check else False
    y = ctx.sub(ctx.bracket(a, x), ctx.d(a))
    acc = nilpotent_series(ctx.add(x, y), y, lambda t: ctx.bracket(a, t),
                           lambda n: exp_weight(n + 1), ctx.add, ctx.scale,
                           ctx.is_zero)
    if check and was_mc and not mc_check(ctx, acc):
        raise MCError("gauge action failed to preserve Maurer-Cartan")
    return acc


def bch(ctx, a, b):
    """a bullet b = log(exp a . exp b) through the context's operator action."""
    if ctx.degree(a) != 0 or ctx.degree(b) != 0:
        raise MCError("BCH product needs degree-0 elements")
    if not (ctx.in_max_ideal(a) and ctx.in_max_ideal(b)):
        raise MCError("BCH product needs maximal-ideal elements")
    return log_of_exps(ctx, [a, b])


def log_of_exps(ctx, terms):
    """log(exp t_1 o exp t_2 o ...) through the context's operator action:
    exp_action, compose_actions and log_action."""
    action = None
    for t in terms:
        e = ctx.exp_action(t)
        action = e if action is None else ctx.compose_actions(action, e)
    return ctx.log_action(action)


# ---------------------------------------------------------------------------
# tangent/obstruction dimensions and the isomorphism criterion
# ---------------------------------------------------------------------------

def tangent_obstruction(L) -> tuple:
    """(dim H^1, dim H^2) for anything exposing cohomology_dims()."""
    dims = L.cohomology_dims()
    return dims.get(1, 0), dims.get(2, 0)


@dataclass
class DGLAMorphism:
    """Degreewise linear map between table DGLAs, as QQ matrices."""

    source: TableDGLA
    target: TableDGLA
    maps: dict  # degree -> matrix (target.dim x source.dim)

    def matrix(self, k):
        rows, cols = self.target.dim(k), self.source.dim(k)
        m = self.maps.get(k, [[Fraction(0)] * cols for _ in range(rows)])
        if len(m) != rows or any(len(r) != cols for r in m):
            raise DGLAError(f"map at degree {k} is not {rows} x {cols}")
        return m

    def check_chain_map(self) -> bool:
        """d_target o f_k == f_{k+1} o d_source in every degree."""
        for k in set(self.source.dims) | set(self.target.dims):
            zero = [[Fraction(0)] * self.source.dim(k)
                    for _ in range(self.target.dim(k + 1))]
            # mat_mul gives [] when a factor has no rows: the zero map
            left = linalg.mat_mul(self.target.qcomplex().matrix(k), self.matrix(k))
            right = linalg.mat_mul(self.matrix(k + 1), self.source.qcomplex().matrix(k))
            if (left or zero) != (right or zero):
                return False
        return True

    def induced_cohomology_map(self, k):
        """Matrix of H^k(source) -> H^k(target) in representative bases."""
        return self.source.qcomplex().induced_map(self.target.qcomplex(), self.matrix(k), k)


def functor_iso_criterion(phi: DGLAMorphism) -> dict:
    """H^0 surjective, H^1 bijective, H^2 injective => isomorphism of the
    associated deformation functors.  Reports each condition and the verdict."""
    if not phi.check_chain_map():
        raise DGLAError("not a morphism of complexes")
    h0 = phi.induced_cohomology_map(0)
    h1 = phi.induced_cohomology_map(1)
    h2 = phi.induced_cohomology_map(2)
    h0_rows = len(h0)
    h0_surj = linalg.rank(h0) == h0_rows
    h1_rows, h1_cols = len(h1), len(h1[0]) if h1 else 0
    h1_bij = (h1_rows == h1_cols) and linalg.rank(h1) == h1_rows
    h2_cols = len(h2[0]) if h2 else 0
    h2_inj = linalg.rank(h2) == h2_cols
    return {"h0_surjective": h0_surj, "h1_bijective": h1_bij,
            "h2_injective": h2_inj,
            "isomorphism": h0_surj and h1_bij and h2_inj}
