"""Derivations and automorphisms of pairs (ring, module).

A derivation of the pair (R, M) is a couple (h, u): h a derivation of R and
u an additive endomorphism of M with u(r*m) - r*u(m) = h(r)*m.  Both maps are
stored by their values on generators.  On a coefficient vector the pair acts
by the pair law, `pair_law`: u(v) = sum_j v_j*u(e_j) + h(v).  It is the one
place that formula is written: `apply_u`, the relation checks of derivation
and automorphism pairs, and the linear systems all use it.

D(R, M) is the kernel of one linear system over unit pairs: the unit anchors
h = e_i, then the matrix units u(e_b) = e_a, b-major.  Each column is the law
of a unit pair on the relations of R and of M, next to M's relations placed
in each block.  Hom_R(M, M) is its kernel without the anchors, Der(R) is
D(R, 0), and `lift_anchor` solves it for u over a given anchor.

Over an extension R (x) A by an Artin local algebra, pairs with values in the
maximal-ideal part are nilpotent; their exponentials are automorphism pairs
(theta, phi) with phi(r*m) = theta(r)*phi(m), and exp/log are mutually
inverse truncating series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import factorial
from typing import Optional

from . import matrices as mat
from .groebner import (CapacityError, syzygies, solve_in_image, solve_many,
                       vec_is_zero, vec_scale)
from .modules import (FPModule, FreeComplex, ModuleMap, fitting_ideal,
                      kaehler_differentials)
from .poly import Polynomial
from .rings import ExtendedRing, QuotientRing


class PairError(ValueError):
    pass


# ---------------------------------------------------------------------------
# derivation pairs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DerivationPair:
    """(h, u) stored by h(x_i) per ring variable and u(e_j) per generator."""

    ring: QuotientRing
    module: FPModule
    h_values: tuple
    u_values: tuple  # one module element (coefficient tuple) per generator

    def apply_h(self, p):
        return self.ring.apply_derivation(self.h_values, p)

    def apply_u(self, vec):
        """u on a coefficient vector, by the pair law."""
        return self.module.nf(pair_law(self.ring, self.h_values, self.u_values, vec))

    def is_zero(self) -> bool:
        return (all(p.is_zero() for p in self.h_values)
                and all(self.module.is_zero_elt(v) for v in self.u_values))

    def anchor(self) -> tuple:
        return self.h_values

    def neg(self) -> "DerivationPair":
        return DerivationPair(self.ring, self.module,
                              tuple(-p for p in self.h_values),
                              tuple(tuple(-c for c in v) for v in self.u_values))

    def scale(self, r) -> "DerivationPair":
        return DerivationPair(
            self.ring, self.module,
            tuple(self.ring.nf(r * p) for p in self.h_values),
            tuple(self.module.scale(r, v) for v in self.u_values))

    def add(self, other: "DerivationPair") -> "DerivationPair":
        return DerivationPair(
            self.ring, self.module,
            tuple(a + b for a, b in zip(self.h_values, other.h_values)),
            tuple(self.module.add(u, v) for u, v in zip(self.u_values, other.u_values)))

    def sub(self, other: "DerivationPair") -> "DerivationPair":
        return self.add(other.neg())

    def eq(self, other: "DerivationPair") -> bool:
        return (self.h_values == other.h_values
                and all(self.module.eq(u, v)
                        for u, v in zip(self.u_values, other.u_values)))


def pair_law(R: QuotientRing, h_values, u_values, vec) -> tuple:
    """The pair (h, u) on a coefficient vector, unreduced:
    sum_j vec_j * u(e_j) + h(vec), with h acting on each coordinate."""
    out = [R.apply_derivation(h_values, a) for a in vec]
    for a, u in zip(vec, u_values):
        if not a.is_zero():
            out = [x + a * c for x, c in zip(out, u)]
    return tuple(out)


def anchor_count(R: QuotientRing) -> int:
    """The variables an anchor may move: over an extended ring R (x) A
    anchors are A-linear, so only the base variables, which come first."""
    return R.base.nvars if isinstance(R, ExtendedRing) else R.nvars


def check_anchor(R: QuotientRing, h_values) -> tuple:
    """The anchor h in normal form; raises PairError unless h has one value
    per ring variable, is A-linear over an extended ring (its values past
    `anchor_count` vanish) and kills the relations of R."""
    h_values = tuple(R.nf(p) for p in h_values)
    if len(h_values) != R.nvars:
        raise PairError("h needs one value per ring variable")
    for i in range(anchor_count(R), R.nvars):
        if not h_values[i].is_zero():
            raise PairError(f"not A-linear: h({R.variables[i]}) != 0")
    witness = R.derivation_well_defined(h_values)
    if witness is not None:
        raise PairError(f"not a derivation of R: h does not kill {witness}")
    return h_values


def check_derivation_pair(R: QuotientRing, M: FPModule, h_values, u_values) -> DerivationPair:
    """Validate the generator data of a pair; raises PairError with a witness.

    The anchor is checked by `check_anchor`.
    """
    h_values = check_anchor(R, h_values)
    u_values = tuple(M.nf(v) for v in u_values)
    if len(u_values) != M.ngens:
        raise PairError("u needs one value per module generator")
    pair = DerivationPair(R, M, h_values, u_values)
    for l, col in enumerate(M.relations):
        if not vec_is_zero(pair.apply_u(col)):
            raise PairError(f"pair condition fails at relation {l}")
    return pair


def zero_pair(R: QuotientRing, M: FPModule) -> DerivationPair:
    return DerivationPair(R, M, tuple(R.zero() for _ in range(R.nvars)),
                          tuple(M.zero() for _ in range(M.ngens)))


def canonical_pair(R: QuotientRing, h_values) -> DerivationPair:
    """(h, h) on M = R (rank-one free); h must be a derivation of R.

    Stored by generator values: u(1) = h(1) = 0, the pair law recovers h.
    """
    M = FPModule.free(R, 1)
    return check_derivation_pair(R, M, h_values, ((R.zero(),),))


def pair_bracket(p: DerivationPair, q: DerivationPair) -> DerivationPair:
    """Componentwise commutator [(h,u),(k,v)] = ([h,k],[u,v])."""
    if p.ring != q.ring or p.module is not q.module:
        if p.module.ngens != q.module.ngens or p.module.relations != q.module.relations:
            raise PairError("bracket of pairs on different carriers")
    R, M = p.ring, p.module
    h = tuple(p.apply_h(q.h_values[i]) - q.apply_h(p.h_values[i])
              for i in range(R.nvars))
    u = tuple(M.sub(p.apply_u(q.u_values[j]), q.apply_u(p.u_values[j]))
              for j in range(M.ngens))
    return check_derivation_pair(R, M, h, u)


def check_arrow_pair(f: ModuleMap, p: DerivationPair, q: DerivationPair) -> tuple:
    """Validate a derivation of the arrow M1 -> M2: shared anchor and
    f u1 = u2 f, checked exactly on the source generators."""
    if p.h_values != q.h_values:
        raise PairError("anchor mismatch on the two ends of the arrow")
    for i in range(f.source.ngens):
        lhs = f.apply(p.apply_u(f.source.gen(i)))
        rhs = q.apply_u(f.apply(f.source.gen(i)))
        if not f.target.eq(lhs, rhs):
            raise PairError(f"arrow compatibility fails at generator {i}")
    return (p, q)


def derivation_module(R: QuotientRing) -> list:
    """Generators of Der(R) as h-value tuples: the anchors of D(R, 0)."""
    return [p.h_values for p in _pair_kernel(R, FPModule(R, 0))]


@dataclass
class PairModule:
    """Generators of D(R, M) with the anchor-sequence bookkeeping."""

    ring: QuotientRing
    module: FPModule
    generators: list          # DerivationPair
    hom_generators: list      # anchor-zero pairs spanning Hom_R(M, M)
    der_generators: list      # h-value tuples spanning Der(R)

    def contains(self, pair: DerivationPair) -> Optional[tuple]:
        """Coefficients over the generators, or None."""
        R, M = self.ring, self.module
        cols = [p.h_values + _flat_u(p) for p in self.generators]
        cols += _relation_slots(R, M, R.nvars)
        sol = solve_in_image(R.ambient, cols, pair.h_values + _flat_u(pair),
                             ideal_gens=R.gb, caps=R.caps)
        if sol is None:
            return None
        return tuple(R.nf(p) for p in sol[:len(self.generators)])

    def exactness_report(self) -> dict:
        """Checks 0 -> Hom(M,M) -> D(R,M) -> Der(R) exactness at the middle."""
        R, M = self.ring, self.module
        hom_ok = all(all(p.is_zero() for p in g.h_values)
                     for g in self.hom_generators)
        # anchor-kernel generators: solve anchor == 0 inside the span
        kernel = [p for p in self.generators
                  if all(v.is_zero() for v in p.h_values)]
        witness = None
        if M.ngens:
            hom_cols = [_flat_u(g) for g in self.hom_generators]
            hom_cols += _relation_slots(R, M, 0)
            sols = solve_many(R.ambient, hom_cols, [_flat_u(p) for p in kernel],
                              ideal_gens=R.gb, caps=R.caps)
            for p, sol in zip(kernel, sols):
                if sol is None:
                    witness = p
        return {"hom_has_zero_anchor": hom_ok,
                "anchor_kernel_in_hom": witness is None,
                "witness": witness}


def _flat_u(p: DerivationPair) -> tuple:
    """The u-values of a pair, generator after generator."""
    return tuple(x for u in p.u_values for x in u)


def _relation_slots(R: QuotientRing, M: FPModule, offset: int) -> list:
    """M's relations placed in each u-slot of flattened vectors whose u-part
    starts at `offset`: u-values are defined modulo them."""
    k = M.ngens
    out = []
    for col in M.relations:
        for j in range(k):
            pad = [R.zero()] * (offset + k * k)
            pad[offset + j * k:offset + (j + 1) * k] = col
            out.append(tuple(pad))
    return out


def _law_column(R: QuotientRing, M: FPModule, h_values, u_values) -> tuple:
    """h on the relations of R, then the pair law on each relation of M."""
    col = tuple(R.apply_derivation(h_values, g) for g in R.relations)
    for rel in M.relations:
        col += pair_law(R, h_values, u_values, rel)
    return col


def _pair_system(R: QuotientRing, M: FPModule, anchors: bool = True) -> list:
    """Columns of the linear system whose kernel is D(R, M).

    One column per unit pair -- the unit anchors h = e_i for the first
    `anchor_count` variables (left out when `anchors` is false), then the
    matrix units u(e_b) = e_a, b-major --
    holding its `_law_column`.  Then come M's relations placed in each block
    of M's relations, since the law's values there are defined modulo them.
    """
    n, k = R.nvars, M.ngens
    zero, one = R.zero(), R.one()
    zero_u = ((zero,) * k,) * k
    units = [(tuple(one if j == i else zero for j in range(n)), zero_u)
             for i in range(anchor_count(R))] if anchors else []
    units += [((zero,) * n,
               tuple(tuple(one if (t, c) == (b, a) else zero for c in range(k))
                     for t in range(k)))
              for b in range(k) for a in range(k)]
    cols = [_law_column(R, M, h, u) for h, u in units]
    pad, blank, m = (zero,) * len(R.relations), (zero,) * k, len(M.relations)
    cols += [pad + blank * l + rel + blank * (m - 1 - l)
             for l in range(m) for rel in M.relations]
    return cols


def _pair_kernel(R: QuotientRing, M: FPModule, anchors: bool = True) -> list:
    """The nonzero pairs read off the syzygies of the pair system: D(R, M),
    or Hom_R(M, M) without the anchors."""
    n, k = (anchor_count(R) if anchors else 0), M.ngens
    zero_h = tuple(R.zero() for _ in range(R.nvars))
    out = []
    for s in syzygies(R.ambient, _pair_system(R, M, anchors), ideal_gens=R.gb,
                      caps=R.caps):
        h = tuple(R.nf(p) for p in s[:n]) + zero_h[n:]
        u = tuple(M.nf(s[n + b * k:n + (b + 1) * k]) for b in range(k))
        pair = DerivationPair(R, M, h, u)
        if not pair.is_zero():
            out.append(pair)
    return out


def derivation_pair_module(R: QuotientRing, M: FPModule) -> PairModule:
    """Generators of D(R, M) as the kernel of the pair system.

    Also computes generators of Hom_R(M,M) (the anchor kernel) and of Der(R)
    so that the exact sequence 0 -> Hom -> D -> Der can be certified.
    """
    validated = [check_derivation_pair(R, M, p.h_values, p.u_values)
                 for p in _pair_kernel(R, M)]
    return PairModule(R, M, validated, hom_endomorphisms(R, M), derivation_module(R))


def hom_endomorphisms(R: QuotientRing, M: FPModule) -> list:
    """Generators of Hom_R(M, M) as anchor-zero derivation pairs."""
    return [check_derivation_pair(R, M, p.h_values, p.u_values)
            for p in _pair_kernel(R, M, anchors=False)]


def lift_anchor(R: QuotientRing, M: FPModule, h_values) -> Optional[DerivationPair]:
    """A pair (h, u) over the given anchor h, or None when the pair system
    has no solution with this anchor: the u-part solves law(u) = -law(h, 0)."""
    h_values = tuple(R.nf(p) for p in h_values)
    if R.derivation_well_defined(h_values) is not None:
        return None
    k = M.ngens
    rhs = tuple(-x for x in _law_column(R, M, h_values, (M.zero(),) * k))
    sol = solve_in_image(R.ambient, _pair_system(R, M, anchors=False), rhs,
                         ideal_gens=R.gb, caps=R.caps)
    if sol is None:
        return None
    return check_derivation_pair(R, M, h_values,
                                 tuple(M.nf(sol[b * k:(b + 1) * k]) for b in range(k)))


def lie_derivative(R: QuotientRing, h_values) -> DerivationPair:
    """The pair (h, L_h) on the module of differentials, L_h(dx_i) = d(h(x_i))."""
    O = kaehler_differentials(R)
    h_values = tuple(R.nf(p) for p in h_values)
    # check_derivation_pair reduces the derivative values d(h(x_i))
    u_values = [tuple(hi.diff(j) for j in range(R.nvars)) for hi in h_values]
    return check_derivation_pair(R, O, h_values, tuple(u_values))


# -- tensor / hom / transpose transfers -------------------------------------

def tensor_module(M: FPModule, N: FPModule) -> FPModule:
    """M (x) N presented on e_i (x) f_j (index i*N.ngens + j)."""
    R = M.ring
    k, m = M.ngens, N.ngens
    rels = []
    for col in M.relations:
        for j in range(m):
            v = [R.zero()] * (k * m)
            for a in range(k):
                v[a * m + j] = col[a]
            rels.append(tuple(v))
    for col in N.relations:
        for i in range(k):
            v = [R.zero()] * (k * m)
            for b in range(m):
                v[i * m + b] = col[b]
            rels.append(tuple(v))
    return FPModule(R, k * m, rels)


def hom_module(M: FPModule, N: FPModule) -> FPModule:
    """Hom(M, N) for free modules: free on E_ab = (e_b -> f_a), index a*M.ngens+b."""
    if M.relations or N.relations:
        raise PairError("hom transfer implemented for free modules")
    return FPModule.free(M.ring, N.ngens * M.ngens)


def tensor_hom_transfer(p: DerivationPair, q: Optional[DerivationPair],
                        mode: str) -> DerivationPair:
    """Transfer two anchor-compatible pairs to the tensor or hom module.

    tensor: (h, u (x) Id + Id (x) v); hom: (h, f -> v f - f u);
    transpose: hom against the canonical (h, h) on R, ignoring q.
    """
    R, M = p.ring, p.module
    if mode == "transpose":
        q = canonical_pair(R, p.h_values)
        mode = "hom"
    if q is None:
        raise PairError("second pair required")
    if p.h_values != q.h_values:
        raise PairError("anchor mismatch between the two pairs")
    N = q.module
    if mode == "tensor":
        T = tensor_module(M, N)
        m = N.ngens
        u_values = []
        for i in range(M.ngens):
            for j in range(m):
                v = [R.zero()] * (M.ngens * m)
                for a in range(M.ngens):
                    v[a * m + j] = p.u_values[i][a]
                for b in range(m):
                    v[i * m + b] = v[i * m + b] + q.u_values[j][b]
                u_values.append(tuple(v))
        return check_derivation_pair(R, T, p.h_values, tuple(u_values))
    if mode == "hom":
        H = hom_module(M, N)
        k, m = M.ngens, N.ngens
        u_values = []
        for a in range(m):
            for b in range(k):
                # w = v o E_ab - E_ab o u, evaluated on each e_j
                coords = [R.zero()] * (m * k)
                for j in range(k):
                    # v(E_ab(e_j)) = delta_bj * v(f_a)
                    col = list(N.zero())
                    if j == b:
                        col = list(q.u_values[a])
                    # E_ab(u(e_j)) = u(e_j)_b * f_a   (u-values coordinates)
                    ujb = p.u_values[j][b]
                    col[a] = col[a] - ujb
                    for c in range(m):
                        coords[c * k + j] = coords[c * k + j] + col[c]
                u_values.append(tuple(coords))
        return check_derivation_pair(R, H, p.h_values, tuple(u_values))
    raise PairError(f"unknown transfer mode {mode!r}")


# -- Leibniz extension and the trace of a pair -------------------------------

def _wedge_sort(indices):
    """Sort a tuple of indices; returns (sorted tuple, sign) or (None, 0)."""
    idx = list(indices)
    sign = 1
    for i in range(len(idx)):
        for j in range(len(idx) - 1 - i):
            if idx[j] > idx[j + 1]:
                idx[j], idx[j + 1] = idx[j + 1], idx[j]
                sign = -sign
            elif idx[j] == idx[j + 1]:
                return None, 0
    return tuple(idx), sign


def exterior_module(M: FPModule, n: int) -> FPModule:
    if M.relations:
        raise PairError("Leibniz extension implemented for free modules")
    from math import comb
    return FPModule.free(M.ring, comb(M.ngens, n))


def leibniz_extension(p: DerivationPair, n: int) -> DerivationPair:
    """The induced pair on the n-th exterior power of a free module."""
    R, M = p.ring, p.module
    W = exterior_module(M, n)
    subsets = list(combinations(range(M.ngens), n))
    pos = {S: t for t, S in enumerate(subsets)}
    u_values = []
    for S in subsets:
        acc = [R.zero()] * len(subsets)
        for spot, i in enumerate(S):
            # replace e_i by u(e_i) = sum_a c_a e_a
            for a in range(M.ngens):
                c = p.u_values[i][a]
                if c.is_zero():
                    continue
                replaced = S[:spot] + (a,) + S[spot + 1:]
                sortd, sign = _wedge_sort(replaced)
                if sign == 0:
                    continue
                acc[pos[sortd]] = acc[pos[sortd]] + c * sign
        u_values.append(tuple(acc))
    return check_derivation_pair(R, W, p.h_values, tuple(u_values))


def trace_pair(p: DerivationPair) -> DerivationPair:
    """The pair induced on the top exterior power (rank-one) of a free module."""
    if p.module.relations:
        raise PairError("trace of a pair needs a free module")
    return leibniz_extension(p, p.module.ngens)


# -- lifting along surjections and resolutions -------------------------------

def lift_through_surjection(p: DerivationPair, f: ModuleMap) -> DerivationPair:
    """Lift (h, u) on M through a surjection f: P ->> M with P free.

    Picks v(e_i) solving f(v_i) = u(f(e_i)); deterministic via the exact
    solver.  Raises PairError when f is not surjective.
    """
    R = p.ring
    P, M = f.source, f.target
    if P.relations:
        raise PairError("lifting needs a free source")
    cols = [f.column(j) for j in range(P.ngens)]
    # one elimination: the generators of M certify surjectivity, the images
    # u(f(e_i)) give the lift
    sols = M.solve(cols, [M.gen(t) for t in range(M.ngens)]
                   + [p.apply_u(col) for col in cols])
    if None in sols[:M.ngens]:
        raise PairError("map is not surjective: cokernel is nonzero")
    v_values = sols[M.ngens:]
    if None in v_values:
        raise PairError("no lift exists for a generator image")
    lifted = check_derivation_pair(R, P, p.h_values, tuple(v_values))
    for i in range(P.ngens):
        lhs = f.apply(lifted.apply_u(P.gen(i)))
        rhs = p.apply_u(f.apply(P.gen(i)))
        if not M.eq(lhs, rhs):
            raise PairError("lift verification failed")
    return lifted


def lift_to_resolution(p: DerivationPair, cx: FreeComplex, aug: ModuleMap) -> dict:
    """Chain-level lift of a pair down a free resolution of M.

    Returns {degree: DerivationPair}; every square f v = u f and d v = v d is
    checked exactly.
    """
    R = p.ring
    lifts = {}
    top = cx.hi
    if top != 0:
        raise PairError("resolution expected to end in degree 0")
    lifts[0] = lift_through_surjection(p, aug)
    for k in sorted(cx.degrees, reverse=True):
        if k == 0:
            continue
        Pk = cx.module(k)
        Pk1 = cx.module(k + 1)
        d = cx.diff(k)
        cols = [tuple(row[j] for row in d) for j in range(Pk.ngens)]
        upper = lifts[k + 1]
        v_values = Pk1.solve(cols, [upper.apply_u(col) for col in cols])
        if None in v_values:
            raise PairError(f"no chain lift at degree {k}")
        lifts[k] = check_derivation_pair(R, Pk, p.h_values, tuple(v_values))
        # verify the square d v = v d exactly on generators
        for j in range(Pk.ngens):
            lhs = mat.mat_vec(R, d, lifts[k].apply_u(Pk.gen(j)))
            rhs = upper.apply_u(cols[j])
            if not Pk1.eq(lhs, rhs):
                raise PairError(f"lift square fails at degree {k}")
    return lifts


# ---------------------------------------------------------------------------
# automorphism pairs, exponential and logarithm
# ---------------------------------------------------------------------------

MAX_SERIES = 64


def nilpotent_series(acc, v, step, weight, add, scale, is_zero):
    """acc + sum_{n>=1} weight(n) * step^n(v) for a nilpotent linear `step`.

    The sum stops at the first vanishing power; raises CapacityError when
    step^MAX_SERIES(v) is still nonzero.
    """
    power = v
    for n in range(1, MAX_SERIES + 1):
        power = step(power)
        if is_zero(power):
            return acc
        acc = add(acc, scale(weight(n), power))
    raise CapacityError(f"capacity: series longer than {MAX_SERIES} terms")


def exp_weight(n):
    return Fraction(1, factorial(n))


def log_weight(n):
    return Fraction((-1) ** (n + 1), n)


def _ring_series(acc, v, step, weight):
    return nilpotent_series(acc, v, step, weight, Polynomial.__add__,
                            lambda c, p: p * c, Polynomial.is_zero)


def _module_series(M, acc, v, step, weight):
    return nilpotent_series(acc, v, step, weight, M.add, vec_scale, vec_is_zero)


@dataclass(frozen=True)
class AutomorphismPair:
    """(theta, phi) over an extended ring, reducing to the identity mod m_A."""

    ring: ExtendedRing
    module: FPModule
    theta_images: tuple  # images of every ring variable
    phi_values: tuple    # phi(e_j) per generator

    def apply_theta(self, p):
        return self.ring.nf(p.substitute(self.ring.ambient, list(self.theta_images)))

    def apply_phi(self, vec):
        M = self.module
        out = list(M.zero())
        for j, a in enumerate(vec):
            if a.is_zero():
                continue
            ta = self.apply_theta(a)
            for t in range(M.ngens):
                out[t] = out[t] + ta * self.phi_values[j][t]
        return M.nf(tuple(out))

    def is_identity(self) -> bool:
        R, M = self.ring, self.module
        return (all(self.theta_images[i] == R.var(i) for i in range(R.nvars))
                and all(M.eq(self.phi_values[j], M.gen(j)) for j in range(M.ngens)))

    def compose(self, other: "AutomorphismPair") -> "AutomorphismPair":
        """self o other."""
        R, M = self.ring, self.module
        theta = tuple(self.apply_theta(t) for t in other.theta_images)
        phi = tuple(self.apply_phi(v) for v in other.phi_values)
        return AutomorphismPair(R, M, theta, phi)


def check_automorphism_pair(R: ExtendedRing, M: FPModule, theta_images,
                            phi_values) -> AutomorphismPair:
    theta_images = tuple(R.nf(p) for p in theta_images)
    phi_values = tuple(M.nf(v) for v in phi_values)
    a = AutomorphismPair(R, M, theta_images, phi_values)
    nb = R.base.nvars
    for i in range(nb, R.nvars):
        if theta_images[i] != R.var(i):
            raise PairError("not A-linear: theta moves an Artin variable")
    for g in R.relations:
        if not a.apply_theta(g).is_zero():
            raise PairError(f"theta does not preserve the relation {g}")
    for i in range(R.nvars):
        if not R.in_max_ideal(theta_images[i] - R.var(i)):
            raise PairError("theta does not reduce to the identity")
    for j in range(M.ngens):
        delta = M.sub(phi_values[j], M.gen(j))
        if not all(R.in_max_ideal(c) for c in delta):
            raise PairError("phi does not reduce to the identity")
    for l, col in enumerate(M.relations):
        if not vec_is_zero(a.apply_phi(col)):
            raise PairError(f"phi breaks module relation {l}")
    return a


def identity_auto(R: ExtendedRing, M: FPModule) -> AutomorphismPair:
    return AutomorphismPair(R, M, tuple(R.var(i) for i in range(R.nvars)),
                            tuple(M.gen(j) for j in range(M.ngens)))


def _require_nilpotent(pair: DerivationPair):
    R = pair.ring
    if not isinstance(R, ExtendedRing):
        raise PairError("exponential needs values tensored with an Artin maximal ideal")
    for p in pair.h_values:
        if not R.in_max_ideal(p):
            raise PairError("h value has a nonzero reduction mod m_A")
    for v in pair.u_values:
        for c in v:
            if not R.in_max_ideal(c):
                raise PairError("u value has a nonzero reduction mod m_A")


def exp_pair(pair: DerivationPair) -> AutomorphismPair:
    """exp(h, u) as an automorphism pair; exact, truncated by nilpotency."""
    _require_nilpotent(pair)
    R, M = pair.ring, pair.module
    theta = tuple(_ring_series(R.var(i), R.var(i), pair.apply_h, exp_weight)
                  for i in range(R.nvars))
    phi = tuple(_module_series(M, M.gen(j), M.gen(j), pair.apply_u, exp_weight)
                for j in range(M.ngens))
    return check_automorphism_pair(R, M, theta, phi)


def log_auto(a: AutomorphismPair) -> DerivationPair:
    """Logarithm of an automorphism pair lifting the identity; exact.

    log(1 + D) = sum_{n>=1} (-1)^(n+1) D^n / n, started at its first term.
    """
    R, M = a.ring, a.module

    def delta_ring(p):
        return a.apply_theta(p) - p

    def delta_mod(vec):
        return M.sub(a.apply_phi(vec), vec)

    def weight(n):
        return log_weight(n + 1)

    h_values = []
    for i in range(R.nvars):
        first = delta_ring(R.var(i))
        h_values.append(_ring_series(first, first, delta_ring, weight))
    u_values = []
    for j in range(M.ngens):
        first = delta_mod(M.gen(j))
        u_values.append(_module_series(M, first, first, delta_mod, weight))
    return check_derivation_pair(R, M, tuple(h_values), tuple(u_values))


def det_auto(a: AutomorphismPair) -> AutomorphismPair:
    """(theta, det phi) on the top exterior power of a free module."""
    M = a.module
    if M.relations:
        raise PairError("determinant needs a free module")
    R = a.ring
    line = FPModule.free(R, 1)
    phi_matrix = [[a.phi_values[j][i] for j in range(M.ngens)]
                  for i in range(M.ngens)]
    d = mat.det(R, phi_matrix)
    return check_automorphism_pair(R, line, a.theta_images, ((d,),))


def bch_pair(p: DerivationPair, q: DerivationPair) -> DerivationPair:
    """p bullet q via log(exp p o exp q); exact for nilpotent pairs."""
    return log_auto(exp_pair(p).compose(exp_pair(q)))


# ---------------------------------------------------------------------------
# Fitting invariance
# ---------------------------------------------------------------------------

@dataclass
class FittingReport:
    ring: QuotientRing
    module: FPModule
    entries: list = field(default_factory=list)  # (index, generator, image, ok)

    @property
    def passed(self) -> bool:
        return all(ok for (_, _, _, ok) in self.entries)

    def failures(self):
        return [(i, g, img) for (i, g, img, ok) in self.entries if not ok]


def fitting_invariance_check(R: QuotientRing, M: FPModule, h_values) -> FittingReport:
    """Does h carry every Fitting ideal of M into itself?  Exact membership."""
    report = FittingReport(R, M)
    h_values = tuple(R.nf(p) for p in h_values)
    for i in range(M.ngens + 1):
        ideal = fitting_ideal(M, i)
        if ideal.is_unit_ideal() or ideal.is_zero_ideal():
            continue
        for g in ideal.gens:
            img = R.apply_derivation(h_values, g)
            report.entries.append((i, g, img, ideal.contains(img)))
    return report
