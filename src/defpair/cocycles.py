"""Cech-level deformation data: semicosimplicial structure, gluing-cocycle
conditions, locally trivial deformations, pair tangent spaces and the trace
of cocycles down to the determinant line.

There is one cocycle space, `DeformationSpace`, over a complex of locally
free sheaves.  A locally free sheaf F is its own length-zero complex
(`resolution_complex`): its cocycles are degree-zero pair chains over
`DeformationSpace(resolution_complex(X, F), A)`, and the locally trivial
cocycle condition is `z1sc_check` with l = 0.

All conditions are verified exactly over a fixed Artin coefficient algebra;
no truncation is involved in the checks themselves.  Dimension counts
(tangent spaces, first-order classification) go through the weight-graded
Cech machinery of the sheaf layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional

from . import linalg
from . import matrices as mat
from .cech import (CechError, GluedScheme, LocallyFreeSheaf, cech_cohomology,
                   extend_scheme, pair_sheaf, sheaf_hom, tangent_sheaf,
                   transition_law)
from .dgla import (GradedMap, PairChain, PairComplexDGLA, TraceData,
                   pair_complex_dgla)
from .mc import PairContext, gauge_act, log_of_exps, mc_check
from .modules import FreeComplex
from .poly import Polynomial
from .rings import ArtinAlgebra


# ---------------------------------------------------------------------------
# complexes of sheaves
# ---------------------------------------------------------------------------

class SheafComplex:
    """Bounded complex of locally free sheaves with per-chart differentials.

    chart_diffs[j][i] is the matrix of d: E^j -> E^{j+1} over chart i, in
    chart-i coordinates; compatibility with the gluing is checked on pairs.
    """

    def __init__(self, X: GluedScheme, sheaves: dict, chart_diffs: Optional[dict] = None):
        self.X = X
        self.sheaves = dict(sheaves)
        self.chart_diffs = chart_diffs or {}
        for i in range(X.nchart):
            self.chart_free_complex((i,))  # validates d o d = 0 chartwise
        for S in X.subsets(2):
            self._check_diff_compat(tuple(sorted(S)))

    @property
    def degrees(self):
        return sorted(self.sheaves)

    def rank(self, j) -> int:
        return self.sheaves[j].rank if j in self.sheaves else 0

    def frame_diff(self, subset, j):
        """Differential E^j -> E^{j+1} over ring(S) in frame coordinates."""
        S = tuple(sorted(subset))
        ring = self.X.ring(S)
        f = self.X.frame(S)
        if j not in self.chart_diffs or self.rank(j) == 0 or self.rank(j + 1) == 0:
            return mat.zero_matrix(ring, self.rank(j + 1), self.rank(j))
        return self.X.inclusion(frozenset([f]), frozenset(S)).map_matrix(
            self.chart_diffs[j][f])

    def chart_free_complex(self, subset) -> FreeComplex:
        S = tuple(sorted(subset))
        ring = self.X.ring(S)
        ranks = {j: self.rank(j) for j in self.degrees}
        diffs = {}
        for j in self.degrees:
            if self.rank(j) and self.rank(j + 1):
                diffs[j] = self.frame_diff(S, j)
        return FreeComplex(ring, ranks, diffs)

    def _check_diff_compat(self, S):
        j = S[1]
        inc_j = self.X.inclusion(frozenset([j]), frozenset(S))
        for deg in self.degrees:
            if self.rank(deg) == 0 or self.rank(deg + 1) == 0:
                continue
            if deg not in self.chart_diffs:
                continue
            # frame version must match the conjugated chart-j version
            conj = transition_law(self.X.ring(S),
                                  self.sheaves[deg + 1].frame_change((j,), S),
                                  inc_j.map_matrix(self.chart_diffs[deg][j]),
                                  self.sheaves[deg].frame_change_inverse((j,), S))
            if not mat.mat_eq(conj, self.frame_diff(S, deg)):
                raise CechError(f"differential at degree {deg} does not glue on {S}")


def _lift(ring, m):
    """A base-ring matrix over the extended ring; from_base is a ring map that
    sends normal forms to normal forms, so nothing is reduced again."""
    return None if m is None else [[ring.from_base(x) for x in row] for row in m]


def _restrict_block(XE: GluedScheme, sub, sup, F_out: LocallyFreeSheaf,
                    F_in: LocallyFreeSheaf, U, h=None):
    """Move a block F_in -> F_out (or, with its anchor h over ring(sup), the
    u-block of a pair) from the extended ring of sub to that of sup: the
    transition law with the base frame changes lifted by from_base.  Index
    tuples may repeat a chart, as degenerate cocycle triples do."""
    ring = XE.ring(sup)
    return transition_law(ring, _lift(ring, F_out.frame_change(sub, sup)),
                          XE.inclusion(frozenset(sub), frozenset(sup)).map_matrix(U),
                          _lift(ring, F_in.frame_change_inverse(sub, sup)), h)


def resolution_complex(X: GluedScheme, F: LocallyFreeSheaf) -> SheafComplex:
    """A locally free sheaf viewed as its own length-zero resolution."""
    return SheafComplex(X, {0: F})


# ---------------------------------------------------------------------------
# semicosimplicial levels and faces (all tuples, sizes <= 3)
# ---------------------------------------------------------------------------

@dataclass
class Semicosimplicial:
    """Cech levels of a sheaf over all (k+1)-tuples, with face operators."""

    X: GluedScheme
    F: LocallyFreeSheaf
    depth: int = 2

    def tuples(self, k):
        return list(product(range(self.X.nchart), repeat=k + 1))

    def level_ring(self, tup):
        return self.X.ring(tuple(sorted(set(tup))))

    def face(self, h, family: dict, k: int) -> dict:
        """The h-th face from level k-1 to level k (restriction families)."""
        out = {}
        for tup in self.tuples(k):
            src = tup[:h] + tup[h + 1:]
            sec = family[src]
            out[tup] = self.F.restrict_between(tuple(sorted(set(src))),
                                               tuple(sorted(set(tup))), sec)
        return out

    def check_simplicial_identities(self) -> bool:
        """d_{k+1} d_l = d_l d_k for k >= l, verified on generator sections."""
        ok = True
        for gen in range(self.F.rank):
            family = {}
            for tup in self.tuples(0):
                ring = self.level_ring(tup)
                vec = [ring.zero()] * self.F.rank
                vec[gen] = ring.one()
                family[tup] = tuple(vec)
            for k in range(2):
                for l in range(k + 1):
                    left = self.face(k + 1, self.face(l, family, 1), 2)
                    right = self.face(l, self.face(k, family, 1), 2)
                    for tup in self.tuples(2):
                        if left[tup] != right[tup]:
                            ok = False
        return ok


def build_semicosimplicial(X: GluedScheme, F: LocallyFreeSheaf) -> Semicosimplicial:
    if X.nchart == 0:
        raise CechError("empty cover")
    sc = Semicosimplicial(X, F)
    if not sc.check_simplicial_identities():
        raise CechError("simplicial identities fail: incompatible transitions")
    return sc


# ---------------------------------------------------------------------------
# deformation space over an Artin algebra
# ---------------------------------------------------------------------------

class DeformationSpace:
    """Per-tuple pair complexes of a sheaf complex, scalar-extended by A."""

    def __init__(self, SC: SheafComplex, A: ArtinAlgebra):
        self.base = SC
        self.A = A
        self.XE = extend_scheme(SC.X, A)
        self._cplx = {}
        self._ctx = {}

    def ring(self, subset):
        return self.XE.ring(tuple(sorted(set(subset))))

    def sheaf(self) -> LocallyFreeSheaf:
        """F, when the complex is one locally free sheaf F in degree 0."""
        if self.base.degrees != [0]:
            raise CechError("expected one locally free sheaf in degree 0")
        return self.base.sheaves[0]

    def pair_complex(self, subset) -> PairComplexDGLA:
        key = tuple(sorted(set(subset)))
        if key not in self._cplx:
            ring = self.XE.ring(key)
            ranks = {j: self.base.rank(j) for j in self.base.degrees}
            diffs = {}
            for j in self.base.degrees:
                if self.base.rank(j) and self.base.rank(j + 1):
                    diffs[j] = _lift(ring, self.base.frame_diff(key, j))
            cx = FreeComplex(ring, ranks, diffs)
            self._cplx[key] = pair_complex_dgla(ring, cx)
        return self._cplx[key]

    def context(self, subset) -> PairContext:
        key = tuple(sorted(set(subset)))
        if key not in self._ctx:
            self._ctx[key] = PairContext(self.pair_complex(key))
        return self._ctx[key]

    def restrict_hom(self, sub, sup, f: GradedMap) -> GradedMap:
        """Move a graded map to a larger overlap, conjugating frames."""
        supk = tuple(sorted(set(sup)))
        blocks = {j: _restrict_block(self.XE, sub, supk, self.base.sheaves[j + f.degree],
                                     self.base.sheaves[j], m)
                  for j, m in f.blocks}
        return self.pair_complex(supk).hom.from_blocks(f.degree, blocks)

    def restrict_chain(self, sub, sup, chain: PairChain) -> PairChain:
        """Move a degree-zero pair chain to a larger overlap."""
        supk = tuple(sorted(set(sup)))
        h = self.XE.inclusion(frozenset(sub), frozenset(supk)).transport_derivation(
            chain.h_values)
        blocks = {j: _restrict_block(self.XE, sub, supk, F, F, chain.block(j), h)
                  for j, F in self.base.sheaves.items() if F.rank}
        return self.pair_complex(supk).pair_chain(h, blocks)

    # -- convention: antisymmetric extension of pair-indexed data ------------
    def pair_entry(self, m: dict, i, j) -> PairChain:
        D = self.pair_complex((i, j))
        if i == j:
            return D.zero_pair()
        if (i, j) in m:
            return m[(i, j)]
        if (j, i) in m:
            return D.neg_pair(m[(j, i)])
        raise CechError(f"no cocycle component for the pair ({i},{j})")


# ---------------------------------------------------------------------------
# the gluing-cocycle conditions
# ---------------------------------------------------------------------------

def z1sc_check(space: DeformationSpace, l: dict, m: dict,
               n: Optional[dict] = None) -> dict:
    """The three cocycle conditions for (l, m) with homotopy witness n.

    l[i]: degree-1 graded map over chart i; m[(i,j)] for i<j: degree-0 pair
    chain over the pair overlap; n[(i,j,k)] for i<j<k: degree -1 graded map
    over the triple overlap (missing entries default to zero).  Exact.
    """
    X = space.base.X
    n = n or {}
    report = {"mc": {}, "gauge": {}, "triple": {}}
    for i in range(X.nchart):
        ctx = space.context((i,))
        report["mc"][i] = mc_check(ctx, l[i])
    for S in X.subsets(2):
        i, j = sorted(S)
        ctx = space.context((i, j))
        hom = space.pair_complex((i, j)).hom
        li = space.restrict_hom((i,), (i, j), l[i])
        lj = space.restrict_hom((j,), (i, j), l[j])
        moved = gauge_act(ctx, space.pair_entry(m, i, j), lj, check=False)
        report["gauge"][(i, j)] = hom.eq(li, moved)
    for tup in X.cocycle_triples():
        i, j, k = tup
        key = tuple(sorted(set(tup)))
        D = space.pair_complex(key)
        ctx = space.context(key)

        def on_key(a, b):
            """m_ab on the triple overlap, moved only when that is larger."""
            if a == b:
                return D.zero_pair()
            chain = space.pair_entry(m, a, b)
            return chain if len(key) == 2 else space.restrict_chain((a, b), key, chain)

        lhs = log_of_exps(ctx, [on_key(j, k), D.neg_pair(on_key(i, k)), on_key(i, j)])
        witness = n.get(tup, None)
        if witness is None:
            rhs_hom = D.hom.zero(0)
        else:
            wn = space.restrict_hom(witness[0], key, witness[1]) \
                if isinstance(witness, tuple) else witness
            lj = space.restrict_hom((j,), key, l[j])
            rhs_hom = D.hom.add(D.hom.d(wn), D.hom.bracket(lj, wn))
        rhs = D.from_hom(rhs_hom)
        report["triple"][tup] = D.pair_eq(lhs, rhs)
    report["passed"] = (all(report["mc"].values()) and all(report["gauge"].values())
                        and all(report["triple"].values()))
    return report


def h1sc_equiv_check(space: DeformationSpace, lm0, lm1, a: dict, b: dict) -> dict:
    """Are (l0, m0) and (l1, m1) equivalent through the witnesses a, b?

    a[i]: degree-0 pair chain per chart; b[(i,j)]: degree -1 graded map per
    pair.  Verifies e^{a_i} * l0_i = l1_i and the pair-level BCH condition
    -m0 . -a_i . m1 . a_j = db + [l0_j, b] exactly.
    """
    l0, m0 = lm0
    l1, m1 = lm1
    X = space.base.X
    report = {"chart": {}, "pair": {}}
    for i in range(X.nchart):
        ctx = space.context((i,))
        hom = space.pair_complex((i,)).hom
        report["chart"][i] = hom.eq(gauge_act(ctx, a[i], l0[i], check=False), l1[i])
    for S in X.subsets(2):
        i, j = sorted(S)
        key = (i, j)
        D = space.pair_complex(key)
        ctx = space.context(key)
        ai = space.restrict_chain((i,), key, a[i])
        aj = space.restrict_chain((j,), key, a[j])
        lhs = log_of_exps(ctx, [D.neg_pair(space.pair_entry(m0, i, j)), D.neg_pair(ai),
                                space.pair_entry(m1, i, j), aj])
        bij = b.get(key)
        if bij is None:
            rhs_hom = D.hom.zero(0)
        else:
            l0j = space.restrict_hom((j,), key, l0[j])
            rhs_hom = D.hom.add(D.hom.d(bij), D.hom.bracket(l0j, bij))
        report["pair"][key] = D.pair_eq(lhs, D.from_hom(rhs_hom))
    report["passed"] = all(report["chart"].values()) and all(report["pair"].values())
    return report


# ---------------------------------------------------------------------------
# locally trivial cocycles
# ---------------------------------------------------------------------------

def locally_trivial_cocycle_check(space: DeformationSpace, m: dict) -> dict:
    """`z1sc_check` with l = 0: exp(m_jk) exp(-m_ik) exp(m_ij) = 1 on every
    triple overlap (and, for a complex, each m_ij commutes with d).

    The report gains the first failing triple as `witness`; on success it
    gains the transition data exp(m_ij) as `transitions`, one automorphism
    pair per degree ({0: (theta, psi)} for a sheaf).
    """
    X = space.base.X
    report = z1sc_check(space, {i: space.context((i,)).zero(1) for i in range(X.nchart)}, m)
    failed = [tup for tup, ok in report["triple"].items() if not ok]
    if failed:
        report["witness"] = failed[0]
    if report["passed"]:
        report["transitions"] = {key: space.context(key).exp_action(p)
                                 for key, p in m.items()}
    return report


def deformation_from_cocycle(space: DeformationSpace, m: dict) -> dict:
    """Transition data exp(m_ij), one automorphism pair (theta_ij, psi_ij)
    per degree, of a locally trivial deformation; raises when the cocycle
    condition fails."""
    rep = locally_trivial_cocycle_check(space, m)
    if not rep["passed"]:
        raise CechError(f"cocycle condition fails at triple {rep.get('witness')}")
    return rep["transitions"]


# ---------------------------------------------------------------------------
# trace of cocycles
# ---------------------------------------------------------------------------

def cech_trace(space: DeformationSpace, m: dict) -> dict:
    """Trace the degree-zero components to the determinant line.

    Returns {(i,j): DerivationPair on the rank-one module}; anchors are
    preserved verbatim.
    """
    out = {}
    for (i, j), chain in m.items():
        D = space.pair_complex((i, j))
        traced = TraceData(D).pair_trace(chain)
        out[(i, j)] = traced
    return out


def traced_cocycle_as_pairs(traced: dict, det_space: DeformationSpace) -> dict:
    """Repackage traced pairs as degree-zero cocycle data on the space of the
    determinant sheaf."""
    det_space.sheaf()
    return {key: det_space.pair_complex(key).pair_chain(p.h_values, {0: [[p.u_values[0][0]]]})
            for key, p in traced.items()}


# ---------------------------------------------------------------------------
# tangent spaces of the pair and the long exact sequence
# ---------------------------------------------------------------------------

def pair_tangent_spaces(X: GluedScheme, F: LocallyFreeSheaf,
                        weight_bounds: Optional[tuple] = None) -> dict:
    """T^i of the pair (X, F) for a locally free sheaf, with the long exact
    sequence Ext^i -> T^i -> H^i(Theta) -> Ext^{i+1} certified by exact rank
    bookkeeping of the connecting maps, weight by weight."""
    D = pair_sheaf(F)
    H = sheaf_hom(F, F)
    T = tangent_sheaf(X)
    t_out = cech_cohomology(X, D, weight_bounds)
    ext_out = cech_cohomology(X, H, weight_bounds)
    th_out = cech_cohomology(X, T, weight_bounds)
    # per-weight snake bookkeeping
    lo = min(t_out["window"][0], ext_out["window"][0], th_out["window"][0])
    hi = max(t_out["window"][1], ext_out["window"][1], th_out["window"][1])
    exact = True
    max_p = min(X.nchart, 3) - 1
    for w in range(lo, hi + 1):
        qt, bt = D.weight_complex(w)
        qe, be = H.weight_complex(w)
        qth, bth = T.weight_complex(w)
        # coordinate inclusion Hom -> D (E_ab is generator 1 + ab) and
        # projection D -> Theta (the transpose of Theta -> generator 0)
        incl = {}
        proj = {}
        for p in range(max_p + 1):
            dpos = {lab: t for t, lab in enumerate(bt[p])}
            incl[p] = _unit_columns(len(bt[p]), [dpos[(tup, (mono, gen + 1))]
                                                 for tup, (mono, gen) in be[p]])
            proj[p] = list(zip(*_unit_columns(len(bt[p]), [dpos[lab] for lab in bth[p]])))
        i_ranks = [linalg.rank(qe.induced_map(qt, incl[p], p)) for p in range(max_p + 1)]
        for p in range(max_p + 1):
            rt_, rth_ = qt.cohomology_dim(p), qth.cohomology_dim(p)
            r1 = i_ranks[p]
            r2 = linalg.rank(qt.induced_map(qth, proj[p], p))
            r3 = linalg.rank(_connecting_map(qe, qt, qth, incl, proj, p))
            if r1 + r2 != rt_:
                exact = False
            if r2 + r3 != rth_:
                exact = False
            if p + 1 <= max_p and r3 + i_ranks[p + 1] != qe.cohomology_dim(p + 1):
                exact = False
    return {"T": t_out["dims"], "ext": ext_out["dims"], "theta": th_out["dims"],
            "les_exact": exact}


def _unit_columns(nrows, rows):
    """The 0/1 matrix with nrows rows whose column c is the unit vector e_rows[c]."""
    out = [[Fraction(0)] * len(rows) for _ in range(nrows)]
    for c, r in enumerate(rows):
        out[r][c] = Fraction(1)
    return out


def _connecting_map(sub_qc, tot_qc, quot_qc, incl, proj, p):
    """Snake connecting H^p(quot) -> H^{p+1}(sub) for a degreewise-split
    short exact sequence of complexes given by inclusion/projection.  Both
    are 0/1 coordinate maps, so their transposes split them."""
    lift = list(zip(*proj[p]))
    incl_left = list(zip(*incl.get(p + 1, [])))
    pulled = [linalg.mat_vec(incl_left, linalg.mat_vec(tot_qc.matrix(p),
                                                       linalg.mat_vec(lift, v)))
              for v in quot_qc.cohomology_basis(p)]
    return sub_qc.cohomology_coords(p + 1, pulled)


# ---------------------------------------------------------------------------
# first-order classification
# ---------------------------------------------------------------------------

def first_order_class_dims(X: GluedScheme, F: LocallyFreeSheaf,
                           weight_bounds=None) -> dict:
    """Dimensions of H^*(X, D(F)): first-order locally trivial cocycles
    modulo coboundaries in degree 1."""
    return cech_cohomology(X, pair_sheaf(F), weight_bounds)["dims"]


def section_to_pair(space: DeformationSpace, subset, coords_by_weight: dict,
                    eps) -> PairChain:
    """Build eps * (section of D(F)) as a degree-zero pair chain over the
    overlap, for the space of a sheaf F.

    coords_by_weight: {weight: coordinate vector in the D(F) weight basis}.
    """
    X, F = space.base.X, space.sheaf()
    key = tuple(sorted(set(subset)))
    ring = space.XE.ring(key)
    Dsheaf = pair_sheaf(F)
    f = X.frame(key)
    frame_h = space.XE.inclusion(frozenset([f]), frozenset(key)) \
        .transport_derivation((space.XE.ring((f,)).one(),))
    r = F.rank
    h_total = [ring.zero()] * ring.nvars
    U = mat.zero_matrix(ring, r, r)
    base_ring = X.ring(key)
    for w, coords in coords_by_weight.items():
        basis = Dsheaf.section_basis(key, w)
        for c, (mono, gen) in zip(coords, basis):
            if not c:
                continue
            monom = ring.from_base(base_ring.ambient.monomial(mono, c))
            if gen == 0:
                for v in range(ring.nvars):
                    h_total[v] = ring.nf(h_total[v] + eps * monom * frame_h[v])
            else:
                a, b = divmod(gen - 1, r)
                U[a][b] = ring.nf(U[a][b] + eps * monom)
    return space.pair_complex(key).pair_chain(tuple(h_total), {0: U})


def solve_first_order_witness(space: DeformationSpace, x: dict) -> Optional[dict]:
    """Chart pair chains {a_i} with x_ij = a_i - a_j at first order, or None,
    for the space of a sheaf.

    Works weight by weight on the epsilon coefficient; the caller should
    re-verify via the exponential cocycle equivalence (exact by nilpotency).
    """
    X, F, A = space.base.X, space.sheaf(), space.A
    if A.index != 2 or len(A.m_basis) != 1:
        raise CechError("first-order solving expects a dual-numbers algebra")
    Dsheaf = pair_sheaf(F)
    eps_mono = A.m_basis[0]
    # decompose each x_ij into weight coordinates of the epsilon part
    comp = {}
    for (i, j), p in x.items():
        key = tuple(sorted((i, j)))
        comp[key] = _pair_to_section(space, key, p, eps_mono)
    # weight support of the cocycle, then one linear solve per weight
    support = set()
    for key, sec in comp.items():
        base = X.ring(key)
        for gidx, q in enumerate(sec):
            gw = Dsheaf.weights[X.frame(key)][gidx]
            for m in q.terms:
                support.add(base.ambient.mono_weight(m) + gw)
    a_coords = {i: {} for i in range(X.nchart)}
    for w in sorted(support):
        qc, bases = Dsheaf.weight_complex(w)
        target = [Fraction(0)] * len(bases[1])
        pos = {lab: t for t, lab in enumerate(bases[1])}
        filled = False
        # the weight-w terms of each section are the labels of bases[1]
        for key, sec in comp.items():
            for gidx, q in enumerate(sec):
                for m, c in q.terms.items():
                    if (key, (m, gidx)) in pos:
                        target[pos[(key, (m, gidx))]] = c
                        filled = True
        if not filled:
            continue
        # delta a = -x  (so that x = a_i - a_j on each pair)
        sol = linalg.solve(qc.matrix(0), [-t for t in target])
        if sol is None:
            return None
        for t, (tup, lab) in enumerate(bases[0]):
            if sol[t]:
                a_coords[tup[0]].setdefault(w, {})[lab] = sol[t]
    # rebuild chart sections as pair chains
    out = {}
    for i in range(X.nchart):
        coords_by_weight = {}
        for w, labs in a_coords[i].items():
            basis = Dsheaf.section_basis((i,), w)
            coords_by_weight[w] = [labs.get(lab, Fraction(0)) for lab in basis]
        ring = space.XE.ring((i,))
        eps = ring.from_artin(A.ambient.monomial(eps_mono))
        out[i] = section_to_pair(space, (i,), coords_by_weight, eps)
    return out


def _pair_to_section(space: DeformationSpace, key, p: PairChain, eps_mono):
    """Extract the epsilon coefficient of a first-order pair chain as a D(F)
    section vector over the base overlap ring."""
    X = space.base.X
    ring = space.XE.ring(key)
    base = X.ring(key)
    f = X.frame(key)
    frame_h = space.XE.inclusion(frozenset([f]), frozenset(key)) \
        .transport_derivation((space.XE.ring((f,)).one(),))
    # anchor coordinate: h = c * frame_h with c = h(frame var)/frame_h(frame var)
    frame_var_idx = 0
    denom = frame_h[frame_var_idx]
    num = p.h_values[frame_var_idx]
    # both are eps * (base element); divide exactly in the base ring
    c_anchor = _eps_coefficient(ring, base, num, eps_mono)
    d_anchor = _eps_coefficient(ring, base, denom, (0,) * len(space.A.variables))
    theta_coord = _exact_divide(base, c_anchor, d_anchor)
    sec = [theta_coord]
    for row in p.block(0):
        sec.extend(_eps_coefficient(ring, base, x, eps_mono) for x in row)
    return sec


def _eps_coefficient(ring, base, value, mono):
    """The base-ring coefficient of the A-basis monomial mono in value."""
    return ring.artin_components(value).get(mono, base.zero())


def _exact_divide(base, num: Polynomial, den: Polynomial) -> Polynomial:
    if num.is_zero():
        return base.zero()
    from .groebner import solve_in_image
    sol = solve_in_image(base.ambient, [(den,)], (num,), ideal_gens=base.gb,
                         caps=base.caps)
    if sol is None:
        raise CechError("anchor is not a multiple of the frame derivation")
    return base.nf(sol[0])
