"""Glued schemes from affine charts, equivariant locally free sheaves and
exact Cech cohomology by torus-weight truncation.

Scope: charts are one-variable affine lines with monomial transition maps
(the projective line and gluings of the same shape); subsets of up to three
charts carry explicit overlap rings.  Sections decompose into weight lines,
each of which is a finite-dimensional exact linear-algebra problem; global
cohomology refuses rings without usable weight data instead of guessing.

Conventions: the overlap ring of a chart subset S is presented in the
coordinates of the frame chart min(S); sheaf data consists of per-chart
generator weights plus, for every pair i < j, the matrix over the overlap
ring expressing chart-j generators in chart-i generator coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional

from . import matrices as mat
from .dgla import QComplex
from .poly import GREVLEX, PolyRing, Polynomial, mono_div
from .rings import ArtinAlgebra, QuotientRing, RingMap, extend_ring


class CechError(ValueError):
    pass


# ---------------------------------------------------------------------------
# weight bookkeeping
# ---------------------------------------------------------------------------

def weight_enumerable(ring: QuotientRing) -> bool:
    """Weight-w monomial bases are provably finite and degree-bounded when
    all variable weights are nonzero and opposite-weight variable products
    are reducible (the Laurent pattern)."""
    w = ring.ambient.weights
    if w is None or any(x == 0 for x in w):
        return False
    leads = [m for _, m, _ in ring.leads]
    for i in range(ring.nvars):
        for j in range(i + 1, ring.nvars):
            if w[i] * w[j] < 0:
                mono = tuple(1 if t in (i, j) else 0 for t in range(ring.nvars))
                if not any(mono_div(mono, l) is not None for l in leads):
                    return False
    return True


def weight_monomials(ring: QuotientRing, w: int) -> list:
    """All standard monomials of total weight w (exact, finite); computed
    once per ring and weight and kept on the ring, so callers share the list
    and must not change it."""
    if w in ring.weight_bases:
        return ring.weight_bases[w]
    if not weight_enumerable(ring):
        raise CechError("cannot truncate: ring lacks usable weight data")
    weights = ring.ambient.weights
    leads = [m for _, m, _ in ring.leads]
    n = ring.nvars
    cap = abs(w)
    out = []

    def rec(pos, left_deg, acc, acc_w):
        if pos == n:
            if acc_w == w:
                m = tuple(acc)
                if not any(mono_div(m, l) is not None for l in leads):
                    out.append(m)
            return
        for e in range(left_deg + 1):
            acc.append(e)
            rec(pos + 1, left_deg - e, acc, acc_w + e * weights[pos])
            acc.pop()

    rec(0, cap, [], 0)
    out.sort(key=ring.ambient.order.key)
    ring.weight_bases[w] = out
    return out


# ---------------------------------------------------------------------------
# glued schemes
# ---------------------------------------------------------------------------

@dataclass
class ChartInclusion:
    """Moves data from the ring of a subset to the ring of a superset."""

    ring_map: RingMap
    der_transport: list  # target-vars x source-vars matrix over the target

    def transport_derivation(self, h_values):
        tgt = self.ring_map.target
        out = []
        for row in self.der_transport:
            acc = tgt.zero()
            for c, h in zip(row, h_values):
                if not c.is_zero():
                    acc = acc + c * self.ring_map(h)
            out.append(tgt.nf(acc))
        return tuple(out)

    def map_matrix(self, m):
        return [[self.ring_map(x) for x in row] for row in m]


def make_inclusion(source: QuotientRing, target: QuotientRing,
                   image_names: list) -> ChartInclusion:
    """Inclusion with variable images; derivation transport derived from the
    images (each a single target variable) and Laurent relations."""
    images = [target.var(target.variables.index(nm)) for nm in image_names]
    rmap = RingMap(source, target, tuple(images)).check()
    matched = {}
    for w, nm in enumerate(image_names):
        matched[target.variables.index(nm)] = w
    rows = []
    ncols = source.nvars
    laurent_partner = {}
    for g in target.relations:
        # recognise v*vi - 1 relations to extend derivations to inverses
        terms = dict(g.terms)
        if len(terms) == 2:
            monos = sorted(terms, key=sum)
            if sum(monos[0]) == 0 and sum(monos[1]) == 2 and \
                    sorted(monos[1]).count(1) == 2:
                idxs = [i for i, e in enumerate(monos[1]) if e == 1]
                if len(idxs) == 2 and terms[monos[1]] == -terms[monos[0]]:
                    laurent_partner[idxs[0]] = idxs[1]
                    laurent_partner[idxs[1]] = idxs[0]
    for t in range(target.nvars):
        if t in matched:
            row = [target.zero()] * ncols
            row[matched[t]] = target.one()
            rows.append(row)
        elif t in laurent_partner and laurent_partner[t] in matched:
            partner = laurent_partner[t]
            # h(v_t) = -v_t^2 h(v_partner)
            row = [target.zero()] * ncols
            vt = target.var(t)
            row[matched[partner]] = target.nf(-(vt * vt))
            rows.append(row)
        else:
            raise CechError(
                f"cannot transport derivations to {target.variables[t]!r}")
    return ChartInclusion(rmap, rows)


class GluedScheme:
    """Affine charts with explicit overlap rings for subsets of size <= 3."""

    def __init__(self, charts, rings: dict, inclusions: dict):
        self.charts = list(charts)
        self.rings = {frozenset(k): v for k, v in rings.items()}
        self.inclusions = {(frozenset(a), frozenset(b)): v
                           for (a, b), v in inclusions.items()}
        self._identities = {}
        self._tangent_sheaf = None  # kept by tangent_sheaf
        for i, ch in enumerate(self.charts):
            self.rings.setdefault(frozenset([i]), ch)

    @property
    def nchart(self) -> int:
        return len(self.charts)

    def ring(self, indices) -> QuotientRing:
        key = frozenset(indices)
        if key not in self.rings:
            raise CechError(f"no overlap ring for charts {sorted(key)}")
        return self.rings[key]

    def frame(self, indices) -> int:
        return min(indices)

    def inclusion(self, sub, sup) -> ChartInclusion:
        a, b = frozenset(sub), frozenset(sup)
        if a == b:
            if a not in self._identities:
                ring = self.ring(a)
                self._identities[a] = ChartInclusion(
                    RingMap.identity(ring), mat.identity_matrix(ring, ring.nvars))
            return self._identities[a]
        if (a, b) not in self.inclusions:
            raise CechError(f"no inclusion {sorted(a)} -> {sorted(b)}")
        return self.inclusions[(a, b)]

    def subsets(self, size):
        return [frozenset(c) for c in combinations(range(self.nchart), size)]

    def cocycle_triples(self):
        """Index triples of the triple cocycle condition whose charts have a
        ring: the proper ones, then those with a repeated index, sorted."""
        n = range(self.nchart)
        degenerate = sorted({t for i in n for j in n
                             for t in ((i, i, j), (i, j, i), (j, i, i))})
        return [t for t in [tuple(sorted(S)) for S in self.subsets(3)] + degenerate
                if frozenset(t) in self.rings]


def projective_line() -> GluedScheme:
    """Two charts QQ[s], QQ[t] glued by t = 1/s, with torus weights 1, -1."""
    c0 = QuotientRing(PolyRing(("s",), GREVLEX, weights=(1,)))
    c1 = QuotientRing(PolyRing(("t",), GREVLEX, weights=(-1,)))
    amb = PolyRing(("s", "si"), GREVLEX, weights=(1, -1))
    o01 = QuotientRing(amb, [amb.parse("s*si - 1")])
    rings = {(0, 1): o01}
    inclusions = {
        ((0,), (0, 1)): make_inclusion(c0, o01, ["s"]),
        ((1,), (0, 1)): make_inclusion(c1, o01, ["si"]),
    }
    return GluedScheme([c0, c1], rings, inclusions)


def projective_line_three_charts() -> GluedScheme:
    """The projective line covered by (U_0, U_1, U_0-again): a redundant
    third chart that produces genuine triple overlaps for cocycle tests."""
    base = projective_line()
    c0, c1 = base.charts
    c2 = QuotientRing(PolyRing(("u",), GREVLEX, weights=(1,)))
    o01 = base.ring((0, 1))
    # overlap of charts 1 and 2 in chart-1 coordinates
    amb12 = PolyRing(("t", "ti"), GREVLEX, weights=(-1, 1))
    o12 = QuotientRing(amb12, [amb12.parse("t*ti - 1")])
    rings = {(0, 1): o01, (0, 2): c0, (1, 2): o12, (0, 1, 2): o01}
    inclusions = dict(base.inclusions)
    inclusions.update({
        ((0,), (0, 2)): make_inclusion(c0, c0, ["s"]),
        ((2,), (0, 2)): make_inclusion(c2, c0, ["s"]),
        ((1,), (1, 2)): make_inclusion(c1, o12, ["t"]),
        ((2,), (1, 2)): make_inclusion(c2, o12, ["ti"]),
        ((0,), (0, 1, 2)): make_inclusion(c0, o01, ["s"]),
        ((1,), (0, 1, 2)): make_inclusion(c1, o01, ["si"]),
        ((2,), (0, 1, 2)): make_inclusion(c2, o01, ["s"]),
        ((0, 1), (0, 1, 2)): make_inclusion(o01, o01, ["s", "si"]),
        ((0, 2), (0, 1, 2)): make_inclusion(c0, o01, ["s"]),
        ((1, 2), (0, 1, 2)): make_inclusion(o12, o01, ["si", "s"]),
    })
    return GluedScheme([c0, c1, c2], rings, inclusions)


def extend_scheme(X: GluedScheme, A: ArtinAlgebra) -> GluedScheme:
    """Scalar-extend every ring and inclusion of the scheme by A."""
    ext_rings = {}
    cache = {}

    def ext(ring):
        if id(ring) not in cache:
            cache[id(ring)] = extend_ring(ring, A)
        return cache[id(ring)]

    charts = [ext(c) for c in X.charts]
    for key, ring in X.rings.items():
        ext_rings[tuple(sorted(key))] = ext(ring)
    # the images are variables; A's variables go to themselves
    inclusions = {}
    for (a, b), inc in X.inclusions.items():
        names = [str(p) for p in inc.ring_map.images] + list(A.variables)
        inclusions[(tuple(sorted(a)), tuple(sorted(b)))] = make_inclusion(
            ext(inc.ring_map.source), ext(inc.ring_map.target), names)
    return GluedScheme(charts, ext_rings, inclusions)


# ---------------------------------------------------------------------------
# equivariant locally free sheaves
# ---------------------------------------------------------------------------

class LocallyFreeSheaf:
    """Locally free sheaf on a glued scheme.

    rank r; weights[i] = generator weights on chart i; pair_matrices[(i, j)]
    for i < j = r x r matrix over ring({i,j}) expressing chart-j generators
    in chart-i generator coordinates.  The sheaf is the one place that
    knows frames and transitions: each stored transition is inverted at most
    once, and every frame change over a larger overlap is its image under
    the chart inclusion.  A sheaf is immutable once built; it keeps its
    inverses, frame changes, weight complexes and D(F), each computed once.
    """

    def __init__(self, scheme: GluedScheme, rank: int, weights: dict,
                 pair_matrices: dict, name: str = "F"):
        self.scheme = scheme
        self.rank = rank
        self.weights = {i: tuple(w) for i, w in weights.items()}
        self.pair_matrices = {tuple(sorted(k)): v for k, v in pair_matrices.items()}
        self.name = name
        self._inverses = {}
        self._frames = {}
        self._complexes = {}
        self._pair_sheaf = None
        for i in range(scheme.nchart):
            if len(self.weights.get(i, ())) != rank:
                raise CechError("one weight per generator per chart expected")

    def pair_matrix(self, i, j):
        """Chart-j generator coordinates -> chart-i coordinates, over
        ring({i,j}); requires i < j."""
        if i >= j:
            raise CechError("pair matrices are stored for i < j")
        return self.pair_matrices[(i, j)]

    def pair_inverse(self, i, j):
        """Inverse of pair_matrix(i, j), solved once and checked exactly."""
        if (i, j) not in self._inverses:
            m = self.pair_matrix(i, j)
            ring = self.scheme.ring((i, j))
            inv = mat.mat_inverse(ring, m)
            if inv is None or not mat.mat_eq(mat.mat_mul(ring, m, inv),
                                             mat.identity_matrix(ring, self.rank)):
                raise CechError(f"transition of {self.name} on {(i, j)} is not invertible")
            self._inverses[(i, j)] = inv
        return self._inverses[(i, j)]

    def frame_change(self, sub, sup):
        """Matrix converting frame(sub) coordinates into frame(sup)
        coordinates over ring(sup); None when the two frames agree."""
        return self._frame_image(sub, sup, False)

    def frame_change_inverse(self, sub, sup):
        """Inverse of frame_change(sub, sup); None when the frames agree."""
        return self._frame_image(sub, sup, True)

    def _frame_image(self, sub, sup, inverse):
        b = frozenset(sup)
        fa, fb = self.scheme.frame(sub), self.scheme.frame(b)
        if fa == fb:
            return None
        key = (fa, b, inverse)
        if key not in self._frames:
            stored = self.pair_inverse if inverse else self.pair_matrix
            self._frames[key] = self.scheme.inclusion(frozenset((fb, fa)), b).map_matrix(
                stored(fb, fa))
        return self._frames[key]

    def restrict_between(self, sub, sup, coords):
        """Restrict frame coordinates over ring(sub) to ring(sup)."""
        a, b = frozenset(sub), frozenset(sup)
        mapped = tuple(self.scheme.inclusion(a, b).ring_map(c) for c in coords)
        conv = self.frame_change(a, b)
        if conv is None:
            return mapped
        return mat.mat_vec(self.scheme.ring(b), conv, mapped)

    def check_transitions(self) -> bool:
        """Cocycle condition of the gluing data on all stored triples."""
        ok = True
        for S in self.scheme.subsets(3):
            if S not in self.scheme.rings:
                continue
            i, j, k = sorted(S)
            mjk = self.scheme.inclusion(frozenset((j, k)), S).map_matrix(
                self.pair_matrix(j, k))
            if not mat.mat_eq(mat.mat_mul(self.scheme.ring(S),
                                          self.frame_change((j,), S), mjk),
                              self.frame_change((k,), S)):
                ok = False
        return ok

    def section_basis(self, subset, w):
        """Weight-w basis of sections over ring(S): (monomial, generator)."""
        S = frozenset(subset)
        ring = self.scheme.ring(S)
        f = self.scheme.frame(S)
        out = []
        for a in range(self.rank):
            for m in weight_monomials(ring, w - self.weights[f][a]):
                out.append((m, a))
        return out

    def section_coords(self, subset, w, vec, basis=None):
        basis = basis if basis is not None else self.section_basis(subset, w)
        pos = {lab: t for t, lab in enumerate(basis)}
        coords = [Fraction(0)] * len(basis)
        for a, p in enumerate(vec):
            for m, c in p.terms.items():
                key = (m, a)
                if key not in pos:
                    raise CechError("section term escapes the weight basis")
                coords[pos[key]] = c
        return coords

    def weight_complex(self, w):
        """cech_weight_complex(scheme, self, w), built once per weight."""
        if w not in self._complexes:
            self._complexes[w] = cech_weight_complex(self.scheme, self, w)
        return self._complexes[w]

    def weight_span(self):
        """[min, max] generator weight over all charts."""
        lo = min(min(w) for w in self.weights.values())
        hi = max(max(w) for w in self.weights.values())
        return lo, hi


# -- constructors on the projective line -------------------------------------

def structure_sheaf(X: GluedScheme) -> LocallyFreeSheaf:
    weights = {i: (0,) for i in range(X.nchart)}
    pm = {}
    for S in X.subsets(2):
        i, j = sorted(S)
        pm[(i, j)] = [[X.ring(S).one()]]
    return LocallyFreeSheaf(X, 1, weights, pm, name="O")


def line_bundle(X: GluedScheme, k: int) -> LocallyFreeSheaf:
    """O(k) on the projective line (and its redundant-chart variant).

    Chart-1 is the t-chart; its generator has weight k, and e_1 = s^k e_0 on
    the overlap.  Redundant charts copy chart 0.
    """
    weights = {}
    pm = {}
    for i in range(X.nchart):
        # t-charts carry the twist; s-charts are the reference trivialisation
        w = X.charts[i].ambient.weights[0]
        weights[i] = (k,) if w < 0 else (0,)
    for S in X.subsets(2):
        i, j = sorted(S)
        ring = X.ring(S)
        wi = X.charts[i].ambient.weights[0]
        wj = X.charts[j].ambient.weights[0]
        if wi == wj:
            pm[(i, j)] = [[ring.one()]]
            continue
        # frame chart i; express the twisted generator of the t-chart
        target_w = weights[j][0] - weights[i][0]
        entry = _monomial_of_weight(ring, target_w)
        pm[(i, j)] = [[entry]]
    return LocallyFreeSheaf(X, 1, weights, pm, name=f"O({k})")


def _monomial_of_weight(ring: QuotientRing, w: int) -> Polynomial:
    ms = weight_monomials(ring, w)
    if len(ms) != 1:
        raise CechError(f"no unique weight-{w} monomial in {ring!r}")
    return ring.ambient.monomial(ms[0])


def tangent_sheaf(X: GluedScheme) -> LocallyFreeSheaf:
    """Derivations, trivialised on chart i by d/d(chart variable).  Built
    once per scheme and kept on it."""
    if X._tangent_sheaf is not None:
        return X._tangent_sheaf
    weights = {}
    pm = {}
    for i in range(X.nchart):
        weights[i] = (-X.charts[i].ambient.weights[0],)
    for S in X.subsets(2):
        i, j = sorted(S)
        ring = X.ring(S)
        inc_j = X.inclusion(frozenset([j]), frozenset(S))
        # transport the chart-j frame derivation and read its coordinate on
        # the frame variable of chart i
        hv = inc_j.transport_derivation((X.charts[j].one(),))
        frame_var = X.inclusion(frozenset([i]), frozenset(S)).ring_map.images[0]
        # coordinate of the transported field on the frame generator d/ds
        coord = ring.apply_derivation(hv, frame_var)
        pm[(i, j)] = [[coord]]
    X._tangent_sheaf = LocallyFreeSheaf(X, 1, weights, pm, name="Theta")
    return X._tangent_sheaf


def transition_law(ring, C, U, N, h=None):
    """C.U.N, plus C.h(N) when the anchor h is given: how a map (h None) or a
    pair (h, U) changes frame, for a frame change C with inverse N.  C is None
    when the frames agree, and U is returned as it is."""
    if C is None:
        return U
    out = mat.mat_mul(ring, C, mat.mat_mul(ring, U, N))
    if h is None:
        return out
    return mat.mat_add(ring, out, mat.mat_mul(ring, C, mat.mat_derive(ring, h, N)))


def _elementary_images(ring, C, N):
    """Row-major entries of C.E_ab.N for each elementary E_ab, (a, b) in
    lexicographic order."""
    s, r = len(C), len(N)
    out = []
    for a in range(s):
        for b in range(r):
            E = mat.zero_matrix(ring, s, r)
            E[a][b] = ring.one()
            out.append(tuple(x for row in transition_law(ring, C, E, N) for x in row))
    return out


def sheaf_hom(F: LocallyFreeSheaf, G: LocallyFreeSheaf) -> LocallyFreeSheaf:
    """Hom(F, G) with the conjugation gluing f -> MG f NF; generator E_ab
    (row-major index a*r + b) maps E^F_b to E^G_a."""
    X = F.scheme
    r, s = F.rank, G.rank
    weights = {}
    for i in range(X.nchart):
        ws = []
        for a in range(s):
            for b in range(r):
                ws.append(G.weights[i][a] - F.weights[i][b])
        weights[i] = tuple(ws)
    pm = {}
    for S in X.subsets(2):
        i, j = sorted(S)
        ring = X.ring(S)
        cols = _elementary_images(ring, G.pair_matrix(i, j), F.pair_inverse(i, j))
        pm[(i, j)] = mat.mat_from_columns(ring, cols, s * r)
    return LocallyFreeSheaf(X, s * r, weights, pm,
                            name=f"Hom({F.name},{G.name})")


def pair_sheaf(F: LocallyFreeSheaf) -> LocallyFreeSheaf:
    """The sheaf of derivations of the pair (structure sheaf, F).

    Frame on chart i: (the chart frame derivation with zero values, then the
    elementary endomorphisms E_ab).  Each chart-j generator is moved to the
    chart-i frame by the pair transition law, which produces the twisted
    extension of Theta by End(F).  Built once per F and kept on it.
    """
    if F._pair_sheaf is not None:
        return F._pair_sheaf
    X = F.scheme
    r = F.rank
    rank = 1 + r * r
    theta = tangent_sheaf(X)
    weights = {}
    for i in range(X.nchart):
        ws = [theta.weights[i][0]]
        for a in range(r):
            for b in range(r):
                ws.append(F.weights[i][a] - F.weights[i][b])
        weights[i] = tuple(ws)
    pm = {}
    for S in X.subsets(2):
        i, j = sorted(S)
        ring = X.ring(S)
        M, N = F.pair_matrix(i, j), F.pair_inverse(i, j)
        # the chart-j anchor generator (d/dt, 0), read in the chart-i frame
        hv = X.inclusion(frozenset([j]), S).transport_derivation((X.charts[j].one(),))
        u_theta = transition_law(ring, M, mat.zero_matrix(ring, r, r), N, hv)
        cols = [(theta.pair_matrix(i, j)[0][0],)
                + tuple(x for row in u_theta for x in row)]
        cols += [(ring.zero(),) + col for col in _elementary_images(ring, M, N)]
        pm[(i, j)] = mat.mat_from_columns(ring, cols, rank)
    F._pair_sheaf = LocallyFreeSheaf(X, rank, weights, pm, name=f"D({F.name})")
    return F._pair_sheaf


def det_line(F: LocallyFreeSheaf) -> LocallyFreeSheaf:
    """Top exterior power of F."""
    X = F.scheme
    weights = {i: (sum(F.weights[i]),) for i in range(X.nchart)}
    pm = {}
    for S in X.subsets(2):
        i, j = sorted(S)
        ring = X.ring(S)
        pm[(i, j)] = [[mat.det(ring, F.pair_matrix(i, j))]]
    return LocallyFreeSheaf(X, 1, weights, pm, name=f"det({F.name})")


def dual_line(L: LocallyFreeSheaf) -> LocallyFreeSheaf:
    if L.rank != 1:
        raise CechError("dual implemented for line sheaves")
    X = L.scheme
    weights = {i: (-L.weights[i][0],) for i in range(X.nchart)}
    pm = {}
    for S in X.subsets(2):
        i, j = sorted(S)
        ring = X.ring(S)
        inv = ring.inverse(L.pair_matrix(i, j)[0][0])
        if inv is None:
            raise CechError("transition is not a unit")
        pm[(i, j)] = [[inv]]
    return LocallyFreeSheaf(X, 1, weights, pm, name=f"{L.name}^")


def tensor_lines(A: LocallyFreeSheaf, B: LocallyFreeSheaf) -> LocallyFreeSheaf:
    if A.rank != 1 or B.rank != 1:
        raise CechError("tensor implemented for line sheaves")
    X = A.scheme
    weights = {i: (A.weights[i][0] + B.weights[i][0],) for i in range(X.nchart)}
    pm = {}
    for S in X.subsets(2):
        i, j = sorted(S)
        ring = X.ring(S)
        pm[(i, j)] = [[ring.nf(A.pair_matrix(i, j)[0][0] * B.pair_matrix(i, j)[0][0])]]
    return LocallyFreeSheaf(X, 1, weights, pm, name=f"{A.name}(x){B.name}")


def det_of_complex(sheaves: dict) -> LocallyFreeSheaf:
    """Alternating determinant line (x)_j det(E^j)^{(-1)^j} of a complex of
    sheaves given as {degree: LocallyFreeSheaf}."""
    acc = None
    for j in sorted(sheaves):
        piece = det_line(sheaves[j])
        if j % 2:
            piece = dual_line(piece)
        acc = piece if acc is None else tensor_lines(acc, piece)
    if acc is None:
        raise CechError("empty complex has no determinant data")
    return acc


# ---------------------------------------------------------------------------
# Cech cohomology (ordered cochains, weight by weight)
# ---------------------------------------------------------------------------

def cech_weight_complex(X: GluedScheme, F: LocallyFreeSheaf, w: int):
    """The ordered Cech complex of the weight-w line as a QComplex, together
    with the labelled bases per degree.  The restriction from tup to sup is
    one block of the differential, built from the sup frame change."""
    levels = {}
    bases = {}
    tuples = {}
    max_p = min(X.nchart, 3)
    for p in range(max_p):
        tuples[p] = sorted(tuple(sorted(S)) for S in X.subsets(p + 1))
        bases[p] = [(tup, lab) for tup in tuples[p] for lab in F.section_basis(tup, w)]
        levels[p] = len(bases[p])
    maps = {}
    for p in range(max_p - 1):
        matrix = [[Fraction(0)] * levels[p] for _ in range(levels[p + 1])]
        tpos = {lab: t for t, lab in enumerate(bases[p + 1])}
        first = 0  # column of the first basis vector of tup
        for tup in tuples[p]:
            source = X.ring(tup).ambient
            tup_basis = F.section_basis(tup, w)
            for sup in (s for s in tuples[p + 1] if set(tup) <= set(s)):
                # position of the omitted index gives the sign
                sign = (-1) ** sup.index((set(sup) - set(tup)).pop())
                ring = X.ring(sup)
                rmap = X.inclusion(tup, sup).ring_map
                conv = F.frame_change(tup, sup)
                for c, (mono, gen) in enumerate(tup_basis, first):
                    image = rmap(source.monomial(mono))
                    for a in range(F.rank):
                        if conv is not None:
                            x = ring.mul(conv[a][gen], image)
                        else:
                            x = image if a == gen else ring.zero()
                        for m, coeff in x.terms.items():
                            if (sup, (m, a)) not in tpos:
                                raise CechError("section term escapes the weight basis")
                            matrix[tpos[(sup, (m, a))]][c] += sign * coeff
            first += len(tup_basis)
        maps[p] = matrix
    return QComplex(dict(levels), maps), bases


WEIGHT_MARGIN = 2


def cech_cohomology(X: GluedScheme, F: LocallyFreeSheaf,
                    weight_bounds: Optional[tuple] = None) -> dict:
    """Cohomology dimensions per degree, summed over the weight window.

    The window defaults to the generator-weight span; weights on a
    WEIGHT_MARGIN strip around the window are verified to contribute
    nothing, which pins the certificate for the shipped two-chart geometries.
    """
    if weight_bounds is None:
        lo, hi = F.weight_span()
        weight_bounds = (lo - 1, hi + 1)
    if X is not F.scheme:
        raise CechError(f"{F.name} is a sheaf on another scheme")
    lo, hi = weight_bounds
    dims = {}
    by_weight = {}
    for w in range(lo - WEIGHT_MARGIN, hi + WEIGHT_MARGIN + 1):
        qc, _ = F.weight_complex(w)
        h = qc.cohomology()
        by_weight[w] = h
        inside = lo <= w <= hi
        for p, v in h.items():
            if v and not inside:
                raise CechError(
                    f"weight {w} outside the window contributes to H^{p}; "
                    "enlarge the bounds")
            dims[p] = dims.get(p, 0) + (v if inside else 0)
    return {"dims": dims, "by_weight": by_weight, "window": (lo, hi)}


@dataclass
class SheafCohomology:
    """Adapter exposing cohomology_dims() for tangent/obstruction queries."""

    X: GluedScheme
    F: LocallyFreeSheaf
    bounds: Optional[tuple] = None

    def cohomology_dims(self):
        return cech_cohomology(self.X, self.F, self.bounds)["dims"]
