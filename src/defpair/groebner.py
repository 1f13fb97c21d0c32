"""Buchberger-style Groebner machinery for ideals and free-module submodules.

Module Groebner bases use a position-over-term order (earlier positions
dominate), which is what makes the elimination-based syzygy and kernel
computations below correct.  The module engine optionally tracks, for every
basis element, its representation in terms of the input generators; that is
how membership certificates and particular solutions are extracted.

All computations are exact; hard caps raise CapacityError instead of ever
returning a truncated answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .poly import (MonomialOrder, PolyRing, Polynomial, mono_div, mono_lcm,
                   mono_mul)


class CapacityError(RuntimeError):
    """A configured resource cap was exceeded; the result would be unknown."""


@dataclass(frozen=True)
class Caps:
    max_pairs: int = 20000
    max_degree: int = 120


DEFAULT_CAPS = Caps()


def _check_degree(p: Polynomial, caps: Caps):
    if p.total_degree() > caps.max_degree:
        raise CapacityError(
            f"capacity: intermediate degree {p.total_degree()} exceeds cap {caps.max_degree}")


# ---------------------------------------------------------------------------
# scalar (ideal) layer
# ---------------------------------------------------------------------------

def poly_reduce(p: Polynomial, basis: list, order: Optional[MonomialOrder] = None) -> Polynomial:
    """Remainder of multivariate division of p by the list `basis`.

    Against a Groebner basis this is the unique normal form.
    """
    if not basis:
        return p
    ring = p.ring
    order = order or ring.order
    leads = [g.lead(order) for g in basis]
    remainder: dict = {}
    work = p
    while not work.is_zero():
        m, c = work.lead(order)
        for g, (gm, gc) in zip(basis, leads):
            q = mono_div(m, gm)
            if q is not None:
                work = work - g.mul_term(q, c / gc)
                break
        else:
            remainder[m] = c
            work = work - ring.monomial(m, c)
    return Polynomial(ring, remainder)


def _spoly(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    fm, fc = f.lead(order)
    gm, gc = g.lead(order)
    lcm = mono_lcm(fm, gm)
    return f.mul_term(mono_div(lcm, fm), 1 / fc) - g.mul_term(mono_div(lcm, gm), 1 / gc)


def groebner_basis(gens: list, order: Optional[MonomialOrder] = None,
                   caps: Caps = DEFAULT_CAPS) -> list:
    """Reduced Groebner basis of the ideal generated by `gens`.

    The zero ideal gives [].  Output is monic, interreduced and sorted by
    decreasing leading monomial, hence canonical for the given order.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    ring = gens[0].ring
    order = order or ring.order
    G = []
    for g in gens:
        _check_degree(g, caps)
        G.append(g)
    pairs = {(i, j) for i in range(len(G)) for j in range(i + 1, len(G))}
    processed = 0
    while pairs:
        # normal selection: smallest lcm in the order
        def lcm_key(p):
            return order.key(mono_lcm(G[p[0]].lead(order)[0], G[p[1]].lead(order)[0]))
        i, j = min(pairs, key=lcm_key)
        pairs.remove((i, j))
        processed += 1
        if processed > caps.max_pairs:
            raise CapacityError(f"capacity: more than {caps.max_pairs} S-pairs")
        fm = G[i].lead(order)[0]
        gm = G[j].lead(order)[0]
        if mono_lcm(fm, gm) == mono_mul(fm, gm):
            continue  # coprime leading monomials: S-polynomial reduces to 0
        r = poly_reduce(_spoly(G[i], G[j], order), G, order)
        if not r.is_zero():
            _check_degree(r, caps)
            k = len(G)
            G.append(r)
            pairs.update((t, k) for t in range(k))
    return interreduce(G, order)


def interreduce(G: list, order: MonomialOrder) -> list:
    """Minimalize and tail-reduce a Groebner basis; monic, sorted output."""
    # minimalize: drop elements whose lead is divisible by another lead
    G = sorted(G, key=lambda g: order.key(g.lead(order)[0]))
    minimal = []
    for g in G:
        gm = g.lead(order)[0]
        if any(mono_div(gm, h.lead(order)[0]) is not None for h in minimal):
            continue
        minimal.append(g)
    reduced = []
    for i, g in enumerate(minimal):
        rest = minimal[:i] + minimal[i + 1:]
        r = poly_reduce(g, rest, order) if rest else g
        if r.is_zero():
            continue
        _, c = r.lead(order)
        reduced.append(r * (1 / c))
    return sorted(reduced, key=lambda g: order.key(g.lead(order)[0]), reverse=True)


def ideal_contains(basis: list, p: Polynomial, order: Optional[MonomialOrder] = None) -> bool:
    return poly_reduce(p, basis, order).is_zero()


# ---------------------------------------------------------------------------
# module layer: submodules of R^n, position-over-term order
# ---------------------------------------------------------------------------

def vec_zero(ring: PolyRing, n: int) -> tuple:
    z = ring.zero()
    return tuple(z for _ in range(n))

def vec_is_zero(v) -> bool:
    return all(p.is_zero() for p in v)

def vec_sub(u, v) -> tuple:
    return tuple(a - b for a, b in zip(u, v))

def vec_scale(c, v) -> tuple:
    return tuple(p * c for p in v)

def vec_mul_term(v, mono, coeff) -> tuple:
    return tuple(p.mul_term(mono, coeff) for p in v)

def vec_pmul(p: Polynomial, v) -> tuple:
    return tuple(q * p for q in v)


def _vec_lead(v, order: MonomialOrder):
    """POT leading term ((position, monomial), coeff); position 0 dominates."""
    for pos, p in enumerate(v):
        if not p.is_zero():
            m, c = p.lead(order)
            return (pos, m), c
    return None, None


class ModuleBasis:
    """Groebner basis of a submodule of ring^n under position-over-term order.

    With track_reps=True every basis element carries its expression as a
    vector of coefficients over the original generators, and `reduce_tracked`
    returns quotients so that members come with exact certificates.
    """

    def __init__(self, ring: PolyRing, n: int, gens: list,
                 order: Optional[MonomialOrder] = None,
                 track_reps: bool = False, caps: Caps = DEFAULT_CAPS):
        self.ring = ring
        self.n = n
        self.order = order or ring.order
        self.caps = caps
        self.track_reps = track_reps
        self.ngens = len(gens)
        basis = []
        reps = []
        for idx, g in enumerate(gens):
            g = tuple(g)
            if len(g) != n:
                raise ValueError("generator length mismatch")
            if vec_is_zero(g):
                continue
            for p in g:
                _check_degree(p, caps)
            basis.append(g)
            if track_reps:
                rep = [ring.zero()] * self.ngens
                rep[idx] = ring.one()
                reps.append(tuple(rep))
        self.basis = basis
        self.reps = reps
        self._buchberger()
        self._interreduce()

    # -- internals ------------------------------------------------------
    def _reduce_raw(self, v, skip: Optional[int] = None):
        """Divide v by the current basis; returns (remainder, quotients)."""
        order = self.order
        quots = [self.ring.zero()] * len(self.basis)
        leads = []
        for b in self.basis:
            leads.append(_vec_lead(b, order))
        remainder = [dict() for _ in range(self.n)]
        work = tuple(v)
        while not vec_is_zero(work):
            (pos, m), c = _vec_lead(work, order)
            hit = False
            for t, (bl, bc) in enumerate(leads):
                if t == skip or bl is None:
                    continue
                bpos, bm = bl
                if bpos != pos:
                    continue
                q = mono_div(m, bm)
                if q is not None:
                    coeff = c / bc
                    work = vec_sub(work, vec_mul_term(self.basis[t], q, coeff))
                    quots[t] = quots[t] + self.ring.monomial(q, coeff)
                    hit = True
                    break
            if not hit:
                remainder[pos][m] = remainder[pos].get(m, Fraction(0)) + c
                work = vec_sub(work, tuple(
                    self.ring.monomial(m, c) if i == pos else self.ring.zero()
                    for i in range(self.n)))
        rem = tuple(Polynomial(self.ring, d) for d in remainder)
        return rem, quots

    def _same_pos_pairs(self, i_range, j):
        order = self.order
        lj, _ = _vec_lead(self.basis[j], order)
        return {(i, j) for i in i_range
                if _vec_lead(self.basis[i], order)[0][0] == lj[0]}

    def _buchberger(self):
        order = self.order
        pairs = set()
        for j in range(len(self.basis)):
            pairs |= self._same_pos_pairs(range(j), j)
        processed = 0
        while pairs:
            def lcm_key(p):
                li, _ = _vec_lead(self.basis[p[0]], order)
                lj, _ = _vec_lead(self.basis[p[1]], order)
                return (-li[0], order.key(mono_lcm(li[1], lj[1])))
            i, j = min(pairs, key=lcm_key)
            pairs.remove((i, j))
            li, ci = _vec_lead(self.basis[i], order)
            lj, cj = _vec_lead(self.basis[j], order)
            processed += 1
            if processed > self.caps.max_pairs:
                raise CapacityError(f"capacity: more than {self.caps.max_pairs} module S-pairs")
            lcm = mono_lcm(li[1], lj[1])
            qi, qj = mono_div(lcm, li[1]), mono_div(lcm, lj[1])
            s = vec_sub(vec_mul_term(self.basis[i], qi, 1 / ci),
                        vec_mul_term(self.basis[j], qj, 1 / cj))
            if self.track_reps:
                srep = vec_sub(vec_mul_term(self.reps[i], qi, 1 / ci),
                               vec_mul_term(self.reps[j], qj, 1 / cj))
            r, quots = self._reduce_raw(s)
            if not vec_is_zero(r):
                for p in r:
                    _check_degree(p, self.caps)
                if self.track_reps:
                    for t, q in enumerate(quots):
                        if not q.is_zero():
                            srep = vec_sub(srep, vec_pmul(q, self.reps[t]))
                    self.reps.append(srep)
                k = len(self.basis)
                self.basis.append(r)
                pairs |= self._same_pos_pairs(range(k), k)

    def _lead_key(self, v):
        (pos, m), _ = _vec_lead(v, self.order)
        return (-pos, self.order.key(m))

    def _interreduce(self):
        order = self.order
        # minimalize: drop elements whose lead is divisible by another lead
        items = sorted(range(len(self.basis)), key=lambda t: self._lead_key(self.basis[t]))
        keep = []
        for t in items:
            (pos, m), _ = _vec_lead(self.basis[t], order)
            dominated = any(
                pos == _vec_lead(self.basis[s], order)[0][0]
                and mono_div(m, _vec_lead(self.basis[s], order)[0][1]) is not None
                for s in keep)
            if not dominated:
                keep.append(t)
        self.basis = [self.basis[t] for t in keep]
        if self.track_reps:
            self.reps = [self.reps[t] for t in keep]
        # tail-reduce each element against the others and normalize
        new_basis, new_reps = [], []
        for idx in range(len(self.basis)):
            r, quots = self._reduce_raw(self.basis[idx], skip=idx)
            if vec_is_zero(r):
                continue
            _, c = _vec_lead(r, order)
            rep = None
            if self.track_reps:
                rep = self.reps[idx]
                for t, q in enumerate(quots):
                    if not q.is_zero():
                        rep = vec_sub(rep, vec_pmul(q, self.reps[t]))
                rep = vec_scale(1 / c, rep)
            new_basis.append(vec_scale(1 / c, r))
            new_reps.append(rep)
        ordering = sorted(range(len(new_basis)),
                          key=lambda t: self._lead_key(new_basis[t]), reverse=True)
        self.basis = [new_basis[t] for t in ordering]
        if self.track_reps:
            self.reps = [new_reps[t] for t in ordering]

    # -- public API -------------------------------------------------------
    def normal_form(self, v) -> tuple:
        r, _ = self._reduce_raw(tuple(v))
        return r

    def reduce_tracked(self, v):
        """(remainder, coeffs) with v - remainder == sum coeffs[j]*gens[j]."""
        if not self.track_reps:
            raise ValueError("basis was built without representation tracking")
        r, quots = self._reduce_raw(tuple(v))
        coeffs = [self.ring.zero()] * self.ngens
        for t, q in enumerate(quots):
            if q.is_zero():
                continue
            for j, rp in enumerate(self.reps[t]):
                coeffs[j] = coeffs[j] + q * rp
        return r, tuple(coeffs)

    def contains(self, v) -> bool:
        return vec_is_zero(self.normal_form(v))


# ---------------------------------------------------------------------------
# elimination-based syzygies, kernels and solving
# ---------------------------------------------------------------------------

def _tagged_generators(ring, columns, n, ideal_gens):
    """Columns c_j |-> c_j + e_j in R^(n+k), plus g*e_i + 0 for ideal gens."""
    k = len(columns)
    gens = []
    for j, col in enumerate(columns):
        col = tuple(col)
        tag = [ring.zero()] * k
        tag[j] = ring.one()
        gens.append(col + tuple(tag))
    for g in ideal_gens:
        for i in range(n):
            row = [ring.zero()] * (n + k)
            row[i] = g
            gens.append(tuple(row))
    return gens


def syzygies(ring: PolyRing, columns: list, ideal_gens: list = (),
             order: Optional[MonomialOrder] = None, caps: Caps = DEFAULT_CAPS) -> list:
    """Generators of the syzygy module of `columns` in (R/I)^n.

    columns are vectors of equal length n over the ambient ring; ideal_gens
    generate I (empty for the plain polynomial ring).  Returned vectors s of
    length len(columns) satisfy sum s_j * columns[j] = 0 modulo I exactly.
    """
    if not columns:
        return []
    n = len(columns[0])
    k = len(columns)
    gens = _tagged_generators(ring, columns, n, ideal_gens)
    mb = ModuleBasis(ring, n + k, gens, order=order, caps=caps)
    out = []
    for b in mb.basis:
        if vec_is_zero(b[:n]):
            tag = b[n:]
            if not vec_is_zero(tag):
                out.append(tag)
    return out


def solve_in_image(ring: PolyRing, columns: list, target, ideal_gens: list = (),
                   order: Optional[MonomialOrder] = None, caps: Caps = DEFAULT_CAPS):
    """Solve sum a_j*columns[j] = target modulo I; None when unsolvable.

    Deterministic: the particular solution comes from tracked division
    against the canonical module Groebner basis.
    """
    n = len(target)
    gens = _tagged_generators(ring, columns, n, ideal_gens)
    k = len(columns)
    mb = ModuleBasis(ring, n + k, gens, order=order, caps=caps)
    padded = tuple(target) + vec_zero(ring, k)
    r = mb.normal_form(padded)
    if not vec_is_zero(r[:n]):
        return None
    # padded - r lies in the span of the tagged generators; the ideal rows
    # carry zero tags, so the tag part of r is minus a solution vector.
    return tuple(-p for p in r[n:])


def submodule_contains(ring: PolyRing, columns: list, v, ideal_gens: list = (),
                       order: Optional[MonomialOrder] = None, caps: Caps = DEFAULT_CAPS) -> bool:
    return solve_in_image(ring, columns, v, ideal_gens, order, caps) is not None


def quotient_qq_dimension(ring: PolyRing, n: int, columns: list,
                          ideal_gens: list = (),
                          order: Optional[MonomialOrder] = None,
                          caps: Caps = DEFAULT_CAPS,
                          cap: int = 10000) -> Optional[int]:
    """dim over QQ of R^n/(columns) modulo I: counted as the number of
    standard module monomials; None when the dimension is infinite."""
    gens = list(columns)
    for g in ideal_gens:
        for i in range(n):
            col = [ring.zero()] * n
            col[i] = g
            gens.append(tuple(col))
    mb = ModuleBasis(ring, n, gens, order=order, caps=caps)
    leads = [_vec_lead(b, mb.order)[0] for b in mb.basis]
    # finite iff every position has a pure power of every variable among leads
    by_pos = {}
    for (pos, m) in leads:
        by_pos.setdefault(pos, []).append(m)
    for pos in range(n):
        ms = by_pos.get(pos, [])
        if any(sum(m) == 0 for m in ms):
            continue  # a unit lead kills the whole position
        for i in range(ring.nvars):
            if not any(m[i] > 0 and all(e == 0 or j == i for j, e in enumerate(m))
                       for m in ms):
                return None
    count = 0
    seen = set()
    queue = [(pos, (0,) * ring.nvars) for pos in range(n)]
    seen.update(queue)
    while queue:
        pos, m = queue.pop()
        if any(mono_div(m, lm) is not None for (lp, lm) in leads if lp == pos):
            continue
        count += 1
        if count > cap:
            raise CapacityError("capacity: quotient dimension exceeds the cap")
        for i in range(ring.nvars):
            child = tuple(e + (1 if j == i else 0) for j, e in enumerate(m))
            if (pos, child) not in seen:
                seen.add((pos, child))
                queue.append((pos, child))
    return count
