"""Buchberger-style Groebner machinery for ideals and free-module submodules.

One engine works on vectors in R^n under a position-over-term (POT) order:
earlier positions dominate, which is what makes the elimination-based syzygy
and kernel computations below correct.  An ideal is the rank-1 case, its
polynomials wrapped as 1-tuples.  Membership certificates and particular
solutions come from tagged generators (`syzygies`, `solve_many`): one basis
per linear system, then one normal form per right-hand side.  Pairs are
kept by the Gebauer-Moeller update (J. Symb. Comp. 1988, in the form of
Becker-Weispfenning, Groebner Bases, p. 230); its criteria compare only leads
in one position, and the coprime-lead criterion holds at rank 1 alone.

All computations are exact; hard caps raise CapacityError instead of ever
returning a truncated answer.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional

from .poly import (MonomialOrder, PolyRing, Polynomial, mono_div, mono_lcm,
                   mono_mul)


class CapacityError(RuntimeError):
    """A configured resource cap was exceeded; the result would be unknown."""


@dataclass(frozen=True)
class Caps:
    """Hard limits of one Buchberger run.  `max_pairs` counts the S-pairs that
    reach reduction; pairs that a criterion removes do not count."""

    max_pairs: int = 20000
    max_degree: int = 120


DEFAULT_CAPS = Caps()
QQ_DIMENSION_CAP = 10000


def _check_dimension(dim: int):
    if dim > QQ_DIMENSION_CAP:
        raise CapacityError("capacity: quotient dimension exceeds the cap")


def _check_degree(p: Polynomial, caps: Caps):
    if p.total_degree() > caps.max_degree:
        raise CapacityError(
            f"capacity: intermediate degree {p.total_degree()} exceeds cap {caps.max_degree}")


def vec_zero(ring: PolyRing, n: int) -> tuple:
    z = ring.zero()
    return tuple(z for _ in range(n))

def vec_is_zero(v) -> bool:
    return all(p.is_zero() for p in v)

def vec_scale(c, v) -> tuple:
    return tuple(p * c for p in v)


# ---------------------------------------------------------------------------
# the engine: vectors in R^n, position-over-term order
# ---------------------------------------------------------------------------

def _lead(v, order: MonomialOrder):
    """POT leading term (position, monomial, coeff) of a nonzero vector."""
    for pos, p in enumerate(v):
        if p.terms:
            return (pos, *p.lead(order))


class _Keys(dict):
    """Order key per monomial, computed on first lookup."""

    def __init__(self, order: MonomialOrder):
        super().__init__()
        self.order = order

    def __missing__(self, m):
        k = self[m] = self.order.key(m)
        return k


def _reduce(v, basis: list, leads: list, order: MonomialOrder) -> tuple:
    """Remainder of dividing the vector v by `basis`, whose POT leads are `leads`.

    When several leads divide, the first in basis order wins.  Against a
    Groebner basis the remainder is the unique normal form.
    """
    work = [dict(p.terms) for p in v]
    rem = [{} for _ in v]
    key = _Keys(order).__getitem__
    for pos, w in enumerate(work):
        divisors = [(lm, lc, g) for (lp, lm, lc), g in zip(leads, basis) if lp == pos]
        if not divisors:
            rem[pos] = w
            continue
        while w:
            m = max(w, key=key)
            for lm, lc, g in divisors:
                q = mono_div(m, lm)
                if q is not None:
                    break
            else:
                rem[pos][m] = w.pop(m)
                continue
            # w -= (w[m] / lc) * x^q * g; g is zero before `pos`, and its
            # lead term cancels m exactly
            f = w[m] / lc
            for gp, wd in zip(g[pos:], work[pos:]):
                for gm, gc in gp.terms.items():
                    mm = mono_mul(gm, q)
                    s = wd.get(mm, 0) - f * gc
                    if s:
                        wd[mm] = s
                    else:
                        del wd[mm]
    return tuple(Polynomial(p.ring, d) for p, d in zip(v, rem))


def _buchberger(G: list, order: MonomialOrder, caps: Caps) -> list:
    """Reduced POT Groebner basis of the submodule spanned by the list G of
    nonzero vectors of one length; G is extended in place."""
    if not G:
        return []
    for g in G:
        for p in g:
            _check_degree(p, caps)
    leads = [_lead(g, order) for g in G]
    rank1 = len(G[0]) == 1
    active = []  # indices into G whose leads no later lead divides
    live = {}    # pending pair (i, j) -> lcm; the queue skips dropped pairs
    queue = []

    def divides(a, b):
        return mono_div(b, a) is not None

    def update(h):
        """Gebauer-Moeller update (Becker-Weispfenning p. 230) for G[h]."""
        pos, mh, _ = leads[h]
        new = [(g, mono_lcm(leads[g][1], mh)) for g in active if leads[g][0] == pos]
        # M and F criteria: drop (g, h) when the lcm of a pair still in `new`
        # or already kept divides its lcm, so one pair per equal lcm survives
        kept = []
        for k, (g, lcm) in enumerate(new):
            # coprime leads: the S-polynomial reduces to 0 (not so for n > 1)
            coprime = rank1 and lcm == mono_mul(leads[g][1], mh)
            if coprime or not any(divides(m, lcm) for _, m, _ in kept) \
                    and not any(divides(m, lcm) for _, m in new[k + 1:]):
                kept.append((g, lcm, coprime))
        # chain criterion on the pending pairs of h's position
        for (i, j), lcm in list(live.items()):
            if (leads[i][0] == pos and divides(mh, lcm)
                    and mono_lcm(leads[i][1], mh) != lcm
                    and mono_lcm(leads[j][1], mh) != lcm):
                del live[i, j]
        for g, lcm, coprime in kept:
            if not coprime:
                live[g, h] = lcm
                # smallest lcm in the POT order first, so later positions
                # first: their elements keep the tails of earlier ones small
                heapq.heappush(queue, (-pos, order.key(lcm), g, h, lcm))
        active[:] = [g for g in active
                     if leads[g][0] != pos or not divides(mh, leads[g][1])]
        active.append(h)

    for j in range(len(G)):
        update(j)
    processed = 0
    while queue:
        _, _, i, j, lcm = heapq.heappop(queue)
        if live.pop((i, j), None) is None:
            continue
        processed += 1
        if processed > caps.max_pairs:
            raise CapacityError(f"capacity: more than {caps.max_pairs} S-pairs")
        _, mi, ci = leads[i]
        _, mj, cj = leads[j]
        qi, qj = mono_div(lcm, mi), mono_div(lcm, mj)
        s = tuple(a.mul_term(qi, 1 / ci) - b.mul_term(qj, 1 / cj)
                  for a, b in zip(G[i], G[j]))
        r = _reduce(s, G, leads, order)
        if vec_is_zero(r):
            continue
        for p in r:
            _check_degree(p, caps)
        G.append(r)
        leads.append(_lead(r, order))
        update(len(G) - 1)
    return interreduce(G, leads, order)


def interreduce(G: list, leads: list, order: MonomialOrder) -> list:
    """Minimalize and tail-reduce a POT Groebner basis whose leads are `leads`.

    Output is monic and sorted by decreasing lead, hence canonical.
    """
    sort_key = [(-pos, order.key(m)) for pos, m, _ in leads]
    # minimalize: drop elements whose lead is divisible by another lead
    keep = []
    for t in sorted(range(len(G)), key=sort_key.__getitem__):
        pos, m, _ = leads[t]
        if not any(leads[s][0] == pos and mono_div(m, leads[s][1]) is not None
                   for s in keep):
            keep.append(t)
    G = [G[t] for t in keep]
    leads = [leads[t] for t in keep]
    reduced = [vec_scale(1 / leads[t][2],
                         _reduce(G[t], G[:t] + G[t + 1:], leads[:t] + leads[t + 1:], order))
               for t in range(len(G))]
    # minimal leads are distinct, so reversing the ascending order sorts them
    return reduced[::-1]


# ---------------------------------------------------------------------------
# ideals: the rank-1 case
# ---------------------------------------------------------------------------

def groebner_basis(gens: list, order: Optional[MonomialOrder] = None,
                   caps: Caps = DEFAULT_CAPS) -> list:
    """Reduced Groebner basis of the ideal generated by `gens`.

    The zero ideal gives [].  Output is monic, interreduced and sorted by
    decreasing leading monomial, hence canonical for the given order.
    """
    gens = [(g,) for g in gens if not g.is_zero()]
    if not gens:
        return []
    order = order or gens[0][0].ring.order
    return [g for (g,) in _buchberger(gens, order, caps)]


def poly_reduce(p: Polynomial, basis: list, leads: Optional[list] = None) -> Polynomial:
    """Remainder of multivariate division of p by the list `basis`, under the
    order of p's ring.

    Against a Groebner basis this is the unique normal form.  `leads`, if
    given, are the cached POT leads `_lead((g,), order)` of the basis.
    """
    if not basis:
        return p
    order = p.ring.order
    vecs = [(g,) for g in basis]
    if leads is None:
        leads = [_lead(g, order) for g in vecs]
    return _reduce((p,), vecs, leads, order)[0]


def ideal_contains(basis: list, p: Polynomial) -> bool:
    return poly_reduce(p, basis).is_zero()


# ---------------------------------------------------------------------------
# submodules of R^n
# ---------------------------------------------------------------------------

class ModuleBasis:
    """Reduced Groebner basis of a submodule of ring^n under POT order, with
    the ring's monomial order inside each position."""

    def __init__(self, ring: PolyRing, n: int, gens: list, caps: Caps = DEFAULT_CAPS):
        self.ring = ring
        self.n = n
        self.order = ring.order
        vecs = []
        for g in gens:
            g = tuple(g)
            if len(g) != n:
                raise ValueError("generator length mismatch")
            if not vec_is_zero(g):
                vecs.append(g)
        self.basis = _buchberger(vecs, self.order, caps)
        self.leads = [_lead(b, self.order) for b in self.basis]

    def normal_form(self, v) -> tuple:
        return _reduce(tuple(v), self.basis, self.leads, self.order)

    def contains(self, v) -> bool:
        return vec_is_zero(self.normal_form(v))


# ---------------------------------------------------------------------------
# elimination-based syzygies, kernels and solving
# ---------------------------------------------------------------------------

def ideal_rows(ring: PolyRing, ideal_gens, n: int, width: int) -> list:
    """g*e_i in R^width for every ideal generator g and position i < n.

    Together they generate I*R^n inside the first n coordinates.
    """
    zero = ring.zero()
    return [tuple(g if j == i else zero for j in range(width))
            for g in ideal_gens for i in range(n)]


def _tagged_generators(ring, columns, n, ideal_gens):
    """Columns c_j |-> c_j + e_j in R^(n+k), plus g*e_i + 0 for ideal gens."""
    k = len(columns)
    zero, one = ring.zero(), ring.one()
    gens = [tuple(col) + tuple(one if t == j else zero for t in range(k))
            for j, col in enumerate(columns)]
    return gens + ideal_rows(ring, ideal_gens, n, n + k)


def syzygies(ring: PolyRing, columns: list, ideal_gens: list = (),
             caps: Caps = DEFAULT_CAPS) -> list:
    """Generators of the syzygy module of `columns` in (R/I)^n.

    columns are vectors of equal length n over the ambient ring; ideal_gens
    generate I (empty for the plain polynomial ring).  Returned vectors s of
    length len(columns) satisfy sum s_j * columns[j] = 0 modulo I exactly.
    Columns of length 0 (a system with no equations) have the unit vectors
    as syzygies, returned without building a basis.
    """
    if not columns:
        return []
    n = len(columns[0])
    k = len(columns)
    if n == 0:
        zero, one = ring.zero(), ring.one()
        return [tuple(one if t == j else zero for t in range(k)) for j in range(k)]
    gens = _tagged_generators(ring, columns, n, ideal_gens)
    mb = ModuleBasis(ring, n + k, gens, caps=caps)
    out = []
    for b in mb.basis:
        if vec_is_zero(b[:n]):
            tag = b[n:]
            if not vec_is_zero(tag):
                out.append(tag)
    return out


def solve_many(ring: PolyRing, columns: list, targets, ideal_gens: list = (),
               caps: Caps = DEFAULT_CAPS) -> list:
    """Solve sum a_j*columns[j] = t modulo I for every target t: one solution
    tuple, or None when t is not in the image, per target.

    One module Groebner basis of the tagged columns serves every target.
    Deterministic: each particular solution is read off the tag coordinates
    of the target's normal form against that canonical basis.
    """
    targets = [tuple(t) for t in targets]
    if not targets:
        return []
    n, k = len(targets[0]), len(columns)
    if n == 0:
        # no equations: zero solves every (empty) target
        return [vec_zero(ring, k)] * len(targets)
    gens = _tagged_generators(ring, columns, n, ideal_gens)
    mb = ModuleBasis(ring, n + k, gens, caps=caps)
    pad = vec_zero(ring, k)
    out = []
    for t in targets:
        r = mb.normal_form(t + pad)
        # t + pad - r lies in the span of the tagged generators; the ideal
        # rows carry zero tags, so the tag part of r is minus a solution
        out.append(tuple(-p for p in r[n:]) if vec_is_zero(r[:n]) else None)
    return out


def solve_in_image(ring: PolyRing, columns: list, target, ideal_gens: list = (),
                   caps: Caps = DEFAULT_CAPS):
    """Solve sum a_j*columns[j] = target modulo I; None when unsolvable."""
    return solve_many(ring, columns, [target], ideal_gens, caps)[0]


def submodule_contains(ring: PolyRing, columns: list, v, ideal_gens: list = (),
                       caps: Caps = DEFAULT_CAPS) -> bool:
    return solve_in_image(ring, columns, v, ideal_gens, caps) is not None


def missing_pure_power(nvars: int, leads: list) -> Optional[int]:
    """The first variable with no pure power among the monomials `leads`, or
    None: then finitely many monomials escape every lead (none if one is 1)."""
    if any(sum(m) == 0 for m in leads):
        return None
    pure = {i for m in leads for i, e in enumerate(m) if 0 < e == sum(m)}
    return next((i for i in range(nvars) if i not in pure), None)


def standard_monomials(nvars: int, leads: list) -> list:
    """The monomials that no monomial of `leads` divides, in search order.
    They must be finitely many (`missing_pure_power`); raises CapacityError
    when there are more than QQ_DIMENSION_CAP."""
    out = [] if any(sum(m) == 0 for m in leads) else [(0,) * nvars]
    seen = set(out)
    for m in out:  # out grows as the search finds monomials
        _check_dimension(len(out))
        for i in range(nvars):
            child = m[:i] + (m[i] + 1,) + m[i + 1:]
            if child not in seen:
                seen.add(child)
                if all(mono_div(child, lm) is None for lm in leads):
                    out.append(child)
    return out


def quotient_qq_dimension(ring: PolyRing, n: int, columns: list,
                          ideal_gens: list = (),
                          caps: Caps = DEFAULT_CAPS) -> Optional[int]:
    """dim over QQ of R^n/(columns) modulo I: counted as the number of
    standard module monomials; None when the dimension is infinite."""
    gens = list(columns) + ideal_rows(ring, ideal_gens, n, n)
    mb = ModuleBasis(ring, n, gens, caps=caps)
    by_pos = [[m for pos, m, _ in mb.leads if pos == p] for p in range(n)]
    if any(missing_pure_power(ring.nvars, ms) is not None for ms in by_pos):
        return None
    count = sum(len(standard_monomials(ring.nvars, ms)) for ms in by_pos)
    _check_dimension(count)
    return count
