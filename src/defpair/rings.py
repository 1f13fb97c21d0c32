"""Quotient rings R = QQ[x..]/I, ring maps, Artin local algebras and scalar
extension R (x) A.

Elements of a quotient ring are ambient polynomials kept in normal form
against the cached reduced Groebner basis of the defining ideal, so equality
is literal equality of representatives.

Reduction rule: every value a library object hands out is a normal form.
Standard monomials are closed under QQ-linear combination, so sums,
differences and rational multiples of normal forms (ring or module) are
normal forms.  Only products with ring elements, substitutions, derivation
values, solver outputs (`solve_many`/`syzygies` tags are not reduced modulo
I; `FPModule.solve` reduces them) and constructors or parsers of outside
input reduce; normal forms are compared with `==`.  A module normal form is
taken against the module's basis only when it has relations; a free
module's is the ring normal form of each coordinate, the same value.  The exception among substitutions: a RingMap that
sends the variables injectively to variables and standard monomials to
standard monomials (decided once, from the leads of both rings) renames
exponents without reducing; `RingMap.check` always substitutes and reduces,
because relations are not normal forms.

Derived data is cached on the object it belongs to: a ring keeps its
standard monomials per torus weight (`weight_bases`, filled by the Cech
layer); a scheme its identity inclusions and tangent sheaf; a sheaf its
inverses, frame changes, weight complexes and D(F); a `QComplex` its ranks
and cohomology bases; a CLI session its sheaves.

An Artin local algebra A = QQ[t..]/J with residue field QQ is a quotient ring
that additionally knows its finite monomial basis and the nilpotency index of
its maximal ideal.  Scalar extension glues the variable blocks of R and A
into one quotient ring, which lets every exact operation (normal forms,
module arithmetic, derivations, exponentials) run unchanged over R (x) A;
elements of tensor-with-the-maximal-ideal type are recognised by having
positive degree in the A block of every term.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from . import linalg
from .groebner import (Caps, DEFAULT_CAPS, _lead, groebner_basis, missing_pure_power,
                       poly_reduce, standard_monomials)
from .poly import GREVLEX, PolyRing, Polynomial, mono_div


class RingError(ValueError):
    pass


class QuotientRing:
    """QQ[x1..xn]/I with a cached reduced Groebner basis of I."""

    def __init__(self, ambient: PolyRing, relations: Iterable[Polynomial] = (),
                 caps: Caps = DEFAULT_CAPS):
        self.ambient = ambient
        self.relations = [p for p in relations if not p.is_zero()]
        for p in self.relations:
            if p.ring != ambient:
                raise RingError("relation not in the ambient ring")
        self.gb = groebner_basis(self.relations, ambient.order, caps)
        if any(g.is_constant() for g in self.gb):
            raise RingError("defining ideal contains a unit; quotient is the zero ring")
        # POT leads of the basis as 1-tuples, for poly_reduce
        self.leads = [_lead((g,), ambient.order) for g in self.gb]
        self.caps = caps
        self._vars = tuple(self.nf(ambient.var(i)) for i in range(ambient.nvars))
        # standard monomials of each torus weight, kept by cech.weight_monomials
        self.weight_bases = {}

    # -- element helpers ------------------------------------------------
    @property
    def variables(self):
        return self.ambient.variables

    @property
    def nvars(self):
        return self.ambient.nvars

    def nf(self, p: Polynomial) -> Polynomial:
        return poly_reduce(p, self.gb, leads=self.leads) if self.gb else p

    def zero(self):
        return self.ambient.zero()

    def one(self):
        return self.ambient.one()

    def const(self, c):
        return self.ambient.const(c)

    def var(self, i):
        return self._vars[i]

    def gens(self):
        return self._vars

    def parse(self, text: str) -> Polynomial:
        return self.nf(self.ambient.parse(text))

    def mul(self, a: Polynomial, b: Polynomial) -> Polynomial:
        return self.nf(a * b)

    def apply_derivation(self, h_values, p: Polynomial) -> Polynomial:
        """Value of the derivation with h(x_i) = h_values[i] on p (chain rule)."""
        acc = self.ambient.zero()
        for i, hv in enumerate(h_values):
            if hv.is_zero():
                continue
            acc = acc + p.diff(i) * hv
        return self.nf(acc)

    def derivation_well_defined(self, h_values):
        """None if h descends to R, else a witness relation it violates."""
        for g in self.relations:
            if not self.apply_derivation(h_values, g).is_zero():
                return g
        return None

    def inverse(self, p: Polynomial) -> Optional[Polynomial]:
        """Multiplicative inverse in R, or None if p is not a unit."""
        from .groebner import solve_in_image
        sol = solve_in_image(self.ambient, [(p,)], (self.one(),),
                             ideal_gens=self.gb, caps=self.caps)
        return self.nf(sol[0]) if sol is not None else None

    def ideal(self, gens) -> "Ideal":
        return Ideal(self, gens)

    def __eq__(self, other):
        return (isinstance(other, QuotientRing) and self.ambient == other.ambient
                and self.gb == other.gb)

    def __hash__(self):
        return hash((self.ambient, tuple(self.gb)))

    def __repr__(self):
        if not self.relations:
            return repr(self.ambient)
        return f"{self.ambient}/({', '.join(map(str, self.relations))})"


class Ideal:
    """An ideal of a quotient ring, stored by generators in normal form."""

    def __init__(self, ring: QuotientRing, gens):
        self.ring = ring
        self.gens = [g for g in (ring.nf(p) for p in gens) if not g.is_zero()]
        self._gb = None
        self._leads = None

    def groebner(self):
        """Ambient-level Groebner basis of (gens) + defining ideal."""
        if self._gb is None:
            order = self.ring.ambient.order
            self._gb = groebner_basis(self.gens + self.ring.gb, order, self.ring.caps)
            self._leads = [_lead((g,), order) for g in self._gb]
        return self._gb

    def normal_form(self, p: Polynomial) -> Polynomial:
        return poly_reduce(p, self.groebner(), leads=self._leads)

    def contains(self, p: Polynomial) -> bool:
        return self.normal_form(p).is_zero()

    def contains_ideal(self, other: "Ideal") -> bool:
        return all(self.contains(g) for g in other.gens)

    def same_as(self, other: "Ideal") -> bool:
        return self.contains_ideal(other) and other.contains_ideal(self)

    def is_unit_ideal(self) -> bool:
        return self.contains(self.ring.one())

    def is_zero_ideal(self) -> bool:
        return not self.gens

    def __repr__(self):
        if not self.gens:
            return "(0)"
        return f"({', '.join(map(str, self.gens))})"


@dataclass
class RingMap:
    """Ring homomorphism between quotient rings, given on the variables.

    Fast path: when the map sends the variables injectively to variables and
    standard monomials to standard monomials, the image of a normal form is
    its exponents renamed, with no substitution and no reduction.  That holds
    iff every target lead in the image variables pulls back to a monomial
    divisible by a source lead; it is decided once, at construction.
    """

    source: QuotientRing
    target: QuotientRing
    images: tuple

    def __post_init__(self):
        self.images = tuple(self.target.nf(p) for p in self.images)
        if len(self.images) != self.source.nvars:
            raise RingError("ring map needs one image per source variable")
        self._slots = self._renaming()

    def _renaming(self):
        """Target variable index per source variable when the fast path
        applies, else None."""
        units = [m for p in self.images for m, c in p.terms.items()
                 if len(p.terms) == 1 and c == 1 and sum(m) == 1]
        slots = tuple(m.index(1) for m in units)
        if len(units) != len(self.images) or len(set(slots)) != len(slots):
            return None
        source_leads = [m for _, m, _ in self.source.leads]
        for _, lead, _ in self.target.leads:
            pulled = tuple(lead[t] for t in slots)
            if sum(pulled) == sum(lead) and not any(
                    mono_div(pulled, l) is not None for l in source_leads):
                return None
        return slots

    def check(self):
        # relations are not normal forms, so they take the general path
        for g in self.source.relations:
            if not self._substitute(g).is_zero():
                raise RingError(f"ring map does not kill the relation {g}")
        return self

    def __call__(self, p: Polynomial) -> Polynomial:
        """Image of a normal form of the source."""
        if self._slots is None:
            return self._substitute(p)
        terms = {}
        for m, c in p.terms.items():
            e = [0] * self.target.nvars
            for t, k in zip(self._slots, m):
                e[t] = k
            terms[tuple(e)] = c
        return Polynomial(self.target.ambient, terms)

    def _substitute(self, p: Polynomial) -> Polynomial:
        return self.target.nf(p.substitute(self.target.ambient, list(self.images)))

    @staticmethod
    def identity(ring: QuotientRing) -> "RingMap":
        return RingMap(ring, ring, ring.gens())


class ArtinError(RingError):
    pass


class ArtinAlgebra(QuotientRing):
    """Artin local QQ-algebra QQ[t..]/J with residue field QQ.

    basis: all standard monomials (finitely many, discovered);
    m_basis: the non-constant ones, a monomial basis of the maximal ideal;
    index: minimal N with m^N = 0.
    """

    def __init__(self, ambient: PolyRing, relations, caps: Caps = DEFAULT_CAPS):
        try:
            super().__init__(ambient, relations, caps=caps)
        except RingError as e:
            raise ArtinError(f"not local with residue QQ: {e}") from e
        leads = [m for _, m, _ in self.leads]
        i = missing_pure_power(self.nvars, leads)
        if i is not None:
            raise ArtinError(
                f"not Artin: no power of {self.variables[i]} lies in the relations")
        self.basis = sorted(standard_monomials(self.nvars, leads),
                            key=lambda m: (sum(m), self.ambient.order.key(m)))
        self.dim = len(self.basis)
        self._basis_pos = {m: i for i, m in enumerate(self.basis)}
        self.m_basis = [m for m in self.basis if sum(m) > 0]
        self.index = self._nilpotency_index()

    def _nilpotency_index(self):
        # chain of ideal powers m >= m^2 >= ... computed as exact QQ-spans
        # the maximal ideal as an ideal: spanned by b*t_i over all basis b
        power = []
        for b in self.basis:
            for i in range(self.nvars):
                p = self.nf(self.ambient.monomial(b) * self.ambient.var(i))
                if not p.is_zero():
                    power.append(self.element_coords(p))
        power, _ = linalg.rref(power)
        k = 1
        while power:
            nxt = []
            for w in power:
                for i in range(self.nvars):
                    p = self.nf(self.element(w) * self.ambient.var(i))
                    if not p.is_zero():
                        nxt.append(self.element_coords(p))
            nxt, _ = linalg.rref(nxt)
            if len(nxt) == len(power):
                raise ArtinError("not Artin local: the maximal ideal is not nilpotent")
            power = nxt
            k += 1
        return k

    def element_coords(self, p: Polynomial):
        """Coordinates of a normal-form element in the monomial basis."""
        v = [Fraction(0)] * self.dim
        for m, c in p.terms.items():
            v[self._basis_pos[m]] = c
        return v

    def element(self, coords) -> Polynomial:
        """The element with the given monomial-basis coordinates."""
        return Polynomial(self.ambient,
                          {m: c for m, c in zip(self.basis, coords) if c != 0})

    def __repr__(self):
        return f"Artin({super().__repr__()}, dim={self.dim}, N={self.index})"


def make_artin_algebra(names, relations, caps: Caps = DEFAULT_CAPS) -> ArtinAlgebra:
    """Build QQ[names]/(relations); relations may be strings or polynomials."""
    ambient = PolyRing(tuple(names), GREVLEX)
    rels = [ambient.parse(r) if isinstance(r, str) else r for r in relations]
    return ArtinAlgebra(ambient, rels, caps=caps)


class ExtendedRing(QuotientRing):
    """R (x) A presented as one quotient ring on the joined variable blocks."""

    def __init__(self, base: QuotientRing, artin: ArtinAlgebra):
        overlap = set(base.variables) & set(artin.variables)
        if overlap:
            raise RingError(f"variable clash in scalar extension: {sorted(overlap)}")
        ambient = PolyRing(base.variables + artin.variables, base.ambient.order)
        rels = ([self._pad_left(ambient, base.nvars, p, True) for p in base.relations]
                + [self._pad_left(ambient, base.nvars, p, False) for p in artin.relations])
        super().__init__(ambient, rels, caps=base.caps)
        self.base = base
        self.artin = artin

    @staticmethod
    def _pad_left(ambient, nbase, p, is_base):
        terms = {}
        for m, c in p.terms.items():
            if is_base:
                newm = m + (0,) * (ambient.nvars - len(m))
            else:
                newm = (0,) * nbase + m
            terms[newm] = c
        return Polynomial(ambient, terms)

    # The joined basis is the union of the blocks' bases, so products of standard
    # monomials of R and of A are standard: these maps need no reduction.
    def from_base(self, p: Polynomial) -> Polynomial:
        return self._pad_left(self.ambient, self.base.nvars, p, True)

    def from_artin(self, a: Polynomial) -> Polynomial:
        return self._pad_left(self.ambient, self.base.nvars, a, False)

    def artin_degree(self, p: Polynomial) -> Optional[int]:
        """Minimal A-block degree over the terms of p; None for p = 0."""
        nb = self.base.nvars
        degs = [sum(m[nb:]) for m in p.terms]
        return min(degs) if degs else None

    def in_max_ideal(self, p: Polynomial) -> bool:
        """True when every term has positive degree in the A block."""
        d = self.artin_degree(p)
        return d is None or d >= 1

    def reduce_to_base(self, p: Polynomial) -> Polynomial:
        """Set the maximal ideal of A to zero and land back in R."""
        nb = self.base.nvars
        terms = {}
        for m, c in p.terms.items():
            if sum(m[nb:]) == 0:
                terms[m[:nb]] = c
        return Polynomial(self.base.ambient, terms)

    def artin_components(self, p: Polynomial):
        """Decompose p as {A-basis monomial : element of R} (finite support)."""
        nb = self.base.nvars
        out = {}
        for m, c in p.terms.items():
            beta, xm = m[nb:], m[:nb]
            out.setdefault(beta, {})[xm] = c
        return {beta: Polynomial(self.base.ambient, t)
                for beta, t in sorted(out.items())}


def extend_ring(base: QuotientRing, artin: ArtinAlgebra) -> ExtendedRing:
    return ExtendedRing(base, artin)
