"""Exact sparse multivariate polynomials over the rationals.

Coefficients are `fractions.Fraction` (always reduced, positive denominator),
monomials are exponent tuples indexed by the ring's variables.  Everything is
immutable after construction and safe to share.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Optional

Mono = tuple


class PolyError(ValueError):
    pass


def mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(x + y for x, y in zip(a, b))


def mono_div(a: Mono, b: Mono) -> Optional[Mono]:
    """a / b, or None when b does not divide a."""
    q = []
    for x, y in zip(a, b):
        if x < y:
            return None
        q.append(x - y)
    return tuple(q)


def mono_lcm(a: Mono, b: Mono) -> Mono:
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_deg(a: Mono) -> int:
    return sum(a)


class MonomialOrder:
    """Total multiplicative well-order on monomials.

    kind is 'grevlex' (default) or 'lex'; perm is an optional variable
    permutation, perm[k] = index of the k-th most significant variable.
    """

    def __init__(self, kind: str = "grevlex", perm: Optional[tuple] = None):
        if kind not in ("grevlex", "lex"):
            raise PolyError(f"unknown monomial order {kind!r}")
        self.kind = kind
        self.perm = tuple(perm) if perm is not None else None

    def _permuted(self, m: Mono) -> Mono:
        if self.perm is None:
            return m
        return tuple(m[i] for i in self.perm)

    def key(self, m: Mono):
        """Sort key; larger key = larger monomial."""
        p = self._permuted(m)
        if self.kind == "lex":
            return p
        return (sum(p), tuple(-e for e in reversed(p)))

    def __eq__(self, other):
        return (isinstance(other, MonomialOrder)
                and self.kind == other.kind and self.perm == other.perm)

    def __repr__(self):
        if self.perm is None:
            return f"MonomialOrder({self.kind!r})"
        return f"MonomialOrder({self.kind!r}, perm={self.perm})"


LEX = MonomialOrder("lex")
GREVLEX = MonomialOrder("grevlex")


class PolyRing:
    """A polynomial ring QQ[x1..xn] with a fixed monomial order.

    `weights`, when given, assigns an integer torus weight to each variable;
    weight bookkeeping is only used by the geometric layer.
    """

    def __init__(self, variables: Iterable[str], order: MonomialOrder = GREVLEX,
                 weights: Optional[Iterable[int]] = None):
        self.variables = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise PolyError("duplicate variable names")
        self.nvars = len(self.variables)
        self.order = order
        self.weights = tuple(weights) if weights is not None else None
        if self.weights is not None and len(self.weights) != self.nvars:
            raise PolyError("weight vector length mismatch")
        self._zero_mono = (0,) * self.nvars

    # -- constructors -------------------------------------------------
    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.const(1)

    def const(self, c) -> "Polynomial":
        c = Fraction(c)
        if c == 0:
            return self.zero()
        return Polynomial(self, {self._zero_mono: c})

    def var(self, i) -> "Polynomial":
        if isinstance(i, str):
            i = self.variables.index(i)
        e = [0] * self.nvars
        e[i] = 1
        return Polynomial(self, {tuple(e): Fraction(1)})

    def gens(self):
        return tuple(self.var(i) for i in range(self.nvars))

    def monomial(self, expts, c=1) -> "Polynomial":
        expts = tuple(expts)
        if len(expts) != self.nvars:
            raise PolyError("exponent tuple length mismatch")
        c = Fraction(c)
        if c == 0:
            return self.zero()
        return Polynomial(self, {expts: c})

    def mono_weight(self, m: Mono) -> int:
        if self.weights is None:
            raise PolyError("ring has no weight data")
        return sum(e * w for e, w in zip(m, self.weights))

    # -- parsing (used by tests and the CLI) --------------------------
    _token_re = re.compile(r"\s*(\d+\s*/\s*\d+|\d+|[A-Za-z_][A-Za-z_0-9]*|\*\*|[-+*^()])")

    def parse(self, text: str) -> "Polynomial":
        """Parse '+ - * ^' expressions like 'y^2 - x^3' or '3/2*x*y'.

        A rational literal may have spaces around its '/' ('3 / 2').
        """
        tokens = []
        pos = 0
        while pos < len(text):
            m = self._token_re.match(text, pos)
            if m is None:
                if text[pos:].strip() == "":
                    break
                raise PolyError(f"cannot tokenize {text[pos:]!r}")
            tok = re.sub(r"\s+", "", m.group(1))
            tokens.append("^" if tok == "**" else tok)
            pos = m.end()
        tokens.append(None)  # sentinel
        state = {"i": 0}

        def peek():
            return tokens[state["i"]]

        def advance():
            state["i"] += 1

        def parse_atom():
            tok = peek()
            if tok == "(":
                advance()
                p = parse_sum()
                if peek() != ")":
                    raise PolyError("missing ')'")
                advance()
            elif tok is not None and re.fullmatch(r"\d+/\d+|\d+", tok):
                advance()
                try:
                    p = self.const(Fraction(tok))
                except ZeroDivisionError:
                    raise PolyError(f"zero denominator in {tok!r}") from None
            elif tok is not None and re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", tok):
                if tok not in self.variables:
                    raise PolyError(f"unknown variable {tok!r}")
                advance()
                p = self.var(tok)
            else:
                raise PolyError(f"unexpected token {tok!r}")
            if peek() == "^":
                advance()
                etok = peek()
                if etok is None or not etok.isdigit():
                    raise PolyError("exponent must be a nonnegative integer")
                advance()
                p = p ** int(etok)
            return p

        def parse_product():
            p = parse_atom()
            while peek() == "*":
                advance()
                p = p * parse_atom()
            return p

        def parse_sum():
            sign = 1
            if peek() in ("+", "-"):
                if peek() == "-":
                    sign = -1
                advance()
            p = parse_product() * sign
            while peek() in ("+", "-"):
                sgn = 1 if peek() == "+" else -1
                advance()
                p = p + parse_product() * sgn
            return p

        result = parse_sum()
        if peek() is not None:
            raise PolyError(f"trailing input at token {peek()!r}")
        return result

    def __eq__(self, other):
        return (isinstance(other, PolyRing) and self.variables == other.variables
                and self.order == other.order and self.weights == other.weights)

    def __hash__(self):
        return hash((self.variables, self.order.kind, self.order.perm, self.weights))

    def __repr__(self):
        return f"QQ[{', '.join(self.variables)}]"


class Polynomial:
    """Immutable sparse polynomial; `terms` maps exponent tuple -> Fraction."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = {m: c for m, c in terms.items() if c != 0}

    # -- queries -------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(mono_deg(m) == 0 for m in self.terms)

    def constant_term(self) -> Fraction:
        return self.terms.get(self.ring._zero_mono, Fraction(0))

    def total_degree(self) -> int:
        """Max total degree of a term; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(mono_deg(m) for m in self.terms)

    def lead(self, order: Optional[MonomialOrder] = None):
        """(monomial, coefficient) of the leading term; PolyError on zero."""
        if not self.terms:
            raise PolyError("zero polynomial has no leading term")
        order = order or self.ring.order
        m = max(self.terms, key=order.key)
        return m, self.terms[m]

    def sorted_terms(self, order: Optional[MonomialOrder] = None):
        order = order or self.ring.order
        return sorted(self.terms.items(), key=lambda t: order.key(t[0]), reverse=True)

    def weight(self) -> Optional[int]:
        """Common torus weight of all terms, or None if inhomogeneous/zero."""
        ws = {self.ring.mono_weight(m) for m in self.terms}
        if len(ws) == 1:
            return ws.pop()
        return None

    # -- arithmetic ----------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.ring is not self.ring and other.ring != self.ring:
                raise PolyError("polynomials from different rings")
            return other
        return self.ring.const(other)

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, Fraction(0)) + c
            if s == 0:
                out.pop(m, None)
            else:
                out[m] = s
        return Polynomial(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + self._coerce(other)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            c = Fraction(other)
            if c == 0:
                return self.ring.zero()
            return Polynomial(self.ring, {m: c * v for m, v in self.terms.items()})
        other = self._coerce(other)
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                s = out.get(m, Fraction(0)) + c1 * c2
                if s == 0:
                    out.pop(m, None)
                else:
                    out[m] = s
        return Polynomial(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise PolyError("negative power")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def mul_term(self, mono: Mono, coeff) -> "Polynomial":
        coeff = Fraction(coeff)
        if coeff == 0:
            return self.ring.zero()
        return Polynomial(self.ring,
                          {mono_mul(m, mono): c * coeff for m, c in self.terms.items()})

    def diff(self, i) -> "Polynomial":
        """Partial derivative with respect to variable i (index or name)."""
        if isinstance(i, str):
            i = self.ring.variables.index(i)
        out: dict = {}
        for m, c in self.terms.items():
            if m[i] == 0:
                continue
            e = list(m)
            e[i] -= 1
            out[tuple(e)] = out.get(tuple(e), Fraction(0)) + c * m[i]
        return Polynomial(self.ring, out)

    def substitute(self, target_ring: PolyRing, images: list) -> "Polynomial":
        """Evaluate at images[i] in target_ring for the i-th variable."""
        if len(images) != self.ring.nvars:
            raise PolyError("substitution needs one image per variable")
        # cache powers per variable
        powers = [{0: target_ring.one()} for _ in images]

        def power(i, e):
            cache = powers[i]
            if e not in cache:
                cache[e] = power(i, e - 1) * images[i]
            return cache[e]

        result = target_ring.zero()
        for m, c in self.terms.items():
            term = target_ring.const(c)
            for i, e in enumerate(m):
                if e:
                    term = term * power(i, e)
            result = result + term
        return result

    # -- comparison / display -------------------------------------------
    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def _mono_str(self, m: Mono) -> str:
        parts = []
        for name, e in zip(self.ring.variables, m):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for m, c in self.sorted_terms():
            ms = self._mono_str(m)
            if not ms:
                body = str(c if c > 0 else -c)
            else:
                a = abs(c)
                body = ms if a == 1 else f"{a}*{ms}"
            if not chunks:
                chunks.append(body if c > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(chunks)

    def __repr__(self):
        return f"<{self}>"
