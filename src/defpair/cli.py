"""Command-line front end: a small declarative language for rings, modules,
complexes, Artin algebras, schemes and sheaves, plus commands that run the
library and emit deterministic reports (aligned text or canonical JSON).

Example script:

    ring R = QQ[x];
    module M over R = coker [[x,0],[0,x^2]];
    artin A = QQ[e]/(e^2);
    cmd fitting M;
    cmd derpairs R M;
    cmd cech-cohomology P1 O(-2);
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from typing import Optional

from .cech import (GluedScheme, LocallyFreeSheaf, line_bundle, pair_sheaf,
                   projective_line, projective_line_three_charts, structure_sheaf,
                   tangent_sheaf, cech_cohomology)
from .cocycles import first_order_class_dims, pair_tangent_spaces
from .dgla import TableDGLA, abelian_dgla, pro_representability_check, trace_morphism
from .groebner import Caps, DEFAULT_CAPS, CapacityError
from .mc import TableContext, mc_check, mc_residual
from .modules import (FPModule, FreeComplex, fitting_chain, free_resolution,
                      kaehler_differentials)
from .pairs import derivation_pair_module
from .poly import PolyRing
from .rings import ArtinAlgebra, Ideal, QuotientRing, make_artin_algebra

VERSION = "0.1.0"
SCHEMA = "defpair/1"


class ScriptError(ValueError):
    def __init__(self, message, line=None, col=None):
        self.line, self.col = line, col
        where = ""
        if line is not None:
            where = f" at line {line}" if col is None else f" at {line}:{col}"
        super().__init__(f"{message}{where}")


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

@dataclass
class Token:
    kind: str   # name | int | punct
    text: str
    line: int
    col: int


PUNCT = ("[", "]", "(", ")", "{", "}", ",", ";", "=", "/", "^",
         "*", "+", "-", ":")


def tokenize(text: str):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        matched = None
        for p in PUNCT:
            if text.startswith(p, i):
                matched = p
                break
        if matched:
            tokens.append(Token("punct", matched, line, col))
            i += len(matched)
            col += len(matched)
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_-"):
                j += 1
            tokens.append(Token("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ScriptError(f"cannot tokenize {c!r}", line, col)
    return tokens


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass
class Decl:
    kind: str
    name: str
    data: dict
    line: int

    def pretty(self) -> str:
        d = self.data
        if self.kind == "ring":
            head = f"ring {self.name} = QQ[{','.join(d['vars'])}]"
            if d["relations"]:
                head += f" / ({', '.join(d['relations'])})"
            return head + ";"
        if self.kind == "ideal":
            return f"ideal {self.name} in {d['ring']} = ({', '.join(d['gens'])});"
        if self.kind == "module":
            if d["shape"] == "free":
                return f"module {self.name} over {d['ring']} = free {d['rank']};"
            rows = ",".join("[" + ",".join(r) + "]" for r in d["rows"])
            return f"module {self.name} over {d['ring']} = coker [{rows}];"
        if self.kind == "complex":
            rows = ",".join("[" + ",".join(r) + "]" for r in d["rows"])
            return (f"complex {self.name} over {d['ring']} = [{rows}]"
                    f" in ({d['lo']}, {d['lo'] + 1});")
        if self.kind == "artin":
            return (f"artin {self.name} = QQ[{','.join(d['vars'])}]"
                    f"/({', '.join(d['relations'])});")
        if self.kind == "scheme":
            return f"scheme {self.name} = {d['builtin']};"
        if self.kind == "sheaf":
            return f"sheaf {self.name} = {d['expr']} on {d['scheme']};"
        if self.kind == "dgla":
            if d["shape"] == "abelian":
                dims = ", ".join(f"{k}:{v}" for k, v in d["dims"])
                return f"dgla {self.name} = abelian ({dims});"
            return f"dgla {self.name} = hom {d['complex']};"
        if self.kind == "element":
            if d["coeffs"] is None:
                return f"element {self.name} in {d['dgla']} deg {d['deg']} = zero;"
            return (f"element {self.name} in {d['dgla']} deg {d['deg']} = "
                    f"({', '.join(d['coeffs'])});")
        raise ScriptError(f"unknown declaration kind {self.kind}")


@dataclass
class Command:
    words: list
    line: int

    def pretty(self) -> str:
        return "cmd " + " ".join(self.words) + ";"


@dataclass
class SessionScript:
    items: list

    def pretty(self) -> str:
        return "\n".join(item.pretty() for item in self.items) + "\n"


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> Optional[Token]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def accept(self, text) -> bool:
        """Consume the next token if it is `text`; False at the end of input."""
        tok = self.peek()
        if tok is None or tok.text != text:
            return False
        self.i += 1
        return True

    def here(self):
        """(line, col) of the next token, or of the last one at the end."""
        tok = self.peek() or (self.tokens[-1] if self.tokens else Token("punct", "", 1, 1))
        return tok.line, tok.col

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise ScriptError("unexpected end of input", *self.here())
        self.i += 1
        return tok

    def expect(self, text) -> Token:
        tok = self.next()
        if tok.text != text:
            raise ScriptError(f"expected {text!r}, found {tok.text!r}",
                              tok.line, tok.col)
        return tok

    def expect_name(self) -> Token:
        tok = self.next()
        if tok.kind != "name":
            raise ScriptError(f"expected a name, found {tok.text!r}",
                              tok.line, tok.col)
        return tok

    def expect_int(self, signed=False) -> int:
        """An integer literal, with a leading '-' when `signed`."""
        sign = 1
        if signed and self.accept("-"):
            sign = -1
        tok = self.next()
        if tok.kind != "int":
            raise ScriptError(f"expected an integer, found {tok.text!r}",
                              tok.line, tok.col)
        return sign * int(tok.text)

    # -- declarations -------------------------------------------------------
    def _poly_text(self, stop=(",", ")", ";", "]")) -> str:
        parts = []
        depth = 0
        while True:
            tok = self.peek()
            if tok is None:
                raise ScriptError("unterminated expression", *self.here())
            if depth == 0 and tok.text in stop:
                break
            if tok.text == "(":
                depth += 1
            elif tok.text == ")":
                depth -= 1
            parts.append(self.next().text)
        if not parts:
            raise ScriptError("empty expression", tok.line, tok.col)
        return " ".join(parts)

    def _poly_list(self) -> list:
        """One or more comma-separated expressions."""
        out = [self._poly_text()]
        while self.accept(","):
            out.append(self._poly_text())
        return out

    def _parse_qq_presentation(self):
        self.expect("QQ")
        self.expect("[")
        names = [self.expect_name().text]
        while self.accept(","):
            names.append(self.expect_name().text)
        self.expect("]")
        relations = []
        if self.accept("/"):
            self.expect("(")
            relations = self._poly_list()
            self.expect(")")
        return names, relations

    def _parse_ring(self):
        names, relations = self._parse_qq_presentation()
        return {"vars": names, "relations": relations}

    def _parse_artin(self):
        names, relations = self._parse_qq_presentation()
        if not relations:
            raise ScriptError("an Artin algebra needs relations", *self.here())
        return {"vars": names, "relations": relations}

    def _matrix_rows(self):
        rows = []
        self.expect("[")
        while True:
            self.expect("[")
            rows.append(self._poly_list())
            self.expect("]")
            if not self.accept(","):
                break
        self.expect("]")
        return rows

    def _parse_scheme(self):
        tok = self.expect_name()
        if tok.text not in ("P1", "P1x3"):
            raise ScriptError(f"unknown scheme constructor {tok.text!r}",
                              tok.line, tok.col)
        return {"builtin": tok.text}

    def _parse_sheaf(self):
        expr = self._sheaf_expr()
        self.expect("on")
        scheme = self.expect_name().text
        return {"expr": expr, "scheme": scheme}

    def _sheaf_expr(self) -> str:
        tok = self.expect_name()
        if tok.text == "O":
            if self.accept("("):
                k = self.expect_int(signed=True)
                self.expect(")")
                return f"O({k})"
            return "O"
        if tok.text == "Theta":
            return "Theta"
        if tok.text == "D":
            self.expect("(")
            inner = self._sheaf_expr()
            self.expect(")")
            return f"D({inner})"
        raise ScriptError(f"unknown sheaf constructor {tok.text!r}",
                          tok.line, tok.col)

    def _parse_dgla(self):
        tok = self.expect_name()
        if tok.text == "abelian":
            self.expect("(")
            dims = []
            while True:
                deg = self.expect_int(signed=True)
                self.expect(":")
                dims.append((deg, self.expect_int()))
                if not self.accept(","):
                    break
            self.expect(")")
            return {"shape": "abelian", "dims": dims}
        if tok.text == "hom":
            return {"shape": "hom", "complex": self.expect_name().text}
        raise ScriptError(f"unknown dgla constructor {tok.text!r}",
                          tok.line, tok.col)

    # -- commands ------------------------------------------------------------
    def parse_command(self) -> Command:
        tok = self.expect("cmd")
        words = []
        while self.peek() is not None and self.peek().text != ";":
            nxt = self.next()
            text = nxt.text
            # glue sheaf-style arguments O ( - 2 ) into one word
            if text in ("O", "D") and self.accept("("):
                text += "("
                depth = 1
                while depth:
                    t2 = self.next()
                    text += t2.text
                    depth += (t2.text == "(") - (t2.text == ")")
            words.append(text)
        self.expect(";")
        if not words:
            raise ScriptError("empty command", tok.line, tok.col)
        return Command(words, tok.line)


def parse_script(text: str) -> SessionScript:
    """Parse a session script; total: either an AST or a positioned error."""
    tokens = tokenize(text)
    parser = Parser(tokens)
    items = []
    seen = set()
    while parser.peek() is not None:
        tok = parser.peek()
        if tok.text == "cmd":
            items.append(parser.parse_command())
            continue
        kind = parser.expect_name().text
        name = parser.expect_name().text
        if name in seen:
            raise ScriptError(f"duplicate name {name!r}", tok.line, tok.col)
        if kind == "ring":
            parser.expect("=")
            data = parser._parse_ring()
        elif kind == "artin":
            parser.expect("=")
            data = parser._parse_artin()
        elif kind == "ideal":
            parser.expect("in")
            ring = parser.expect_name().text
            parser.expect("=")
            parser.expect("(")
            gens = parser._poly_list()
            parser.expect(")")
            data = {"ring": ring, "gens": gens}
        elif kind == "module":
            parser.expect("over")
            ring = parser.expect_name().text
            parser.expect("=")
            shape = parser.expect_name().text
            if shape == "coker":
                rows = parser._matrix_rows()
                data = {"ring": ring, "shape": "coker", "rows": rows}
            elif shape == "free":
                rank = parser.expect_int()
                data = {"ring": ring, "shape": "free", "rank": rank}
            else:
                raise ScriptError(f"unknown module shape {shape!r}", tok.line, tok.col)
        elif kind == "complex":
            parser.expect("over")
            ring = parser.expect_name().text
            parser.expect("=")
            rows = parser._matrix_rows()
            parser.expect("in")
            parser.expect("(")
            lo = parser.expect_int(signed=True)
            parser.expect(",")
            hi = parser.expect_int(signed=True)
            parser.expect(")")
            if hi != lo + 1:
                raise ScriptError("two-term complexes need degrees (k, k+1)",
                                  tok.line, tok.col)
            data = {"ring": ring, "rows": rows, "lo": lo}
        elif kind == "scheme":
            parser.expect("=")
            data = parser._parse_scheme()
        elif kind == "sheaf":
            parser.expect("=")
            data = parser._parse_sheaf()
        elif kind == "dgla":
            parser.expect("=")
            data = parser._parse_dgla()
        elif kind == "element":
            parser.expect("in")
            dgla = parser.expect_name().text
            parser.expect("deg")
            deg = parser.expect_int(signed=True)
            parser.expect("=")
            if parser.accept("zero"):
                coeffs = None
            else:
                parser.expect("(")
                coeffs = parser._poly_list()
                parser.expect(")")
            data = {"dgla": dgla, "deg": deg, "coeffs": coeffs}
        else:
            raise ScriptError(f"unknown declaration {kind!r}", tok.line, tok.col)
        parser.expect(";")
        seen.add(name)
        items.append(Decl(kind, name, data, tok.line))
    return SessionScript(items)


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def _ideal_payload(ideal) -> list:
    basis = ideal.groebner()
    return [str(g) for g in basis] if basis else ["0"]


class Session:
    def __init__(self, caps: Caps = DEFAULT_CAPS):
        self.caps = caps
        self.objects = {}
        self._schemes = {}
        self._sheaves = {}

    def scheme(self, name: str):
        if name in self.objects:
            return self._get(name, GluedScheme)
        if name in ("P1", "P1x3"):
            if name not in self._schemes:
                self._schemes[name] = (projective_line() if name == "P1"
                                       else projective_line_three_charts())
            return self._schemes[name]
        raise ScriptError(f"unknown scheme {name!r}")

    def sheaf(self, expr: str, X):
        """The sheaf expr on X, built once per session, so its inverses,
        frame changes and weight complexes are shared by every command."""
        if expr in self.objects:
            return self._get(expr, LocallyFreeSheaf)
        if (expr, X) not in self._sheaves:
            if expr == "O":
                F = structure_sheaf(X)
            elif expr.startswith("O("):
                F = line_bundle(X, int(expr[2:-1]))
            elif expr == "Theta":
                F = tangent_sheaf(X)
            elif expr.startswith("D(") and expr.endswith(")"):
                F = pair_sheaf(self.sheaf(expr[2:-1], X))
            else:
                raise ScriptError(f"unknown sheaf {expr!r}")
            self._sheaves[(expr, X)] = F
        return self._sheaves[(expr, X)]

    def declare(self, decl: Decl):
        d = decl.data
        if decl.kind == "ring":
            amb = PolyRing(tuple(d["vars"]))
            rels = [amb.parse(t) for t in d["relations"]]
            self.objects[decl.name] = QuotientRing(amb, rels, caps=self.caps)
        elif decl.kind == "artin":
            self.objects[decl.name] = make_artin_algebra(d["vars"], d["relations"],
                                                          caps=self.caps)
        elif decl.kind == "ideal":
            R = self._get(d["ring"], QuotientRing)
            self.objects[decl.name] = R.ideal([R.parse(t) for t in d["gens"]])
        elif decl.kind == "module":
            R = self._get(d["ring"], QuotientRing)
            if d["shape"] == "free":
                self.objects[decl.name] = FPModule.free(R, d["rank"])
            else:
                rows = [[R.parse(t) for t in row] for row in d["rows"]]
                self.objects[decl.name] = FPModule.cokernel(R, rows)
        elif decl.kind == "complex":
            R = self._get(d["ring"], QuotientRing)
            rows = [[R.parse(t) for t in row] for row in d["rows"]]
            self.objects[decl.name] = FreeComplex.two_term(R, rows, lo=d["lo"])
        elif decl.kind == "scheme":
            self.objects[decl.name] = self.scheme(d["builtin"])
        elif decl.kind == "sheaf":
            X = self.scheme(d["scheme"])
            self.objects[decl.name] = self.sheaf(d["expr"], X)
        elif decl.kind == "dgla":
            if d["shape"] == "abelian":
                self.objects[decl.name] = abelian_dgla(dict(d["dims"]))
            else:
                cx = self._get(d["complex"], FreeComplex)
                from .dgla import hom_complex_dgla
                self.objects[decl.name] = hom_complex_dgla(cx)
        elif decl.kind == "element":
            self._get(d["dgla"])
            self.objects[decl.name] = decl
        else:
            raise ScriptError(f"cannot execute declaration {decl.kind!r}")

    def _get(self, name, cls=None):
        if name not in self.objects:
            raise ScriptError(f"unknown name {name!r}")
        obj = self.objects[name]
        if cls is not None and not isinstance(obj, cls):
            raise ScriptError(f"{name!r} is a {type(obj).__name__}, expected {cls.__name__}")
        return obj

    # -- commands --------------------------------------------------------------
    def run_command(self, cmd: Command) -> dict:
        name, args = cmd.words[0], cmd.words[1:]
        handler, arity = {
            "groebner": (self._cmd_groebner, 1),
            "fitting": (self._cmd_fitting, 1),
            "derpairs": (self._cmd_derpairs, 2),
            "resolution": (self._cmd_resolution, 1),
            "kaehler": (self._cmd_kaehler, 1),
            "artin-info": (self._cmd_artin_info, 1),
            "cech-cohomology": (self._cmd_cech, 2),
            "t-spaces": (self._cmd_tspaces, 2),
            "first-order-bridge": (self._cmd_bridge, 2),
            "mc-check": (self._cmd_mc_check, 3),
            "trace-diagram-check": (self._cmd_trace_diagram, 1),
            "prorep": (self._cmd_prorep, 1),
        }.get(name, (None, 0))
        if handler is None:
            raise ScriptError(f"unknown command {name!r}", cmd.line)
        if len(args) != arity:
            raise ScriptError(f"command {name!r} takes {arity} argument"
                              f"{'' if arity == 1 else 's'}, got {len(args)}", cmd.line)
        return handler(args)

    def _cmd_groebner(self, args):
        basis = self._get(args[0], Ideal).groebner()
        return {"basis": [str(g) for g in basis] or ["0"]}

    def _cmd_fitting(self, args):
        M = self._get(args[0], FPModule)
        chain = fitting_chain(M)
        return {"fitting": [_ideal_payload(i) if not i.is_unit_ideal() else ["1"]
                            for i in chain]}

    def _cmd_derpairs(self, args):
        R = self._get(args[0], QuotientRing)
        M = self._get(args[1], FPModule)
        D = derivation_pair_module(R, M)
        rep = D.exactness_report()
        return {
            "generators": [
                {"h": [str(v) for v in g.h_values],
                 "u": [[str(c) for c in u] for u in g.u_values]}
                for g in D.generators],
            "hom_generators": len(D.hom_generators),
            "der_generators": [[str(v) for v in h] for h in D.der_generators],
            "exact": bool(rep["hom_has_zero_anchor"] and rep["anchor_kernel_in_hom"]),
        }

    def _cmd_resolution(self, args):
        M = self._get(args[0], FPModule)
        cx, aug = free_resolution(M)
        return {"ranks": {str(k): cx.rank(k) for k in cx.degrees}}

    def _cmd_kaehler(self, args):
        R = self._get(args[0], QuotientRing)
        O = kaehler_differentials(R)
        return {"generators": O.tags,
                "relations": [[str(x) for x in col] for col in O.relations]}

    def _cmd_artin_info(self, args):
        A = self._get(args[0], ArtinAlgebra)
        return {"dim": A.dim, "index": A.index,
                "basis": [str(A.ambient.monomial(m)) for m in A.basis]}

    def _cmd_cech(self, args):
        X = self.scheme(args[0])
        F = self.sheaf(args[1], X)
        out = cech_cohomology(X, F)
        return {"dims": {f"h{p}": v for p, v in sorted(out["dims"].items())},
                "window": list(out["window"])}

    def _cmd_tspaces(self, args):
        X = self.scheme(args[0])
        F = self.sheaf(args[1], X)
        out = pair_tangent_spaces(X, F)
        return {"T": {f"T{p}": v for p, v in sorted(out["T"].items())},
                "ext": {f"ext{p}": v for p, v in sorted(out["ext"].items())},
                "theta": {f"h{p}": v for p, v in sorted(out["theta"].items())},
                "les_exact": out["les_exact"]}

    def _cmd_bridge(self, args):
        X = self.scheme(args[0])
        F = self.sheaf(args[1], X)
        dims = first_order_class_dims(X, F)
        return {"h1_of_pairs_sheaf": dims.get(1, 0)}

    def _cmd_mc_check(self, args):
        L = self._get(args[0], TableDGLA)
        A = self._get(args[1], ArtinAlgebra)
        xdecl = self._get(args[2], Decl)
        if xdecl.data["dgla"] != args[0]:
            raise ScriptError(f"{args[2]!r} is an element of {xdecl.data['dgla']!r}, "
                              f"not of {args[0]!r}")
        ctx = TableContext(L, A)
        deg = xdecl.data["deg"]
        if xdecl.data["coeffs"] is None:
            x = ctx.zero(deg)
        else:
            coeffs = [A.parse(t) for t in xdecl.data["coeffs"]]
            if len(coeffs) != L.dim(deg):
                raise ScriptError("element has the wrong number of coefficients")
            x = ctx.element(deg, coeffs)
        residual = mc_residual(ctx, x)
        return {"residual": [str(c) for c in residual.coeffs] or ["0"],
                "mc": mc_check(ctx, x)}

    def _cmd_trace_diagram(self, args):
        cx = self._get(args[0], FreeComplex)
        T = trace_morphism(cx.ring, cx)
        rep = T.diagram_checks()
        return {"passed": rep["passed"], "violations": len(rep["failures"])}

    def _cmd_prorep(self, args):
        L = self._get(args[0], TableDGLA)
        out = pro_representability_check(L)
        return {"satisfied": out["satisfied"],
                "N0_dim": out.get("N0_dim", 0), "H0_dim": out.get("H0_dim", 0)}


@dataclass
class Report:
    command: str
    status: str
    payload: dict
    time_ms: Optional[float] = None

    def as_dict(self, with_timing=False):
        out = {"command": self.command, "status": self.status,
               "payload": self.payload}
        if with_timing:
            out["time_ms"] = self.time_ms
        return out


def run(script: SessionScript, seed: int = 0, caps: Caps = DEFAULT_CAPS,
        fail_fast: bool = False) -> list:
    """Execute the script; one report per command and per failed
    declaration, in script order.

    Every library error subclasses ValueError; capacity limits raise
    CapacityError.  Execution is deterministic: `seed` only labels the run,
    and `render_json` writes it into the document.
    """
    session = Session(caps=caps)
    reports = []
    for item in script.items:
        if isinstance(item, Decl):
            try:
                session.declare(item)
                continue
            except (ValueError, CapacityError) as e:
                rep = Report(item.pretty(), "error", {"message": str(e)})
        else:
            start = time.perf_counter()
            try:
                payload, status = session.run_command(item), "ok"
            except (ValueError, CapacityError, KeyError, IndexError) as e:
                payload, status = {"message": str(e)}, "error"
            rep = Report(item.pretty(), status, payload,
                         (time.perf_counter() - start) * 1000.0)
        reports.append(rep)
        if fail_fast and rep.status == "error":
            break
    return reports


def render_json(reports, seed: int, with_timing: bool = False) -> str:
    doc = {"schema": SCHEMA, "version": VERSION, "seed": seed,
           "reports": [r.as_dict(with_timing) for r in reports]}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def render_text(reports) -> str:
    lines = []
    for r in reports:
        head = f"[{r.status:<5}] {r.command}"
        lines.append(head)
        for key in sorted(r.payload):
            lines.append(f"    {key}: {json.dumps(r.payload[key], sort_keys=True)}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="defpair",
        description="exact deformation-of-pairs computations from a script")
    sub = ap.add_subparsers(dest="verb", required=True)
    runp = sub.add_parser("run", help="run a script file")
    runp.add_argument("file")
    runp.add_argument("--json", action="store_true", help="emit canonical JSON")
    runp.add_argument("--seed", type=int, default=0)
    runp.add_argument("--max-degree", type=int, default=DEFAULT_CAPS.max_degree)
    runp.add_argument("--fail-fast", action="store_true")
    runp.add_argument("--timings", action="store_true",
                      help="include wall-clock timings (breaks byte determinism)")
    args = ap.parse_args(argv)
    try:
        text = open(args.file, encoding="utf-8").read()
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        script = parse_script(text)
    except ScriptError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    caps = Caps(max_pairs=DEFAULT_CAPS.max_pairs, max_degree=args.max_degree)
    reports = run(script, seed=args.seed, caps=caps, fail_fast=args.fail_fast)
    if args.json:
        sys.stdout.write(render_json(reports, args.seed, with_timing=args.timings))
    else:
        sys.stdout.write(render_text(reports))
    return 0 if all(r.status == "ok" for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
