"""Output checks, run in the parent process, outside every timed region.

`verdicts(workload, outputs, specs)` maps each task id to None (correct) or
the reason its first output is wrong.

  ideal-gb     the reduced basis equals sympy's
               `groebner(..., order='grevlex', domain='QQ')` (the default ZZ
               domain returns bases that are not monic)
  artin-gauge  the exact identities: the gauge image is Maurer-Cartan, and
               both sides of each identity have the same normal form
  p1-script    every report is `ok`, and known answers match their closed
               forms on P1
"""

from __future__ import annotations

import json
import re
from fractions import Fraction


class OracleUnavailable(RuntimeError):
    """The oracle cannot run here; the benchmark must fail, not skip it."""


def verdicts(workload: str, outputs: dict, specs: dict) -> dict:
    check = {"ideal-gb": _check_groebner, "artin-gauge": _check_identity,
             "p1-script": _check_script}[workload]
    return {tid: check(text, specs.get(tid)) for tid, text in outputs.items()}


# ---------------------------------------------------------------------------
# ideal-gb
# ---------------------------------------------------------------------------

def _check_groebner(text, spec):
    try:
        import sympy
    except ImportError as e:
        raise OracleUnavailable(f"sympy cannot be imported ({e}); "
                                "the ideal-gb oracle needs it") from e
    gens = sympy.symbols(spec["vars"])

    def to_sympy(terms):
        expr = sympy.Integer(0)
        for expts, coeff in terms:
            mono = sympy.Integer(1)
            for g, e in zip(gens, expts):
                mono *= g ** e
            expr += sympy.Rational(coeff) * mono
        return expr

    basis = sympy.groebner([to_sympy(t) for t in spec["gens"]], *gens,
                           order="grevlex", domain="QQ")
    expected = sorted(sorted((tuple(m), Fraction(int(c.p), int(c.q)))
                             for m, c in p.terms()) for p in basis.polys)
    got = sorted(sorted((tuple(m), Fraction(c)) for m, c in poly)
                 for poly in json.loads(text))
    if got != expected:
        return (f"basis differs from sympy: {len(got)} elements against "
                f"{len(expected)}")
    return None


# ---------------------------------------------------------------------------
# artin-gauge
# ---------------------------------------------------------------------------

def _check_identity(text, spec):
    out = json.loads(text)
    if "mc" in out:
        return None if out["mc"] is True else "gauge image is not Maurer-Cartan"
    return None if out["lhs"] == out["rhs"] else "the two sides differ"


# ---------------------------------------------------------------------------
# p1-script
# ---------------------------------------------------------------------------

_LINE = re.compile(r"^O\((-?\d+)\)$")
_PAIRS = re.compile(r"^D\(O\((-?\d+)\)\)$")


def _sheaf_dims(sheaf):
    """(h0, h1) on P1, or None when no closed form is checked."""
    m = _LINE.match(sheaf)
    if m:
        k = int(m.group(1))
        return max(k + 1, 0), max(-k - 1, 0)
    if sheaf == "Theta":
        return 3, 0
    if _PAIRS.match(sheaf):
        # 0 -> O -> D(L) -> Theta -> 0 on P1
        return 4, 0
    return None


def _check_report(words, payload):
    name = words[0]
    if name == "cech-cohomology":
        dims = payload["dims"]
        want = _sheaf_dims(words[2])
        got = (dims.get("h0", 0), dims.get("h1", 0))
        if want is not None and got != want:
            return f"h^0, h^1 of {words[2]} on {words[1]} are {got}, expected {want}"
        if any(v for key, v in dims.items() if key not in ("h0", "h1")):
            return f"higher cohomology of {words[2]} on {words[1]} is nonzero"
    elif name == "t-spaces":
        T = payload["T"]
        got = (T.get("T0", 0), T.get("T1", 0), T.get("T2", 0))
        if got != (4, 0, 0) or payload["les_exact"] is not True:
            return f"T-spaces of {words[2]} are {got}, les_exact={payload['les_exact']}"
    elif name == "first-order-bridge":
        if payload["h1_of_pairs_sheaf"] != 0:
            return f"h1 of the pairs sheaf of {words[2]} is nonzero"
    elif name == "derpairs":
        if payload["exact"] is not True:
            return "derivation-pair sequence is not exact"
    elif name == "trace-diagram-check":
        if payload["passed"] is not True or payload["violations"] != 0:
            return "trace diagram check failed"
    elif name == "prorep":
        # an abelian DGLA is pro-representable
        if payload["satisfied"] is not True:
            return "prorep not satisfied on an abelian DGLA"
    return None


def _check_script(text, spec):
    doc = json.loads(text)
    commands = [line for line in spec.splitlines() if line.startswith("cmd ")]
    reports = doc["reports"]
    if [r["command"] for r in reports] != commands:
        return "reports do not match the script's commands in order"
    for r in reports:
        if r["status"] != "ok":
            return f"{r['command']} -> {r['status']}: {r['payload']}"
        reason = _check_report(r["command"][4:-1].split(), r["payload"])
        if reason:
            return f"{r['command']}: {reason}"
    return None
