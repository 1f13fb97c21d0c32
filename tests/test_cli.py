"""Script language parsing, execution, reports and the console entry point."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from defpair.cli import (ScriptError, parse_script, render_json, render_text,
                         run, main)


def run_script(text, **kw):
    return run(parse_script(text), **kw)


# -- parsing -----------------------------------------------------------------

def test_parse_single_ring():
    script = parse_script("ring R = QQ[x];")
    assert len(script.items) == 1
    assert script.items[0].kind == "ring"
    assert script.items[0].data["vars"] == ["x"]


def test_parse_module_echo():
    script = parse_script("ring R = QQ[x]; module M over R = coker [[x,0],[0,x^2]];")
    decl = script.items[1]
    assert decl.kind == "module"
    assert len(decl.data["rows"]) == 2


def test_parse_errors_have_positions():
    with pytest.raises(ScriptError) as ei:
        parse_script("ring R = QQ[x]\nmodule M;")
    assert "2:" in str(ei.value) or "at 1" in str(ei.value)
    with pytest.raises(ScriptError, match="duplicate"):
        parse_script("ring R = QQ[x]; ring R = QQ[y];")
    with pytest.raises(ScriptError, match="unknown declaration"):
        parse_script("widget W = 3;")
    with pytest.raises(ScriptError, match="expected an integer, found '-' at 1:21"):
        parse_script("dgla L = abelian (1:-1);")
    # truncated scripts fail at their last token, not with a traceback
    for text, message in [
            ("dgla L = abelian (1:1", "unexpected end of input at 1:21"),
            ("module M over R = coker [[x]", "unexpected end of input at 1:28"),
            ("element y in L deg 1 =", "unexpected end of input at 1:22"),
            ("ring R = QQ[x] / (x", "unterminated expression at 1:19"),
            ("ideal I in R = (x", "unterminated expression at 1:17")]:
        with pytest.raises(ScriptError) as ei:
            parse_script(text)
        assert str(ei.value) == message


def test_round_trip_pretty():
    text = ("ring R = QQ[x,y] / (y^2 - x^3);\n"
            "module M over R = coker [[x,0],[0,x^2]];\n"
            "artin A = QQ[e]/(e^2);\n"
            "cmd fitting M;\n"
            "cmd cech-cohomology P1 O(-2);\n")
    script = parse_script(text)
    again = parse_script(script.pretty())
    assert script.pretty() == again.pretty()
    assert [type(i) for i in script.items] == [type(i) for i in again.items]


# -- execution ----------------------------------------------------------------

def test_fitting_pipeline():
    reports = run_script(
        "ring R = QQ[x]; module M over R = coker [[x,0],[0,x^2]]; cmd fitting M;")
    assert reports[0].status == "ok"
    chain = reports[0].payload["fitting"]
    assert chain[0] == ["x^3"]
    assert chain[1] == ["x"]
    assert chain[2] == ["1"]


def test_derpairs_command():
    reports = run_script("ring R = QQ[x]; module M over R = coker [[x^2]];"
                         "cmd derpairs R M;")
    assert reports[0].status == "ok"
    payload = reports[0].payload
    assert payload["exact"]
    assert payload["generators"]


def test_groebner_command():
    reports = run_script("ring R = QQ[x,y]; ideal I in R = (x^2 - 1, x*y - 1);"
                         "cmd groebner I;")
    assert reports[0].status == "ok"
    assert reports[0].payload["basis"]


def test_cech_command():
    reports = run_script("cmd cech-cohomology P1 O(-2);")
    assert reports[0].status == "ok"
    assert reports[0].payload["dims"] == {"h0": 0, "h1": 1}


def test_tspaces_command():
    reports = run_script("cmd t-spaces P1 O(2);")
    assert reports[0].status == "ok"
    assert reports[0].payload["T"]["T0"] == 4
    assert reports[0].payload["les_exact"]


def test_mc_check_abelian():
    text = ("dgla L = abelian (1:1, 2:1);\n"
            "artin A = QQ[e]/(e^2);\n"
            "element x in L deg 1 = zero;\n"
            "cmd mc-check L A x;\n")
    reports = run_script(text)
    assert reports[0].status == "ok"
    assert reports[0].payload["mc"] is True
    assert reports[0].payload["residual"] == ["0"]


def test_mc_check_nonzero_element():
    text = ("dgla L = abelian (1:1, 2:1);\n"
            "artin A = QQ[e]/(e^2);\n"
            "element x in L deg 1 = (e);\n"
            "cmd mc-check L A x;\n")
    reports = run_script(text)
    assert reports[0].payload["mc"] is True  # abelian, zero differential


def test_trace_diagram_command():
    text = ("ring R = QQ[x];\n"
            "complex E over R = [[x^2]] in (-1, 0);\n"
            "cmd trace-diagram-check E;\n")
    reports = run_script(text)
    assert reports[0].status == "ok"
    assert reports[0].payload["passed"] and reports[0].payload["violations"] == 0


def test_prorep_command():
    reports = run_script("dgla L = abelian (0:2, 1:1); cmd prorep L;")
    assert reports[0].payload["satisfied"] is True


def test_unknown_command_is_structured_error():
    reports = run_script("cmd make-coffee now;")
    assert reports[0].status == "error"
    assert "unknown command" in reports[0].payload["message"]


def test_commands_check_their_argument_count():
    # a missing argument used to surface as "list index out of range" and a
    # surplus one was ignored; both name the command and its arity now
    reports = run_script("ring R = QQ[x]; ideal I in R = (x); ideal J in R = (x^2);"
                         "cmd groebner; cmd groebner I J; cmd derpairs R;"
                         "cmd mc-check L A x y; cmd groebner I;")
    assert [r.status for r in reports] == ["error"] * 4 + ["ok"]
    messages = [r.payload["message"] for r in reports[:4]]
    assert messages[0].startswith("command 'groebner' takes 1 argument, got 0")
    assert messages[1].startswith("command 'groebner' takes 1 argument, got 2")
    assert messages[2].startswith("command 'derpairs' takes 2 arguments, got 1")
    assert messages[3].startswith("command 'mc-check' takes 3 arguments, got 4")


def test_errors_without_a_column_name_the_line():
    reports = run_script("cmd make-coffee now;\ncmd groebner;")
    assert [r.payload["message"] for r in reports] == [
        "unknown command 'make-coffee' at line 1",
        "command 'groebner' takes 1 argument, got 0 at line 2"]


def test_artin_info_and_errors():
    reports = run_script("artin A = QQ[s,t]/(s^2, s*t, t^3); cmd artin-info A;")
    assert reports[0].payload["dim"] == 4
    assert reports[0].payload["index"] == 3
    bad = run_script("artin B = QQ[t]/(t^2 - 1); cmd artin-info B;")
    assert bad[0].status == "error"  # declaration failed
    assert bad[1].status == "error"  # command cannot resolve B


def test_fail_fast():
    text = "cmd nonsense; cmd cech-cohomology P1 O;"
    reports = run(parse_script(text), fail_fast=True)
    assert len(reports) == 1


def test_wrong_object_kind_keeps_later_reports():
    reports = run_script("ring R = QQ[x]; cmd groebner R; cmd cech-cohomology P1 O;")
    assert [r.status for r in reports] == ["error", "ok"]
    assert reports[0].payload["message"] == "'R' is a QuotientRing, expected Ideal"
    reports = run_script("ring R = QQ[x]; cmd artin-info R; cmd cech-cohomology P1 O;")
    assert [r.status for r in reports] == ["error", "ok"]
    assert reports[0].payload["message"] == "'R' is a QuotientRing, expected ArtinAlgebra"
    reports = run_script("artin A = QQ[e]/(e^2); dgla L = abelian (1:1);"
                         "cmd mc-check L A L; cmd cech-cohomology P1 O;")
    assert [r.status for r in reports] == ["error", "ok"]
    assert reports[0].payload["message"] == "'L' is a TableDGLA, expected Decl"
    reports = run_script("artin A = QQ[e]/(e^2); element y in Q deg 1 = (e);"
                         "cmd cech-cohomology P1 O;")
    assert [r.status for r in reports] == ["error", "ok"]
    assert reports[0].payload["message"] == "unknown name 'Q'"
    reports = run_script("artin A = QQ[e]/(e^2); dgla L = abelian (1:1);"
                         "dgla L2 = abelian (1:1); element x in L deg 1 = (e);"
                         "cmd mc-check L2 A x; cmd mc-check L A x;")
    assert [r.status for r in reports] == ["error", "ok"]
    assert reports[0].payload["message"] == "'x' is an element of 'L', not of 'L2'"
    # declared names of another kind, used as a scheme or a sheaf
    reports = run_script("ring O = QQ[x]; cmd cech-cohomology P1 O;"
                         "cmd cech-cohomology P1 O(1);")
    assert [r.status for r in reports] == ["error", "ok"]
    assert reports[0].payload["message"] == "'O' is a QuotientRing, expected LocallyFreeSheaf"
    reports = run_script("ring P1 = QQ[x]; cmd cech-cohomology P1 O(1);"
                         "ideal I in P1 = (x^2); cmd groebner I;")
    assert [r.status for r in reports] == ["error", "ok"]
    assert reports[0].payload["message"] == "'P1' is a QuotientRing, expected GluedScheme"
    reports = run_script("ring R = QQ[x]; sheaf F = O(1) on R; cmd cech-cohomology P1 O;")
    assert [r.status for r in reports] == ["error", "ok"]
    assert reports[0].payload["message"] == "'R' is a QuotientRing, expected GluedScheme"


def test_ragged_matrices_are_declaration_errors():
    reports = run_script("ring R = QQ[x]; module M over R = coker [[x, x], [x]];"
                         "complex K over R = [[x, x], [x]] in (-1, 0);"
                         "module N over R = coker [[x], [x, x]];"
                         "cmd fitting M; cmd trace-diagram-check K; cmd fitting N;"
                         "cmd cech-cohomology P1 O;")
    assert [r.status for r in reports] == ["error"] * 6 + ["ok"]
    assert [r.payload["message"] for r in reports[:3]] == ["matrix rows differ in length"] * 3


def test_rational_coefficients_in_scripts():
    reports = run_script("ring S = QQ[x,y]/(x^2 - 1/2); ideal I in S = (y - 3/4);"
                         "cmd groebner I;")
    assert reports[0].status == "ok"
    assert reports[0].payload["basis"] == ["x^2 - 1/2", "y - 3/4"]
    bad = run_script("ring S = QQ[x]/(x - 1/0); cmd cech-cohomology P1 O;")
    assert [r.status for r in bad] == ["error", "ok"]
    assert "zero denominator" in bad[0].payload["message"]


# -- rendering ------------------------------------------------------------------

def test_readme_sample_output_is_unchanged(capsys):
    # readme_sample.json is the committed `--json` output of the README's
    # sample script; any change to it is a change of results
    data = Path(__file__).parent / "data"
    assert main(["run", str(data / "readme_sample.defpair"), "--json"]) == 0
    assert capsys.readouterr().out == (data / "readme_sample.json").read_text()


def test_cech_pairs_sample_output_is_unchanged(capsys):
    # cech_pairs.json is the committed `--json` output of a script that runs
    # the Cech, tangent-space and bridge commands on the three-chart cover and
    # on pair sheaves D(F), which move pairs between overlaps
    data = Path(__file__).parent / "data"
    assert main(["run", str(data / "cech_pairs.defpair"), "--json"]) == 0
    assert capsys.readouterr().out == (data / "cech_pairs.json").read_text()


def test_module_commands_sample_output_is_unchanged(capsys):
    # module_cmds.json is the committed `--json` output of a script that runs
    # the module and DGLA commands, which solve many right-hand sides per
    # linear system, over QQ[x], the cusp and a smooth cubic
    data = Path(__file__).parent / "data"
    assert main(["run", str(data / "module_cmds.defpair"), "--json"]) == 0
    assert capsys.readouterr().out == (data / "module_cmds.json").read_text()


def test_session_shares_the_tangent_sheaf(monkeypatch):
    # Theta asked for by name and Theta inside t-spaces (its long exact
    # sequence and D(F)) are one sheaf of the scheme: each weight complex of
    # Theta is built once
    from defpair import cech
    built = {}
    build = cech.cech_weight_complex

    def counted_build(X, F, w):
        if F.name == "Theta":
            built[(X, w)] = built.get((X, w), 0) + 1
        return build(X, F, w)

    monkeypatch.setattr(cech, "cech_weight_complex", counted_build)
    reports = run_script("cmd cech-cohomology P1 Theta; cmd t-spaces P1 O(1);")
    assert [r.status for r in reports] == ["ok", "ok"]
    assert built and max(built.values()) == 1


def test_session_builds_each_sheaf_once(capsys, monkeypatch):
    # the golden script asks for D(O(-2)), D(Theta) and D(D(O(1))) twice each
    # (t-spaces and first-order-bridge); the session shares one sheaf, so
    # each transition is inverted and each D(F) weight complex built once
    # (identity transitions, shared by several sheaves, are not counted)
    from defpair import cech, matrices
    inverted, built = {}, {}
    inverse, build = matrices.mat_inverse, cech.cech_weight_complex

    def counted_inverse(ring, a):
        if a != matrices.identity_matrix(ring, len(a)):
            key = (repr(ring), str(a))
            inverted[key] = inverted.get(key, 0) + 1
        return inverse(ring, a)

    def counted_build(X, F, w):
        if F.name.startswith("D("):
            built[(X, F.name, w)] = built.get((X, F.name, w), 0) + 1
        return build(X, F, w)

    monkeypatch.setattr(matrices, "mat_inverse", counted_inverse)
    monkeypatch.setattr(cech, "cech_weight_complex", counted_build)
    data = Path(__file__).parent / "data"
    assert main(["run", str(data / "cech_pairs.defpair"), "--json"]) == 0
    assert capsys.readouterr().out == (data / "cech_pairs.json").read_text()
    assert inverted and max(inverted.values()) == 1
    assert built and max(built.values()) == 1


def test_json_determinism():
    text = "ring R = QQ[x]; module M over R = coker [[x,0],[0,x^2]]; cmd fitting M;"
    a = render_json(run_script(text), seed=7)
    b = render_json(run_script(text), seed=7)
    assert a == b
    doc = json.loads(a)
    assert doc["schema"] == "defpair/1"
    assert doc["seed"] == 7
    assert doc["reports"][0]["status"] == "ok"
    assert "time_ms" not in doc["reports"][0]


def test_text_rendering():
    out = render_text(run_script("cmd cech-cohomology P1 Theta;"))
    assert "[ok   ]" in out
    assert "h0" in out


# -- entry point -------------------------------------------------------------------

def test_main_exit_codes(tmp_path):
    good = tmp_path / "good.defpair"
    good.write_text("ring R = QQ[x]; module M over R = coker [[x]]; cmd fitting M;")
    assert main(["run", str(good), "--json"]) == 0
    bad = tmp_path / "bad.defpair"
    bad.write_text("cmd explode;")
    assert main(["run", str(bad)]) == 1
    unparsable = tmp_path / "nope.defpair"
    unparsable.write_text("ring = ;")
    assert main(["run", str(unparsable)]) == 2
    assert main(["run", str(tmp_path / "missing.defpair")]) == 2


def test_console_script_installed():
    # the child process imports the same defpair as this one, installed or not
    import defpair
    src = str(Path(defpair.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-m", "defpair.cli", "run", "/dev/null"],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0
