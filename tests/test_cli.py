"""Command-line interface: subcommands, exit codes, determinism, and a
fuzz test that no input makes it raise."""

from __future__ import annotations

import contextlib
import io
import pathlib
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from guardedsat.cli import (
    EXIT_ERROR, EXIT_NO, EXIT_UNKNOWN, EXIT_YES, main,
)
from guardedsat.syntax import Not, Top
from util import parse_formula

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def _fx(name):
    return str(FIXTURES / name)


@pytest.mark.parametrize("fixture,code", [
    ("trivial_yes.p", EXIT_YES),
    ("trivial_no.p", EXIT_NO),
    ("until.p", EXIT_YES),
    ("until_no.p", EXIT_NO),
])
def test_answer_exit_codes(fixture, code):
    assert main(["answer", _fx(fixture)]) == code


def test_answer_prints_verdict(capsys):
    main(["answer", _fx("trivial_yes.p")])
    assert capsys.readouterr().out.strip() == "Yes"
    main(["answer", _fx("trivial_no.p")])
    assert capsys.readouterr().out.strip() == "No"


def test_answer_trace_file(tmp_path, capsys):
    out = tmp_path / "trace.log"
    main(["answer", _fx("until.p"), "--trace", str(out)])
    capsys.readouterr()
    text = out.read_text()
    assert "[1] input" in text
    assert "[]" in text  # ends with the empty clause


def test_answer_is_deterministic(tmp_path, capsys):
    traces = []
    for i in range(2):
        out = tmp_path / f"t{i}.log"
        main(["answer", _fx("until.p"), "--trace", str(out)])
        capsys.readouterr()
        traces.append(out.read_bytes())
    assert traces[0] == traces[1]


def test_missing_file_is_an_input_error(capsys):
    assert main(["answer", "/nonexistent/nope.p"]) == EXIT_ERROR
    assert capsys.readouterr().err.strip()


def test_parse_error_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.p"
    bad.write_text("rule: this is not ( a formula.")
    assert main(["answer", str(bad)]) == EXIT_ERROR
    assert capsys.readouterr().err.strip()


def test_redeclared_symbol_is_an_input_error_with_its_position(
        tmp_path, capsys):
    bad = tmp_path / "bad.p"
    bad.write_text("fact: p(c1).\nfact: p(c1,c2).\n")
    assert main(["answer", str(bad)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: symbol 'p' redeclared")
    assert "at line 2, column 7" in err


def test_formula_statements_take_part_in_answering(tmp_path, capsys):
    src = tmp_path / "p.p"
    src.write_text("formula: ? [X] : a(X).\nquery: ? [X] : a(X).\n")
    assert main(["answer", str(src)]) == EXIT_YES
    assert capsys.readouterr().out.strip() == "Yes"


def test_formula_with_equality_is_an_input_error(tmp_path, capsys):
    # a rewriting with equality is outside the guarded fragments
    src = tmp_path / "p.p"
    src.write_text("formula: ! [X,Y] : (r(X,Y) => X = Y).\n"
                   "query: ? [X] : a(X).\n")
    assert main(["answer", str(src)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: formula outside the supported fragments")


@pytest.mark.parametrize("statement", [
    "query: " + "(" * 300 + "? [X] : a0(X)" + ")" * 300,
    "query: " + "~" * 1000 + "? [X] : a0(X)",
    "formula: " + "a0(c1) => " * 1000 + "a0(c1)",
    "rule: ! [X] : (a0(X) => b0(" + "f(" * 1000 + "X" + ")" * 1000 + "))",
], ids=["parentheses", "negations", "implications", "terms"])
def test_deep_nesting_is_an_input_error(tmp_path, capsys, statement):
    deep = tmp_path / "deep.p"
    deep.write_text("fact: a0(c1).\n" + statement + ".\n")
    assert main(["answer", str(deep)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_unknown_subcommand_is_an_input_error(capsys):
    assert main(["frobnicate", _fx("trivial_yes.p")]) == EXIT_ERROR
    capsys.readouterr()


def test_rewrite_emits_parseable_formula(capsys):
    code = main(["rewrite", _fx("thm13_02.p")])
    out = capsys.readouterr().out
    assert code == EXIT_NO
    assert out.startswith("formula: ") and out.rstrip().endswith(".")
    parse_formula(out[len("formula: "):].rstrip().rstrip("."))


@pytest.mark.parametrize("text", [
    "",
    "% only a comment\n",
    "fact: r0(c1,c2).\nfact: b0(c2).\n",
], ids=["empty", "comment", "facts"])
def test_rewrite_of_an_empty_saturation(tmp_path, capsys, text):
    # no rule and no query: the conjunction of the closed sets is empty
    src = tmp_path / "p.p"
    src.write_text(text)
    code = main(["rewrite", str(src)])
    out = capsys.readouterr().out
    assert code == EXIT_NO
    assert out == "formula: ~$true.\n"
    assert parse_formula(out[len("formula: "):].rstrip().rstrip(".")) \
        == Not(Top())


def test_rewrite_to_file(tmp_path, capsys):
    dest = tmp_path / "sigma_q.p"
    code = main(["rewrite", _fx("thm13_03.p"), "-o", str(dest)])
    capsys.readouterr()
    assert code == EXIT_NO
    text = dest.read_text()
    assert text.startswith("formula: ")
    # no Skolem function survives unskolemisation
    assert "sk" not in text


def test_rewrite_is_deterministic(capsys):
    outs = []
    for _ in range(2):
        main(["rewrite", _fx("thm13_05.p")])
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_clausify_lists_origins(capsys):
    code = main(["clausify", _fx("until.p")])
    out = capsys.readouterr().out
    assert code == EXIT_NO
    lines = [l for l in out.splitlines() if l.strip()]
    assert all("% origin:" in l for l in lines)
    assert any("% origin: query" in l for l in lines)
    assert any("% origin: rule" in l for l in lines)
    assert "r0(c1,c2)  % origin: fact" in lines


def test_clausify_labels_formula_clauses(tmp_path, capsys):
    """``trans`` emits the rules' clauses, then the ``formula:``
    statements', then the facts', and each is labelled by where it came
    from."""
    path = tmp_path / "p.p"
    path.write_text("fact: a(c).\nformula: ! [X] : (b(X) => d(X)).\n"
                    "rule: ! [X] : (a(X) => b(X)).\n"
                    "query: ? [X] : d(X).\n")
    assert main(["clausify", str(path)]) == EXIT_NO
    assert capsys.readouterr().out.splitlines() == [
        "~a(X) | b(X)  % origin: rule",
        "~b(X) | d(X)  % origin: formula",
        "a(c)  % origin: fact",
        "~d(X)  % origin: query",
    ]


def test_classify_reports_query_structure(capsys):
    code = main(["classify", _fx("q1.p")])
    out = capsys.readouterr().out
    assert code == EXIT_NO
    assert "chained: X2 X3 X5" in out
    assert "isolated: X1 X4 X6" in out
    assert "acyclic: yes" in out

    main(["classify", _fx("q2.p")])
    out = capsys.readouterr().out
    assert "acyclic: no" in out


def test_saturate_streams_steps(capsys):
    code = main(["saturate", _fx("trivial_yes.p")])
    out = capsys.readouterr().out
    assert code == EXIT_NO
    assert "[1] input" in out
    assert "% verdict: yes" in out


# ---------------------------------------------------------------------------
# fuzzing: every input ends in an exit code, never in an exception

_TOKENS = ["fact:", "rule:", "query:", "formula:", "!", "?", "[", "]",
           ":", "(", ")", ",", ".", "&", "|", "~", "=>", "<=>", "=", "!=",
           "$true", "$false", "$nope", "X", "Y", "Z", "a", "c1", "r0", "b0",
           "f", "p", "%", "\n", "#"]
_STATEMENTS = sorted({
    line for f in FIXTURES.glob("*.p")
    for line in f.read_text().splitlines()
    if line.strip() and not line.startswith("%")})
_COMMANDS = ["answer", "rewrite", "clausify", "classify", "saturate"]


@st.composite
def _mutated_statements(draw) -> str:
    """Fixture statements, each kept, cut short, missing one character or
    with a token inserted."""
    out = []
    for line in draw(st.lists(st.sampled_from(_STATEMENTS), max_size=5)):
        at = draw(st.integers(0, len(line)))
        how = draw(st.sampled_from(["keep", "cut", "drop", "insert"]))
        if how == "cut":
            line = line[:at]
        elif how == "drop":
            line = line[:at] + line[at + 1:]
        elif how == "insert":
            line = f"{line[:at]} {draw(st.sampled_from(_TOKENS))} {line[at:]}"
        out.append(line)
    return "\n".join(out) + "\n"


_token_soups = st.lists(st.sampled_from(_TOKENS), max_size=40).map(" ".join)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(text=st.one_of(_token_soups, _mutated_statements()),
       command=st.sampled_from(_COMMANDS))
def test_cli_never_raises(text, command):
    argv = [command]
    if command in ("answer", "rewrite", "saturate"):
        argv += ["--max-steps", "30"]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as d:
        src = pathlib.Path(d) / "p.p"
        src.write_text(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + [str(src)])
    assert code in (EXIT_NO, EXIT_UNKNOWN, EXIT_ERROR, EXIT_YES), (code, text)
    assert "Traceback" not in err.getvalue()
