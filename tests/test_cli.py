"""Command-line interface: subcommands, exit codes, witness files."""

import json
import re
from dataclasses import replace
from pathlib import Path

import pytest

import latspi
from latspi.cli import PairLimitExceeded, main, parse_bounds
from latspi.games import Rel
from latspi.knowledge import RecipeLimitExceeded
from latspi.lts import ExplorationBounds
from latspi.syntax import ParseDepthExceeded
from latspi.terms import ResourceLimitExceeded, RewriteBudgetExceeded


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- bounds parsing --------------------------------------------------------


def test_parse_bounds_spec_format():
    b = parse_bounds("depth=2,unfold=3,game=9")
    assert (b.recipe_depth, b.static_depth, b.repl_unfold, b.game_depth) == (2, 2, 3, 9)


def test_parse_bounds_static_override():
    b = parse_bounds("depth=1,static=2")
    assert b.recipe_depth == 1 and b.static_depth == 2


def test_parse_bounds_rejects_unknown():
    from latspi.cli import CliError

    with pytest.raises(CliError):
        parse_bounds("depht=2")


def test_state_budget_env(monkeypatch):
    # the state cap is set by ``budget=N`` only; the environment is not read
    monkeypatch.setenv("LATSPI_STATE_BUDGET", "7")
    assert parse_bounds(None).state_budget == ExplorationBounds().state_budget
    assert parse_bounds("budget=9").state_budget == 9


@pytest.mark.parametrize("key", ["depth", "recipe", "static", "unfold", "game", "budget"])
def test_negative_bound_exits_two(files, capsys, key):
    # game=-1 would let this pair, distinguished at the default bounds,
    # come out related
    l, r = files("l.pi", "out(a, m) | out(b, m)"), files("r.pi", "out(a, m)")
    code, out, err = run(capsys, "check", "sim-i", l, r, "--bounds", f"{key}=-1")
    assert code == 2 and out == ""
    assert f"'{key}'" in err and "negative" in err


def test_non_integer_bound_names_its_key(files, capsys):
    code, out, err = run(capsys, "lts", files("p.pi", "out(a, m)"), "--bounds", "depth=x")
    assert code == 2 and out == ""
    assert err == "error: bound 'depth' must be a non-negative integer, not 'x'\n"


# --- parse / lts / indep ---------------------------------------------------


def test_parse_roundtrip(files, capsys):
    f = files("p.pi", "new x . ( out(a,x) | out(b, h(x)) )")
    code, out, _ = run(capsys, "parse", f)
    assert code == 0
    assert out.strip() == "new x.(out(a, x) | out(b, h(x)))"


def test_parse_error_exit_code(files, capsys):
    f = files("bad.pi", "out(a")
    code, _, err = run(capsys, "parse", f)
    assert code == 2 and "error:" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "parse", "/nonexistent/x.pi")
    assert code == 2


def test_lts_json(files, capsys):
    f = files("p.pi", "new x.(out(a,x) | out(b,h(x)))")
    code, out, _ = run(capsys, "lts", f, "--bounds", "depth=0", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["states"]) == 4 and len(data["edges"]) == 4
    assert not data["tainted"]
    # the text summary reports both flags, here set by the state budget
    f = files("three.pi", "out(a,m) | out(b,m) | out(c,m)")
    code, out, _ = run(capsys, "lts", f, "--bounds", "budget=2")
    assert code == 0
    assert out.splitlines()[-1] == "2 states, 1 edges, tainted=True, budget_exhausted=True"


def test_lts_prints_each_state_as_its_class_representative(files, capsys):
    # the right side of corpus case swap-sim: each state is printed as its
    # class representative, the congruence key, which numbers the top
    # binders in order of first use, in the frame and then in the body
    f = files(
        "swap.pi", "new c,d,n.((out(d,d) | out(a,n).in(d,z)) | (out(c,c) | in(c,y).in(n,x)))"
    )
    code, out, _ = run(capsys, "lts", f, "--bounds", "depth=1", "--format", "json")
    assert code == 0
    assert json.loads(out)["states"] == [
        "(id | new %0,%1,%2.((out(%1, %1) | out(a, %2).in(%1, %3)) | out(%0, %0) | in(%0, %4).in(%2, %5)))",
        "new %0,%1,%2.({01l -> %0} | (out(%1, %1) | in(%1, %3)) | out(%2, %2) | in(%2, %4).in(%0, %5))",
        "new %0,%1,%2.(id | (out(%0, %0) | out(a, %1).in(%0, %3)) | 0 | in(%1, %4))",
        "new %0,%1,%2.({01l -> %0} | (0 | 0) | out(%1, %1) | in(%1, %3).in(%0, %4))",
        "new %0,%1,%2.({01l -> %0} | (out(%1, %1) | in(%1, %3)) | 0 | in(%0, %4))",
        "new %0,%1,%2.({01l -> %0} | (0 | 0) | 0 | in(%0, %3))",
        "new %0,%1,%2.({01l -> %0} | (out(%1, %1) | in(%1, %3)) | 0 | 0)",
        "new %0,%1,%2.({01l -> %0} | (0 | 0) | 0 | 0)",
    ]


def test_indep_reports_pairs(files, capsys):
    f = files("p.pi", "new x.(out(a,x) | out(b,h(x)))")
    code, out, _ = run(capsys, "indep", f, "--bounds", "depth=0", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["events"] == ["(^a(0l), 0[])", "(^b(1l), 1[])"]
    assert data["pairs"][0]["indep_loc"] and data["pairs"][0]["indep_event"]


THREE = "new x,y,z.(out(a,x) | out(b,y) | out(c,z))"


def test_indep_refuses_above_the_pair_limit(files, capsys, monkeypatch):
    f = files("p.pi", THREE)
    monkeypatch.setattr("latspi.cli.MAX_INDEP_PAIRS", 3)
    code, out, _ = run(capsys, "indep", f, "--bounds", "depth=0")
    assert code == 0 and out.count(" vs ") == 3

    def unreachable(*args):
        raise AssertionError("a pair was built")

    # above the limit, no pair is built
    monkeypatch.setattr("latspi.cli.MAX_INDEP_PAIRS", 2)
    monkeypatch.setattr("latspi.cli.indep_event", unreachable)
    monkeypatch.setattr("latspi.cli.indep_loc", unreachable)
    code, out, err = run(capsys, "indep", f, "--bounds", "depth=0")
    assert code == 2 and out == ""
    assert err == (
        "error: resource limit hit: 3 initial events make 3 pairs, "
        "more than the 2 that indep lists\n"
    )


# --- static-equiv ----------------------------------------------------------


def test_static_equiv_frames(files, capsys):
    f1 = files("f1.frame", "new x\n0l = x\n1l = h(x)\n")
    f2 = files("f2.frame", "new x, y\n0l = x\n1l = y\n")
    code, out, _ = run(capsys, "static-equiv", f1, f2, "--bounds", "static=2")
    assert code == 1
    data = json.loads(out)
    assert not data["equivalent"]
    assert {data["witness"]["m"], data["witness"]["n"]} == {"h(0l)", "1l"}


def test_static_equiv_test_flag(files, capsys):
    f1 = files("f1.frame", "new x\n0l = x\n1l = h(x)\n")
    code, out, _ = run(capsys, "static-equiv", f1, f1, "--test", "h(0l) = 1l")
    assert code == 0
    assert json.loads(out) == {"test": "h(0l) = 1l", "holds_left": True, "holds_right": True}


def test_static_equiv_public_vs_private(files, capsys):
    public = files("pub.frame", "l = x\n")
    private = files("priv.frame", "new y\nl = y\n")
    code, out, _ = run(capsys, "static-equiv", public, private, "--test", "l = x")
    assert code == 1
    assert json.loads(out) == {"test": "l = x", "holds_left": True, "holds_right": False}


@pytest.mark.parametrize(
    "left, right, error",
    [
        ("0l = a\n", "0l = b\n", "alias 1l, which neither frame binds"),
        ("0l = a\n1l = b\n", "0l = b\n", "alias 1l, which the right frame does not bind"),
        ("0l = a\n", "0l = b\n1l = b\n", "alias 1l, which the left frame does not bind"),
    ],
    ids=["neither", "left-only", "right-only"],
)
def test_static_equiv_test_of_an_unbound_alias_exits_two(files, capsys, left, right, error):
    f1, f2 = files("l.frame", left), files("r.frame", right)
    code, out, err = run(capsys, "static-equiv", f1, f2, "--test", "1l = a")
    assert code == 2 and out == ""
    assert err == f"error: --test mentions {error}\n"


@pytest.mark.parametrize(
    "content, error",
    [
        ("0l a\n", "malformed frame line: '0l a'"),
        ("0x = a\n", "malformed alias: '0x'"),
        ("0l = a\n0l = b\n", "alias 0l already bound"),
        # a frame's image holds no alias, or the frame fails its own tests
        ("0l = a\n1l = f(0l)\n", "malformed frame line: '1l = f(0l)'"),
    ],
    ids=["without-equals", "bad-alias", "repeated-alias", "alias-in-term"],
)
def test_static_equiv_malformed_frame_exits_two(files, capsys, content, error):
    bad = files("bad.frame", content)
    good = files("good.frame", "0l = a\n1l = f(a)\n")
    for argv in ([bad, good], [bad, good, "--test", "1l = f(0l)"]):
        code, out, err = run(capsys, "static-equiv", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and error in err


# --- check -----------------------------------------------------------------


def test_check_related_exit_zero(files, capsys):
    l = files("l.pi", "new x,y,z.out(a,x).(out(b,y) | out(c,z))")
    r = files("r.pi", "new x,y,z.(out(a,x).out(b,y) | out(c,z))")
    code, out, _ = run(capsys, "check", "sim-st", l, r, "--bounds", "depth=1")
    assert code == 0 and "RELATED_EXACT" in out


def test_check_distinguished_exit_one_and_witness(files, capsys, tmp_path):
    l = files("l.pi", "new x.out(a,x) | new x.out(a,x)")
    r = files("r.pi", "new x.out(a,x).new x.out(a,x)")
    wit = str(tmp_path / "w.json")
    code, out, _ = run(capsys, "check", "sim-st", l, r, "--bounds", "depth=1", "--witness", wit)
    assert code == 1 and "DISTINGUISHED" in out and "replay ok" in out
    data = json.loads(Path(wit).read_text())
    assert data["relation"] == "sim-st" and data["witness"]["kind"] == "lead"

    code, out, _ = run(capsys, "explain", wit)
    assert code == 0 and "leads with" in out


def test_check_json_format(files, capsys):
    l = files("l.pi", "out(a, m)")
    r = files("r.pi", "0")
    code, out, _ = run(capsys, "check", "bisim-i", l, r, "--bounds", "depth=0", "--format", "json")
    assert code == 1
    data = json.loads(out)
    assert data["verdict_class"] == "DISTINGUISHED" and data["witness_replay"] is True


def test_check_theory_preset(files, capsys):
    l = files("l.pi", "new k,m.out(a, enc(m, k)).out(a, k)")
    code, out, _ = run(capsys, "check", "sim-i", l, l, "--theory", "dolev-yao", "--bounds", "depth=0,static=1")
    assert code == 0


def test_check_theory_file(files, capsys):
    t = files("t.rw", "unwrap(wrap(x)) -> x\n")
    l = files("l.pi", "new m.out(a, wrap(m))")
    code, out, _ = run(capsys, "check", "sim-i", l, l, "--theory", t, "--bounds", "depth=1")
    assert code == 0


# --- spectrum --------------------------------------------------------------


def test_spectrum_json_lists_every_relation(files, capsys):
    l = files("l.pi", "out(a, m)")
    code, out, _ = run(capsys, "spectrum", l, l, "--bounds", "depth=0", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"classes": {rel.value: "RELATED_EXACT" for rel in Rel}}


def test_spectrum_exits_two_when_a_proved_edge_breaks(files, capsys, monkeypatch):
    # presim-i is coarser than sim-i, so sim-i related exactly and presim-i
    # distinguished can only be an internal error
    decide = latspi.cli.check

    def check(rel, *args):
        verdict = decide(rel, *args)
        return replace(verdict, related=False) if rel is Rel.PRESIM_I else verdict

    monkeypatch.setattr(latspi.cli, "check", check)
    l = files("l.pi", "out(a, m)")
    code, out, err = run(capsys, "spectrum", l, l, "--bounds", "depth=0")
    assert code == 2 and len(out.splitlines()) == 13
    assert err == "error: internal error: the verdicts break proved order edges: sim-i => presim-i\n"


# --- diamonds / corpus -----------------------------------------------------


def test_diamonds_clean(files, capsys):
    f = files("p.pi", "new x,y.(out(a,x) | out(b,y))")
    code, out, _ = run(capsys, "diamonds", f, "--bounds", "depth=0")
    assert code == 0 and "0 diamond violations" in out
    assert "tainted=False, budget_exhausted=False" in out


def test_diamonds_reports_a_truncated_graph(files, capsys):
    f = files("three.pi", THREE)
    code, out, _ = run(capsys, "diamonds", f, "--bounds", "budget=2", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "states": 2,
        "tainted": True,
        "budget_exhausted": True,
        "violations": [],
    }
    code, out, _ = run(capsys, "diamonds", f, "--bounds", "budget=2")
    assert code == 0
    assert out == "2 states checked, 0 diamond violations, tainted=True, budget_exhausted=True\n"


def test_corpus_subset_deterministic(files, capsys):
    sub = files(
        "sub.json",
        json.dumps(
            {
                "cases": [
                    {
                        "name": "two-outputs-sim-st",
                        "relation": "sim-st",
                        "expected": "DISTINGUISHED",
                        "left": "new x.out(a,x) | new x.out(a,x)",
                        "right": "new x.out(a,x).new x.out(a,x)",
                        "bounds": {"recipe_depth": 1, "static_depth": 1},
                    }
                ]
            }
        ),
    )
    code1, out1, _ = run(capsys, "corpus", "--path", sub, "--format", "json")
    code2, out2, _ = run(capsys, "corpus", "--path", sub, "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical without timings
    assert json.loads(out1)["passed"] == 1


def test_corpus_timings_in_text_format(files, capsys):
    cases = [
        {
            "name": name,
            "relation": "sim-i",
            "expected": "RELATED_EXACT",
            "left": "out(a, b)",
            "right": "out(a, b)",
            "bounds": {"recipe_depth": 0, "static_depth": 0},
        }
        for name in ("first", "second")
    ]
    sub = files("two.json", json.dumps({"cases": cases}))
    code, out, _ = run(capsys, "corpus", "--path", sub, "--timings")
    lines = out.splitlines()
    assert code == 0 and len(lines) == 3
    for name, line in zip(("first", "second"), lines):
        expected = rf"PASS {name}: expected RELATED_EXACT, got RELATED_EXACT \(\d+\.\d{{3}} s\)"
        assert re.fullmatch(expected, line)
    code, out, _ = run(capsys, "corpus", "--path", sub)
    assert code == 0 and " s)" not in out


@pytest.mark.parametrize(
    "exc",
    [
        RecipeLimitExceeded("more than 200000 recipes at depth 3"),
        RewriteBudgetExceeded("exceeded 10000 rewrite steps"),
    ],
)
def test_resource_limit_exits_two(files, capsys, monkeypatch, exc):
    # the real trigger, sim-i on out(a, enc(m,k)) vs out(a, m) with the
    # Dolev-Yao theory at depth=3, takes seconds; the raise is what matters
    def raising(*args, **kwargs):
        raise exc

    monkeypatch.setattr("latspi.cli.check", raising)
    l = files("l.pi", "out(a, enc(m, k))")
    r = files("r.pi", "out(a, m)")
    argv = ("check", "sim-i", l, r, "--theory", "dolev-yao", "--bounds", "depth=3")
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(exc) in err


def test_resource_limits_share_one_exported_base():
    assert latspi.ResourceLimitExceeded is ResourceLimitExceeded
    assert latspi.RecipeLimitExceeded is RecipeLimitExceeded
    assert latspi.RewriteBudgetExceeded is RewriteBudgetExceeded
    assert latspi.ParseDepthExceeded is ParseDepthExceeded
    for exc in (RecipeLimitExceeded, RewriteBudgetExceeded, PairLimitExceeded, ParseDepthExceeded):
        assert issubclass(exc, latspi.ResourceLimitExceeded)


@pytest.mark.parametrize("command", ["parse", "check"])
def test_deep_input_exits_two(files, capsys, command):
    # nesting deeper than the recursion limit is a resource limit, not a
    # refutation, which exit 1 would report
    deep = files("deep.pi", ".".join(f"out(a, m{i})" for i in range(3000)))
    argv = ("parse", deep) if command == "parse" else ("check", "sim-i", deep, deep)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: resource limit hit: ") and "Traceback" not in err


def test_memory_exhaustion_exits_two(files, capsys, monkeypatch):
    # indep on a process with tens of thousands of initial events can run
    # out of memory; that is a resource limit, not a refutation
    def raising(*args):
        raise MemoryError

    monkeypatch.setattr("latspi.cli.indep_event", raising)
    f = files("p.pi", "new x.(out(a,x) | out(b,h(x)))")
    code, out, err = run(capsys, "indep", f, "--bounds", "depth=0")
    assert code == 2 and out == ""
    assert err == "error: resource limit hit: MemoryError\n"


def test_corpus_failure_is_reported_not_crash(files, capsys):
    sub = files(
        "bad.json",
        json.dumps(
            {
                "cases": [
                    {
                        "name": "broken",
                        "relation": "sim-i",
                        "expected": "RELATED_EXACT",
                        "left": "out(a",
                        "right": "0",
                    }
                ]
            }
        ),
    )
    code, out, _ = run(capsys, "corpus", "--path", sub)
    assert code == 1 and "FAIL broken" in out


@pytest.mark.parametrize(
    "content",
    [
        {"relation": "sim-i", "witness": {"kind": "static"}},
        {"witness": {"kind": "failure", "event": "e"}},
        [1],
    ],
    ids=["static-without-fields", "without-relation", "not-an-object"],
)
def test_explain_malformed_witness_exits_two(files, capsys, content):
    wit = files("w.json", json.dumps(content))
    code, out, err = run(capsys, "explain", wit)
    assert code == 2 and out == ""
    assert err.startswith("error: malformed witness file") and "Traceback" not in err


def _bounded_case(bounds, **fields):
    # distinguished at the default bounds; game_depth=-1 made it related
    case = {"name": "neg", "relation": "sim-i", "expected": "DISTINGUISHED"}
    case.update(left="out(a, m) | out(b, m)", right="out(a, m)", bounds=bounds, **fields)
    return {"cases": [case]}


@pytest.mark.parametrize(
    "content, missing",
    [
        ({"tests": []}, "'cases'"),
        (
            {"cases": [{"name": "half", "relation": "sim-i", "expected": "RELATED_EXACT", "left": "0"}]},
            "'half': missing field 'right'",
        ),
        (_bounded_case({"game_depth": -1}), "'neg': bound 'game_depth' must be a non-negative"),
        (_bounded_case({"game_depth": "3"}), "'neg': bound 'game_depth' must be a non-negative"),
        (_bounded_case({"recipe_depth": True}), "'neg': bound 'recipe_depth' must be a non-negative"),
        (_bounded_case({"game_dept": 0}), "'neg': unknown bound 'game_dept'"),
        (_bounded_case({}, theory="dolev_yao"), "'neg': field 'theory' must be one of"),
        (_bounded_case({}, theory=["empty"]), "'neg': field 'theory' must be one of"),
        (_bounded_case({}, expected="RELATED"), "'neg': field 'expected' must be one of"),
        (_bounded_case({}, st_exhaustive=True), "'neg': unknown field 'st_exhaustive'"),
        (_bounded_case({}, theroy="empty"), "'neg': unknown field 'theroy'"),
        (_bounded_case({}, relation="sim-x"), "'neg': field 'relation' must be one of"),
        *(
            (_bounded_case({"extra_consts": [name]}), "'neg': bound 'extra_consts' must be a list of names")
            for name in ("%0", "_0", "", "a b")
        ),
    ],
    ids=[
        "without-cases",
        "case-without-right",
        "negative-bound",
        "string-bound",
        "bool-bound",
        "misspelt-bound",
        "unknown-theory",
        "list-theory",
        "unknown-class",
        "removed-field",
        "misspelt-field",
        "unknown-relation",
        "canonical-binder-const",
        "fresh-name-const",
        "empty-const",
        "spaced-const",
    ],
)
def test_corpus_malformed_file_exits_two(files, capsys, content, missing):
    sub = files("bad.json", json.dumps(content))
    code, out, err = run(capsys, "corpus", "--path", sub)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and missing in err
