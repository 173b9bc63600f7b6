"""Terms, rewriting, substitutions, and alias maps."""

import sys

import pytest
from hypothesis import given, strategies as st

from latspi.terms import (
    Alias,
    AliasMap,
    App,
    NestingLimitExceeded,
    RewriteBudgetExceeded,
    RewriteRule,
    Substitution,
    Symbol,
    Theory,
    TheoryError,
    Var,
    apply_msg_subst,
    dolev_yao,
    free_aliases,
    free_vars,
    msg_key,
    parse_message,
    parse_theory,
    rename_vars,
)


def T(text):
    return parse_message(text)


# --- parsing ---------------------------------------------------------------


def test_parse_message_shapes():
    assert T("x") == Var("x")
    assert T("h(x)") == App(Symbol("h", 1), (Var("x"),))
    assert T("pair(x, h(y))") == App(
        Symbol("pair", 2), (Var("x"), App(Symbol("h", 1), (Var("y"),)))
    )


def test_parse_message_arity_conflict():
    with pytest.raises(TheoryError):
        parse_message("pair(h(x), h(x, y))")


def test_parse_message_trailing():
    with pytest.raises(TheoryError):
        parse_message("x y")


# --- rewriting -------------------------------------------------------------


def test_dolev_yao_normal_forms():
    th = dolev_yao()
    assert th.normalize(T("dec(enc(m, k), k)")) == Var("m")
    assert th.normalize(T("fst(pair(m, n))")) == Var("m")
    assert th.normalize(T("snd(pair(m, n))")) == Var("n")
    # nested redexes reduce innermost-first to the same normal form
    assert th.normalize(T("snd(dec(enc(pair(m, n), k), k))")) == Var("n")
    # stuck terms stay put
    stuck = T("dec(m, k)")
    assert th.normalize(stuck) == stuck


def test_rewrite_budget(monkeypatch):
    monkeypatch.setattr("latspi.terms.STEP_BUDGET", 50)
    th = parse_theory("f(x) -> f(f(x))")
    with pytest.raises(RewriteBudgetExceeded):
        th.normalize(T("f(a)"))


def test_deep_message_normalizes_to_a_typed_limit():
    # deeper than the recursion limit under any interpreter version: a
    # library caller of ``normalize`` gets the package's typed resource
    # limit, not a bare RecursionError
    deep = Var("m")
    for _ in range(sys.getrecursionlimit() + 100):
        deep = App(Symbol("h", 1), (deep,))
    with pytest.raises(NestingLimitExceeded):
        Theory(()).normalize(deep)


def test_rule_validation():
    with pytest.raises(TheoryError):
        RewriteRule(Var("x"), Var("y"))  # rhs variable not bound by lhs
    with pytest.raises(TheoryError):
        RewriteRule(App(Symbol("f", 1), (Alias("0", "l"),)), Var("x"))


def test_parse_theory_reports_line():
    with pytest.raises(TheoryError, match="line 2"):
        parse_theory("fst(pair(x, y)) -> x\nbroken line\n")


DY_SYMBOLS = {Symbol("dec", 2), Symbol("enc", 2), Symbol("fst", 1), Symbol("snd", 1), Symbol("pair", 2)}


def test_theory_symbols():
    assert set(dolev_yao().symbols()) == DY_SYMBOLS


# --- free names ------------------------------------------------------------


def test_free_vars_and_aliases():
    m = App(Symbol("pair", 2), (Var("x"), Alias("01", "l")))
    assert free_vars(m) == {"x"}
    assert free_aliases(m) == {Alias("01", "l")}


# --- substitutions ---------------------------------------------------------


def test_substitution_apply_and_extend():
    a = Alias("0", "l")
    s = Substitution().extend(a, Var("x"))
    assert s(a) == Var("x")
    assert s(App(Symbol("h", 1), (a,))) == App(Symbol("h", 1), (Var("x"),))
    assert s(Var("a")) == Var("a")  # variables are never frame-bound
    with pytest.raises(ValueError):
        s.extend(a, Var("y"))


_aliases = st.builds(Alias, st.sampled_from(["", "0", "1", "01", "10"]), st.sampled_from(["l", "l'", "l''"]))


@given(st.lists(_aliases, unique=True, max_size=6))
def test_extending_keeps_the_aliases_in_order(aliases):
    # ``extend`` inserts each alias in place, without sorting the frame again
    s = Substitution()
    for i, a in enumerate(aliases):
        s = s.extend(a, Var(f"x{i}"))
    built = Substitution({a: Var(f"x{i}") for i, a in enumerate(aliases)})
    assert list(s.items()) == list(built.items()) == sorted(built.items(), key=lambda kv: msg_key(kv[0]))
    assert s == built and hash(s) == hash(built)


def test_alias_map_injective():
    a, b, c = Alias("0", "l"), Alias("1", "l"), Alias("", "l")
    with pytest.raises(ValueError):
        AliasMap({a: c, b: c})
    rho = AliasMap({a: b})
    assert rho(a) == b
    with pytest.raises(ValueError):
        rho.extend(c, b)


def test_alias_prefix_validation():
    with pytest.raises(ValueError):
        Alias("02", "l")


# --- properties ------------------------------------------------------------


def messages(depth=3):
    base = st.one_of(
        st.sampled_from([Var("a"), Var("b"), Var("k"), Var("m"), Alias("0", "l"), Alias("1", "l")])
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda t: App(Symbol("pair", 2), t)),
            st.tuples(children, children).map(lambda t: App(Symbol("enc", 2), t)),
            st.tuples(children, children).map(lambda t: App(Symbol("dec", 2), t)),
            children.map(lambda c: App(Symbol("fst", 1), (c,))),
            children.map(lambda c: App(Symbol("snd", 1), (c,))),
            children.map(lambda c: App(Symbol("h", 1), (c,))),
        )

    return st.recursive(base, extend, max_leaves=depth * 4)


@given(messages())
def test_normalize_idempotent(m):
    th = dolev_yao()
    nf = th.normalize(m)
    assert th.normalize(nf) == nf
    assert th.equal(m, nf)


@given(messages(), messages())
def test_equal_symmetric(m, n):
    th = dolev_yao()
    assert th.equal(m, n) == th.equal(n, m)


@given(messages())
def test_msg_key_roundtrip_consistent(m):
    assert msg_key(m) == msg_key(m)


@given(messages())
def test_rename_vars_closed_under_substitution(m):
    ren = {"a": Var("z"), "k": Var("a")}
    out = rename_vars(m, ren)
    assert "k" not in free_vars(out)


@given(messages())
def test_frame_application_only_touches_aliases(m):
    s = Substitution({Alias("0", "l"): Var("w")})
    assert free_vars(apply_msg_subst(m, s)) >= (free_vars(m) - set())
