"""Attacker knowledge: recipe enumeration, satisfaction, static equivalence."""

from hypothesis import example, given, settings, strategies as st

from latspi.knowledge import (
    StaticWitness,
    recipe_enum,
    satisfies,
    static_equiv_witness,
    static_impl_witness,
)
from latspi.terms import (
    Alias,
    AliasMap,
    App,
    ID_ALIAS,
    Substitution,
    Symbol,
    Theory,
    Var,
    apply_msg_subst,
    app,
    rename_vars,
    dolev_yao,
)

L = Alias("", "l")
L0 = Alias("0", "l")
L1 = Alias("1", "l")
H = Symbol("h", 1)
PAIR = Symbol("pair", 2)


# --- recipe enumeration ----------------------------------------------------


def test_recipe_enum_counts_unary():
    # atoms {l, a}; one unary symbol: depth d adds 2 recipes per level
    rs = recipe_enum(frozenset({L}), frozenset({"a"}), (H,), 2, Theory(()))
    assert len(rs) == 6
    assert set(map(str, rs)) == {"l", "a", "h(l)", "h(a)", "h(h(l))", "h(h(a))"}


def test_recipe_enum_dedups_modulo_theory():
    th = dolev_yao()
    sig = tuple(sorted(th.symbols(), key=lambda s: (s.name, s.arity)))
    rs = recipe_enum(frozenset(), frozenset({"a", "b"}), sig, 2, th)
    nfs = [th.normalize(r) for r in rs]
    assert len(nfs) == len(set(nfs))  # one representative per class
    assert Var("a") in nfs and Var("b") in nfs


def test_recipe_enum_deterministic():
    rs1 = recipe_enum(frozenset({L0, L1}), frozenset({"a"}), (H,), 1, Theory(()))
    rs2 = recipe_enum(frozenset({L0, L1}), frozenset({"a"}), (H,), 1, Theory(()))
    assert rs1 == rs2


# --- satisfaction ----------------------------------------------------------


def test_satisfaction_of_hash_link():
    # {0l -> x, 1l -> h(x)} under a restricted x satisfies h(0l) = 1l
    frame = Substitution({L0: Var("%0"), L1: app("h", Var("%0"))})
    assert satisfies(frame, app("h", L0), L1, Theory(()))


def test_satisfaction_distinguishes_public_from_private():
    public = Substitution({L: Var("x")})
    private = Substitution({L: Var("%0")})
    assert satisfies(public, L, Var("x"), Theory(()))
    assert not satisfies(private, L, Var("x"), Theory(()))


def test_satisfaction_modulo_theory():
    th = dolev_yao()
    frame = Substitution({L: app("enc", Var("%0"), Var("%1")), L0: Var("%1")})
    assert satisfies(frame, app("dec", L, L0), Var("%0"), th)


# --- static equivalence ----------------------------------------------------


def test_static_witness_public_vs_private():
    left = Substitution({L: Var("x")})
    right = Substitution({L: Var("%0")})
    w = static_equiv_witness(left, right, ID_ALIAS, frozenset({"x"}), (), 1, Theory(()))
    assert w is not None
    assert {str(w.m), str(w.n)} == {"l", "x"}
    assert w.holds_left and not w.holds_right


def test_static_witness_minimal_and_deterministic():
    left = Substitution({L: Var("x")})
    right = Substitution({L: Var("%0")})
    args = (left, right, ID_ALIAS, frozenset({"x"}), (H,), 2, Theory(()))
    assert static_equiv_witness(*args) == static_equiv_witness(*args)


def test_static_implication_is_one_directional():
    # right satisfies l = x but left does not: implication left-to-right holds
    left = Substitution({L: Var("%0")})
    right = Substitution({L: Var("x")})
    assert static_impl_witness(left, right, ID_ALIAS, frozenset({"x"}), (), 1, Theory(())) is None
    assert static_equiv_witness(left, right, ID_ALIAS, frozenset({"x"}), (), 1, Theory(())) is not None


def test_random_nonce_indistinguishable_from_ciphertext():
    # a fresh name and an encryption under an unknown key cannot be separated
    th = dolev_yao()
    sig = tuple(sorted(th.symbols(), key=lambda s: (s.name, s.arity)))
    cipher = Substitution({L: app("enc", app("pair", Var("%0"), Var("hi")), Var("%1"))})
    nonce = Substitution({L: Var("%2")})
    assert static_equiv_witness(cipher, nonce, ID_ALIAS, frozenset({"hi"}), sig, 1, th) is None


def test_leaked_key_separates_ciphertext_from_nonce():
    th = dolev_yao()
    sig = tuple(sorted(th.symbols(), key=lambda s: (s.name, s.arity)))
    cipher = Substitution(
        {L: app("enc", app("pair", Var("%0"), Var("hi")), Var("%1")), L0: Var("%1")}
    )
    nonce = Substitution({L: Var("%2"), L0: Var("%3")})
    w = static_equiv_witness(cipher, nonce, ID_ALIAS, frozenset({"hi"}), sig, 2, th)
    assert w is not None
    assert w.holds_left != w.holds_right


def test_alias_bijection_applied_to_right():
    rho = ID_ALIAS.extend(L0, L1)
    left = Substitution({L0: Var("x")})
    right = Substitution({L1: Var("x")})
    assert static_equiv_witness(left, right, rho, frozenset({"x"}), (), 1, Theory(())) is None


# --- agreement with the term-level scan ------------------------------------


def _reference_scan(frame_a, frame_b, rho, recipes, theory, both_directions):
    """The static scan on whole terms, as decided before normal forms were
    interned: the reference the interned scan must reproduce exactly."""
    rep_a: dict = {}
    rep_b: dict = {}
    for r in recipes:
        nf_a = theory.normalize(apply_msg_subst(r, frame_a))
        nf_b = theory.normalize(apply_msg_subst(rho(r), frame_b))
        prev = rep_a.get(nf_a)
        if prev is None:
            rep_a[nf_a] = (r, nf_b)
        elif prev[1] != nf_b:
            return StaticWitness(prev[0], r, True, False)
        if both_directions:
            prev = rep_b.get(nf_b)
            if prev is None:
                rep_b[nf_b] = (r, nf_a)
            elif prev[1] != nf_a:
                return StaticWitness(prev[0], r, False, True)
    return None


DY_SIGNATURE = tuple(
    Symbol(name, arity)
    for name, arity in (("dec", 2), ("enc", 2), ("fst", 1), ("h", 1), ("pair", 2), ("snd", 1))
)
LEFT_ALIASES = (Alias("0", "l"), Alias("1", "l"))
RIGHT_ALIASES = (Alias("10", "l"), Alias("11", "l"))


def _frame_terms(max_leaves=3):
    leaves = st.sampled_from([Var("%0"), Var("%1"), Var("%2"), Var("a")])

    def extend(children):
        return st.one_of(
            *(
                st.tuples(*[children] * sym.arity).map(lambda args, sym=sym: App(sym, args))
                for sym in DY_SIGNATURE
            )
        )

    return st.recursive(leaves, extend, max_leaves=max_leaves)


@st.composite
def _static_problems(draw):
    depth = draw(st.integers(0, 2))
    # depth 2 over two aliases and two names enumerates about 12 000 recipes
    size = 1 if depth == 2 else draw(st.integers(1, 2))
    left_terms = draw(st.lists(_frame_terms(), min_size=size, max_size=size))
    mode = draw(st.sampled_from(["renamed", "mutated", "independent"]))
    if mode == "independent":
        right_terms = draw(st.lists(_frame_terms(), min_size=size, max_size=size))
    else:
        # a private-name renaming of the left frame, equivalent to it; a
        # mutated one has one entry replaced, often by a name or a clash
        perm = draw(st.permutations(["%0", "%1", "%2"]))
        rename = dict(zip(["%0", "%1", "%2"], map(Var, perm)))
        right_terms = [rename_vars(t, rename) for t in left_terms]
        if mode == "mutated":
            right_terms[draw(st.integers(0, size - 1))] = draw(_frame_terms(max_leaves=1))
    right_aliases = draw(st.sampled_from([LEFT_ALIASES, RIGHT_ALIASES]))
    targets = draw(st.permutations(right_aliases[:size]))
    frame_a = Substitution(dict(zip(LEFT_ALIASES, left_terms)))
    frame_b = Substitution(dict(zip(targets, right_terms)))
    rho = AliasMap(dict(zip(LEFT_ALIASES, targets)))
    consts = frozenset({"a"} if depth == 2 else draw(st.sampled_from([{"a"}, {"a", "b"}])))
    return frame_a, frame_b, rho, consts, depth


# one theory, and so one table, for every example, as the static tests of a
# game and its replay share theirs
_DY = dolev_yao()


R0, R1 = RIGHT_ALIASES


@settings(max_examples=60, deadline=None)
@given(_static_problems())
# the right frame is coarser (it satisfies h(0l) = 1l), so the partitions
# differ but the implication holds
@example(
    (
        Substitution({L0: Var("%0"), L1: Var("%1")}),
        Substitution({L0: Var("%0"), L1: app("h", Var("%0"))}),
        AliasMap({L0: L0, L1: L1}),
        frozenset({"a"}),
        1,
    )
)
# only the right frame satisfies 0l = a: the witness holds on the right only
@example(
    (
        Substitution({L0: Var("%0")}),
        Substitution({L0: Var("a")}),
        AliasMap({L0: L0}),
        frozenset({"a"}),
        0,
    )
)
# both directions first fail at recipe a (0l = a holds on the left only,
# 1l = a on the right only): the left-to-right witness is the one reported
@example(
    (
        Substitution({L0: Var("a"), L1: Var("%1")}),
        Substitution({L0: Var("%0"), L1: Var("a")}),
        AliasMap({L0: L0, L1: L1}),
        frozenset({"a"}),
        0,
    )
)
# equal partitions: the right frame renames the private names and aliases
@example(
    (
        Substitution({L0: app("enc", Var("%0"), Var("%1")), L1: Var("%1")}),
        Substitution({R1: app("enc", Var("%1"), Var("%2")), R0: Var("%2")}),
        AliasMap({L0: R1, L1: R0}),
        frozenset({"a"}),
        1,
    )
)
def test_interned_scan_matches_term_scan(problem):
    frame_a, frame_b, rho, consts, depth = problem
    recipes = recipe_enum(frame_a.domain, consts, DY_SIGNATURE, depth, _DY)
    keys = set(_DY.__dict__)
    args = (frame_a, frame_b, rho, consts, DY_SIGNATURE, depth)
    equiv = _reference_scan(frame_a, frame_b, rho, recipes, _DY, True)
    impl = _reference_scan(frame_a, frame_b, rho, recipes, _DY, False)
    assert static_equiv_witness(*args, dolev_yao()) == equiv  # a fresh table
    assert static_equiv_witness(*args, _DY) == equiv
    assert static_impl_witness(*args, _DY) == impl
    assert set(_DY.__dict__) == keys
