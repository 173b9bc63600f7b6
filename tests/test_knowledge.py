"""Attacker knowledge: recipe enumeration, satisfaction, static equivalence."""

from hypothesis import example, given, settings, strategies as st

from latspi.games import Checker, GameConfig, Rel
from latspi.knowledge import (
    StaticWitness,
    recipe_enum,
    satisfies,
    static_equiv_witness,
    static_impl_witness,
)
from latspi.lts import ExplorationBounds
from latspi.syntax import ExtendedProcess, Nil
from latspi.terms import (
    Alias,
    AliasMap,
    App,
    ID_ALIAS,
    Substitution,
    Symbol,
    Theory,
    Var,
    app,
    rename_vars,
    dolev_yao,
)
from reference.knowledge import recipes as reference_recipes, static_scan


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


_ALIAS_POOL = [Alias(p, s) for p in ("", "0", "1", "01", "10") for s in ("l", "l'")]
_THEORIES = {"empty": Theory(()), "dolev-yao": dolev_yao()}


@st.composite
def _recipe_problems(draw):
    theory = draw(st.sampled_from(sorted(_THEORIES)))
    depth = draw(st.integers(0, 2))
    # depth 2 over three atoms and a binary symbol is already ~1 000 recipes
    atoms = 3 if depth == 2 else 4
    size = draw(st.integers(0, atoms - 1))
    consts = draw(
        st.frozensets(st.sampled_from(["a", "b", "w0", "%0", "#0"]), max_size=atoms - size)
    )
    pool = (H, PAIR) if theory == "empty" else DY_SIGNATURE
    signature = tuple(draw(st.lists(st.sampled_from(pool), max_size=3 if depth < 2 else 2)))
    # two domains of one size, so that one shares the other's enumeration
    draw_domain = st.lists(st.sampled_from(_ALIAS_POOL), min_size=size, max_size=size, unique=True)
    domains = [frozenset(draw(draw_domain)) for _ in range(2)]
    return theory, domains, consts, signature, depth


@settings(max_examples=80, deadline=None)
@given(_recipe_problems())
def test_recipe_enum_matches_direct_enumeration(problem):
    name, domains, consts, signature, depth = problem
    theory = _THEORIES[name]
    for aliases in domains:
        rs = recipe_enum(aliases, consts, signature, depth, theory)
        fresh = dolev_yao() if name == "dolev-yao" else Theory(())
        assert rs == reference_recipes(aliases, consts, signature, depth, fresh)
        # each application's arguments are earlier entries of the list itself
        seen: set = set()
        for r in rs:
            if isinstance(r, App):
                assert all(id(a) in seen for a in r.args)
            seen.add(id(r))


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


def test_frame_classes_are_keyed_on_consts():
    # one theory: b is a private name under {w0, a}, where 0l -> b and 0l -> c
    # are one class, and a public one under {w0, b}, where 0l = b holds on
    # the left only
    theory = Theory(())
    left, right = Substitution({L0: Var("b")}), Substitution({L0: Var("c")})
    for rho in (AliasMap({L0: L0}), ID_ALIAS):
        args = (left, right, rho)
        assert static_equiv_witness(*args, frozenset({"w0", "a"}), (), 1, theory) is None
        w = static_equiv_witness(*args, frozenset({"w0", "b"}), (), 1, theory)
        assert w == StaticWitness(L0, Var("b"), True, False)


# --- agreement with the term-level scan ------------------------------------


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
    equiv = static_scan(frame_a, frame_b, rho, recipes, _DY, True)
    impl = static_scan(frame_a, frame_b, rho, recipes, _DY, False)
    assert static_equiv_witness(*args, dolev_yao()) == equiv  # a fresh table
    assert static_equiv_witness(*args, _DY) == equiv
    assert static_impl_witness(*args, _DY) == impl
    assert set(_DY.__dict__) == keys


# --- the game's static tests, keyed on frame classes ------------------------

_PRIVATE = ["%0", "%1", "%2"]
_ALIASES = [Alias(p, s) for p in ("", "0", "1", "00", "01", "10", "11") for s in ("l", "l'")]


@st.composite
def _renamed_problems(draw):
    """A static problem and some variants of it.  A renamed variant renames
    the private names injectively and replaces the aliases on each side,
    ``rho`` following the aliases: its test is the same up to renaming.  A
    rematched variant keeps the frames and draws another ``rho``."""
    frame_a, frame_b, rho, consts, depth = draw(_static_problems())
    variants = [(frame_a, frame_b, rho)]

    def renamed(frame):
        pool = draw(st.permutations(["%0", "%1", "%2", "%3", "%4", "%5"]))
        names = dict(zip(_PRIVATE, map(Var, pool)))
        targets = draw(st.lists(st.sampled_from(_ALIASES), min_size=3, max_size=3, unique=True))
        aliases = dict(zip(sorted(frame.domain, key=lambda a: (a.prefix, a.stem)), targets))
        new = {aliases[a]: rename_vars(m, names) for a, m in frame.mapping.items()}
        return Substitution(new), aliases

    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            new_a, to_a = renamed(frame_a)
            new_b, to_b = renamed(frame_b)
            rho_new = AliasMap({to_a[a]: to_b[b] for a, b in rho.mapping.items()})
            variants.append((new_a, new_b, rho_new))
        else:
            sources = sorted(frame_a.domain, key=lambda a: (a.prefix, a.stem))
            right = sorted(frame_b.domain, key=lambda a: (a.prefix, a.stem))
            targets = draw(st.permutations(right))
            variants.append((frame_a, frame_b, AliasMap(dict(zip(sources, targets)))))
    return variants, consts, depth


# one theory for every example, so that tests hit classes met in others
_GAME_DY = dolev_yao()
_A, _P0, _P1 = Var("a"), Var("%0"), Var("%1")
L01 = Alias("01", "l")
_SAME, _SWAP = AliasMap({L0: L0, L1: L1}), AliasMap({L0: L1, L1: L0})


@settings(max_examples=60, deadline=None)
@given(_renamed_problems(), st.sampled_from([Rel.SIM_I, Rel.PRESIM_I]))
# the same frames under two alias maps: equivalent when rho swaps the
# aliases, told apart by 0l = a when it does not
@example(
    (
        [
            (Substitution({L0: _A, L1: _P0}), Substitution({L0: _P0, L1: _A}), _SWAP),
            (Substitution({L0: _A, L1: _P0}), Substitution({L0: _P0, L1: _A}), _SAME),
        ],
        frozenset({"a"}),
        0,
    ),
    Rel.SIM_I,
)
# a three-cycle rho: the first right frame, read in rho order, is the left
# frame; the second right frame's sorted images are the first's read along
# the inverse cycle, and 0l = a tells it from the left frame
@example(
    (
        [
            (
                Substitution({L0: _A, L01: _P0, L1: _P1}),
                Substitution({L0: _P1, L01: _A, L1: _P0}),
                AliasMap({L0: L01, L01: L1, L1: L0}),
            ),
            (
                Substitution({L0: _A, L01: _P0, L1: _P1}),
                Substitution({L0: _P0, L01: _P1, L1: _A}),
                AliasMap({L0: L0, L01: L01, L1: L1}),
            ),
        ],
        frozenset({"a"}),
        0,
    ),
    Rel.SIM_I,
)
# a name shared by two images is not two names: 0l = 1l separates them
@example(
    (
        [
            (Substitution({L0: _P0, L1: _P1}), Substitution({L0: _P0, L1: _P1}), _SAME),
            (Substitution({L0: _P0, L1: _P0}), Substitution({L0: _P0, L1: _P1}), _SAME),
        ],
        frozenset({"a"}),
        0,
    ),
    Rel.SIM_I,
)
def test_class_keyed_static_test_matches_reference(problem, rel):
    variants, consts, depth = problem
    bounds = ExplorationBounds(recipe_depth=1, static_depth=depth, repl_unfold=1, game_depth=1)
    checker = Checker(rel, _GAME_DY, bounds, DY_SIGNATURE, consts)
    both = rel is not Rel.PRESIM_I
    for frame_a, frame_b, rho in variants:
        reference = dolev_yao()  # no table shared with the checker's theory
        recipes = reference_recipes(frame_a.domain, consts, DY_SIGNATURE, depth, reference)
        expected = static_scan(frame_a, frame_b, rho, recipes, reference, both)
        left, right = ExtendedProcess((), frame_a, Nil()), ExtendedProcess((), frame_b, Nil())
        assert checker.static_witness(GameConfig(left, right, rho, frozenset())) == expected
