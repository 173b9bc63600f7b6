"""The library against the reference semantics of ``tests/reference``,
layer by layer: the syntax walks, substitution and canonical forms; the
located transitions of drawn states and of every state the corpus systems
reach; and the two commutation axioms of an asynchronous transition system,
the diamond and sequential commutation, for the library's independence.

Transitions agree when the events and phantom flags of a state's steps are
equal as multisets, the taint is equal, and the residuals of equal events
are congruent by the reference's own test.
"""

from collections import Counter, defaultdict
from dataclasses import replace
from functools import cache

import pytest
from hypothesis import example, given, settings, strategies as st

import latspi.independence
from latspi.corpus import THEORIES
from latspi.games import build_signature
from latspi.lts import ExplorationBounds, InLabel, default_consts, diamond_check, enabled_transitions
from latspi.syntax import (
    Bang,
    ExtendedProcess,
    In,
    New,
    Out,
    Par,
    alpha_canonical,
    congruence_key,
    free_names,
    parse_process,
    prime_bangs,
    subst_proc,
    symbols_of,
)
from latspi.terms import Alias, Substitution, Theory, Var
from reference import lts as ref
from reference.syntax import alpha_equal, alpha_equivalent, congruent, prime, rename, subst, symbols
from reference.syntax import free_names as ref_free_names
from test_lts_systems import corpus_systems, explore
from test_syntax import _messages, _msgs, _names, _primed, _procs


# --- the syntax layer --------------------------------------------------------


# messages with binary symbols and aliases, which ``_procs`` does not draw
_payloads = st.dictionaries(_names, _messages, max_size=2)


@settings(max_examples=200, deadline=None)
@given(_primed, _payloads, st.sampled_from([0, 1, 3]))
@example(parse_process("new x.in(a, y).[x = h(y)] out(b, pair(x, z))"), {}, 2)
@example(parse_process("!(in(a, x).!out(x, a)) | new a.out(a, b)"), {}, 1)
def test_name_symbol_and_priming_walks_agree_with_the_reference(p, payloads, fuel):
    p = subst(p, payloads)
    assert free_names(p) == ref_free_names(p)
    assert symbols_of(p) == symbols(p)
    primed = prime_bangs(p, fuel)
    assert primed == prime(p, fuel)
    assert prime_bangs(primed, fuel) == primed


# keys and values share the names that processes bind, so many of these
# substitutions must rename a binder to avoid capture
_substitutions = st.dictionaries(_names, st.one_of(_names.map(Var), _msgs), max_size=3)
# the library's fresh names ``_0, _1, ...``, which the parser rejects; a
# renaming puts some into the drawn processes
_to_fresh = st.dictionaries(_names, st.sampled_from(["_0", "_1"]).map(Var), max_size=2)


@settings(max_examples=200, deadline=None)
@given(_procs(), _substitutions, _to_fresh)
@example(parse_process("new x.out(a, y)"), {"y": Var("x")}, {})
@example(parse_process("new x.out(a, b)"), {"a": Var("x")}, {"b": Var("_0")})
@example(parse_process("in(a, x).([x = y] out(b, x) + in(y, n).out(n, x))"), {"y": Var("x"), "a": Var("n")}, {})
def test_subst_proc_agrees_with_the_reference(p, mapping, to_fresh):
    p = subst(p, to_fresh)
    assert alpha_equal(subst_proc(p, mapping), subst(p, mapping))


_frames = st.lists(_msgs, max_size=2).map(
    lambda ms: Substitution({Alias(str(i), "l"): m for i, m in enumerate(ms)})
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_names, max_size=3), _frames, _procs(), st.permutations(range(3)))
@example(["y", "x"], Substitution({Alias("0", "l"): Var("x")}), parse_process("new x.out(a, y) | out(b, x)"), [0, 1, 2])
@example(["x", "y", "x"], Substitution(), parse_process("in(x, y).out(y, a) + [a = y] out(x, b)"), [0, 1, 2])
@example(["y", "x"], Substitution(), parse_process("new x.out(a, x) | in(b, x).out(y, x) | out(c, x)"), [1, 0, 2])
def test_canonical_forms_agree_with_the_reference(binders, frame, p, permutation):
    A = ExtendedProcess(tuple(binders), frame, p)
    key = congruence_key(A)
    assert alpha_equivalent(alpha_canonical(A), A)
    assert congruent(key, A)
    # a variant with its top binders renamed and declared in another order
    # is congruent, and has the same key
    tops = list(dict.fromkeys(binders))
    renamed = {x: Var(f"t{x}") for x in tops}
    order = tuple(f"t{tops[i]}" for i in permutation if i < len(tops))
    frame_b = Substitution({a: rename(m, renamed) for a, m in frame.items()})
    B = ExtendedProcess(order, frame_b, subst(p, renamed))
    assert congruent(A, B)
    assert congruence_key(B) == key


def test_seventy_nested_binders_are_numbered_past_any_table():
    # 70 top binders and 70 nested restrictions name binders up to ``%139``
    names = [f"x{i}" for i in range(70)]
    uses = " | ".join(f"out(a, {x})" for x in reversed(names))
    p = parse_process(f"new {','.join(names)}.({uses})")
    frame = Substitution({Alias("0", "l"): Var("x5")})
    A = ExtendedProcess(tuple(names), frame, p)
    key, alpha = congruence_key(A), alpha_canonical(A)
    assert alpha_equivalent(alpha, A)
    # the top binder ``x5`` is met first, in the frame, then the others as
    # the body uses them; the key is the state with its binders so declared
    first_use = ["x5"] + [x for x in reversed(names) if x != "x5"]
    assert alpha_equivalent(key, ExtendedProcess(tuple(first_use), frame, p))
    assert key.binders == alpha.binders == tuple(f"%{i}" for i in range(70))
    assert "new %70," in str(key) and "%139.(" in str(key)
    assert str(key.frame) == "{0l -> %0}" and str(alpha.frame) == "{0l -> %5}"
    assert alpha_equal(subst_proc(p, {"a": Var("x3")}), subst(p, {"a": Var("x3")}))


# --- the transitions ---------------------------------------------------------


def fires_as_the_reference(state, sem, bounds, theory, signature, consts) -> list:
    """Assert that the library's transitions of ``state`` are those the
    reference semantics ``sem`` fires, and that each input step's residual
    is born a class key; return the library's steps."""
    lib = enabled_transitions(state, bounds, theory, signature, consts)
    steps, tainted = sem.fire(state)
    assert lib.tainted == tainted
    residuals = defaultdict(list)
    for s in steps:
        residuals[s.event, s.phantom].append(s.residual)
    for s in lib.steps:
        candidates = residuals[s.event, s.phantom]
        match = next((r for r in candidates if congruent(s.residual, r)), None)
        assert match is not None, (str(state), str(s.event), str(s.residual))
        candidates.remove(match)
        if isinstance(s.event.action, InLabel):
            assert congruence_key(s.residual) == s.residual, (str(state), str(s.event))
    assert not any(residuals.values()), str(state)
    return lib.steps


def _classes_are_keys(theory) -> None:
    """Every class key of the theory is a fixed point of ``congruence_key``,
    ids number the keys, and every state the table maps goes to its own
    key's class."""
    assert all(congruence_key(k) == k for k in theory.reps)
    assert [theory.classes[k] for k in theory.reps] == list(range(len(theory.reps)))
    assert all(congruence_key(s) == theory.reps[i] for s, i in theory.classes.items())


def _synchronising_bangs():
    """Bodies shaped like ``!new k.(out(c,k).P | in(c,x).Q)``.  Unfolded once,
    the copy synchronises with the phantom copy beyond it while both extrude
    ``k``: the library renames apart only there (``lts._close``)."""

    def bang(names, x, p, q):
        k, c = names
        return Bang(New(k, Par(Out(Var(c), Var(k), p), In(Var(c), x, q))), None)

    names = st.lists(_names, min_size=2, max_size=2, unique=True)
    return st.builds(bang, names, _names, _procs(), _procs())


# a process and its unfolding budget.  One draw in sixteen synchronises two
# copies: such a draw costs some 75 ms, the others a few.  One more puts a
# replicated input beside a drawn process: the two copies of its body bind
# one name, and the library keys each copy's firing apart
_plain = st.tuples(_procs(), st.sampled_from([0, 1, 2]))
_synchronising = st.tuples(_synchronising_bangs(), st.just(1))
_replicated_inputs = st.tuples(
    st.builds(lambda c, x, q, r: Par(Bang(In(Var(c), x, q)), r), _names, _names, _procs(), _procs()),
    st.sampled_from([0, 1, 2]),
)
_unfolded = st.integers(0, 15).flatmap(
    lambda i: _synchronising if i == 0 else _replicated_inputs if i == 1 else _plain
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(_names, unique=True, max_size=3), _unfolded)
# two copies of the replicated body synchronise, and both extrude ``k``
@example((), (parse_process("!new k.(out(c, k) | in(c, x).out(k, x))"), 2))
# top restrictions in declared order, first used in the other order
@example(("k", "m"), (parse_process("out(a, m) | out(b, k)"), 1))
@example((), (parse_process("new z.(out(c, z) | new a.new x.out(b, x))"), 1))
# the payload is a private name that the state and its key name apart
@example(("k", "m"), (parse_process("out(a, m) | out(b, k) | in(c, x).out(c, x)"), 1))
# a binder of the continuation takes the bound variable's canonical name
@example((), (parse_process("in(a, x).new y.out(y, x)"), 0))
@example((), (parse_process("!in(a, x).out(b, x) | out(a, m)"), 2))
def test_drawn_states_fire_as_the_reference(binders, unfolded):
    # a drawn state and every residual of its steps, phantom ones included,
    # fired as they are by the reference and through their class
    # representatives by the library; and the drawn state's two-step paths
    # commute sequentially wherever the library's ``indep_event`` says so
    p, unfold = unfolded
    p = prime_bangs(p, unfold)
    bounds, theory = ExplorationBounds(recipe_depth=1, static_depth=1, repl_unfold=unfold), Theory(())
    args = (bounds, theory, build_signature(theory, p), default_consts(p))
    sem = ref.Semantics(bounds, Theory(()), *args[2:])
    state = ExtendedProcess(tuple(binders), Substitution(), p)
    for residual in dict.fromkeys(s.residual for s in fires_as_the_reference(state, sem, *args)):
        fires_as_the_reference(residual, sem, *args)
    _classes_are_keys(theory)
    _, violations = ref.commutation_violations(sem, [state], latspi.independence.indep_event)
    assert violations == [], [(str(s), str(e0), str(e1)) for s, e0, e1 in violations]


@pytest.fixture(autouse=True, scope="module")
def _free_the_corpus_graphs():
    # the largest live objects of the suite: freed after their last reader,
    # they no longer slow every later full garbage collection
    yield
    _corpus_graphs.cache_clear()


@cache
def _corpus_graphs() -> list:
    """Each distinct corpus system's name, the library's reachable graph on
    a theory of its own, the arguments of its transitions, and the
    reference semantics of its setting; built once, so that the tests share
    the reference's firings."""
    out = []
    for name, src, case in corpus_systems():
        graph, args = explore(src, case.bounds, THEORIES[case.theory]())
        out.append((name, graph, args, ref.Semantics(case.bounds, THEORIES[case.theory](), *args[2:])))
    return out


def test_corpus_states_fire_as_the_reference():
    states = steps = 0
    for _, graph, args, sem in _corpus_graphs():
        for state in graph.states:
            steps += len(fires_as_the_reference(state, sem, *args))
        states += len(graph.states)
        _classes_are_keys(args[1])
    assert states > 500 and steps > 2000  # 697 and 2,455 at this writing


def test_rewriting_payload_images_fire_as_the_reference():
    # Dolev-Yao systems whose payload recipes, such as ``dec(0l, 1l)`` and
    # ``fst(0l)``, have substituted forms that rewrite, as no corpus
    # system's do
    bounds = ExplorationBounds(recipe_depth=1, static_depth=1, repl_unfold=2)
    for src in (
        "new k.(out(a, enc(m, k)) | out(a, k) | in(b, x).out(c, x))",
        "out(a, pair(m, n)) | in(b, x).new y.out(y, x)",
    ):
        graph, args = explore(src, bounds, THEORIES["dolev-yao"]())
        sem = ref.Semantics(bounds, THEORIES["dolev-yao"](), *args[2:])
        for state in graph.states:
            fires_as_the_reference(state, sem, *args)
        _classes_are_keys(args[1])


# --- the commutation axioms --------------------------------------------------


def _diamonds(src, bounds, preset, sem=None):
    """The library's and the reference's diamond violations on ``src``'s
    graph, as multisets, and whether the state budget cut the graph; ``sem``
    is the reference semantics of the setting, if one is built.  Both
    read ``latspi.independence.indep_event``, as a test may have replaced it,
    so the library explores on a new theory, whose independence table is
    empty."""
    graph, args = explore(src, bounds, THEORIES[preset]())
    lib = Counter(
        (str(v.state), frozenset((v.first, v.second)), v.reason) for v in diamond_check(graph, *args)
    )
    sem = sem or ref.Semantics(bounds, THEORIES[preset](), *args[2:])
    found = ref.diamond_violations(sem, graph.states, latspi.independence.indep_event)
    reference = Counter((str(s), frozenset((e0, e1)), reason) for s, e0, e1, reason in found)
    return lib, reference, graph.budget_exhausted


# every distinct pair independent
_FORCED = ("indep_event", lambda e0, e1: e0 != e1)


@pytest.mark.parametrize("forced", [False, True], ids=["indep", "forced"])
@pytest.mark.parametrize("budget", [None, 2, 5], ids=["case", "budget2", "budget5"])
def test_diamond_check_agrees_with_the_reference(monkeypatch, budget, forced):
    # small state budgets cut most graphs short, so classes outside the
    # graph are checked too; forcing every distinct pair independent makes
    # most pairs fail, so both reasons are exercised
    if forced:
        monkeypatch.setattr(latspi.independence, *_FORCED)
    systems = corpus_systems()
    assert len(systems) == 34
    exhausted = missing = 0
    for (_, src, case), (*_, sem) in zip(systems, _corpus_graphs()):
        bounds = case.bounds if budget is None else replace(case.bounds, state_budget=budget)
        lib, reference, cut = _diamonds(src, bounds, case.theory, sem)
        assert lib == reference, (case.name, src)
        exhausted += cut
        missing += sum(n for (_, _, reason), n in lib.items() if reason == ref.MISSING)
    assert (exhausted > 0) == (budget is not None)
    assert (missing > 0) == forced


@pytest.mark.parametrize("budget", [100, 2])
def test_non_commuting_endpoints_agree_with_the_reference(monkeypatch, budget):
    monkeypatch.setattr(latspi.independence, *_FORCED)
    # the environment's input of w0 at 1 and the synchronisation on c both
    # take the first input, in either order, so the two orders bind x and y
    # the other way round; forced independence lets the check compare them
    src = "out(c, m) | in(c, x).in(c, y).out(d, x)"
    bounds = ExplorationBounds(recipe_depth=0, static_depth=0, state_budget=budget)
    lib, reference, _ = _diamonds(src, bounds, "empty")
    assert lib == reference
    assert ref.APART in {reason for _, _, reason in lib}


def test_independent_events_commute_sequentially():
    # if s -e0-> t -e1-> u with e0 and e1 independent by the library's
    # ``indep_event``, then s -e1-> t' -e0-> u' with u' congruent to u, on
    # every state the corpus systems reach; the reference fires every step
    paths, violations = 0, []
    for name, graph, _, sem in _corpus_graphs():
        n, found = ref.commutation_violations(sem, graph.states, latspi.independence.indep_event)
        paths += n
        violations += [(name, str(s), str(e0), str(e1)) for s, e0, e1 in found]
    assert violations == []
    assert paths > 3000  # 3,156 at this writing
