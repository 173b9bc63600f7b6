"""Located transitions, frames, reachability, and the diamond property."""

from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from latspi import knowledge, lts
from latspi.corpus import case_theory
from latspi.games import build_signature
from latspi.lts import (
    Event,
    ExplorationBounds,
    InLabel,
    OutLabel,
    TauLabel,
    default_consts,
    diamond_check,
    enabled_transitions,
    event_key,
    reachable_lts,
    representative,
)
from latspi.syntax import (
    Bang,
    ExtendedProcess,
    In,
    Match,
    Mismatch,
    New,
    Nil,
    Out,
    Par,
    Sum,
    alpha_canonical,
    congruence_key,
    from_process,
    parse_process,
    prime_bangs,
    struct_congruent,
    subst_proc,
)
from latspi.terms import ID, Theory, Var, apply_msg_subst, dolev_yao
from test_lts_systems import corpus_systems, explore
from test_syntax import _names, _procs

B1 = ExplorationBounds(recipe_depth=1, static_depth=1, repl_unfold=2, game_depth=12)
B0 = ExplorationBounds(recipe_depth=0, static_depth=1, repl_unfold=2, game_depth=12)


def setup(src, theory=None, bounds=B1):
    theory = Theory(()) if theory is None else theory
    p = prime_bangs(parse_process(src), bounds.repl_unfold)
    signature = build_signature(theory, p)
    consts = default_consts(p)
    return from_process(p), theory, bounds, signature, consts


def events_of(src, **kw):
    A, theory, bounds, signature, consts = setup(src, **kw)
    tset = enabled_transitions(A, bounds, theory, signature, consts)
    return tset, sorted({str(s.event) for s in tset.real_steps})


def step_on(A, event_str, theory, bounds, signature, consts):
    for s in enabled_transitions(A, bounds, theory, signature, consts).real_steps:
        if str(s.event) == event_str:
            return s.residual
    raise AssertionError(f"event {event_str} not enabled")


# --- event shapes ----------------------------------------------------------


def test_parallel_outputs_have_located_aliases():
    _, evs = events_of("new x.(out(a, x) | out(b, h(x)))", bounds=B0)
    assert evs == ["(^a(0l), 0[])", "(^b(1l), 1[])"]


def test_choice_locations():
    _, evs = events_of("out(a, m) + out(b, m)", bounds=B0)
    assert evs == ["(^a(l), [0])", "(^b(l), [1])"]


def test_private_channel_blocked_until_extruded():
    A, theory, bounds, signature, consts = setup("new n.(out(a, n) | in(n, x))", bounds=B0)
    tset = enabled_transitions(A, bounds, theory, signature, consts)
    assert sorted(str(s.event) for s in tset.real_steps) == ["(^a(0l), 0[])"]
    after = step_on(A, "(^a(0l), 0[])", theory, bounds, signature, consts)
    evs = sorted(str(s.event) for s in enabled_transitions(after, bounds, theory, signature, consts).real_steps)
    # the environment now addresses the channel through the disclosed alias
    assert evs == ["(0l(0l), 1[])", "(0l(a), 1[])", "(0l(w0), 1[])"]


def test_tau_synchronisation_location_pair():
    _, evs = events_of("new n.(out(n, m) | in(n, x).out(a, x))", bounds=B0)
    assert evs == ["(tau, (0[], 1[]))"]


def test_match_guards():
    _, evs = events_of("[m = m] out(a, m)", bounds=B0)
    assert evs == ["(^a(l), [])"]
    _, evs = events_of("[m != m] out(a, m)", bounds=B0)
    assert evs == []
    th = dolev_yao()
    _, evs = events_of("[fst(pair(m, n)) = m] out(a, m)", theory=th, bounds=B0)
    assert evs == ["(^a(l), [])"]


def test_input_payloads_range_over_recipes():
    tset, evs = events_of("in(a, x)", bounds=B0)
    # payload recipes at depth 0: the public names a and w0
    assert evs == ["(a(a), [])", "(a(w0), [])"]


def test_output_extends_frame_at_location():
    A, theory, bounds, signature, consts = setup("new x.(out(a, x) | out(b, h(x)))", bounds=B0)
    after = step_on(A, "(^b(1l), 1[])", theory, bounds, signature, consts)
    assert "{1l -> h(%0)}" in str(after)


# --- replication -----------------------------------------------------------


def test_bang_truncation_taints_and_marks_phantoms():
    A, theory, bounds, signature, consts = setup(
        "!out(a, m)", bounds=ExplorationBounds(recipe_depth=0, static_depth=1, repl_unfold=1)
    )
    tset = enabled_transitions(A, bounds, theory, signature, consts)
    assert tset.tainted
    assert len(tset.real_steps) == 1
    phantoms = [s for s in tset.steps if s.phantom]
    assert phantoms  # one more unfolding is visible to game followers only


def test_bang_without_fuel_rejected():
    A, theory, bounds, signature, consts = setup("out(a, m)", bounds=B0)
    bad = from_process(parse_process("!out(a, m)"))
    with pytest.raises(ValueError):
        enabled_transitions(bad, bounds, theory, signature, consts)


# --- binder hygiene --------------------------------------------------------


def test_sibling_restrictions_stay_distinct():
    # after extrusion the two restricted names must not be conflated under
    # one binder list
    A, theory, bounds, signature, consts = setup("new k.(out(a, k) | new m.out(b, m))", bounds=B0)
    after = step_on(A, "(^b(1l), 1[])", theory, bounds, signature, consts)
    text = str(after)
    assert "new %0,%1." in text
    assert "{1l -> %1}" in text and "out(a, %0)" in text


def test_delivered_secret_stays_apart_from_the_receivers_restriction():
    src = "new n.(new k.out(n, k) | in(n, x).new k.out(a, pair(x, k)))"
    _, evs = events_of(src, bounds=B0)
    assert evs == ["(tau, (0[], 1[]))"]
    A, theory, bounds, signature, consts = setup(src, bounds=B0)
    after = step_on(A, "(tau, (0[], 1[]))", theory, bounds, signature, consts)
    follow = enabled_transitions(after, bounds, theory, signature, consts)
    (out_step,) = follow.real_steps
    # the delivered secret and the receiver's own restriction stay distinct
    state = str(representative(out_step.residual, theory))
    assert state == "new %0,%1,%2.({1l -> pair(%0, %1)} | 0 | 0)"


def test_close_renames_apart_two_copies_of_a_replicated_body():
    # unfolding the bang makes copies of ``new k`` with one binder name; when
    # one copy's input takes the other's output, both extrude it, and the
    # input side's ``k`` must stay apart from the delivered one
    bounds = ExplorationBounds(recipe_depth=0, static_depth=0, repl_unfold=2, state_budget=30)
    A, theory, _, signature, consts = setup("!new k.(out(c,k) | in(c,x).out(k,x))", bounds=bounds)
    states = [str(s) for s in reachable_lts(A, bounds, theory, signature, consts).states]
    rest = "!new %3.(out(c, %3) | in(c, %4).out(%3, %4))"
    assert states[8] == f"new %0,%1.(id | (0 | in(c, %2).out(%0, %2)) | (out(c, %1) | out(%1, %0)) | {rest})"
    assert states[9] == f"new %0,%1.(id | (out(c, %0) | out(%0, %1)) | (0 | in(c, %2).out(%1, %2)) | {rest})"


# --- reachability and diamonds --------------------------------------------


def test_reachable_lts_counts():
    A, theory, bounds, signature, consts = setup("new x.(out(a, x) | out(b, h(x)))", bounds=B0)
    g = reachable_lts(A, bounds, theory, signature, consts)
    assert len(g.states) == 4 and len(g.edges) == 4
    assert not g.tainted and not g.budget_exhausted


def test_state_budget_exhaustion():
    bounds = ExplorationBounds(recipe_depth=0, static_depth=1, repl_unfold=2, state_budget=2)
    A, theory, _, signature, consts = setup("new x,y,z.(out(a,x) | out(b,y) | out(c,z))", bounds=bounds)
    g = reachable_lts(A, bounds, theory, signature, consts)
    assert g.budget_exhausted and g.tainted
    assert len(g.states) == 2


def test_diamond_property_small():
    A, theory, bounds, signature, consts = setup(
        "new x,y,z.(out(a,x) | out(b,y) | in(c,w).out(w,z))", bounds=B0
    )
    g = reachable_lts(A, bounds, theory, signature, consts)
    assert diamond_check(g, bounds, theory, signature, consts) == []


def test_commuting_orders_reach_congruent_states():
    A, theory, bounds, signature, consts = setup("new x.(out(a, x) | out(b, h(x)))", bounds=B0)
    ab = step_on(
        step_on(A, "(^a(0l), 0[])", theory, bounds, signature, consts),
        "(^b(1l), 1[])", theory, bounds, signature, consts,
    )
    ba = step_on(
        step_on(A, "(^b(1l), 1[])", theory, bounds, signature, consts),
        "(^a(0l), 0[])", theory, bounds, signature, consts,
    )
    assert struct_congruent(ab, ba)


# --- representatives ---------------------------------------------------------


def test_raw_states_keep_their_free_names_apart_from_their_binders():
    # the private x and the public x are two names; the transitions of a raw
    # state are its representative's, so no binder captures a free name
    A, theory, bounds, signature, consts = setup("new x.out(a,x) | out(b,x)", bounds=B0)
    after = step_on(A, "(^a(0l), 0[])", theory, bounds, signature, consts)
    assert str(after) == "new %0.({0l -> %0} | 0 | out(b, x))"
    states = [str(s) for s in reachable_lts(A, bounds, theory, signature, consts).states]
    assert states == [
        "(id | new %0.out(a, %0) | out(b, x))",
        "new %0.({0l -> %0} | 0 | out(b, x))",
        "({1l -> x} | new %0.out(a, %0) | 0)",
        "new %0.({0l -> %0} o {1l -> x} | 0 | 0)",
    ]


def _raw_fire(A, bounds, theory, signature, consts):
    """``(steps, tainted)`` of ``A`` fired as it is, each step an ``(event,
    residual, phantom)`` triple in the library's order, with every residual
    built raw: an input's by substituting the payload's normalised image for
    its bound variable, one ``subst_proc`` per payload.  ``A`` needs only
    binders of its own, as an alpha-canonical state has.  The reference for
    ``lts._fire``, which keys each input firing once."""
    ts, tainted = lts.proc_transitions(A.body, theory)
    recipes = knowledge.recipe_enum(A.frame.domain, consts, signature, bounds.recipe_depth, theory)
    images = [theory.normalize(apply_msg_subst(r, A.frame)) for r in recipes]
    steps = []
    for t in ts:
        binders = A.binders + t.binders
        if isinstance(t, lts.PTau):
            steps.append((Event(TauLabel(), t.loc), ExtendedProcess(binders, A.frame, t.cont), t.phantom))
            continue
        chans = [r for r, img in zip(recipes, images) if img == theory.normalize(t.chan)]
        if isinstance(t, lts.POut):
            alias = lts.fresh_alias(t.loc.prefix, A.frame.domain)
            residual = ExtendedProcess(binders, A.frame.extend(alias, theory.normalize(t.payload)), t.cont)
            steps += [(Event(OutLabel(m, alias), t.loc), residual, t.phantom) for m in chans]
        else:
            for m in chans:
                for n, img in zip(recipes, images):
                    residual = ExtendedProcess(binders, A.frame, subst_proc(t.cont, {t.binder: img}))
                    steps.append((Event(InLabel(m, n), t.loc), residual, t.phantom))
    steps.sort(key=lambda s: (s[2], event_key(s[0])))
    return steps, tainted


@settings(max_examples=100, deadline=None)
@given(st.lists(_names, unique=True, min_size=2, max_size=4), _procs())
# top restrictions in declared order, first used in the other order
@example(("k", "m"), parse_process("out(a, m) | out(b, k)"))
@example((), parse_process("new z.(out(c, z) | new a.new x.out(b, x))"))
# the payload is a private name that the state and its key name apart
@example(("k", "m"), parse_process("out(a, m) | out(b, k) | in(c, x).out(c, x)"))
def test_class_representatives_have_the_same_transitions(binders, p):
    # ``enabled_transitions`` fires the representative of a state's class in
    # its place, so its steps must agree step for step, up to congruence,
    # with those of the state fired as it is
    p = prime_bangs(p, 1)
    theory = Theory(())
    args = (B1, theory, build_signature(theory, p), default_consts(p))
    A = alpha_canonical(ExtendedProcess(tuple(binders), ID, p))
    states = [A] + [alpha_canonical(r) for _, r, _ in _raw_fire(A, *args)[0]]
    for state in states:
        raw, tainted = _raw_fire(state, *args)
        tset = enabled_transitions(state, *args)
        assert [(e, phantom) for e, _, phantom in raw] == [(s.event, s.phantom) for s in tset.steps]
        assert tset.tainted == tainted
        for (_, r, _), s in zip(raw, tset.steps):
            assert congruence_key(s.residual) == congruence_key(r)


# --- input residuals are class keys at birth ---------------------------------


def _inputs_fire_into_keys(state, bounds, theory, signature, consts) -> list:
    """Assert that each input step of the state's class carries the key of
    the residual built raw from its representative, and that every other
    step's residual has that key; return the steps."""
    rep = representative(state, theory)
    tset = enabled_transitions(rep, bounds, theory, signature, consts)
    raw, tainted = _raw_fire(rep, bounds, theory, signature, consts)
    assert [(e, phantom) for e, _, phantom in raw] == [(s.event, s.phantom) for s in tset.steps]
    assert tset.tainted == tainted
    for (e, r, _), s in zip(raw, tset.steps):
        if isinstance(e.action, InLabel):
            assert s.residual == congruence_key(r), (str(rep), str(e))
        else:
            assert congruence_key(s.residual) == congruence_key(r)
    return tset.steps


def _classes_are_keys(theory) -> None:
    """Every class key of the theory is a fixed point of ``congruence_key``,
    ids number the keys, and every state the table maps goes to its own
    key's class."""
    assert all(congruence_key(k) == k for k in theory.reps)
    assert [theory.classes[k] for k in theory.reps] == list(range(len(theory.reps)))
    assert all(congruence_key(s) == theory.reps[i] for s, i in theory.classes.items())


# a replicated input beside a drawn process: the two copies of its body
# bind one name, and each copy's firing is keyed apart
_replicated_inputs = st.builds(
    lambda c, x, body, rest: Par(Bang(In(Var(c), x, body)), rest),
    _names, _names, _procs(), _procs(),
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.one_of(_procs(), _replicated_inputs), st.sampled_from([0, 1, 2]))
# a binder of the continuation takes the bound variable's canonical name
@example(parse_process("in(a, x).new y.out(y, x)"), 0)
@example(parse_process("!in(a, x).out(b, x) | out(a, m)"), 2)
def _drawn_inputs_fire_into_keys(p, unfold):
    # two rounds of steps from a drawn process, phantom steps included
    theory, bounds = Theory(()), replace(B1, repl_unfold=unfold)
    p = prime_bangs(p, unfold)
    args = (bounds, theory, build_signature(theory, p), default_consts(p))
    states = [from_process(p)]
    for _ in range(2):
        states = [s.residual for state in states for s in _inputs_fire_into_keys(state, *args)]
    _classes_are_keys(theory)


# Dolev-Yao systems whose payload recipes, such as ``dec(0l, 1l)`` and
# ``fst(0l)``, have substituted forms that rewrite
_REWRITING_INPUTS = (
    "new k.(out(a, enc(m, k)) | out(a, k) | in(b, x).out(c, x))",
    "out(a, pair(m, n)) | in(b, x).new y.out(y, x)",
)


def test_input_steps_carry_the_keys_of_their_raw_residuals():
    # on drawn processes, on Dolev-Yao systems whose payload images differ
    # from the recipes' substituted forms, and from every state reachable in
    # the corpus systems at their bounds
    _drawn_inputs_fire_into_keys()
    systems = [(src, B1, dolev_yao()) for src in _REWRITING_INPUTS]
    systems += [(src, case.bounds, case_theory(case)) for _, src, case in corpus_systems()]
    inputs = 0
    for src, bounds, theory in systems:
        graph, args = explore(src, bounds, theory)
        for state in graph.states:
            steps = _inputs_fire_into_keys(state, *args)
            inputs += sum(isinstance(s.event.action, InLabel) for s in steps)
        _classes_are_keys(theory)
    assert inputs > 400


# --- the game graph is acyclic ----------------------------------------------


def _measure(state: ExtendedProcess) -> tuple[int, int]:
    """``(A, -G)`` of the ``games`` docstring: ``A`` counts the ``Par`` nodes
    under no prefix, guard or bang, ``G`` the process nodes under no bang."""
    active = outside = 0
    todo = [(state.body, True)]
    for p, is_active in todo:  # the loop visits the children it appends
        outside += 1
        if isinstance(p, Par):
            active += is_active
            todo += [(p.left, is_active), (p.right, is_active)]
        elif isinstance(p, New):
            todo.append((p.body, is_active))
        elif isinstance(p, Sum):
            todo += [(p.left, False), (p.right, False)]
        elif isinstance(p, (In, Out, Match, Mismatch)):
            todo.append((p.body, False))
        else:
            assert isinstance(p, (Bang, Nil))  # a bang's body is not counted
    return active, -outside


def _successors_raise_the_measure(state, bounds, theory, signature, consts) -> list:
    """The representatives that the steps of ``state``, phantom ones
    included, reach, each asserted to measure more than ``state``."""
    reps = []
    for s in enabled_transitions(state, bounds, theory, signature, consts).steps:
        rep = representative(s.residual, theory)
        assert _measure(rep) > _measure(state), (str(state), str(s.event), s.phantom)
        assert _measure(rep) == _measure(s.residual)
        reps.append(rep)
    return reps


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_procs(), st.sampled_from([0, 1, 2]))
@example(parse_process("out(a, m) | !out(a, m).out(a, m)"), 0)
def _drawn_plays_raise_the_measure(p, unfold):
    # two rounds of steps from a drawn process, phantom steps included
    theory, bounds = Theory(()), replace(B1, repl_unfold=unfold)
    p = prime_bangs(p, unfold)
    args = (bounds, theory, build_signature(theory, p), default_consts(p))
    states = [from_process(p)]
    for _ in range(2):
        states = [r for state in states for r in _successors_raise_the_measure(state, *args)]


def test_every_step_raises_the_acyclicity_measure():
    # the game search keeps no record of its open configurations, because
    # none recurs on a play: every step raises (A, -G), on drawn processes
    # and from every state reachable in the corpus systems at their bounds
    _drawn_plays_raise_the_measure()
    steps = 0
    for _, src, case in corpus_systems():
        graph, args = explore(src, case.bounds, case_theory(case))
        for state in graph.states:
            steps += len(_successors_raise_the_measure(state, *args))
    assert steps > 2000  # 2,455 at this writing, phantom steps included
