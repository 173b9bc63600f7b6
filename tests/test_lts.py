"""Located transitions, frames, reachability, and the diamond property."""

import pytest
from hypothesis import example, given, settings, strategies as st

from latspi import lts
from latspi.games import build_signature
from latspi.lts import (
    ExplorationBounds,
    default_consts,
    diamond_check,
    enabled_transitions,
    reachable_lts,
)
from latspi.syntax import (
    ExtendedProcess,
    alpha_canonical,
    congruence_key,
    from_process,
    parse_process,
    prime_bangs,
    struct_congruent,
)
from latspi.terms import ID, Theory, dolev_yao
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
            return s.target
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
    # both components pick locally fresh binder names; after extrusion the
    # two restricted names must not be conflated under one binder list
    A, theory, bounds, signature, consts = setup("new k.(out(a, k) | new m.out(b, m))", bounds=B0)
    after = step_on(A, "(^b(1l), 1[])", theory, bounds, signature, consts)
    text = str(after)
    assert "new %0,%1." in text
    assert "{1l -> %1}" in text and "out(a, %0)" in text


def test_close_renames_input_side_apart():
    src = "new n.(new k.out(n, k) | in(n, x).new k.out(a, pair(x, k)))"
    _, evs = events_of(src, bounds=B0)
    assert evs == ["(tau, (0[], 1[]))"]
    A, theory, bounds, signature, consts = setup(src, bounds=B0)
    after = step_on(A, "(tau, (0[], 1[]))", theory, bounds, signature, consts)
    follow = enabled_transitions(after, bounds, theory, signature, consts)
    (out_step,) = follow.real_steps
    # the delivered secret and the receiver's own restriction stay distinct
    payload = str(out_step.target)
    assert "pair(%1, %2)" in payload


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


# --- lazy canonicalisation ---------------------------------------------------


def test_steps_canonicalise_their_target_on_first_read(monkeypatch):
    calls = []

    def counting(state):
        calls.append(state)
        return alpha_canonical(state)

    monkeypatch.setattr(lts, "alpha_canonical", counting)
    A, theory, bounds, signature, consts = setup("new k.(out(a, k) | new m.out(b, m) | in(c, x))")
    A = alpha_canonical(A)
    tset = enabled_transitions(A, bounds, theory, signature, consts)
    assert len(tset.steps) > 2 and calls == []  # successors are built raw
    step = tset.steps[-1]
    first = step.target
    assert step.target is first and calls == [step.residual]  # once, then kept
    assert first == alpha_canonical(step.residual) and "_" not in str(first)


def _transitions_on_a_fresh_theory(state, p):
    theory = Theory(())
    return enabled_transitions(state, B1, theory, build_signature(theory, p), default_consts(p))


@settings(max_examples=100, deadline=None)
@given(st.lists(_names, unique=True, min_size=2, max_size=4), _procs())
@example(("k", "m"), parse_process("out(a, k) | out(b, m)"))
@example((), parse_process("new z.(out(c, z) | new a.new x.out(b, x))"))
def test_class_representatives_have_the_same_transitions(binders, p):
    # the game expands the representative of a state's congruence class in
    # its place, so the two must agree step for step up to congruence; top
    # restrictions in declared order make the two differ
    p = prime_bangs(p, 1)
    A = alpha_canonical(ExtendedProcess(tuple(binders), ID, p))
    states = [A] + [s.target for s in _transitions_on_a_fresh_theory(A, p).steps]
    for state in states:
        rep = congruence_key(state)
        ts = _transitions_on_a_fresh_theory(state, p)
        tr = _transitions_on_a_fresh_theory(rep, p)
        assert [s.event for s in ts.steps] == [s.event for s in tr.steps]
        assert [s.phantom for s in ts.steps] == [s.phantom for s in tr.steps]
        assert ts.tainted == tr.tainted
        for s, r in zip(ts.steps, tr.steps):
            assert congruence_key(s.residual) == congruence_key(r.residual)
            assert s.target == alpha_canonical(s.residual)
            assert r.target == alpha_canonical(r.residual)
