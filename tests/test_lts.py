"""Located transitions, frames, reachability, and the diamond property."""

import pytest

from latspi.games import build_signature
from latspi.lts import (
    ExplorationBounds,
    default_consts,
    diamond_check,
    enabled_transitions,
    reachable_lts,
)
from latspi.syntax import from_process, parse_process, prime_bangs, struct_congruent
from latspi.terms import Theory, dolev_yao

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
