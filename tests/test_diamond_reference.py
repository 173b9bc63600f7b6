"""The diamond check against a reference implementation.

The reference functions below are the firing-based check that
``latspi.lts.diamond_check`` used before it read successors from the
explored graph: for every independent pair it fires each event again from
the other step's residual, and compares the two endpoints by class id.
The library must report the same violations, in the same order, on every
distinct corpus system.  Small state budgets cut most graphs short,
so classes outside the graph are checked too; forcing every distinct pair
independent makes most pairs fail, so both reasons are exercised.
"""

from dataclasses import replace

import pytest

import latspi.independence
from latspi.corpus import case_theory
from latspi.lts import (
    DiamondViolation,
    ExplorationBounds,
    diamond_check,
    enabled_transitions,
    state_class,
)
from latspi.terms import Theory
from test_lts_systems import corpus_systems, explore


# --- reference -------------------------------------------------------------


def ref_diamond_check(graph, bounds, theory, signature, consts):
    from latspi.independence import indep_event

    violations = []
    for state in graph.states:
        steps = enabled_transitions(state, bounds, theory, signature, consts).real_steps
        for i, s0 in enumerate(steps):
            e0 = s0.event
            for s1 in steps[i + 1 :]:
                e1 = s1.event
                if e0 == e1 or not indep_event(e0, e1):
                    continue
                b01 = ref_fire(s0.residual, e1, bounds, theory, signature, consts)
                b10 = ref_fire(s1.residual, e0, bounds, theory, signature, consts)
                if b01 is None or b10 is None:
                    violations.append(
                        DiamondViolation(state, e0, e1, "missing commuting transition")
                    )
                elif state_class(b01, theory) != state_class(b10, theory):
                    violations.append(
                        DiamondViolation(state, e0, e1, "endpoints not congruent")
                    )
    return violations


def ref_fire(A, event, bounds, theory, signature, consts):
    for s in enabled_transitions(A, bounds, theory, signature, consts).real_steps:
        if s.event == event:
            return s.residual
    return None


# --- comparison ------------------------------------------------------------


def _violations(src, bounds, theory):
    """The library's and the reference's violations on ``src``'s graph, and
    whether the state budget cut the graph.  The library runs first, on
    only what exploration computed."""
    graph, args = explore(src, bounds, theory)
    lib = diamond_check(graph, *args)
    ref = ref_diamond_check(graph, *args)
    return lib, ref, graph.budget_exhausted


def _text(violations):
    return [(str(v.state), str(v.first), str(v.second), v.reason) for v in violations]


def _force_independence(monkeypatch):
    monkeypatch.setattr(latspi.independence, "indep_event", lambda e0, e1: e0 != e1)


@pytest.mark.parametrize("forced", [False, True], ids=["indep", "forced"])
@pytest.mark.parametrize("budget", [None, 2, 5], ids=["case", "budget2", "budget5"])
def test_diamond_check_agrees_with_the_reference(monkeypatch, budget, forced):
    if forced:
        _force_independence(monkeypatch)
    systems = corpus_systems()
    assert len(systems) == 34
    exhausted = missing = 0
    for _, src, case in systems:
        bounds = case.bounds
        if budget is not None:
            bounds = replace(bounds, state_budget=budget)
        lib, ref, cut = _violations(src, bounds, case_theory(case))
        assert _text(lib) == _text(ref), (case.name, src)
        exhausted += cut
        missing += sum(v.reason == "missing commuting transition" for v in lib)
    assert (exhausted > 0) == (budget is not None)
    assert (missing > 0) == forced


@pytest.mark.parametrize("budget", [100, 2])
def test_non_commuting_endpoints_agree_with_the_reference(monkeypatch, budget):
    _force_independence(monkeypatch)
    # the environment's input of w0 at 1 and the synchronisation on c both
    # take the first input, in either order, so the two orders bind x and y
    # the other way round; forced independence lets the check compare them
    src = "out(c, m) | in(c, x).in(c, y).out(d, x)"
    bounds = ExplorationBounds(recipe_depth=0, static_depth=0, state_budget=budget)
    lib, ref, _ = _violations(src, bounds, Theory(()))
    assert _text(lib) == _text(ref)
    assert "endpoints not congruent" in {v.reason for v in lib}
