"""The structural layer against the renaming-apart firing code it replaced.

The reference functions below are ``latspi.lts._proc_transitions`` as it
was before each restriction extruded its own name.  A restriction then
extruded a fresh ``_i`` name, substituted through its body, and ``Par``
renamed a one-sided firing's binders apart from every name of the other
side (``ref_freshen_binders``).  ``ref_close`` is the ``_close`` of that
code, kept here so that the reference does not lean on the library's clash
check.  The top layer is the library's ``enabled_transitions`` over each
structural layer, on a theory of its own, which fires the representative
of a state's class.  The two must agree step for step: the same events in
the same order, the same phantom flags and taint, and alpha-equal
residuals.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

import latspi.lts
from latspi.corpus import case_theory
from latspi.games import build_signature
from latspi.lts import (
    ExplorationBounds,
    Location,
    PairLoc,
    PIn,
    POut,
    PTau,
    _push_choice,
    _push_loc,
    _refire,
    default_consts,
    enabled_transitions,
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
    all_names,
    alpha_canonical,
    congruence_key,
    fresh_supply,
    parse_process,
    prime_bangs,
    subst_proc,
)
from latspi.terms import ID, Theory, Var, free_vars, rename_vars
from test_lts_systems import corpus_systems, explore
from test_syntax import _names, _procs


# --- reference -------------------------------------------------------------


def ref_own_names(t) -> frozenset[str]:
    names = frozenset(t.binders) | all_names(t.cont)
    if isinstance(t, POut):
        names |= free_vars(t.chan) | free_vars(t.payload)
    elif isinstance(t, PIn):
        names |= free_vars(t.chan) | {t.binder}
    return names


def ref_freshen_binders(t, avoid: frozenset[str] | set[str]):
    """Rename a firing's extruded binders apart from surrounding context.

    Fresh names are chosen per subterm, so two sibling components can pick
    the same name; before their residuals are joined under one binder list
    the clash must be resolved."""
    clash = set(t.binders) & set(avoid)
    if not clash:
        return t
    supply = fresh_supply(set(avoid) | ref_own_names(t))
    ren = {x: Var(next(supply)) for x in sorted(clash)}
    binders = tuple(ren[x].name if x in ren else x for x in t.binders)
    cont = subst_proc(t.cont, ren)
    if isinstance(t, POut):
        # channels never mention extruded binders (blocked at the binding
        # restriction), payloads may
        return POut(t.chan, rename_vars(t.payload, ren), t.loc, binders, cont, t.phantom)
    return _refire(t, t.loc, binders, cont, t.phantom)


def ref_close(o: POut, i: PIn):
    """Deliver an output firing's payload to an input firing.

    The two firings extrude independent binder lists which may clash; the
    input side is renamed apart before the payload is substituted.  Returns
    the combined binder list and the input-side continuation."""
    clash = set(i.binders) & (set(o.binders) | free_vars(o.payload))
    w = list(i.binders)
    cont_i = i.cont
    if clash:
        avoid = (
            set(o.binders)
            | free_vars(o.payload)
            | all_names(o.cont)
            | set(i.binders)
            | all_names(cont_i)
        )
        supply = fresh_supply(avoid)
        ren = {x: Var(next(supply)) for x in sorted(clash)}
        cont_i = subst_proc(cont_i, ren)
        w = [ren[x].name if x in ren else x for x in w]
    body_i = subst_proc(cont_i, {i.binder: o.payload})
    return o.binders + tuple(w), body_i


def ref_proc_transitions(p, theory):
    cache = theory.structural
    hit = cache.get(p)
    if hit is not None:
        return hit
    result = _ref_proc_transitions(p, theory)
    cache[p] = result
    return result


def _ref_proc_transitions(p, theory):
    if isinstance(p, Nil):
        return (), False
    if isinstance(p, In):
        return (PIn(theory.normalize(p.chan), p.binder, Location("", ""), (), p.body),), False
    if isinstance(p, Out):
        return (
            POut(theory.normalize(p.chan), theory.normalize(p.payload), Location("", ""), (), p.body),
        ), False
    if isinstance(p, Match):
        return ref_proc_transitions(p.body, theory) if theory.equal(p.lhs, p.rhs) else ((), False)
    if isinstance(p, Mismatch):
        return ref_proc_transitions(p.body, theory) if not theory.equal(p.lhs, p.rhs) else ((), False)
    if isinstance(p, Sum):
        lts, lt = ref_proc_transitions(p.left, theory)
        rts, rt = ref_proc_transitions(p.right, theory)
        out = [_push_choice(t, "0") for t in lts]
        out += [_push_choice(t, "1") for t in rts]
        return tuple(out), lt or rt
    if isinstance(p, Bang):
        if p.fuel is None:
            raise ValueError("replication explored without an unfolding budget")
        if p.fuel <= 0:
            ts, _ = ref_proc_transitions(p.body, theory)
            out = tuple(
                _refire(t, _push_loc(t.loc, "0"), t.binders, Par(t.cont, Bang(p.body, 0)), True)
                for t in ts
            )
            return out, True
        unfolded = Par(p.body, Bang(p.body, p.fuel - 1))
        return ref_proc_transitions(unfolded, theory)
    if isinstance(p, New):
        avoid = all_names(p.body) | {p.name}
        z = next(fresh_supply(avoid))
        body = subst_proc(p.body, {p.name: Var(z)}) if p.name != z else p.body
        ts, taint = ref_proc_transitions(body, theory)
        out = []
        for t in ts:
            if isinstance(t, (POut, PIn)) and z in free_vars(t.chan):
                continue  # private-channel actions stay internal
            t = ref_freshen_binders(t, {z})
            out.append(_refire(t, t.loc, (z,) + t.binders, t.cont, t.phantom))
        return tuple(out), taint
    if isinstance(p, Par):
        lts, ltaint = ref_proc_transitions(p.left, theory)
        rts, rtaint = ref_proc_transitions(p.right, theory)
        # only a firing that extrudes binders is renamed apart from the
        # other side's names
        left_names = all_names(p.left) if any(t.binders for t in rts) else frozenset()
        right_names = all_names(p.right) if any(t.binders for t in lts) else frozenset()
        out = []
        for t in lts:
            t = ref_freshen_binders(t, right_names)
            out.append(_refire(t, _push_loc(t.loc, "0"), t.binders, Par(t.cont, p.right), t.phantom))
        for t in rts:
            t = ref_freshen_binders(t, left_names)
            out.append(_refire(t, _push_loc(t.loc, "1"), t.binders, Par(p.left, t.cont), t.phantom))
        for o in lts:
            if not isinstance(o, POut):
                continue
            for i in rts:
                if isinstance(i, PIn) and theory.equal(o.chan, i.chan):
                    loc = PairLoc(_push_loc(o.loc, "0"), _push_loc(i.loc, "1"))
                    binders, body_i = ref_close(o, i)
                    out.append(PTau(loc, binders, Par(o.cont, body_i), o.phantom or i.phantom))
        for i in lts:
            if not isinstance(i, PIn):
                continue
            for o in rts:
                if isinstance(o, POut) and theory.equal(o.chan, i.chan):
                    loc = PairLoc(_push_loc(i.loc, "0"), _push_loc(o.loc, "1"))
                    binders, body_i = ref_close(o, i)
                    out.append(PTau(loc, binders, Par(body_i, o.cont), o.phantom or i.phantom))
        return tuple(out), ltaint or rtaint
    raise TypeError(p)


def ref_enabled_transitions(A, bounds, theory, signature, consts):
    """The library's top layer over the reference's structural layer."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(latspi.lts, "proc_transitions", ref_proc_transitions)
        return enabled_transitions(A, bounds, theory, signature, consts)


# --- comparison ------------------------------------------------------------


def _fires_as_the_reference(state, ref_theory, bounds, theory, signature, consts):
    """Assert that the library's steps of ``state`` are the reference's
    (``ref_theory`` keeps the reference's caches apart), and return them."""
    lib = enabled_transitions(state, bounds, theory, signature, consts)
    ref = ref_enabled_transitions(state, bounds, ref_theory, signature, consts)
    assert lib.tainted == ref.tainted
    assert [(s.event, s.phantom) for s in lib.steps] == [(s.event, s.phantom) for s in ref.steps]
    for s, r in zip(lib.steps, ref.steps):
        assert alpha_canonical(s.residual) == alpha_canonical(r.residual), (str(state), str(s.event))
    return lib.steps


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(_names, unique=True, max_size=2), _procs(), st.sampled_from([0, 1, 2]))
# two copies of the replicated body synchronise, and both extrude ``k``
@example((), parse_process("!new k.(out(c, k) | in(c, x).out(k, x))"), 2)
def test_drawn_states_fire_as_the_reference(binders, p, unfold):
    # a drawn state and the residuals of its steps, phantom steps included
    theory, ref_theory = Theory(()), Theory(())
    p = prime_bangs(p, unfold)
    args = (
        ExplorationBounds(recipe_depth=1, static_depth=1, repl_unfold=unfold),
        theory,
        build_signature(theory, p),
        default_consts(p),
    )
    state = alpha_canonical(ExtendedProcess(tuple(binders), ID, p))
    for s in _fires_as_the_reference(state, ref_theory, *args):
        _fires_as_the_reference(s.residual, ref_theory, *args)


def test_corpus_states_fire_as_the_reference():
    states = 0
    for _, src, case in corpus_systems():
        graph, args = explore(src, case.bounds, case_theory(case))
        ref_theory = case_theory(case)
        for state in graph.states:
            assert congruence_key(state) == state  # the graph lists representatives
            _fires_as_the_reference(state, ref_theory, *args)
        states += len(graph.states)
    assert states > 500
