"""Located transition semantics for extended processes.

Transitions are computed in two layers.  The structural layer walks the
process term and produces prefix firings tagged with locations: a location
is a pair of a parallel prefix (a bitstring tracing the parallel structure)
and a choice part (a bitstring tracing guarded choices).  Internal steps
from synchronisation carry a pair of locations.  The top layer turns
structural firings into environment-facing events: output payloads are
hidden behind located aliases extending the frame, and channels and input
payloads become recipes over the frame domain and the public names.

Successors are built raw: a ``Step`` carries its ``residual`` with the
transition-local binder names the structural layer chose, and its
alpha-canonical ``target`` is computed on first read.  Most successors are
never read, because a search stops at its first answer or refutation.  The
theory interns congruence classes (``state_class``) and keeps one
representative per class; the game expands representatives,
``reachable_lts`` merges states by class, and ``diamond_check`` reads a
commuting successor from the cached transitions of the graph state in its
class and compares endpoints by class.  Only canonical states are expanded:
a raw residual's ``_i`` binders could clash with names extruded from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

from . import knowledge
from .terms import (
    Alias,
    Message,
    Node,
    Symbol,
    Theory,
    Var,
    apply_msg_subst,
    free_aliases,
    free_vars,
    msg_key,
    rename_vars,
)
from .syntax import (
    Bang,
    ExtendedProcess,
    In,
    Match,
    Mismatch,
    New,
    Nil,
    Out,
    Par,
    Process,
    Sum,
    alpha_canonical,
    all_names,
    congruence_key,
    free_names,
    fresh_supply,
    subst_proc,
)


# --- locations and events --------------------------------------------------


class Location(Node):
    """Parallel prefix plus choice part, both bitstrings."""

    __slots__ = ()
    prefix = property(itemgetter(1))
    choice = property(itemgetter(2))

    def __new__(cls, prefix: str, choice: str):
        return tuple.__new__(cls, ("Location", prefix, choice))

    def __str__(self):
        return f"{self.prefix}[{self.choice}]"


class PairLoc(Node):
    """Location label of a synchronisation: one location per participant."""

    __slots__ = ()
    left = property(itemgetter(1))
    right = property(itemgetter(2))

    def __new__(cls, left: Location, right: Location):
        return tuple.__new__(cls, ("PairLoc", left, right))

    def __str__(self):
        return f"({self.left}, {self.right})"


LocationLabel = Location | PairLoc


class OutLabel(Node):
    __slots__ = ()
    chan = property(itemgetter(1))
    alias = property(itemgetter(2))

    def __new__(cls, chan: Message, alias: Alias):
        return tuple.__new__(cls, ("OutLabel", chan, alias))

    def __str__(self):
        return f"^{self.chan}({self.alias})"


class InLabel(Node):
    __slots__ = ()
    chan = property(itemgetter(1))
    payload = property(itemgetter(2))

    def __new__(cls, chan: Message, payload: Message):
        return tuple.__new__(cls, ("InLabel", chan, payload))

    def __str__(self):
        return f"{self.chan}({self.payload})"


class TauLabel(Node):
    __slots__ = ()

    def __new__(cls):
        return tuple.__new__(cls, ("TauLabel",))

    def __str__(self):
        return "tau"


ActionLabel = OutLabel | InLabel | TauLabel


def label_aliases(a: ActionLabel) -> frozenset[Alias]:
    """Free aliases of an action label.  The alias bound by an output is a
    binder of the label, not a free occurrence."""
    if isinstance(a, OutLabel):
        return free_aliases(a.chan)
    if isinstance(a, InLabel):
        return free_aliases(a.chan) | free_aliases(a.payload)
    return frozenset()


class Event(Node):
    __slots__ = ()
    action = property(itemgetter(1))
    loc = property(itemgetter(2))

    def __new__(cls, action: ActionLabel, loc: LocationLabel):
        return tuple.__new__(cls, ("Event", action, loc))

    def __str__(self):
        return f"({self.action}, {self.loc})"


def loc_key(u: LocationLabel):
    if isinstance(u, Location):
        return (0, u.prefix, u.choice)
    return (1, (u.left.prefix, u.left.choice), (u.right.prefix, u.right.choice))


def action_key(a: ActionLabel):
    if isinstance(a, TauLabel):
        return (0,)
    if isinstance(a, InLabel):
        return (1, msg_key(a.chan), msg_key(a.payload))
    return (2, msg_key(a.chan), (a.alias.prefix, a.alias.stem))


def event_key(e: Event):
    return (loc_key(e.loc), action_key(e.action))


def event_id(e: Event, theory: Theory) -> int:
    """Id of the event in the theory's table, which keeps each id's event
    (``theory.events``) and ``event_key`` (``theory.event_keys``)."""
    ids = theory.event_ids
    i = ids.get(e)
    if i is None:
        i = ids[e] = len(theory.events)
        theory.events.append(e)
        theory.event_keys.append(event_key(e))
    return i


# --- bounds ----------------------------------------------------------------


@dataclass(frozen=True)
class ExplorationBounds:
    """Finitisation knobs for exploration and games.

    ``recipe_depth`` bounds recipes used as channels and input payloads,
    ``static_depth`` bounds recipes tried by static-equivalence tests,
    ``repl_unfold`` bounds unfoldings per replication occurrence,
    ``game_depth`` bounds the number of game rounds, and ``state_budget``
    bounds states visited during reachability.  ``extra_consts`` adds public
    names beyond the free names of the checked processes."""

    recipe_depth: int = 2
    static_depth: int = 2
    repl_unfold: int = 2
    game_depth: int = 12
    state_budget: int = 100_000
    extra_consts: tuple[str, ...] = ()


def checked_bounds(values: dict, keys: dict[str, str]) -> dict:
    """``ExplorationBounds`` field values from bound settings read from
    outside the program, such as ``--bounds`` or a corpus file.  ``keys``
    maps each key the source may use to its field.  An unknown key, a count
    that is not a non-negative ``int`` (a ``bool`` is not one), or
    ``extra_consts`` that are not a list of names raise ``ValueError``
    naming the key."""
    out = {}
    for key, value in values.items():
        field = keys.get(key)
        if field is None:
            raise ValueError(f"unknown bound {key!r} (use {', '.join(sorted(keys))})")
        if field == "extra_consts":
            if not isinstance(value, list) or not all(isinstance(c, str) for c in value):
                raise ValueError(f"bound {key!r} must be a list of names, not {value!r}")
            value = tuple(value)
        elif type(value) is not int or value < 0:
            raise ValueError(f"bound {key!r} must be a non-negative integer, not {value!r}")
        out[field] = value
    return out


# --- structural transitions ------------------------------------------------


class Firing(Node):
    """A structural firing.  The fields all firings share come first, so
    that ``_refire`` replaces them and keeps a class's own fields."""

    __slots__ = ()
    loc = property(itemgetter(1))
    binders = property(itemgetter(2))
    cont = property(itemgetter(3))
    phantom = property(itemgetter(4))


class POut(Firing):
    __slots__ = ()
    chan = property(itemgetter(5))
    payload = property(itemgetter(6))

    def __new__(cls, chan: Message, payload: Message, loc: Location, binders, cont: Process, phantom=False):
        return tuple.__new__(cls, ("POut", loc, binders, cont, phantom, chan, payload))


class PIn(Firing):
    __slots__ = ()
    chan = property(itemgetter(5))
    binder = property(itemgetter(6))

    def __new__(cls, chan: Message, binder: str, loc: Location, binders, cont: Process, phantom=False):
        return tuple.__new__(cls, ("PIn", loc, binders, cont, phantom, chan, binder))


class PTau(Firing):
    __slots__ = ()

    def __new__(cls, loc: LocationLabel, binders, cont: Process, phantom=False):
        return tuple.__new__(cls, ("PTau", loc, binders, cont, phantom))


def _refire(t: Firing, loc: LocationLabel, binders, cont: Process, phantom: bool) -> Firing:
    return tuple.__new__(type(t), (t[0], loc, binders, cont, phantom, *t[5:]))


def _push_loc(loc: LocationLabel, bit: str) -> LocationLabel:
    if isinstance(loc, Location):
        return Location(bit + loc.prefix, loc.choice)
    return PairLoc(_push_loc(loc.left, bit), _push_loc(loc.right, bit))


def _push_choice(t: Firing, bit: str) -> Firing:
    loc = t.loc
    assert isinstance(loc, Location) and loc.prefix == ""
    return _refire(t, Location("", bit + loc.choice), t.binders, t.cont, t.phantom)


def _own_names(t) -> frozenset[str]:
    names = frozenset(t.binders) | all_names(t.cont)
    if isinstance(t, POut):
        names |= free_vars(t.chan) | free_vars(t.payload)
    elif isinstance(t, PIn):
        names |= free_vars(t.chan) | {t.binder}
    return names


def _freshen_binders(t, avoid: frozenset[str] | set[str]):
    """Rename a firing's extruded binders apart from surrounding context.

    Fresh names are chosen per subterm, so two sibling components can pick
    the same name; before their residuals are joined under one binder list
    the clash must be resolved."""
    clash = set(t.binders) & set(avoid)
    if not clash:
        return t
    supply = fresh_supply(set(avoid) | _own_names(t))
    ren = {x: Var(next(supply)) for x in sorted(clash)}
    binders = tuple(ren[x].name if x in ren else x for x in t.binders)
    cont = subst_proc(t.cont, ren)
    if isinstance(t, POut):
        # channels never mention extruded binders (blocked at the binding
        # restriction), payloads may
        return POut(t.chan, rename_vars(t.payload, ren), t.loc, binders, cont, t.phantom)
    return _refire(t, t.loc, binders, cont, t.phantom)


def _close(o: POut, i: PIn) -> tuple[tuple[str, ...], Process]:
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


def proc_transitions(p: Process, theory: Theory) -> tuple[tuple, bool]:
    """All structural firings of ``p``; the flag reports truncation from an
    exhausted replication budget."""
    cache = theory.structural
    hit = cache.get(p)
    if hit is not None:
        return hit
    result = _proc_transitions(p, theory)
    cache[p] = result
    return result


def _proc_transitions(p: Process, theory: Theory) -> tuple[tuple, bool]:
    if isinstance(p, Nil):
        return (), False
    if isinstance(p, In):
        return (PIn(theory.normalize(p.chan), p.binder, Location("", ""), (), p.body),), False
    if isinstance(p, Out):
        return (
            POut(theory.normalize(p.chan), theory.normalize(p.payload), Location("", ""), (), p.body),
        ), False
    if isinstance(p, Match):
        return proc_transitions(p.body, theory) if theory.equal(p.lhs, p.rhs) else ((), False)
    if isinstance(p, Mismatch):
        return proc_transitions(p.body, theory) if not theory.equal(p.lhs, p.rhs) else ((), False)
    if isinstance(p, Sum):
        lts, lt = proc_transitions(p.left, theory)
        rts, rt = proc_transitions(p.right, theory)
        out = [_push_choice(t, "0") for t in lts]
        out += [_push_choice(t, "1") for t in rts]
        return tuple(out), lt or rt
    if isinstance(p, Bang):
        if p.fuel is None:
            raise ValueError("replication explored without an unfolding budget")
        if p.fuel <= 0:
            # budget exhausted: expose one more unfolding as phantom firings,
            # usable only by a game follower, and taint the result
            ts, _ = proc_transitions(p.body, theory)
            out = tuple(
                _refire(t, _push_loc(t.loc, "0"), t.binders, Par(t.cont, Bang(p.body, 0)), True)
                for t in ts
            )
            return out, True
        unfolded = Par(p.body, Bang(p.body, p.fuel - 1))
        return proc_transitions(unfolded, theory)
    if isinstance(p, New):
        avoid = all_names(p.body) | {p.name}
        z = next(fresh_supply(avoid))
        body = subst_proc(p.body, {p.name: Var(z)}) if p.name != z else p.body
        ts, taint = proc_transitions(body, theory)
        out = []
        for t in ts:
            if isinstance(t, (POut, PIn)) and z in free_vars(t.chan):
                continue  # private-channel actions stay internal
            t = _freshen_binders(t, {z})
            out.append(_refire(t, t.loc, (z,) + t.binders, t.cont, t.phantom))
        return tuple(out), taint
    if isinstance(p, Par):
        lts, ltaint = proc_transitions(p.left, theory)
        rts, rtaint = proc_transitions(p.right, theory)
        # only a firing that extrudes binders is renamed apart from the
        # other side's names
        left_names = all_names(p.left) if any(t.binders for t in rts) else frozenset()
        right_names = all_names(p.right) if any(t.binders for t in lts) else frozenset()
        out = []
        for t in lts:
            t = _freshen_binders(t, right_names)
            out.append(_refire(t, _push_loc(t.loc, "0"), t.binders, Par(t.cont, p.right), t.phantom))
        for t in rts:
            t = _freshen_binders(t, left_names)
            out.append(_refire(t, _push_loc(t.loc, "1"), t.binders, Par(p.left, t.cont), t.phantom))
        for o in lts:
            if not isinstance(o, POut):
                continue
            for i in rts:
                if isinstance(i, PIn) and theory.equal(o.chan, i.chan):
                    loc = PairLoc(_push_loc(o.loc, "0"), _push_loc(i.loc, "1"))
                    binders, body_i = _close(o, i)
                    out.append(PTau(loc, binders, Par(o.cont, body_i), o.phantom or i.phantom))
        for i in lts:
            if not isinstance(i, PIn):
                continue
            for o in rts:
                if isinstance(o, POut) and theory.equal(o.chan, i.chan):
                    loc = PairLoc(_push_loc(i.loc, "0"), _push_loc(o.loc, "1"))
                    binders, body_i = _close(o, i)
                    out.append(PTau(loc, binders, Par(body_i, o.cont), o.phantom or i.phantom))
        return tuple(out), ltaint or rtaint
    raise TypeError(p)


# --- top-level transitions -------------------------------------------------


def _stem(i: int) -> str:
    return "l" + "'" * i


def fresh_alias(prefix: str, domain: frozenset[Alias]) -> Alias:
    i = 0
    while True:
        a = Alias(prefix, _stem(i))
        if a not in domain:
            return a
        i += 1


@dataclass(frozen=True)
class Step:
    """One transition; ``eid`` is the event's id in the theory's table,
    ``residual`` the successor as built and ``target`` its alpha-canonical
    form, computed on first read and kept."""

    event: Event
    eid: int
    residual: ExtendedProcess
    phantom: bool = False

    @cached_property
    def target(self) -> ExtendedProcess:
        return alpha_canonical(self.residual)


@dataclass
class TransitionSet:
    steps: list  # list[Step]
    tainted: bool

    @cached_property
    def real_steps(self) -> list:
        """The steps that are not phantom firings, listed on first read and kept."""
        return [s for s in self.steps if not s.phantom]


def enabled_transitions(
    A: ExtendedProcess,
    bounds: ExplorationBounds,
    theory: Theory,
    signature: tuple[Symbol, ...],
    consts: frozenset[str],
) -> TransitionSet:
    """Environment-facing transitions of an extended process.

    Channels and input payloads range over recipes up to
    ``bounds.recipe_depth``; each output extends the frame at an alias
    rooted at the firing location's parallel prefix.  ``A`` must be
    canonical (alpha-canonical or a class representative), never a raw
    residual; the steps carry raw residuals and their events' ids."""
    cache = theory.enabled
    key = (A, bounds, signature, consts)
    hit = cache.get(key)
    if hit is not None:
        return hit

    ts, tainted = proc_transitions(A.body, theory)
    recipes = knowledge.recipe_enum(
        A.frame.domain, consts, signature, bounds.recipe_depth, theory
    )
    images = [theory.normalize(apply_msg_subst(r, A.frame)) for r in recipes]

    def chan_recipes(chan: Message):
        chan_nf = theory.normalize(chan)
        return [r for r, img in zip(recipes, images) if img == chan_nf]

    steps: list[Step] = []
    for t in ts:
        binders = A.binders + t.binders
        if isinstance(t, POut):
            alias = fresh_alias(t.loc.prefix, A.frame.domain)
            frame2 = A.frame.extend(alias, theory.normalize(t.payload))
            residual = ExtendedProcess(binders, frame2, t.cont)
            for m in chan_recipes(t.chan):
                e = Event(OutLabel(m, alias), t.loc)
                steps.append(Step(e, event_id(e, theory), residual, t.phantom))
        elif isinstance(t, PIn):
            chans = chan_recipes(t.chan)
            if not chans:
                continue
            residuals = [
                ExtendedProcess(binders, A.frame, subst_proc(t.cont, {t.binder: img}))
                for img in images
            ]
            for m in chans:
                for n, residual in zip(recipes, residuals):
                    e = Event(InLabel(m, n), t.loc)
                    steps.append(Step(e, event_id(e, theory), residual, t.phantom))
        else:
            residual = ExtendedProcess(binders, A.frame, t.cont)
            e = Event(TauLabel(), t.loc)
            steps.append(Step(e, event_id(e, theory), residual, t.phantom))

    keys = theory.event_keys
    steps.sort(key=lambda s: (s.phantom, keys[s.eid]))
    result = TransitionSet(steps, tainted)
    cache[key] = result
    return result


def state_class(state: ExtendedProcess, theory: Theory) -> int:
    """Id of the state's congruence class.  The theory's table maps each
    state, and each congruence key (a fixed point of ``congruence_key``),
    to the id, so every distinct state is canonicalised once per theory;
    ``theory.reps[id]`` is the class's key, its representative."""
    classes = theory.classes
    i = classes.get(state)
    if i is None:
        key = congruence_key(state)
        i = classes.get(key)
        if i is None:
            # representatives with equal frames share one frame object, so
            # that the static tests' frame lookups find it by identity
            frame = theory.rep_frames.setdefault(key.frame, key.frame)
            if frame is not key.frame:
                key = ExtendedProcess(key.binders, frame, key.body)
            i = classes[key] = len(theory.reps)
            theory.reps.append(key)
        classes[state] = i
    return i


def representative(state: ExtendedProcess, theory: Theory) -> ExtendedProcess:
    return theory.reps[state_class(state, theory)]


def default_consts(*procs: Process) -> frozenset[str]:
    consts: frozenset[str] = frozenset(("w0",))
    for p in procs:
        consts |= free_names(p)
    return consts


# --- reachability ----------------------------------------------------------


@dataclass
class LTSGraph:
    states: list[ExtendedProcess]
    edges: list[tuple[int, Event, int]]
    tainted: bool
    budget_exhausted: bool = False


def reachable_lts(
    A: ExtendedProcess,
    bounds: ExplorationBounds,
    theory: Theory,
    signature: tuple[Symbol, ...],
    consts: frozenset[str],
) -> LTSGraph:
    """Breadth-first exploration up to the state budget; states are merged
    up to structural congruence, and each class is shown by the
    alpha-canonical target that reached it first."""
    start = alpha_canonical(A)
    index = {state_class(start, theory): 0}  # class id -> state index
    states = [start]
    edges: list[tuple[int, Event, int]] = []
    tainted = False
    exhausted = False
    frontier = [0]
    while frontier:
        next_frontier = []
        for sid in frontier:
            tset = enabled_transitions(states[sid], bounds, theory, signature, consts)
            tainted = tainted or tset.tainted
            for s in tset.real_steps:
                cid = state_class(s.residual, theory)
                tid = index.get(cid)
                if tid is None:
                    if len(states) >= bounds.state_budget:
                        exhausted = True
                        tainted = True
                        continue
                    tid = len(states)
                    index[cid] = tid
                    states.append(s.target)
                    next_frontier.append(tid)
                edges.append((sid, s.event, tid))
        frontier = next_frontier
    return LTSGraph(states, edges, tainted, exhausted)


# --- diamond property ------------------------------------------------------


@dataclass
class DiamondViolation:
    state: ExtendedProcess
    first: Event
    second: Event
    reason: str


def diamond_check(
    graph: LTSGraph,
    bounds: ExplorationBounds,
    theory: Theory,
    signature: tuple[Symbol, ...],
    consts: frozenset[str],
) -> list[DiamondViolation]:
    """Check that independent coinitial transitions commute to congruent
    endpoints across all states of an explored graph; endpoints are
    compared by their class ids.

    The successor of step ``s0`` on event ``e1`` is read from the graph
    state in ``s0``'s class, whose transitions exploration already cached:
    congruent states have the same events in the same order, and
    transitions preserve congruence.  Only a class the state budget kept
    out of the graph is fired from ``s0.target``."""
    from .independence import indep_event

    def real_steps(A):
        return enabled_transitions(A, bounds, theory, signature, consts).real_steps

    index = {state_class(s, theory): i for i, s in enumerate(graph.states)}
    succ: dict[int, dict[int, int]] = {}  # state index -> event id -> class id

    def after(s0: Step, eid: int) -> int | None:
        """Class id of ``s0.target``'s successor on event ``eid``, or ``None``."""
        i = index.get(state_class(s0.residual, theory))
        if i is None:
            for s in real_steps(s0.target):
                if s.eid == eid:
                    return state_class(s.residual, theory)
            return None
        table = succ.get(i)
        if table is None:
            # reversed, so that the first step on an event wins
            steps = reversed(real_steps(graph.states[i]))
            table = succ[i] = {s.eid: state_class(s.residual, theory) for s in steps}
        return table.get(eid)

    violations = []
    for state in graph.states:
        steps = real_steps(state)
        for i, s0 in enumerate(steps):
            e0 = s0.event
            for s1 in steps[i + 1 :]:
                e1 = s1.event
                if s0.eid == s1.eid or not indep_event(e0, e1):
                    continue
                c01 = after(s0, s1.eid)
                c10 = after(s1, s0.eid)
                if c01 is None or c10 is None:
                    violations.append(
                        DiamondViolation(state, e0, e1, "missing commuting transition")
                    )
                elif c01 != c10:
                    violations.append(
                        DiamondViolation(state, e0, e1, "endpoints not congruent")
                    )
    return violations
