"""Located transition semantics for extended processes.

Transitions are computed in two layers.  The structural layer walks the
process term and produces prefix firings tagged with locations: a location
is a pair of a parallel prefix (a bitstring tracing the parallel structure)
and a choice part (a bitstring tracing guarded choices).  Internal steps
from synchronisation carry a pair of locations.  The top layer turns
structural firings into environment-facing events: output payloads are
hidden behind located aliases extending the frame, and channels and input
payloads become recipes over the frame domain and the public names.

The theory interns congruence classes (``state_class``) and keeps one
representative per class, its congruence key.  ``enabled_transitions``
accepts any state, fires the representative of its class and caches the
result per class.  The game expands representatives, ``reachable_lts``
lists them as its states, and ``diamond_check`` compares endpoints by class.
The successors of outputs and silent steps are built raw: a ``Step``
carries its ``residual`` with the transition-local binder names the
structural layer chose, and it is canonicalised only when a search reads
it.  A frame's recipes, their images and the recipes of each image are
listed once per frame (``frame_recipes``).

An input fires once per payload recipe, so one input firing has a successor
per recipe, and they differ only in the payload.  Each is a class key at
birth, and the firing is canonicalised once: ``_input_residuals`` renames
the bound variable to the reserved ``HOLE``, takes the congruence key of
``new binders.(frame | cont)``, and fills the hole with each payload's
normalised image.  Filling the key is keying the filled state.
``congruence_key`` numbers the top binders by first use, in the frame and
then in the body, and the body's binders on from there.  The input leaves
the representative's frame as it is, and the frame is walked first, so the
key names the frame's top binders as the representative does, and so as the
images do.  An image's names are frame names or public names, so it adds no
binder and no first use of a top binder, and the rest of the numbering does
not move.  The hole needs a name of its own: the bound variable, a body
binder ``%k`` of the representative, could share its name with a binder
that the key names ``%k``, and filling would then rewrite that binder too.
Each filled key is registered through the path ``state_class`` takes for a
congruence key, and the step carries the class's representative.

A fill rebuilds only what the payload touches.  The hole's positions in the
key's body are found once per firing (``terms.var_paths``), and each image
is put there by rebuilding the nodes on the paths to them alone
(``terms.fill_paths``): every hole-free subtree of a filled body is the
key's own, and so is the whole body when the continuation never reads the
payload.  This is exactly ``subst_proc`` of the hole.  No binder of the key
is the hole, so every occurrence is free; and the key's body binders are
``%k`` numbered on past its top binders, while an image names only the
frame's names (top binders and free names) and public names, so no body
binder is free in an image and capture-avoiding substitution would rename
none.

Only representatives are fired, and the structural layer relies on their
invariant: ``congruence_key`` numbers every binder of the body from one
counter, so no two binders share a name and none is a top binder or a free
name.  A restriction therefore extrudes its own name, and ``Par`` joins one
side's firing with the other side as it is: an extruded name occurs free
nowhere else, so nothing captures it, and no other component extrudes it.
One case breaks the invariant within a single ``proc_transitions`` call:
unfolding ``!P`` into ``P | !P`` (or firing a spent replication's phantom,
continued by ``P' | !P``) makes copies of ``P`` whose binders share names.
A firing of one copy is still safe beside another, where the name is
bound, not free.  But when two copies synchronise, both can extrude the
same name, so ``_close`` renames the input side's clashing binders apart,
to ``_i`` names that no canonical state holds.  ``subst_proc`` stays
capture-avoiding, so delivering a payload does not rest on this argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import NamedTuple

from . import knowledge
from .terms import (
    Alias,
    Message,
    Node,
    Symbol,
    Theory,
    Var,
    apply_msg_subst,
    fill_paths,
    free_aliases,
    free_vars,
    msg_key,
    nesting_limited,
    var_paths,
)
from .syntax import (
    NAME,
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
            # a reserved name such as ``%0`` would make a private binder public
            if not isinstance(value, list) or not all(
                isinstance(c, str) and NAME.fullmatch(c) for c in value
            ):
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


def _close(o: POut, i: PIn) -> tuple[tuple[str, ...], Process]:
    """Deliver an output firing's payload to an input firing.

    The two binder lists clash only when the firings come from two copies
    of one replicated body (see the module docstring); the input side is
    then renamed apart before the payload is substituted.  Returns the
    combined binder list and the input-side continuation."""
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
        ts, taint = proc_transitions(p.body, theory)
        out = []
        for t in ts:
            if isinstance(t, (POut, PIn)) and p.name in free_vars(t.chan):
                continue  # private-channel actions stay internal
            out.append(_refire(t, t.loc, (p.name,) + t.binders, t.cont, t.phantom))
        return tuple(out), taint
    if isinstance(p, Par):
        lts, ltaint = proc_transitions(p.left, theory)
        rts, rtaint = proc_transitions(p.right, theory)
        out = [_refire(t, _push_loc(t.loc, "0"), t.binders, Par(t.cont, p.right), t.phantom) for t in lts]
        out += [_refire(t, _push_loc(t.loc, "1"), t.binders, Par(p.left, t.cont), t.phantom) for t in rts]
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


class Step(NamedTuple):
    """One transition; ``eid`` is the event's id in the theory's table and
    ``residual`` the successor: its class representative after an input,
    the successor as built otherwise."""

    event: Event
    eid: int
    residual: ExtendedProcess
    phantom: bool = False


@dataclass
class TransitionSet:
    steps: list  # list[Step]
    tainted: bool

    @cached_property
    def real_steps(self) -> list:
        """The steps that are not phantom firings, listed on first read and kept."""
        return [s for s in self.steps if not s.phantom]

    @cached_property
    def by_label(self) -> dict:
        """The steps grouped by label up to the alias an output binds (an
        output under its channel recipe, an input or silent label under
        itself), phantom ones included, each group in step order; listed on
        first read and kept, so the theory's ``enabled`` table owns the index
        with the set."""
        index: dict = {}
        for s in self.steps:
            a = s.event.action
            index.setdefault(a.chan if type(a) is OutLabel else a, []).append(s)
        return index

    def matching(self, a: ActionLabel, onto) -> list:
        """The steps of ``by_label`` whose label is ``a`` with the alias map
        ``onto`` applied to its recipes, up to the alias an output binds."""
        kind = type(a)
        if kind is OutLabel:
            key = onto(a.chan)
        elif kind is InLabel:
            key = InLabel(onto(a.chan), onto(a.payload))
        else:
            key = a
        return self.by_label.get(key, ())


def enabled_transitions(
    A: ExtendedProcess,
    bounds: ExplorationBounds,
    theory: Theory,
    signature: tuple[Symbol, ...],
    consts: frozenset[str],
) -> TransitionSet:
    """Environment-facing transitions of an extended process, fired from
    the representative of its class and computed once per class.

    Channels and input payloads range over recipes up to
    ``bounds.recipe_depth``; each output extends the frame at an alias
    rooted at the firing location's parallel prefix.  The steps carry their
    events' ids, and input steps carry class keys (see the module
    docstring)."""
    cid = state_class(A, theory)
    cache = theory.enabled
    key = (cid, bounds, signature, consts)
    hit = cache.get(key)
    if hit is None:
        hit = cache[key] = _fire(theory.reps[cid], bounds, theory, signature, consts)
    return hit


def frame_recipes(frame, consts: frozenset[str], signature: tuple[Symbol, ...], depth: int, theory: Theory):
    """``(recipes, images, by_image)`` of the frame: its recipes up to
    ``depth`` (``knowledge.recipe_enum``), their normalised images under
    the frame, and each image's recipes in enumeration order.  Computed once
    per (frame, consts, signature, depth) per theory; representatives with
    equal frames share one frame object, so a lookup finds it by identity."""
    table = theory.frame_recipes
    key = (frame, consts, signature, depth)
    hit = table.get(key)
    if hit is None:
        recipes = knowledge.recipe_enum(frame.domain, consts, signature, depth, theory)
        images = [theory.normalize(apply_msg_subst(r, frame)) for r in recipes]
        by_image: dict[Message, list] = {}
        for r, img in zip(recipes, images):
            by_image.setdefault(img, []).append(r)
        hit = table[key] = (recipes, images, by_image)
    return hit


def _fire(A: ExtendedProcess, bounds, theory: Theory, signature, consts) -> TransitionSet:
    """``enabled_transitions`` of the representative ``A`` computed afresh.
    ``A`` must be a congruence key: the structural layer relies on its
    binders, and ``_input_residuals`` on its frame (see the module
    docstring)."""
    ts, tainted = proc_transitions(A.body, theory)
    recipes, images, by_image = frame_recipes(A.frame, consts, signature, bounds.recipe_depth, theory)
    steps: list[Step] = []
    for t in ts:
        binders = A.binders + t.binders
        if isinstance(t, POut):
            alias = fresh_alias(t.loc.prefix, A.frame.domain)
            frame2 = A.frame.extend(alias, theory.normalize(t.payload))
            residual = ExtendedProcess(binders, frame2, t.cont)
            for m in by_image.get(theory.normalize(t.chan), ()):
                e = Event(OutLabel(m, alias), t.loc)
                steps.append(Step(e, event_id(e, theory), residual, t.phantom))
        elif isinstance(t, PIn):
            chans = by_image.get(theory.normalize(t.chan))
            if not chans:
                continue
            residuals = _input_residuals(A, binders, t, images, theory)
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
    return TransitionSet(steps, tainted)


# the name an input's bound variable takes while its firing is keyed: no
# parsed name, canonical binder ``%i`` or fresh name ``_i`` has it
HOLE = "%in"
_HOLE_VAR = Var(HOLE)


def _input_residuals(A: ExtendedProcess, binders, t: PIn, images, theory: Theory) -> list:
    """The residuals of the input firing ``t`` of the representative ``A``
    under ``binders``, one per payload image: each the class key, registered
    in the theory, of ``new binders.(A.frame | t.cont)`` with the image for
    ``t.binder``.  The firing is keyed once, with the bound variable renamed
    to the hole, the hole's paths in the key's body are found once, and
    only the nodes on them are rebuilt per image (see the module
    docstring)."""
    key = congruence_key(ExtendedProcess(binders, A.frame, subst_proc(t.cont, {t.binder: _HOLE_VAR})))
    body, paths = key.body, var_paths(key.body, HOLE)
    residuals = []
    for img in images:
        filled = ExtendedProcess(key.binders, A.frame, fill_paths(body, paths, img))
        residuals.append(theory.reps[_key_class(filled, theory)])
    return residuals


def state_class(state: ExtendedProcess, theory: Theory) -> int:
    """Id of the state's congruence class.  The theory's table maps each
    state, and each congruence key (a fixed point of ``congruence_key``),
    to the id, so every distinct state is canonicalised once per theory,
    and an input residual, a key at birth (``_input_residuals``), never;
    ``theory.reps[id]`` is the class's key, its representative."""
    i = theory.classes.get(state)
    if i is None:
        i = theory.classes[state] = _key_class(congruence_key(state), theory)
    return i


def _key_class(key: ExtendedProcess, theory: Theory) -> int:
    """Id of the class whose congruence key is ``key``, registered on first
    sight.  Representatives with equal frames share one frame object, so
    that the frame tables (``frame_recipes``, the static tests' frame
    lookups) find it by identity."""
    classes = theory.classes
    i = classes.get(key)
    if i is None:
        frame = theory.rep_frames.setdefault(key.frame, key.frame)
        if frame is not key.frame:
            key = ExtendedProcess(key.binders, frame, key.body)
        i = classes[key] = len(theory.reps)
        theory.reps.append(key)
    return i


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


@nesting_limited
def reachable_lts(
    A: ExtendedProcess,
    bounds: ExplorationBounds,
    theory: Theory,
    signature: tuple[Symbol, ...],
    consts: frozenset[str],
) -> LTSGraph:
    """Breadth-first exploration up to the state budget; states are merged
    up to structural congruence, and each class is shown by its
    representative, the start state's included."""
    start = state_class(A, theory)
    index = {start: 0}  # class id -> state index
    states = [theory.reps[start]]
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
                    states.append(theory.reps[cid])
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


@nesting_limited
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

    The successor of step ``s0`` on event ``e1`` is read from the cached
    transitions of the representative of ``s0``'s class: congruent states
    have the same events in the same order, and transitions preserve
    congruence.  Independence is decided once per pair of event ids per
    theory, in the table the game's ``indep_event`` test fills."""
    from .independence import indep_event, indep_ids

    def real_steps(A):
        return enabled_transitions(A, bounds, theory, signature, consts).real_steps

    def indep(i: int, j: int) -> bool:
        return indep_ids(theory.indep, indep_event, theory.events, i, j)

    succ: dict[int, dict[int, int]] = {}  # class id -> event id -> class id

    def after(s0: Step, eid: int) -> int | None:
        """Class id of ``s0``'s successor on event ``eid``, or ``None``."""
        cid = state_class(s0.residual, theory)
        table = succ.get(cid)
        if table is None:
            # reversed, so that the first step on an event wins
            steps = reversed(real_steps(theory.reps[cid]))
            table = succ[cid] = {s.eid: state_class(s.residual, theory) for s in steps}
        return table.get(eid)

    violations = []
    for state in graph.states:
        steps = real_steps(state)
        for i, s0 in enumerate(steps):
            e0 = s0.event
            for s1 in steps[i + 1 :]:
                e1 = s1.event
                if s0.eid == s1.eid or not indep(s0.eid, s1.eid):
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
