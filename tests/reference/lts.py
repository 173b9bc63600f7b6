"""Located firing and the commutation axioms.

A location is a parallel prefix and a choice part, both bitstrings.  A
firing of the left (right) component of ``P | Q`` has ``0`` (``1``) put
before its prefix, and a firing of the left (right) branch of a choice
``0`` (``1``) before its choice part.  A synchronisation of an output and
an input on equal channels is located at the pair of the two locations,
the left component's first.  A replication with budget ``k > 0`` fires as
``P | !P`` with budget ``k - 1``; a spent one fires ``P``'s firings as
phantoms, located as the left component of ``P | !P``, continued by
``P' | !P``, and taints the state's transitions.

Binders are opened as a firing passes them, under names fresh for the
whole state: ``new n.P`` fires as ``P`` with ``n`` renamed, and extrudes
the new name, and ``in(M, x).P`` renames ``x`` in ``P`` before the payload
replaces it.  No two openings share a name, so no composition captures
one.  A visible action on a channel that mentions an opened restriction
stays internal.

A state ``new binders.(frame | P)`` turns firings into events.  An output
hides its normalised payload behind the first alias ``<prefix>l``,
``<prefix>l'``, ... outside the frame, and an input takes each recipe as
its payload, receiving its normalised image under the frame.  A channel is
every recipe whose image is the channel's normal form.
"""

from functools import cache
from itertools import count, product
from typing import NamedTuple

from latspi.lts import Event, InLabel, Location, OutLabel, PairLoc, TauLabel
from latspi.syntax import Bang, ExtendedProcess, In, Match, Mismatch, New, Nil, Out, Par, Sum
from latspi.terms import Alias, Substitution, Var

from .knowledge import recipes
from .syntax import all_names, congruent, fresh_names, names, rename, subst


class Firing(NamedTuple):
    kind: str  # "out", "in" or "tau"
    loc: object  # a Location, or a PairLoc for "tau"
    binders: tuple  # the names the firing extrudes
    cont: object
    phantom: bool = False
    chan: object = None  # normalised
    payload: object = None  # an output's message, normalised
    var: str | None = None  # the name an input binds


class Step(NamedTuple):
    event: Event
    residual: ExtendedProcess
    phantom: bool


def push(loc, bit: str):
    """``loc`` seen from the enclosing parallel composition."""
    if isinstance(loc, PairLoc):
        return PairLoc(push(loc.left, bit), push(loc.right, bit))
    return Location(bit + loc.prefix, loc.choice)


def _choose(f: Firing, bit: str) -> Firing:
    return f._replace(loc=Location(f.loc.prefix, bit + f.loc.choice))


def firings(p, theory, fresh) -> tuple[list, bool]:
    """The firings of ``p`` and whether a spent replication was met;
    ``fresh`` supplies the names restrictions are opened under."""
    match p:
        case Nil():
            return [], False
        case Out(chan=c, payload=m, body=q):
            here = Location("", "")
            return [Firing("out", here, (), q, chan=theory.normalize(c), payload=theory.normalize(m))], False
        case In(chan=c, binder=x, body=q):
            z = next(fresh)
            body = subst(q, {x: Var(z)})
            return [Firing("in", Location("", ""), (), body, chan=theory.normalize(c), var=z)], False
        case Match(lhs=m, rhs=n, body=q):
            return firings(q, theory, fresh) if theory.equal(m, n) else ([], False)
        case Mismatch(lhs=m, rhs=n, body=q):
            return ([], False) if theory.equal(m, n) else firings(q, theory, fresh)
        case Sum(left=q, right=r):
            fq, tq = firings(q, theory, fresh)
            fr, tr = firings(r, theory, fresh)
            return [_choose(f, "0") for f in fq] + [_choose(f, "1") for f in fr], tq or tr
        case Bang(body=q, fuel=k):
            if k is None:
                raise ValueError("replication fired without an unfolding budget")
            if k > 0:
                return firings(Par(q, Bang(q, k - 1)), theory, fresh)
            fq, _ = firings(q, theory, fresh)
            return [f._replace(loc=push(f.loc, "0"), cont=Par(f.cont, p), phantom=True) for f in fq], True
        case New(name=x, body=q):
            z = next(fresh)
            fq, tainted = firings(subst(q, {x: Var(z)}), theory, fresh)
            kept = [f for f in fq if f.kind == "tau" or z not in names(f.chan)]
            return [f._replace(binders=(z, *f.binders)) for f in kept], tainted
        case Par(left=q, right=r):
            fq, tq = firings(q, theory, fresh)
            fr, tr = firings(r, theory, fresh)
            out = [f._replace(loc=push(f.loc, "0"), cont=Par(f.cont, r)) for f in fq]
            out += [f._replace(loc=push(f.loc, "1"), cont=Par(q, f.cont)) for f in fr]
            for f, g in product(fq, fr):
                if {f.kind, g.kind} != {"out", "in"} or not theory.equal(f.chan, g.chan):
                    continue
                o, i = (f, g) if f.kind == "out" else (g, f)
                delivered = subst(i.cont, {i.var: o.payload})
                cont = Par(o.cont, delivered) if f is o else Par(delivered, o.cont)
                loc = PairLoc(push(f.loc, "0"), push(g.loc, "1"))
                out.append(Firing("tau", loc, o.binders + i.binders, cont, o.phantom or i.phantom))
            return out, tq or tr
    raise TypeError(p)


class Semantics:
    """The located transitions of states under fixed recipe bounds, theory,
    signature and public names.  Each state is fired once, and each frame
    domain's recipes are listed once."""

    def __init__(self, bounds, theory, signature, consts):
        self.depth = bounds.recipe_depth
        self.theory, self.signature, self.consts = theory, signature, consts
        # tables of this instance, freed with it
        self.recipes, self.fire = cache(self._recipes), cache(self._fire)

    def _recipes(self, domain) -> list:
        return recipes(domain, self.consts, self.signature, self.depth, self.theory)

    def real_steps(self, A) -> list:
        return [s for s in self.fire(A)[0] if not s.phantom]

    def after(self, A, event):
        """The residual of ``A``'s first real step on ``event``, or ``None``."""
        return next((s.residual for s in self.real_steps(A) if s.event == event), None)

    def _fire(self, A) -> tuple[list, bool]:
        """``(steps, tainted)`` of the state ``A``, phantom steps included."""
        theory = self.theory
        avoid = set(A.binders) | all_names(A.body) | self.consts
        fresh = fresh_names(avoid.union(*(names(m) for _, m in A.frame.items())))
        # a recipe's public names stay free: top binders that share a name
        # with one are renamed apart first
        clash = {x: Var(next(fresh)) for x in dict.fromkeys(A.binders) if x in self.consts}
        if clash:
            binders = tuple(clash[x].name if x in clash else x for x in A.binders)
            frame = Substitution({a: rename(m, clash) for a, m in A.frame.items()})
            A = ExtendedProcess(binders, frame, subst(A.body, clash))
        frame = A.frame
        fs, tainted = firings(A.body, theory, fresh)
        rs = self.recipes(frame.domain)
        images = [theory.normalize(rename(r, frame.mapping)) for r in rs]
        steps = []
        for f in fs:
            binders = A.binders + f.binders
            if f.kind == "tau":
                steps.append(Step(Event(TauLabel(), f.loc), ExtendedProcess(binders, frame, f.cont), f.phantom))
                continue
            chans = [r for r, img in zip(rs, images) if img == f.chan]
            if not chans:
                continue
            if f.kind == "out":
                stems = (Alias(f.loc.prefix, "l" + "'" * i) for i in count())
                alias = next(a for a in stems if a not in frame.mapping)
                residual = ExtendedProcess(binders, Substitution({**frame.mapping, alias: f.payload}), f.cont)
                steps += [Step(Event(OutLabel(m, alias), f.loc), residual, f.phantom) for m in chans]
                continue
            for n, img in zip(rs, images):
                residual = ExtendedProcess(binders, frame, subst(f.cont, {f.var: img}))
                steps += [Step(Event(InLabel(m, n), f.loc), residual, f.phantom) for m in chans]
        return steps, tainted


# --- the commutation axioms --------------------------------------------------

MISSING = "missing commuting transition"
APART = "endpoints not congruent"


def diamond_violations(sem: Semantics, states, indep) -> list:
    """``(state, e0, e1, reason)`` for each pair of distinct real steps of a
    state, independent by ``indep`` (the library's relation under test),
    that does not close a diamond: firing each event again after the other
    step must be possible and reach congruent states."""
    out = []
    for A in states:
        steps = sem.real_steps(A)
        for k, s0 in enumerate(steps):
            for s1 in steps[k + 1 :]:
                e0, e1 = s0.event, s1.event
                if e0 == e1 or not indep(e0, e1):
                    continue
                b01, b10 = sem.after(s0.residual, e1), sem.after(s1.residual, e0)
                if b01 is None or b10 is None:
                    out.append((A, e0, e1, MISSING))
                elif not congruent(b01, b10):
                    out.append((A, e0, e1, APART))
    return out


def commutation_violations(sem: Semantics, states, indep) -> tuple[int, list]:
    """Sequential commutation: whenever ``s -e0-> t -e1-> u`` with ``e0``
    and ``e1`` independent by ``indep``, also ``s -e1-> t' -e0-> u'`` with
    ``u'`` congruent to ``u``.  The number of such paths from ``states``,
    and the ``(s, e0, e1)`` of each that breaks it."""
    paths, out = 0, []
    for s in states:
        for s0 in sem.real_steps(s):
            for s1 in sem.real_steps(s0.residual):
                if not indep(s0.event, s1.event):
                    continue
                paths += 1
                t2 = sem.after(s, s1.event)
                u2 = None if t2 is None else sem.after(t2, s0.event)
                if u2 is None or not congruent(u2, s1.residual):
                    out.append((s, s0.event, s1.event))
    return paths, out
