"""Game-based decision procedures for the behavioural relation spectrum.

Every relation is decided by a turn-based game over pairs of extended
processes.  A configuration carries the two states, an alias bijection
identifying the messages each side has disclosed, and a set of event pairs
remembered from earlier rounds.  The leader proposes a transition on one
side and the follower must answer with a transition on the other side whose
label agrees up to the alias bijection and which meets the relation's
independence constraints against the remembered pairs.  Frames are compared
by static tests at every configuration.

Remembered pairs are pairs of event ids: ``enabled_transitions`` interns
each step's event in the theory's table (``lts.event_id``), so a pair set
is a set of int pairs, and the independence of two events, or of their
locations, is decided once per pair of ids per theory.  Witness trees keep
the events themselves.

Relations differ in who may lead, in whether an extra enabledness round (a
failure test) is open to the attacker, and in what the remembered pairs ask
of an answer.  One rule covers that: a leader move of event ``e`` yields
demands ``(d, want)``, each asking that the answer's independence from the
follower's remembered event ``d`` be ``want``, and the pairs kept after the
round.  ST demands independence wherever a pair's leader side is independent
of ``e`` and keeps those pairs, the events still running; HP demands the
leader side's bit for every pair and keeps the independent ones; ``iloc`` and
``ifull`` demand the bit for every pair and keep them all; the interleaving
relations demand and keep nothing.  The failure round applies the same rule
to the right side's move.  A memoized AND-OR search explores the game tree,
cut at ``game_depth`` rounds.  A configuration at the cut still gets its
static test and its failure round, which do not recurse, so a refutation
found there is exact and replays.  The cut taints the verdict only when it
leaves a leader move unplayed; a configuration where no leader side has a
real step is related at the cut as anywhere else, and memoized.  A tainted
cut is not memoized, since a shallower visit of the same configuration may
search on and find a refutation.  A phantom answer (a firing beyond a spent
budget) keeps ``Bang(body, 0)`` and adds a live continuation that the other
side may lead from, so only the cut ends such a search; phantom steps taint
the verdict too.  Configurations are memoized
on the ids of the congruence classes of their two states, which the theory
interns (``lts.state_class``), so each distinct state is canonicalised once
however many checks share the theory.
Successor configurations hold the residuals of the moves that reach them:
class keys after an input, which ``lts`` keys once per input firing, and
raw states otherwise.  A configuration is decided, and replayed, on the
representatives of its two classes, so a raw successor is canonicalised
only when the search visits it, and transitions and frame partitions are
computed once per class.

What does not depend on the relation is shared per theory, by every
checker and replay on it: the class, transition and independence tables,
and the static tests.  ``Checker.static_witness`` reads the theory's
``statics`` table, keyed on the checker's static context (one way or
both, ``consts``, the signature and the static depth), the two
representatives' frame objects and the alias map's key; so the 13
relations on one pair, and their replays, decide each static test once.
A checker keeps two things for itself.  Its memo holds verdicts under its
own relation.  Its transition sets, one per class id, are fetched from the
theory on the first read, and a tainted set taints the checker then; so a
checker's taint is that of the sets it read, whichever checker first
computed them.

Maximal retention is optimal.  Take two configurations with the same states
and the same ``rho``, and pair sets ``P ⊆ P′``.  Every leader win from ``P``
within ``k`` rounds is also a leader win from ``P′`` within ``k`` rounds.
By induction on ``k``:

- static tests do not read the pairs, so a static refutation carries over;
- each pair adds its demand and its kept pair to ``Checker.rule`` on its
  own, so under ``P′`` a move yields a superset of the demands and of the
  kept pairs.  Every answer legal under ``P′`` is therefore legal under
  ``P``: the label match, hence the successor states and ``rho``, do not
  read the pairs, and the answer reaches a larger pair set.  The leader's
  winning move from ``P`` wins from ``P′`` by induction on each answer;
- the failure round only gets easier for the leader: a right move no left
  answer meets under ``P`` has no answer under ``P′`` either.

Consequence: under ST, choosing a subset of the kept pairs never helps the
leader.  Keeping ``Q ⊆ kept`` with only its demands admits every answer
that maximal retention admits, and reaches ``Q`` plus the answer's pair,
within the maximal successor's pair set; by induction on ``k`` and the
lemma, a leader who may choose subsets wins within ``k`` rounds exactly
where maximal retention does, so the rule is the whole of ST.

The spectrum is ordered.  Each edge ``(finer, coarser, proved)`` of
``ORDER`` says that a pair related under ``finer`` is related under
``coarser``: every leader win of the ``coarser`` game within ``k`` rounds is
a leader win of the ``finer`` game within ``k`` rounds.  The lemma extends
across two relations with the same static test.  Take states and ``rho``
shared, a pair set ``P`` of the coarser game and ``P′ ⊇ P`` of the finer
one.  Suppose every leader move open in the coarser game is open in the
finer one, and that from ``P′`` the finer ``Checker.rule`` yields a superset
of the demands and of the kept pairs that the coarser one yields from
``P``.  Then the lemma's induction applies unchanged: an answer legal in
the finer game is legal in the coarser one and reaches a larger pair set.
The proved edges, read from ``Checker.rule``:

- HP ⇒ ST ⇒ interleaving, for ``sim`` and ``bisim``, and HP ⇒ ST for
  ``fsim``.  The interleaving discipline demands and keeps nothing.  ST
  demands independence for each pair whose leader side is independent of
  the move, and keeps those pairs.  HP demands the same bit for every pair
  of ``P′ ⊇ P``, so for each of those too, and keeps every independent
  pair of ``P′``.  Both read ``indep_event``.  In ``fsim`` the failure
  round is the lemma's third case: fewer answers under more demands.
- ``ifull`` ⇒ HP, for ``sim`` and ``bisim``.  Both read ``indep_event`` and
  demand the bit for every pair; ``ifull`` keeps every pair, HP the
  independent ones.
- ``bisim`` ⇒ ``sim`` in each of the five disciplines, and ``fsim`` ⇒
  ``sim`` under ST and HP.  One rule; the finer relation only adds leader
  moves, right-led rounds or the failure round.
- ``bisim`` ⇒ ``fsim`` under ST and HP.  A failure-round win is a real
  right step that no left step answers under ``rule(cfg, "right", ·)``.
  The bisimulation game lets the leader play that step, under the same
  rule, and the follower has no answer.  Every other ``fsim`` move is a
  left-led round, open in the bisimulation game too.
- ``sim-i`` ⇒ ``presim-i``.  One rule and one leader; the one-way static
  test scans the same recipe pairs as the two-way one, so a test that holds
  on the left only refutes both.

Each argument maps the coarser game's win onto the same transition sets
and no more rounds.  So under equal bounds a finer verdict that no bound
cut, ``RELATED_EXACT``, never meets a coarser ``DISTINGUISHED``;
``lats-pi spectrum`` exits 2 if it does.  ``iloc`` ⇒ ``ifull`` is only
observed: ``iloc`` reads ``indep_loc``, so its demands are other demands,
not more of them, and the lemma does not apply.

The game graph is acyclic: no configuration recurs on a search path, so the
search keeps no record of the configurations it has open.  Measure a
process by two counts: ``A``, its ``Par`` nodes at active positions, meaning
under no prefix, guard or bang (only ``Par`` and ``New`` nodes above them),
and ``G``, its nodes under no bang.  A state's measure is its body's.
``congruence_key`` only renames binders and reorders the frame, so a class
representative has the measure of every state in its class.  Every firing
of ``lts._proc_transitions`` raises ``(A, -G)`` strictly, in lexicographic
order, by induction on its cases:

- an input or output prefix fires as its body.  A guard has no active
  ``Par``, so ``A`` does not fall, and ``G`` loses the prefix;
- a test or a choice fires as its body or a branch fires, and loses its own
  node (and the other branch).  It has no active ``Par`` either;
- a restriction fires as its body fires and moves its name to the binders.
  Its active ``Par`` nodes are its body's, and its own node goes;
- a replication with budget left fires as ``P | !P`` fires, which has one
  more active ``Par``.  A spent one fires a phantom, whose continuation
  ``P' | !P`` adds an active ``Par`` too;
- a ``Par`` fires one side, or both in a synchronisation, and keeps its own
  node.  The measure adds up over the two sides, and substituting a payload
  or renaming a binder leaves every node in place.

So unfolding a bang and firing a phantom raise ``A``; every other firing
consumes a guard outside all bangs and adds no node there, so it does not
lower ``A`` and it lowers ``G``.  A step of ``enabled_transitions`` has the
continuation of one firing as its residual body.  In every round both sides
move, each from its class representative: ``Checker.rule`` only filters the
answers, and ``legal_replies`` pairs the residuals of the two moves.  So
each side's measure rises along a play, and a configuration, keyed on the
classes of its two states, never recurs on a search path.  The failure
round recurses nowhere.  Corollary: without phantom answers the tree is finite.
Between two unfoldings ``G`` falls at every step.  An unfolding of ``!P``
spends budget that no step restores, and each replication it copies out of
``P`` nests fewer replications than ``!P``, so by induction on that nesting
a play unfolds finitely often.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .independence import indep_event, indep_ids, indep_loc
from .knowledge import StaticWitness, static_equiv_witness, static_impl_witness
from .lts import (
    Event,
    ExplorationBounds,
    InLabel,
    OutLabel,
    Step,
    TransitionSet,
    default_consts,
    enabled_transitions,
    event_key,
    state_class,
)
from .syntax import (
    ExtendedProcess,
    Process,
    from_process,
    prime_bangs,
    symbols_of,
)
from .terms import AliasMap, ID_ALIAS, Symbol, Theory, nesting_limited


class Rel(Enum):
    """The relations of the spectrum.  A member's value is its command-line
    name; the rest of its definition declares the traits ``Checker`` reads:
    whether both sides may lead, whether the failure round is open, the
    reply rule's pair discipline (``none``, ``st``, ``hp`` or ``ind``; see
    ``Checker.rule``), whether independence compares locations alone, and
    whether the static test runs one way only."""

    # (value, both_lead, failure_round, discipline, loc_indep, one_way)
    PRESIM_I = ("presim-i", False, False, "none", False, True)
    SIM_I = ("sim-i", False, False, "none", False, False)
    BISIM_I = ("bisim-i", True, False, "none", False, False)
    SIM_ST = ("sim-st", False, False, "st", False, False)
    BISIM_ST = ("bisim-st", True, False, "st", False, False)
    SIM_HP = ("sim-hp", False, False, "hp", False, False)
    BISIM_HP = ("bisim-hp", True, False, "hp", False, False)
    FSIM_ST = ("fsim-st", False, True, "st", False, False)
    FSIM_HP = ("fsim-hp", False, True, "hp", False, False)
    SIM_ILOC = ("sim-iloc", False, False, "ind", True, False)
    BISIM_ILOC = ("bisim-iloc", True, False, "ind", True, False)
    SIM_IFULL = ("sim-ifull", False, False, "ind", False, False)
    BISIM_IFULL = ("bisim-ifull", True, False, "ind", False, False)

    def __new__(cls, value, both_lead, failure_round, discipline, loc_indep, one_way):
        member = object.__new__(cls)
        member._value_ = value
        member.both_lead, member.failure_round = both_lead, failure_round
        member.discipline, member.loc_indep, member.one_way = discipline, loc_indep, one_way
        return member


# ``(finer, coarser, proved)``: a pair related under ``finer`` is related
# under ``coarser``.  The module docstring proves each proved edge from
# ``Checker.rule``; the others are observed on the corpus only.
ORDER = (
    # the one-way static test
    (Rel.SIM_I, Rel.PRESIM_I, True),
    # HP ⇒ ST ⇒ interleaving, and ifull ⇒ HP: more demands and kept pairs
    (Rel.SIM_HP, Rel.SIM_ST, True), (Rel.SIM_ST, Rel.SIM_I, True), (Rel.FSIM_HP, Rel.FSIM_ST, True),
    (Rel.BISIM_HP, Rel.BISIM_ST, True), (Rel.BISIM_ST, Rel.BISIM_I, True),
    (Rel.SIM_IFULL, Rel.SIM_HP, True), (Rel.BISIM_IFULL, Rel.BISIM_HP, True),
    # more leader moves under one rule
    (Rel.BISIM_I, Rel.SIM_I, True), (Rel.BISIM_ST, Rel.SIM_ST, True), (Rel.BISIM_HP, Rel.SIM_HP, True),
    (Rel.BISIM_ILOC, Rel.SIM_ILOC, True), (Rel.BISIM_IFULL, Rel.SIM_IFULL, True),
    (Rel.FSIM_ST, Rel.SIM_ST, True), (Rel.FSIM_HP, Rel.SIM_HP, True),
    # a failure-round win is a right-led win
    (Rel.BISIM_ST, Rel.FSIM_ST, True), (Rel.BISIM_HP, Rel.FSIM_HP, True),
    # other independence tests
    (Rel.SIM_ILOC, Rel.SIM_IFULL, False), (Rel.BISIM_ILOC, Rel.BISIM_IFULL, False),
)


class GameConfig(NamedTuple):
    left: ExtendedProcess
    right: ExtendedProcess
    rho: AliasMap
    pairs: frozenset  # frozenset of (left event id, right event id)


# --- witness trees ---------------------------------------------------------


@dataclass
class StaticNode:
    m: object
    n: object
    holds_left: bool
    holds_right: bool


@dataclass
class ReplyNode:
    event: Event
    child: object  # refutation of the configuration after this reply


@dataclass
class LeadNode:
    side: str  # "left" or "right"
    event: Event
    replies: list  # list[ReplyNode]; empty when no legal answer exists


@dataclass
class FailureNode:
    event: Event  # enabled on the right, not mirrorable on the left


@dataclass
class Verdict:
    relation: Rel
    related: bool
    exact: bool
    bounds: ExplorationBounds
    witness: object | None = None


# --- the checker -----------------------------------------------------------

# ``Checker._decide``'s answer for a configuration at the ``game_depth`` cut
# from which a leader could still move
_CUT = object()

# a lookup's default that no table stores
_MISS = object()


class Checker:
    def __init__(
        self,
        rel: Rel,
        theory: Theory,
        bounds: ExplorationBounds,
        signature: tuple[Symbol, ...],
        consts: frozenset[str],
    ):
        # the relation's traits, read once here: ``rule`` runs on every move
        self.sides = ("left", "right") if rel.both_lead else ("left",)
        self.failure_round = rel.failure_round
        self.discipline = rel.discipline
        self.static_test = static_impl_witness if rel.one_way else static_equiv_witness
        self.theory = theory
        self.bounds = bounds
        self.signature = signature
        self.consts = consts
        if rel.loc_indep:
            self.indep_table = theory.indep_locs
            self.indep_test = lambda e0, e1: indep_loc(e0.loc, e1.loc)
        else:
            self.indep_table, self.indep_test = theory.indep, indep_event
        # the theory's static tests in this checker's static context, looked
        # up once here so that no test hashes the signature
        context = (rel.one_way, consts, signature, bounds.static_depth)
        self.statics = theory.statics.setdefault(context, {})
        self.memo: dict = {}
        # class id -> its transitions, as read by this checker
        self.tsets: dict = {}
        self.tainted = False

    # -- primitives --

    def transitions(self, cid: int) -> TransitionSet:
        """Transitions of the class with id ``cid``, fetched from the theory
        once per checker; a tainted set taints the checker."""
        tset = self.tsets.get(cid)
        if tset is None:
            rep = self.theory.reps[cid]
            tset = enabled_transitions(rep, self.bounds, self.theory, self.signature, self.consts)
            self.tsets[cid] = tset
            if tset.tainted:
                self.tainted = True
        return tset

    def indep(self, i: int, j: int) -> bool:
        """Independence of a remembered event ``i`` and a new event ``j``,
        given by id and decided once per theory: of their locations alone
        under ``iloc``, of the events otherwise."""
        return indep_ids(self.indep_table, self.indep_test, self.theory.events, i, j)

    def static_witness(self, cfg: GameConfig) -> StaticWitness | None:
        """The static test of the configuration's frames, up to ``rho``:
        one way or both, as the relation declares.  Decided once per
        (static context, frames, ``rho``) per theory."""
        left, right, rho = cfg.left.frame, cfg.right.frame, cfg.rho
        key = (left, right, rho.key())
        w = self.statics.get(key, _MISS)
        if w is _MISS:
            depth = self.bounds.static_depth
            w = self.static_test(left, right, rho, self.consts, self.signature, depth, self.theory)
            self.statics[key] = w
        return w

    def match_label(self, left_action, right_action, rho: AliasMap) -> AliasMap | None:
        """Extension of ``rho`` under which the left label maps onto the
        right label, or ``None``."""
        kind = type(left_action)
        if kind is not type(right_action):
            return None
        if kind is OutLabel:
            if rho(left_action.chan) != right_action.chan:
                return None
            try:
                return rho.extend(left_action.alias, right_action.alias)
            except ValueError:
                return None
        if kind is InLabel:
            if rho(left_action.chan) == right_action.chan and rho(left_action.payload) == right_action.payload:
                return rho
            return None
        return rho  # two silent steps

    # -- round structure --

    def rule(self, cfg: GameConfig, side: str, eid: int) -> tuple:
        """``(demands, kept)`` for the leader's move of event ``eid`` on
        ``side``, under maximal retention; ``kept`` is ``None`` when the
        relation remembers no pairs."""
        discipline = self.discipline
        if discipline == "none":
            return (), None
        j = 0 if side == "left" else 1
        table = self.indep_table
        demands, kept = [], []
        for p in cfg.pairs:
            bit = table.get((p[j], eid))
            if bit is None:
                bit = self.indep(p[j], eid)
            if bit or discipline != "st":
                demands.append((p[1 - j], bit))
            if bit or discipline == "ind":
                kept.append(p)
        return demands, kept

    def legal_replies(self, cfg: GameConfig, side: str, step: Step, ctx, answers: list):
        """The follower's answers to a leader step in the context
        ``(demands, kept)``, drawn in order from the follower's steps
        ``answers``: pairs of the answering event and the successor
        configuration, each built only when the caller asks for it."""
        demands, kept = ctx
        match_label = self.match_label
        event, target = step.event, step.residual
        # the follower may draw on phantom firings (beyond the replication
        # budget); the enclosing transition set is already tainted
        for answer in answers:
            event2 = answer.event
            if side == "left":
                rho2 = match_label(event.action, event2.action, cfg.rho)
                pair = (step.eid, answer.eid)
                left2, right2 = target, answer.residual
            else:
                rho2 = match_label(event2.action, event.action, cfg.rho)
                pair = (answer.eid, step.eid)
                left2, right2 = answer.residual, target
            if rho2 is None:
                continue
            if demands and not self._meets(demands, answer.eid):
                continue
            pairs = frozenset() if kept is None else frozenset((*kept, pair))
            yield event2, GameConfig(left2, right2, rho2, pairs)

    def _meets(self, demands, eid: int) -> bool:
        """Whether the answer's event ``eid`` meets every demand."""
        table = self.indep_table
        for d, want in demands:
            bit = table.get((d, eid))
            if bit is None:
                bit = self.indep(d, eid)
            if bit != want:
                return False
        return True

    def failure_witness(
        self, cfg: GameConfig, left: TransitionSet, right: TransitionSet
    ) -> FailureNode | None:
        """Enabledness round of the failure similarities: find a right
        transition that no left transition answers under the reply rule,
        with maximal retention."""
        for step_r in right.real_steps:
            ctx = self.rule(cfg, "right", step_r.eid)
            if next(self.legal_replies(cfg, "right", step_r, ctx, left.steps), None) is None:
                return FailureNode(step_r.event)
        return None

    # -- search --

    def memo_key(self, cfg: GameConfig) -> tuple:
        """The configuration's key in ``memo``: the ids of its two states'
        classes, its alias map's key and its remembered pairs."""
        theory = self.theory
        classes = theory.classes
        left = classes.get(cfg.left)
        if left is None:
            left = state_class(cfg.left, theory)
        right = classes.get(cfg.right)
        if right is None:
            right = state_class(cfg.right, theory)
        return (left, right, cfg.rho.key(), cfg.pairs)

    def run(self, cfg: GameConfig, depth: int = 0):
        """Refutation of the configuration, or ``None`` when related within
        bounds.  The configuration is decided on its class representatives;
        it never recurs below itself (see the module docstring)."""
        key = self.memo_key(cfg)
        node = self.memo.get(key, _MISS)
        if node is not _MISS:
            return node
        reps = self.theory.reps
        node = self._decide(GameConfig(reps[key[0]], reps[key[1]], cfg.rho, cfg.pairs), key, depth)
        if node is _CUT:
            # not memoized: a shallower visit must search on from here
            self.tainted = True
            return None
        self.memo[key] = node
        return node

    def _decide(self, cfg: GameConfig, key: tuple, depth: int):
        """Refutation of ``cfg``, whose states are the representatives of
        the classes ``key[0]`` and ``key[1]`` (its ``memo_key``), or
        ``None``, or ``_CUT``."""
        w = self.static_witness(cfg)
        if w is not None:
            return StaticNode(w.m, w.n, w.holds_left, w.holds_right)
        transitions = self.transitions
        if self.failure_round:
            fnode = self.failure_witness(cfg, transitions(key[0]), transitions(key[1]))
            if fnode is not None:
                return fnode
        if depth >= self.bounds.game_depth:
            # the cut leaves a play unfinished only where a leader can move
            leaders = key[: len(self.sides)]  # the leading sides' class ids
            return _CUT if any(transitions(cid).real_steps for cid in leaders) else None
        for side in self.sides:
            leader, follower = (key[0], key[1]) if side == "left" else (key[1], key[0])
            for step in transitions(leader).real_steps:
                ctx = self.rule(cfg, side, step.eid)
                refutations = []
                for event2, cfg2 in self.legal_replies(cfg, side, step, ctx, transitions(follower).steps):
                    child = self.run(cfg2, depth + 1)
                    if child is None:
                        break
                    refutations.append(ReplyNode(event2, child))
                else:
                    return LeadNode(side, step.event, refutations)
        return None


# --- entry points ----------------------------------------------------------


def initial_config(p: Process, q: Process, bounds: ExplorationBounds) -> GameConfig:
    left = from_process(prime_bangs(p, bounds.repl_unfold))
    right = from_process(prime_bangs(q, bounds.repl_unfold))
    return GameConfig(left, right, ID_ALIAS, frozenset())


def build_signature(theory: Theory, *procs: Process) -> tuple[Symbol, ...]:
    syms = set(theory.symbols())
    for p in procs:
        syms |= symbols_of(p)
    return tuple(sorted(syms, key=lambda s: (s.name, s.arity)))


def _checker(
    rel: Rel, p: Process, q: Process, bounds: ExplorationBounds, theory: Theory
) -> Checker:
    """A checker of ``rel`` on ``p`` and ``q``, over the symbols of the
    theory and both processes and over their free names."""
    signature = build_signature(theory, p, q)
    consts = default_consts(p, q) | frozenset(bounds.extra_consts)
    return Checker(rel, theory, bounds, signature, consts)


@nesting_limited
def check(rel: Rel, p: Process, q: Process, bounds: ExplorationBounds, theory: Theory) -> Verdict:
    """Decide whether ``p`` relates to ``q`` within the given bounds."""
    checker = _checker(rel, p, q, bounds, theory)
    witness = checker.run(initial_config(p, q, bounds))
    # only Related verdicts are bound-qualified; a Distinguished verdict is
    # backed by its replayable witness
    exact = True if witness is not None else not checker.tainted
    return Verdict(
        relation=rel,
        related=witness is None,
        exact=exact,
        bounds=bounds,
        witness=witness,
    )


# --- replay ----------------------------------------------------------------


@nesting_limited
def witness_replay(verdict: Verdict, p: Process, q: Process, theory: Theory) -> bool:
    """Re-verify a distinguishing witness against a fresh game: every node
    must correspond to a legal leader move whose recorded answers are
    exactly the legal follower answers."""
    if verdict.related or verdict.witness is None:
        return False
    checker = _checker(verdict.relation, p, q, verdict.bounds, theory)
    return _replay_node(checker, initial_config(p, q, verdict.bounds), verdict.witness)


def _replay_node(checker: Checker, cfg: GameConfig, node) -> bool:
    key = checker.memo_key(cfg)
    reps = checker.theory.reps
    cfg = GameConfig(reps[key[0]], reps[key[1]], cfg.rho, cfg.pairs)
    if isinstance(node, StaticNode):
        w = checker.static_witness(cfg)
        return (
            w is not None
            and w.m == node.m
            and w.n == node.n
            and w.holds_left == node.holds_left
            and w.holds_right == node.holds_right
        )
    if isinstance(node, FailureNode):
        if not checker.failure_round or checker.static_witness(cfg) is not None:
            return False
        left, right = checker.transitions(key[0]), checker.transitions(key[1])
        fnode = checker.failure_witness(cfg, left, right)
        return fnode is not None and fnode.event == node.event
    if isinstance(node, LeadNode):
        if checker.static_witness(cfg) is not None:
            return False
        if node.side not in checker.sides:
            return False
        leader, follower = (key[0], key[1]) if node.side == "left" else (key[1], key[0])
        for step in checker.transitions(leader).real_steps:
            if step.event != node.event:
                continue
            ctx = checker.rule(cfg, node.side, step.eid)
            answers = checker.transitions(follower).steps
            replies = list(checker.legal_replies(cfg, node.side, step, ctx, answers))
            recorded = {event_key(r.event): r for r in node.replies}
            if {event_key(e) for e, _ in replies} != set(recorded):
                continue
            if all(
                _replay_node(checker, cfg2, recorded[event_key(e)].child)
                for e, cfg2 in replies
            ):
                return True
        return False
    return False
