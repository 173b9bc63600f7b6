"""Behavioural relation games: verdicts, witnesses, and cross-checks."""

import gc
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from latspi import games, lts
from latspi.cli import load_theory, witness_to_json
from latspi.corpus import (
    DISTINGUISHED,
    RELATED_BOUNDED,
    RELATED_EXACT,
    case_theory,
    load_corpus,
    run_case,
    verdict_class,
)
from latspi.games import (
    Checker,
    FailureNode,
    LeadNode,
    Rel,
    build_signature,
    check,
    initial_config,
    witness_replay,
)
from latspi.knowledge import StaticWitness
from latspi.lts import ExplorationBounds, default_consts
from latspi.syntax import ExtendedProcess, congruence_key, parse_process
from latspi.terms import Alias, AliasMap, Substitution, Theory, Var, msg_key
from reference.syntax import app
from st_oracle import ExhaustiveST, check_exhaustive
from test_reference import _classes_are_keys

B = ExplorationBounds(recipe_depth=1, static_depth=1, repl_unfold=2, game_depth=12)


def V(rel, left, right, bounds=B, theory=None):
    theory = Theory(()) if theory is None else theory
    return check(rel, parse_process(left), parse_process(right), bounds, theory)


# --- elementary verdicts ---------------------------------------------------


def test_identical_processes_related_everywhere():
    src = "new x.(out(a, x) | in(b, y).out(c, y))"
    for rel in Rel:
        v = V(rel, src, src)
        assert v.related and v.exact, rel


def test_deadlock_vs_action():
    v = V(Rel.SIM_I, "out(a, m)", "0")
    assert not v.related
    assert isinstance(v.witness, LeadNode) and v.witness.replies == []


def test_static_difference_found_at_root():
    v = V(Rel.BISIM_I, "new n.out(a, n).0", "out(a, m).0")
    assert not v.related  # frames differ after the output: m is derivable once


def test_presimulation_is_one_directional():
    left = "new y.(out(a, x) + out(a, y))"
    right = "out(a, x)"
    assert V(Rel.PRESIM_I, left, right).related
    assert V(Rel.PRESIM_I, right, left).related
    v = V(Rel.SIM_I, left, right)
    assert not v.related


def test_choice_vs_parallel_bisim_i():
    # a.b + b.a and a | b agree interleavingly but not under ST semantics
    left = "new x,y.(out(a, x).out(b, y) + out(b, y).out(a, x))"
    right = "new x,y.(out(a, x) | out(b, y))"
    assert V(Rel.BISIM_I, left, right).related
    assert not V(Rel.SIM_ST, right, left).related


# --- witness structure -----------------------------------------------------


def collect_nodes(node, acc):
    acc.append(node)
    if isinstance(node, LeadNode):
        for r in node.replies:
            collect_nodes(r.child, acc)


def test_distinguishing_witness_ends_in_dead_end_or_static():
    v = V(Rel.SIM_ST, "new x.out(a,x) | new x.out(a,x)", "new x.out(a,x).new x.out(a,x)")
    assert not v.related
    nodes = []
    collect_nodes(v.witness, nodes)
    leaves = [n for n in nodes if not (isinstance(n, LeadNode) and n.replies)]
    assert leaves
    for leaf in leaves:
        assert isinstance(leaf, (StaticWitness, FailureNode)) or leaf.replies == []


def test_failure_witness_is_right_enabled_event():
    v = V(Rel.FSIM_ST, "new x,y.out(a,x).out(a,y)", "new x,y.(out(a,x) | out(a,y))")
    assert not v.related
    nodes = []
    collect_nodes(v.witness, nodes)
    assert any(isinstance(n, FailureNode) for n in nodes)


def test_witness_replays():
    left = "new x.out(a,x) | new x.out(a,x)"
    right = "new x.out(a,x).new x.out(a,x)"
    v = V(Rel.SIM_ST, left, right)
    assert witness_replay(v, parse_process(left), parse_process(right), Theory(()))


def test_related_verdicts_do_not_replay():
    src = "out(a, m)"
    v = V(Rel.SIM_I, src, src)
    assert not witness_replay(v, parse_process(src), parse_process(src), Theory(()))


def test_verdicts_deterministic():
    left = "new x.out(a,x) | new x.out(a,x)"
    right = "new x.out(a,x).new x.out(a,x)"
    v1, v2 = V(Rel.SIM_ST, left, right), V(Rel.SIM_ST, left, right)
    assert v1.witness.event == v2.witness.event
    assert [r.event for r in v1.witness.replies] == [r.event for r in v2.witness.replies]


# --- symmetry of bisimilarity ----------------------------------------------


BISIMS = [Rel.BISIM_I, Rel.BISIM_ST, Rel.BISIM_HP, Rel.BISIM_ILOC, Rel.BISIM_IFULL]

SYMMETRY_PAIRS = [
    ("new n.(out(a, n) | in(n, x))", "new n.out(a, n).in(n, x)"),
    ("new x.out(a,x) | new x.out(a,x)", "new x.out(a,x).new x.out(a,x)"),
    ("out(a, m) + out(b, m)", "out(a, m) | out(b, m)"),
]


@pytest.mark.parametrize("rel", BISIMS)
@pytest.mark.parametrize("left,right", SYMMETRY_PAIRS)
def test_bisimilarity_symmetric(rel, left, right):
    assert V(rel, left, right).related == V(rel, right, left).related


# --- maximal retention vs exhaustive subsets --------------------------------


ST_RELS = [Rel.SIM_ST, Rel.BISIM_ST, Rel.FSIM_ST]


@pytest.mark.parametrize("rel", ST_RELS)
def test_st_exhaustive_oracle_agrees(rel):
    pairs = SYMMETRY_PAIRS + [
        ("new x,y,z.out(a,x).(out(b,y) | out(c,z))", "new x,y,z.(out(a,x).out(b,y) | out(c,z))"),
    ]
    for left, right in pairs:
        fast = V(rel, left, right)
        slow = check_exhaustive(rel, parse_process(left), parse_process(right), B, Theory(()))
        assert fast.related == slow.related, (rel, left, right)


def test_failure_round_keeps_maximal_retention_under_st_exhaustive():
    # after out(a, x) on both sides, the right's out(a, y) is independent of
    # the remembered pair and the left's is not; the left mirrors it only
    # under the empty retained subset, which the exhaustive oracle tries first
    theory = Theory(())
    p = parse_process("new x,y.out(a,x).out(a,y)")
    q = parse_process("new x,y.(out(a,x) | out(a,y))")
    signature, consts = build_signature(theory, p, q), default_consts(p, q)
    checker = ExhaustiveST(Rel.FSIM_ST, theory, B, signature, consts)
    cfg = initial_config(p, q, B)
    cid_l, cid_r, *_ = checker.memo_key(cfg)  # the two states' class ids
    (step,) = checker.transitions(cid_l).real_steps
    (ctx,) = checker.contexts(cfg, "left", step.eid)
    _, cfg2 = next(checker.legal_replies(cfg, "left", step, ctx, checker.transitions(cid_r)))
    cid_l, cid_r, *_ = checker.memo_key(cfg2)
    left, right = checker.transitions(cid_l), checker.transitions(cid_r)
    (step_r,) = right.real_steps
    empty = next(checker.contexts(cfg2, "right", step_r.eid))
    assert empty == ([], []) and list(checker.legal_replies(cfg2, "right", step_r, empty, left))
    node = checker.failure_witness(cfg2, left, right)
    assert isinstance(node, FailureNode) and node.event == step_r.event


# --- corpus spot checks ----------------------------------------------------


def run_corpus_cases():
    return [(case, *run_case(case)) for case in load_corpus()]


@pytest.fixture(scope="module")
def corpus_runs():
    return run_corpus_cases()


def test_corpus_cases_pass_and_witnesses_replay(corpus_runs):
    for case, result, _ in corpus_runs:
        assert result.ok, (case.name, result.actual, result.error)
        if result.actual == DISTINGUISHED:
            assert result.replay_ok


# every case's class and witness, as ``python tests/test_games.py`` writes them
GOLDEN_WITNESSES = Path(__file__).parent / "data" / "corpus_witnesses.json"


def corpus_witnesses(runs) -> str:
    cases = []
    for case, result, verdict in runs:
        witness = None if verdict is None else verdict.witness
        witness = None if witness is None else witness_to_json(witness)
        cases.append({"name": case.name, "class": result.actual, "witness": witness})
    return json.dumps({"cases": cases}, indent=2) + "\n"


def test_corpus_witnesses_match_the_golden_file(corpus_runs):
    assert corpus_witnesses(corpus_runs) == GOLDEN_WITNESSES.read_bytes().decode()


# --- label-indexed replies ---------------------------------------------------


def _match_label(left_action, right_action, rho):
    """The extension of ``rho`` under which the left label maps onto the
    right one, or ``None``: the labels compared one pair at a time."""
    if type(left_action) is not type(right_action):
        return None
    if isinstance(left_action, lts.OutLabel):
        if rho(left_action.chan) != right_action.chan:
            return None
        try:
            return rho.extend(left_action.alias, right_action.alias)
        except ValueError:
            return None
    if isinstance(left_action, lts.InLabel):
        same = rho(left_action.chan) == right_action.chan and rho(left_action.payload) == right_action.payload
        return rho if same else None
    return rho


def _scanned_replies(checker, cfg, side, step, ctx, follower):
    """``Checker.legal_replies`` found by matching the leader's label against
    every follower step in turn."""
    demands, kept = ctx
    for answer in follower.steps:
        if side == "left":
            rho2 = _match_label(step.event.action, answer.event.action, cfg.rho)
            pair, left2, right2 = (step.eid, answer.eid), step.residual, answer.residual
        else:
            rho2 = _match_label(answer.event.action, step.event.action, cfg.rho)
            pair, left2, right2 = (answer.eid, step.eid), answer.residual, step.residual
        if rho2 is None or any(checker.indep(d, answer.eid) != want for d, want in demands):
            continue
        pairs = frozenset() if kept is None else frozenset((*kept, pair))
        yield answer.event, games.GameConfig(left2, right2, rho2, pairs)


class _ReplyProbe(Checker):
    """A checker that, at each configuration whose replies it first reads,
    compares the indexed replies with the scanned ones for every step of
    either side as the leader."""

    compared = 0

    def __init__(self, *args):
        super().__init__(*args)
        self.seen = set()

    def legal_replies(self, cfg, side, step, ctx, follower):
        key = self.memo_key(cfg)
        if key not in self.seen:
            self.seen.add(key)
            tsets = {"left": self.transitions(key[0]), "right": self.transitions(key[1])}
            for lead, other in (("left", "right"), ("right", "left")):
                for s in tsets[lead].steps:
                    c = self.rule(cfg, lead, s.eid)
                    indexed = list(super().legal_replies(cfg, lead, s, c, tsets[other]))
                    assert indexed == list(_scanned_replies(self, cfg, lead, s, c, tsets[other]))
                    _ReplyProbe.compared += 1
        return super().legal_replies(cfg, side, step, ctx, follower)


def test_indexed_replies_are_the_scanned_ones(monkeypatch):
    # every configuration that a corpus check or replay reads replies at,
    # in the search, the failure round or the replay
    monkeypatch.setattr(games, "Checker", _ReplyProbe)
    monkeypatch.setattr(_ReplyProbe, "compared", 0)
    for case in load_corpus():
        result, _ = run_case(case)
        assert result.ok, (case.name, result.error)
    assert _ReplyProbe.compared > 20_000  # 27,263 at this writing


class _DepthProbe(Checker):
    """A checker that records the deepest game round its search enters."""

    deepest = 0

    def run(self, cfg, depth=0):
        self.deepest = max(self.deepest, depth)
        return super().run(cfg, depth)


@pytest.mark.parametrize("game_depth", [4, 8, 12, 20])
def test_phantom_answers_keep_the_game_going_to_the_depth_cut(game_depth):
    # a phantom answer keeps ``Bang(body, 0)`` and adds a live continuation,
    # from which the other side leads in turn, so no fuel runs out and only
    # the game depth ends the search; phantom steps taint the verdict anyway
    theory = Theory(())
    p, q = parse_process("out(a,m) | !out(a,m).out(a,m)"), parse_process("!out(a,m).out(a,m)")
    bounds = ExplorationBounds(recipe_depth=0, static_depth=0, repl_unfold=0, game_depth=game_depth)
    checker = _DepthProbe(Rel.BISIM_I, theory, bounds, build_signature(theory, p, q), default_consts(p, q))
    assert checker.run(initial_config(p, q, bounds)) is None and checker.tainted
    assert checker.deepest == game_depth
    assert verdict_class(check(Rel.BISIM_I, p, q, bounds, Theory(()))) == RELATED_BOUNDED


def test_game_depth_taint():
    v = V(
        Rel.BISIM_I,
        "out(a,m).out(a,m).out(a,m)",
        "out(a,m).out(a,m).out(a,m)",
        bounds=ExplorationBounds(recipe_depth=0, static_depth=0, repl_unfold=1, game_depth=2),
    )
    assert v.related and not v.exact  # cut off before the game finished


_UNTAINTED_CUT = "ROADMAP item 1: a recipe or static depth that cuts enumeration does not taint"


@pytest.mark.parametrize(
    "left, right, bounds, theory, expected",
    [
        pytest.param(
            # distinguished at static=1
            "new x,y.out(a,pair(x,y))",
            "new x.out(a,pair(x,x))",
            ExplorationBounds(recipe_depth=0, static_depth=0),
            "dolev-yao",
            RELATED_BOUNDED,
            marks=pytest.mark.xfail(strict=True, reason=_UNTAINTED_CUT),
            id="static-depth-cut",
        ),
        pytest.param(
            # distinguished at depth=1
            "in(a,x).[x = pair(c,c)] out(b,c)",
            "in(a,x)",
            ExplorationBounds(recipe_depth=0, static_depth=0),
            "dolev-yao",
            RELATED_BOUNDED,
            marks=pytest.mark.xfail(strict=True, reason=_UNTAINTED_CUT),
            id="recipe-depth-cut",
        ),
        pytest.param(
            # the play ends after two rounds, exactly at the cut
            "out(a,m).out(a,m)",
            "out(a,m).out(a,m)",
            ExplorationBounds(game_depth=2),
            "empty",
            RELATED_EXACT,
            id="play-ends-at-the-cut",
        ),
        pytest.param(
            # twelve rounds, all played within the default game=12
            ".".join(["out(a,m)"] * 12),
            ".".join(["out(a,m)"] * 12),
            ExplorationBounds(),
            "empty",
            RELATED_EXACT,
            id="twelve-outputs-at-the-default-cut",
        ),
    ],
)
def test_verdict_class_names_the_cut(left, right, bounds, theory, expected):
    v = V(Rel.BISIM_I, left, right, bounds=bounds, theory=load_theory(theory))
    assert verdict_class(v) == expected


# --- one theory, one cache scope -------------------------------------------


@pytest.mark.parametrize("spec", ["empty", None])
def test_load_theory_builds_a_theory_per_call(spec):
    assert load_theory(spec) is not load_theory(spec)


def test_case_theory_builds_a_theory_per_call():
    case = next(c for c in load_corpus() if c.theory == "empty")
    assert case_theory(case) is not case_theory(case)


def test_tables_die_with_their_theory():
    theory = Theory(())
    p, q = parse_process("new x.out(a, x)"), parse_process("out(a, m)")
    v = check(Rel.SIM_I, p, q, B, theory)
    assert isinstance(v.witness, LeadNode) and witness_replay(v, p, q, theory)
    assert theory.enabled and theory.recipes and theory.normal_forms.terms and theory.classes
    ref = weakref.ref(theory)
    del theory
    gc.collect()
    assert ref() is None


def test_each_frame_is_partitioned_once_per_theory(monkeypatch):
    # the 13 relations and their replays on one pair share one theory
    case = next(c for c in load_corpus() if c.name == "error-reveal-bang-fsim-st")
    theory = case_theory(case)
    table = theory.normal_forms
    partition, computed = table.partition, []

    def counting(template, key, images, normalize):
        normalized = []

        def norm(m):
            normalized.append(m)
            return normalize(m)

        part = partition(template, key, images, norm)
        if normalized:  # a computed partition normalises at least its atoms
            computed.append((id(template), key))
        return part

    monkeypatch.setattr(table, "partition", counting)
    for name in ("static_equiv_witness", "static_impl_witness"):

        def bijective(left, right, rho, *rest, _test=getattr(games, name)):
            # the game keeps rho a bijection between the two frames' domains
            assert rho.domain == left.domain and set(rho.mapping.values()) == right.domain
            return _test(left, right, rho, *rest)

        monkeypatch.setattr(games, name, bijective)
    p, q = parse_process(case.left), parse_process(case.right)
    verdicts = []
    for rel in Rel:
        verdicts.append(check(rel, p, q, case.bounds, theory))
        assert verdicts[-1].related or witness_replay(verdicts[-1], p, q, theory)
    # each (template, class key) partition is computed once
    assert computed and len(computed) == len(set(computed)) == len(table.partitions)
    monkeypatch.undo()

    # the partitions are cached: checking again normalises nothing
    normalize, normalized = theory.normalize, []
    monkeypatch.setattr(theory, "normalize", lambda m: normalized.append(m) or normalize(m))
    for rel, v in zip(Rel, verdicts):
        assert check(rel, p, q, case.bounds, theory) == v
    assert normalized == []


def test_each_static_test_is_decided_once_per_theory(monkeypatch):
    # the 13 relations and their replays on one pair share one theory, and
    # so one static test per (static context, frames, rho)
    case = next(c for c in load_corpus() if c.name == "error-reveal-bang-fsim-st")
    theory = case_theory(case)
    keys = []
    for name in ("static_equiv_witness", "static_impl_witness"):

        def counting(left, right, rho, consts, signature, depth, th, _test=getattr(games, name)):
            keys.append((_test, consts, signature, depth, left, right, rho.key()))
            return _test(left, right, rho, consts, signature, depth, th)

        monkeypatch.setattr(games, name, counting)
    p, q = parse_process(case.left), parse_process(case.right)
    for rel in Rel:
        v = check(rel, p, q, case.bounds, theory)
        assert v.related or witness_replay(v, p, q, theory)
    assert len(keys) > 10 and len(keys) == len(set(keys))
    assert len(keys) == sum(len(tests) for tests in theory.statics.values())


def test_a_warm_theory_gives_each_case_its_fresh_verdict(corpus_runs):
    # the tables that every relation on the case's pair fills first must not
    # change the case's class or witness: a checker that reads a tainted
    # transition set that another checker fetched first is tainted too
    for case, result, fresh in corpus_runs:
        theory = case_theory(case)
        p, q = parse_process(case.left), parse_process(case.right)
        for rel in Rel:
            check(rel, p, q, case.bounds, theory)
        v = check(case.relation, p, q, case.bounds, theory)
        assert verdict_class(v) == result.actual and v.witness == fresh.witness, case.name


# --- congruence-class ids --------------------------------------------------


def _keying(monkeypatch, keyed: list, holes: list) -> None:
    """Record each state that ``lts`` canonicalises in ``keyed``, and in
    ``holes`` those that are input firings keyed with the hole
    (``lts._input_residuals``)."""

    def counting(state):
        keyed.append(state)
        if sys._getframe(1).f_code is lts._input_residuals.__code__:
            holes.append(state)
        return congruence_key(state)

    monkeypatch.setattr(lts, "congruence_key", counting)


def test_each_state_is_canonicalised_once_per_theory(monkeypatch):
    # the 13 relations and their replays on one pair share one theory
    case = next(c for c in load_corpus() if c.name == "fresh-vs-hash-sim-hp")
    seen, holes = [], []
    _keying(monkeypatch, seen, holes)
    p, q = parse_process(case.left), parse_process(case.right)
    theory = case_theory(case)
    for rel in Rel:
        v = check(rel, p, q, case.bounds, theory)
        assert v.related or witness_replay(v, p, q, theory)
    monkeypatch.undo()
    assert seen and len(seen) == len(set(seen))  # no state canonicalised twice
    assert holes
    hole_ids = {id(s) for s in holes}
    states = [s for s in seen if id(s) not in hole_ids]
    assert set(states) <= theory.classes.keys()
    # the canonicalised states fall into classes exactly by their keys
    ids = {theory.classes[s] for s in states}
    assert len(ids) == len({congruence_key(s) for s in states}) < len(states)
    _classes_are_keys(theory)


def test_search_canonicalises_only_the_states_it_visits(monkeypatch):
    case = next(c for c in load_corpus() if c.name == "fresh-vs-hash-sim-hp")
    keyed, holes = [], []
    visited = {}  # id -> state of every configuration side the search met
    run, replay = Checker.run, games._replay_node

    def visiting(cfg):
        visited.update({id(cfg.left): cfg.left, id(cfg.right): cfg.right})

    def visiting_run(self, cfg, depth=0):
        visiting(cfg)
        return run(self, cfg, depth)

    def visiting_replay(checker, cfg, node):
        visiting(cfg)
        return replay(checker, cfg, node)

    _keying(monkeypatch, keyed, holes)
    monkeypatch.setattr(Checker, "run", visiting_run)
    monkeypatch.setattr(games, "_replay_node", visiting_replay)
    p, q = parse_process(case.left), parse_process(case.right)
    theory = case_theory(case)
    for rel in Rel:
        v = check(rel, p, q, case.bounds, theory)
        assert v.related or witness_replay(v, p, q, theory)
    monkeypatch.undo()
    assert keyed and len({id(s) for s in keyed}) == len(keyed)
    # each canonicalised state is a configuration side the search visited
    # or a keyed input firing, never both
    hole_ids = {id(s) for s in holes}
    assert holes and not hole_ids & visited.keys()
    assert all(visited.get(id(s)) is s for s in keyed if id(s) not in hole_ids)
    built = sum(len(t.steps) for t in theory.enabled.values())
    assert len(keyed) < built / 2  # most successors are never canonicalised
    _classes_are_keys(theory)


# --- event ids -------------------------------------------------------------


def test_each_event_pair_is_tested_once_per_theory(monkeypatch):
    # the 13 relations and their replays on one pair share one theory
    case = next(c for c in load_corpus() if c.name == "fresh-vs-hash-sim-hp")
    calls = {"indep_event": [], "indep_loc": []}
    for name, seen in calls.items():

        def counting(a, b, _test=getattr(games, name), _seen=seen):
            _seen.append((a, b))
            return _test(a, b)

        monkeypatch.setattr(games, name, counting)
    p, q = parse_process(case.left), parse_process(case.right)
    theory = case_theory(case)
    for rel in Rel:
        v = check(rel, p, q, case.bounds, theory)
        assert v.related or witness_replay(v, p, q, theory)
    assert len(calls["indep_event"]) == len(set(calls["indep_event"])) == len(theory.indep) > 0
    assert len(calls["indep_loc"]) == len(theory.indep_locs) > 0

    # every step's id names its event, and equal events share one id
    ids, sets_of = {}, {}
    for n, tset in enumerate(theory.enabled.values()):
        for s in tset.steps:
            assert theory.events[s.eid] == s.event
            assert ids.setdefault(s.event, s.eid) == s.eid
            sets_of.setdefault(s.eid, set()).add(n)
    assert len(ids) == len(theory.events) == len(theory.event_keys)
    assert any(len(sets) > 1 for sets in sets_of.values())  # met in several sets


INDEP_COUNT = """
import sys
from latspi import games
from latspi.corpus import case_theory, load_corpus
from latspi.syntax import parse_process

calls = [0]
indep_event = games.indep_event

def counting(e0, e1):
    calls[0] += 1
    return indep_event(e0, e1)

games.indep_event = counting
case = next(c for c in load_corpus() if c.name == "fresh-vs-hash-sim-hp")
p, q = parse_process(case.left), parse_process(case.right)
theory = case_theory(case)
for rel in games.Rel:
    v = games.check(rel, p, q, case.bounds, theory)
    assert v.related or games.witness_replay(v, p, q, theory)
print(calls[0])
for key in theory.event_keys:
    print(key)
"""


def test_indep_calls_do_not_depend_on_the_hash_seed():
    # scans over the remembered pairs stop at the first failing pair; they
    # visit the pairs in int-id order, the iteration order of a set of
    # pairs of ints, which string hashing cannot move.  That order, the memo
    # keys and the order of independence tests all follow the event ids, so
    # the events must be interned in an order string hashing cannot move
    src = os.path.join(os.path.dirname(games.__file__), os.pardir)
    outputs = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.path.abspath(src))
        out = subprocess.run(
            [sys.executable, "-c", INDEP_COUNT], env=env, capture_output=True, text=True, check=True
        )
        outputs.add(out.stdout)
    assert len(outputs) == 1
    count, *keys = outputs.pop().splitlines()
    assert int(count) > 0 and len(keys) > 1


def test_class_ids_agree_with_congruence_keys():
    case = next(c for c in load_corpus() if c.name == "error-reveal-sim-st")
    theory = case_theory(case)
    check(case.relation, parse_process(case.left), parse_process(case.right), case.bounds, theory)
    states = list(theory.classes.items())
    keys = [congruence_key(s) for s, _ in states]
    assert len(set(i for _, i in states)) < len(states)  # some classes hold several states
    for (s, i), k in zip(states, keys):
        for (t, j), l in zip(states, keys):
            assert (i == j) == (k == l), (s, t)


def _frame():
    return Substitution({Alias("1", "l"): Var("m"), Alias("0", "l"): app("h", Var("n"))})


def _alias_map():
    return AliasMap({Alias("1", "l"): Alias("0", "l"), Alias("0", "l"): Alias("1", "l'")})


def _alias_map_key(m):
    return tuple(sorted(((a.prefix, a.stem), (b.prefix, b.stem)) for a, b in m.mapping.items()))


# (build, digest, the digest computed from the fields); the frame's hash and
# the alias map's key are cached as the state's hash is
CACHED_DIGESTS = [
    (
        lambda: ExtendedProcess(("n",), _frame(), parse_process("out(a, n) | in(b, x)")),
        hash,
        lambda a: hash((a.binders, a.frame, a.body)),
    ),
    (_frame, hash, lambda s: hash(tuple(sorted(s.mapping.items(), key=lambda kv: msg_key(kv[0]))))),
    (_alias_map, AliasMap.key, _alias_map_key),
    (_alias_map, hash, lambda m: hash(_alias_map_key(m))),
]


def test_equal_states_hash_equal_before_and_after_caching():
    for build, digest, fieldwise in CACHED_DIGESTS:
        a, b = build(), build()
        assert a is not b and a == b
        assert digest(a) == digest(b)  # neither cached before this line
        assert digest(a) == digest(b) == digest(build())  # cached, cached, fresh
        assert digest(a) == fieldwise(a)
        assert {a: 1}[build()] == 1


if __name__ == "__main__":
    # regenerate the golden witnesses after a deliberate change of a class
    # or witness: PYTHONPATH=src python tests/test_games.py
    GOLDEN_WITNESSES.parent.mkdir(exist_ok=True)
    GOLDEN_WITNESSES.write_text(corpus_witnesses(run_corpus_cases()))
