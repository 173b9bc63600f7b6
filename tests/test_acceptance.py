"""Acceptance gate: one check per criterion, one pass/fail line each.

Finite-process checks are exact; replicated checks are bound-qualified.
Sources for the standard example pairs live in the built-in corpus; this
module re-runs them through the public API and checks the exact verdict
classes, witness shapes, and cross-cutting properties.
"""

import json
from dataclasses import replace
from pathlib import Path

from latspi.cli import main
from latspi.corpus import (
    RELATED_BOUNDED,
    RELATED_EXACT,
    case_theory,
    load_corpus,
    run_case,
    verdict_class,
)
from latspi.games import (
    ORDER,
    FailureNode,
    LeadNode,
    Rel,
    build_signature,
    check,
    witness_replay,
)
from latspi.lts import (
    ExplorationBounds,
    default_consts,
    diamond_check,
    enabled_transitions,
)
from latspi.knowledge import satisfies
from latspi.syntax import from_process, parse_process, prime_bangs, struct_congruent
from latspi.terms import Alias, Substitution, Theory, Var
from reference.syntax import app
from st_oracle import check_exhaustive
from test_lts_systems import corpus_systems, explore

CASES = {c.name: c for c in load_corpus()}

FIN = ExplorationBounds(recipe_depth=1, static_depth=1, repl_unfold=2, game_depth=12)


def passed(n, desc):
    print(f"criterion {n:02d}: PASS - {desc}")


def run_named(name):
    result, verdict = run_case(CASES[name])
    assert result.ok, (name, result.actual, result.error)
    return result, verdict


def case_check(name, rel=None, bounds=None, swap=False):
    c = CASES[name]
    left, right = parse_process(c.left), parse_process(c.right)
    if swap:
        left, right = right, left
    return check(rel or c.relation, left, right, bounds or c.bounds, case_theory(c))


def lead_depth(node):
    if isinstance(node, LeadNode):
        return 1 + max((lead_depth(r.child) for r in node.replies), default=0)
    return 0


def iter_nodes(node):
    yield node
    if isinstance(node, LeadNode):
        for r in node.replies:
            yield from iter_nodes(r.child)


# --- criteria --------------------------------------------------------------


def test_criterion_01_lts_shape():
    p = prime_bangs(parse_process("new x.(out(a, x) | out(b, h(x)))"), 2)
    theory = Theory(())
    signature = build_signature(theory, p)
    consts = default_consts(p)
    bounds = replace(FIN, recipe_depth=0)
    A = from_process(p)
    steps = enabled_transitions(A, bounds, theory, signature, consts).real_steps
    assert sorted(str(s.event) for s in steps) == ["(^a(0l), 0[])", "(^b(1l), 1[])"]

    def fire(state, ev):
        for s in enabled_transitions(state, bounds, theory, signature, consts).real_steps:
            if str(s.event) == ev:
                return s.residual
        raise AssertionError(ev)

    ab = fire(fire(A, "(^a(0l), 0[])"), "(^b(1l), 1[])")
    ba = fire(fire(A, "(^b(1l), 1[])"), "(^a(0l), 0[])")
    assert struct_congruent(ab, ba)
    passed(1, "two initial located events; firing orders commute to congruent frames")


def test_criterion_02_satisfaction():
    L, L0, L1 = Alias("", "l"), Alias("0", "l"), Alias("1", "l")
    linked = Substitution({L0: Var("%0"), L1: app("h", Var("%0"))})
    assert satisfies(linked, app("h", L0), L1, Theory(()))
    public = Substitution({L: Var("x")})
    private = Substitution({L: Var("%0")})
    assert satisfies(public, L, Var("x"), Theory(()))
    assert not satisfies(private, L, Var("x"), Theory(()))
    passed(2, "frame satisfaction distinguishes disclosed from restricted payloads")


def test_criterion_03_presim_vs_sim():
    run_named("choice-collapse-presim-fwd")
    run_named("choice-collapse-presim-rev")
    _, verdict = run_named("choice-collapse-sim")
    statics = [
        n
        for n in iter_nodes(verdict.witness)
        if not isinstance(n, (LeadNode, FailureNode))
    ]
    assert any({str(n.m), str(n.n)} == {"l", "x"} for n in statics)
    passed(3, "mutual presimilarity, similarity refuted by the static test (l, x)")


def test_criterion_04_sequential_vs_parallel():
    run_named("hash-seq-vs-par")
    run_named("private-channel-par-vs-seq")
    passed(4, "both sequential-vs-parallel similarities hold exactly")


def test_criterion_05_swap():
    result, verdict = run_named("swap-sim")
    assert result.actual == RELATED_EXACT and verdict.exact
    passed(5, "the swap pair is interleaving-similar, exactly")


def test_criterion_06_bisim_i_vs_sim_st():
    run_named("two-outputs-bisim-i")
    run_named("two-outputs-sim-st")
    passed(6, "i-bisimilar but not ST-similar (concurrent starts unmatched)")


def test_criterion_07_st_vs_hp_similarity():
    run_named("seq-fanout-sim-st")
    _, verdict = run_named("seq-fanout-sim-hp")
    leads = [n for n in iter_nodes(verdict.witness) if isinstance(n, LeadNode)]
    assert any("^c(" in str(n.event) for n in leads)
    passed(7, "ST-similar; HP-similarity refuted via the dependent c-output")


def test_criterion_08_st_bisim_vs_hp_sim():
    run_named("confusion-bisim-st")
    run_named("confusion-sim-hp")
    passed(8, "ST-bisimilar but not HP-similar")


def test_criterion_09_replication():
    c = CASES["bang-split-bisim-st"]
    v = case_check("bang-split-bisim-st")
    assert v.related and not v.exact and v.witness is None
    _, verdict = run_named("bang-split-sim-hp")
    assert verdict.exact
    assert lead_depth(verdict.witness) <= 3
    cc = CASES["bang-split-sim-hp"]
    assert witness_replay(
        verdict, parse_process(cc.left), parse_process(cc.right), case_theory(cc)
    )
    passed(9, "replicated pair: ST-bisimilar within bounds, HP refuted exactly at depth <= 3")


def test_criterion_10_link_causality():
    run_named("link-bisim-hp")
    run_named("link-bisim-ifull")
    run_named("link-bisim-iloc")
    run_named("link-ok-bisim-ifull")
    passed(10, "link causality separates the location-sensitive relations as required")


def test_criterion_11_privacy():
    run_named("onetime-key-fin-sim-i")
    r1, _ = run_named("onetime-key-bang-bisim-st")
    assert r1.actual == RELATED_BOUNDED
    _, v2 = run_named("onetime-key-bang-sim-hp")
    assert v2.exact
    r3, _ = run_named("fresh-vs-hash-bisim-st")
    assert r3.actual == RELATED_BOUNDED
    run_named("fresh-vs-hash-sim-hp")
    passed(11, "privacy examples: interleaving/ST blind spots, HP detects the dependency")


def test_criterion_12_failures():
    run_named("two-outputs-seq-fsim-st")
    v = case_check("seq-fanout-sim-st", rel=Rel.FSIM_ST)
    assert not v.related
    assert isinstance(v.witness, FailureNode) and "^c(" in str(v.witness.event)
    r, _ = run_named("error-reveal-sim-st")
    assert r.actual == RELATED_EXACT
    run_named("error-reveal-fsim-st")
    r5, _ = run_named("error-reveal-bang-fsim-st")
    assert r5.actual == RELATED_BOUNDED
    _, v6 = run_named("error-reveal-bang-fsim-hp")
    assert v6.exact
    passed(12, "failure rounds: refusals observed exactly where expected")


def test_criterion_13_located_chain():
    result, verdict = run_named("located-chain-bisim-hp")
    assert result.actual == RELATED_EXACT and verdict.exact
    passed(13, "the three-event chains are HP-bisimilar, exactly")


def test_criterion_14_diamond_property():
    checked = 0
    for _, src, c in corpus_systems():
        g, args = explore(src, c.bounds, case_theory(c))
        violations = diamond_check(g, *args)
        assert violations == [], (c.name, src, violations[:1])
        checked += len(g.states)
    assert checked > 500
    passed(14, f"zero diamond violations across all corpus LTSs ({checked} states)")


# every relation's class on every distinct corpus pair, as
# ``python tests/test_acceptance.py`` writes them
GOLDEN_SPECTRUM = Path(__file__).parent / "data" / "spectrum_classes.json"


def corpus_spectrum():
    """Each distinct corpus pair, named by its first case, with its bounds,
    theory and its verdict under every relation."""
    pairs = {}
    for c in load_corpus():
        pairs.setdefault((c.left, c.right, c.theory), c)
    for (left_src, right_src, _), c in pairs.items():
        theory = case_theory(c)
        left, right = parse_process(left_src), parse_process(right_src)
        bounds = c.bounds
        replicated = "!" in left_src or "!" in right_src
        if replicated and c.theory == "dolev-yao":
            bounds = replace(bounds, game_depth=6)
        verdicts = {rel: check(rel, left, right, bounds, theory) for rel in Rel}
        yield c, left, right, bounds, theory, replicated, verdicts


def spectrum_classes(rows) -> str:
    pairs = [
        {"name": c.name, "classes": {rel.value: verdict_class(v) for rel, v in verdicts.items()}}
        for c, *_, verdicts in rows
    ]
    return json.dumps({"pairs": pairs}, indent=2) + "\n"


def test_criterion_15_hierarchy_and_st_oracle():
    rows = list(corpus_spectrum())
    # pairs that each edge, or the reverse of each located-vs-HP non-edge,
    # separates: related under the coarser relation only
    strict = {(finer, coarser): 0 for finer, coarser, _ in ORDER}
    strict[Rel.BISIM_ILOC, Rel.BISIM_HP] = strict[Rel.SIM_IFULL, Rel.SIM_HP] = 0
    replayed = 0
    for c, left, right, bounds, theory, replicated, verdicts in rows:
        related = {rel: v.related for rel, v in verdicts.items()}
        for finer, coarser, _ in ORDER:
            assert not related[finer] or related[coarser], (c.name, finer, coarser)
        for finer, coarser in strict:
            strict[finer, coarser] += related[coarser] and not related[finer]
        if not replicated:
            for rel in (Rel.SIM_ST, Rel.BISIM_ST, Rel.FSIM_ST):
                slow = check_exhaustive(rel, left, right, bounds, theory)
                assert related[rel] == slow.related, (c.name, rel)
                # the oracle's witnesses replay under maximal retention
                if not slow.related:
                    assert witness_replay(slow, left, right, theory), (c.name, rel)
                    replayed += 1
    assert len(rows) == 19 and replayed == 19
    assert len(ORDER) == 19 and sum(proved for *_, proved in ORDER) == 17
    assert all(strict.values()), strict
    # the paper's located-vs-HP distinctions: HP relates pairs that the
    # located relations tell apart
    assert strict[Rel.BISIM_ILOC, Rel.BISIM_HP] == 4 and strict[Rel.SIM_IFULL, Rel.SIM_HP] == 2
    assert spectrum_classes(rows) == GOLDEN_SPECTRUM.read_bytes().decode()
    passed(15, "the declared order holds and is strict corpus-wide on all 13 relations; "
               "maximal retention matches the exhaustive oracle, whose witnesses replay")


def test_spectrum_command_prints_the_golden_row(tmp_path, capsys):
    # the command on the pair of a corpus case at the case's bounds; its
    # timing column is not compared
    case = next(c for c in load_corpus() if c.name == "fresh-vs-hash-bisim-st")
    left, right = tmp_path / "left.pi", tmp_path / "right.pi"
    left.write_text(case.left)
    right.write_text(case.right)
    bounds = "depth=0,static=1,unfold=2,game=10"
    assert main(["spectrum", str(left), str(right), "--bounds", bounds]) == 0
    rows = [line.split()[:2] for line in capsys.readouterr().out.splitlines()]
    assert [name for name, _ in rows] == [rel.value for rel in Rel]
    golden = json.loads(GOLDEN_SPECTRUM.read_text())["pairs"]
    assert dict(rows) == next(row["classes"] for row in golden if row["name"] == case.name)


if __name__ == "__main__":
    # regenerate the golden spectrum after a deliberate change of a class:
    # PYTHONPATH=src python tests/test_acceptance.py
    GOLDEN_SPECTRUM.parent.mkdir(exist_ok=True)
    GOLDEN_SPECTRUM.write_text(spectrum_classes(corpus_spectrum()))
