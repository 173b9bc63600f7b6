"""The benchmark's workloads: rounds of checked operations on corpus variants.

A workload hands out rounds.  A round is a list of operations on fresh
variants; each operation returns whether its outputs were correct.  Every
run covers whole rounds, so each run has the same mix of operations.

Calls into the package go through module attributes (``games.check``, not
a name imported from ``games``), so the tracer's wrappers see them.
"""

from __future__ import annotations

from functools import partial

from latspi import corpus, games, lts, syntax

import inputs

# coarsest first, as scripts/spectrum.py decides them
SPECTRUM_ORDER = (
    "presim-i", "sim-i", "bisim-i",
    "sim-st", "bisim-st", "fsim-st",
    "sim-hp", "bisim-hp", "fsim-hp",
    "sim-iloc", "bisim-iloc", "sim-ifull", "bisim-ifull",
)

# (stronger, weaker): a related verdict for the first implies one for the second
HIERARCHY = (
    ("sim-hp", "sim-st"),
    ("sim-st", "sim-i"),
    ("sim-i", "presim-i"),
    ("bisim-i", "sim-i"),
    ("bisim-st", "sim-st"),
    ("bisim-hp", "sim-hp"),
    ("bisim-iloc", "sim-iloc"),
    ("bisim-ifull", "sim-ifull"),
    ("fsim-st", "sim-st"),
    ("fsim-hp", "sim-hp"),
)


class Workload:
    # peak memory is read after this many rounds, a fixed amount of work,
    # so that a faster program is not charged for the cache growth of the
    # extra rounds it fits into a run
    memory_rounds = 1

    def round(self) -> list:
        """Operations on fresh variants, each returning whether it was correct."""
        raise NotImplementedError

    def check_round(self, oks: list[bool]) -> list[bool]:
        """Checks across the operations of the round just run."""
        return oks

    def post_check(self) -> int:
        """Operations found wrong by checks made after the timed phase."""
        return 0


class CorpusPass(Workload):
    """One operation checks every case of a list cold and replays each
    distinguishing witness."""

    def __init__(self, cases: list, renamer: inputs.Renamer, memory_rounds: int):
        self.cases = cases
        self.renamer = renamer
        self.memory_rounds = memory_rounds

    def round(self):
        return [partial(self.run_pass, [self.renamer.variant(c) for c in self.cases])]

    @staticmethod
    def run_pass(variants) -> bool:
        return all([case_ok(case) for case in variants])


def case_ok(case) -> bool:
    """The verdict class is the hand-written one and a distinguishing
    witness replays."""
    result, _ = corpus.run_case(case)
    if result.error is not None or result.actual != case.expected:
        return False
    return result.actual != corpus.DISTINGUISHED or result.replay_ok is True


class Spectrum(Workload):
    """All relations on one renamed pair; one operation is one decision and
    its replay.  The decisions of a round share one theory, as
    ``scripts/spectrum.py`` does."""

    memory_rounds = 20

    def __init__(self, cases: list, renamer: inputs.Renamer):
        self.case = inputs.spectrum_case(cases)
        self.renamer = renamer
        # hand-written classes of the corpus cases on this very pair
        self.expected = {
            c.relation.value: c.expected
            for c in cases
            if (c.left, c.right, c.bounds, c.theory)
            == (self.case.left, self.case.right, self.case.bounds, self.case.theory)
        }
        self.classes: dict[str, str] = {}

    def round(self):
        case = self.renamer.variant(self.case)
        p = syntax.parse_process(case.left)
        q = syntax.parse_process(case.right)
        theory = corpus.case_theory(case)
        self.classes = {}
        return [partial(self.decide, rel, p, q, case.bounds, theory) for rel in SPECTRUM_ORDER]

    def decide(self, rel, p, q, bounds, theory) -> bool:
        verdict = games.check(games.Rel(rel), p, q, bounds, theory)
        cls = corpus.verdict_class(verdict)
        self.classes[rel] = cls
        if cls == corpus.DISTINGUISHED and not games.witness_replay(verdict, p, q, theory):
            return False
        return self.expected.get(rel, cls) == cls

    def check_round(self, oks):
        # a decision that raised has no class and is already a failed operation
        related = {rel: cls != corpus.DISTINGUISHED for rel, cls in self.classes.items()}
        if any(related.get(a) and related.get(b) is False for a, b in HIERARCHY):
            return [False] * len(oks)
        return oks


class Diamonds(Workload):
    """One operation builds the reachable transition system of one corpus
    system and checks the diamond property on it."""

    memory_rounds = 3

    def __init__(self, cases: list, renamer: inputs.Renamer):
        self.systems = inputs.diamond_systems(cases)
        self.renamer = renamer
        self.shapes: list[tuple[int, int, int]] = []  # (system, states, edges)

    def round(self):
        return [
            partial(self.check_system, i, self.renamer.variant(case), side)
            for i, (case, side) in enumerate(self.systems)
        ]

    @staticmethod
    def explore(case, side):
        theory = corpus.case_theory(case)
        bounds = case.bounds
        p = syntax.prime_bangs(syntax.parse_process(getattr(case, side)), bounds.repl_unfold)
        signature = games.build_signature(theory, p)
        consts = lts.default_consts(p) | frozenset(bounds.extra_consts)
        graph = lts.reachable_lts(syntax.from_process(p), bounds, theory, signature, consts)
        violations = lts.diamond_check(graph, bounds, theory, signature, consts)
        return graph, violations

    def check_system(self, i, case, side) -> bool:
        graph, violations = self.explore(case, side)
        ok = not violations and not graph.budget_exhausted
        if ok:
            self.shapes.append((i, len(graph.states), len(graph.edges)))
        return ok

    def post_check(self) -> int:
        """A renamed system has as many states and edges as the original."""
        originals = {}
        wrong = 0
        for i, states, edges in self.shapes:
            if i not in originals:
                graph, _ = self.explore(*self.systems[i])
                originals[i] = (len(graph.states), len(graph.edges))
            wrong += originals[i] != (states, edges)
        return wrong


WORKLOADS = {
    "corpus-empty": lambda cases, r: CorpusPass(inputs.corpus_cases(cases, "empty"), r, 40),
    "corpus-dy": lambda cases, r: CorpusPass(inputs.corpus_cases(cases, "dolev-yao"), r, 1),
    "spectrum": Spectrum,
    "diamonds": Diamonds,
}


def setup(name: str, seed: int) -> tuple[Workload, list]:
    """The set-up a run makes before its first timed operation: load the
    corpus, pick the workload's cases and make the first round's inputs."""
    workload = WORKLOADS[name](corpus.load_corpus(), inputs.Renamer(seed))
    return workload, workload.round()
