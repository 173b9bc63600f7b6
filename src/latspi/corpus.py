"""Example corpus: process pairs with expected verdict classes.

Each case names two process sources, a relation, exploration bounds, a
rewriting theory preset, and the expected verdict class: exactly related,
related within bounds only, or distinguished.  The runner executes every
case, cross-checks distinguishing witnesses by replay, and produces a
deterministic machine-readable report.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, fields
from importlib import resources

from .games import Rel, Verdict, check, witness_replay
from .lts import ExplorationBounds, checked_bounds
from .syntax import parse_process
from .terms import Theory, dolev_yao

RELATED_EXACT = "RELATED_EXACT"
RELATED_BOUNDED = "RELATED_BOUNDED"
DISTINGUISHED = "DISTINGUISHED"
CLASSES = (RELATED_EXACT, RELATED_BOUNDED, DISTINGUISHED)
THEORIES = ("empty", "dolev-yao")


@dataclass(frozen=True)
class CorpusCase:
    name: str
    left: str
    right: str
    relation: Rel
    expected: str
    bounds: ExplorationBounds
    theory: str = "empty"  # "empty" or "dolev-yao"


def case_theory(case: CorpusCase) -> Theory:
    """A new theory per call, so that each case has caches of its own."""
    if case.theory == "dolev-yao":
        return dolev_yao()
    if case.theory == "empty":
        return Theory(())
    raise ValueError(f"unknown theory preset: {case.theory}")


# a corpus file names bounds by their field names
_BOUND_KEYS = {f.name: f.name for f in fields(ExplorationBounds)}


def bounds_from_dict(d: dict) -> ExplorationBounds:
    """Bounds from a case's ``bounds`` object, checked as ``--bounds`` is."""
    if not isinstance(d, dict):
        raise ValueError(f"bounds are not a JSON object: {d!r}")
    return ExplorationBounds(**checked_bounds(d, _BOUND_KEYS))


_CASE_FIELDS = ("name", "left", "right", "relation", "expected")
_OPTIONAL_FIELDS = ("bounds", "theory")


def _one_of(field: str, value, allowed) -> None:
    if value not in allowed:
        raise ValueError(f"field {field!r} must be one of {', '.join(allowed)}, not {value!r}")


def case_from_dict(d: dict) -> CorpusCase:
    """A case from its JSON object; a missing or malformed field or bound
    raises ``ValueError`` naming the case and the field or bound."""
    if not isinstance(d, dict):
        raise ValueError(f"corpus case is not a JSON object: {d!r}")
    name = d.get("name", "<unnamed>")
    for field in _CASE_FIELDS:
        if field not in d:
            raise ValueError(f"corpus case {name!r}: missing field {field!r}")
    for field in d:
        if field not in _CASE_FIELDS + _OPTIONAL_FIELDS:
            raise ValueError(f"corpus case {name!r}: unknown field {field!r}")
    theory = d.get("theory", "empty")
    try:
        _one_of("relation", d["relation"], [r.value for r in Rel])
        _one_of("expected", d["expected"], CLASSES)
        _one_of("theory", theory, THEORIES)
        bounds = bounds_from_dict(d.get("bounds", {}))
    except ValueError as exc:
        raise ValueError(f"corpus case {name!r}: {exc}") from None
    return CorpusCase(
        name=d["name"],
        left=d["left"],
        right=d["right"],
        relation=Rel(d["relation"]),
        expected=d["expected"],
        bounds=bounds,
        theory=theory,
    )


def load_corpus(path: str | None = None) -> list[CorpusCase]:
    """The built-in corpus, or the cases stored in a JSON file."""
    if path is None:
        text = resources.files(__package__).joinpath("corpus_data/corpus.json").read_text()
    else:
        with open(path) as f:
            text = f.read()
    data = json.loads(text)
    if not isinstance(data, dict) or not isinstance(data.get("cases"), list):
        raise ValueError("corpus file must be a JSON object with a 'cases' list")
    return [case_from_dict(d) for d in data["cases"]]


def verdict_class(v: Verdict) -> str:
    if not v.related:
        return DISTINGUISHED
    return RELATED_EXACT if v.exact else RELATED_BOUNDED


@dataclass
class CaseResult:
    name: str
    expected: str
    actual: str
    ok: bool
    replay_ok: bool | None
    seconds: float
    error: str | None = None


def run_case(case: CorpusCase) -> tuple[CaseResult, Verdict | None]:
    t0 = time.perf_counter()
    try:
        left = parse_process(case.left)
        right = parse_process(case.right)
        theory = case_theory(case)
        verdict = check(case.relation, left, right, case.bounds, theory)
        actual = verdict_class(verdict)
        replay_ok = None
        if actual == DISTINGUISHED:
            replay_ok = witness_replay(verdict, left, right, theory)
        ok = actual == case.expected and replay_ok in (None, True)
        return (
            CaseResult(case.name, case.expected, actual, ok, replay_ok, time.perf_counter() - t0),
            verdict,
        )
    except Exception as exc:  # a broken case is a failure, not a crash
        return (
            CaseResult(
                case.name, case.expected, "ERROR", False, None, time.perf_counter() - t0, repr(exc)
            ),
            None,
        )


def run_corpus(path: str | None = None) -> dict:
    """Run corpus cases and report pass/fail per case with timings."""
    results = [run_case(case)[0] for case in load_corpus(path)]
    return {
        "total": len(results),
        "passed": sum(1 for r in results if r.ok),
        "failed": sum(1 for r in results if not r.ok),
        "cases": [asdict(r) for r in results],
    }
