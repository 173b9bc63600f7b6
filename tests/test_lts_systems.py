"""The reachable transition system of every distinct corpus system against a
golden file.

A system is a process source of a corpus case with the case's bounds and
theory; the 34 distinct ones are visited in corpus order.  For each, the
golden file keeps the state and edge counts, the ``tainted`` and
``budget_exhausted`` flags and the number of diamond violations, and the
SHA-256 of ``lats-pi lts --format json``, so that a change to the printed
states or edges of any system shows here, not only its shape.  Regenerate
it after a deliberate change: ``PYTHONPATH=src python tests/test_lts_systems.py``.
"""

import hashlib
import io
import json
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from latspi.cli import main
from latspi.corpus import load_corpus
from latspi.games import build_signature
from latspi.lts import default_consts, reachable_lts
from latspi.syntax import from_process, parse_process, prime_bangs

GOLDEN_SYSTEMS = Path(__file__).parent / "data" / "lts_systems.json"


def corpus_systems():
    """(name, source, case) of each distinct corpus system, named by the
    first case and side that give it; the system has that case's bounds and
    theory preset (``corpus.case_theory``)."""
    seen = {}
    for c in load_corpus():
        for side in ("left", "right"):
            src = getattr(c, side)
            seen.setdefault((src, c.bounds, c.theory), (f"{c.name}/{side}", c))
    return [(name, src, case) for (src, _, _), (name, case) in seen.items()]


def explore(src, bounds, theory):
    """The graph that ``src``, primed at ``bounds``, reaches on ``theory``,
    and the arguments ``(bounds, theory, signature, consts)`` that its
    transitions and ``diamond_check`` take."""
    p = prime_bangs(parse_process(src), bounds.repl_unfold)
    consts = default_consts(p) | frozenset(bounds.extra_consts)
    args = (bounds, theory, build_signature(theory, p), consts)
    return reachable_lts(from_process(p), *args), args


def _cli(args) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        main(args)
    return out.getvalue()


def system_rows() -> list[dict]:
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for k, (name, src, case) in enumerate(corpus_systems()):
            path = Path(tmp) / f"system{k}.pi"
            path.write_text(src)
            b = case.bounds
            opts = [
                "--theory", case.theory,
                "--bounds", f"depth={b.recipe_depth},static={b.static_depth},"
                f"unfold={b.repl_unfold},game={b.game_depth},budget={b.state_budget}",
                "--format", "json",
            ]
            lts = _cli(["lts", str(path), *opts])
            graph = json.loads(lts)
            diamonds = json.loads(_cli(["diamonds", str(path), *opts]))
            rows.append({
                "name": name,
                "states": len(graph["states"]),
                "edges": len(graph["edges"]),
                "tainted": graph["tainted"],
                "budget_exhausted": graph["budget_exhausted"],
                "violations": len(diamonds["violations"]),
                "lts_sha256": hashlib.sha256(lts.encode()).hexdigest(),
            })
    return rows


def systems_json(rows) -> str:
    return json.dumps({"systems": rows}, indent=2) + "\n"


def test_corpus_systems_match_the_golden_file():
    rows = system_rows()
    assert len(rows) == 34
    assert systems_json(rows) == GOLDEN_SYSTEMS.read_bytes().decode()


if __name__ == "__main__":
    GOLDEN_SYSTEMS.parent.mkdir(exist_ok=True)
    GOLDEN_SYSTEMS.write_text(systems_json(system_rows()))
