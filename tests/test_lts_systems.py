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

GOLDEN_SYSTEMS = Path(__file__).parent / "data" / "lts_systems.json"


def corpus_systems():
    """(name, source, bounds, theory name) of each distinct corpus system,
    named by the first case and side that give it."""
    seen = {}
    for c in load_corpus():
        for side in ("left", "right"):
            src = getattr(c, side)
            seen.setdefault((src, c.bounds, c.theory), f"{c.name}/{side}")
    return [(name, src, bounds, theory) for (src, bounds, theory), name in seen.items()]


def _cli(args) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        main(args)
    return out.getvalue()


def system_rows() -> list[dict]:
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for k, (name, src, b, theory) in enumerate(corpus_systems()):
            path = Path(tmp) / f"system{k}.pi"
            path.write_text(src)
            opts = [
                "--theory", theory,
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
