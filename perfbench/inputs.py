"""Seeded inputs for the benchmark: renamed variants of corpus pairs.

A variant maps every name of a pair to a fresh identifier with one
bijection, the same on both sides and in ``extra_consts``.  Function
symbols (an identifier followed by ``(``), keywords and the default
constant ``w0`` keep their spelling; the reserved ``%``/``_`` names cannot
occur in source text.  The behavioural relations are closed under
bijective renaming, so the hand-written expected class of a corpus case
holds for each of its variants.

The renaming inserts one tag after the first letter of every name:
``a -> aT``, ``r2 -> rT2``.  With one tag for all names of a variant this
keeps the lexicographic order of the names, and their order against
``w0`` and the reserved names unless a name starts with ``w``, so the
enumeration orders inside the program are those of the original pair.
Only the spelling changes, which keeps caches that one operation filled
from answering the next.

The module uses only the standard library and works on any frozen
dataclass with ``left``, ``right`` and ``bounds.extra_consts`` fields, such
as ``latspi.corpus.CorpusCase``.
"""

from __future__ import annotations

import random
import re
import string
from dataclasses import replace

_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_']*")
_KEYWORDS = frozenset({"new", "in", "out", "let"})
_KEPT = frozenset({"w0"})
_TAG_CHARS = string.ascii_lowercase + string.digits
_TAG_LEN = 6

SPECTRUM_CASE = "fresh-vs-hash-sim-hp"


def _idents(text: str):
    """(start, end, name, is_symbol) for each identifier of a source."""
    for m in _IDENT.finditer(text):
        is_symbol = text[m.end():].lstrip().startswith("(")
        yield m.start(), m.end(), m.group(), is_symbol


def names_of(*texts: str) -> set[str]:
    """The identifiers that a renaming changes."""
    return {
        name
        for text in texts
        for _, _, name, is_symbol in _idents(text)
        if not is_symbol and name not in _KEYWORDS and name not in _KEPT
    }


def symbols_of(*texts: str) -> set[str]:
    return {name for text in texts for _, _, name, is_symbol in _idents(text) if is_symbol}


def rename_text(text: str, mapping: dict[str, str]) -> str:
    out = []
    pos = 0
    for start, end, name, is_symbol in _idents(text):
        if not is_symbol and name in mapping:
            out.append(text[pos:start])
            out.append(mapping[name])
            pos = end
    out.append(text[pos:])
    return "".join(out)


def tagged(name: str, tag: str) -> str:
    return name[0] + tag + name[1:]


class Renamer:
    """Makes renamed variants from one seed; no tag repeats within a run."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.used: set[str] = set()

    def _fresh_tag(self, names: set[str], forbidden: set[str]) -> str:
        while True:
            tag = "".join(self.rng.choice(_TAG_CHARS) for _ in range(_TAG_LEN))
            if tag not in self.used and not any(tagged(n, tag) in forbidden for n in names):
                self.used.add(tag)
                return tag

    def variant(self, case):
        """A copy of ``case`` with every name renamed; ``expected`` is kept."""
        extra = tuple(case.bounds.extra_consts)
        texts = (case.left, case.right, *extra)
        names = names_of(*texts)
        tag = self._fresh_tag(names, symbols_of(*texts) | _KEYWORDS | _KEPT)
        mapping = {n: tagged(n, tag) for n in names}
        return replace(
            case,
            left=rename_text(case.left, mapping),
            right=rename_text(case.right, mapping),
            bounds=replace(case.bounds, extra_consts=tuple(mapping.get(c, c) for c in extra)),
        )


# --- case lists of the workloads ---------------------------------------------


def corpus_cases(cases: list, theory: str) -> list:
    return [c for c in cases if c.theory == theory]


def spectrum_case(cases: list):
    return next(c for c in cases if c.name == SPECTRUM_CASE)


def diamond_systems(cases: list) -> list[tuple]:
    """(case, side) for each distinct (source, bounds, theory) system of the
    corpus, in corpus order, as ``scripts/check_diamonds.py`` visits them."""
    seen = set()
    out = []
    for case in cases:
        for side in ("left", "right"):
            key = (getattr(case, side), case.bounds, case.theory)
            if key not in seen:
                seen.add(key)
                out.append((case, side))
    return out
