"""Attacker knowledge: recipes over a frame, and the static test.

A recipe is built from the frame's aliases, the public names and the
signature's function symbols.  ``recipes`` lists them over a domain's own
aliases, nothing shared between domains, keeping the first recipe of each
class modulo the theory.  ``static_scan`` normalises every substituted
recipe whole and reports the first recipe pair whose equality holds on one
side only.
"""

from itertools import product

from latspi.knowledge import StaticWitness
from latspi.terms import App, Var

from .syntax import rename


def recipes(aliases, consts, signature, depth: int, theory) -> list:
    """The recipes over ``aliases`` and ``consts`` up to application depth
    ``depth``, one per class modulo the theory (aliases opaque): the atoms
    first, aliases in sorted order, then each round's applications of the
    sorted symbols to the recipes listed before the round."""
    atoms = sorted(aliases, key=lambda a: (a.prefix, a.stem))
    atoms += [Var(c) for c in sorted(consts)]
    seen, out = set(), []

    def add(r):
        nf = theory.normalize(r)
        if nf not in seen:
            seen.add(nf)
            out.append(r)

    for a in atoms:
        add(a)
    for _ in range(depth):
        start, pool = len(out), list(out)
        for sym in sorted(set(signature), key=lambda s: (s.name, s.arity)):
            for args in product(pool, repeat=sym.arity):
                add(App(sym, args))
        if len(out) == start:
            break
    return out


def static_scan(frame_a, frame_b, rho, recipe_list, theory, both_directions: bool):
    """The witness ``(m, n, holds_left, holds_right)`` of the first recipes
    ``m`` before ``n`` in ``recipe_list`` whose equality holds under ``frame_a``
    and not under ``frame_b`` read through the alias map ``rho``, or, when
    ``both_directions``, the other way round; ``None`` when there is none."""
    rep_a: dict = {}
    rep_b: dict = {}
    for r in recipe_list:
        nf_a = theory.normalize(rename(r, frame_a.mapping))
        nf_b = theory.normalize(rename(rename(r, rho.mapping), frame_b.mapping))
        prev = rep_a.get(nf_a)
        if prev is None:
            rep_a[nf_a] = (r, nf_b)
        elif prev[1] != nf_b:
            return StaticWitness(prev[0], r, True, False)
        if both_directions:
            prev = rep_b.get(nf_b)
            if prev is None:
                rep_b[nf_b] = (r, nf_a)
            elif prev[1] != nf_a:
                return StaticWitness(prev[0], r, False, True)
    return None
