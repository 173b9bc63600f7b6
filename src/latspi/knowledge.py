"""Attacker knowledge: recipes, satisfaction, and static equivalence.

A recipe is a message built from disclosed aliases, public names, and the
signature's function symbols.  A frame satisfies an equality of recipes
when both sides normalise to the same message after substituting the frame.
Static equivalence of two frames (up to an alias bijection) is decided over
the finite recipe universe of a given depth by partitioning recipes by
their normal form on each side and comparing the partitions.

In a frame's partition of a recipe list, two recipes share a block when
their substituted normal forms are equal.  A ``terms.NormalForms`` table
interns each distinct normal form of one theory as a small integer and
memoizes, for every symbol applied to interned arguments, the id of the
result's normal form, so a recipe's id under a frame follows from its
arguments' ids without rebuilding or hashing the substituted term.  The
table turns a frame's ids over the list into a pattern, giving for each
recipe the position of the first recipe in its block, and interns the
pattern as an id, once per (recipe list, frame).  Two frames are
statically equivalent exactly when their partition ids are equal.  When
they differ, the two patterns are walked in enumeration order, and the
first recipe whose first block-mate on one side lies in another block on
the other side gives the witness: the pair that comparing normal forms
recipe by recipe finds first.  The table is the theory's, like its recipe
lists and transitions: calls sharing one ``Theory`` share them, a check
and its replay included, and they live as long as the theory does.

For a terminating theory the verdict and the witness are those of
normalising each substituted recipe whole.  The table normalises a recipe
in pieces, one application over normal-form arguments at a time, and each
piece has its own rewrite step budget; so with rules that do not
terminate, ``RewriteBudgetExceeded`` can be raised where a whole term
stayed within the budget, or the other way round.  A partition normalises
every recipe of the list, with no early stop at a witness, so such rules
can also raise it where a scan stopping at the first witness would have
returned before reaching the offending recipe.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .terms import (
    Alias,
    AliasMap,
    App,
    Message,
    Substitution,
    Symbol,
    Theory,
    Var,
    apply_msg_subst,
    msg_key,
)

# most recipes ``recipe_enum`` lists before raising ``RecipeLimitExceeded``
RECIPE_LIMIT = 200_000


def recipe_enum(
    aliases: frozenset[Alias],
    consts: frozenset[str],
    signature: tuple[Symbol, ...],
    depth: int,
    theory: Theory,
) -> list[Message]:
    """All recipes up to the given application depth, deduplicated modulo
    the theory (aliases treated as opaque constants).  The first recipe in
    enumeration order is kept as the representative of its class."""
    cache = theory.recipes
    cache_key = (frozenset(aliases), frozenset(consts), tuple(signature), depth)
    hit = cache.get(cache_key)
    if hit is not None:
        return hit
    atoms: list[Message] = sorted(aliases, key=msg_key)
    atoms += [Var(c) for c in sorted(consts)]
    seen: set = set()
    out: list[Message] = []

    def add(r: Message) -> None:
        nf = theory.normalize(r)
        if nf not in seen:
            seen.add(nf)
            out.append(r)
            if len(out) > RECIPE_LIMIT:
                raise RecipeLimitExceeded(f"more than {RECIPE_LIMIT} recipes at depth {depth}")

    for a in atoms:
        add(a)
    symbols = sorted(set(signature), key=lambda s: (s.name, s.arity))
    for _ in range(depth):
        start = len(out)
        pool = list(out)
        for sym in symbols:
            if sym.arity == 0:
                continue
            for args in product(pool, repeat=sym.arity):
                add(App(sym, args))
        if len(out) == start:
            break
    cache[cache_key] = out
    return out


class RecipeLimitExceeded(Exception):
    pass


def satisfies(frame, m: Message, n: Message, theory: Theory) -> bool:
    """Whether the frame satisfies the recipe equality ``m = n``."""
    return theory.equal(apply_msg_subst(m, frame), apply_msg_subst(n, frame))


@dataclass(frozen=True)
class StaticWitness:
    m: Message
    n: Message
    holds_left: bool
    holds_right: bool


def _renamed_frame(frame, rho: AliasMap) -> Substitution:
    """The frame seen through ``rho``: ``r`` under the result is ``rho(r)``
    under ``frame``."""
    image = {}
    for a in frame.domain | rho.domain:
        b = rho.mapping.get(a, a)
        image[a] = frame.mapping.get(b, b)
    return Substitution(image)


def _scan(
    frame_a,
    frame_b,
    rho: AliasMap,
    recipes,
    theory: Theory,
    both_directions: bool,
) -> StaticWitness | None:
    table = theory.normal_forms
    part_a = table.partition(recipes, frame_a, theory.normalize)
    part_b = table.partition(recipes, _renamed_frame(frame_b, rho), theory.normalize)
    if part_a == part_b:
        return None
    pat_a, pat_b = table.patterns[part_a], table.patterns[part_b]
    for k, (ja, jb) in enumerate(zip(pat_a, pat_b)):
        # ``ja`` is the first recipe equal to ``k`` on the left: the pair
        # holds on the left only when the right splits it; so for ``jb``
        if ja < k and pat_b[ja] != jb:
            return StaticWitness(recipes[ja], recipes[k], True, False)
        if both_directions and jb < k and pat_a[jb] != ja:
            return StaticWitness(recipes[jb], recipes[k], False, True)
    return None


def static_equiv_witness(
    frame_a,
    frame_b,
    rho: AliasMap,
    consts: frozenset[str],
    signature: tuple[Symbol, ...],
    depth: int,
    theory: Theory,
) -> StaticWitness | None:
    """A recipe pair separating the frames up to ``rho``, or ``None`` when
    they are statically equivalent at this depth.  The witness is minimal in
    the deterministic enumeration order."""
    recipes = recipe_enum(frame_a.domain, consts, signature, depth, theory)
    return _scan(frame_a, frame_b, rho, recipes, theory, True)


def static_impl_witness(
    frame_a,
    frame_b,
    rho: AliasMap,
    consts: frozenset[str],
    signature: tuple[Symbol, ...],
    depth: int,
    theory: Theory,
) -> StaticWitness | None:
    """One-directional variant: a pair satisfied by the left frame but not
    by the right, or ``None``."""
    recipes = recipe_enum(frame_a.domain, consts, signature, depth, theory)
    return _scan(frame_a, frame_b, rho, recipes, theory, False)
