"""Attacker knowledge: recipes, satisfaction, and static equivalence.

A recipe is a message built from disclosed aliases, public names, and the
signature's function symbols.  A frame satisfies an equality of recipes
when both sides normalise to the same message after substituting the frame.
Static equivalence of two frames (up to an alias bijection) is decided over
the finite recipe universe of a given depth by partitioning recipes by
their normal form on each side and comparing the partitions.

Aliases are opaque and rewrite rules never mention them, so the recipe
lists of two domains of one size are one list with the aliases renamed by
their sorted position.  ``recipe_template`` enumerates that list once per
(domain size, consts, signature, depth), over placeholder aliases in
position order, and ``recipe_enum`` renames it into a domain.  A static
test reads the frames only through their images: the left frame's in
sorted-alias order, the right frame's in the order ``rho`` takes the left
aliases to, an alias outside ``rho``'s domain read as itself.  So the
game's bijections and the empty map of the command line's
``static-equiv`` take one path.  The test partitions the template by each
image tuple, the i-th placeholder standing for the i-th image.

A partition does not change when the names outside ``consts`` are renamed
injectively in the images: recipes mention no such name and rewriting
commutes with the renaming.  So a partition depends only on the template,
which fixes ``consts``, and on the images' class key (``_class_key``): the
images with every name outside ``consts`` numbered by first occurrence.
A name may be private under one ``consts`` and public under another; the
two have different templates.

In a partition of a template, two recipes share a block when their
substituted normal forms are equal.  A ``terms.NormalForms`` table interns
each distinct normal form of one theory as a small integer and memoizes,
for every symbol applied to interned arguments, the id of the result's
normal form, so a recipe's id under the images follows from its arguments'
ids without rebuilding or hashing the substituted term.  The table turns
the ids over the template into a pattern, giving for each recipe the
position of the first recipe in its block, and interns the pattern as an
id, once per (template, class key), from the first images with that key.
Two frames are statically equivalent exactly when their partition ids are
equal.  When they differ, the two patterns are walked in enumeration order,
and the first recipe whose first block-mate on one side lies in another
block on the other side gives the witness: the pair that comparing normal
forms recipe by recipe finds first, renamed from the template into the left
frame's domain.  The tables are the theory's, like its recipe lists and
transitions: calls sharing one ``Theory`` share them, a check and its
replay included, and they live as long as the theory does.

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
    ResourceLimitExceeded,
    Symbol,
    Theory,
    Var,
    apply_msg_subst,
    msg_key,
    nesting_limited,
)

# most recipes ``recipe_template`` lists before raising ``RecipeLimitExceeded``
RECIPE_LIMIT = 200_000


class RecipeLimitExceeded(ResourceLimitExceeded):
    pass


def placeholders(size: int) -> tuple[Alias, ...]:
    """The aliases a template of ``size`` aliases is enumerated over, in
    position order.  Their stems are not identifiers, so no process or
    frame file names them."""
    return tuple(Alias("", f"#{i}") for i in range(size))


def recipe_template(
    size: int,
    consts: frozenset[str],
    signature: tuple[Symbol, ...],
    depth: int,
    theory: Theory,
) -> list[Message]:
    """All recipes over ``placeholders(size)`` and ``consts`` up to the
    given application depth, deduplicated modulo the theory (aliases treated
    as opaque constants).  The first recipe in enumeration order is kept as
    the representative of its class, so the list starts with the
    placeholders, and every application's arguments are earlier entries."""
    cache = theory.recipes
    cache_key = (size, frozenset(consts), tuple(signature), depth)
    hit = cache.get(cache_key)
    if hit is not None:
        return hit
    atoms: list[Message] = list(placeholders(size))
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


def recipe_enum(
    aliases: frozenset[Alias],
    consts: frozenset[str],
    signature: tuple[Symbol, ...],
    depth: int,
    theory: Theory,
) -> list[Message]:
    """All recipes up to the given application depth, deduplicated modulo
    the theory (aliases treated as opaque constants).  The first recipe in
    enumeration order is kept as the representative of its class.  The list
    is the template of the domain's size with the i-th placeholder replaced
    by the i-th alias in sorted order; each application is rebuilt from its
    arguments' renamed entries, so they stay entries of the list."""
    cache = theory.recipes
    cache_key = (frozenset(aliases), frozenset(consts), tuple(signature), depth)
    hit = cache.get(cache_key)
    if hit is not None:
        return hit
    domain = sorted(aliases, key=msg_key)
    template = recipe_template(len(domain), consts, signature, depth, theory)
    renamed = {id(p): a for p, a in zip(template, domain)}
    out: list[Message] = list(domain)
    for r in template[len(domain) :]:
        if isinstance(r, App):
            renamed[id(r)] = App(r.fn, tuple([renamed.get(id(a), a) for a in r.args]))
            r = renamed[id(r)]
        out.append(r)
    cache[cache_key] = out
    return out


def satisfies(frame, m: Message, n: Message, theory: Theory) -> bool:
    """Whether the frame satisfies the recipe equality ``m = n``."""
    return theory.equal(apply_msg_subst(m, frame), apply_msg_subst(n, frame))


@dataclass(frozen=True)
class StaticWitness:
    m: Message
    n: Message
    holds_left: bool
    holds_right: bool


# --- static tests ----------------------------------------------------------


def _encode(m: Message, consts: frozenset[str], numbers: dict):
    """``m`` with every name outside ``consts`` replaced by its number in
    ``numbers``, a name met first numbered next, and an application encoded
    as ``(symbol, *arguments)``."""
    kind = type(m)
    if kind is App:
        return (m.fn, *[_encode(a, consts, numbers) for a in m.args])
    if kind is Var and m.name not in consts:
        return numbers.setdefault(m, len(numbers))
    return m


def _class_key(images: tuple, consts: frozenset[str]) -> tuple:
    """The images with every name outside ``consts`` numbered by first
    occurrence (``_encode``): equal for two image tuples exactly when one
    renames the other's names outside ``consts`` injectively.  A
    module-level encoder, not a recursive closure, so that keying leaves no
    reference cycle for the cycle collector."""
    numbers: dict = {}
    return tuple([_encode(m, consts, numbers) for m in images])


def _scan(images_a: tuple, images_b: tuple, template: list, consts, theory: Theory, both_directions):
    """``(j, k, holds_left, holds_right)`` for the first template recipes
    ``j < k`` whose equality holds under one image tuple and not under the
    other, or ``None`` when the two partition the template alike."""
    table, normalize = theory.normal_forms, theory.normalize
    part_a = table.partition(template, _class_key(images_a, consts), images_a, normalize)
    part_b = table.partition(template, _class_key(images_b, consts), images_b, normalize)
    if part_a == part_b:
        return None
    pat_a, pat_b = table.patterns[part_a], table.patterns[part_b]
    for k, (ja, jb) in enumerate(zip(pat_a, pat_b)):
        # ``ja`` is the first recipe equal to ``k`` on the left: the pair
        # holds on the left only when the right splits it; so for ``jb``
        if ja < k and pat_b[ja] != jb:
            return ja, k, True, False
        if both_directions and jb < k and pat_a[jb] != ja:
            return jb, k, False, True
    return None


def _static_test(frame_a, frame_b, rho, consts, signature, depth, theory, both_directions):
    aliases = list(frame_a.mapping)
    template = recipe_template(len(aliases), consts, signature, depth, theory)
    images_a = tuple(frame_a.mapping.values())
    # the right images in the order ``rho`` takes the left aliases to; an
    # alias outside ``rho``'s domain, or the right frame's, is read as itself
    mapped, right = rho.mapping.get, frame_b.mapping.get
    images_b = tuple([right(b, b) for b in [mapped(a, a) for a in aliases]])
    found = _scan(images_a, images_b, template, consts, theory, both_directions)
    if found is None:
        return None
    j, k, holds_left, holds_right = found
    rename = AliasMap(dict(zip(placeholders(len(aliases)), aliases)))
    return StaticWitness(rename(template[j]), rename(template[k]), holds_left, holds_right)


@nesting_limited
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
    the deterministic enumeration order.  A ``rho`` mapping as many aliases
    as each frame has must map the left frame's domain onto the right
    frame's; a smaller one is read as the identity outside its domain."""
    return _static_test(frame_a, frame_b, rho, consts, signature, depth, theory, True)


@nesting_limited
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
    return _static_test(frame_a, frame_b, rho, consts, signature, depth, theory, False)
