"""Named syntax: walks over messages and processes, capture-avoiding
substitution, alpha-equivalence and structural congruence of states.

Every walk reads a process through ``parts``, the one place that names
each constructor's fields, and rebuilds it through ``remake``.  Bound
names keep their names:
substitution renames a binder apart, to a name ``_r0, _r1, ...`` fresh for
the process and the substituted messages, only when the binder would
capture a name of a substituted message.  Two processes are
alpha-equivalent when a walk over both meets the same constructors and, at
each name, either the same free name or names bound at the same level.
Two states are congruent when some bijection of their top binders makes
them alpha-equivalent, the frames compared as maps; ``congruent`` searches
the bijections.
"""

from latspi.syntax import Bang, In, Match, Mismatch, New, Nil, Out, Par, Sum
from latspi.terms import App, Symbol, Var


# --- messages --------------------------------------------------------------


def app(name: str, *args):
    """The application of the symbol ``name``, of arity ``len(args)``."""
    return App(Symbol(name, len(args)), args)


def names(m) -> frozenset:
    """The names occurring in a message."""
    if isinstance(m, Var):
        return frozenset({m.name})
    if isinstance(m, App):
        return frozenset().union(*map(names, m.args))
    return frozenset()


def msg_symbols(m) -> frozenset:
    """The function symbols occurring in a message."""
    if isinstance(m, App):
        return frozenset({m.fn}).union(*map(msg_symbols, m.args))
    return frozenset()


def rename(m, mapping: dict):
    """``m`` with each name and each alias that ``mapping`` maps replaced by
    its message; a name is keyed by its string, an alias by itself, as in a
    frame or an alias map."""
    if isinstance(m, App):
        return App(m.fn, tuple(rename(a, mapping) for a in m.args))
    return mapping.get(m.name if isinstance(m, Var) else m, m)


# --- names, symbols and priming --------------------------------------------


def parts(p) -> tuple:
    """``(messages, binder, children)`` of a process: the messages it reads
    outside its binder, the name it binds in its children (or ``None``),
    and its children."""
    match p:
        case Nil():
            return (), None, ()
        case New(name=x, body=q):
            return (), x, (q,)
        case In(chan=c, binder=x, body=q):
            return (c,), x, (q,)
        case Out(chan=c, payload=m, body=q):
            return (c, m), None, (q,)
        case Match(lhs=m, rhs=n, body=q) | Mismatch(lhs=m, rhs=n, body=q):
            return (m, n), None, (q,)
        case Par(left=q, right=r) | Sum(left=q, right=r):
            return (), None, (q, r)
        case Bang(body=q):
            return (), None, (q,)
    raise TypeError(p)


def remake(p, msgs, x, kids):
    """``p`` rebuilt from new ``parts``; a replication keeps its fuel."""
    match p:
        case Nil():
            return p
        case New():
            return New(x, *kids)
        case In():
            return In(*msgs, x, *kids)
        case Bang():
            return Bang(*kids, p.fuel)
    return type(p)(*msgs, *kids)


def free_names(p) -> frozenset:
    """The names occurring free in ``p``."""
    msgs, x, kids = parts(p)
    return frozenset().union(*map(free_names, kids)).difference({x}).union(*map(names, msgs))


def bound_names(p) -> list:
    """The names that ``p``'s restrictions and inputs bind, repeats kept."""
    _, x, kids = parts(p)
    return [y for y in [x] if y is not None] + [y for k in kids for y in bound_names(k)]


def all_names(p) -> frozenset:
    """Every name occurring in ``p``, free or bound."""
    msgs, x, kids = parts(p)
    found = frozenset().union(*map(all_names, kids), *map(names, msgs))
    return found if x is None else found | {x}


def symbols(p) -> frozenset:
    """The function symbols occurring in ``p``."""
    msgs, _, kids = parts(p)
    return frozenset().union(*map(symbols, kids), *map(msg_symbols, msgs))


def prime(p, fuel: int):
    """``p`` with every replication given the unfolding budget ``fuel``."""
    msgs, x, kids = parts(p)
    kids = [prime(k, fuel) for k in kids]
    return Bang(*kids, fuel) if isinstance(p, Bang) else remake(p, msgs, x, kids)


# --- substitution ----------------------------------------------------------


def fresh_names(avoid):
    """The names ``_r0, _r1, ...`` outside ``avoid``, each once."""
    i = 0
    while True:
        name = f"_r{i}"
        i += 1
        if name not in avoid:
            yield name


def subst(p, mapping: dict):
    """``p`` with every free occurrence of a name of ``mapping`` replaced by
    its message, binders renamed apart where they would capture."""
    mapping = {x: m for x, m in mapping.items() if m != Var(x)}
    if not mapping:
        return p
    avoid = set(all_names(p)) | set(mapping)
    for m in mapping.values():
        avoid |= names(m)
    return _subst(p, mapping, fresh_names(avoid))


def _subst(p, mapping: dict, fresh):
    msgs, x, kids = parts(p)
    msgs = [rename(m, mapping) for m in msgs]
    if x is not None:
        # the binder shadows its own entry, and is renamed apart when a
        # substituted message names it
        mapping = {y: m for y, m in mapping.items() if y != x}
        if any(x in names(m) for m in mapping.values()):
            z = next(fresh)
            x, mapping = z, {**mapping, x: Var(z)}
    return remake(p, msgs, x, [_subst(k, mapping, fresh) for k in kids])


# --- alpha-equivalence and congruence --------------------------------------


def _same_msg(m, n, left: dict, right: dict) -> bool:
    """Whether ``m`` and ``n`` agree, ``left`` and ``right`` giving the
    level of each bound name: a bound name reads as its level, a free name
    as itself."""
    if isinstance(m, Var):
        return isinstance(n, Var) and left.get(m.name, m.name) == right.get(n.name, n.name)
    if isinstance(m, App):
        return (
            isinstance(n, App)
            and m.fn == n.fn
            and all(_same_msg(a, b, left, right) for a, b in zip(m.args, n.args))
        )
    return m == n


def _same(p, q, left: dict, right: dict, level: int) -> bool:
    """Whether ``p`` and ``q`` are alpha-equivalent under the levels of the
    names bound around them; ``level`` is the next binder's."""
    if type(p) is not type(q) or (isinstance(p, Bang) and p.fuel != q.fuel):
        return False
    (p_msgs, x, p_kids), (q_msgs, y, q_kids) = parts(p), parts(q)
    if not all(_same_msg(m, n, left, right) for m, n in zip(p_msgs, q_msgs)):
        return False
    if x is not None:
        left, right, level = {**left, x: level}, {**right, y: level}, level + 1
    return all(_same(a, b, left, right, level) for a, b in zip(p_kids, q_kids))


def alpha_equal(p, q) -> bool:
    """Whether the processes ``p`` and ``q`` are alpha-equivalent."""
    return _same(p, q, {}, {}, 0)


def _same_state(A, B, left: dict, right: dict) -> bool:
    """Whether the states agree with their top binders at the given
    levels: the frames on every alias, and the bodies."""
    fa, fb = A.frame.mapping, B.frame.mapping
    return (
        fa.keys() == fb.keys()
        and all(_same_msg(m, fb[a], left, right) for a, m in fa.items())
        and _same(A.body, B.body, left, right, len(A.binders))
    )


def alpha_equivalent(A, B) -> bool:
    """Whether the states ``A`` and ``B`` are alpha-equivalent, their top
    binders matched in order."""
    if len(A.binders) != len(B.binders):
        return False
    left = {x: i for i, x in enumerate(A.binders)}
    right = {y: i for i, y in enumerate(B.binders)}
    return _same_state(A, B, left, right)


def congruent(A, B) -> bool:
    """Whether the states ``A`` and ``B`` are structurally congruent: equal
    up to renaming bound names, reordering the top binders and reordering
    the frame.  A name listed twice among the top binders is one binder.

    The bijections of the top binders are tried one binder at a time.  The
    binders not matched yet all read as one level, so a partial bijection
    under which the states already differ has no completion that makes
    them agree, and is dropped."""
    xs, ys = list(dict.fromkeys(A.binders)), list(dict.fromkeys(B.binders))
    if len(xs) != len(ys):
        return False
    A = type(A)(tuple(xs), A.frame, A.body)
    B = type(B)(tuple(ys), B.frame, B.body)

    def search(k: int, left: dict, right: dict) -> bool:
        if not _same_state(A, B, left, right):
            return False
        if k == len(xs):
            return True
        unmatched = [y for y in ys if right[y] == _UNMATCHED]
        return any(search(k + 1, {**left, xs[k]: k}, {**right, y: k}) for y in unmatched)

    return search(0, dict.fromkeys(xs, _UNMATCHED), dict.fromkeys(ys, _UNMATCHED))


# the level of a top binder that a partial bijection does not match yet;
# every other level is a non-negative position
_UNMATCHED = -1
