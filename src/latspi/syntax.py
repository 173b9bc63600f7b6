"""Process syntax, parsing, and structural congruence.

Processes follow a guarded-choice applied pi-calculus: parallel composition,
name restriction, replication, and guards built from input and output
prefixes, equality and disequality tests, and binary choice.  Extended
processes pair a plain process with a frame (an alias substitution) under a
list of top-level restrictions.

Two reserved namespaces keep renaming hygienic: canonical binders are named
``%0, %1, ...``, and the fresh names ``_0, _1, ...`` come only from
capture-avoiding substitution (``subst_proc``) and from ``lts._close``,
which renames apart two copies of a replicated body that synchronise.
``lts`` reserves one more name, ``%in``, for the bound variable of an input
firing that it keys once for all payloads.  None is accepted by the parser,
so user-level names never collide with machine-chosen ones.

Processes are ``terms.Node`` values, as messages are: immutable trees,
hashed and compared structurally, each stored as the tuple ``(class name,
*fields)`` so that hashing and equality run in C.  Two classes with the
same fields, such as ``Par`` and ``Sum`` or ``Match`` and ``Mismatch``,
never compare equal.  Only the module defining a node class indexes its
fields, through its layout; other code reads them by name.

Every walk over the syntax (names, symbols, substitution, priming,
canonical forms) is one loop over the ``layout`` that each process class
declares: ``(msgs, binder, kids)``, the positions of the messages the node
reads outside its binder, of the name it binds in its children (or
``None``), and of its children in source order.  A walk copies a node's
fields, replaces those the layout lists, and rebuilds the node with
``tuple.__new__(cls, fields)``, so a field the layout leaves out, such as a
replication's fuel, carries over.  Only ``Nil`` has no children.  Printing,
whose concrete syntax differs per constructor, and the transition rules in
``lts`` keep their own per-constructor cases.

``congruence_key`` numbers the top binders in order of first use, in the
sorted frame and then in the body, in the same walk that renames them: its
message renaming (``terms.rename_first_use``) names a top binder ``%i``
when a lookup first meets it unshadowed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import count
from operator import itemgetter

from .terms import (
    ID,
    App,
    Message,
    NestingLimitExceeded,
    Node,
    Substitution,
    Symbol,
    Var,
    free_vars,
    msg_symbols,
    nesting_limited,
    rename_first_use,
    rename_vars,
)


class ParseError(Exception):
    pass


class ParseDepthExceeded(NestingLimitExceeded):
    """The input nests deeper than the parser can recurse."""


class Process(Node):
    """A process node, walked through its class's ``layout`` (see the module
    docstring)."""

    __slots__ = ()


class Nil(Process):
    __slots__ = ()
    layout = ((), None, ())

    def __new__(cls):
        return tuple.__new__(cls, ("Nil",))


class New(Process):
    __slots__ = ()
    layout = ((), 1, (2,))
    name = property(itemgetter(1))
    body = property(itemgetter(2))

    def __new__(cls, name: str, body: Process):
        return tuple.__new__(cls, ("New", name, body))


class Par(Process):
    __slots__ = ()
    layout = ((), None, (1, 2))
    left = property(itemgetter(1))
    right = property(itemgetter(2))

    def __new__(cls, left: Process, right: Process):
        return tuple.__new__(cls, ("Par", left, right))


class Bang(Process):
    """Replication.  ``fuel`` bounds the remaining unfoldings during
    exploration; ``None`` means the process has not been primed yet."""

    __slots__ = ()
    layout = ((), None, (1,))
    body = property(itemgetter(1))
    fuel = property(itemgetter(2))

    def __new__(cls, body: Process, fuel: int | None = None):
        return tuple.__new__(cls, ("Bang", body, fuel))


class Guard(Process):
    __slots__ = ()


class In(Guard):
    __slots__ = ()
    layout = ((1,), 2, (3,))
    chan = property(itemgetter(1))
    binder = property(itemgetter(2))
    body = property(itemgetter(3))

    def __new__(cls, chan: Message, binder: str, body: Process):
        return tuple.__new__(cls, ("In", chan, binder, body))


class Out(Guard):
    __slots__ = ()
    layout = ((1, 2), None, (3,))
    chan = property(itemgetter(1))
    payload = property(itemgetter(2))
    body = property(itemgetter(3))

    def __new__(cls, chan: Message, payload: Message, body: Process):
        return tuple.__new__(cls, ("Out", chan, payload, body))


class Match(Guard):
    __slots__ = ()
    layout = ((1, 2), None, (3,))
    lhs = property(itemgetter(1))
    rhs = property(itemgetter(2))
    body = property(itemgetter(3))

    def __new__(cls, lhs: Message, rhs: Message, body: Guard):
        return tuple.__new__(cls, ("Match", lhs, rhs, body))


class Mismatch(Guard):
    __slots__ = ()
    layout = ((1, 2), None, (3,))
    lhs = property(itemgetter(1))
    rhs = property(itemgetter(2))
    body = property(itemgetter(3))

    def __new__(cls, lhs: Message, rhs: Message, body: Guard):
        return tuple.__new__(cls, ("Mismatch", lhs, rhs, body))


class Sum(Guard):
    __slots__ = ()
    layout = ((), None, (1, 2))
    left = property(itemgetter(1))
    right = property(itemgetter(2))

    def __new__(cls, left: Guard, right: Guard):
        return tuple.__new__(cls, ("Sum", left, right))


def free_names(p: Process) -> frozenset[str]:
    msgs, binder, kids = p.layout
    names: frozenset[str] = frozenset()
    for i in kids:
        names |= free_names(p[i])
    if binder is not None:
        names -= {p[binder]}
    for i in msgs:
        names |= free_vars(p[i])
    return names


def all_names(p: Process) -> frozenset[str]:
    """Every name occurring in ``p``, free or bound."""
    names: set[str] = set()
    todo = [p]
    for q in todo:  # the loop visits the kids it appends
        msgs, binder, kids = q.layout
        for i in msgs:
            names |= free_vars(q[i])
        if binder is not None:
            names.add(q[binder])
        for i in kids:
            todo.append(q[i])
    return frozenset(names)


def symbols_of(p: Process) -> frozenset[Symbol]:
    syms: set[Symbol] = set()
    todo = [p]
    for q in todo:
        msgs, _, kids = q.layout
        for i in msgs:
            syms |= msg_symbols(q[i])
        for i in kids:
            todo.append(q[i])
    return frozenset(syms)


def fresh_supply(avoid):
    """Yield transition-local fresh names ``_0, _1, ...`` not in ``avoid``."""
    avoid = set(avoid)
    i = 0
    while True:
        name = f"_{i}"
        i += 1
        if name not in avoid:
            avoid.add(name)
            yield name


def subst_proc(p: Process, mapping: dict[str, Message]) -> Process:
    """Capture-avoiding substitution of messages for free names."""
    mapping = {k: v for k, v in mapping.items() if v != Var(k)}
    if not mapping:
        return p
    range_fv: set[str] = set(mapping)
    for m in mapping.values():
        range_fv |= free_vars(m)

    def supply():
        # few substitutions rename a binder, so walk ``p`` for its names
        # only when one does
        yield from fresh_supply(range_fv | all_names(p))

    return _subst(p, mapping, range_fv, supply())


def _subst(p: Process, mapping, range_fv, supply) -> Process:
    msgs, binder, kids = p.layout
    if not kids:
        return p
    fields = list(p)
    for i in msgs:
        fields[i] = rename_vars(fields[i], mapping)
    if binder is not None:
        x = fields[binder]
        if x in mapping:
            mapping = {k: v for k, v in mapping.items() if k != x}
            if not mapping:
                return tuple.__new__(type(p), fields)
        if x in range_fv:
            fields[binder] = y = next(supply)
            mapping = {**mapping, x: Var(y)}
    for i in kids:
        fields[i] = _subst(fields[i], mapping, range_fv, supply)
    return tuple.__new__(type(p), fields)


def prime_bangs(p: Process, fuel: int) -> Process:
    """Attach an unfolding budget to every replication."""
    _, _, kids = p.layout
    fields = list(p)
    for i in kids:
        fields[i] = prime_bangs(fields[i], fuel)
    q = tuple.__new__(type(p), fields)
    return Bang(q.body, fuel) if isinstance(q, Bang) else q


# --- parsing ---------------------------------------------------------------

# a name as the parser reads it; the reserved ``%i`` and ``_i`` are not
NAME = re.compile(r"[A-Za-z][A-Za-z0-9_']*")
_TOKEN_RE = re.compile(
    rf"\s*(?:(?P<ident>{NAME.pattern})|(?P<op>!=|[()\[\]=+|!.,0])|(?P<bad>\S))"
)
_KEYWORDS = {"new", "in", "out", "let"}


def _tokenize(text: str) -> list[tuple[str, str]]:
    # strip comments first
    text = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            break
        pos = m.end()
        if m.group("bad"):
            raise ParseError(f"unexpected character {m.group('bad')!r}")
        if m.group("ident"):
            name = m.group("ident")
            tokens.append(("kw" if name in _KEYWORDS else "ident", name))
        else:
            tokens.append(("op", m.group("op")))
    return tokens


class _Parser:
    def __init__(self, tokens, defs=None, arities=None):
        self.tokens = tokens
        self.pos = 0
        self.defs: dict[str, Process] = dict(defs or {})
        self.arities: dict[str, int] = arities if arities is not None else {}

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def next(self):
        tok = self.peek()
        if tok[0] is None:
            raise ParseError("unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, kind, value=None):
        tok = self.next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            raise ParseError(f"expected {value or kind}, found {tok[1]!r}")
        return tok[1]

    def at_op(self, value):
        tok = self.peek()
        return tok[0] == "op" and tok[1] == value

    def eat_op(self, value):
        if self.at_op(value):
            self.pos += 1
            return True
        return False

    def parse_whole(self) -> Process:
        """``parse_proc`` at the top of a parse, which the recursion limit
        stops as ``ParseDepthExceeded``."""
        try:
            return self.parse_proc()
        except RecursionError:
            raise ParseDepthExceeded("input nests deeper than the parser can recurse") from None

    # proc := sum ('|' proc)?
    def parse_proc(self) -> Process:
        left = self.parse_sum()
        if self.eat_op("|"):
            return Par(left, self.parse_proc())
        return left

    # sum := prefix ('+' sum)?
    def parse_sum(self) -> Process:
        left = self.parse_prefix()
        if self.eat_op("+"):
            right = self.parse_sum()
            for part in (left, right):
                if not isinstance(part, Guard):
                    raise ParseError("operands of + must be guarded processes")
            return Sum(left, right)
        return left

    def parse_prefix(self) -> Process:
        kind, value = self.peek()
        if kind == "op" and value == "0":
            self.next()
            return Nil()
        if kind == "op" and value == "(":
            self.next()
            inner = self.parse_proc()
            self.expect("op", ")")
            return inner
        if kind == "op" and value == "!":
            self.next()
            return Bang(self.parse_prefix())
        if kind == "op" and value == "[":
            self.next()
            lhs = self.parse_message()
            tok = self.next()
            if tok != ("op", "=") and tok != ("op", "!="):
                raise ParseError(f"expected = or != in test, found {tok[1]!r}")
            rhs = self.parse_message()
            self.expect("op", "]")
            body = self.parse_prefix()
            if not isinstance(body, Guard):
                raise ParseError("a test must guard a guarded process")
            cls = Match if tok[1] == "=" else Mismatch
            return cls(lhs, rhs, body)
        if kind == "kw" and value == "new":
            self.next()
            names = [self.ident()]
            while self.eat_op(","):
                names.append(self.ident())
            self.expect("op", ".")
            body = self.parse_prefix()
            for name in reversed(names):
                body = New(name, body)
            return body
        if kind == "kw" and value == "in":
            self.next()
            self.expect("op", "(")
            chan = self.parse_message()
            self.expect("op", ",")
            binder = self.ident()
            self.expect("op", ")")
            body = self.parse_prefix() if self.eat_op(".") else Nil()
            return In(chan, binder, body)
        if kind == "kw" and value == "out":
            self.next()
            self.expect("op", "(")
            chan = self.parse_message()
            self.expect("op", ",")
            payload = self.parse_message()
            self.expect("op", ")")
            body = self.parse_prefix() if self.eat_op(".") else Nil()
            return Out(chan, payload, body)
        if kind == "ident":
            if value in self.defs:
                self.next()
                return self.defs[value]
            raise ParseError(f"undefined process name {value!r}")
        raise ParseError(f"unexpected token {value!r}")

    def ident(self) -> str:
        tok = self.next()
        if tok[0] != "ident":
            raise ParseError(f"expected a name, found {tok[1]!r}")
        return tok[1]

    def parse_message(self) -> Message:
        name = self.ident()
        if not self.at_op("("):
            return Var(name)
        self.next()
        args = [self.parse_message()]
        while self.eat_op(","):
            args.append(self.parse_message())
        self.expect("op", ")")
        known = self.arities.get(name)
        if known is not None and known != len(args):
            raise ParseError(f"symbol {name} used with arities {known} and {len(args)}")
        self.arities[name] = len(args)
        return App(Symbol(name, len(args)), tuple(args))


def parse_process(text: str, defs: dict[str, Process] | None = None, arities: dict[str, int] | None = None) -> Process:
    parser = _Parser(_tokenize(text), defs, arities)
    proc = parser.parse_whole()
    if parser.peek()[0] is not None:
        raise ParseError(f"trailing input at {parser.peek()[1]!r}")
    return proc


def parse_pi_file(text: str, arities: dict[str, int] | None = None) -> tuple[dict[str, Process], Process]:
    """Parse a ``.pi`` file: zero or more ``let NAME = P`` definitions followed
    by an optional bare process.  The checked process is the bare expression
    if present, otherwise the last definition."""
    parser = _Parser(_tokenize(text), arities=arities)
    last: Process | None = None
    while parser.peek()[0] is not None:
        if parser.peek() == ("kw", "let"):
            parser.next()
            name = parser.ident()
            parser.expect("op", "=")
            last = parser.defs[name] = parser.parse_whole()
        else:
            last = parser.parse_whole()
            if parser.peek()[0] is not None:
                raise ParseError(f"trailing input at {parser.peek()[1]!r}")
            break
    if last is None:
        raise ParseError("empty process file")
    return parser.defs, last


# --- printing --------------------------------------------------------------


def _push_atom(todo: list, p: Process) -> None:
    """Push ``p`` for ``to_text``, parenthesised when it is a composition."""
    if isinstance(p, (Par, Sum)):
        todo += (")", p, "(")
    else:
        todo.append(p)


def to_text(p: Process) -> str:
    """``p`` in the concrete syntax ``parse_process`` reads.  Printed from an
    explicit stack of pending processes and literal text, so that no
    nesting depth exhausts the interpreter's."""
    out: list[str] = []
    todo: list = [p]
    while todo:
        q = todo.pop()
        if type(q) is str:
            out.append(q)
        elif isinstance(q, Nil):
            out.append("0")
        elif isinstance(q, New):
            names = [q.name]
            body = q.body
            while isinstance(body, New):
                names.append(body.name)
                body = body.body
            out.append(f"new {','.join(names)}.")
            _push_atom(todo, body)
        elif isinstance(q, (Par, Sum)):
            # the right operand is printed last, so pushed first
            todo += (q.right, " | " if isinstance(q, Par) else " + ")
            if type(q.left) is type(q):
                todo += (")", q.left, "(")
            else:
                todo.append(q.left)
        elif isinstance(q, Bang):
            out.append("!")
            _push_atom(todo, q.body)
        elif isinstance(q, (In, Out)):
            head = f"in({q.chan}, {q.binder})" if isinstance(q, In) else f"out({q.chan}, {q.payload})"
            out.append(head)
            if not isinstance(q.body, Nil):
                out.append(".")
                _push_atom(todo, q.body)
        elif isinstance(q, (Match, Mismatch)):
            out.append(f"[{q.lhs} {'=' if isinstance(q, Match) else '!='} {q.rhs}] ")
            _push_atom(todo, q.body)
        else:
            raise TypeError(q)
    return "".join(out)


# --- extended processes ----------------------------------------------------


@dataclass(frozen=True)
class ExtendedProcess:
    """``new binders.(frame | body)`` with the frame an alias substitution
    whose range mentions no aliases."""

    binders: tuple[str, ...]
    frame: Substitution
    body: Process

    def __hash__(self):
        # states key the theory's tables; hash each process tree once
        try:
            return self._hash
        except AttributeError:
            h = hash((self.binders, self.frame, self.body))
            object.__setattr__(self, "_hash", h)
            return h

    def __str__(self):
        inner = f"{self.frame} | {to_text(self.body)}"
        if self.binders:
            return f"new {','.join(self.binders)}.({inner})"
        return f"({inner})"


def from_process(p: Process) -> ExtendedProcess:
    return ExtendedProcess((), ID, p)


# ``Var("%i")`` for the first canonical binders, built once
_CANON_VARS = tuple(Var(f"%{i}") for i in range(64))


def _canon_var(i: int) -> Var:
    return _CANON_VARS[i] if i < len(_CANON_VARS) else Var(f"%{i}")


def _canon_body(p: Process, env: dict[str, Var | None], name, bound) -> Process:
    """``p`` renamed as ``_canonical`` renames a body: ``name()`` names a top
    binder, and ``next(bound)`` numbers a binder of the body."""
    msgs, binder, kids = p.layout
    if not kids:
        return p
    fields = list(p)
    for i in msgs:
        fields[i] = rename_first_use(fields[i], env, name)
    if binder is not None:
        # bind in place and restore: a top binder that is named in here
        # must stay named out there
        x = fields[binder]
        outside = x in env
        outer = env.get(x)
        v = env[x] = next(bound)
        fields[binder] = v.name
    for i in kids:
        fields[i] = _canon_body(fields[i], env, name, bound)
    if binder is not None:
        if outside:
            env[x] = outer
        else:
            del env[x]
    return tuple.__new__(type(p), fields)


def _canonical(A: ExtendedProcess, env: dict[str, Var | None], top: int) -> ExtendedProcess:
    """``A`` renamed by ``env`` under ``top`` top binders ``%0, %1, ...``; a
    top binder that ``env`` maps to ``None`` is named by the first lookup
    that meets it, and the body's binders are numbered on from ``top``."""
    name = map(_canon_var, count()).__next__
    # renaming the values keeps the frame's alias order
    frame = Substitution.from_sorted({a: rename_first_use(m, env, name) for a, m in A.frame.items()})
    body = _canon_body(A.body, env, name, map(_canon_var, count(top)))
    return ExtendedProcess(tuple([_canon_var(i).name for i in range(top)]), frame, body)


def alpha_canonical(A: ExtendedProcess) -> ExtendedProcess:
    """Canonical representative of the alpha-equivalence class; the order of
    top-level binders is preserved."""
    env = {old: _canon_var(i) for i, old in enumerate(A.binders)}
    return _canonical(A, env, len(A.binders))


@nesting_limited
def congruence_key(A: ExtendedProcess) -> ExtendedProcess:
    """Canonical representative up to structural congruence: alpha-renaming,
    frame reordering, and reordering of top-level restrictions.  A state
    nesting deeper than the walk can recurse raises
    ``NestingLimitExceeded``."""
    env = dict.fromkeys(A.binders)
    return _canonical(A, env, len(env))


def struct_congruent(A: ExtendedProcess, B: ExtendedProcess) -> bool:
    return congruence_key(A) == congruence_key(B)
