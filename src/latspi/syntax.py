"""Process syntax, parsing, and structural congruence.

Processes follow a guarded-choice applied pi-calculus: parallel composition,
name restriction, replication, and guards built from input and output
prefixes, equality and disequality tests, and binary choice.  Extended
processes pair a plain process with a frame (an alias substitution) under a
list of top-level restrictions.

Two reserved namespaces keep renaming hygienic: canonical binders are named
``%0, %1, ...`` and transition-local fresh names are ``_0, _1, ...``.
Neither is accepted by the parser, so user-level names never collide with
machine-chosen ones.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .terms import (
    ID,
    Alias,
    App,
    Message,
    Substitution,
    Symbol,
    Var,
    free_vars,
    msg_symbols,
    rename_vars,
)


class ParseError(Exception):
    pass


class Process:
    __slots__ = ()


@dataclass(frozen=True)
class Nil(Process):
    pass


@dataclass(frozen=True)
class New(Process):
    name: str
    body: Process


@dataclass(frozen=True)
class Par(Process):
    left: Process
    right: Process


@dataclass(frozen=True)
class Bang(Process):
    """Replication.  ``fuel`` bounds the remaining unfoldings during
    exploration; ``None`` means the process has not been primed yet."""

    body: Process
    fuel: int | None = None


class Guard(Process):
    __slots__ = ()


@dataclass(frozen=True)
class In(Guard):
    chan: Message
    binder: str
    body: Process


@dataclass(frozen=True)
class Out(Guard):
    chan: Message
    payload: Message
    body: Process


@dataclass(frozen=True)
class Match(Guard):
    lhs: Message
    rhs: Message
    body: Guard


@dataclass(frozen=True)
class Mismatch(Guard):
    lhs: Message
    rhs: Message
    body: Guard


@dataclass(frozen=True)
class Sum(Guard):
    left: Guard
    right: Guard


def free_names(p: Process) -> frozenset[str]:
    if isinstance(p, Nil):
        return frozenset()
    if isinstance(p, New):
        return free_names(p.body) - {p.name}
    if isinstance(p, Par):
        return free_names(p.left) | free_names(p.right)
    if isinstance(p, Bang):
        return free_names(p.body)
    if isinstance(p, In):
        return free_vars(p.chan) | (free_names(p.body) - {p.binder})
    if isinstance(p, Out):
        return free_vars(p.chan) | free_vars(p.payload) | free_names(p.body)
    if isinstance(p, (Match, Mismatch)):
        return free_vars(p.lhs) | free_vars(p.rhs) | free_names(p.body)
    if isinstance(p, Sum):
        return free_names(p.left) | free_names(p.right)
    raise TypeError(p)


def all_names(p: Process) -> frozenset[str]:
    """Every name occurring in ``p``, free or bound."""
    if isinstance(p, Nil):
        return frozenset()
    if isinstance(p, New):
        return all_names(p.body) | {p.name}
    if isinstance(p, Par):
        return all_names(p.left) | all_names(p.right)
    if isinstance(p, Bang):
        return all_names(p.body)
    if isinstance(p, In):
        return free_vars(p.chan) | all_names(p.body) | {p.binder}
    if isinstance(p, Out):
        return free_vars(p.chan) | free_vars(p.payload) | all_names(p.body)
    if isinstance(p, (Match, Mismatch)):
        return free_vars(p.lhs) | free_vars(p.rhs) | all_names(p.body)
    if isinstance(p, Sum):
        return all_names(p.left) | all_names(p.right)
    raise TypeError(p)


def symbols_of(p: Process) -> frozenset[Symbol]:
    if isinstance(p, Nil):
        return frozenset()
    if isinstance(p, (New, Bang)):
        return symbols_of(p.body)
    if isinstance(p, (Par, Sum)):
        return symbols_of(p.left) | symbols_of(p.right)
    if isinstance(p, In):
        return msg_symbols(p.chan) | symbols_of(p.body)
    if isinstance(p, Out):
        return msg_symbols(p.chan) | msg_symbols(p.payload) | symbols_of(p.body)
    if isinstance(p, (Match, Mismatch)):
        return msg_symbols(p.lhs) | msg_symbols(p.rhs) | symbols_of(p.body)
    raise TypeError(p)


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
    supply = fresh_supply(range_fv | all_names(p))
    return _subst(p, mapping, range_fv, supply)


def _subst(p: Process, mapping, range_fv, supply) -> Process:
    def on_binder(x: str, body: Process):
        inner = {k: v for k, v in mapping.items() if k != x}
        if not inner:
            return x, body, {}
        if x in range_fv:
            x2 = next(supply)
            inner[x] = Var(x2)
            return x2, body, inner
        return x, body, inner

    if isinstance(p, Nil):
        return p
    if isinstance(p, New):
        x2, body, inner = on_binder(p.name, p.body)
        return New(x2, _subst(body, inner, range_fv, supply) if inner else body)
    if isinstance(p, Par):
        return Par(_subst(p.left, mapping, range_fv, supply), _subst(p.right, mapping, range_fv, supply))
    if isinstance(p, Bang):
        return Bang(_subst(p.body, mapping, range_fv, supply), p.fuel)
    if isinstance(p, In):
        chan = rename_vars(p.chan, mapping)
        x2, body, inner = on_binder(p.binder, p.body)
        return In(chan, x2, _subst(body, inner, range_fv, supply) if inner else body)
    if isinstance(p, Out):
        return Out(
            rename_vars(p.chan, mapping),
            rename_vars(p.payload, mapping),
            _subst(p.body, mapping, range_fv, supply),
        )
    if isinstance(p, Match):
        return Match(rename_vars(p.lhs, mapping), rename_vars(p.rhs, mapping), _subst(p.body, mapping, range_fv, supply))
    if isinstance(p, Mismatch):
        return Mismatch(rename_vars(p.lhs, mapping), rename_vars(p.rhs, mapping), _subst(p.body, mapping, range_fv, supply))
    if isinstance(p, Sum):
        return Sum(_subst(p.left, mapping, range_fv, supply), _subst(p.right, mapping, range_fv, supply))
    raise TypeError(p)


def prime_bangs(p: Process, fuel: int) -> Process:
    """Attach an unfolding budget to every replication."""
    if isinstance(p, Nil):
        return p
    if isinstance(p, New):
        return New(p.name, prime_bangs(p.body, fuel))
    if isinstance(p, Par):
        return Par(prime_bangs(p.left, fuel), prime_bangs(p.right, fuel))
    if isinstance(p, Bang):
        return Bang(prime_bangs(p.body, fuel), fuel)
    if isinstance(p, In):
        return In(p.chan, p.binder, prime_bangs(p.body, fuel))
    if isinstance(p, Out):
        return Out(p.chan, p.payload, prime_bangs(p.body, fuel))
    if isinstance(p, Match):
        return Match(p.lhs, p.rhs, prime_bangs(p.body, fuel))
    if isinstance(p, Mismatch):
        return Mismatch(p.lhs, p.rhs, prime_bangs(p.body, fuel))
    if isinstance(p, Sum):
        return Sum(prime_bangs(p.left, fuel), prime_bangs(p.right, fuel))
    raise TypeError(p)


# --- parsing ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<ident>[A-Za-z][A-Za-z0-9_']*)|(?P<op>!=|[()\[\]=+|!.,0])|(?P<bad>\S))"
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
    proc = parser.parse_proc()
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
            body = parser.parse_proc()
            parser.defs[name] = body
            last = body
        else:
            last = parser.parse_proc()
            if parser.peek()[0] is not None:
                raise ParseError(f"trailing input at {parser.peek()[1]!r}")
            break
    if last is None:
        raise ParseError("empty process file")
    return parser.defs, last


# --- printing --------------------------------------------------------------


def _atom(p: Process) -> str:
    text = to_text(p)
    if isinstance(p, (Par, Sum)):
        return f"({text})"
    return text


def to_text(p: Process) -> str:
    if isinstance(p, Nil):
        return "0"
    if isinstance(p, New):
        names = [p.name]
        body = p.body
        while isinstance(body, New):
            names.append(body.name)
            body = body.body
        return f"new {','.join(names)}.{_atom(body)}"
    if isinstance(p, Par):
        left = to_text(p.left)
        if isinstance(p.left, Par):
            left = f"({left})"
        return f"{left} | {to_text(p.right)}"
    if isinstance(p, Bang):
        return f"!{_atom(p.body)}"
    if isinstance(p, In):
        head = f"in({p.chan}, {p.binder})"
        return head if isinstance(p.body, Nil) else f"{head}.{_atom(p.body)}"
    if isinstance(p, Out):
        head = f"out({p.chan}, {p.payload})"
        return head if isinstance(p.body, Nil) else f"{head}.{_atom(p.body)}"
    if isinstance(p, Match):
        return f"[{p.lhs} = {p.rhs}] {_atom(p.body)}"
    if isinstance(p, Mismatch):
        return f"[{p.lhs} != {p.rhs}] {_atom(p.body)}"
    if isinstance(p, Sum):
        left = to_text(p.left)
        if isinstance(p.left, Sum):
            left = f"({left})"
        return f"{left} + {to_text(p.right)}"
    raise TypeError(p)


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


def _scan_first_use(A: ExtendedProcess) -> list[str]:
    """Top binders in order of first occurrence in the sorted frame, then
    the body; unused binders follow in their original order."""
    binders = set(A.binders)
    order: list[str] = []
    seen: set[str] = set()

    def scan_msg(m: Message, shadow: frozenset[str]):
        if isinstance(m, Var):
            if m.name in binders and m.name not in shadow and m.name not in seen:
                seen.add(m.name)
                order.append(m.name)
        elif isinstance(m, App):
            for a in m.args:
                scan_msg(a, shadow)

    def scan(p: Process, shadow: frozenset[str]):
        if isinstance(p, Nil):
            return
        if isinstance(p, New):
            scan(p.body, shadow | {p.name})
        elif isinstance(p, Par):
            scan(p.left, shadow)
            scan(p.right, shadow)
        elif isinstance(p, Bang):
            scan(p.body, shadow)
        elif isinstance(p, In):
            scan_msg(p.chan, shadow)
            scan(p.body, shadow | {p.binder})
        elif isinstance(p, Out):
            scan_msg(p.chan, shadow)
            scan_msg(p.payload, shadow)
            scan(p.body, shadow)
        elif isinstance(p, (Match, Mismatch)):
            scan_msg(p.lhs, shadow)
            scan_msg(p.rhs, shadow)
            scan(p.body, shadow)
        elif isinstance(p, Sum):
            scan(p.left, shadow)
            scan(p.right, shadow)
        else:
            raise TypeError(p)

    for _, m in A.frame.items():
        scan_msg(m, frozenset())
    scan(A.body, frozenset())
    for name in A.binders:
        if name not in seen:
            seen.add(name)
            order.append(name)
    return order


def _canon_body(p: Process, env: dict[str, Message], counter: list) -> Process:
    def bind(x: str):
        name = f"%{counter[0]}"
        counter[0] += 1
        return name

    if isinstance(p, Nil):
        return p
    if isinstance(p, New):
        name = bind(p.name)
        inner = dict(env)
        inner[p.name] = Var(name)
        return New(name, _canon_body(p.body, inner, counter))
    if isinstance(p, Par):
        return Par(_canon_body(p.left, env, counter), _canon_body(p.right, env, counter))
    if isinstance(p, Bang):
        return Bang(_canon_body(p.body, env, counter), p.fuel)
    if isinstance(p, In):
        chan = rename_vars(p.chan, env)
        name = bind(p.binder)
        inner = dict(env)
        inner[p.binder] = Var(name)
        return In(chan, name, _canon_body(p.body, inner, counter))
    if isinstance(p, Out):
        return Out(rename_vars(p.chan, env), rename_vars(p.payload, env), _canon_body(p.body, env, counter))
    if isinstance(p, Match):
        return Match(rename_vars(p.lhs, env), rename_vars(p.rhs, env), _canon_body(p.body, env, counter))
    if isinstance(p, Mismatch):
        return Mismatch(rename_vars(p.lhs, env), rename_vars(p.rhs, env), _canon_body(p.body, env, counter))
    if isinstance(p, Sum):
        return Sum(_canon_body(p.left, env, counter), _canon_body(p.right, env, counter))
    raise TypeError(p)


def _canonical(A: ExtendedProcess, order_by_use: bool) -> ExtendedProcess:
    top = _scan_first_use(A) if order_by_use else list(A.binders)
    env: dict[str, Message] = {old: Var(f"%{i}") for i, old in enumerate(top)}
    frame = Substitution({a: rename_vars(m, env) for a, m in A.frame.items()})
    counter = [len(top)]
    body = _canon_body(A.body, env, counter)
    return ExtendedProcess(tuple(f"%{i}" for i in range(len(top))), frame, body)


def alpha_canonical(A: ExtendedProcess) -> ExtendedProcess:
    """Canonical representative of the alpha-equivalence class; the order of
    top-level binders is preserved."""
    return _canonical(A, order_by_use=False)


def congruence_key(A: ExtendedProcess) -> ExtendedProcess:
    """Canonical representative up to structural congruence: alpha-renaming,
    frame reordering, and reordering of top-level restrictions."""
    return _canonical(A, order_by_use=True)


def struct_congruent(A: ExtendedProcess, B: ExtendedProcess) -> bool:
    return congruence_key(A) == congruence_key(B)
