"""Messages, substitutions, and equality modulo a convergent rewrite system.

Messages are first-order terms over a signature of function symbols,
variables, and located aliases.  An alias is a handle ``<prefix><stem>``
(prefix a bitstring, stem an identifier) standing for a message disclosed
to the environment.  Equality modulo the user-supplied equational theory is
decided by innermost rewriting to normal form; the user asserts that the
oriented rules are terminating and confluent.

Messages, and the process and event trees built over them (``syntax``,
``lts``), are ``Node`` values: immutable trees, hashed and compared
structurally.  A node is stored as the tuple ``(class name, *fields)``, so
that hashing, equality and construction run in the interpreter's C tuple
code; every layer keys its tables on such trees.  The leading class name
keeps nodes of two classes with the same fields apart, and being a string
it hashes as the fields do, by ``PYTHONHASHSEED`` alone.  Only the module
defining a node class indexes its fields: here ``rename_vars`` and
``rename_first_use`` dispatch on a message's tag and read its fields by
position, and ``syntax`` walks processes through their classes' layouts.
Other code reads fields by name.  ``var_paths`` and ``fill_paths`` read no
class's fields: they walk any tree of nodes as nested tuples, by position.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from functools import wraps
from operator import itemgetter
from typing import Iterable, Mapping


class ResourceLimitExceeded(Exception):
    """A computation stopped at one of the package's fixed resource limits:
    a recipe count, a rewrite step budget, a count of listed pairs, the
    nesting depth that the package's recursive walks can follow."""


class RewriteBudgetExceeded(ResourceLimitExceeded):
    """Raised when a single normalization exceeds its step budget."""


class NestingLimitExceeded(ResourceLimitExceeded):
    """A term or process nests deeper than the package's recursive walks
    can follow under the interpreter's recursion limit."""


def nesting_limited(fn):
    """``fn`` with a ``RecursionError`` raised as ``NestingLimitExceeded``.
    The package walks terms and processes recursively, so a deep enough
    input exhausts the interpreter's stack in one of many walks; the
    decision procedures' entry points report that as a resource limit."""

    @wraps(fn)
    def limited(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except RecursionError:
            raise NestingLimitExceeded(f"input nests deeper than {fn.__name__} can recurse") from None

    return limited


class TheoryError(Exception):
    """Malformed theory file or rule."""


class Node(tuple):
    """An immutable tree node, stored as the tuple ``(class name, *fields)``
    (see the module docstring).  Each subclass names its fields through
    ``property(itemgetter(i))`` and packs them in its own ``__new__``; only
    its own module indexes them."""

    __slots__ = ()

    def __getnewargs__(self):
        # ``copy`` and ``pickle`` rebuild a node through its ``__new__``
        return self[1:]

    def __repr__(self):
        return f"{self[0]}({', '.join(map(repr, self[1:]))})"


class Symbol(Node):
    __slots__ = ()
    name = property(itemgetter(1))
    arity = property(itemgetter(2))

    def __new__(cls, name: str, arity: int):
        return tuple.__new__(cls, ("Symbol", name, arity))

    def __repr__(self):
        return f"{self.name}/{self.arity}"


class Var(Node):
    __slots__ = ()
    name = property(itemgetter(1))

    def __new__(cls, name: str):
        return tuple.__new__(cls, ("Var", name))

    def __str__(self):
        return self.name


class Alias(Node):
    """A located alias: bitstring prefix plus stem, e.g. ``01l``."""

    __slots__ = ()
    prefix = property(itemgetter(1))
    stem = property(itemgetter(2))

    def __new__(cls, prefix: str, stem: str):
        if prefix.strip("01"):
            raise ValueError(f"alias prefix must be a bitstring: {prefix!r}")
        return tuple.__new__(cls, ("Alias", prefix, stem))

    def __str__(self):
        return self.prefix + self.stem


class App(Node):
    __slots__ = ()
    fn = property(itemgetter(1))
    args = property(itemgetter(2))

    def __new__(cls, fn: Symbol, args: tuple):
        if len(args) != fn.arity:
            raise ValueError(f"{fn} applied to {len(args)} arguments")
        return tuple.__new__(cls, ("App", fn, args))

    def __str__(self):
        # an explicit stack of pending messages and literal text, so that no
        # nesting depth exhausts the interpreter's
        out: list[str] = []
        todo: list = [self]
        while todo:
            m = todo.pop()
            if type(m) is str:
                out.append(m)
            elif type(m) is App:
                todo.append(")")
                args = m.args
                for k in range(len(args) - 1, 0, -1):
                    todo += (args[k], ", ")
                if args:
                    todo.append(args[0])
                out.append(f"{m.fn.name}(")
            else:
                out.append(str(m))
        return "".join(out)


Message = Var | Alias | App


def free_vars(m: Message) -> frozenset[str]:
    if isinstance(m, Var):
        return frozenset((m.name,))
    if isinstance(m, Alias):
        return frozenset()
    out: frozenset[str] = frozenset()
    for a in m.args:
        out |= free_vars(a)
    return out


def free_aliases(m: Message) -> frozenset[Alias]:
    if isinstance(m, Var):
        return frozenset()
    if isinstance(m, Alias):
        return frozenset((m,))
    out: frozenset[Alias] = frozenset()
    for a in m.args:
        out |= free_aliases(a)
    return out


def msg_symbols(m: Message) -> frozenset[Symbol]:
    """The function symbols occurring in ``m``."""
    if not isinstance(m, App):
        return frozenset()
    out = frozenset((m.fn,))
    for a in m.args:
        out |= msg_symbols(a)
    return out


def msg_key(m: Message):
    """Deterministic total order on messages (for canonical enumeration)."""
    if isinstance(m, Var):
        return (0, m.name)
    if isinstance(m, Alias):
        return (1, m.prefix, m.stem)
    return (2, m.fn.name, m.fn.arity, tuple(msg_key(a) for a in m.args))


def rename_vars(m: Message, mapping: Mapping[str, Message]) -> Message:
    """Replace free variables by messages (variables are never binders here)."""
    tag = m[0]
    if tag == "Var":
        return mapping.get(m[1], m)
    if tag == "App":
        # the arguments are as many as before, so ``App``'s check is skipped
        return tuple.__new__(App, ("App", m[1], tuple([rename_vars(a, mapping) for a in m[2]])))
    return m


def rename_first_use(m: Message, env: dict[str, Message | None], name) -> Message:
    """``rename_vars`` by ``env``, where a variable that ``env`` maps to
    ``None`` is mapped to ``name()`` by the first lookup that meets it, and
    to that message from then on."""
    tag = m[0]
    if tag == "Var":
        v = env.get(m[1], m)
        if v is None:
            v = env[m[1]] = name()
        return v
    if tag == "App":
        return tuple.__new__(App, ("App", m[1], tuple([rename_first_use(a, env, name) for a in m[2]])))
    return m


def var_paths(t: tuple, name: str):
    """Where ``Var(name)`` occurs in the tree ``t``, a node or a tuple of
    nodes, read as a tree of positions: ``True`` when ``t`` is the variable,
    ``None`` when it does not occur in ``t``, and otherwise the pairs
    ``(position, paths)`` of the fields of ``t`` in which it occurs.  No
    binder is read, so every occurrence is listed."""
    if t and t[0] == "Var":
        return True if t[1] == name else None
    paths = [
        (i, sub)
        for i, f in enumerate(t)
        # a field that is no tuple (a tag, a binder, a fuel) holds no variable
        if isinstance(f, tuple) and (sub := var_paths(f, name)) is not None
    ]
    return tuple(paths) or None


def fill_paths(t: tuple, paths, m: Message) -> tuple:
    """``t`` with ``m`` at the positions ``paths`` lists (``var_paths``).
    Only the nodes on those paths are rebuilt; every other subtree of the
    result is the one ``t`` holds."""
    if paths is None:
        return t
    if paths is True:
        return m
    fields = list(t)
    for i, sub in paths:
        fields[i] = fill_paths(fields[i], sub, m)
    return tuple.__new__(type(t), fields)


@dataclass(frozen=True)
class RewriteRule:
    lhs: Message
    rhs: Message

    def __post_init__(self):
        if free_aliases(self.lhs) or free_aliases(self.rhs):
            raise TheoryError("rewrite rules must not mention aliases")
        if not free_vars(self.rhs) <= free_vars(self.lhs):
            raise TheoryError(f"free variables of rhs not contained in lhs: {self}")

    def __str__(self):
        return f"{self.lhs} -> {self.rhs}"


def _match(pattern: Message, term: Message, binding: dict) -> bool:
    if isinstance(pattern, Var):
        if pattern.name in binding:
            return binding[pattern.name] == term
        binding[pattern.name] = term
        return True
    if isinstance(pattern, Alias):
        return pattern == term
    if not isinstance(term, App) or term.fn != pattern.fn:
        return False
    return all(_match(p, t, binding) for p, t in zip(pattern.args, term.args))


# most rewrite steps one normalisation takes before raising ``RewriteBudgetExceeded``
STEP_BUDGET = 10_000


class Theory:
    """An oriented convergent presentation of an equational theory.

    Normal forms are computed by innermost rewriting with a step budget,
    ``STEP_BUDGET``, guarding against non-terminating rule sets.  A message
    nesting deeper than the rewriting can recurse raises
    ``NestingLimitExceeded``.
    """

    def __init__(self, rules: Iterable[RewriteRule]):
        self.rules = tuple(rules)
        # Every memo table of the package lives here: one theory is one
        # cache scope, calls sharing it share their work, and the tables
        # live as long as the theory does.
        self._cache: dict[Message, Message] = {}  # message -> normal form
        # interned normal forms, and the partitions of each recipe template
        # by the class key of the images a static test reads into it
        # (``knowledge._static_test``)
        self.normal_forms = NormalForms()
        # process -> its structural transitions (``lts.proc_transitions``)
        self.structural: dict = {}
        # (class id, bounds, signature, consts) -> ``lts.enabled_transitions``
        self.enabled: dict = {}
        # (domain size, consts, signature, depth) -> the recipe template
        # (``knowledge.recipe_template``), and (aliases, consts, signature,
        # depth) -> the template renamed into the domain (``recipe_enum``)
        self.recipes: dict = {}
        # state -> id of its congruence class, and class id -> the class's
        # representative, its congruence key (``lts.state_class``); every
        # layer that fires, expands or merges states shares them
        self.classes: dict = {}
        self.reps: list = []
        # frame -> the one frame object that the representatives with an
        # equal frame share (``lts._key_class``)
        self.rep_frames: dict = {}
        # (frame, consts, signature, recipe depth) -> the frame's recipes,
        # their normalised images and normal form -> recipes
        # (``lts.frame_recipes``)
        self.frame_recipes: dict = {}
        # event -> its id, and id -> the event and its ``event_key``
        # (``lts.event_id``); the game remembers and compares events by id
        self.event_ids: dict = {}
        self.events: list = []
        self.event_keys: list = []
        # (id, id) -> ``indep_event`` of the two events, and -> ``indep_loc``
        # of their locations (``games.Checker``)
        self.indep: dict = {}
        self.indep_locs: dict = {}
        # static context (one way, consts, signature, static depth) ->
        # (left frame, right frame, alias map's key) -> the static test's
        # witness, or ``None`` (``games.Checker.static_witness``); the frames
        # are representatives' shared frame objects
        self.statics: dict = {}

    def symbols(self) -> frozenset[Symbol]:
        syms: frozenset[Symbol] = frozenset()
        for r in self.rules:
            syms |= msg_symbols(r.lhs) | msg_symbols(r.rhs)
        return syms

    def normalize(self, m: Message) -> Message:
        cached = self._cache.get(m)
        if cached is not None:
            return cached
        try:
            nf = self._norm(m, [0])
        except RecursionError:
            raise NestingLimitExceeded("input nests deeper than normalize can recurse") from None
        self._cache[m] = nf
        return nf

    def _norm(self, m: Message, steps: list) -> Message:
        if not isinstance(m, App):
            return m
        cached = self._cache.get(m)
        if cached is not None:
            return cached
        term = App(m.fn, tuple(self._norm(a, steps) for a in m.args))
        while True:
            reduct = self._step(term)
            if reduct is None:
                self._cache[m] = term
                return term
            steps[0] += 1
            if steps[0] > STEP_BUDGET:
                raise RewriteBudgetExceeded(
                    f"exceeded {STEP_BUDGET} rewrite steps; rules likely non-terminating"
                )
            term = self._norm(reduct, steps)

    def _step(self, term: App) -> Message | None:
        for rule in self.rules:
            binding: dict = {}
            if _match(rule.lhs, term, binding):
                return rename_vars(rule.rhs, binding)
        return None

    def equal(self, m: Message, n: Message) -> bool:
        return self.normalize(m) == self.normalize(n)


class NormalForms:
    """Hash-consed normal forms of one theory: each distinct normal form
    gets an integer id, each symbol a number, and each symbol applied to
    interned arguments is normalised once.  The partition of a recipe
    template by an image tuple is interned as an id too, so that two image
    tuples' partitions compare as two integers."""

    def __init__(self):
        self.ids: dict[Message, int] = {}
        self.terms: list[Message] = []
        # symbol -> its number, which stands for it in ``apps`` keys
        self.symbol_nos: dict[Symbol, int] = {}
        # (symbol number, argument ids...) -> id of the normal form
        self.apps: dict[tuple, int] = {}
        # id(template) -> (the template, kept so that its id stays unique; its shape)
        self.shapes: dict[int, tuple[list, list]] = {}
        # (id(template), class key of the images) -> id of the partition of
        # the template by the images
        self.partitions: dict[tuple, int] = {}
        # partition pattern -> its id, and id -> pattern
        self.pattern_ids: dict[tuple, int] = {}
        self.patterns: list[tuple[int, ...]] = []

    def intern(self, nf: Message) -> int:
        """The id of the normal form ``nf``."""
        i = self.ids.get(nf)
        if i is None:
            i = self.ids[nf] = len(self.terms)
            self.terms.append(nf)
        return i

    def shape(self, template: list) -> list:
        """Per recipe: for an application, ``(symbol number, symbol,
        *argument positions)``; for the i-th alias of the list, ``i``; for
        a name, the name itself.  Every application must apply a symbol to
        earlier recipes of the list, as in ``knowledge.recipe_template``."""
        hit = self.shapes.get(id(template))
        if hit is not None:
            return hit[1]
        nos = self.symbol_nos
        pos: dict[int, int] = {}
        out: list = []
        aliases = 0
        for k, r in enumerate(template):
            if isinstance(r, App):
                no = nos.setdefault(r.fn, len(nos))
                out.append((no, r.fn, *(pos[id(a)] for a in r.args)))
            elif isinstance(r, Alias):
                out.append(aliases)
                aliases += 1
            else:
                out.append(r)
            pos.setdefault(id(r), k)
        self.shapes[id(template)] = (template, out)
        return out

    def partition(self, template: list, key: tuple, images: tuple, normalize) -> int:
        """The id of the partition of the template's recipes by their normal
        forms when the template's i-th alias stands for ``images[i]``.  Its
        pattern, ``patterns[id]``, gives for each recipe the position of the
        first recipe with the same normal form, so two image tuples
        partition the template alike exactly when their ids are equal.
        ``key`` is the images' class key (``knowledge._class_key``): image
        tuples with equal keys partition the template alike, so the
        partition is computed, every recipe normalised, once per (template,
        key).  ``normalize`` is the owning theory's: the table keeps no
        reference back to the theory, so a dropped theory is freed at once,
        not by the cycle collector."""
        slot = (id(template), key)
        hit = self.partitions.get(slot)
        if hit is not None:
            return hit
        apps, terms, intern = self.apps, self.terms, self.intern
        ids: list[int] = []
        for entry in self.shape(template):
            kind = type(entry)
            # exactly ``tuple``: a name's entry, a ``Var``, is a tuple subclass
            if kind is tuple:
                # unary and binary symbols, the common ones, spelled out
                if len(entry) == 3:
                    app_key = (entry[0], ids[entry[2]])
                elif len(entry) == 4:
                    app_key = (entry[0], ids[entry[2]], ids[entry[3]])
                else:
                    app_key = (entry[0], *[ids[p] for p in entry[2:]])
                i = apps.get(app_key)
                if i is None:
                    args = tuple(terms[a] for a in app_key[1:])
                    i = apps[app_key] = intern(normalize(App(entry[1], args)))
            elif kind is int:
                i = intern(normalize(images[entry]))
            else:
                i = intern(normalize(entry))
            ids.append(i)
        first: dict[int, int] = {}
        pattern = tuple([first.setdefault(i, k) for k, i in enumerate(ids)])
        p = self.pattern_ids.get(pattern)
        if p is None:
            p = self.pattern_ids[pattern] = len(self.patterns)
            self.patterns.append(pattern)
        self.partitions[slot] = p
        return p


# --- substitutions ---------------------------------------------------------


class Substitution:
    """A finite map from aliases to messages, applied in suffix form.  Its
    ``mapping`` is sorted by alias (``msg_key``) once, when it is built, and
    ``items`` reads it in that order.  Immutable: its hash is computed on
    first use and kept."""

    __slots__ = ("mapping", "_hash")

    def __init__(self, mapping: Mapping[Alias, Message] = ()):
        pairs = sorted(dict(mapping).items(), key=lambda kv: msg_key(kv[0]))
        self.mapping: dict[Alias, Message] = {a: m for a, m in pairs if m != a}
        self._hash = None

    @classmethod
    def from_sorted(cls, mapping: dict[Alias, Message]) -> "Substitution":
        """The substitution of ``mapping``, taken as it is: its aliases
        must already be in order, and none may map to itself."""
        s = object.__new__(cls)
        s.mapping = mapping
        s._hash = None
        return s

    @property
    def domain(self) -> frozenset[Alias]:
        return frozenset(self.mapping)

    def __call__(self, m: Message) -> Message:
        return apply_msg_subst(m, self)

    def __eq__(self, other):
        return isinstance(other, Substitution) and self.mapping == other.mapping

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(tuple(self.items()))
        return self._hash

    def __bool__(self):
        return bool(self.mapping)

    def items(self):
        return self.mapping.items()

    def extend(self, alias: Alias, m: Message) -> "Substitution":
        """Frame composition with a singleton ``{alias -> m}``."""
        if alias in self.mapping:
            raise ValueError(f"alias {alias} already bound")
        # an alias, the tuple ``("Alias", prefix, stem)``, compares as its
        # ``msg_key`` does, so bisecting the sorted aliases keeps the order
        items = list(self.mapping.items())
        items.insert(bisect(list(self.mapping), alias), (alias, m))
        return Substitution.from_sorted(dict(items))

    def __str__(self):
        if not self.mapping:
            return "id"
        return " o ".join(f"{{{a} -> {m}}}" for a, m in self.items())


ID = Substitution()


def apply_msg_subst(m: Message, s: Substitution) -> Message:
    if isinstance(m, Var):
        return m
    if isinstance(m, Alias):
        return s.mapping.get(m, m)
    return App(m.fn, tuple(apply_msg_subst(a, s) for a in m.args))


class AliasMap:
    """A finite injective map from aliases to aliases.  Immutable: its key
    and its inverse are computed on first use and kept."""

    __slots__ = ("mapping", "_key", "_inverse")

    def __init__(self, mapping: Mapping[Alias, Alias] = ()):
        mapping = dict(mapping)
        if len(set(mapping.values())) != len(mapping):
            raise ValueError("alias map must be injective")
        self.mapping = mapping
        self._key = None
        self._inverse = None

    @property
    def domain(self) -> frozenset[Alias]:
        return frozenset(self.mapping)

    def __call__(self, m: Message) -> Message:
        if not self.mapping or isinstance(m, Var):
            return m
        if isinstance(m, Alias):
            return self.mapping.get(m, m)
        return App(m.fn, tuple(self(a) for a in m.args))

    def __eq__(self, other):
        return isinstance(other, AliasMap) and self.mapping == other.mapping

    def __hash__(self):
        return hash(self.key())

    def key(self):
        if self._key is None:
            self._key = tuple(
                sorted(((a.prefix, a.stem), (b.prefix, b.stem)) for a, b in self.mapping.items())
            )
        return self._key

    def extend(self, a: Alias, b: Alias) -> "AliasMap":
        if a in self.mapping or b in self.mapping.values():
            raise ValueError("extension breaks injectivity")
        # injective by the test above, so ``__init__``'s test is skipped
        new = object.__new__(AliasMap)
        new.mapping = {**self.mapping, a: b}
        new._key = new._inverse = None
        return new

    def inverse(self) -> "AliasMap":
        """The inverse map, built on first use and kept.  The inverse keeps
        no reference back, so a map and its inverse form no cycle."""
        inv = self._inverse
        if inv is None:
            inv = object.__new__(AliasMap)
            inv.mapping = {b: a for a, b in self.mapping.items()}
            inv._key = inv._inverse = None
            self._inverse = inv
        return inv

    def __str__(self):
        if not self.mapping:
            return "id"
        return ", ".join(f"{a}->{b}" for a, b in sorted(self.mapping.items(), key=lambda kv: msg_key(kv[0])))


ID_ALIAS = AliasMap()


# --- theory file parsing ---------------------------------------------------


def parse_message(text: str, arities: dict[str, int] | None = None) -> Message:
    """Parse ``f(a, g(b))`` style message text; lowercase identifiers are variables."""
    msg, rest = _parse_msg(text.strip(), arities if arities is not None else {})
    if rest.strip():
        raise TheoryError(f"trailing input after message: {rest!r}")
    return msg


def _parse_msg(text: str, arities: dict[str, int]):
    text = text.lstrip()
    i = 0
    while i < len(text) and (text[i].isalnum() or text[i] in "_'"):
        i += 1
    if i == 0:
        raise TheoryError(f"expected identifier at {text[:20]!r}")
    name, rest = text[:i], text[i:].lstrip()
    if not rest.startswith("("):
        return Var(name), rest
    rest = rest[1:]
    args = []
    while True:
        arg, rest = _parse_msg(rest, arities)
        args.append(arg)
        rest = rest.lstrip()
        if rest.startswith(","):
            rest = rest[1:]
            continue
        if rest.startswith(")"):
            rest = rest[1:]
            break
        raise TheoryError(f"expected ',' or ')' at {rest[:20]!r}")
    known = arities.get(name)
    if known is not None and known != len(args):
        raise TheoryError(f"symbol {name} used with arities {known} and {len(args)}")
    arities[name] = len(args)
    return App(Symbol(name, len(args)), tuple(args)), rest


def parse_theory(text: str) -> Theory:
    """Parse a theory file: one ``lhs -> rhs`` rule per line, ``#`` comments."""
    rules = []
    arities: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "->" not in line:
            raise TheoryError(f"line {lineno}: expected 'lhs -> rhs'")
        lhs_text, rhs_text = line.split("->", 1)
        try:
            lhs = parse_message(lhs_text, arities)
            rhs = parse_message(rhs_text, arities)
            rules.append(RewriteRule(lhs, rhs))
        except TheoryError as e:
            raise TheoryError(f"line {lineno}: {e}") from None
    return Theory(rules)


DOLEV_YAO_TEXT = """\
# symmetric encryption and pairing; a hash h is a free symbol with no rule
dec(enc(x, y), y) -> x
fst(pair(x, y)) -> x
snd(pair(x, y)) -> y
"""


def dolev_yao() -> Theory:
    """The Dolev-Yao preset.  Its signature is that of its rules; a free
    symbol such as the hash ``h`` joins a signature only when a process or
    frame mentions it."""
    return parse_theory(DOLEV_YAO_TEXT)
