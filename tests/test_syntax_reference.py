"""Syntax walks against reference implementations.

The reference functions below are per-constructor recursions: those that
``latspi.syntax`` used before its walks went through each class's layout,
with a separate first-use scan ordering the top binders for
``congruence_key`` and ``subst_proc`` collecting every name of the process
up front, and direct recursions for ``free_names``, ``symbols_of`` and
``prime_bangs``.  The library must return equal results on every process.
"""

from hypothesis import example, given, settings, strategies as st

from latspi.syntax import (
    Bang,
    ExtendedProcess,
    Guard,
    In,
    Match,
    Mismatch,
    New,
    Nil,
    Out,
    Par,
    Process,
    Sum,
    all_names,
    alpha_canonical,
    congruence_key,
    free_names,
    fresh_supply,
    parse_process,
    prime_bangs,
    subst_proc,
    symbols_of,
)
from latspi.terms import Alias, App, Message, Substitution, Var, free_vars, msg_symbols, rename_vars

from test_syntax import _messages, _msgs, _names, _primed, _procs


# --- reference -------------------------------------------------------------


def ref_all_names(p):
    if isinstance(p, Nil):
        return frozenset()
    if isinstance(p, New):
        return ref_all_names(p.body) | {p.name}
    if isinstance(p, Par):
        return ref_all_names(p.left) | ref_all_names(p.right)
    if isinstance(p, Bang):
        return ref_all_names(p.body)
    if isinstance(p, In):
        return free_vars(p.chan) | ref_all_names(p.body) | {p.binder}
    if isinstance(p, Out):
        return free_vars(p.chan) | free_vars(p.payload) | ref_all_names(p.body)
    if isinstance(p, (Match, Mismatch)):
        return free_vars(p.lhs) | free_vars(p.rhs) | ref_all_names(p.body)
    if isinstance(p, Sum):
        return ref_all_names(p.left) | ref_all_names(p.right)
    raise TypeError(p)


def ref_free_names(p):
    if isinstance(p, Nil):
        return frozenset()
    if isinstance(p, New):
        return ref_free_names(p.body) - {p.name}
    if isinstance(p, (Par, Sum)):
        return ref_free_names(p.left) | ref_free_names(p.right)
    if isinstance(p, Bang):
        return ref_free_names(p.body)
    if isinstance(p, In):
        return free_vars(p.chan) | (ref_free_names(p.body) - {p.binder})
    if isinstance(p, Out):
        return free_vars(p.chan) | free_vars(p.payload) | ref_free_names(p.body)
    if isinstance(p, (Match, Mismatch)):
        return free_vars(p.lhs) | free_vars(p.rhs) | ref_free_names(p.body)
    raise TypeError(p)


def ref_symbols_of(p):
    if isinstance(p, Nil):
        return frozenset()
    if isinstance(p, (New, Bang)):
        return ref_symbols_of(p.body)
    if isinstance(p, (Par, Sum)):
        return ref_symbols_of(p.left) | ref_symbols_of(p.right)
    if isinstance(p, In):
        return msg_symbols(p.chan) | ref_symbols_of(p.body)
    if isinstance(p, Out):
        return msg_symbols(p.chan) | msg_symbols(p.payload) | ref_symbols_of(p.body)
    if isinstance(p, (Match, Mismatch)):
        return msg_symbols(p.lhs) | msg_symbols(p.rhs) | ref_symbols_of(p.body)
    raise TypeError(p)


def ref_prime_bangs(p, fuel):
    if isinstance(p, Nil):
        return p
    if isinstance(p, New):
        return New(p.name, ref_prime_bangs(p.body, fuel))
    if isinstance(p, Par):
        return Par(ref_prime_bangs(p.left, fuel), ref_prime_bangs(p.right, fuel))
    if isinstance(p, Sum):
        return Sum(ref_prime_bangs(p.left, fuel), ref_prime_bangs(p.right, fuel))
    if isinstance(p, Bang):
        return Bang(ref_prime_bangs(p.body, fuel), fuel)
    if isinstance(p, In):
        return In(p.chan, p.binder, ref_prime_bangs(p.body, fuel))
    if isinstance(p, Out):
        return Out(p.chan, p.payload, ref_prime_bangs(p.body, fuel))
    if isinstance(p, (Match, Mismatch)):
        return type(p)(p.lhs, p.rhs, ref_prime_bangs(p.body, fuel))
    raise TypeError(p)


def ref_subst_proc(p, mapping):
    mapping = {k: v for k, v in mapping.items() if v != Var(k)}
    if not mapping:
        return p
    range_fv = set(mapping)
    for m in mapping.values():
        range_fv |= free_vars(m)
    supply = fresh_supply(range_fv | ref_all_names(p))
    return _subst(p, mapping, range_fv, supply)


def _subst(p, mapping, range_fv, supply):
    def on_binder(x, body):
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


def _scan_first_use(A):
    binders = set(A.binders)
    order = []
    seen = set()

    def scan_msg(m, shadow):
        if isinstance(m, Var):
            if m.name in binders and m.name not in shadow and m.name not in seen:
                seen.add(m.name)
                order.append(m.name)
        elif isinstance(m, App):
            for a in m.args:
                scan_msg(a, shadow)

    def scan(p, shadow):
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


def _canon_body(p, env, counter):
    def bind(x):
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


def _canonical(A, order_by_use):
    top = _scan_first_use(A) if order_by_use else list(A.binders)
    env: dict[str, Message] = {old: Var(f"%{i}") for i, old in enumerate(top)}
    frame = Substitution({a: rename_vars(m, env) for a, m in A.frame.items()})
    counter = [len(top)]
    body = _canon_body(A.body, env, counter)
    return ExtendedProcess(tuple(f"%{i}" for i in range(len(top))), frame, body)


# --- agreement -------------------------------------------------------------


_frames = st.lists(_msgs, max_size=2).map(
    lambda ms: Substitution({Alias(str(i), "l"): m for i, m in enumerate(ms)})
)
# keys and values share the names that processes bind, so many of these
# substitutions must rename a binder to avoid capture
_substitutions = st.dictionaries(_names, st.one_of(_names.map(Var), _msgs), max_size=3)


@settings(max_examples=300, deadline=None)
@given(st.lists(_names, max_size=3), _frames, _procs())
@example(["y", "x"], Substitution({Alias("0", "l"): Var("x")}), parse_process("new x.out(a, y) | out(b, x)"))
@example(["x", "y", "x"], Substitution(), parse_process("in(x, y).out(y, a) + [a = y] out(x, b)"))
@example(["y", "x"], Substitution(), parse_process("new x.out(a, x) | in(b, x).out(y, x) | out(c, x)"))
def test_canonical_forms_agree_with_the_reference(binders, frame, p):
    A = ExtendedProcess(tuple(binders), frame, p)
    assert congruence_key(A) == _canonical(A, order_by_use=True)
    assert alpha_canonical(A) == _canonical(A, order_by_use=False)


# capture-avoiding substitution and ``lts._close`` choose fresh names
# ``_0, _1, ...``, which the parser rejects; a renaming puts some into the
# generated processes
_to_fresh = st.dictionaries(_names, st.sampled_from(["_0", "_1"]).map(Var), max_size=2)


@settings(max_examples=300, deadline=None)
@given(_procs(), _substitutions, _to_fresh)
@example(parse_process("new x.out(a, y)"), {"y": Var("x")}, {})
@example(parse_process("new x.out(a, b)"), {"a": Var("x")}, {"b": Var("_0")})
@example(parse_process("in(a, x).([x = y] out(b, x) + in(y, n).out(n, x))"), {"y": Var("x"), "a": Var("n")}, {})
def test_subst_proc_agrees_with_the_reference(p, mapping, to_fresh):
    p = ref_subst_proc(p, to_fresh)
    assert all_names(p) == ref_all_names(p)
    assert subst_proc(p, mapping) == ref_subst_proc(p, mapping)


# messages with binary symbols and aliases, which ``_procs`` does not draw
_payloads = st.dictionaries(_names, _messages, max_size=2)


@settings(max_examples=300, deadline=None)
@given(_primed, _payloads, st.sampled_from([0, 1, 3]))
@example(parse_process("new x.in(a, y).[x = h(y)] out(b, pair(x, z))"), {}, 2)
@example(parse_process("!(in(a, x).!out(x, a)) | new a.out(a, b)"), {}, 1)
def test_name_symbol_and_priming_walks_agree_with_the_reference(p, payloads, fuel):
    p = subst_proc(p, payloads)
    assert free_names(p) == ref_free_names(p)
    assert symbols_of(p) == ref_symbols_of(p)
    primed = prime_bangs(p, fuel)
    assert primed == ref_prime_bangs(p, fuel)
    assert prime_bangs(primed, fuel) == primed


def test_seventy_nested_binders_are_numbered_past_any_table():
    # 70 top binders and 70 nested restrictions name binders up to ``%139``
    names = [f"x{i}" for i in range(70)]
    uses = " | ".join(f"out(a, {x})" for x in reversed(names))
    p = parse_process(f"new {','.join(names)}.({uses})")
    A = ExtendedProcess(tuple(names), Substitution({Alias("0", "l"): Var("x5")}), p)
    key, alpha = congruence_key(A), alpha_canonical(A)
    assert key == _canonical(A, order_by_use=True)
    assert alpha == _canonical(A, order_by_use=False)
    assert key.binders == alpha.binders == tuple(f"%{i}" for i in range(70))
    assert "new %70," in str(key) and "%139.(" in str(key)
    # the top binder ``x5`` is met first, in the frame, and named ``%0``
    assert str(key.frame) == "{0l -> %0}" and str(alpha.frame) == "{0l -> %5}"
    assert subst_proc(p, {"a": Var("x3")}) == ref_subst_proc(p, {"a": Var("x3")})


def _leaf_classes(cls):
    subs = cls.__subclasses__()
    return {cls} if not subs else set().union(*map(_leaf_classes, subs))


def test_every_process_class_has_a_layout_covering_its_fields():
    x, y = Var("x"), Var("y")
    guard = Out(x, y, Nil())
    samples = [
        Nil(),
        New("n", guard),
        Par(guard, Nil()),
        Bang(guard, 2),
        In(x, "n", guard),
        guard,
        Match(x, y, guard),
        Mismatch(x, y, guard),
        Sum(guard, guard),
    ]
    assert {type(p) for p in samples} == _leaf_classes(Process)
    for p in samples:
        cls = type(p)
        assert "layout" in vars(cls), cls
        msgs, binder, kids = cls.layout
        listed = [*msgs, *kids, *([] if binder is None else [binder])]
        assert len(set(listed)) == len(listed) and all(0 < i < len(p) for i in listed), cls
        # every field holding a message, a process or a bound name is
        # listed in its place; the others, such as a replication's fuel,
        # carry over unlisted
        for i in range(1, len(p)):
            assert (i in msgs) == isinstance(p[i], (Var, Alias, App)), (cls, i)
            assert (i in kids) == isinstance(p[i], Process), (cls, i)
            assert (i == binder) == isinstance(p[i], str), (cls, i)
    assert "layout" not in vars(Guard) and "layout" not in vars(Process)
