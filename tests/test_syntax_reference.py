"""Canonical forms and substitution against a reference implementation.

The reference functions below are the per-constructor recursions that
``latspi.syntax`` used before its walks went through ``parts``/``remake``:
a separate first-use scan orders the top binders for ``congruence_key``,
and ``subst_proc`` collects every name of the process up front.  The
library must return equal results on every process.
"""

from hypothesis import example, given, settings, strategies as st

from latspi.syntax import (
    Bang,
    ExtendedProcess,
    In,
    Match,
    Mismatch,
    New,
    Nil,
    Out,
    Par,
    Sum,
    all_names,
    alpha_canonical,
    congruence_key,
    fresh_supply,
    parse_process,
    subst_proc,
)
from latspi.terms import Alias, App, Message, Substitution, Var, free_vars, rename_vars

from test_syntax import _msgs, _names, _procs


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


# residuals of transitions carry fresh names ``_0, _1, ...``, which the
# parser rejects; a renaming puts some into the generated processes
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
