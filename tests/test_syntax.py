"""Process syntax: parsing, printing, canonical forms, congruence."""

import copy
import pickle
import sys

import pytest
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
    ParseDepthExceeded,
    ParseError,
    Process,
    Sum,
    alpha_canonical,
    congruence_key,
    free_names,
    from_process,
    parse_pi_file,
    parse_process,
    prime_bangs,
    struct_congruent,
    subst_proc,
    to_text,
)
from latspi.lts import TauLabel
from latspi.terms import (
    ID,
    Alias,
    App,
    NestingLimitExceeded,
    ResourceLimitExceeded,
    Substitution,
    Symbol,
    Var,
    msg_key,
)
from reference.syntax import app, bound_names


# --- parsing and printing --------------------------------------------------


ROUND_TRIP_SOURCES = [
    "0",
    "out(a, x)",
    "in(a, x).out(b, x)",
    "new x.(out(a, x) | out(b, h(x)))",
    "new x,y.(out(a, x).([x = y] out(b, y) + in(c, z)) | !in(d, w))",
    "[x != y] out(a, x)",
    "out(a, x) + in(b, y).out(c, y)",
    "new n.out(a, n).in(n, x)",
    "!(new x.out(a, x).new x.out(a, x))",
]


@pytest.mark.parametrize("src", ROUND_TRIP_SOURCES)
def test_round_trip(src):
    p = parse_process(src)
    assert parse_process(to_text(p)) == p


def test_reserved_names_rejected():
    for src in ("out(%0, a)", "in(a, _0)", "new %1.out(a, b)", "out(a, _2)"):
        with pytest.raises(ParseError):
            parse_process(src)


def test_sum_requires_guards():
    with pytest.raises(ParseError):
        parse_process("new x.out(a, x) + out(b, b)")
    with pytest.raises(ParseError):
        parse_process("(out(a, a) | out(b, b)) + out(c, c)")


def test_deep_nesting_is_a_resource_limit():
    # 3000 nested prefixes, parentheses or function applications are deeper
    # than the recursive parser can go; library callers get a typed error
    chain = ".".join(f"in(a, x{i})" for i in range(3000))
    parens = "(" * 3000 + "0" + ")" * 3000
    term = "out(a, " + "h(" * 3000 + "m" + ")" * 3000 + ")"
    for src in (chain, parens, term):
        with pytest.raises(ParseDepthExceeded):
            parse_process(src)
        with pytest.raises(ParseDepthExceeded):
            parse_pi_file(f"let P = {src}\nP | 0")
    assert issubclass(ParseDepthExceeded, ResourceLimitExceeded)
    assert not issubclass(ParseDepthExceeded, ParseError)  # the CLI reports it as a resource limit


def test_omitted_nil_continuation():
    assert parse_process("out(a, b)") == parse_process("out(a, b).0")


def test_new_sugar():
    assert parse_process("new x,y.out(a, x)") == parse_process("new x.new y.out(a, x)")


def test_pi_file_lets():
    defs, checked = parse_pi_file(
        """
        let SENDER = out(a, m)
        let SYSTEM = SENDER | in(a, x)
        SYSTEM
        """
    )
    assert checked == parse_process("out(a, m) | in(a, x)")
    assert set(defs) == {"SENDER", "SYSTEM"}


def test_pi_file_defaults_to_last_def():
    _, checked = parse_pi_file("let P = out(a, m)")
    assert checked == parse_process("out(a, m)")


def test_free_names():
    p = parse_process("new x.(out(a, x) | in(b, y).out(y, c))")
    assert free_names(p) == {"a", "b", "c"}


# --- substitution ----------------------------------------------------------


def test_subst_proc_capture_avoiding():
    p = parse_process("new x.out(a, y)")
    q = subst_proc(p, {"y": Var("x")})
    # the binder must be renamed so the substituted x stays free
    assert free_names(q) == {"a", "x"}
    assert isinstance(q, New)
    assert q.name != "x"


def test_subst_proc_respects_input_binders():
    p = parse_process("in(a, x).out(b, x)")
    q = subst_proc(p, {"x": Var("z")})
    assert q == p  # x is bound, nothing to substitute


# --- canonical forms -------------------------------------------------------


def test_alpha_canonical_identifies_renamings():
    a = from_process(parse_process("new x.out(a, x)"))
    b = from_process(parse_process("new y.out(a, y)"))
    assert alpha_canonical(a) == alpha_canonical(b)


def test_congruence_key_nu_swap():
    body = parse_process("out(a, x) | out(b, y)")
    a = ExtendedProcess(("x", "y"), Substitution(), body)
    b = ExtendedProcess(("y", "x"), Substitution(), body)
    assert congruence_key(a) == congruence_key(b)
    assert struct_congruent(a, b)


def test_congruence_key_not_par_commutative():
    a = from_process(parse_process("out(a, a) | out(b, b)"))
    b = from_process(parse_process("out(b, b) | out(a, a)"))
    assert congruence_key(a) != congruence_key(b)


def test_congruence_frame_reorder():
    l0, l1 = Alias("0", "l"), Alias("1", "l")
    body = parse_process("0")
    a = ExtendedProcess(("%0",), Substitution({l0: Var("%0"), l1: Var("x")}), body)
    b = ExtendedProcess(("%0",), Substitution({l1: Var("x"), l0: Var("%0")}), body)
    assert congruence_key(a) == congruence_key(b)


def test_deep_state_keys_to_a_typed_limit():
    # a frame image deeper than the recursion limit under any interpreter
    # version: ``congruence_key`` raises the package's typed resource limit,
    # not a bare RecursionError
    deep = Var("m")
    for _ in range(sys.getrecursionlimit() + 100):
        deep = App(Symbol("h", 1), (deep,))
    state = ExtendedProcess((), Substitution({Alias("0", "l"): deep}), Nil())
    with pytest.raises(NestingLimitExceeded):
        congruence_key(state)


# --- replication priming ---------------------------------------------------


def test_prime_bangs():
    p = prime_bangs(parse_process("!out(a, m)"), 3)
    assert isinstance(p, Bang) and p.fuel == 3
    nested = prime_bangs(parse_process("!(out(a, m) | !in(b, x))"), 2)
    assert nested.fuel == 2 and nested.body.right.fuel == 2


# --- random round trips ----------------------------------------------------


_names = st.sampled_from(["a", "b", "c", "x", "y", "n"])
_msgs = st.recursive(
    _names.map(Var),
    lambda kids: kids.map(lambda m: app("h", m)),
    max_leaves=3,
)


def _guards(proc):
    prefix = st.one_of(
        st.tuples(_msgs, _msgs, proc).map(lambda t: Out(t[0], t[1], t[2])),
        st.tuples(_msgs, _names, proc).map(lambda t: In(t[0], t[1], t[2])),
    )
    # tests and choices take guards only
    return st.recursive(
        prefix,
        lambda guards: st.one_of(
            st.tuples(_msgs, _msgs, guards).map(lambda t: Match(*t)),
            st.tuples(_msgs, _msgs, guards).map(lambda t: Mismatch(*t)),
            st.tuples(guards, guards).map(lambda t: Sum(*t)),
        ),
        max_leaves=3,
    )


def _procs():
    base = st.just(Nil())

    def extend(children):
        guard = _guards(children)
        return st.one_of(
            guard,
            st.tuples(children, children).map(lambda t: Par(*t)),
            st.tuples(_names, children).map(lambda t: New(*t)),
            children.map(lambda c: Bang(c, None)),
        )

    return st.recursive(base, extend, max_leaves=6)


@given(_procs())
def test_random_round_trip(p):
    assert parse_process(to_text(p)) == p


@given(_procs())
def test_alpha_canonical_stable(p):
    a = alpha_canonical(from_process(p))
    assert alpha_canonical(a) == a


@settings(max_examples=100, deadline=None)
@given(st.lists(_names, unique=True, max_size=3), _procs())
@example(("x",), parse_process("new x.(out(a, x) | in(x, y).new y.out(y, x)) | new a.in(a, x)"))
def test_canonical_forms_give_every_binder_a_name_of_its_own(binders, p):
    # the structural layer extrudes each restriction under its own name,
    # which is sound only on states with this invariant
    A = ExtendedProcess(tuple(binders), ID, p)
    for canon in (alpha_canonical(A), congruence_key(A)):
        names = bound_names(canon.body)
        assert len(set(names)) == len(names)
        assert not set(names) & (set(canon.binders) | free_names(canon.body))


# --- nodes: structural equality and hashing ---------------------------------


_atoms = st.one_of(
    st.sampled_from(["a", "x"]).map(Var),
    st.tuples(st.sampled_from(["", "0", "01"]), st.sampled_from(["l", "a"])).map(
        lambda t: Alias(*t)
    ),
)
_messages = st.recursive(
    _atoms,
    lambda kids: st.tuples(
        st.sampled_from([Symbol("h", 1), Symbol("h", 2), Symbol("pair", 2)]),
        st.lists(kids, min_size=2, max_size=2),
    ).map(lambda t: App(t[0], tuple(t[1][: t[0].arity]))),
    max_leaves=4,
)
# processes with their replications unprimed or primed with some fuel
_primed = st.tuples(_procs(), st.sampled_from([None, 1, 2])).map(
    lambda t: t[0] if t[1] is None else prime_bangs(t[0], t[1])
)


# each process class's fields, by name
_FIELDS = {
    Nil: (),
    New: ("name", "body"),
    Par: ("left", "right"),
    Bang: ("body", "fuel"),
    In: ("chan", "binder", "body"),
    Out: ("chan", "payload", "body"),
    Match: ("lhs", "rhs", "body"),
    Mismatch: ("lhs", "rhs", "body"),
    Sum: ("left", "right"),
}


def _ref_key(p):
    """The class name and fields of a process, read by name, with messages
    keyed by ``msg_key``: a reference for the nodes' own equality."""

    def key(v):
        if isinstance(v, Process):
            return _ref_key(v)
        if isinstance(v, (Var, Alias, App)):
            return msg_key(v)
        return v

    return (type(p).__name__, [key(getattr(p, f)) for f in _FIELDS[type(p)]])


@given(_messages, _messages)
def test_message_equality_is_structural(m, n):
    assert (m == n) == (msg_key(m) == msg_key(n))
    if m == n:
        assert hash(m) == hash(n)


@given(_primed, _primed)
def test_process_equality_is_structural(p, q):
    assert (p == q) == (_ref_key(p) == _ref_key(q))
    if p == q:
        assert hash(p) == hash(q)


@given(st.one_of(_messages, _primed))
def test_nodes_survive_copy_and_pickle(node):
    for twin in (copy.deepcopy(node), pickle.loads(pickle.dumps(node))):
        assert twin is not node and type(twin) is type(node)
        assert twin == node and hash(twin) == hash(node)


def test_nodes_of_two_classes_with_equal_fields_differ():
    x, y, guard = Var("x"), Var("y"), parse_process("out(a, b)")
    pairs = [
        (Par(guard, guard), Sum(guard, guard)),
        (Match(x, y, guard), Mismatch(x, y, guard)),
        (Nil(), TauLabel()),
    ]
    for p, q in pairs:
        assert p != q and len({p, q}) == 2


def test_node_constructors_check_their_fields():
    with pytest.raises(ValueError):
        Alias("2", "l")
    with pytest.raises(ValueError):
        App(Symbol("h", 1), (Var("x"), Var("y")))


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
