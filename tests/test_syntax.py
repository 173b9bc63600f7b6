"""Process syntax: parsing, printing, canonical forms, congruence."""

import copy
import pickle

import pytest
from hypothesis import given, strategies as st

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
from latspi.terms import Alias, App, Substitution, Symbol, Var, app, msg_key


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
