"""Independence of located events: structural and link-causality refined."""

from hypothesis import given, strategies as st

from latspi.independence import indep_event, indep_loc
from latspi.lts import Event, InLabel, Location, OutLabel, PairLoc, TauLabel
from latspi.terms import Alias, Var
from reference.syntax import app


def out(chan, alias, prefix, choice=""):
    return Event(OutLabel(Var(chan), alias), Location(prefix, choice))


def inp(chan, payload, prefix, choice=""):
    return Event(InLabel(chan, payload), Location(prefix, choice))


L0 = Alias("0", "l")
L1 = Alias("1", "l")


# --- structural independence ----------------------------------------------


def test_divergent_prefixes_independent():
    assert indep_loc(Location("0", ""), Location("1", ""))
    assert indep_loc(Location("01", ""), Location("001", ""))


def test_comparable_prefixes_dependent():
    assert not indep_loc(Location("", ""), Location("0", ""))
    assert not indep_loc(Location("01", ""), Location("0", ""))
    assert not indep_loc(Location("0", ""), Location("0", ""))


def test_choice_divergence_does_not_count():
    # both branches of a choice compete for the same parallel prefix
    assert not indep_loc(Location("", "0"), Location("", "1"))


def test_tau_pairs_use_both_locations():
    t = PairLoc(Location("0", ""), Location("1", ""))
    assert not indep_loc(t, Location("10", ""))
    assert indep_loc(PairLoc(Location("00", ""), Location("01", "")), Location("1", ""))


# --- link causality --------------------------------------------------------


def test_reading_a_disclosed_alias_is_dependent():
    e0 = out("a", L0, "0")
    e1 = inp(Var("b"), L0, "1")
    assert indep_loc(e0.loc, e1.loc)
    assert not indep_event(e0, e1)


def test_alias_used_as_channel_is_dependent():
    e0 = out("a", L0, "0")
    e1 = inp(L0, Var("w0"), "1")
    assert not indep_event(e0, e1)


def test_alias_inside_compound_recipe_is_dependent():
    e0 = out("a", L0, "0")
    e1 = inp(Var("b"), app("h", L0), "1")
    assert not indep_event(e0, e1)


def test_output_binder_is_not_a_free_occurrence():
    # two outputs disclosing different aliases are independent
    e0 = out("a", L0, "0")
    e1 = out("b", L1, "1")
    assert indep_event(e0, e1)


def test_output_channel_alias_counts():
    # an output whose *channel* is a disclosed alias depends on the discloser
    e0 = out("a", L0, "0")
    e1 = Event(OutLabel(L0, L1), Location("1", ""))
    assert not indep_event(e0, e1)


def test_tau_has_no_alias_dependencies():
    e0 = out("a", L0, "0")
    e1 = Event(TauLabel(), PairLoc(Location("10", ""), Location("11", "")))
    assert indep_event(e0, e1)


# --- properties ------------------------------------------------------------


_locs = st.builds(
    Location,
    st.sampled_from(["", "0", "1", "00", "01", "10", "11"]),
    st.sampled_from(["", "0", "1"]),
)
_loclabels = st.one_of(_locs, st.builds(PairLoc, _locs, _locs))
_aliases = st.sampled_from([L0, L1, Alias("", "l")])
_actions = st.one_of(
    st.just(TauLabel()),
    st.builds(OutLabel, st.sampled_from([Var("a"), Var("b"), L0]), _aliases),
    st.builds(InLabel, st.sampled_from([Var("a"), L0]), st.sampled_from([Var("w0"), L0, L1])),
)
_events = st.builds(Event, _actions, _loclabels)


@given(_events, _events)
def test_independence_symmetric(e0, e1):
    assert indep_loc(e0.loc, e1.loc) == indep_loc(e1.loc, e0.loc)
    assert indep_event(e0, e1) == indep_event(e1, e0)


@given(_events, _events)
def test_full_independence_refines_structural(e0, e1):
    if indep_event(e0, e1):
        assert indep_loc(e0.loc, e1.loc)
