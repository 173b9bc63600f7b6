"""Independence of located events.

Two location labels are independent when every pair of constituent
locations diverges in the parallel prefix: the prefixes must be
incomparable under the prefix order.  Divergence in the choice part alone
does not count, since the two branches of a choice compete for the same
prefix.  Full event independence additionally rules out link causality: an
output event is dependent on any event whose label mentions the alias it
discloses.
"""

from __future__ import annotations

from .lts import Event, Location, LocationLabel, OutLabel, PairLoc, label_aliases


def loc_set(u: LocationLabel) -> tuple[Location, ...]:
    if isinstance(u, PairLoc):
        return (u.left, u.right)
    return (u,)


def _prefix_incomparable(a: str, b: str) -> bool:
    return not (a.startswith(b) or b.startswith(a))


def indep_loc(u0: LocationLabel, u1: LocationLabel) -> bool:
    """Structural independence of two location labels."""
    return all(
        _prefix_incomparable(l0.prefix, l1.prefix)
        for l0 in loc_set(u0)
        for l1 in loc_set(u1)
    )


def indep_event(e0: Event, e1: Event) -> bool:
    """Structural independence refined by link causality: an event reading
    an alias depends on the output that disclosed it."""
    if not indep_loc(e0.loc, e1.loc):
        return False
    if isinstance(e0.action, OutLabel) and e0.action.alias in label_aliases(e1.action):
        return False
    if isinstance(e1.action, OutLabel) and e1.action.alias in label_aliases(e0.action):
        return False
    return True


def indep_ids(table: dict, test, events: list, i: int, j: int) -> bool:
    """``test`` of the events with ids ``i`` and ``j``, ``events`` being a
    theory's id -> event list (``lts.event_id``), decided once per pair of
    ids: ``table`` keeps each answer."""
    hit = table.get((i, j))
    if hit is None:
        hit = table[i, j] = test(events[i], events[j])
    return hit
