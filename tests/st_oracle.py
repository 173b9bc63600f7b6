"""Exhaustive oracle for the ST relations, for tests only.

The library plays maximal retention: after each leader move it keeps every
pair the rule keeps.  ``ExhaustiveST`` lets the leader keep any subset of
them instead, with only that subset's demands, and tries every subset.  The
lemma in the ``latspi.games`` docstring shows that this never changes the
winner; the tests check it on the corpus.
"""

from latspi.games import (
    Checker,
    LeadNode,
    ReplyNode,
    Verdict,
    build_signature,
    initial_config,
)
from latspi.lts import default_consts


class ExhaustiveST(Checker):
    """A checker whose ST leader chooses which of the kept pairs to keep."""

    def contexts(self, cfg, side, eid):
        """The contexts ``(demands, kept)`` the leader may choose alongside
        the move of event ``eid``: under ST the rule restricted to each
        subset of its kept pairs, the empty subset first; otherwise the
        rule's.  Under ST each kept pair has exactly one demand."""
        demands, kept = self.rule(cfg, side, eid)
        if self.discipline != "st":
            yield demands, kept
            return
        for mask in range(1 << len(kept)):
            chosen = [i for i in range(len(kept)) if mask >> i & 1]
            yield [demands[i] for i in chosen], [kept[i] for i in chosen]

    def _decide(self, cfg, key, depth):
        w = self.static_witness(cfg)
        if w is not None:
            return w
        tsets = {"left": self.transitions(key[0]), "right": self.transitions(key[1])}
        if self.failure_round:
            fnode = self.failure_witness(cfg, tsets["left"], tsets["right"])
            if fnode is not None:
                return fnode
        for side in self.sides:
            follower = tsets["right" if side == "left" else "left"]
            for step in tsets[side].real_steps:
                for ctx in self.contexts(cfg, side, step.eid):
                    refutations = []
                    for event2, cfg2 in self.legal_replies(cfg, side, step, ctx, follower):
                        child = self.run(cfg2, depth + 1)
                        if child is None:
                            break
                        refutations.append(ReplyNode(event2, child))
                    else:
                        return LeadNode(side, step.event, refutations)
        return None


def check_exhaustive(rel, p, q, bounds, theory) -> Verdict:
    """``latspi.games.check`` played by ``ExhaustiveST``."""
    signature = build_signature(theory, p, q)
    consts = default_consts(p, q) | frozenset(bounds.extra_consts)
    checker = ExhaustiveST(rel, theory, bounds, signature, consts)
    witness = checker.run(initial_config(p, q, bounds))
    exact = witness is not None or not checker.tainted
    return Verdict(rel, witness is None, exact, bounds, witness)
