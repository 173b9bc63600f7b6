"""Command-line surface.

Subcommands: ``parse``, ``lts``, ``indep``, ``static-equiv``, ``check``,
``spectrum``, ``diamonds``, ``corpus``, ``explain``.  Exit codes for
decision commands: 0 when the queried property holds (Related / equivalent
/ no violations), 1 when refuted, 2 on errors, a recipe, rewrite, recursion,
memory or ``indep`` pair limit hit included.  ``spectrum`` decides every
relation on one pair and exits 0, or 2 on an error or when its verdicts
break a proved edge of ``games.ORDER``, which would be an internal error.
Each command builds its own theory, which owns every cache.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from dataclasses import asdict

from . import corpus as corpus_mod
from .games import (
    ORDER,
    FailureNode,
    LeadNode,
    Rel,
    StaticNode,
    Verdict,
    build_signature,
    check,
    witness_replay,
)
from .knowledge import (
    satisfies,
    static_equiv_witness,
    static_impl_witness,
)
from .independence import indep_event, indep_loc
from .lts import (
    ExplorationBounds,
    checked_bounds,
    default_consts,
    diamond_check,
    enabled_transitions,
    reachable_lts,
)
from .syntax import ParseError, from_process, parse_pi_file, prime_bangs, to_text
from .terms import (
    ID_ALIAS,
    Alias,
    App,
    ResourceLimitExceeded,
    Substitution,
    Theory,
    TheoryError,
    free_aliases,
    free_vars,
    msg_key,
    msg_symbols,
    parse_message,
    parse_theory,
    rename_vars,
    Var,
)


class CliError(Exception):
    pass


class PairLimitExceeded(ResourceLimitExceeded):
    """``indep`` would list more pairs of events than ``MAX_INDEP_PAIRS``."""


# ``indep`` lists every pair of distinct initial events; a Dolev-Yao corpus
# system at the default bounds has about 24,400 of them, some 298M pairs
MAX_INDEP_PAIRS = 100_000


# --- shared option handling ------------------------------------------------


def load_theory(spec: str | None) -> Theory:
    """A new theory per call: a preset name (``corpus.THEORIES``), the
    empty theory by default, or a rewrite-theory file."""
    preset = corpus_mod.THEORIES.get("empty" if spec is None else spec)
    if preset is not None:
        return preset()
    with open(spec) as f:
        return parse_theory(f.read())


_BOUND_KEYS = {
    "depth": "recipe_depth",
    "recipe": "recipe_depth",
    "static": "static_depth",
    "unfold": "repl_unfold",
    "game": "game_depth",
    "budget": "state_budget",
}


def parse_bounds(text: str | None) -> ExplorationBounds:
    values: dict = {}
    if text:
        for part in text.split(","):
            if not part:
                continue
            if "=" not in part:
                raise CliError(f"malformed bounds entry: {part!r}")
            key, _, value = part.partition("=")
            try:
                values[key.strip()] = int(value)
            except ValueError:
                values[key.strip()] = value  # rejected below, naming the key
    try:
        kw = checked_bounds(values, _BOUND_KEYS)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    if "recipe_depth" in kw and "static_depth" not in kw:
        kw["static_depth"] = kw["recipe_depth"]
    return ExplorationBounds(**kw)


def load_process(path: str):
    with open(path) as f:
        _, proc = parse_pi_file(f.read())
    return proc


# --- witness serialization -------------------------------------------------


def witness_to_json(node) -> dict:
    if isinstance(node, StaticNode):
        return {
            "kind": "static",
            "m": str(node.m),
            "n": str(node.n),
            "holds_left": node.holds_left,
            "holds_right": node.holds_right,
        }
    if isinstance(node, FailureNode):
        return {"kind": "failure", "event": str(node.event)}
    if isinstance(node, LeadNode):
        return {
            "kind": "lead",
            "side": node.side,
            "event": str(node.event),
            "replies": [
                {"event": str(r.event), "child": witness_to_json(r.child)} for r in node.replies
            ],
        }
    raise CliError(f"unknown witness node: {node!r}")


def verdict_to_json(v: Verdict) -> dict:
    return {
        "relation": v.relation.value,
        "related": v.related,
        "exact": v.exact,
        "verdict_class": corpus_mod.verdict_class(v),
        "bounds": asdict(v.bounds),
        "witness": witness_to_json(v.witness) if v.witness is not None else None,
    }


# --- frame files for static-equiv ------------------------------------------


def load_frame(path: str):
    """A frame file: an optional ``new x, y`` line declaring private names,
    then one ``ALIAS = term`` line per frame entry (aliases like 0l, 1l')."""
    subst = Substitution()
    private: dict = {}
    with open(path) as f:
        lines = [ln.split("#", 1)[0].strip() for ln in f]
    for ln in lines:
        if not ln:
            continue
        if ln.startswith("new "):
            for name in (n.strip() for n in ln[4:].split(",")):
                private[name] = Var(f"%{len(private)}")
            continue
        if "=" not in ln:
            raise CliError(f"malformed frame line: {ln!r}")
        lhs, _, rhs = ln.partition("=")
        alias = _parse_alias(lhs.strip())
        term = _aliasify(rename_vars(parse_message(rhs.strip()), private))
        if free_aliases(term):
            raise CliError(f"malformed frame line: {ln!r}: a frame term cannot mention an alias")
        subst = subst.extend(alias, term)
    return subst


_ALIAS_RE = re.compile(r"([01]*)(l'*)\Z")


def _aliasify(m):
    """In frame and test contexts, names shaped like ``01l'`` are aliases."""
    if isinstance(m, Var):
        match = _ALIAS_RE.match(m.name)
        return Alias(match.group(1), match.group(2)) if match else m
    if isinstance(m, App):
        return App(m.fn, tuple(_aliasify(a) for a in m.args))
    return m


def _parse_alias(text: str):
    m = _ALIAS_RE.match(text)
    if not m:
        raise CliError(f"malformed alias: {text!r}")
    return Alias(m.group(1), m.group(2))


# --- subcommands -----------------------------------------------------------


def cmd_parse(args) -> int:
    p = load_process(args.file)
    if args.format == "json":
        print(json.dumps({"process": to_text(p)}, indent=2))
    else:
        print(to_text(p))
    return 0


def _explore(args):
    theory = load_theory(args.theory)
    bounds = parse_bounds(args.bounds)
    p = prime_bangs(load_process(args.file), bounds.repl_unfold)
    signature = build_signature(theory, p)
    consts = default_consts(p) | frozenset(bounds.extra_consts)
    return p, theory, bounds, signature, consts


def cmd_lts(args) -> int:
    p, theory, bounds, signature, consts = _explore(args)
    graph = reachable_lts(from_process(p), bounds, theory, signature, consts)
    data = {
        "states": [str(s) for s in graph.states],
        "edges": [[src, str(e), dst] for src, e, dst in graph.edges],
        "tainted": graph.tainted,
        "budget_exhausted": graph.budget_exhausted,
    }
    if args.format == "json":
        print(json.dumps(data, indent=2))
    else:
        for i, s in enumerate(data["states"]):
            print(f"state {i}: {s}")
        for src, e, dst in data["edges"]:
            print(f"  {src} --{e}--> {dst}")
        print(
            f"{len(graph.states)} states, {len(graph.edges)} edges, "
            f"tainted={graph.tainted}, budget_exhausted={graph.budget_exhausted}"
        )
    return 0


def cmd_indep(args) -> int:
    p, theory, bounds, signature, consts = _explore(args)
    steps = enabled_transitions(from_process(p), bounds, theory, signature, consts).real_steps
    uniq = []
    seen = set()
    for s in steps:
        if s.eid not in seen:
            seen.add(s.eid)
            uniq.append(s.event)
    n = len(uniq)
    count = n * (n - 1) // 2
    if count > MAX_INDEP_PAIRS:
        raise PairLimitExceeded(
            f"{n} initial events make {count} pairs, "
            f"more than the {MAX_INDEP_PAIRS} that indep lists"
        )
    events = [str(e) for e in uniq]
    pairs = []
    for i, e0 in enumerate(uniq):
        for e1 in uniq[i + 1 :]:
            pairs.append(
                {
                    "first": str(e0),
                    "second": str(e1),
                    "indep_loc": indep_loc(e0.loc, e1.loc),
                    "indep_event": indep_event(e0, e1),
                }
            )
    data = {"events": events, "pairs": pairs}
    if args.format == "json":
        print(json.dumps(data, indent=2))
    else:
        for e in events:
            print(f"event {e}")
        for pr in pairs:
            print(
                f"  {pr['first']}  vs  {pr['second']}: "
                f"structural={pr['indep_loc']} full={pr['indep_event']}"
            )
    return 0


def cmd_static_equiv(args) -> int:
    theory = load_theory(args.theory)
    bounds = parse_bounds(args.bounds)
    left = load_frame(args.left)
    right = load_frame(args.right)
    syms = theory.symbols()
    consts = frozenset({"w0"}) | frozenset(bounds.extra_consts)
    for _, term in list(left.items()) + list(right.items()):
        syms |= msg_symbols(term)
        consts |= _free_public(term)
    signature = tuple(sorted(syms, key=lambda s: (s.name, s.arity)))
    if args.test:
        lhs, _, rhs = args.test.partition("=")
        m = _aliasify(parse_message(lhs.strip()))
        n = _aliasify(parse_message(rhs.strip()))
        # an alias a frame does not bind stays opaque there, and the test
        # would read as failing rather than as malformed
        for a in sorted(free_aliases(m) | free_aliases(n), key=msg_key):
            unbound = [side for side, frame in (("left", left), ("right", right)) if a not in frame.mapping]
            if unbound:
                which = "neither frame binds" if len(unbound) == 2 else f"the {unbound[0]} frame does not bind"
                raise CliError(f"--test mentions alias {a}, which {which}")
        holds_l = satisfies(left, m, n, theory)
        holds_r = satisfies(right, m, n, theory)
        data = {"test": args.test, "holds_left": holds_l, "holds_right": holds_r}
        code = 0 if holds_l == holds_r else 1
    else:
        if left.domain != right.domain:
            raise CliError("frames have different alias domains; cannot use the identity map")
        fn = static_impl_witness if args.impl else static_equiv_witness
        w = fn(left, right, ID_ALIAS, consts, signature, bounds.static_depth, theory)
        data = {
            "equivalent": w is None,
            "witness": None
            if w is None
            else {
                "m": str(w.m),
                "n": str(w.n),
                "holds_left": w.holds_left,
                "holds_right": w.holds_right,
            },
        }
        code = 0 if w is None else 1
    if args.format == "json":
        print(json.dumps(data, indent=2))
    else:
        print(json.dumps(data))
    return code


def _free_public(term):
    return {v for v in free_vars(term) if not v.startswith("%")}


def cmd_check(args) -> int:
    theory = load_theory(args.theory)
    bounds = parse_bounds(args.bounds)
    rel = Rel(args.relation)
    left = load_process(args.left)
    right = load_process(args.right)
    verdict = check(rel, left, right, bounds, theory)
    replay_ok = None
    if verdict.witness is not None:
        replay_ok = witness_replay(verdict, left, right, theory)
    if args.witness:
        with open(args.witness, "w") as f:
            json.dump(verdict_to_json(verdict), f, indent=2)
            f.write("\n")
    if args.format == "json":
        data = verdict_to_json(verdict)
        data["witness_replay"] = replay_ok
        print(json.dumps(data, indent=2))
    else:
        cls = corpus_mod.verdict_class(verdict)
        line = f"{rel.value}: {cls}"
        if replay_ok is not None:
            line += f" (witness replay {'ok' if replay_ok else 'FAILED'})"
        print(line)
    return 0 if verdict.related else 1


def cmd_spectrum(args) -> int:
    theory, bounds = load_theory(args.theory), parse_bounds(args.bounds)
    left, right = load_process(args.left), load_process(args.right)
    classes, rows = {}, []
    for rel in Rel:
        t0 = time.perf_counter()
        cls = classes[rel] = corpus_mod.verdict_class(check(rel, left, right, bounds, theory))
        rows.append(f"{rel.value:<12} {cls:<16} {time.perf_counter() - t0:6.2f}s")
    data = {"classes": {rel.value: cls for rel, cls in classes.items()}}
    print(json.dumps(data, indent=2) if args.format == "json" else "\n".join(rows))
    # under equal bounds an uncut finer verdict cannot meet a distinguished
    # coarser one (the proofs are in the ``games`` docstring)
    exact, distinguished = corpus_mod.RELATED_EXACT, corpus_mod.DISTINGUISHED
    broken = [
        f"{finer.value} => {coarser.value}"
        for finer, coarser, proved in ORDER
        if proved and (classes[finer], classes[coarser]) == (exact, distinguished)
    ]
    if broken:
        raise CliError(f"internal error: the verdicts break proved order edges: {', '.join(broken)}")
    return 0


def cmd_diamonds(args) -> int:
    p, theory, bounds, signature, consts = _explore(args)
    graph = reachable_lts(from_process(p), bounds, theory, signature, consts)
    violations = diamond_check(graph, bounds, theory, signature, consts)
    data = {
        "states": len(graph.states),
        "tainted": graph.tainted,
        "budget_exhausted": graph.budget_exhausted,
        "violations": [
            {"state": str(v.state), "first": str(v.first), "second": str(v.second), "reason": v.reason}
            for v in violations
        ],
    }
    if args.format == "json":
        print(json.dumps(data, indent=2))
    else:
        print(
            f"{len(graph.states)} states checked, {len(violations)} diamond violations, "
            f"tainted={graph.tainted}, budget_exhausted={graph.budget_exhausted}"
        )
        for v in data["violations"]:
            print(f"  at {v['state']}: {v['first']} / {v['second']} ({v['reason']})")
    return 0 if not violations else 1


def cmd_corpus(args) -> int:
    report = corpus_mod.run_corpus(args.path)
    if not args.timings:
        for c in report["cases"]:
            del c["seconds"]
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        for c in report["cases"]:
            status = "PASS" if c["ok"] else "FAIL"
            extra = f" [{c['error']}]" if c.get("error") else ""
            if args.timings:
                extra += f" ({c['seconds']:.3f} s)"
            print(f"{status} {c['name']}: expected {c['expected']}, got {c['actual']}{extra}")
        print(f"{report['passed']}/{report['total']} cases passed")
    return 0 if report["failed"] == 0 else 1


def _field(node, key: str):
    """``node[key]`` of a witness file's JSON object, or a ``CliError``."""
    if not isinstance(node, dict) or key not in node:
        raise CliError(f"malformed witness file: no {key!r} in {node!r}")
    return node[key]


def _narrate(node: dict, depth: int, out: list) -> None:
    pad = "  " * depth
    kind = _field(node, "kind")
    if kind == "static":
        sides = {
            (True, False): "holds on the left only",
            (False, True): "holds on the right only",
        }.get((_field(node, "holds_left"), _field(node, "holds_right")), "separates the frames")
        out.append(f"{pad}static test {_field(node, 'm')} = {_field(node, 'n')} {sides}")
    elif kind == "failure":
        out.append(
            f"{pad}the right side enables {_field(node, 'event')}, "
            "which the left side cannot mirror under its running-event constraints"
        )
    elif kind == "lead":
        out.append(f"{pad}the {_field(node, 'side')} side leads with {_field(node, 'event')}")
        replies = _field(node, "replies")
        if not isinstance(replies, list):
            raise CliError(f"malformed witness file: replies are not a list: {replies!r}")
        if not replies:
            out.append(f"{pad}  no legal answer exists on the other side")
        for r in replies:
            out.append(f"{pad}  answer {_field(r, 'event')} is refuted:")
            _narrate(_field(r, "child"), depth + 2, out)
    else:
        raise CliError(f"malformed witness node: {node!r}")


def cmd_explain(args) -> int:
    with open(args.file) as f:
        data = json.load(f)
    if not isinstance(data, dict):
        raise CliError(f"malformed witness file: not a JSON object: {data!r}")
    if data.get("witness") is None:
        print(f"{data.get('relation', 'verdict')}: related; nothing to explain")
        return 0
    out = [f"{_field(data, 'relation')}: distinguished"]
    _narrate(data["witness"], 0, out)
    print("\n".join(out))
    return 0


# --- argument parser -------------------------------------------------------


def _add_common(sp, theory=True, bounds=True):
    if theory:
        sp.add_argument("--theory", help="rewrite-theory file, or preset 'empty'/'dolev-yao'")
    if bounds:
        sp.add_argument(
            "--bounds",
            help="comma list of depth=, static=, unfold=, game=, budget= settings",
        )
    sp.add_argument("--format", choices=("text", "json"), default="text")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lats-pi",
        description="located-event semantics and behavioural relations for the applied pi-calculus",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("parse", help="parse a process file and print it back")
    sp.add_argument("file")
    _add_common(sp, theory=False, bounds=False)
    sp.set_defaults(fn=cmd_parse)

    sp = sub.add_parser("lts", help="explore the reachable transition graph")
    sp.add_argument("file")
    _add_common(sp)
    sp.set_defaults(fn=cmd_lts)

    sp = sub.add_parser("indep", help="independence of the initially enabled events")
    sp.add_argument("file")
    _add_common(sp)
    sp.set_defaults(fn=cmd_indep)

    sp = sub.add_parser("static-equiv", help="static equivalence of two frame files")
    sp.add_argument("left")
    sp.add_argument("right")
    sp.add_argument("--impl", action="store_true", help="one-directional test preservation")
    sp.add_argument("--test", help="check one recipe equality M = N on both frames")
    _add_common(sp)
    sp.set_defaults(fn=cmd_static_equiv)

    sp = sub.add_parser("check", help="decide a behavioural relation between two processes")
    sp.add_argument("relation", choices=[r.value for r in Rel])
    sp.add_argument("left")
    sp.add_argument("right")
    sp.add_argument("--witness", help="write the distinguishing strategy tree to a JSON file")
    _add_common(sp)
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("spectrum", help="decide every relation between two processes")
    sp.add_argument("left")
    sp.add_argument("right")
    _add_common(sp)
    sp.set_defaults(fn=cmd_spectrum)

    sp = sub.add_parser("diamonds", help="check commutation of independent transitions")
    sp.add_argument("file")
    _add_common(sp)
    sp.set_defaults(fn=cmd_diamonds)

    sp = sub.add_parser("corpus", help="run the example corpus")
    sp.add_argument("--path", help="corpus JSON file (defaults to the built-in corpus)")
    sp.add_argument("--timings", action="store_true", help="include per-case timings")
    _add_common(sp, theory=False, bounds=False)
    sp.set_defaults(fn=cmd_corpus)

    sp = sub.add_parser("explain", help="narrate a witness file")
    sp.add_argument("file")
    _add_common(sp, theory=False, bounds=False)
    sp.set_defaults(fn=cmd_explain)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, ParseError, TheoryError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ResourceLimitExceeded, RecursionError, MemoryError) as exc:
        # exit 1 would read as "distinguished"
        print(f"error: resource limit hit: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
