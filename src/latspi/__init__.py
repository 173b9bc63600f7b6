"""Non-interleaving operational semantics and behavioural-relation checking
for the applied pi-calculus.

The package builds a located labelled transition semantics for extended
processes over a convergent rewriting theory, equips it with an
independence relation over events, and decides a spectrum of behavioural
relations (interleaving, ST, history-preserving, failure, and
independence-consistent similarities and bisimilarities) by bounded games
with replayable distinguishing witnesses.
"""

from .terms import (
    Alias,
    AliasMap,
    App,
    ID,
    ID_ALIAS,
    Message,
    NestingLimitExceeded,
    ResourceLimitExceeded,
    RewriteBudgetExceeded,
    RewriteRule,
    Substitution,
    Symbol,
    Theory,
    TheoryError,
    Var,
    dolev_yao,
    parse_message,
    parse_theory,
)
from .syntax import (
    ExtendedProcess,
    ParseDepthExceeded,
    ParseError,
    Process,
    alpha_canonical,
    congruence_key,
    from_process,
    parse_pi_file,
    parse_process,
    struct_congruent,
    to_text,
)
from .lts import (
    Event,
    ExplorationBounds,
    InLabel,
    Location,
    OutLabel,
    PairLoc,
    TauLabel,
    default_consts,
    diamond_check,
    enabled_transitions,
    reachable_lts,
)
from .independence import indep_event, indep_loc
from .knowledge import (
    RecipeLimitExceeded,
    recipe_enum,
    satisfies,
    static_equiv_witness,
    static_impl_witness,
)
from .games import Rel, Verdict, build_signature, check, witness_replay
from .corpus import CorpusCase, load_corpus, run_corpus

__all__ = [name for name in dir() if not name.startswith("_")]
