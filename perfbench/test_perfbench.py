"""The benchmark's own checks.

Run from the root of the repository:

    python3 -m pytest -q perfbench/test_perfbench.py

Each workload runs one round with its checks on; negative controls show
that a wrong answer is counted as a failed operation.  The ``corpus-dy``
round checks the replicated Dolev-Yao cases and takes about 15 s.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from latspi import corpus  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_one_round_passes_its_checks(name):
    workload, ops = workloads.setup(name, seed=7)
    m = run.measure(workload, ops, seconds=0)
    assert m["attempted"] == len(ops) > 0
    assert m["failed"] == 0
    assert workload.post_check() == 0


def test_wrong_expected_class_is_a_failed_operation():
    cases = inputs.corpus_cases(corpus.load_corpus(), "empty")
    flip = {corpus.DISTINGUISHED: corpus.RELATED_EXACT}
    cases[0] = replace(cases[0], expected=flip.get(cases[0].expected, corpus.DISTINGUISHED))
    workload = workloads.CorpusPass(cases, inputs.Renamer(7), memory_rounds=1)
    m = run.measure(workload, workload.round(), seconds=0)
    assert (m["attempted"], m["failed"]) == (1, 1)


def test_broken_hierarchy_fails_the_whole_round():
    workload, ops = workloads.setup("spectrum", seed=7)
    oks = [op() for op in ops]
    assert all(oks)
    assert workload.classes["bisim-st"] != corpus.DISTINGUISHED
    workload.classes["sim-st"] = corpus.DISTINGUISHED  # below the related bisim-st
    assert workload.check_round(oks) == [False] * len(ops)


def test_changed_system_shape_is_caught_after_the_run():
    workload, ops = workloads.setup("diamonds", seed=7)
    assert all(op() for op in ops)
    i, states, edges = workload.shapes[-1]
    workload.shapes[-1] = (i, states + 1, edges)
    assert workload.post_check() == 1


def test_renaming_is_a_fresh_bijection_that_keeps_symbols():
    case = next(c for c in corpus.load_corpus() if c.name == "error-reveal-bang-fsim-hp")
    renamer = inputs.Renamer(3)
    a, b = renamer.variant(case), renamer.variant(case)
    names = inputs.names_of(case.left, case.right)
    assert names == {"k", "r", "a", "hi", "m", "b", "x", "err"}
    for v in (a, b):
        assert inputs.symbols_of(v.left, v.right) == inputs.symbols_of(case.left, case.right)
        renamed = inputs.names_of(v.left, v.right)
        tag = next(r[1:] for r in renamed if r[0] == "k")  # k is the only name on k
        assert not renamed & names
        # one tag for every name keeps the names' order
        assert [inputs.tagged(n, tag) for n in sorted(names)] == sorted(renamed)
    assert inputs.names_of(a.left) != inputs.names_of(b.left)
    again = inputs.Renamer(3).variant(case)
    assert (again.left, again.right) == (a.left, a.right)


def test_renaming_keeps_w0_keywords_and_extra_consts_consistent():
    case = corpus.case_from_dict({
        "name": "t", "relation": "sim-i", "expected": "RELATED_EXACT",
        "left": "in(c,x).out(c,w0)", "right": "new n.out(c,n)",
        "bounds": {"extra_consts": ["c", "d"]},
    })
    v = inputs.Renamer(1).variant(case)
    tag = v.bounds.extra_consts[0][1:]
    assert v.bounds.extra_consts == ("c" + tag, "d" + tag)
    assert v.left == f"in(c{tag},x{tag}).out(c{tag},w0)"
    assert v.right == f"new n{tag}.out(c{tag},n{tag})"


def test_tracer_reports_every_per_layer_metric_and_uninstalls():
    from latspi import games

    original = games.enabled_transitions
    tracer = tracing.Tracer(span_cap=10)
    workload, ops = workloads.setup("spectrum", seed=7)
    with tracer.installed():
        assert games.enabled_transitions is not original
        m = run.measure(workload, ops, seconds=0, tracer=tracer)
    assert games.enabled_transitions is original
    metrics = tracer.metrics(m["attempted"], m["elapsed"])
    assert set(metrics) == {x["name"] for x in BENCH["per_layer"]}
    units = {x["name"]: x["unit"] for x in BENCH["per_layer"]}
    assert all(units[k] == u for k, (_, u) in metrics.items())
    assert metrics["games.run_calls"][0] > 0 and metrics["knowledge.static_calls"][0] > 0
    assert 0 < metrics["lts.enabled_repeat_ratio"][0] < 1
    assert len(tracer.spans) == 10 and tracer.dropped() > 0


def test_benchmark_file_names_the_workloads_and_metrics():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    assert {m["name"] for m in BENCH["end_to_end"]} == {"ops_per_s", "op_p50_ms", "setup_s", "peak_rss_mib"}
