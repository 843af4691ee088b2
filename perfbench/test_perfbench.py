"""Self-tests of the benchmark harness (``python3 -m pytest perfbench -q``)."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from layers import LAYER_METRICS  # noqa: E402
from measure import Digest, OpLog, tail_percentile  # noqa: E402
from run import END_TO_END  # noqa: E402
from spans import Span, Tracer, attach, self_times, totals_by_name  # noqa: E402
from workloads import Explore, Runner, Search  # noqa: E402


@pytest.fixture(scope="module")
def graph():
    from repro.datasets import RandomKGConfig, build_random_kg

    return build_random_kg(
        RandomKGConfig(num_entities=300, seed=42, target_skew=1.5, avg_out_degree=8.0)
    )


def make_system(graph):
    from repro import PivotE

    return PivotE(graph)


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        Span("root", 0.0, 10.0, -1, 1),
        Span("a", 1.0, 4.0, 0, 1),
        Span("a.inner", 2.0, 3.0, 1, 1),
        Span("b", 5.0, 7.0, 0, 1),
    ]
    assert self_times(spans) == [5.0, 2.0, 1.0, 2.0]


def test_inclusive_time_counts_a_recursive_name_once():
    spans = [
        Span("kg.write", 0.0, 4.0, -1, 1),
        Span("kg.write", 1.0, 3.0, 0, 1),
        Span("index", 5.0, 6.0, -1, 1),
    ]
    totals = totals_by_name(spans)
    assert totals["kg.write"] == {"calls": 2, "inclusive": 4.0, "self": 4.0}
    assert totals["index"]["inclusive"] == 1.0


@pytest.mark.parametrize(
    ("count", "percentile", "value"),
    [(1000, 99.0, 990.0), (2000, 99.0, 1980.0), (100, 90.0, 90.0), (50, 80.0, 40.0)],
)
def test_tail_percentile_keeps_ten_samples_beyond(count, percentile, value):
    samples = [float(index) for index in range(count, 0, -1)]
    got_percentile, got_value = tail_percentile(samples)
    assert (got_percentile, got_value) == (percentile, value)
    assert sum(sample > got_value for sample in samples) >= 10


def test_tail_percentile_without_enough_samples_reports_the_maximum():
    assert tail_percentile([3.0, 1.0, 2.0]) == (100.0, 3.0)


def run_explore(graph, seed: int, units: int):
    system = make_system(graph)
    workload = Explore(system, graph, seed)
    runner = Runner(Digest())
    for _ in range(units):
        workload.run_unit(runner)
    return workload, runner


def test_same_seed_replays_the_same_actions(graph):
    _, first = run_explore(graph, seed=5, units=4)
    _, second = run_explore(graph, seed=5, units=4)
    _, other = run_explore(graph, seed=6, units=4)
    assert first.digest.count == second.digest.count > 4
    assert first.digest.hexdigest() == second.digest.hexdigest()
    assert first.digest.hexdigest() != other.digest.hexdigest()


def test_clicks_without_seeds_only_select_or_pivot(graph):
    import random

    from workloads import SessionUser

    system = make_system(graph)
    session = system.start_session()
    response = system.submit_keywords(session, graph.label(sorted(graph.entities())[0]))
    assert response.recommendation is not None and not session.current_query.seed_entities
    user = SessionUser(system, session, random.Random(0), sorted(graph.entities()))
    kinds = {user._choose(response)[0] for _ in range(200)}
    assert kinds == {"select_entity", "pivot"}


def test_injected_wrong_answer_counts_as_failed(graph):
    workload, runner = run_explore(graph, seed=3, units=3)
    clean = OpLog()
    assert workload.check(clean) > 0
    assert clean.failed == 0

    for position, (keywords, query, (hits, (entities, features))) in enumerate(
        workload.sample.items
    ):
        if query is not None and entities:
            wrong = [(entities[0][0], entities[0][1] + 1.0)] + entities[1:]
            workload.sample.items[position] = (keywords, query, (hits, (wrong, features)))
            break
    else:
        pytest.fail("no sampled recommendation to corrupt")
    log = runner.log
    workload.check(log)
    assert log.failed == 1
    assert log.failed_ratio == pytest.approx(1 / log.attempted)


def test_search_check_agrees_with_the_reference_scorer(graph):
    system = make_system(graph)
    workload = Search(system, graph, seed=1)
    runner = Runner(Digest())
    for _ in range(30):
        workload.run_unit(runner)
    log = OpLog()
    assert workload.check(log) == len(workload.sample.items) > 0
    assert log.failed == 0


def test_tracer_catches_internal_calls_and_detaches(graph):
    system = make_system(graph)
    tracer = Tracer()
    attach(tracer, system)
    tracer.begin_interaction()
    system.submit_keywords(system.start_session(), graph.label(sorted(graph.entities())[0]))
    tracer.detach()
    names = {span.name for span in tracer.spans}
    assert {"engine.submit_keywords", "search.search", "viz.matrix"} <= names
    matrix = next(span for span in tracer.spans if span.name == "viz.matrix")
    assert tracer.spans[matrix.parent].name == "engine.submit_keywords"
    assert "submit_keywords" not in vars(system)
    assert "search" not in vars(system.search_engine)


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(LAYER_METRICS)
