"""Span recorder that wraps the public methods of live PivotE components.

Tracing lives entirely in the benchmark: :func:`attach` shadows selected
bound methods of one running system with instance attributes, so calls a
component makes on itself (``self.matrix_for(...)``) are caught as well.
Spans stay in memory and are written out once the run ends.

A span's *self time* is its duration minus the part of that interval its
child spans cover.  A layer metric is the summed time of one span name
divided by the number of traced interactions, so the
``*_ms`` layer figures of a run are in milliseconds per interaction.
"""

from __future__ import annotations

import json
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    interaction: int


class Tracer:
    """Records nested spans; one interaction id is shared by its spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.interaction = 0
        self._stack: list[int] = []
        self._wrapped: list[tuple[object, str]] = []
        #: Per span name: summed ``len()`` of the wrapped call's results.
        self.result_sizes: dict[str, int] = {}

    def begin_interaction(self) -> None:
        self.interaction += 1

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``, nested in the open span."""
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter(), 0.0, parent, self.interaction)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(
        self,
        obj: object,
        attr: str,
        name: str,
        *,
        count_results: bool = False,
        after: Callable[[], None] | None = None,
    ) -> None:
        """Shadow ``obj.attr`` with a span-recording instance attribute.

        ``count_results`` sums ``len()`` of the results per span name;
        ``after`` runs outside the span, after each call.
        """
        original = getattr(obj, attr)

        def traced(*args, **kwargs):
            result = self.call(name, original, *args, **kwargs)
            if count_results:
                self.result_sizes[name] = self.result_sizes.get(name, 0) + len(result)
            if after is not None:
                after()
            return result

        setattr(obj, attr, traced)
        self._wrapped.append((obj, attr))

    def detach(self) -> None:
        """Remove every instance attribute :meth:`wrap` installed."""
        for obj, attr in reversed(self._wrapped):
            if attr in vars(obj):
                delattr(obj, attr)
        self._wrapped.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([asdict(span) for span in self.spans], handle)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result.append(span.end - span.start - covered)
    return result


def totals_by_name(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: call count, inclusive seconds and self seconds.

    Inclusive time counts only the outermost span of a name, so a
    method that calls itself through another wrapped method is not
    counted twice.
    """
    selfs = self_times(spans)
    totals: dict[str, dict[str, float]] = {}
    for index, span in enumerate(spans):
        entry = totals.setdefault(span.name, {"calls": 0, "inclusive": 0.0, "self": 0.0})
        entry["calls"] += 1
        entry["self"] += selfs[index]
        parent = span.parent
        nested = False
        while parent >= 0:
            if spans[parent].name == span.name:
                nested = True
                break
            parent = spans[parent].parent
        if not nested:
            entry["inclusive"] += span.end - span.start
    return totals


def attach(tracer: Tracer, system, graph_writes: bool = False) -> None:
    """Wrap the layer boundaries of one live ``PivotE`` system.

    Interaction roots (``engine.*``) are the facade methods the client
    calls; below them sit search, recommendation, expansion, ranking,
    feature-index and view spans.  ``graph_writes`` also wraps the graph
    mutators and ``SearchEngine.add_entity`` (the ingest write path).
    """
    for method in (
        "search",
        "submit_keywords",
        "select_entity",
        "deselect_entity",
        "pin_feature",
        "pivot",
        "set_domain",
    ):
        tracer.wrap(system, method, f"engine.{method}")
    tracer.wrap(system, "matrix_for", "viz.matrix")
    search = system.search_engine
    tracer.wrap(search, "search", "search.search")
    _wrap_scorer(tracer, search)
    recommender = system.recommendation_engine
    tracer.wrap(recommender, "recommend_for_seeds", "explore.recommend")
    expander = recommender.expander
    tracer.wrap(expander, "expand", "expansion.expand")
    tracer.wrap(expander, "restrict_candidates", "expansion.restrict")
    tracer.wrap(expander.feature_ranker, "rank", "ranking.feature_rank")
    tracer.wrap(expander.entity_ranker, "rank", "ranking.entity_rank")
    tracer.wrap(
        system.feature_index,
        "candidates_matching_any",
        "features.candidates",
        count_results=True,
    )
    if graph_writes:
        graph = system.graph
        for method in ("add", "add_triple", "add_label", "add_type"):
            tracer.wrap(graph, method, "kg.write")
        tracer.wrap(
            search,
            "add_entity",
            "index.add_entity",
            after=lambda: _wrap_scorer(tracer, search),
        )


def _wrap_scorer(tracer: Tracer, search) -> None:
    """Wrap the current MLM scorer, which runs only on result-cache misses.

    ``SearchEngine.add_entity`` publishes a new scorer, so the write path
    calls this again after each write.
    """
    tracer.wrap(search.mlm_scorer, "search", "search.miss")
