"""Per-layer metrics of a traced run: span times plus ``stats()`` deltas.

Each ``*_ms`` metric is milliseconds per traced interaction (its span
time summed and divided by the traced interactions sent), so the
self-time metrics of one run add up to the mean interaction latency.
Ratios and counts come from the system's own ``stats()`` counters, read
around each traced unit, outside every timed interaction.
"""

from __future__ import annotations

from spans import Tracer, totals_by_name

#: ``(name, unit)`` of the per-layer metrics every workload reports.
LAYER_METRICS: tuple[tuple[str, str], ...] = (
    ("ranking.feature_rank_ms", "ms/op"),
    ("ranking.entity_rank_ms", "ms/op"),
    ("ranking.candidates_pruned_ratio", "ratio"),
    ("ranking.groups_skipped_ratio", "ratio"),
    ("features.candidates_ms", "ms/op"),
    ("features.candidates_per_call", "count"),
    ("expansion.expand_self_ms", "ms/op"),
    ("expansion.restrict_ms", "ms/op"),
    ("explore.recommend_ms", "ms/op"),
    ("explore.matrix_self_ms", "ms/op"),
    ("explore.cache_hit_ratio", "ratio"),
    ("viz.matrix_ms", "ms/op"),
    ("search.search_ms", "ms/op"),
    ("search.miss_ms", "ms/op"),
    ("search.cache_hit_ratio", "ratio"),
    ("topk.terms_skipped_ratio", "ratio"),
    ("topk.candidates_pruned_ratio", "ratio"),
    ("topk.rescored_per_query", "count"),
    ("kg.topology_rebuilds", "count"),
    ("storage.load_ms", "ms/op"),
    ("storage.attached_bytes", "bytes"),
    ("storage.failures", "count"),
    ("engine.self_ms", "ms/op"),
    ("trace.overhead_ratio", "ratio"),
)

#: Write-path metrics, reported by the ``ingest`` workload only (no
#: other workload writes, so they would read 0 there).
WRITE_METRICS: tuple[tuple[str, str], ...] = (
    ("features.delta_rebuilds", "count"),
    ("features.full_rebuilds", "count"),
    ("features.delta_entities", "count"),
    ("index.add_entity_ms", "ms/op"),
    ("kg.write_ms", "ms/op"),
)


def counters(system) -> dict[str, int]:
    """The cumulative counters the layer ratios are computed from."""
    stats = system.stats()
    search = stats.child("search")
    recommendation = stats.child("recommendation")
    results = search.cache("results")
    recommendations = recommendation.cache("recommendations")
    mlm = search.pruning_view("mlm")
    ranker = recommendation.pruning_view("entity-ranker")
    rebuilds = stats.rebuilds or {}
    return {
        "search.hits": results.hits,
        "search.lookups": results.hits + results.misses,
        "explore.hits": recommendations.hits,
        "explore.lookups": recommendations.hits + recommendations.misses,
        "topk.queries": mlm.queries,
        "topk.terms_total": mlm.terms_total,
        "topk.terms_skipped": mlm.terms_skipped,
        "topk.candidates_total": mlm.candidates_total,
        "topk.candidates_pruned": mlm.candidates_pruned,
        "topk.rescored": mlm.rescored,
        "ranking.candidates_total": ranker.candidates_total,
        "ranking.candidates_pruned": ranker.candidates_pruned,
        "ranking.groups_total": ranker.groups_total,
        "ranking.groups_skipped": ranker.groups_skipped,
        "features.delta_rebuilds": rebuilds.get("delta_rebuilds", 0),
        "features.full_rebuilds": rebuilds.get("full_rebuilds", 0),
        "features.delta_entities": rebuilds.get("delta_entities", 0),
        "kg.topology_rebuilds": stats.traversal.rebuilds if stats.traversal else 0,
    }


class CounterBook:
    """Sums counter deltas over one or more ``start``/``stop`` intervals.

    Intervals let a workload replace the objects that hold the counters
    (a newly loaded system, the scorer a write publishes) without
    subtracting one object's counters from another's.
    """

    def __init__(self) -> None:
        self.totals: dict[str, int] = {}
        self._open: dict[str, int] | None = None
        self.loads = 0
        self.attached_bytes = 0
        self.storage_failures = 0

    def start(self, system) -> None:
        self._open = counters(system)

    def stop(self, system) -> None:
        if self._open is None:
            return
        for key, value in counters(system).items():
            self.totals[key] = self.totals.get(key, 0) + value - self._open[key]
        self._open = None

    def record_load(self, system) -> None:
        storage = system.stats().storage
        self.loads += 1
        if storage is not None:
            self.attached_bytes += storage.attached_bytes
            self.storage_failures += storage.failures

    def ratio(self, numerator: str, denominator: str) -> float:
        """``numerator / denominator`` of the summed deltas (0 when idle)."""
        total = self.totals.get(denominator, 0)
        return self.totals.get(numerator, 0) / total if total else 0.0


def layer_metrics(
    tracer: Tracer, book: CounterBook, interactions: int, overhead_ratio: float
) -> dict[str, float]:
    """Every layer metric of one traced phase, by name."""
    totals = totals_by_name(tracer.spans)
    per_op = 1000.0 / max(interactions, 1)

    def inclusive(name: str) -> float:
        return totals.get(name, {}).get("inclusive", 0.0) * per_op

    def self_ms(name: str) -> float:
        return totals.get(name, {}).get("self", 0.0) * per_op

    candidate_calls = totals.get("features.candidates", {}).get("calls", 0)
    engine_self = sum(
        entry["self"] for name, entry in totals.items() if name.startswith("engine.")
    )
    return {
        "ranking.feature_rank_ms": inclusive("ranking.feature_rank"),
        "ranking.entity_rank_ms": inclusive("ranking.entity_rank"),
        "ranking.candidates_pruned_ratio": book.ratio(
            "ranking.candidates_pruned", "ranking.candidates_total"
        ),
        "ranking.groups_skipped_ratio": book.ratio(
            "ranking.groups_skipped", "ranking.groups_total"
        ),
        "features.candidates_ms": inclusive("features.candidates"),
        "features.candidates_per_call": (
            tracer.result_sizes.get("features.candidates", 0) / candidate_calls
            if candidate_calls
            else 0.0
        ),
        "features.delta_rebuilds": book.totals.get("features.delta_rebuilds", 0),
        "features.full_rebuilds": book.totals.get("features.full_rebuilds", 0),
        "features.delta_entities": book.totals.get("features.delta_entities", 0),
        "expansion.expand_self_ms": self_ms("expansion.expand"),
        "expansion.restrict_ms": inclusive("expansion.restrict"),
        "explore.recommend_ms": inclusive("explore.recommend"),
        "explore.matrix_self_ms": self_ms("explore.recommend"),
        "explore.cache_hit_ratio": book.ratio("explore.hits", "explore.lookups"),
        "viz.matrix_ms": inclusive("viz.matrix"),
        "search.search_ms": inclusive("search.search"),
        "search.miss_ms": inclusive("search.miss"),
        "search.cache_hit_ratio": book.ratio("search.hits", "search.lookups"),
        "topk.terms_skipped_ratio": book.ratio("topk.terms_skipped", "topk.terms_total"),
        "topk.candidates_pruned_ratio": book.ratio(
            "topk.candidates_pruned", "topk.candidates_total"
        ),
        "topk.rescored_per_query": book.ratio("topk.rescored", "topk.queries"),
        "kg.topology_rebuilds": book.totals.get("kg.topology_rebuilds", 0),
        "storage.load_ms": inclusive("storage.load"),
        "storage.attached_bytes": book.attached_bytes / book.loads if book.loads else 0.0,
        "storage.failures": book.storage_failures,
        "engine.self_ms": engine_self * per_op,
        "trace.overhead_ratio": overhead_ratio,
        "index.add_entity_ms": inclusive("index.add_entity"),
        "kg.write_ms": self_ms("kg.write"),
    }
