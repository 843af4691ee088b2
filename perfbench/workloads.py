"""Seeded, response-driven PivotE client for the four benchmark workloads.

One closed-loop client with zero think time: each interaction is sent
when the previous one has returned, and every click is chosen from the
previous response by a ``random.Random`` seeded with the workload seed.
``PivotE`` sees only the generated calls.

A workload is run as whole *units* (one session, one query, one ingest
cycle, one restart) until its deadline passes, so a run never ends on a
half-finished session or cycle.
"""

from __future__ import annotations

import gc
import random
import time
from collections.abc import Callable

from measure import Digest, OpLog, response_answer, scored_hits, scored_recommendation
from spans import Tracer, attach

#: Click mix of a session after its ``submit_keywords`` (weights sum to 1).
CLICK_MIX: tuple[tuple[str, float], ...] = (
    ("select_entity", 0.40),
    ("pin_feature", 0.20),
    ("pivot", 0.15),
    ("deselect_entity", 0.15),
    ("set_domain", 0.10),
)
#: Only the first entities and features of a response are clicked, as a
#: user looking at the top of the matrix would.
TOP_ENTITIES = 10
TOP_FEATURES = 5


def zipf_cumulative(size: int, exponent: float) -> list[float]:
    total, cumulative = 0.0, []
    for rank in range(size):
        total += 1.0 / (rank + 1) ** exponent
        cumulative.append(total)
    return cumulative


class Reservoir:
    """Seeded uniform sample of ``size`` items from a stream."""

    def __init__(self, size: int, seed: int) -> None:
        self.size = size
        self.items: list[object] = []
        self._seen = 0
        self._rng = random.Random(seed)

    def offer(self, item: object) -> None:
        self._seen += 1
        if len(self.items) < self.size:
            self.items.append(item)
        else:
            slot = self._rng.randrange(self._seen)
            if slot < self.size:
                self.items[slot] = item


def summary(response) -> tuple[list, tuple[list, list]]:
    """What a response showed, with scores: the unit of answer comparison."""
    return scored_hits(response.hits), scored_recommendation(response.recommendation)


class Runner:
    """Times interactions into an :class:`OpLog` and the run's digest."""

    def __init__(self, digest: Digest, tracer: Tracer | None = None, log: OpLog | None = None):
        self.digest = digest
        self.tracer = tracer
        self.log = OpLog() if log is None else log

    def timed(self, kind: str, arg: str, fn: Callable, *args):
        """Run one interaction; ``None`` when it raised (counted as failed)."""
        if self.tracer is not None:
            self.tracer.begin_interaction()
        result, ms, error = self.call(fn, *args)
        self.finish(kind, arg, ms, result, error)
        return result

    @staticmethod
    def call(fn: Callable, *args) -> tuple[object, float, Exception | None]:
        """``(result, milliseconds, error)`` of one timed call."""
        started = time.perf_counter()
        try:
            result, error = fn(*args), None
        except Exception as exc:  # a failed interaction must not stop the run
            result, error = None, exc
        return result, (time.perf_counter() - started) * 1000.0, error

    def finish(self, kind: str, arg: str, ms: float, result, error: Exception | None) -> None:
        """Log one interaction's latency and fold its answer into the digest."""
        self.log.record(kind, ms)
        if error is not None:
            self.log.fail(f"{kind}({arg}): {type(error).__name__}: {error}")
            self.digest.add(kind, arg, ("!error",))
            return
        if isinstance(result, list):
            answer = tuple(hit.entity_id for hit in result)
        elif hasattr(result, "hits"):
            answer = response_answer(result)
        else:
            answer = ()
        self.digest.add(kind, arg, answer)


class SessionUser:
    """Clicks through one session, choosing each action from the last response."""

    def __init__(self, system, session, rng: random.Random, fallback_pool: list[str]) -> None:
        self.system = system
        self.session = session
        self.rng = rng
        self.fallback_pool = fallback_pool
        #: ``(method name, argument, digest label)`` per interaction sent.
        self.actions: list[tuple[str, object, str]] = []

    def submit(self, runner: Runner, keywords: str, kind: str = "submit_keywords"):
        return self._send(runner, kind, "submit_keywords", keywords, keywords)

    def click(self, runner: Runner, response):
        method, argument, label, fallback = self._choose(response)
        runner.log.clicks += 1
        runner.log.fallbacks += fallback
        return self._send(runner, method, method, argument, label)

    def _send(self, runner: Runner, kind: str, method: str, argument, label: str):
        self.actions.append((method, argument, label))
        return runner.timed(kind, label, getattr(self.system, method), self.session, argument)

    def _choose(self, response) -> tuple[str, object, str, bool]:
        """``(method, argument, label, fallback)`` of the next click.

        A drawn kind that the response offers nothing for becomes a
        ``select_entity``.  Pinning a feature or setting a domain needs a
        seed in the query (without one the system answers with search hits
        alone), so a session that has none selects an entity instead.
        ``fallback`` is true when the response showed no entity to select
        and a seeded pick from the whole graph was sent instead.
        """
        rng = self.rng
        draw = rng.random()
        kind = CLICK_MIX[-1][0]
        for name, weight in CLICK_MIX:
            if draw < weight:
                kind = name
                break
            draw -= weight
        query = self.session.current_query
        seeded = bool(query.seed_entities)
        recommendation = None if response is None else response.recommendation
        entities = [] if recommendation is None else recommendation.entity_ids()[:TOP_ENTITIES]
        features = [] if recommendation is None else [
            scored.feature for scored in recommendation.features[:TOP_FEATURES]
        ]
        if kind == "pin_feature" and seeded:
            pinned = set(query.pinned_features)
            options = [feature for feature in features if feature not in pinned]
            if options:
                feature = rng.choice(options)
                return kind, feature, feature.notation(), False
        elif kind == "pivot":
            anchors = sorted({feature.anchor for feature in features})
            if anchors:
                anchor = rng.choice(anchors)
                return kind, anchor, anchor, False
        elif kind == "deselect_entity":
            if len(query.seed_entities) >= 2:
                seed = rng.choice(query.seed_entities)
                return kind, seed, seed, False
        elif kind == "set_domain" and seeded:
            graph = self.system.graph
            types = sorted({graph.dominant_type(entity) for entity in entities} - {""})
            if types:
                domain = rng.choice(types)
                return kind, domain, domain, False
        options = [entity for entity in entities if entity not in query.seed_entities]
        if options:
            entity = rng.choice(options)
            return "select_entity", entity, entity, False
        # An empty recommendation leaves nothing to click: fall back to a
        # seeded pick from the whole graph instead of failing the session.
        entity = rng.choice(self.fallback_pool)
        return "select_entity", entity, entity, True


def reference_search(system) -> Callable[[str], list[tuple[str, float]]]:
    """Keyword search through the plain MLM accumulator: no pruning, no
    columnar kernels, no result cache.

    The score-all ``search_exhaustive`` takes seconds per query on this
    graph (every label shares the token "entity"); the accumulator is an
    independent scoring path the equivalence tests hold to the same
    rankings, at tens of milliseconds.
    """
    from dataclasses import replace

    from repro.search.mlm import MixtureLanguageModelScorer
    from repro.search.query import parse_query

    engine = system.search_engine
    scorer = MixtureLanguageModelScorer(
        engine.index, replace(engine.config, pruning="off", columnar=False)
    )
    return lambda text: [
        (result.doc_id, result.score) for result in scorer.search(parse_query(text))
    ]


def replay(system, actions: list[tuple[str, object, str]]) -> list:
    """Re-send a recorded session's actions on ``system``; responses in order."""
    session = system.start_session()
    return [getattr(system, method)(session, argument) for method, argument, _ in actions]


class Workload:
    """Base: a seeded unit generator plus the correctness check after the run."""

    #: Seeded reservoir size of the answers checked against an oracle.
    CHECK_SAMPLE = 8

    def __init__(self, system, graph, seed: int) -> None:
        self.system = system
        self.graph = graph
        self.rng = random.Random(seed)
        self.sample = Reservoir(self.CHECK_SAMPLE, seed + 7919)
        self.entity_ids = sorted(graph.entities())

    def probe(self, system) -> Callable[[], object]:
        """The first interaction on a freshly built system (set-up).

        The same for every build and seed, so set-up time moves with the
        lazy builds this query pays for, not with the query drawn.
        """
        keywords = self.graph.label(self.entity_ids[len(self.entity_ids) // 2])
        return lambda: system.submit_keywords(system.start_session(), keywords)

    def run_unit(self, runner: Runner) -> None:
        raise NotImplementedError

    def check(self, log: OpLog) -> int:
        """Verify the sampled answers; counts mismatches into ``log``."""
        raise NotImplementedError

    def keywords(self) -> str:
        """A label-derived query: the label, or its number alone."""
        label = self.graph.label(self.rng.choice(self.entity_ids))
        tokens = label.split()
        if len(tokens) > 1 and self.rng.random() < 0.3:
            return tokens[-1]
        return label


class Explore(Workload):
    """Sessions of one ``submit_keywords`` followed by a few clicks."""

    CLICKS = (3, 5)
    #: An exhaustive recommendation takes about 0.2 s on this graph.
    CHECK_SAMPLE = 20

    def run_unit(self, runner: Runner) -> None:
        user = SessionUser(self.system, self.system.start_session(), self.rng, self.entity_ids)
        keywords = self.keywords()
        response = user.submit(runner, keywords)
        self._offer(keywords, response)
        for _ in range(self.rng.randint(*self.CLICKS)):
            if response is None:
                return
            response = user.click(runner, response)
            self._offer("", response)

    def _offer(self, keywords: str, response) -> None:
        if response is not None:
            recommendation = response.recommendation
            query = None if recommendation is None else recommendation.query
            self.sample.offer((keywords, query, summary(response)))

    def check(self, log: OpLog) -> int:
        """Sampled recommendations against the exhaustive rankers, and the
        hits of sampled ``submit_keywords`` against the plain accumulator."""
        recommender = self.system.recommendation_engine
        reference = reference_search(self.system)
        checked = 0
        for keywords, query, (hits, shown) in self.sample.items:
            if keywords:
                checked += 1
                if reference(keywords) != hits:
                    log.mismatch(f"explore: hits differ for {keywords!r}")
            if query is None:
                continue
            expected = recommender.recommend_for_seeds(
                query.seed_entities,
                pinned_features=query.pinned_features,
                domain_type=query.domain_type,
                exhaustive=True,
            )
            checked += 1
            if scored_recommendation(expected) != shown:
                log.mismatch(f"explore: recommendation differs for seeds {query.seed_entities}")
        return checked


class Search(Workload):
    """Stateless searches over a Zipf-popular pool of label-derived queries."""

    POOL = 2000
    #: The pool and its popularity order are part of the workload, like the
    #: graph; the workload seed only draws the query sequence from them.
    POOL_SEED = 23
    #: Zipf exponent of query popularity: about a fifth of the queries hit
    #: the 128-entry result cache (distinct strings can parse to the same
    #: terms).  With a third of them hitting (exponent 0.7), the median fell
    #: on the steep edge between hits and misses and moved by a fifth
    #: between seeds; here it lies among the misses.
    ZIPF = 0.4

    def __init__(self, system, graph, seed: int) -> None:
        super().__init__(system, graph, seed)
        from repro.datasets import search_tasks_from_labels

        self.pool = [
            task.query
            for task in search_tasks_from_labels(graph, num_tasks=self.POOL, seed=self.POOL_SEED)
        ]
        self.cumulative = zipf_cumulative(len(self.pool), self.ZIPF)

    #: The reference accumulator takes tens of milliseconds per query.
    CHECK_SAMPLE = 50

    def probe(self, system) -> Callable[[], object]:
        return lambda: system.search(self.pool[0])

    def run_unit(self, runner: Runner) -> None:
        query = self.rng.choices(self.pool, cum_weights=self.cumulative, k=1)[0]
        hits = runner.timed("search", query, self.system.search, query)
        if hits is not None:
            self.sample.offer((query, scored_hits(hits)))

    def check(self, log: OpLog) -> int:
        """Sampled answers against the unpruned scalar accumulator."""
        reference = reference_search(self.system)
        for query, shown in self.sample.items:
            if reference(query) != shown:
                log.mismatch(f"search: hits differ for {query!r}")
        return len(self.sample.items)


class Ingest(Workload):
    """Cycles of one entity write followed by four reads.

    A new entity gets a label in the graph's own naming scheme, the type
    of a random existing entity and 2-6 outgoing edges to existing
    entities drawn with a Zipf skew over the generator's order, which
    puts its hubs first, as real ingest links to hubs.
    """

    CLICKS = 3
    SKEW = 1.0

    def __init__(self, system, graph, seed: int) -> None:
        super().__init__(system, graph, seed)
        self.base = sorted(self.entity_ids, key=_generator_order)
        self.cumulative = zipf_cumulative(len(self.base), self.SKEW)
        self.predicates = sorted(graph.edge_predicates())
        self.added = 0
        #: Callback run around each write (counter bookkeeping).
        self.around_write: Callable[[bool], None] = lambda done: None

    def _write(self, entity: str, label: str, type_id: str, edges) -> bool:
        graph = self.system.graph
        graph.add_label(entity, label)
        graph.add_type(entity, type_id)
        for predicate, target in edges:
            graph.add(entity, predicate, target)
        self.system.search_engine.add_entity(entity)
        return True

    def run_unit(self, runner: Runner) -> None:
        rng = self.rng
        self.added += 1
        entity = f"pivote:ingest_{self.added}"
        label = f"entity {len(self.base) + self.added}"
        type_id = self.graph.dominant_type(rng.choice(self.base))
        targets = set()
        for _ in range(rng.randint(2, 6)):
            targets.add(rng.choices(self.base, cum_weights=self.cumulative, k=1)[0])
        edges = [(rng.choice(self.predicates), target) for target in sorted(targets)]
        self.around_write(False)
        written = runner.timed(
            "write", entity, self._write, entity, label, type_id, edges
        )
        self.around_write(True)
        if written is None:
            return
        user = SessionUser(self.system, self.system.start_session(), rng, self.entity_ids)
        response = user.submit(runner, label, kind="read_after_write")
        for _ in range(self.CLICKS):
            if response is None:
                break
            response = user.click(runner, response)
        self.sample.offer(user.actions)

    def check(self, log: OpLog) -> int:
        """Replay sampled read sequences: live system vs a fresh build."""
        from repro import PivotE

        fresh = PivotE(self.graph, self.system.config)
        try:
            checked = 0
            for actions in self.sample.items:
                live = replay(self.system, actions)
                rebuilt = replay(fresh, actions)
                for (method, _, label), left, right in zip(actions, live, rebuilt):
                    checked += 1
                    if summary(left) != summary(right):
                        log.mismatch(f"ingest: {method}({label}) differs from a fresh build")
        finally:
            fresh.close()
        return checked


def _generator_order(entity_id: str) -> tuple[int, str]:
    suffix = entity_id.rsplit("_", 1)[-1]
    return (int(suffix), entity_id) if suffix.isdigit() else (1 << 62, entity_id)


class Restart(Workload):
    """Restarts: ``PivotE.load`` of the set-up snapshot, then a first query.

    One interaction is one restart as its user sees it: the load plus the
    first ``submit_keywords`` the loaded system answers, timed together
    (the two parts are also recorded apart).  Each loaded system is
    closed before the next load.  Its first answers are compared
    afterwards with the saved system's answers to the same queries.
    """

    def __init__(self, system, graph, seed: int, snapshot: str) -> None:
        super().__init__(system, graph, seed)
        self.snapshot = snapshot
        self.answers: list[tuple[str, object]] = []
        #: Hooks around each loaded system's life (counter bookkeeping).
        self.on_loaded: Callable[[object], None] = lambda system: None
        self.on_closing: Callable[[object], None] = lambda system: None

    def run_unit(self, runner: Runner) -> None:
        from repro import PivotE

        keywords = self.keywords()
        tracer = runner.tracer
        load = PivotE.load
        if tracer is not None:
            tracer.begin_interaction()
            load = lambda directory: tracer.call("storage.load", PivotE.load, directory)  # noqa: E731
        loaded, load_ms, error = runner.call(collected, load, self.snapshot)
        if error is not None:
            runner.finish("restart", keywords, load_ms, None, error)
            return
        try:
            if tracer is not None:
                attach(tracer, loaded)
            self.on_loaded(loaded)
            response, first_ms, error = runner.call(
                loaded.submit_keywords, loaded.start_session(), keywords
            )
            runner.finish("restart", keywords, load_ms + first_ms, response, error)
            if error is None:
                runner.log.part("load", load_ms)
                runner.log.part("first_response", first_ms)
                self.answers.append((keywords, summary(response)))
            self.on_closing(loaded)
        finally:
            if tracer is not None:
                # The wrappers reference the system: drop them so each
                # closed system can be freed before the next load.
                tracer.detach()
            loaded.close()
            # The closed system is garbage of the harness, not of the next
            # load: collect it off the clock.
            gc.collect()

    def check(self, log: OpLog) -> int:
        system = self.system
        for keywords, shown in self.answers:
            if summary(system.submit_keywords(system.start_session(), keywords)) != shown:
                log.mismatch(f"restart: submit_keywords({keywords}) differs from the saved system")
        return len(self.answers)


def collected(fn: Callable, *args):
    """``fn(*args)`` followed by a full collection of the garbage it left.

    Timed together, so an operation's collection cost is charged to it
    deterministically rather than to whichever later interaction the
    collector happens to interrupt.
    """
    result = fn(*args)
    gc.collect()
    return result
