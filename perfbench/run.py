"""PivotE session benchmark: replayed exploration sessions, timed per interaction.

Usage, from the repository root::

    python3 perfbench/run.py --workload explore --seed 1 --seconds 30 --trace 0

One closed-loop client with zero think time replays seeded,
response-driven sessions against one 10 000-entity random knowledge
graph served by ``PivotE(graph, PivotEConfig())``.  Workloads:

* ``explore`` — sessions of ``submit_keywords`` then 3-5 clicks (select
  40%, pin 20%, pivot 15%, deselect 15%, set_domain 10%); the work lands
  on feature and entity ranking, the correlation matrix and the heat map.
* ``search`` — stateless ``PivotE.search`` over a Zipf-popular pool of
  2000 label-derived queries; text analysis, the MLM kernels, top-k
  pruning and the result cache do the work, recommendation none.  It
  is not listed in ``BENCHMARK.json``: ``explore``'s keyword submits
  run the same search layers, and the run time it would take goes to
  longer ``explore`` and ``restart`` runs, which the host's noise needs.
* ``restart`` — ``PivotE.load`` of a snapshot saved during set-up plus
  the first query on the loaded system, timed as one interaction.
* ``ingest`` — one entity write (graph adds + ``add_entity``) then four
  reads, checked against a fresh build of the final graph.  It is not
  listed in ``BENCHMARK.json``: its check finds stale search documents
  of the new entity's neighbours on every run.

Every workload reports the same end-to-end metrics (``END_TO_END``).
``--trace 0`` measures untraced; ``--trace 1`` traces every second unit
(spans from ``perfbench/spans.py``) and reports the per-layer metrics
instead.  Both print a readable report with sample
counts first and, as the last line, one JSON object ``{correct,
attempted, failed, metrics}``.  Run details (environment, per-interaction
medians and latencies, replay digests) and traced spans are written
under ``.bench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from layers import LAYER_METRICS, WRITE_METRICS, CounterBook, layer_metrics
from measure import Digest, OpLog, percentile, tail_percentile
from spans import Tracer, attach
from workloads import Explore, Ingest, Restart, Runner, Search, collected

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
#: The one graph every workload runs against (graph generation is not set-up).
KG_CONFIG = dict(num_entities=10000, seed=42, target_skew=1.5, avg_out_degree=8.0)
#: Systems built per run; ``setup_s`` is their median.
SETUPS = 3
WORKLOADS = {"explore": Explore, "search": Search, "ingest": Ingest, "restart": Restart}
#: ``(name, unit)`` of the end-to-end metrics every workload reports.
#: The tail is gated at p90: the highest percentile with ten samples
#: beyond it (printed as ``latency_p99_ms``) spreads too widely between
#: seeds on ``explore``, where a run has only a few hundred interactions.
END_TO_END: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("rss_mb", "MB"),
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def set_up(workload, graph, snapshot: str | None):
    """Build the system :data:`SETUPS` times; keep the last one.

    ``setup_s`` is one build, with the full collection of the garbage it
    leaves on the clock; ``restart`` also saves each build.  The kept
    system then answers one first query, timed apart and not part of
    ``setup_s``, so the measured interactions find the lazy per-epoch
    builds done.  Returns the set-up seconds and the first answer's
    milliseconds.
    """
    from repro import PivotE
    from repro.config import PivotEConfig

    def build():
        system = PivotE(graph, PivotEConfig())
        if snapshot is not None:
            system.save(snapshot)
        return system

    setup_s: list[float] = []
    system = None
    for _ in range(SETUPS):
        if system is not None:
            # The previous build's teardown is not set-up work.
            system.close()
            system = None
            gc.collect()
        if snapshot is not None:
            shutil.rmtree(snapshot, ignore_errors=True)
        started = time.perf_counter()
        system = collected(build)
        setup_s.append(time.perf_counter() - started)
    workload.system = system
    probe = workload.probe(system)
    started = time.perf_counter()
    probe()
    return setup_s, (time.perf_counter() - started) * 1000.0


@dataclass
class Phase:
    """The interactions of one kind of unit (traced or untraced) in a run."""

    log: OpLog = field(default_factory=OpLog)
    book: CounterBook = field(default_factory=CounterBook)


def measure(workload, digest: Digest, seconds: float, tracer: Tracer | None):
    """Run whole workload units until ``seconds`` have passed.

    With a tracer every second unit is traced, so traced and untraced
    units share one stretch of time and one state of the system's caches.
    Returns the ``(untraced, traced)`` phases.
    """
    phases = {False: Phase(), True: Phase()}
    runners = {flag: Runner(digest, tracer if flag else None, phases[flag].log) for flag in phases}
    system = workload.system
    restart = isinstance(workload, Restart)
    deadline = time.perf_counter() + seconds
    traced = False
    while time.perf_counter() < deadline or (tracer is not None and not phases[True].log.attempted):
        phase = phases[traced]
        if restart:
            workload.on_loaded = partial(_loaded, phase.book)
            workload.on_closing = phase.book.stop
        else:
            if isinstance(workload, Ingest):
                workload.around_write = partial(_around_write, phase.book, system)
            if traced:
                attach(tracer, system, graph_writes=isinstance(workload, Ingest))
            phase.book.start(system)
        workload.run_unit(runners[traced])
        if not restart:
            phase.book.stop(system)
            if traced:
                tracer.detach()
        traced = tracer is not None and not traced
    return phases[False], phases[True]


def _loaded(book: CounterBook, system) -> None:
    book.start(system)
    book.record_load(system)


def _around_write(book: CounterBook, system, done: bool) -> None:
    """Close the counter interval before a write and reopen it after, as
    the write publishes a new scorer with fresh counters."""
    if done:
        book.start(system)
    else:
        book.stop(system)


def ops_per_s(log: OpLog) -> float:
    """Interactions per second of interaction time.

    With one closed-loop client and zero think time this is the rate the
    system sustains; the harness's own work between interactions (action
    choice, counter reads, collecting set-up garbage) is not counted.
    """
    return log.attempted / (sum(log.pooled()) / 1000.0)


def end_to_end(log: OpLog, setup_s, first_response) -> tuple[dict, dict]:
    """End-to-end metric values plus the sample counts behind them."""
    pooled = log.pooled()
    highest, tail = tail_percentile(pooled)
    values = {
        "setup_s": statistics.median(setup_s),
        "ops_per_s": ops_per_s(log),
        "latency_p50_ms": statistics.median(pooled),
        "latency_p90_ms": percentile(pooled, 90.0),
        "latency_p99_ms": tail,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {
        "setup_s": f"n={len(setup_s)}; first answer after set-up {first_response:.1f} ms, not gated",
        "ops_per_s": f"n={log.attempted} in {sum(pooled) / 1000.0:.2f} s",
        "latency_p50_ms": f"n={len(pooled)}",
        "latency_p90_ms": f"n={len(pooled)}, {sum(sample > values['latency_p90_ms'] for sample in pooled)} beyond",
        "latency_p99_ms": (
            f"p{highest:.2f} of n={len(pooled)}, "
            f"{sum(sample > tail for sample in pooled)} beyond"
        ),
        "rss_mb": "peak",
    }
    return values, samples


def cache_shares(book: CounterBook) -> dict[str, float]:
    return {
        "result_cache_hit_share": book.ratio("search.hits", "search.lookups"),
        "recommendation_cache_hit_share": book.ratio("explore.hits", "explore.lookups"),
    }


def environment(graph, args) -> dict[str, object]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "entities": graph.num_entities(),
        "triples": len(graph),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def report(title: str, rows: list[tuple[str, float, str, str]]) -> None:
    print(title)
    for name, value, unit, note in rows:
        print(f"  {name:34s} {value:14.4f} {unit:6s} {note}")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        # Measure this checkout's code or nothing, never an installed copy.
        sys.exit(f"no PivotE sources under {source}")
    sys.path.insert(0, str(source))
    from repro.datasets import RandomKGConfig, build_random_kg

    graph = build_random_kg(RandomKGConfig(**KG_CONFIG))
    env = environment(graph, args)
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    snapshot = None
    if workload is Restart:
        snapshot = tempfile.mkdtemp(prefix="snapshot-", dir=OUT)
        workload = Restart(None, graph, args.seed, snapshot)
    else:
        workload = workload(None, graph, args.seed)
    try:
        result = run(args, graph, workload, snapshot, env)
    finally:
        if workload.system is not None:
            workload.system.close()
        if snapshot is not None:
            shutil.rmtree(snapshot, ignore_errors=True)
    print(json.dumps(result))
    return 0


def run(args, graph, workload, snapshot, env) -> dict[str, object]:
    setup_s, first_response = set_up(workload, graph, snapshot)
    digest = Digest()
    tracer = Tracer() if args.trace else None
    untraced, traced = measure(workload, digest, args.seconds, tracer)
    log = untraced.log
    e2e, samples = end_to_end(log, setup_s, first_response)
    medians = log.medians()
    layers = None
    if tracer is not None:
        overhead = e2e["ops_per_s"] / ops_per_s(traced.log)
        layers = layer_metrics(tracer, traced.book, traced.log.attempted, overhead)
        tracer.write(str(OUT / f"spans-{args.workload}-seed{args.seed}.json"))
    logs = [log, traced.log]

    checks = OpLog()
    started = time.perf_counter()
    checked = workload.check(checks)
    check_s = time.perf_counter() - started
    attempted = sum(entry.attempted for entry in logs)
    failed = sum(entry.failed for entry in logs) + checks.failed
    errors = [error for entry in logs + [checks] for error in entry.errors]

    report(
        f"{args.workload} seed={args.seed}: end to end"
        + (" (untraced units)" if tracer is not None else ""),
        [(name, e2e[name], unit, samples[name]) for name, unit in END_TO_END]
        + [("latency_p99_ms", e2e["latency_p99_ms"], "ms", samples["latency_p99_ms"] + ", not gated")],
    )
    report(
        "  per interaction (p50)",
        [(f"{kind}_p50_ms", value, "ms", f"n={count}") for kind, (value, count) in medians.items()],
    )
    print(
        f"  failed_ratio {failed / attempted:.6f} ({failed} of {attempted}; "
        f"{checked} answers checked in {check_s:.1f} s)"
    )
    for error in errors:
        print(f"  ! {error}")
    if log.clicks:
        print(f"  clicks {log.clicks}, of which {log.fallbacks} seeded fallback picks (nothing shown to click)")
    print(f"  digest {digest.hexdigest()} over {digest.count} actions, prefix {digest.prefix}")
    shares = cache_shares(untraced.book)
    print("  " + ", ".join(f"{key} {value:.3f}" for key, value in shares.items()))
    print("  environment " + json.dumps(env))

    wanted = LAYER_METRICS + (WRITE_METRICS if isinstance(workload, Ingest) else ())
    if layers is not None:
        layer_units = dict(wanted)
        report(
            "per layer (traced units)",
            [(name, layers[name], layer_units[name], "") for name, _ in wanted],
        )
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in wanted}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}

    details = {
        "environment": env,
        "cache_shares": shares,
        "end_to_end": e2e,
        "samples": samples,
        "per_interaction_p50_ms": medians,
        "latencies_ms": log.latencies,
        "setup_s": setup_s,
        "first_answer_after_setup_ms": first_response,
        "failed_ratio": failed / attempted,
        "checked": checked,
        "fallbacks": log.fallbacks,
        "errors": errors,
        "digest": digest.hexdigest(),
        "digest_prefix": digest.prefix,
        "digest_actions": digest.count,
        "layers": layers,
    }
    name = f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w", encoding="utf-8") as handle:
        json.dump(details, handle, indent=1)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
