"""Latency summaries, replay digests and answer comparison."""

from __future__ import annotations

import hashlib
import math
import statistics
from dataclasses import dataclass, field

#: Samples that must lie beyond a reported tail percentile.
TAIL_SAMPLES = 10


def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile: the ``ceil(p/100 * n)``-th smallest sample."""
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(round(p / 100.0 * len(ordered), 9))) - 1]


def tail_percentile(samples: list[float], wanted: float = 99.0) -> tuple[float, float]:
    """``(percentile, value)`` of the highest percentile up to ``wanted``
    that leaves at least :data:`TAIL_SAMPLES` samples beyond it.

    Nearest-rank percentiles: the value is the ``ceil(p/100 * n)``-th
    smallest sample.  With too few samples for any such percentile the
    largest sample is returned, labelled as percentile 100.
    """
    n = len(samples)
    if n <= TAIL_SAMPLES:
        return 100.0, max(samples)
    highest = min(wanted, 100.0 * (n - TAIL_SAMPLES) / n)
    return highest, percentile(samples, highest)


class Digest:
    """Running SHA-256 over the replayed actions and the ids they returned.

    :attr:`prefix` covers only the first :attr:`PREFIX_OPS` actions, so two
    commits that complete different numbers of interactions in a timed run
    can still be shown to have replayed the same opening sequence.
    """

    PREFIX_OPS = 64

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self.count = 0
        self._prefix = ""

    def add(self, kind: str, arg: str, answer: tuple[str, ...]) -> None:
        self._hash.update(f"{kind}\x1f{arg}\x1f{','.join(answer)}\n".encode())
        self.count += 1
        if self.count == self.PREFIX_OPS:
            self._prefix = self._hash.hexdigest()

    @property
    def prefix(self) -> str:
        return self._prefix or self._hash.hexdigest()

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


@dataclass
class OpLog:
    """Timed interactions of one run, by kind, plus failure accounting."""

    latencies: dict[str, list[float]] = field(default_factory=dict)
    #: Timed parts of an interaction (``load`` within ``restart``), not
    #: counted as interactions of their own.
    parts: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    raised: int = 0
    wrong: int = 0
    clicks: int = 0
    #: Clicks sent as a seeded pick from the whole graph because the
    #: response showed nothing to click.
    fallbacks: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, kind: str, ms: float) -> None:
        self.latencies.setdefault(kind, []).append(ms)
        self.attempted += 1

    def part(self, kind: str, ms: float) -> None:
        self.parts.setdefault(kind, []).append(ms)

    def fail(self, description: str) -> None:
        self.raised += 1
        if len(self.errors) < 5:
            self.errors.append(description)

    def mismatch(self, description: str) -> None:
        self.wrong += 1
        if len(self.errors) < 5:
            self.errors.append(description)

    @property
    def failed(self) -> int:
        return self.raised + self.wrong

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def pooled(self) -> list[float]:
        return [ms for values in self.latencies.values() for ms in values]

    def medians(self) -> dict[str, tuple[float, int]]:
        """``kind -> (p50 ms, sample count)``."""
        return {
            kind: (statistics.median(values), len(values))
            for kind, values in sorted(self.latencies.items()) + sorted(self.parts.items())
        }


def response_answer(response) -> tuple[str, ...]:
    """The ids a ``QueryResponse`` showed: hits, then x-axis, then y-axis."""
    answer = [hit.entity_id for hit in response.hits]
    if response.recommendation is not None:
        answer.append("|")
        answer.extend(response.recommendation.entity_ids())
        answer.append("|")
        answer.extend(response.recommendation.feature_notations())
    return tuple(answer)


def scored_hits(hits) -> list[tuple[str, float]]:
    return [(hit.entity_id, hit.score) for hit in hits]


def scored_recommendation(recommendation) -> tuple[list, list]:
    """Entity ids and feature notations with their scores, in rank order."""
    if recommendation is None:
        return [], []
    return (
        [(entity.entity_id, entity.score) for entity in recommendation.entities],
        [(scored.feature.notation(), scored.score) for scored in recommendation.features],
    )

