"""Dominance filtering over (accuracy up, cost down) evaluation records."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .space import Architecture


@dataclass(frozen=True)
class EvaluationRecord:
    architecture: Architecture
    accuracy: float
    cost: float


def pareto_front(records: Sequence[EvaluationRecord]) -> list[EvaluationRecord]:
    """Non-dominated, deduplicated records sorted by ascending cost.

    Records are sorted on (cost, -accuracy).  Records with identical
    (accuracy, cost) keep exactly one representative, the one with the
    lexicographically smallest ``architecture.layers``; those are compared
    only inside such ties.  Anything with ``accuracy``, ``cost`` and
    ``architecture`` will do, so a caller can pass scored draws that decode
    their architecture only when asked.

    The last point is the most accurate record, the cheapest of those, and
    the smallest ``architecture.layers`` of exact ties among them.
    """
    front: list[EvaluationRecord] = []
    for record in sorted(records, key=lambda r: (r.cost, -r.accuracy)):
        if not front or record.accuracy > front[-1].accuracy:
            front.append(record)
        elif (
            record.accuracy == front[-1].accuracy
            and record.cost == front[-1].cost
            and record.architecture.layers < front[-1].architecture.layers
        ):
            front[-1] = record
    return front
