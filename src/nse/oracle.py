"""Synthetic tabular benchmark with closed-form scores.

The benchmark assigns every pool operation a seeded utility, every operation
pair within a layer a small synergy, and every operation a cost.  A layer's
quality is the mean utility of its selected operations plus the per-selection
share of pairwise synergies, squashed through a saturating curve; the whole
architecture maps to an accuracy in (0, 1) through a sigmoid.  Scores are
pure functions of the seed, so the search loop can be checked against
brute-force enumeration on small spaces (the tests hold that enumeration).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Protocol, Sequence

from .resources import CostTable, architecture_cost
from .rng import make_rng
from .space import Architecture, GateSampler, SearchSpacePool, sigmoid


class Evaluator(Protocol):
    """Uniform scoring interface shared by oracle- and supernet-backed paths.

    ``evaluate`` scores a sampler's mask rows and returns one accuracy per
    row, the accuracy of its decoded architecture.
    """

    def evaluate(self, sampler: GateSampler, rows: Sequence[Sequence[int]]) -> list[float]: ...


def _logit(p: float) -> float:
    return math.log(p / (1.0 - p))


@dataclass
class SyntheticBenchmark:
    seed: int
    utilities: dict[tuple[int, int], float]
    synergies: dict[tuple[int, int, int], float]
    costs: dict[tuple[int, int], float]
    overhead: float
    c0: float
    c1: float
    unit: str = "units"

    @staticmethod
    def generate(
        pool: SearchSpacePool,
        seed: int,
        cost_range: tuple[float, float] = (20.0, 120.0),
        overhead: float = 10.0,
        chance: float = 0.3,
        ceiling: float = 0.95,
        synergy_scale: float = 0.1,
    ) -> "SyntheticBenchmark":
        rng = make_rng(seed, "benchmark")
        utilities = {}
        synergies = {}
        costs = {}
        for layer in pool.layers:
            slots = sorted(op.slot_index for op in layer.pool)
            li = layer.layer_index
            for s in slots:
                utilities[(li, s)] = float(rng.uniform(0.0, 1.0))
            for a, b in itertools.combinations(slots, 2):
                synergies[(li, a, b)] = float(
                    rng.uniform(-synergy_scale, synergy_scale)
                )
            for s in slots:
                costs[(li, s)] = float(rng.uniform(*cost_range))
        # calibrate the score-to-accuracy map: an empty architecture lands at
        # the chance level, a strong one approaches the ceiling
        c0 = _logit(chance)
        c1 = (_logit(ceiling) - c0) / (pool.num_layers * 0.5)
        return SyntheticBenchmark(
            seed=seed,
            utilities=utilities,
            synergies=synergies,
            costs=costs,
            overhead=overhead,
            c0=c0,
            c1=c1,
        )

    def cost_table(self) -> CostTable:
        return CostTable(cost=dict(self.costs), fixed_overhead=self.overhead, unit=self.unit)

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "overhead": self.overhead,
            "c0": self.c0,
            "c1": self.c1,
            "unit": self.unit,
            "utilities": [[l, s, v] for (l, s), v in sorted(self.utilities.items())],
            "synergies": [
                [l, a, b, v] for (l, a, b), v in sorted(self.synergies.items())
            ],
            "costs": [[l, s, v] for (l, s), v in sorted(self.costs.items())],
        }


def _layer_score(bench: SyntheticBenchmark, layer_index: int, slots: Sequence[int]) -> float:
    if not slots:
        return 0.0
    m = len(slots)
    total = sum(bench.utilities[(layer_index, s)] for s in slots)
    syn = sum(
        bench.synergies[(layer_index, a, b)]
        for a, b in itertools.combinations(sorted(slots), 2)
    )
    return total / m + syn / m


def _saturate(x: float) -> float:
    return x / (1.0 + x)


def _layer_value(bench: SyntheticBenchmark, layer_index: int, slots: Sequence[int]) -> float:
    return _saturate(_layer_score(bench, layer_index, slots))


def _accuracy(bench: SyntheticBenchmark, layer_values: Iterable[float]) -> float:
    total = 0.0
    for value in layer_values:
        total += value
    return sigmoid(bench.c0 + bench.c1 * total)


def oracle_score(arch: Architecture, bench: SyntheticBenchmark) -> tuple[float, float]:
    """Closed-form (accuracy, cost) of an architecture."""
    values = (_layer_value(bench, li, slots) for li, slots in enumerate(arch.layers))
    accuracy = _accuracy(bench, values)
    return accuracy, architecture_cost(arch, bench.cost_table())


class OracleEvaluator:
    """``oracle_score`` on mask rows.

    ``evaluate`` computes each layer's saturated score once per distinct
    layer mask of the rows it is given, from the slots the mask selects,
    and folds a row's values with ``_accuracy``, so every accuracy equals
    ``oracle_score``'s.
    """

    def __init__(self, benchmark: SyntheticBenchmark):
        self.benchmark = benchmark

    def evaluate(self, sampler: GateSampler, rows: Sequence[Sequence[int]]) -> list[float]:
        tables = [  # per layer: mask -> value
            {mask: _layer_value(self.benchmark, li, sampler.selection(li, mask)) for mask in set(masks)}
            for li, masks in enumerate(zip(*rows))
        ]
        return [_accuracy(self.benchmark, map(dict.__getitem__, tables, row)) for row in rows]
