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
from dataclasses import dataclass, field
from typing import Iterable, Protocol, Sequence

from .indicators import op_probability as sigmoid  # the package's one sigmoid
from .pareto import EvaluationRecord
from .resources import CostTable, architecture_cost
from .rng import make_rng
from .space import Architecture, GateSampler, GateVector, SearchSpacePool


class Evaluator(Protocol):
    """Uniform scoring interface shared by oracle- and supernet-backed paths.

    ``table`` prices the architectures.  ``evaluate`` scores an architecture
    and records the ``cost`` its caller priced it at on ``table``, so each
    architecture is priced once.  ``accuracies`` scores a sampler's draws,
    given as (mask row, cost) pairs, to what ``evaluate`` gives their
    decoded architectures.
    """

    table: CostTable

    def cost(self, architecture: Architecture) -> float: ...

    def evaluate(self, architecture: Architecture, cost: float) -> EvaluationRecord: ...

    def accuracies(
        self, sampler: GateSampler, draws: Sequence[tuple[Sequence[int], float]]
    ) -> list[float]: ...


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
    _table: CostTable | None = field(default=None, repr=False, compare=False)

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
        if self._table is None:
            self._table = CostTable(
                cost=dict(self.costs), fixed_overhead=self.overhead, unit=self.unit
            )
        return self._table

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

    @staticmethod
    def from_json(data: dict) -> "SyntheticBenchmark":
        return SyntheticBenchmark(
            seed=data["seed"],
            utilities={(l, s): v for l, s, v in data["utilities"]},
            synergies={(l, a, b): v for l, a, b, v in data["synergies"]},
            costs={(l, s): v for l, s, v in data["costs"]},
            overhead=data["overhead"],
            c0=data["c0"],
            c1=data["c1"],
            unit=data.get("unit", "units"),
        )


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


def _layer_value(bench: SyntheticBenchmark, gate: GateVector) -> float:
    return _saturate(_layer_score(bench, gate.layer_index, sorted(gate.selected)))


def _accuracy(bench: SyntheticBenchmark, layer_values: Iterable[float]) -> float:
    total = 0.0
    for value in layer_values:
        total += value
    return sigmoid(bench.c0 + bench.c1 * total)


def oracle_score(arch: Architecture, bench: SyntheticBenchmark) -> tuple[float, float]:
    """Closed-form (accuracy, cost) of an architecture."""
    accuracy = _accuracy(bench, (_layer_value(bench, gv) for gv in arch.gate_vectors))
    return accuracy, architecture_cost(arch, bench.cost_table())


class OracleEvaluator:
    """``oracle_score`` with each layer's saturated score memoised.

    ``evaluate`` looks the values up per gate vector, ``accuracies`` per
    layer mask of a sampler's rows, in tables filled from the gate vectors'
    values.  Both fold a row's values with ``_accuracy``, so every accuracy
    equals ``oracle_score``'s.
    """

    def __init__(self, benchmark: SyntheticBenchmark):
        self.benchmark = benchmark
        self.table = benchmark.cost_table()
        self._values: dict[GateVector, float] = {}
        # per sampler slot layout: one table of mask -> value per layer
        self._masks: dict[tuple[tuple[int, ...], ...], list[dict[int, float]]] = {}

    def cost(self, architecture: Architecture) -> float:
        return architecture_cost(architecture, self.table)

    def _value(self, gate: GateVector) -> float:
        value = self._values.get(gate)
        if value is None:
            value = self._values[gate] = _layer_value(self.benchmark, gate)
        return value

    def evaluate(self, architecture: Architecture, cost: float) -> EvaluationRecord:
        accuracy = _accuracy(self.benchmark, map(self._value, architecture.gate_vectors))
        return EvaluationRecord(architecture, accuracy, cost)

    def accuracies(
        self, sampler: GateSampler, draws: Sequence[tuple[Sequence[int], float]]
    ) -> list[float]:
        tables = self._masks.setdefault(sampler.slots, [{} for _ in sampler.slots])
        rows = [row for row, _ in draws]
        for li, (table, masks) in enumerate(zip(tables, zip(*rows))):
            for mask in set(masks).difference(table):
                table[mask] = self._value(sampler.selection(li, mask))
        return [_accuracy(self.benchmark, map(dict.__getitem__, tables, row)) for row in rows]
