"""Synthetic tabular benchmark with closed-form scores and exact baselines.

The benchmark assigns every pool operation a seeded utility, every operation
pair within a layer a small synergy, and every operation a cost.  A layer's
quality is the mean utility of its selected operations plus the per-selection
share of pairwise synergies, squashed through a saturating curve; the whole
architecture maps to an accuracy in (0, 1) through a sigmoid.  Scores are
pure functions of the seed, which makes brute-force verification of the
search loop possible on small spaces.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Protocol, Sequence

from .indicators import op_probability as sigmoid  # the package's one sigmoid
from .pareto import EvaluationRecord, pareto_front
from .resources import CostTable, architecture_cost
from .rng import make_rng
from .space import (
    NORMAL,
    Architecture,
    GateSampler,
    GateVector,
    SearchSpacePool,
    SpaceError,
    SubsetState,
)

ENUMERATION_CAP = 2**21


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


# ---------------------------------------------------------------------------
# Exact baselines


def _layer_selections(
    subset: SubsetState, layer_index: int, max_ops: int | None = None
) -> list[tuple[int, ...]]:
    slots = subset.active_slots(layer_index)
    low = 0 if subset.roles[layer_index] == NORMAL else 1
    hi = len(slots) if max_ops is None else min(max_ops, len(slots))
    out: list[tuple[int, ...]] = []
    for k in range(low, hi + 1):
        out.extend(itertools.combinations(slots, k))
    return out


def enumeration_size(subset: SubsetState, max_ops: int | None = None) -> int:
    total = 1
    for li in range(subset.num_layers):
        slots = len(subset.active_slots(li))
        low = 0 if subset.roles[li] == NORMAL else 1
        hi = slots if max_ops is None else min(max_ops, slots)
        total *= sum(math.comb(slots, k) for k in range(low, hi + 1))
    return total


def enumerate_architectures(subset: SubsetState, cap: int = ENUMERATION_CAP):
    """Yield every valid architecture over the subset's active entries."""
    size = enumeration_size(subset)
    if size > cap:
        raise SpaceError(f"enumeration size {size} exceeds cap {cap}")
    per_layer = [_layer_selections(subset, li) for li in range(subset.num_layers)]
    for combo in itertools.product(*per_layer):
        yield Architecture.from_encoding(combo)


def brute_force_pareto(
    subset: SubsetState,
    bench: SyntheticBenchmark,
    constraint_upper: float,
    cap: int = ENUMERATION_CAP,
) -> list[EvaluationRecord]:
    """Exact front over every enumerable architecture with cost in budget."""
    records = []
    for arch in enumerate_architectures(subset, cap=cap):
        accuracy, cost = oracle_score(arch, bench)
        if cost <= constraint_upper:
            records.append(EvaluationRecord(arch, accuracy, cost))
    return pareto_front(records)


def constrained_optimum(
    subset: SubsetState,
    bench: SyntheticBenchmark,
    constraint_upper: float,
    max_ops_per_layer: int | None = None,
) -> tuple[float, Architecture]:
    """Exact best in-budget accuracy over the (optionally K-bounded) space.

    The score decomposes per layer into (saturated quality, cost) pairs, so
    layers can be enumerated independently and merged with dominance pruning;
    the result is exact without enumerating the full product space.
    """
    budget = constraint_upper - bench.overhead
    if budget < 0:
        raise SpaceError("budget below fixed overhead")
    # states: (total saturated score, total cost, encoding-so-far)
    states: list[tuple[float, float, tuple]] = [(0.0, 0.0, ())]
    for li in range(subset.num_layers):
        options = []
        for sel in _layer_selections(subset, li, max_ops_per_layer):
            f_val = _saturate(_layer_score(bench, li, sel))
            c_val = sum(bench.costs[(li, s)] for s in sel)
            options.append((f_val, c_val, sel))
        merged = []
        for f0, c0_, enc in states:
            for f_val, c_val, sel in options:
                c_new = c0_ + c_val
                if c_new <= budget:
                    merged.append((f0 + f_val, c_new, enc + (sel,)))
        if not merged:
            raise SpaceError(f"no in-budget selection for layer {li}")
        # keep only (score up, cost down) non-dominated partial sums
        merged.sort(key=lambda t: (t[1], -t[0], t[2]))
        states = []
        best_f = -float("inf")
        for f_val, c_val, enc in merged:
            if f_val > best_f:
                states.append((f_val, c_val, enc))
                best_f = f_val
    best = max(states, key=lambda t: (t[0], -t[1]))
    arch = Architecture.from_encoding(best[2])
    accuracy, _ = oracle_score(arch, bench)
    return accuracy, arch
