"""Resource cost tables and the constraint penalty.

Costs are abstract nonnegative units (FLOPs-like or latency-like) attached to
pool slots through a lookup table.  An architecture's cost is the fixed
stem/head overhead plus the sum of its selected branch costs; identity paths
cost nothing.  The penalty term is alpha * |R|^beta on the signed gap R
between expected cost and the target, optionally one-sided.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .space import Architecture, GateSampler, GateVector


class ResourceError(ValueError):
    pass


@dataclass
class CostTable:
    cost: dict[tuple[int, int], float]
    fixed_overhead: float = 0.0
    unit: str = "units"

    def __post_init__(self) -> None:
        if self.fixed_overhead < 0:
            raise ResourceError("fixed_overhead must be nonnegative")
        for key, value in self.cost.items():
            if not (math.isfinite(value) and value >= 0):
                raise ResourceError(f"cost for {key} must be finite and nonnegative")

    def lookup(self, layer_index: int, slot_index: int) -> float:
        try:
            return self.cost[(layer_index, slot_index)]
        except KeyError:
            raise ResourceError(
                f"missing cost entry for layer {layer_index} slot {slot_index}"
            ) from None

    def to_json(self) -> dict:
        out: dict[str, float | str] = {
            f"{l}.{s}": c for (l, s), c in sorted(self.cost.items())
        }
        out["_overhead"] = self.fixed_overhead
        out["unit"] = self.unit
        return out

    @staticmethod
    def from_json(data: Mapping) -> "CostTable":
        cost = {}
        for key, value in data.items():
            if key == "_overhead" or key == "unit":
                continue
            layer, slot = key.split(".")
            cost[(int(layer), int(slot))] = float(value)
        return CostTable(
            cost=cost,
            fixed_overhead=float(data.get("_overhead", 0.0)),
            unit=str(data.get("unit", "units")),
        )

    @staticmethod
    def load(path: str) -> "CostTable":
        with open(path) as fh:
            return CostTable.from_json(json.load(fh))


@dataclass
class ConstraintConfig:
    """Target demand tau plus the regularizer shape (alpha, beta).

    ``upper_bound`` is the hard in-constraint cutoff used when sampling and
    filtering (defaults to tau); ``edging_margin`` is the relative width of
    the auxiliary beyond-boundary band.  ``one_sided`` switches the penalty
    to a hinge that ignores under-budget architectures.
    """

    tau: float
    alpha: float = 1e-5
    beta: float = 2.0
    upper_bound: float | None = None
    edging_margin: float = 0.1
    one_sided: bool = False

    def __post_init__(self) -> None:
        if not math.isfinite(self.tau) or not math.isfinite(self.alpha):
            raise ResourceError("tau and alpha must be finite")
        if self.alpha < 0:
            raise ResourceError("alpha must be nonnegative")
        if self.beta < 1:
            raise ResourceError("beta must be >= 1")
        if self.edging_margin < 0:
            raise ResourceError("edging_margin must be nonnegative")
        if self.upper_bound is None:
            self.upper_bound = self.tau


def layer_cost(gate_vector: GateVector, table: CostTable) -> float:
    """Summed cost of one layer's selected branches (identity adds nothing)."""
    total = 0.0
    for slot in gate_vector.selected:
        total += table.lookup(gate_vector.layer_index, slot)
    return total


def architecture_cost(arch: Architecture, table: CostTable) -> float:
    """Overhead plus the layer costs, summed left to right first.

    Explicit loops rather than ``sum()``, whose float result is compensated
    from Python 3.12 on, so this and ``MaskCost`` give the same float on
    every Python.
    """
    total = 0.0
    for gv in arch.gate_vectors:
        total += layer_cost(gv, table)
    return table.fixed_overhead + total


class MaskCost:
    """Architecture costs of rows of layer masks drawn by a GateSampler.

    Each layer's cost is memoised per mask from ``layer_cost`` of the decoded
    gate vector, filled only for masks that occur, and the layers add up as
    in ``architecture_cost``, so a row costs exactly what its decoded
    architecture does.
    """

    def __init__(self, sampler: GateSampler, table: CostTable):
        # not ``sampler.gate``: most priced masks are never decoded again,
        # so their gate vectors are not worth keeping
        self._gate = sampler.selection
        self._table = table
        self._layers: list[dict[int, float]] = [{} for _ in sampler.slots]

    def __call__(self, masks: np.ndarray) -> np.ndarray:
        """Costs of an ``(n, num_layers)`` mask array, one per row."""
        total = np.zeros(len(masks))
        for li, costs in enumerate(self._layers):
            occurring, index = np.unique(masks[:, li], return_inverse=True)
            for mask in occurring.tolist():
                if mask not in costs:
                    costs[mask] = layer_cost(self._gate(li, mask), self._table)
            total += np.array([costs[mask] for mask in occurring.tolist()])[index]
        return self._table.fixed_overhead + total


def expected_pair_cost(
    config_a: GateVector,
    config_b: GateVector,
    p_a: float,
    p_b: float,
    table: CostTable,
) -> float:
    """Probability-weighted layer cost of a rescaled two-configuration pair."""
    if abs(p_a + p_b - 1.0) > 1e-9:
        raise ResourceError("pair probabilities must sum to 1")
    return p_a * layer_cost(config_a, table) + p_b * layer_cost(config_b, table)


def penalty(r_value: float, cfg: ConstraintConfig) -> float:
    """alpha * |R|^beta, or the one-sided hinge alpha * max(R, 0)^beta."""
    if cfg.one_sided and r_value <= 0:
        return 0.0
    return cfg.alpha * abs(r_value) ** cfg.beta


def penalty_gradient_wrt_r(r_value: float, cfg: ConstraintConfig) -> float:
    if cfg.one_sided and r_value <= 0:
        return 0.0
    if r_value == 0.0:
        # |R|^(beta-1) is 0 for beta > 1 and ill-defined at beta = 1; both
        # resolve to a zero gradient at the target.
        return 0.0
    sign = 1.0 if r_value > 0 else -1.0
    return cfg.alpha * cfg.beta * abs(r_value) ** (cfg.beta - 1.0) * sign
