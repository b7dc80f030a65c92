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
from typing import Annotated, Literal, Mapping

import numpy as np

from .space import Architecture, GateSampler


class ResourceError(ValueError):
    pass


@dataclass
class CostTable:
    cost: dict[tuple[int, int], float]
    fixed_overhead: float = 0.0
    unit: str = "units"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.fixed_overhead) and self.fixed_overhead >= 0):
            raise ResourceError("fixed_overhead must be finite and nonnegative")
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
        if not isinstance(data, Mapping):
            raise ResourceError("a cost table must be a JSON object")
        cost, keys = {}, {}
        for key, value in data.items():
            if key == "_overhead" or key == "unit":
                continue
            try:
                layer, slot = (int(part) for part in key.split("."))
            except ValueError:
                raise ResourceError(f"key {key!r} must be '<layer>.<slot>', two integers") from None
            if (layer, slot) in keys:
                raise ResourceError(
                    f"keys {keys[layer, slot]!r} and {key!r} both name layer {layer} slot {slot}"
                )
            keys[layer, slot] = key
            cost[layer, slot] = _number(key, value)
        unit = data.get("unit", "units")
        if not isinstance(unit, str):
            raise ResourceError(f"'unit' must be a string, not {type(unit).__name__!r}")
        return CostTable(cost, _number("_overhead", data.get("_overhead", 0.0)), unit)

    @staticmethod
    def load(path: str) -> "CostTable":
        with open(path, encoding="utf-8") as fh:
            return CostTable.from_json(json.load(fh))


@dataclass
class ConstraintConfig:
    """The config's constraint section: target demand tau plus the
    regularizer shape (alpha, beta).

    ``upper_bound`` is the hard in-constraint cutoff used when sampling and
    filtering; ``__post_init__`` resolves it to tau when unset, so that the
    config hash sees the cutoff in use.  ``edging_margin`` is the relative
    width of the auxiliary beyond-boundary band.  ``one_sided`` switches the
    penalty to a hinge that ignores under-budget architectures.  ``kind``
    labels the cost, ``cost_table`` names an optional cost-table file, and
    supernet rounds prune an operation whose indicator falls below
    ``prune_threshold``.
    """

    tau: float = 300.0
    alpha: Annotated[float, "[0, inf)"] = 1e-5
    beta: Annotated[float, "[1, inf)"] = 2.0
    upper_bound: float | None = None
    edging_margin: Annotated[float, "[0, inf)"] = 0.1
    one_sided: bool = False
    kind: Literal["flops", "latency"] = "flops"
    cost_table: str | None = None
    prune_threshold: float = -2.0

    def __post_init__(self) -> None:
        if self.upper_bound is None:
            self.upper_bound = self.tau


def _number(key: str, value) -> float:
    """A cost table file's number at ``key``: a bool or a string is refused
    rather than read as ``float`` would read it."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ResourceError(f"{key!r} must be a number, not {type(value).__name__!r}")
    try:
        return float(value)
    except OverflowError:  # an integer past the float range
        raise ResourceError(f"{key!r} must be a finite number") from None


def architecture_cost(arch: Architecture, table: CostTable) -> float:
    """Overhead plus the layer costs, each layer's selected branches added
    in ascending slot order (identity adds nothing), and the layers added
    left to right first.

    Explicit loops rather than ``sum()``, whose float result is compensated
    from Python 3.12 on, so this and ``MaskCost`` give the same float on
    every Python.
    """
    total = 0.0
    for li, selected in enumerate(arch.layers):
        layer = 0.0
        for slot in selected:
            layer += table.lookup(li, slot)
        total += layer
    return table.fixed_overhead + total


class MaskCost:
    """Architecture costs of rows of layer masks drawn by a GateSampler.

    Bit ``j`` of a layer's mask gates the layer's ``j``-th slot, and a
    sampler's slots ascend, so each layer holds its slot costs in slot
    order, read from the table once, as ``columns``.  A layer's cost adds
    bit times cost from 0.0, one slot after another, which is
    ``architecture_cost``'s layer sum: adding 0.0 for an unset bit is exact
    because costs are nonnegative.  The layers then add up as in
    ``architecture_cost``, so a row costs exactly what its decoded
    architecture does.
    """

    def __init__(self, sampler: GateSampler, table: CostTable):
        self._overhead = table.fixed_overhead
        self.columns = [
            [table.lookup(li, s) for s in slots] for li, slots in enumerate(sampler.slots)
        ]

    def __call__(self, masks: np.ndarray) -> np.ndarray:
        """Costs of an ``(n, num_layers)`` mask array, one per row."""
        total = np.zeros(len(masks))
        for li, column in enumerate(self.columns):
            # one pass per slot, not ``np.sum``, which adds 8 or more terms pairwise
            layer = np.zeros(len(masks))
            for j, cost in enumerate(column):
                layer += (masks[:, li] >> j & 1) * cost
            total += layer
        return self._overhead + total


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
