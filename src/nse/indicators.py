"""Learnable per-operation fitness indicators.

Each active, non-identity operation carries a real indicator; its sigmoid is
the operation's Bernoulli selection probability, and a layer configuration's
probability is the product over its gates.  Indicators and probabilities
are plain per-layer ``{slot: value}`` dicts.  Each indicator step draws
every layer's configuration pair from one sampler of the probabilities and
trains the indicators with a two-configuration simulated gradient: the
network is forwarded under one sampled configuration per layer, a second
configuration is scored on the same layer inputs without gradients, and the
pair probabilities are rescaled to sum to one.  A resource regularizer
pushes the expected pair cost toward the target demand.

Threshold pruning deactivates operations whose indicator falls below the
pruning threshold, except inherited operations (locked) and the last active
path of a reduction layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import nn
from .resources import (
    ConstraintConfig,
    CostTable,
    layer_cost,
    penalty,
    penalty_gradient_wrt_r,
)
from .space import (
    REDUCTION,
    Architecture,
    GateSampler,
    GateVector,
    SubsetState,
)


def op_probability(theta: float) -> float:
    """Numerically stable sigmoid, strictly inside (0, 1).

    The package's one sigmoid: the oracle maps scores to accuracies with it.
    """
    if theta >= 0:
        return 1.0 / (1.0 + math.exp(-theta))
    z = math.exp(theta)
    return z / (1.0 + z)


Probabilities = tuple[dict[int, float], ...]  # per layer, {slot: p} by slot


@dataclass
class FitnessIndicators:
    """Per-layer maps of slot index to indicator value."""

    values: list[dict[int, float]] = field(default_factory=list)

    @staticmethod
    def for_subset(subset: SubsetState) -> "FitnessIndicators":
        return FitnessIndicators(
            values=[
                {slot: 0.0 for slot in subset.active_slots(li)}
                for li in range(subset.num_layers)
            ]
        )

    def probabilities(self) -> Probabilities:
        """Every slot's probability now, each computed once, per layer as
        ``{slot: p}`` in ascending slot order; the functions below read
        probabilities only from such a snapshot."""
        return tuple(
            {slot: op_probability(value) for slot, value in sorted(layer.items())}
            for layer in self.values
        )

    def to_json(self) -> dict:
        return {
            "layers": [
                {str(slot): value for slot, value in sorted(layer.items())}
                for layer in self.values
            ]
        }


def config_probability(gate: GateVector, probs: Probabilities) -> float:
    """Joint Bernoulli probability of one layer configuration.

    Identity paths are structural with probability fixed to 1, so they never
    appear here; only indicator-carrying slots contribute factors.
    """
    prob = 1.0
    for slot, p in probs[gate.layer_index].items():
        prob *= p if slot in gate.selected else (1.0 - p)
    return prob


def indicator_sampler(probs: Probabilities, roles: Sequence[str]) -> GateSampler:
    """Gate each slot independently by its probability in ``probs``."""
    return GateSampler([list(p) for p in probs], roles, [list(p.values()) for p in probs])


def sample_architecture(
    thetas: FitnessIndicators,
    subset: SubsetState,
    rng: np.random.Generator,
) -> Architecture:
    sampler = indicator_sampler(thetas.probabilities(), subset.roles)
    return sampler.decode(sampler.draw(rng, 1)[0])


def rescale_pair(p_a: float, p_b: float) -> tuple[float, float]:
    total = p_a + p_b
    if total <= 0.0:
        raise ValueError("pair probabilities sum to zero")
    return p_a / total, p_b / total


def config_probability_grads(
    gate: GateVector, probs: Probabilities, p_hat: float | None = None
) -> dict[int, float]:
    """d p_hat / d theta_n for every slot: p_hat * (g_n - p_n).  ``p_hat``,
    when given, is ``config_probability(gate, probs)``, already computed."""
    p_hat = config_probability(gate, probs) if p_hat is None else p_hat
    return {
        slot: p_hat * ((1.0 if slot in gate.selected else 0.0) - p)
        for slot, p in probs[gate.layer_index].items()
    }


def rescaled_pair_grads(
    g_a: GateVector, g_b: GateVector, probs: Probabilities, pair: tuple | None = None
) -> dict[int, float]:
    """d p_tilde_a / d theta_n through the pair rescale (quotient rule).

    The companion derivative d p_tilde_b / d theta_n is the negation.
    ``pair``, when given, is the two configurations' ``config_probability``.
    """
    p_a, p_b = pair or (config_probability(g_a, probs), config_probability(g_b, probs))
    d_a = config_probability_grads(g_a, probs, p_a)
    d_b = config_probability_grads(g_b, probs, p_b)
    total_sq = (p_a + p_b) ** 2
    return {
        slot: (d_a[slot] * p_b - p_a * d_b[slot]) / total_sq
        for slot in probs[g_a.layer_index]
    }


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # ThetaAdam's decay rates and guard


class ThetaAdam:
    """Adam over the scalar indicator table.

    One step count serves every slot, so every slot of the table must be
    stepped on every call, as ``indicator_update_step`` does.
    """

    def __init__(self, lr: float = 0.1):
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.lr = lr
        self._m: dict[tuple[int, int], float] = {}
        self._v: dict[tuple[int, int], float] = {}
        self._t = 0

    def step(
        self, thetas: FitnessIndicators, grads: Mapping[tuple[int, int], float]
    ) -> None:
        self._t += 1
        c1, c2 = 1 - BETA1**self._t, 1 - BETA2**self._t
        for (li, slot), g in grads.items():
            if not math.isfinite(g):
                raise nn.NotFiniteError("non-finite indicator gradient")
            m = BETA1 * self._m.get((li, slot), 0.0) + (1 - BETA1) * g
            v = BETA2 * self._v.get((li, slot), 0.0) + (1 - BETA2) * g * g
            self._m[(li, slot)], self._v[(li, slot)] = m, v
            m_hat = m / c1
            v_hat = v / c2
            thetas.values[li][slot] -= self.lr * m_hat / (math.sqrt(v_hat) + EPS)


def indicator_update_step(
    thetas: FitnessIndicators,
    weights,
    subset: SubsetState,
    val_batch: tuple[np.ndarray, np.ndarray],
    cost_table: CostTable,
    constraint_cfg: ConstraintConfig,
    optimizer: ThetaAdam,
    rng: np.random.Generator,
) -> dict:
    """One simulated-gradient update of the indicator table.

    Draws every layer's configuration pair from one sampler of the table's
    probabilities, forwards the first configuration through the whole
    network on a validation batch, reads each layer output's gradient from
    the backward pass (no weight gradients are formed), scores the second
    configuration on the same layer inputs without gradients, reusing the
    branch outputs the two share, and applies the rescaled-pair chain rule
    plus the resource penalty.  Shared weights are not updated.
    """
    x, y = val_batch
    probs = thetas.probabilities()
    sampler = indicator_sampler(probs, subset.roles)
    gates_a = []
    gates_b = []
    for li in range(subset.num_layers):
        gates_a.append(sampler.draw_gate(rng, li))
        gates_b.append(sampler.draw_gate(rng, li))

    record = weights.train_forward(gates_a, x)
    loss, dlogits = nn.softmax_cross_entropy_array(record.logits, y)
    upstreams = weights.train_backward(record, dlogits, param_grads=False)

    per_layer = []
    expected_cost = 0.0
    for li, (trace, upstream) in enumerate(zip(record.layers, upstreams)):
        shared = dict(zip(trace.slots, trace.branches if trace.slots else ()))
        o_b = weights.layer_output_nograd(li, gates_b[li], trace.x, shared)
        s_a = float(np.sum(upstream * trace.out))
        s_b = float(np.sum(upstream * o_b))
        p_a = config_probability(gates_a[li], probs)
        p_b = config_probability(gates_b[li], probs)
        pt_a, pt_b = rescale_pair(p_a, p_b)
        d_tilde = rescaled_pair_grads(gates_a[li], gates_b[li], probs, (p_a, p_b))
        c_a = layer_cost(gates_a[li], cost_table)
        c_b = layer_cost(gates_b[li], cost_table)
        expected_cost += pt_a * c_a + pt_b * c_b
        per_layer.append((li, s_a, s_b, d_tilde, c_a, c_b))

    r_value = cost_table.fixed_overhead - constraint_cfg.tau + expected_cost
    pg = penalty_gradient_wrt_r(r_value, constraint_cfg)

    grads: dict[tuple[int, int], float] = {}
    for li, s_a, s_b, d_tilde, c_a, c_b in per_layer:
        for slot, d in d_tilde.items():
            grads[(li, slot)] = (s_a - s_b) * d + pg * d * (c_a - c_b)

    optimizer.step(thetas, grads)
    return {
        "loss": loss,
        "expected_cost_gap": r_value,
        "penalty": penalty(r_value, constraint_cfg),
    }


def prune(
    thetas: FitnessIndicators,
    subset: SubsetState,
    threshold: float,
    lock_inherited: bool = True,
) -> list[tuple[int, int, float]]:
    """Deactivate operations whose indicator fell below the threshold.

    Inherited operations are exempt while the lock is on, and a reduction
    layer always keeps its last active path.  Weakest candidates go first so
    the survivor of a reduction layer is its best-scored path.  Returns a
    ``(layer, slot, indicator)`` triple per pruned operation, in pruning
    order, with the indicator value it was pruned at.
    """
    if not math.isfinite(threshold):
        raise ValueError("threshold must be finite")
    removed: list[tuple[int, int, float]] = []
    for li in range(subset.num_layers):
        candidates = []
        for entry in subset.active_entries(li):
            slot = entry.descriptor.slot_index
            if lock_inherited and entry.origin == "inherited":
                continue
            value = thetas.values[li][slot]
            if value < threshold:
                candidates.append((value, slot))
        for value, slot in sorted(candidates):
            if subset.roles[li] == REDUCTION and len(subset.active_entries(li)) == 1:
                break
            subset.deactivate(li, slot)
            del thetas.values[li][slot]
            removed.append((li, slot, value))
    return removed
