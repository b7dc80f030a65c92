"""Learnable per-operation fitness indicators.

Each active, non-identity operation carries a real indicator; its sigmoid is
the operation's Bernoulli selection probability, and a layer configuration's
probability is the product over its gates.  The indicator table is one
flat array with a column per active slot, in a ``GateSampler``'s gate-bit
order; probabilities, gradients and Adam moments are arrays in that order.
Each indicator step draws every layer's configuration pair from one sampler
of the probabilities and trains the indicators with a two-configuration
simulated gradient: the network is forwarded under one sampled
configuration per layer, a second configuration is scored on the same layer
inputs without gradients, and the pair probabilities are rescaled to sum to
one.  A resource regularizer pushes the expected pair cost toward the
target demand.

Threshold pruning deactivates operations whose indicator falls below the
pruning threshold, except inherited operations (locked) and the last active
path of a reduction layer.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from . import nn
from .resources import ConstraintConfig, CostTable, MaskCost, penalty, penalty_gradient_wrt_r
from .space import ORIGIN_INHERITED, REDUCTION, Architecture, GateSampler, SubsetState, sigmoid


class FitnessIndicators:
    """The indicator table, one column per active slot, and Adam's moments
    ``m`` and ``v`` for it.

    Layer ``l`` holds columns ``bounds[l]:bounds[l + 1]``, one per slot of
    ``slots[l]`` in ascending order: the gate-bit order of the layer masks
    of ``indicator_sampler``'s GateSampler.  ``inherited`` marks the columns
    of inherited operations, which pruning leaves alone while they are
    locked.
    """

    def __init__(self, slots: Sequence[Sequence[int]], values: np.ndarray, inherited: np.ndarray):
        self.slots = tuple(tuple(layer) for layer in slots)
        self.values, self.inherited = values, inherited
        self.m, self.v = np.zeros(len(values)), np.zeros(len(values))

    @property
    def bounds(self) -> list[int]:
        return list(itertools.accumulate(map(len, self.slots), initial=0))

    @staticmethod
    def for_subset(subset: SubsetState) -> "FitnessIndicators":
        """Every active slot of ``subset`` at indicator 0."""
        slots = [subset.active_slots(li) for li in range(subset.num_layers)]
        inherited = [
            subset.entry(li, s).origin == ORIGIN_INHERITED for li, layer in enumerate(slots) for s in layer
        ]
        return FitnessIndicators(slots, np.zeros(len(inherited)), np.array(inherited, dtype=bool))

    def probabilities(self) -> np.ndarray:
        """Every column's probability now, each computed once by the scalar
        ``sigmoid``; the functions below read probabilities only from
        such a snapshot."""
        return np.array([sigmoid(value) for value in self.values.tolist()])

    def keep(self, mask: np.ndarray) -> None:
        """Keep only the columns where the bool vector ``mask`` is True, in
        the slots, the values and the moments alike."""
        kept = mask.tolist()
        self.slots = tuple(
            tuple(slot for c, slot in enumerate(slots, lo) if kept[c])
            for slots, lo in zip(self.slots, self.bounds)
        )
        self.values, self.inherited = self.values[mask], self.inherited[mask]
        self.m, self.v = self.m[mask], self.v[mask]

    def to_json(self) -> dict:
        values = self.values.tolist()
        return {
            "layers": [
                {str(slot): values[c] for c, slot in enumerate(slots, lo)}
                for slots, lo in zip(self.slots, self.bounds)
            ]
        }


def config_probability(bits: np.ndarray, probs: np.ndarray) -> float:
    """Joint Bernoulli probability of one layer configuration, given as the
    bool vector of the layer's gate bits beside its slots' probabilities.

    Identity paths are structural with probability fixed to 1, so they never
    appear here; only indicator-carrying slots contribute factors, multiplied
    in slot order.
    """
    return float(np.multiply.reduce(np.where(bits, probs, 1.0 - probs)))


def indicator_sampler(
    thetas: FitnessIndicators, roles: Sequence[str], probs: np.ndarray | None = None
) -> GateSampler:
    """Gate each slot independently by its indicator's probability.
    ``probs``, when given, is ``thetas.probabilities()``, already computed."""
    probs = thetas.probabilities() if probs is None else probs
    return GateSampler(thetas.slots, roles, np.split(probs, thetas.bounds[1:-1]))


def sample_architecture(
    thetas: FitnessIndicators,
    subset: SubsetState,
    rng: np.random.Generator,
) -> Architecture:
    sampler = indicator_sampler(thetas, subset.roles)
    return sampler.decode(sampler.draw(rng, 1)[0])


def rescale_pair(p_a: float, p_b: float) -> tuple[float, float]:
    total = p_a + p_b
    if total <= 0.0:
        raise ValueError("pair probabilities sum to zero")
    return p_a / total, p_b / total


def config_probability_grads(
    bits: np.ndarray, probs: np.ndarray, p_hat: float | np.ndarray
) -> np.ndarray:
    """d p_hat / d theta_n for every column: p_hat * (g_n - p_n).  ``p_hat``
    is ``config_probability(bits, probs)``: a float for one layer, or per
    column its layer's float for a table."""
    return p_hat * (bits - probs)


def rescaled_pair_grads(
    bits_a: np.ndarray, bits_b: np.ndarray, probs: np.ndarray, pair: tuple
) -> np.ndarray:
    """d p_tilde_a / d theta_n through the pair rescale (quotient rule).

    The companion derivative d p_tilde_b / d theta_n is the negation.
    ``pair`` is the two configurations' ``config_probability`` and the
    square of their sum: floats for one layer, or per column its layer's
    floats for a table.
    """
    p_a, p_b, total_sq = pair
    d_a = config_probability_grads(bits_a, probs, p_a)
    d_b = config_probability_grads(bits_b, probs, p_b)
    return (d_a * p_b - p_a * d_b) / total_sq


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # ThetaAdam's decay rates and guard


class ThetaAdam:
    """Adam over an indicator table, which holds the moments.

    One step count serves every column, so every column of the table must
    be stepped on every call, as ``indicator_update_step`` does.
    """

    def __init__(self, lr: float = 0.1):
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.lr = lr
        self._t = 0

    def step(self, thetas: FitnessIndicators, grads: np.ndarray) -> None:
        """One update from ``grads``, one per column of ``thetas``."""
        if not np.isfinite(grads).all():
            raise nn.NotFiniteError("non-finite indicator gradient")
        self._t += 1
        c1, c2 = 1 - BETA1**self._t, 1 - BETA2**self._t
        thetas.m = BETA1 * thetas.m + (1 - BETA1) * grads
        thetas.v = BETA2 * thetas.v + (1 - BETA2) * grads * grads
        thetas.values -= self.lr * (thetas.m / c1) / (np.sqrt(thetas.v / c2) + EPS)


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

    Each layer's scalars (its scores, pair probabilities and costs) are
    Python floats; every per-column expression is an array expression over
    the whole table, with each layer's scalars repeated over its columns.
    """
    x, y = val_batch
    probs = thetas.probabilities()
    sampler = indicator_sampler(thetas, subset.roles, probs)
    pairs = [(sampler.draw_mask(rng, li), sampler.draw_mask(rng, li)) for li in range(subset.num_layers)]
    row_a, row_b = zip(*pairs)
    bits_a, bits_b = sampler.bits(row_a), sampler.bits(row_b)

    gates_a = [sampler.gate(li, mask) for li, mask in enumerate(row_a)]
    record = weights.train_forward(gates_a, x)
    loss, dlogits = nn.softmax_cross_entropy_array(record.logits, y)
    upstreams = weights.train_backward(record, dlogits, param_grads=False)

    columns = MaskCost(sampler, cost_table).columns
    bounds = thetas.bounds
    per_layer = []
    expected_cost = 0.0
    for li, (trace, upstream) in enumerate(zip(record.layers, upstreams)):
        shared = dict(zip(trace.slots, trace.branches if trace.slots else ()))
        o_b = weights.layer_output_nograd(li, sampler.gate(li, row_b[li]), trace.x, shared)
        s_a = float(np.sum(upstream * trace.out))
        s_b = float(np.sum(upstream * o_b))
        lo, hi = bounds[li], bounds[li + 1]
        p_a = config_probability(bits_a[lo:hi], probs[lo:hi])
        p_b = config_probability(bits_b[lo:hi], probs[lo:hi])
        pt_a, pt_b = rescale_pair(p_a, p_b)
        c_a = c_b = 0.0  # the layer costs, added in slot order as MaskCost does
        for a, b, cost in zip(bits_a[lo:hi].tolist(), bits_b[lo:hi].tolist(), columns[li]):
            c_a += a * cost
            c_b += b * cost
        expected_cost += pt_a * c_a + pt_b * c_b
        per_layer.append((s_a - s_b, p_a, p_b, (p_a + p_b) ** 2, c_a - c_b))

    r_value = cost_table.fixed_overhead - constraint_cfg.tau + expected_cost
    pg = penalty_gradient_wrt_r(r_value, constraint_cfg)

    s_gap, p_a, p_b, total_sq, c_gap = (np.repeat(col, np.diff(bounds)) for col in zip(*per_layer))
    d = rescaled_pair_grads(bits_a, bits_b, probs, (p_a, p_b, total_sq))
    optimizer.step(thetas, s_gap * d + pg * d * c_gap)
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
    below = thetas.values < threshold
    if lock_inherited:
        below &= ~thetas.inherited
    if not below.any():
        return []
    values, below = thetas.values.tolist(), below.tolist()
    keep = np.ones(len(values), dtype=bool)
    removed: list[tuple[int, int, float]] = []
    for li, (slots, lo) in enumerate(zip(thetas.slots, thetas.bounds)):
        candidates = [(values[c], slot, c) for c, slot in enumerate(slots, lo) if below[c]]
        for value, slot, c in sorted(candidates):
            if subset.roles[li] == REDUCTION and len(subset.active_entries(li)) == 1:
                break
            subset.deactivate(li, slot)
            keep[c] = False
            removed.append((li, slot, value))
    thetas.keep(keep)
    return removed
