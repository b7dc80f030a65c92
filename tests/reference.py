"""Plain reference implementations that tests compare the program against.

``sample_space_architecture`` is a second sampler of the K-bounded space
that only tests use; ``reference_keep_draws`` is the retrieval keep loop
that looks at every draw, one at a time.
"""

import math

import numpy as np

from nse.engine import BLOCK_DOUBLES
from nse.resources import MaskCost
from nse.space import NORMAL, Architecture, GateVector, SpaceError, SubsetState


def sample_space_architecture(
    subset: SubsetState, capacity: int, rng: np.random.Generator
) -> Architecture:
    """Uniform draw from the K-bounded architecture space over a subset.

    Every selection of at most ``capacity`` active operations per layer
    (at least one on reduction layers) is equally likely, matching the
    space that count_architectures counts.
    """
    gate_vectors = []
    for li in range(subset.num_layers):
        slots = subset.active_slots(li)
        low = 0 if subset.roles[li] == NORMAL else 1
        hi = min(capacity, len(slots))
        if hi < low:
            raise SpaceError(f"layer {li} cannot satisfy the selection bounds")
        weights = np.array(
            [math.comb(len(slots), k) for k in range(low, hi + 1)], dtype=float
        )
        k = low + int(rng.choice(len(weights), p=weights / weights.sum()))
        picked = rng.choice(len(slots), size=k, replace=False) if k else []
        gate_vectors.append(GateVector(li, frozenset(slots[i] for i in picked)))
    return Architecture(tuple(gate_vectors))


def reference_keep_draws(sampler, table, retrieval, constraint, rng):
    """``engine._keep_draws`` as a loop over every draw in order: the same
    blocks are drawn and priced, and every row is looked at one by one."""
    limit = constraint.upper_bound
    band_hi = limit * (1.0 + constraint.edging_margin)
    cost_of = MaskCost(sampler, table)
    seen, in_budget, auxiliary, draws = set(), [], [], 0
    left = retrieval.stall_factor * retrieval.samples
    size = max(1, BLOCK_DOUBLES // max(1, sampler.width))
    while left > 0:
        block = sampler.draw(rng, min(size, left))
        left -= len(block)
        for row, cost in zip(block.tolist(), cost_of(block).tolist()):
            draws += 1
            key = tuple(row)
            if key in seen:
                continue
            seen.add(key)
            if cost <= limit and len(in_budget) < retrieval.samples:
                in_budget.append((key, cost))
            elif limit < cost <= band_hi and len(auxiliary) < retrieval.auxiliary:
                auxiliary.append((key, cost))
            else:
                continue
            if len(in_budget) == retrieval.samples and len(auxiliary) == retrieval.auxiliary:
                return in_budget, auxiliary, draws
    return in_budget, auxiliary, draws
