"""Plain reference implementations that tests compare the program against.

``sample_space_architecture`` is a second sampler of the K-bounded space
that only tests use; ``reference_keep_draws`` is the retrieval keep loop
that looks at every draw, one at a time; ``reference_retrieve_pareto`` is
retrieval with one evaluated record per kept draw.
"""

import math

import numpy as np

from nse.engine import BLOCK_DOUBLES, edging_filter
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


def reference_pareto_front(records):
    """``pareto.pareto_front`` with the gate encoding in every sort key."""
    ordered = sorted(records, key=lambda r: (r.cost, -r.accuracy, r.architecture.encoding()))
    front, best = [], -math.inf
    for record in ordered:
        if record.accuracy > best:
            front.append(record)
            best = record.accuracy
    return front


def reference_retrieve_pareto(sampler, evaluator, previous_front, retrieval, constraint, rng):
    """``engine.retrieve_pareto`` with one record per kept draw: every kept
    row is decoded and evaluated as an architecture, rehearsal compares
    encodings, and the best pick sorts every in-budget record.

    Returns (corrected front, raw front, best in-budget record, in-budget
    records, diagnostics).
    """
    limit = constraint.upper_bound
    in_budget, auxiliary, draws = reference_keep_draws(
        sampler, evaluator.table, retrieval, constraint, rng
    )
    sampled = [(sampler.decode(key), cost) for key, cost in in_budget]
    sampled_set = {a.encoding() for a, _ in sampled}
    rehearse = [
        (rec.architecture, evaluator.cost(rec.architecture))
        for rec in previous_front
        if rec.architecture.encoding() not in sampled_set
    ]
    beyond = [(sampler.decode(key), cost) for key, cost in auxiliary]
    records = [evaluator.evaluate(a, cost) for a, cost in sampled + rehearse + beyond]
    n_in = len(sampled) + len(rehearse)
    in_records = [r for r in records[:n_in] if r.cost <= limit]
    diagnostics = {
        "draws": draws,
        "stalled": len(in_budget) < retrieval.samples,
        "in_budget": len(in_budget),
        "auxiliary": len(auxiliary),
        "rehearsed": len(rehearse),
    }
    raw = reference_pareto_front(in_records)
    corrected = edging_filter(raw, records[n_in:], constraint, diagnostics)
    best = min(
        in_records,
        key=lambda rec: (-rec.accuracy, rec.cost, rec.architecture.encoding()),
        default=None,
    )
    return corrected, raw, best, in_records, diagnostics
