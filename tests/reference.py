"""Plain reference implementations that tests compare the program against.

- The tape forward: the supernet's forward pass on the ``Tensor`` autodiff
  tape, over ``Tensor`` leaves that wrap the parameter arrays, so a test can
  read every parameter's gradient after ``backward``.  The explicit training
  pass is checked against it bit for bit.  The tape normalizes each branch
  as ``tape_stats`` says, switched by ``set_mode``: with the batch's own
  moments, with fixed statistics, or with the batch's own moments while
  collecting its inputs for a ``Recalibration``.
- ``state_hash``: a digest of a supernet's parameters.
- ``benchmark_from_json``: a ``SyntheticBenchmark`` read back from its JSON.
- ``train_architecture``: train one fixed architecture from scratch and
  score it, the retrained baseline of acceptance criterion 7.
- ``reference_toy_dataset``: the toy dataset built row by row.
- The oracle's exact baselines: every architecture of a subset
  (``enumerate_architectures``), the brute-force Pareto front, and the exact
  constrained optimum by per-layer dominance merging.
- ``two_config_ce_grads`` and ``exhaustive_ce_grads``: the sampled and the
  enumerated cross-entropy indicator gradient of one layer.
- The indicator table as the program held it before it became one flat
  array: ``dict_probabilities`` gives per-layer ``{slot: p}`` dicts, which
  ``dict_config_probability``, ``dict_config_probability_grads`` and
  ``dict_rescaled_pair_grads`` read by membership in a gate vector, and
  ``DictThetaAdam`` steps the values slot by slot; ``layer_cost`` prices
  one gate vector.  Beside them, the helpers that move between the two
  forms: ``indicator_table``, ``column``, ``gate_bits``, ``draw_gate`` and
  ``pair_of``.
- ``dominates``, the pairwise Pareto order.
- ``sample_space_architecture``, a second sampler of the K-bounded space;
  ``reference_keep_draws``, the retrieval keep loop that draws, prices and
  looks at every draw one at a time; and ``reference_retrieve_pareto``,
  retrieval with one evaluated record per kept draw.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import weakref
from typing import Mapping, Sequence

import numpy as np

from nse.engine import edging_filter
from nse.indicators import (
    FitnessIndicators,
    config_probability,
    config_probability_grads,
    rescaled_pair_grads,
)
from nse.nn import (
    EPS_NORM,
    SGD,
    Tensor,
    add,
    affine,
    cosine_warmup_lr,
    normalize,
    relu,
    scale,
    tanh,
)
from nse.oracle import SyntheticBenchmark, _layer_score, _saturate, oracle_score
from nse.pareto import EvaluationRecord, pareto_front
from nse.resources import CostTable, MaskCost
from nse.rng import make_rng
from nse.space import (
    NORMAL,
    ORIGIN_FRESH,
    Architecture,
    GateSampler,
    GateVector,
    SearchSpacePool,
    SpaceError,
    SubsetEntry,
    SubsetState,
    sigmoid,
)
from nse.supernet import (
    BatchStream,
    DatasetConfig,
    InferenceCache,
    NetworkGeometry,
    SharedWeights,
    ToyDataset,
    TrainingConfig,
    evaluate,
    make_recal_batches,
    train_step_fixed,
)

# ---------------------------------------------------------------------------
# The tape forward of the supernet

_ACTS = {"relu": relu, "tanh": tanh}
_TAPE_STATS: "weakref.WeakKeyDictionary[SharedWeights, dict]" = weakref.WeakKeyDictionary()


def tape_stats(weights: SharedWeights) -> dict[tuple[int, int], object]:
    """How the tape normalizes every branch of ``weights``, by (layer, slot):
    ``None`` for the batch's own moments (the default), a (mean, inv) pair
    of fixed statistics, or a list that each forwarded input is appended to,
    normalized with its own moments, while recalibrating."""
    if weights not in _TAPE_STATS:
        _TAPE_STATS[weights] = {key: None for key in weights.kinds}
    return _TAPE_STATS[weights]


def set_mode(weights: SharedWeights, mode: str) -> None:
    """Normalize every branch of the tape over ``weights`` as ``mode`` says:
    "train" with the batch's own moments, "eval" with the statistics of a
    fresh branch (zero mean, unit variance)."""
    stats = tape_stats(weights)
    for li, slot in stats:
        width = weights.geometry.w_out(li)
        if mode == "train":
            stats[(li, slot)] = None
        elif mode == "eval":
            stats[(li, slot)] = (np.zeros(width), np.full(width, 1.0 / np.sqrt(1.0 + EPS_NORM)))
        else:
            raise ValueError(f"unknown tape mode {mode!r}")


def state_hash(weights: SharedWeights) -> str:
    """sha256 over every parameter's name, shape and little-endian bytes."""
    h = hashlib.sha256()
    for name in sorted(weights.params):
        h.update(name.encode())
        h.update(str(weights.params[name].shape).encode())
        h.update(weights.params[name].astype("<f8").tobytes())
    return h.hexdigest()


def tape_leaves(weights: SharedWeights) -> dict[str, Tensor]:
    """Every parameter array of ``weights`` wrapped in a ``Tensor`` leaf that
    collects its gradient."""
    return {name: Tensor(value, requires_grad=True) for name, value in weights.params.items()}


def branch_forward(
    weights: SharedWeights,
    layer_index: int,
    slot: int,
    x: Tensor,
    leaves: Mapping[str, Tensor] | None = None,
) -> Tensor:
    leaves = tape_leaves(weights) if leaves is None else leaves
    kind, _ = weights.kinds[(layer_index, slot)]
    act = _ACTS[kind.rsplit("_", 1)[1]]
    prefix = f"L{layer_index}.S{slot}"
    h = act(affine(x, leaves[f"{prefix}.w1"], leaves[f"{prefix}.b1"]))
    y = affine(h, leaves[f"{prefix}.w2"], leaves[f"{prefix}.b2"])
    stats = tape_stats(weights)[(layer_index, slot)]
    if isinstance(stats, list):
        stats.append(y.data)
        return normalize(y)
    return normalize(y, stats)


def layer_forward(
    weights: SharedWeights,
    layer_index: int,
    gate: GateVector,
    x: Tensor,
    leaves: Mapping[str, Tensor] | None = None,
) -> Tensor:
    leaves = tape_leaves(weights) if leaves is None else leaves
    branches = [
        branch_forward(weights, layer_index, slot, x, leaves) for slot in gate.selected
    ]
    parts = list(weights._layer_parts(layer_index, x, branches))
    if len(parts) == 1:
        return parts[0]
    return scale(add(*parts), 1.0 / len(parts))


def forward_collect(
    weights: SharedWeights, gates: Sequence[GateVector], x: Tensor
) -> tuple[Tensor, list[Tensor], list[Tensor], dict[str, Tensor]]:
    """Tape forward on fresh leaves; returns the logits, every layer's input
    and output, and the leaves."""
    leaves = tape_leaves(weights)
    h = affine(x, leaves["stem.w"], leaves["stem.b"])
    layer_inputs: list[Tensor] = []
    layer_outputs: list[Tensor] = []
    for li, gate in enumerate(gates):
        layer_inputs.append(h)
        h = layer_forward(weights, li, gate, h, leaves)
        layer_outputs.append(h)
    logits = affine(h, leaves["head.w"], leaves["head.b"])
    return logits, layer_inputs, layer_outputs, leaves


def forward(
    weights: SharedWeights, gates: Sequence[GateVector], x: Tensor
) -> tuple[Tensor, dict[str, Tensor]]:
    """Tape forward on fresh leaves; returns the logits and the leaves."""
    logits, _, _, leaves = forward_collect(weights, gates, x)
    return logits, leaves


def tape_grads(leaves: Mapping[str, Tensor]) -> dict[str, np.ndarray]:
    """The gradient of every leaf the last ``backward`` reached, by name."""
    return {name: leaf.grad for name, leaf in leaves.items() if leaf.grad is not None}


# ---------------------------------------------------------------------------
# Retraining one fixed architecture


def subset_for_architecture(arch: Architecture, pool: SearchSpacePool) -> SubsetState:
    """A minimal subset holding exactly one architecture's operations."""
    layers = []
    for li, gv in enumerate(arch.gate_vectors):
        layers.append(
            [
                SubsetEntry(pool.descriptor(li, slot), ORIGIN_FRESH)
                for slot in gv.selected
            ]
        )
    capacity = max(1, max(len(entries) for entries in layers))
    state = SubsetState(layers=layers, roles=pool.roles, capacity=capacity)
    state.validate()
    return state


def train_architecture(
    architecture: Architecture,
    pool: SearchSpacePool,
    geometry: NetworkGeometry,
    dataset: ToyDataset,
    training: TrainingConfig,
    seed: int,
    recal_count: int = 16,
) -> float:
    """Train one fixed architecture from scratch and return its accuracy."""
    subset = subset_for_architecture(architecture, pool)
    weights = SharedWeights(subset, geometry, seed)
    optimizer = SGD(
        lr=training.lr,
        momentum=training.momentum,
        nesterov=training.nesterov,
        weight_decay=training.weight_decay,
    )
    stream = BatchStream(
        dataset.x_train, dataset.y_train, training.batch_size, make_rng(seed, "retrain-batches")
    )
    for step in range(training.steps):
        optimizer.lr = cosine_warmup_lr(step, training.steps, training.lr, training.warmup_steps)
        train_step_fixed(weights, architecture, stream.next(), optimizer)
    recal = make_recal_batches(
        dataset, recal_count, training.batch_size, make_rng(seed, "retrain-recal")
    )
    return evaluate(InferenceCache(weights, dataset, recal), [architecture])[0]


# ---------------------------------------------------------------------------
# The synthetic benchmark read back


def benchmark_from_json(data: dict) -> SyntheticBenchmark:
    """The inverse of ``SyntheticBenchmark.to_json``."""
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


# ---------------------------------------------------------------------------
# The toy dataset


def reference_toy_dataset(cfg: DatasetConfig) -> ToyDataset:
    """``ToyDataset.generate`` with every input row copied from its cluster
    center in a Python loop, reading the generator in the same order."""
    rng = make_rng(cfg.seed, "dataset")
    centers = []
    for _ in range(cfg.classes):
        class_centers = []
        for pair in range(math.ceil(cfg.clusters_per_class / 2)):
            v = rng.normal(size=cfg.input_dim)
            v = v / np.linalg.norm(v) * cfg.radius
            class_centers.append(v)
            class_centers.append(-v)
        centers.append(class_centers[: cfg.clusters_per_class])

    def draw(n: int) -> tuple[np.ndarray, np.ndarray]:
        counts = [n // cfg.classes + (1 if c < n % cfg.classes else 0) for c in range(cfg.classes)]
        labels = np.repeat(np.arange(cfg.classes), counts)
        labels = labels[rng.permutation(n)]
        cluster_pick = rng.integers(0, cfg.clusters_per_class, size=n)
        x = np.empty((n, cfg.input_dim))
        for i in range(n):
            x[i] = centers[labels[i]][cluster_pick[i]]
        x += cfg.noise * rng.normal(size=(n, cfg.input_dim))
        return x, labels

    x_train, y_train = draw(cfg.train_size)
    x_val, y_val = draw(cfg.val_size)
    return ToyDataset(x_train, y_train, x_val, y_val)


# ---------------------------------------------------------------------------
# The oracle's exact baselines

ENUMERATION_CAP = 2**21


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


# ---------------------------------------------------------------------------
# The indicator table, flat and as per-layer dicts


def indicator_table(layer_values: Sequence[Mapping[int, float]]) -> FitnessIndicators:
    """The table holding ``layer_values[l][slot]`` in each layer's column for
    ``slot``, with no inherited operation."""
    slots = tuple(tuple(sorted(layer)) for layer in layer_values)
    values = [float(layer[s]) for layer, layer_slots in zip(layer_values, slots) for s in layer_slots]
    return FitnessIndicators(slots, np.array(values), np.zeros(len(values), dtype=bool))


def column(thetas: FitnessIndicators, layer_index: int, slot: int) -> int:
    """The table column of ``slot`` in layer ``layer_index``."""
    return thetas.bounds[layer_index] + thetas.slots[layer_index].index(slot)


def gate_bits(gate: GateVector, slots: Sequence[int]) -> np.ndarray:
    """Which of the layer's ``slots`` the gate vector selects, as bools."""
    return np.array([slot in gate.selected for slot in slots], dtype=bool)


def draw_gate(sampler: GateSampler, rng: np.random.Generator, layer_index: int) -> GateVector:
    """One layer drawn alone, as a gate vector."""
    return sampler.gate(layer_index, sampler.draw_mask(rng, layer_index))


def pair_of(bits_a: np.ndarray, bits_b: np.ndarray, probs: np.ndarray) -> tuple:
    """The ``pair`` argument of ``rescaled_pair_grads`` for one layer."""
    p_a, p_b = config_probability(bits_a, probs), config_probability(bits_b, probs)
    return p_a, p_b, (p_a + p_b) ** 2


def dict_probabilities(thetas: FitnessIndicators) -> tuple[dict[int, float], ...]:
    """Every slot's probability as per-layer ``{slot: p}`` dicts."""
    values = thetas.values.tolist()
    return tuple(
        {slot: sigmoid(values[lo + j]) for j, slot in enumerate(slots)}
        for slots, lo in zip(thetas.slots, thetas.bounds)
    )


def dict_config_probability(gate: GateVector, probs: Sequence[Mapping[int, float]]) -> float:
    prob = 1.0
    for slot, p in probs[gate.layer_index].items():
        prob *= p if slot in gate.selected else (1.0 - p)
    return prob


def dict_config_probability_grads(
    gate: GateVector, probs: Sequence[Mapping[int, float]], p_hat: float | None = None
) -> dict[int, float]:
    p_hat = dict_config_probability(gate, probs) if p_hat is None else p_hat
    return {
        slot: p_hat * ((1.0 if slot in gate.selected else 0.0) - p)
        for slot, p in probs[gate.layer_index].items()
    }


def dict_rescaled_pair_grads(
    g_a: GateVector, g_b: GateVector, probs: Sequence[Mapping[int, float]]
) -> dict[int, float]:
    p_a, p_b = dict_config_probability(g_a, probs), dict_config_probability(g_b, probs)
    d_a = dict_config_probability_grads(g_a, probs, p_a)
    d_b = dict_config_probability_grads(g_b, probs, p_b)
    total_sq = (p_a + p_b) ** 2
    return {
        slot: (d_a[slot] * p_b - p_a * d_b[slot]) / total_sq for slot in probs[g_a.layer_index]
    }


class DictThetaAdam:
    """Adam over per-layer ``{slot: value}`` dicts, one slot at a time, with
    one step count for every slot."""

    def __init__(self, lr: float):
        self.lr = lr
        self._m: dict[tuple[int, int], float] = {}
        self._v: dict[tuple[int, int], float] = {}
        self._t = 0

    def step(self, values: list[dict[int, float]], grads: Mapping[tuple[int, int], float]) -> None:
        b1, b2, eps = 0.9, 0.999, 1e-8
        self._t += 1
        c1, c2 = 1 - b1**self._t, 1 - b2**self._t
        for (li, slot), g in grads.items():
            m = b1 * self._m.get((li, slot), 0.0) + (1 - b1) * g
            v = b2 * self._v.get((li, slot), 0.0) + (1 - b2) * g * g
            self._m[(li, slot)], self._v[(li, slot)] = m, v
            values[li][slot] -= self.lr * (m / c1) / (math.sqrt(v / c2) + eps)


def layer_cost(gate: GateVector, table: CostTable) -> float:
    """Summed cost of one layer's selected branches in ascending slot order."""
    total = 0.0
    for slot in gate.selected:
        total += table.lookup(gate.layer_index, slot)
    return total


# ---------------------------------------------------------------------------
# Indicator gradients of one layer


def two_config_ce_grads(
    s_a: float,
    s_b: float,
    g_a: GateVector,
    g_b: GateVector,
    slots: Sequence[int],
    probs: np.ndarray,
) -> dict[int, float]:
    """Two-configuration cross-entropy term: (s_a - s_b) * d p_tilde_a, for
    a layer whose ``slots`` have probabilities ``probs``."""
    b_a, b_b = gate_bits(g_a, slots), gate_bits(g_b, slots)
    d_tilde = rescaled_pair_grads(b_a, b_b, probs, pair_of(b_a, b_b, probs))
    return {slot: (s_a - s_b) * d for slot, d in zip(slots, d_tilde.tolist())}


def exhaustive_ce_grads(
    layer_index: int,
    role: str,
    slots: Sequence[int],
    probs: np.ndarray,
    branch_outputs: Mapping[int, np.ndarray],
    upstream: np.ndarray,
    identity_input: np.ndarray | None,
) -> dict[int, float]:
    """Enumeration-based reference for the cross-entropy indicator gradient
    of a layer whose ``slots`` have probabilities ``probs``.

    Sums over every configuration of the layer; only feasible for a handful
    of slots, and used as a verification baseline rather than in training.
    """
    slots = list(slots)
    if len(slots) > 16:
        raise ValueError("exhaustive gradient is limited to small layers")
    grads = {slot: 0.0 for slot in slots}
    low = 0 if role == NORMAL else 1
    for k in range(low, len(slots) + 1):
        for sel in itertools.combinations(slots, k):
            gate = GateVector(layer_index, sel)
            parts = [branch_outputs[s] for s in sel]
            if role == NORMAL:
                parts = [identity_input] + parts
            mix = sum(parts) / len(parts)
            s_g = float(np.sum(upstream * mix))
            bits = gate_bits(gate, slots)
            d = config_probability_grads(bits, probs, config_probability(bits, probs))
            for slot, d_slot in zip(slots, d.tolist()):
                grads[slot] += s_g * d_slot
    return grads


# ---------------------------------------------------------------------------
# Pareto order and retrieval


def dominates(a: EvaluationRecord, b: EvaluationRecord) -> bool:
    """a is at least as accurate and at most as costly, strictly better in one."""
    return (
        a.accuracy >= b.accuracy
        and a.cost <= b.cost
        and (a.accuracy > b.accuracy or a.cost < b.cost)
    )


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
    """``engine._keep_draws`` as a loop over every draw in order, each drawn
    by its own ``sampler.draw(rng, 1)`` call and priced on its own."""
    limit = constraint.upper_bound
    band_hi = limit * (1.0 + constraint.edging_margin)
    cost_of = MaskCost(sampler, table)
    seen, in_budget, auxiliary = set(), [], []
    max_draws = retrieval.stall_factor * retrieval.samples
    for draws in range(1, max_draws + 1):
        row = sampler.draw(rng, 1)
        key = tuple(row[0].tolist())
        cost = float(cost_of(row)[0])
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
    return in_budget, auxiliary, max_draws


def reference_pareto_front(records):
    """``pareto.pareto_front`` with the gate encoding in every sort key."""
    ordered = sorted(records, key=lambda r: (r.cost, -r.accuracy, r.architecture.encoding()))
    front, best = [], -math.inf
    for record in ordered:
        if record.accuracy > best:
            front.append(record)
            best = record.accuracy
    return front


def reference_retrieve_pareto(sampler, bench, previous_front, retrieval, constraint, rng):
    """``engine.retrieve_pareto`` with one record per kept draw: every kept
    row is decoded, rehearsal compares encodings, every record is priced and
    scored by ``oracle_score``, and the best pick sorts every in-budget
    record.

    Returns (corrected front, raw front, best in-budget record, in-budget
    records, diagnostics).
    """
    limit = constraint.upper_bound
    in_budget, auxiliary, draws = reference_keep_draws(
        sampler, bench.cost_table(), retrieval, constraint, rng
    )
    sampled = [sampler.decode(key) for key, _ in in_budget]
    sampled_set = {a.encoding() for a in sampled}
    rehearse = [
        rec.architecture
        for rec in previous_front
        if rec.architecture.encoding() not in sampled_set
    ]
    beyond = [sampler.decode(key) for key, _ in auxiliary]
    records = [
        EvaluationRecord(a, *oracle_score(a, bench)) for a in sampled + rehearse + beyond
    ]
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
