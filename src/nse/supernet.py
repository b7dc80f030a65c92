"""Shared-weight multi-branch network over a search subset.

Candidate operations are two-affine blocks (an expansion or low-rank
bottleneck, a nonlinearity, and a per-branch normalization) so branches have
genuinely different capacity and cost without any convolution machinery.
A multi-branch layer averages its selected branch outputs; normal layers
average the identity path in as well.  Training samples one architecture per
batch uniformly, so only the touched branches receive gradient.  Parameters
are plain arrays, and a step runs one explicit backward per layer that
repeats the float order of the ``Tensor`` autodiff tape in ``nn``; the tests
build the tape forward over these arrays as the reference.  Evaluation
recalibrates private copies of the selected branches' normalization
statistics on training batches before scoring validation accuracy.  It runs
on a no-grad path over plain arrays, and an ``InferenceCache`` shares the
stem and layer-0 work of one set of trained weights across architectures.
The recalibration batches form one (R, B, W) stack, so each branch runs once
over all of them and its statistics fold the batches in order; the last
layer folds only their sums, since nothing reads its recalibrated outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

# affine, normalize and sample_uniform_architecture are on no path of this
# module: the tape ops are the tests' reference, and a one-row call of
# GateSampler is no longer how training draws.  They stay importable here
# because bench/child.py wraps them by this path.
from .nn import (
    NormStats,
    SGD,
    affine,  # noqa: F401
    affine_array,
    affine_stack,
    average_arrays,
    normalize,  # noqa: F401
    normalize_array,
    normalize_train_grad,
    normalize_train_stack,
    relu_array,
    softmax_cross_entropy_array,
    state_hash,
    tanh_array,
)
from .resources import CostTable
from .rng import make_rng
from .space import (
    NORMAL,
    REDUCTION,
    Architecture,
    DeclaredOp,
    GateSampler,
    GateVector,
    SearchSpacePool,
    SpaceError,
    SubsetState,
    sample_uniform_architecture,  # noqa: F401
)


def toy_op_family() -> list[DeclaredOp]:
    """Twelve distinct block kinds: expansion blocks and low-rank blocks."""
    family = []
    for act in ("relu", "tanh"):
        for expand in (1, 2, 4):
            family.append(DeclaredOp(kind=f"mlp_{act}", params={"expand": expand}))
    for act in ("relu", "tanh"):
        for rank in (1, 2, 4):
            family.append(DeclaredOp(kind=f"lowrank_{act}", params={"rank": rank}))
    return family


@dataclass
class NetworkGeometry:
    input_dim: int
    stem_width: int
    layer_widths: tuple[int, ...]
    classes: int

    def w_in(self, layer_index: int) -> int:
        if layer_index == 0:
            return self.stem_width
        return self.layer_widths[layer_index - 1]

    def w_out(self, layer_index: int) -> int:
        return self.layer_widths[layer_index]

    def validate_roles(self, roles: Sequence[str]) -> None:
        if len(roles) != len(self.layer_widths):
            raise ValueError("layer_widths must match the number of layers")
        for li, role in enumerate(roles):
            same = self.w_in(li) == self.w_out(li)
            if role == NORMAL and not same:
                raise ValueError(f"normal layer {li} must preserve width")
            if role == REDUCTION and same:
                raise ValueError(f"reduction layer {li} must change width")


@dataclass
class TrainingConfig:
    steps: int = 400
    batch_size: int = 128
    lr: float = 0.1
    momentum: float = 0.9
    nesterov: bool = True
    weight_decay: float = 4e-5
    warmup_steps: int = 20
    indicator_lr: float = 0.1

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        for name in ("steps", "warmup_steps"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        # written as negations so that NaN fails them too
        for name in ("lr", "indicator_lr"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if not self.weight_decay >= 0:
            raise ValueError("weight_decay must be >= 0")


@dataclass
class DatasetConfig:
    seed: int = 0
    input_dim: int = 16
    classes: int = 4
    train_size: int = 8000
    val_size: int = 2000
    clusters_per_class: int = 2
    noise: float = 0.6
    radius: float = 2.0

    def __post_init__(self) -> None:
        for name in ("input_dim", "classes", "train_size", "val_size", "clusters_per_class"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


@dataclass
class ToyDataset:
    x_train: np.ndarray
    y_train: np.ndarray
    x_val: np.ndarray
    y_val: np.ndarray

    @staticmethod
    def generate(cfg: DatasetConfig) -> "ToyDataset":
        """Seeded mixture with antipodal cluster pairs per class.

        Each class places its clusters at +v and -v, so no linear map can
        separate the classes and branch expressivity genuinely matters.
        """
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


class BatchStream:
    """Cycles through a split in shuffled minibatches, reshuffling per epoch."""

    def __init__(self, x: np.ndarray, y: np.ndarray, batch_size: int, rng: np.random.Generator):
        self.x = x
        self.y = y
        self.batch_size = batch_size
        self.rng = rng
        self._order = rng.permutation(len(x))
        self._cursor = 0

    def next(self) -> tuple[np.ndarray, np.ndarray]:
        if self._cursor + self.batch_size > len(self.x):
            self._order = self.rng.permutation(len(self.x))
            self._cursor = 0
        idx = self._order[self._cursor : self._cursor + self.batch_size]
        self._cursor += self.batch_size
        return self.x[idx], self.y[idx]


# ---------------------------------------------------------------------------
# Costs


def _hidden_width(kind: str, params: Mapping[str, float], w_out: int) -> int:
    if kind.startswith("mlp"):
        return int(params["expand"]) * w_out
    if kind.startswith("lowrank"):
        return int(params["rank"])
    raise SpaceError(f"unknown op kind {kind!r}")


def op_cost(kind: str, params: Mapping[str, float], w_in: int, w_out: int, unit_scale: float = 1e-3) -> float:
    h = _hidden_width(kind, params, w_out)
    return (w_in * h + h * w_out) * unit_scale


def build_cost_table(
    pool: SearchSpacePool, geometry: NetworkGeometry, unit_scale: float = 1e-3
) -> CostTable:
    cost = {}
    for layer in pool.layers:
        w_in = geometry.w_in(layer.layer_index)
        w_out = geometry.w_out(layer.layer_index)
        for op in layer.pool:
            cost[op.key] = op_cost(op.kind, op.params, w_in, w_out, unit_scale)
    overhead = (
        geometry.input_dim * geometry.stem_width
        + geometry.layer_widths[-1] * geometry.classes
    ) * unit_scale
    return CostTable(cost=cost, fixed_overhead=overhead, unit="kmac")


# ---------------------------------------------------------------------------
# Shared weights


_ARRAY_ACTS = {"relu": relu_array, "tanh": tanh_array}
# d(act)/d(input) times g, from the activation's output: relu's output is
# positive exactly where its input is, and tanh' = 1 - tanh^2
_ACT_GRADS = {
    "relu": lambda g, out: g * (out > 0),
    "tanh": lambda g, out: g * (1.0 - out * out),
}


@dataclass
class LayerTrace:
    """What one layer's backward needs from the train-mode forward."""

    x: np.ndarray  # the layer input
    slots: list[int]  # selected slots, sorted
    hidden: list[np.ndarray]  # each branch's activation output
    centered: np.ndarray | None  # (n, B, W) centered second-affine outputs
    inv: np.ndarray | None  # (n, 1, W) inverse batch deviations
    branches: np.ndarray | None  # (n, B, W) normalized branch outputs
    out: np.ndarray  # the layer output


@dataclass
class TrainRecord:
    """A train-mode forward pass: its input, per-layer traces and logits."""

    x: np.ndarray
    layers: list[LayerTrace]
    features: np.ndarray  # the head's input
    logits: np.ndarray


class SharedWeights:
    """Parameter blocks and normalization statistics for one round's subset."""

    def __init__(self, subset: SubsetState, geometry: NetworkGeometry, seed: int):
        geometry.validate_roles(subset.roles)
        self.geometry = geometry
        self.roles = subset.roles
        self.seed = seed
        self.kinds: dict[tuple[int, int], tuple[str, dict]] = {}
        for li in range(subset.num_layers):
            for entry in subset.layers[li]:
                op = entry.descriptor
                self.kinds[(li, op.slot_index)] = (op.kind, dict(op.params))
        self.params: dict[str, np.ndarray] = {}
        self.stats: dict[tuple[int, int], NormStats] = {}
        self._build()

    def _param_shapes(self) -> list[tuple[str, tuple[int, ...]]]:
        g = self.geometry
        shapes: list[tuple[str, tuple[int, ...]]] = [
            ("stem.w", (g.input_dim, g.stem_width)),
            ("stem.b", (g.stem_width,)),
            ("head.w", (g.layer_widths[-1], g.classes)),
            ("head.b", (g.classes,)),
        ]
        for (li, slot), (kind, params) in sorted(self.kinds.items()):
            w_in, w_out = g.w_in(li), g.w_out(li)
            h = _hidden_width(kind, params, w_out)
            prefix = f"L{li}.S{slot}"
            shapes += [
                (f"{prefix}.w1", (w_in, h)),
                (f"{prefix}.b1", (h,)),
                (f"{prefix}.w2", (h, w_out)),
                (f"{prefix}.b2", (w_out,)),
            ]
        return shapes

    def _build(self) -> None:
        for name, shape in self._param_shapes():
            rng = make_rng(self.seed, "init", name)
            if name.endswith(".b") or name.endswith(".b1") or name.endswith(".b2"):
                data = np.zeros(shape)
            else:
                fan_in = shape[0]
                data = rng.normal(size=shape) * math.sqrt(2.0 / fan_in)
            self.params[name] = data
        for (li, slot) in self.kinds:
            self.stats[(li, slot)] = NormStats(self.geometry.w_out(li))

    def set_mode(self, mode: str) -> None:
        for st in self.stats.values():
            st.mode = mode

    def state_hash(self) -> str:
        return state_hash(self.params)

    # -- training pass (plain arrays, one explicit backward per layer)

    def train_forward(self, gates: Sequence[GateVector], x: np.ndarray) -> TrainRecord:
        """Train-mode forward that records what ``train_backward`` needs.

        Gives the tape forward's logits bit for bit and folds the same batch
        moments into the selected branches' statistics.  A layer's branches
        share its input and output width, so their second affines are written
        into one (n, B, W) stack that is normalized in one call; the matmuls
        stay per branch, which keeps BLAS's summation order.
        """
        p = self.params
        x = np.asarray(x, dtype=np.float64)
        h = affine_array(x, p["stem.w"], p["stem.b"])
        layers = []
        for li, gate in enumerate(gates):
            layers.append(self._layer_train_forward(li, sorted(gate.selected), h))
            h = layers[-1].out
        logits = affine_array(h, p["head.w"], p["head.b"])
        return TrainRecord(x, layers, h, logits)

    def _layer_train_forward(self, li: int, slots: list[int], x: np.ndarray) -> LayerTrace:
        if not slots:
            return LayerTrace(x, slots, [], None, None, None, self.layer_mix(li, x, []))
        p = self.params
        hidden = [self._hidden(li, slot, x) for slot in slots]
        ys = affine_stack(
            hidden,
            [p[f"L{li}.S{slot}.w2"] for slot in slots],
            [p[f"L{li}.S{slot}.b2"] for slot in slots],
        )
        out, centered, inv = normalize_train_stack(ys, [self.stats[(li, s)] for s in slots])
        return LayerTrace(x, slots, hidden, centered, inv, out, self.layer_mix(li, x, list(out)))

    def train_backward(
        self, record: TrainRecord, dlogits: np.ndarray, param_grads: bool = True
    ) -> tuple[dict[str, np.ndarray], list[np.ndarray]]:
        """Backward of ``record`` from d(loss)/d(logits).

        Returns the gradients of the parameters the forward touched, by name
        (none without ``param_grads``), and the gradient of every layer's
        output.  The float operations follow the autodiff tape's order, so
        the results equal the tape forward plus ``Tensor.backward`` bit for
        bit.
        """
        p = self.params
        grads: dict[str, np.ndarray] = {}
        if param_grads:
            grads["head.w"] = record.features.T @ dlogits
            grads["head.b"] = dlogits.sum(axis=0)
        g = dlogits @ p["head.w"].T
        out_grads = []
        for li in reversed(range(len(record.layers))):
            out_grads.append(g)
            # layer 0's input gradient feeds only the stem's weights
            need_input = param_grads or li > 0
            g = self._layer_backward(
                li, record.layers[li], g, grads if param_grads else None, need_input
            )
        if param_grads:
            grads["stem.w"] = record.x.T @ g
            grads["stem.b"] = g.sum(axis=0)
        return grads, out_grads[::-1]

    def _layer_backward(
        self,
        li: int,
        trace: LayerTrace,
        g: np.ndarray,
        grads: dict[str, np.ndarray] | None,
        need_input: bool,
    ) -> np.ndarray | None:
        """Gradient of the layer input given ``g`` at its output; branch
        parameter gradients go into ``grads`` unless it is None.

        The tape's order: the identity part's ``g * alpha`` comes first, then
        each branch's ``da @ w1.T`` in sorted-slot order as a left fold; a
        one-part layer has no scale.
        """
        if not trace.slots:
            return g
        normal = self.roles[li] == NORMAL
        parts = len(trace.slots) + normal
        if parts > 1:
            g = g * (1.0 / parts)
        dy = normalize_train_grad(g, trace.centered, trace.inv)
        if grads is not None:
            db2 = dy.sum(axis=1)
        dx = g if normal else None
        p = self.params
        for k, slot in enumerate(trace.slots):
            kind, _ = self.kinds[(li, slot)]
            prefix = f"L{li}.S{slot}"
            r = trace.hidden[k]
            da = _ACT_GRADS[kind.rsplit("_", 1)[1]](dy[k] @ p[f"{prefix}.w2"].T, r)
            if grads is not None:
                grads[f"{prefix}.w1"] = trace.x.T @ da
                grads[f"{prefix}.b1"] = da.sum(axis=0)
                grads[f"{prefix}.w2"] = r.T @ dy[k]
                grads[f"{prefix}.b2"] = db2[k]
            if need_input:
                dx_k = da @ p[f"{prefix}.w1"].T
                dx = dx_k if dx is None else dx + dx_k
        return dx

    def _layer_parts(self, layer_index: int, x, branches: list) -> list:
        """What a layer averages: its branches, plus the identity on normal layers."""
        if self.roles[layer_index] == NORMAL:
            return [x] + branches
        if not branches:
            raise SpaceError(
                f"reduction layer {layer_index} forwarded with no gates (zero divisor)"
            )
        return branches

    # -- no-grad machinery (plain arrays, for inference)

    def _hidden(self, layer_index: int, slot: int, x: np.ndarray) -> np.ndarray:
        """A branch's first affine and activation, on a batch or a stack; the
        activation overwrites the fresh affine output."""
        kind, _ = self.kinds[(layer_index, slot)]
        prefix = f"L{layer_index}.S{slot}"
        h = affine_array(x, self.params[f"{prefix}.w1"], self.params[f"{prefix}.b1"])
        return _ARRAY_ACTS[kind.rsplit("_", 1)[1]](h, out=h)

    def branch_affines(self, layer_index: int, slot: int, x: np.ndarray) -> np.ndarray:
        """A branch's output before its normalization."""
        prefix = f"L{layer_index}.S{slot}"
        p = self.params
        h = self._hidden(layer_index, slot, x)
        return affine_array(h, p[f"{prefix}.w2"], p[f"{prefix}.b2"])

    def branch_output(
        self, layer_index: int, slot: int, x: np.ndarray, stats: NormStats | None
    ) -> np.ndarray:
        """A branch's output on a batch or a stack, normalized as
        ``normalize_array`` does with ``stats``."""
        return normalize_array(self.branch_affines(layer_index, slot, x), stats)

    def layer_mix(
        self, layer_index: int, x: np.ndarray, branches: list[np.ndarray]
    ) -> np.ndarray:
        """A layer's average of precomputed branch outputs."""
        parts = self._layer_parts(layer_index, x, branches)
        if len(parts) == 1:
            return parts[0]
        return average_arrays(parts)

    def layer_output_nograd(
        self,
        layer_index: int,
        gate: GateVector,
        x_data: np.ndarray,
        known: Mapping[int, np.ndarray] | None = None,
    ) -> np.ndarray:
        """A configuration's train-mode layer output on a fixed layer input,
        without touching running statistics: each branch normalizes with its
        batch's own moments, as in train mode, and folds them nowhere.

        ``known`` maps slots to branch outputs already computed on this input
        in train mode.  A train-mode branch output depends only on its input
        and weights, so those are mixed in as they are.
        """
        x = np.asarray(x_data, dtype=np.float64)
        known = known or {}
        branches = [
            known[slot] if slot in known else self.branch_output(layer_index, slot, x, None)
            for slot in sorted(gate.selected)
        ]
        return self.layer_mix(layer_index, x, branches)


# ---------------------------------------------------------------------------
# Training and evaluation


def train_step(
    weights: SharedWeights,
    sampler: GateSampler,
    batch: tuple[np.ndarray, np.ndarray],
    rng: np.random.Generator,
    optimizer: SGD,
) -> float:
    """One architecture drawn by ``sampler``, one gradient step on its branches.

    Training passes ``GateSampler.uniform`` of the current subset.
    """
    # ``selection``, not ``decode``: each drawn architecture trains once, so
    # its gate vectors are not worth keeping in the sampler
    row = sampler.draw(rng, 1)[0].tolist()
    arch = Architecture(tuple(sampler.selection(li, m) for li, m in enumerate(row)))
    return train_step_fixed(weights, arch, batch, optimizer)


def train_step_fixed(
    weights: SharedWeights,
    arch: Architecture,
    batch: tuple[np.ndarray, np.ndarray],
    optimizer: SGD,
) -> float:
    x, y = batch
    weights.set_mode("train")
    record = weights.train_forward(arch.gate_vectors, x)
    loss, dlogits = softmax_cross_entropy_array(record.logits, y)
    grads, _ = weights.train_backward(record, dlogits)
    optimizer.step(weights.params, grads)
    return loss


def make_recal_batches(
    dataset: ToyDataset, count: int, batch_size: int, rng: np.random.Generator
) -> list[np.ndarray]:
    total = count * batch_size
    replace = total > len(dataset.x_train)
    idx = rng.choice(len(dataset.x_train), size=total, replace=replace)
    return [
        dataset.x_train[idx[i * batch_size : (i + 1) * batch_size]]
        for i in range(count)
    ]


class InferenceCache:
    """Architecture-independent evaluation work for one set of trained weights.

    Holds the stem outputs of the recalibration batches, as one (R, B, W)
    stack, and of the validation batches, and, filled the first time an
    architecture selects a layer-0 slot, that branch's recalibrated outputs
    on both.  Layer 0 reads the stem output and a branch's recalibrated
    statistics depend only on its own input, so these are the same for every
    architecture.  Deeper layers are computed per architecture.  The cache is
    valid only while the weights do not change: build it after training.
    """

    def __init__(
        self,
        weights: SharedWeights,
        dataset: ToyDataset,
        recal_batches: Sequence[np.ndarray],
        batch_size: int = 256,
    ):
        self.weights = weights
        w, b = weights.params["stem.w"], weights.params["stem.b"]

        def stem(x: np.ndarray) -> np.ndarray:
            return affine_array(np.asarray(x, dtype=np.float64), w, b)

        sizes = sorted({len(xb) for xb in recal_batches})
        if len(sizes) > 1:
            raise ValueError(
                f"recalibration batches must all have one size to be stacked, got sizes {sizes}"
            )
        self.val_size = len(dataset.x_val)
        starts = range(0, self.val_size, batch_size)
        self.recal = stem(np.stack(recal_batches)) if sizes else None
        self.val = [stem(dataset.x_val[s : s + batch_size]) for s in starts]
        self.labels = [dataset.y_val[s : s + batch_size] for s in starts]
        self._layer0: dict[int, tuple[np.ndarray | None, list[np.ndarray]]] = {}

    def _branch(
        self, layer_index: int, slot: int, recal: np.ndarray, val: list[np.ndarray], last: bool
    ) -> tuple[np.ndarray | None, list[np.ndarray]]:
        """One branch on every batch: recalibrate a private copy of its
        statistics on the recal stack in one pass, then apply them to the val
        inputs.  The last layer's recal outputs feed nothing, so there only
        the sums are folded and the outputs are not formed."""
        stats = self.weights.stats[(layer_index, slot)].copy()
        stats.begin_recalibration()
        if last:
            stats.accumulate(self.weights.branch_affines(layer_index, slot, recal))
            recal_out = None
        else:
            recal_out = self.weights.branch_output(layer_index, slot, recal, stats)
        stats.finish_recalibration()
        val_out = [self.weights.branch_output(layer_index, slot, x, stats) for x in val]
        return recal_out, val_out

    def val_logits(self, architecture: Architecture) -> list[np.ndarray]:
        """Logits of every validation batch, with the selected branches'
        statistics recalibrated first."""
        gates = architecture.gate_vectors
        if self.recal is None and any(gv.selected for gv in gates):
            raise ValueError("recalibration requires at least one batch")
        recal, val = self.recal, self.val
        for li, gate in enumerate(gates):
            last = li == len(gates) - 1
            outs = []
            for slot in sorted(gate.selected):
                if li == 0:
                    if slot not in self._layer0:
                        self._layer0[slot] = self._branch(0, slot, recal, val, last)
                    outs.append(self._layer0[slot])
                else:
                    outs.append(self._branch(li, slot, recal, val, last))
            if not last:
                recal = self.weights.layer_mix(li, recal, [r for r, _ in outs])
            val = [
                self.weights.layer_mix(li, x, [v[i] for _, v in outs])
                for i, x in enumerate(val)
            ]
        w, b = self.weights.params["head.w"], self.weights.params["head.b"]
        return [affine_array(h, w, b) for h in val]

    def accuracy(self, architecture: Architecture) -> float:
        correct = 0
        for logits, y in zip(self.val_logits(architecture), self.labels):
            correct += int(np.sum(np.argmax(logits, axis=1) == y))
        return correct / self.val_size


def evaluate(
    weights: SharedWeights,
    architecture: Architecture,
    dataset: ToyDataset,
    recal_batches: Sequence[np.ndarray],
    batch_size: int = 256,
    cache: InferenceCache | None = None,
) -> float:
    """Top-1 validation accuracy with recalibrated normalization statistics.

    Statistics are recalibrated on private copies, so repeated evaluations
    leave the shared weights bit-identical.  ``cache``, when given, must have
    been built from these same arguments; without one a fresh cache serves
    this single call.
    """
    if cache is None:
        cache = InferenceCache(weights, dataset, recal_batches, batch_size)
    elif cache.weights is not weights:
        raise ValueError("the inference cache was built for other weights")
    return cache.accuracy(architecture)
