"""Operation pools, per-round search subsets, and multi-branch architectures.

The full pool is a layered collection of candidate operations.  Each round
works on a bounded subset of at most ``capacity`` active operations per
layer; an architecture is one ascending tuple of selected active slots per
layer.  Normal layers carry a structural identity path that is always on and
never part of the pool, so their selection may be empty.  Reduction layers
have no identity and must select at least one slot.

A traversal ledger records every (layer, slot) that ever entered a subset so
replenishment never samples the same operation twice.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .rng import make_rng

NORMAL = "normal"
REDUCTION = "reduction"
ORIGIN_FRESH = "fresh"
ORIGIN_INHERITED = "inherited"

# A draw dropped this many times in a row for an empty reduction layer is
# a defect, not bad luck (a uniform layer is empty with probability 2^-n_active).
MAX_REDRAWS = 10_000

MAX_LAYER_SLOTS = 63  # active slots per layer: a layer's gates are one int64 mask


def sigmoid(x: float) -> float:
    """Numerically stable sigmoid, strictly inside (0, 1).

    The package's one sigmoid: an indicator's selection probability, and
    the oracle's map from scores to accuracies.
    """
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


class SpaceError(ValueError):
    pass


class SpaceExhaustedError(SpaceError):
    """A layer has no untraversed operations left to sample from."""


@dataclass
class OperationDescriptor:
    """One candidate operation at a fixed (layer, slot) position."""

    layer_index: int
    slot_index: int
    kind: str
    params: dict[str, float] = field(default_factory=dict)
    trainable: bool = True

    def __post_init__(self) -> None:
        for name, value in self.params.items():
            if not math.isfinite(value):
                raise SpaceError(f"non-finite param {name!r} on op {self.key}")

    @property
    def key(self) -> tuple[int, int]:
        return (self.layer_index, self.slot_index)


@dataclass
class LayerSpec:
    layer_index: int
    role: str
    pool: list[OperationDescriptor]

    def __post_init__(self) -> None:
        if self.role not in (NORMAL, REDUCTION):
            raise SpaceError(f"unknown layer role {self.role!r}")
        if not self.pool:
            raise SpaceError(f"layer {self.layer_index} declares no operations")
        slots = [op.slot_index for op in self.pool]
        if len(set(slots)) != len(slots):
            raise SpaceError(f"duplicate slot indices in layer {self.layer_index}")

    @property
    def size(self) -> int:
        return len(self.pool)


@dataclass
class SearchSpacePool:
    layers: list[LayerSpec]

    def __post_init__(self) -> None:
        if not self.layers:
            raise SpaceError("pool needs at least one layer")
        for i, layer in enumerate(self.layers):
            if layer.layer_index != i:
                raise SpaceError("layer_index must match position in pool")

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def roles(self) -> tuple[str, ...]:
        return tuple(layer.role for layer in self.layers)

    def descriptor(self, layer_index: int, slot_index: int) -> OperationDescriptor:
        for op in self.layers[layer_index].pool:
            if op.slot_index == slot_index:
                return op
        raise SpaceError(f"no slot {slot_index} in layer {layer_index}")


@dataclass
class SubsetEntry:
    descriptor: OperationDescriptor
    origin: str
    active: bool = True


@dataclass
class SubsetState:
    """The K-per-layer working space of one round.

    Entries are deactivated (never removed) when pruned, so the round keeps a
    record of what it started from.  ``shortage`` is set by replenishment when
    some layer could not be refilled to capacity.
    """

    layers: list[list[SubsetEntry]]
    roles: tuple[str, ...]
    capacity: int
    shortage: bool = False

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def active_entries(self, layer_index: int) -> list[SubsetEntry]:
        return [e for e in self.layers[layer_index] if e.active]

    def active_slots(self, layer_index: int) -> list[int]:
        return sorted(e.descriptor.slot_index for e in self.active_entries(layer_index))

    def entry(self, layer_index: int, slot_index: int) -> SubsetEntry:
        for e in self.layers[layer_index]:
            if e.descriptor.slot_index == slot_index:
                return e
        raise SpaceError(f"slot {slot_index} not in subset layer {layer_index}")

    def deactivate(self, layer_index: int, slot_index: int) -> None:
        self.entry(layer_index, slot_index).active = False

    def validate(self) -> None:
        if len(self.roles) != len(self.layers):
            raise SpaceError("roles/layers length mismatch")
        for li, entries in enumerate(self.layers):
            active = [e for e in entries if e.active]
            if len(active) > self.capacity:
                raise SpaceError(f"layer {li} exceeds capacity {self.capacity}")
            if self.roles[li] == REDUCTION and not active:
                raise SpaceError(f"reduction layer {li} has no active entries")
            slots = [e.descriptor.slot_index for e in entries]
            if len(set(slots)) != len(slots):
                raise SpaceError(f"duplicate subset entries in layer {li}")


@dataclass(frozen=True)
class Architecture:
    """The selected slots of every layer, one tuple per layer.

    Each layer is normalized to the ascending tuple of distinct slots,
    whatever iterable it is built from, so equal selections are equal
    architectures and every reader walks a layer's slots in one order.
    """

    layers: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        layers = tuple(tuple(sorted({int(s) for s in layer})) for layer in self.layers)
        object.__setattr__(self, "layers", layers)

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def compact_id(self) -> str:
        return ";".join("+".join(str(s) for s in layer) for layer in self.layers)

    @staticmethod
    def from_encoding(encoding: Sequence[Iterable[int]]) -> "Architecture":
        return Architecture(encoding)


@dataclass
class TraversalLedger:
    """Monotone record of every (layer, slot) that ever entered a subset."""

    seen: set[tuple[int, int]] = field(default_factory=set)

    def __contains__(self, key: tuple[int, int]) -> bool:
        return key in self.seen

    def record(self, keys: Iterable[tuple[int, int]]) -> None:
        self.seen.update(keys)

    def untraversed(self, layer: LayerSpec) -> list[OperationDescriptor]:
        return [op for op in layer.pool if op.key not in self.seen]


def validate_architecture(arch: Architecture, subset: SubsetState) -> None:
    if arch.num_layers != subset.num_layers:
        raise SpaceError("architecture/subset layer count mismatch")
    for li, selected in enumerate(arch.layers):
        active = set(subset.active_slots(li))
        if not active.issuperset(selected):
            raise SpaceError(f"gates reference inactive slots in layer {li}")
        if subset.roles[li] == REDUCTION and not selected:
            raise SpaceError(f"reduction layer {li} has no gate set")


# ---------------------------------------------------------------------------
# Pool construction


@dataclass
class DeclaredOp:
    kind: str
    params: dict[str, float] = field(default_factory=dict)
    trainable: bool = True


@dataclass
class DeclaredLayer:
    role: str
    ops: list[DeclaredOp]


def shuffle_pool(declared_layers: Sequence[DeclaredLayer], seed: int) -> SearchSpacePool:
    """Build the pool with an independent deterministic shuffle per layer.

    Slot indices are assigned after shuffling, so a slot permanently names a
    position in the shuffled order.
    """
    layers = []
    for li, decl in enumerate(declared_layers):
        if not decl.ops:
            raise SpaceError(f"layer {li} declares no operations")
        rng = make_rng(seed, "shuffle", li)
        order = rng.permutation(len(decl.ops))
        pool = [
            OperationDescriptor(
                layer_index=li,
                slot_index=slot,
                kind=decl.ops[src].kind,
                params=dict(decl.ops[src].params),
                trainable=decl.ops[src].trainable,
            )
            for slot, src in enumerate(order)
        ]
        layers.append(LayerSpec(layer_index=li, role=decl.role, pool=pool))
    return SearchSpacePool(layers=layers)


# ---------------------------------------------------------------------------
# Subset lifecycle


def _draw_fresh(
    layer: LayerSpec, ledger: TraversalLedger, count: int, rng: np.random.Generator
) -> list[SubsetEntry]:
    """Up to ``count`` of ``layer``'s untraversed operations, drawn by ``rng``
    without replacement, in slot order and recorded in ``ledger``."""
    candidates = ledger.untraversed(layer)
    picked = rng.choice(len(candidates), size=min(count, len(candidates)), replace=False)
    chosen = sorted((candidates[i] for i in picked), key=lambda op: op.slot_index)
    ledger.record(op.key for op in chosen)
    return [SubsetEntry(op, ORIGIN_FRESH) for op in chosen]


def init_subset(
    pool: SearchSpacePool, capacity: int, seed: int, ledger: TraversalLedger
) -> SubsetState:
    """Sample the first-round subset: fresh untraversed operations only."""
    if capacity < 1:
        raise SpaceError("capacity must be >= 1")
    layers = []
    for layer in pool.layers:
        fresh = _draw_fresh(layer, ledger, capacity, make_rng(seed, "init", layer.layer_index))
        if not fresh:
            raise SpaceExhaustedError(f"layer {layer.layer_index} fully traversed")
        layers.append(fresh)
    state = SubsetState(layers=layers, roles=pool.roles, capacity=capacity)
    state.validate()
    return state


def replenish(
    aggregated_union: Sequence[frozenset[int]],
    pool: SearchSpacePool,
    ledger: TraversalLedger,
    capacity: int,
    seed: int,
) -> SubsetState:
    """Build the next round's subset: inherited union plus fresh refill.

    Fresh operations are drawn without replacement from the untraversed part
    of each layer's pool until the layer is back to capacity or the pool runs
    out, in which case the shortage flag is raised.
    """
    if len(aggregated_union) != pool.num_layers:
        raise SpaceError("aggregated union/pool layer count mismatch")
    layers = []
    shortage = False
    for layer in pool.layers:
        union = aggregated_union[layer.layer_index]
        inherited = [
            SubsetEntry(pool.descriptor(layer.layer_index, slot), ORIGIN_INHERITED)
            for slot in sorted(union)
        ]
        need = capacity - len(inherited)
        fresh: list[SubsetEntry] = []
        if need > 0:
            rng = make_rng(seed, "replenish", layer.layer_index)
            fresh = _draw_fresh(layer, ledger, need, rng)
            shortage = shortage or len(fresh) < need
        if not inherited and not fresh:
            raise SpaceExhaustedError(
                f"layer {layer.layer_index} has nothing to inherit and nothing fresh"
            )
        layers.append(inherited + fresh)
    state = SubsetState(
        layers=layers, roles=pool.roles, capacity=capacity, shortage=shortage
    )
    state.validate()
    return state


def full_subset(pool: SearchSpacePool) -> SubsetState:
    """The whole pool viewed as one subset (used for whole-space sampling)."""
    layers = [
        [SubsetEntry(op, ORIGIN_FRESH) for op in layer.pool] for layer in pool.layers
    ]
    capacity = max(layer.size for layer in pool.layers)
    return SubsetState(layers=layers, roles=pool.roles, capacity=capacity)


# ---------------------------------------------------------------------------
# Sampling and combinatorics


class GateSampler:
    """Draws architectures as rows of per-layer gate bitmasks.

    Layer ``l`` gates its sorted active slots ``slots[l]``: bit ``j`` of the
    layer's mask selects ``slots[l][j]`` and is set independently with
    probability ``probs[l][j]``.  A draw reads ``width`` doubles, one per
    active slot in layer order.  A draw in which some reduction layer
    selects nothing is dropped and the whole row drawn again, up to
    MAX_REDRAWS times in a row.  Layers are independent, so conditioning the
    whole row on every reduction layer being non-empty gives the same law as
    conditioning each reduction layer on its own.  A kept row costs
    ``1 / prod P(reduction layer l is non-empty)`` draws on average.

    ``draw`` reads ``width`` doubles per row still owed in one call, keeps
    the rows that pass and reads again only for the rest: it never reads
    ahead, and its rows and the generator state after it equal ``n``
    one-row calls.
    """

    def __init__(
        self,
        slots: Sequence[Sequence[int]],
        roles: Sequence[str],
        probs: Sequence[Sequence[float]],
    ):
        if not len(slots) == len(roles) == len(probs):
            raise SpaceError("slots/roles/probs layer count mismatch")
        self.slots = tuple(tuple(layer) for layer in slots)
        self.roles = tuple(roles)
        self._probs = [[float(x) for x in p] for p in probs]
        for li, (layer, role, p) in enumerate(zip(self.slots, self.roles, self._probs)):
            if role == REDUCTION and not layer:
                raise SpaceError(f"reduction layer {li} has no active entries")
            if list(layer) != sorted(set(layer)):
                raise SpaceError(f"layer {li} slots must be distinct and ascending")
            if len(p) != len(layer):
                raise SpaceError(f"layer {li} needs one probability per slot")
            if len(layer) > MAX_LAYER_SLOTS:
                raise SpaceError(f"layer {li} has more than {MAX_LAYER_SLOTS} active slots")
        self.width = sum(map(len, self.slots))

    @staticmethod
    def uniform(subset: SubsetState) -> "GateSampler":
        """Each active operation gated with probability 1/2."""
        slots = [subset.active_slots(li) for li in range(subset.num_layers)]
        return GateSampler(slots, subset.roles, [[0.5] * len(s) for s in slots])

    @functools.cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-column probabilities, the bit-packing matrix, the layer of each
        column, and the reduction layers."""
        probs = np.array([x for p in self._probs for x in p])
        columns = np.repeat(np.arange(len(self.slots)), [len(s) for s in self.slots])
        # column l packs layer l's gate bits into its mask
        pack = np.zeros((self.width, len(self.slots)), dtype=np.int64)
        pack[np.arange(self.width), columns] = [1 << j for s in self.slots for j in range(len(s))]
        reductions = np.array(
            [li for li, role in enumerate(self.roles) if role == REDUCTION], dtype=np.intp
        )
        return probs, pack, columns, reductions

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """``n`` draws as an ``(n, num_layers)`` array of layer masks."""
        probs, pack, _, reductions = self._arrays
        out = np.empty((n, len(self.slots)), dtype=np.int64)
        row = run = 0  # rows kept, and draws dropped since the last kept one
        while row < n:
            masks = (rng.random((n - row, self.width)) < probs) @ pack
            empty = masks[:, reductions] == 0
            kept = np.flatnonzero(~empty.any(axis=1))
            # each run of dropped draws: where it starts, and how long it is
            starts = np.concatenate(([-run], kept + 1))
            runs = np.append(kept, len(masks)) - starts
            over = np.flatnonzero(runs >= MAX_REDRAWS)
            if over.size:
                last = starts[over[0]] + MAX_REDRAWS - 1
                raise RuntimeError(
                    f"redraw cap exceeded in layer {reductions[empty[last].argmax()]}"
                )
            out[row : row + kept.size] = masks[kept]
            row, run = row + kept.size, runs[-1]
        return out

    def bits(self, rows: Sequence) -> np.ndarray:
        """The gate bits of a mask row as one flat bool vector, one column
        per active slot in layer order: bit ``j`` of layer ``l``'s mask is
        column ``j`` of the layer's columns.  A block of rows gives one such
        vector per row."""
        _, pack, columns, _ = self._arrays
        return (np.asarray(rows, dtype=np.int64)[..., columns] & pack.sum(axis=1)) != 0

    def selection(self, layer_index: int, mask: int) -> tuple[int, ...]:
        """The ascending slots a layer mask selects."""
        return tuple(s for j, s in enumerate(self.slots[layer_index]) if mask >> j & 1)

    def decode(self, row: Sequence[int]) -> Architecture:
        return Architecture(tuple(self.selection(li, int(m)) for li, m in enumerate(row)))

    def row(self, architecture: Architecture) -> tuple[int, ...] | None:
        """The mask row that ``decode`` turns into ``architecture``, or None
        if the architecture gates a slot or layer this sampler does not."""
        if architecture.num_layers != len(self.slots):
            return None
        row = []
        for slots, selected in zip(self.slots, architecture.layers):
            mask = sum(1 << j for j, s in enumerate(slots) if s in selected)
            if mask.bit_count() != len(selected):
                return None
            row.append(mask)
        return tuple(row)


def sample_uniform_architecture(
    subset: SubsetState, rng: np.random.Generator
) -> Architecture:
    """Gate each active operation with probability 1/2.

    A draw in which some reduction layer selects nothing is drawn again
    whole, which leaves each layer uniform over its allowed selections: any
    subset of a normal layer, any nonempty subset of a reduction layer.
    """
    sampler = GateSampler.uniform(subset)
    return sampler.decode(sampler.draw(rng, 1)[0])


def count_architectures(
    pool_sizes: Sequence[int], capacity: int, roles: Sequence[str]
) -> int:
    """Exact number of distinct architectures reachable with K-bounded layers.

    Per layer this is the number of gate selections of size up to
    min(K, pool): normal layers admit the empty selection (identity only),
    reduction layers do not.
    """
    if len(pool_sizes) != len(roles):
        raise SpaceError("pool_sizes/roles length mismatch")
    total = 1
    for size, role in zip(pool_sizes, roles):
        low = 0 if role == NORMAL else 1
        hi = min(capacity, size)
        total *= sum(math.comb(size, k) for k in range(low, hi + 1))
    return total


def aggregate(
    architectures: Sequence[Architecture], subset: SubsetState
) -> tuple[frozenset[int], ...]:
    """Per-layer union of the selected operations of several architectures."""
    if not architectures:
        raise SpaceError("cannot aggregate an empty set of architectures")
    for arch in architectures:
        validate_architecture(arch, subset)
    unions = []
    for li in range(subset.num_layers):
        unions.append(frozenset().union(*(arch.layers[li] for arch in architectures)))
    return tuple(unions)


# ---------------------------------------------------------------------------
# JSON snapshots


def subset_to_json(subset: SubsetState) -> dict:
    return {
        "capacity": subset.capacity,
        "shortage": subset.shortage,
        "layers": [
            {
                "layer_index": li,
                "role": subset.roles[li],
                "entries": [
                    {
                        "slot": e.descriptor.slot_index,
                        "kind": e.descriptor.kind,
                        "params": e.descriptor.params,
                        "trainable": e.descriptor.trainable,
                        "origin": e.origin,
                        "active": e.active,
                    }
                    for e in entries
                ],
            }
            for li, entries in enumerate(subset.layers)
        ],
    }


def subset_from_json(data: dict) -> SubsetState:
    layers = []
    roles = []
    for entry in data["layers"]:
        li = entry["layer_index"]
        roles.append(entry["role"])
        layers.append(
            [
                SubsetEntry(
                    OperationDescriptor(
                        layer_index=li,
                        slot_index=e["slot"],
                        kind=e["kind"],
                        params=dict(e["params"]),
                        trainable=e.get("trainable", True),
                    ),
                    origin=e["origin"],
                    active=e["active"],
                )
                for e in entry["entries"]
            ]
        )
    return SubsetState(
        layers=layers,
        roles=tuple(roles),
        capacity=data["capacity"],
        shortage=data["shortage"],
    )


def ledger_to_json(ledger: TraversalLedger) -> dict:
    return {"seen": sorted([list(k) for k in ledger.seen])}


def ledger_from_json(data: dict) -> TraversalLedger:
    return TraversalLedger(seen={(int(a), int(b)) for a, b in data["seen"]})
