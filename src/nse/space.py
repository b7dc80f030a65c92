"""Operation pools, per-round search subsets, and multi-branch architectures.

The full pool is a layered collection of candidate operations.  Each round
works on a bounded subset of at most ``capacity`` active operations per
layer; an architecture is a binary gate selection over the active entries of
every layer.  Normal layers carry a structural identity path that is always
on and never part of the pool, so their gate selection may be empty.
Reduction layers have no identity and must keep at least one gate set.

A traversal ledger records every (layer, slot) that ever entered a subset so
replenishment never samples the same operation twice.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .rng import make_rng

NORMAL = "normal"
REDUCTION = "reduction"
ORIGIN_FRESH = "fresh"
ORIGIN_INHERITED = "inherited"

# A reduction layer redrawn this many times without a nonzero gate vector is
# a defect, not bad luck (each redraw fails with probability 2^-n_active).
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
class GateVector:
    """Selected slot indices of one layer (the set bits of the gate mask).

    ``selected`` is normalized to the ascending tuple of distinct slots,
    whatever iterable it is built from, so equal selections are equal gate
    vectors and every reader walks a layer's slots in one order.
    """

    layer_index: int
    selected: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "selected", tuple(sorted(set(self.selected))))


@dataclass(frozen=True)
class Architecture:
    gate_vectors: tuple[GateVector, ...]

    @property
    def num_layers(self) -> int:
        return len(self.gate_vectors)

    def selected(self, layer_index: int) -> tuple[int, ...]:
        return self.gate_vectors[layer_index].selected

    def encoding(self) -> tuple[tuple[int, ...], ...]:
        """Canonical hashable form: sorted slot tuples per layer."""
        return tuple(gv.selected for gv in self.gate_vectors)

    def compact_id(self) -> str:
        return ";".join("+".join(str(s) for s in layer) for layer in self.encoding())

    @staticmethod
    def from_encoding(encoding: Sequence[Sequence[int]]) -> "Architecture":
        return Architecture(
            tuple(
                GateVector(li, tuple(int(s) for s in slots))
                for li, slots in enumerate(encoding)
            )
        )


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
    for li, gv in enumerate(arch.gate_vectors):
        active = set(subset.active_slots(li))
        if not active.issuperset(gv.selected):
            raise SpaceError(f"gates reference inactive slots in layer {li}")
        if subset.roles[li] == REDUCTION and not gv.selected:
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
    probability ``probs[l][j]``.  A reduction layer that comes out all-zero
    is redrawn, up to MAX_REDRAWS times per draw.

    The generator is read exactly as one draw at a time, layer by layer,
    would read it: one double per active slot in layer order, plus one more
    chunk per redraw.  Every draw reads at least ``width`` doubles, so
    ``draw`` fetches ``width`` per draw still owed in one call and more only
    once that buffer is used up: it never reads ahead, and its rows and the
    generator state after it equal ``n`` one-row calls.

    A redraw shifts every later row in the buffer by its extra doubles.  So
    several rows are drawn by first marking, per fetched buffer, the offsets
    at which a reduction layer's chunk selects nothing.  Those marks give
    the next row that redraws, and the redraws of that row, without
    computing any mask; every row's masks then come from one indexed
    compare and pack over the buffer.
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
        self._bounds = list(itertools.accumulate(map(len, self.slots), initial=0))
        self.width = self._bounds[-1]
        self._gates: list[dict[int, GateVector]] = [{} for _ in self.slots]

    @staticmethod
    def uniform(subset: SubsetState) -> "GateSampler":
        """Each active operation gated with probability 1/2."""
        slots = [subset.active_slots(li) for li in range(subset.num_layers)]
        return GateSampler(slots, subset.roles, [[0.5] * len(s) for s in slots])

    @functools.cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
        """Per-column probabilities, the bit-packing matrix, the layer of each
        column, and ``(layer, first column, width)`` per reduction layer."""
        probs = np.array([x for p in self._probs for x in p])
        # column l packs layer l's gate bits into its mask
        pack = np.zeros((self.width, len(self.slots)), dtype=np.int64)
        columns = np.zeros(self.width, dtype=np.intp)
        for li, lo in enumerate(self._bounds[:-1]):
            bits = np.arange(self._bounds[li + 1] - lo, dtype=np.int64)
            pack[lo : lo + bits.size, li] = 1 << bits
            columns[lo : lo + bits.size] = li
        reductions = [
            (li, self._bounds[li], len(self.slots[li]))
            for li, role in enumerate(self.roles)
            if role == REDUCTION
        ]
        return probs, pack, columns, reductions

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """``n`` draws as an ``(n, num_layers)`` array of layer masks."""
        if n == 1:  # a lone row is cheaper to resolve in Python
            row, _ = self._finish_row(rng, rng.random(self.width))
            return np.array([row], dtype=np.int64)
        out = np.zeros((n, len(self.slots)), dtype=np.int64)
        if not self.width:  # every layer is empty: nothing to read
            return out
        buf = np.empty(0)  # doubles read from rng and not yet used
        row = 0
        while row < n:
            # the buffer holds less than one row here, and every row still
            # owed reads at least ``width`` doubles
            buf = np.concatenate((buf, rng.random((n - row) * self.width - buf.size)))
            row, buf = self._fill(rng, buf, out, row)
        return out

    def _fill(
        self, rng: np.random.Generator, buf: np.ndarray, out: np.ndarray, row: int
    ) -> tuple[int, np.ndarray]:
        """Draw rows ``row, row + 1, ...`` of ``out`` from ``buf``.

        Stops when ``out`` is full or ``buf`` cannot hold the next row; a row
        whose redraws run past the end of ``buf`` is finished by
        ``_finish_row``, which reads on from ``rng``.  Returns the next row to
        draw and the unused rest of ``buf``.
        """
        probs, pack, columns, reductions = self._arrays
        width, size, n = self.width, buf.size, len(out)
        # per reduction layer, whether a chunk of it starting at each offset
        # of ``buf`` would select nothing
        marks = {}
        for li, lo, w in reductions:
            starts = max(0, size - w + 1)
            mark = marks[li] = buf[:starts] >= probs[lo]
            for j in range(1, w):
                mark &= buf[j : j + starts] >= probs[lo + j]
        tables: dict[int, list[int]] = {}

        def table(r: int) -> list[int]:
            """For the whole rows of ``buf`` that start at ``r + k * width``,
            the sorted ``k`` whose row has an empty reduction chunk."""
            if r not in tables:
                whole = (size - r) // width
                failing = np.zeros(whole, dtype=bool)
                for li, lo, _ in reductions:
                    failing |= marks[li][r + lo :: width][:whole]
                tables[r] = np.flatnonzero(failing).tolist()
            return tables[r]

        def shifts(pos: int) -> list[int] | None:
            """How many doubles later than in a row without redraws each
            layer's chunk starts in the row at ``pos``, or None if the row
            runs past the end of ``buf``."""
            late = [0] * len(self.slots)
            for li, lo, w in reductions:
                c = pos + lo + late[li]
                for _ in range(MAX_REDRAWS):
                    # the chunk at ``c`` is layer ``li``'s in a row at ``c - lo``
                    if c - lo + width > size:  # that row is not whole, so this one is not
                        return None
                    if not marks[li][c]:
                        break
                    c += w
                else:
                    raise RuntimeError(f"redraw cap exceeded in layer {li}")
                late[li:] = [c - pos - lo] * (len(late) - li)
            # the row ends where the whole row at the last ``c - lo`` does
            return late

        first, pos, fixes, crossed = row, 0, [], False
        while row < n and pos + width <= size:
            failing = table(pos % width)
            k = pos // width
            i = bisect.bisect_left(failing, k)
            stop = failing[i] if i < len(failing) else (size - pos % width) // width
            done = min(stop - k, n - row)
            row += done
            pos += done * width
            if row == n or i == len(failing):
                break
            late = shifts(pos)
            if late is None:
                crossed = True
                break
            fixes.append((row - first, late))
            row += 1
            pos += width + late[-1]

        rows = row - first
        if fixes:
            at = np.array([i for i, _ in fixes])
            extra = np.array([s for _, s in fixes])[:, columns]
            # rows after a redrawing row start its extra doubles later
            step = np.zeros(rows + 1, dtype=np.intp)
            step[at + 1] = extra[:, -1]
            starts = np.arange(0, rows * width, width) + np.cumsum(step[:rows])
            bits = sliding_window_view(buf, width)[starts] < probs
            # and a redrawing row reads its later layers further on
            bits[at] = buf[starts[at, None] + np.arange(width) + extra] < probs
        else:  # the rows lie back to back
            bits = buf[: rows * width].reshape(rows, width) < probs
        out[first:row] = bits @ pack
        if crossed:
            out[row], rest = self._finish_row(rng, buf[pos:])
            return row + 1, rest
        return row, buf[pos:]

    def _finish_row(self, rng: np.random.Generator, buf: np.ndarray) -> tuple[list[int], np.ndarray]:
        """One draw, layer by layer, from the doubles of ``buf`` and then
        ``rng``.  Returns the row and the unused rest of ``buf``."""
        row = []
        for li in range(len(self.slots)):
            mask, buf = self._layer_mask(rng, buf, li)
            row.append(mask)
        return row, buf

    def _layer_mask(
        self, rng: np.random.Generator, buf: np.ndarray, li: int
    ) -> tuple[int, np.ndarray]:
        """Layer ``li``'s mask from ``buf`` and then ``rng``: one double per
        slot per attempt, redrawing an empty reduction chunk.  Returns the
        mask and the unused rest of ``buf``."""
        probs, role = self._probs[li], self.roles[li]
        for _ in range(MAX_REDRAWS):
            if buf.size < len(probs):
                buf = np.concatenate((buf, rng.random(len(probs) - buf.size)))
            chunk = buf[: len(probs)].tolist()
            buf = buf[len(probs) :]
            mask = sum(1 << j for j, (u, p) in enumerate(zip(chunk, probs)) if u < p)
            if mask or role == NORMAL:
                return mask, buf
        raise RuntimeError(f"redraw cap exceeded in layer {li}")

    def draw_mask(self, rng: np.random.Generator, layer_index: int) -> int:
        """One draw of layer ``layer_index``'s mask alone, reading from
        ``rng`` only that layer's doubles, as a draw of a sampler whose other
        layers are empty would."""
        mask, _ = self._layer_mask(rng, np.empty(0), layer_index)
        return mask

    def bits(self, row: Sequence[int]) -> np.ndarray:
        """The gate bits of a mask row as one flat bool vector, one column
        per active slot in layer order: bit ``j`` of layer ``l``'s mask is
        column ``j`` of the layer's columns."""
        _, pack, columns, _ = self._arrays
        return (np.asarray(row, dtype=np.int64)[columns] & pack.sum(axis=1)) != 0

    def selection(self, layer_index: int, mask: int) -> GateVector:
        """The gate vector of the slots a layer mask selects."""
        slots = self.slots[layer_index]
        return GateVector(layer_index, tuple(s for j, s in enumerate(slots) if mask >> j & 1))

    def gate(self, layer_index: int, mask: int) -> GateVector:
        """``selection``, kept and shared by every decoded row that uses it."""
        gates = self._gates[layer_index]
        gate = gates.get(mask)
        if gate is None:
            gate = gates[mask] = self.selection(layer_index, mask)
        return gate

    def decode(self, row: Sequence[int]) -> Architecture:
        return Architecture(tuple(self.gate(li, int(m)) for li, m in enumerate(row)))

    def row(self, architecture: Architecture) -> tuple[int, ...] | None:
        """The mask row that ``decode`` turns into ``architecture``, or None
        if the architecture gates a slot or layer this sampler does not."""
        if architecture.num_layers != len(self.slots):
            return None
        row = []
        for slots, gate in zip(self.slots, architecture.gate_vectors):
            mask = sum(1 << j for j, s in enumerate(slots) if s in gate.selected)
            if mask.bit_count() != len(gate.selected):
                return None
            row.append(mask)
        return tuple(row)


def sample_uniform_architecture(
    subset: SubsetState, rng: np.random.Generator
) -> Architecture:
    """Gate each active operation with probability 1/2.

    Reduction layers reject all-zero draws and redraw, which leaves the
    distribution uniform over their nonzero gate vectors.
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
        unions.append(frozenset().union(*(arch.selected(li) for arch in architectures)))
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
