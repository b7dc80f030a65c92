import itertools
import math

import numpy as np
import pytest

from conftest import reference_draw
from reference import space_sampler
from nse.rng import make_rng
from nse import space
from nse.space import (
    Architecture,
    DeclaredLayer,
    DeclaredOp,
    GateSampler,
    SpaceExhaustedError,
    TraversalLedger,
    aggregate,
    count_architectures,
    full_subset,
    init_subset,
    replenish,
    sample_uniform_architecture,
    shuffle_pool,
    subset_from_json,
    subset_to_json,
    validate_architecture,
)


def declared(roles, ops_per_layer):
    return [
        DeclaredLayer(role=role, ops=[DeclaredOp(kind=f"op{i}") for i in range(n)])
        for role, n in zip(roles, ops_per_layer)
    ]


def test_shuffle_single_op_any_seed_is_identity():
    for seed in (0, 7, 12345):
        pool = shuffle_pool(declared(["normal"], [1]), seed)
        assert pool.layers[0].pool[0].kind == "op0"
        assert pool.layers[0].pool[0].slot_index == 0


def test_shuffle_same_seed_identical_pools():
    decl = declared(["normal", "reduction", "normal"], [27, 27, 27])
    a = shuffle_pool(decl, seed=42)
    b = shuffle_pool(decl, seed=42)
    assert a == b


def test_shuffle_different_seeds_differ():
    decl = declared(["normal"], [27])
    a = shuffle_pool(decl, seed=1)
    b = shuffle_pool(decl, seed=2)
    kinds_a = [op.kind for op in a.layers[0].pool]
    kinds_b = [op.kind for op in b.layers[0].pool]
    assert kinds_a != kinds_b


def test_shuffle_rejects_empty_layer():
    with pytest.raises(space.SpaceError):
        shuffle_pool([DeclaredLayer(role="normal", ops=[])], seed=0)


def test_init_subset_whole_pool_when_k_equals_size():
    pool = shuffle_pool(declared(["normal"], [5]), seed=3)
    for seed in (0, 99):
        subset = init_subset(pool, capacity=5, seed=seed, ledger=TraversalLedger())
        assert subset.active_slots(0) == [0, 1, 2, 3, 4]


def test_init_subset_cardinality_and_ledger():
    pool = shuffle_pool(declared(["normal", "reduction"], [27, 27]), seed=3)
    ledger = TraversalLedger()
    subset = init_subset(pool, capacity=5, seed=11, ledger=ledger)
    for li in range(2):
        slots = subset.active_slots(li)
        assert len(slots) == 5
        assert len(set(slots)) == 5
        assert all((li, s) in ledger for s in slots)
        assert all(e.origin == "fresh" for e in subset.layers[li])
    assert len(ledger.seen) == 10


def test_init_subset_uses_remaining_when_nearly_traversed():
    pool = shuffle_pool(declared(["normal"], [27]), seed=3)
    ledger = TraversalLedger()
    ledger.record((0, s) for s in range(24))
    subset = init_subset(pool, capacity=5, seed=11, ledger=ledger)
    assert subset.active_slots(0) == [24, 25, 26]


def test_init_subset_exhausted_layer_raises():
    pool = shuffle_pool(declared(["normal"], [3]), seed=3)
    ledger = TraversalLedger()
    ledger.record((0, s) for s in range(3))
    with pytest.raises(SpaceExhaustedError):
        init_subset(pool, capacity=2, seed=0, ledger=ledger)


def test_uniform_sampling_single_op_reduction_always_on():
    pool = shuffle_pool(declared(["reduction"], [1]), seed=0)
    subset = init_subset(pool, capacity=1, seed=0, ledger=TraversalLedger())
    rng = make_rng(5)
    for _ in range(50):
        arch = sample_uniform_architecture(subset, rng)
        assert arch.layers[0] == (0,)


def uniform_block(subset, seed, n):
    """``n`` rows of ``sample_uniform_architecture`` from ``make_rng(seed)``,
    drawn as one block; its first rows are checked against the one-row calls."""
    sampler = GateSampler.uniform(subset)
    rows = sampler.draw(make_rng(seed), n)
    rng = make_rng(seed)
    for row in rows[:5]:
        assert sample_uniform_architecture(subset, rng) == sampler.decode(row)
    return sampler, rows


def test_uniform_sampling_rates_are_half():
    pool = shuffle_pool(declared(["normal"], [3]), seed=0)
    subset = init_subset(pool, capacity=3, seed=0, ledger=TraversalLedger())
    n = 100_000
    sampler, rows = uniform_block(subset, 17, n)
    assert sampler.slots == ((0, 1, 2),)
    rates = sampler.bits(rows).sum(axis=0) / n
    assert np.all(np.abs(rates - 0.5) < 0.01)


def test_uniform_sampling_reduction_conditional_distribution():
    pool = shuffle_pool(declared(["reduction"], [2]), seed=0)
    subset = init_subset(pool, capacity=2, seed=0, ledger=TraversalLedger())
    n = 100_000
    sampler, rows = uniform_block(subset, 23, n)
    masks, counts = np.unique(rows[:, 0], return_counts=True)
    freq = {sampler.selection(0, m): c for m, c in zip(masks.tolist(), counts.tolist())}
    assert freq.keys() == {(0,), (1,), (0, 1)}
    for count in freq.values():
        assert abs(count / n - 1 / 3) < 0.01


def test_space_sampler_is_uniform_over_bounded_selections():
    pool = shuffle_pool(declared(["normal"], [3]), seed=0)
    subset = space.full_subset(pool)
    rng, draw = make_rng("space-sample", 0), space_sampler(subset, 2)
    n = 70_000
    freq: dict = {}
    for _ in range(n):
        arch = draw(rng)
        freq[arch.layers] = freq.get(arch.layers, 0) + 1
    assert len(freq) == 7  # sizes 0..2 over 3 slots
    for count in freq.values():
        assert abs(count / n - 1 / 7) < 0.01


def test_space_sampler_respects_reduction_floor():
    pool = shuffle_pool(declared(["reduction"], [3]), seed=0)
    subset = space.full_subset(pool)
    rng, draw = make_rng("space-sample", 1), space_sampler(subset, 2)
    for _ in range(300):
        arch = draw(rng)
        assert 1 <= len(arch.layers[0]) <= 2


def test_count_single_normal_layer():
    assert count_architectures([1], 1, ["normal"]) == 2


def test_count_normal_plus_reduction():
    # (C(3,0)+C(3,1)+C(3,2)) * (C(3,1)+C(3,2)) = 7 * 6 = 42
    assert count_architectures([3, 3], 2, ["normal", "reduction"]) == 42


def test_count_reference_geometry():
    n = count_architectures([27] * 22, 5, ["normal"] * 16 + ["reduction"] * 6)
    digits = str(n)
    exponent = len(digits) - 1
    mantissa = round(int(digits[:5]) / 10_000, 1)
    assert exponent == 110
    assert mantissa == 1.4


def _enumerate_count(sizes, capacity, roles):
    total = 1
    for size, role in zip(sizes, roles):
        low = 0 if role == "normal" else 1
        per_layer = 0
        for k in range(low, min(capacity, size) + 1):
            per_layer += sum(1 for _ in itertools.combinations(range(size), k))
        total *= per_layer
    return total


def test_count_matches_enumeration_oracle():
    rng = make_rng(31)
    for _ in range(25):
        num_layers = int(rng.integers(1, 4))
        sizes = [int(rng.integers(1, 6)) for _ in range(num_layers)]
        roles = [
            "reduction" if rng.random() < 0.4 else "normal" for _ in range(num_layers)
        ]
        capacity = int(rng.integers(1, 4))
        assert count_architectures(sizes, capacity, roles) == _enumerate_count(
            sizes, capacity, roles
        )


def test_aggregate_union_examples():
    pool = shuffle_pool(declared(["normal"], [5]), seed=0)
    subset = init_subset(pool, capacity=5, seed=0, ledger=TraversalLedger())
    archs = [
        Architecture.from_encoding([[0, 3]]),
        Architecture.from_encoding([[1, 3]]),
        Architecture.from_encoding([[3, 4]]),
    ]
    assert aggregate(archs, subset) == (frozenset({0, 1, 3, 4}),)
    assert aggregate(archs[:1], subset) == (frozenset({0, 3}),)


def test_aggregate_empty_set_rejected():
    pool = shuffle_pool(declared(["normal"], [3]), seed=0)
    subset = init_subset(pool, capacity=3, seed=0, ledger=TraversalLedger())
    with pytest.raises(space.SpaceError):
        aggregate([], subset)


def test_aggregate_idempotent_on_own_result():
    pool = shuffle_pool(declared(["normal", "reduction"], [6, 6]), seed=1)
    subset = init_subset(pool, capacity=4, seed=2, ledger=TraversalLedger())
    rng = make_rng(3)
    archs = [sample_uniform_architecture(subset, rng) for _ in range(4)]
    unions = aggregate(archs, subset)
    cover = Architecture(unions)
    assert aggregate([cover], subset) == unions


def test_replenish_cardinality_and_origins():
    pool = shuffle_pool(declared(["normal"], [12]), seed=4)
    ledger = TraversalLedger()
    subset = init_subset(pool, capacity=5, seed=0, ledger=ledger)
    union = (frozenset(subset.active_slots(0)[:2]),)
    new = replenish(union, pool, ledger, capacity=5, seed=9)
    entries = new.layers[0]
    inherited = [e for e in entries if e.origin == "inherited"]
    fresh = [e for e in entries if e.origin == "fresh"]
    assert len(inherited) == 2 and len(fresh) == 3
    assert not new.shortage
    assert {e.descriptor.slot_index for e in inherited} == set(union[0])
    # fresh entries never repeat a traversed slot
    first_round = set(subset.active_slots(0))
    assert all(e.descriptor.slot_index not in first_round for e in fresh)


def test_replenish_shortage_flag():
    pool = shuffle_pool(declared(["normal"], [6]), seed=4)
    ledger = TraversalLedger()
    subset = init_subset(pool, capacity=5, seed=0, ledger=ledger)
    union = (frozenset(subset.active_slots(0)[:2]),)
    new = replenish(union, pool, ledger, capacity=5, seed=9)
    assert len(new.active_entries(0)) == 3
    assert new.shortage


def test_replenish_full_union_leaves_ledger_unchanged():
    pool = shuffle_pool(declared(["normal"], [12]), seed=4)
    ledger = TraversalLedger()
    subset = init_subset(pool, capacity=5, seed=0, ledger=ledger)
    before = set(ledger.seen)
    union = (frozenset(subset.active_slots(0)),)
    new = replenish(union, pool, ledger, capacity=5, seed=9)
    assert set(ledger.seen) == before
    assert all(e.origin == "inherited" for e in new.layers[0])


def test_ledger_monotone_and_no_fresh_retraversal():
    pool = shuffle_pool(declared(["normal", "reduction"], [10, 10]), seed=6)
    ledger = TraversalLedger()
    subset = init_subset(pool, capacity=3, seed=0, ledger=ledger)
    rng = make_rng(77)
    sampled_fresh: set = set()
    for entries in subset.layers:
        sampled_fresh.update(e.descriptor.key for e in entries)
    for round_no in range(2, 5):
        arch = sample_uniform_architecture(subset, rng)
        union = aggregate([arch], subset)
        prev = set(ledger.seen)
        subset = replenish(union, pool, ledger, capacity=3, seed=round_no)
        assert prev <= ledger.seen
        for li, entries in enumerate(subset.layers):
            for e in entries:
                if e.origin == "fresh":
                    assert e.descriptor.key not in prev
                    assert e.descriptor.key not in sampled_fresh
                    sampled_fresh.add(e.descriptor.key)
        active = {
            e.descriptor.key for entries in subset.layers for e in entries
        }
        assert active <= ledger.seen


def test_subset_json_roundtrip():
    pool = shuffle_pool(declared(["normal", "reduction"], [8, 8]), seed=2)
    ledger = TraversalLedger()
    subset = init_subset(pool, capacity=4, seed=5, ledger=ledger)
    subset.deactivate(0, subset.active_slots(0)[0])
    data = subset_to_json(subset)
    back = subset_from_json(data)
    assert subset_to_json(back) == data


def test_full_subset_and_architecture_validation():
    pool = shuffle_pool(declared(["normal", "reduction"], [4, 4]), seed=2)
    subset = full_subset(pool)
    rng = make_rng(1)
    arch = sample_uniform_architecture(subset, rng)
    validate_architecture(arch, subset)
    bad = Architecture.from_encoding([[0], []])
    with pytest.raises(space.SpaceError):
        validate_architecture(bad, subset)


def test_architecture_holds_each_layer_as_its_ascending_slots():
    arch = Architecture([frozenset({9, 2, 1}), [4, 0, 4]])
    assert arch.layers[0] == (1, 2, 9)
    assert arch.layers[1] == (0, 4)
    assert arch == Architecture([(1, 2, 9), (0, 4)]) == Architecture([[9, 1, 2], {4, 0}])
    assert hash(arch) == hash(Architecture([(1, 2, 9), (0, 4)]))


def test_architecture_encoding_and_ids():
    arch = Architecture.from_encoding([[0, 3], [1], [], [2]])
    assert arch.layers == ((0, 3), (1,), (), (2,))
    assert arch.compact_id() == "0+3;1;;2"
    assert Architecture.from_encoding(arch.layers) == arch


SAMPLER_CASES = {
    # uniform gates with a four-slot reduction layer
    "uniform": (
        [[0, 2, 5], [1, 3], [0, 1, 2, 7]],
        ["normal", "normal", "reduction"],
        [[0.5] * 3, [0.5] * 2, [0.5] * 4],
    ),
    # indicator probabilities; the reduction layer's gate is rarely set
    "indicator": (
        [[1, 4], [0, 2, 3], [6]],
        ["normal", "reduction", "reduction"],
        [[0.9, 0.2], [0.1, 0.05, 0.3], [0.15]],
    ),
    # a one-slot reduction layer (its row dropped half the time) and an empty
    # normal layer, which reads no doubles
    "redraws": (
        [[3], [], [0, 1, 2, 3, 4, 5]],
        ["reduction", "normal", "normal"],
        [[0.5], [], [0.5] * 6],
    ),
    # a rarely set one-slot reduction layer after a normal layer: about 49
    # of every 50 draws are dropped
    "rare": (
        [[0, 1], [3]],
        ["normal", "reduction"],
        [[0.5, 0.5], [0.02]],
    ),
}


@pytest.mark.parametrize("case", sorted(SAMPLER_CASES))
@pytest.mark.parametrize("n", [1, 7, 1000])
def test_gate_sampler_blocks_equal_one_draw_at_a_time(case, n):
    slots, roles, probs = SAMPLER_CASES[case]
    for seed in range(3):
        rng, ref = make_rng("sampler", case, n, seed), make_rng("sampler", case, n, seed)
        masks = GateSampler(slots, roles, probs).draw(rng, n)
        assert masks.shape == (n, len(slots))
        assert masks.tolist() == [reference_draw(slots, roles, probs, ref) for _ in range(n)]
        # the generator is left exactly where the one-at-a-time draws leave it
        assert rng.random() == ref.random()


def test_gate_sampler_decodes_masks_over_sorted_slots():
    sampler = GateSampler([[2, 5, 9], []], ["normal", "normal"], [[0.5] * 3, []])
    arch = sampler.decode([0b101, 0])
    assert arch.layers == ((2, 9), ())


def test_gate_sampler_redraw_cap_still_raises():
    sampler = GateSampler([[0, 1], [4]], ["normal", "reduction"], [[0.5, 0.5], [0.0]])
    for n in (1, 7):
        with pytest.raises(RuntimeError, match="redraw cap exceeded in layer 1"):
            sampler.draw(make_rng("cap", n), n)


def test_gate_sampler_rejects_reduction_layer_without_slots():
    with pytest.raises(space.SpaceError):
        GateSampler([[0], []], ["normal", "reduction"], [[0.5], []])


@pytest.mark.parametrize("slots", [[2, 1], [1, 1]])
def test_gate_sampler_rejects_slots_out_of_order(slots):
    # bit j of a mask gates the j-th slot, and costs add in slot order
    with pytest.raises(space.SpaceError, match="distinct and ascending"):
        GateSampler([slots], ["normal"], [[0.5] * len(slots)])


def random_sampler_config(rng):
    """Layers of random roles and widths, including several reduction layers
    of different widths, empty normal layers and 1- and 12-slot reduction
    layers, with gate probabilities between 0.02 and 0.9."""
    slots, roles, probs = [], [], []
    for _ in range(int(rng.integers(1, 6))):
        reduction = rng.random() < 0.5
        width = int(rng.choice([1, 2, 3, 5, 12])) if reduction else int(rng.integers(0, 7))
        slots.append(sorted(rng.choice(20, size=width, replace=False).tolist()))
        roles.append("reduction" if reduction else "normal")
        probs.append(rng.uniform(0.02, 0.9, size=width).tolist())
    return slots, roles, probs


@pytest.mark.parametrize("n", [2, 63, 64, 65, 512, 1000])
def test_gate_sampler_draw_equals_reference_on_random_configs(n):
    configs = make_rng("sampler-configs", n)
    for case in range(12):
        slots, roles, probs = random_sampler_config(configs)
        rng, ref = make_rng("sampler-draw", n, case), make_rng("sampler-draw", n, case)
        masks = GateSampler(slots, roles, probs).draw(rng, n)
        assert masks.tolist() == [reference_draw(slots, roles, probs, ref) for _ in range(n)]
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("n", [1, 7, 64])
def test_redraw_cap_names_the_first_empty_layer_of_the_last_dropped_draw(n):
    # layer 2 is never set and layer 0 half the time: the cap's message names
    # whichever is first empty in the draw that reaches it
    slots, roles = [[1], [0, 2], [5]], ["reduction", "normal", "reduction"]
    probs = [[0.5], [0.5, 0.5], [0.0]]
    messages = set()
    for seed in range(4):
        with pytest.raises(RuntimeError) as want:
            reference_draw(slots, roles, probs, make_rng("cap-layer", seed))
        with pytest.raises(RuntimeError) as got:
            GateSampler(slots, roles, probs).draw(make_rng("cap-layer", seed), n)
        assert str(got.value) == str(want.value)
        messages.add(str(got.value))
    assert messages == {f"redraw cap exceeded in layer {li}" for li in (0, 2)}


def mask_law(probs):
    """The exact probability of each non-empty mask of one layer, given that
    the layer selects something."""
    law = {}
    for mask in range(1, 1 << len(probs)):
        law[mask] = math.prod(p if mask >> j & 1 else 1.0 - p for j, p in enumerate(probs))
    total = sum(law.values())
    return {mask: p / total for mask, p in law.items()}


def test_dropping_whole_rows_keeps_each_reduction_layer_law():
    # two reduction layers with unequal gates, drawn in one block: each
    # layer's masks follow P(mask) / P(non-empty), and the two layers are
    # independent, so their joint frequencies are the product of those laws
    probs = [[0.2, 0.6], [0.3, 0.1, 0.5]]
    n = 200_000
    rows = GateSampler([[0, 1], [0, 1, 2]], ["reduction", "reduction"], probs).draw(
        make_rng("row-law", 0), n
    )
    laws = [mask_law(p) for p in probs]

    def close(count, p):
        # within five standard errors of a binomial frequency
        return abs(count / n - p) <= 5.0 * math.sqrt(p * (1.0 - p) / n)

    for li, law in enumerate(laws):
        masks, counts = np.unique(rows[:, li], return_counts=True)
        assert sorted(masks.tolist()) == sorted(law)
        assert all(close(c, law[m]) for m, c in zip(masks.tolist(), counts.tolist()))
    pairs, counts = np.unique(rows, axis=0, return_counts=True)
    assert len(pairs) == len(laws[0]) * len(laws[1])
    for (a, b), c in zip(pairs.tolist(), counts.tolist()):
        assert close(c, laws[0][a] * laws[1][b])


def test_bits_are_the_selected_slots_in_column_order():
    slots = [[], [1, 4], [0, 2, 5], [3], [2, 7, 9]]
    roles = ["normal", "normal", "reduction", "reduction", "normal"]
    sampler = GateSampler(slots, roles, [[0.5] * len(s) for s in slots])
    for row in sampler.draw(make_rng("bits", 0), 50).tolist():
        arch = sampler.decode(row)
        want = [slot in arch.layers[li] for li, layer in enumerate(slots) for slot in layer]
        assert sampler.bits(row).tolist() == want
