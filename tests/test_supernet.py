import tracemalloc

import numpy as np
import pytest

from conftest import central_difference
from reference import (
    branch_forward,
    forward,
    forward_collect,
    layer_forward,
    reference_toy_dataset,
    set_mode,
    state_hash,
    tape_grads,
    tape_stats,
    train_architecture,
)
from nse.indicators import FitnessIndicators, ThetaAdam, indicator_update_step
from nse.resources import ConstraintConfig
from nse.rng import make_rng
from nse.nn import (
    SGD,
    NotFiniteError,
    Tensor,
    recalibrate,
    softmax_cross_entropy,
    softmax_cross_entropy_array,
)
from nse.space import (
    Architecture,
    DeclaredLayer,
    DeclaredOp,
    GateSampler,
    GateVector,
    SpaceError,
    TraversalLedger,
    init_subset,
    sample_uniform_architecture,
    shuffle_pool,
)
from nse.supernet import (
    BatchStream,
    DatasetConfig,
    InferenceCache,
    NetworkGeometry,
    SharedWeights,
    ToyDataset,
    TrainingConfig,
    build_cost_table,
    evaluate,
    make_recal_batches,
    op_cost,
    toy_op_family,
    train_step,
    train_step_fixed,
)


def build_pool(roles, ops_per_layer, seed=0):
    family = toy_op_family()
    decl = [
        DeclaredLayer(
            role=r,
            ops=[DeclaredOp(family[i].kind, dict(family[i].params)) for i in range(ops_per_layer)],
        )
        for r in roles
    ]
    return shuffle_pool(decl, seed=seed)


def build_net(roles=("normal", "reduction"), ops=3, width=6, seed=3):
    pool = build_pool(roles, ops)
    subset = init_subset(pool, capacity=ops, seed=1, ledger=TraversalLedger())
    widths = tuple(width if r == "normal" else width + 2 for r in roles)
    # running width: normal keeps, reduction bumps
    out = []
    w = width
    for r in roles:
        if r == "reduction":
            w += 2
        out.append(w)
    geometry = NetworkGeometry(input_dim=5, stem_width=width, layer_widths=tuple(out), classes=3)
    weights = SharedWeights(subset, geometry, seed=seed)
    return pool, subset, geometry, weights


def test_toy_family_has_twelve_distinct_kinds():
    family = toy_op_family()
    assert len(family) == 12
    assert len({(op.kind, tuple(sorted(op.params.items()))) for op in family}) == 12


def test_forward_normal_layer_all_gates_zero_is_identity():
    _, subset, _, weights = build_net()
    set_mode(weights, "eval")
    x = Tensor(make_rng("fx", 0).normal(size=(4, 6)))
    out = layer_forward(weights, 0, GateVector(0, frozenset()), x)
    assert out is x


def test_forward_normal_layer_averages_identity_and_branches():
    _, subset, _, weights = build_net()
    set_mode(weights, "eval")
    slots = subset.active_slots(0)[:2]
    x = Tensor(make_rng("fx", 1).normal(size=(4, 6)))
    b0 = branch_forward(weights, 0, slots[0], x)
    b1 = branch_forward(weights, 0, slots[1], x)
    out = layer_forward(weights, 0, GateVector(0, frozenset(slots)), x)
    expected = (x.data + b0.data + b1.data) / 3.0
    assert np.allclose(out.data, expected, atol=1e-12)


def test_forward_reduction_layer_averages_selected_branches():
    _, subset, _, weights = build_net()
    set_mode(weights, "eval")
    slots = subset.active_slots(1)
    x = Tensor(make_rng("fx", 2).normal(size=(4, 6)))
    picked = [slots[0], slots[2]]
    b0 = branch_forward(weights, 1, picked[0], x)
    b2 = branch_forward(weights, 1, picked[1], x)
    out = layer_forward(weights, 1, GateVector(1, frozenset(picked)), x)
    assert np.allclose(out.data, (b0.data + b2.data) / 2.0, atol=1e-12)


def test_forward_reduction_layer_rejects_empty_gates():
    _, _, _, weights = build_net()
    x = Tensor(np.zeros((2, 6)))
    with pytest.raises(SpaceError):
        layer_forward(weights, 1, GateVector(1, frozenset()), x)


def test_forward_linearity_of_disjoint_gate_unions():
    _, subset, _, weights = build_net(roles=("reduction",), ops=4, width=6)
    set_mode(weights, "eval")
    slots = subset.active_slots(0)
    g1, g2 = slots[:2], slots[2:]
    x = Tensor(make_rng("fx", 3).normal(size=(4, 6)))
    out1 = layer_forward(weights, 0, GateVector(0, frozenset(g1)), x)
    out2 = layer_forward(weights, 0, GateVector(0, frozenset(g2)), x)
    union = layer_forward(weights, 0, GateVector(0, frozenset(slots)), x)
    mix = (len(g1) * out1.data + len(g2) * out2.data) / len(slots)
    assert np.max(np.abs(union.data - mix)) < 1e-10


def test_weight_sharing_between_architectures():
    _, subset, _, weights = build_net()
    slots = subset.active_slots(0)
    name = f"L0.S{slots[0]}.w1"
    a1 = Architecture.from_encoding([[slots[0]], [subset.active_slots(1)[0]]])
    a2 = Architecture.from_encoding([sorted(slots[:2]), [subset.active_slots(1)[0]]])
    # both architectures resolve the branch to the same parameter array
    before = weights.params[name].copy()
    set_mode(weights, "eval")
    for arch in (a1, a2):
        forward(weights, arch.gate_vectors, Tensor(np.zeros((2, 5))))
    assert np.array_equal(weights.params[name], before)


def test_gradient_flow_through_two_layer_stack():
    _, subset, geometry, weights = build_net(roles=("normal", "reduction"), ops=2, width=5, seed=7)
    rng = make_rng("gradflow", 0)
    x = rng.normal(size=(4, 5))
    y = rng.integers(0, 3, size=4)
    gates = [
        GateVector(0, frozenset(subset.active_slots(0))),
        GateVector(1, frozenset(subset.active_slots(1)[:1])),
    ]

    def loss_with(name, values):
        saved = weights.params[name]
        weights.params[name] = values
        set_mode(weights, "train")
        logits, _ = forward(weights, gates, Tensor(x))
        out = float(softmax_cross_entropy(logits, y).data)
        weights.params[name] = saved
        return out

    set_mode(weights, "train")
    logits, leaves = forward(weights, gates, Tensor(x))
    loss = softmax_cross_entropy(logits, y)
    loss.backward()
    for name in ("stem.w", "head.w", f"L0.S{subset.active_slots(0)[0]}.w1",
                 f"L1.S{subset.active_slots(1)[0]}.w2"):
        got = leaves[name].grad
        fd = central_difference(
            lambda v, n=name: loss_with(n, v), weights.params[name], step=1e-5
        )
        denom = np.maximum(np.abs(fd), 1e-6)
        assert np.max(np.abs(got - fd) / denom) < 1e-4, name


def test_train_step_only_updates_selected_branches():
    _, subset, _, weights = build_net(roles=("normal", "reduction"), ops=3)
    slots0 = subset.active_slots(0)
    slots1 = subset.active_slots(1)
    arch = Architecture.from_encoding([[slots0[0]], [slots1[0]]])
    untouched = [
        f"L0.S{slots0[1]}.w1",
        f"L0.S{slots0[2]}.w2",
        f"L1.S{slots1[1]}.w1",
    ]
    before = {n: weights.params[n].copy() for n in untouched}
    rng = make_rng("tstep", 0)
    x = rng.normal(size=(8, 5))
    y = rng.integers(0, 3, size=8)
    from nse.supernet import train_step_fixed

    train_step_fixed(weights, arch, (x, y), SGD(lr=0.05, momentum=0.9, nesterov=True))
    for name in untouched:
        assert np.array_equal(weights.params[name], before[name])
    # stem and head are always in the graph, so they moved
    assert not np.array_equal(weights.params["stem.w"], before.get("stem.w", weights.params["stem.w"] + 1))


def test_identical_branches_get_identical_gradients():
    _, subset, _, weights = build_net(roles=("normal",), ops=2)
    slots = subset.active_slots(0)
    # force branch 1 to share branch 0's kind and parameters
    kind0 = weights.kinds[(0, slots[0])]
    weights.kinds[(0, slots[1])] = (kind0[0], dict(kind0[1]))
    for suffix in ("w1", "b1", "w2", "b2"):
        src = weights.params[f"L0.S{slots[0]}.{suffix}"]
        weights.params[f"L0.S{slots[1]}.{suffix}"] = src.copy()
    rng = make_rng("twin", 0)
    x = rng.normal(size=(6, 5))
    y = rng.integers(0, 3, size=6)
    set_mode(weights, "train")
    gates = [GateVector(0, frozenset(slots))]
    logits, leaves = forward(weights, gates, Tensor(x))
    softmax_cross_entropy(logits, y).backward()
    for suffix in ("w1", "b1", "w2", "b2"):
        g0 = leaves[f"L0.S{slots[0]}.{suffix}"].grad
        g1 = leaves[f"L0.S{slots[1]}.{suffix}"].grad
        assert np.allclose(g0, g1, atol=1e-12)


def test_training_reduces_loss_on_fixed_architecture():
    pool = build_pool(("reduction", "reduction"), 1)
    subset = init_subset(pool, capacity=1, seed=0, ledger=TraversalLedger())
    geometry = NetworkGeometry(input_dim=8, stem_width=8, layer_widths=(10, 12), classes=3)
    weights = SharedWeights(subset, geometry, seed=5)
    data = ToyDataset.generate(
        DatasetConfig(seed=3, input_dim=8, classes=3, train_size=1500, val_size=300, noise=0.35)
    )
    stream = BatchStream(data.x_train, data.y_train, 64, make_rng("train", 0))
    opt = SGD(lr=0.05, momentum=0.9, nesterov=True, weight_decay=4e-5)
    rng = make_rng("arch", 0)
    sampler = GateSampler.uniform(subset)
    losses = [
        train_step(weights, sampler, stream.next(), rng, opt) for _ in range(200)
    ]
    assert np.mean(losses[-50:]) < np.mean(losses[:50]) * 0.8


def test_evaluate_untrained_is_chance_level_over_seeds():
    # a single random net is a fixed (possibly lucky) classifier; chance
    # level emerges in the average over initialization seeds
    accs = []
    for seed in range(10):
        _, subset, geometry, weights = build_net(
            roles=("normal", "reduction"), ops=2, width=6, seed=seed
        )
        data = ToyDataset.generate(
            DatasetConfig(seed=seed, input_dim=5, classes=3, train_size=600, val_size=900)
        )
        recal = make_recal_batches(data, 4, 64, make_rng("recal", seed))
        arch = Architecture.from_encoding(
            [subset.active_slots(0)[:1], subset.active_slots(1)[:1]]
        )
        accs.append(evaluate(InferenceCache(weights, data, recal), [arch])[0])
    assert abs(np.mean(accs) - 1.0 / 3.0) < 0.05


def test_evaluate_is_deterministic_and_pure():
    _, subset, geometry, weights = build_net()
    data = ToyDataset.generate(
        DatasetConfig(seed=1, input_dim=5, classes=3, train_size=400, val_size=200)
    )
    recal = make_recal_batches(data, 4, 32, make_rng("recal", 9))
    arch = Architecture.from_encoding(
        [subset.active_slots(0)[:2], subset.active_slots(1)[:1]]
    )
    before_hash = state_hash(weights)
    acc1 = evaluate(InferenceCache(weights, data, recal), [arch])[0]
    acc2 = evaluate(InferenceCache(weights, data, recal), [arch])[0]
    assert acc1 == acc2
    assert state_hash(weights) == before_hash


def test_reinitialize_determinism_and_init_law():
    _, subset, geometry, weights = build_net(seed=2)
    w1 = SharedWeights(subset, geometry, 42)
    w2 = SharedWeights(subset, geometry, 42)
    assert state_hash(w1) == state_hash(w2)
    w3 = SharedWeights(subset, geometry, 43)
    assert state_hash(w3) != state_hash(w1)
    # per-block sample mean within 3 sigma of the zero-mean init law
    for name, p in w1.params.items():
        if not name.endswith("w") and ".w" not in name:
            continue
        if p.ndim != 2:
            continue
        fan_in = p.shape[0]
        std = np.sqrt(2.0 / fan_in)
        tol = 3.0 * std / np.sqrt(p.size)
        assert abs(p.mean()) < tol, name


def test_dataset_generation_is_deterministic_and_balanced():
    cfg = DatasetConfig(seed=7, input_dim=6, classes=4, train_size=800, val_size=400)
    a = ToyDataset.generate(cfg)
    b = ToyDataset.generate(cfg)
    assert np.array_equal(a.x_train, b.x_train)
    assert np.array_equal(a.y_val, b.y_val)
    for split in (a.y_train, a.y_val):
        counts = np.bincount(split, minlength=4)
        assert counts.max() - counts.min() <= 1
    # val rows never collide with train rows
    train_keys = {row.tobytes() for row in a.x_train}
    assert not any(row.tobytes() in train_keys for row in a.x_val)


@pytest.mark.parametrize(
    "cfg",
    [
        DatasetConfig(),
        DatasetConfig(clusters_per_class=1),
        DatasetConfig(classes=5, clusters_per_class=3),
    ],
    ids=["default", "one-cluster", "odd-clusters"],
)
def test_dataset_gather_equals_the_row_loop(cfg):
    got, ref = ToyDataset.generate(cfg), reference_toy_dataset(cfg)
    for name in ("x_train", "y_train", "x_val", "y_val"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def test_cost_model_reference_values():
    assert op_cost("mlp_relu", {"expand": 2}, 10, 10, unit_scale=1e-3) == pytest.approx(
        (10 * 20 + 20 * 10) * 1e-3
    )
    assert op_cost("lowrank_tanh", {"rank": 3}, 8, 10, unit_scale=1e-3) == pytest.approx(
        (8 * 3 + 3 * 10) * 1e-3
    )
    pool = build_pool(("normal", "reduction"), 4)
    geometry = NetworkGeometry(input_dim=5, stem_width=6, layer_widths=(6, 8), classes=3)
    table = build_cost_table(pool, geometry)
    assert table.fixed_overhead == pytest.approx((5 * 6 + 8 * 3) * 1e-3)
    for layer in pool.layers:
        for op in layer.pool:
            assert table.lookup(*op.key) > 0


def test_train_architecture_runs_and_scores():
    pool = build_pool(("normal", "reduction"), 4)
    geometry = NetworkGeometry(input_dim=6, stem_width=8, layer_widths=(8, 10), classes=3)
    data = ToyDataset.generate(
        DatasetConfig(seed=2, input_dim=6, classes=3, train_size=900, val_size=300, noise=0.4)
    )
    arch = Architecture.from_encoding([[pool.layers[0].pool[0].slot_index], [pool.layers[1].pool[0].slot_index]])
    training = TrainingConfig(steps=120, batch_size=64, lr=0.08, warmup_steps=10)
    acc = train_architecture(arch, pool, geometry, data, training, seed=1, recal_count=4)
    assert 0.3 < acc <= 1.0


# ---------------------------------------------------------------------------
# The no-grad inference path against the autodiff graph


def graph_evaluation(weights, arch, data, recal, batch_size):
    """Reference: recalibrate fresh tape statistics of the selected branches
    and score through the Tensor graph; returns the accuracy and the
    validation logits of every batch."""
    keys = {(li, s) for li, gv in enumerate(arch.gate_vectors) for s in gv.selected}
    stats = tape_stats(weights)
    stats.update({k: [] for k in keys})
    if keys:
        for xb in recal:
            forward(weights, arch.gate_vectors, Tensor(xb))
        stats.update({k: recalibrate(np.stack(stats[k])) for k in keys})
    correct = 0
    all_logits = []
    for start in range(0, len(data.x_val), batch_size):
        logits, _ = forward(
            weights, arch.gate_vectors, Tensor(data.x_val[start : start + batch_size])
        )
        logits = logits.data
        all_logits.append(logits)
        correct += int(
            np.sum(np.argmax(logits, axis=1) == data.y_val[start : start + batch_size])
        )
    return correct / len(data.x_val), all_logits


def trained_net(seed=4):
    """Three layers (normal, normal, reduction) after a few training steps."""
    _, subset, _, weights = build_net(roles=("normal", "normal", "reduction"), ops=4, seed=seed)
    data = ToyDataset.generate(
        DatasetConfig(seed=seed, input_dim=5, classes=3, train_size=600, val_size=300)
    )
    stream = BatchStream(data.x_train, data.y_train, 32, make_rng("nograd-train", seed))
    opt = SGD(lr=0.05, momentum=0.9, nesterov=True)
    rng = make_rng("nograd-arch", seed)
    sampler = GateSampler.uniform(subset)
    for _ in range(30):
        train_step(weights, sampler, stream.next(), rng, opt)
    recal = make_recal_batches(data, 3, 48, make_rng("nograd-recal", seed))
    return subset, weights, data, recal


@pytest.mark.parametrize("batch_size", [7, 128, 300])
def test_nograd_accuracy_equals_graph_accuracy_exactly(batch_size):
    # one-pass scoring equals the graph's batched scoring at several splits
    # of the 300 validation rows, the last one the whole split
    subset, weights, data, recal = trained_net()
    rng = make_rng("nograd-archs", 0)
    slots = [subset.active_slots(li) for li in range(3)]
    archs = [
        Architecture.from_encoding([[], [], slots[2][:1]]),
        Architecture.from_encoding([slots[0], slots[1], slots[2]]),
        Architecture.from_encoding([slots[0][:1], [], slots[2][1:3]]),
    ] + [sample_uniform_architecture(subset, rng) for _ in range(21)]
    gates = [gv for a in archs for gv in a.gate_vectors]
    assert any(not gv.selected for gv in gates)  # empty normal-layer gates
    assert any(len(gv.selected) == 1 for gv in gates)  # single-branch layers
    assert any(len(gv.selected) > 1 for gv in gates)  # multi-branch layers
    cache = InferenceCache(weights, data, recal)
    got = evaluate(cache, archs)
    expected = [graph_evaluation(weights, a, data, recal, batch_size) for a in archs]
    assert got == [acc for acc, _ in expected]
    assert len(set(got)) > 3  # the architectures really differ
    # bit-identical logits, not just the same argmax
    for got_logits, (_, logits) in zip(cache.val_logits(archs), expected):
        assert len(logits) == -(-len(data.x_val) // batch_size)
        assert np.array_equal(got_logits, np.concatenate(logits))


def test_cached_evaluation_does_not_depend_on_order():
    subset, weights, data, recal = trained_net(seed=5)
    rng = make_rng("nograd-order", 0)
    a, b = (sample_uniform_architecture(subset, rng) for _ in range(2))
    cache = InferenceCache(weights, data, recal)
    first = evaluate(cache, [a])[0]
    other = evaluate(cache, [b])[0]
    assert evaluate(cache, [a])[0] == first
    assert evaluate(InferenceCache(weights, data, recal), [a])[0] == first  # a fresh cache agrees
    assert evaluate(InferenceCache(weights, data, recal), [b])[0] == other


def test_cached_evaluation_leaves_weights_and_stats_untouched():
    subset, weights, data, recal = trained_net(seed=6)
    before_hash = state_hash(weights)
    cache = InferenceCache(weights, data, recal)
    rng = make_rng("nograd-pure", 0)
    for _ in range(5):
        evaluate(cache, [sample_uniform_architecture(subset, rng)])
    assert state_hash(weights) == before_hash


def test_nan_in_layer0_weight_raises_through_cache():
    subset, weights, data, recal = trained_net(seed=7)
    slots = subset.active_slots(0)
    cache = InferenceCache(weights, data, recal)
    arch_other = Architecture.from_encoding([slots[:1], [], subset.active_slots(2)[:1]])
    evaluate(cache, [arch_other])
    weights.params[f"L0.S{slots[1]}.w1"][0, 0] = np.nan
    arch = Architecture.from_encoding([slots[1:2], [], subset.active_slots(2)[:1]])
    with pytest.raises(NotFiniteError):
        evaluate(cache, [arch])


def test_cache_rejects_recal_batches_of_unequal_size():
    _, weights, data, recal = trained_net(seed=8)
    with pytest.raises(ValueError, match="one size"):
        InferenceCache(weights, data, recal + [recal[0][:-1]])


def test_a_batch_scores_each_architecture_as_it_scores_alone():
    # layer-0 work is shared within a batch, so every architecture's score and
    # logits must not depend on the batch it is in, nor on its place there
    subset, weights, data, recal = trained_net(seed=11)
    rng = make_rng("batch-contract", 0)
    slots = [subset.active_slots(li) for li in range(3)]
    archs = [
        Architecture.from_encoding([[], [], slots[2][:1]]),
        Architecture.from_encoding([slots[0], slots[1], slots[2]]),
        Architecture.from_encoding([slots[0][1:3], [], slots[2][1:3]]),
    ] + [sample_uniform_architecture(subset, rng) for _ in range(9)]
    archs.append(archs[1])  # a repeat in the same batch
    alone = [InferenceCache(weights, data, recal) for _ in archs]
    single = [evaluate(cache, [a])[0] for cache, a in zip(alone, archs)]
    single_logits = [next(cache.val_logits([a])) for cache, a in zip(alone, archs)]
    assert len(set(single)) > 3
    cache = InferenceCache(weights, data, recal)
    in_order = list(range(len(archs)))
    for order in (in_order, in_order[::-1], rng.permutation(len(archs)).tolist()):
        batch = [archs[i] for i in order]
        assert evaluate(cache, batch) == [single[i] for i in order]
        logits = list(cache.val_logits(batch))
        assert len(logits) == len(batch)
        for i, got in zip(order, logits):
            assert np.array_equal(got, single_logits[i])
    assert evaluate(cache, []) == []


def test_a_batch_with_an_ungated_reduction_layer_raises_space_error():
    # the reduction layer is the middle one, so the recal sweep meets it, and
    # the last one, so only the validation sweep does
    cases = ((("normal", "reduction", "normal"), 1), (("normal", "normal", "reduction"), 2))
    for roles, li in cases:
        _, subset, _, weights = build_net(roles=roles, ops=3)
        data = ToyDataset.generate(
            DatasetConfig(seed=1, input_dim=5, classes=3, train_size=200, val_size=100)
        )
        recal = make_recal_batches(data, 2, 32, make_rng("ungated", 0))
        encoding = [subset.active_slots(k)[:1] for k in range(3)]
        good = Architecture.from_encoding(encoding)
        encoding[li] = []
        bad = Architecture.from_encoding(encoding)
        cache = InferenceCache(weights, data, recal)
        with pytest.raises(SpaceError, match=f"reduction layer {li}"):
            evaluate(cache, [good, bad])


def test_a_batch_without_recal_batches_raises_value_error():
    subset, weights, data, _ = trained_net(seed=12)
    cache = InferenceCache(weights, data, [])
    ungated = Architecture.from_encoding([[], [], subset.active_slots(2)[:1]])
    with pytest.raises(ValueError, match="at least one batch"):
        evaluate(cache, [ungated])
    with pytest.raises(ValueError, match="at least one batch"):
        next(cache.val_logits([ungated]))


def test_batch_evaluation_holds_one_split_of_layer0_outputs_at_a_time():
    # 12 layer-0 slots, every one selected by some architecture, and a recal
    # stack as large as the validation split (R*B = V), so one split's
    # layer-0 outputs take 12 (V, W) arrays; keeping both splits' would take
    # 24, and that is the bound.  Everything else alive at the peak is a
    # working set that does not grow with the slot count: one branch's hidden
    # activations (4 arrays for the widest op), its output, the layer input
    # and the running sum.
    width, v, batches, batch = 8, 512, 4, 128
    roles = ("normal", "normal", "normal")
    pool = build_pool(roles, 12)
    subset = init_subset(pool, capacity=12, seed=1, ledger=TraversalLedger())
    geometry = NetworkGeometry(input_dim=5, stem_width=width, layer_widths=(width,) * 3, classes=3)
    weights = SharedWeights(subset, geometry, seed=0)
    data = ToyDataset.generate(
        DatasetConfig(seed=0, input_dim=5, classes=3, train_size=600, val_size=v)
    )
    recal = make_recal_batches(data, batches, batch, make_rng("memory", 0))
    assert batches * batch == v
    slots = [subset.active_slots(li) for li in range(3)]
    assert len(slots[0]) == 12
    archs = [
        Architecture.from_encoding(
            [slots[0][3 * k : 3 * k + 3], slots[1][k : k + 3], slots[2][2 * k : 2 * k + 3]]
        )
        for k in range(4)
    ]
    assert {s for a in archs for s in a.gate_vectors[0].selected} == set(slots[0])
    cache = InferenceCache(weights, data, recal)
    one_split = v * width * np.dtype(np.float64).itemsize
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        evaluate(cache, archs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 2 * len(slots[0]) * one_split


def test_layer_output_nograd_matches_train_mode_graph_on_copies():
    subset, weights, data, _ = trained_net(seed=10)
    x = make_rng("nograd-layer", 0).normal(size=(16, 6))
    set_mode(weights, "train")
    for li in range(2):
        gate = GateVector(li, frozenset(subset.active_slots(li)[:3]))
        got = weights.layer_output_nograd(li, gate, x)
        expected = layer_forward(weights, li, gate, Tensor(x)).data
        assert np.array_equal(got, expected)


# ---------------------------------------------------------------------------
# The explicit training pass against the autodiff tape


def tape_train_step_fixed(weights, arch, batch, optimizer):
    """Reference: one weight step through the Tensor graph and its backward."""
    x, y = batch
    set_mode(weights, "train")
    logits, leaves = forward(weights, arch.gate_vectors, Tensor(np.asarray(x)))
    loss = softmax_cross_entropy(logits, np.asarray(y))
    loss.backward()
    optimizer.step(weights.params, tape_grads(leaves))
    return float(loss.data)


def training_archs(subset, rng, count):
    """Fixed corner cases first, then uniform draws, for the roles
    (normal, normal, reduction)."""
    slots = [subset.active_slots(li) for li in range(3)]
    archs = [
        Architecture.from_encoding([[], [], slots[2][:1]]),
        Architecture.from_encoding([slots[0], slots[1], slots[2]]),
        Architecture.from_encoding([slots[0][:1], [], slots[2][1:3]]),
        Architecture.from_encoding([[], slots[1][1:], slots[2][3:]]),
    ]
    archs += [sample_uniform_architecture(subset, rng) for _ in range(count - len(archs))]
    gates = [gv for a in archs for gv in a.gate_vectors]
    assert any(not gv.selected for gv in gates)  # empty normal gates
    assert any(len(gv.selected) == 1 for gv in gates[2::3])  # one-branch reduction
    assert any(len(gv.selected) > 1 for gv in gates[0::3])  # multi-branch normal
    assert any(len(gv.selected) > 1 for gv in gates[2::3])  # multi-branch reduction
    return archs


def test_train_step_matches_the_tape_bit_for_bit():
    seed = 11
    nets = [
        build_net(roles=("normal", "normal", "reduction"), ops=4, seed=seed)
        for _ in range(2)
    ]
    subset = nets[0][1]
    data = ToyDataset.generate(
        DatasetConfig(seed=seed, input_dim=5, classes=3, train_size=600, val_size=100)
    )
    archs = training_archs(subset, make_rng("pass-archs", 0), 30)
    losses = []
    for (_, _, _, weights), step in zip(nets, (train_step_fixed, tape_train_step_fixed)):
        stream = BatchStream(data.x_train, data.y_train, 32, make_rng("pass-train", seed))
        opt = SGD(lr=0.05, momentum=0.9, nesterov=True, weight_decay=4e-5)
        losses.append([step(weights, arch, stream.next(), opt) for arch in archs])
    fast, tape = nets[0][3], nets[1][3]
    assert losses[0] == losses[1]
    assert len(set(losses[0])) > 20
    assert state_hash(fast) == state_hash(tape)
    # every branch was trained: each block differs from a fresh init
    fresh = SharedWeights(subset, tape.geometry, seed)
    assert all(not np.array_equal(tape.blocks[k], fresh.blocks[k]) for k in fresh.blocks)


def test_train_backward_matches_tape_gradients():
    _, subset, _, fast = build_net(roles=("normal", "normal", "reduction"), ops=4, seed=12)
    _, _, _, tape = build_net(roles=("normal", "normal", "reduction"), ops=4, seed=12)
    rng = make_rng("pass-grads", 0)
    x = rng.normal(size=(24, 5))
    y = rng.integers(0, 3, size=24)
    for arch in training_archs(subset, rng, 8):
        set_mode(tape, "train")
        record = fast.train_forward(arch.gate_vectors, x)
        loss, dlogits = softmax_cross_entropy_array(record.logits, y)
        out_grads = fast.train_backward(record, dlogits)
        no_params = fast.train_backward(record, dlogits, param_grads=False)

        logits, inputs, outputs, leaves = forward_collect(tape, arch.gate_vectors, Tensor(x))
        tape_loss = softmax_cross_entropy(logits, y)
        tape_loss.backward()
        assert loss == float(tape_loss.data)
        assert np.array_equal(record.logits, logits.data)
        for li, trace in enumerate(record.layers):
            assert np.array_equal(trace.x, inputs[li].data)
            assert np.array_equal(trace.out, outputs[li].data)
            assert np.array_equal(out_grads[li], outputs[li].grad)
            assert np.array_equal(no_params[li], outputs[li].grad)
        touched = tape_grads(leaves)
        for name, grad in touched.items():
            assert np.array_equal(fast.grad_views[name], grad), name


def test_nan_in_deeper_layer_w2_raises_from_train_step():
    _, subset, _, weights = build_net(roles=("normal", "normal", "reduction"), ops=4, seed=13)
    slots = [subset.active_slots(li) for li in range(3)]
    weights.params[f"L1.S{slots[1][2]}.w2"][0, 0] = np.nan
    data = ToyDataset.generate(DatasetConfig(seed=1, input_dim=5, classes=3, train_size=64))
    stream = BatchStream(data.x_train, data.y_train, 16, make_rng("pass-nan", 0))
    opt = SGD(lr=0.05)
    # architectures that skip the broken branch train normally
    healthy = Architecture.from_encoding([slots[0], slots[1][:2], slots[2][:1]])
    train_step_fixed(weights, healthy, stream.next(), opt)
    arch = Architecture.from_encoding([slots[0][:1], slots[1][1:], slots[2][:1]])
    with pytest.raises(NotFiniteError, match="affine"):
        train_step_fixed(weights, arch, stream.next(), opt)
    with pytest.raises(NotFiniteError, match="affine"):
        train_step(
            weights,
            GateSampler.uniform(subset),
            stream.next(),
            _rng_selecting(subset, 1, slots[1][2]),
            opt,
        )


@pytest.mark.parametrize("layer", [1, 2])
@pytest.mark.parametrize("act", ["relu", "tanh"])
def test_nan_in_deeper_layer_w1_raises_from_both_steps(act, layer):
    # activations and layer averages are not checked for finite values: a NaN
    # in a branch's first weights must still surface, at its affine
    pool, subset, geometry, weights = build_net(
        roles=("normal", "normal", "reduction"), ops=4, seed=13
    )
    slot = next(s for s in subset.active_slots(layer) if weights.kinds[(layer, s)][0].endswith(act))
    weights.params[f"L{layer}.S{slot}.w1"][0, 0] = np.nan
    data = ToyDataset.generate(
        DatasetConfig(seed=1, input_dim=5, classes=3, train_size=64, val_size=32)
    )
    stream = BatchStream(data.x_train, data.y_train, 16, make_rng("pass-nan-w1", 0))
    with pytest.raises(NotFiniteError, match="affine"):
        train_step(
            weights,
            GateSampler.uniform(subset),
            stream.next(),
            _rng_selecting(subset, layer, slot),
            SGD(lr=0.05),
        )
    thetas = FitnessIndicators.for_subset(subset)
    thetas.values[:] = 40.0  # both gates of every layer select every slot
    with pytest.raises(NotFiniteError, match="affine"):
        indicator_update_step(
            thetas,
            weights,
            subset,
            (data.x_val[:16], data.y_val[:16]),
            build_cost_table(pool, geometry),
            ConstraintConfig(tau=1.0),
            ThetaAdam(),
            make_rng("pass-nan-w1-indicator", 0),
        )


def _rng_selecting(subset, layer_index, slot):
    """A generator whose next uniform architecture selects ``slot``."""
    for attempt in range(100):
        arch = sample_uniform_architecture(subset, make_rng("pass-nan-arch", attempt))
        if slot in arch.selected(layer_index):
            return make_rng("pass-nan-arch", attempt)
    raise AssertionError("no seed selects the slot")
