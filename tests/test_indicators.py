import itertools
import math

import numpy as np
import pytest

from conftest import central_difference
from reference import (
    DictThetaAdam,
    column,
    dict_config_probability,
    dict_probabilities,
    dict_rescaled_pair_grads,
    draw_gate,
    exhaustive_ce_grads,
    forward_collect,
    gate_bits,
    indicator_table,
    layer_cost,
    pair_of,
    set_mode,
    state_hash,
    two_config_ce_grads,
)
from nse.rng import make_rng
from nse.indicators import (
    FitnessIndicators,
    ThetaAdam,
    config_probability,
    config_probability_grads,
    indicator_sampler,
    indicator_update_step,
    prune,
    rescale_pair,
    rescaled_pair_grads,
    sample_architecture,
)
from nse.resources import ConstraintConfig, CostTable
from nse.space import (
    DeclaredLayer,
    DeclaredOp,
    GateVector,
    TraversalLedger,
    init_subset,
    shuffle_pool,
    sigmoid,
)
from nse.supernet import NetworkGeometry, SharedWeights, toy_op_family


def make_thetas(layer_values):
    return indicator_table(layer_values)


def make_probs(layer_values):
    return make_thetas(layer_values).probabilities()


def test_op_probability_reference_points():
    assert sigmoid(0.0) == pytest.approx(0.5)
    assert sigmoid(2.0) == pytest.approx(0.880797, abs=1e-6)
    assert sigmoid(40.0) == pytest.approx(1.0, abs=1e-12)
    for theta in (-3.7, -0.2, 0.9, 5.0):
        assert sigmoid(theta) + sigmoid(-theta) == pytest.approx(1.0)
        assert 0.0 < sigmoid(theta) < 1.0


def test_config_probability_examples():
    thetas = make_probs([{0: 0.0, 1: 0.0}])
    bits = gate_bits(GateVector(0, frozenset({0})), [0, 1])
    assert config_probability(bits, thetas) == pytest.approx(0.25)
    thetas = make_probs([{0: 0.0, 1: 2.0, 2: -2.0}])
    got = config_probability(gate_bits(GateVector(0, frozenset({0, 1})), [0, 1, 2]), thetas)
    assert got == pytest.approx(0.5 * 0.880797 * 0.880797, abs=1e-5)


def test_config_probabilities_sum_to_one():
    rng = make_rng("norm", 0)
    for k in (1, 3, 6, 12):
        thetas = make_probs([{s: float(rng.uniform(-4, 4)) for s in range(k)}])
        total = 0.0
        for bits in itertools.product([0, 1], repeat=k):
            gate = GateVector(0, frozenset(s for s in range(k) if bits[s]))
            total += config_probability(gate_bits(gate, range(k)), thetas)
        assert abs(total - 1.0) < 1e-9


def test_sample_config_saturated_indicator():
    thetas = make_thetas([{0: 20.0, 1: -20.0}])
    rng = make_rng("sat", 0)
    sampler = indicator_sampler(thetas, ["normal"])
    for _ in range(200):
        gate = draw_gate(sampler, rng, 0)
        assert 0 in gate.selected
        assert 1 not in gate.selected


def test_sample_config_monte_carlo_frequencies():
    thetas = make_thetas([{0: 0.7, 1: -1.1, 2: 0.0}])
    probs = [sigmoid(0.7), sigmoid(-1.1), 0.5]
    rng = make_rng("freq", 1)
    n = 100_000
    counts = np.zeros(3)
    sampler = indicator_sampler(thetas, ["normal"])
    for _ in range(n):
        gate = draw_gate(sampler, rng, 0)
        for s in gate.selected:
            counts[s] += 1
    for s in range(3):
        assert abs(counts[s] / n - probs[s]) < 0.01


def test_sample_config_zero_thetas_matches_uniform_law():
    thetas = make_thetas([{0: 0.0, 1: 0.0}])
    rng = make_rng("unif", 2)
    n = 60_000
    freq: dict = {}
    sampler = indicator_sampler(thetas, ["reduction"])
    for _ in range(n):
        gate = draw_gate(sampler, rng, 0)
        freq[gate.selected] = freq.get(gate.selected, 0) + 1
    for key in ((0,), (1,), (0, 1)):
        assert abs(freq.get(key, 0) / n - 1 / 3) < 0.012


def test_rescale_pair():
    assert rescale_pair(0.2, 0.6) == pytest.approx((0.25, 0.75))
    assert rescale_pair(0.3, 0.3) == pytest.approx((0.5, 0.5))
    a, b = rescale_pair(0.0004, 0.0012)
    assert (a, b) == pytest.approx((0.25, 0.75))
    with pytest.raises(ValueError):
        rescale_pair(0.0, 0.0)


def test_probability_gradient_reference_case():
    thetas = make_probs([{0: 0.0}])
    bits = gate_bits(GateVector(0, frozenset({0})), [0])
    grads = config_probability_grads(bits, thetas, config_probability(bits, thetas))
    assert grads[0] == pytest.approx(0.25)


def test_probability_gradients_match_finite_differences():
    rng = make_rng("fd", 3)
    for _ in range(200):
        k = int(rng.integers(1, 5))
        values = {s: float(rng.uniform(-4, 4)) for s in range(k)}
        slots = sorted(values)
        sel_a = frozenset(s for s in slots if rng.random() < 0.5)
        sel_b = frozenset(s for s in slots if rng.random() < 0.5)
        g_a, g_b = GateVector(0, sel_a), GateVector(0, sel_b)

        def at(vec):
            return make_probs([{s: vec[i] for i, s in enumerate(slots)}])

        base = np.array([values[s] for s in slots])
        thetas = at(base)
        b_a, b_b = gate_bits(g_a, slots), gate_bits(g_b, slots)
        d_hat = config_probability_grads(b_a, thetas, config_probability(b_a, thetas))
        d_tilde = rescaled_pair_grads(b_a, b_b, thetas, pair_of(b_a, b_b, thetas))
        fd_hat = central_difference(
            lambda v: config_probability(b_a, at(v)), base, step=1e-6
        )
        fd_tilde = central_difference(
            lambda v: rescale_pair(
                config_probability(b_a, at(v)), config_probability(b_b, at(v))
            )[0],
            base,
            step=1e-6,
        )
        for i, s in enumerate(slots):
            assert d_hat[s] == pytest.approx(fd_hat[i], rel=1e-6, abs=1e-10)
            assert d_tilde[s] == pytest.approx(fd_tilde[i], rel=1e-6, abs=1e-10)


def test_identical_configs_give_zero_ce_gradient():
    thetas = make_probs([{0: 0.3, 1: -0.7}])
    g = GateVector(0, frozenset({0}))
    grads = two_config_ce_grads(1.7, -0.4, g, g, [0, 1], thetas)
    assert all(v == pytest.approx(0.0, abs=1e-15) for v in grads.values())
    bits = gate_bits(g, [0, 1])
    d_tilde = rescaled_pair_grads(bits, bits, thetas, pair_of(bits, bits, thetas))
    assert all(v == pytest.approx(0.0, abs=1e-15) for v in d_tilde.tolist())


def test_penalty_chain_matches_finite_differences():
    # d(alpha * |R|^beta)/d theta through the rescaled pair costs, holding
    # the sampled configurations fixed
    rng = make_rng("chain", 4)
    cfg = ConstraintConfig(tau=150.0, alpha=1e-4, beta=2.0)
    num_layers = 3
    k = 3
    table = CostTable(
        cost={(l, s): float(rng.uniform(10, 90)) for l in range(num_layers) for s in range(k)},
        fixed_overhead=12.0,
    )
    for _ in range(30):
        base = rng.uniform(-3, 3, size=num_layers * k)
        pairs = []
        for li in range(num_layers):
            sel_a = frozenset(s for s in range(k) if rng.random() < 0.5)
            sel_b = frozenset(s for s in range(k) if rng.random() < 0.5)
            pairs.append((GateVector(li, sel_a), GateVector(li, sel_b)))

        def at(vec):
            return make_probs(
                [
                    {s: vec[li * k + s] for s in range(k)}
                    for li in range(num_layers)
                ]
            )

        def layer(thetas, li):
            return thetas[li * k : (li + 1) * k]

        def objective(vec):
            thetas = at(vec)
            r = table.fixed_overhead - cfg.tau
            for li, (g_a, g_b) in enumerate(pairs):
                pa = config_probability(gate_bits(g_a, range(k)), layer(thetas, li))
                pb = config_probability(gate_bits(g_b, range(k)), layer(thetas, li))
                ta, tb = rescale_pair(pa, pb)
                ca = sum(table.cost[(li, s)] for s in g_a.selected)
                cb = sum(table.cost[(li, s)] for s in g_b.selected)
                r += ta * ca + tb * cb
            return cfg.alpha * abs(r) ** cfg.beta

        thetas = at(base)
        r_val = table.fixed_overhead - cfg.tau
        layer_data = []
        for li, (g_a, g_b) in enumerate(pairs):
            pa = config_probability(gate_bits(g_a, range(k)), layer(thetas, li))
            pb = config_probability(gate_bits(g_b, range(k)), layer(thetas, li))
            ta, tb = rescale_pair(pa, pb)
            ca = sum(table.cost[(li, s)] for s in g_a.selected)
            cb = sum(table.cost[(li, s)] for s in g_b.selected)
            r_val += ta * ca + tb * cb
            layer_data.append((g_a, g_b, ca, cb))
        from nse.resources import penalty_gradient_wrt_r

        pg = penalty_gradient_wrt_r(r_val, cfg)
        analytic = np.zeros(num_layers * k)
        for li, (g_a, g_b, ca, cb) in enumerate(layer_data):
            b_a, b_b = gate_bits(g_a, range(k)), gate_bits(g_b, range(k))
            d_tilde = rescaled_pair_grads(
                b_a, b_b, layer(thetas, li), pair_of(b_a, b_b, layer(thetas, li))
            )
            for s, d in enumerate(d_tilde.tolist()):
                analytic[li * k + s] = pg * d * (ca - cb)
        fd = central_difference(objective, base, step=1e-5)
        # absolute floor guards coordinates whose true gradient is ~0
        assert np.all(np.abs(analytic - fd) <= 1e-5 * np.abs(fd) + 1e-9)


def _tiny_setup(num_layers=2, ops=1, theta_seed=0):
    family = toy_op_family()
    decl = [
        DeclaredLayer(role="normal", ops=[DeclaredOp(family[i].kind, dict(family[i].params)) for i in range(ops)])
        for _ in range(num_layers)
    ]
    pool = shuffle_pool(decl, seed=theta_seed)
    subset = init_subset(pool, capacity=ops, seed=0, ledger=TraversalLedger())
    geometry = NetworkGeometry(
        input_dim=5, stem_width=6, layer_widths=(6,) * num_layers, classes=3
    )
    weights = SharedWeights(subset, geometry, seed=9)
    return pool, subset, geometry, weights


def test_penalty_only_update_pushes_costly_ops_down():
    # single op per layer, every cost far above the target, huge alpha: the
    # resource term dominates and every indicator whose configs differ drops
    pool, subset, geometry, weights = _tiny_setup(num_layers=3, ops=1)
    table = CostTable(
        cost={(li, s): 50.0 for li in range(3) for s in range(1)}, fixed_overhead=0.0
    )
    cfg = ConstraintConfig(tau=0.0, alpha=1e6, beta=2.0)
    rng = make_rng("penalty-step", 0)
    x = make_rng("px", 0).normal(size=(8, 5))
    y = make_rng("py", 0).integers(0, 3, size=8)
    # pick a seed where g_a differs from g_b in every layer so the cost
    # gradient is live everywhere
    for attempt in range(50):
        thetas = FitnessIndicators.for_subset(subset)
        opt = ThetaAdam(lr=0.1)
        # replay the step's per-layer draw order: g_a then g_b per layer
        probe = make_rng("pair", attempt)
        sampler = indicator_sampler(thetas, subset.roles)
        g_as, g_bs = [], []
        for li in range(3):
            g_as.append(draw_gate(sampler, probe, li))
            g_bs.append(draw_gate(sampler, probe, li))
        if all(a.selected != b.selected for a, b in zip(g_as, g_bs)):
            step_rng = make_rng("pair", attempt)
            indicator_update_step(
                thetas, weights, subset, (x, y), table, cfg, opt, step_rng
            )
            slot = subset.active_slots(0)[0]
            assert all(
                thetas.values[column(thetas, li, subset.active_slots(li)[0])] < 0.0
                for li in range(3)
            )
            return
    pytest.fail("no sampling seed produced differing configuration pairs")


def test_indicator_step_leaves_weights_untouched():
    pool, subset, geometry, weights = _tiny_setup(num_layers=2, ops=2)
    before = state_hash(weights)
    thetas = FitnessIndicators.for_subset(subset)
    opt = ThetaAdam(lr=0.1)
    table = CostTable(cost={(li, s): 5.0 for li in range(2) for s in range(2)})
    cfg = ConstraintConfig(tau=10.0, alpha=1e-5, beta=2.0)
    x = make_rng("ix", 0).normal(size=(8, 5))
    y = make_rng("iy", 0).integers(0, 3, size=8)
    out = indicator_update_step(
        thetas, weights, subset, (x, y), table, cfg, opt, make_rng("step", 0)
    )
    assert state_hash(weights) == before
    assert math.isfinite(out["loss"])


def test_exhaustive_gradient_single_op_matches_direct_formula():
    thetas = make_probs([{0: 0.4}])
    rng = make_rng("ex", 0)
    x = rng.normal(size=(3, 4))
    out0 = rng.normal(size=(3, 4))
    u = rng.normal(size=(3, 4))
    grads = exhaustive_ce_grads(0, "normal", [0], thetas, {0: out0}, u, x)
    p = sigmoid(0.4)
    s_off = float(np.sum(u * x))
    s_on = float(np.sum(u * (x + out0) / 2.0))
    expected = s_on * p * (1 - p) + s_off * (1 - p) * (0 - p)
    assert grads[0] == pytest.approx(expected, rel=1e-12)


def _pruning_subset():
    decl = [
        DeclaredLayer(role="normal", ops=[DeclaredOp(f"op{i}") for i in range(4)]),
        DeclaredLayer(role="reduction", ops=[DeclaredOp(f"op{i}") for i in range(4)]),
    ]
    pool = shuffle_pool(decl, seed=1)
    subset = init_subset(pool, capacity=3, seed=2, ledger=TraversalLedger())
    return subset


def test_prune_drops_fresh_below_threshold():
    subset = _pruning_subset()
    thetas = FitnessIndicators.for_subset(subset)
    slots = subset.active_slots(0)
    thetas.values[column(thetas, 0, slots[0])] = -2.5
    removed = prune(thetas, subset, threshold=-2.0)
    assert (0, slots[0], -2.5) in removed
    assert slots[0] not in subset.active_slots(0)
    assert slots[0] not in thetas.slots[0]


def test_prune_keeps_inherited_ops():
    subset = _pruning_subset()
    slots = subset.active_slots(0)
    subset.entry(0, slots[0]).origin = "inherited"
    thetas = FitnessIndicators.for_subset(subset)
    thetas.values[column(thetas, 0, slots[0])] = -2.5
    removed = prune(thetas, subset, threshold=-2.0)
    assert removed == []
    assert slots[0] in subset.active_slots(0)


def test_prune_unlocked_when_rehearsal_disabled():
    subset = _pruning_subset()
    slots = subset.active_slots(0)
    subset.entry(0, slots[0]).origin = "inherited"
    thetas = FitnessIndicators.for_subset(subset)
    thetas.values[column(thetas, 0, slots[0])] = -2.5
    removed = prune(thetas, subset, threshold=-2.0, lock_inherited=False)
    assert (0, slots[0], -2.5) in removed


def test_prune_never_empties_reduction_layer():
    subset = _pruning_subset()
    thetas = FitnessIndicators.for_subset(subset)
    red_slots = subset.active_slots(1)
    for rank, slot in enumerate(red_slots):
        thetas.values[column(thetas, 1, slot)] = -5.0 - rank
    prune(thetas, subset, threshold=-2.0)
    survivors = subset.active_slots(1)
    assert len(survivors) == 1
    # the survivor is the best-scored path (least negative indicator)
    assert survivors == [red_slots[0]]


def test_prune_shrinks_active_set_strictly_when_it_fires():
    subset = _pruning_subset()
    thetas = FitnessIndicators.for_subset(subset)
    before = sum(len(subset.active_slots(li)) for li in range(2))
    slots = subset.active_slots(0)
    thetas.values[column(thetas, 0, slots[1])] = -3.0
    removed = prune(thetas, subset, threshold=-2.0)
    after = sum(len(subset.active_slots(li)) for li in range(2))
    assert removed and after == before - len(removed)


def test_sample_architecture_covers_all_layers():
    subset = _pruning_subset()
    thetas = FitnessIndicators.for_subset(subset)
    arch = sample_architecture(thetas, subset, make_rng("arch", 0))
    assert arch.num_layers == 2
    assert arch.selected(1)  # reduction layer never empty


def test_theta_adam_rejects_non_finite_gradient():
    thetas = make_thetas([{0: 0.0}])
    opt = ThetaAdam(lr=0.1)
    with pytest.raises(FloatingPointError):
        opt.step(thetas, np.array([float("nan")]))


def test_theta_adam_equals_per_slot_adam_bit_for_bit():
    # every slot is stepped on every call, so the one shared step count is
    # each slot's own count; a textbook per-slot Adam gives the same floats
    values = [{0: 0.3, 2: -1.1}, {1: 0.0, 4: 2.5, 5: -0.4}]
    keys = [(li, slot) for li, layer in enumerate(values) for slot in layer]
    thetas, opt = make_thetas(values), ThetaAdam(lr=0.05)
    expected = {key: values[key[0]][key[1]] for key in keys}
    b1, b2, eps = 0.9, 0.999, 1e-8
    moments = {key: (0.0, 0.0, 0) for key in keys}
    rng = make_rng("theta-adam", 0)
    for _ in range(12):
        grads = {key: float(g) for key, g in zip(keys, rng.normal(size=len(keys)))}
        opt.step(thetas, np.array([grads[key] for key in keys]))
        for key, g in grads.items():
            m, v, t = moments[key]
            m, v, t = b1 * m + (1 - b1) * g, b2 * v + (1 - b2) * g * g, t + 1
            moments[key] = m, v, t
            m_hat, v_hat = m / (1 - b1**t), v / (1 - b2**t)
            expected[key] -= 0.05 * m_hat / (math.sqrt(v_hat) + eps)
        assert dict(zip(keys, thetas.values.tolist())) == expected


def tape_indicator_update_step(
    thetas, weights, subset, val_batch, cost_table, constraint_cfg, optimizer, rng
):
    """Reference: the indicator step on the Tensor graph, as it was written
    before the explicit training pass (weight gradients formed and dropped,
    every gate-b branch recomputed), on the per-layer dict form of the
    table."""
    from nse import nn
    from nse.resources import penalty, penalty_gradient_wrt_r

    x, y = val_batch
    probs = dict_probabilities(thetas)
    sampler = indicator_sampler(thetas, subset.roles)
    gates_a, gates_b = [], []
    for li in range(subset.num_layers):
        gates_a.append(draw_gate(sampler, rng, li))
        gates_b.append(draw_gate(sampler, rng, li))
    set_mode(weights, "train")
    logits, layer_inputs, layer_outputs, _ = forward_collect(weights, gates_a, nn.Tensor(x))
    loss = nn.softmax_cross_entropy(logits, y)
    loss.backward()
    per_layer = []
    for li in range(subset.num_layers):
        out = layer_outputs[li]
        o_b = weights.layer_output_nograd(li, gates_b[li], layer_inputs[li].data)
        s_a = float(np.sum(out.grad * out.data))
        s_b = float(np.sum(out.grad * o_b))
        pt_a, pt_b = rescale_pair(
            dict_config_probability(gates_a[li], probs),
            dict_config_probability(gates_b[li], probs),
        )
        d_tilde = dict_rescaled_pair_grads(gates_a[li], gates_b[li], probs)
        c_a = layer_cost(gates_a[li], cost_table)
        c_b = layer_cost(gates_b[li], cost_table)
        per_layer.append((li, s_a, s_b, pt_a, pt_b, d_tilde, c_a, c_b))
    r_value = (
        cost_table.fixed_overhead
        - constraint_cfg.tau
        + sum(pt_a * c_a + pt_b * c_b for _, _, _, pt_a, pt_b, _, c_a, c_b in per_layer)
    )
    pg = penalty_gradient_wrt_r(r_value, constraint_cfg)
    grads = {}
    for li, s_a, s_b, _, _, d_tilde, c_a, c_b in per_layer:
        for slot, d in d_tilde.items():
            grads[(li, slot)] = (s_a - s_b) * d + pg * d * (c_a - c_b)
    values = [
        dict(zip(slots, thetas.values[lo : lo + len(slots)].tolist()))
        for slots, lo in zip(thetas.slots, thetas.bounds)
    ]
    optimizer.step(values, grads)
    thetas.values[:] = [v for layer in values for v in layer.values()]
    return {
        "loss": float(loss.data),
        "expected_cost_gap": r_value,
        "penalty": penalty(r_value, constraint_cfg),
    }


def test_indicator_step_matches_the_tape_bit_for_bit():
    roles = ("normal", "normal", "reduction")
    family = toy_op_family()
    decl = [
        DeclaredLayer(role=r, ops=[DeclaredOp(family[i].kind, dict(family[i].params)) for i in range(5)])
        for r in roles
    ]
    pool = shuffle_pool(decl, seed=4)
    subset = init_subset(pool, capacity=5, seed=0, ledger=TraversalLedger())
    geometry = NetworkGeometry(input_dim=5, stem_width=6, layer_widths=(6, 6, 8), classes=3)
    table = CostTable(
        cost={(li, s): 1.0 + li + 0.25 * s for li in range(3) for s in range(5)},
        fixed_overhead=0.5,
    )
    cfg = ConstraintConfig(tau=6.0, alpha=1e-2, beta=2.0)
    x = make_rng("tape-x", 0).normal(size=(16, 5))
    y = make_rng("tape-y", 0).integers(0, 3, size=16)

    def fresh_thetas():
        thetas = FitnessIndicators.for_subset(subset)
        thetas.values[:] = make_rng("tape-thetas", 0).normal(size=15)
        return thetas

    # a sampling seed whose gate-b configurations both share branches with
    # gate a and select branches gate a left out
    for attempt in range(100):
        probe = make_rng("tape-pair", attempt)
        sampler = indicator_sampler(fresh_thetas(), roles)
        pairs = [
            (draw_gate(sampler, probe, li).selected, draw_gate(sampler, probe, li).selected)
            for li in range(3)
        ]
        if any(set(a) & set(b) for a, b in pairs) and any(set(b) - set(a) for a, b in pairs):
            break
    else:
        pytest.fail("no sampling seed mixes shared and unshared gate-b branches")

    results = []
    for step, optimizer in (
        (indicator_update_step, ThetaAdam(lr=0.1)),
        (tape_indicator_update_step, DictThetaAdam(lr=0.1)),
    ):
        weights = SharedWeights(subset, geometry, seed=21)
        thetas = fresh_thetas()
        before = state_hash(weights)
        out = step(
            thetas, weights, subset, (x, y), table, cfg, optimizer,
            make_rng("tape-pair", attempt),
        )
        assert state_hash(weights) == before
        assert all(type(p) is np.ndarray for p in weights.params.values())
        results.append((out, thetas.values.tolist()))
    (fast, fast_thetas), (tape, tape_thetas) = results
    assert fast == tape
    assert fast_thetas == tape_thetas
    assert fast_thetas != fresh_thetas().values.tolist()  # the step moved the indicators


def _random_table(rng, max_slots=63):
    """A table of 1-3 layers of 1-``max_slots`` slots each, at random
    indicator values, and two random gate-bit vectors over it."""
    layers = []
    for _ in range(int(rng.integers(1, 4))):
        k = int(rng.integers(1, max_slots + 1))
        slots = sorted(rng.choice(80, size=k, replace=False).tolist())
        layers.append({s: float(rng.uniform(-6, 6)) for s in slots})
    thetas = make_thetas(layers)
    bits_a, bits_b = (rng.random(thetas.bounds[-1]) < 0.5 for _ in range(2))
    return thetas, bits_a, bits_b


def test_table_arithmetic_equals_the_dict_forms_bit_for_bit():
    # the configuration product, the pair gradients of one layer and of the
    # whole table, and Adam, against the per-slot dict forms they replaced
    rng = make_rng("table-vs-dict", 0)
    for _ in range(400):
        thetas, bits_a, bits_b = _random_table(rng)
        probs, dict_probs = thetas.probabilities(), dict_probabilities(thetas)
        pairs, want = [], []
        for li, (slots, lo) in enumerate(zip(thetas.slots, thetas.bounds)):
            cols = slice(lo, lo + len(slots))
            g_a = GateVector(li, [s for s, b in zip(slots, bits_a[cols]) if b])
            g_b = GateVector(li, [s for s, b in zip(slots, bits_b[cols]) if b])
            p_a = config_probability(bits_a[cols], probs[cols])
            p_b = config_probability(bits_b[cols], probs[cols])
            assert p_a == dict_config_probability(g_a, dict_probs)
            assert p_b == dict_config_probability(g_b, dict_probs)
            layer = list(dict_rescaled_pair_grads(g_a, g_b, dict_probs).values())
            pair = pair_of(bits_a[cols], bits_b[cols], probs[cols])
            got = rescaled_pair_grads(bits_a[cols], bits_b[cols], probs[cols], pair)
            assert got.tolist() == layer
            pairs.append(pair)
            want += layer
        pair = tuple(np.repeat(col, np.diff(thetas.bounds)) for col in zip(*pairs))
        assert rescaled_pair_grads(bits_a, bits_b, probs, pair).tolist() == want

        keys = [(li, s) for li, slots in enumerate(thetas.slots) for s in slots]
        values = [
            dict(zip(slots, thetas.values[lo : lo + len(slots)].tolist()))
            for slots, lo in zip(thetas.slots, thetas.bounds)
        ]
        opt, ref = ThetaAdam(lr=0.3), DictThetaAdam(lr=0.3)
        for _ in range(3):
            grads = rng.normal(size=len(keys)) * 10.0 ** rng.integers(-8, 3)
            opt.step(thetas, grads)
            ref.step(values, dict(zip(keys, grads.tolist())))
            assert thetas.values.tolist() == [values[li][s] for li, s in keys]


def test_probabilities_are_the_scalar_sigmoid_bit_for_bit():
    # numpy's exp differs from the C library's in the last bit on some of
    # these values, so a table sigmoid built on np.exp fails here
    rng = make_rng("table-sigmoid", 0)
    values = np.concatenate([rng.uniform(-40, 40, 10_000), rng.normal(0, 2, 10_000)])
    thetas = make_thetas([{s: v for s, v in enumerate(values.tolist())}])
    assert thetas.probabilities().tolist() == [sigmoid(v) for v in values.tolist()]


def test_prune_between_adam_steps_keeps_each_slot_its_own_moments():
    decl = [
        DeclaredLayer(role=role, ops=[DeclaredOp(f"op{i}") for i in range(8)])
        for role in ("normal", "reduction", "normal")
    ]
    subset = init_subset(shuffle_pool(decl, seed=3), capacity=6, seed=1, ledger=TraversalLedger())
    thetas = FitnessIndicators.for_subset(subset)
    rng = make_rng("prune-adam", 0)
    thetas.values[:] = rng.uniform(-0.4, 0.4, size=thetas.bounds[-1])
    keys = [(li, s) for li, slots in enumerate(thetas.slots) for s in slots]
    expected = dict(zip(keys, thetas.values.tolist()))
    moments = {key: (0.0, 0.0) for key in keys}
    opt, lr, b1, b2, eps = ThetaAdam(lr=0.5), 0.5, 0.9, 0.999, 1e-8

    def step(t):
        live = [(li, s) for li, slots in enumerate(thetas.slots) for s in slots]
        grads = dict(zip(live, rng.normal(size=len(live)).tolist()))
        opt.step(thetas, np.array(list(grads.values())))
        for key, g in grads.items():
            m, v = moments[key]
            m, v = b1 * m + (1 - b1) * g, b2 * v + (1 - b2) * g * g
            moments[key] = m, v
            expected[key] -= lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)
        return live

    step(1)
    removed = prune(thetas, subset, threshold=0.0)
    assert removed and len(removed) < len(keys) - 3  # some pruned, some kept
    live = step(2)
    assert [key for key in keys if key not in live] == sorted((li, s) for li, s, _ in removed)
    assert thetas.values.tolist() == [expected[key] for key in live]
    assert thetas.m.tolist() == [moments[key][0] for key in live]
    assert thetas.v.tolist() == [moments[key][1] for key in live]
