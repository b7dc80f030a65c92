"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Every tolerance is pinned here; the heavy search
criteria use frozen seeds and finish well inside their stated budgets.
"""

import itertools
import json
import time

import numpy as np
import pytest

from conftest import central_difference
from reference import (
    branch_forward,
    brute_force_pareto,
    column,
    constrained_optimum,
    draw_gate,
    enumerate_architectures,
    exhaustive_ce_grads,
    gate_bits,
    indicator_table,
    layer_forward,
    pair_of,
    sample_space_architecture,
    set_mode,
    state_hash,
    train_architecture,
    two_config_ce_grads,
)
from nse.cli import main as cli_main
from nse.engine import Engine, OraclePhase, RetrievalConfig, SupernetPhase, retrieve_pareto
from nse.indicators import (
    FitnessIndicators,
    config_probability,
    config_probability_grads,
    indicator_sampler,
    prune,
    rescale_pair,
    rescaled_pair_grads,
)
from nse.nn import Tensor, affine, normalize, relu, softmax_cross_entropy, tanh
from nse.oracle import OracleEvaluator, SyntheticBenchmark, oracle_score
from nse.resources import (
    ConstraintConfig,
    CostTable,
    architecture_cost,
    penalty,
    penalty_gradient_wrt_r,
)
from nse.rng import make_rng
from nse.space import (
    Architecture,
    DeclaredLayer,
    DeclaredOp,
    GateSampler,
    GateVector,
    TraversalLedger,
    count_architectures,
    full_subset,
    init_subset,
    replenish,
    sample_uniform_architecture,
    shuffle_pool,
)
from nse.supernet import (
    DatasetConfig,
    InferenceCache,
    NetworkGeometry,
    SharedWeights,
    ToyDataset,
    TrainingConfig,
    build_cost_table,
    evaluate as supernet_evaluate,
    make_recal_batches,
    toy_op_family,
)


def report(criterion: int, detail: str) -> None:
    print(f"\n[criterion {criterion}] PASS: {detail}")


def opaque_pool(roles, n, seed=0):
    decl = [
        DeclaredLayer(role=r, ops=[DeclaredOp(kind=f"op{i:02d}") for i in range(n)])
        for r in roles
    ]
    return shuffle_pool(decl, seed=seed)


def toy_pool(roles, n=12, seed=0):
    family = toy_op_family()
    decl = [
        DeclaredLayer(role=r, ops=[DeclaredOp(op.kind, dict(op.params)) for op in family[:n]])
        for r in roles
    ]
    return shuffle_pool(decl, seed=seed)


# ---------------------------------------------------------------------------
# Criterion 1: combinatorics on the reference geometry


def test_criterion_1_combinatorics():
    started = time.perf_counter()
    exact = count_architectures([27] * 22, 5, ["normal"] * 16 + ["reduction"] * 6)
    digits = str(exact)
    exponent = len(digits) - 1
    mantissa = round(int(digits[:6]) / 1e5, 1)
    assert exponent == 110
    assert mantissa == 1.4
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(1, f"count = {digits[0]}.{digits[1:3]}...e{exponent} in {elapsed*1000:.1f} ms")


# ---------------------------------------------------------------------------
# Criterion 2: configuration probabilities are a normalized distribution


def test_criterion_2_probability_normalization():
    started = time.perf_counter()
    rng = make_rng("acceptance", "norm")
    worst = 0.0
    for case in range(100):
        k = int(rng.integers(1, 13))
        thetas = indicator_table(
            [{s: float(rng.uniform(-4, 4)) for s in range(k)}]
        ).probabilities()
        total = 0.0
        for bits in itertools.product([0, 1], repeat=k):
            gate = GateVector(0, frozenset(s for s in range(k) if bits[s]))
            total += config_probability(gate_bits(gate, range(k)), thetas)
        worst = max(worst, abs(total - 1.0))
    assert worst < 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(2, f"100 random indicator vectors, worst |sum-1| = {worst:.2e} in {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# Criterion 3: gradient oracles


def test_criterion_3a_probability_chain_gradients():
    started = time.perf_counter()
    rng = make_rng("acceptance", "fd-prob")
    checked = 0
    for case in range(1000):
        k = int(rng.integers(1, 5))
        slots = list(range(k))
        base = rng.uniform(-4, 4, size=k)
        sel_a = frozenset(s for s in slots if rng.random() < 0.5)
        sel_b = frozenset(s for s in slots if rng.random() < 0.5)
        g_a, g_b = GateVector(0, sel_a), GateVector(0, sel_b)

        def at(vec):
            return indicator_table([{s: vec[i] for i, s in enumerate(slots)}]).probabilities()

        thetas = at(base)
        b_a, b_b = gate_bits(g_a, slots), gate_bits(g_b, slots)
        d_hat = config_probability_grads(b_a, thetas, config_probability(b_a, thetas))
        d_tilde = rescaled_pair_grads(b_a, b_b, thetas, pair_of(b_a, b_b, thetas))
        # step 1e-5 keeps central-difference roundoff (~1e-11) below the
        # absolute floor that guards exactly-zero coordinates
        fd_hat = central_difference(lambda v: config_probability(b_a, at(v)), base, step=1e-5)
        fd_tilde = central_difference(
            lambda v: rescale_pair(
                config_probability(b_a, at(v)), config_probability(b_b, at(v))
            )[0],
            base,
            step=1e-5,
        )
        for i, s in enumerate(slots):
            assert abs(d_hat[s] - fd_hat[i]) <= 1e-6 * abs(fd_hat[i]) + 1e-9
            assert abs(d_tilde[s] - fd_tilde[i]) <= 1e-6 * abs(fd_tilde[i]) + 1e-9
            checked += 2
    elapsed = time.perf_counter() - started
    report(3, f"(a) {checked} probability-chain derivatives at 1e-6 rel in {elapsed:.1f} s")


def test_criterion_3b_autodiff_graph_gradients():
    started = time.perf_counter()
    for seed in range(20):
        rng = make_rng("acceptance", "fd-net", seed)
        batch, d_in, d_h, classes = 5, 4, 6, 3
        x = rng.normal(size=(batch, d_in))
        labels = rng.integers(0, classes, size=batch)
        params = {
            "w1": rng.normal(size=(d_in, d_h)) * 0.6,
            "b1": rng.normal(size=d_h) * 0.2,
            "w2": rng.normal(size=(d_h, classes)) * 0.6,
            "b2": rng.normal(size=classes) * 0.2,
        }

        def forward(values):
            t = {k: Tensor(v, requires_grad=True) for k, v in values.items()}
            h = affine(Tensor(x), t["w1"], t["b1"])
            h = relu(h) if seed % 2 == 0 else tanh(h)
            h = normalize(h)
            logits = affine(h, t["w2"], t["b2"])
            return softmax_cross_entropy(logits, labels), t

        loss, tensors = forward(params)
        loss.backward()
        for name, value in params.items():
            def f(v, name=name):
                trial = dict(params)
                trial[name] = v
                return float(forward(trial)[0].data)

            fd = central_difference(f, value, step=1e-5)
            got = tensors[name].grad
            denom = np.maximum(np.abs(fd), 1e-6)
            assert np.max(np.abs(got - fd) / denom) < 1e-4
    elapsed = time.perf_counter() - started
    report(3, f"(b) 20 full graphs match finite differences at 1e-4 rel in {elapsed:.1f} s")


def test_criterion_3c_penalty_path_gradients():
    started = time.perf_counter()
    rng = make_rng("acceptance", "fd-penalty")
    cfg = ConstraintConfig(tau=140.0, alpha=3e-4, beta=2.0)
    num_layers, k = 3, 3
    table = CostTable(
        cost={(l, s): float(rng.uniform(5, 80)) for l in range(num_layers) for s in range(k)},
        fixed_overhead=9.0,
    )
    for case in range(60):
        base = rng.uniform(-3, 3, size=num_layers * k)
        pairs = []
        for li in range(num_layers):
            sel_a = frozenset(s for s in range(k) if rng.random() < 0.5)
            sel_b = frozenset(s for s in range(k) if rng.random() < 0.5)
            pairs.append((GateVector(li, sel_a), GateVector(li, sel_b)))

        def at(vec):
            return indicator_table(
                [{s: vec[li * k + s] for s in range(k)} for li in range(num_layers)]
            ).probabilities()

        def layer(thetas, li):
            return thetas[li * k : (li + 1) * k]

        def r_of(thetas):
            r = table.fixed_overhead - cfg.tau
            for li, (g_a, g_b) in enumerate(pairs):
                ta, tb = rescale_pair(
                    config_probability(gate_bits(g_a, range(k)), layer(thetas, li)),
                    config_probability(gate_bits(g_b, range(k)), layer(thetas, li)),
                )
                r += ta * sum(table.cost[(li, s)] for s in g_a.selected)
                r += tb * sum(table.cost[(li, s)] for s in g_b.selected)
            return r

        thetas = at(base)
        pg = penalty_gradient_wrt_r(r_of(thetas), cfg)
        analytic = np.zeros(num_layers * k)
        for li, (g_a, g_b) in enumerate(pairs):
            ca = sum(table.cost[(li, s)] for s in g_a.selected)
            cb = sum(table.cost[(li, s)] for s in g_b.selected)
            b_a, b_b = gate_bits(g_a, range(k)), gate_bits(g_b, range(k))
            d_tilde = rescaled_pair_grads(
                b_a, b_b, layer(thetas, li), pair_of(b_a, b_b, layer(thetas, li))
            )
            for s, d in enumerate(d_tilde.tolist()):
                analytic[li * k + s] = pg * d * (ca - cb)
        fd = central_difference(lambda v: penalty(r_of(at(v)), cfg), base, step=1e-5)
        assert np.all(np.abs(analytic - fd) <= 1e-5 * np.abs(fd) + 1e-9)
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    report(3, f"(c) 60 penalty-path gradients at 1e-5 rel in {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# Criterion 4: the two-configuration estimator tracks the exhaustive gradient


def _mixture(outputs, identity_input, selected):
    parts = [outputs[s] for s in selected]
    if identity_input is not None:
        parts = [identity_input] + parts
    return sum(parts) / len(parts) if parts else identity_input


def test_criterion_4_two_config_estimator_direction():
    # indicators at their initialization (all zero), where the rescaled
    # two-configuration estimator is an unbiased direction estimate up to a
    # common positive factor; directions are compared after normalization
    started = time.perf_counter()
    resamples = 50_000
    for layer_k, case_seed in ((4, 0), (3, 1), (4, 2), (2, 3)):
        rng = make_rng("acceptance", "eq67", case_seed)
        features = 10
        identity_input = rng.normal(size=features)
        outputs = {s: rng.normal(size=features) for s in range(layer_k)}
        upstream = rng.normal(size=features)
        table = indicator_table([{s: 0.0 for s in range(layer_k)}])
        slots, thetas = table.slots[0], table.probabilities()

        exact = exhaustive_ce_grads(
            0, "normal", slots, thetas, outputs, upstream, identity_input
        )
        exact_vec = np.array([exact[s] for s in range(layer_k)])

        mix_cache = {}
        for bits in itertools.product([0, 1], repeat=layer_k):
            sel = tuple(s for s in range(layer_k) if bits[s])
            mix_cache[sel] = float(
                np.sum(upstream * _mixture(outputs, identity_input, sel))
            )
        acc = np.zeros(layer_k)
        sampler = indicator_sampler(table, ["normal"])
        for _ in range(resamples):
            g_a = draw_gate(sampler, rng, 0)
            g_b = draw_gate(sampler, rng, 0)
            grads = two_config_ce_grads(
                mix_cache[g_a.selected], mix_cache[g_b.selected], g_a, g_b, slots, thetas
            )
            for s, g in grads.items():
                acc[s] += g
        est_vec = acc / resamples

        v = est_vec / np.linalg.norm(est_vec)
        w = exact_vec / np.linalg.norm(exact_vec)
        mask = np.abs(w) > 1e-3
        assert mask.any()
        assert np.all(np.sign(v[mask]) == np.sign(w[mask]))
        rel = np.abs(np.abs(v[mask]) - np.abs(w[mask])) / np.abs(w[mask])
        assert np.max(rel) < 0.15, rel
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    report(
        4,
        f"4 layer instances, 50k resamples each: signs agree, worst direction "
        f"error within 15% in {elapsed:.1f} s",
    )


# ---------------------------------------------------------------------------
# Criterion 5: sampled retrieval equals brute force when sampling is exhaustive


def test_criterion_5_pareto_oracle_equivalence():
    started = time.perf_counter()
    geometries = [
        (("normal", "reduction"), 5),
        (("normal", "normal", "reduction"), 4),
        (("normal", "reduction", "normal"), 4),
        (("reduction", "normal"), 6),
    ]
    for case in range(20):
        roles, n = geometries[case % len(geometries)]
        pool = opaque_pool(roles, n, seed=case)
        subset = full_subset(pool)
        bench = SyntheticBenchmark.generate(pool, seed=100 + case)
        records = []
        for arch in enumerate_architectures(subset):
            acc, cost = oracle_score(arch, bench)
            records.append((arch, acc, cost))
        assert len(records) <= 20_000
        costs = sorted(r[2] for r in records)
        tau = costs[int(0.45 * len(costs))]
        exact = brute_force_pareto(subset, bench, tau)
        d = sum(1 for r in records if r[2] <= tau)
        corrected, raw, _, diag = retrieve_pareto(
            GateSampler.uniform(subset),
            OracleEvaluator(bench),
            [],
            RetrievalConfig(samples=d),
            ConstraintConfig(tau=tau),
            make_rng("acceptance", "pareto", case),
        )
        assert not diag["stalled"]
        assert [
            (r.architecture.encoding(), r.accuracy, r.cost) for r in raw
        ] == [(r.architecture.encoding(), r.accuracy, r.cost) for r in exact]
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    report(5, f"20 random benchmarks, raw front == brute force in {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# Criteria 6 and 8: oracle evolution effectiveness and the L&R ablation

ORACLE_ROLES = ("normal", "normal", "normal", "reduction")
ORACLE_TAU = 300.0


def _oracle_setting():
    pool = opaque_pool(ORACLE_ROLES, 12, seed=0)
    bench = SyntheticBenchmark.generate(pool, seed=42)
    return pool, bench


def _run_oracle_seed(pool, bench, seed, lock_and_rehearse):
    engine = Engine(
        pool=pool,
        capacity=4,
        max_rounds=3,
        constraint=ConstraintConfig(tau=ORACLE_TAU),
        retrieval=RetrievalConfig(samples=500),
        master_seed=seed,
        phase=OraclePhase(bench),
        lock_and_rehearse=lock_and_rehearse,
    )
    summary = engine.run()
    archive = [r.accuracy for r in summary.state.best_archive]
    fronts = [max(rec.accuracy for rec in res.front) for res in summary.results]
    return archive, fronts


def test_criterion_6_oracle_evolution_effectiveness():
    started = time.perf_counter()
    pool, bench = _oracle_setting()
    optimum, _ = constrained_optimum(
        full_subset(pool), bench, ORACLE_TAU, max_ops_per_layer=4
    )
    bests = []
    for seed in range(10):
        archive, _ = _run_oracle_seed(pool, bench, seed, lock_and_rehearse=True)
        assert all(b >= a for a, b in zip(archive, archive[1:]))
        bests.append(archive[-1])
    median = float(np.median(bests))
    assert median >= 0.95 * optimum
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    report(
        6,
        f"median best {median:.4f} vs optimum {optimum:.4f} "
        f"(ratio {median/optimum:.3f} >= 0.95), archives monotone on 10/10 seeds, "
        f"{elapsed:.0f} s",
    )


def test_criterion_8_lock_and_rehearse_ablation():
    started = time.perf_counter()
    pool, bench = _oracle_setting()
    on_bests, on_regressions = [], 0
    off_bests, off_regressions = [], 0
    for seed in range(10):
        archive_on, fronts_on = _run_oracle_seed(pool, bench, seed, True)
        archive_off, fronts_off = _run_oracle_seed(pool, bench, seed, False)
        on_bests.append(archive_on[-1])
        off_bests.append(archive_off[-1])
        if any(b < a for a, b in zip(fronts_on, fronts_on[1:])):
            on_regressions += 1
        if any(b < a for a, b in zip(fronts_off, fronts_off[1:])):
            off_regressions += 1
    assert on_regressions == 0
    assert (float(np.median(off_bests)) < float(np.median(on_bests))) or (
        off_regressions >= 3
    )
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    report(
        8,
        f"without L&R: {off_regressions}/10 seeds regress "
        f"(median {np.median(off_bests):.4f}); with L&R: 0 regressions "
        f"(median {np.median(on_bests):.4f}), {elapsed:.0f} s",
    )


# ---------------------------------------------------------------------------
# Criterion 7: supernet evolution effectiveness

SUPERNET_TAU = 3.5


def _supernet_setting():
    pool = toy_pool(ORACLE_ROLES)
    geometry = NetworkGeometry(
        input_dim=16, stem_width=24, layer_widths=(24, 24, 24, 32), classes=4
    )
    table = build_cost_table(pool, geometry)
    dataset = ToyDataset.generate(
        DatasetConfig(
            seed=5,
            input_dim=16,
            classes=4,
            train_size=8000,
            val_size=2000,
            clusters_per_class=32,
            noise=0.3,
            radius=2.6,
        )
    )
    training = TrainingConfig(steps=900, batch_size=128, lr=0.1, warmup_steps=40)
    return pool, geometry, table, dataset, training


def test_criterion_7_supernet_evolution_effectiveness():
    started = time.perf_counter()
    pool, geometry, table, dataset, training = _supernet_setting()
    space = full_subset(pool)
    gaps = []
    for seed in range(5):
        engine = Engine(
            pool=pool,
            capacity=4,
            max_rounds=2,
            constraint=ConstraintConfig(
                tau=SUPERNET_TAU, alpha=4e-3, beta=2.0, edging_margin=0.1
            ),
            retrieval=RetrievalConfig(
                samples=180, auxiliary=18, recal_batches=16, recal_batch_size=128
            ),
            master_seed=seed,
            phase=SupernetPhase(dataset, geometry, training, table),
        )
        summary = engine.run()
        best = max(summary.results[-1].front, key=lambda r: r.accuracy)
        best_acc = train_architecture(
            best.architecture, pool, geometry, dataset, training, seed=1000 + seed
        )
        rng = make_rng("baseline", seed)
        baseline = []
        draws = 0
        while len(baseline) < 10 and draws < 150_000:
            arch = sample_space_architecture(space, 4, rng)
            draws += 1
            if architecture_cost(arch, table) <= SUPERNET_TAU:
                baseline.append(arch)
        assert len(baseline) == 10, "baseline sampling starved"
        base_accs = [
            train_architecture(a, pool, geometry, dataset, training, seed=2000 + 10 * seed + i)
            for i, a in enumerate(baseline)
        ]
        gaps.append(best_acc - float(np.mean(base_accs)))
    mean_gap = float(np.mean(gaps))
    assert mean_gap >= 0.02
    elapsed = time.perf_counter() - started
    assert elapsed < 1800.0
    report(
        7,
        f"searched-vs-random retrain gap {mean_gap*100:.2f} points "
        f"(per-seed {[round(g*100, 2) for g in gaps]}), {elapsed:.0f} s",
    )


# ---------------------------------------------------------------------------
# Criterion 9: structural invariants


def test_criterion_9_structural_invariants(tmp_path):
    started = time.perf_counter()

    # pruning exceptions: inherited lock and last reduction path
    pool = opaque_pool(("normal", "reduction"), 6)
    subset = init_subset(pool, capacity=3, seed=2, ledger=TraversalLedger())
    slots0 = subset.active_slots(0)
    subset.entry(0, slots0[0]).origin = "inherited"
    thetas = FitnessIndicators.for_subset(subset)
    thetas.values[column(thetas, 0, slots0[0])] = -9.0
    for slot in subset.active_slots(1):
        thetas.values[column(thetas, 1, slot)] = -9.0
    prune(thetas, subset, threshold=-2.0)
    assert slots0[0] in subset.active_slots(0)
    assert len(subset.active_slots(1)) == 1

    # replenishment cardinality and no retraversal
    pool = opaque_pool(("normal",), 12)
    ledger = TraversalLedger()
    first = init_subset(pool, capacity=5, seed=0, ledger=ledger)
    seen_before = set(ledger.seen)
    union = (frozenset(first.active_slots(0)[:2]),)
    second = replenish(union, pool, ledger, capacity=5, seed=1)
    assert len(second.active_entries(0)) == 5
    fresh = [e for e in second.layers[0] if e.origin == "fresh"]
    assert len(fresh) == 3
    assert all(e.descriptor.key not in seen_before for e in fresh)

    # reduction non-emptiness under uniform sampling
    red_pool = opaque_pool(("reduction",), 4)
    red_subset = init_subset(red_pool, capacity=4, seed=0, ledger=TraversalLedger())
    rng = make_rng("acc9", "red")
    assert all(
        sample_uniform_architecture(red_subset, rng).selected(0)
        for _ in range(500)
    )

    # identity gate fixedness: the identity path is always mixed in
    tpool = toy_pool(("normal", "reduction"), n=4)
    tsubset = init_subset(tpool, capacity=2, seed=0, ledger=TraversalLedger())
    geometry = NetworkGeometry(input_dim=4, stem_width=6, layer_widths=(6, 8), classes=3)
    weights = SharedWeights(tsubset, geometry, seed=1)
    set_mode(weights, "eval")
    x = Tensor(make_rng("acc9", "x").normal(size=(3, 6)))
    assert layer_forward(weights, 0, GateVector(0, frozenset()), x) is x
    slot = tsubset.active_slots(0)[0]
    branch = branch_forward(weights, 0, slot, x)
    mixed = layer_forward(weights, 0, GateVector(0, frozenset({slot})), x)
    assert np.allclose(mixed.data, (x.data + branch.data) / 2.0, atol=1e-12)

    # evaluation purity: weights bit-identical after evaluation
    data = ToyDataset.generate(
        DatasetConfig(seed=2, input_dim=4, classes=3, train_size=300, val_size=150)
    )
    recal = make_recal_batches(data, 2, 32, make_rng("acc9", "recal"))
    arch = Architecture.from_encoding(
        [tsubset.active_slots(0)[:1], tsubset.active_slots(1)[:1]]
    )
    before = state_hash(weights)
    supernet_evaluate(InferenceCache(weights, data, recal), arch)
    assert state_hash(weights) == before

    # bitwise run determinism through the CLI
    cfg = {
        "master_seed": 3,
        "output_dir": str(tmp_path / "det"),
        "evaluator": "oracle",
        "max_rounds": 2,
        "k_per_layer": 3,
        "pool": {"num_layers": 2, "ops_per_layer": 6, "reduction_layers": [1], "preset": "opaque"},
        "constraint": {"tau": 200.0},
        "retrieval": {"samples": 25},
        "benchmark": {"seed": 1},
    }
    cfg_path = tmp_path / "det.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli_main(["run", str(cfg_path)]) == 0
    snapshots = {}
    for name in ("pareto.json", "subset.json", "ledger.json"):
        snapshots[name] = (tmp_path / "det" / "round_002" / name).read_bytes()
    assert cli_main(["run", str(cfg_path)]) == 0
    for name, blob in snapshots.items():
        assert (tmp_path / "det" / "round_002" / name).read_bytes() == blob

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(9, f"structural invariants hold in {elapsed:.1f} s")
