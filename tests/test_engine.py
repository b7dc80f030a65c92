import re

import numpy as np
import pytest

from conftest import reference_draw
from reference import (
    brute_force_pareto,
    enumerate_architectures,
    reference_keep_draws,
    reference_retrieve_pareto,
)
from nse.rng import make_rng
from nse.engine import (
    Engine,
    EngineError,
    OraclePhase,
    RetrievalConfig,
    SupernetPhase,
    _keep_draws,
    distribution_estimate,
    edging_filter,
    retrieve_pareto,
)
from nse.oracle import OracleEvaluator, SyntheticBenchmark, oracle_score
from nse.pareto import EvaluationRecord
from nse.resources import ConstraintConfig, CostTable, MaskCost, architecture_cost
from nse.space import (
    Architecture,
    DeclaredLayer,
    DeclaredOp,
    GateSampler,
    SubsetEntry,
    SubsetState,
    TraversalLedger,
    full_subset,
    init_subset,
    shuffle_pool,
)
from nse.supernet import (
    DatasetConfig,
    NetworkGeometry,
    ToyDataset,
    TrainingConfig,
    build_cost_table,
    toy_op_family,
)


def opaque_pool(roles, n, seed=0):
    decl = [
        DeclaredLayer(role=r, ops=[DeclaredOp(kind=f"op{i}") for i in range(n)])
        for r in roles
    ]
    return shuffle_pool(decl, seed=seed)


def oracle_engine(
    pool,
    bench,
    tau,
    *,
    capacity=3,
    max_rounds=3,
    samples=60,
    auxiliary=0,
    seed=0,
    lock_and_rehearse=True,
):
    return Engine(
        pool=pool,
        capacity=capacity,
        max_rounds=max_rounds,
        constraint=ConstraintConfig(tau=tau, edging_margin=0.1),
        retrieval=RetrievalConfig(samples=samples, auxiliary=auxiliary),
        master_seed=seed,
        phase=OraclePhase(bench),
        lock_and_rehearse=lock_and_rehearse,
    )


class StubEvaluator:
    """Fixed (accuracy, cost) per single-slot one-layer encoding."""

    def __init__(self, scores):
        self.scores = scores
        # every slot of ``CyclingSampler``, which ``MaskCost`` prices at construction
        costs = {(0, s): 0.0 for s in range(8)}
        self.table = CostTable(costs | {(0, enc[0][0]): cost for enc, (_, cost) in scores.items()})

    def evaluate(self, sampler, draws):
        return [self.scores[sampler.decode(row).encoding()][0] for row, _ in draws]


class CyclingSampler(GateSampler):
    """Replays fixed one-layer architectures over slots 0-7 in order."""

    def __init__(self, archs):
        super().__init__([range(8)], ["normal"], [[0.5] * 8])
        self.rows = [[sum(1 << s for s in arch.selected(0))] for arch in archs]
        self.i = 0

    def draw(self, rng, n):
        rows = [self.rows[(self.i + k) % len(self.rows)] for k in range(n)]
        self.i += n
        return np.array(rows, dtype=np.int64).reshape(n, 1)


def test_engine_runs_on_a_stub_phase_without_a_backend():
    # no benchmark, dataset or network: the phase scores the subset's one-op
    # architectures from a table, and only the most accurate is on the front
    pool = opaque_pool(("normal",), 8)
    archs = [Architecture.from_encoding([[s]]) for s in range(8)]
    evaluator = StubEvaluator({a.encoding(): (0.1 * (s + 1), 10.0) for s, a in enumerate(archs)})

    def phase(engine, state, timings):
        sampler = CyclingSampler([archs[s] for s in state.subset.active_slots(0)])
        return evaluator, sampler, None, {}

    engine = Engine(
        pool=pool,
        capacity=3,
        max_rounds=3,
        constraint=ConstraintConfig(tau=100.0),
        retrieval=RetrievalConfig(samples=3),
        master_seed=0,
        phase=phase,
    )
    summary = engine.run()
    assert len(summary.results) == len(summary.state.best_archive) == 3
    assert not summary.shortage
    seen = set()
    for result, best in zip(summary.results, summary.state.best_archive):
        seen |= {e["slot"] for e in result.subset_snapshot["layers"][0]["entries"]}
        assert best.accuracy == 0.1 * (max(seen) + 1)
        assert result.indicator_snapshot is None


def test_retrieve_matches_brute_force_with_exhaustive_sampling():
    pool = opaque_pool(("normal", "reduction"), 4)
    bench = SyntheticBenchmark.generate(pool, seed=2)
    subset = full_subset(pool)
    tau = bench.overhead + 170.0
    exact = brute_force_pareto(subset, bench, tau)
    in_constraint = sum(
        1
        for arch in enumerate_architectures(subset)
        if oracle_score(arch, bench)[1] <= tau
    )
    assert in_constraint >= 20
    evaluator = OracleEvaluator(bench)
    corrected, raw, _, diag = retrieve_pareto(
        GateSampler.uniform(subset),
        evaluator,
        [],
        RetrievalConfig(samples=in_constraint),
        ConstraintConfig(tau=tau),
        make_rng("exhaustive", 0),
    )
    assert not diag["stalled"]
    assert [(r.architecture.encoding(), r.accuracy, r.cost) for r in raw] == [
        (r.architecture.encoding(), r.accuracy, r.cost) for r in exact
    ]
    assert corrected == raw  # no auxiliary samples requested


def test_rehearsed_member_survives_when_still_best():
    pool = opaque_pool(("normal",), 6)
    bench = SyntheticBenchmark.generate(pool, seed=3)
    subset = full_subset(pool)
    tau = bench.overhead + 400.0
    exact = brute_force_pareto(subset, bench, tau)
    champion = max(exact, key=lambda r: r.accuracy)
    # sample only a handful of models; the rehearsed champion must remain
    corrected, raw, _, _ = retrieve_pareto(
        GateSampler.uniform(subset),
        OracleEvaluator(bench),
        [champion],
        RetrievalConfig(samples=5),
        ConstraintConfig(tau=tau),
        make_rng("rehearse", 1),
    )
    encodings = {r.architecture.encoding() for r in raw}
    assert champion.architecture.encoding() in encodings


def test_equal_accuracy_front_is_single_cheapest():
    archs = [Architecture.from_encoding([[i]]) for i in range(4)]
    table = {a.encoding(): (0.5, 10.0 + i) for i, a in enumerate(archs)}
    evaluator = StubEvaluator(table)
    corrected, raw, _, _ = retrieve_pareto(
        CyclingSampler(archs),
        evaluator,
        [],
        RetrievalConfig(samples=4),
        ConstraintConfig(tau=100.0),
        make_rng("flat", 0),
    )
    assert len(raw) == 1
    assert raw[0].cost == 10.0


def test_edging_instance_shows_both_behaviors():
    q = Architecture.from_encoding([[0]])
    p = Architecture.from_encoding([[1]])
    r = Architecture.from_encoding([[2]])
    table = {
        q.encoding(): (0.80, 95.0),   # near the boundary, tau = 100
        p.encoding(): (0.70, 50.0),
        r.encoding(): (0.85, 105.0),  # auxiliary: just past the boundary
    }
    evaluator = StubEvaluator(table)
    constraint = ConstraintConfig(tau=100.0, edging_margin=0.1)

    # without auxiliary samples q is Pareto-optimal and stays
    corrected0, raw0, _, _ = retrieve_pareto(
        CyclingSampler([q, p]),
        evaluator,
        [],
        RetrievalConfig(samples=2, auxiliary=0),
        constraint,
        make_rng("edge", 0),
    )
    assert {rec.architecture.encoding() for rec in corrected0} == {
        q.encoding(),
        p.encoding(),
    }

    # with the auxiliary point, q is removed from the corrected front only
    corrected1, raw1, _, _ = retrieve_pareto(
        CyclingSampler([q, p, r]),
        evaluator,
        [],
        RetrievalConfig(samples=2, auxiliary=1),
        constraint,
        make_rng("edge", 1),
    )
    assert {rec.architecture.encoding() for rec in raw1} == {
        q.encoding(),
        p.encoding(),
    }
    assert {rec.architecture.encoding() for rec in corrected1} == {p.encoding()}


def test_edging_filter_spares_points_away_from_boundary():
    far = EvaluationRecord(Architecture.from_encoding([[0]]), 0.6, 40.0)
    aux = EvaluationRecord(Architecture.from_encoding([[1]]), 0.9, 105.0)
    kept = edging_filter([far], [aux], ConstraintConfig(tau=100.0, edging_margin=0.1))
    assert kept == [far]


def test_edging_filter_keeps_raw_front_when_it_would_drop_every_point():
    near_lo = EvaluationRecord(Architecture.from_encoding([[0]]), 0.6, 92.0)
    near_hi = EvaluationRecord(Architecture.from_encoding([[1]]), 0.7, 98.0)
    aux = EvaluationRecord(Architecture.from_encoding([[2]]), 0.9, 105.0)
    constraint = ConstraintConfig(tau=100.0, edging_margin=0.1)
    diagnostics = {}
    kept = edging_filter([near_lo, near_hi], [aux], constraint, diagnostics)
    assert kept == [near_lo, near_hi]
    assert diagnostics == {"edging_fallback": True}
    # a partial drop is not a fallback
    far = EvaluationRecord(Architecture.from_encoding([[3]]), 0.5, 40.0)
    diagnostics = {}
    assert edging_filter([far, near_hi], [aux], constraint, diagnostics) == [far]
    assert diagnostics == {}


def test_sampling_stall_is_diagnosed_not_fatal():
    arch = Architecture.from_encoding([[0]])
    table = {arch.encoding(): (0.5, 10.0)}
    corrected, raw, _, diag = retrieve_pareto(
        CyclingSampler([arch]),
        StubEvaluator(table),
        [],
        RetrievalConfig(samples=5, stall_factor=10),
        ConstraintConfig(tau=100.0),
        make_rng("stall", 0),
    )
    assert diag["stalled"]
    assert diag["draws"] == 50
    assert len(raw) == 1


def reference_retrieval(subset, table, retrieval, constraint, rng):
    """The retrieval draw loop, one plain draw at a time."""
    slots = [subset.active_slots(li) for li in range(subset.num_layers)]
    probs = [[0.5] * len(layer) for layer in slots]
    limit = constraint.upper_bound
    band_hi = limit * (1.0 + constraint.edging_margin)
    seen, in_budget, auxiliary, draws = set(), [], [], 0
    while draws < retrieval.stall_factor * retrieval.samples and (
        len(in_budget) < retrieval.samples or len(auxiliary) < retrieval.auxiliary
    ):
        row = reference_draw(slots, subset.roles, probs, rng)
        draws += 1
        arch = Architecture.from_encoding(
            [[s for j, s in enumerate(layer) if m >> j & 1] for layer, m in zip(slots, row)]
        )
        if arch.encoding() in seen:
            continue
        seen.add(arch.encoding())
        cost = architecture_cost(arch, table)
        if cost <= limit and len(in_budget) < retrieval.samples:
            in_budget.append((arch.encoding(), cost))
        elif limit < cost <= band_hi and len(auxiliary) < retrieval.auxiliary:
            auxiliary.append((arch.encoding(), cost))
    return draws, len(in_budget) < retrieval.samples, in_budget, auxiliary


class CountingEvaluator(OracleEvaluator):
    def __init__(self, bench):
        super().__init__(bench)
        self.scored = []  # per call, the decoded draws scored

    def evaluate(self, sampler, draws):
        self.scored.append([(sampler.decode(row), cost) for row, cost in draws])
        return super().evaluate(sampler, draws)


@pytest.mark.parametrize(
    "retrieval, stalled",
    [
        (RetrievalConfig(samples=60, auxiliary=6), False),
        # in-budget fills early; the unfilled band keeps drawing to the cap
        (RetrievalConfig(samples=10, auxiliary=30), False),
        (RetrievalConfig(samples=300, auxiliary=30, stall_factor=3), True),
    ],
)
def test_block_retrieval_matches_the_one_draw_loop(retrieval, stalled):
    pool = opaque_pool(("normal", "normal", "reduction"), 5, seed=4)
    bench = SyntheticBenchmark.generate(pool, seed=9)
    subset = full_subset(pool)
    constraint = ConstraintConfig(tau=bench.overhead + 250.0)
    evaluator = CountingEvaluator(bench)
    _, _, _, diag = retrieve_pareto(
        GateSampler.uniform(subset), evaluator, [], retrieval, constraint, make_rng("blocks", 0)
    )
    draws, ref_stalled, in_budget, auxiliary = reference_retrieval(
        subset, bench.cost_table(), retrieval, constraint, make_rng("blocks", 0)
    )
    assert ref_stalled == stalled
    assert (diag["draws"], diag["stalled"]) == (draws, stalled)
    assert (diag["in_budget"], diag["auxiliary"]) == (len(in_budget), len(auxiliary))
    # the first draws scored are the in-budget ones
    assert [(arch.encoding(), cost) for arch, cost in evaluator.scored[0]] == in_budget


@pytest.mark.parametrize(
    "retrieval, tau, margin, stop",
    [
        # both lists fill inside a doubled block, short of its last row
        (RetrievalConfig(samples=20, auxiliary=3), 500.0, 0.1, "mid-block"),
        # more draws are asked for in both lists than the draw cap allows
        (RetrievalConfig(samples=400, auxiliary=100, stall_factor=2), 500.0, 0.1, "stall"),
        # a tight cutoff: the wide band fills, the in-budget list never does
        (RetrievalConfig(samples=40, auxiliary=10, stall_factor=3), 300.0, 1.0, "auxiliary"),
    ],
)
def test_keep_draws_equals_the_every_draw_loop(retrieval, tau, margin, stop, monkeypatch):
    # draw costs run from about 215 to 1000, with a median near 740
    pool = opaque_pool(("normal", "reduction", "normal"), 6, seed=2)
    bench = SyntheticBenchmark.generate(pool, seed=5)
    sampler = GateSampler.uniform(full_subset(pool))
    constraint = ConstraintConfig(tau=tau, edging_margin=margin)
    sizes, priced = [], []
    draw, price = GateSampler.draw, MaskCost.__call__
    monkeypatch.setattr(
        GateSampler, "draw", lambda self, rng, n: sizes.append(n) or draw(self, rng, n)
    )
    monkeypatch.setattr(
        MaskCost, "__call__", lambda self, masks: priced.append(len(masks)) or price(self, masks)
    )
    cost_of = MaskCost(sampler, bench.cost_table())
    kept = _keep_draws(sampler, cost_of, retrieval, constraint, make_rng("keep", 0))
    monkeypatch.undo()
    ref = reference_keep_draws(
        sampler, bench.cost_table(), retrieval, constraint, make_rng("keep", 0)
    )
    assert kept == ref
    # blocks start at samples + auxiliary rows and double, cut to the draws left
    blocks = {"mid-block": [23, 46, 92, 184], "stall": [500, 300], "auxiliary": [50, 70]}
    assert sizes == blocks[stop]
    # and are priced in pieces of at most samples + auxiliary rows, up to the stop
    first = retrieval.samples + retrieval.auxiliary
    assert max(priced) <= first
    in_budget, auxiliary, draws = kept
    assert draws <= sum(priced) < draws + first
    cap = retrieval.stall_factor * retrieval.samples
    if stop == "mid-block":
        assert sum(sizes[:-1]) < draws < sum(sizes)
        assert (len(in_budget), len(auxiliary)) == (retrieval.samples, retrieval.auxiliary)
    else:
        assert draws == cap and len(in_budget) < retrieval.samples
        assert (len(auxiliary) == retrieval.auxiliary) == (stop == "auxiliary")


def check_retrieval_equals_reference(sampler, bench, previous, retrieval, constraint, seed):
    """retrieve_pareto on mask rows returns what the record-per-draw reference
    does, and every accuracy it scores is the closed form's, exactly."""
    got = retrieve_pareto(
        sampler, OracleEvaluator(bench), previous, retrieval, constraint, make_rng("rows", seed)
    )
    corrected, raw, best, in_records, diag = reference_retrieve_pareto(
        sampler, bench, previous, retrieval, constraint, make_rng("rows", seed)
    )
    assert got[0] == corrected
    assert got[1] == raw
    assert got[2] == best
    assert got[3] == diag
    cost_of = MaskCost(sampler, bench.cost_table())
    in_budget, _, _ = _keep_draws(sampler, cost_of, retrieval, constraint, make_rng("rows", seed))
    # the sampled records come first, all of them in budget
    assert OracleEvaluator(bench).evaluate(sampler, in_budget) == [
        r.accuracy for r in in_records[: len(in_budget)]
    ]
    for rec in in_records:
        assert rec.accuracy == oracle_score(rec.architecture, bench)[0]
    return diag, in_records, raw


def outside_architecture(pool, subset):
    """An architecture gating, in every layer, one slot the subset does not."""
    return Architecture.from_encoding(
        [
            [next(s for s in range(layer.size) if s not in subset.active_slots(li))]
            for li, layer in enumerate(pool.layers)
        ]
    )


@pytest.mark.parametrize("case", range(12))
def test_retrieval_on_mask_rows_equals_the_record_per_draw_reference(case):
    rng = make_rng("random-retrieval", case)
    roles = [str(r) for r in rng.choice(["normal", "reduction"], size=int(rng.integers(2, 5)))]
    n = int(rng.integers(4, 8))
    pool = opaque_pool(roles, n, seed=case)
    bench = SyntheticBenchmark.generate(pool, seed=50 + case)
    subset = init_subset(pool, int(rng.integers(2, n)), case, TraversalLedger())
    sampler = GateSampler.uniform(subset)
    costs = MaskCost(sampler, bench.cost_table())(sampler.draw(make_rng("costs", case), 400))
    retrieval = RetrievalConfig(
        samples=int(rng.integers(5, 80)),
        auxiliary=int(rng.integers(0, 20)),
        stall_factor=int(rng.integers(2, 30)),
    )
    constraint = ConstraintConfig(
        tau=float(np.quantile(costs, rng.uniform(0.1, 0.9))),
        edging_margin=float(rng.uniform(0.05, 0.5)),
    )
    # a previous front partly among this round's kept rows and partly not:
    # half a front of the same draws, a front of other draws, and the
    # architecture that gates every active slot, which is over budget
    fronts = [
        reference_retrieve_pareto(
            sampler, bench, [], retrieval, constraint, make_rng(name, case)
        )[1]
        for name in ("rows", "other")
    ]
    everything = Architecture.from_encoding(
        [subset.active_slots(li) for li in range(subset.num_layers)]
    )
    assert oracle_score(everything, bench)[1] > constraint.upper_bound
    previous = fronts[0][::2] + fronts[1] + [EvaluationRecord(everything, 0.5, 1.0)]
    diag, _, _ = check_retrieval_equals_reference(
        sampler, bench, previous, retrieval, constraint, case
    )
    assert 1 <= diag["rehearsed"] <= len(previous) - len(fronts[0][::2])


def test_rehearsing_a_record_outside_the_sampler_is_an_error():
    pool = opaque_pool(("normal", "reduction"), 6, seed=1)
    bench = SyntheticBenchmark.generate(pool, seed=3)
    subset = init_subset(pool, 3, 0, TraversalLedger())
    outside = outside_architecture(pool, subset)
    with pytest.raises(EngineError, match=re.escape(f"architecture {outside.encoding()} gates")):
        retrieve_pareto(
            GateSampler.uniform(subset),
            OracleEvaluator(bench),
            [EvaluationRecord(outside, 0.5, 1.0)],
            RetrievalConfig(samples=5),
            ConstraintConfig(tau=bench.overhead + 200.0),
            make_rng("outside", 0),
        )


@pytest.mark.parametrize("kind", ["stall", "auxiliary only", "edging fallback"])
def test_retrieval_on_mask_rows_equals_the_reference_at_the_edges(kind):
    pool = opaque_pool(("normal", "reduction", "normal"), 5, seed=6)
    bench = SyntheticBenchmark.generate(pool, seed=12)
    sampler = GateSampler.uniform(full_subset(pool))
    costs = MaskCost(sampler, bench.cost_table())(sampler.draw(make_rng("costs", kind), 1000))
    if kind == "stall":
        # fewer distinct in-budget draws exist than are asked for
        tau, margin = float(np.quantile(costs, 0.02)), 0.1
        retrieval = RetrievalConfig(samples=200, auxiliary=5, stall_factor=3)
    elif kind == "auxiliary only":
        tau, margin = float(np.quantile(costs, 0.05)), 1.0
        retrieval = RetrievalConfig(samples=100, auxiliary=5, stall_factor=3)
    else:
        # every front point is near the cutoff and a beyond-boundary draw
        # beats them all
        tau, margin = float(np.quantile(costs, 0.2)), 1.0
        retrieval = RetrievalConfig(samples=30, auxiliary=40, stall_factor=20)
    constraint = ConstraintConfig(tau=tau, edging_margin=margin)
    diag, _, _ = check_retrieval_equals_reference(sampler, bench, [], retrieval, constraint, 0)
    if kind == "stall":
        assert diag["stalled"] and diag["in_budget"] < retrieval.samples
    elif kind == "auxiliary only":
        assert diag["stalled"] and diag["auxiliary"] == retrieval.auxiliary
    else:
        assert diag["edging_fallback"]


def tied_benchmark(pool, seed):
    """A benchmark in which slots 0 and 1 of every layer are cheap, strong and
    interchangeable, so front points tie."""
    bench = SyntheticBenchmark.generate(pool, seed=seed)
    for li in range(pool.num_layers):
        for slot in (0, 1):
            bench.utilities[(li, slot)] = 0.95
            bench.costs[(li, slot)] = 30.0
    bench.synergies = {key: 0.0 for key in bench.synergies}
    return bench


def swap_first_slots(arch):
    swap = {0: 1, 1: 0}
    return Architecture.from_encoding(
        [sorted(swap.get(s, s) for s in layer) for layer in arch.encoding()]
    )


@pytest.mark.parametrize("seed", range(4))
def test_retrieval_breaks_exact_ties_like_the_reference(seed):
    pool = opaque_pool(("normal", "reduction"), 5, seed=3)
    bench = tied_benchmark(pool, seed=7)
    sampler = GateSampler.uniform(full_subset(pool))
    retrieval = RetrievalConfig(samples=60, stall_factor=20)
    constraint = ConstraintConfig(tau=bench.overhead + 150.0)
    # the tie partners of another draw order's front arrive by rehearsal,
    # after the sampled rows; each seed draws the tied rows in another order
    other = reference_retrieve_pareto(
        sampler, bench, [], retrieval, constraint, make_rng("tie", seed)
    )[1]
    previous = [
        EvaluationRecord(swap_first_slots(r.architecture), r.accuracy, r.cost) for r in other
    ]
    _, in_records, raw = check_retrieval_equals_reference(
        sampler, bench, previous, retrieval, constraint, seed
    )
    tied = [
        r
        for r in raw
        if any(
            (o.accuracy, o.cost) == (r.accuracy, r.cost) and o.architecture != r.architecture
            for o in in_records
        )
    ]
    assert tied


def test_run_rounds_are_deterministic():
    pool = opaque_pool(("normal", "normal", "reduction"), 8)
    bench = SyntheticBenchmark.generate(pool, seed=4)
    tau = bench.overhead + 200.0
    summaries = []
    for _ in range(2):
        engine = oracle_engine(pool, bench, tau, capacity=3, max_rounds=3, samples=50, seed=11)
        summaries.append(engine.run())
    a, b = summaries
    assert len(a.results) == len(b.results)
    for ra, rb in zip(a.results, b.results):
        assert [r.architecture.encoding() for r in ra.front] == [
            r.architecture.encoding() for r in rb.front
        ]
        assert ra.subset_snapshot == rb.subset_snapshot
    assert [r.accuracy for r in a.state.best_archive] == [
        r.accuracy for r in b.state.best_archive
    ]


def test_archive_is_monotone_and_fronts_in_budget():
    pool = opaque_pool(("normal", "normal", "reduction"), 8)
    bench = SyntheticBenchmark.generate(pool, seed=7)
    tau = bench.overhead + 180.0
    engine = oracle_engine(pool, bench, tau, capacity=3, max_rounds=4, samples=80, seed=5)
    summary = engine.run()
    archive = summary.state.best_archive
    assert len(archive) == len(summary.results)
    for earlier, later in zip(archive, archive[1:]):
        assert later.accuracy >= earlier.accuracy
    for result in summary.results:
        for rec in result.front:
            assert rec.cost <= tau


def test_round_over_round_front_best_is_monotone_with_rehearsal():
    pool = opaque_pool(("normal", "normal", "reduction"), 10)
    bench = SyntheticBenchmark.generate(pool, seed=9)
    tau = bench.overhead + 200.0
    engine = oracle_engine(pool, bench, tau, capacity=3, max_rounds=4, samples=60, seed=3)
    summary = engine.run()
    bests = [max(r.accuracy for r in result.front) for result in summary.results]
    assert all(b >= a for a, b in zip(bests, bests[1:]))


def test_inheritance_flags_follow_aggregated_front():
    pool = opaque_pool(("normal", "reduction"), 8)
    bench = SyntheticBenchmark.generate(pool, seed=1)
    tau = bench.overhead + 200.0
    engine = oracle_engine(pool, bench, tau, capacity=4, max_rounds=2, samples=40, seed=2)
    state = engine.initial_state()
    result = engine.run_round(state)
    union = set()
    for rec in result.front:
        for li in range(2):
            union |= {(li, s) for s in rec.architecture.selected(li)}
    engine.step_aggregate_replenish(state, result.front)
    inherited = {
        (li, e.descriptor.slot_index)
        for li, entries in enumerate(state.subset.layers)
        for e in entries
        if e.origin == "inherited"
    }
    assert inherited == union


def test_shortage_ends_run_after_current_round():
    pool = opaque_pool(("normal",), 4)
    bench = SyntheticBenchmark.generate(pool, seed=5)
    engine = oracle_engine(
        pool, bench, bench.overhead + 500.0, capacity=3, max_rounds=10, samples=10, seed=0
    )
    state = engine.initial_state()
    front = [
        EvaluationRecord(
            Architecture.from_encoding([[state.subset.active_slots(0)[0]]]), 0.5, 1.0
        )
    ]
    engine.step_aggregate_replenish(state, front)
    # one inherited + one remaining fresh op leaves the layer short of K=3
    assert state.subset.shortage


def test_empty_front_is_an_error():
    pool = opaque_pool(("normal",), 4)
    bench = SyntheticBenchmark.generate(pool, seed=5)
    engine = oracle_engine(pool, bench, bench.overhead + 10.0, samples=5)
    state = engine.initial_state()
    with pytest.raises(EngineError):
        engine.step_aggregate_replenish(state, [])


def test_distribution_unbounded_band_is_plain_sampling():
    pool = opaque_pool(("normal", "reduction"), 5)
    bench = SyntheticBenchmark.generate(pool, seed=6)
    subset = full_subset(pool)
    records = distribution_estimate(
        subset, OracleEvaluator(bench), (0.0, float("inf")), 25, make_rng("dist", 0)
    )
    assert len(records) == 25


def test_distribution_band_is_respected_and_unreachable_raises():
    pool = opaque_pool(("normal", "reduction"), 5)
    bench = SyntheticBenchmark.generate(pool, seed=6)
    subset = full_subset(pool)
    lo, hi = bench.overhead + 60.0, bench.overhead + 160.0
    records = distribution_estimate(
        subset, OracleEvaluator(bench), (lo, hi), 30, make_rng("dist", 1)
    )
    assert all(lo <= r.cost <= hi for r in records)
    with pytest.raises(EngineError):
        distribution_estimate(
            subset, OracleEvaluator(bench), (0.0, bench.overhead - 5.0), 5,
            make_rng("dist", 2), draw_factor=50,
        )
    assert (
        distribution_estimate(subset, OracleEvaluator(bench), (0.0, 1.0), 0, make_rng("d", 3))
        == []
    )


def test_dominating_space_has_stochastically_larger_accuracies():
    scipy_stats = pytest.importorskip("scipy.stats")
    pool = opaque_pool(("normal", "normal"), 6)
    # handcrafted utilities: slots 0..2 strictly dominate slots 3..5
    utilities = {}
    for li in range(2):
        for s in range(6):
            utilities[(li, s)] = 0.85 + 0.03 * s if s < 3 else 0.10 + 0.03 * s
    synergies = {(li, a, b): 0.0 for li in range(2) for a in range(6) for b in range(a + 1, 6)}
    costs = {(li, s): 10.0 for li in range(2) for s in range(6)}
    bench = SyntheticBenchmark(
        seed=0, utilities=utilities, synergies=synergies, costs=costs,
        overhead=0.0, c0=-1.0, c1=2.0,
    )

    def subspace(slots):
        layers = [
            [SubsetEntry(pool.descriptor(li, s), "fresh") for s in slots]
            for li in range(2)
        ]
        return SubsetState(layers=layers, roles=pool.roles, capacity=len(slots))

    strong = distribution_estimate(
        subspace([0, 1, 2]), OracleEvaluator(bench), (0.0, float("inf")), 200,
        make_rng("rank", 0),
    )
    weak = distribution_estimate(
        subspace([3, 4, 5]), OracleEvaluator(bench), (0.0, float("inf")), 200,
        make_rng("rank", 1),
    )
    stat = scipy_stats.mannwhitneyu(
        [r.accuracy for r in strong], [r.accuracy for r in weak], alternative="greater"
    )
    assert stat.pvalue < 0.01


def test_supernet_round_smoke_and_artifacts():
    family = toy_op_family()
    decl = [
        DeclaredLayer(role="normal", ops=[DeclaredOp(family[i].kind, dict(family[i].params)) for i in range(6)]),
        DeclaredLayer(role="reduction", ops=[DeclaredOp(family[i].kind, dict(family[i].params)) for i in range(6)]),
    ]
    pool = shuffle_pool(decl, seed=0)
    geometry = NetworkGeometry(input_dim=6, stem_width=8, layer_widths=(8, 10), classes=3)
    dataset = ToyDataset.generate(
        DatasetConfig(seed=1, input_dim=6, classes=3, train_size=400, val_size=200)
    )
    engine = Engine(
        pool=pool,
        capacity=3,
        max_rounds=2,
        constraint=ConstraintConfig(tau=1.0, alpha=1e-3, beta=2.0),
        retrieval=RetrievalConfig(samples=6, recal_batches=2, recal_batch_size=32),
        master_seed=4,
        phase=SupernetPhase(
            dataset,
            geometry,
            TrainingConfig(steps=10, batch_size=32, warmup_steps=2),
            build_cost_table(pool, geometry),
        ),
    )
    summary = engine.run()
    assert len(summary.results) == 2
    for result in summary.results:
        assert result.front
        assert result.indicator_snapshot is not None
        assert all(rec.cost <= 1.0 for rec in result.front)
    # identical reruns produce identical fronts
    summary2 = Engine(
        pool=pool,
        capacity=3,
        max_rounds=2,
        constraint=ConstraintConfig(tau=1.0, alpha=1e-3, beta=2.0),
        retrieval=RetrievalConfig(samples=6, recal_batches=2, recal_batch_size=32),
        master_seed=4,
        phase=SupernetPhase(
            dataset,
            geometry,
            TrainingConfig(steps=10, batch_size=32, warmup_steps=2),
            build_cost_table(pool, geometry),
        ),
    ).run()
    for ra, rb in zip(summary.results, summary2.results):
        assert [r.architecture.encoding() for r in ra.front] == [
            r.architecture.encoding() for r in rb.front
        ]
        assert [r.accuracy for r in ra.front] == [r.accuracy for r in rb.front]


def test_indicator_cadence_diagnostic():
    family = toy_op_family()
    decl = [
        DeclaredLayer(role="normal", ops=[DeclaredOp(family[i].kind, dict(family[i].params)) for i in range(4)]),
        DeclaredLayer(role="reduction", ops=[DeclaredOp(family[i].kind, dict(family[i].params)) for i in range(4)]),
    ]
    pool = shuffle_pool(decl, seed=3)
    geometry = NetworkGeometry(input_dim=5, stem_width=6, layer_widths=(6, 8), classes=3)
    dataset = ToyDataset.generate(
        DatasetConfig(seed=2, input_dim=5, classes=3, train_size=200, val_size=100)
    )
    engine = Engine(
        pool=pool, capacity=3, max_rounds=1,
        constraint=ConstraintConfig(tau=1.0, alpha=1e-3, beta=2.0),
        retrieval=RetrievalConfig(samples=4, recal_batches=2, recal_batch_size=25),
        master_seed=1,
        phase=SupernetPhase(
            dataset,
            geometry,
            TrainingConfig(steps=12, batch_size=25, warmup_steps=2),
            build_cost_table(pool, geometry),
        ),
    )
    summary = engine.run()
    assert summary.results[0].diagnostics["indicator_steps"] == 6
    timings = summary.results[0].timings
    assert set(timings) == {
        "sample_draws", "evaluation", "front", "weight_steps", "indicator_steps"
    }
    assert sum(timings.values()) <= summary.results[0].duration
