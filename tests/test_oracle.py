import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from reference import (
    benchmark_from_json,
    brute_force_pareto,
    constrained_optimum,
    dominates,
    enumerate_architectures,
    enumeration_size,
)
from nse.rng import make_rng
from nse.oracle import OracleEvaluator, SyntheticBenchmark, oracle_score
from nse.pareto import EvaluationRecord, pareto_front
from nse.resources import MaskCost
from nse.space import (
    Architecture,
    DeclaredLayer,
    DeclaredOp,
    GateSampler,
    SpaceError,
    TraversalLedger,
    full_subset,
    init_subset,
    shuffle_pool,
)


def small_pool(roles=("normal", "reduction"), n=4, seed=0):
    decl = [
        DeclaredLayer(role=r, ops=[DeclaredOp(kind=f"op{i}") for i in range(n)])
        for r in roles
    ]
    return shuffle_pool(decl, seed=seed)


def test_benchmark_regeneration_is_identical():
    pool = small_pool()
    a = SyntheticBenchmark.generate(pool, seed=5)
    b = SyntheticBenchmark.generate(pool, seed=5)
    assert a.to_json() == b.to_json()
    c = SyntheticBenchmark.generate(pool, seed=6)
    assert c.to_json() != a.to_json()


def test_benchmark_json_roundtrip():
    pool = small_pool()
    bench = SyntheticBenchmark.generate(pool, seed=5)
    back = benchmark_from_json(bench.to_json())
    assert back.to_json() == bench.to_json()
    arch = Architecture.from_encoding([[0, 1], [2]])
    assert oracle_score(arch, back) == oracle_score(arch, bench)


def test_empty_architecture_scores_chance_level():
    pool = small_pool(roles=("normal", "normal"))
    bench = SyntheticBenchmark.generate(pool, seed=1, chance=0.3, overhead=10.0)
    acc, cost = oracle_score(Architecture.from_encoding([[], []]), bench)
    assert acc == pytest.approx(0.3)
    assert cost == pytest.approx(10.0)


def test_single_op_score_matches_hand_formula():
    pool = small_pool()
    bench = SyntheticBenchmark.generate(pool, seed=3)
    arch = Architecture.from_encoding([[2], [1]])
    acc, cost = oracle_score(arch, bench)
    total = 0.0
    for li, slot in ((0, 2), (1, 1)):
        u = bench.utilities[(li, slot)]
        total += u / (1.0 + u)
    expected = 1.0 / (1.0 + math.exp(-(bench.c0 + bench.c1 * total)))
    assert acc == pytest.approx(expected, rel=1e-12)
    assert cost == pytest.approx(
        bench.overhead + bench.costs[(0, 2)] + bench.costs[(1, 1)]
    )


def test_multi_op_score_matches_hand_formula():
    pool = small_pool(roles=("normal",))
    bench = SyntheticBenchmark.generate(pool, seed=9)
    arch = Architecture.from_encoding([[0, 2, 3]])
    acc, _ = oracle_score(arch, bench)
    m = 3
    mean_u = sum(bench.utilities[(0, s)] for s in (0, 2, 3)) / m
    syn = (
        bench.synergies[(0, 0, 2)]
        + bench.synergies[(0, 0, 3)]
        + bench.synergies[(0, 2, 3)]
    ) / m
    score = mean_u + syn
    expected = 1.0 / (
        1.0 + math.exp(-(bench.c0 + bench.c1 * (score / (1.0 + score))))
    )
    assert acc == pytest.approx(expected, rel=1e-12)


def test_scores_stay_in_unit_interval():
    pool = small_pool(n=5)
    bench = SyntheticBenchmark.generate(pool, seed=2)
    subset = full_subset(pool)
    for arch in enumerate_architectures(subset):
        acc, cost = oracle_score(arch, bench)
        assert 0.0 < acc < 1.0
        assert cost >= bench.overhead


def _rec(acc, cost, encoding):
    return EvaluationRecord(Architecture.from_encoding(encoding), acc, cost)


def test_pareto_front_hand_example():
    records = [
        _rec(0.9, 400.0, [[0]]),
        _rec(0.85, 300.0, [[1]]),
        _rec(0.8, 350.0, [[2]]),
        _rec(0.7, 200.0, [[3]]),
    ]
    front = pareto_front(records)
    assert [(r.accuracy, r.cost) for r in front] == [
        (0.7, 200.0),
        (0.85, 300.0),
        (0.9, 400.0),
    ]


def test_pareto_front_single_point():
    records = [_rec(0.5, 100.0, [[0]])]
    assert pareto_front(records) == records


def test_pareto_front_duplicate_tie_break():
    a = _rec(0.5, 100.0, [[1]])
    b = _rec(0.5, 100.0, [[0]])
    front = pareto_front([a, b])
    assert len(front) == 1
    assert front[0].architecture.encoding() == ((0,),)


class LazyRecord:
    """A record whose architecture is built, and counted, only when read."""

    reads = 0

    def __init__(self, acc, cost, encoding):
        self.accuracy, self.cost, self.encoding = acc, cost, encoding

    @property
    def architecture(self):
        LazyRecord.reads += 1
        return Architecture.from_encoding(self.encoding)


def test_pareto_front_ties_go_to_the_smallest_encoding_in_any_order():
    tied = [[[2], [0]], [[0, 1], [3]], [[0], [4]], [[1], []]]
    records = [_rec(0.7, 150.0, enc) for enc in tied] + [
        _rec(0.6, 100.0, [[3], [3]]),
        _rec(0.7, 160.0, [[0], []]),  # as accurate, dearer: dominated
        _rec(0.8, 200.0, [[4], [4]]),
    ]
    expected = [(0.6, 100.0, ((3,), (3,))), (0.7, 150.0, ((0,), (4,))), (0.8, 200.0, ((4,), (4,)))]
    for order in itertools.permutations(range(len(records))):
        front = pareto_front([records[i] for i in order])
        assert [(r.accuracy, r.cost, r.architecture.encoding()) for r in front] == expected
    # encodings are read only inside exact ties
    LazyRecord.reads = 0
    lazy = [LazyRecord(0.6, 100.0, [[3]]), LazyRecord(0.7, 150.0, [[2]])]
    assert [r.cost for r in pareto_front(lazy[::-1])] == [100.0, 150.0]
    assert LazyRecord.reads == 0
    pareto_front(lazy + [LazyRecord(0.7, 150.0, [[1]])])
    assert LazyRecord.reads == 2


def test_brute_force_front_is_exact_antichain():
    pool = small_pool(n=4)
    subset = full_subset(pool)
    for seed in range(5):
        bench = SyntheticBenchmark.generate(pool, seed=seed)
        upper = bench.overhead + 200.0
        front = brute_force_pareto(subset, bench, upper)
        assert front, "front should not be empty"
        # antichain: no member dominates another
        for a, b in itertools.permutations(front, 2):
            assert not dominates(a, b)
        # post-hoc scan: nothing enumerable dominates a front member
        everything = []
        for arch in enumerate_architectures(subset):
            acc, cost = oracle_score(arch, bench)
            if cost <= upper:
                everything.append(EvaluationRecord(arch, acc, cost))
        for member in front:
            assert not any(dominates(rec, member) for rec in everything)
        # and every non-member is dominated or a duplicate
        front_points = {(r.accuracy, r.cost) for r in front}
        for rec in everything:
            if (rec.accuracy, rec.cost) in front_points:
                continue
            assert any(dominates(member, rec) for member in front)


def test_enumeration_cap():
    pool = small_pool(roles=("normal",) * 4, n=7)
    subset = full_subset(pool)
    assert enumeration_size(subset) == (2**7) ** 4
    with pytest.raises(SpaceError):
        list(enumerate_architectures(subset, cap=1000))


def test_oracle_evaluator_matches_score():
    pool = small_pool()
    bench = SyntheticBenchmark.generate(pool, seed=4)
    ev = OracleEvaluator(bench)
    sampler = GateSampler.uniform(full_subset(pool))
    arch = Architecture.from_encoding([[0], [1]])
    row = sampler.row(arch)
    acc, cost = oracle_score(arch, bench)
    assert ev.evaluate(sampler, [(row, cost)]) == [acc]
    assert MaskCost(sampler, ev.table)(np.array([row])).tolist() == [cost]


def test_memoised_scores_and_mask_costs_equal_the_closed_form():
    pool = small_pool(roles=("normal", "normal", "reduction"), n=4, seed=1)
    bench = SyntheticBenchmark.generate(pool, seed=8)
    subset = full_subset(pool)
    ev = OracleEvaluator(bench)
    sampler = GateSampler.uniform(subset)
    cost_of = MaskCost(sampler, bench.cost_table())
    archs = list(enumerate_architectures(subset))
    assert len(archs) == 16 * 16 * 15
    draws, accuracies = [], []
    for arch in archs:
        acc, cost = oracle_score(arch, bench)
        row = [
            sum(1 << sampler.slots[li].index(s) for s in arch.selected(li))
            for li in range(arch.num_layers)
        ]
        assert cost_of(np.array([row])).tolist() == [cost]
        assert sampler.decode(row) == arch
        assert sampler.row(arch) == tuple(row)
        draws.append((row, cost))
        accuracies.append(acc)
    # the mask-row scorer, on filled tables and on fresh ones
    assert ev.evaluate(sampler, draws) == accuracies
    assert OracleEvaluator(bench).evaluate(sampler, draws[::-1]) == accuracies[::-1]
    # an architecture the sampler cannot draw has no row
    assert sampler.row(Architecture.from_encoding([[0], [4], [1]])) is None
    assert sampler.row(Architecture.from_encoding([[0], [1]])) is None


def test_constrained_optimum_matches_enumeration():
    pool = small_pool(roles=("normal", "normal", "reduction"), n=4)
    subset = full_subset(pool)
    rng = make_rng("opt", 0)
    for seed in range(6):
        bench = SyntheticBenchmark.generate(pool, seed=seed)
        upper = bench.overhead + float(rng.uniform(80, 300))
        best_acc, best_arch = constrained_optimum(subset, bench, upper)
        front = brute_force_pareto(subset, bench, upper)
        assert best_acc == pytest.approx(max(r.accuracy for r in front), rel=1e-12)
        acc, cost = oracle_score(best_arch, bench)
        assert acc == pytest.approx(best_acc) and cost <= upper


def test_constrained_optimum_respects_k_bound():
    pool = small_pool(roles=("normal",), n=5)
    bench = SyntheticBenchmark.generate(pool, seed=11)
    subset = full_subset(pool)
    upper = bench.overhead + 1000.0  # budget never binds
    _, arch_k2 = constrained_optimum(subset, bench, upper, max_ops_per_layer=2)
    assert len(arch_k2.selected(0)) <= 2
    # the bounded optimum equals enumeration restricted to <= 2 selected ops
    best = -1.0
    for sel in itertools.chain(
        [()],
        itertools.combinations(range(5), 1),
        itertools.combinations(range(5), 2),
    ):
        acc, cost = oracle_score(Architecture.from_encoding([list(sel)]), bench)
        if cost <= upper:
            best = max(best, acc)
    got, _ = constrained_optimum(subset, bench, upper, max_ops_per_layer=2)
    assert got == pytest.approx(best, rel=1e-12)


def test_subset_restriction_changes_enumeration():
    pool = small_pool(roles=("normal", "reduction"), n=6)
    ledger = TraversalLedger()
    subset = init_subset(pool, capacity=3, seed=1, ledger=ledger)
    count = enumeration_size(subset)
    assert count == (2**3) * (2**3 - 1)
    archs = list(enumerate_architectures(subset))
    assert len(archs) == count
    active0 = set(subset.active_slots(0))
    for arch in archs:
        assert active0.issuperset(arch.selected(0))


def test_importing_the_oracle_loads_no_training_code():
    # the oracle takes the package's one sigmoid from ``space``, not from
    # ``indicators``, which imports ``nn``
    code = "import sys, nse.oracle; print(sorted({'nse.indicators', 'nse.nn'} & set(sys.modules)))"
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
        check=True,
    )
    assert proc.stdout == "[]\n"
