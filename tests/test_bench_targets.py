"""The symbols and return values that bench/child.py wraps stay where it
looks for them.

The benchmark's tracer records a layer whose targets all fail to resolve as
absent instead of failing, so a renamed or deleted symbol would silently
drop that layer's metrics from a traced run that still exits 0.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from child import LAYERS  # noqa: E402
from nse.engine import RetrievalConfig, evaluate_on_supernet, retrieve_pareto  # noqa: E402
from nse.oracle import OracleEvaluator, SyntheticBenchmark  # noqa: E402
from nse.resources import ConstraintConfig  # noqa: E402
from nse.rng import make_rng  # noqa: E402
from nse import supernet  # noqa: E402
from nse.space import DeclaredLayer, DeclaredOp, GateSampler, full_subset, shuffle_pool  # noqa: E402
from nse.supernet import (  # noqa: E402
    DatasetConfig,
    InferenceCache,
    NetworkGeometry,
    SharedWeights,
    ToyDataset,
    make_recal_batches,
    toy_op_family,
)


def resolves(target: str) -> bool:
    """Whether ``module:Owner.attr`` is found the way ``Tracer.patch`` looks
    it up, without patching it."""
    module_name, _, qualname = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        inspect.getattr_static(owner, attr)
    except (ImportError, AttributeError):
        return False
    return True


@pytest.mark.parametrize("name, targets", [(name, targets) for name, targets, _ in LAYERS])
def test_every_benchmark_layer_has_a_target_that_resolves(name, targets):
    assert any(resolves(t) for t in targets), f"{name}: none of {targets} resolves"


def test_retrieval_returns_what_the_benchmark_reads():
    decl = [
        DeclaredLayer(role, [DeclaredOp(f"op{i}") for i in range(4)])
        for role in ("normal", "reduction")
    ]
    pool = shuffle_pool(decl, seed=0)
    bench = SyntheticBenchmark.generate(pool, seed=1)
    result = retrieve_pareto(
        GateSampler.uniform(full_subset(pool)),
        OracleEvaluator(bench),
        bench.cost_table(),
        [],
        RetrievalConfig(samples=10, auxiliary=2),
        ConstraintConfig(tau=bench.overhead + 150.0),
        make_rng("bench-targets", 0),
    )
    assert isinstance(result, tuple) and len(result) == 4
    for key in ("draws", "in_budget", "auxiliary"):
        assert type(result[3][key]) is int


def test_supernet_evaluation_returns_one_score_per_architecture():
    # the supernet.evaluate span times one call, which scores a whole batch
    # over a validation split of more than one block
    family = toy_op_family()[:4]
    decl = [DeclaredLayer(role, family) for role in ("normal", "reduction")]
    pool = shuffle_pool(decl, seed=0)
    subset = full_subset(pool)
    geometry = NetworkGeometry(input_dim=4, stem_width=6, layer_widths=(6, 8), classes=3)
    data = ToyDataset.generate(
        DatasetConfig(
            input_dim=4, classes=3, train_size=200, val_size=supernet.EVAL_ROWS + 50
        )
    )
    assert len(data.x_val) > supernet.EVAL_ROWS
    recal = make_recal_batches(data, 2, 16, make_rng("bench-targets", "recal"))
    cache = InferenceCache(SharedWeights(subset, geometry, seed=0), data, recal)
    sampler = GateSampler.uniform(subset)
    archs = [sampler.decode(row) for row in sampler.draw(make_rng("bench-targets", 1), 5).tolist()]
    scores = evaluate_on_supernet(cache, archs)
    assert isinstance(scores, list) and len(scores) == len(archs)
    assert all(type(score) is float for score in scores)
