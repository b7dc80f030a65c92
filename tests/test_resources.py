import numpy as np
import pytest

from conftest import central_difference
from reference import layer_cost
from nse.rng import make_rng
from nse.resources import (
    ConstraintConfig,
    CostTable,
    MaskCost,
    ResourceError,
    architecture_cost,
    penalty,
    penalty_gradient_wrt_r,
)
from nse.space import Architecture, GateSampler, GateVector


def table_for(num_layers, num_slots, rng, overhead=0.0):
    cost = {
        (l, s): float(rng.uniform(1.0, 50.0))
        for l in range(num_layers)
        for s in range(num_slots)
    }
    return CostTable(cost=cost, fixed_overhead=overhead)


def test_cost_all_gates_zero_is_overhead():
    table = CostTable(cost={}, fixed_overhead=10.0)
    arch = Architecture.from_encoding([[], [], []])
    assert architecture_cost(arch, table) == 10.0


def test_cost_sums_selected_ops():
    table = CostTable(cost={(0, 0): 3.0, (0, 1): 7.0})
    arch = Architecture.from_encoding([[0, 1]])
    assert architecture_cost(arch, table) == 10.0


def test_cost_matches_explicit_listing_oracle():
    rng = make_rng(41)
    table = table_for(4, 6, rng, overhead=5.0)
    for _ in range(50):
        encoding = [
            sorted(
                int(s)
                for s in rng.choice(6, size=int(rng.integers(0, 5)), replace=False)
            )
            for _ in range(4)
        ]
        arch = Architecture.from_encoding(encoding)
        expected = 5.0 + sum(
            table.cost[(l, s)] for l, slots in enumerate(encoding) for s in slots
        )
        assert architecture_cost(arch, table) == pytest.approx(expected, abs=1e-12)


def test_cost_monotone_in_gates():
    rng = make_rng(43)
    table = table_for(3, 5, rng)
    base = [[0], [1, 2], [4]]
    arch = Architecture.from_encoding(base)
    grown = Architecture.from_encoding([[0, 3], [1, 2], [4]])
    assert architecture_cost(grown, table) >= architecture_cost(arch, table)


def test_cost_missing_entry_raises():
    table = CostTable(cost={(0, 0): 1.0})
    arch = Architecture.from_encoding([[1]])
    with pytest.raises(ResourceError):
        architecture_cost(arch, table)


def test_equal_gate_vectors_built_in_any_order_cost_the_same():
    # slots 1 and 9 share a bucket of a small set's hash table, so the two
    # frozensets iterate in different orders; added in that order, the
    # costs differ in the last ulp
    table = CostTable(cost={(0, 1): 0.1, (0, 2): 0.2, (0, 9): 0.7})
    a = GateVector(0, frozenset([1, 9, 2]))
    b = GateVector(0, frozenset([9, 2, 1]))
    assert a == b
    assert layer_cost(a, table) == layer_cost(b, table) == 1.0
    assert architecture_cost(Architecture((b,)), table) == 1.0


def test_mask_cost_equals_the_decoded_architecture_cost_bit_for_bit():
    rng = make_rng(59)
    # a 12-slot layer, where a pairwise sum adds in another order than a
    # left-to-right one, and an empty layer
    slots = [list(range(12)), [0, 1, 2, 3, 5, 7, 9, 14], [], [0, 3, 4]]
    table = CostTable(
        {(li, s): float(rng.uniform(0.0, 50.0)) for li, ss in enumerate(slots) for s in ss}
    )
    sampler = GateSampler(slots, ["normal"] * 4, [[0.5] * len(s) for s in slots])
    masks = np.stack([rng.integers(0, 1 << len(s), size=2000) for s in slots], axis=1)
    cost_of = MaskCost(sampler, table)
    want = [architecture_cost(sampler.decode(row), table) for row in masks.tolist()]
    assert cost_of(masks).tolist() == want
    # each layer alone, where no other layer's cost can round a difference away
    for li in range(len(slots)):
        alone = np.zeros_like(masks)
        alone[:, li] = masks[:, li]
        want = [layer_cost(sampler.selection(li, m), table) for m in masks[:, li].tolist()]
        assert cost_of(alone).tolist() == want
        if li == 0:  # the masks are ones on which a pairwise sum differs
            column = np.array([table.cost[(0, s)] for s in slots[0]])
            assert np.sum((masks[:, :1] >> np.arange(12) & 1) * column, axis=1).tolist() != want


def test_penalty_reference_values():
    cfg = ConstraintConfig(tau=300.0, alpha=1e-5, beta=2.0)
    assert penalty(50.0, cfg) == pytest.approx(0.025)
    assert penalty(0.0, cfg) == 0.0
    assert penalty_gradient_wrt_r(0.0, cfg) == 0.0
    assert penalty(-50.0, cfg) == pytest.approx(0.025)


def test_penalty_one_sided_hinge():
    cfg = ConstraintConfig(tau=300.0, alpha=1e-5, beta=2.0, one_sided=True)
    assert penalty(-50.0, cfg) == 0.0
    assert penalty_gradient_wrt_r(-50.0, cfg) == 0.0
    assert penalty(50.0, cfg) == pytest.approx(0.025)


def test_penalty_gradient_matches_finite_differences():
    rng = make_rng(53)
    for beta in (1.0, 1.5, 2.0, 3.0):
        cfg = ConstraintConfig(tau=0.0, alpha=2e-3, beta=beta)
        for _ in range(50):
            r = float(rng.uniform(-200, 200))
            if abs(r) < 1e-3:
                continue
            grad = penalty_gradient_wrt_r(r, cfg)
            fd = central_difference(
                lambda v: penalty(float(v[0]), cfg), np.array([r]), step=1e-4 * abs(r)
            )[0]
            assert grad == pytest.approx(fd, rel=1e-6, abs=1e-12)


def test_constraint_config_validation():
    # the bounds of alpha, beta and edging_margin are the config's to check
    # (test_cli.REJECTED); the dataclass resolves upper_bound to tau
    cfg = ConstraintConfig(tau=123.0)
    assert cfg.upper_bound == 123.0


def test_cost_table_json_roundtrip(tmp_path):
    table = CostTable(cost={(0, 0): 1.5, (2, 3): 4.0}, fixed_overhead=2.0, unit="kmac")
    data = table.to_json()
    back = CostTable.from_json(data)
    assert back == table
    path = tmp_path / "costs.json"
    import json

    path.write_text(json.dumps(data))
    assert CostTable.load(str(path)) == table
