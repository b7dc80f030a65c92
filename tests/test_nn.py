import math

import numpy as np
import pytest

from conftest import central_difference
from nse.rng import make_rng
from nse import nn
from nse.nn import (
    NormStats,
    SGD,
    Tensor,
    affine,
    clear_grads,
    cosine_warmup_lr,
    normalize,
    relu,
    softmax_cross_entropy,
    tanh,
)


def test_cross_entropy_uniform_logits():
    logits = Tensor(np.zeros((1, 2)), requires_grad=True)
    loss = softmax_cross_entropy(logits, np.array([0]))
    assert float(loss.data) == pytest.approx(math.log(2.0), abs=1e-12)


def test_relu_backward_masks_negative_inputs():
    x = Tensor(np.array([[-1.0, 2.0]]), requires_grad=True)
    y = relu(x)
    # sum the outputs, so the upstream gradient at y is exactly (1, 1)
    loss = affine(y, Tensor(np.ones((2, 1))), Tensor(np.zeros(1)))
    loss.backward()
    assert np.array_equal(x.grad, np.array([[0.0, 1.0]]))


def test_affine_shape_mismatch_raises():
    x = Tensor(np.zeros((2, 3)))
    w = Tensor(np.zeros((4, 5)))
    b = Tensor(np.zeros(5))
    with pytest.raises(nn.ShapeError):
        affine(x, w, b)


def test_non_finite_output_raises():
    x = Tensor(np.array([[1e308]]), requires_grad=True)
    with np.errstate(over="ignore"):
        with pytest.raises(nn.NotFiniteError):
            nn.add(x, x)


def _random_net(seed):
    """A small composite graph touching every differentiable op."""
    rng = make_rng("net", seed)
    batch, d_in, d_h, classes = 6, 5, 7, 3
    x = rng.normal(size=(batch, d_in))
    labels = rng.integers(0, classes, size=batch)
    params = {
        "w1": rng.normal(size=(d_in, d_h)) * 0.5,
        "b1": rng.normal(size=d_h) * 0.1,
        "w2": rng.normal(size=(d_h, classes)) * 0.5,
        "b2": rng.normal(size=classes) * 0.1,
    }

    def forward(values):
        stats = NormStats(d_h)
        t = {k: Tensor(v, requires_grad=True) for k, v in values.items()}
        h = affine(Tensor(x), t["w1"], t["b1"])
        h = relu(h) if seed % 2 == 0 else tanh(h)
        h = normalize(h, stats)
        logits = affine(h, t["w2"], t["b2"])
        loss = softmax_cross_entropy(logits, labels)
        return loss, t

    return params, forward


def test_gradients_match_finite_differences_over_seeds():
    for seed in range(20):
        params, forward = _random_net(seed)
        loss, tensors = forward(params)
        loss.backward()
        for name, value in params.items():
            def f(v, name=name):
                trial = dict(params)
                trial[name] = v
                out, _ = forward(trial)
                return float(out.data)

            fd = central_difference(f, value, step=1e-5)
            got = tensors[name].grad
            denom = np.maximum(np.abs(fd), 1e-6)
            assert np.max(np.abs(got - fd) / denom) < 1e-4, name


def test_backward_is_deterministic():
    params, forward = _random_net(3)
    loss1, t1 = forward(params)
    loss1.backward()
    loss2, t2 = forward(params)
    loss2.backward()
    for name in params:
        assert np.array_equal(t1[name].grad, t2[name].grad)


def test_eval_mode_never_mutates_stats():
    stats = NormStats(4)
    stats.mode = "eval"
    before_mean = stats.running_mean.copy()
    before_var = stats.running_var.copy()
    rng = make_rng("eval", 0)
    for _ in range(5):
        normalize(Tensor(rng.normal(size=(8, 4))), stats)
    assert np.array_equal(stats.running_mean, before_mean)
    assert np.array_equal(stats.running_var, before_var)


def test_train_mode_updates_running_stats():
    stats = NormStats(2, momentum=0.5)
    x = np.array([[1.0, 2.0], [3.0, 6.0]])
    normalize(Tensor(x), stats)
    assert stats.running_mean == pytest.approx([0.5 * 2.0, 0.5 * 4.0])


def recalibrate(stats, batches):
    """Recalibrate ``stats`` on ``batches`` with the calls evaluation makes."""
    stats.begin_recalibration()
    for batch in batches:
        nn.normalize_array(batch, stats)
    stats.finish_recalibration()


def test_recalibrate_constant_batch():
    stats = NormStats(3)
    recalibrate(stats, [np.full((10, 3), 2.5)])
    assert stats.running_mean == pytest.approx([2.5] * 3)
    assert stats.running_var == pytest.approx([0.0] * 3, abs=1e-12)
    assert stats.mode == "eval"


def test_recalibrate_idempotent_for_duplicate_batches():
    rng = make_rng("recal", 1)
    batch = rng.normal(size=(16, 4))
    one = NormStats(4)
    two = NormStats(4)
    recalibrate(one, [batch])
    recalibrate(two, [batch, batch])
    assert one.running_mean == pytest.approx(two.running_mean, abs=1e-12)
    assert one.running_var == pytest.approx(two.running_var, abs=1e-12)


def test_recalibrate_matches_whole_dataset_oracle():
    rng = make_rng("recal", 2)
    batches = [rng.normal(size=(int(rng.integers(4, 20)), 5)) for _ in range(7)]
    stats = NormStats(5)
    recalibrate(stats, batches)
    everything = np.concatenate(batches, axis=0)
    assert np.max(np.abs(stats.running_mean - everything.mean(axis=0))) < 1e-10
    assert np.max(np.abs(stats.running_var - everything.var(axis=0))) < 1e-10


def test_recalibrate_empty_raises():
    with pytest.raises(ValueError):
        recalibrate(NormStats(2), [])


def test_sgd_basic_step():
    params = {"p": np.array([0.0])}
    SGD(lr=0.1).step(params, {"p": np.array([1.0])})
    assert params["p"] == pytest.approx([-0.1])


def test_sgd_weight_decay_on_zero_grad():
    params = {"p": np.array([2.0])}
    SGD(lr=0.1, weight_decay=4e-5).step(params, {"p": np.array([0.0])})
    assert params["p"] == pytest.approx([2.0 * (1.0 - 0.1 * 4e-5)], abs=1e-15)


def test_sgd_nesterov_two_steps_reference():
    # hand-computed: g constant 1, momentum 0.9, lr 0.1, nesterov
    params = {"p": np.array([0.0])}
    opt = SGD(lr=0.1, momentum=0.9, nesterov=True)
    opt.step(params, {"p": np.array([1.0])})  # buf=1, d=1+0.9 -> p=-0.19
    assert params["p"] == pytest.approx([-0.19])
    opt.step(params, {"p": np.array([1.0])})  # buf=1.9, d=1+1.71 -> p=-0.19-0.271
    assert params["p"] == pytest.approx([-0.461])


def test_sgd_skips_parameters_without_grad():
    params = {"p": np.array([1.0, 2.0])}
    before = params["p"].copy()
    SGD(lr=0.1, weight_decay=0.1).step(params, {})
    assert np.array_equal(params["p"], before)


@pytest.mark.parametrize(
    "settings",
    [
        {"momentum": 0.9, "nesterov": True, "weight_decay": 4e-5},
        {"momentum": 0.9, "nesterov": False, "weight_decay": 4e-5},
        {"momentum": 0.9, "nesterov": True, "weight_decay": 0.0},
        {"momentum": 0.0, "weight_decay": 4e-5},
    ],
)
def test_sgd_on_packed_blocks_equals_per_name_steps_bit_for_bit(settings):
    # two blocks of two parameters each; the names view the blocks' memory
    layout = {"a": [("a.w", (3, 4)), ("a.b", (4,))], "b": [("b.w", (5, 2)), ("b.b", (2,))]}
    rng = make_rng("sgd-blocks", 0)
    sizes = {key: sum(math.prod(shape) for _, shape in parts) for key, parts in layout.items()}
    blocks = {key: rng.normal(size=size) for key, size in sizes.items()}
    grad_blocks = {key: np.empty_like(block) for key, block in blocks.items()}
    views, grad_views = {}, {}
    for key, parts in layout.items():
        start = 0
        for name, shape in parts:
            end = start + math.prod(shape)
            views[name] = blocks[key][start:end].reshape(shape)
            grad_views[name] = grad_blocks[key][start:end].reshape(shape)
            start = end
    params = {name: view.copy() for name, view in views.items()}
    packed, per_name = SGD(lr=0.1, **settings), SGD(lr=0.1, **settings)
    # a first touch of both, "a" alone while "b" is skipped for three steps,
    # then both again and "b" alone; the learning rate moves as a schedule's
    schedule = [("a", "b"), ("a",), ("a",), ("a",), ("a", "b"), ("b",), ("a", "b")]
    for step, touched in enumerate(schedule):
        packed.lr = per_name.lr = 0.1 / (step + 1)
        grads = {}
        for key in touched:
            for name, _ in layout[key]:
                # the packed side reuses one gradient buffer, overwritten per step
                grad_views[name][...] = rng.normal(size=grad_views[name].shape)
                grads[name] = grad_views[name].copy()
        packed.step(blocks, {key: grad_blocks[key] for key in touched})
        per_name.step(params, grads)
        for name, value in params.items():
            assert np.array_equal(views[name], value), (step, name)


def test_sgd_velocity_does_not_alias_a_reused_gradient_buffer():
    # without weight decay the step's gradient is the caller's own array; a
    # velocity that aliased it would change when the caller reuses the buffer
    params, reference = {"p": np.array([0.5, -1.0])}, {"p": np.array([0.5, -1.0])}
    opt, fresh = SGD(lr=0.1, momentum=0.9), SGD(lr=0.1, momentum=0.9)
    buffer = np.empty(2)
    for values in ([1.0, 2.0], [5.0, 5.0], [-3.0, 0.25]):
        buffer[...] = values
        opt.step(params, {"p": buffer})
        fresh.step(reference, {"p": np.array(values)})
        buffer[...] = [1e6, -1e6]  # overwritten between steps
        assert np.array_equal(params["p"], reference["p"])


def test_optimizers_reject_nonpositive_lr():
    with pytest.raises(ValueError):
        SGD(lr=0.0)


def test_cosine_warmup_schedule_shape():
    total, warm, base = 100, 10, 0.4
    lrs = [cosine_warmup_lr(s, total, base, warm) for s in range(total)]
    assert lrs[0] == pytest.approx(base / warm)
    assert max(lrs) == pytest.approx(base)
    assert lrs[-1] < 0.01 * base
    assert all(a >= b for a, b in zip(lrs[warm:], lrs[warm + 1 :]))


def test_clear_grads():
    p = Tensor(np.zeros(2), requires_grad=True)
    p.grad = np.ones(2)
    clear_grads([p])
    assert p.grad is None


def test_check_finite_passes_a_finite_array_whose_sum_overflows():
    data = np.array([1e308, 1e308])
    with np.errstate(over="ignore"):
        assert nn._check_finite(data, "probe") is data


@pytest.mark.parametrize("values", [[np.inf, -np.inf], [np.nan]])
def test_check_finite_names_the_op(values):
    with np.errstate(invalid="ignore"):
        with pytest.raises(nn.NotFiniteError, match="probe"):
            nn._check_finite(np.array(values), "probe")


@pytest.mark.parametrize("batch", [1, 2, 25, 128])
@pytest.mark.parametrize("width", [1, 24, 32])
def test_batch_moments_equal_numpy_reductions_bit_for_bit(batch, width):
    rng = make_rng("moments", batch, width)
    for shape in [(batch, width), (3, batch, width)]:
        x = rng.normal(size=shape) * 7.0 + 3.0
        sums, mean, centered, var = nn.batch_moments(x)
        assert np.array_equal(sums, x.sum(axis=-2, keepdims=True))
        assert np.array_equal(mean, x.mean(axis=-2, keepdims=True))
        assert np.array_equal(var, x.var(axis=-2, keepdims=True))
        assert np.array_equal(centered, x - x.mean(axis=-2, keepdims=True))
        if x.ndim == 3:  # each slice of a stack equals that batch on its own
            for k in range(len(x)):
                assert np.array_equal(var[k, 0], x[k].var(axis=0))
                assert np.array_equal(sums[k, 0], x[k].sum(axis=0))


@pytest.mark.parametrize("count", [1, 3, 8])
def test_stacked_recalibration_equals_folding_batches_one_at_a_time(count):
    rng = make_rng("recal-stack", count)
    batches = [rng.normal(size=(32, 6)) * 2.0 + 1.0 for _ in range(count)]
    one_by_one, stacked = NormStats(6), NormStats(6)
    one_by_one.begin_recalibration()
    outs = [nn.normalize_array(batch, one_by_one) for batch in batches]
    one_by_one.finish_recalibration()
    stacked.begin_recalibration()
    out = nn.normalize_array(np.stack(batches), stacked)
    stacked.finish_recalibration()
    assert np.array_equal(out, np.stack(outs))
    assert np.array_equal(stacked.running_mean, one_by_one.running_mean)
    assert np.array_equal(stacked.running_var, one_by_one.running_var)
    folded = NormStats(6)  # folding the sums alone, as the last layer does
    folded.begin_recalibration()
    folded.accumulate(np.stack(batches))
    folded.finish_recalibration()
    assert np.array_equal(folded.running_mean, one_by_one.running_mean)
    assert np.array_equal(folded.running_var, one_by_one.running_var)


@pytest.mark.parametrize("count", [1, 3, 8])
def test_stacked_train_mode_folds_batches_in_order(count):
    rng = make_rng("train-stack", count)
    batches = [rng.normal(size=(32, 6)) * 2.0 + 1.0 for _ in range(count)]
    one_by_one, stacked = NormStats(6), NormStats(6)
    outs = [nn.normalize_array(batch, one_by_one) for batch in batches]
    assert np.array_equal(nn.normalize_array(np.stack(batches), stacked), np.stack(outs))
    assert np.array_equal(stacked.running_mean, one_by_one.running_mean)
    assert np.array_equal(stacked.running_var, one_by_one.running_var)


def test_stacked_affine_equals_each_batch_bit_for_bit():
    # the recal stack relies on numpy multiplying a stack one gemm per slice;
    # widths 1 and 2 cover the rank-1 and rank-2 branches' gemv-shaped products
    rng = make_rng("affine-stack", 0)
    for rows in (1, 25, 128):
        for fan_in, fan_out in [(24, 1), (1, 24), (24, 2), (24, 96), (96, 32), (16, 24)]:
            x = rng.normal(size=(8, rows, fan_in))
            w = rng.normal(size=(fan_in, fan_out))
            b = rng.normal(size=fan_out)
            stacked = nn.affine_array(x, w, b)
            for k in range(len(x)):
                assert np.array_equal(stacked[k], nn.affine_array(x[k], w, b))
