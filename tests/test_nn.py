import math

import numpy as np
import pytest

from conftest import central_difference
from nse.rng import make_rng
from nse import nn
from nse.nn import (
    EPS_NORM,
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
        t = {k: Tensor(v, requires_grad=True) for k, v in values.items()}
        h = affine(Tensor(x), t["w1"], t["b1"])
        h = relu(h) if seed % 2 == 0 else tanh(h)
        h = normalize(h)
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


def _var(inv):
    """The variance behind a recalibrated inverse deviation."""
    return 1.0 / (inv * inv) - EPS_NORM


def test_recalibrate_constant_batch():
    mean, inv = nn.Recalibration().fold(np.full((1, 10, 3), 2.5)).stats()
    assert mean == pytest.approx([2.5] * 3)
    assert _var(inv) == pytest.approx([0.0] * 3, abs=1e-12)


def test_recalibrate_idempotent_for_duplicate_batches():
    rng = make_rng("recal", 1)
    batch = rng.normal(size=(16, 4))
    one = nn.Recalibration().fold(batch[None]).stats()
    two = nn.Recalibration().fold(np.stack([batch, batch])).stats()
    assert one[0] == pytest.approx(two[0], abs=1e-12)
    assert _var(one[1]) == pytest.approx(_var(two[1]), abs=1e-12)


def test_recalibrate_matches_whole_dataset_oracle():
    # one batch size: evaluation stacks the recalibration batches, so they share it
    rng = make_rng("recal", 2)
    batches = [rng.normal(size=(int(rng.integers(4, 20)), 5)) for _ in range(7)]
    size = min(len(b) for b in batches)
    batches = [b[:size] for b in batches]
    mean, inv = nn.Recalibration().fold(np.stack(batches)).stats()
    everything = np.concatenate(batches, axis=0)
    assert np.max(np.abs(mean - everything.mean(axis=0))) < 1e-10
    assert np.max(np.abs(_var(inv) - everything.var(axis=0))) < 1e-10


def test_recalibrate_empty_raises():
    with pytest.raises(ValueError):
        nn.Recalibration().stats()
    with pytest.raises(ValueError):
        nn.Recalibration().fold(np.zeros((0, 8, 2))).stats()
    with pytest.raises(ValueError):
        nn.Recalibration().fold(np.zeros((3, 0, 2))).stats()


def fold_batches(batches):
    """Reference recalibration: each batch's sums and sums of squares folded
    in a Python loop."""
    total, sq = np.zeros(batches[0].shape[1]), np.zeros(batches[0].shape[1])
    for batch in batches:
        total += batch.sum(axis=0)
        sq += (batch * batch).sum(axis=0)
    count = sum(len(batch) for batch in batches)
    mean = total / count
    return mean, 1.0 / np.sqrt(np.maximum(sq / count - mean * mean, 0.0) + EPS_NORM)


@pytest.mark.parametrize("fold", ["normalize", "sums"])
def test_recalibration_does_not_depend_on_prior_running_values(fold):
    # statistics are plain values: recalibrating after training normalizations
    # gives what recalibrating with none before does
    rng = make_rng("recal-prior", 0)
    stack = rng.normal(size=(3, 32, 6)) * 2.0 + 1.0

    def stats():
        if fold == "normalize":  # a non-last layer reuses its output's sums
            return nn.Recalibration().fold(stack, nn.normalize_train_stack(stack)[3]).stats()
        return nn.Recalibration().fold(stack).stats()  # the last layer folds only the sums

    fresh = stats()
    for _ in range(4):
        nn.normalize_train_stack(rng.normal(size=(2, 16, 6)) * 3.0 - 2.0)
    trained = stats()
    assert np.array_equal(trained[0], fresh[0])
    assert np.array_equal(trained[1], fresh[1])


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
    expected = fold_batches(batches)
    stack = np.stack(batches)
    for sums in (None, nn.batch_moments(stack)[0]):
        mean, inv = nn.Recalibration().fold(stack, sums).stats()
        assert np.array_equal(mean, expected[0])
        assert np.array_equal(inv, expected[1])


def test_folding_a_stack_in_blocks_equals_folding_batches_one_at_a_time():
    # evaluation folds the recal stack in blocks of whole batches
    count = 5
    rng = make_rng("recal-blocks", count)
    stack = rng.normal(size=(count, 32, 6)) * 2.0 + 1.0
    expected = fold_batches(list(stack))
    for per_block in (1, 2, count):
        for with_sums in (False, True):
            fold = nn.Recalibration()
            for start in range(0, count, per_block):
                block = stack[start : start + per_block]
                fold.fold(block, nn.batch_moments(block)[0] if with_sums else None)
            assert fold.count == count * 32
            mean, inv = fold.stats()
            assert np.array_equal(mean, expected[0])
            assert np.array_equal(inv, expected[1])


def test_fixed_normalize_equals_the_tape_and_checks_shapes():
    rng = make_rng("fixed-norm", 0)
    stack = rng.normal(size=(3, 16, 5)) * 2.0 + 1.0
    mean, inv = nn.Recalibration().fold(stack).stats()
    out = nn.normalize_fixed(stack, mean, inv)
    for k in range(len(stack)):
        assert np.array_equal(out[k], normalize(Tensor(stack[k]), (mean, inv)).data)
    with pytest.raises(nn.ShapeError):
        nn.normalize_fixed(stack, mean[:4], inv[:4])
    with pytest.raises(nn.ShapeError):
        normalize(Tensor(stack[0]), (mean, inv[:4]))
    with pytest.raises(nn.ShapeError):
        nn.Recalibration().fold(stack[0])
    with pytest.raises(nn.ShapeError):
        nn.Recalibration().fold(stack).fold(stack[:, :, :4])


@pytest.mark.parametrize("count", [1, 3, 8])
def test_stacked_train_mode_folds_batches_in_order(count):
    rng = make_rng("train-stack", count)
    batches = [rng.normal(size=(32, 6)) * 2.0 + 1.0 for _ in range(count)]
    out, _, _, sums = nn.normalize_train_stack(np.stack(batches))
    assert np.array_equal(out, np.stack([normalize(Tensor(b)).data for b in batches]))
    assert np.array_equal(sums[:, 0], np.stack([b.sum(axis=0) for b in batches]))


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
