"""Autodiff kernel: op semantics and gradient correctness vs finite differences."""

import math

import numpy as np
import pytest

from flowmoe.nn import (DropoutStream, ParamSet, Tensor, add_norm,
                        cross_entropy, dropout, relu)

from composed_ops import select, softmax, tsum
from gradcheck import check_gradients
from nn_helpers import trainable


def _params_from(values, train=True):
    ps = ParamSet()
    for name, v in values.items():
        ps.add(name, v)
    return trainable(ps) if train else ps


def test_relu_values():
    assert np.array_equal(relu(Tensor(np.array([-1.0, 2.0]))).data, [0.0, 2.0])


def test_softmax_symmetry():
    assert np.allclose(softmax(Tensor([0.0, 0.0])).data, [0.5, 0.5])


def test_softmax_rows_are_probabilities():
    rng = np.random.default_rng(3)
    z = rng.normal(size=(5, 7)) * 10
    p = softmax(Tensor(z)).data
    assert np.all(p >= 0)
    assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-12


def test_cross_entropy_analytic_values():
    # logits log(p) give back the probabilities p
    assert math.isclose(cross_entropy(Tensor(np.log([0.5, 0.5])), 0).item(),
                        math.log(2.0), rel_tol=1e-12)
    with np.errstate(divide="ignore"):
        certain = Tensor(np.log([1.0, 0.0]))
    assert cross_entropy(certain, 0).item() == 0.0
    assert math.isclose(
        cross_entropy(Tensor(np.log([0.2, 0.3, 0.5])), 2).item(),
        -math.log(0.5), rel_tol=1e-12)


def test_cross_entropy_rejects_bad_labels():
    with pytest.raises(ValueError):
        cross_entropy(Tensor(np.array([0.5, 0.5])), 2)


def test_cross_entropy_confidently_wrong_sample_keeps_its_gradient():
    # true class 40 below the other: loss 40, gradient softmax - onehot
    z = Tensor(np.array([0.0, 40.0]), requires_grad=True)
    loss = cross_entropy(z, 0)
    assert math.isclose(loss.item(), 40.0, rel_tol=1e-12)
    loss.backward()
    assert np.allclose(z.grad, [-1.0, 1.0], rtol=0, atol=1e-12)


def test_cross_entropy_extreme_logits_stay_finite():
    z = Tensor(np.array([[1000.0, -1000.0], [-1000.0, 1000.0]]),
               requires_grad=True)
    loss = cross_entropy(z, [1, 1])
    assert loss.item() == 1000.0        # mean of 2000 and 0
    loss.backward()
    assert np.array_equal(z.grad, [[0.5, -0.5], [0.0, 0.0]])


def test_backward_requires_graph():
    t = Tensor(np.ones(3))
    with pytest.raises(ValueError):
        t.backward()


def test_op_over_frozen_inputs_records_no_graph():
    # a ParamSet's tensors take no gradient until a training scope says so
    ps = _params_from({"w": np.ones((3, 2))}, train=False)
    x = Tensor(np.ones((4, 3)))
    out = relu(x @ ps["w"] + 1.0)
    assert not out.requires_grad
    assert out._parents == () and out._backward is None


def test_op_with_a_trainable_parent_records_a_graph():
    ps = _params_from({"w": np.ones((3, 2))})
    x = Tensor(np.ones((4, 3)))
    hidden = x @ ps["w"]
    out = relu(hidden + 1.0)
    assert out.requires_grad and out._backward is not None
    assert out._parents[0]._parents[0] is hidden
    assert hidden._parents == (x, ps["w"])


def test_grad_add_mul_broadcast():
    rng = np.random.default_rng(0)
    ps = _params_from({"a": rng.normal(size=(4, 3)), "b": rng.normal(size=3)})

    def loss_fn():
        return float(((ps["a"].data * 2.0 + ps["b"].data) ** 2).sum())

    out = ps["a"] * 2.0 + ps["b"]
    loss = tsum(out * out)
    loss.backward()
    grads = {n: t.grad for n, t in ps.items()}
    check_gradients(loss_fn, ps, grads, rng=rng)


def test_grad_matmul_stacked():
    rng = np.random.default_rng(1)
    ps = _params_from({"w": rng.normal(size=(5, 4))})
    x = rng.normal(size=(3, 6, 5))

    def forward():
        return tsum(Tensor(x) @ ps["w"])

    loss = forward()
    loss.backward()
    check_gradients(lambda: forward().item(), ps,
                    {"w": ps["w"].grad}, rng=rng)


def test_grad_softmax():
    rng = np.random.default_rng(2)
    ps = _params_from({"z": rng.normal(size=(4, 5))})
    coef = rng.normal(size=(4, 5))

    def forward():
        return tsum(softmax(ps["z"]) * coef)

    forward().backward()
    check_gradients(lambda: forward().item(), ps, {"z": ps["z"].grad}, rng=rng)


def test_grad_layer_norm():
    rng = np.random.default_rng(4)
    ps = _params_from({"x": rng.normal(size=(3, 8)),
                       "gamma": rng.normal(size=8),
                       "beta": rng.normal(size=8)})
    coef = rng.normal(size=(3, 8))

    def forward():
        # a constant zero sublayer: add_norm is the layer norm of x
        return tsum(add_norm(ps["x"], Tensor(np.zeros((3, 8))), ps["gamma"],
                             ps["beta"]) * coef)

    forward().backward()
    grads = {n: t.grad for n, t in ps.items()}
    check_gradients(lambda: forward().item(), ps, grads, rng=rng)


def test_grad_relu():
    rng = np.random.default_rng(5)
    ps = _params_from({"x": rng.normal(size=(6, 6)) + 0.05})

    def forward():
        return tsum(relu(ps["x"]) * 3.0)

    forward().backward()
    check_gradients(lambda: forward().item(), ps, {"x": ps["x"].grad}, rng=rng)


def test_grad_softmax_cross_entropy_matches_probability_gap():
    # composed gradient at the logits must equal (p - onehot) / batch
    rng = np.random.default_rng(6)
    z = rng.normal(size=(8, 4))
    labels = rng.integers(0, 4, size=8)
    ps = _params_from({"z": z})
    loss = cross_entropy(ps["z"], labels)
    loss.backward()
    p = softmax(Tensor(z)).data
    expect = p.copy()
    expect[np.arange(8), labels] -= 1.0
    expect /= 8.0
    assert np.allclose(ps["z"].grad, expect, atol=1e-12)


def test_grad_dropout_with_fixed_mask():
    rng = np.random.default_rng(7)
    ps = _params_from({"x": rng.normal(size=(5, 5))})
    mask = DropoutStream(11).mask((5, 5), 0.8)

    def forward():
        d = dropout(ps["x"], mask, 0.8)
        return tsum(d * d)

    forward().backward()
    check_gradients(lambda: forward().item(), ps, {"x": ps["x"].grad}, rng=rng)


def test_dropout_eval_is_identity_and_train_preserves_mean():
    stream = DropoutStream(3)
    x = np.ones((2000, 50))
    masked = dropout(Tensor(x), stream.mask(x.shape, 0.8), 0.8).data
    assert abs(masked.mean() - 1.0) < 0.02  # inverted dropout keeps the mean
    # keep_prob 1.0 would be an identity, eval path never calls dropout at all


def test_dropout_stream_deterministic():
    a = DropoutStream(42).mask((10, 10), 0.5)
    b = DropoutStream(42).mask((10, 10), 0.5)
    assert np.array_equal(a, b)
    c = DropoutStream(43).mask((10, 10), 0.5)
    assert not np.array_equal(a, c)


def test_grad_absent_for_unused_parameter():
    ps = _params_from({"used": np.ones(3), "unused": np.ones(3)})
    loss = tsum(ps["used"] * 2.0)
    loss.backward()
    assert ps["used"].grad is not None
    assert ps["unused"].grad is None


def test_frozen_parameter_gets_no_gradient():
    ps = _params_from({"w": np.ones(3)}, train=False)
    x = Tensor(np.ones(3), requires_grad=True)
    loss = tsum(ps["w"] * x)
    loss.backward()
    assert ps["w"].grad is None
    assert x.grad is not None


def test_select_gradient_scatters():
    ps = _params_from({"m": np.arange(12.0).reshape(3, 4)})
    loss = tsum(select(ps["m"], 1, axis=0))
    loss.backward()
    expect = np.zeros((3, 4))
    expect[1] = 1.0
    assert np.array_equal(ps["m"].grad, expect)


def test_shared_upstream_gradient_is_not_mutated_by_accumulation():
    # a + b hands one gradient array to both a and b; a's second
    # contribution must not leak into b: d/dx (2x + 3x + 2x) = 7
    x = Tensor(np.array([1.0]), requires_grad=True)
    a, b = x * 2.0, x * 3.0
    tsum((a + b) + a).backward()
    assert np.array_equal(x.grad, [7.0])


def test_leaves_sharing_one_upstream_array_accumulate_separately():
    # a + b hands one gradient array to both leaves, which keep it without
    # a copy; a second sweep must add into each leaf's gradient alone
    a = Tensor(np.ones(3), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    loss = tsum(a + b)
    loss.backward()
    loss.backward()
    assert np.array_equal(a.grad, [2.0, 2.0, 2.0])
    assert np.array_equal(b.grad, [2.0, 2.0, 2.0])


def test_weight_used_by_two_matmuls_gets_the_summed_gradient():
    # the first matmul closure writes the weight's reused buffer; the
    # second must not overwrite it while it is still pending in the sweep
    rng = np.random.default_rng(2)
    ps = _params_from({"w": rng.normal(size=(5, 4))})
    x1, x2 = rng.normal(size=(3, 5)), rng.normal(size=(6, 5))
    c1, c2 = rng.normal(size=(3, 4)), rng.normal(size=(6, 4))

    def forward():
        return tsum((Tensor(x1) @ ps["w"]) * c1) \
            + tsum((Tensor(x2) @ ps["w"]) * c2)

    forward().backward()
    expected = x1.T @ c1 + x2.T @ c2
    assert np.allclose(ps["w"].grad, expected, rtol=1e-13, atol=0)
    check_gradients(lambda: forward().item(), ps, {"w": ps["w"].grad},
                    rng=rng)


def test_second_sweep_without_zero_grad_adds_to_the_weight_gradient():
    # after one sweep the weight's .grad is its reused buffer; a second
    # sweep must not write the new gradient into it before adding
    rng = np.random.default_rng(3)
    w = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    x1, x2 = rng.normal(size=(3, 5)), rng.normal(size=(3, 5))
    tsum(Tensor(x1) @ w).backward()
    tsum(Tensor(x2) @ w).backward()
    expected = x1.T @ np.ones((3, 4)) + x2.T @ np.ones((3, 4))
    assert np.allclose(w.grad, expected, rtol=1e-13, atol=0)


def test_diamond_graph_accumulates_once_per_path():
    ps = _params_from({"x": np.array([2.0])})
    y = ps["x"] * 3.0
    loss = tsum(y * y)  # d/dx (3x)^2 = 18x = 36
    loss.backward()
    assert np.allclose(ps["x"].grad, [36.0])


# -- needed-only backward: a constant operand gets no gradient --------------

def _check_constant_operand(op, param_shape, const_shape, param_first, seed):
    """FD-check `op` with one trainable and one constant operand.

    The constant must end with grad None, and the closure must hand back
    no (parent, gradient) pair for it.
    """
    rng = np.random.default_rng(seed)
    ps = _params_from({"p": rng.normal(size=param_shape)})
    const = Tensor(rng.normal(size=const_shape))

    def build():
        a, b = (ps["p"], const) if param_first else (const, ps["p"])
        return op(a, b)

    out = build()
    coef = rng.normal(size=out.shape)
    pairs = list(out._backward(coef))
    assert [parent for parent, _ in pairs] == [ps["p"]]
    tsum(out * coef).backward()
    assert const.grad is None
    check_gradients(lambda: float((build().data * coef).sum()), ps,
                    {"p": ps["p"].grad}, rng=rng)


@pytest.mark.parametrize("param_shape,const_shape,param_first", [
    ((4, 5), (5, 3), True),         # 2-D, constant on the right
    ((5, 3), (4, 5), False),        # 2-D, constant on the left
    ((5, 4), (3, 6, 5), False),     # stacked input @ trainable weight
    ((3, 6, 5), (5, 4), True),      # trainable stack @ constant matrix
])
def test_matmul_constant_operand(param_shape, const_shape, param_first):
    _check_constant_operand(lambda a, b: a @ b, param_shape, const_shape,
                            param_first, seed=10)


@pytest.mark.parametrize("param_shape,const_shape,param_first", [
    ((4, 3), (3,), True),           # constant broadcast over rows
    ((3,), (4, 3), False),          # trainable operand broadcast
    ((4, 1), (4, 3), True),         # size-1 axis summed back
])
@pytest.mark.parametrize("name", ["mul", "add"])
def test_mul_add_constant_operand(name, param_shape, const_shape, param_first):
    op = (lambda a, b: a * b) if name == "mul" else (lambda a, b: a + b)
    _check_constant_operand(op, param_shape, const_shape, param_first,
                            seed=11)


def test_layer_norm_skips_constant_parents():
    rng = np.random.default_rng(12)
    x = Tensor(rng.normal(size=(3, 8)), requires_grad=True)
    gamma, beta = Tensor(np.ones(8)), Tensor(np.zeros(8))
    out = add_norm(x, Tensor(np.zeros((3, 8))), gamma, beta)
    assert [p for p, _ in out._backward(np.ones((3, 8)))] == [x]


def test_relu_non_finite_and_negative_inputs():
    x = np.array([np.nan, np.inf, -np.inf, -2.0, -0.0, 0.0, 3.0])
    t = Tensor(x, requires_grad=True)
    y = relu(t)
    assert np.isnan(y.data[0])                        # NaN is not hidden
    assert np.array_equal(y.data[1:], [np.inf, 0.0, 0.0, 0.0, 0.0, 3.0])
    tsum(y).backward()
    assert np.array_equal(t.grad, [0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0])
