"""Autodiff kernel: op semantics and gradient correctness vs finite differences."""

import math

import numpy as np
import pytest

from flowmoe.nn import (DropoutStream, ParamSet, Tensor, cross_entropy, dropout,
                        layer_norm, no_grad, relu, softmax, stack)

from gradcheck import check_gradients


def _params_from(values):
    ps = ParamSet()
    for name, v in values.items():
        ps.add(name, v)
    return ps


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
    assert math.isclose(cross_entropy(Tensor(np.array([0.5, 0.5])), 0).item(),
                        math.log(2.0), rel_tol=1e-12)
    assert cross_entropy(Tensor(np.array([1.0, 0.0])), 0).item() == 0.0
    assert math.isclose(
        cross_entropy(Tensor(np.array([0.2, 0.3, 0.5])), 2).item(),
        -math.log(0.5), rel_tol=1e-12)


def test_cross_entropy_rejects_bad_labels():
    with pytest.raises(ValueError):
        cross_entropy(Tensor(np.array([0.5, 0.5])), 2)
    with pytest.raises(ValueError):
        cross_entropy(Tensor(np.array([0.4, 0.4])), 0)  # not a distribution


def test_backward_requires_graph():
    t = Tensor(np.ones(3))
    with pytest.raises(ValueError):
        t.backward()


def test_no_grad_skips_graph():
    p = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        out = (p * 2.0).sum()
    assert not out.requires_grad


def test_grad_add_mul_broadcast():
    rng = np.random.default_rng(0)
    ps = _params_from({"a": rng.normal(size=(4, 3)), "b": rng.normal(size=3)})

    def loss_fn():
        return float(((ps["a"].data * 2.0 + ps["b"].data) ** 2).sum())

    out = ps["a"] * 2.0 + ps["b"]
    loss = (out * out).sum()
    loss.backward()
    grads = {n: t.grad for n, t in ps.items()}
    check_gradients(loss_fn, ps, grads, rng=rng)


def test_grad_matmul_stacked():
    rng = np.random.default_rng(1)
    ps = _params_from({"w": rng.normal(size=(5, 4))})
    x = rng.normal(size=(3, 6, 5))

    def forward():
        return (Tensor(x) @ ps["w"]).sum()

    loss = forward()
    loss.backward()
    check_gradients(lambda: forward().item(), ps,
                    {"w": ps["w"].grad}, rng=rng)


def test_grad_softmax():
    rng = np.random.default_rng(2)
    ps = _params_from({"z": rng.normal(size=(4, 5))})
    coef = rng.normal(size=(4, 5))

    def forward():
        return (softmax(ps["z"]) * coef).sum()

    forward().backward()
    check_gradients(lambda: forward().item(), ps, {"z": ps["z"].grad}, rng=rng)


def test_grad_layer_norm():
    rng = np.random.default_rng(4)
    ps = _params_from({"x": rng.normal(size=(3, 8)),
                       "gamma": rng.normal(size=8),
                       "beta": rng.normal(size=8)})
    coef = rng.normal(size=(3, 8))

    def forward():
        return (layer_norm(ps["x"], ps["gamma"], ps["beta"]) * coef).sum()

    forward().backward()
    grads = {n: t.grad for n, t in ps.items()}
    check_gradients(lambda: forward().item(), ps, grads, rng=rng)


def test_grad_relu():
    rng = np.random.default_rng(5)
    ps = _params_from({"x": rng.normal(size=(6, 6)) + 0.05})

    def forward():
        return (relu(ps["x"]) * 3.0).sum()

    forward().backward()
    check_gradients(lambda: forward().item(), ps, {"x": ps["x"].grad}, rng=rng)


def test_grad_softmax_cross_entropy_matches_probability_gap():
    # composed gradient at the logits must equal (p - onehot) / batch
    rng = np.random.default_rng(6)
    z = rng.normal(size=(8, 4))
    labels = rng.integers(0, 4, size=8)
    ps = _params_from({"z": z})
    loss = cross_entropy(softmax(ps["z"]), labels)
    loss.backward()
    p = softmax(Tensor(z)).data
    expect = p.copy()
    expect[np.arange(8), labels] -= 1.0
    expect /= 8.0
    assert np.allclose(ps["z"].grad, expect, atol=1e-12)


def test_grad_stack():
    rng = np.random.default_rng(8)
    ps = _params_from({"a": rng.normal(size=(3, 4)),
                       "b": rng.normal(size=(3, 4))})
    coef = rng.normal(size=(2, 3, 4))

    def forward():
        return (stack([ps["a"], ps["b"]]) * coef).sum()

    forward().backward()
    grads = {n: t.grad for n, t in ps.items()}
    check_gradients(lambda: forward().item(), ps, grads, rng=rng)


def test_grad_dropout_with_fixed_mask():
    rng = np.random.default_rng(7)
    ps = _params_from({"x": rng.normal(size=(5, 5))})
    mask = DropoutStream(11).mask((5, 5), 0.8)

    def forward():
        d = dropout(ps["x"], mask, 0.8)
        return (d * d).sum()

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
    loss = (ps["used"] * 2.0).sum()
    loss.backward()
    assert ps["used"].grad is not None
    assert ps["unused"].grad is None


def test_frozen_parameter_gets_no_gradient():
    ps = _params_from({"w": np.ones(3)})
    ps.freeze()
    x = Tensor(np.ones(3), requires_grad=True)
    loss = (ps["w"] * x).sum()
    loss.backward()
    assert ps["w"].grad is None
    assert x.grad is not None


def test_select_gradient_scatters():
    ps = _params_from({"m": np.arange(12.0).reshape(3, 4)})
    loss = ps["m"].select(1, axis=0).sum()
    loss.backward()
    expect = np.zeros((3, 4))
    expect[1] = 1.0
    assert np.array_equal(ps["m"].grad, expect)


def test_diamond_graph_accumulates_once_per_path():
    ps = _params_from({"x": np.array([2.0])})
    y = ps["x"] * 3.0
    loss = (y * y).sum()  # d/dx (3x)^2 = 18x = 36
    loss.backward()
    assert np.allclose(ps["x"].grad, [36.0])
