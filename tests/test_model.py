"""Encoder and head forwards: shape contracts, determinism, gradients."""

import numpy as np
import pytest

from flowmoe.nn import (INPUT_DIM, DropoutStream, ParamSet, Tensor, backward,
                        cross_entropy, encoder_forward, head_forward,
                        init_encoder, init_gate_linear, init_head,
                        seed_streams, stack_encoders, training)

from composed_ops import select, softmax
from gradcheck import check_gradients
from nn_helpers import eval_forward


@pytest.fixture(scope="module")
def encoder():
    return init_encoder(np.random.default_rng(0))


def test_encoder_output_length(encoder):
    x = np.random.default_rng(1).random((1, INPUT_DIM))
    out = eval_forward(encoder_forward, encoder, x)
    assert out.shape == (1, INPUT_DIM)
    batch = eval_forward(encoder_forward, encoder,
                         np.random.default_rng(2).random((5, INPUT_DIM)))
    assert batch.shape == (5, INPUT_DIM)


def test_encoder_of_no_rows_gives_no_rows(encoder):
    out = eval_forward(encoder_forward, encoder, np.zeros((0, INPUT_DIM)))
    assert out.shape == (0, INPUT_DIM)


def test_stacked_encoder_of_no_rows_gives_no_rows():
    stacked = stack_encoders([init_encoder(np.random.default_rng(j))
                              for j in range(3)])
    out = eval_forward(encoder_forward, stacked, np.zeros((0, INPUT_DIM)))
    assert out.shape == (3, 0, INPUT_DIM)


def test_encoder_rejects_wrong_length(encoder):
    for x in (np.zeros((1, 910)), np.zeros(INPUT_DIM)):
        with pytest.raises(ValueError):
            encoder_forward(encoder, x)


def test_encoder_eval_deterministic(encoder):
    x = np.random.default_rng(3).random((1, INPUT_DIM))
    a = eval_forward(encoder_forward, encoder, x)
    b = eval_forward(encoder_forward, encoder, x)
    assert np.array_equal(a, b)


def test_encoder_train_mode_uses_dropout(encoder):
    x = np.random.default_rng(5).random((1, INPUT_DIM))
    a = eval_forward(encoder_forward, encoder, x, train_mode=True,
                     dropout_stream=DropoutStream(1))
    b = eval_forward(encoder_forward, encoder, x, train_mode=True,
                     dropout_stream=DropoutStream(2))
    assert not np.array_equal(a, b)
    c = eval_forward(encoder_forward, encoder, x, train_mode=True,
                     dropout_stream=DropoutStream(1))
    assert np.array_equal(a, c)


def test_encoder_train_mode_requires_stream(encoder):
    with pytest.raises(ValueError):
        encoder_forward(encoder, np.zeros((1, INPUT_DIM)), train_mode=True)


def test_encoder_gradients_match_finite_differences(encoder):
    rng = np.random.default_rng(6)
    x = rng.random((4, INPUT_DIM))
    labels = np.array([0, 1, 2, 0])
    head = init_head(np.random.default_rng(7), 3)

    def forward():
        rep = encoder_forward(encoder, x)
        logits = head_forward(head, rep)
        return cross_entropy(logits, labels)

    with training(encoder, head):
        enc_grads, head_grads = backward(forward(), encoder, head)
    check_gradients(lambda: forward().item(), encoder, enc_grads,
                    max_coords=6, rng=rng)
    check_gradients(lambda: forward().item(), head, head_grads,
                    max_coords=6, rng=rng)


def test_encoder_train_mode_gradients(encoder):
    # mask sequence is replayed from the same seed on every evaluation,
    # so the train-mode loss is a fixed differentiable function
    rng = np.random.default_rng(8)
    x = rng.random((3, INPUT_DIM))
    labels = np.array([1, 0, 1])
    head = init_head(np.random.default_rng(9), 2)

    def forward():
        rep = encoder_forward(encoder, x, train_mode=True,
                              dropout_stream=DropoutStream(21))
        logits = head_forward(head, rep, train_mode=True,
                              dropout_stream=DropoutStream(22))
        return cross_entropy(logits, labels)

    with training(encoder, head):
        enc_grads, head_grads = backward(forward(), encoder, head)
    check_gradients(lambda: forward().item(), encoder, enc_grads,
                    max_coords=4, rng=rng)
    check_gradients(lambda: forward().item(), head, head_grads,
                    max_coords=4, rng=rng)


def test_gate_linear_gradients():
    rng = np.random.default_rng(10)
    gate = init_gate_linear(3)
    gate["w"].data = rng.normal(size=gate["w"].data.shape) * 0.05
    x = rng.random((5, INPUT_DIM))
    stacked = rng.normal(size=(3, 5, INPUT_DIM))
    labels = rng.integers(0, 2, size=5)
    tower = init_head(np.random.default_rng(11), 2)

    def forward():
        logits = Tensor(x) @ gate["w"] + gate["b"]
        delta = softmax(logits)  # (5, 3)
        mixed = None
        for j in range(3):
            term = select(delta, j, axis=1).reshape(5, 1) * Tensor(stacked[j])
            mixed = term if mixed is None else mixed + term
        out = head_forward(tower, mixed)
        return cross_entropy(out, labels)

    with training(gate, tower):
        gate_grads, tower_grads = backward(forward(), gate, tower)
    check_gradients(lambda: forward().item(), gate, gate_grads,
                    max_coords=8, rng=rng)
    check_gradients(lambda: forward().item(), tower, tower_grads,
                    max_coords=8, rng=rng)


def test_frozen_encoder_receives_no_gradients(encoder):
    # only the head is in the training scope; the encoder stays frozen
    head = init_head(np.random.default_rng(12), 2)
    x = np.random.default_rng(13).random((2, INPUT_DIM))
    with training(head):
        loss = cross_entropy(head_forward(head, encoder_forward(encoder, x)),
                             np.array([0, 1]))
        enc_grads, head_grads = backward(loss, encoder, head)
    assert enc_grads == {}
    assert set(head_grads) == set(head.names())


def test_zero_output_head_starts_uniform():
    head = init_head(np.random.default_rng(14), 4, zero_output=True)
    x = np.random.default_rng(15).random((3, INPUT_DIM))
    probs = softmax(Tensor(eval_forward(head_forward, head, x))).data
    assert np.allclose(probs, 0.25)


def test_consecutive_sweeps_reuse_the_weight_gradient_buffer():
    # the head's fc1.w gradient lives in one buffer across steps, and each
    # sweep leaves its own values in it: those of a head that never swept
    head = init_head(np.random.default_rng(16), 3)
    rng = np.random.default_rng(17)

    def fc1_grad(params, x, labels):
        with training(params):
            loss = cross_entropy(head_forward(params, x), labels)
            return backward(loss, params)[0]["fc1.w"]

    def fresh_fc1_grad(x, labels):
        fresh = ParamSet()
        for name, t in head.items():
            fresh.add(name, t.data)
        return fc1_grad(fresh, x, labels)

    steps = [(rng.random((4, INPUT_DIM)), rng.integers(0, 3, size=4))
             for _ in range(2)]
    first = fc1_grad(head, *steps[0])
    first_values = first.copy()
    assert np.array_equal(first_values, fresh_fc1_grad(*steps[0]))
    second = fc1_grad(head, *steps[1])
    assert second is first
    assert np.array_equal(second, fresh_fc1_grad(*steps[1]))
    assert not np.array_equal(second, first_values)


@pytest.mark.parametrize("seed", [-1, 1.5, "7"])
def test_seed_streams_rejects_a_seed_that_is_not_a_non_negative_integer(seed):
    with pytest.raises(ValueError, match=rf"^seed must be a non-negative "
                                         rf"integer, got {seed!r}$"):
        seed_streams(seed, 2)
    assert seed_streams(np.int64(3), 2) == seed_streams(3, 2)
