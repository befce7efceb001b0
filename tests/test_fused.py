"""Fused ops: finite differences, the composed-encoder oracle, masks."""

import numpy as np
import pytest

from flowmoe.nn import (INPUT_DIM, DropoutStream, ParamSet, Tensor, add_norm,
                        attention, backward, cross_entropy, encoder_forward,
                        feed_forward, gate_mix, head_forward, init_encoder,
                        init_head, softmax_rows, softmax_rows_backward,
                        stack_encoders, training)

from composed_encoder import composed_encoder_forward
from composed_ops import softmax, tsum
from gradcheck import check_gradients
from nn_helpers import eval_forward, frozen, trainable

B, T, D = 2, 5, 6
E = 2           # stacked cases: (E, 1, d, e) weights, (E, 1, 1, d) vectors


def _params(rng, shapes, scale=0.5):
    ps = ParamSet()
    for name, shape in shapes.items():
        ps.add(name, rng.normal(size=shape) * scale)
    return trainable(ps)


def _case_params(rng, shapes, stacked):
    """(ParamSet over `shapes`, the input "x"). Unstacked, "x" is one of
    the parameters. Stacked, each other entry holds E experts' parameters
    ("sub" the experts' own rows), and "x" is a constant Tensor the
    experts share, as the encoder's tokens are."""
    if not stacked:
        ps = _params(rng, shapes)
        return ps, ps["x"]
    x = Tensor(rng.normal(size=shapes.pop("x")) * 0.5)
    lead = {"sub": (E,)}
    return _params(rng, {
        name: lead.get(name, (E,) + (1,) * (3 - len(shape))) + shape
        for name, shape in shapes.items()}), x


def _attention_case(rng, stacked=False):
    shapes = {"x": (B, T, D)}
    for n in "qkvo":
        shapes.update({f"{n}.w": (D, D), f"{n}.b": (D,)})
    ps, x = _case_params(rng, shapes, stacked)
    return ps, lambda: attention(x, *((ps[f"{n}.w"], ps[f"{n}.b"])
                                      for n in "qkvo"), 2)


def _feed_forward_case(rng, stacked=False):
    shapes = {"x": (B, T, D), "w1": (D, 10), "b1": (10,), "w2": (10, D),
              "b2": (D,)}
    ps, x = _case_params(rng, shapes, stacked)
    # push pre-activations away from the ReLU kink
    ps["b1"].data += np.sign(ps["b1"].data) * 0.5
    return ps, lambda: feed_forward(x, ps["w1"], ps["b1"], ps["w2"],
                                    ps["b2"])


def _add_norm_case(rng, masked, stacked=False):
    shapes = {"x": (B, T, D), "sub": (B, T, D), "gamma": (D,), "beta": (D,)}
    ps, x = _case_params(rng, shapes, stacked)
    mask = DropoutStream(4).mask(ps["sub"].shape, 0.7) if masked else None
    return ps, lambda: add_norm(x, ps["sub"], ps["gamma"], ps["beta"],
                                mask, 0.7 if masked else 1.0)


def _gate_mix_case(rng, trainable):
    # rows out of expert order, and one of the three rows left out; the
    # op mixes any trailing shape, so tokens stand in for feature rows
    shapes = {"stacked": (3, B, T, D)}
    if trainable:
        shapes.update({"x": (B, T, D), "w": (D, 2), "b": (2,)})
    ps = _params(rng, shapes)
    if not trainable:
        return ps, lambda: gate_mix(ps["stacked"], (2, 0), fixed=[0.3, 0.7])
    return ps, lambda: gate_mix(ps["stacked"], (2, 0), x=ps["x"],
                                linear=(ps["w"], ps["b"]))


CASES = {
    "attention": _attention_case,
    "feed_forward": _feed_forward_case,
    "add_norm": lambda rng: _add_norm_case(rng, masked=False),
    "add_norm_dropout": lambda rng: _add_norm_case(rng, masked=True),
    "gate_mix": lambda rng: _gate_mix_case(rng, trainable=True),
    "gate_mix_fixed": lambda rng: _gate_mix_case(rng, trainable=False),
    "attention_stacked": lambda rng: _attention_case(rng, stacked=True),
    "feed_forward_stacked": lambda rng: _feed_forward_case(rng, stacked=True),
    "add_norm_dropout_stacked": lambda rng: _add_norm_case(
        rng, masked=True, stacked=True),
}


@pytest.mark.parametrize("case", list(CASES))
def test_fused_op_gradients_match_finite_differences(case):
    # "x" is a trainable input outside the stacked cases, so the
    # input-gradient branch that the encoder never reaches (its tokens
    # carry no graph) is checked too
    rng = np.random.default_rng(30)
    ps, op = CASES[case](rng)
    coef = rng.normal(size=op().shape)

    def loss():
        return tsum(op() * coef)

    grads, = backward(loss(), ps)
    assert set(grads) == set(dict(ps.items()))
    check_gradients(lambda: loss().item(), ps, grads, rel_tol=1e-4,
                    max_coords=12, rng=rng)


@pytest.mark.parametrize("case", list(CASES))
def test_fused_op_forms_gradients_only_for_trainable_parents(case):
    rng = np.random.default_rng(31)
    ps, op = CASES[case](rng)
    names = list(dict(ps.items()))
    for trainable in ([], [names[0]], names[1:2], names[-1:], names[::2]):
        for name, t in ps.items():
            t.requires_grad = name in trainable
        out = op()
        if not trainable:
            assert out._backward is None
            continue
        got = [p for p, _ in out._backward(np.ones(out.shape))]
        assert sorted(map(id, got)) == sorted(id(ps[n]) for n in trainable)


@pytest.fixture(scope="module")
def encoder():
    return init_encoder(np.random.default_rng(0))


def test_fused_encoder_matches_composed_oracle_in_eval_mode(encoder):
    x = np.random.default_rng(33).random((7, INPUT_DIM))
    fused = eval_forward(encoder_forward, encoder, x)
    composed = eval_forward(composed_encoder_forward, encoder, x)
    np.testing.assert_allclose(fused, composed, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("train_mode", [False, True])
def test_fused_encoder_gradients_match_composed_oracle(encoder, train_mode):
    # same DropoutStream seed: both encoders draw the same masks in order
    rng = np.random.default_rng(34)
    x = rng.random((6, INPUT_DIM))
    labels = rng.integers(0, 3, size=6)
    head = init_head(np.random.default_rng(35), 3)

    def run(forward):
        with training(encoder, head):
            rep = forward(encoder, x, train_mode=train_mode,
                          dropout_stream=DropoutStream(8))
            loss = cross_entropy(
                head_forward(head, rep, train_mode=train_mode,
                             dropout_stream=DropoutStream(9)), labels)
            return rep.data, loss.item(), backward(loss, encoder, head)

    rep, loss, (enc_g, head_g) = run(encoder_forward)
    ref_rep, ref_loss, (ref_enc_g, ref_head_g) = run(composed_encoder_forward)
    np.testing.assert_allclose(rep, ref_rep, rtol=1e-12, atol=1e-12)
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    assert set(enc_g) == set(ref_enc_g) == set(dict(encoder.items()))
    # fp64 rounding only, far inside criterion 01's 1e-4; the attention key
    # bias has a true gradient of 0, so its entries are rounding noise
    for grads, ref in ((enc_g, ref_enc_g), (head_g, ref_head_g)):
        for name in ref:
            scale = np.max(np.abs(ref[name]))
            np.testing.assert_allclose(grads[name], ref[name], rtol=1e-10,
                                       atol=1e-12 * scale + 1e-15,
                                       err_msg=name)


def test_dropout_masks_are_the_old_float_masks_as_booleans():
    # the masks were float64 0/1 arrays drawn as random() < keep from one
    # Philox stream; the boolean masks come from the same draws in order
    stream = DropoutStream(12)
    old = np.random.Generator(np.random.Philox(key=12))
    for shape, keep in (((3, 24, 38), 0.8), ((3, 256), 0.8), ((5, 7), 0.3)):
        mask = stream.mask(shape, keep)
        assert mask.dtype == np.bool_
        assert np.array_equal(mask, (old.random(shape) < keep)
                              .astype(np.float64))


def _stacked_encoders():
    """(each encoder's values, the E encoders stacked)."""
    encoders = [init_encoder(np.random.default_rng(j)) for j in range(E)]
    originals = [{n: t.data.copy() for n, t in e.items()} for e in encoders]
    return originals, stack_encoders(encoders)


def test_stacked_encoder_pass_matches_each_encoders_own_pass():
    # a loss linear in the output hands each expert's slice the same
    # upstream gradient as its own pass, so the slices must agree bitwise
    originals, stacked = _stacked_encoders()
    assert frozen(stacked)
    rng = np.random.default_rng(36)
    x = rng.random((3, INPUT_DIM))
    coef = rng.normal(size=(E, 3, INPUT_DIM))
    with training(stacked):
        out = encoder_forward(stacked, x)
        grads, = backward(tsum(out * coef), stacked)
    assert out.shape == (E, 3, INPUT_DIM)
    for j, values in enumerate(originals):
        own = ParamSet()
        for name, data in values.items():
            own.add(name, data)
        with training(own):
            own_out = encoder_forward(own, x)
            own_grads, = backward(tsum(own_out * coef[j]), own)
        assert np.array_equal(out.data[j], own_out.data)
        for name, g in own_grads.items():
            assert np.array_equal(grads[name][j].reshape(g.shape), g), name


def test_stacked_encoder_gradients_match_finite_differences():
    # criterion 01's check on E = 2 stacked encoders sharing one input
    _, stacked = _stacked_encoders()
    trainable(stacked)
    rng = np.random.default_rng(37)
    x = rng.random((2, INPUT_DIM))
    coef = rng.normal(size=(E, 2, INPUT_DIM))

    def loss():
        return tsum(encoder_forward(stacked, x) * coef)

    grads, = backward(loss(), stacked)
    assert set(grads) == set(dict(stacked.items()))
    check_gradients(lambda: loss().item(), stacked, grads, rel_tol=1e-4,
                    max_coords=4, rng=rng)


def test_softmax_rows_matches_the_composed_op_bitwise():
    # rows spanning +-1e3 (the shift keeps exp finite) and a row of equal
    # values; both halves against the oracle op's own arithmetic
    rng = np.random.default_rng(38)
    z = np.concatenate([rng.uniform(-1e3, 1e3, size=(5, 7)),
                        np.full((1, 7), 1e3)])
    g = rng.normal(size=z.shape)
    node = softmax(Tensor(z, requires_grad=True))
    y = softmax_rows(z.copy())
    assert np.array_equal(y, node.data)
    assert np.array_equal(y[-1], np.full(7, 1.0 / 7))
    (_, ref_grad), = node._backward(g)
    assert np.array_equal(softmax_rows_backward(y, g.copy()), ref_grad)
