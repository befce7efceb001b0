"""Network building blocks: transformer encoder, two-layer heads, gradients.

The encoder reshapes raw (rows, 912) flow feature arrays into 24 tokens of
38 features plus a positional encoding, runs one 2-head self-attention
layer plus a position-wise feed-forward (38 -> 152 -> 38), each with
residual connection and layer norm, and flattens back to 912. Each
sublayer is one fused op (`fused`).
"""

from __future__ import annotations

import math

import numpy as np

from .fused import add_norm, attention, cross_entropy, feed_forward
from .params import ParamSet
from .tensor import Tensor, dropout, relu

INPUT_DIM = 912
N_TOKENS = 24
TOKEN_DIM = 38
N_HEADS = 2
HEAD_DIM = TOKEN_DIM // N_HEADS
FF_DIM = 4 * TOKEN_DIM
HIDDEN_DIM = 256


def positional_encoding():
    pe = np.zeros((N_TOKENS, TOKEN_DIM))
    pos = np.arange(N_TOKENS)[:, None]
    div = np.exp(np.arange(0, TOKEN_DIM, 2) * (-math.log(10000.0) / TOKEN_DIM))
    pe[:, 0::2] = np.sin(pos * div)
    pe[:, 1::2] = np.cos(pos * div[: pe[:, 1::2].shape[1]])
    return pe


_PE = positional_encoding()


def _affine_shapes(prefix, fan_in, fan_out):
    return {f"{prefix}w": (fan_in, fan_out), f"{prefix}b": (fan_out,)}


def encoder_shapes():
    """Parameter name -> shape of the encoder, in serialization order."""
    shapes = {}
    for name in ("attn.q", "attn.k", "attn.v", "attn.o"):
        shapes.update(_affine_shapes(f"{name}.", TOKEN_DIM, TOKEN_DIM))
    shapes.update({"ln1.gamma": (TOKEN_DIM,), "ln1.beta": (TOKEN_DIM,)})
    shapes.update(_affine_shapes("ff.1.", TOKEN_DIM, FF_DIM))
    shapes.update(_affine_shapes("ff.2.", FF_DIM, TOKEN_DIM))
    shapes.update({"ln2.gamma": (TOKEN_DIM,), "ln2.beta": (TOKEN_DIM,)})
    return shapes


def head_shapes(n_out):
    """Parameter name -> shape of a two-layer head [912 -> 256 -> n_out]."""
    return {**_affine_shapes("fc1.", INPUT_DIM, HIDDEN_DIM),
            **_affine_shapes("fc2.", HIDDEN_DIM, n_out)}


def gate_linear_shapes(n_inputs):
    """Parameter name -> shape of a gate projection [912 -> n_inputs]."""
    return _affine_shapes("", INPUT_DIM, n_inputs)


def _init_params(shapes, rng=None, zero=()):
    """ParamSet over `shapes`: layer-norm gains 1, weights U(+-1/sqrt(fan_in))
    drawn from `rng` in order, everything else (and weights without an `rng`
    or named in `zero`) 0."""
    p = ParamSet()
    for name, shape in shapes.items():
        leaf = name.rsplit(".", 1)[-1]
        if leaf == "gamma":
            data = np.ones(shape)
        elif leaf == "w" and rng is not None and name not in zero:
            bound = 1.0 / np.sqrt(shape[0])
            data = rng.uniform(-bound, bound, size=shape)
        else:
            data = np.zeros(shape)
        p.add(name, data)
    return p


def init_encoder(rng) -> ParamSet:
    return _init_params(encoder_shapes(), rng)


def init_head(rng, n_out, zero_output=False) -> ParamSet:
    """Two-layer classification head [912 -> 256 -> n_out].

    `zero_output` starts the final layer at zero so the head begins at the
    uniform prediction (used for freshly attached towers).
    """
    return _init_params(head_shapes(n_out), rng,
                        zero=("fc2.w",) if zero_output else ())


def init_gate_linear(n_inputs) -> ParamSet:
    """Gate projection [912 -> n_inputs], zero-initialized (uniform mix)."""
    return _init_params(gate_linear_shapes(n_inputs))


def stack_encoders(encoders):
    """Copies of the encoder ParamSets, stacked for one `encoder_forward`.

    Returns a new ParamSet in which each parameter gets a leading
    encoder axis plus singleton axes that broadcast over rows and tokens:
    (E, 1, d, e) weights, (E, 1, 1, d) vectors. The given encoders are
    left as they are, and no tensor of theirs shares memory with the stack.
    """
    stacked = ParamSet()
    for name, shape in encoder_shapes().items():
        lead = (len(encoders),) + (1,) * (3 - len(shape))
        stacked.add(name, np.stack([enc[name].data for enc in encoders])
                    .reshape(lead + shape))
    return stacked


def encoder_forward(params, x, train_mode=False, dropout_stream=None,
                    dropout_rate=0.2):
    """Run the encoder on a raw (B, 912) feature array; returns a (B, 912)
    Tensor.

    The positional encoding is added to the tokens in numpy, so the input
    takes no gradient; the encoder is three fused sublayer ops
    (`attention`, `add_norm`, `feed_forward`), so training and eval run
    one code path. With `params` from `stack_encoders`, E encoders run on
    the input at once and the result gains their leading axis,
    (E, B, 912), each slice bitwise that encoder's own output (and, in a
    backward sweep, each encoder's gradients bitwise those of its own
    pass).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != INPUT_DIM:
        raise ValueError(f"expected (rows, {INPUT_DIM}) input, "
                         f"got shape {x.shape}")
    p = params
    tok = Tensor(x.reshape(-1, N_TOKENS, TOKEN_DIM) + _PE)
    attn = attention(tok, *((p[f"attn.{n}.w"], p[f"attn.{n}.b"])
                            for n in "qkvo"), N_HEADS)
    h = add_norm(tok, attn, p["ln1.gamma"], p["ln1.beta"],
                 *_dropout_mask(attn.shape, train_mode, dropout_stream,
                                dropout_rate))
    ff = feed_forward(h, p["ff.1.w"], p["ff.1.b"], p["ff.2.w"], p["ff.2.b"])
    out = add_norm(h, ff, p["ln2.gamma"], p["ln2.beta"],
                   *_dropout_mask(ff.shape, train_mode, dropout_stream,
                                  dropout_rate))
    return out.reshape(out.shape[:-2] + (INPUT_DIM,))


def _dropout_mask(shape, train_mode, stream, rate):
    """(boolean keep-mask, keep probability) for train-mode dropout drawn
    from `stream`; (None, 1.0) when dropout is off."""
    if not train_mode or rate <= 0.0:
        return None, 1.0
    if stream is None:
        raise ValueError("train-mode dropout requires a DropoutStream")
    keep = 1.0 - rate
    return stream.mask(shape, keep), keep


def head_forward(params, x, train_mode=False, dropout_stream=None,
                 dropout_rate=0.2):
    """Two-layer head: linear -> ReLU -> dropout -> linear (logits), on a
    (B, 912) row batch, Tensor or array; returns (B, n_out) logits."""
    xt = x if isinstance(x, Tensor) else Tensor(x)
    h = relu(xt @ params["fc1.w"] + params["fc1.b"])
    mask, keep = _dropout_mask(h.shape, train_mode, dropout_stream,
                               dropout_rate)
    if mask is not None:
        h = dropout(h, mask, keep)
    return h @ params["fc2.w"] + params["fc2.b"]


def backward(loss, *param_sets):
    """Gradients of a scalar loss for every trainable parameter reached.

    Returns a tuple with one dict per given ParamSet, keyed by parameter
    name; frozen or unreached parameters have no entry. A returned
    gradient is valid until the next sweep: a matmul weight's gradient
    lives in a buffer its leaf reuses (see `tensor`), so copy it to keep it.
    """
    if not isinstance(loss, Tensor) or not loss.requires_grad:
        raise ValueError("loss does not carry a computation graph")
    for ps in param_sets:
        ps.zero_grad()
    loss.backward()
    return tuple({name: t.grad for name, t in ps.items() if t.grad is not None}
                 for ps in param_sets)


__all__ = [
    "INPUT_DIM", "N_TOKENS", "TOKEN_DIM", "N_HEADS", "HEAD_DIM", "FF_DIM",
    "HIDDEN_DIM", "positional_encoding", "encoder_shapes", "head_shapes",
    "gate_linear_shapes", "init_encoder", "init_head",
    "init_gate_linear", "stack_encoders", "encoder_forward", "head_forward",
    "backward", "cross_entropy", "relu",
]
