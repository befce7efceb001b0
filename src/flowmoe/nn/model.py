"""Network building blocks: transformer encoder, two-layer heads, gradients.

The encoder reshapes the 912-value flow feature vector into 24 tokens of
38 features, runs one 2-head self-attention layer plus a position-wise
feed-forward (38 -> 152 -> 38), each with residual connection and layer
norm, and flattens back to 912.
"""

from __future__ import annotations

import math

import numpy as np

from .params import ParamSet
from .tensor import Tensor, cross_entropy, dropout, layer_norm, no_grad, relu, softmax

INPUT_DIM = 912
N_TOKENS = 24
TOKEN_DIM = 38
N_HEADS = 2
HEAD_DIM = TOKEN_DIM // N_HEADS
FF_DIM = 4 * TOKEN_DIM
HIDDEN_DIM = 256


def positional_encoding(n_tokens=N_TOKENS, dim=TOKEN_DIM):
    pe = np.zeros((n_tokens, dim))
    pos = np.arange(n_tokens)[:, None]
    div = np.exp(np.arange(0, dim, 2) * (-math.log(10000.0) / dim))
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


def _as_batch(x):
    t = x if isinstance(x, Tensor) else Tensor(x)
    if t.data.ndim == 1:
        return t.reshape(1, -1), True
    return t, False


def encoder_forward(params, x, train_mode=False, dropout_stream=None,
                    dropout_rate=0.2, collect=None):
    """Run the encoder on (B, 912) or (912,) input; returns same leading shape.

    `collect`, when a dict, receives the per-head attention weights under
    key "attn" with shape (B, heads, tokens, tokens).
    """
    xt, squeeze = _as_batch(x)
    if xt.data.shape[-1] != INPUT_DIM:
        raise ValueError(f"expected input of length {INPUT_DIM}, "
                         f"got {xt.data.shape[-1]}")
    b = xt.data.shape[0]
    tok = xt.reshape(b, N_TOKENS, TOKEN_DIM) + Tensor(_PE)

    def proj(name, t):
        return t @ params[f"{name}.w"] + params[f"{name}.b"]

    def split_heads(t):
        return t.reshape(b, N_TOKENS, N_HEADS, HEAD_DIM).transpose((0, 2, 1, 3))

    q = split_heads(proj("attn.q", tok))
    k = split_heads(proj("attn.k", tok))
    v = split_heads(proj("attn.v", tok))
    scores = (q @ k.transpose((0, 1, 3, 2))) * (1.0 / math.sqrt(HEAD_DIM))
    weights = softmax(scores, axis=-1)
    if collect is not None:
        collect["attn"] = weights.data.copy()
    ctx = (weights @ v).transpose((0, 2, 1, 3)).reshape(b, N_TOKENS, TOKEN_DIM)
    attn_out = proj("attn.o", ctx)
    attn_out = _maybe_dropout(attn_out, train_mode, dropout_stream, dropout_rate)
    h = layer_norm(tok + attn_out, params["ln1.gamma"], params["ln1.beta"])

    ff = relu(h @ params["ff.1.w"] + params["ff.1.b"])
    ff = ff @ params["ff.2.w"] + params["ff.2.b"]
    ff = _maybe_dropout(ff, train_mode, dropout_stream, dropout_rate)
    out = layer_norm(h + ff, params["ln2.gamma"], params["ln2.beta"])
    out = out.reshape(b, INPUT_DIM)
    return out.reshape(INPUT_DIM) if squeeze else out


def _maybe_dropout(t, train_mode, stream, rate):
    if not train_mode or rate <= 0.0:
        return t
    if stream is None:
        raise ValueError("train-mode dropout requires a DropoutStream")
    keep = 1.0 - rate
    return dropout(t, stream.mask(t.data.shape, keep), keep)


def head_forward(params, x, train_mode=False, dropout_stream=None,
                 dropout_rate=0.2):
    """Two-layer head: linear -> ReLU -> dropout -> linear (logits)."""
    xt, squeeze = _as_batch(x)
    h = relu(xt @ params["fc1.w"] + params["fc1.b"])
    h = _maybe_dropout(h, train_mode, dropout_stream, dropout_rate)
    logits = h @ params["fc2.w"] + params["fc2.b"]
    return logits.reshape(logits.data.shape[-1]) if squeeze else logits


def backward(loss, *param_sets):
    """Gradients of a scalar loss for every trainable parameter reached.

    Returns a tuple with one dict per given ParamSet, keyed by parameter
    name; frozen or unreached parameters have no entry.
    """
    if not isinstance(loss, Tensor) or not loss.requires_grad:
        raise ValueError("loss does not carry a computation graph")
    for ps in param_sets:
        ps.zero_grad()
    loss.backward()
    return tuple({name: t.grad for name, t in ps.items() if t.grad is not None}
                 for ps in param_sets)


def eval_forward(fn, *args, **kwargs):
    with no_grad():
        return fn(*args, **kwargs).data


__all__ = [
    "INPUT_DIM", "N_TOKENS", "TOKEN_DIM", "N_HEADS", "HEAD_DIM", "FF_DIM",
    "HIDDEN_DIM", "positional_encoding", "encoder_shapes", "head_shapes",
    "gate_linear_shapes", "init_encoder", "init_head",
    "init_gate_linear", "encoder_forward", "head_forward", "backward",
    "eval_forward", "cross_entropy", "softmax", "relu",
]
