"""Reference encoder composed from primitive Tensor ops, one node per step.

Test oracle for `flowmoe.nn.encoder_forward`, which runs the same network as
three fused sublayer ops with hand-derived backward closures. Dropout masks
are drawn in the same order (attention output, then feed-forward output),
so one `DropoutStream` seed gives both encoders the same masks.
"""

import math

from flowmoe.nn import (HEAD_DIM, INPUT_DIM, N_HEADS, N_TOKENS, TOKEN_DIM,
                        Tensor, dropout, positional_encoding, relu)

from composed_ops import layer_norm, softmax, transpose


def _maybe_dropout(t, train_mode, stream, rate):
    if not train_mode or rate <= 0.0:
        return t
    if stream is None:
        raise ValueError("train-mode dropout requires a DropoutStream")
    keep = 1.0 - rate
    return dropout(t, stream.mask(t.data.shape, keep), keep)


def composed_encoder_forward(params, x, train_mode=False, dropout_stream=None,
                             dropout_rate=0.2):
    """`encoder_forward` on (B, 912) input, built from primitive ops."""
    b = x.shape[0]
    tok = Tensor(x).reshape(b, N_TOKENS, TOKEN_DIM) + positional_encoding()

    def proj(name, t):
        return t @ params[f"{name}.w"] + params[f"{name}.b"]

    def split_heads(t):
        return transpose(t.reshape(b, N_TOKENS, N_HEADS, HEAD_DIM),
                         (0, 2, 1, 3))

    q = split_heads(proj("attn.q", tok))
    k = split_heads(proj("attn.k", tok))
    v = split_heads(proj("attn.v", tok))
    scores = (q @ transpose(k, (0, 1, 3, 2))) * (1.0 / math.sqrt(HEAD_DIM))
    weights = softmax(scores, axis=-1)
    ctx = transpose(weights @ v, (0, 2, 1, 3)).reshape(b, N_TOKENS, TOKEN_DIM)
    attn_out = proj("attn.o", ctx)
    attn_out = _maybe_dropout(attn_out, train_mode, dropout_stream, dropout_rate)
    h = layer_norm(tok + attn_out, params["ln1.gamma"], params["ln1.beta"])

    ff = relu(h @ params["ff.1.w"] + params["ff.1.b"])
    ff = ff @ params["ff.2.w"] + params["ff.2.b"]
    ff = _maybe_dropout(ff, train_mode, dropout_stream, dropout_rate)
    out = layer_norm(h + ff, params["ln2.gamma"], params["ln2.beta"])
    return out.reshape(b, INPUT_DIM)
